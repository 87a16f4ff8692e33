//! Reproduces Fig. 6: bisection and MPI_Alltoall bandwidth on Shandy.

fn main() {
    slingshot_experiments::driver::main::<slingshot_experiments::fig6::Fig6>();
}
