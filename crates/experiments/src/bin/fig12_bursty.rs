//! Reproduces Fig. 12: bursty incast vs a 128 B MPI_Alltoall victim.

fn main() {
    slingshot_experiments::driver::main::<slingshot_experiments::fig12::Fig12>();
}
