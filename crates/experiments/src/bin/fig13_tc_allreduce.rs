//! Reproduces Fig. 13: traffic-class isolation of an 8 B allreduce.

fn main() {
    slingshot_experiments::driver::main::<slingshot_experiments::fig13::Fig13>();
}
