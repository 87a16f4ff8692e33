//! Reproduces Fig. 2: the Rosetta switch-latency distribution.

fn main() {
    slingshot_experiments::driver::main::<slingshot_experiments::fig2::Fig2>();
}
