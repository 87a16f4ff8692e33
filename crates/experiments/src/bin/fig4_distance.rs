//! Reproduces Fig. 4: latency/bandwidth vs node distance (isolated system).

fn main() {
    slingshot_experiments::driver::main::<slingshot_experiments::fig4::Fig4>();
}
