//! Reproduces Fig. 8: Tailbench latency distributions ± incast congestion.

fn main() {
    slingshot_experiments::driver::main::<slingshot_experiments::fig8::Fig8>();
}
