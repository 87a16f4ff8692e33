//! Reproduces Fig. 9: the congestion-impact heatmap.

fn main() {
    slingshot_experiments::driver::main::<slingshot_experiments::fig9::Fig9>();
}
