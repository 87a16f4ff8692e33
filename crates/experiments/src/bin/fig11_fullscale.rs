//! Reproduces Fig. 11: congestion impact at full system scale.

fn main() {
    slingshot_experiments::driver::main::<slingshot_experiments::fig11::Fig11>();
}
