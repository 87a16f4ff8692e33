//! Reproduces Fig. 5: RTT/2 per software layer vs message size.

fn main() {
    slingshot_experiments::driver::main::<slingshot_experiments::fig5::Fig5>();
}
