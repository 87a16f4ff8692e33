//! Reproduces Fig. 14: bandwidth guarantees between traffic classes.

fn main() {
    slingshot_experiments::driver::main::<slingshot_experiments::fig14::Fig14>();
}
