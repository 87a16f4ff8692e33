//! Reproduces Fig. 10: impact distributions across allocations/PPN/size.

fn main() {
    slingshot_experiments::driver::main::<slingshot_experiments::fig10::Fig10>();
}
