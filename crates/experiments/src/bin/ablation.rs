//! Ablation sweeps: which design choices produce Slingshot's congestion
//! isolation (not a paper figure; see DESIGN.md).

fn main() {
    slingshot_experiments::driver::main::<slingshot_experiments::ablation::Ablation>();
}
