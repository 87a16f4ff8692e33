//! Runs every paper figure at the selected scale, in order, in this
//! process; a failing figure does not abort the batch.

fn main() {
    slingshot_experiments::driver::all_figures();
}
