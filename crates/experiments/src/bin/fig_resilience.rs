//! Resilience sweep: throughput/latency degradation and recovery under
//! seeded fault injection (not a paper figure; exercises §II-F).

fn main() {
    slingshot_experiments::driver::main::<slingshot_experiments::resilience::Resilience>();
}
