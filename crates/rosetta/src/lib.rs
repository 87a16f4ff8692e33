//! # slingshot-rosetta
//!
//! Model of the Rosetta switch ASIC (paper §II-A): the 4 × 8 tile grid with
//! two ports per tile, row buses and per-tile 16:8 column crossbars, and a
//! calibrated port-to-port latency model reproducing the paper's Fig. 2
//! distribution (mean/median ≈ 350 ns, bulk within 300–400 ns).
//!
//! The simulator's switches take only their traversal latency from here;
//! their per-(traffic class, VC) output queues live in `slingshot-network`.

#![warn(missing_docs)]

mod latency;
mod tiles;

pub use latency::LatencyModel;
pub use tiles::{
    internal_hops, internal_route, InternalRoute, Tile, COLS, PORTS, PORTS_PER_TILE, ROWS, TILES,
    XBAR_INPUTS, XBAR_OUTPUTS,
};
