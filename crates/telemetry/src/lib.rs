//! # slingshot-telemetry
//!
//! Time-resolved observability for the Slingshot reproduction.
//!
//! The paper is a *measurement* study — its figures are congestion heatmaps
//! and bandwidth-over-time plots — but end-of-run aggregates can only show
//! that congestion happened, never *when* or *to which packet*. This crate
//! adds the missing layer:
//!
//! * [`TelemetryHub`]: time-bucketed collectors (per-port utilization and
//!   queue occupancy, per-(class,VC) credit stalls, and the
//!   congestion-control window and paused-pair gauges), plus one array of
//!   event-count series indexed by [`CountKind`] (ECN marks, minimal and
//!   Valiant routing decisions, LLR replays, drops, e2e retransmits), fed
//!   through [`TelemetryHub::count`] at the simulator's existing
//!   `KernelStats` bump sites. One table declares the count kinds and
//!   gives each its JSONL series name, Perfetto track name and unit.
//! * [`FlightRecorder`]: a deterministic 1-in-N sampled per-packet
//!   hop-by-hop timeline (NIC serialize → switch arrival → VOQ wait →
//!   transmit → delivery → e2e ack/retry) in a bounded ring buffer. The
//!   sampling decision is a pure hash of packet identity and seed
//!   ([`slingshot_des::mix64`]) so it never perturbs an RNG stream and
//!   traces are reproducible at any `--jobs` level.
//! * Exporters: Perfetto/Chrome-trace JSON ([`perfetto`]) with packets as
//!   async track events and ports as counter tracks, and a line-oriented
//!   JSONL stream ([`jsonl`]), plus a `trace_dump` binary for validating
//!   and summarizing emitted traces.
//!
//! The whole subsystem is `Option`-gated in the simulator: when disabled,
//! each instrumentation site is a single `Option` discriminant check and a
//! run's output is byte-identical to an uninstrumented build.

#![warn(missing_docs)]

mod config;
mod hub;
pub mod jsonl;
pub mod perfetto;
mod recorder;

pub use config::TelemetryConfig;
pub use hub::{ClassVcStallReport, CountKind, PortReport, TelemetryHub, TelemetryReport};
pub use recorder::{FlightRecorder, HopKind, TraceEvent};
