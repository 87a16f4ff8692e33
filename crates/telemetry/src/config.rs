//! Telemetry configuration.

/// Width of the time-series buckets, in picoseconds (the simulator's
/// native unit): 1 µs, the finest-grained bandwidth-over-time plots in the
/// paper.
pub(crate) const BUCKET_PS: u64 = 1_000_000;

/// Ring-buffer capacity of the flight recorder, in events. When full, the
/// oldest events are overwritten (the report counts evictions).
pub(crate) const RING_CAPACITY: usize = 1 << 16;

/// Tuning knob of the telemetry subsystem.
///
/// A network built without one of these (the default) carries no telemetry
/// state at all; every instrumentation site reduces to one `Option`
/// discriminant check. The network seeds the flight recorder's sampling
/// hash with its own seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TelemetryConfig {
    /// Flight-recorder sampling rate: trace roughly 1 in `sample_every`
    /// packets, at least 1 (`1` traces every packet).
    pub(crate) sample_every: u32,
}

impl TelemetryConfig {
    /// Config with the flight recorder on at 1-in-`sample_every`.
    ///
    /// # Panics
    /// If `sample_every` is 0.
    pub fn sampled(sample_every: u32) -> Self {
        assert!(sample_every > 0, "telemetry samples 1 in at least 1 packet");
        TelemetryConfig { sample_every }
    }
}
