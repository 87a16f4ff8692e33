//! Resilience sweep (`fig_resilience`): graceful degradation under
//! injected faults.
//!
//! Not a paper figure — the paper reports Slingshot's reliability ladder
//! (§II-F: FEC, link-level retry, lane degrade, adaptive rerouting,
//! end-to-end retry) qualitatively; this sweep exercises it. A shift
//! pattern (every node sends one message to the node half the machine
//! away) runs under seeded random fault schedules of increasing intensity:
//! transient bit-error bursts, link flaps, hard lane failures, and
//! whole-switch outages. Each row reports throughput and latency
//! degradation relative to the fault-free baseline, the recovery-ladder
//! counters, a delivery/drop conservation check (`unaccounted` must be 0 —
//! loss is visible, never silent), and a recovery timeline of delivered
//! bytes over simulated time.
//!
//! Intensity 0 produces an empty schedule, which the network treats as "no
//! fault mode": that row takes the exact fault-free code path, so the
//! baseline is byte-identical to a run without any fault machinery.

use crate::report::Table;
use crate::runner::{self, CellMeta, Outcome};
use crate::scale::Scale;
use crate::{driver::Figure, SweepCache};
use serde::Serialize;
use slingshot_des::{SimDuration, SimTime};
use slingshot_faults::{FaultConfig, FaultRates, FaultSchedule};
use slingshot_network::{FaultStats, Network, NetworkConfig, Notification, SimError};
use slingshot_topology::{shandy_scaled, tiny, DragonflyParams, NodeId};

/// Fault-rate multipliers swept by the figure (0 = fault-free baseline).
pub const INTENSITIES: [f64; 6] = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0];

/// One point of the recovery timeline.
#[derive(Clone, Debug, Serialize)]
pub struct TimelinePoint {
    /// Simulated time of the checkpoint, ns.
    pub t_ns: u64,
    /// Total payload bytes delivered so far.
    pub delivered_bytes: u64,
    /// Packet copies dropped in the fabric so far (all reasons).
    pub dropped_packets: u64,
    /// Channels down at the checkpoint.
    pub links_down: u64,
    /// Switches down at the checkpoint.
    pub switches_down: u64,
}

/// One fault-intensity cell of the sweep.
#[derive(Clone, Debug, Serialize)]
pub struct ResilienceRow {
    /// Fault-rate multiplier applied to the base rates.
    pub intensity: f64,
    /// Events in the generated fault schedule.
    pub schedule_events: u64,
    /// Messages offered (one per node).
    pub messages: u64,
    /// Messages fully delivered.
    pub delivered_messages: u64,
    /// Payload bytes offered.
    pub offered_bytes: u64,
    /// Payload bytes delivered.
    pub delivered_bytes: u64,
    /// Time of the last delivery, ns (0 if nothing was delivered).
    pub completion_ns: u64,
    /// Goodput over the active period, Gb/s.
    pub throughput_gbps: f64,
    /// Throughput relative to the intensity-0 baseline row.
    pub relative_throughput: f64,
    /// Median delivered-packet one-way latency, ns.
    pub latency_p50_ns: f64,
    /// 99th-percentile delivered-packet one-way latency, ns.
    pub latency_p99_ns: f64,
    /// Conservation residue: injected − delivered − dropped. Always 0.
    pub unaccounted: i64,
    /// Recovery-ladder counters for the run.
    pub faults: FaultStats,
    /// Delivered-bytes checkpoints over simulated time.
    pub timeline: Vec<TimelinePoint>,
}

/// Base (intensity 1.0) whole-network fault rates. Chosen so the quick
/// run's active transfer window sees a handful of each class: bursts
/// dominate, link flaps and lane failures are occasional, whole-switch
/// outages are rare.
pub fn base_rates() -> FaultRates {
    FaultRates {
        link_flaps_per_sec: 15_000.0,
        bursts_per_sec: 40_000.0,
        lane_degrades_per_sec: 10_000.0,
        switch_failures_per_sec: 5_000.0,
    }
}

fn topology_for(scale: Scale) -> DragonflyParams {
    match scale {
        Scale::Tiny => tiny(),
        Scale::Quick | Scale::Paper => shandy_scaled(scale.shandy_groups()),
    }
}

fn msg_bytes_for(scale: Scale) -> u64 {
    match scale {
        Scale::Tiny => 16 << 10,
        Scale::Quick => 64 << 10,
        Scale::Paper => 256 << 10,
    }
}

/// Messages each node sends (submitted up front, drained back to back, so
/// the transfer stays active across the whole fault window).
fn rounds_for(scale: Scale) -> u64 {
    match scale {
        Scale::Tiny => 8,
        Scale::Quick => 2,
        Scale::Paper => 2,
    }
}

/// The window fault strikes are drawn from (repairs may land later).
/// Sized to the active transfer period of the shift pattern at each scale,
/// so strikes land while packets are in flight.
fn horizon_for(scale: Scale) -> SimDuration {
    match scale {
        Scale::Tiny => SimDuration::from_us(40),
        Scale::Quick => SimDuration::from_us(200),
        Scale::Paper => SimDuration::from_ms(1),
    }
}

/// Drain notifications, tracking completed messages and the last delivery.
fn drain(net: &mut Network, delivered_messages: &mut u64, last_delivery: &mut SimTime) {
    for n in net.take_notifications() {
        if let Notification::Delivered { delivered_at, .. } = n {
            *delivered_messages += 1;
            if delivered_at > *last_delivery {
                *last_delivery = delivered_at;
            }
        }
    }
}

fn checkpoint(net: &Network, t_ns: u64) -> TimelinePoint {
    let delivered_bytes = (0..net.node_count())
        .map(|n| net.delivered_payload(NodeId(n)))
        .sum();
    let (links_down, switches_down) = match net.liveness() {
        Some(l) => (l.channels_down() as u64, l.switches_down() as u64),
        None => (0, 0),
    };
    TimelinePoint {
        t_ns,
        delivered_bytes,
        dropped_packets: net.kernel_stats().packets_dropped,
        links_down,
        switches_down,
    }
}

/// Simulate one fault intensity. `idx` seeds the schedule, so every cell
/// of the sweep draws an independent scenario.
fn simulate(scale: Scale, idx: usize, intensity: f64) -> Result<ResilienceRow, SimError> {
    let params = topology_for(scale);
    let (n_channels, n_switches) = {
        let topo = params.build();
        (topo.channels().len() as u32, topo.switch_count())
    };
    let horizon = horizon_for(scale);
    let rates = base_rates().scaled(intensity);
    let schedule = FaultSchedule::random(
        0xFA17_0000 + idx as u64,
        horizon,
        n_channels,
        n_switches,
        &rates,
    );
    let schedule_events = schedule.len() as u64;

    let mut cfg = NetworkConfig::slingshot(params);
    cfg.faults = Some(FaultConfig::new(schedule));
    let mut net = Network::new(cfg);
    net.enable_latency_sampling();

    let nodes = net.node_count();
    let msg_bytes = msg_bytes_for(scale);
    let rounds = rounds_for(scale);
    let shift = nodes / 2;
    for round in 0..rounds {
        for i in 0..nodes {
            let tag = round * nodes as u64 + i as u64;
            net.send(NodeId(i), NodeId((i + shift) % nodes), msg_bytes, 0, tag);
        }
    }

    // Checkpoint the fault window (and one window of aftermath) at a fixed
    // cadence, then run out the retry tail to quiescence.
    let horizon_ns = horizon.as_ps() / 1000;
    let dt_ns = (horizon_ns / 40).max(1);
    let mut delivered_messages = 0u64;
    let mut last_delivery = SimTime::ZERO;
    let mut timeline = Vec::new();
    let mut t_ns = 0u64;
    while t_ns < 2 * horizon_ns {
        t_ns += dt_ns;
        net.run_until(SimTime::from_ns(t_ns))?;
        drain(&mut net, &mut delivered_messages, &mut last_delivery);
        timeline.push(checkpoint(&net, t_ns));
        if net.next_event_time().is_none() {
            break;
        }
    }
    net.run_to_quiescence(scale.event_budget())?;
    drain(&mut net, &mut delivered_messages, &mut last_delivery);
    timeline.push(checkpoint(&net, net.now().as_ns()));

    net.assert_fault_conservation();
    let faults = net.fault_stats().unwrap_or_default();
    let delivered_bytes = timeline.last().expect("timeline non-empty").delivered_bytes;
    let completion_ns = last_delivery.as_ns();
    let throughput_gbps = if completion_ns > 0 {
        (delivered_bytes * 8) as f64 / completion_ns as f64
    } else {
        0.0
    };
    let mut sample = net.take_latency_sample();
    let (latency_p50_ns, latency_p99_ns) = if sample.is_empty() {
        (0.0, 0.0)
    } else {
        (sample.percentile(50.0), sample.percentile(99.0))
    };

    Ok(ResilienceRow {
        intensity,
        schedule_events,
        messages: nodes as u64 * rounds,
        delivered_messages,
        offered_bytes: nodes as u64 * rounds * msg_bytes,
        delivered_bytes,
        completion_ns,
        throughput_gbps,
        relative_throughput: 0.0, // filled against the baseline below
        latency_p50_ns,
        latency_p99_ns,
        unaccounted: faults.unaccounted(),
        faults,
        timeline,
    })
}

/// The resilience sweep for the figure driver.
pub struct Resilience;

impl Figure for Resilience {
    const STEM: &'static str = "fig_resilience";
    type Output = Vec<ResilienceRow>;

    /// Run the sweep: one row per intensity, baseline first. Each intensity
    /// runs quarantined; a stalled or panicking cell becomes an error row
    /// (relative throughput is left 0.0 for every row if the baseline cell
    /// itself failed).
    fn run(scale: Scale, _: Option<&SweepCache>) -> Outcome<Vec<ResilienceRow>> {
        let cells: Vec<(usize, f64)> = INTENSITIES.iter().copied().enumerate().collect();
        let results = runner::quarantine_map(
            &cells,
            |&(idx, intensity)| CellMeta {
                label: format!("fault intensity x{intensity}"),
                seed: 0xFA17_0000 + idx as u64,
            },
            |&(idx, intensity)| simulate(scale, idx, intensity),
        );
        let (rows, failures) = runner::split_results(results);
        let mut rows: Vec<ResilienceRow> = rows.into_iter().flatten().collect();
        let baseline = rows
            .first()
            .filter(|r| r.intensity == 0.0)
            .map(|r| r.throughput_gbps)
            .unwrap_or(0.0);
        for r in &mut rows {
            r.relative_throughput = if baseline > 0.0 {
                r.throughput_gbps / baseline
            } else {
                0.0
            };
        }
        Outcome {
            output: rows,
            failures,
        }
    }

    fn render(scale: Scale, rows: &Vec<ResilienceRow>) {
        println!(
            "Resilience — shift pattern under injected faults ({})",
            scale.label()
        );
        println!();
        let mut t = Table::new([
            "intensity",
            "faults",
            "delivered",
            "dropped",
            "llr",
            "retx",
            "giveups",
            "Gb/s",
            "rel",
            "p50 us",
            "p99 us",
        ]);
        for r in rows {
            t.row([
                format!("{}x", r.intensity),
                r.faults.faults_applied.to_string(),
                format!("{}/{}", r.delivered_messages, r.messages),
                r.faults.dropped_total().to_string(),
                r.faults.llr_replays.to_string(),
                r.faults.e2e_retransmits.to_string(),
                r.faults.e2e_giveups.to_string(),
                format!("{:.1}", r.throughput_gbps),
                format!("{:.2}", r.relative_throughput),
                format!("{:.2}", r.latency_p50_ns / 1000.0),
                format!("{:.2}", r.latency_p99_ns / 1000.0),
            ]);
        }
        t.print();
        println!();
        let leaked: i64 = rows.iter().map(|r| r.unaccounted).sum();
        println!(
            "conservation: injected == delivered + dropped-with-reason on every row \
             (residue {leaked})"
        );
        println!(
            "ladder: LLR replay -> lane degrade -> link down -> reroute -> e2e retry; \
             intensity 0 is the byte-identical fault-free path."
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_fault_free_and_complete() {
        let row = simulate(Scale::Tiny, 0, 0.0).expect("baseline completes");
        assert_eq!(row.schedule_events, 0);
        assert_eq!(row.faults, FaultStats::default());
        assert_eq!(row.delivered_messages, row.messages);
        assert_eq!(row.delivered_bytes, row.offered_bytes);
        assert_eq!(row.unaccounted, 0);
        assert!(row.throughput_gbps > 0.0);
    }

    #[test]
    fn faulty_run_recovers_with_full_accounting() {
        let row = simulate(Scale::Tiny, 2, 4.0).expect("faulty run completes");
        assert!(row.schedule_events > 0, "intensity 4 injected nothing");
        assert!(row.faults.faults_applied > 0);
        assert_eq!(row.unaccounted, 0, "copies leaked");
        assert!(row.delivered_messages > 0, "nothing survived the faults");
        // Timeline is monotone in delivered bytes.
        for w in row.timeline.windows(2) {
            assert!(w[1].delivered_bytes >= w[0].delivered_bytes);
            assert!(w[1].dropped_packets >= w[0].dropped_packets);
        }
    }
}
