//! Live fault state inside the simulator: liveness, lane health, transient
//! error bursts, the end-to-end retry table and timer lines, and
//! copy-conservation accounting.
//!
//! The runtime exists only when a non-empty [`slingshot_faults::FaultSchedule`]
//! is installed; a `Network` without one carries `None` and every fault
//! check stays behind a single `is_some()` branch, so fault-free
//! simulations execute the exact historical code path (same events, same
//! RNG draws, byte-identical results).

use crate::packet::MessageId;
use crate::switch::PortKind;
use fxhash::FxHashMap;
use serde::Serialize;
use slingshot_des::{DetRng, SimTime};
use slingshot_ethernet::PortLanes;
use slingshot_faults::{FaultConfig, FaultSchedule, RecoveryConfig, E2E_BACKOFF_CAP};
use slingshot_topology::{Dragonfly, Liveness, SwitchId};
use std::collections::VecDeque;

/// Why a packet copy was destroyed in the fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// Flushed from (or aimed at) a downed channel.
    LinkDown,
    /// Lost inside (or heading into) a downed switch.
    SwitchDown,
    /// Adaptive healing found no live candidate even after re-deciding the
    /// route.
    NoRoute,
    /// LLR exhausted its replay budget; the link was declared bad and the
    /// packet on it destroyed.
    LlrExhausted,
}

/// Fault and recovery counters.
///
/// The central invariant is *copy conservation*: every packet copy handed
/// to a NIC serializer is eventually accounted as delivered (unique or
/// duplicate) or dropped with a reason — never silently lost. Verify it
/// with [`FaultStats::conservation_holds`] (or
/// `Network::assert_fault_conservation`) once the simulation quiesces.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct FaultStats {
    /// Packet copies handed to NIC serializers (originals + retransmits).
    pub copies_injected: u64,
    /// Copies that delivered a chunk for the first time.
    pub delivered_unique: u64,
    /// Copies that arrived after their chunk had already been delivered
    /// (the original's ack was lost or late); acked but not re-delivered.
    pub delivered_duplicate: u64,
    /// Copies destroyed by a downed link (queue flush or dead next hop).
    pub dropped_link_down: u64,
    /// Copies destroyed by a downed switch.
    pub dropped_switch_down: u64,
    /// Copies destroyed because healing found no live route.
    pub dropped_no_route: u64,
    /// Copies destroyed when LLR replays ran out.
    pub dropped_llr_exhausted: u64,
    /// Link-level replays performed (§II-F low-latency retransmission).
    pub llr_replays: u64,
    /// LLR retry budgets exhausted (each takes the link down).
    pub llr_escalations: u64,
    /// End-to-end retransmit timers that fired for a still-unacked copy.
    pub e2e_timeouts: u64,
    /// End-to-end retransmissions issued.
    pub e2e_retransmits: u64,
    /// Chunks abandoned after the retry budget (sender-visible loss).
    pub e2e_giveups: u64,
    /// Acks that arrived for a superseded or already-resolved copy.
    pub stale_acks: u64,
    /// Schedule entries applied.
    pub faults_applied: u64,
    /// Links that transitioned up → down (scheduled or LLR escalation).
    pub link_down_events: u64,
    /// Links that transitioned down → up.
    pub link_up_events: u64,
    /// Lane-failure events applied.
    pub lane_degrade_events: u64,
    /// Switches that transitioned up → down.
    pub switch_down_events: u64,
    /// Switches that transitioned down → up.
    pub switch_up_events: u64,
    /// Links auto-repaired after an LLR escalation (retrain finished).
    pub auto_repairs: u64,
}

impl FaultStats {
    /// Copies destroyed in the fabric, all reasons.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_link_down
            + self.dropped_switch_down
            + self.dropped_no_route
            + self.dropped_llr_exhausted
    }

    /// Copies whose fate is recorded (delivered or dropped).
    pub fn accounted(&self) -> u64 {
        self.delivered_unique + self.delivered_duplicate + self.dropped_total()
    }

    /// Injected copies not yet accounted for. Non-zero mid-flight; must be
    /// zero once the simulation quiesces.
    pub fn unaccounted(&self) -> i64 {
        self.copies_injected as i64 - self.accounted() as i64
    }

    /// The conservation invariant: `injected == delivered + dropped`.
    pub fn conservation_holds(&self) -> bool {
        self.unaccounted() == 0
    }
}

/// One chunk's outstanding end-to-end state at the sending NIC.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RetryEntry {
    /// Copy id of the transmission currently awaiting an ack.
    pub copy: u32,
    /// Retransmissions already issued for this chunk.
    pub attempt: u32,
}

/// One copy's end-to-end deadline, waiting in its NIC's timer line.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TimerEntry {
    /// When the timer fires.
    pub deadline: SimTime,
    /// Event-queue sequence number reserved when the copy was injected,
    /// so the timer fires at its place in the global event order.
    pub seq: u64,
    pub msg: MessageId,
    pub chunk: u32,
    pub copy: u32,
}

const _: () = assert!(std::mem::size_of::<TimerEntry>() <= 32);

/// All live fault state of a running network.
pub(crate) struct FaultRuntime {
    /// The installed schedule (indexed by `Event::Fault`).
    pub schedule: FaultSchedule,
    /// Recovery-ladder tunables.
    pub recovery: RecoveryConfig,
    /// Which channels/switches are currently up.
    pub liveness: Liveness,
    /// Per-channel SerDes lane health.
    pub lanes: Vec<PortLanes>,
    /// Per-channel burst error rate (valid while `now < burst_until`).
    pub burst_rate: Vec<f64>,
    /// Per-channel burst expiry.
    pub burst_until: Vec<SimTime>,
    /// Outstanding end-to-end state per `(message, chunk)`. Hit on every
    /// inject, ack and e2e timeout and never iterated, so Fx hashing cannot
    /// change any result.
    pub retry: FxHashMap<(u64, u32), RetryEntry>,
    /// End-to-end timer lines, `levels` per NIC: line `node * levels +
    /// level` holds the deadlines of the copies `node` sent at retry
    /// attempt `level` (attempts past [`E2E_BACKOFF_CAP`] share the last
    /// level, as they share its timeout). A NIC serializes one copy at a
    /// time and a level fixes the timeout, so every line is in strictly
    /// increasing deadline order. A line is armed, with exactly one
    /// `E2eTimeout` in the event queue for its head entry, exactly when it
    /// is non-empty.
    lines: Vec<VecDeque<TimerEntry>>,
    /// Timer lines per NIC: `min(e2e_max_retries, E2E_BACKOFF_CAP) + 1`.
    levels: u32,
    /// Last copy id handed out (0 is reserved for "no fault mode").
    next_copy: u32,
    /// Fault-plane RNG (forked from the network seed; never touches the
    /// main simulation stream).
    pub rng: DetRng,
    /// Counters. `llr_replays`, `llr_escalations` and `e2e_retransmits`
    /// stay 0 here: the kernel counters hold them, and
    /// `Network::fault_stats` copies them in.
    pub stats: FaultStats,
}

impl FaultRuntime {
    /// Build the runtime for `topo` from an (installed, non-empty) config.
    pub fn new(cfg: &FaultConfig, topo: &Dragonfly, seed: u64) -> Self {
        let n_ch = topo.channels().len();
        let levels = cfg.recovery.e2e_max_retries.min(E2E_BACKOFF_CAP) + 1;
        FaultRuntime {
            schedule: cfg.schedule.clone(),
            recovery: cfg.recovery,
            liveness: Liveness::for_topology(topo),
            lanes: vec![PortLanes::rosetta(); n_ch],
            burst_rate: vec![0.0; n_ch],
            burst_until: vec![SimTime::ZERO; n_ch],
            retry: FxHashMap::default(),
            // Built in place: `vec![VecDeque::new(); n]` clones every line,
            // which measurably slowed `Network::new`.
            lines: std::iter::repeat_with(VecDeque::new)
                .take(topo.node_count() as usize * levels as usize)
                .collect(),
            levels,
            next_copy: 0,
            rng: DetRng::seed_from(seed).fork(0xFA17),
            stats: FaultStats::default(),
        }
    }

    /// Fresh copy id (monotonic, starting at 1).
    pub fn alloc_copy(&mut self) -> u32 {
        self.next_copy += 1;
        self.next_copy
    }

    /// The timer level of a copy sent at retry attempt `attempt`.
    pub fn timer_level(attempt: u32) -> u8 {
        attempt.min(E2E_BACKOFF_CAP) as u8
    }

    fn line(&self, node: u32, level: u8) -> usize {
        debug_assert!(
            u32::from(level) < self.levels,
            "timer level past the retry budget"
        );
        node as usize * self.levels as usize + level as usize
    }

    /// Append a copy's deadline to `node`'s line for `level`, first
    /// dropping the dead entries behind the line's (possibly armed) head.
    /// Returns `true` when the line was empty: the caller must then arm it
    /// by scheduling the line's `E2eTimeout` at `entry`'s deadline and
    /// sequence number.
    pub fn file_timer(&mut self, node: u32, level: u8, entry: TimerEntry) -> bool {
        let i = self.line(node, level);
        let line = &mut self.lines[i];
        drop_dead(line, &self.retry, 1);
        debug_assert!(
            line.back()
                .is_none_or(|last| last.deadline < entry.deadline),
            "timer line out of deadline order"
        );
        line.push_back(entry);
        line.len() == 1
    }

    /// The armed timer of `node`'s line for `level` fired: pop and return
    /// its entry, together with the entry to arm next, if any: the first
    /// entry whose copy still awaits its ack, or else the line's last.
    pub fn fire_timer(&mut self, node: u32, level: u8) -> (TimerEntry, Option<TimerEntry>) {
        let i = self.line(node, level);
        let line = &mut self.lines[i];
        let fired = line.pop_front().expect("armed timer line is empty");
        drop_dead(line, &self.retry, 0);
        (fired, line.front().copied())
    }

    /// Deadlines still filed across all timer lines (zero once quiesced).
    pub fn timers_pending(&self) -> usize {
        self.lines.iter().map(VecDeque::len).sum()
    }

    /// Why a packet leaving switch `sw` through an output port of `kind`
    /// dies there: the switch is down, or the port's channel is; `None`
    /// when both are up.
    pub fn dead_output(&self, sw: SwitchId, kind: PortKind) -> Option<DropReason> {
        if !self.liveness.is_switch_up(sw) {
            return Some(DropReason::SwitchDown);
        }
        match kind {
            PortKind::Channel(ch) if !self.liveness.is_channel_up(ch) => Some(DropReason::LinkDown),
            _ => None,
        }
    }

    /// Per-traversal transient error probability on channel `ch` at `now`:
    /// the base rate plus any active burst.
    pub fn error_rate(&self, ch: usize, now: SimTime) -> f64 {
        let base = self.recovery.transient_error_rate;
        if now < self.burst_until[ch] {
            base + self.burst_rate[ch]
        } else {
            base
        }
    }
}

/// Drop the entries of `line` from index `from` on whose copies no longer
/// await an ack (acked, given up or superseded by a retransmit): their
/// timers could only fire as no-ops. Stops at the first live entry. The
/// line's last entry always stays, so the last deadline a line files
/// always fires and a run ends when its last deadline passes.
fn drop_dead(
    line: &mut VecDeque<TimerEntry>,
    retry: &FxHashMap<(u64, u32), RetryEntry>,
    from: usize,
) {
    while line.len() > from + 1 {
        let e = line[from];
        if retry
            .get(&(e.msg.0, e.chunk))
            .is_some_and(|r| r.copy == e.copy)
        {
            break;
        }
        line.remove(from);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_accounting() {
        let mut s = FaultStats {
            copies_injected: 10,
            delivered_unique: 6,
            delivered_duplicate: 1,
            dropped_link_down: 2,
            ..Default::default()
        };
        assert_eq!(s.dropped_total(), 2);
        assert_eq!(s.unaccounted(), 1);
        assert!(!s.conservation_holds());
        s.dropped_no_route = 1;
        assert!(s.conservation_holds());
    }

    #[test]
    fn burst_raises_error_rate_until_expiry() {
        let topo = slingshot_topology::tiny().build();
        let cfg = FaultConfig::new(slingshot_faults::FaultSchedule::empty());
        let mut rt = FaultRuntime::new(&cfg, &topo, 7);
        let base = rt.recovery.transient_error_rate;
        rt.burst_rate[0] = 0.25;
        rt.burst_until[0] = SimTime::from_us(10);
        assert!((rt.error_rate(0, SimTime::from_us(5)) - (base + 0.25)).abs() < 1e-12);
        assert!((rt.error_rate(0, SimTime::from_us(10)) - base).abs() < 1e-12);
        assert_eq!(rt.alloc_copy(), 1);
        assert_eq!(rt.alloc_copy(), 2);
    }

    #[test]
    fn timer_line_arms_its_first_live_entry_or_else_its_last() {
        let topo = slingshot_topology::tiny().build();
        let cfg = FaultConfig::new(slingshot_faults::FaultSchedule::empty());
        let mut rt = FaultRuntime::new(&cfg, &topo, 7);
        let entry = |k: u32| TimerEntry {
            deadline: SimTime::from_us(u64::from(k)),
            seq: u64::from(k),
            msg: MessageId(0),
            chunk: k,
            copy: k,
        };
        // Copies 1..=5 on one line; only copy 3 still awaits its ack.
        rt.retry.insert(
            (0, 3),
            RetryEntry {
                copy: 3,
                attempt: 0,
            },
        );
        for k in 1..=5 {
            assert_eq!(rt.file_timer(0, 0, entry(k)), k == 1, "arm only when idle");
        }
        // Filing copy 4 dropped copy 2 from behind the armed head.
        assert_eq!(rt.timers_pending(), 4);
        let (fired, next) = rt.fire_timer(0, 0);
        assert_eq!((fired.copy, next.map(|e| e.copy)), (1, Some(3)));
        // With nothing live, the last entry is armed, never dropped.
        rt.retry.clear();
        let (fired, next) = rt.fire_timer(0, 0);
        assert_eq!((fired.copy, next.map(|e| e.copy)), (3, Some(5)));
        let (fired, next) = rt.fire_timer(0, 0);
        assert_eq!((fired.copy, next.map(|e| e.copy)), (5, None));
        assert_eq!(rt.timers_pending(), 0);
    }
}
