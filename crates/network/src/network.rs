//! The assembled packet-level network simulator.

use crate::config::{NetworkConfig, EP_CONGESTION_THRESHOLD};
use crate::error::{
    ClassVcCredits, NicHotspot, PortHotspot, SimError, StallReport, STALL_REPORT_TOP_N,
};
use crate::fault::{DropReason, FaultRuntime, FaultStats, RetryEntry, TimerEntry};
use crate::kernel::{flush_to_global, KernelStats};
use crate::nic::Nic;
use crate::packet::{
    InSource, MessageId, MessageState, Notification, Packet, PacketHandle, PacketSlab,
};
use crate::switch::{vc_of, OutPort, PortKind, Switch, NUM_VCS};
use slingshot_congestion::{AckFeedback, CcConfig};
use slingshot_des::{DetRng, EventQueue, SimDuration, SimTime};
use slingshot_ethernet::{message_wire_bytes, PortLanes, MAX_PAYLOAD};
use slingshot_faults::FaultKind;
use slingshot_routing::{CongestionView, HopDecision, RouteState, Router, Via};
use slingshot_telemetry::{CountKind, HopKind, TelemetryHub, TelemetryReport};
use slingshot_topology::{ChannelId, Dragonfly, Liveness, NodeId, SwitchId};
use std::collections::VecDeque;

/// Simulator events. Packets stay in the network's slab; events name them
/// by handle, which keeps every event (and every pending-queue entry)
/// small.
enum Event {
    /// The injection link finished serializing a packet.
    NicTxDone { node: u32, pkt: PacketHandle },
    /// A packet arrived at a switch (input buffer already reserved by the
    /// sender-side credit).
    ArriveSwitch { sw: u32, pkt: PacketHandle },
    /// A packet finished crossing the switch fabric and joins an output
    /// queue.
    EnqueueOut {
        sw: u32,
        port: u32,
        pkt: PacketHandle,
    },
    /// An output port finished serializing a packet.
    TxDone {
        sw: u32,
        port: u32,
        pkt: PacketHandle,
    },
    /// A link-level credit returns to the sender side.
    CreditReturn {
        target: CreditTarget,
        tc: u8,
        vc: u8,
        bytes: u32,
    },
    /// A packet fully arrived at its destination node.
    ArriveNic { pkt: PacketHandle },
    /// An end-to-end ack for a delivered packet reached its source NIC.
    /// Every ack field is read from the packet's slot, which the ack frees.
    AckArrive { pkt: PacketHandle },
    /// A node-local message completed its loopback.
    Loopback { msg: MessageId },
    /// A user timer fired.
    Wakeup { token: u64 },
    /// A scheduled fault strikes (index into the installed schedule).
    Fault { idx: u32 },
    /// The armed end-to-end timer of one NIC timer line fired: the line of
    /// `node`'s copies sent at retry level `level`.
    E2eTimeout { node: u32, level: u8 },
    /// A link taken down by LLR escalation finished its retrain.
    LinkRepair { ch: ChannelId },
}

// Pending-queue entries are `(time, seq, Event)`: keep the event to three
// words so the heap stays dense.
const _: () = assert!(std::mem::size_of::<Event>() <= 24);

/// Start the end-to-end timer of `pkt`, a copy sent at retry `attempt`
/// whose serialization ends at `serialized`: file its deadline in the
/// sending NIC's timer line for that attempt and arm the line if it was
/// idle. The timer's sequence number is reserved here, just before the
/// copy's `NicTxDone` is pushed, so the timer's place in the event order
/// is fixed at injection however long the entry waits in its line.
fn start_e2e_timer(
    queue: &mut EventQueue<Event>,
    rt: &mut FaultRuntime,
    pkt: &Packet,
    attempt: u32,
    serialized: SimTime,
) {
    let deadline = serialized + rt.recovery.e2e_timeout_for(attempt);
    let seq = queue.reserve();
    let (node, level) = (pkt.src.0, FaultRuntime::timer_level(attempt));
    let entry = TimerEntry {
        deadline,
        seq,
        msg: pkt.msg,
        chunk: pkt.chunk,
        copy: pkt.copy,
    };
    if rt.file_timer(node, level, entry) {
        queue.push_reserved(deadline, seq, Event::E2eTimeout { node, level });
    }
}

/// Record hop `kind` of `pkt` in the flight recorder. The packet's own
/// `traced` flag is checked first, then the telemetry `Option`: `traced` is
/// never set with telemetry off, so an untraced packet costs one branch.
#[inline]
fn trace(telemetry: &mut Option<Box<NetTelemetry>>, pkt: &Packet, now: SimTime, kind: HopKind) {
    if !pkt.traced {
        return;
    }
    if let Some(t) = telemetry.as_deref_mut() {
        let (msg, chunk, copy, tc) = (pkt.msg.0, pkt.chunk, pkt.copy, pkt.tc);
        t.hub.record_event(now.as_ps(), msg, chunk, copy, tc, kind);
    }
}

/// Hop budget for route healing: a packet whose route has already grown
/// this long is dropped instead of re-detoured (recovered end-to-end), so
/// an unreachable destination cannot make copies wander forever.
const MAX_HEAL_HOPS: u8 = 16;

/// Where a returning credit is consumed.
enum CreditTarget {
    /// A switch output port (sender side of a channel).
    Port { sw: u32, port: u32 },
    /// A NIC (sender side of an injection link).
    Nic(u32),
}

/// Live telemetry state; boxed so the disabled path carries one pointer.
struct NetTelemetry {
    hub: TelemetryHub,
    /// Switch index → global index of its first output port (ports are
    /// numbered switch-major, in port order, across the whole fabric).
    port_base: Vec<u32>,
    /// The CC engine's recovery ceiling: a pair whose window sits below
    /// this is counted as paused.
    cc_max: u64,
}

/// Congestion view over the live port state (what the adaptive routing
/// pipeline reads from the request-queue credit plane).
struct LoadView<'a> {
    switches: &'a [Switch],
    chan_port: &'a [(u32, u32)],
}

impl CongestionView for LoadView<'_> {
    fn channel_load(&self, ch: ChannelId) -> u64 {
        let (sw, port) = self.chan_port[ch.index()];
        self.switches[sw as usize].ports[port as usize].load_estimate()
    }
}

/// Aggregate simulator statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Packets delivered to endpoints.
    pub packets_delivered: u64,
    /// Messages delivered.
    pub messages_delivered: u64,
    /// Total payload bytes delivered.
    pub payload_delivered: u64,
}

/// The packet-level network simulator.
///
/// Drive it by submitting messages with [`Network::send`], stepping events
/// with [`Network::step`] / [`Network::run_until`], and draining
/// [`Notification`]s.
pub struct Network {
    cfg: NetworkConfig,
    topo: Dragonfly,
    queue: EventQueue<Event>,
    rng: DetRng,
    switches: Vec<Switch>,
    nics: Vec<Nic>,
    messages: Vec<MessageState>,
    /// Every packet in flight, from injection until its ack resolves or it
    /// is dropped.
    pkts: PacketSlab,
    /// ChannelId → (switch index, port index) of the sending port.
    chan_port: Vec<(u32, u32)>,
    /// NodeId → (switch index, port index) of the ejection port.
    eject_port: Vec<(u32, u32)>,
    notifications: Vec<Notification>,
    delivered_payload: Vec<u64>,
    packet_latency: Option<slingshot_stats::Sample>,
    n_tc: usize,
    stats: NetStats,
    kernel: KernelStats,
    /// Live fault state; `None` unless a non-empty schedule is installed.
    faults: Option<FaultRuntime>,
    /// Live telemetry state; `None` unless enabled in the configuration.
    /// Every instrumentation site is gated on this single `Option`, and
    /// telemetry never draws from the RNG, so the disabled run is
    /// byte-identical to an uninstrumented build and the enabled run
    /// produces the same results as the disabled one.
    telemetry: Option<Box<NetTelemetry>>,
    /// First fatal accounting error detected during dispatch; surfaced by
    /// the next budgeted run call instead of corrupting state silently.
    fatal: Option<SimError>,
}

impl Drop for Network {
    fn drop(&mut self) {
        flush_to_global(&self.kernel);
    }
}

impl Network {
    /// Build a network from its configuration.
    pub fn new(cfg: NetworkConfig) -> Self {
        cfg.topology
            .validate()
            .expect("invalid topology parameters");
        let topo = cfg.topology.build();
        let n_tc = cfg.traffic_classes.len();
        let n_nodes = topo.node_count() as usize;
        let n_switches = topo.switch_count() as usize;

        let mut chan_port = vec![(u32::MAX, u32::MAX); topo.channels().len()];
        let mut eject_port = vec![(u32::MAX, u32::MAX); n_nodes];
        let mut switches = Vec::with_capacity(n_switches);
        let buffer_per_class = cfg.buffer_per_class();
        let link_bps = cfg.link_bytes_per_sec();
        let inj_bps = cfg.injection_bytes_per_sec();

        for sw in 0..n_switches as u32 {
            let mut ports = Vec::new();
            for ch in topo.channels() {
                if ch.from.0 == sw {
                    chan_port[ch.id.index()] = (sw, ports.len() as u32);
                    ports.push(OutPort::new(
                        PortKind::Channel(ch.id),
                        &cfg.traffic_classes,
                        buffer_per_class,
                        link_bps,
                        SimDuration::from_ns_f64(ch.class.propagation_ns()),
                    ));
                }
            }
            for node in topo.nodes_of_switch(slingshot_topology::SwitchId(sw)) {
                eject_port[node.index()] = (sw, ports.len() as u32);
                ports.push(OutPort::new(
                    PortKind::Eject(node),
                    &cfg.traffic_classes,
                    0, // ejection: the node always drains
                    inj_bps,
                    SimDuration::from_ns_f64(
                        slingshot_topology::LinkClass::EdgeCopper.propagation_ns(),
                    ),
                ));
            }
            switches.push(Switch { ports });
        }

        if let CcConfig::Slingshot(p) = &cfg.cc {
            p.assert_valid();
        }
        let rng = DetRng::seed_from(cfg.seed);
        let nics = (0..n_nodes as u32)
            .map(|n| Nic {
                node: NodeId(n),
                active: VecDeque::new(),
                busy: false,
                credits: vec![buffer_per_class; n_tc],
                pairs: Vec::new(),
                rate_bps: inj_bps,
                prop: SimDuration::from_ns_f64(
                    slingshot_topology::LinkClass::EdgeCopper.propagation_ns(),
                ),
                retx: VecDeque::new(),
            })
            .collect();

        // A scenario with an empty schedule is identical to no scenario:
        // no runtime is built, no events are pushed, and the simulation is
        // byte-for-byte the fault-free one.
        let faults = cfg
            .faults
            .as_ref()
            .filter(|fc| !fc.is_empty())
            .map(|fc| FaultRuntime::new(fc, &topo, cfg.seed));
        let mut queue = EventQueue::with_capacity(4096);
        if let Some(rt) = &faults {
            for (idx, ev) in rt.schedule.events().iter().enumerate() {
                queue.push(ev.at, Event::Fault { idx: idx as u32 });
            }
        }

        let telemetry = cfg.telemetry.map(|tcfg| {
            let mut port_base = Vec::with_capacity(switches.len());
            let mut total = 0u32;
            for sw in &switches {
                port_base.push(total);
                total += sw.ports.len() as u32;
            }
            Box::new(NetTelemetry {
                hub: TelemetryHub::new(tcfg, cfg.seed, total as usize, n_tc, NUM_VCS),
                port_base,
                cc_max: cfg.cc.max_window(),
            })
        });

        Network {
            cfg,
            topo,
            queue,
            rng,
            switches,
            nics,
            messages: Vec::new(),
            pkts: PacketSlab::default(),
            chan_port,
            eject_port,
            notifications: Vec::new(),
            delivered_payload: vec![0; n_nodes],
            packet_latency: None,
            n_tc,
            stats: NetStats::default(),
            kernel: KernelStats::default(),
            faults,
            telemetry,
            fatal: None,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Number of endpoints.
    pub fn node_count(&self) -> u32 {
        self.topo.node_count()
    }

    /// The topology.
    pub fn topology(&self) -> &Dragonfly {
        &self.topo
    }

    /// The configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Kernel performance counters (events by type, routing decisions,
    /// queue high-water mark) for this network.
    pub fn kernel_stats(&self) -> KernelStats {
        self.kernel
    }

    /// Fault and recovery counters; `None` unless a non-empty fault
    /// schedule is installed.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(|rt| rt.stats)
    }

    /// Live link/switch liveness; `None` unless a non-empty fault schedule
    /// is installed.
    pub fn liveness(&self) -> Option<&Liveness> {
        self.faults.as_ref().map(|rt| &rt.liveness)
    }

    /// Panic unless every injected packet copy is accounted for
    /// (`injected == delivered + dropped-with-reason`) and no end-to-end
    /// retry state is left dangling. Call after the simulation quiesces;
    /// a no-op without an installed fault schedule.
    pub fn assert_fault_conservation(&self) {
        let Some(rt) = &self.faults else { return };
        let s = rt.stats;
        assert!(
            s.conservation_holds(),
            "packet-copy conservation violated: {} injected, {} delivered \
             (unique {} + duplicate {}), {} dropped — {} unaccounted",
            s.copies_injected,
            s.delivered_unique + s.delivered_duplicate,
            s.delivered_unique,
            s.delivered_duplicate,
            s.dropped_total(),
            s.unaccounted(),
        );
        assert!(
            rt.retry.is_empty(),
            "{} chunks still have outstanding end-to-end retry state",
            rt.retry.len()
        );
        // A timer line is armed exactly when it is non-empty, so this also
        // checks that no line is left armed.
        assert_eq!(
            rt.timers_pending(),
            0,
            "end-to-end timer lines still hold deadlines"
        );
    }

    /// Total events processed.
    pub fn events_processed(&self) -> u64 {
        self.queue.events_processed()
    }

    /// Timestamp of the next pending event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Payload bytes delivered to `node` so far.
    pub fn delivered_payload(&self, node: NodeId) -> u64 {
        self.delivered_payload[node.index()]
    }

    /// Current congestion-control window from `src` toward `dst` (tests /
    /// observability).
    pub fn cc_window(&self, src: NodeId, dst: NodeId) -> u64 {
        self.nics[src.index()]
            .pairs
            .get(dst.index())
            .map_or(self.cfg.cc.max_window(), |p| p.window)
    }

    /// Wire bytes transmitted on a channel so far (utilization analysis).
    pub fn channel_tx_bytes(&self, ch: ChannelId) -> u64 {
        let (sw, port) = self.chan_port[ch.index()];
        self.switches[sw as usize].ports[port as usize].tx_wire_bytes
    }

    /// Enable per-packet one-way latency sampling (delivered packets only).
    pub fn enable_latency_sampling(&mut self) {
        if self.packet_latency.is_none() {
            self.packet_latency = Some(slingshot_stats::Sample::new());
        }
    }

    /// Take the collected per-packet latency sample (empty if sampling was
    /// never enabled).
    pub fn take_latency_sample(&mut self) -> slingshot_stats::Sample {
        self.packet_latency.take().unwrap_or_default()
    }

    /// Drain the telemetry hub into an exportable report; `None` unless
    /// telemetry was enabled in the configuration. Telemetry stops being
    /// collected afterwards.
    pub fn take_telemetry_report(&mut self) -> Option<TelemetryReport> {
        let t = self.telemetry.take()?;
        let mut labels = Vec::new();
        for (si, sw) in self.switches.iter().enumerate() {
            for (pi, p) in sw.ports.iter().enumerate() {
                labels.push(format!("sw{si}/p{pi} {}", p.kind));
            }
        }
        Some(t.hub.into_report(&labels))
    }

    /// Submit a message of `bytes` payload bytes (≥ 1) from `src` to `dst`
    /// in traffic class `tc`. `tag` is returned in the delivery
    /// notification.
    pub fn send(&mut self, src: NodeId, dst: NodeId, bytes: u64, tc: usize, tag: u64) -> MessageId {
        assert!(bytes >= 1, "zero-byte messages are not supported");
        assert!(tc < self.n_tc, "traffic class {tc} out of range");
        assert!(src.0 < self.node_count() && dst.0 < self.node_count());
        let id = MessageId(self.messages.len() as u64);
        let now = self.now();
        let unacked = if src == dst {
            0
        } else {
            message_wire_bytes(bytes, self.cfg.frame)
        };
        // Receiver-side dedup bitmap, one bit per chunk (fault mode only;
        // loopback messages never produce copies).
        let delivered_chunks = if self.faults.is_some() && src != dst {
            let n_chunks = bytes.div_ceil(MAX_PAYLOAD as u64);
            vec![0u64; n_chunks.div_ceil(64) as usize]
        } else {
            Vec::new()
        };
        self.messages.push(MessageState {
            src,
            dst,
            bytes,
            tc: tc as u8,
            tag,
            submitted_at: now,
            remaining_to_inject: bytes,
            remaining_to_deliver: bytes,
            unacked_wire: unacked,
            delivered_chunks,
        });
        if src == dst {
            // Loopback: memory copy at injection rate plus a fixed cost.
            let dur = self.cfg.loopback_latency
                + SimDuration::from_secs_f64(bytes as f64 / self.nics[src.index()].rate_bps);
            self.queue.push(now + dur, Event::Loopback { msg: id });
        } else {
            self.nics[src.index()].active.push_back(id);
            self.try_inject(src.0, now);
        }
        id
    }

    /// Schedule a wakeup notification at `at`.
    pub fn schedule_wakeup(&mut self, at: SimTime, token: u64) {
        assert!(at >= self.now(), "wakeup in the past");
        self.queue.push(at, Event::Wakeup { token });
    }

    /// Drain pending notifications.
    pub fn take_notifications(&mut self) -> Vec<Notification> {
        std::mem::take(&mut self.notifications)
    }

    /// Whether notifications are pending.
    pub fn has_notifications(&self) -> bool {
        !self.notifications.is_empty()
    }

    /// Process one event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let pending = self.queue.len() as u64;
        if pending > self.kernel.queue_hwm {
            self.kernel.queue_hwm = pending;
        }
        let Some((now, ev)) = self.queue.pop() else {
            return false;
        };
        self.dispatch(now, ev);
        true
    }

    /// Run until simulated time `t` (events at exactly `t` are processed).
    /// Stops at the first fatal accounting error recorded during dispatch
    /// and returns it; the error stays latched, so [`Network::take_fatal`]
    /// still reports it afterwards.
    pub fn run_until(&mut self, t: SimTime) -> Result<(), SimError> {
        while let Some(next) = self.queue.peek_time() {
            if next > t {
                break;
            }
            self.step();
            if let Some(err) = &self.fatal {
                return Err(err.clone());
            }
        }
        Ok(())
    }

    /// Run until no events remain; returns the final time. After
    /// `max_events` the run is declared stalled and comes back as
    /// [`SimError::Stalled`] carrying a full [`StallReport`] — livelock is
    /// a bug report, not a panic. A fatal accounting error recorded during
    /// dispatch (credit underflow) is surfaced the same way. The budget
    /// counts events from this call, so a stalled network can be given a
    /// bigger budget and resumed.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> Result<SimTime, SimError> {
        let start = self.queue.events_processed();
        while self.step() {
            if let Some(err) = self.fatal.take() {
                return Err(err);
            }
            let consumed = self.queue.events_processed() - start;
            if consumed > max_events {
                return Err(SimError::Stalled(Box::new(
                    self.stall_report(max_events, consumed),
                )));
            }
        }
        Ok(self.now())
    }

    /// Take the fatal accounting error recorded during event dispatch, if
    /// any. The budgeted run loops consume it automatically; callers
    /// driving [`Network::step`] by hand can poll it.
    pub fn take_fatal(&mut self) -> Option<SimError> {
        self.fatal.take()
    }

    /// The fatal accounting error recorded during event dispatch, if any,
    /// left latched.
    pub fn fatal(&self) -> Option<&SimError> {
        self.fatal.as_ref()
    }

    /// Assemble a [`StallReport`] describing the current (presumably
    /// wedged) state: deepest ports, widest NIC in-flight windows,
    /// outstanding credits per (class, VC), kernel counters, and fault
    /// state. Only called on the error path; work and allocation are
    /// bounded by system size, never by event count.
    pub fn stall_report(&self, event_budget: u64, events_consumed: u64) -> StallReport {
        let mut loads: Vec<(u64, u32, u32)> = Vec::new();
        for (si, sw) in self.switches.iter().enumerate() {
            for (pi, p) in sw.ports.iter().enumerate() {
                let load = p.load_estimate();
                if load > 0 {
                    loads.push((load, si as u32, pi as u32));
                }
            }
        }
        loads.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        loads.truncate(STALL_REPORT_TOP_N);
        let hot_ports = loads
            .iter()
            .map(|&(_, si, pi)| {
                let p = &self.switches[si as usize].ports[pi as usize];
                PortHotspot {
                    switch: si,
                    port: pi,
                    drives: p.kind.to_string(),
                    queued_wire: p.queued_wire,
                    outstanding: p.outstanding.iter().sum(),
                    busy: p.busy,
                }
            })
            .collect();

        let mut windows: Vec<(u64, u32)> = Vec::new();
        for nic in &self.nics {
            let bytes: u64 = nic.pairs.iter().map(|p| p.in_flight).sum();
            if bytes > 0 || !nic.active.is_empty() || !nic.retx.is_empty() {
                windows.push((bytes, nic.node.0));
            }
        }
        windows.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        windows.truncate(STALL_REPORT_TOP_N);
        let hot_nics = windows
            .iter()
            .map(|&(bytes, node)| {
                let nic = &self.nics[node as usize];
                NicHotspot {
                    node,
                    in_flight_bytes: bytes,
                    destinations: nic.pairs.iter().filter(|p| p.in_flight > 0).count(),
                    active_messages: nic.active.len(),
                    retx_queued: nic.retx.len(),
                }
            })
            .collect();

        let mut per_class_vc = vec![0u64; self.n_tc * NUM_VCS];
        for sw in &self.switches {
            for p in &sw.ports {
                if matches!(p.kind, PortKind::Channel(_)) {
                    for (q, &o) in p.outstanding.iter().enumerate() {
                        per_class_vc[q] += o;
                    }
                }
            }
        }
        let credits = per_class_vc
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b > 0)
            .map(|(q, &bytes)| ClassVcCredits {
                tc: (q / NUM_VCS) as u32,
                vc: (q % NUM_VCS) as u32,
                bytes,
            })
            .collect();

        StallReport {
            event_budget,
            events_consumed,
            sim_time_ns: self.now().as_ps() / 1000,
            pending_events: self.queue.len() as u64,
            messages_in_flight: self
                .messages
                .iter()
                .filter(|m| m.remaining_to_deliver > 0)
                .count() as u64,
            kernel: self.kernel,
            hot_ports,
            hot_nics,
            credits,
            channels_down: self.liveness().map(Liveness::channels_down).unwrap_or(0),
            switches_down: self.liveness().map(Liveness::switches_down).unwrap_or(0),
        }
    }

    fn dispatch(&mut self, now: SimTime, ev: Event) {
        match ev {
            Event::NicTxDone { node, pkt } => {
                self.kernel.events_nic_tx += 1;
                self.nic_tx_done(node, pkt, now)
            }
            Event::ArriveSwitch { sw, pkt } => {
                self.kernel.events_arrive_switch += 1;
                self.arrive_switch(sw, pkt, now)
            }
            Event::EnqueueOut { sw, port, pkt } => {
                self.kernel.events_enqueue_out += 1;
                self.enqueue_out(sw, port, pkt, now)
            }
            Event::TxDone { sw, port, pkt } => {
                self.kernel.events_tx_done += 1;
                self.tx_done(sw, port, pkt, now)
            }
            Event::CreditReturn {
                target,
                tc,
                vc,
                bytes,
            } => {
                self.kernel.events_credit += 1;
                self.credit_return(target, tc, vc, bytes, now)
            }
            Event::ArriveNic { pkt } => {
                self.kernel.events_arrive_nic += 1;
                self.arrive_nic(pkt, now)
            }
            Event::AckArrive { pkt } => {
                self.kernel.events_ack += 1;
                self.ack_arrive(pkt, now)
            }
            Event::Loopback { msg } => {
                self.kernel.events_loopback += 1;
                self.loopback(msg, now)
            }
            Event::Wakeup { token } => {
                self.kernel.events_wakeup += 1;
                self.notifications
                    .push(Notification::Wakeup { token, at: now });
            }
            Event::Fault { idx } => {
                self.kernel.events_fault += 1;
                self.apply_fault(idx, now)
            }
            Event::E2eTimeout { node, level } => {
                self.kernel.events_e2e_timeout += 1;
                self.e2e_timer_fired(node, level, now)
            }
            Event::LinkRepair { ch } => {
                self.kernel.events_fault += 1;
                self.link_repair(ch, now)
            }
        }
    }

    /// Try to launch the next eligible packet from `node`'s NIC.
    fn try_inject(&mut self, node: u32, now: SimTime) {
        if self.faults.is_some() {
            // Pending end-to-end retransmits launch ahead of new traffic.
            self.try_inject_retx(node, now);
        }
        let nodes = self.nics.len();
        let nic = &mut self.nics[node as usize];
        if nic.busy || nic.active.is_empty() {
            return;
        }
        nic.open_pairs(nodes, self.cfg.cc.max_window());
        for _ in 0..nic.active.len() {
            let msg_id = *nic.active.front().expect("checked non-empty");
            let st = &self.messages[msg_id.0 as usize];
            // Chunks leave the NIC in offset order, MAX_PAYLOAD apart.
            let chunk = ((st.bytes - st.remaining_to_inject) / MAX_PAYLOAD as u64) as u32;
            let (payload, wire) = st.chunk_size(chunk, self.cfg.frame);
            let tc = st.tc;
            let pair = &mut nic.pairs[st.dst.index()];
            let cc_ok = self.cfg.cc.may_send(pair, wire as u64, now);
            let credit_ok = nic.credits[tc as usize] >= wire as u64;
            if cc_ok && credit_ok {
                pair.in_flight += wire as u64;
                nic.busy = true;
                nic.credits[tc as usize] -= wire as u64;
                let ser = nic.serialization(wire);
                let st = &mut self.messages[msg_id.0 as usize];
                st.remaining_to_inject -= payload as u64;
                if st.remaining_to_inject == 0 {
                    nic.active.pop_front();
                } else {
                    nic.active.rotate_left(1);
                }
                let mut pkt = self.new_packet(msg_id, chunk, 0, now);
                if let Some(rt) = self.faults.as_mut() {
                    let copy = rt.alloc_copy();
                    pkt.copy = copy;
                    rt.retry
                        .insert((msg_id.0, chunk), RetryEntry { copy, attempt: 0 });
                    rt.stats.copies_injected += 1;
                    start_e2e_timer(&mut self.queue, rt, &pkt, 0, now + ser);
                }
                trace(&mut self.telemetry, &pkt, now, HopKind::NicSerializeStart);
                let pkt = self.pkts.alloc(pkt);
                self.queue.push(now + ser, Event::NicTxDone { node, pkt });
                return;
            }
            nic.active.rotate_left(1);
        }
    }

    /// Copy `copy` of chunk `chunk` of message `msg`, leaving its source
    /// NIC at `now` with its route still to be decided. The flight
    /// recorder samples by `(msg, chunk)` and ignores the copy id, so a
    /// retransmit copy is traced exactly when its chunk's first copy was.
    fn new_packet(&self, msg: MessageId, chunk: u32, copy: u32, now: SimTime) -> Packet {
        let st = &self.messages[msg.0 as usize];
        let (payload, wire) = st.chunk_size(chunk, self.cfg.frame);
        Packet {
            msg,
            src: st.src,
            dst: st.dst,
            payload,
            wire,
            tc: st.tc,
            routed: false,
            route: RouteState::new(self.topo.switch_of_node(st.dst), Via::Direct),
            cur_source: InSource::Node(st.src),
            path_delay: SimDuration::ZERO,
            ep_depth: 0,
            born: now,
            chunk,
            copy,
            llr: 0,
            traced: self
                .telemetry
                .as_ref()
                .is_some_and(|t| t.hub.sampled(msg.0, chunk)),
        }
    }

    /// Launch the head of the NIC's retransmit queue if credits allow
    /// (fault mode only). Retransmits bypass congestion control: they
    /// re-send wire bytes the window already admitted once.
    fn try_inject_retx(&mut self, node: u32, now: SimTime) {
        let nic = &mut self.nics[node as usize];
        if nic.busy {
            return;
        }
        let Some(&h) = nic.retx.front() else { return };
        let pkt = &mut self.pkts[h];
        if nic.credits[pkt.tc as usize] < pkt.wire as u64 {
            return;
        }
        nic.retx.pop_front();
        pkt.born = now;
        nic.busy = true;
        nic.credits[pkt.tc as usize] -= pkt.wire as u64;
        nic.pairs[pkt.dst.index()].in_flight += pkt.wire as u64;
        let ser = nic.serialization(pkt.wire);
        let rt = self.faults.as_mut().expect("retransmit outside fault mode");
        rt.stats.copies_injected += 1;
        let entry = rt.retry.get(&(pkt.msg.0, pkt.chunk));
        debug_assert_eq!(entry.map(|e| e.copy), Some(pkt.copy), "stale retx copy");
        let attempt = entry.map_or(0, |e| e.attempt);
        start_e2e_timer(&mut self.queue, rt, pkt, attempt, now + ser);
        trace(&mut self.telemetry, pkt, now, HopKind::NicSerializeStart);
        self.queue
            .push(now + ser, Event::NicTxDone { node, pkt: h });
    }

    fn nic_tx_done(&mut self, node: u32, h: PacketHandle, now: SimTime) {
        let nic = &mut self.nics[node as usize];
        nic.busy = false;
        let prop = nic.prop;
        let pkt = &mut self.pkts[h];
        pkt.path_delay += prop;
        trace(&mut self.telemetry, pkt, now, HopKind::NicTxDone);
        let sw = self.topo.switch_of_node(NodeId(node)).0;
        self.queue
            .push(now + prop, Event::ArriveSwitch { sw, pkt: h });
        self.try_inject(node, now);
    }

    fn arrive_switch(&mut self, sw: u32, h: PacketHandle, now: SimTime) {
        if let Some(rt) = &self.faults {
            // A dead switch destroys everything arriving at it; the copy is
            // recovered end-to-end.
            if !rt.liveness.is_switch_up(SwitchId(sw)) {
                self.record_drop(h, DropReason::SwitchDown, now);
                return;
            }
        }
        let pkt = &mut self.pkts[h];
        trace(&mut self.telemetry, pkt, now, HopKind::SwitchArrive { sw });
        // Routing decisions read the live load view; split borrows keep the
        // router's view disjoint from the RNG and packet.
        let liveness = self.faults.as_ref().map(|rt| &rt.liveness);
        let router = Router::new(&self.topo, self.cfg.routing, liveness);
        let view = LoadView {
            switches: &self.switches,
            chan_port: &self.chan_port,
        };
        let cur = SwitchId(sw);
        if !pkt.routed {
            let dst_sw = self.topo.switch_of_node(pkt.dst);
            pkt.route = router.decide(cur, dst_sw, &view, &mut self.rng);
            pkt.routed = true;
            self.kernel.routing_decisions += 1;
            let kind = if pkt.route.is_nonminimal() {
                self.kernel.adaptive_nonminimal += 1;
                CountKind::RouteValiant
            } else {
                self.kernel.adaptive_minimal += 1;
                CountKind::RouteMinimal
            };
            if let Some(t) = self.telemetry.as_deref_mut() {
                t.hub.count(kind, now.as_ps());
            }
        }
        self.kernel.next_hop_lookups += 1;
        let mut choice = router.next_hop(cur, &mut pkt.route, &view, &mut self.rng);
        if matches!(choice, HopDecision::Stuck) {
            // Route healing: every live candidate of the planned route is
            // gone — re-decide from here, keeping the accumulated hop count
            // so VC assignment stays deadlock-safe. The hop budget bounds
            // healing for an unreachable destination: without it a packet
            // would detour forever (each detour's first leg is alive, only
            // the final approach is dead).
            if pkt.route.hops >= MAX_HEAL_HOPS {
                self.record_drop(h, DropReason::NoRoute, now);
                return;
            }
            self.kernel.route_heals += 1;
            let dst_sw = self.topo.switch_of_node(pkt.dst);
            let hops = pkt.route.hops;
            let mut healed = router.decide(cur, dst_sw, &view, &mut self.rng);
            healed.hops = hops;
            pkt.route = healed;
            choice = router.next_hop(cur, &mut pkt.route, &view, &mut self.rng);
        }
        let (port_sw, port_idx) = match choice {
            HopDecision::Forward(ch) => self.chan_port[ch.index()],
            HopDecision::Eject => self.eject_port[pkt.dst.index()],
            HopDecision::Stuck => {
                // Even the healed route starts dead: drop here, recover
                // end-to-end.
                self.record_drop(h, DropReason::NoRoute, now);
                return;
            }
        };
        debug_assert_eq!(port_sw, sw, "next hop not on this switch");
        // Fabric traversal latency (tile geometry + arbitration jitter).
        let in_p = self.rng.below(64) as u8;
        let out_p = self.rng.below(64) as u8;
        let lat = self.cfg.switch_latency.sample(&mut self.rng, in_p, out_p);
        pkt.path_delay += lat;
        self.queue.push(
            now + lat,
            Event::EnqueueOut {
                sw,
                port: port_idx,
                pkt: h,
            },
        );
    }

    fn enqueue_out(&mut self, sw: u32, port: u32, h: PacketHandle, now: SimTime) {
        if let Some(rt) = &self.faults {
            // The output port may have died while the packet crossed the
            // fabric; dead ports must not accumulate backlog (their queues
            // were flushed when they went down).
            let kind = self.switches[sw as usize].ports[port as usize].kind;
            if let Some(reason) = rt.dead_output(SwitchId(sw), kind) {
                self.record_drop(h, reason, now);
                return;
            }
        }
        let pkt = &mut self.pkts[h];
        let p = &mut self.switches[sw as usize].ports[port as usize];
        if matches!(p.kind, PortKind::Eject(_)) {
            // The endpoint-congestion signal: ejection-queue depth at
            // enqueue time, carried home in the ack.
            pkt.ep_depth = p.queued_wire;
        }
        p.enqueue(h, pkt);
        let depth = p.queued_wire;
        if let Some(t) = self.telemetry.as_deref_mut() {
            let gport = t.port_base[sw as usize] + port;
            t.hub.on_port_queue(gport, now.as_ps(), depth);
        }
        let vc = vc_of(pkt.route.hops) as u8;
        let hop = HopKind::VoqEnqueue { sw, port, vc };
        trace(&mut self.telemetry, pkt, now, hop);
        self.try_start_tx(sw, port, now);
    }

    fn try_start_tx(&mut self, sw: u32, port: u32, now: SimTime) {
        let p = &mut self.switches[sw as usize].ports[port as usize];
        if p.busy || !p.has_backlog() {
            return;
        }
        let Some((tc, vc)) = p.pick(now) else {
            // Waiting for credits: count which (class, VC) heads are
            // starved before giving the port up.
            if self.telemetry.is_some() {
                self.telemetry_credit_stall(sw, port, now);
            }
            return;
        };
        let head = p.take(tc, vc, now);
        p.busy = true;
        let ser = p.serialization(head.wire);
        let depth = p.queued_wire;
        if let Some(t) = self.telemetry.as_deref_mut() {
            let gport = t.port_base[sw as usize] + port;
            t.hub
                .on_port_tx(gport, tc as u8, now.as_ps(), head.wire as u64);
            t.hub.on_port_queue(gport, now.as_ps(), depth);
            let pkt = &self.pkts[head.pkt];
            trace(&mut self.telemetry, pkt, now, HopKind::TxStart { sw, port });
        }
        self.queue.push(
            now + ser,
            Event::TxDone {
                sw,
                port,
                pkt: head.pkt,
            },
        );
    }

    /// A port with backlog found no transmittable VOQ: record a stall
    /// observation for every head blocked on downstream credits. Only
    /// reached with telemetry enabled.
    fn telemetry_credit_stall(&mut self, sw: u32, port: u32, now: SimTime) {
        let Some(t) = self.telemetry.as_deref_mut() else {
            return;
        };
        let p = &self.switches[sw as usize].ports[port as usize];
        for tc in 0..self.n_tc {
            for vc in 0..NUM_VCS {
                if p.head_blocked(tc, vc) {
                    t.hub.on_credit_stall(tc as u8, vc as u8, now.as_ps());
                }
            }
        }
    }

    fn tx_done(&mut self, sw: u32, port: u32, h: PacketHandle, now: SimTime) {
        let (kind, prop) = {
            let p = &self.switches[sw as usize].ports[port as usize];
            (p.kind, p.prop)
        };
        if self.faults.is_some() && !self.fault_tx_check(sw, port, kind, h, now) {
            return;
        }
        self.switches[sw as usize].ports[port as usize].busy = false;
        let hop = HopKind::TxDone { sw, port };
        trace(&mut self.telemetry, &self.pkts[h], now, hop);
        // Return the input-buffer credit for the source this packet arrived
        // from (it has now left this switch).
        // The upstream sender consumed its credit at the packet's VC as of
        // the previous crossing: one less hop than the packet carries now.
        self.return_upstream_credit(h, now);
        let pkt = &mut self.pkts[h];
        pkt.path_delay += prop;
        match kind {
            PortKind::Channel(ch) => {
                let to = self.topo.channel(ch).to.0;
                pkt.cur_source = InSource::Channel(ch);
                pkt.route.hops += 1;
                self.queue
                    .push(now + prop, Event::ArriveSwitch { sw: to, pkt: h });
            }
            PortKind::Eject(_) => {
                self.queue.push(now + prop, Event::ArriveNic { pkt: h });
            }
        }
        self.try_start_tx(sw, port, now);
    }

    /// Return the input-buffer credit packet `h` holds at its current
    /// switch to the upstream sender (the port or NIC it entered from).
    fn return_upstream_credit(&mut self, h: PacketHandle, now: SimTime) {
        let pkt = &self.pkts[h];
        let (target, vc, up_prop) = match pkt.cur_source {
            InSource::Channel(in_ch) => {
                let (up_sw, up_port) = self.chan_port[in_ch.index()];
                let up_prop = self.switches[up_sw as usize].ports[up_port as usize].prop;
                let up_vc = vc_of(pkt.route.hops.saturating_sub(1)) as u8;
                (
                    CreditTarget::Port {
                        sw: up_sw,
                        port: up_port,
                    },
                    up_vc,
                    up_prop,
                )
            }
            InSource::Node(n) => (CreditTarget::Nic(n.0), 0, self.nics[n.index()].prop),
        };
        self.queue.push(
            now + up_prop,
            Event::CreditReturn {
                target,
                tc: pkt.tc,
                vc,
                bytes: pkt.wire,
            },
        );
    }

    /// Fault-mode checks when a port finishes serializing `pkt`: dead
    /// link/switch destroys it; otherwise a transient error may trigger an
    /// LLR replay (port stays busy until the replayed `TxDone`) or —
    /// replay budget exhausted — destroy the packet and take the link down
    /// for retraining. Returns whether the transmit completes normally:
    /// `false` when the packet was replayed or dropped.
    fn fault_tx_check(
        &mut self,
        sw: u32,
        port: u32,
        kind: PortKind,
        h: PacketHandle,
        now: SimTime,
    ) -> bool {
        let rt = self.faults.as_mut().expect("fault mode");
        // The switch died, or the link was cut, mid-serialization.
        if let Some(reason) = rt.dead_output(SwitchId(sw), kind) {
            self.drop_at_port(sw, port, h, reason, now);
            return false;
        }
        let PortKind::Channel(ch) = kind else {
            return true;
        };
        let rate = rt.error_rate(ch.index(), now);
        if rate <= 0.0 || !rt.rng.chance(rate) {
            return true;
        }
        let pkt = &mut self.pkts[h];
        if pkt.llr < rt.recovery.llr_max_retries {
            // §II-F low-latency link-level retransmission: replay the
            // packet on the same link after the replay latency.
            pkt.llr += 1;
            rt.stats.llr_replays += 1;
            self.kernel.llr_replays += 1;
            let replay = SimDuration::from_ns_f64(rt.recovery.llr_replay_ns);
            if let Some(t) = self.telemetry.as_deref_mut() {
                t.hub.count(CountKind::LlrReplay, now.as_ps());
            }
            let hop = HopKind::LlrReplay { sw, port };
            trace(&mut self.telemetry, pkt, now, hop);
            self.queue
                .push(now + replay, Event::TxDone { sw, port, pkt: h });
        } else {
            // Replay budget exhausted: declare the link bad, destroy the
            // packet, and let the retrain (and the end-to-end retry)
            // recover.
            rt.stats.llr_escalations += 1;
            self.kernel.llr_escalations += 1;
            self.drop_at_port(sw, port, h, DropReason::LlrExhausted, now);
            self.take_link_down(ch, now, true);
        }
        false
    }

    /// Destroy a packet already taken from `(sw, port)`'s queue: release
    /// the port, roll back its downstream-buffer reservation and transmit
    /// accounting, and record the loss.
    fn drop_at_port(
        &mut self,
        sw: u32,
        port: u32,
        h: PacketHandle,
        reason: DropReason,
        now: SimTime,
    ) {
        let pkt = &self.pkts[h];
        let p = &mut self.switches[sw as usize].ports[port as usize];
        p.busy = false;
        let rollback = p.credit_return(pkt.tc as usize, vc_of(pkt.route.hops), pkt.wire);
        p.tx_wire_bytes -= pkt.wire as u64;
        if let Err(outstanding) = rollback {
            let vc = vc_of(pkt.route.hops) as u8;
            self.record_credit_underflow(sw, port, pkt.tc, vc, pkt.wire, outstanding);
        }
        self.record_drop(h, reason, now);
    }

    /// Latch the first credit-underflow accounting error; later ones are
    /// symptoms of the same corruption and add nothing.
    fn record_credit_underflow(
        &mut self,
        switch: u32,
        port: u32,
        tc: u8,
        vc: u8,
        returned: u32,
        outstanding: u64,
    ) {
        if self.fatal.is_none() {
            self.fatal = Some(SimError::CreditUnderflow {
                switch,
                port,
                tc,
                vc,
                returned,
                outstanding,
            });
        }
    }

    /// Record a destroyed copy: count it by reason, return the upstream
    /// input-buffer credit it held and free its slab slot. The sender's
    /// in-flight window is reclaimed later by the copy's end-to-end timer.
    fn record_drop(&mut self, h: PacketHandle, reason: DropReason, now: SimTime) {
        self.kernel.packets_dropped += 1;
        let pkt = &self.pkts[h];
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.hub.count(CountKind::Dropped, now.as_ps());
        }
        let hop = HopKind::Dropped {
            reason: reason as u8,
        };
        trace(&mut self.telemetry, pkt, now, hop);
        let rt = self.faults.as_mut().expect("drop outside fault mode");
        match reason {
            DropReason::LinkDown => rt.stats.dropped_link_down += 1,
            DropReason::SwitchDown => rt.stats.dropped_switch_down += 1,
            DropReason::NoRoute => rt.stats.dropped_no_route += 1,
            DropReason::LlrExhausted => rt.stats.dropped_llr_exhausted += 1,
        }
        self.return_upstream_credit(h, now);
        self.pkts.free(h);
    }

    /// Drop every queued packet of `(sw, port)`: the port's buffers drain
    /// into the void when its link or switch dies. A packet mid-
    /// serialization is left to its `TxDone`, which re-checks liveness.
    fn flush_port(&mut self, sw: u32, port: u32, reason: DropReason, now: SimTime) {
        let p = &mut self.switches[sw as usize].ports[port as usize];
        if !p.has_backlog() {
            return;
        }
        let drained: Vec<PacketHandle> = p
            .queues
            .iter_mut()
            .flat_map(|q| q.drain(..).map(|e| e.pkt))
            .collect();
        p.queued_wire = 0;
        for h in drained {
            self.record_drop(h, reason, now);
        }
    }

    /// Apply one entry of the installed fault schedule.
    fn apply_fault(&mut self, idx: u32, now: SimTime) {
        let rt = self
            .faults
            .as_mut()
            .expect("fault event outside fault mode");
        rt.stats.faults_applied += 1;
        let kind = rt.schedule.events()[idx as usize].kind;
        match kind {
            FaultKind::TransientBurst {
                channel,
                error_rate,
                duration,
            } => {
                rt.burst_rate[channel.index()] = error_rate;
                rt.burst_until[channel.index()] = now + duration;
            }
            FaultKind::LaneDegrade {
                channel,
                failed_lanes,
            } => {
                rt.stats.lane_degrade_events += 1;
                let lanes = rt.lanes[channel.index()].degrade(failed_lanes);
                rt.lanes[channel.index()] = lanes;
                if lanes.is_up() {
                    // The port keeps running at the surviving lanes' rate.
                    let (sw, port) = self.chan_port[channel.index()];
                    let healthy = PortLanes::rosetta().effective_gbps();
                    self.switches[sw as usize].ports[port as usize].rate_bps =
                        self.cfg.link_bytes_per_sec() * (lanes.effective_gbps() / healthy);
                } else {
                    // Losing the last lane takes the link down.
                    self.take_link_down(channel, now, false);
                }
            }
            FaultKind::LinkDown { channel } => self.take_link_down(channel, now, false),
            FaultKind::LinkUp { channel } => self.bring_link_up(channel, now),
            FaultKind::SwitchDown { switch } => self.take_switch_down(switch, now),
            FaultKind::SwitchUp { switch } => {
                let rt = self.faults.as_mut().expect("fault mode");
                if rt.liveness.set_switch(switch, true) {
                    rt.stats.switch_up_events += 1;
                }
            }
        }
    }

    /// Take `ch` down: flush its queue as drops and (for LLR escalations)
    /// schedule the automatic retrain.
    fn take_link_down(&mut self, ch: ChannelId, now: SimTime, auto_repair: bool) {
        let rt = self.faults.as_mut().expect("fault mode");
        if !rt.liveness.set_channel(ch, false) {
            return; // already down
        }
        rt.stats.link_down_events += 1;
        let repair = if auto_repair {
            rt.recovery.link_repair
        } else {
            None
        };
        let (sw, port) = self.chan_port[ch.index()];
        self.flush_port(sw, port, DropReason::LinkDown, now);
        if let Some(after) = repair {
            self.queue.push(now + after, Event::LinkRepair { ch });
        }
    }

    /// Bring `ch` back up with all lanes restored at full rate.
    fn bring_link_up(&mut self, ch: ChannelId, now: SimTime) {
        let (sw, port) = self.chan_port[ch.index()];
        let link_bps = self.cfg.link_bytes_per_sec();
        let rt = self.faults.as_mut().expect("fault mode");
        rt.lanes[ch.index()] = PortLanes::rosetta();
        if rt.liveness.set_channel(ch, true) {
            rt.stats.link_up_events += 1;
        }
        self.switches[sw as usize].ports[port as usize].rate_bps = link_bps;
        self.try_start_tx(sw, port, now);
    }

    /// A link taken down by LLR escalation finished retraining.
    fn link_repair(&mut self, ch: ChannelId, now: SimTime) {
        let rt = self.faults.as_mut().expect("fault mode");
        rt.stats.auto_repairs += 1;
        self.bring_link_up(ch, now);
    }

    /// Fail a whole switch: all of its output queues (channels and
    /// ejection alike) drain as drops; arriving packets die at the door.
    fn take_switch_down(&mut self, swid: SwitchId, now: SimTime) {
        let rt = self.faults.as_mut().expect("fault mode");
        if !rt.liveness.set_switch(swid, false) {
            return; // already down
        }
        rt.stats.switch_down_events += 1;
        let n_ports = self.switches[swid.index()].ports.len();
        for port in 0..n_ports {
            self.flush_port(swid.0, port as u32, DropReason::SwitchDown, now);
        }
    }

    /// The armed timer of `node`'s line for `level` fired: arm the line's
    /// next entry, then time out the fired copy.
    fn e2e_timer_fired(&mut self, node: u32, level: u8, now: SimTime) {
        let rt = self.faults.as_mut().expect("e2e timer outside fault mode");
        let (fired, next) = rt.fire_timer(node, level);
        debug_assert_eq!(fired.deadline, now, "a timer line fired off its head");
        if let Some(e) = next {
            self.queue
                .push_reserved(e.deadline, e.seq, Event::E2eTimeout { node, level });
        }
        self.e2e_timeout(fired.msg, fired.chunk, fired.copy, now);
    }

    /// The end-to-end retransmit timer for one copy fired. If the copy is
    /// still the outstanding one its ack never came: reclaim the in-flight
    /// window and either stage a retransmit (exponential backoff) or give
    /// the chunk up for good.
    fn e2e_timeout(&mut self, msg: MessageId, chunk: u32, copy: u32, now: SimTime) {
        let st = &self.messages[msg.0 as usize];
        let (src, dst) = (st.src, st.dst);
        let (_, wire) = st.chunk_size(chunk, self.cfg.frame);
        let rt = self.faults.as_mut().expect("e2e timer outside fault mode");
        let Some(&entry) = rt.retry.get(&(msg.0, chunk)) else {
            return; // acknowledged before the timer fired
        };
        if entry.copy != copy {
            return; // timer of a superseded copy; a newer one is pending
        }
        rt.stats.e2e_timeouts += 1;
        self.nics[src.index()].sub_in_flight(dst, wire);
        if entry.attempt >= rt.recovery.e2e_max_retries {
            rt.retry.remove(&(msg.0, chunk));
            rt.stats.e2e_giveups += 1;
            // The freed window may admit the NIC's next chunk.
            self.try_inject(src.0, now);
            return;
        }
        let copy = rt.alloc_copy();
        let attempt = entry.attempt + 1;
        rt.retry
            .insert((msg.0, chunk), RetryEntry { copy, attempt });
        rt.stats.e2e_retransmits += 1;
        self.kernel.e2e_retransmits += 1;
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.hub.count(CountKind::E2eRetransmit, now.as_ps());
        }
        let pkt = self.new_packet(msg, chunk, copy, now);
        trace(&mut self.telemetry, &pkt, now, HopKind::E2eRetransmit);
        let h = self.pkts.alloc(pkt);
        self.nics[src.index()].retx.push_back(h);
        self.try_inject(src.0, now);
    }

    fn credit_return(&mut self, target: CreditTarget, tc: u8, vc: u8, bytes: u32, now: SimTime) {
        match target {
            CreditTarget::Port { sw, port } => {
                let p = &mut self.switches[sw as usize].ports[port as usize];
                if let Err(outstanding) = p.credit_return(tc as usize, vc as usize, bytes) {
                    self.record_credit_underflow(sw, port, tc, vc, bytes, outstanding);
                }
                self.try_start_tx(sw, port, now);
            }
            CreditTarget::Nic(node) => {
                let nic = &mut self.nics[node as usize];
                nic.credits[tc as usize] += bytes as u64;
                debug_assert!(
                    nic.credits[tc as usize] <= self.cfg.buffer_per_class(),
                    "NIC credit overflow"
                );
                self.try_inject(node, now);
            }
        }
    }

    fn arrive_nic(&mut self, h: PacketHandle, now: SimTime) {
        let pkt = &self.pkts[h];
        trace(&mut self.telemetry, pkt, now, HopKind::NicArrive);
        if let Some(rt) = self.faults.as_mut() {
            let st = &mut self.messages[pkt.msg.0 as usize];
            let word = (pkt.chunk / 64) as usize;
            let bit = 1u64 << (pkt.chunk & 63);
            if st.delivered_chunks[word] & bit != 0 {
                // Retransmitted copy of an already-delivered chunk (the
                // original's ack was lost or late): ack it so the sender
                // stops retrying, but deliver nothing twice.
                rt.stats.delivered_duplicate += 1;
                self.push_ack(h, now);
                return;
            }
            st.delivered_chunks[word] |= bit;
            rt.stats.delivered_unique += 1;
        }
        if let Some(sample) = &mut self.packet_latency {
            sample.push(now.since(pkt.born).as_ns_f64());
        }
        self.stats.packets_delivered += 1;
        let (msg, payload) = (pkt.msg, pkt.payload as u64);
        self.deliver(msg, payload, now);
        // End-to-end ack on the dedicated ack plane: queue-free return.
        self.push_ack(h, now);
    }

    /// Hand `payload` bytes of message `msg` to its destination; the last
    /// of its bytes completes the message.
    fn deliver(&mut self, msg: MessageId, payload: u64, now: SimTime) {
        let st = &mut self.messages[msg.0 as usize];
        debug_assert!(st.remaining_to_deliver >= payload);
        st.remaining_to_deliver -= payload;
        self.stats.payload_delivered += payload;
        self.delivered_payload[st.dst.index()] += payload;
        if st.remaining_to_deliver == 0 {
            self.stats.messages_delivered += 1;
            self.notifications.push(Notification::Delivered {
                msg,
                src: st.src,
                dst: st.dst,
                bytes: st.bytes,
                tag: st.tag,
                submitted_at: st.submitted_at,
                delivered_at: now,
            });
        }
    }

    /// Schedule the end-to-end ack for a delivered packet copy; the ack
    /// carries the copy's handle, and the slot lives until it lands.
    fn push_ack(&mut self, h: PacketHandle, now: SimTime) {
        let delay = self.pkts[h].path_delay + self.cfg.ack_overhead;
        self.queue.push(now + delay, Event::AckArrive { pkt: h });
    }

    fn ack_arrive(&mut self, h: PacketHandle, now: SimTime) {
        let pkt = self.pkts[h];
        self.pkts.free(h);
        let (src, msg, wire, depth) = (pkt.src.0, pkt.msg, pkt.wire, pkt.ep_depth);
        let congested = depth >= EP_CONGESTION_THRESHOLD;
        if let Some(rt) = self.faults.as_mut() {
            let key = (msg.0, pkt.chunk);
            if rt.retry.get(&key).map(|e| e.copy) == Some(pkt.copy) {
                rt.retry.remove(&key);
            } else {
                // Ack of a superseded copy (its duplicate delivery) or of a
                // chunk already resolved: the window and message accounting
                // were settled by the first resolution.
                rt.stats.stale_acks += 1;
                self.try_inject(src, now);
                return;
            }
        }
        let pair = self.nics[src as usize].sub_in_flight(pkt.dst, wire);
        let window_before = pair.window;
        self.cfg.cc.on_ack(
            pair,
            AckFeedback {
                endpoint_congested: congested,
                ejection_queue_bytes: depth,
            },
            now,
        );
        if let Some(t) = self.telemetry.as_deref_mut() {
            let window_after = pair.window;
            t.hub.on_cc_ack(
                now.as_ps(),
                window_after,
                congested,
                window_before >= t.cc_max && window_after < t.cc_max,
                window_before < t.cc_max && window_after >= t.cc_max,
            );
        }
        trace(&mut self.telemetry, &pkt, now, HopKind::AckArrive);
        let st = &mut self.messages[msg.0 as usize];
        debug_assert!(st.unacked_wire >= wire as u64);
        st.unacked_wire -= wire as u64;
        if st.unacked_wire == 0 && st.remaining_to_inject == 0 {
            self.notifications
                .push(Notification::SendAcked { msg, at: now });
        }
        self.try_inject(src, now);
    }

    fn loopback(&mut self, msg: MessageId, now: SimTime) {
        let st = &mut self.messages[msg.0 as usize];
        st.remaining_to_inject = 0;
        let bytes = st.bytes;
        self.deliver(msg, bytes, now);
        self.notifications
            .push(Notification::SendAcked { msg, at: now });
    }

    /// Test/diagnostic helper: verify every buffer is empty and every
    /// credit restored (call after quiescence).
    pub fn assert_quiescent_invariants(&self) {
        for (si, sw) in self.switches.iter().enumerate() {
            for (pi, p) in sw.ports.iter().enumerate() {
                assert!(!p.busy, "switch {si} port {pi} still busy");
                assert_eq!(p.queued_wire, 0, "switch {si} port {pi} has backlog");
                if matches!(p.kind, PortKind::Channel(_)) {
                    for (q, &o) in p.outstanding.iter().enumerate() {
                        assert_eq!(
                            o, 0,
                            "switch {si} port {pi} queue {q}: outstanding bytes not credited"
                        );
                    }
                }
            }
        }
        for (ni, nic) in self.nics.iter().enumerate() {
            assert!(!nic.busy, "nic {ni} still busy");
            for (dst, p) in nic.pairs.iter().enumerate() {
                assert_eq!(p.in_flight, 0, "nic {ni} has in-flight bytes to {dst}");
            }
            assert!(nic.active.is_empty(), "nic {ni} has active messages");
            for (tc, &c) in nic.credits.iter().enumerate() {
                assert_eq!(
                    c,
                    self.cfg.buffer_per_class(),
                    "nic {ni} tc {tc}: credits not restored"
                );
            }
        }
        for (mi, m) in self.messages.iter().enumerate() {
            assert_eq!(m.remaining_to_deliver, 0, "message {mi} undelivered");
        }
        assert_eq!(self.pkts.live(), 0, "packets leaked: slab slots still live");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slingshot_topology::DragonflyParams;

    fn small() -> Network {
        Network::new(NetworkConfig::slingshot(DragonflyParams {
            groups: 2,
            switches_per_group: 2,
            endpoints_per_switch: 2,
            global_links_per_pair: 2,
            intra_links_per_pair: 1,
        }))
    }

    #[test]
    fn unsent_pairs_read_zero_with_full_window() {
        let mut net = small();
        assert_eq!(net.cc_window(NodeId(0), NodeId(5)), 64 << 10);
        assert!(
            net.nics[0].pairs.is_empty(),
            "no table before the first send"
        );
        net.send(NodeId(0), NodeId(7), 4096, 0, 0);
        net.run_to_quiescence(100_000).expect("one send quiesces");
        assert_eq!(net.nics[0].pairs.len(), 8);
        assert_eq!(net.nics[0].pairs[5].in_flight, 0);
        assert_eq!(net.cc_window(NodeId(0), NodeId(5)), 64 << 10);
    }

    #[test]
    #[should_panic(expected = "nic 0 has in-flight bytes to 7")]
    fn quiescence_check_catches_a_pair_holding_bytes() {
        let mut net = small();
        net.send(NodeId(0), NodeId(7), 4096, 0, 0);
        net.run_to_quiescence(100_000).expect("one send quiesces");
        net.assert_quiescent_invariants();
        net.nics[0].pairs[7].in_flight = 1;
        net.assert_quiescent_invariants();
    }

    #[test]
    fn run_until_returns_a_latched_credit_underflow() {
        let mut net = small();
        net.send(NodeId(0), NodeId(7), 4096, 0, 0);
        net.record_credit_underflow(1, 2, 0, 1, 64, 0);
        let err = net
            .run_until(SimTime::from_us(100))
            .expect_err("latched underflow must stop the run");
        assert!(matches!(
            err,
            SimError::CreditUnderflow {
                switch: 1,
                port: 2,
                returned: 64,
                outstanding: 0,
                ..
            }
        ));
        // The run stopped at the first event, and the latch still holds.
        assert_eq!(net.events_processed(), 1);
        assert!(net.take_fatal().is_some());
    }
}
