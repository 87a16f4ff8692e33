//! Fault-injection behavior: empty schedules change nothing, LLR replays
//! absorb transient bursts, link flaps and switch failures are survived by
//! rerouting plus end-to-end retry, and every packet copy is accounted for.

use slingshot_ethernet::MAX_PAYLOAD;
use slingshot_faults::{FaultConfig, FaultKind, FaultSchedule};
use slingshot_network::{Network, NetworkConfig, Notification};
use slingshot_topology::{tiny, DragonflyParams, NodeId};

use slingshot_des::{SimDuration, SimTime};

/// Cross-group transfers from four sources (64 KiB = 16 chunks each).
fn drive_traffic(net: &mut Network) {
    for i in 0..4u32 {
        net.send(NodeId(i), NodeId(12 + i), 64 << 10, 0, i as u64);
    }
    net.run_to_quiescence(10_000_000)
        .expect("quiesces within budget");
}

fn delivered_count(notes: &[Notification]) -> usize {
    notes
        .iter()
        .filter(|n| matches!(n, Notification::Delivered { .. }))
        .count()
}

#[test]
fn empty_schedule_is_equivalent_to_no_schedule() {
    let mut bare = Network::new(NetworkConfig::slingshot(tiny()));
    let mut cfg = NetworkConfig::slingshot(tiny());
    cfg.faults = Some(FaultConfig::new(FaultSchedule::empty()));
    let mut gated = Network::new(cfg);
    assert!(gated.fault_stats().is_none(), "empty schedule installed");

    drive_traffic(&mut bare);
    drive_traffic(&mut gated);

    assert_eq!(bare.events_processed(), gated.events_processed());
    assert_eq!(bare.now(), gated.now());
    assert_eq!(bare.stats(), gated.stats());
    assert_eq!(bare.kernel_stats(), gated.kernel_stats());
    assert_eq!(bare.take_notifications(), gated.take_notifications());
    for n in 0..bare.node_count() {
        assert_eq!(
            bare.delivered_payload(NodeId(n)),
            gated.delivered_payload(NodeId(n))
        );
    }
}

#[test]
fn transient_bursts_are_absorbed_by_llr_replay() {
    let mut cfg = NetworkConfig::slingshot(tiny());
    let mut schedule = FaultSchedule::empty();
    let n_channels = {
        let topo = cfg.topology.build();
        topo.channels().len() as u32
    };
    for ch in 0..n_channels {
        schedule.push(
            SimTime::ZERO,
            FaultKind::TransientBurst {
                channel: slingshot_topology::ChannelId(ch),
                error_rate: 0.3,
                duration: SimDuration::from_ms(1),
            },
        );
    }
    cfg.faults = Some(FaultConfig::new(schedule));
    let mut net = Network::new(cfg);
    drive_traffic(&mut net);

    let stats = net.fault_stats().expect("fault mode");
    assert!(stats.llr_replays > 0, "no LLR replays at 30% error rate");
    assert_eq!(delivered_count(&net.take_notifications()), 4);
    net.assert_fault_conservation();
    assert!(net.kernel_stats().llr_replays == stats.llr_replays);
}

#[test]
fn link_flap_is_survived_and_healed() {
    // Find the busiest channel of a fault-free run, then cut exactly it
    // mid-transfer.
    let mut probe = Network::new(NetworkConfig::slingshot(tiny()));
    drive_traffic(&mut probe);
    let busiest = probe
        .topology()
        .channels()
        .iter()
        .map(|c| c.id)
        .max_by_key(|&id| probe.channel_tx_bytes(id))
        .expect("channels exist");
    assert!(probe.channel_tx_bytes(busiest) > 0);

    let mut cfg = NetworkConfig::slingshot(tiny());
    let mut schedule = FaultSchedule::empty();
    schedule.push(
        SimTime::from_us(2),
        FaultKind::LinkDown { channel: busiest },
    );
    schedule.push(SimTime::from_us(80), FaultKind::LinkUp { channel: busiest });
    cfg.faults = Some(FaultConfig::new(schedule));
    let mut net = Network::new(cfg);
    drive_traffic(&mut net);

    let stats = net.fault_stats().expect("fault mode");
    assert_eq!(stats.link_down_events, 1);
    assert_eq!(stats.link_up_events, 1);
    assert!(
        net.liveness().expect("fault mode").all_up(),
        "link not healed"
    );
    assert_eq!(delivered_count(&net.take_notifications()), 4);
    net.assert_fault_conservation();
}

#[test]
fn switch_outage_drops_are_recovered_by_e2e_retry() {
    // The destination switch dies during the transfer and recovers; the
    // copies lost meanwhile are retransmitted after backoff.
    let mut cfg = NetworkConfig::slingshot(tiny());
    let dst_switch = {
        let topo = cfg.topology.build();
        topo.switch_of_node(NodeId(12))
    };
    let mut schedule = FaultSchedule::empty();
    schedule.push(
        SimTime::from_us(2),
        FaultKind::SwitchDown { switch: dst_switch },
    );
    schedule.push(
        SimTime::from_us(120),
        FaultKind::SwitchUp { switch: dst_switch },
    );
    cfg.faults = Some(FaultConfig::new(schedule));
    let mut net = Network::new(cfg);
    drive_traffic(&mut net);

    let stats = net.fault_stats().expect("fault mode");
    assert!(stats.dropped_total() > 0, "outage dropped nothing");
    assert!(stats.e2e_retransmits > 0, "no end-to-end retransmissions");
    assert_eq!(stats.switch_down_events, 1);
    assert_eq!(stats.switch_up_events, 1);
    assert_eq!(delivered_count(&net.take_notifications()), 4);
    net.assert_fault_conservation();
}

#[test]
fn unreachable_destination_gives_up_with_full_accounting() {
    // The destination switch never comes back: every copy is dropped with
    // a reason and the sender eventually abandons each chunk — loss is
    // visible, never silent.
    let mut cfg = NetworkConfig::slingshot(tiny());
    let dst_switch = {
        let topo = cfg.topology.build();
        topo.switch_of_node(NodeId(12))
    };
    let mut schedule = FaultSchedule::empty();
    schedule.push(SimTime::ZERO, FaultKind::SwitchDown { switch: dst_switch });
    cfg.faults = Some(FaultConfig::new(schedule));
    let mut net = Network::new(cfg);
    net.send(NodeId(0), NodeId(12), 4096, 0, 7);
    net.run_to_quiescence(10_000_000)
        .expect("quiesces within budget");

    let stats = net.fault_stats().expect("fault mode");
    assert_eq!(stats.delivered_unique, 0);
    assert_eq!(stats.e2e_giveups, 1, "the single chunk must be abandoned");
    assert!(stats.dropped_total() > 0);
    assert_eq!(
        stats.copies_injected,
        stats.dropped_total(),
        "every copy must have a recorded drop reason"
    );
    assert_eq!(delivered_count(&net.take_notifications()), 0);
    net.assert_fault_conservation();
}

#[test]
fn fault_scenarios_are_deterministic() {
    let build = || {
        let mut cfg = NetworkConfig::slingshot(tiny());
        let mut schedule = FaultSchedule::empty();
        for ch in 0..4u32 {
            schedule.push(
                SimTime::from_us(1),
                FaultKind::TransientBurst {
                    channel: slingshot_topology::ChannelId(ch),
                    error_rate: 0.2,
                    duration: SimDuration::from_us(500),
                },
            );
        }
        schedule.push(
            SimTime::from_us(3),
            FaultKind::LinkDown {
                channel: slingshot_topology::ChannelId(1),
            },
        );
        schedule.push(
            SimTime::from_us(90),
            FaultKind::LinkUp {
                channel: slingshot_topology::ChannelId(1),
            },
        );
        cfg.faults = Some(FaultConfig::new(schedule));
        let mut net = Network::new(cfg);
        drive_traffic(&mut net);
        net
    };
    let mut a = build();
    let mut b = build();
    assert_eq!(a.events_processed(), b.events_processed());
    assert_eq!(a.now(), b.now());
    assert_eq!(a.fault_stats(), b.fault_stats());
    assert_eq!(a.take_notifications(), b.take_notifications());
}

#[test]
fn every_recovery_path_quiesces_with_an_empty_packet_slab() {
    // Error bursts hard enough to exhaust LLR on some links (drop + link
    // retrain), plus an outage of the destination switch (drops recovered
    // by end-to-end retransmits): every packet slot — originals, replayed
    // packets, retransmit copies — must be freed by quiescence.
    let mut cfg = NetworkConfig::slingshot(tiny());
    let (n_channels, dst_switch) = {
        let topo = cfg.topology.build();
        (
            topo.channels().len() as u32,
            topo.switch_of_node(NodeId(12)),
        )
    };
    let mut schedule = FaultSchedule::empty();
    for ch in 0..n_channels {
        schedule.push(
            SimTime::ZERO,
            FaultKind::TransientBurst {
                channel: slingshot_topology::ChannelId(ch),
                error_rate: 0.6,
                duration: SimDuration::from_us(200),
            },
        );
    }
    schedule.push(
        SimTime::from_us(2),
        FaultKind::SwitchDown { switch: dst_switch },
    );
    schedule.push(
        SimTime::from_us(120),
        FaultKind::SwitchUp { switch: dst_switch },
    );
    cfg.faults = Some(FaultConfig::new(schedule));
    let mut net = Network::new(cfg);
    drive_traffic(&mut net);

    let stats = net.fault_stats().expect("fault mode");
    assert!(stats.llr_replays > 0, "no LLR replays");
    assert!(stats.llr_escalations > 0, "no LLR exhaustion drops");
    assert!(
        stats.dropped_total() > stats.dropped_llr_exhausted,
        "outage dropped nothing"
    );
    assert!(stats.e2e_retransmits > 0, "no end-to-end retransmissions");
    assert_eq!(delivered_count(&net.take_notifications()), 4);
    net.assert_fault_conservation();
    net.assert_quiescent_invariants();
}

#[test]
fn e2e_give_up_frees_the_window_for_the_next_chunk() {
    // The destination's switch is down for the first 300 µs and the NIC
    // gives every lost copy up at its first timeout. Each give-up frees
    // window, and the NIC must go on injecting the message's remaining
    // chunks instead of stalling with the window free.
    let mut cfg = NetworkConfig::slingshot(DragonflyParams {
        groups: 2,
        switches_per_group: 2,
        endpoints_per_switch: 2,
        global_links_per_pair: 2,
        intra_links_per_pair: 1,
    });
    let dst_switch = cfg.topology.build().switch_of_node(NodeId(7));
    let mut schedule = FaultSchedule::empty();
    schedule.push(SimTime::ZERO, FaultKind::SwitchDown { switch: dst_switch });
    schedule.push(
        SimTime::from_us(300),
        FaultKind::SwitchUp { switch: dst_switch },
    );
    let mut faults = FaultConfig::new(schedule);
    faults.recovery.e2e_max_retries = 0;
    cfg.faults = Some(faults);
    let mut net = Network::new(cfg);
    let bytes = 4u64 << 20;
    net.send(NodeId(0), NodeId(7), bytes, 0, 0);
    net.run_to_quiescence(10_000_000)
        .expect("quiesces within budget");

    let stats = net.fault_stats().expect("fault mode");
    let chunks = bytes / MAX_PAYLOAD as u64;
    assert_eq!(stats.copies_injected, chunks, "every chunk leaves the NIC");
    assert_eq!(stats.e2e_retransmits, 0);
    assert!(stats.e2e_giveups > 0, "the outage must cost some chunks");
    assert_eq!(
        net.delivered_payload(NodeId(7)),
        bytes - stats.e2e_giveups * MAX_PAYLOAD as u64,
        "every chunk not given up is delivered"
    );
    assert_eq!(stats.delivered_unique + stats.e2e_giveups, chunks);
    net.assert_fault_conservation();
}

#[test]
fn acked_copies_cost_at_most_two_timer_events_per_line() {
    // A lossless fault-mode run: every copy is acked well before the first
    // 50 µs deadline, so no timer retransmits. Each sender's one timer line
    // dispatches its head's timer and then its last entry's, never one
    // event per copy, and the run still ends at the last copy's deadline.
    let mut cfg = NetworkConfig::slingshot(tiny());
    let mut schedule = FaultSchedule::empty();
    schedule.push(
        SimTime::ZERO,
        FaultKind::TransientBurst {
            channel: slingshot_topology::ChannelId(0),
            error_rate: 0.0,
            duration: SimDuration::from_us(1),
        },
    );
    let mut faults = FaultConfig::new(schedule);
    faults.recovery.transient_error_rate = 0.0;
    let timeout = faults.recovery.e2e_timeout;
    cfg.faults = Some(faults);
    let mut net = Network::new(cfg);
    let senders = 4u32;
    for i in 0..senders {
        net.send(NodeId(i), NodeId(12 + i), 64 << 10, 0, i as u64);
    }
    // Step by hand to time the last copy's end of serialization.
    let (mut nic_tx, mut last_tx) = (0, SimTime::ZERO);
    while net.step() {
        let k = net.kernel_stats();
        if k.events_nic_tx > nic_tx {
            (nic_tx, last_tx) = (k.events_nic_tx, net.now());
        }
    }

    let stats = net.fault_stats().expect("fault mode");
    assert_eq!(stats.copies_injected, 4 * 16);
    assert_eq!(stats.e2e_timeouts, 0, "a copy timed out in a lossless run");
    let last_ack = net
        .take_notifications()
        .iter()
        .filter_map(|n| match n {
            Notification::SendAcked { at, .. } => Some(*at),
            _ => None,
        })
        .max()
        .expect("sends acked");
    assert!(
        last_ack < SimTime::ZERO + timeout,
        "acks came after a deadline"
    );
    let fired = net.kernel_stats().events_e2e_timeout;
    assert!(
        fired <= 2 * u64::from(senders),
        "{fired} timer events for {senders} timer lines"
    );
    assert_eq!(
        net.now(),
        last_tx + timeout,
        "run ends at the last deadline"
    );
    net.assert_fault_conservation();
}
