//! Fault-injection behavior: empty schedules change nothing, LLR replays
//! absorb transient bursts, link flaps and switch failures are survived by
//! rerouting plus end-to-end retry, and every packet copy is accounted for.

use slingshot_faults::{FaultConfig, FaultKind, FaultSchedule};
use slingshot_network::{Network, NetworkConfig, Notification};
use slingshot_topology::{tiny, NodeId};

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
