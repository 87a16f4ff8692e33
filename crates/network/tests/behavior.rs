//! End-to-end behavioral tests of the network simulator: latency sanity,
//! bandwidth, conservation, determinism, and the paper's central
//! congestion-control phenomenon (incast collapse on Aries-like networks vs
//! isolation on Slingshot).

use slingshot_des::{SimDuration, SimTime};
use slingshot_network::{Network, NetworkConfig, Notification};
use slingshot_topology::{DragonflyParams, NodeId};

fn medium_topo() -> DragonflyParams {
    // 2 groups × 4 switches × 8 endpoints = 64 nodes.
    DragonflyParams {
        groups: 2,
        switches_per_group: 4,
        endpoints_per_switch: 8,
        global_links_per_pair: 8,
        intra_links_per_pair: 1,
    }
}

/// Run a single message and return its delivery latency.
fn one_message_latency(net: &mut Network, src: u32, dst: u32, bytes: u64) -> SimDuration {
    let id = net.send(NodeId(src), NodeId(dst), bytes, 0, 0);
    loop {
        assert!(net.step(), "queue drained before delivery");
        for n in net.take_notifications() {
            if let Notification::Delivered {
                msg,
                submitted_at,
                delivered_at,
                ..
            } = n
            {
                if msg == id {
                    return delivered_at.since(submitted_at);
                }
            }
        }
    }
}

#[test]
fn quiet_latency_orders_by_distance() {
    let mut net = Network::new(NetworkConfig::slingshot(medium_topo()));
    // Node 0 & 1: same switch. 0 & 8: same group (1 inter-switch hop).
    // 0 & 40: different group via a gateway (2 inter-switch hops — node
    // 32's switch is directly cabled to switch 0, so use switch 5).
    let same_switch = one_message_latency(&mut net, 0, 1, 8);
    let same_group = one_message_latency(&mut net, 0, 8, 8);
    let diff_group = one_message_latency(&mut net, 0, 40, 8);
    assert!(
        same_switch < same_group && same_group < diff_group,
        "{same_switch} !< {same_group} !< {diff_group}"
    );
    // Sanity: small-message one-way latencies sit in the sub-two-µs range
    // (NIC serialization + 1-3 switch hops at ~350 ns + propagation).
    assert!(same_switch > SimDuration::from_ns(300), "{same_switch}");
    assert!(diff_group < SimDuration::from_us(3), "{diff_group}");
    // Each extra hop adds roughly one switch latency (~350 ns ± jitter).
    let hop2 = same_group.saturating_sub(same_switch);
    let hop3 = diff_group.saturating_sub(same_group);
    assert!((200..=900).contains(&hop2.as_ns()), "2nd hop delta {hop2}");
    assert!((200..=1200).contains(&hop3.as_ns()), "3rd hop delta {hop3}");
}

#[test]
fn large_message_achieves_injection_bandwidth() {
    let mut net = Network::new(NetworkConfig::slingshot(medium_topo()));
    let bytes: u64 = 8 << 20; // 8 MiB
    let lat = one_message_latency(&mut net, 0, 32, bytes);
    let gbps = (bytes * 8) as f64 / lat.as_ns_f64();
    // Injection is 100 Gb/s; headers cost ~1.5 %; windows/acks cost a bit.
    assert!(gbps > 80.0, "achieved only {gbps:.1} Gb/s");
    assert!(gbps <= 100.0, "faster than line rate: {gbps:.1} Gb/s");
}

#[test]
fn all_messages_delivered_and_buffers_restored() {
    let mut net = Network::new(NetworkConfig::slingshot(medium_topo()));
    // A burst of random traffic.
    for i in 0..200u32 {
        let src = (i * 7) % 64;
        let dst = (i * 13 + 5) % 64;
        let bytes = 1 + (i as u64 * 977) % 20_000;
        net.send(NodeId(src), NodeId(dst), bytes, 0, i as u64);
    }
    net.run_to_quiescence(20_000_000)
        .expect("quiesces within budget");
    let delivered = net
        .take_notifications()
        .iter()
        .filter(|n| matches!(n, Notification::Delivered { .. }))
        .count();
    assert_eq!(delivered, 200);
    net.assert_quiescent_invariants();
    assert_eq!(net.stats().messages_delivered, 200);
}

#[test]
fn deterministic_given_seed() {
    let run = || {
        let mut net = Network::new(NetworkConfig::slingshot(medium_topo()));
        for i in 0..50u32 {
            net.send(NodeId(i % 64), NodeId((i * 31 + 2) % 64), 10_000, 0, 0);
        }
        net.run_to_quiescence(10_000_000)
            .expect("quiesces within budget");
        (net.now(), net.events_processed())
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

#[test]
fn different_seed_changes_microtiming() {
    let run = |seed: u64| {
        let mut cfg = NetworkConfig::slingshot(medium_topo());
        cfg.seed = seed;
        let mut net = Network::new(cfg);
        for i in 0..50u32 {
            net.send(NodeId(i % 64), NodeId((i * 31 + 2) % 64), 10_000, 0, 0);
        }
        net.run_to_quiescence(10_000_000)
            .expect("quiesces within budget");
        net.now()
    };
    assert_ne!(run(1), run(2));
}

#[test]
fn wakeups_fire_in_order() {
    let mut net = Network::new(NetworkConfig::slingshot(medium_topo()));
    net.schedule_wakeup(SimTime::from_us(30), 3);
    net.schedule_wakeup(SimTime::from_us(10), 1);
    net.schedule_wakeup(SimTime::from_us(20), 2);
    net.run_to_quiescence(100).expect("quiesces within budget");
    let tokens: Vec<u64> = net
        .take_notifications()
        .into_iter()
        .filter_map(|n| match n {
            Notification::Wakeup { token, .. } => Some(token),
            _ => None,
        })
        .collect();
    assert_eq!(tokens, vec![1, 2, 3]);
}

#[test]
fn loopback_messages_deliver_locally() {
    let mut net = Network::new(NetworkConfig::slingshot(medium_topo()));
    let lat = one_message_latency(&mut net, 5, 5, 4096);
    assert!(lat < SimDuration::from_us(1), "loopback too slow: {lat}");
}

/// Incast scenario harness: `n_aggr` nodes blast messages at a hot node
/// while a victim round-trip crosses the congested direction. Returns the
/// victim round-trip time.
fn victim_rtt_under_incast(cfg: NetworkConfig, with_aggressors: bool) -> SimDuration {
    let mut net = Network::new(cfg);
    let hot = 0u32; // group 0, switch 0
    if with_aggressors {
        // Aggressors: all of group 1 (nodes 32..64) except the victim peer.
        for a in 32..63u32 {
            for _ in 0..4 {
                net.send(NodeId(a), NodeId(hot), 128 << 10, 0, 0);
            }
        }
    }
    // Let congestion build.
    net.run_until(SimTime::from_us(100))
        .expect("no accounting error");
    net.take_notifications();
    // Victim ping: group 0 → group 1...
    let ping = net.send(NodeId(8), NodeId(63), 8, 0, 77);
    let mut pong = None;
    let t_start = net.now();
    loop {
        assert!(net.step(), "drained before victim pong");
        let mut done_at = None;
        for n in net.take_notifications() {
            if let Notification::Delivered {
                msg, delivered_at, ..
            } = n
            {
                if msg == ping {
                    // ... and pong back: group 1 → group 0 shares the
                    // congested direction with the aggressors.
                    pong = Some(net.send(NodeId(63), NodeId(8), 8, 0, 78));
                }
                if Some(msg) == pong {
                    done_at = Some(delivered_at);
                }
            }
        }
        if let Some(t) = done_at {
            return t.since(t_start);
        }
    }
}

#[test]
fn aries_incast_crushes_victims_slingshot_protects_them() {
    let quiet_aries = victim_rtt_under_incast(NetworkConfig::aries(medium_topo()), false);
    let loaded_aries = victim_rtt_under_incast(NetworkConfig::aries(medium_topo()), true);
    let quiet_ss = victim_rtt_under_incast(NetworkConfig::slingshot(medium_topo()), false);
    let loaded_ss = victim_rtt_under_incast(NetworkConfig::slingshot(medium_topo()), true);

    let impact_aries = loaded_aries.as_ns_f64() / quiet_aries.as_ns_f64();
    let impact_ss = loaded_ss.as_ns_f64() / quiet_ss.as_ns_f64();
    // The paper: victim slowdowns of 10-100x on Aries, ≤ ~1.3x on
    // Slingshot for most scenarios (we allow 2x for this small system).
    assert!(
        impact_aries > 5.0,
        "Aries victim impact only {impact_aries:.2}x (quiet {quiet_aries}, loaded {loaded_aries})"
    );
    assert!(
        impact_ss < 2.0,
        "Slingshot victim impact {impact_ss:.2}x (quiet {quiet_ss}, loaded {loaded_ss})"
    );
    assert!(
        impact_aries / impact_ss > 4.0,
        "separation too small: aries {impact_aries:.2}x vs slingshot {impact_ss:.2}x"
    );
}

#[test]
fn slingshot_cc_throttles_only_contributors() {
    let mut net = Network::new(NetworkConfig::slingshot(medium_topo()));
    let hot = 0u32;
    for a in 32..60u32 {
        for _ in 0..4 {
            net.send(NodeId(a), NodeId(hot), 128 << 10, 0, 0);
        }
    }
    net.run_until(SimTime::from_us(150))
        .expect("no accounting error");
    // Contributor windows (toward the hot node) must be squeezed...
    let w_contrib = net.cc_window(NodeId(40), NodeId(hot));
    assert!(
        w_contrib < 64 << 10,
        "contributor window not reduced: {w_contrib}"
    );
    // ...while the same NIC's window toward anyone else is untouched.
    let w_victim = net.cc_window(NodeId(40), NodeId(8));
    assert_eq!(w_victim, 64 << 10, "non-contributing pair was throttled");
}

#[test]
fn adaptive_routing_uses_nonminimal_paths_under_load() {
    // Saturating many flows between two groups forces detours.
    let mut net = Network::new(NetworkConfig::slingshot(DragonflyParams {
        groups: 4,
        switches_per_group: 2,
        endpoints_per_switch: 4,
        global_links_per_pair: 1,
        intra_links_per_pair: 1,
    }));
    // Group 0 (nodes 0..8) → group 1 (nodes 8..16): only 1 global cable
    // per pair; heavy load must spill onto valiant paths via groups 2/3.
    for src in 0..8u32 {
        for _ in 0..4 {
            net.send(NodeId(src), NodeId(8 + (src % 8)), 256 << 10, 0, 0);
        }
    }
    net.run_to_quiescence(50_000_000)
        .expect("quiesces within budget");
    assert!(
        net.kernel_stats().adaptive_nonminimal > 0,
        "no valiant detours under inter-group saturation"
    );
    net.assert_quiescent_invariants();
}

#[test]
fn quiet_network_routes_minimally() {
    let mut net = Network::new(NetworkConfig::slingshot(medium_topo()));
    for i in 0..20u32 {
        let _ = one_message_latency(&mut net, i, 63 - i, 4096);
    }
    assert_eq!(
        net.kernel_stats().adaptive_nonminimal,
        0,
        "detours on a quiet network"
    );
}

#[test]
fn under_budgeted_run_returns_stall_report() {
    let mut net = Network::new(NetworkConfig::slingshot(medium_topo()));
    for src in 0..32u32 {
        net.send(NodeId(src), NodeId(32 + src), 256 << 10, 0, 0);
    }
    // Far too few events to drain 8 MB of traffic: the run must come back
    // as a stall diagnosis, not a panic — and the network must still be
    // resumable with a bigger budget afterwards.
    let err = net
        .run_to_quiescence(500)
        .expect_err("500 events cannot drain 32 large messages");
    let report = err.stall_report().expect("stalled error carries a report");
    assert_eq!(report.event_budget, 500);
    assert!(report.events_consumed > 500);
    assert!(report.pending_events > 0, "stall with an empty queue");
    assert!(report.messages_in_flight > 0);
    assert!(report.kernel.events_total() > 0);
    assert!(
        !report.hot_ports.is_empty() || !report.hot_nics.is_empty(),
        "a loaded stall names at least one hot port or open NIC window"
    );
    assert!(report.hot_ports.len() <= slingshot_network::STALL_REPORT_TOP_N);
    assert!(!format!("{err}").is_empty());

    // The stall is a budget verdict, not corruption: resuming with a real
    // budget drains the network and the quiescent invariants hold (they
    // are only ever checked on the Ok path).
    net.run_to_quiescence(50_000_000)
        .expect("resumed run drains");
    net.assert_quiescent_invariants();
    assert_eq!(net.stats().messages_delivered, 32);
}

#[test]
fn credit_underflow_error_names_port_class_vc() {
    let err = slingshot_network::SimError::CreditUnderflow {
        switch: 3,
        port: 7,
        tc: 1,
        vc: 2,
        returned: 4158,
        outstanding: 96,
    };
    let msg = format!("{err}");
    assert!(msg.contains("switch 3"), "{msg}");
    assert!(msg.contains("port 7"), "{msg}");
    assert!(msg.contains("class 1"), "{msg}");
    assert!(msg.contains("vc 2"), "{msg}");
    assert!(msg.contains("underflow"), "{msg}");
}
