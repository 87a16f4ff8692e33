//! Machine-readable kernel performance snapshot: `BENCH_kernel.json`.
//!
//! Times the simulator's hot kernels — next-hop table lookups, adaptive
//! routing decisions, the NIC pair table (in-flight bytes and CC window),
//! QoS arbitration, the event queue, the RNG, the Rosetta latency draw —
//! and one end-to-end simulation for an events/sec figure. A counting
//! allocator wraps the system allocator so every record carries allocs/op
//! next to ns/op: the routing fast path's zero-allocation claim is
//! measured here on every run, not asserted once in review.
//!
//! Options: `--quick` (CI-sized iteration counts), `--out PATH` (default
//! `BENCH_kernel.json`), `--strict` (non-zero exit if a kernel expected
//! to be allocation-free allocates).

use serde::Serialize;
use slingshot::congestion::AckFeedback;
use slingshot::des::{DetRng, EventQueue, SimDuration, SimTime};
use slingshot::network::{
    CcConfig, InSource, MessageId, Nic, OutPort, Packet, PacketHandle, PortKind,
};
use slingshot::qos::TrafficClassSet;
use slingshot::rosetta::LatencyModel;
use slingshot::routing::{QuietView, RouteState, Router, RoutingAlgorithm, Via};
use slingshot::telemetry::{HopKind, TelemetryConfig, TelemetryHub};
use slingshot::topology::{shandy, ChannelId, Liveness, NodeId, SwitchId};
use slingshot::{Profile, System, SystemBuilder};
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// System allocator wrapper that counts allocation calls (alloc and
/// realloc; frees are not interesting for the per-op budget).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        SystemAlloc.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        SystemAlloc.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[derive(Serialize)]
struct BenchRecord {
    name: String,
    iters: u64,
    ns_per_op: f64,
    allocs_per_op: f64,
    /// Whether this kernel is required to be allocation-free.
    zero_alloc_required: bool,
}

#[derive(Serialize)]
struct EndToEnd {
    nodes: u32,
    messages: u64,
    events: u64,
    wall_ns: u64,
    events_per_sec: f64,
}

#[derive(Serialize)]
struct Report {
    schema: u32,
    mode: String,
    benches: Vec<BenchRecord>,
    end_to_end: EndToEnd,
}

/// Time `iters` calls of `f` after a 1/10 warmup, reading the allocation
/// counter across the timed region.
fn bench<F: FnMut()>(name: &str, iters: u64, zero_alloc_required: bool, mut f: F) -> BenchRecord {
    for _ in 0..iters / 10 {
        f();
    }
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let wall = start.elapsed();
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    let rec = BenchRecord {
        name: name.to_string(),
        iters,
        ns_per_op: wall.as_nanos() as f64 / iters as f64,
        allocs_per_op: allocs as f64 / iters as f64,
        zero_alloc_required,
    };
    eprintln!(
        "{:<32} {:>10.1} ns/op  {:>8.3} allocs/op",
        rec.name, rec.ns_per_op, rec.allocs_per_op
    );
    rec
}

fn end_to_end(quick: bool) -> EndToEnd {
    let rounds = if quick { 4 } else { 32 };
    let mut net = SystemBuilder::new(System::Tiny, Profile::Slingshot)
        .seed(7)
        .build();
    let n = net.node_count();
    let mut messages = 0u64;
    let start = Instant::now();
    for round in 1..=rounds {
        for src in 0..n {
            let dst = (src + round) % n;
            if src == dst {
                continue;
            }
            net.send(NodeId(src), NodeId(dst), 64 << 10, 0, 0);
            messages += 1;
        }
        net.run_to_quiescence(u64::MAX)
            .expect("quiesces within budget");
    }
    let wall = start.elapsed();
    let events = net.kernel_stats().events_total();
    let rec = EndToEnd {
        nodes: n,
        messages,
        events,
        wall_ns: wall.as_nanos() as u64,
        events_per_sec: events as f64 / wall.as_secs_f64(),
    };
    eprintln!(
        "{:<32} {:>10.0} events/sec ({} events, {} messages)",
        "end_to_end_tiny", rec.events_per_sec, rec.events, rec.messages
    );
    rec
}

fn main() {
    let mut quick = false;
    let mut strict = false;
    let mut out = String::from("BENCH_kernel.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--strict" => strict = true,
            "--out" => out = args.next().expect("--out expects a path"),
            other => {
                eprintln!("unrecognized option {other:?}");
                eprintln!("options: --quick | --strict | --out PATH");
                std::process::exit(2);
            }
        }
    }
    let scale: u64 = if quick { 1 } else { 10 };

    let topo = shandy().build();
    let switches = topo.switch_count() as u64;
    let router = Router::new(&topo, RoutingAlgorithm::Adaptive, None);

    let mut benches = Vec::new();

    let mut rng = DetRng::seed_from(1);
    benches.push(bench(
        "routing_next_hop_shandy",
        200_000 * scale,
        true,
        || {
            let s = SwitchId(rng.below(switches) as u32);
            let d = SwitchId(rng.below(switches) as u32);
            black_box(topo.next_hops_toward_switch(s, d));
        },
    ));

    let mut rng = DetRng::seed_from(2);
    benches.push(bench(
        "topology_min_hops_shandy",
        200_000 * scale,
        true,
        || {
            let s = SwitchId(rng.below(switches) as u32);
            let d = SwitchId(rng.below(switches) as u32);
            black_box(topo.min_hops(s, d));
        },
    ));

    let mut rng = DetRng::seed_from(3);
    benches.push(bench(
        "routing_adaptive_decide_shandy",
        100_000 * scale,
        true,
        || {
            let s = SwitchId(rng.below(switches) as u32);
            let d = SwitchId(rng.below(switches) as u32);
            black_box(router.decide(s, d, &QuietView, &mut rng));
        },
    ));

    // Liveness-mask consultation on the routing fast path, measured in the
    // degraded state (some entries down) so the per-candidate bit tests run
    // rather than the all-up early-out.
    let channels = topo.channels().len() as u64;
    let mut live = Liveness::for_topology(&topo);
    let mut rng = DetRng::seed_from(5);
    for _ in 0..8 {
        live.set_channel(ChannelId(rng.below(channels) as u32), false);
    }
    for _ in 0..2 {
        live.set_switch(SwitchId(rng.below(switches) as u32), false);
    }
    benches.push(bench(
        "liveness_channel_usable_shandy",
        200_000 * scale,
        true,
        || {
            let ch = ChannelId(rng.below(channels) as u32);
            black_box(live.channel_usable(&topo, ch));
        },
    ));

    // The NIC pair table on the injection and ack paths: Slingshot CC's
    // `may_send`, the in-flight add, the checked ack and `on_ack`, on a
    // table opened before timing. One ack in eight is congested, so the
    // window both cuts and recovers.
    let cc = CcConfig::Slingshot(Default::default());
    let mut nic = Nic {
        node: NodeId(0),
        active: VecDeque::new(),
        busy: false,
        credits: Vec::new(),
        pairs: Vec::new(),
        rate_bps: 12.5e9,
        prop: SimDuration::ZERO,
        retx: VecDeque::new(),
    };
    nic.open_pairs(256, cc.max_window());
    let mut now = SimTime::ZERO;
    let mut rng = DetRng::seed_from(4);
    benches.push(bench(
        "nic_pair_may_send_ack",
        100_000 * scale,
        true,
        || {
            let dst = NodeId(rng.below(256) as u32);
            now += SimDuration::from_ns(100);
            let pair = &mut nic.pairs[dst.index()];
            black_box(cc.may_send(pair, 4096, now));
            pair.in_flight += 4096;
            let feedback = AckFeedback {
                endpoint_congested: rng.below(8) == 0,
                ejection_queue_bytes: 64 << 10,
            };
            cc.on_ack(nic.sub_in_flight(dst, 4096), feedback, now);
        },
    ));

    // Per-transmit arbitration on a two-class port (fig14's classes): the
    // class backlog mask, the QoS scheduler's pick, the oldest-head VC
    // choice and the dequeue. Each served packet is re-queued at the back
    // of its class, so both classes stay backlogged and the VOQs never
    // grow past their warmup capacity.
    let mut port = OutPort::new(
        PortKind::Channel(ChannelId(0)),
        &TrafficClassSet::fig14(),
        1 << 20,
        25e9,
        SimDuration::from_ns(13),
    );
    let template = |tc: u8, hops: u8| {
        let mut route = RouteState::new(SwitchId(0), Via::Direct);
        route.hops = hops;
        Packet {
            msg: MessageId(0),
            src: NodeId(0),
            dst: NodeId(1),
            payload: 4096,
            wire: 4158,
            tc,
            routed: true,
            route,
            cur_source: InSource::Node(NodeId(0)),
            path_delay: SimDuration::ZERO,
            ep_depth: 0,
            born: SimTime::ZERO,
            chunk: 0,
            copy: 0,
            llr: 0,
            traced: false,
        }
    };
    for i in 0..8u8 {
        port.enqueue(PacketHandle(i as u32), &template(i % 2, i / 2));
    }
    let mut now = SimTime::ZERO;
    benches.push(bench(
        "qos_pick_take_two_class",
        200_000 * scale,
        true,
        || {
            let (tc, vc) = port.pick(now).expect("both classes backlogged");
            let head = port.take(tc, vc, now);
            port.credit_return(tc, vc, head.wire)
                .expect("take reserved these bytes");
            now += port.serialization(head.wire);
            let mut pkt = template(tc as u8, vc as u8);
            pkt.born = now;
            port.enqueue(head.pkt, &pkt);
        },
    ));

    // A population of the size the simulations hold, filled and drained
    // once per op. The queue is reused, so the timed region measures the
    // heap rather than the allocator.
    let mut queue = EventQueue::with_capacity(1024);
    benches.push(bench(
        "event_queue_push_pop_1k",
        2_000 * scale,
        true,
        || {
            for i in 0..1024u64 {
                queue.push(SimTime::from_ps(i * 37 % 5000), i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = queue.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc);
        },
    ));

    let mut rng = DetRng::seed_from(7);
    benches.push(bench("det_rng_below_1k", 2_000 * scale, true, || {
        let mut acc = 0u64;
        for _ in 0..1000 {
            acc = acc.wrapping_add(rng.below(64));
        }
        black_box(acc);
    }));

    // Fig. 2's per-traversal draw: fixed pipeline stages, the tile route
    // for the port pair, arbitration jitter and the rare heavy tail.
    let model = LatencyModel::rosetta();
    let mut rng = DetRng::seed_from(8);
    benches.push(bench(
        "rosetta_latency_sample",
        200_000 * scale,
        true,
        || {
            black_box(model.sample(&mut rng, 19, 56));
        },
    ));

    // Telemetry instrumentation sites. Disabled is the shipping default:
    // every site in the simulator reduces to this one Option discriminant
    // check, which must stay free (≤ a couple ns, no allocations) for the
    // disabled run to remain byte-identical *and* cost-identical to an
    // uninstrumented build. The enabled paths bound what `--telemetry`
    // adds per event: a pure sampling hash and a bucket bump.
    let mut sink: Option<Box<TelemetryHub>> = None;
    benches.push(bench(
        "telemetry_disabled_gate",
        200_000 * scale,
        true,
        || {
            if let Some(hub) = black_box(&mut sink).as_deref_mut() {
                hub.on_port_tx(0, 0, 0, 0);
            }
        },
    ));

    let mut rng = DetRng::seed_from(6);
    let hub = TelemetryHub::new(TelemetryConfig::sampled(16), 64, 2, 4);
    benches.push(bench(
        "telemetry_sampling_hash",
        200_000 * scale,
        true,
        || {
            let msg = rng.below(1 << 48);
            black_box(hub.sampled(msg, (msg % 64) as u32));
        },
    ));

    // Bucket bump with the sink enabled. Time cycles inside a fixed 1 ms
    // window so the series stops growing after warmup and the record
    // captures the steady-state bump, not one-off bucket growth.
    let mut hub = TelemetryHub::new(TelemetryConfig::sampled(16), 64, 2, 4);
    let mut at: u64 = 0;
    benches.push(bench(
        "telemetry_port_tx_bump",
        200_000 * scale,
        false,
        || {
            at = (at + 7_919_333) % 1_000_000_000;
            hub.on_port_tx((at % 64) as u32, (at % 2) as u8, at, 4096);
        },
    ));

    // Flight-recorder append into the bounded ring (wraps after warmup,
    // so the timed region never grows the buffer).
    let mut rec_hub = TelemetryHub::new(TelemetryConfig::sampled(1), 4, 1, 1);
    let mut rec_at: u64 = 0;
    benches.push(bench(
        "telemetry_record_event",
        200_000 * scale,
        false,
        || {
            rec_at += 1_000;
            rec_hub.record_event(
                rec_at,
                rec_at % 512,
                0,
                0,
                0,
                HopKind::VoqEnqueue {
                    sw: 1,
                    port: 2,
                    vc: 0,
                },
            );
        },
    ));

    // Stall-diagnosis snapshot on a loaded network. Off the hot path (it
    // runs once, when a sweep cell dies), but it walks every port, NIC
    // and credit pool — this bench bounds that walk so the diagnosis
    // stays cheap enough to attach to every failure row.
    let mut net = SystemBuilder::new(System::Tiny, Profile::Slingshot)
        .seed(9)
        .build();
    let n = net.node_count();
    for src in 0..n {
        net.send(NodeId(src), NodeId((src + 3) % n), 256 << 10, 0, 0);
    }
    for _ in 0..50_000 {
        if !net.step() {
            break;
        }
    }
    benches.push(bench(
        "stall_report_tiny_loaded",
        2_000 * scale,
        false,
        || {
            black_box(net.stall_report(50_000, 50_000));
        },
    ));

    let report = Report {
        schema: 1,
        mode: if quick { "quick" } else { "full" }.to_string(),
        benches,
        end_to_end: end_to_end(quick),
    };

    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out, json).expect("write BENCH_kernel.json");
    eprintln!("report written to {out}");

    let leaky: Vec<&BenchRecord> = report
        .benches
        .iter()
        .filter(|b| b.zero_alloc_required && b.allocs_per_op > 0.0)
        .collect();
    for b in &leaky {
        eprintln!(
            "warning: {} allocates {:.3} times per op on a zero-allocation path",
            b.name, b.allocs_per_op
        );
    }
    if strict && !leaky.is_empty() {
        std::process::exit(1);
    }
}
