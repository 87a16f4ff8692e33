//! End-to-end engine tests: collectives and concurrent jobs running
//! against the packet-level network.

use slingshot::{Profile, System, SystemBuilder};
use slingshot_des::{SimDuration, SimTime};
use slingshot_mpi::{coll, Engine, Job, MpiOp, ProtocolStack, Script};
use slingshot_topology::NodeId;

fn engine(system: System) -> Engine {
    let net = SystemBuilder::new(system, Profile::Slingshot).build();
    Engine::new(net, ProtocolStack::mpi())
}

fn scripts_from(frags: coll::Fragments) -> Vec<Script> {
    frags.into_iter().map(Script::from_ops).collect()
}

fn nodes(n: u32) -> Vec<NodeId> {
    (0..n).map(NodeId).collect()
}

#[test]
fn barrier_completes_on_network() {
    for n in [2u32, 3, 7, 16] {
        let mut eng = engine(System::Tiny);
        let job = Job::new(nodes(n));
        let id = eng.add_job(job, scripts_from(coll::barrier(n, 0)), 0, SimTime::ZERO);
        eng.run_to_completion(1_000_000)
            .expect("completes within budget");
        let dur = eng.job_duration(id).unwrap();
        assert!(dur > SimDuration::ZERO);
        assert!(dur < SimDuration::from_us(100), "barrier took {dur}");
    }
}

#[test]
fn allreduce_completes_small_and_large() {
    for bytes in [8u64, 1 << 20] {
        let mut eng = engine(System::Tiny);
        let id = eng.add_job(
            Job::new(nodes(16)),
            scripts_from(coll::allreduce(16, bytes, 0)),
            0,
            SimTime::ZERO,
        );
        eng.run_to_completion(50_000_000)
            .expect("completes within budget");
        assert!(eng.job_finished_at(id).is_some());
    }
}

#[test]
fn alltoall_completes_across_algorithm_switch() {
    for bytes in [64u64, 4096] {
        let mut eng = engine(System::Tiny);
        let id = eng.add_job(
            Job::new(nodes(16)),
            scripts_from(coll::alltoall(16, bytes, 0)),
            0,
            SimTime::ZERO,
        );
        eng.run_to_completion(50_000_000)
            .expect("completes within budget");
        assert!(eng.job_finished_at(id).is_some());
    }
}

#[test]
fn bcast_latency_scales_logarithmically() {
    // Binomial broadcast: 16 ranks cost ~log2(16)=4 levels, not 15.
    let mut eng = engine(System::Tiny);
    let id = eng.add_job(
        Job::new(nodes(16)),
        scripts_from(coll::bcast(16, 0, 8, 0)),
        0,
        SimTime::ZERO,
    );
    eng.run_to_completion(10_000_000)
        .expect("completes within budget");
    let dur = eng.job_duration(id).unwrap();
    // 4 levels × (overhead + wire) ≪ 15 × sequential sends (~15 × 2 µs).
    assert!(dur < SimDuration::from_us(20), "bcast took {dur}");
}

#[test]
fn pingpong_latency_reasonable() {
    let mut eng = engine(System::Tiny);
    // Rank 0 and rank 1 on different groups of Tiny (nodes 0 and 8).
    let job = Job::new(vec![NodeId(0), NodeId(8)]);
    let iters = 10;
    let mut s0 = Script::new();
    let mut s1 = Script::new();
    s0.push(MpiOp::Mark(0));
    for i in 0..iters {
        s0.push(MpiOp::Send {
            dst: 1,
            bytes: 8,
            tag: i,
        });
        s0.push(MpiOp::Recv { src: 1, tag: i });
        s1.push(MpiOp::Recv { src: 0, tag: i });
        s1.push(MpiOp::Send {
            dst: 0,
            bytes: 8,
            tag: i,
        });
    }
    s0.push(MpiOp::Mark(1));
    let id = eng.add_job(job, vec![s0, s1], 0, SimTime::ZERO);
    eng.run_to_completion(10_000_000)
        .expect("completes within budget");
    let marks = eng.marks();
    let total = marks[1].at.since(marks[0].at);
    let rtt = total / iters as u64;
    // 8-byte RTT on a quiet network: a handful of µs (2 software stacks +
    // ~3 switch hops each way).
    assert!(rtt > SimDuration::from_us(1), "rtt {rtt}");
    assert!(rtt < SimDuration::from_us(12), "rtt {rtt}");
    let _ = id;
}

#[test]
fn rendezvous_send_blocks_until_acked() {
    let mut eng = engine(System::Tiny);
    let job = Job::new(vec![NodeId(0), NodeId(15)]);
    // 1 MiB is above the 16 KiB rendezvous threshold.
    let s0 = Script::from_ops(vec![
        MpiOp::Mark(0),
        MpiOp::Send {
            dst: 1,
            bytes: 1 << 20,
            tag: 0,
        },
        MpiOp::Mark(1),
    ]);
    let s1 = Script::from_ops(vec![MpiOp::Recv { src: 0, tag: 0 }]);
    eng.add_job(job, vec![s0, s1], 0, SimTime::ZERO);
    eng.run_to_completion(10_000_000)
        .expect("completes within budget");
    let marks = eng.marks();
    let send_time = marks[1].at.since(marks[0].at);
    // 1 MiB at 100 Gb/s ≈ 84 µs minimum; a non-blocking (eager) return
    // would be sub-µs.
    assert!(
        send_time > SimDuration::from_us(50),
        "send returned early: {send_time}"
    );
}

#[test]
fn put_and_fence() {
    let mut eng = engine(System::Tiny);
    let job = Job::new(vec![NodeId(0), NodeId(15)]);
    let s0 = Script::from_ops(vec![
        MpiOp::Put {
            dst: 1,
            bytes: 128 << 10,
        },
        MpiOp::Put {
            dst: 1,
            bytes: 128 << 10,
        },
        MpiOp::Fence,
        MpiOp::Mark(0),
    ]);
    let s1 = Script::from_ops(vec![MpiOp::Compute(SimDuration::from_us(1))]);
    let id = eng.add_job(job, vec![s0, s1], 0, SimTime::ZERO);
    eng.run_to_completion(10_000_000)
        .expect("completes within budget");
    assert!(eng.job_finished_at(id).is_some());
    // The fence waited for ~256 KiB at 100 Gb/s ≈ 21 µs.
    let fence_done = eng.marks()[0].at;
    assert!(fence_done > SimTime::from_us(15), "fence at {fence_done}");
}

#[test]
fn compute_phases_advance_time_without_traffic() {
    let mut eng = engine(System::Tiny);
    let job = Job::new(vec![NodeId(0)]);
    let s = Script::from_ops(vec![MpiOp::Compute(SimDuration::from_ms(2))]);
    let id = eng.add_job(job, vec![s], 0, SimTime::ZERO);
    eng.run_to_completion(1_000)
        .expect("completes within budget");
    assert_eq!(eng.job_duration(id).unwrap(), SimDuration::from_ms(2));
    assert_eq!(eng.network().stats().messages_delivered, 0);
}

#[test]
fn background_job_loops_while_foreground_completes() {
    let mut eng = engine(System::Tiny);
    // Background: node 2 puts to node 3 forever.
    let bg = Script::from_ops(vec![
        MpiOp::Put {
            dst: 1,
            bytes: 64 << 10,
        },
        MpiOp::Fence,
    ])
    .repeat_forever();
    let idle = Script::from_ops(vec![MpiOp::Compute(SimDuration::from_ns(1))]).repeat_forever();
    let bg_id = eng.add_job(
        Job::new(vec![NodeId(2), NodeId(3)]),
        vec![bg, idle],
        0,
        SimTime::ZERO,
    );
    // Foreground: a barrier among 4 other nodes.
    let fg_nodes: Vec<NodeId> = vec![NodeId(4), NodeId(5), NodeId(8), NodeId(9)];
    let fg_id = eng.add_job(
        Job::new(fg_nodes),
        scripts_from(coll::barrier(4, 0)),
        0,
        SimTime::from_us(50),
    );
    eng.run_to_completion(10_000_000)
        .expect("completes within budget");
    assert!(eng.job_finished_at(fg_id).is_some());
    assert!(eng.job_finished_at(bg_id).is_none());
    assert!(eng.rank_passes(bg_id, 0) > 0, "background never looped");
}

#[test]
fn iteration_durations_from_marks() {
    let mut eng = engine(System::Tiny);
    let job = Job::new(vec![NodeId(0), NodeId(1)]);
    let mk = |marks: &[u32]| {
        let mut s = Script::new();
        for &m in marks {
            s.push(MpiOp::Mark(m));
            s.push(MpiOp::Compute(SimDuration::from_us(10)));
        }
        s
    };
    let id = eng.add_job(job, vec![mk(&[0, 1, 2]), mk(&[0, 1, 2])], 0, SimTime::ZERO);
    eng.run_to_completion(1_000)
        .expect("completes within budget");
    let iters = eng.iteration_durations(id);
    assert_eq!(iters.len(), 2);
    for d in iters {
        assert_eq!(d, SimDuration::from_us(10));
    }
    let starts: Vec<SimTime> = eng.iterations(id).iter().map(|&(t, _)| t).collect();
    assert_eq!(starts, [SimTime::ZERO, SimTime::from_us(10)]);
}

#[test]
fn ppn_ranks_share_nodes_via_loopback_and_nic() {
    let mut eng = engine(System::Tiny);
    // 2 nodes × 4 ranks: an 8-rank allreduce where most pairs are
    // node-local.
    let job = Job::with_ppn(vec![NodeId(0), NodeId(1)], 4);
    let id = eng.add_job(
        job,
        scripts_from(coll::allreduce(8, 1024, 0)),
        0,
        SimTime::ZERO,
    );
    eng.run_to_completion(10_000_000)
        .expect("completes within budget");
    assert!(eng.job_finished_at(id).is_some());
}

#[test]
fn staggered_start_times() {
    let mut eng = engine(System::Tiny);
    let early = eng.add_job(
        Job::new(vec![NodeId(0)]),
        vec![Script::from_ops(vec![MpiOp::Compute(
            SimDuration::from_us(1),
        )])],
        0,
        SimTime::ZERO,
    );
    let late = eng.add_job(
        Job::new(vec![NodeId(1)]),
        vec![Script::from_ops(vec![MpiOp::Compute(
            SimDuration::from_us(1),
        )])],
        0,
        SimTime::from_ms(1),
    );
    eng.run_to_completion(1_000)
        .expect("completes within budget");
    assert!(eng.job_finished_at(early).unwrap() < SimTime::from_us(10));
    assert!(eng.job_finished_at(late).unwrap() >= SimTime::from_ms(1));
}

#[test]
fn matching_deadlock_is_a_typed_error() {
    let mut eng = engine(System::Tiny);
    // A receive that nothing ever sends: the queue drains with the rank
    // still blocked, which must come back as a Deadlock value naming the
    // blocked rank, not a panic.
    let job = Job::new(vec![NodeId(0)]);
    let s = Script::from_ops(vec![MpiOp::Recv { src: 0, tag: 9 }]);
    eng.add_job(job, vec![s], 0, SimTime::ZERO);
    let err = eng
        .run_to_completion(1_000_000)
        .expect_err("unmatched receive deadlocks");
    let msg = format!("{err}");
    assert!(msg.contains("deadlock"), "{msg}");
    assert!(msg.contains("Recv"), "{msg}");
}

#[test]
fn under_budgeted_engine_run_stalls_with_report() {
    let mut eng = engine(System::Tiny);
    let job = Job::new(nodes(8));
    let id = eng.add_job(
        job,
        scripts_from(coll::alltoall(8, 1 << 20, 0)),
        0,
        SimTime::ZERO,
    );
    let err = eng
        .run_to_completion(200)
        .expect_err("200 events cannot finish an 8-rank 1 MiB alltoall");
    let report = err.stall_report().expect("stall carries a report");
    assert!(report.events_consumed > 200);
    assert!(eng.job_finished_at(id).is_none());
}
