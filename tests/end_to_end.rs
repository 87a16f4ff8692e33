//! Cross-crate end-to-end tests: the full pipeline from topology through
//! network, MPI engine, workloads and the experiment harness.

use slingshot::{Profile, System, SystemBuilder};
use slingshot_des::{SimDuration, SimTime};
use slingshot_experiments::{machine_for, run_pair, Cell, Victim};
use slingshot_mpi::{coll, Engine, Job, ProtocolStack, Script};
use slingshot_topology::{AllocationPolicy, NodeId};
use slingshot_workloads::{Congestor, HpcApp, Microbench, TailApp};

#[test]
fn headline_result_incast_isolation() {
    // The paper's central claim, end to end: the same victim/aggressor
    // scenario collapses on Aries and stays protected on Slingshot.
    let victim = Victim::Micro(Microbench::Allreduce, 8);
    let cell = |profile| Cell {
        profile,
        nodes: 32,
        victim_nodes: 16,
        policy: AllocationPolicy::Interleaved,
        aggressor: Some(Congestor::Incast),
        aggressor_ppn: 1,
        seed: 3,
        cc: None,
        routing: None,
    };
    let aries = run_pair(&cell(Profile::Aries), victim, 4, 500_000_000);
    let slingshot = run_pair(&cell(Profile::Slingshot), victim, 4, 500_000_000);
    assert!(aries > 2.0, "aries {aries:.2}");
    assert!(slingshot < 2.0, "slingshot {slingshot:.2}");
    assert!(aries / slingshot > 2.0);
}

#[test]
fn ecn_ablation_sits_between_none_and_slingshot() {
    // The ECN-style slow loop helps over no CC at all, but reacts too
    // slowly to match the per-pair hardware loop (§II-D's argument).
    let victim = Victim::Micro(Microbench::Pingpong, 8);
    let mk = |profile| Cell {
        profile,
        nodes: 32,
        victim_nodes: 16,
        policy: AllocationPolicy::Interleaved,
        aggressor: Some(Congestor::Incast),
        aggressor_ppn: 1,
        seed: 5,
        cc: None,
        routing: None,
    };
    let none = run_pair(&mk(Profile::Aries), victim, 4, 500_000_000);
    let ecn = run_pair(&mk(Profile::SlingshotEcn), victim, 4, 500_000_000);
    let ss = run_pair(&mk(Profile::Slingshot), victim, 4, 500_000_000);
    assert!(
        ss <= ecn * 1.1,
        "slingshot ({ss:.2}) should beat or match ECN ({ecn:.2})"
    );
    assert!(
        ecn < none,
        "ECN ({ecn:.2}) should improve on no CC ({none:.2})"
    );
}

#[test]
fn every_hpc_app_runs_on_the_simulator() {
    for app in HpcApp::ALL {
        let n = 8;
        let net = SystemBuilder::new(System::Custom(machine_for(32)), Profile::Slingshot)
            .seed(1)
            .build();
        let mut eng = Engine::new(net, ProtocolStack::mpi());
        let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
        let id = eng.add_job(Job::new(nodes), app.scripts(n, 2), 0, SimTime::ZERO);
        eng.run_to_completion(200_000_000)
            .expect("completes within budget");
        let dur = eng.job_duration(id).unwrap();
        assert!(
            dur > SimDuration::from_us(100),
            "{}: implausibly fast {dur}",
            app.label()
        );
        assert!(
            dur < SimDuration::from_ms(100),
            "{}: implausibly slow {dur}",
            app.label()
        );
    }
}

#[test]
fn every_tail_app_round_trips() {
    for app in TailApp::ALL {
        let net = SystemBuilder::new(System::Tiny, Profile::Slingshot).build();
        let mut eng = Engine::new(net, ProtocolStack::mpi());
        let scale = if app == TailApp::Sphinx { 0.001 } else { 1.0 };
        let (c, s) = app.scripts_scaled(3, 1, scale);
        let id = eng.add_job(
            Job::new(vec![NodeId(0), NodeId(12)]),
            vec![c, s],
            0,
            SimTime::ZERO,
        );
        eng.run_to_completion(100_000_000)
            .expect("completes within budget");
        assert_eq!(eng.iteration_durations(id).len(), 3, "{}", app.label());
    }
}

#[test]
fn deterministic_across_full_stack() {
    let run = || {
        let net = SystemBuilder::new(System::Custom(machine_for(32)), Profile::Slingshot)
            .seed(99)
            .build();
        let mut eng = Engine::new(net, ProtocolStack::mpi());
        let nodes: Vec<NodeId> = (0..16).map(NodeId).collect();
        let scripts: Vec<Script> = coll::alltoall(16, 2048, 0)
            .into_iter()
            .map(Script::from_ops)
            .collect();
        let id = eng.add_job(Job::new(nodes), scripts, 0, SimTime::ZERO);
        eng.run_to_completion(100_000_000)
            .expect("completes within budget");
        (
            eng.job_finished_at(id).unwrap(),
            eng.network().events_processed(),
            eng.network().stats().packets_delivered,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn collectives_complete_on_aries_too() {
    // The baseline network must be a fully functional network, not a straw
    // man: collectives complete, just with different performance.
    let net = SystemBuilder::new(System::Custom(machine_for(32)), Profile::Aries)
        .seed(2)
        .build();
    let mut eng = Engine::new(net, ProtocolStack::mpi());
    let nodes: Vec<NodeId> = (0..32).map(NodeId).collect();
    let scripts: Vec<Script> = coll::allreduce(32, 1 << 20, 0)
        .into_iter()
        .map(Script::from_ops)
        .collect();
    let id = eng.add_job(Job::new(nodes), scripts, 0, SimTime::ZERO);
    eng.run_to_completion(500_000_000)
        .expect("completes within budget");
    assert!(eng.job_finished_at(id).is_some());
}

#[test]
fn slingshot_beats_aries_on_quiet_latency_too() {
    // Even without congestion, Rosetta's lower per-hop latency and faster
    // links show up.
    let measure = |profile| {
        let net = SystemBuilder::new(System::Custom(machine_for(32)), profile)
            .seed(4)
            .build();
        let mut eng = Engine::new(net, ProtocolStack::mpi());
        let scripts = Microbench::Pingpong.scripts(2, 8, 10);
        let id = eng.add_job(
            Job::new(vec![NodeId(0), NodeId(31)]),
            scripts,
            0,
            SimTime::ZERO,
        );
        eng.run_to_completion(10_000_000)
            .expect("completes within budget");
        let iters = eng.iteration_durations(id);
        iters.iter().map(|d| d.as_ns_f64()).sum::<f64>() / iters.len() as f64
    };
    let ss = measure(Profile::Slingshot);
    let aries = measure(Profile::Aries);
    assert!(ss < aries, "slingshot {ss:.0} ns !< aries {aries:.0} ns");
}
