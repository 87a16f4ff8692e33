//! One simulation of a figure (paper §III-A): jobs placed on a network,
//! run until the measured job completes or a time horizon passes, and the
//! measured job's iterations read back.
//!
//! Every figure that drives an MPI [`Engine`] describes its simulation as
//! a [`Run`] and hands it to [`execute`]; Fig. 14, which samples the
//! network while it runs, builds its engine with [`Run::into_engine`].
//! Fig. 2 and the resilience sweep drive a raw `Network` and stay
//! outside.

use slingshot::{NetworkConfig, TelemetryConfig, TelemetryReport};
use slingshot_des::{SimDuration, SimTime};
use slingshot_mpi::{Engine, Job, JobId, ProtocolStack, Script};
use slingshot_network::{Network, SimError};

/// When a [`Run`] stops.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// Once every non-looping job has finished; more than `budget`
    /// network events is a stall.
    Completion {
        /// Network-event budget.
        budget: u64,
    },
    /// At this simulated time (timelines of looping jobs).
    Horizon(SimTime),
}

/// A figure's simulation: the network, the jobs, which job is measured and
/// when to stop.
pub struct Run {
    /// The network, with taper, classes, CC and routing already set.
    net: NetworkConfig,
    /// Software overheads of every job.
    stack: ProtocolStack,
    /// Jobs with their scripts, traffic class and start, in
    /// [`Engine::add_job`] order.
    jobs: Vec<(Job, Vec<Script>, usize, SimTime)>,
    /// Index into `jobs` of the job read back.
    measured: usize,
    /// Stop rule.
    stop: Stop,
}

/// What [`execute`] reads back from a [`Run`].
pub struct Measured {
    /// The measured job's `(start, duration)` iterations
    /// ([`Engine::iterations`]).
    pub iterations: Vec<(SimTime, SimDuration)>,
    /// The measured job's start-to-finish time, if it finished.
    pub job_duration: Option<SimDuration>,
    /// The telemetry report, when [`execute`] was given a configuration.
    pub telemetry: Option<TelemetryReport>,
}

impl Run {
    /// A run with no jobs yet. The first job added is the measured one,
    /// unless a later one is added with [`Run::add_measured_job`].
    pub fn new(net: NetworkConfig, stack: ProtocolStack, stop: Stop) -> Self {
        Run {
            net,
            stack,
            jobs: Vec::new(),
            measured: 0,
            stop,
        }
    }

    /// Append a job as [`Engine::add_job`] takes it.
    pub fn add_job(&mut self, job: Job, scripts: Vec<Script>, tc: usize, start: SimTime) {
        self.jobs.push((job, scripts, tc, start));
    }

    /// Append the job that [`execute`] reads back.
    pub fn add_measured_job(&mut self, job: Job, scripts: Vec<Script>, tc: usize, start: SimTime) {
        self.measured = self.jobs.len();
        self.add_job(job, scripts, tc, start);
    }

    /// The engine with every job added, and the measured job's id. With
    /// `telemetry`, the network records it, sampling under the run's seed.
    pub fn into_engine(mut self, telemetry: Option<TelemetryConfig>) -> (Engine, JobId) {
        self.net.telemetry = telemetry;
        let mut eng = Engine::new(Network::new(self.net), self.stack);
        let ids: Vec<JobId> = self
            .jobs
            .into_iter()
            .map(|(job, scripts, tc, start)| eng.add_job(job, scripts, tc, start))
            .collect();
        (eng, ids[self.measured])
    }
}

/// Simulate `run` until its stop rule and read back the measured job, or
/// the typed simulation error (stall, deadlock, accounting fault).
pub fn execute(run: Run, telemetry: Option<TelemetryConfig>) -> Result<Measured, SimError> {
    let stop = run.stop;
    let (mut eng, id) = run.into_engine(telemetry);
    match stop {
        Stop::Completion { budget } => eng.run_to_completion(budget).map(drop)?,
        Stop::Horizon(t) => eng.run_until_time(t)?,
    }
    Ok(Measured {
        iterations: eng.iterations(id),
        job_duration: eng.job_duration(id),
        telemetry: eng.network_mut().take_telemetry_report(),
    })
}
