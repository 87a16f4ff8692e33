//! The rank-program execution engine: runs per-rank scripts of multiple
//! concurrent jobs against the packet-level network.

use crate::job::{Job, Rank};
use crate::script::{MpiOp, Script};
use crate::stack::ProtocolStack;
use slingshot_des::{SimDuration, SimTime};
use slingshot_network::{MessageId, Network, Notification, SimError};
use std::collections::HashMap;

/// Identifier of a job registered with the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct JobId(pub u32);

/// Why a rank is not currently executing ops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Blocked {
    /// Ready to run (transient).
    None,
    /// Waiting for a wakeup (compute phase or software overhead).
    Timer,
    /// Waiting for a matching message.
    Recv { src: Rank, tag: u32 },
    /// Waiting for a message to be matched *and then* a rendezvous ack.
    RecvThenAck { src: Rank, tag: u32, msg: MessageId },
    /// Waiting for a specific rendezvous send to be acknowledged.
    SendAck { msg: MessageId },
    /// Waiting for all outstanding sends/puts to be acknowledged.
    Fence,
    /// Script completed.
    Done,
}

/// What kind of traffic a network message carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MsgKind {
    P2p,
    Put,
}

#[derive(Clone, Copy, Debug)]
struct MsgMeta {
    job: u32,
    src_rank: Rank,
    dst_rank: Rank,
    tag: u32,
    kind: MsgKind,
    acked: bool,
}

struct RankRt {
    pc: usize,
    blocked: Blocked,
    /// Set while the send-side software overhead of the op at `pc` has
    /// been paid but the op itself not yet executed.
    overhead_paid: bool,
    /// Unexpected-message queue: matched receives that arrived before the
    /// receive was posted, keyed by `(src, tag)`.
    unexpected: HashMap<(Rank, u32), u32>,
    /// Outstanding unacknowledged sends/puts (for `Fence`).
    unacked: u32,
    /// Completed passes of a looping script.
    passes: u64,
    finished_at: Option<SimTime>,
}

struct JobRt {
    job: Job,
    scripts: Vec<Script>,
    ranks: Vec<RankRt>,
    tc: usize,
    done_count: u32,
    started_at: SimTime,
    finished_at: Option<SimTime>,
    /// Jobs whose scripts all loop forever are "background" — they never
    /// finish and do not gate [`Engine::run_to_completion`].
    background: bool,
    /// When set, looping scripts finish at their next pass boundary.
    stop_requested: bool,
}

/// A timestamped [`MpiOp::Mark`] record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MarkRecord {
    /// The job.
    pub job: JobId,
    /// The rank that executed the mark.
    pub rank: Rank,
    /// The mark value.
    pub mark: u32,
    /// When it executed.
    pub at: SimTime,
}

/// Executes rank scripts for any number of concurrent jobs on a network.
pub struct Engine {
    net: Network,
    stack: ProtocolStack,
    jobs: Vec<JobRt>,
    msg_meta: Vec<MsgMeta>,
    marks: Vec<MarkRecord>,
}

impl Engine {
    /// New engine over `net` using `stack` software overheads.
    pub fn new(net: Network, stack: ProtocolStack) -> Self {
        Engine {
            net,
            stack,
            jobs: Vec::new(),
            msg_meta: Vec::new(),
            marks: Vec::new(),
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Mutable access to the underlying network (timeline sampling etc.).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// The protocol stack in use.
    pub fn stack(&self) -> &ProtocolStack {
        &self.stack
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// Recorded marks, in execution order.
    pub fn marks(&self) -> &[MarkRecord] {
        &self.marks
    }

    /// Register a job: one script per rank, starting at `start_at`, with
    /// all messages in traffic class `tc`.
    pub fn add_job(
        &mut self,
        job: Job,
        scripts: Vec<Script>,
        tc: usize,
        start_at: SimTime,
    ) -> JobId {
        assert_eq!(
            scripts.len() as u32,
            job.ranks(),
            "one script per rank required"
        );
        assert!(start_at >= self.net.now(), "job start in the past");
        let id = JobId(self.jobs.len() as u32);
        let background = !scripts.is_empty() && scripts.iter().all(|s| s.looping);
        let ranks = scripts
            .iter()
            .map(|_| RankRt {
                pc: 0,
                blocked: Blocked::Timer, // waiting for the start wakeup
                overhead_paid: false,
                unexpected: HashMap::new(),
                unacked: 0,
                passes: 0,
                finished_at: None,
            })
            .collect();
        for r in 0..job.ranks() {
            self.net.schedule_wakeup(start_at, pack_token(id.0, r));
        }
        self.jobs.push(JobRt {
            job,
            scripts,
            ranks,
            tc,
            done_count: 0,
            started_at: start_at,
            finished_at: None,
            background,
            stop_requested: false,
        });
        id
    }

    /// Ask a looping (background) job to stop: each rank finishes its
    /// current pass and then completes. Ranks blocked on peers that have
    /// already stopped simply stay blocked (harmless for one-sided
    /// streaming patterns; two-sided looping patterns should be stopped
    /// only at quiescent points).
    pub fn request_stop(&mut self, id: JobId) {
        self.jobs[id.0 as usize].stop_requested = true;
    }

    /// When the job's last rank finished (None while running or for
    /// background jobs).
    pub fn job_finished_at(&self, id: JobId) -> Option<SimTime> {
        self.jobs[id.0 as usize].finished_at
    }

    /// Wall time of the job from start to last-rank completion.
    pub fn job_duration(&self, id: JobId) -> Option<SimDuration> {
        let j = &self.jobs[id.0 as usize];
        j.finished_at.map(|t| t.since(j.started_at))
    }

    /// Completed loop passes of `rank` in a background job.
    pub fn rank_passes(&self, id: JobId, rank: Rank) -> u64 {
        self.jobs[id.0 as usize].ranks[rank as usize].passes
    }

    fn all_foreground_done(&self) -> bool {
        self.jobs
            .iter()
            .filter(|j| !j.background)
            .all(|j| j.finished_at.is_some())
    }

    /// Run until every foreground (non-looping) job completes. A drained
    /// queue with unfinished ranks is a matching deadlock and comes back
    /// as [`SimError::Deadlock`]; exceeding `max_events` network events
    /// comes back as [`SimError::Stalled`] with the network's full
    /// [`slingshot_network::StallReport`] — in both cases the blocked-rank
    /// summary or the report says *where* the run wedged.
    pub fn run_to_completion(&mut self, max_events: u64) -> Result<SimTime, SimError> {
        let start_events = self.net.events_processed();
        while !self.all_foreground_done() {
            if !self.net.step() {
                return Err(SimError::Deadlock {
                    waiting: format!("{:?}", self.stuck_summary()),
                });
            }
            if let Some(err) = self.net.take_fatal() {
                return Err(err);
            }
            let consumed = self.net.events_processed() - start_events;
            if consumed > max_events {
                return Err(SimError::Stalled(Box::new(
                    self.net.stall_report(max_events, consumed),
                )));
            }
            self.drain_notifications();
        }
        Ok(self.net.now())
    }

    /// Run until simulated time `t`, servicing all jobs (used by timeline
    /// experiments with background congestors). Stops at the first fatal
    /// accounting error the network records and returns it; the error
    /// stays latched, so [`Network::take_fatal`] still reports it.
    pub fn run_until_time(&mut self, t: SimTime) -> Result<(), SimError> {
        loop {
            match self.net.next_event_time() {
                Some(next) if next <= t => {
                    self.net.step();
                    if let Some(err) = self.net.fatal() {
                        return Err(err.clone());
                    }
                    self.drain_notifications();
                }
                _ => return Ok(()),
            }
        }
    }

    fn drain_notifications(&mut self) {
        if !self.net.has_notifications() {
            return;
        }
        for n in self.net.take_notifications() {
            self.handle(n);
        }
    }

    fn stuck_summary(&self) -> Vec<(usize, Rank, Blocked, usize)> {
        let mut out = Vec::new();
        for (ji, j) in self.jobs.iter().enumerate() {
            for (ri, r) in j.ranks.iter().enumerate() {
                if r.blocked != Blocked::Done {
                    out.push((ji, ri as Rank, r.blocked, r.pc));
                    if out.len() >= 16 {
                        return out;
                    }
                }
            }
        }
        out
    }

    fn handle(&mut self, n: Notification) {
        match n {
            Notification::Wakeup { token, .. } => {
                let (job, rank) = unpack_token(token);
                debug_assert!(matches!(
                    self.jobs[job as usize].ranks[rank as usize].blocked,
                    Blocked::Timer | Blocked::Done
                ));
                if self.jobs[job as usize].ranks[rank as usize].blocked == Blocked::Timer {
                    self.advance(job, rank);
                }
            }
            Notification::Delivered { msg, .. } => {
                let meta = self.msg_meta[msg.0 as usize];
                if meta.kind != MsgKind::P2p {
                    return;
                }
                let blocked = self.jobs[meta.job as usize].ranks[meta.dst_rank as usize].blocked;
                match blocked {
                    Blocked::Recv { src, tag } if src == meta.src_rank && tag == meta.tag => {
                        self.finish_recv(meta.job, meta.dst_rank);
                    }
                    Blocked::RecvThenAck {
                        src,
                        tag,
                        msg: pending,
                    } if src == meta.src_rank && tag == meta.tag => {
                        if self.msg_meta[pending.0 as usize].acked {
                            self.finish_recv(meta.job, meta.dst_rank);
                        } else {
                            self.jobs[meta.job as usize].ranks[meta.dst_rank as usize].blocked =
                                Blocked::SendAck { msg: pending };
                        }
                    }
                    _ => {
                        *self.jobs[meta.job as usize].ranks[meta.dst_rank as usize]
                            .unexpected
                            .entry((meta.src_rank, meta.tag))
                            .or_insert(0) += 1;
                    }
                }
            }
            Notification::SendAcked { msg, .. } => {
                let meta = &mut self.msg_meta[msg.0 as usize];
                meta.acked = true;
                let (job, src_rank) = (meta.job, meta.src_rank);
                let (blocked, unacked) = {
                    let rt = &mut self.jobs[job as usize].ranks[src_rank as usize];
                    debug_assert!(rt.unacked > 0);
                    rt.unacked -= 1;
                    (rt.blocked, rt.unacked)
                };
                match blocked {
                    Blocked::SendAck { msg: m } if m == msg => self.advance(job, src_rank),
                    Blocked::Fence if unacked == 0 => self.advance(job, src_rank),
                    _ => {}
                }
            }
        }
    }

    /// A blocked receive just matched: pay the receive-side software cost,
    /// then resume.
    fn finish_recv(&mut self, job: u32, rank: Rank) {
        let cost = self.stack.recv_overhead; // per-byte copy charged at post time
        if cost == SimDuration::ZERO {
            self.advance(job, rank);
        } else {
            self.jobs[job as usize].ranks[rank as usize].blocked = Blocked::Timer;
            let t = self.net.now() + cost;
            self.net.schedule_wakeup(t, pack_token(job, rank));
        }
    }

    /// Send a message on behalf of a rank, recording its metadata.
    fn launch(
        &mut self,
        job: u32,
        src_rank: Rank,
        dst_rank: Rank,
        bytes: u64,
        tag: u32,
        kind: MsgKind,
    ) -> MessageId {
        let (src, dst, tc) = {
            let jr = &self.jobs[job as usize];
            (jr.job.node_of(src_rank), jr.job.node_of(dst_rank), jr.tc)
        };
        let msg = self.net.send(src, dst, bytes.max(1), tc, 0);
        debug_assert_eq!(
            msg.0 as usize,
            self.msg_meta.len(),
            "engine must be the sole sender"
        );
        self.msg_meta.push(MsgMeta {
            job,
            src_rank,
            dst_rank,
            tag,
            kind,
            acked: false,
        });
        self.jobs[job as usize].ranks[src_rank as usize].unacked += 1;
        msg
    }

    /// Execute ops for `(job, rank)` until it blocks or finishes.
    fn advance(&mut self, job: u32, rank: Rank) {
        self.jobs[job as usize].ranks[rank as usize].blocked = Blocked::None;
        loop {
            let op = {
                let jr = &mut self.jobs[job as usize];
                let rt = &mut jr.ranks[rank as usize];
                let script = &jr.scripts[rank as usize];
                match script.ops.get(rt.pc) {
                    Some(op) => *op,
                    None => {
                        if script.looping && !script.ops.is_empty() && !jr.stop_requested {
                            rt.pc = script.loop_start;
                            rt.passes += 1;
                            continue;
                        }
                        rt.blocked = Blocked::Done;
                        let now = self.net.now();
                        rt.finished_at = Some(now);
                        jr.done_count += 1;
                        if jr.done_count == jr.job.ranks() {
                            jr.finished_at = Some(now);
                        }
                        return;
                    }
                }
            };
            let now = self.net.now();
            // Send-side software path executes before bytes reach the
            // wire: pay it once per send-like op, then perform the send.
            if matches!(
                op,
                MpiOp::Send { .. } | MpiOp::Put { .. } | MpiOp::Sendrecv { .. }
            ) {
                let rt = &mut self.jobs[job as usize].ranks[rank as usize];
                if !rt.overhead_paid {
                    let bytes = match op {
                        MpiOp::Send { bytes, .. }
                        | MpiOp::Put { bytes, .. }
                        | MpiOp::Sendrecv { bytes, .. } => bytes,
                        _ => unreachable!(),
                    };
                    let cost = self.stack.send_cost(bytes);
                    if cost > SimDuration::ZERO {
                        rt.overhead_paid = true;
                        rt.blocked = Blocked::Timer;
                        self.net.schedule_wakeup(now + cost, pack_token(job, rank));
                        return;
                    }
                }
                self.jobs[job as usize].ranks[rank as usize].overhead_paid = false;
            }
            match op {
                MpiOp::Compute(d) => {
                    let rt = &mut self.jobs[job as usize].ranks[rank as usize];
                    rt.pc += 1;
                    rt.blocked = Blocked::Timer;
                    self.net.schedule_wakeup(now + d, pack_token(job, rank));
                    return;
                }
                MpiOp::Mark(m) => {
                    self.marks.push(MarkRecord {
                        job: JobId(job),
                        rank,
                        mark: m,
                        at: now,
                    });
                    self.jobs[job as usize].ranks[rank as usize].pc += 1;
                }
                MpiOp::Send { dst, bytes, tag } => {
                    let msg = self.launch(job, rank, dst, bytes, tag, MsgKind::P2p);
                    let rt = &mut self.jobs[job as usize].ranks[rank as usize];
                    rt.pc += 1;
                    if self.stack.is_rendezvous(bytes) {
                        rt.blocked = Blocked::SendAck { msg };
                        return;
                    }
                }
                MpiOp::Put { dst, bytes } => {
                    let _ = self.launch(job, rank, dst, bytes, u32::MAX, MsgKind::Put);
                    self.jobs[job as usize].ranks[rank as usize].pc += 1;
                }
                MpiOp::Recv { src, tag } => {
                    let rt = &mut self.jobs[job as usize].ranks[rank as usize];
                    rt.pc += 1;
                    if consume_unexpected(rt, src, tag) {
                        self.finish_recv(job, rank);
                        return;
                    }
                    rt.blocked = Blocked::Recv { src, tag };
                    return;
                }
                MpiOp::Sendrecv {
                    dst,
                    src,
                    bytes,
                    tag,
                } => {
                    let msg = self.launch(job, rank, dst, bytes, tag, MsgKind::P2p);
                    let rendezvous = self.stack.is_rendezvous(bytes);
                    let rt = &mut self.jobs[job as usize].ranks[rank as usize];
                    rt.pc += 1;
                    if consume_unexpected(rt, src, tag) {
                        if rendezvous && !self.msg_meta[msg.0 as usize].acked {
                            rt.blocked = Blocked::SendAck { msg };
                            return;
                        }
                        self.finish_recv(job, rank);
                        return;
                    }
                    rt.blocked = if rendezvous {
                        Blocked::RecvThenAck { src, tag, msg }
                    } else {
                        Blocked::Recv { src, tag }
                    };
                    return;
                }
                MpiOp::Fence => {
                    let rt = &mut self.jobs[job as usize].ranks[rank as usize];
                    rt.pc += 1;
                    if rt.unacked > 0 {
                        rt.blocked = Blocked::Fence;
                        return;
                    }
                }
            }
        }
    }

    /// Per-iteration durations of a job whose script brackets iterations
    /// with increasing `Mark` values: iteration `k` spans marks `k → k+1`;
    /// its duration is the maximum over ranks (the paper's convention).
    pub fn iteration_durations(&self, id: JobId) -> Vec<SimDuration> {
        let mut per_rank: HashMap<Rank, Vec<SimTime>> = HashMap::new();
        for m in &self.marks {
            if m.job == id {
                per_rank.entry(m.rank).or_default().push(m.at);
            }
        }
        if per_rank.is_empty() {
            return Vec::new();
        }
        let iters = per_rank.values().map(|v| v.len()).min().unwrap_or(0);
        let mut out = Vec::new();
        for k in 0..iters.saturating_sub(1) {
            let max_dur = per_rank
                .values()
                .map(|v| v[k + 1].since(v[k]))
                .max()
                .unwrap_or(SimDuration::ZERO);
            out.push(max_dur);
        }
        out
    }
}

fn consume_unexpected(rt: &mut RankRt, src: Rank, tag: u32) -> bool {
    if let Some(c) = rt.unexpected.get_mut(&(src, tag)) {
        if *c > 0 {
            *c -= 1;
            if *c == 0 {
                rt.unexpected.remove(&(src, tag));
            }
            return true;
        }
    }
    false
}

#[inline]
fn pack_token(job: u32, rank: Rank) -> u64 {
    ((job as u64) << 32) | rank as u64
}

#[inline]
fn unpack_token(token: u64) -> (u32, Rank) {
    ((token >> 32) as u32, token as u32)
}
