//! Thread-backed SPMD runtime.
//!
//! [`run_spmd`] launches one OS thread per rank. Ranks exchange
//! [`Message`]s through one mailbox table shared by the whole run:
//! `mailboxes[r]` is rank r's unbounded inbox, a mutex-guarded FIFO plus
//! a condvar that a sender signals only while its owner is waiting.
//! Every send appends under the lock, so messages from one source arrive
//! in send order — the MPI non-overtaking guarantee — and a receive
//! selects by `(source, tag)`, buffering the rest. Oversubscription is
//! fine: on the single-core build host 64 ranks simply time-slice, and
//! because all *reported* times come from the deterministic virtual
//! clock, results are identical to a run on a 64-core machine.
//!
//! Every run carries a [`FaultPlan`] in each rank's communicator:
//! [`run_spmd_ft`] takes one, activating deterministic message
//! drops/delays (answered by a modelled ack/retransmit layer), scheduled
//! rank crashes at step boundaries, and the poison-based failure
//! detection consumed by [`crate::checkpoint::Supervisor`]. [`run_spmd`]
//! and [`run_spmd_traced`] pass the empty plan, which drops, delays and
//! crashes nothing, so their sends take the plain path and every
//! fault check answers "no".

use std::collections::HashMap;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::comm::Communicator;
use crate::error::ClusterError;
use crate::fault::{FaultPlan, InjectedCrash};
use crate::machine::Machine;
use crate::message::{Message, Tag, POISON_TAG};
use crate::stats::{CommStats, SpmdResult, TimeModel};
use crate::trace::TraceEvent;

/// One rank's inbox in the run's mailbox table.
#[derive(Default)]
struct Mailbox {
    slot: Mutex<Slot>,
    /// Signalled by a sender when the owner waits on an empty queue.
    arrived: Condvar,
}

/// The lock-guarded state of a [`Mailbox`].
#[derive(Default)]
struct Slot {
    /// Arrived messages, oldest first.
    queue: VecDeque<Message>,
    /// The owner sleeps on `arrived`; the next sender must signal it.
    waiting: bool,
    /// The owner has finished: sends are refused, as to a gone inbox.
    closed: bool,
}

impl Mailbox {
    /// The slot, whatever a panicking holder left behind: every update
    /// under the lock is a single queue or flag write, so it is always
    /// consistent.
    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append `msg`, waking the owner if it waits. Hands the message
    /// back when the owner has finished.
    fn post(&self, msg: Message) -> Result<(), Message> {
        let mut slot = self.lock();
        if slot.closed {
            return Err(msg);
        }
        slot.queue.push_back(msg);
        let wake = std::mem::take(&mut slot.waiting);
        drop(slot);
        if wake {
            self.arrived.notify_one();
        }
        Ok(())
    }

    /// The oldest message, waiting up to `deadline` for one to arrive;
    /// `None` if none arrives in time.
    fn take(&self, deadline: Duration) -> Option<Message> {
        let mut slot = self.lock();
        if let Some(msg) = slot.queue.pop_front() {
            return Some(msg);
        }
        let until = Instant::now().checked_add(deadline);
        loop {
            // A deadline past the clock's range never expires.
            let left = until.map_or(deadline, |u| u.saturating_duration_since(Instant::now()));
            if left.is_zero() {
                return None;
            }
            slot.waiting = true;
            slot = self
                .arrived
                .wait_timeout(slot, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            slot.waiting = false;
            if let Some(msg) = slot.queue.pop_front() {
                return Some(msg);
            }
        }
    }

    /// Refuse further messages and drop the queued ones.
    fn close(&self) {
        let mut slot = self.lock();
        slot.closed = true;
        slot.queue.clear();
    }
}

/// Per-rank fault-injection state: the shared plan plus the counters
/// and observations that drive deterministic replay.
struct FaultState {
    plan: Arc<FaultPlan>,
    /// Per-destination message sequence numbers (inputs to the plan's
    /// drop/delay coins, so the fault stream is order-deterministic).
    send_seq: Vec<u64>,
    /// Death clock of each rank whose poison marker we have consumed,
    /// for ranks with a *scheduled* crash. Unscheduled poison keeps the
    /// fail-fast cascade semantics of plain runs.
    observed_dead: Vec<Option<f64>>,
}

/// Per-rank communicator handle (see [`Communicator`] for semantics).
pub struct ThreadComm {
    rank: usize,
    size: usize,
    machine: Machine,
    clock: f64,
    stats: CommStats,
    /// The run's mailbox table; `mailboxes[d]` is rank d's inbox.
    mailboxes: Arc<[Mailbox]>,
    /// Out-of-order arrivals, keyed by envelope, FIFO within a key.
    pending: HashMap<(usize, Tag), VecDeque<Message>>,
    /// Virtual-time event log, when tracing is enabled.
    trace: Option<Vec<TraceEvent>>,
    /// Fault-injection state (inert under an empty plan).
    fault: FaultState,
}

impl ThreadComm {
    fn new(
        rank: usize,
        size: usize,
        machine: Machine,
        mailboxes: Arc<[Mailbox]>,
        plan: Arc<FaultPlan>,
    ) -> Self {
        ThreadComm {
            rank,
            size,
            machine,
            clock: 0.0,
            stats: CommStats::default(),
            mailboxes,
            pending: HashMap::new(),
            trace: None,
            fault: FaultState {
                plan,
                send_seq: vec![0; size],
                observed_dead: vec![None; size],
            },
        }
    }

    /// Enable event tracing for this rank.
    fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// The run's fault plan (empty unless the run is fault-injected).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault.plan
    }

    fn handle_poison(&self, msg: &Message) -> ! {
        panic!(
            "rank {}: peer rank {} failed, aborting SPMD section",
            self.rank, msg.src
        );
    }

    /// The next message in this rank's inbox, in arrival order; a wait
    /// longer than the machine's receive deadline fails the receive of
    /// `(src, tag)` with [`ClusterError::DeadlineExceeded`].
    fn next_message(&self, src: usize, tag: Tag) -> Message {
        let deadline = Duration::from_secs_f64(self.machine.recv_deadline);
        match self.mailboxes[self.rank].take(deadline) {
            Some(msg) => msg,
            None => self.deadline_panic(src, tag),
        }
    }

    fn deadline_panic(&self, src: usize, tag: Tag) -> ! {
        std::panic::panic_any(ClusterError::DeadlineExceeded {
            rank: self.rank,
            src,
            tag,
            waited_ms: (self.machine.recv_deadline * 1e3) as u64,
        });
    }

    /// Take the oldest buffered message matching the envelope, if any.
    fn take_pending(&mut self, src: usize, tag: Tag) -> Option<Message> {
        let queue = self.pending.get_mut(&(src, tag))?;
        let msg = queue.pop_front();
        if queue.is_empty() {
            self.pending.remove(&(src, tag));
        }
        msg
    }

    /// Advance the clock to `t` (no-op if already past), booking the
    /// difference as blocked-waiting on `src`.
    fn advance_wait_to(&mut self, t: f64, src: usize) {
        if t > self.clock {
            self.stats.wait_time += t - self.clock;
            if let Some(tr) = &mut self.trace {
                tr.push(TraceEvent::Wait {
                    start: self.clock,
                    end: t,
                    src,
                });
            }
            self.clock = t;
        }
    }

    /// Record a consumed poison marker. Returns true when the source
    /// has a *scheduled* crash (death absorbed, caller continues);
    /// false means an unscheduled failure (caller must cascade).
    fn note_poison(&mut self, msg: &Message) -> bool {
        let fs = &mut self.fault;
        if fs.plan.crash_step(msg.src).is_none() {
            return false;
        }
        // Keep the earliest death clock; a rank dies once.
        if fs.observed_dead[msg.src].is_none() {
            fs.observed_dead[msg.src] = Some(msg.sent_at);
        }
        true
    }

    /// Inject this rank's scheduled crash if the plan says to die at
    /// `step`. Drivers call this at every step boundary; it is the
    /// *only* place crashes fire, which is what keeps recovery free of
    /// in-flight user messages.
    pub fn fault_step(&self, step: usize) {
        if self.fault.plan.crash_step(self.rank) == Some(step) {
            std::panic::panic_any(InjectedCrash {
                rank: self.rank,
                step,
            });
        }
    }

    /// Fault-aware receive: like [`Communicator::recv`] but a poison
    /// marker from a rank with a scheduled crash resolves to
    /// `Err(dead_rank)` (after advancing the clock to the death time)
    /// instead of panicking. Poison from unscheduled failures still
    /// cascades, and the deadline still applies.
    pub fn recv_ft(&mut self, src: usize, tag: Tag) -> Result<Vec<f64>, usize> {
        assert!(src < self.size, "recv from rank {src} of {}", self.size);
        if let Some(t) = self.fault.observed_dead[src] {
            self.advance_wait_to(t, src);
            return Err(src);
        }
        let msg = if let Some(m) = self.take_pending(src, tag) {
            m
        } else {
            loop {
                let m = self.next_message(src, tag);
                if m.poison {
                    if !self.note_poison(&m) {
                        self.handle_poison(&m);
                    }
                    if m.src == src {
                        self.advance_wait_to(m.sent_at, src);
                        return Err(src);
                    }
                } else if m.src == src && m.tag == tag {
                    break m;
                } else {
                    self.pending.entry((m.src, m.tag)).or_default().push_back(m);
                }
            }
        };
        self.advance_wait_to(msg.sent_at, src);
        Ok(msg.data.into_vec())
    }

    /// Reliable delivery under an active chaos plan: each transmission
    /// attempt pays the full modelled message cost, a dropped attempt
    /// backs off `rto·2^attempt` and retransmits, and a delivered
    /// attempt waits one modelled ack (an empty return message). All
    /// costs are virtual time; the decision stream is the plan's, so
    /// the whole exchange replays deterministically.
    fn reliable_send(&mut self, dest: usize, tag: Tag, data: &[f64]) {
        let fs = &mut self.fault;
        let plan = Arc::clone(&fs.plan);
        let seq = fs.send_seq[dest];
        fs.send_seq[dest] += 1;
        let bytes = Message::wire_bytes(data.len());
        let cost = self.machine.message_time_between(self.rank, dest, bytes);
        let ack_cost = self
            .machine
            .message_time_between(dest, self.rank, Message::wire_bytes(0));
        let mut attempt = 0u32;
        loop {
            let start = self.clock;
            self.clock += cost;
            self.stats.send_time += cost;
            self.stats.msgs_sent += 1;
            self.stats.bytes_sent += bytes as u64;
            if let Some(tr) = &mut self.trace {
                tr.push(TraceEvent::Send {
                    start,
                    end: self.clock,
                    dest,
                    bytes,
                });
            }
            if attempt > 0 {
                self.stats.retransmits += 1;
            }
            if self.machine.is_far(self.rank, dest) {
                self.stats.far_msgs += 1;
                self.stats.far_bytes += bytes as u64;
            }
            if !plan.drops(self.rank, dest, seq, attempt) {
                // Delivered: pay for the ack round-trip, then inject.
                self.clock += ack_cost;
                self.stats.wait_time += ack_cost;
                self.stats.ack_msgs += 1;
                let msg = Message {
                    src: self.rank,
                    tag,
                    data: data.into(),
                    sent_at: self.clock + plan.delay(self.rank, dest, seq),
                    poison: false,
                };
                self.post(dest, msg);
                return;
            }
            // Dropped on the wire: count it, back off, retransmit.
            self.stats.dropped_msgs += 1;
            if let Some(tr) = &mut self.trace {
                tr.push(TraceEvent::Drop {
                    at: self.clock,
                    dest,
                });
            }
            let backoff = plan.rto * (1u64 << attempt.min(32)) as f64;
            self.clock += backoff;
            self.stats.backoff_time += backoff;
            attempt += 1;
            if attempt > plan.max_retries {
                panic!(
                    "rank {}: delivery to rank {dest} (tag {tag}) failed after {} retries",
                    self.rank, plan.max_retries
                );
            }
        }
    }

    /// Charge `seconds` of checkpoint-write time to this rank's clock
    /// (used by [`crate::checkpoint`]).
    pub(crate) fn charge_checkpoint(&mut self, seconds: f64) {
        self.clock += seconds;
        self.stats.ckpt_time += seconds;
    }

    /// Post `msg` to `dest`'s mailbox, accounting for a finished rank.
    /// A send to a rank with a *scheduled* crash is never counted as
    /// dropped — whether its thread has really exited yet is a host
    /// scheduling accident, and the fault layer accounts for its death
    /// separately; counting it would make `dropped_msgs` racy.
    fn post(&mut self, dest: usize, msg: Message) {
        if self.mailboxes[dest].post(msg).is_err() && self.fault.plan.crash_step(dest).is_none() {
            self.stats.dropped_msgs += 1;
            if let Some(tr) = &mut self.trace {
                tr.push(TraceEvent::Drop {
                    at: self.clock,
                    dest,
                });
            }
        }
    }
}

impl Drop for ThreadComm {
    /// A finished rank's inbox is gone: later sends to it are refused
    /// (and counted as dropped) and its unread messages are freed.
    fn drop(&mut self) {
        self.mailboxes[self.rank].close();
    }
}

impl Communicator for ThreadComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn machine(&self) -> &Machine {
        &self.machine
    }

    fn link_stall(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0);
        if seconds > 0.0 {
            self.clock += seconds;
            self.stats.wait_time += seconds;
            self.stats.link_stall_time += seconds;
        }
    }

    fn send(&mut self, dest: usize, tag: Tag, data: &[f64]) {
        assert!(dest < self.size, "send to rank {dest} of {}", self.size);
        if self.fault.plan.has_chaos() {
            return self.reliable_send(dest, tag, data);
        }
        let bytes = Message::wire_bytes(data.len());
        let cost = self.machine.message_time_between(self.rank, dest, bytes);
        let start = self.clock;
        self.clock += cost;
        self.stats.send_time += cost;
        if let Some(tr) = &mut self.trace {
            tr.push(TraceEvent::Send {
                start,
                end: self.clock,
                dest,
                bytes,
            });
        }
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += bytes as u64;
        if self.machine.is_far(self.rank, dest) {
            self.stats.far_msgs += 1;
            self.stats.far_bytes += bytes as u64;
        }
        let msg = Message {
            src: self.rank,
            tag,
            data: data.into(),
            sent_at: self.clock,
            poison: false,
        };
        // Unbounded mailbox: never blocks; a send to a finished rank is
        // counted as dropped (and traced) rather than vanishing silently.
        self.post(dest, msg);
    }

    fn recv(&mut self, src: usize, tag: Tag) -> Vec<f64> {
        assert!(src < self.size, "recv from rank {src} of {}", self.size);
        let msg = if let Some(m) = self.take_pending(src, tag) {
            m
        } else {
            loop {
                let m = self.next_message(src, tag);
                if m.poison {
                    // A scheduled death is merely recorded (the recovery
                    // protocol acts on it at the next boundary, at a
                    // deterministic virtual time); an unscheduled one
                    // cascades as before.
                    if !self.note_poison(&m) {
                        self.handle_poison(&m);
                    }
                } else if m.src == src && m.tag == tag {
                    break m;
                } else {
                    self.pending.entry((m.src, m.tag)).or_default().push_back(m);
                }
            }
        };
        // Clock: arrival cannot precede the modelled delivery time.
        self.advance_wait_to(msg.sent_at, src);
        msg.data.into_vec()
    }

    fn compute(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0, "negative compute time");
        let start = self.clock;
        self.clock += seconds;
        self.stats.compute_time += seconds;
        if let Some(tr) = &mut self.trace {
            // Coalesce back-to-back compute so traces stay compact.
            if let Some(TraceEvent::Compute { end, .. }) = tr.last_mut() {
                if (*end - start).abs() < 1e-15 {
                    *end = self.clock;
                    return;
                }
            }
            tr.push(TraceEvent::Compute {
                start,
                end: self.clock,
            });
        }
    }

    fn now(&self) -> f64 {
        self.clock
    }

    fn stats(&self) -> CommStats {
        self.stats
    }
}

/// What became of a crashed rank, recovered from its communicator
/// after the injected panic was caught.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashInfo {
    /// The rank that crashed.
    pub rank: usize,
    /// The step boundary at which it crashed.
    pub step: usize,
    /// Its virtual clock at death.
    pub time: f64,
    /// Its counters at death (absorbed into run totals via
    /// [`crate::TimeModel::absorb_crashed`]).
    pub stats: CommStats,
}

/// Outcome of a fault-tolerant SPMD run that had at least one survivor:
/// the survivors' results plus the vital statistics of every scheduled
/// crash that fired.
#[derive(Debug, Clone)]
pub struct FtRunOutcome<T> {
    /// Results of the ranks that ran to completion, ordered by rank.
    pub survivors: Vec<SpmdResult<T>>,
    /// Scheduled crashes that fired, ordered by rank.
    pub crashed: Vec<CrashInfo>,
}

impl<T> FtRunOutcome<T> {
    /// The run's aggregate time model, crashed ranks' clocks and
    /// counters included.
    pub fn time_model(&self) -> TimeModel {
        let mut time = TimeModel::from_results(&self.survivors);
        for c in &self.crashed {
            time.absorb_crashed(c.time, &c.stats);
        }
        time
    }

    /// The crashes that fired, as `(rank, boundary)` pairs.
    pub fn crash_sites(&self) -> Vec<(usize, usize)> {
        self.crashed.iter().map(|c| (c.rank, c.step)).collect()
    }
}

/// How one rank's execution ended, for the classification pass.
enum Failure {
    /// A genuine panic (assertion, bug, cascade poison).
    Panic { msg: String, cascade: bool },
    /// A `recv` deadline fired — the typed error to surface.
    Deadline(ClusterError),
    /// A crash scheduled by the fault plan (boxed: `CommStats` makes it
    /// the dominant variant size).
    Injected(Box<CrashInfo>),
}

/// Run `f` on `p` ranks under the given machine model and collect every
/// rank's result, virtual completion time and counters (ordered by rank):
/// [`run_spmd_ft`] under the empty plan, returning the survivors (every
/// rank, since nothing is injected).
///
/// If any rank panics, the panic is caught, poison is propagated so peers
/// blocked in `recv` unwind too, and the whole run returns
/// [`ClusterError::RanksFailed`] listing the *originally* failing ranks
/// (cascade victims are reported only if no originator is identifiable).
/// A rank that exceeds its [`Machine::recv_deadline`] surfaces as
/// [`ClusterError::DeadlineExceeded`].
pub fn run_spmd<T, F>(p: usize, machine: Machine, f: F) -> Result<Vec<SpmdResult<T>>, ClusterError>
where
    T: Send,
    F: Fn(&mut ThreadComm) -> T + Sync,
{
    run_spmd_ft(p, machine, FaultPlan::new(0), f).map(|out| out.survivors)
}

/// Results plus per-rank event traces from a traced run.
pub type TracedRun<T> = (Vec<SpmdResult<T>>, Vec<Vec<TraceEvent>>);

/// [`run_spmd`] with per-rank virtual-time event traces
/// (see [`crate::trace`]) for timeline analysis.
pub fn run_spmd_traced<T, F>(p: usize, machine: Machine, f: F) -> Result<TracedRun<T>, ClusterError>
where
    T: Send,
    F: Fn(&mut ThreadComm) -> T + Sync,
{
    run_spmd_inner(p, machine, f, true, Arc::new(FaultPlan::new(0)))
        .map(|(r, t, _)| (r, t.expect("tracing was requested")))
}

/// [`run_spmd`] under a [`FaultPlan`]: scheduled crashes are caught and
/// reported in the outcome instead of failing the run, message
/// drops/delays are answered by the reliable-delivery layer, and
/// survivors (≥ 1 required) carry the result. With every rank crashed
/// the run degrades to a clean [`ClusterError::RanksFailed`] listing
/// the injected crashes.
pub fn run_spmd_ft<T, F>(
    p: usize,
    machine: Machine,
    plan: FaultPlan,
    f: F,
) -> Result<FtRunOutcome<T>, ClusterError>
where
    T: Send,
    F: Fn(&mut ThreadComm) -> T + Sync,
{
    if let Some(r) = plan.max_crash_rank() {
        if r >= p {
            return Err(ClusterError::InvalidRank { rank: r, size: p });
        }
    }
    run_spmd_inner(p, machine, f, false, Arc::new(plan))
        .map(|(survivors, _, crashed)| FtRunOutcome { survivors, crashed })
}

#[allow(clippy::type_complexity)]
fn run_spmd_inner<T, F>(
    p: usize,
    machine: Machine,
    f: F,
    traced: bool,
    plan: Arc<FaultPlan>,
) -> Result<
    (
        Vec<SpmdResult<T>>,
        Option<Vec<Vec<TraceEvent>>>,
        Vec<CrashInfo>,
    ),
    ClusterError,
>
where
    T: Send,
    F: Fn(&mut ThreadComm) -> T + Sync,
{
    if p == 0 {
        return Err(ClusterError::ZeroRanks);
    }
    // One mailbox per rank, shared by every rank of the run.
    let mailboxes: Arc<[Mailbox]> = (0..p).map(|_| Mailbox::default()).collect();

    let f = &f;
    let plan = &plan;
    let results: Vec<Result<(SpmdResult<T>, Vec<TraceEvent>), (usize, Failure)>> =
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(p);
            for rank in 0..p {
                let mailboxes = Arc::clone(&mailboxes);
                let plan = Arc::clone(plan);
                handles.push(scope.spawn(move || {
                    let mut comm = ThreadComm::new(rank, p, machine, mailboxes, plan);
                    if traced {
                        comm.enable_trace();
                    }
                    let outcome = catch_unwind(AssertUnwindSafe(|| f(&mut comm)));
                    match outcome {
                        Ok(value) => Ok((
                            SpmdResult {
                                rank,
                                value,
                                time: comm.clock,
                                stats: comm.stats,
                            },
                            comm.trace.take().unwrap_or_default(),
                        )),
                        Err(payload) => {
                            // Poison everyone else so blocked recvs unwind
                            // (or, under a plan, observe the death).
                            for (d, mailbox) in comm.mailboxes.iter().enumerate() {
                                if d != rank {
                                    let _ = mailbox.post(Message {
                                        src: rank,
                                        tag: POISON_TAG,
                                        data: Box::new([]),
                                        sent_at: comm.clock,
                                        poison: true,
                                    });
                                }
                            }
                            let failure = if let Some(c) = payload.downcast_ref::<InjectedCrash>() {
                                Failure::Injected(Box::new(CrashInfo {
                                    rank,
                                    step: c.step,
                                    time: comm.clock,
                                    stats: comm.stats,
                                }))
                            } else if let Some(e) = payload.downcast_ref::<ClusterError>() {
                                Failure::Deadline(e.clone())
                            } else {
                                let msg = panic_message(payload.as_ref());
                                let cascade = msg.contains("aborting SPMD section");
                                Failure::Panic { msg, cascade }
                            };
                            Err((rank, failure))
                        }
                    }
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread itself must not die"))
                .collect()
        });

    let mut ok = Vec::with_capacity(p);
    let mut originators = Vec::new();
    let mut cascades = Vec::new();
    let mut crashes = Vec::new();
    let mut deadline = None;
    for r in results {
        match r {
            Ok(v) => ok.push(v),
            Err((rank, Failure::Panic { msg, cascade: true })) => cascades.push((rank, msg)),
            Err((
                rank,
                Failure::Panic {
                    msg,
                    cascade: false,
                },
            )) => originators.push((rank, msg)),
            Err((_, Failure::Deadline(e))) => {
                if deadline.is_none() {
                    deadline = Some(e);
                }
            }
            Err((_, Failure::Injected(ci))) => crashes.push(*ci),
        }
    }
    if !originators.is_empty() {
        return Err(ClusterError::RanksFailed(originators));
    }
    if let Some(e) = deadline {
        return Err(e);
    }
    if !cascades.is_empty() {
        return Err(ClusterError::RanksFailed(cascades));
    }
    if ok.is_empty() && !crashes.is_empty() {
        // Every rank died on schedule: degrade to a clean failure.
        return Err(ClusterError::RanksFailed(
            crashes
                .iter()
                .map(|c| (c.rank, format!("injected crash at step {}", c.step)))
                .collect(),
        ));
    }
    ok.sort_by_key(|(r, _)| r.rank);
    crashes.sort_by_key(|c| c.rank);
    let (res, traces): (Vec<_>, Vec<_>) = ok.into_iter().unzip();
    Ok((res, if traced { Some(traces) } else { None }, crashes))
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(src: usize, tag: Tag) -> Message {
        Message {
            src,
            tag,
            data: Box::new([]),
            sent_at: 0.0,
            poison: false,
        }
    }

    #[test]
    fn mailbox_is_fifo_times_out_and_refuses_when_closed() {
        let mailbox = Mailbox::default();
        for tag in 0..3 {
            mailbox.post(msg(0, tag)).unwrap();
        }
        mailbox.post(msg(1, 9)).unwrap();
        let order: Vec<(usize, Tag)> = (0..4)
            .map(|_| mailbox.take(Duration::from_secs(1)).unwrap())
            .map(|m| (m.src, m.tag))
            .collect();
        assert_eq!(order, vec![(0, 0), (0, 1), (0, 2), (1, 9)]);
        assert!(mailbox.take(Duration::from_millis(10)).is_none());
        // A post from another thread wakes a waiting owner: the poster
        // waits until the owner sleeps on the empty queue.
        std::thread::scope(|s| {
            s.spawn(|| {
                while !mailbox.lock().waiting {
                    std::thread::yield_now();
                }
                mailbox.post(msg(2, 4)).unwrap();
            });
            let m = mailbox.take(Duration::from_secs(10)).unwrap();
            assert_eq!((m.src, m.tag), (2, 4));
        });
        mailbox.post(msg(0, 5)).unwrap();
        mailbox.close();
        assert!(mailbox.post(msg(0, 6)).is_err());
        assert!(mailbox.take(Duration::from_millis(1)).is_none());
    }

    #[test]
    fn single_rank_runs_sequentially() {
        let r = run_spmd(1, Machine::ideal(), |comm| {
            comm.compute(1.5);
            comm.rank() * 10 + comm.size()
        })
        .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].value, 1);
        assert_eq!(r[0].time, 1.5);
    }

    #[test]
    fn zero_ranks_rejected() {
        assert_eq!(
            run_spmd(0, Machine::ideal(), |_| ()).unwrap_err(),
            ClusterError::ZeroRanks
        );
    }

    #[test]
    fn ping_pong_transfers_payload() {
        let r = run_spmd(2, Machine::cluster2002(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, &[1.0, 2.0, 3.0]);
                comm.recv(1, 8)
            } else {
                let v = comm.recv(0, 7);
                let doubled: Vec<f64> = v.iter().map(|x| x * 2.0).collect();
                comm.send(0, 8, &doubled);
                doubled
            }
        })
        .unwrap();
        assert_eq!(r[0].value, vec![2.0, 4.0, 6.0]);
        assert_eq!(r[1].value, vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn virtual_clock_is_deterministic_across_runs() {
        let times = |_: ()| {
            run_spmd(4, Machine::cluster2002(), |comm| {
                // Ring shift: each rank sends to the next, receives from prev.
                let next = (comm.rank() + 1) % comm.size();
                let prev = (comm.rank() + comm.size() - 1) % comm.size();
                comm.compute(1e-3 * (comm.rank() + 1) as f64);
                comm.send(next, 1, &[comm.rank() as f64]);
                let v = comm.recv(prev, 1);
                v[0]
            })
            .unwrap()
            .into_iter()
            .map(|r| r.time)
            .collect::<Vec<f64>>()
        };
        let a = times(());
        let b = times(());
        assert_eq!(a, b, "virtual times must not depend on scheduling");
    }

    #[test]
    fn clock_respects_message_delivery_time() {
        let r = run_spmd(2, Machine::cluster2002(), |comm| {
            if comm.rank() == 0 {
                comm.compute(1.0); // sender is busy 1s before sending
                comm.send(1, 1, &[0.0]);
            } else {
                // Receiver idles; its clock must jump to ≥ 1s + msg cost.
                let _ = comm.recv(0, 1);
            }
            comm.now()
        })
        .unwrap();
        let msg_cost = Machine::cluster2002().message_time(Message::wire_bytes(1));
        assert!(
            (r[1].value - (1.0 + msg_cost)).abs() < 1e-12,
            "{}",
            r[1].value
        );
        assert!(r[1].stats.wait_time > 0.9);
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let r = run_spmd(2, Machine::ideal(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 10, &[10.0]);
                comm.send(1, 20, &[20.0]);
                0.0
            } else {
                // Receive in the opposite order.
                let b = comm.recv(0, 20);
                let a = comm.recv(0, 10);
                a[0] + b[0]
            }
        })
        .unwrap();
        assert_eq!(r[1].value, 30.0);
    }

    #[test]
    fn same_envelope_preserves_fifo() {
        let r = run_spmd(2, Machine::ideal(), |comm| {
            if comm.rank() == 0 {
                for k in 0..5 {
                    comm.send(1, 3, &[k as f64]);
                }
                vec![]
            } else {
                (0..5).map(|_| comm.recv(0, 3)[0]).collect::<Vec<f64>>()
            }
        })
        .unwrap();
        assert_eq!(r[1].value, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn rank_panic_reports_originator() {
        let err = run_spmd(3, Machine::ideal(), |comm| {
            if comm.rank() == 1 {
                panic!("injected failure");
            }
            // Other ranks block on rank 1 and must be unwound by poison.
            let _ = comm.recv(1, 99);
        })
        .unwrap_err();
        match err {
            ClusterError::RanksFailed(rs) => {
                assert_eq!(rs.len(), 1, "{rs:?}");
                assert_eq!(rs[0].0, 1);
                assert!(rs[0].1.contains("injected"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let r = run_spmd(2, Machine::cluster2002(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[0.0; 10]);
            } else {
                let _ = comm.recv(0, 1);
            }
        })
        .unwrap();
        assert_eq!(r[0].stats.msgs_sent, 1);
        assert_eq!(r[0].stats.bytes_sent, Message::wire_bytes(10) as u64);
        assert_eq!(r[1].stats.msgs_sent, 0);
    }

    #[test]
    fn many_ranks_oversubscribed() {
        // 32 ranks on however few cores: must still complete and agree.
        let r = run_spmd(32, Machine::ideal(), |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 1, &[comm.rank() as f64]);
            comm.recv(prev, 1)[0] as usize
        })
        .unwrap();
        for (i, res) in r.iter().enumerate() {
            assert_eq!(res.value, (i + 32 - 1) % 32);
        }
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::fault::FaultPlan;

    #[test]
    fn empty_plan_matches_plain_run_bitwise() {
        let body = |comm: &mut ThreadComm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.compute(1e-3);
            comm.send(next, 1, &[comm.rank() as f64]);
            comm.recv(prev, 1)[0]
        };
        let plain = run_spmd(4, Machine::cluster2002(), body).unwrap();
        let ft = run_spmd_ft(4, Machine::cluster2002(), FaultPlan::new(0), body).unwrap();
        assert!(ft.crashed.is_empty());
        // The empty plan keeps sends on the plain path: one Hockney
        // charge per message, no acks, no retransmits.
        let bytes = Message::wire_bytes(1);
        let clock = 1e-3 + Machine::cluster2002().message_time(bytes);
        for (a, b) in plain.iter().zip(&ft.survivors) {
            assert_eq!(a.value.to_bits(), b.value.to_bits());
            assert_eq!(a.time.to_bits(), b.time.to_bits());
            assert_eq!(a.stats, b.stats);
            assert_eq!(b.time.to_bits(), clock.to_bits());
            assert_eq!((b.stats.msgs_sent, b.stats.bytes_sent), (1, bytes as u64));
            assert_eq!((b.stats.ack_msgs, b.stats.retransmits), (0, 0));
        }
    }

    #[test]
    fn drops_force_retransmits_and_still_deliver() {
        let plan = FaultPlan::new(11).with_drops(0.4);
        let run = |plan: FaultPlan| {
            run_spmd_ft(2, Machine::cluster2002(), plan, |comm| {
                if comm.rank() == 0 {
                    for k in 0..20 {
                        comm.send(1, 2, &[k as f64]);
                    }
                    0.0
                } else {
                    (0..20).map(|_| comm.recv(0, 2)[0]).sum::<f64>()
                }
            })
            .unwrap()
        };
        let out = run(plan.clone());
        assert_eq!(out.survivors[1].value, 190.0);
        let s0 = out.survivors[0].stats;
        assert!(s0.retransmits > 0, "0.4 drop rate over 20 msgs: {s0:?}");
        assert_eq!(s0.dropped_msgs, s0.retransmits, "each drop retransmits");
        assert_eq!(s0.ack_msgs, 20);
        assert!(s0.backoff_time > 0.0);
        // Exact replay: same plan, same counters, same virtual times.
        let again = run(plan);
        assert_eq!(again.survivors[0].stats, s0);
        assert_eq!(
            again.survivors[1].time.to_bits(),
            out.survivors[1].time.to_bits()
        );
    }

    #[test]
    fn delays_stretch_receiver_wait_deterministically() {
        let plan = FaultPlan::new(5).with_delays(1.0, 1e-2);
        let out = run_spmd_ft(2, Machine::cluster2002(), plan, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[1.0]);
                0.0
            } else {
                comm.recv(0, 1)[0]
            }
        })
        .unwrap();
        // With delay probability 1 the message arrives late; the
        // receiver's wait absorbs the injected delay.
        assert!(out.survivors[1].stats.wait_time > 1e-3);
    }

    #[test]
    fn exhausted_retries_fail_the_sender_cleanly() {
        let plan = FaultPlan::new(3).with_drops(0.999).with_max_retries(2);
        let err = run_spmd_ft(2, Machine::cluster2002(), plan, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[0.0]);
            } else {
                let _ = comm.recv(0, 1);
            }
        })
        .unwrap_err();
        match err {
            ClusterError::RanksFailed(rs) => {
                assert!(rs
                    .iter()
                    .any(|(r, m)| *r == 0 && m.contains("failed after")));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scheduled_crash_is_reported_not_fatal() {
        let plan = FaultPlan::new(0).with_crash(1, 3);
        let out = run_spmd_ft(2, Machine::cluster2002(), plan, |comm| {
            for step in 0..6 {
                comm.fault_step(step);
                comm.compute(1e-4);
                // Survivor must not depend on the dead rank here; this
                // body only exercises the crash/report path.
            }
            comm.rank() as f64
        })
        .unwrap();
        assert_eq!(out.survivors.len(), 1);
        assert_eq!(out.survivors[0].rank, 0);
        assert_eq!(out.crashed.len(), 1);
        assert_eq!((out.crashed[0].rank, out.crashed[0].step), (1, 3));
        // Died after 3 completed steps of modelled work.
        assert!((out.crashed[0].time - 3e-4).abs() < 1e-12);
    }

    #[test]
    fn all_ranks_crashed_degrades_cleanly() {
        let plan = FaultPlan::new(0).with_crash(0, 1).with_crash(1, 1);
        let err = run_spmd_ft(2, Machine::ideal(), plan, |comm| {
            for step in 0..4 {
                comm.fault_step(step);
                comm.compute(1e-5);
            }
        })
        .unwrap_err();
        match err {
            ClusterError::RanksFailed(rs) => {
                assert_eq!(rs.len(), 2);
                assert!(rs.iter().all(|(_, m)| m.contains("injected crash")));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn crash_rank_out_of_range_is_rejected() {
        let plan = FaultPlan::new(0).with_crash(5, 1);
        let err = run_spmd_ft(2, Machine::ideal(), plan, |_| ()).unwrap_err();
        assert_eq!(err, ClusterError::InvalidRank { rank: 5, size: 2 });
    }

    #[test]
    fn recv_ft_resolves_scheduled_death() {
        let plan = FaultPlan::new(0).with_crash(0, 0);
        let out = run_spmd_ft(2, Machine::cluster2002(), plan, |comm| {
            comm.compute(1e-3 * comm.rank() as f64);
            comm.fault_step(0);
            match comm.recv_ft(0, 9) {
                Ok(_) => panic!("rank 0 never sends"),
                Err(dead) => dead as f64,
            }
        })
        .unwrap();
        assert_eq!(out.survivors.len(), 1);
        assert_eq!(out.survivors[0].value, 0.0);
        // The survivor's clock advanced at least to the death time.
        assert!(out.survivors[0].time >= out.crashed[0].time);
    }

    #[test]
    fn deadline_surfaces_as_typed_error() {
        let machine = Machine::ideal().with_recv_deadline(0.2);
        let err = run_spmd(1, machine, |comm| {
            // Nobody will ever send this.
            let _ = comm.recv(0, 42);
        })
        .unwrap_err();
        match err {
            ClusterError::DeadlineExceeded {
                rank,
                src,
                tag,
                waited_ms,
            } => {
                assert_eq!((rank, src, tag), (0, 0, 42));
                assert_eq!(waited_ms, 200);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dropped_send_to_finished_rank_is_counted() {
        let r = run_spmd(2, Machine::ideal(), |comm| {
            if comm.rank() == 0 {
                // Rank 1 exits immediately; once its inbox is gone our
                // sends are counted as dropped. Spin until observed so
                // the test is scheduling-independent.
                let mut tries = 0;
                while comm.stats().dropped_msgs == 0 && tries < 1_000_000 {
                    comm.send(1, 1, &[0.0]);
                    tries += 1;
                    std::thread::yield_now();
                }
                comm.stats().dropped_msgs
            } else {
                0
            }
        })
        .unwrap();
        assert!(r[0].value > 0, "drop to gone inbox must be counted");
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::collectives::{self, ReduceOp};
    use crate::trace::{render_gantt, summarize, TraceEvent};

    #[test]
    fn traced_run_records_all_event_kinds() {
        let (results, traces) = run_spmd_traced(2, Machine::cluster2002(), |comm| {
            comm.compute(1e-3);
            if comm.rank() == 0 {
                comm.send(1, 5, &[1.0, 2.0]);
            } else {
                let _ = comm.recv(0, 5);
            }
            comm.compute(5e-4);
        })
        .unwrap();
        assert_eq!(traces.len(), 2);
        // Rank 0: compute, send, compute.
        let kinds0: Vec<&str> = traces[0]
            .iter()
            .map(|e| match e {
                TraceEvent::Compute { .. } => "c",
                TraceEvent::Send { .. } => "s",
                TraceEvent::Wait { .. } => "w",
                TraceEvent::Drop { .. } => "x",
            })
            .collect();
        assert_eq!(kinds0, vec!["c", "s", "c"]);
        // Rank 1 waited: its first compute ends at 1e-3 but the message
        // arrives later (sender computed 1e-3 then paid the transfer).
        assert!(traces[1]
            .iter()
            .any(|e| matches!(e, TraceEvent::Wait { .. })));
        // Summaries reconcile with the stats counters.
        for (r, tr) in results.iter().zip(&traces) {
            let s = summarize(r.rank, tr);
            assert!((s.compute - r.stats.compute_time).abs() < 1e-12);
            assert!((s.send - r.stats.send_time).abs() < 1e-12);
            assert!((s.wait - r.stats.wait_time).abs() < 1e-12);
            assert!((s.finish - r.time).abs() < 1e-12);
        }
    }

    #[test]
    fn back_to_back_compute_coalesces() {
        let (_, traces) = run_spmd_traced(1, Machine::ideal(), |comm| {
            for _ in 0..10 {
                comm.compute(1e-4);
            }
        })
        .unwrap();
        assert_eq!(traces[0].len(), 1, "{:?}", traces[0]);
        assert!((traces[0][0].duration() - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn untraced_run_unchanged_and_trace_render_smoke() {
        // Virtual times must be identical with tracing on or off.
        let body = |comm: &mut ThreadComm| {
            comm.compute(1e-3 * (comm.rank() + 1) as f64);
            collectives::allreduce_doubling(comm, &[comm.rank() as f64], ReduceOp::Sum)[0]
        };
        let plain = run_spmd(3, Machine::cluster2002(), body).unwrap();
        let (traced, traces) = run_spmd_traced(3, Machine::cluster2002(), body).unwrap();
        for (a, b) in plain.iter().zip(&traced) {
            assert_eq!(a.time.to_bits(), b.time.to_bits());
            assert_eq!(a.value, b.value);
        }
        let gantt = render_gantt(&traces, 60);
        assert!(gantt.lines().count() == 4, "{gantt}");
    }
}
