//! The SPMD runtime: every rank is a task on the calling thread.
//!
//! [`run_spmd_ft`] runs one `async` rank body per rank, each holding its
//! own [`ThreadComm`], under a FIFO scheduler on the calling thread. A
//! rank runs until it finishes or waits in a receive on an empty inbox;
//! then the next ready rank runs. A send appends to the receiver's inbox
//! and makes a waiting receiver ready again, so messages from one source
//! arrive in send order — the MPI non-overtaking guarantee — and a
//! receive selects by `(source, tag)`, buffering the rest. All *reported*
//! times come from the virtual clock that message timestamps carry, so
//! any run order gives the same results; FIFO fixes one order, and a run
//! replays identically on any host.
//!
//! Deadlock is a fact, not a timeout: when no rank is ready and some
//! still wait, no send can ever arrive, and each waiting receive fails
//! at once with [`ClusterError::Deadlock`].
//!
//! Every run carries a [`FaultPlan`] in each rank's communicator:
//! [`run_spmd_ft`] takes one, activating deterministic message
//! drops/delays (answered by a modelled ack/retransmit layer), scheduled
//! rank crashes at step boundaries, and the poison-based failure
//! detection consumed by [`crate::checkpoint::Supervisor`]. [`run_spmd`]
//! and [`run_spmd_traced`] pass the empty plan, which drops, delays and
//! crashes nothing, so their sends take the plain path and every
//! fault check answers "no".

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::future::{poll_fn, Future};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::pin::{pin, Pin};
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::error::ClusterError;
use crate::fault::{FaultPlan, InjectedCrash};
use crate::machine::Machine;
use crate::message::{Message, Tag, POISON_TAG};
use crate::stats::{CommStats, SpmdResult, TimeModel};
use crate::trace::TraceEvent;

/// One rank's inbox and scheduling state.
#[derive(Default)]
struct Slot {
    /// Arrived messages, oldest first.
    inbox: VecDeque<Message>,
    /// The rank waits in a receive on its empty inbox.
    waiting: bool,
    /// The rank's body has returned or unwound: sends are refused.
    finished: bool,
}

/// What the ranks of one run share: every inbox and the ready queue.
struct Scheduler {
    slots: Vec<Slot>,
    /// Ranks to poll, in the order they became ready.
    ready: VecDeque<usize>,
    /// No rank was ready while some waited: receives fail, not wait.
    deadlocked: bool,
}

impl Scheduler {
    fn new(p: usize) -> Self {
        Scheduler {
            slots: (0..p).map(|_| Slot::default()).collect(),
            ready: (0..p).collect(),
            deadlocked: false,
        }
    }

    /// Append `msg` to `dest`'s inbox, making `dest` ready if it waits.
    /// Hands the message back when `dest` has finished.
    fn deliver(&mut self, dest: usize, msg: Message) -> Result<(), Message> {
        let slot = &mut self.slots[dest];
        if slot.finished {
            return Err(msg);
        }
        slot.inbox.push_back(msg);
        if std::mem::take(&mut slot.waiting) {
            self.ready.push_back(dest);
        }
        Ok(())
    }

    /// The next rank to poll. With none ready, every waiting rank is
    /// made ready under the deadlock flag; `None` once no rank waits.
    fn next(&mut self) -> Option<usize> {
        if self.ready.is_empty() {
            self.deadlocked = true;
            for (rank, slot) in self.slots.iter_mut().enumerate() {
                if std::mem::take(&mut slot.waiting) {
                    self.ready.push_back(rank);
                }
            }
        }
        self.ready.pop_front()
    }

    /// Refuse further messages to `rank` and free its unread ones.
    fn finish(&mut self, rank: usize) {
        let slot = &mut self.slots[rank];
        slot.finished = true;
        slot.inbox = VecDeque::new();
    }
}

/// Panic payload of a rank unwound by the poison marker of a peer whose
/// failure the plan did not schedule.
struct PeerFailed {
    peer: usize,
}

/// Per-rank fault-injection state: the shared plan plus the counters
/// and observations that drive deterministic replay. Each per-peer
/// table is sized only under a plan that reads it, so a fault-free run
/// holds no O(p) state per rank.
struct FaultState {
    plan: Rc<FaultPlan>,
    /// Per-destination message sequence numbers (inputs to the plan's
    /// drop/delay coins, so the fault stream is order-deterministic).
    /// Empty unless the plan has message chaos.
    send_seq: Vec<u64>,
    /// Death clock of each rank whose poison marker we have consumed,
    /// for ranks with a *scheduled* crash. Unscheduled poison keeps the
    /// fail-fast cascade semantics of plain runs. Empty unless the plan
    /// schedules crashes.
    observed_dead: Vec<Option<f64>>,
}

/// One rank's communicator: identity, point-to-point messaging and the
/// virtual-time hooks. The collectives are built on it by the
/// [`crate::CollectiveEngine`], which picks the schedule for the
/// machine's topology.
///
/// The contract mirrors a minimal MPI:
///
/// * [`send`](Self::send) never blocks (unbounded buffering);
/// * [`recv`](Self::recv) waits until a matching `(src, tag)` message
///   arrives, with out-of-order arrivals buffered — MPI's
///   non-overtaking envelope matching;
/// * each call also advances the rank's **virtual clock** by the machine
///   model's cost for the operation, and tallies [`CommStats`].
///
/// # Panics
///
/// `recv` unwinds when a poison marker from a failed peer arrives, and
/// when the run deadlocks, without running the panic hook; the SPMD
/// runner converts either unwinding into a [`ClusterError`].
pub struct ThreadComm {
    rank: usize,
    machine: Machine,
    clock: f64,
    stats: CommStats,
    /// The run's inboxes and ready queue, shared by every rank.
    sched: Rc<RefCell<Scheduler>>,
    /// Out-of-order arrivals, keyed by envelope, FIFO within a key.
    pending: HashMap<(usize, Tag), VecDeque<Message>>,
    /// Virtual-time event log, when tracing is enabled.
    trace: Option<Vec<TraceEvent>>,
    /// Fault-injection state (inert under an empty plan).
    fault: FaultState,
    /// Every rank of the run, `0..size`, one list shared by all ranks;
    /// its length is the rank count.
    roster: Rc<[usize]>,
}

impl ThreadComm {
    fn new(
        rank: usize,
        machine: Machine,
        sched: Rc<RefCell<Scheduler>>,
        plan: Rc<FaultPlan>,
        roster: Rc<[usize]>,
    ) -> Self {
        let per_peer = |needed: bool| if needed { roster.len() } else { 0 };
        ThreadComm {
            rank,
            machine,
            clock: 0.0,
            stats: CommStats::default(),
            sched,
            pending: HashMap::new(),
            trace: None,
            fault: FaultState {
                send_seq: vec![0; per_peer(plan.has_chaos())],
                observed_dead: vec![None; per_peer(!plan.crashes.is_empty())],
                plan,
            },
            roster,
        }
    }

    /// This rank's id in `0..size()`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.roster.len()
    }

    /// Every rank of the run, `0..size()`, as one list all ranks share.
    pub(crate) fn roster(&self) -> Rc<[usize]> {
        Rc::clone(&self.roster)
    }

    /// The machine model this run executes under.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Current virtual time of this rank.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Snapshot of the communication counters.
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    /// The run's fault plan (empty unless the run is fault-injected).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault.plan
    }

    /// Advance this rank's virtual clock by `seconds` of computation.
    pub fn compute(&mut self, seconds: f64) {
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

    /// Advance the clock by `units` abstract work units priced by the
    /// machine model.
    pub fn compute_units(&mut self, units: f64) {
        self.compute(self.machine.work_time(units));
    }

    /// Stall this rank's virtual clock for `seconds` behind co-node
    /// senders sharing one uplink, booked as wait time and in the
    /// `link_stall_time` counter. The collectives charge this *before* a
    /// far send whenever several ranks of one SMP node inject into the
    /// fabric in the same schedule stage; a flat gather at large P pays
    /// it heavily, a hierarchical collective (one leader per node) not
    /// at all.
    pub fn link_stall(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0);
        if seconds > 0.0 {
            self.clock += seconds;
            self.stats.wait_time += seconds;
            self.stats.link_stall_time += seconds;
        }
    }

    /// Send `data` to `dest` with `tag`; never blocks.
    ///
    /// Virtual cost (charged to the sender): `α + β·wire_bytes`. Under
    /// a plan with message chaos the reliable-delivery layer adds
    /// retransmits, backoff and an ack.
    pub fn send(&mut self, dest: usize, tag: Tag, data: &[f64]) {
        assert!(dest < self.size(), "send to rank {dest} of {}", self.size());
        if self.fault.plan.has_chaos() {
            return self.reliable_send(dest, tag, data);
        }
        let bytes = Message::wire_bytes(data.len());
        let cost = self.machine.message_time_between(self.rank, dest, bytes);
        self.charge_send(dest, bytes, cost);
        let msg = Message {
            src: self.rank,
            tag,
            data: data.into(),
            sent_at: self.clock,
            poison: false,
        };
        self.post(dest, msg);
    }

    /// Wait until a message with envelope `(src, tag)` arrives and
    /// return its payload.
    ///
    /// Virtual cost: the receiver's clock becomes
    /// `max(own clock, sender delivery time)` — waiting is free, arrival
    /// cannot precede the modelled delivery. A poison marker from a rank
    /// with a scheduled crash is recorded and the wait goes on; one from
    /// an unscheduled failure unwinds this rank.
    pub async fn recv(&mut self, src: usize, tag: Tag) -> Vec<f64> {
        match self.receive(src, tag, false).await {
            Ok(data) => data,
            Err(_) => unreachable!("only recv_ft resolves a death"),
        }
    }

    /// Fault-aware receive: like [`ThreadComm::recv`] but a poison
    /// marker from a rank with a scheduled crash resolves to
    /// `Err(dead_rank)` (after advancing the clock to the death time)
    /// instead of waiting on. Poison from unscheduled failures still
    /// cascades, and a deadlock still fails the receive.
    pub async fn recv_ft(&mut self, src: usize, tag: Tag) -> Result<Vec<f64>, usize> {
        self.receive(src, tag, true).await
    }

    /// Inject this rank's scheduled crash if the plan says to die at
    /// `step`. Drivers call this at every step boundary; it is the
    /// *only* place crashes fire, which is what keeps recovery free of
    /// in-flight user messages. The crash unwinds with an
    /// [`InjectedCrash`] payload without running the panic hook: the
    /// runner catches it and reports a [`CrashInfo`].
    pub fn fault_step(&self, step: usize) {
        if self.fault.plan.crash_step(self.rank) == Some(step) {
            resume_unwind(Box::new(InjectedCrash {
                rank: self.rank,
                step,
            }));
        }
    }

    /// Charge `seconds` of checkpoint-write time to this rank's clock
    /// (used by [`crate::checkpoint`]).
    pub(crate) fn charge_checkpoint(&mut self, seconds: f64) {
        self.clock += seconds;
        self.stats.ckpt_time += seconds;
    }

    /// The receive behind [`recv`](Self::recv) (`ft` false) and
    /// [`recv_ft`](Self::recv_ft) (`ft` true).
    async fn receive(&mut self, src: usize, tag: Tag, ft: bool) -> Result<Vec<f64>, usize> {
        assert!(src < self.size(), "recv from rank {src} of {}", self.size());
        if ft {
            if let Some(&Some(t)) = self.fault.observed_dead.get(src) {
                self.advance_wait_to(t, src);
                return Err(src);
            }
        }
        let msg = match self.take_pending(src, tag) {
            Some(m) => m,
            None => loop {
                let m = self.next_message(src, tag).await;
                if m.poison {
                    // A scheduled death is merely recorded (the recovery
                    // protocol acts on it at the next boundary, at a
                    // deterministic virtual time); an unscheduled one
                    // cascades.
                    if !self.note_poison(&m) {
                        resume_unwind(Box::new(PeerFailed { peer: m.src }));
                    }
                    if ft && m.src == src {
                        self.advance_wait_to(m.sent_at, src);
                        return Err(src);
                    }
                } else if m.src == src && m.tag == tag {
                    break m;
                } else {
                    self.pending.entry((m.src, m.tag)).or_default().push_back(m);
                }
            },
        };
        // Clock: arrival cannot precede the modelled delivery time.
        self.advance_wait_to(msg.sent_at, src);
        Ok(msg.data.into_vec())
    }

    /// The next message in this rank's inbox, in arrival order. On an
    /// empty inbox the rank waits until a send makes it ready again; in
    /// a deadlocked run the receive of `(src, tag)` fails with
    /// [`ClusterError::Deadlock`] instead.
    async fn next_message(&self, src: usize, tag: Tag) -> Message {
        poll_fn(|_| {
            let mut sched = self.sched.borrow_mut();
            if sched.deadlocked {
                drop(sched);
                resume_unwind(Box::new(ClusterError::Deadlock {
                    rank: self.rank,
                    src,
                    tag,
                }));
            }
            let slot = &mut sched.slots[self.rank];
            match slot.inbox.pop_front() {
                Some(msg) => Poll::Ready(msg),
                None => {
                    slot.waiting = true;
                    Poll::Pending
                }
            }
        })
        .await
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

    /// Charge one transmission of `bytes` to `dest` costing `cost`.
    fn charge_send(&mut self, dest: usize, bytes: usize, cost: f64) {
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
        if self.machine.is_far(self.rank, dest) {
            self.stats.far_msgs += 1;
            self.stats.far_bytes += bytes as u64;
        }
    }

    /// Reliable delivery under an active chaos plan: each transmission
    /// attempt pays the full modelled message cost, a dropped attempt
    /// backs off `rto·2^attempt` and retransmits, and a delivered
    /// attempt waits one modelled ack (an empty return message). All
    /// costs are virtual time; the decision stream is the plan's, so
    /// the whole exchange replays deterministically.
    fn reliable_send(&mut self, dest: usize, tag: Tag, data: &[f64]) {
        let plan = Rc::clone(&self.fault.plan);
        let seq = self.fault.send_seq[dest];
        self.fault.send_seq[dest] += 1;
        let bytes = Message::wire_bytes(data.len());
        let cost = self.machine.message_time_between(self.rank, dest, bytes);
        let ack_cost = self
            .machine
            .message_time_between(dest, self.rank, Message::wire_bytes(0));
        let mut attempt = 0u32;
        loop {
            self.charge_send(dest, bytes, cost);
            if attempt > 0 {
                self.stats.retransmits += 1;
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
            self.note_drop(dest);
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

    /// Append `msg` to `dest`'s inbox, accounting for a finished rank:
    /// its inbox is gone, so the message is counted as dropped and
    /// traced rather than vanishing silently — unless the plan scheduled
    /// `dest`'s crash, whose death the fault layer accounts for apart.
    fn post(&mut self, dest: usize, msg: Message) {
        let refused = self.sched.borrow_mut().deliver(dest, msg).is_err();
        if refused && self.fault.plan.crash_step(dest).is_none() {
            self.note_drop(dest);
        }
    }

    /// Count and trace one message to `dest` that was lost.
    fn note_drop(&mut self, dest: usize) {
        self.stats.dropped_msgs += 1;
        if let Some(tr) = &mut self.trace {
            tr.push(TraceEvent::Drop {
                at: self.clock,
                dest,
            });
        }
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

/// Run the `async` rank body `f` on `p` ranks under the given machine
/// model and collect every rank's result, virtual completion time and
/// counters (ordered by rank): [`run_spmd_ft`] under the empty plan,
/// returning the survivors (every rank, since nothing is injected).
///
/// If any rank panics, the panic is caught, poison is propagated so peers
/// waiting in `recv` unwind too, and the whole run returns
/// [`ClusterError::RanksFailed`] listing the *originally* failing ranks
/// (cascade victims are reported only if no originator is identifiable).
/// A run in which every unfinished rank waits on a receive no send can
/// satisfy returns [`ClusterError::Deadlock`].
pub fn run_spmd<T, F>(p: usize, machine: Machine, f: F) -> Result<Vec<SpmdResult<T>>, ClusterError>
where
    F: AsyncFn(&mut ThreadComm) -> T,
{
    run_spmd_ft(p, machine, FaultPlan::new(0), f).map(|out| out.survivors)
}

/// Results plus per-rank event traces from a traced run.
pub type TracedRun<T> = (Vec<SpmdResult<T>>, Vec<Vec<TraceEvent>>);

/// [`run_spmd`] with per-rank virtual-time event traces
/// (see [`crate::trace`]) for timeline analysis.
pub fn run_spmd_traced<T, F>(p: usize, machine: Machine, f: F) -> Result<TracedRun<T>, ClusterError>
where
    F: AsyncFn(&mut ThreadComm) -> T,
{
    run_spmd_inner(p, machine, f, true, FaultPlan::new(0)).map(|(r, t, _)| (r, t))
}

/// [`run_spmd`] under a [`FaultPlan`]: scheduled crashes are caught and
/// reported in the outcome instead of failing the run, message
/// drops/delays are answered by the reliable-delivery layer, and
/// survivors (≥ 1 required) carry the result. With every rank crashed
/// the run degrades to a clean [`ClusterError::RanksFailed`] listing
/// the injected crashes.
///
/// # Panics
///
/// Panics if a rank body awaits a future other than this runtime's
/// receives and that future never completes.
pub fn run_spmd_ft<T, F>(
    p: usize,
    machine: Machine,
    plan: FaultPlan,
    f: F,
) -> Result<FtRunOutcome<T>, ClusterError>
where
    F: AsyncFn(&mut ThreadComm) -> T,
{
    if let Some(r) = plan.max_crash_rank() {
        if r >= p {
            return Err(ClusterError::InvalidRank { rank: r, size: p });
        }
    }
    run_spmd_inner(p, machine, f, false, plan)
        .map(|(survivors, _, crashed)| FtRunOutcome { survivors, crashed })
}

/// A rank's task: its body's outcome, and the communicator it ran on.
type Task<'a, T> = Pin<Box<dyn Future<Output = (std::thread::Result<T>, ThreadComm)> + 'a>>;

/// Poll `body` to completion, turning a panic in any poll into
/// `Err(payload)`.
async fn catch_panics<F: Future>(body: F) -> std::thread::Result<F::Output> {
    let mut body = pin!(body);
    poll_fn(
        |cx| match catch_unwind(AssertUnwindSafe(|| body.as_mut().poll(cx))) {
            Ok(Poll::Pending) => Poll::Pending,
            Ok(Poll::Ready(value)) => Poll::Ready(Ok(value)),
            Err(payload) => Poll::Ready(Err(payload)),
        },
    )
    .await
}

#[allow(clippy::type_complexity)]
fn run_spmd_inner<T, F>(
    p: usize,
    machine: Machine,
    f: F,
    traced: bool,
    plan: FaultPlan,
) -> Result<(Vec<SpmdResult<T>>, Vec<Vec<TraceEvent>>, Vec<CrashInfo>), ClusterError>
where
    F: AsyncFn(&mut ThreadComm) -> T,
{
    if p == 0 {
        return Err(ClusterError::ZeroRanks);
    }
    let sched = Rc::new(RefCell::new(Scheduler::new(p)));
    let plan = Rc::new(plan);
    let roster: Rc<[usize]> = (0..p).collect();
    let f = &f;
    let mut tasks: Vec<Option<Task<'_, T>>> = (0..p)
        .map(|rank| {
            let mut comm = ThreadComm::new(
                rank,
                machine,
                Rc::clone(&sched),
                Rc::clone(&plan),
                Rc::clone(&roster),
            );
            if traced {
                comm.trace = Some(Vec::new());
            }
            let task: Task<'_, T> = Box::pin(async move {
                let outcome = catch_panics(f(&mut comm)).await;
                (outcome, comm)
            });
            Some(task)
        })
        .collect();
    let mut finished: Vec<Option<(std::thread::Result<T>, ThreadComm)>> =
        (0..p).map(|_| None).collect();
    let mut cx = Context::from_waker(Waker::noop());
    loop {
        let Some(rank) = sched.borrow_mut().next() else {
            break;
        };
        let task = tasks[rank].as_mut().expect("a ready rank has not finished");
        let Poll::Ready((outcome, comm)) = task.as_mut().poll(&mut cx) else {
            continue;
        };
        tasks[rank] = None;
        let mut sched = sched.borrow_mut();
        sched.finish(rank);
        if outcome.is_err() {
            // Poison every unfinished rank so its receives unwind (or,
            // under a plan, observe the death).
            for dest in (0..p).filter(|&d| d != rank) {
                let _ = sched.deliver(
                    dest,
                    Message {
                        src: rank,
                        tag: POISON_TAG,
                        data: Box::new([]),
                        sent_at: comm.clock,
                        poison: true,
                    },
                );
            }
        }
        finished[rank] = Some((outcome, comm));
    }

    let mut results = Vec::with_capacity(p);
    let mut traces = Vec::new();
    let mut originators = Vec::new();
    let mut cascades = Vec::new();
    let mut crashes = Vec::new();
    let mut deadlock = None;
    for (rank, done) in finished.into_iter().enumerate() {
        let (outcome, comm) = done.expect("rank body awaited a future outside the runtime");
        let payload = match outcome {
            Ok(value) => {
                results.push(SpmdResult {
                    rank,
                    value,
                    time: comm.clock,
                    stats: comm.stats,
                });
                traces.extend(comm.trace);
                continue;
            }
            Err(payload) => payload,
        };
        if let Some(c) = payload.downcast_ref::<InjectedCrash>() {
            crashes.push(CrashInfo {
                rank,
                step: c.step,
                time: comm.clock,
                stats: comm.stats,
            });
        } else if let Some(e) = payload.downcast_ref::<ClusterError>() {
            deadlock.get_or_insert_with(|| e.clone());
        } else if let Some(c) = payload.downcast_ref::<PeerFailed>() {
            let msg = format!(
                "rank {rank}: peer rank {} failed, aborting SPMD section",
                c.peer
            );
            cascades.push((rank, msg));
        } else {
            originators.push((rank, panic_message(payload.as_ref())));
        }
    }
    if !originators.is_empty() {
        return Err(ClusterError::RanksFailed(originators));
    }
    if let Some(e) = deadlock {
        return Err(e);
    }
    if !cascades.is_empty() {
        return Err(ClusterError::RanksFailed(cascades));
    }
    if results.is_empty() && !crashes.is_empty() {
        // Every rank died on schedule: degrade to a clean failure.
        return Err(ClusterError::RanksFailed(
            crashes
                .iter()
                .map(|c| (c.rank, format!("injected crash at step {}", c.step)))
                .collect(),
        ));
    }
    Ok((results, traces, crashes))
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

    #[test]
    fn single_rank_runs_sequentially() {
        let r = run_spmd(1, Machine::ideal(), async |comm| {
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
            run_spmd(0, Machine::ideal(), async |_| ()).unwrap_err(),
            ClusterError::ZeroRanks
        );
    }

    #[test]
    fn ping_pong_transfers_payload() {
        let r = run_spmd(2, Machine::cluster2002(), async |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, &[1.0, 2.0, 3.0]);
                comm.recv(1, 8).await
            } else {
                let v = comm.recv(0, 7).await;
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
            run_spmd(4, Machine::cluster2002(), async |comm| {
                // Ring shift: each rank sends to the next, receives from prev.
                let next = (comm.rank() + 1) % comm.size();
                let prev = (comm.rank() + comm.size() - 1) % comm.size();
                comm.compute(1e-3 * (comm.rank() + 1) as f64);
                comm.send(next, 1, &[comm.rank() as f64]);
                let v = comm.recv(prev, 1).await;
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
        let r = run_spmd(2, Machine::cluster2002(), async |comm| {
            if comm.rank() == 0 {
                comm.compute(1.0); // sender is busy 1s before sending
                comm.send(1, 1, &[0.0]);
            } else {
                // Receiver idles; its clock must jump to ≥ 1s + msg cost.
                let _ = comm.recv(0, 1).await;
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
        let r = run_spmd(2, Machine::ideal(), async |comm| {
            if comm.rank() == 0 {
                comm.send(1, 10, &[10.0]);
                comm.send(1, 20, &[20.0]);
                0.0
            } else {
                // Receive in the opposite order.
                let b = comm.recv(0, 20).await;
                let a = comm.recv(0, 10).await;
                a[0] + b[0]
            }
        })
        .unwrap();
        assert_eq!(r[1].value, 30.0);
    }

    #[test]
    fn same_envelope_preserves_fifo() {
        let r = run_spmd(2, Machine::ideal(), async |comm| {
            if comm.rank() == 0 {
                for k in 0..5 {
                    comm.send(1, 3, &[k as f64]);
                }
                vec![]
            } else {
                let mut got = Vec::new();
                for _ in 0..5 {
                    got.push(comm.recv(0, 3).await[0]);
                }
                got
            }
        })
        .unwrap();
        assert_eq!(r[1].value, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn rank_panic_reports_originator() {
        let err = run_spmd(3, Machine::ideal(), async |comm| {
            if comm.rank() == 1 {
                panic!("injected failure");
            }
            // Other ranks wait on rank 1 and must be unwound by poison.
            let _ = comm.recv(1, 99).await;
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
    fn own_failure_message_is_not_mistaken_for_a_cascade() {
        // A rank's own panic is an originator whatever its text says;
        // only a poison marker's unwinding is a cascade.
        let err = run_spmd(3, Machine::ideal(), async |comm| match comm.rank() {
            0 => panic!("aborting SPMD section: bad shard"),
            1 => panic!("boom"),
            _ => {
                let _ = comm.recv(0, 1).await;
            }
        })
        .unwrap_err();
        assert_eq!(
            err,
            ClusterError::RanksFailed(vec![
                (0, "aborting SPMD section: bad shard".to_string()),
                (1, "boom".to_string()),
            ])
        );
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let r = run_spmd(2, Machine::cluster2002(), async |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[0.0; 10]);
            } else {
                let _ = comm.recv(0, 1).await;
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
        let r = run_spmd(32, Machine::ideal(), async |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 1, &[comm.rank() as f64]);
            comm.recv(prev, 1).await[0] as usize
        })
        .unwrap();
        for (i, res) in r.iter().enumerate() {
            assert_eq!(res.value, (i + 32 - 1) % 32);
        }
    }

    #[test]
    fn every_rank_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let r = run_spmd(1024, Machine::ideal(), async |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 1, &[comm.rank() as f64]);
            let got = comm.recv(prev, 1).await[0] as usize;
            (got, std::thread::current().id())
        })
        .unwrap();
        assert_eq!(r.len(), 1024);
        for (i, res) in r.iter().enumerate() {
            assert_eq!(res.value, ((i + 1023) % 1024, caller), "rank {i}");
        }
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::fault::FaultPlan;

    #[test]
    fn empty_plan_matches_plain_run_bitwise() {
        let body = async |comm: &mut ThreadComm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.compute(1e-3);
            comm.send(next, 1, &[comm.rank() as f64]);
            comm.recv(prev, 1).await[0]
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
    fn per_peer_fault_state_is_sized_to_the_plan() {
        // (send_seq, observed_dead) lengths of each rank.
        let sizes = |plan: FaultPlan| {
            let out = run_spmd_ft(4, Machine::ideal(), plan, async |comm| {
                let roster = comm.roster().as_ptr() as usize;
                (
                    comm.fault.send_seq.len(),
                    comm.fault.observed_dead.len(),
                    roster,
                )
            })
            .unwrap();
            let rosters: Vec<usize> = out.survivors.iter().map(|r| r.value.2).collect();
            assert!(
                rosters.iter().all(|&r| r == rosters[0]),
                "one shared roster"
            );
            out.survivors
                .iter()
                .map(|r| (r.value.0, r.value.1))
                .collect::<Vec<_>>()
        };
        // The empty plan leaves a rank no per-peer fault state.
        assert_eq!(sizes(FaultPlan::new(0)), vec![(0, 0); 4]);
        assert_eq!(sizes(FaultPlan::new(1).with_drops(0.1)), vec![(4, 0); 4]);
        assert_eq!(sizes(FaultPlan::new(2).with_crash(3, 9)), vec![(0, 4); 4]);
    }

    #[test]
    fn drops_force_retransmits_and_still_deliver() {
        let plan = FaultPlan::new(11).with_drops(0.4);
        let run = |plan: FaultPlan| {
            run_spmd_ft(2, Machine::cluster2002(), plan, async |comm| {
                if comm.rank() == 0 {
                    for k in 0..20 {
                        comm.send(1, 2, &[k as f64]);
                    }
                    0.0
                } else {
                    let mut sum = 0.0;
                    for _ in 0..20 {
                        sum += comm.recv(0, 2).await[0];
                    }
                    sum
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
        let out = run_spmd_ft(2, Machine::cluster2002(), plan, async |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[1.0]);
                0.0
            } else {
                comm.recv(0, 1).await[0]
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
        let err = run_spmd_ft(2, Machine::cluster2002(), plan, async |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[0.0]);
            } else {
                let _ = comm.recv(0, 1).await;
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
        let out = run_spmd_ft(2, Machine::cluster2002(), plan, async |comm| {
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
        let err = run_spmd_ft(2, Machine::ideal(), plan, async |comm| {
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
        let err = run_spmd_ft(2, Machine::ideal(), plan, async |_| ()).unwrap_err();
        assert_eq!(err, ClusterError::InvalidRank { rank: 5, size: 2 });
    }

    #[test]
    fn recv_ft_resolves_scheduled_death() {
        let plan = FaultPlan::new(0).with_crash(0, 0);
        let out = run_spmd_ft(2, Machine::cluster2002(), plan, async |comm| {
            comm.compute(1e-3 * comm.rank() as f64);
            comm.fault_step(0);
            match comm.recv_ft(0, 9).await {
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
    fn unsatisfiable_receive_is_a_typed_deadlock() {
        // Rank 2 finishes without sending; ranks 0 and 1 then wait on
        // receives nothing can satisfy. The run fails at once, naming
        // the lowest waiting rank's receive.
        let err = run_spmd(3, Machine::ideal(), async |comm| match comm.rank() {
            0 => drop(comm.recv(1, 7).await),
            1 => drop(comm.recv(2, 8).await),
            _ => {}
        })
        .unwrap_err();
        assert_eq!(
            err,
            ClusterError::Deadlock {
                rank: 0,
                src: 1,
                tag: 7
            }
        );
        // A lone rank waiting on itself deadlocks the same way.
        let err = run_spmd(1, Machine::ideal(), async |comm| {
            let _ = comm.recv(0, 42).await;
        })
        .unwrap_err();
        assert_eq!(
            err,
            ClusterError::Deadlock {
                rank: 0,
                src: 0,
                tag: 42
            }
        );
    }

    #[test]
    fn dropped_send_to_finished_rank_is_counted() {
        // Rank 1 sends once and returns; rank 0 sends to it only after
        // that receive, when rank 1 has finished, so each of its three
        // sends is refused and counted — unless the plan scheduled rank
        // 1's crash, which the fault layer accounts for instead.
        let body = async |comm: &mut ThreadComm| {
            if comm.rank() == 0 {
                let _ = comm.recv(1, 1).await;
                for _ in 0..3 {
                    comm.send(1, 2, &[0.0]);
                }
            } else {
                comm.send(0, 1, &[0.0]);
            }
            comm.stats().dropped_msgs
        };
        let r = run_spmd(2, Machine::ideal(), body).unwrap();
        assert_eq!((r[0].value, r[1].value), (3, 0));
        let plan = FaultPlan::new(0).with_crash(1, 99);
        let out = run_spmd_ft(2, Machine::ideal(), plan, body).unwrap();
        assert_eq!(out.survivors[0].value, 0);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::collectives;
    use crate::trace::{render_gantt, summarize, TraceEvent};

    #[test]
    fn traced_run_records_all_event_kinds() {
        let (results, traces) = run_spmd_traced(2, Machine::cluster2002(), async |comm| {
            comm.compute(1e-3);
            if comm.rank() == 0 {
                comm.send(1, 5, &[1.0, 2.0]);
            } else {
                let _ = comm.recv(0, 5).await;
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
        let (_, traces) = run_spmd_traced(1, Machine::ideal(), async |comm| {
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
        let body = async |comm: &mut ThreadComm| {
            comm.compute(1e-3 * (comm.rank() + 1) as f64);
            let mut data = [comm.rank() as f64];
            collectives::broadcast_tree(comm, 2, &mut data).await;
            data[0]
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
