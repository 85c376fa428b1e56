//! Coordinated checkpoints and deterministic rank recovery.
//!
//! The pricing drivers all advance in lock-step over a step index
//! (lattice/FD time steps, MC batch boundaries). That structure makes
//! *coordinated* checkpointing trivial and cheap: at every boundary
//! that is a multiple of the checkpoint interval, each rank snapshots
//! its shard into a [`CheckpointStore`] (a model of stable storage —
//! the parallel file system of a 2002-era cluster), paying the
//! modelled cost of shipping the snapshot off-node.
//!
//! Recovery preserves **bitwise determinism** because of three facts:
//!
//! 1. Crashes fire only at step boundaries ([`crate::ThreadComm::fault_step`]),
//!    and every message sent inside a step is received inside the same
//!    step — so at the moment survivors roll back, no user message is
//!    in flight and no receive can observe pre-crash traffic.
//! 2. The checkpoint at a boundary is written *before* the crash
//!    injection point, so the final checkpoint set always covers the
//!    whole problem domain, including the dying rank's shard.
//! 3. Survivors repartition the domain over the *sorted list of
//!    surviving ranks* with the same block partition arithmetic used
//!    at startup, and every per-element update is arithmetic on values
//!    that do not depend on which rank owns the element. Replayed
//!    steps therefore produce bit-identical intermediate states, and
//!    the final price is bit-identical to a fault-free run.
//!
//! Failure agreement cannot reuse the engine's collectives directly:
//! a tree over the *full* communicator is not death-robust
//! (contributions routed through the dead rank would vanish). Instead
//! the exchange runs only among ranks already known to survive the
//! boundary: below [`AGREE_HIER_THRESHOLD`] survivors, a flat all-to-all of death
//! bitmasks (O(s²) messages, the original scheme); at or above it, a
//! two-level group-leader union — members ship their mask to a group
//! leader, the leaders exchange group unions pairwise, then fan the
//! result back out — which is O(s + (s/Q)²) messages and safe because
//! every relay is a guaranteed survivor. The exchange runs only at
//! boundaries where the fault plan schedules a crash — detection
//! itself is honest (survivors consume the dying rank's poison marker
//! at the message level), the plan only tells the runtime *when* to
//! look, keeping fault-free steps free of agreement traffic.
//!
//! # Synchronous vs asynchronous checkpointing
//!
//! The original scheme ([`CheckpointMode::Sync`]) blocks each rank for
//! the full modelled transfer of its shard at every due boundary —
//! measured at ~6.5% of t6b makespan at large P.
//! [`CheckpointMode::AsyncIncremental`] cuts that two ways:
//!
//! * **Incremental**: the shard is diffed against the previous
//!   snapshot in [`DIRTY_CHUNK`]-double chunks and only dirty chunks
//!   are charged to the wire (the first write of an era, or one whose
//!   domain offset moved after a repartition, is always full).
//! * **Asynchronous**: the boundary charges only the initiation
//!   latency; the payload drain proceeds in the background and is
//!   *settled* — any not-yet-overlapped remainder charged — at the
//!   next due boundary, before any failure agreement, or at an
//!   explicit [`Supervisor::flush`]. Compute between boundaries thus
//!   hides the transfer.
//!
//! Stable storage semantics are unchanged in both modes: the store
//! always receives **full**, era-keyed records, so recovery reads the
//! same pool and replays bit-identically; the mode moves virtual-time
//! cost, never data.
//!
//! # One driver, with or without checkpoints
//!
//! Every distributed pricing driver runs its single SPMD body under a
//! [`Supervisor`], whether or not the run checkpoints: the interval is
//! an `Option` (`None` never writes a checkpoint) and the supervisor
//! owns the run's collectives. While the full roster is alive they are
//! the machine's [`CollectiveEngine`] schedules — exactly what a
//! supervisor-free run would send — and only a roster shrunk by a
//! crash falls back to the active-list fan-out. A run without
//! checkpoints therefore costs the same messages, bytes and virtual
//! time as a checkpointed fault-free run minus the checkpoint writes.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use crate::engine::CollectiveEngine;
use crate::fault::FaultPlan;
use crate::message::{Message, Tag, FT_TAG_BASE};
use crate::thread_comm::ThreadComm;

/// Tag for the failure-agreement bitmask exchange.
const AGREE_TAG: Tag = FT_TAG_BASE;
/// Tag for recovery-time subgroup broadcast.
const BCAST_TAG: Tag = FT_TAG_BASE + 1;
/// Tag for recovery-time subgroup gather.
const GATHER_TAG: Tag = FT_TAG_BASE + 2;
/// Tag for hierarchical agreement: member mask → group leader.
const AGREE_UP_TAG: Tag = FT_TAG_BASE + 3;
/// Tag for hierarchical agreement: leader ↔ leader group unions.
const AGREE_X_TAG: Tag = FT_TAG_BASE + 4;
/// Tag for hierarchical agreement: final union → group members.
const AGREE_DOWN_TAG: Tag = FT_TAG_BASE + 5;

/// Survivor count at which failure agreement switches from the flat
/// all-to-all mask exchange to the two-level group-leader union.
pub const AGREE_HIER_THRESHOLD: usize = 32;

/// Group size of the hierarchical agreement exchange.
const AGREE_GROUP: usize = 32;

/// Chunk granularity (in doubles) of the incremental dirty diff in
/// [`CheckpointMode::AsyncIncremental`].
pub const DIRTY_CHUNK: usize = 64;

/// How a [`Supervisor`] charges checkpoint cost (stored data is
/// identical in both modes — see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointMode {
    /// Blocking full-shard write at every due boundary (the original
    /// coordinated scheme).
    #[default]
    Sync,
    /// Initiation latency up front, dirty-chunk payload drained in the
    /// background and settled at the next boundary / agreement /
    /// [`Supervisor::flush`].
    AsyncIncremental,
}

/// One rank's snapshot at a checkpoint boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointRecord {
    /// The step boundary this snapshot was taken at.
    pub step: usize,
    /// Recovery era: how many recoveries preceded this write. Records
    /// of an older era at the same step are stale (they describe a
    /// partition over a rank set that has since shrunk) and are
    /// excluded by [`CheckpointStore::read_step`].
    pub era: usize,
    /// Domain offset of the shard (first row / grid point / block id).
    pub lo: usize,
    /// The shard's state, flattened to doubles.
    pub data: Vec<f64>,
}

/// A model of stable storage shared by all ranks (the cluster's
/// parallel file system). Snapshots are keyed by `(rank, step, era)`
/// and never overwritten: a survivor replaying past a boundary writes
/// a *new-era* record there, so a survivor that runs later in the
/// schedule can still read the old era's complete pool — overwriting
/// in place would hand it the wrong era. Writes are charged to the
/// writer's virtual clock by [`ThreadComm::checkpoint_write`].
#[derive(Debug, Clone, Default)]
pub struct CheckpointStore {
    inner: Arc<Mutex<CheckpointMap>>,
}

/// Records keyed by `(rank, step, era)`.
type CheckpointMap = HashMap<(usize, usize, usize), CheckpointRecord>;

impl CheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Persist `rank`'s snapshot for its `(step, era)` slot.
    pub fn write(&self, rank: usize, record: CheckpointRecord) {
        self.inner
            .lock()
            .unwrap()
            .insert((rank, record.step, record.era), record);
    }

    /// All snapshots taken at `step` in `era`, sorted by rank. The
    /// reader names the era it recovered in — selecting "newest" would
    /// pick up next-era records from survivors that ran earlier in the
    /// schedule and already replayed past this boundary.
    ///
    /// Safe for survivors to call during recovery: every era-`era`
    /// participant of the failure-agreement exchange wrote its
    /// boundary snapshot before sending its mask, and the dying rank
    /// wrote its snapshot before its crash posted the poison marker. A
    /// survivor reads only after receiving all of those, and a receive
    /// runs only after the send it consumes, so every relevant write
    /// precedes the read in the run's schedule.
    pub fn read_step(&self, step: usize, era: usize) -> Vec<(usize, CheckpointRecord)> {
        let mut v: Vec<(usize, CheckpointRecord)> = self
            .inner
            .lock()
            .unwrap()
            .iter()
            .filter(|(&(_, st, er), _)| st == step && er == era)
            .map(|(&(rank, _, _), r)| (rank, r.clone()))
            .collect();
        v.sort_by_key(|&(rank, _)| rank);
        v
    }

    /// Number of snapshots currently held (for tests).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// True when no snapshot has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ThreadComm {
    /// Write a checkpoint record to stable storage, charging the
    /// modelled transfer cost (`α + β·bytes`, as if shipped to the
    /// file system over the interconnect) to this rank's clock and
    /// `ckpt_time` counter.
    pub fn checkpoint_write(&mut self, store: &CheckpointStore, record: CheckpointRecord) {
        let cost = self
            .machine()
            .message_time(Message::wire_bytes(record.data.len()));
        self.charge_checkpoint(cost);
        store.write(self.rank(), record);
    }
}

/// The instruction a driver receives from [`Supervisor::boundary`]
/// when ranks died: roll back and repartition.
#[derive(Debug, Clone)]
pub struct Recovery {
    /// Step to resume from: the last coordinated checkpoint. `None`
    /// means no checkpoint exists yet — reinitialise from scratch.
    pub from_step: Option<usize>,
    /// The pooled checkpoint records at `from_step`, sorted by the
    /// writing rank (covers the whole domain, dead ranks included).
    pub records: Vec<(usize, CheckpointRecord)>,
}

/// Reject a checkpoint policy no driver can honour: a zero interval, or
/// a plan that crashes ranks on a run that never checkpoints (the
/// survivors would have nothing to roll back to). Drivers call this
/// before any rank starts; the message names the problem.
pub fn check_policy(plan: &FaultPlan, interval: Option<usize>) -> Result<(), String> {
    match interval {
        Some(0) => Err("checkpoint_interval must be >= 1".into()),
        None if !plan.crashes.is_empty() => Err(
            "a fault plan that crashes ranks needs a checkpoint_interval to recover from".into(),
        ),
        _ => Ok(()),
    }
}

/// Per-rank driver-side coordinator for checkpointing, recovery and
/// collectives.
///
/// Drivers construct one per rank, call [`Supervisor::boundary`] at
/// every step boundary, react to the returned [`Recovery`] by
/// rebuilding their shard from the pooled records over the shrunken
/// [`Supervisor::active`] set, and run their collectives through
/// [`Supervisor::broadcast`] and [`Supervisor::gather_varied`].
#[derive(Debug)]
pub struct Supervisor {
    interval: Option<usize>,
    store: CheckpointStore,
    plan_crashes: Vec<(usize, usize)>,
    /// The live ranks, ascending: the run's shared roster until the
    /// first death, then this rank's own shrunken copy.
    active: Rc<[usize]>,
    /// The full roster's schedules, used while no rank has died.
    engine: CollectiveEngine,
    last_ckpt: Option<usize>,
    era: usize,
    mode: CheckpointMode,
    /// Previous snapshot `(lo, data)` for the incremental diff.
    prev: Option<(usize, Vec<f64>)>,
    /// Virtual time at which the in-flight background write lands.
    drain_deadline: f64,
}

impl Supervisor {
    /// A supervisor for `comm`'s run, checkpointing every `interval`
    /// steps (never, for `None`) into `store` with the original
    /// synchronous scheme.
    pub fn new(comm: &ThreadComm, interval: Option<usize>, store: &CheckpointStore) -> Self {
        Self::new_with_mode(comm, interval, store, CheckpointMode::Sync)
    }

    /// A supervisor with an explicit [`CheckpointMode`].
    ///
    /// # Panics
    /// Panics on `Some(0)`; see [`check_policy`].
    pub fn new_with_mode(
        comm: &ThreadComm,
        interval: Option<usize>,
        store: &CheckpointStore,
        mode: CheckpointMode,
    ) -> Self {
        assert!(interval != Some(0), "checkpoint interval must be >= 1");
        Supervisor {
            interval,
            store: store.clone(),
            plan_crashes: comm.fault_plan().crashes.clone(),
            active: comm.roster(),
            engine: CollectiveEngine::for_machine(comm.machine(), comm.size()),
            last_ckpt: None,
            era: 0,
            mode,
            prev: None,
            drain_deadline: 0.0,
        }
    }

    /// The configured checkpoint mode.
    pub fn mode(&self) -> CheckpointMode {
        self.mode
    }

    /// Charge any not-yet-overlapped remainder of the in-flight
    /// background checkpoint write. No-op under [`CheckpointMode::Sync`]
    /// or when compute since initiation already covered the drain.
    pub fn flush(&mut self, comm: &mut ThreadComm) {
        let due = self.drain_deadline - comm.now();
        if due > 0.0 {
            comm.charge_checkpoint(due);
        }
        self.drain_deadline = 0.0;
    }

    /// Ranks still alive, sorted ascending. Identical on every
    /// survivor after each boundary — this list (not the original
    /// size) is what drivers partition over.
    pub fn active(&self) -> &[usize] {
        &self.active
    }

    /// The step of the most recent coordinated checkpoint.
    pub fn last_checkpoint(&self) -> Option<usize> {
        self.last_ckpt
    }

    /// Dense index of `rank` within the active list.
    pub fn dense_index(&self, rank: usize) -> usize {
        self.active
            .iter()
            .position(|&r| r == rank)
            .expect("rank must be active")
    }

    fn crash_step_of(&self, rank: usize) -> Option<usize> {
        self.plan_crashes
            .iter()
            .filter(|&&(r, _)| r == rank)
            .map(|&(_, s)| s)
            .min()
    }

    fn any_crash_at(&self, step: usize) -> bool {
        self.plan_crashes.iter().any(|&(_, s)| s == step)
    }

    /// One step boundary: checkpoint if due, inject this rank's
    /// scheduled crash, and — at boundaries where the plan schedules a
    /// death — run the failure-agreement exchange. Returns a
    /// [`Recovery`] when ranks died and the driver must roll back.
    ///
    /// `snapshot` produces `(lo, data)` for this rank's shard; it is
    /// only invoked when a checkpoint is due at this boundary.
    pub async fn boundary(
        &mut self,
        comm: &mut ThreadComm,
        step: usize,
        snapshot: impl FnOnce() -> (usize, Vec<f64>),
    ) -> Option<Recovery> {
        // Checkpoint before the crash point: a rank dying at this
        // boundary still contributes its shard to the recovery pool.
        if self.interval.is_some_and(|k| step % k == 0) {
            let (lo, data) = snapshot();
            let era = self.era;
            match self.mode {
                CheckpointMode::Sync => {
                    comm.checkpoint_write(
                        &self.store,
                        CheckpointRecord {
                            step,
                            era,
                            lo,
                            data,
                        },
                    );
                }
                CheckpointMode::AsyncIncremental => {
                    // The previous background write must land before
                    // the next one starts (one outstanding write).
                    self.flush(comm);
                    let dirty = dirty_values(self.prev.as_ref(), lo, &data);
                    let init = comm.machine().message_time(Message::wire_bytes(0));
                    comm.charge_checkpoint(init);
                    let drain = comm.machine().message_time(Message::wire_bytes(dirty));
                    self.drain_deadline = comm.now() + drain;
                    // Stable storage gets the FULL record either way:
                    // the diff moves cost, never data.
                    self.prev = Some((lo, data.clone()));
                    self.store.write(
                        comm.rank(),
                        CheckpointRecord {
                            step,
                            era,
                            lo,
                            data,
                        },
                    );
                }
            }
            self.last_ckpt = Some(step);
        }
        comm.fault_step(step);
        if !self.any_crash_at(step) {
            return None;
        }
        // Stable storage must be consistent before survivors read the
        // recovery pool: settle the in-flight background write.
        self.flush(comm);
        let newly_dead = self.agree_on_dead(comm, step).await;
        if newly_dead.is_empty() {
            return None;
        }
        self.active = self
            .active
            .iter()
            .copied()
            .filter(|r| !newly_dead.contains(r))
            .collect();
        // Read the pool of the era we are leaving, *then* bump the era
        // so replayed boundaries deposit fresh records alongside it.
        let records = match self.last_ckpt {
            Some(s) => self.store.read_step(s, self.era),
            None => Vec::new(),
        };
        self.era += 1;
        // Repartitioning moves shard boundaries: the next incremental
        // diff would compare unrelated offsets, so force a full write.
        self.prev = None;
        Some(Recovery {
            from_step: self.last_ckpt,
            records,
        })
    }

    /// Broadcast `data` from `root` to every active rank. While the full
    /// roster is alive this is the machine's [`CollectiveEngine`]
    /// schedule; after a death, the active-list fan-out.
    pub async fn broadcast(&self, comm: &mut ThreadComm, root: usize, data: &mut [f64]) {
        if self.active.len() == comm.size() {
            self.engine.broadcast(comm, root, data).await;
        } else {
            let out = broadcast_active(comm, &self.active, root, data).await;
            data.copy_from_slice(&out);
        }
    }

    /// Gather every active rank's `data` to `root` in rank order:
    /// `Some(parts)` on `root`, `None` elsewhere. Same schedule rule as
    /// [`Supervisor::broadcast`].
    pub async fn gather_varied(
        &self,
        comm: &mut ThreadComm,
        root: usize,
        data: &[f64],
    ) -> Option<Vec<Vec<f64>>> {
        if self.active.len() == comm.size() {
            self.engine.gather_varied(comm, root, data).await
        } else {
            let parts = gather_active(comm, &self.active, root, data).await;
            (comm.rank() == root).then_some(parts)
        }
    }

    /// Flat failure-agreement exchange at a crash boundary. Every
    /// survivor (a) consumes the poison marker of each active rank
    /// whose scheduled death is due, directly observing its death
    /// clock, then (b) exchanges death bitmasks with every expected
    /// survivor and unions them. The result — identical on all
    /// survivors — is the list of ranks to bury. Only deaths scheduled
    /// at or before `step` are reported, so a poison marker consumed
    /// early from a rank that ran ahead in the schedule never leaks
    /// into an earlier boundary's agreement.
    async fn agree_on_dead(&self, comm: &mut ThreadComm, step: usize) -> Vec<usize> {
        let me = comm.rank();
        let size = comm.size();
        let due: Vec<usize> = self
            .active
            .iter()
            .copied()
            .filter(|&r| r != me && matches!(self.crash_step_of(r), Some(c) if c <= step))
            .collect();
        let expected: Vec<usize> = self
            .active
            .iter()
            .copied()
            .filter(|&r| r != me && !due.contains(&r))
            .collect();
        let mut dead = vec![false; size];
        for &d in &due {
            // The dying rank sends nothing at this boundary; only its
            // poison marker can resolve this receive.
            if comm.recv_ft(d, AGREE_TAG).await.is_err() {
                dead[d] = true;
            }
        }
        let mask: Vec<f64> = dead.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
        // `alive` — the identical-on-every-survivor exchange roster:
        // every active rank whose scheduled death is not due, self
        // included. (`expected` is `alive` minus self.)
        let alive: Vec<usize> = self
            .active
            .iter()
            .copied()
            .filter(|&r| !matches!(self.crash_step_of(r), Some(c) if c <= step) || r == me)
            .collect();
        if alive.len() >= AGREE_HIER_THRESHOLD {
            let union = hierarchical_union(comm, &alive, &mask).await;
            for (i, v) in union.iter().enumerate() {
                if *v != 0.0 {
                    dead[i] = true;
                }
            }
        } else {
            for &r in &expected {
                comm.send(r, AGREE_TAG, &mask);
            }
            for &r in &expected {
                // Plain receive: an expected survivor always sends its
                // mask before it can die (its scheduled crash, if any,
                // is at a later boundary). `recv_ft` would be wrong
                // here — it resolves early-observed poison from a rank
                // that ran ahead in the schedule, whose *future* death
                // must not surface yet.
                let theirs = comm.recv(r, AGREE_TAG).await;
                for (i, v) in theirs.iter().enumerate() {
                    if *v != 0.0 {
                        dead[i] = true;
                    }
                }
            }
        }
        (0..size).filter(|&r| dead[r]).collect()
    }
}

/// Two-level union of per-rank masks over `roster` (sorted, identical
/// on every participant, self included): groups of [`AGREE_GROUP`]
/// consecutive roster entries ship their masks to the group's first
/// rank, the leaders exchange group unions pairwise, and the result
/// fans back out. Every relay is a guaranteed survivor, so no
/// contribution can vanish. Returns the element-wise union on every
/// participant.
async fn hierarchical_union(comm: &mut ThreadComm, roster: &[usize], mask: &[f64]) -> Vec<f64> {
    let me = comm.rank();
    let mi = roster
        .iter()
        .position(|&r| r == me)
        .expect("caller must be on the roster");
    let gi = mi / AGREE_GROUP;
    let gstart = gi * AGREE_GROUP;
    let gend = (gstart + AGREE_GROUP).min(roster.len());
    let leader = roster[gstart];
    let mut acc = mask.to_vec();
    let or_into = |acc: &mut [f64], other: &[f64]| {
        for (a, b) in acc.iter_mut().zip(other) {
            if *b != 0.0 {
                *a = 1.0;
            }
        }
    };
    if me != leader {
        comm.send(leader, AGREE_UP_TAG, mask);
        return comm.recv(leader, AGREE_DOWN_TAG).await;
    }
    for &member in &roster[gstart + 1..gend] {
        let theirs = comm.recv(member, AGREE_UP_TAG).await;
        or_into(&mut acc, &theirs);
    }
    let n_groups = roster.len().div_ceil(AGREE_GROUP);
    let group_union = acc.clone();
    for og in 0..n_groups {
        if og != gi {
            comm.send(roster[og * AGREE_GROUP], AGREE_X_TAG, &group_union);
        }
    }
    for og in 0..n_groups {
        if og != gi {
            let theirs = comm.recv(roster[og * AGREE_GROUP], AGREE_X_TAG).await;
            or_into(&mut acc, &theirs);
        }
    }
    for &member in &roster[gstart + 1..gend] {
        comm.send(member, AGREE_DOWN_TAG, &acc);
    }
    acc
}

/// Count the values charged to the wire by an incremental checkpoint:
/// the data diffed against the previous snapshot in [`DIRTY_CHUNK`]
/// chunks, falling back to a full write when there is no comparable
/// snapshot (first write, post-recovery, moved offset, resized shard).
fn dirty_values(prev: Option<&(usize, Vec<f64>)>, lo: usize, data: &[f64]) -> usize {
    match prev {
        Some((plo, pdata)) if *plo == lo && pdata.len() == data.len() => {
            let mut dirty = 0;
            let mut i = 0;
            while i < data.len() {
                let end = (i + DIRTY_CHUNK).min(data.len());
                if data[i..end]
                    .iter()
                    .zip(&pdata[i..end])
                    .any(|(a, b)| a.to_bits() != b.to_bits())
                {
                    dirty += end - i;
                }
                i = end;
            }
            dirty
        }
        _ => data.len(),
    }
}

/// Active-set size at which [`broadcast_active`] switches from the
/// linear fan-out to a binomial tree over dense indices.
const BCAST_TREE_THRESHOLD: usize = 64;

/// Broadcast `data` from `root` to every rank in `active`
/// (deterministic order). Survivor-roster collective: the engine's
/// schedules assume the full communicator, so this one runs over dense
/// active-list indices instead — linear below [`BCAST_TREE_THRESHOLD`]
/// ranks, a binomial tree at or above (O(log s) depth instead of an
/// O(s) root serial fan-out).
async fn broadcast_active(
    comm: &mut ThreadComm,
    active: &[usize],
    root: usize,
    data: &[f64],
) -> Vec<f64> {
    let n = active.len();
    if n < BCAST_TREE_THRESHOLD {
        return if comm.rank() == root {
            for &r in active {
                if r != root {
                    comm.send(r, BCAST_TAG, data);
                }
            }
            data.to_vec()
        } else {
            comm.recv(root, BCAST_TAG).await
        };
    }
    let me = comm.rank();
    let mi = active
        .iter()
        .position(|&r| r == me)
        .expect("caller must be active");
    let ri = active
        .iter()
        .position(|&r| r == root)
        .expect("root must be active");
    let vi = (mi + n - ri) % n;
    let mut out = data.to_vec();
    let mut mask = 1usize;
    while mask < n {
        if vi < mask {
            let vdest = vi + mask;
            if vdest < n {
                comm.send(active[(vdest + ri) % n], BCAST_TAG, &out);
            }
        } else if vi < 2 * mask {
            out = comm.recv(active[(vi - mask + ri) % n], BCAST_TAG).await;
        }
        mask <<= 1;
    }
    out
}

/// Gather each active rank's `data` to `root` (linear, in active-list
/// order). Returns the per-rank payloads on `root`, empty elsewhere.
async fn gather_active(
    comm: &mut ThreadComm,
    active: &[usize],
    root: usize,
    data: &[f64],
) -> Vec<Vec<f64>> {
    if comm.rank() == root {
        let mut parts = Vec::with_capacity(active.len());
        for &r in active {
            parts.push(if r == root {
                data.to_vec()
            } else {
                comm.recv(r, GATHER_TAG).await
            });
        }
        parts
    } else {
        comm.send(root, GATHER_TAG, data);
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::machine::Machine;
    use crate::thread_comm::{run_spmd, run_spmd_ft};

    #[test]
    fn store_keeps_history_and_filters_by_step_and_era() {
        let store = CheckpointStore::new();
        store.write(
            0,
            CheckpointRecord {
                step: 0,
                era: 0,
                lo: 0,
                data: vec![1.0],
            },
        );
        store.write(
            1,
            CheckpointRecord {
                step: 0,
                era: 0,
                lo: 4,
                data: vec![2.0],
            },
        );
        store.write(
            0,
            CheckpointRecord {
                step: 8,
                era: 0,
                lo: 0,
                data: vec![3.0],
            },
        );
        assert_eq!(store.len(), 3, "history is kept, never overwritten");
        let at8 = store.read_step(8, 0);
        assert_eq!(at8.len(), 1);
        assert_eq!(at8[0].0, 0);
        assert_eq!(at8[0].1.data, vec![3.0]);
        let at0 = store.read_step(0, 0);
        assert_eq!(at0.len(), 2, "both ranks' step-0 records survive");
        assert_eq!((at0[0].0, at0[1].0), (0, 1));
        assert!(store.read_step(0, 1).is_empty(), "era filter is exact");
    }

    #[test]
    fn checkpoint_write_charges_virtual_time() {
        let store = CheckpointStore::new();
        let st = store.clone();
        let r = run_spmd(1, Machine::cluster2002(), async move |comm| {
            comm.checkpoint_write(
                &st,
                CheckpointRecord {
                    step: 0,
                    era: 0,
                    lo: 0,
                    data: vec![0.0; 100],
                },
            );
            comm.now()
        })
        .unwrap();
        let expect = Machine::cluster2002().message_time(Message::wire_bytes(100));
        assert!((r[0].value - expect).abs() < 1e-15);
        assert!((r[0].stats.ckpt_time - expect).abs() < 1e-15);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn supervisor_checkpoints_on_interval_only() {
        let store = CheckpointStore::new();
        let st = store.clone();
        let out = run_spmd_ft(2, Machine::ideal(), FaultPlan::new(0), async move |comm| {
            let mut sup = Supervisor::new(comm, Some(4), &st);
            let mut snaps = 0;
            for step in 0..10 {
                let r = sup
                    .boundary(comm, step, || {
                        snaps += 1;
                        (comm_rank_lo(step), vec![step as f64])
                    })
                    .await;
                assert!(r.is_none(), "no crashes scheduled");
            }
            (snaps, sup.last_checkpoint())
        })
        .unwrap();
        for s in &out.survivors {
            assert_eq!(s.value.0, 3, "steps 0, 4, 8");
            assert_eq!(s.value.1, Some(8));
        }
    }

    #[test]
    fn no_interval_never_checkpoints_and_needs_no_crashes() {
        let store = CheckpointStore::new();
        let st = store.clone();
        let out = run_spmd_ft(2, Machine::ideal(), FaultPlan::new(0), async move |comm| {
            let mut sup = Supervisor::new(comm, None, &st);
            for step in 0..10 {
                assert!(sup.boundary(comm, step, || unreachable!()).await.is_none());
            }
            sup.last_checkpoint()
        })
        .unwrap();
        assert!(out.survivors.iter().all(|s| s.value.is_none()));
        assert!(store.is_empty());
        let crash = FaultPlan::new(0).with_crash(1, 3);
        assert!(check_policy(&crash, None).is_err());
        assert!(check_policy(&crash, Some(2)).is_ok());
        assert!(check_policy(&FaultPlan::new(0).with_drops(0.1), None).is_ok());
        assert!(check_policy(&FaultPlan::new(0), Some(0)).is_err());
    }

    fn comm_rank_lo(step: usize) -> usize {
        step // arbitrary payload for the snapshot closure
    }

    #[test]
    fn single_crash_is_agreed_and_repartitioned() {
        let store = CheckpointStore::new();
        let st = store.clone();
        let plan = FaultPlan::new(0).with_crash(1, 5);
        let out = run_spmd_ft(4, Machine::cluster2002(), plan, async move |comm| {
            let me = comm.rank() as f64;
            let mut sup = Supervisor::new(comm, Some(4), &st);
            let mut recovered_at = None;
            let mut step = 0;
            while step < 10 {
                if let Some(rec) = sup.boundary(comm, step, || (0, vec![me])).await {
                    recovered_at = Some((step, rec.from_step, rec.records.len()));
                    step = rec.from_step.expect("checkpoint exists");
                    continue;
                }
                comm.compute(1e-4);
                step += 1;
            }
            (recovered_at, sup.active().to_vec())
        })
        .unwrap();
        assert_eq!(out.crashed.len(), 1);
        assert_eq!(out.survivors.len(), 3);
        for s in &out.survivors {
            let (rec, active) = &s.value;
            // All survivors detected the death at step 5, rolled back
            // to the step-4 checkpoint, and saw all 4 shards pooled.
            assert_eq!(*rec, Some((5, Some(4), 4)));
            assert_eq!(active, &vec![0, 2, 3]);
        }
        // Deterministic agreement: identical virtual clocks per rank
        // across replays of the same plan.
        let t: Vec<u64> = out.survivors.iter().map(|s| s.time.to_bits()).collect();
        let st2 = store.clone();
        let plan2 = FaultPlan::new(0).with_crash(1, 5);
        let out2 = run_spmd_ft(4, Machine::cluster2002(), plan2, async move |comm| {
            let me = comm.rank() as f64;
            let mut sup = Supervisor::new(comm, Some(4), &st2);
            let mut step = 0;
            while step < 10 {
                if let Some(rec) = sup.boundary(comm, step, || (0, vec![me])).await {
                    step = rec.from_step.unwrap();
                    continue;
                }
                comm.compute(1e-4);
                step += 1;
            }
            sup.active().to_vec()
        })
        .unwrap();
        let t2: Vec<u64> = out2.survivors.iter().map(|s| s.time.to_bits()).collect();
        assert_eq!(t, t2, "recovery makespan must replay bit-identically");
    }

    #[test]
    fn two_crashes_at_different_steps() {
        let store = CheckpointStore::new();
        let st = store.clone();
        let plan = FaultPlan::new(0).with_crash(3, 2).with_crash(1, 6);
        let out = run_spmd_ft(4, Machine::cluster2002(), plan, async move |comm| {
            let mut sup = Supervisor::new(comm, Some(2), &st);
            let mut step = 0;
            while step < 8 {
                if let Some(rec) = sup.boundary(comm, step, || (0, vec![0.0])).await {
                    step = rec.from_step.unwrap();
                    continue;
                }
                comm.compute(1e-4);
                step += 1;
            }
            sup.active().to_vec()
        })
        .unwrap();
        assert_eq!(out.crashed.len(), 2);
        assert_eq!(out.survivors.len(), 2);
        for s in &out.survivors {
            assert_eq!(s.value, vec![0, 2]);
        }
    }

    #[test]
    fn async_incremental_charges_less_than_sync_and_recovers_identically() {
        // Fault-free: clean data after the first write → later async
        // boundaries charge only initiation (+ the settle of a zero…
        // actually a 16-byte-envelope drain), far below the sync full
        // write.
        let run = |mode: CheckpointMode| {
            let store = CheckpointStore::new();
            let st = store.clone();
            let out = run_spmd_ft(
                2,
                Machine::cluster2002(),
                FaultPlan::new(0),
                async move |comm| {
                    let mut sup = Supervisor::new_with_mode(comm, Some(1), &st, mode);
                    let data = vec![1.25; 4096];
                    for step in 0..8 {
                        sup.boundary(comm, step, || (0, data.clone())).await;
                        comm.compute(1e-3);
                    }
                    sup.flush(comm);
                    comm.stats().ckpt_time
                },
            )
            .unwrap();
            out.survivors[0].value
        };
        let sync = run(CheckpointMode::Sync);
        let async_ = run(CheckpointMode::AsyncIncremental);
        assert!(
            async_ < sync * 0.25,
            "async incremental ckpt_time {async_} should be well below sync {sync}"
        );

        // With a crash: recovery under async mode replays the same
        // active set and pools a full record set.
        let store = CheckpointStore::new();
        let st = store.clone();
        let plan = FaultPlan::new(0).with_crash(1, 5);
        let out = run_spmd_ft(4, Machine::cluster2002(), plan, async move |comm| {
            let me = comm.rank() as f64;
            let mut sup =
                Supervisor::new_with_mode(comm, Some(4), &st, CheckpointMode::AsyncIncremental);
            let mut recovered = None;
            let mut step = 0;
            while step < 10 {
                if let Some(rec) = sup.boundary(comm, step, || (0, vec![me; 64])).await {
                    recovered = Some((step, rec.from_step, rec.records.len()));
                    step = rec.from_step.expect("checkpoint exists");
                    continue;
                }
                comm.compute(1e-4);
                step += 1;
            }
            sup.flush(comm);
            (recovered, sup.active().to_vec())
        })
        .unwrap();
        assert_eq!(out.survivors.len(), 3);
        for s in &out.survivors {
            assert_eq!(s.value.0, Some((5, Some(4), 4)));
            assert_eq!(s.value.1, vec![0, 2, 3]);
        }
    }

    #[test]
    fn dirty_diff_counts_chunks_and_falls_back_to_full() {
        let a = vec![1.0; 200];
        assert_eq!(dirty_values(None, 0, &a), 200, "first write is full");
        let prev = (0usize, a.clone());
        assert_eq!(dirty_values(Some(&prev), 0, &a), 0, "clean shard is free");
        assert_eq!(
            dirty_values(Some(&prev), 8, &a),
            200,
            "moved offset forces full"
        );
        let mut b = a.clone();
        b[70] = 2.0; // dirties the second 64-chunk only
        assert_eq!(dirty_values(Some(&prev), 0, &b), 64);
        b[0] = 3.0; // and the first
        assert_eq!(dirty_values(Some(&prev), 0, &b), 128);
    }

    #[test]
    fn hierarchical_agreement_matches_flat_outcome_at_scale() {
        // 72 survivors ≥ AGREE_HIER_THRESHOLD → the two-level union
        // path runs; every survivor must still agree on the dead set.
        let store = CheckpointStore::new();
        let st = store.clone();
        let plan = FaultPlan::new(0).with_crash(17, 3).with_crash(40, 3);
        let out = run_spmd_ft(72, Machine::cluster2002(), plan, async move |comm| {
            let mut sup = Supervisor::new(comm, Some(2), &st);
            let mut step = 0;
            while step < 6 {
                if let Some(rec) = sup.boundary(comm, step, || (0, vec![0.0])).await {
                    step = rec.from_step.unwrap();
                    continue;
                }
                comm.compute(1e-5);
                step += 1;
            }
            sup.active().len()
        })
        .unwrap();
        assert_eq!(out.crashed.len(), 2);
        assert_eq!(out.survivors.len(), 70);
        for s in &out.survivors {
            assert_eq!(s.value, 70, "all survivors agree on both deaths");
        }
    }

    #[test]
    fn broadcast_active_tree_delivers_above_threshold() {
        let p = 80;
        let r = run_spmd(p, Machine::cluster2002(), async move |comm| {
            // Roster skips rank 7 to exercise the dense-index mapping.
            let active: Vec<usize> = (0..p).filter(|&r| r != 7).collect();
            if comm.rank() == 7 {
                return vec![];
            }
            let data = if comm.rank() == 3 {
                vec![42.0, -1.0]
            } else {
                vec![]
            };
            broadcast_active(comm, &active, 3, &data).await
        })
        .unwrap();
        for res in &r {
            if res.rank != 7 {
                assert_eq!(res.value, vec![42.0, -1.0]);
            }
        }
    }

    #[test]
    fn subgroup_collectives_cover_active_set() {
        let r = run_spmd(4, Machine::cluster2002(), async |comm| {
            let active = [0usize, 2, 3]; // rank 1 sits out
            if comm.rank() == 1 {
                return (vec![], vec![]);
            }
            let got = broadcast_active(comm, &active, 0, &[7.5]).await;
            let gathered = gather_active(comm, &active, 0, &[comm.rank() as f64]).await;
            (got, gathered.into_iter().flatten().collect::<Vec<f64>>())
        })
        .unwrap();
        assert_eq!(r[0].value.0, vec![7.5]);
        assert_eq!(r[2].value.0, vec![7.5]);
        assert_eq!(r[3].value.0, vec![7.5]);
        assert_eq!(r[0].value.1, vec![0.0, 2.0, 3.0]);
        assert!(r[2].value.1.is_empty());
    }
}
