//! # mdp-cluster — a message-passing substrate with a virtual-time model
//!
//! The ICPP 2002 evaluation this workspace reproduces ran MPI programs on
//! a distributed-memory multiprocessor. This crate recreates that
//! programming model from scratch:
//!
//! * **SPMD execution** — [`run_spmd_ft`] runs `p` ranks under a
//!   [`FaultPlan`], each holding a [`ThreadComm`]; the same `async`
//!   closure runs on every rank exactly as an MPI program would
//!   (`rank()`, `size()`, `send`, `recv(..).await`, collectives).
//!   [`run_spmd`] is the same run under the empty plan. Every rank is a
//!   task on the calling thread: a FIFO scheduler polls the ready ranks,
//!   and a receive on an empty inbox yields to the next one.
//! * **Typed point-to-point messages** through one inbox per rank with
//!   selective receive by `(source, tag)` — the MPI envelope
//!   discipline. A receive that no send can ever satisfy fails at once
//!   with [`ClusterError::Deadlock`].
//! * **Collectives** through the [`CollectiveEngine`] — a broadcast and
//!   a variable-length gather, each built from point-to-point sends: a
//!   binomial tree and a linear gather on a uniform fabric, two-level
//!   group-leader schedules on a cluster of SMP nodes. Neither computes
//!   on the data, so the choice never moves a bit of a result. A
//!   reduction gathers the parts to one rank, folds them there in a
//!   fixed order and broadcasts the result, as every driver does.
//! * **A virtual-time execution model** — the substitution for real
//!   hardware (see DESIGN.md). Each rank owns a virtual clock; computation
//!   advances it explicitly via [`ThreadComm::compute`], and every
//!   message advances it by the Hockney cost `α + β·bytes` of the chosen
//!   [`Machine`]. Message timestamps travel with the payload, so the
//!   virtual time of a run is **deterministic** — independent of the
//!   order in which ranks run, and therefore reproducible on any machine.
//!
//! The modelled execution time of a run is the `max` over ranks of each
//! rank's clock at finish; parallel speedup reported by the benches is
//! `T_model(1) / T_model(p)`, exactly the quantity the paper measures,
//! with communication structure — not host core count — determining the
//! curve.
//!
//! ```
//! use mdp_cluster::{run_spmd, CollectiveEngine, Machine};
//!
//! // Sum 0..400 split over 4 ranks, with a modelled 2002-era cluster:
//! // gather the partial sums to rank 0, fold them there in rank order,
//! // broadcast the total.
//! let results = run_spmd(4, Machine::cluster2002(), async |comm| {
//!     let (lo, hi) = mdp_cluster::partition::block_range(400, comm.size(), comm.rank());
//!     let local: f64 = (lo..hi).map(|i| i as f64).sum();
//!     comm.compute(1e-9 * (hi - lo) as f64);
//!     let engine = CollectiveEngine::flat();
//!     let parts = engine.gather_varied(comm, 0, &[local]).await;
//!     let mut total = [parts.map_or(0.0, |parts| parts.iter().flatten().sum())];
//!     engine.broadcast(comm, 0, &mut total).await;
//!     total[0]
//! })
//! .unwrap();
//! assert!(results.iter().all(|r| r.value == 79800.0));
//! ```

pub mod checkpoint;
mod collectives;
pub mod engine;
pub mod error;
pub mod fault;
pub mod machine;
pub mod message;
pub mod partition;
pub mod stats;
pub mod thread_comm;
pub mod topology;
pub mod trace;

pub use checkpoint::{
    check_policy, CheckpointMode, CheckpointRecord, CheckpointStore, Recovery, Supervisor,
};
pub use engine::{CollectiveAlgo, CollectiveEngine};
pub use error::ClusterError;
pub use fault::{FaultPlan, InjectedCrash};
pub use machine::{CollectiveChoice, Machine};
pub use message::Tag;
pub use stats::{CommStats, SpmdResult, TimeModel};
pub use thread_comm::{
    run_spmd, run_spmd_ft, run_spmd_traced, CrashInfo, FtRunOutcome, ThreadComm,
};
pub use topology::TopologyKind;
