//! Chaos suite: randomized seeded [`FaultPlan`]s over the comm layer.
//!
//! Every property draws a random fault schedule (drops, delays,
//! crashes) and asserts the run either completes with the right answer
//! — bit-identically across replays of the same plan — or fails with a
//! clean typed error. Nothing may hang and nothing may return a wrong
//! number: determinism under faults is the contract the recovery
//! protocol is built on.

use mdp_cluster::{run_spmd_ft, CheckpointStore, FaultPlan, Machine, Supervisor};
use proptest::prelude::*;

/// A 4-rank ring exchange: every rank sends 8 tagged values around the
/// ring and sums what it receives. Returns `(sum, final clock)`.
fn ring_run(plan: FaultPlan) -> Vec<(f64, f64)> {
    run_spmd_ft(4, Machine::cluster2002(), plan, async |comm| {
        let rank = comm.rank();
        let next = (rank + 1) % 4;
        let prev = (rank + 3) % 4;
        let mut acc = 0.0;
        for round in 0..8 {
            comm.send(next, 1, &[(rank * 8 + round) as f64]);
            acc += comm.recv(prev, 1).await[0];
        }
        (acc, comm.now())
    })
    .unwrap()
    .survivors
    .into_iter()
    .map(|r| r.value)
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn ring_survives_random_drops_and_delays(
        seed in 0u64..1_000_000,
        drop_pct in 0u32..60,
        delay_pct in 0u32..60,
    ) {
        // A generous retry budget: at 59% drop rate the default 8
        // retries still fail ~1% of messages (0.59⁹), which is the
        // *correct* clean failure — but this property asserts delivery,
        // so give the sender room (0.59³¹ ≈ 1e-7).
        let plan = FaultPlan::new(seed)
            .with_drops(drop_pct as f64 / 100.0)
            .with_delays(delay_pct as f64 / 100.0, 1e-3)
            .with_max_retries(30);
        let a = ring_run(plan.clone());
        let b = ring_run(plan);
        prop_assert_eq!(a.len(), 4);
        for (rank, (&(sum_a, t_a), &(sum_b, t_b))) in a.iter().zip(&b).enumerate() {
            // Reliable delivery: every payload arrives despite drops.
            let prev = (rank + 3) % 4;
            let expect: f64 = (0..8).map(|round| (prev * 8 + round) as f64).sum();
            prop_assert_eq!(sum_a.to_bits(), expect.to_bits(), "rank {}", rank);
            // Replay determinism: identical values and virtual clocks.
            prop_assert_eq!(sum_a.to_bits(), sum_b.to_bits());
            prop_assert_eq!(t_a.to_bits(), t_b.to_bits(), "rank {} clock", rank);
        }
    }

    #[test]
    fn random_crash_schedules_recover_or_fail_cleanly(
        seed in 0u64..1_000_000,
        victims in 1usize..5,
        first_step in 0usize..10,
    ) {
        let p = 4usize;
        let steps = 12usize;
        // Derive a deterministic victim set from the seed: `victims`
        // distinct ranks crashing at staggered boundaries.
        let mut plan = FaultPlan::new(seed);
        let mut expected_active: Vec<usize> = (0..p).collect();
        for v in 0..victims {
            let rank = (seed as usize + v * 7) % p;
            let step = (first_step + v * 3) % steps;
            if expected_active.contains(&rank) {
                plan = plan.with_crash(rank, step);
                expected_active.retain(|&r| r != rank);
            }
        }
        let store = CheckpointStore::new();
        let expected = expected_active.clone();
        let out = run_spmd_ft(p, Machine::cluster2002(), plan, async move |comm| {
            let mut sup = Supervisor::new(comm, Some(3), &store);
            let me = comm.rank() as f64;
            let mut step = 0;
            while step < steps {
                if let Some(rec) = sup.boundary(comm, step, || (0, vec![me])).await {
                    step = rec.from_step.expect("boundary 0 checkpoints");
                    continue;
                }
                comm.compute(1e-4);
                step += 1;
            }
            sup.active().to_vec()
        });
        if expected_active.is_empty() {
            // Everyone died: a clean typed failure, not a hang.
            let err = out.expect_err("all-crash run must fail");
            prop_assert!(
                err.to_string().contains("injected crash"),
                "unexpected error: {}", err
            );
        } else {
            let out = out.expect("survivors must finish");
            prop_assert_eq!(
                out.survivors.len() + out.crashed.len(), p,
                "every rank accounted for"
            );
            for s in &out.survivors {
                prop_assert_eq!(s.value.clone(), expected.clone(), "agreed active set");
            }
        }
    }

    #[test]
    fn crashes_under_message_chaos_still_agree(
        seed in 0u64..1_000_000,
        crash_rank in 0usize..4,
        crash_step in 0usize..8,
    ) {
        // Drops and delays active *and* a rank dying: survivors must
        // still agree on the death and replay deterministically.
        let mk_plan = || {
            FaultPlan::new(seed)
                .with_drops(0.2)
                .with_delays(0.2, 5e-4)
                .with_crash(crash_rank, crash_step)
        };
        let run = |plan: FaultPlan| {
            let store = CheckpointStore::new();
            run_spmd_ft(4, Machine::cluster2002(), plan, async move |comm| {
                let mut sup = Supervisor::new(comm, Some(2), &store);
                let me = comm.rank() as f64;
                let mut step = 0;
                while step < 8 {
                    if let Some(rec) = sup.boundary(comm, step, || (0, vec![me])).await {
                        step = rec.from_step.expect("boundary 0 checkpoints");
                        continue;
                    }
                    comm.compute(1e-4);
                    step += 1;
                }
                (sup.active().to_vec(), comm.now())
            })
            .expect("three survivors remain")
        };
        let a = run(mk_plan());
        let b = run(mk_plan());
        prop_assert_eq!(a.survivors.len(), 3);
        prop_assert_eq!(a.crashed.len(), 1);
        prop_assert_eq!(a.crashed[0].rank, crash_rank);
        let expected: Vec<usize> = (0..4).filter(|&r| r != crash_rank).collect();
        for (sa, sb) in a.survivors.iter().zip(&b.survivors) {
            prop_assert_eq!(&sa.value.0, &expected);
            prop_assert_eq!(sa.value.1.to_bits(), sb.value.1.to_bits(), "replayed clock");
        }
    }
}
