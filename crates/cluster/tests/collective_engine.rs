//! Cross-schedule collective equivalence suite.
//!
//! Every schedule of the [`CollectiveEngine`] — the flat binomial-tree
//! broadcast and linear gather, and the two-level group-leader
//! schedules — must deliver the exact bits it was given: a broadcast
//! the root's buffer on every rank, a gather every rank's buffer at the
//! root in rank order. The drivers fold gathered parts in global block
//! order, so this is the invariant that lets the engine swap algorithms
//! by topology without ever moving a price. The suite sweeps every rank
//! count 1..=64 plus awkward large counts (257, 1024) with seeded
//! pseudo-random payloads, and separately checks the scalability
//! contract: at P ≥ 256 on an SMP-cluster fabric the hierarchical
//! schedules must cross the inter-node fabric strictly less than the
//! flat ones.

use mdp_cluster::{run_spmd, CollectiveEngine, Machine, TimeModel};

/// Deterministic splitmix64-style payload: full-magnitude doubles whose
/// sum is association-sensitive, so any ordering slip shows up in bits.
fn payload(rank: usize, len: usize, salt: u64) -> Vec<f64> {
    let mut state = salt
        .wrapping_add(rank as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            // Mantissa-rich values in (−8, 8) with mixed exponents.
            let u = (z >> 11) as f64 / (1u64 << 53) as f64;
            (u - 0.5) * 16.0 * (1.0 + (z & 0xF) as f64)
        })
        .collect()
}

fn assert_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
    }
}

/// Every broadcast schedule delivers the root's exact bits everywhere.
fn check_broadcast_variants(p: usize, len: usize, salt: u64, root: usize) {
    let want = payload(root, len, salt);
    let run = |name: &str, engine: CollectiveEngine| {
        let results = run_spmd(p, Machine::ideal(), async |comm| {
            let mut data = if comm.rank() == root {
                payload(root, len, salt)
            } else {
                vec![0.0; len]
            };
            engine.broadcast(comm, root, &mut data).await;
            data
        })
        .unwrap();
        for r in &results {
            assert_bits(&r.value, &want, &format!("{name} p={p} rank={}", r.rank));
        }
    };
    run("bcast-tree", CollectiveEngine::flat());
    for g in [2usize, 8] {
        if g <= p {
            run(
                &format!("two-level bcast g={g}"),
                CollectiveEngine::two_level(g),
            );
        }
    }
}

/// Every gather schedule delivers each rank's exact payload to `root`,
/// in rank order, and nothing to the other ranks. Part lengths vary
/// with the rank and include zero.
fn check_gather_variants(p: usize, salt: u64, root: usize) {
    let len = |rank: usize| (rank * 7 + salt as usize) % 5;
    let run = |name: &str, engine: CollectiveEngine| {
        let results = run_spmd(p, Machine::ideal(), async |comm| {
            let data = payload(comm.rank(), len(comm.rank()), salt);
            engine.gather_varied(comm, root, &data).await
        })
        .unwrap();
        for r in &results {
            if r.rank != root {
                assert!(
                    r.value.is_none(),
                    "{name}: non-root rank {} got data",
                    r.rank
                );
                continue;
            }
            let parts = r.value.as_ref().expect("root must hold the parts");
            assert_eq!(parts.len(), p, "{name} p={p} root={root}: part count");
            for (src, part) in parts.iter().enumerate() {
                let want = payload(src, len(src), salt);
                assert_bits(part, &want, &format!("{name} p={p} root={root} part {src}"));
            }
        }
    };
    run("gather-linear", CollectiveEngine::flat());
    for g in [2usize, 4, 8, 16] {
        if g <= p {
            run(
                &format!("two-level gather g={g}"),
                CollectiveEngine::two_level(g),
            );
        }
    }
}

#[test]
fn all_variants_agree_bitwise_across_every_small_rank_count() {
    for p in 1..=64 {
        let salt = 0xC0FFEE ^ p as u64;
        check_gather_variants(p, salt, p / 3);
        check_broadcast_variants(p, 6, salt, p / 2);
    }
}

#[test]
fn all_variants_agree_bitwise_at_awkward_large_rank_counts() {
    // 257 = 2^8 + 1 (a lone rank past the last full group), 1024 = the
    // target scale.
    check_gather_variants(257, 0xDEAD, 17);
    check_broadcast_variants(257, 3, 0xDEAD, 256);
    check_gather_variants(1024, 0xBEEF, 1000);
    check_broadcast_variants(1024, 2, 0xBEEF, 513);
}

#[test]
fn gather_varied_two_level_matches_flat_exactly() {
    for (p, g) in [(12usize, 4usize), (33, 8), (257, 16)] {
        let run = |engine: CollectiveEngine| {
            run_spmd(p, Machine::ideal(), async move |comm| {
                let data = payload(comm.rank(), 1 + comm.rank() % 5, 7);
                engine.gather_varied(comm, 3, &data).await
            })
            .unwrap()
        };
        let flat = run(CollectiveEngine::flat());
        let hier = run(CollectiveEngine::two_level(g));
        let f = flat[3].value.as_ref().unwrap();
        let h = hier[3].value.as_ref().unwrap();
        assert_eq!(f.len(), p);
        for (r, (a, b)) in f.iter().zip(h).enumerate() {
            assert_bits(b, a, &format!("gather p={p} g={g} part {r}"));
        }
    }
}

/// The scalability contract: at P ≥ 256 on the SMP-cluster fabric the
/// hierarchical schedules of the drivers' reduction round (a gather to
/// the root, a fold there, a broadcast of the result) must cross the
/// inter-node fabric strictly less — in messages and in bytes — and
/// finish sooner than the flat ones, with the same p − 1 messages per
/// collective.
#[test]
fn hierarchical_collectives_cross_the_fabric_less_at_scale() {
    let p = 256usize;
    let machine = Machine::smp_cluster2002(8);
    let parts: Vec<Vec<f64>> = (0..p).map(|r| payload(r, 4, 11)).collect();
    let want: Vec<f64> = (0..4)
        .map(|i| parts.iter().map(|part| part[i]).sum())
        .collect();
    let totals = |engine: CollectiveEngine| {
        let results = run_spmd(p, machine, async move |comm| {
            let data = payload(comm.rank(), 4, 11);
            let gathered = engine.gather_varied(comm, 0, &data).await;
            let mut sum: Vec<f64> = (0..4)
                .map(|i| gathered.iter().flatten().map(|part| part[i]).sum())
                .collect();
            engine.broadcast(comm, 0, &mut sum).await;
            sum
        })
        .unwrap();
        for r in &results {
            assert_bits(&r.value, &want, &format!("fold at scale, rank {}", r.rank));
        }
        TimeModel::from_results(&results)
    };
    let flat = totals(CollectiveEngine::flat());
    let hier = totals(CollectiveEngine::for_machine(&machine, p));
    assert!(
        matches!(
            CollectiveEngine::for_machine(&machine, p).algo(),
            mdp_cluster::CollectiveAlgo::TwoLevel { group: 8 }
        ),
        "selection must pick the node-sized group"
    );
    assert!(
        hier.total_far_msgs < flat.total_far_msgs,
        "far msgs: hier {} vs flat {}",
        hier.total_far_msgs,
        flat.total_far_msgs
    );
    assert!(
        hier.total_far_bytes < flat.total_far_bytes,
        "far bytes: hier {} vs flat {}",
        hier.total_far_bytes,
        flat.total_far_bytes
    );
    assert_eq!(
        hier.total_msgs, flat.total_msgs,
        "total msgs: hier {} vs flat {}",
        hier.total_msgs, flat.total_msgs
    );
    assert!(
        hier.makespan < flat.makespan,
        "makespan: hier {} vs flat {}",
        hier.makespan,
        flat.makespan
    );
}
