//! Work-decomposition helpers shared by the parallel engines.

/// Balanced contiguous block `[lo, hi)` of `0..n` owned by `rank` among
/// `p` ranks. The first `n % p` ranks get one extra element.
///
/// # Panics
/// Panics when `p == 0` or `rank >= p`.
pub fn block_range(n: usize, p: usize, rank: usize) -> (usize, usize) {
    assert!(p > 0, "need at least one rank");
    assert!(rank < p, "rank {rank} out of range for {p}");
    let base = n / p;
    let extra = n % p;
    let lo = rank * base + rank.min(extra);
    let len = base + usize::from(rank < extra);
    (lo, lo + len)
}

/// The rank owning element `i` under [`block_range`] decomposition.
///
/// # Panics
/// Panics when `i >= n` or `p == 0`.
pub fn block_owner(n: usize, p: usize, i: usize) -> usize {
    assert!(p > 0);
    assert!(i < n, "index {i} out of range for {n}");
    let base = n / p;
    let extra = n % p;
    let cutoff = extra * (base + 1);
    if i < cutoff {
        i / (base + 1)
    } else {
        extra + (i - cutoff) / base.max(1)
    }
}

/// Indices of `0..n` owned by `rank` under block-cyclic decomposition
/// with the given `block` size, ascending (ablation A2 compares this
/// against the contiguous layout for lattice slabs).
///
/// # Panics
/// Panics when `p == 0`, `rank >= p` or `block == 0`.
pub fn cyclic_indices(
    n: usize,
    p: usize,
    rank: usize,
    block: usize,
) -> impl Iterator<Item = usize> {
    assert!(p > 0 && rank < p && block > 0);
    (rank * block..n)
        .step_by(p * block)
        .flat_map(move |start| start..(start + block).min(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_cover_exactly_once() {
        for n in [0usize, 1, 7, 100, 101] {
            for p in [1usize, 2, 3, 7, 16] {
                let mut covered = vec![0u32; n];
                let mut prev_hi = 0;
                for r in 0..p {
                    let (lo, hi) = block_range(n, p, r);
                    assert_eq!(lo, prev_hi, "blocks must be contiguous");
                    prev_hi = hi;
                    for c in &mut covered[lo..hi] {
                        *c += 1;
                    }
                }
                assert_eq!(prev_hi, n);
                assert!(covered.iter().all(|&c| c == 1));
            }
        }
    }

    #[test]
    fn blocks_balanced_within_one() {
        for n in [10usize, 13, 100] {
            for p in [3usize, 4, 7] {
                let sizes: Vec<usize> = (0..p)
                    .map(|r| {
                        let (lo, hi) = block_range(n, p, r);
                        hi - lo
                    })
                    .collect();
                let min = *sizes.iter().min().unwrap();
                let max = *sizes.iter().max().unwrap();
                assert!(max - min <= 1, "n={n} p={p}: {sizes:?}");
            }
        }
    }

    #[test]
    fn owner_is_inverse_of_range() {
        for n in [1usize, 9, 64, 101] {
            for p in [1usize, 2, 5, 8] {
                for i in 0..n {
                    let r = block_owner(n, p, i);
                    let (lo, hi) = block_range(n, p, r);
                    assert!(
                        (lo..hi).contains(&i),
                        "n={n} p={p} i={i}: owner {r} range {lo}..{hi}"
                    );
                }
            }
        }
    }

    #[test]
    fn cyclic_partitions_cover_exactly_once() {
        let (n, p, b) = (23usize, 3usize, 4usize);
        let mut covered = vec![0u32; n];
        for r in 0..p {
            for i in cyclic_indices(n, p, r, b) {
                covered[i] += 1;
            }
        }
        let _ = &covered;
        assert!(covered.iter().all(|&c| c == 1), "{covered:?}");
    }

    #[test]
    fn cyclic_block_one_interleaves() {
        let idx: Vec<usize> = cyclic_indices(7, 3, 1, 1).collect();
        assert_eq!(idx, vec![1, 4]);
    }

    #[test]
    #[should_panic(expected = "rank")]
    fn rank_out_of_range_panics() {
        let _ = block_range(10, 2, 2);
    }
}
