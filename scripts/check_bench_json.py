#!/usr/bin/env python3
"""Gate the BENCH_*.json artifacts that `repro --quick` writes.

Run from the repository root after the reproduction smoke:

    cargo run --release -p mdp-bench --bin repro -- --quick
    python3 scripts/check_bench_json.py

Each check fails on a missing artifact, a missing field or a bound
that does not hold. The script stops at the first failure, prints its
message and exits non-zero.
"""

import json
import os
import sys

REPRO = "target/repro"


def fail(msg):
    print(msg, file=sys.stderr)
    sys.exit(1)


def artifact(name):
    """Path of one artifact; fails when it does not exist."""
    f = f"{REPRO}/{name}"
    if not os.path.isfile(f):
        fail(f"missing bench artifact: {f}")
    return f


def has_text(f, needle):
    with open(f) as fh:
        return needle in fh.read()


def check_kernel_speedups():
    """Kernel bench JSONs record speedups; the ADI kernel has a row in
    each dimension and beats its per-line oracle on every row."""
    for name in ("BENCH_mc_kernel.json", "BENCH_lattice_kernel.json", "BENCH_pde_kernel.json"):
        f = artifact(name)
        if not has_text(f, '"speedup"'):
            fail(f'bench artifact {f} lacks a "speedup" field')
    rows = json.load(open(artifact("BENCH_pde_kernel.json")))["results"]
    dims = {row.get("dim") for row in rows}
    for d in (2, 3):
        assert d in dims, f"BENCH_pde_kernel.json has no {d}-D row"
    for row in rows:
        s = row["speedup"]
        assert s >= 1.0, (
            f"{row['product']} {row['grid']}^{row['dim']}: blocked ADI speedup {s} < 1.0"
        )


def check_fault_tolerance():
    """Fault-tolerance JSON records overhead and recovery."""
    f = artifact("BENCH_fault_tolerance.json")
    for field in ("overhead_pct", "recovery_makespan"):
        if not has_text(f, f'"{field}'):
            fail(f'bench artifact {f} lacks a "{field}" field')


def check_portfolio():
    """Portfolio JSON records an amortised speedup >= 1."""
    f = artifact("BENCH_portfolio.json")
    if not has_text(f, '"amortized_speedup"'):
        fail(f'bench artifact {f} lacks an "amortized_speedup" field')
    doc = json.load(open(f))
    rows = doc["portfolio"]
    assert rows, "no portfolio rows"
    for row in rows:
        s = row["amortized_speedup"]
        assert s >= 1.0, f"{row['book']}: amortised speedup {s} < 1.0"


def check_serve():
    """Serve JSON gates coalesced throughput, latency percentiles and the naive baseline."""
    f = artifact("BENCH_serve.json")
    doc = json.load(open(f))
    points = doc["load_points"]
    assert points, "no load points"
    for p in points:
        r = p["throughput_ratio"]
        assert r >= 1.0, f"load {p['offered_mult']}x: coalesced/naive ratio {r} < 1.0"
        for side in ("naive", "coalesced"):
            for field in ("p50_ms", "p99_ms", "throughput_rps"):
                assert field in p[side], f"load {p['offered_mult']}x {side} lacks {field}"
        # The naive baseline is a configuration of the one serving path:
        # it must stay uncached and unbatched.
        naive = p["naive"]
        assert naive["cache_hits"] == 0, (
            f"load {p['offered_mult']}x: naive side hit the plan cache {naive['cache_hits']} times"
        )
        assert naive["mean_batch"] == 1.0, (
            f"load {p['offered_mult']}x: naive side mean batch {naive['mean_batch']} != 1"
        )
    hits = sum(p["coalesced"]["cache_hits"] for p in points)
    assert hits > 0, "plan cache never hit across the sweep"


def check_stencil():
    """Stencil JSON gates trapezoid speedup >= 1 at every grid size."""
    f = artifact("BENCH_stencil.json")
    doc = json.load(open(f))
    rows = doc["results"]
    assert rows, "no stencil rows"
    for row in rows:
        s = row["speedup"]
        assert s >= 1.0, f"{row['product']} m={row['grid']}: trapezoid speedup {s} < 1.0"


def check_tick():
    """Tick JSON gates incremental repricing speedups >= 1."""
    f = artifact("BENCH_tick.json")
    doc = json.load(open(f))
    t = doc["tick"]
    s = t["amortized_speedup"]
    assert s >= 1.0, f"tick stream: amortised speedup {s} < 1.0"
    assert t["ticks_per_s"] > 0, "tick stream reports no throughput"
    rows = doc["cube"]
    assert rows, "no cube rows"
    for row in rows:
        s = row["amortized_speedup"]
        assert s >= 1.0, f"{row['book']}: amortised speedup {s} < 1.0"


def check_resilience():
    """Resilience JSON gates degradation, breaker recovery and reclaim."""
    f = artifact("BENCH_resilience.json")
    doc = json.load(open(f))
    base = doc["overload"]["baseline"]
    deg = doc["overload"]["degraded"]
    assert deg["shed_rate"] < base["shed_rate"], (
        f"degradation must strictly lower the shed rate under "
        f"{doc['overload_mult']}x overload: {deg['shed_rate']} !< {base['shed_rate']}"
    )
    assert deg["degraded"] > 0, "no response was ever explicitly degraded"
    assert deg["p99_ms"] <= doc["deadline_ms"] * 1.5, (
        f"degraded p99 {deg['p99_ms']}ms unbounded vs deadline {doc['deadline_ms']}ms"
    )
    br = doc["breaker"]
    assert br["trips"] >= 1, "the fault window never tripped a breaker"
    assert br["tripped_in_window"], "requested engine's breaker not open after faults"
    assert br["recovered"], "breaker never recovered through half-open probes"
    assert br["history_legal"], "illegal breaker state transition recorded"
    c = doc["cancellation"]
    assert c["deadline_pre"] > 0, "queued expiries were never reclaimed"
    assert c["deadline_mid"] > 0, "no mid-execute cancellation observed"
    assert c["reclaim_ratio"] > 0.5, f"reclaim ratio {c['reclaim_ratio']} too low"


def check_cluster_scale():
    """Cluster-scale JSON gates hierarchical speedup and async checkpoint budget."""
    f = artifact("BENCH_cluster_scale.json")
    doc = json.load(open(f))
    sweep = doc["sweep"]
    assert sweep, "no sweep rows"
    at_scale = [r for r in sweep if r["engine"] == "mc" and r["p"] >= 256]
    assert at_scale, "sweep never reached P >= 256"
    for r in at_scale:
        assert r["ratio"] >= 1.0, (
            f"p={r['p']}: hierarchical/flat makespan ratio {r['ratio']} < 1.0"
        )
        assert r["hier_far_msgs"] < r["flat_far_msgs"], (
            f"p={r['p']}: hierarchical far msgs {r['hier_far_msgs']} not below "
            f"flat {r['flat_far_msgs']}"
        )
    ck = doc["checkpoint"]
    assert ck["async_overhead_pct"] < ck["budget_pct"], (
        f"async checkpoint overhead {ck['async_overhead_pct']}% exceeds the "
        f"{ck['budget_pct']}% budget"
    )
    assert ck["async_overhead_pct"] < ck["sync_overhead_pct"], (
        f"async overhead {ck['async_overhead_pct']}% not below "
        f"sync {ck['sync_overhead_pct']}%"
    )


CHECKS = (
    check_kernel_speedups,
    check_fault_tolerance,
    check_portfolio,
    check_serve,
    check_stencil,
    check_tick,
    check_resilience,
    check_cluster_scale,
)

if __name__ == "__main__":
    for check in CHECKS:
        check()
    print(f"all {len(CHECKS)} bench JSON checks passed")
