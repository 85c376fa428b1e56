#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's median and
spread (quartile distance over median, as statistics.quantiles gives it).

    python3 e2ebench/spread.py --workload quote-ladder --seeds 1-10 [--trace 0]

Run from the repository root. The command and run length come from
BENCHMARK.json, so the figures are those the benchmark's gate computes.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}: {out.stderr.strip()[-400:]}")
            continue
        result = json.loads(out.stdout.strip().splitlines()[-1])
        metrics = result["metrics"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in metrics.items()), flush=True)
        for k, v in metrics.items():
            values.setdefault(k, []).append(v["value"])
    for k, v in values.items():
        med = statistics.median(v)
        line = f"{k:40s} n={len(v):2d} median={med:.6g}"
        if len(v) >= 2 and med:
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / abs(med)
            line += f" spread={spread:.4f}"
            if k in bounds:
                line += f" bound={bounds[k]} {'ok' if spread <= bounds[k] / 3 else 'WIDE'}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
