#!/usr/bin/env python3
"""Check that the benchmark is steady on one commit.

Run from the root of a checkout:

    python3 perfbench/steady.py --workload serve-mixed --runs 10 --sets 2

It makes --sets sets of --runs untraced runs of one workload, each run
with its own seed, and reports for every end-to-end metric of
BENCHMARK.json each set's median and quartiles, the spread (interquartile
distance over the median, as statistics.quantiles(values, n=4) gives the
quartiles), whether the spread is within the metric's bound, and whether
each later set's median is no worse than the first set's by more than the
bound. It also checks that every run's share of failed operations is the
same, and runs the first seed once more to check that two runs with the
same seed report identical simulated counts. Exits 1 if any check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}")
    counts = next((l[len("counts "):] for l in lines if l.startswith("counts ")), None)
    return json.loads(lines[-1]), counts


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    seed = args.first_seed
    sets, first_counts = [], None
    for _ in range(args.sets):
        runs = []
        for _ in range(args.runs):
            res, counts = run_once(args.workload, seed, spec["run_seconds"])
            if first_counts is None:
                first_counts = counts
            print(f"seed {seed}: " + " ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.6g}" for m in metrics),
                  file=sys.stderr)
            runs.append(res)
            seed += 1
        sets.append(runs)

    ok = True
    set_stats = []
    for runs in sets:
        stats = {}
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            stats[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        set_stats.append(stats)

    print(f"{'metric':<20} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  verdict")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        base = set_stats[0][name]["median"]
        for i, per_metric in enumerate(set_stats):
            st = per_metric[name]
            steady = st["spread"] <= bound
            verdicts = ["steady" if steady else "SPREAD"]
            ok &= steady
            if i > 0:
                worse = (st["median"] - base) / base if m["better"] == "lower" else (base - st["median"]) / base
                verdicts.append("agrees" if worse <= bound else "DRIFT")
                ok &= worse <= bound
            print(f"{name:<20} {i + 1:>3} {st['median']:>12.6g} {st['q1']:>12.6g} {st['q3']:>12.6g} "
                  f"{st['spread']:>7.3f} {bound:>6.2f}  {' '.join(verdicts)}")

    shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
    _, again = run_once(args.workload, args.first_seed, spec["run_seconds"])
    checks = {"failed_share_identical": len(shares) == 1,
              "same_seed_counts_identical": again == first_counts}
    for name, passed in checks.items():
        print(f"{name}: {'yes' if passed else 'NO'}")
        ok &= passed
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
