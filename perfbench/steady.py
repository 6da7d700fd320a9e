#!/usr/bin/env python3
"""Steadiness of the benchmark: repeats each workload with different seeds.

    python3 perfbench/steady.py [--runs 10] [--workloads dumbbell,campaign]
                                [--seconds S] [--first-seed 1] [--trace]

For every end-to-end metric of BENCHMARK.json it prints the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread (q3 - q1) /
median, next to the metric's bound and a third of it. With --trace it also
makes one traced run per workload and prints the tracing overhead. Runs are
made one after another, each in its own process.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "1" if trace else "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    a = ap.parse_args()

    report = {}
    for wl in a.workloads.split(","):
        results = []
        for k in range(a.runs):
            r = run(wl, a.first_seed + k, a.seconds, False)
            results.append(r)
            print(f"{wl} seed {a.first_seed + k}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in r["metrics"].items()) +
                f" | attempted {r['attempted']} failed {r['failed']} correct {r['correct']}",
                flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{wl}: failed share per run {shares}, all correct: {all(r['correct'] for r in results)}")
        print(f"{'metric':24} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6} {'bound/3':>7}")
        report[wl] = {}
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < m["bound"] / 3 else (" <bound" if spread <= m["bound"] else " OVER")
            print(f"{m['name']:24} {m['unit']:6} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{m['bound']:6.3f} {m['bound'] / 3:7.4f}{flag}")
            report[wl][m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                     "bound": m["bound"]}
        if a.trace:
            t = run(wl, a.first_seed, a.seconds, True)
            over = t["metrics"]["trace.overhead_pct"]["value"]
            print(f"{wl}: tracing overhead {over:.2f}% of delivered_pkts_per_s")
            report[wl]["trace.overhead_pct"] = over
        print(flush=True)
    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "steadiness.json"), "w") as f:
        json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
