#!/usr/bin/env python3
"""Runs one workload of the benchmark and prints its metrics.

    python3 perfbench/run.py --workload dumbbell --seed 1 --seconds 30 --trace 0

Builds the simulator and the benchmark program (perfbench/pelsbench.cpp) from
source into $CARGO_TARGET_DIR or .bench_build, runs the workload in its own
process on one worker thread confined to one CPU, checks the outputs
(checks.py) and prints every metric by name with its unit. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 1 the metrics are the per-layer ones of BENCHMARK.json;
otherwise the end-to-end ones.
Without --workload, every workload runs in turn.
"""
import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import checks  # noqa: E402

RUN_TIMEOUT_S = 170
FINGERPRINT_WORKERS = 2


def cpus():
    """CPUs this process may run on (nproc)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds pelsbench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("run.py: no simulator sources (src/CMakeLists.txt) next to perfbench/")
    bdir = build_dir()
    jobs = str(min(4, cpus()))
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target", "pelsbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(bdir, "pelsbench")


def machine():
    """CPU, core count, compiler, build type and source revision of this run."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            m = re.search(r"^model name\s*:\s*(.+)$", f.read(), re.M)
            cpu = m.group(1).strip() if m else cpu
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"^(CMAKE_CXX_COMPILER|CMAKE_BUILD_TYPE):\w+=(.*)$", line)
                if m:
                    cache[m.group(1)] = m.group(2).strip()
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = compiler
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return {
        "cpu": cpu,
        "nproc": cpus(),
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "commit": commit or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest()[:16],
    }


def run_driver(binary, args):
    proc = subprocess.run([binary] + args, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        log(proc.stderr)
        raise SystemExit(f"run.py: pelsbench {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(xs, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(xs)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(doc):
    """Medians over the run's rounds (campaign) or scenarios, so that a burst
    of contention from other processes on the host moves a run's figure less."""
    if doc["workload"] == "campaign":
        rounds = doc["rounds"]
        ok = [[s for s in r["schedules"] if not s.get("error")] for r in rounds]
        setups = [r["setup_s"] for r in rounds]
        pkts_per_s = [sum(s["delivered"] for s in sc) / sum(s["run_s"] for s in sc) for sc in ok]
        per_s = [len(r["schedules"]) / r["total_s"] for r in rounds]
        times_ms = [s["total_s"] * 1e3 for sc in ok for s in sc]
    else:
        scen = doc["scenarios"]
        setups = [s["setup_s"] for s in scen]
        pkts_per_s = [s["delivered"] / s["run_s"] for s in scen]
        per_s = [1.0 / s["total_s"] for s in scen]
        times_ms = [s["total_s"] * 1e3 for s in scen]
    return {
        "setup_s": statistics.median(setups),
        "delivered_pkts_per_s": statistics.median(pkts_per_s),
        "peak_rss_mb": doc["peak_rss_mb"],
        "scenarios_per_s": statistics.median(per_s),
        "scenario_ms.p50": percentile(times_ms, 0.50),
        "scenario_ms.p95": percentile(times_ms, 0.95),
    }


def per_layer(doc):
    """The program's layer metrics, plus the intra-rack population flows that
    ended below the loss-free MKC rate (the shard-wide loss feedback)."""
    values = dict(doc["layers"])
    values["cc.intra_rack_short"] = sum(len(checks.intra_rack_short(s))
                                        for s in doc.get("scenarios", []) if "video" in s)
    return values


def run_one(binary, workload, seed, seconds, trace, bench):
    out_dir = os.path.join(build_dir(), "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload}-seed{seed}-trace{int(trace)}")
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0"]
    if trace:
        args += ["--trace-file", stem + ".spans.json"]
    doc = run_driver(binary, args)
    verdict = checks.check_run(doc)
    if workload == "population" and not trace:
        # Determinism of the sharded run, checked outside the timed runs.
        workers = min(FINGERPRINT_WORKERS, cpus())
        multi = run_driver(binary, args[:4] + ["--scenarios", "1", "--workers", str(workers)])
        verdict.merge(checks.check_fingerprints(doc["scenarios"][0]["fingerprint"],
                                                multi["scenarios"][0]["fingerprint"], workers))

    kind = "per_layer" if trace else "end_to_end"
    values = per_layer(doc) if trace else end_to_end(doc)
    metrics = {}
    for m in bench[kind]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    info = machine()
    with open(stem + ".json", "w") as f:
        json.dump({"machine": info, "workload": workload, "seed": seed, "metrics": metrics,
                   "failed_ops": verdict.failed_ops, "broken": verdict.broken,
                   "known_faults": verdict.known_faults}, f, indent=1)

    print(f"# {workload} seed {seed}: machine {json.dumps(info, sort_keys=True)}")
    for name, m in metrics.items():
        print(f"# {workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"# {workload} attempted {verdict.attempted} failed {verdict.failed} "
          f"correct {verdict.correct}")
    if verdict.failed_ops:
        log(f"{workload}: {verdict.failed} failed operation(s), e.g. {verdict.failed_ops[0]}")
    for b in verdict.broken:
        log(f"{workload}: CHECK FAILED: {b}")
    for k in verdict.known_faults:
        log(f"{workload}: known fault (reported, not gating): {k}")
    return verdict, metrics


def main():
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    seconds = a.seconds if a.seconds is not None else bench["run_seconds"]
    binary = build()
    workloads = [a.workload] if a.workload else names
    total = checks.Verdict()
    metrics = {}
    for wl in workloads:
        verdict, m = run_one(binary, wl, a.seed, seconds, bool(a.trace), bench)
        total.merge(verdict)
        if a.workload:
            metrics = m
        else:
            metrics.update({f"{wl}.{k}": v for k, v in m.items()})
    print(json.dumps({"correct": total.correct, "attempted": total.attempted,
                      "failed": total.failed, "metrics": metrics}))


if __name__ == "__main__":
    t0 = time.monotonic()
    main()
    log(f"run.py: {time.monotonic() - t0:.1f} s")
