#!/usr/bin/env python3
"""The repository benchmark: whole simulation workloads, timed end to end.

    python3 perfbench/run.py --workload torus_upgrade --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-goldens

Builds perfbench/ (and with it the rsf library from the repository
sources) into .bench_build/, then launches the rsf_perfbench binary, one
fresh process per workload run, until --seconds have passed. Each
process runs the workload once. wall_s and cpu_s are combined lap by lap
(LAP_METRICS), set-up times take the fastest process (SETUP_METRICS),
and every other metric is the median over the processes of the run.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
processes. --trace 1 alternates untraced and traced processes and
reports the per-layer metrics; the traced processes also write Chrome
trace-event JSON under .bench_build/traces/.

Every process's output is checked: its invariants, its digest against
every other process of the run (traced ones included), and, for the
seeds recorded in goldens.json, against the recorded digest. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
The command exits non-zero when any check fails, and without printing a
result when the program cannot be built or was built unoptimised.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "rsf_perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
GOLDENS = os.path.join(HERE, "goldens.json")

WORKLOADS = ("torus_upgrade", "hotspot_steady", "fleet_regimes")
GOLDEN_SEEDS = range(0, 16)
PROCESS_TIMEOUT_S = 120
# Per-layer metrics derived from the run's own wall time: taken from the
# untraced processes, like the end-to-end metrics.
FROM_UNTRACED = ("sim.events", "sim.ns_per_event", "fabric.net.ns_per_packet_hop",
                 "fabric.spine.ns_per_packet", "runtime.fleet.cell_wall_s.")
TRACE_OVERHEAD = "bench.trace_overhead_pct"
# Set-up takes tens of microseconds, and on a shared host a burst of
# set-ups runs either at full speed or ~1.6x slower, whichever state the
# host is in for those few milliseconds. Each process reports the faster
# of its two bursts' medians; the run reports the fastest process, where
# the median over processes would flip between the modes.
SETUP_METRICS = ("setup_s", "runtime.setup.")
# wall_s and cpu_s: each process cuts its measured interval into laps at
# fixed points of simulated time, the same laps in every process of the
# seed. Contention on a shared host comes in bursts of ~0.1 s that slow
# whichever process is running by up to 1.5x, and how often they come
# drifts over minutes; the run reports, lap by lap, the lower quartile
# over its processes, summed over the laps.
LAP_METRICS = {"wall_s": "wall", "cpu_s": "cpu"}


class BenchError(Exception):
    """The benchmark cannot produce a valid result at all."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("no repository sources next to perfbench/: nothing to build")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    built = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0 or not os.path.isfile(BINARY):
        raise BenchError("build failed")


def commit():
    """The checkout's commit, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_binary(workload, seed, size, trace_path=None):
    """One process, one workload run. Returns rsf_perfbench's JSON object;
    a crash, hang or unparsable output becomes a failed result."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--size", size]
    if trace_path:
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "violations": ["timeout"]}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"ok": False, "violations": ["no result (exit %d): %s"
                                            % (proc.returncode, proc.stderr.strip()[-200:])]}
    if proc.returncode != 0:
        result["ok"] = False
    return result


def check_trace(path):
    """The trace must parse and hold the span kinds rsf_perfbench records."""
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        names = {e["name"].split(":")[0] for e in events}
    except (OSError, ValueError, KeyError, TypeError) as e:
        return ["trace %s unreadable: %s" % (path, e)]
    missing = {"workload", "setup", "slice", "metrics_table", "probes", "probe"} - names
    return ["trace %s lacks spans %s" % (path, sorted(missing))] if missing else []


def measure(workload, seed, seconds, trace, size, bench):
    """Runs processes for `seconds`; returns (result, problems, build provenance)."""
    golden = None
    if size == "full" and os.path.isfile(GOLDENS):
        with open(GOLDENS) as f:
            golden = json.load(f).get(workload, {}).get(str(seed))
    os.makedirs(TRACE_DIR, exist_ok=True)
    trace_path = os.path.join(TRACE_DIR, "%s_seed%d_%s.json" % (workload, seed, size))

    untraced, traced, problems = [], [], []
    start = time.monotonic()
    while True:
        untraced.append(run_binary(workload, seed, size))
        if trace:
            traced.append(run_binary(workload, seed, size, trace_path))
        if time.monotonic() - start >= seconds:
            break

    runs = untraced + traced
    for r in runs:
        if not r.get("ok"):
            problems += r.get("violations") or ["failed"]
        elif not r["build"]["optimized"]:
            raise BenchError("timings invalid: rsf_perfbench was built without optimisation %s"
                             % json.dumps(r["build"]))
    failed = sum(1 for r in runs if not r.get("ok"))
    if failed == 0:
        # Run-level checks: a mismatch condemns every process of the run.
        digests = {r["digest"] for r in runs}
        events = {r["metrics"]["sim.events"]["value"] for r in runs}
        if len(digests) != 1:
            problems.append("digests differ between processes: %s" % sorted(digests))
        elif golden is not None and golden not in digests:
            problems.append("digest %s != golden %s" % (digests.pop(), golden))
        if len(events) != 1:
            problems.append("processes executed different event counts: %s" % sorted(events))
        if len({len(r["laps"]["wall"]) for r in runs}) != 1:
            problems.append("processes ended different numbers of laps")
        if trace:
            problems += check_trace(trace_path)
        if problems:
            failed = len(runs)

    metrics = {}
    if failed == 0:
        for spec in bench["per_layer"] if trace else bench["end_to_end"]:
            metrics[spec["name"]] = {"value": layer_value(spec, untraced, traced),
                                     "unit": spec["unit"]}
    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed,
              "metrics": metrics}
    return result, problems, runs[0].get("build", {})


def layer_value(spec, untraced, traced):
    name = spec["name"]
    if name == TRACE_OVERHEAD:
        plain = statistics.median(r["metrics"]["wall_s"]["value"] for r in untraced)
        with_trace = statistics.median(r["metrics"]["wall_s"]["value"] for r in traced)
        return 100.0 * (with_trace / plain - 1.0)
    source = untraced if not traced or name.startswith(FROM_UNTRACED) else traced
    reported = source[0]["metrics"].get(name)
    if reported is None or reported["unit"] != spec["unit"]:
        raise BenchError("rsf_perfbench reports %s as %s, BENCHMARK.json says %s"
                         % (name, reported and reported["unit"], spec["unit"]))
    if name in LAP_METRICS:
        return lap_sum(source, LAP_METRICS[name])
    values = [r["metrics"][name]["value"] for r in source]
    return min(values) if name.startswith(SETUP_METRICS) else statistics.median(values)


def lap_sum(runs, key):
    """Sum over laps of the lap's lower quartile across processes."""
    if len(runs) == 1:
        return sum(runs[0]["laps"][key])
    columns = zip(*(r["laps"][key] for r in runs))
    return sum(statistics.quantiles(c, n=4, method="inclusive")[0] for c in columns)


def self_test(bench):
    """Tiny sizes through the whole pipeline: every metric named in
    BENCHMARK.json appears with its unit, and every trace parses."""
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, problems, _ = measure(workload, 1, 0, trace, "smoke", bench)
            specs = bench["per_layer"] if trace else bench["end_to_end"]
            want = {s["name"]: s["unit"] for s in specs}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if problems or not result["correct"] or got != want:
                raise BenchError("self-test %s trace=%d: %s; metrics %s"
                                 % (workload, trace, problems, sorted(set(want) ^ set(got))))
            log("self-test %s trace=%d: %d metrics ok" % (workload, trace, len(got)))
    print("self-test passed")


def record_goldens():
    """Re-record goldens.json from the current sources. Only for a change
    that alters simulated output on purpose."""
    goldens = {}
    for workload in WORKLOADS:
        goldens[workload] = {}
        for seed in GOLDEN_SEEDS:
            r = run_binary(workload, seed, "full")
            if not r.get("ok"):
                raise BenchError("%s seed %d failed: %s" % (workload, seed, r.get("violations")))
            goldens[workload][str(seed)] = r["digest"]
            log(workload, seed, r["digest"])
    with open(GOLDENS, "w") as f:
        json.dump(goldens, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.self_test or args.record_goldens):
        parser.error("--workload, --self-test or --record-goldens is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        build()
        if args.self_test:
            self_test(bench)
            return 0
        if args.record_goldens:
            record_goldens()
            return 0
        result, problems, build_info = measure(args.workload, args.seed, args.seconds,
                                               args.trace, "full", bench)
    except (BenchError, OSError, ValueError) as e:
        log("perfbench:", e)
        return 2

    print("provenance: " + json.dumps({"commit": commit(), "nproc": os.cpu_count(),
                                       "build": build_info}))
    for p in problems:
        log("perfbench check failed:", p)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
