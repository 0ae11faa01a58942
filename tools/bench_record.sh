#!/usr/bin/env bash
# Bench-trajectory recorder: produces the BENCH_PR<N>.json snapshot
# committed at the repo root (schema documented in docs/BENCHMARKS.md).
#
# Recording protocol: the three throughput benchmarks are run as
# interleaved repetitions (A B C, A B C, ... rather than AAA BBB CCC)
# so slow drift in a shared/noisy host hits every benchmark equally,
# and the recorded number is the per-benchmark MEDIAN across
# repetitions. Single back-to-back runs on a loaded host can differ by
# ±25%; interleaved medians are the only numbers worth committing.
#
# The snapshot records the host's core count next to the numbers: a
# speed claim without the host it was measured on is not reproducible.
# Simulated results (ext8's job_us counters, the sweeps' outputs) are
# not recorded here; they are ctest anchors (`ctest -L anchor`).
#
# Usage:
#   tools/bench_record.sh [--pr N] [--build-dir DIR] [--reps N]
#                         [--baseline /path/to/old/micro_kernel]
#                         [--layer NAME] [--out FILE] [--smoke]
#
#   --pr N        trajectory index; default 7 (writes BENCH_PR<N>.json)
#   --baseline    also interleave an old micro_kernel binary and record
#                 median-vs-median speedups (local use; CI has no
#                 pre-change binary)
#   --layer NAME  the layer a claimed speedup is attributed to (e.g.
#                 "event kernel"); recorded as the file's `layer`
#   --smoke       CI mode: validate the schema of the NEWEST committed
#                 BENCH_PR<N>.json (highest N present, whatever --pr
#                 says), then take a quick fresh recording (3 reps,
#                 short min_time) to bench-trajectory-fresh.json for
#                 the artifact upload. Absolute numbers are NOT gated —
#                 shared runners are noisy.
set -euo pipefail
cd "$(dirname "$0")/.."

PR=7
BUILD_DIR=build
REPS=7
MIN_TIME=0.2
BASELINE=""
LAYER=""
SMOKE=0
OUT=""

while [ $# -gt 0 ]; do
  case "$1" in
    --pr) PR="$2"; shift 2 ;;
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --reps) REPS="$2"; shift 2 ;;
    --baseline) BASELINE="$2"; shift 2 ;;
    --layer) LAYER="$2"; shift 2 ;;
    --out) OUT="$2"; shift 2 ;;
    --smoke) SMOKE=1; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

COMMITTED="BENCH_PR${PR}.json"
if [ "$SMOKE" = 1 ]; then
  REPS=3
  MIN_TIME=0.05
  OUT="${OUT:-bench-trajectory-fresh.json}"
  # Smoke validates the newest committed snapshot, not a hard-coded
  # index — otherwise every trajectory PR would have to edit this
  # script just to keep CI honest about its own file.
  NEWEST=$(ls BENCH_PR*.json 2>/dev/null | sort -V | tail -1 || true)
  if [ -n "$NEWEST" ]; then
    COMMITTED="$NEWEST"
  fi
else
  OUT="${OUT:-$COMMITTED}"
fi

MICRO="$BUILD_DIR/bench/micro_kernel"
EXT8="$BUILD_DIR/bench/ext8_multirack_shuffle"
for bin in "$MICRO" "$EXT8"; do
  if [ ! -x "$bin" ]; then
    echo "missing bench binary: $bin (build with -DRSF_BUILD_BENCHES=ON)" >&2
    exit 1
  fi
done

validate_schema() {
  python3 - "$1" <<'PY'
import json, sys

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)

def die(msg):
    sys.exit(f"SCHEMA ERROR in {path}: {msg}")

if doc.get("schema") != "rsf-bench-trajectory-v1":
    die("schema tag must be rsf-bench-trajectory-v1")
for key in ("pr", "commit", "config", "throughput"):
    if key not in doc:
        die(f"missing top-level key {key!r}")
for name in ("BM_SimulatorSelfRescheduling", "BM_PacketTransportOneFlow",
             "BM_MultiRackShuffle/4"):
    entry = doc["throughput"].get(name)
    if not isinstance(entry, dict):
        die(f"throughput missing benchmark {name!r}")
    v = entry.get("median_items_per_second")
    if not isinstance(v, (int, float)) or v <= 0:
        die(f"throughput[{name!r}] needs a positive median_items_per_second")
print(f"schema OK: {path}")
PY
}

if [ "$SMOKE" = 1 ]; then
  if [ ! -f "$COMMITTED" ]; then
    echo "missing committed trajectory file: $COMMITTED" >&2
    exit 1
  fi
  validate_schema "$COMMITTED"
fi

# --- interleaved repetitions ---
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# The kernel's deep-queue and same-instant benchmarks ride along with
# the headline three: they are where an event-kernel change shows. The
# many-in-flight transport benchmark is where packet state that falls
# out of cache shows.
MICRO_FILTER='BM_SimulatorSelfRescheduling$|BM_SimulatorFarFuture$|BM_SimulatorDeepQueue$|BM_SimulatorSameInstantBurst$|BM_PacketTransportOneFlow$|BM_PacketTransportManyInFlight$'

echo "recording: $REPS interleaved repetitions, min_time=${MIN_TIME}s" >&2
for rep in $(seq 1 "$REPS"); do
  "$MICRO" --benchmark_filter="$MICRO_FILTER" \
           --benchmark_min_time="$MIN_TIME" --benchmark_format=json \
           > "$TMP/micro_new_$rep.json" 2>/dev/null
  "$EXT8" --benchmark_filter='BM_MultiRackShuffle/4$' \
          --benchmark_min_time="$MIN_TIME" --benchmark_format=json \
          > "$TMP/ext8_rep_$rep.json" 2>/dev/null
  if [ -n "$BASELINE" ]; then
    "$BASELINE" --benchmark_filter="$MICRO_FILTER" \
                --benchmark_min_time="$MIN_TIME" --benchmark_format=json \
                > "$TMP/micro_old_$rep.json" 2>/dev/null
  fi
  echo "  rep $rep/$REPS done" >&2
done

COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)

python3 - "$TMP" "$OUT" "$PR" "$COMMIT" "$REPS" "$MIN_TIME" "$BASELINE" "$LAYER" <<'PY'
import glob, json, os, statistics, sys

tmp, out, pr, commit, reps, min_time, baseline, layer = sys.argv[1:9]
MICRO = ("BM_SimulatorSelfRescheduling", "BM_SimulatorFarFuture",
         "BM_SimulatorDeepQueue", "BM_SimulatorSameInstantBurst",
         "BM_PacketTransportOneFlow", "BM_PacketTransportManyInFlight")

def samples(pattern, name, field, required=True):
    vals = []
    for path in glob.glob(f"{tmp}/{pattern}"):
        with open(path) as f:
            doc = json.load(f)
        for bench in doc["benchmarks"]:
            if bench["name"] == name:
                vals.append(bench[field])
    if not vals and required:
        sys.exit(f"no samples for {name} in {pattern}")
    return vals

throughput = {
    name: {"median_items_per_second": statistics.median(
        samples("micro_new_*.json", name, "items_per_second"))}
    for name in MICRO
}
throughput["BM_MultiRackShuffle/4"] = {
    "median_items_per_second": statistics.median(
        samples("ext8_rep_*.json", "BM_MultiRackShuffle/4", "events/s"))}

baseline_block = None
if baseline:
    # The binary's name only: its directory is the recorder's own.
    baseline_block = {"binary": os.path.basename(baseline)}
    for name in MICRO:
        # An older binary may predate a benchmark; it is then left out.
        old_samples = samples("micro_old_*.json", name, "items_per_second",
                              required=False)
        if not old_samples:
            continue
        old = statistics.median(old_samples)
        new = throughput[name]["median_items_per_second"]
        baseline_block[name] = {
            "median_items_per_second": old,
            "speedup": round(new / old, 3),
        }

doc = {
    "schema": "rsf-bench-trajectory-v1",
    "pr": int(pr),
    "commit": commit,
    "host_cores": os.cpu_count(),
    "config": {
        "repetitions": int(reps),
        "benchmark_min_time": float(min_time),
        "interleaved": True,
    },
    "throughput": throughput,
    "baseline": baseline_block,
}
if layer:
    doc["layer"] = layer
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote {out}")
PY

validate_schema "$OUT"
