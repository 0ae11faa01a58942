#!/usr/bin/env python3
"""Sample a program's PCs and attribute them to inlined functions and lines.

    tools/pcsample/pcsample.py [--period-us N] [--top N] [--out PREFIX] -- CMD ARGS...
    tools/pcsample/pcsample.py --report [--top N] FILE...

The first form runs CMD once with libpcsample.so (built with the benches,
build/tools/pcsample/) preloaded, then reports. The second form reports
sample files written earlier, summed: several runs (seeds, repetitions)
of one binary make one table.

Each sample is a PC in the main executable, recorded by a wall-clock
timer acting on the sampled process only (see pcsample.cpp). The report
expands every sampled PC with `addr2line -f -i -C` into its chain of
inlined frames and prints three tables, as shares of all samples
(samples outside the executable, in shared libraries or the kernel,
count in the total):

  - by inlined function: the innermost frame, where the time is spent;
  - by source line: the innermost frame's file:line;
  - by symbol: the outermost frame, the function the linker sees (what
    gprof reports);
  - by file: the innermost frame in a repository source file, so
    standard-library code counts where the repository calls it. Files
    map to layers (src/sim/simulator.* is the event kernel, and so on).

Build Release with -g for line information:
    cmake -B build-prof -S . -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-g
"""

import argparse
import collections
import glob
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
HEADER = re.compile(r"# pcsample exe=(\S*) period_us=(\d+) inside=(\d+) outside=(\d+) kept=(\d+)")
ADDRESS = re.compile(r"0x[0-9a-f]+")


def default_lib():
    for pattern in ("build/tools/pcsample/libpcsample.so", "build*/tools/pcsample/libpcsample.so"):
        found = sorted(glob.glob(os.path.join(ROOT, pattern)))
        if found:
            return found[0]
    sys.exit("pcsample: no libpcsample.so under build*/tools/pcsample/; build the benches "
             "first or pass --lib")


def run(cmd, lib, period_us, prefix):
    env = dict(os.environ, LD_PRELOAD=lib, PCSAMPLE_PERIOD_US=str(period_us),
               PCSAMPLE_OUT=prefix)
    before = set(glob.glob(prefix + ".*"))
    status = subprocess.run(cmd, env=env).returncode
    if status != 0:
        sys.exit(f"pcsample: {cmd[0]} exited with status {status}")
    return sorted(set(glob.glob(prefix + ".*")) - before)


def load(paths):
    """exe -> (PC offset counts, samples inside, samples outside)."""
    counts = collections.defaultdict(collections.Counter)
    outside = collections.Counter()
    for path in paths:
        with open(path) as f:
            match = HEADER.match(f.readline())
            if not match:
                sys.exit(f"pcsample: {path} is not a sample file")
            exe = match.group(1)
            outside[exe] += int(match.group(4))
            counts[exe].update(int(line, 16) for line in f if line.strip())
    return {exe: (c, sum(c.values()), outside[exe]) for exe, c in counts.items()}


def frames(exe, offsets):
    """offset -> [(function, file:line), ...], innermost frame first."""
    text = "\n".join(f"{off:#x}" for off in offsets) + "\n"
    out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", exe], input=text,
                         capture_output=True, text=True, check=True).stdout.splitlines()
    result, current, i = {}, None, 0
    while i < len(out):
        if ADDRESS.fullmatch(out[i]):
            current = int(out[i], 16)
            result[current] = []
            i += 1
            continue
        where = re.sub(r" \(discriminator \d+\)$", "", out[i + 1] if i + 1 < len(out) else "??:0")
        if where.startswith(ROOT + os.sep):
            where = os.path.relpath(where, ROOT)
        result[current].append((out[i], where))
        i += 2
    return result


def table(title, counter, total, top):
    print(f"\n{title}")
    print(f"{'share':>7} {'samples':>8}  name")
    for name, n in counter.most_common(top):
        print(f"{100.0 * n / total:6.1f}% {n:8d}  {name}")


def report(paths, top):
    for exe, (counts, inside, outside) in load(paths).items():
        total = inside + outside
        print(f"{exe}: {total} samples from {len(paths)} file(s), "
              f"{inside} in the executable, {outside} outside it")
        if total == 0:
            continue
        expanded = frames(exe, sorted(counts))
        inner, line, symbol, source = (collections.Counter() for _ in range(4))
        for off, n in counts.items():
            chain = expanded.get(off) or [("??", "??:0")]
            inner[chain[0][0]] += n
            line[chain[0][1]] += n
            symbol[chain[-1][0]] += n
            files = [where.rsplit(":", 1)[0] for _, where in chain]
            source[next((f for f in files if not os.path.isabs(f) and f != "??"),
                        "(outside the repository)")] += n
        if outside:
            for c in (inner, line, symbol, source):
                c["(outside the executable)"] += outside
        table("by inlined function (innermost frame)", inner, total, top)
        table("by source line (innermost frame)", line, total, top)
        table("by symbol (outermost frame)", symbol, total, top)
        table("by file (innermost repository frame)", source, total, top)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--report", action="store_true", help="report existing sample files")
    parser.add_argument("--period-us", type=int, default=1000, help="sampling period")
    parser.add_argument("--top", type=int, default=25, help="rows per table")
    parser.add_argument("--lib", help="libpcsample.so to preload")
    parser.add_argument("--out", help="sample file prefix (default: a temporary directory)")
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    rest = args.rest[1:] if args.rest[:1] == ["--"] else args.rest
    if not rest:
        parser.error("nothing to run or report")
    if args.report:
        report(rest, args.top)
        return
    lib = os.path.abspath(args.lib or default_lib())
    with tempfile.TemporaryDirectory() as tmp:
        prefix = os.path.abspath(args.out) if args.out else os.path.join(tmp, "pcsample")
        files = run(rest, lib, args.period_us, prefix)
        if not files:
            sys.exit("pcsample: the command wrote no samples")
        report(files, args.top)


if __name__ == "__main__":
    main()
