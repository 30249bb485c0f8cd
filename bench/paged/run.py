#!/usr/bin/env python3
"""Builds and runs bench_paged, or compares saved runs.

Run one workload (builds the binary first; the first build in a checkout
also compiles the clipbb library):

  python3 bench/paged/run.py --workload cold_range --seed 1 --seconds 10 --trace 0

The binary is built from this checkout's sources into .bench_build/paged and
runs with its page files under .bench_build/paged/work. Its output (metric
lines, then the JSON result as the last line) passes through unchanged; the
exit status is the binary's.

Compare saved runs (each file is the full stdout of one run):

  python3 bench/paged/run.py compare A1.txt A2.txt ... [-- B1.txt B2.txt ...]

prints, per workload and metric, each side's median and quartiles; with a B
side, a verdict against the metric's bound in BENCHMARK.json: "within bound",
"worse", "better", or "unresolved" when a side's quartile spread exceeds the
bound.
"""
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
BUILD_DIR = ROOT / ".bench_build" / "paged"
RUN_TIMEOUT_S = 170


def build():
    # The compiler's temporary files stay inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            return False
    return True


def run(argv):
    if not build():
        print("bench_paged: build failed", file=sys.stderr)
        return 1
    cmd = [str(BUILD_DIR / "bench_paged"), *argv,
           "--workdir", str(BUILD_DIR / "work")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"bench_paged: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


def load_run(path):
    """(workload, metrics dict) of one saved run's stdout."""
    workload, result = None, None
    for line in Path(path).read_text().splitlines():
        if line.startswith("# bench_paged "):
            fields = dict(f.split("=", 1) for f in line.split()[2:])
            workload = fields["workload"]
        elif line.startswith("{"):
            result = json.loads(line)
    if workload is None or result is None:
        raise SystemExit(f"{path}: not a bench_paged run")
    return workload, {k: v["value"] for k, v in result["metrics"].items()}


def group(paths):
    runs = {}
    for p in paths:
        workload, metrics = load_run(p)
        for name, value in metrics.items():
            runs.setdefault((workload, name), []).append(value)
    return runs


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def verdict(a, b, bound, lower_is_better):
    med_a, _, _, spread_a = summary(a)
    med_b, _, _, spread_b = summary(b)

    def better(x, y):
        return x < y if lower_is_better else x > y

    if max(spread_a, spread_b) > bound:
        if all(better(y, x) for x in a for y in b):
            return "better"
        return "unresolved"
    worse = (med_b - med_a) / abs(med_a) if med_a else 0.0
    if not lower_is_better:
        worse = -worse
    if worse > bound:
        return "worse"
    if worse < -bound:
        return "better"
    return "within bound"


def compare(argv):
    if "--" in argv:
        cut = argv.index("--")
        side_a, side_b = argv[:cut], argv[cut + 1:]
    else:
        side_a, side_b = argv, []
    if not side_a:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"] == "lower")
              for m in spec["end_to_end"]}
    a, b = group(side_a), group(side_b)
    print(f"{'workload':<14} {'metric':<32} {'n':>3} {'median':>14} "
          f"{'q1':>14} {'q3':>14} {'spread':>7} {'bound':>6}  verdict")
    for key in sorted(a):
        workload, name = key
        bound, lower = bounds.get(name, (None, True))
        sides = [("A", a[key])] + ([("B", b[key])] if key in b else [])
        for label, values in sides:
            med, q1, q3, spread = summary(values)
            shown = f"{bound:.2f}" if bound is not None else "-"
            note = ""
            if label == "B" and bound is not None:
                note = verdict(a[key], values, bound, lower)
            elif bound is not None and not side_b:
                note = "steady" if spread <= bound / 3 else "noisy"
            print(f"{workload:<14} {name:<32} {len(values):>3} {med:>14.4f} "
                  f"{q1:>14.4f} {q3:>14.4f} {spread:>7.3f} {shown:>6}  "
                  f"{label} {note}")
    return 0


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "compare":
        return compare(argv[1:])
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
