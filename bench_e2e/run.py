#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark, or compares two sets of ledgers.

Run from the repository root:

  python3 bench_e2e/run.py --workload cold-rmat --seed 1 --seconds 10 --trace 0 [--out FILE]
  python3 bench_e2e/run.py --compare BASE.json... -- CAND.json...
  python3 bench_e2e/run.py --smoke BINARY

The first form builds bench_e2e into .bench_build/ (incrementally) and runs
one workload; the last line it prints is the JSON summary. --trace 1 gives
the per-layer metrics instead of the end-to-end ones; --out appends the
run's ledger record to FILE. --compare reads ledger files and the bounds in
BENCHMARK.json and prints a verdict per (workload, metric). --smoke is the
ctest check registered in CMakeLists.txt.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
BUILD = Path(".bench_build")
# A run may take 180 s; this leaves the build check and teardown room.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds bench_e2e; tool output goes to stderr."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_e2e", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return None
    return BUILD / "bench_e2e"


def run(args):
    binary = build()
    if binary is None:
        print("run.py: building bench_e2e failed", file=sys.stderr)
        return 1
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    if args.trace:
        command.append("--traced")
    if args.out:
        command += ["--out", args.out]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: bench_e2e exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


def smoke(binary):
    """Every workload at --small size, untraced and traced: exit 0, no failed
    operation, and exactly the metric names BENCHMARK.json declares."""
    spec = json.loads(SPEC.read_text())
    declared = {False: sorted(m["name"] for m in spec["end_to_end"]),
                True: sorted(m["name"] for m in spec["per_layer"])}
    problems = []
    for workload in spec["workloads"]:
        for traced in (False, True):
            label = workload["name"] + (" --traced" if traced else "")
            command = [binary, "--workload", workload["name"], "--seed", "1",
                       "--seconds", "1", "--small"] + (["--traced"] if traced else [])
            proc = subprocess.run(command, capture_output=True, text=True, timeout=60)
            lines = proc.stdout.strip().splitlines()
            found = len(problems)
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            summary = json.loads(lines[-1])
            if not summary["correct"] or summary["failed"] != 0:
                problems.append(f"{label}: {summary['failed']} of "
                                f"{summary['attempted']} operations failed")
            printed = sorted(line.split()[0] for line in lines[:-1])
            for source, names in (("summary", sorted(summary["metrics"])),
                                  ("printed", printed)):
                if names != declared[traced]:
                    missing = sorted(set(declared[traced]) - set(names))
                    extra = sorted(set(names) - set(declared[traced]))
                    problems.append(f"{label}: {source} metrics differ from "
                                    f"BENCHMARK.json; missing {missing}, extra {extra}")
            if len(problems) == found:
                print(f"ok   {label}: {summary['attempted']} operations")
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


# ------------------------------------------------------------------ compare

def load_records(paths):
    records = []
    for path in paths:
        data = json.loads(Path(path).read_text())
        records += data if isinstance(data, list) else [data]
    return records


def provenance(record):
    """What must match for two runs to be comparable."""
    return {"build_type": record["build"]["build_type"], "ranks": record["ranks"],
            "input": record["input"], "small": record["small"],
            "seconds": record["seconds"]}


def spread(values):
    """Quartiles as the acceptance check takes them, and the median."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, cand, better, bound):
    """worse: the median moved the wrong way by more than the bound.
    unresolved: either side's quartile spread is wider than the bound, unless
    every candidate run beats every base run (then improved). improved: the
    candidate wins nine tenths of the pairs and the medians differ by more
    than the base's own quartile spread. Otherwise unchanged."""
    sign = 1.0 if better == "lower" else -1.0
    b1, bm, b3 = spread(base)
    c1, cm, c3 = spread(cand)
    if max((b3 - b1) / bm, (c3 - c1) / cm) > bound:
        every = all(sign * c < sign * b for c in cand for b in base)
        return "improved" if every else "unresolved"
    if sign * (cm - bm) / bm > bound:
        return "worse"
    pairs = list(zip(base, cand))
    wins = sum(sign * c < sign * b for b, c in pairs)
    if wins >= 0.9 * len(pairs) and abs(cm - bm) > b3 - b1:
        return "improved"
    return "unchanged"


def compare(base_paths, cand_paths):
    spec = json.loads(SPEC.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    sides = [load_records(base_paths), load_records(cand_paths)]
    groups = sorted({(r["workload"], r["traced"]) for side in sides for r in side})
    worse = False
    mismatched = []
    rows = [("workload", "metric", "base median [q1, q3]", "cand median [q1, q3]",
             "delta", "bound", "probe", "verdict")]
    for workload, traced in groups:
        base, cand = ([r for r in side if (r["workload"], r["traced"]) == (workload, traced)]
                      for side in sides)
        if not base or not cand:
            continue
        kinds = {json.dumps(provenance(r), sort_keys=True) for r in base + cand}
        if len(kinds) > 1:
            label = workload + (" traced" if traced else "")
            mismatched.append(f"{label}: " + " vs ".join(sorted(kinds)))
            continue
        probe = (statistics.median(statistics.fmean(r["probe_s"]) for r in cand) /
                 statistics.median(statistics.fmean(r["probe_s"]) for r in base))
        fail_ratio = [sum(r["failed"] for r in side) / max(1, sum(r["attempted"] for r in side))
                      for side in (base, cand)]
        if fail_ratio[1] > fail_ratio[0]:
            worse = True
            rows.append((workload, "fail_ratio", f"{fail_ratio[0]:.3g}", f"{fail_ratio[1]:.3g}",
                         "", "0", f"{probe:.3f}", "worse"))
        for name, meta in (layers if traced else bounds).items():
            b = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in cand if name in r["metrics"]]
            if not b or not c:
                continue
            b1, bm, b3 = spread(b)
            c1, cm, c3 = spread(c)
            delta = f"{(cm - bm) / bm:+.1%}" if bm else "n/a"
            if traced:
                bound, result = "", "info"
            else:
                bound = f"{meta['bound']:.0%}"
                result = verdict(b, c, meta["better"], meta["bound"])
                worse = worse or result == "worse"
            rows.append((workload, name, f"{bm:.4g} [{b1:.4g}, {b3:.4g}]",
                         f"{cm:.4g} [{c1:.4g}, {c3:.4g}]", delta, bound, f"{probe:.3f}", result))
    if mismatched:
        for line in mismatched:
            print("provenance differs:", line)
        return 2
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return 1 if worse else 0


def main(argv):
    if argv[:1] == ["--compare"]:
        rest = argv[1:]
        if "--" not in rest:
            print("usage: run.py --compare BASE... -- CAND...", file=sys.stderr)
            return 1
        cut = rest.index("--")
        return compare(rest[:cut], rest[cut + 1:])
    if argv[:1] == ["--smoke"] and len(argv) == 2:
        return smoke(argv[1])
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the ledger record to this file")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
