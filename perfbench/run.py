#!/usr/bin/env python3
"""The photorack benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Builds photorack_perfbench (perfbench/CMakeLists.txt, which compiles the
repository's layer libraries from source) into .bench_build/, runs the
named workload from perfbench/workloads.json for about S seconds of host
time, and prints every metric by name and unit.  The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics, from a separate traced run whose
spans are written to .bench_build/spans/.

Percentiles with fewer than ten samples beyond them print n/a.  In the JSON
line every metric must be a number, so a per-layer metric that does not
apply to the workload reads 0 there and n/a in the printed table.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "cmake"
SPANS_DIR = ROOT / ".bench_build" / "spans"
BINARY = BUILD_DIR / "photorack_perfbench"
# A run must end well within three minutes.
BINARY_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def nproc():
    return len(os.sched_getaffinity(0))


def load_workloads():
    with open(HERE / "workloads.json") as f:
        return json.load(f)


def load_metric_specs():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


# --------------------------------------------------------------------------
# Build
# --------------------------------------------------------------------------

def build():
    """Configures once and builds photorack_perfbench; a no-op build when up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no photorack sources (CMakeLists.txt, src/) in {ROOT}")
    jobs = str(min(4, nproc()))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR), *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "photorack_perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            raise BenchError(f"build step failed: {' '.join(cmd)}")


# --------------------------------------------------------------------------
# Statistics and the n/a rule
# --------------------------------------------------------------------------

def quartiles(values):
    """(Q1, median, Q3), with Python's default quantile method."""
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else (values[0],) * 3


def lower_decile(values):
    """The 10th percentile, interpolated between the values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def quartile_spread(values):
    """(Q3 - Q1) / median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med


def reportable(q, count):
    """A q-quantile is reported only with at least ten samples beyond it."""
    return count - math.ceil(q * count) >= 10


def percentile(samples, q):
    """Nearest-rank q-quantile, or None when it is not reportable."""
    if not reportable(q, len(samples)):
        return None
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def resolve(entry):
    """A raw measured value -> (number or None for n/a, sample count or None)."""
    if entry is None or isinstance(entry, (int, float)):
        return entry, None
    if "samples" in entry:
        return percentile(entry["samples"], entry["q"]), len(entry["samples"])
    count = int(entry["count"])
    return (entry["value"] if reportable(entry["q"], count) else None), count


# --------------------------------------------------------------------------
# Running a workload
# --------------------------------------------------------------------------

def binary_command(wl, seed, seconds, trace, spans_path):
    cmd = [str(BINARY), "--mode", wl["mode"], "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if wl["mode"] == "cluster":
        cmd += ["--workers", str(min(wl["speedup_workers"], nproc()))]
    if wl["mode"] == "sweep":
        cmd += ["--benches", ",".join(wl["benches"])]
    for path, value in wl.get("set", {}).items():
        cmd += ["--set", f"{path}={value}"]
    if spans_path:
        cmd += ["--spans", str(spans_path)]
    return cmd


def run_binary(cmd):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"photorack_perfbench did not finish within {BINARY_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"photorack_perfbench exited with code {proc.returncode}")
    return json.loads(lines[-1])


def merge(records):
    """One raw record from the records of several processes of one workload.

    Every process runs the same input, so each must reproduce the first
    one's digest; a process that does not counts all its operations as
    failed.
    """
    out = dict(records[0])
    for key in ("ops", "host_s", "setup_s", "checks_failed"):
        out[key] = [v for r in records for v in r[key]]
    for key in ("attempted", "failed", "checks_passed"):
        out[key] = sum(r[key] for r in records)
    out["peak_rss_kb"] = max(r["peak_rss_kb"] for r in records)
    out["traced"] = next((r["traced"] for r in records if r["traced"]), None)
    for i, r in enumerate(records[1:], 1):
        if r["digest"] == out["digest"]:
            out["checks_passed"] += 1
            continue
        out["checks_failed"].append(
            f"process {i}: digest {r['digest']} differs from {out['digest']}")
        out["failed"] += r["attempted"] - r["failed"]
    return out


def run_workload(wl, seed, seconds, trace, spans_path):
    """The raw record of one run of a workload.

    A co-simulation repeats itself inside one process.  A sweep process runs
    the campaign once, so that its profile caches start cold as a CLI
    invocation's do: one process per repetition until about `seconds` are
    spent, then, with `trace`, one more for the traced run.
    """
    if wl["mode"] != "sweep":
        return run_binary(binary_command(wl, seed, seconds, trace, spans_path))
    records = []
    start = time.monotonic()
    while True:
        records.append(run_binary(binary_command(wl, seed, seconds, 0, None)))
        spent = time.monotonic() - start
        if len(records) >= 2 and spent + spent / len(records) > seconds:
            break
    if trace:
        records.append(run_binary(binary_command(wl, seed, seconds, 1, spans_path)))
    return merge(records)


# Printed beside the end-to-end metrics; photorack_perfbench leaves out any
# that do not apply to a workload.
OUTCOME_UNITS = {
    "sim_jobs_per_s": "1/s", "rows_per_s": "1/s", "acceptance": "ratio",
    "wait_p99_ms": "ms", "slowdown_p99": "ratio", "energy_j_per_job": "J",
    "ml_step_p99_ms": "ms",
}


def rep_rates(raw):
    """Operations per host second of each timed repetition."""
    return [ops / s for ops, s in zip(raw["ops"], raw["host_s"])]


def end_to_end(raw):
    """Named end-to-end values (None = n/a) plus sample counts for the table."""
    # Every repetition repeats identical work (its digest is checked).  On a
    # shared host this code runs at a steady speed with bursts of extra
    # speed, up to twice as fast, while other tenants idle, so the figures
    # are read on the steady side: the lower decile of the repetitions'
    # rates and the upper quartile of the set-up times.
    rates = rep_rates(raw)
    ops_per_s = lower_decile(rates) if rates else None
    sweep = raw["mode"] == "sweep"
    values = {
        "ops_per_s": ops_per_s,
        "sim_jobs_per_s": None if sweep else ops_per_s,
        "rows_per_s": ops_per_s if sweep else None,
        "setup_s": quartiles(raw["setup_s"])[2],
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }
    counts = {"rows_per_s" if sweep else "sim_jobs_per_s": len(rates)}
    for name in OUTCOME_UNITS:
        if name not in values:
            values[name], counts[name] = resolve(raw["outcomes"].get(name))
    return values, counts


def fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def print_table(title, rows):
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:30s} {fmt(value):>14s}  {unit:10s} {note}")


def report(workload, seed, trace, raw):
    """Prints the human-readable report; returns the metrics for the JSON line."""
    e2e_specs, layer_specs = load_metric_specs()
    values, counts = end_to_end(raw)
    print(f"photorack benchmark: workload={workload} seed={seed} trace={trace} "
          f"reps={len(raw['ops'])} digest={raw['digest']}")

    rates = rep_rates(raw)
    # The traced run is one repetition: compare it with the typical one.
    untraced = statistics.median(rates) if rates else None
    spread = fmt(quartile_spread(rates)) if len(rates) > 1 else "n/a"
    notes = {"ops_per_s": f"lower decile of {len(rates)} reps (median {fmt(untraced)}, "
                          f"quartile spread {spread})",
             "setup_s": f"upper quartile of {len(raw['setup_s'])}"}
    rows = [(spec["name"], values[spec["name"]], spec["unit"], notes.get(spec["name"], ""))
            for spec in e2e_specs]
    for name, unit in OUTCOME_UNITS.items():
        n = counts.get(name)
        rows.append((name, values[name], unit, f"n={n}" if n else ""))
    print_table("end-to-end (tracing off):", rows)

    metrics = {}
    if trace == 0:
        for spec in e2e_specs:
            value = values[spec["name"]]
            if value is None:
                raise BenchError(f"end-to-end metric {spec['name']} was not measured")
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    else:
        traced = raw["traced"]
        layers = dict(traced["layers"]) if traced else {}
        if traced and untraced:
            layers["trace.overhead"] = untraced / (traced["ops"] / traced["host_s"])
        rows = []
        for spec in layer_specs:
            value, n = resolve(layers.get(spec["name"]))
            rows.append((spec["name"], value, spec["unit"], f"n={n}" if n else ""))
            metrics[spec["name"]] = {"value": 0 if value is None else value,
                                     "unit": spec["unit"]}
        print_table("per-layer (traced run; cosim.arrival.* is inclusive of net):", rows)
        if traced:
            print(f"tracing overhead: traced {traced['ops'] / traced['host_s']:.6g} ops/s "
                  f"against untraced median {fmt(untraced)} ops/s")
    print(f"checks: {raw['checks_passed']} passed, {len(raw['checks_failed'])} failed")
    for failure in raw["checks_failed"]:
        print(f"  FAILED: {failure}")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of perfbench/workloads.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        workloads = load_workloads()
        names = list(workloads) if args.workload == "all" else [args.workload]
        for name in names:
            if name not in workloads:
                raise BenchError(f"unknown workload {name!r}; known: all, {', '.join(workloads)}")
        build()
        for name in names:
            spans = None
            if args.trace:
                SPANS_DIR.mkdir(parents=True, exist_ok=True)
                spans = SPANS_DIR / f"{name}-seed{args.seed}.json"
            raw = run_workload(workloads[name], args.seed, args.seconds, args.trace, spans)
            metrics = report(name, args.seed, args.trace, raw)
            result["correct"] &= raw["failed"] == 0 and not raw["checks_failed"]
            result["attempted"] += int(raw["attempted"])
            result["failed"] += int(raw["failed"])
            # With several workloads, metric names are prefixed by the workload.
            for metric, value in metrics.items():
                result["metrics"][metric if len(names) == 1 else f"{name}/{metric}"] = value
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
