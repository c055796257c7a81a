#!/usr/bin/env python3
"""Membership-pipeline benchmark: build, run one workload, report metrics.

    python3 membench/run.py --workload flash_crowd --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
driver (membench/CMakeLists.txt) under .bench_build/; later runs only check
that the build is current. --trace 0 prints the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer metrics of a traced run (the table
is also written to .bench_build/runs/<run>/layers.md). The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("flash_crowd", "flash_epoch", "zipf_data", "lossy_churn")
DRIVER_TIMEOUT_S = 170


def step(cmd, **kwargs):
    """Runs one build or benchmark step; a failure ends the run unreported."""
    try:
        subprocess.run(cmd, check=True, stdout=sys.stderr, **kwargs)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        raise SystemExit(f"membench: {e}")


def build_driver():
    cmake_dir = BUILD / "cmake"
    if not (cmake_dir / "CMakeCache.txt").exists():
        step(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
              "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", str(cmake_dir), "--target", "membench_driver",
          "-j", jobs])
    return cmake_dir / "membench_driver"


def contract_names(kind):
    """Metric names BENCHMARK.json declares for `kind`, in declared order."""
    with open(ROOT / "BENCHMARK.json") as f:
        return [m["name"] for m in json.load(f)[kind]]


def layer_table(values):
    lines = ["| metric | value | unit |", "|---|---|---|"]
    for name, (value, unit) in values.items():
        lines.append(f"| {name} | {value:.6g} | {unit} |")
    return "\n".join(lines) + "\n"


def main():
    with open(HERE / "spec.json") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=spec["seeds"]["default"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    driver = build_driver()
    out = BUILD / "runs" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    step([str(driver), "--workload", args.workload, "--seed", str(args.seed),
          "--seconds", str(args.seconds), "--trace", str(args.trace),
          "--out", str(out)], timeout=DRIVER_TIMEOUT_S)
    with open(out / "result.json") as f:
        result = json.load(f)
    failures = list(result["failures"])

    if args.trace == 0:
        values, notes = metrics.end_to_end(
            result, metrics.load_f64(out / "converge_s.f64"),
            metrics.load_f64(out / "deliver_s.f64"))
        wanted = contract_names("end_to_end")
        print(f"{args.workload} seed {args.seed}: {notes['timed_reps']} timed "
              f"repetitions of {result['ops']} operations")
        print(f"  unscaled: {notes['raw_ops_per_s']:.1f} ops/s, set-up "
              f"{notes['raw_setup_s']:.4f} s; reference kernel "
              f"{notes['reference_s'] * 1e3:.2f} ms (scaled to "
              f"{metrics.REFERENCE_S * 1e3:.0f} ms)")
        print(f"  convergence: {notes['episodes']} episodes, "
              f"{notes['converge_samples']} samples, percentiles "
              f"{notes['converge_q'][0]:.4f}/{notes['converge_q'][1]:.4f}, "
              f"fail_frac {notes['fail_frac']:.4f}")
        print(f"  delivery: {notes['deliver_samples']} samples, percentiles "
              f"{notes['deliver_q'][0]:.4f}/{notes['deliver_q'][1]:.4f}")
    else:
        spans = metrics.load_spans(out / "spans.bin", result["span_names"])
        values, shares = metrics.per_layer(result, spans)
        wanted = contract_names("per_layer")
        if result["spans_dropped"] != 0:
            failures.append(f"{result['spans_dropped']} spans dropped")
        table = layer_table(values)
        (out / "layers.md").write_text(table)
        print(table, end="")
        print(f"shares of sim.run_s: dcdm {shares['dcdm']:.3f}, "
              f"epoch close {shares['epoch_close']:.3f}, "
              f"sim self {shares['sim_self']:.3f}")
    if sorted(values) != sorted(wanted):
        raise SystemExit("membench: metrics differ from BENCHMARK.json")
    for failure in failures:
        print("CHECK FAILED: " + failure)

    report = {
        "correct": not failures,
        "attempted": result["ops"] * (len(result["run_s"]) + 1),
        "failed": len(failures),
        "metrics": {name: {"value": values[name][0], "unit": values[name][1]}
                    for name in wanted},
    }
    print(json.dumps(report))


if __name__ == "__main__":
    main()
