#!/usr/bin/env python3
"""Diffs two directories of scmp-bench-v1 BENCH_*.json files.

Usage:
  tools/bench_diff.py BASELINE_DIR CANDIDATE_DIR [--threshold PCT]
                      [--fail-on-missing]

For every (bench, series, x) point present in both directories the tool
prints the delta of the point's ``p50`` (the median time per iteration over
its repetitions; for a one-repetition point it equals the mean) as a
percentage of the baseline (negative = candidate faster). The median keeps
one slow repetition on a noisy runner from flagging a point by itself.
Points slower than ``--threshold`` percent (default 25, generous because CI
runners are noisy) are flagged as regressions and make the exit status
non-zero, so a perf regression fails the build instead of drifting in
silently.

Series present on only one side are reported informally (new benches appear,
retired ones disappear); ``--fail-on-missing`` turns a series that vanished
from the candidate into a hard failure.

The committed reference lives in bench/baseline/ and is refreshed in the
same PR as any intentional perf change; CI's bench-smoke job diffs its
freshly-emitted files against it (see docs/performance.md).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys


def load_medians(
        dir_path: pathlib.Path) -> dict[tuple[str, str, float], float]:
    """(bench, series, x) -> p50 seconds/iteration, for every valid point."""
    medians: dict[tuple[str, str, float], float] = {}
    for path in sorted(dir_path.glob("BENCH_*.json")):
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"{path}: unreadable or invalid JSON: {exc}")
        if doc.get("schema") != "scmp-bench-v1":
            raise SystemExit(f"{path}: not a scmp-bench-v1 file")
        bench = doc.get("bench", path.stem)
        for p in doc.get("points", []):
            p50 = p.get("p50")
            if isinstance(p50, (int, float)) and not isinstance(p50, bool) \
                    and p50 > 0:
                medians[(bench, p["series"], float(p["x"]))] = float(p50)
    return medians


def fmt_key(key: tuple[str, str, float]) -> str:
    bench, series, x = key
    return f"{bench}:{series}" + (f"@x={x:g}" if x else "")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        description="Compare two directories of BENCH_*.json files.")
    ap.add_argument("baseline", type=pathlib.Path)
    ap.add_argument("candidate", type=pathlib.Path)
    ap.add_argument("--threshold", type=float, default=25.0,
                    help="slowdown percent considered a regression "
                         "(default: %(default)s)")
    ap.add_argument("--fail-on-missing", action="store_true",
                    help="fail when a baseline series is absent from the "
                         "candidate")
    args = ap.parse_args(argv)

    for d in (args.baseline, args.candidate):
        if not d.is_dir():
            print(f"bench_diff.py: {d} is not a directory", file=sys.stderr)
            return 2

    base = load_medians(args.baseline)
    cand = load_medians(args.candidate)
    if not base:
        print(f"bench_diff.py: no BENCH_*.json in {args.baseline}",
              file=sys.stderr)
        return 2
    if not cand:
        print(f"bench_diff.py: no BENCH_*.json in {args.candidate}",
              file=sys.stderr)
        return 2

    common = sorted(set(base) & set(cand))
    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base))

    regressions: list[str] = []
    print(f"{'metric':60} {'baseline':>12} {'candidate':>12} {'delta':>9}")
    for key in common:
        b, c = base[key], cand[key]
        delta_pct = (c - b) / b * 100.0
        marker = ""
        if delta_pct > args.threshold:
            marker = "  REGRESSION"
            regressions.append(
                f"{fmt_key(key)}: {delta_pct:+.1f}% "
                f"(threshold {args.threshold:g}%)")
        print(f"{fmt_key(key):60} {b:12.3e} {c:12.3e} "
              f"{delta_pct:+8.1f}%{marker}")

    for key in only_cand:
        print(f"{fmt_key(key):60} {'--':>12} {cand[key]:12.3e}      new")
    for key in only_base:
        print(f"{fmt_key(key):60} {base[key]:12.3e} {'--':>12}  missing")

    if only_base and args.fail_on_missing:
        for key in only_base:
            regressions.append(f"{fmt_key(key)}: missing from candidate")

    if regressions:
        print(f"\nbench_diff.py: {len(regressions)} regression(s):",
              file=sys.stderr)
        for r in regressions:
            print(f"  {r}", file=sys.stderr)
        return 1
    print(f"\nbench_diff.py: {len(common)} point(s) compared, "
          f"no regression beyond {args.threshold:g}%")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
