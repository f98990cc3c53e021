#!/usr/bin/env python
"""Run the simulator perf baseline and emit ``BENCH_simcore.json``.

Usage::

    python tools/run_bench.py             # full run, writes BENCH_simcore.json
    python tools/run_bench.py --quick     # CI smoke run (smaller workloads)
    python tools/run_bench.py --no-fastpath --quick   # reference interpreter
    python tools/run_bench.py --validate BENCH_simcore.json   # schema check
    python tools/run_bench.py --compare OLD.json NEW.json     # perf gate

The JSON is the perf trajectory the ROADMAP tracks: every PR can re-run
this and diff events/sec, packets/sec, and TPP-exec/sec against the
committed baseline.  ``--validate`` exits non-zero on a malformed file
(the v1 through v8 schemas are all accepted); ``--compare`` exits
non-zero when any shared workload's primary metric regressed beyond
its per-workload noise floor (``WORKLOAD_TOLERANCES``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
sys.path.insert(0, str(REPO_ROOT / "src"))

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_simcore.json"

SUPPORTED_SCHEMAS = ("simcore-bench/v1", "simcore-bench/v2",
                     "simcore-bench/v3", "simcore-bench/v4",
                     "simcore-bench/v5", "simcore-bench/v6",
                     "simcore-bench/v7", "simcore-bench/v8")

#: metric keys that must exist and be positive finite numbers, per workload.
REQUIRED_METRICS = {
    "event_core": ("events_per_sec", "legacy_events_per_sec",
                   "speedup_vs_dataclass_heap"),
    "event_loop": ("events_per_sec", "events_processed"),
    "packet_forwarding": ("packets_per_sec_wall", "packet_hops_per_sec_wall",
                          "packets_received"),
    "tpp_exec": ("tpp_execs_per_sec", "instructions_per_sec"),
}

#: additional requirements introduced by the v2 schema.
REQUIRED_METRICS_V2 = {
    "tpp_exec": ("interp_execs_per_sec", "speedup_vs_interpreter"),
    "tpp_exec_cached": ("tpp_execs_per_sec", "instructions_per_sec"),
}

#: additional requirements introduced by the v3 schema (the verified
#: fast path; ``verified_executions`` is deliberately not listed — a
#: --no-fastpath run legitimately reports 0).
REQUIRED_METRICS_V3 = {
    "tpp_exec_verified": ("tpp_execs_per_sec", "instructions_per_sec",
                          "unverified_execs_per_sec",
                          "speedup_vs_unverified"),
}

#: Requirements of the v4, v6 and v7 schemas, retired in v8 together
#: with the numpy vector lanes those workloads measured: v4 through v7
#: files still need them, v8 files do not carry them.
RETIRED_IN_V8 = 8

#: additional requirements introduced by the v4 schema (the batched
#: engine).
REQUIRED_METRICS_V4 = {
    "tpp_exec_batched": ("tpp_execs_per_sec", "instructions_per_sec",
                         "scalar_execs_per_sec", "speedup_vs_scalar"),
}

#: additional requirements introduced by the v5 schema (the sharded
#: fleet driver; ``bit_identical`` doubles as a determinism gate — the
#: positive-number check below fails a report where the 1- and 4-shard
#: fingerprints diverged and the flag is 0).
REQUIRED_METRICS_V5 = {
    "fleet_scale": ("packets_per_sec_modeled", "flows_per_sec_modeled",
                    "speedup_vs_one_shard", "bit_identical"),
}

#: additional requirements introduced by the v6 schema (the
#: write-capable vector lane).
REQUIRED_METRICS_V6 = {
    "tpp_exec_batched_write": ("tpp_execs_per_sec", "instructions_per_sec",
                               "scalar_execs_per_sec", "speedup_vs_scalar"),
}

#: additional requirements introduced by the v7 schema (sketch-update
#: batches through the write lane).
REQUIRED_METRICS_V7 = {
    "tpp_exec_sketch": ("tpp_execs_per_sec", "instructions_per_sec",
                        "scalar_execs_per_sec", "speedup_vs_scalar"),
}

#: headline metric per workload, used by ``--compare``.
PRIMARY_METRICS = {
    "event_core": "events_per_sec",
    "event_loop": "events_per_sec",
    "packet_forwarding": "packet_hops_per_sec_wall",
    "tpp_exec": "tpp_execs_per_sec",
    "tpp_exec_cached": "tpp_execs_per_sec",
    "tpp_exec_verified": "tpp_execs_per_sec",
    "fleet_scale": "packets_per_sec_modeled",
}

#: a workload counts as regressed when new < (1 - tolerance) * old.
#: One global 10% proved too blunt: the full-pipeline and fleet
#: workloads have short timed regions whose best-of-3 still moves more
#: than the long single-loop benches on a co-tenant box, so each
#: workload carries its own measured noise floor.
DEFAULT_REGRESSION_TOLERANCE = 0.10
WORKLOAD_TOLERANCES = {
    "event_core": 0.10,
    "event_loop": 0.10,
    "packet_forwarding": 0.15,
    "tpp_exec": 0.10,
    "tpp_exec_cached": 0.10,
    "tpp_exec_verified": 0.10,
    "fleet_scale": 0.15,
}


def validate(report: dict) -> list:
    """Return a list of problems (empty when the report is well-formed).

    Accepts every schema generation: v1 files (no timestamp_iso, no
    ``tpp_exec_cached`` workload) and v2 files (no ``tpp_exec_verified``)
    stay valid so historical baselines can still be fed to ``--validate``
    and ``--compare``.
    """
    problems = []
    schema = report.get("schema")
    if schema not in SUPPORTED_SCHEMAS:
        problems.append(f"bad schema field: {schema!r}")
    workloads = report.get("workloads")
    if not isinstance(workloads, dict):
        return problems + ["missing workloads object"]
    required = {name: list(metrics)
                for name, metrics in REQUIRED_METRICS.items()}
    generation = (SUPPORTED_SCHEMAS.index(schema) + 1
                  if schema in SUPPORTED_SCHEMAS else 0)
    if generation >= 2:
        for name, metrics in REQUIRED_METRICS_V2.items():
            required.setdefault(name, []).extend(metrics)
        stamp = report.get("timestamp_iso")
        try:
            datetime.fromisoformat(stamp)
        except (TypeError, ValueError):
            problems.append(f"timestamp_iso not ISO-8601: {stamp!r}")
    if generation >= 3:
        for name, metrics in REQUIRED_METRICS_V3.items():
            required.setdefault(name, []).extend(metrics)
    if 4 <= generation < RETIRED_IN_V8:
        for name, metrics in REQUIRED_METRICS_V4.items():
            required.setdefault(name, []).extend(metrics)
    if generation >= 5:
        for name, metrics in REQUIRED_METRICS_V5.items():
            required.setdefault(name, []).extend(metrics)
    if 6 <= generation < RETIRED_IN_V8:
        for name, metrics in REQUIRED_METRICS_V6.items():
            required.setdefault(name, []).extend(metrics)
    if 7 <= generation < RETIRED_IN_V8:
        for name, metrics in REQUIRED_METRICS_V7.items():
            required.setdefault(name, []).extend(metrics)
    for name, metrics in required.items():
        workload = workloads.get(name)
        if not isinstance(workload, dict):
            problems.append(f"missing workload {name!r}")
            continue
        for metric in metrics:
            value = workload.get(metric)
            if (not isinstance(value, (int, float))
                    or isinstance(value, bool)
                    or not math.isfinite(value) or value <= 0):
                problems.append(f"{name}.{metric} invalid: {value!r}")
    return problems


def compare(old: dict, new: dict) -> tuple:
    """Per-workload speedup of ``new`` over ``old``.

    Returns ``(lines, regressions)``: human-readable rows for every
    workload the two reports share, and the subset whose primary metric
    fell below ``(1 - tolerance)`` of the old value, where tolerance is
    the workload's own noise floor from ``WORKLOAD_TOLERANCES``.
    Workloads present on only one side (e.g. ``tpp_exec_cached`` against
    a v1 baseline) are reported but never counted as regressions.
    """
    old_workloads = old.get("workloads") or {}
    new_workloads = new.get("workloads") or {}
    lines = []
    regressions = []
    for name, metric in PRIMARY_METRICS.items():
        old_value = (old_workloads.get(name) or {}).get(metric)
        new_value = (new_workloads.get(name) or {}).get(metric)
        if not old_value or not new_value:
            missing = "old" if not old_value else "new"
            if old_value or new_value:
                lines.append(f"{name:<22} (not in {missing} report, skipped)")
            continue
        tolerance = WORKLOAD_TOLERANCES.get(name,
                                            DEFAULT_REGRESSION_TOLERANCE)
        ratio = new_value / old_value
        flag = ""
        if ratio < 1.0 - tolerance:
            flag = f"  << REGRESSION (floor {tolerance:.0%})"
            regressions.append(name)
        lines.append(f"{name:<22} {old_value:>14,.0f} -> {new_value:>14,.0f} "
                     f"{metric}  ({ratio:.2f}x){flag}")
    return lines, regressions


def _print_summary(report: dict) -> None:
    wl = report["workloads"]
    print(f"schema:   {report['schema']}   quick={report['quick']}")
    print(f"event core:        {wl['event_core']['events_per_sec']:>12,.0f} "
          f"events/s  ({wl['event_core']['speedup_vs_dataclass_heap']:.2f}x "
          f"vs seed dataclass heap)")
    print(f"event loop:        {wl['event_loop']['events_per_sec']:>12,.0f} "
          f"events/s (with timer churn)")
    print(f"packet forwarding: "
          f"{wl['packet_forwarding']['packet_hops_per_sec_wall']:>12,.0f} "
          f"packet-hops/s wall")
    tpp = wl["tpp_exec"]
    speedup = tpp.get("speedup_vs_interpreter")
    suffix = f"  ({speedup:.2f}x vs interpreter)" if speedup else ""
    print(f"tpp execution:     {tpp['tpp_execs_per_sec']:>12,.0f} "
          f"TPP-execs/s{suffix}")
    cached = wl.get("tpp_exec_cached")
    if cached:
        print(f"tpp exec (cached): "
              f"{cached['tpp_execs_per_sec']:>12,.0f} TPP-execs/s  "
              f"(cache {cached['cache_hits']} hits / "
              f"{cached['cache_misses']} misses)")
    verified = wl.get("tpp_exec_verified")
    if verified:
        print(f"tpp exec (verified): "
              f"{verified['tpp_execs_per_sec']:>10,.0f} TPP-execs/s  "
              f"({verified['speedup_vs_unverified']:.2f}x vs unverified, "
              f"{verified['verified_executions']} guard hits)")
    fleet = wl.get("fleet_scale")
    if fleet:
        identical = "bit-identical" if fleet["bit_identical"] else "DIVERGED"
        print(f"fleet scale:       "
              f"{fleet['packets_per_sec_modeled']:>12,.0f} packets/s modeled "
              f"({fleet['speedup_vs_one_shard']:.2f}x at 4 shards, "
              f"{identical})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads (CI smoke run)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"output path (default {DEFAULT_OUTPUT.name})")
    parser.add_argument("--validate", type=Path, metavar="JSON",
                        help="validate an existing report instead of running")
    parser.add_argument("--compare", type=Path, nargs=2,
                        metavar=("OLD", "NEW"),
                        help="compare two reports; exit 1 when a shared "
                             "workload regressed beyond its per-workload "
                             "noise floor")
    parser.add_argument("--no-fastpath", action="store_true",
                        help="run the benchmarks through the reference "
                             "interpreter (sets REPRO_TPP_FASTPATH=0)")
    args = parser.parse_args(argv)

    if args.compare is not None:
        reports = []
        for path in args.compare:
            try:
                reports.append(json.loads(path.read_text()))
            except (OSError, ValueError) as exc:
                print(f"unreadable report {path}: {exc}", file=sys.stderr)
                return 1
        lines, regressions = compare(*reports)
        for line in lines:
            print(line)
        if regressions:
            print(f"regressed beyond the per-workload noise floor: "
                  f"{', '.join(regressions)}", file=sys.stderr)
            return 1
        return 0

    if args.validate is not None:
        try:
            report = json.loads(args.validate.read_text())
        except (OSError, ValueError) as exc:
            print(f"unreadable report {args.validate}: {exc}",
                  file=sys.stderr)
            return 1
        problems = validate(report)
        for problem in problems:
            print(f"malformed: {problem}", file=sys.stderr)
        if not problems:
            print(f"{args.validate} OK")
        return 1 if problems else 0

    if args.no_fastpath:
        # Must land before any TCPU is constructed (the env default is
        # read at construction time).
        os.environ["REPRO_TPP_FASTPATH"] = "0"

    import perf_baseline

    report = perf_baseline.run_all(quick=args.quick)
    problems = validate(report)
    if problems:
        for problem in problems:
            print(f"malformed: {problem}", file=sys.stderr)
        return 1
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True)
                           + "\n")
    _print_summary(report)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
