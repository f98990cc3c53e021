"""End-to-end TPP benchmark: one workload, one seed, one measured run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload microburst --seed 1 --seconds 20 \
        --trace 0

Each repetition runs ``worker.py`` in a fresh interpreter, one at a
time, for as many rounds as fit in ``--seconds`` (at least three
repetitions untraced, one pair traced).

``--trace 0`` reports the end-to-end metrics as medians over the
repetitions: ``run_s`` (first simulated event through the end-host
analysis), ``setup_s`` (interpreter start to first simulated event)
and ``peak_rss_mb``.  Each repetition's times are its wall times scaled
to the reference host's quiet speed by the host-speed kernel timed
within it (``hostspeed.py``); the wall times and the scale factor
(``speed``) are printed per repetition.  ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones
(medians), plus ``span_overhead``, the traced over the untraced median
``run_s``; the spans of the last traced repetition are written under
``perfbench/out/``.

Every repetition's correctness checks must pass, and every repetition
of the seed, traced or not, must produce the same determinism digest;
a repetition that fails either counts as failed.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Workload names and metric names and units come from BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
MIN_REPS = 3
TIME_UNITS = ("s", "us")
#: A run must end within this many seconds, whatever ``--seconds`` says.
DEADLINE_S = 170.0


def run_worker(args: argparse.Namespace, traced: bool,
               timeout_s: float) -> Dict[str, Any]:
    """One repetition in a fresh interpreter; returns its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--scale", repr(args.scale), "--trace", str(int(traced))]
    if traced:
        command += ["--spans-out", str(
            HERE / "out" / f"spans-{args.workload}.json")]
    spawned = time.monotonic()
    try:
        done = subprocess.run(command, cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, timeout_s))
    except subprocess.TimeoutExpired:
        return {"error": "timed out", "traced": traced}
    if done.returncode != 0:
        return {"error": done.stderr.strip().splitlines()[-1:],
                "traced": traced}
    report = json.loads(done.stdout.strip().splitlines()[-1])
    report["wall_run_s"] = report["run_s"]
    report["wall_setup_s"] = report["first_event_mono"] - spawned
    # Every time is scaled to the reference host's quiet speed.
    speed = hostspeed.speed(report["kernel_s"])
    report["speed"] = speed
    report["run_s"] = report["wall_run_s"] * speed
    report["setup_s"] = report["wall_setup_s"] * speed
    for metric in SPEC["per_layer"]:
        if metric["unit"] in TIME_UNITS and "layers" in report:
            report["layers"][metric["name"]] *= speed
    report["traced"] = traced
    return report


def quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)} median={values[0]:.4f}" if values else "n=0"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} median={q2:.4f} q1={q1:.4f} q3={q3:.4f}"


def main() -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end TPP benchmark (see module docstring).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="simulated-horizon multiplier (self-test)")
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    # Byte-compile once, untimed, so the first repetition's set-up does
    # not pay for it.
    compileall.compile_dir(str(SRC), quiet=1)

    started = time.monotonic()
    reps: List[Dict[str, Any]] = []
    modes = (False, True) if args.trace else (False,)
    min_rounds = 1 if args.trace else MIN_REPS
    rounds = 0
    while True:
        for traced in modes:
            left = DEADLINE_S - (time.monotonic() - started)
            reps.append(run_worker(args, traced, left))
        rounds += 1
        elapsed = time.monotonic() - started
        # Stop before a round that would overrun the measuring window.
        projected = elapsed * (rounds + 1) / rounds
        if projected > DEADLINE_S or (rounds >= min_rounds
                                      and projected > args.seconds):
            break

    digests = [rep["digest"] for rep in reps if "digest" in rep]
    reference = digests[0] if digests else None
    failed = 0
    for rep in reps:
        ok = ("error" not in rep and all(rep["checks"].values())
              and rep["digest"] == reference)
        failed += not ok
        status = ("ERROR " + str(rep["error"]) if "error" in rep else
                  " ".join(f"{name}={'ok' if passed else 'FAIL'}"
                           for name, passed in rep["checks"].items()))
        print(f"{args.workload} seed={args.seed} "
              f"{'traced' if rep['traced'] else 'untraced'} "
              f"run_s={rep.get('run_s', float('nan')):.4f} "
              f"setup_s={rep.get('setup_s', float('nan')):.4f} "
              f"wall_run_s={rep.get('wall_run_s', float('nan')):.4f} "
              f"speed={rep.get('speed', float('nan')):.3f} "
              f"digest={str(rep.get('digest'))[:16]} {status}")

    good = [rep for rep in reps if "error" not in rep]
    plain = [rep for rep in good if not rep["traced"]]
    traced = [rep for rep in good if rep["traced"]]
    metrics: Dict[str, Dict[str, Any]] = {}
    if not args.trace and plain:
        for metric in SPEC["end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            values = [rep[name] for rep in plain]
            print(f"{name} [{unit}] {quartiles(values)}")
            metrics[name] = {"value": statistics.median(values),
                             "unit": unit}
    elif args.trace and plain and traced:
        for metric in SPEC["per_layer"]:
            name, unit = metric["name"], metric["unit"]
            if name == "span_overhead":
                value = (statistics.median(r["run_s"] for r in traced)
                         / statistics.median(r["run_s"] for r in plain))
            else:
                value = statistics.median(r["layers"][name] for r in traced)
            print(f"{name} [{unit}] {value:.6g}")
            metrics[name] = {"value": value, "unit": unit}

    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": len(reps), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
