"""Self-test of the end-to-end benchmark at a tiny simulated horizon.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

For every workload it checks that each metric named in
``BENCHMARK.json`` is printed with its unit, that every correctness
check passes, that the determinism digest repeats for a fixed seed
across repetitions, across interpreters and between traced and untraced
runs, and that running the horizon in slices changes no outcome.
"""

from __future__ import annotations

import gc
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SCALE = "0.1"
SEED = 7

PYTHONPATH = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.path[:0] = PYTHONPATH
import hostspeed  # noqa: E402


def bench(workload: str, trace: int, cwd: Path = ROOT
          ) -> Tuple[subprocess.CompletedProcess, List[str]]:
    command = [sys.executable, *SPEC["command"][1:],
               "--workload", workload, "--seed", str(SEED),
               "--seconds", "0", "--trace", str(trace), "--scale", SCALE]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    return done, done.stdout.strip().splitlines()


def result_of(lines: List[str]) -> Dict[str, Any]:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def digests(lines: List[str]) -> List[str]:
    return [match.group(1) for line in lines
            for match in [re.search(r" digest=(\w+) ", line)] if match]


def assert_metrics(result: Dict[str, Any], spec: List[Dict[str, Any]]
                   ) -> None:
    expected = {m["name"]: m["unit"] for m in spec}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_end_to_end_and_traced(workload: str) -> None:
    done, lines = bench(workload, trace=0)
    assert done.returncode == 0, done.stderr
    result = result_of(lines)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 3
    assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())

    done, traced_lines = bench(workload, trace=1)
    assert done.returncode == 0, done.stderr
    traced = result_of(traced_lines)
    assert traced["correct"] is True and traced["failed"] == 0
    assert_metrics(traced, SPEC["per_layer"])

    seen = digests(lines) + digests(traced_lines)
    assert len(seen) == result["attempted"] + traced["attempted"]
    assert len(set(seen)) == 1


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    done, lines = bench(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in lines)


SLICED_OUTCOME = """
import json, sys, workloads
built = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), float(sys.argv[3]))
slices = int(sys.argv[4])
for k in range(1, slices + 1):
    built.simulate(k / slices)
print(json.dumps(built.outcome(built.analyze()), sort_keys=True))
"""


@pytest.mark.parametrize("workload", WORKLOADS)
def test_sliced_horizon_matches_one_run(workload: str) -> None:
    def outcome(slices: int) -> str:
        # A fresh interpreter each: ids drawn from module-level counters
        # differ between two builds in one process.
        done = subprocess.run(
            [sys.executable, "-c", SLICED_OUTCOME, workload, str(SEED),
             SCALE, str(slices)], cwd=ROOT, capture_output=True, text=True,
            timeout=170, env={"PYTHONPATH": os.pathsep.join(PYTHONPATH)})
        assert done.returncode == 0, done.stderr
        return done.stdout

    assert outcome(100) == outcome(1)


def test_host_speed_kernel() -> None:
    assert hostspeed.speed(hostspeed.REFERENCE_S) == 1.0
    assert hostspeed.speed(2 * hostspeed.REFERENCE_S) < 1.0
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        assert hostspeed.kernel_s() > 0
        assert gc.isenabled() is enabled
    gc.enable()
