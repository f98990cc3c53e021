"""One benchmark repetition, in a fresh interpreter.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  It imports
``repro``, builds the workload (set-up), runs the fixed simulated
horizon and the end-host analysis (the timed run), then checks the
results and hashes the simulated outcomes into a determinism digest.
With ``--trace 1`` the span wrappers of ``spans.py`` are installed
between the imports and the set-up, and per-layer metrics are added.
The last line of stdout is one JSON object for ``run.py``.

``first_event_mono`` is ``time.monotonic()`` just before the first
simulated event; ``run.py`` subtracts the instant it started this
interpreter to get the set-up time.  ``run_s`` is wall time;
``kernel_s`` is the mean time of the host-speed kernel run between the
slices of the horizon (see ``hostspeed.py``), by which ``run.py``
scales it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time
from pathlib import Path
from typing import Any, Dict

import hostspeed
import workloads

#: The simulated horizon runs in this many equal slices.
SLICES = 100


def layer_metrics(workload: "workloads.Workload",
                  recorder: Any) -> Dict[str, float]:
    """Per-layer counts (from the program's stats surfaces) and self
    times (from the spans) of one traced run."""
    net = workload.net
    switches = list(net.switches.values())
    tcpus = [switch.tcpu for switch in switches]
    ports = [port for device in net.all_devices() for port in device.ports]
    queues = [queue for port in ports for queue in port.queues]
    endpoints = [host.tpp for host in net.hosts.values()
                 if getattr(host, "tpp", None) is not None]
    policies = [switch.tpp_policy for switch in switches
                if hasattr(switch.tpp_policy, "tpps_verified")]

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    tpps = sum(t.tpps_executed for t in tcpus)
    cache = [t.cache.stats() for t in tcpus]
    decisions = sum(p.tpps_admitted + p.tpps_rejected for p in policies)
    sends = sum(e.probes_sent for e in endpoints)
    receive = "repro.asic.switch:TPPSwitch.receive"
    execute = "repro.core.tcpu:TCPU.execute"
    return {
        "sim.events": net.sim.events_processed,
        "sim.self_s": recorder.layer("sim")[1],
        "net.frames": sum(port.link.frames_delivered for port in ports),
        "net.self_s": recorder.layer("net")[1],
        "net.drops": sum(q.stats.packets_dropped for q in queues),
        "net.queue_peak_kb": max(
            (q.stats.peak_occupancy_bytes for q in queues), default=0) / 1024,
        "asic.frames": sum(port.rx_frames for switch in switches
                           for port in switch.ports),
        "asic.self_s": recorder.layer("asic")[1],
        "asic.frame_us_p50": recorder.percentile_us("asic", receive, 0.50),
        "asic.frame_us_p99": recorder.percentile_us("asic", receive, 0.99),
        "tcpu.tpps": tpps,
        "tcpu.self_s": recorder.layer("tcpu")[1],
        "tcpu.exec_us_p50": recorder.percentile_us("tcpu", execute, 0.50),
        "tcpu.exec_us_p99": recorder.percentile_us("tcpu", execute, 0.99),
        "tcpu.verified_share": share(
            sum(t.verified_executions for t in tcpus), tpps),
        "tcpu.cache_hit_ratio": share(
            sum(c["hits"] for c in cache),
            sum(c["hits"] + c["misses"] for c in cache)),
        "tcpu.faults": sum(t.faults for t in tcpus),
        "batch.calls": sum(t.batches_executed for t in tcpus),
        "batch.self_s": recorder.layer("batch")[1],
        "batch.batched_share": share(sum(t.batched_tpps for t in tcpus),
                                     tpps),
        "batch.vector_share": share(
            sum(t.vector_tpps + t.vector_write_tpps for t in tcpus), tpps),
        "batch.demotions": sum(sum(t.batch_demotions.values())
                               for t in tcpus),
        "asm.calls": recorder.layer("asm")[0],
        "asm.self_s": recorder.layer("asm")[1],
        "tpp.builds": recorder.layer("tpp")[0],
        "tpp.build_s": recorder.layer("tpp")[1],
        "verify.calls": recorder.layer("verify")[0],
        "verify.self_s": recorder.layer("verify")[1],
        "verify.memo_hit_ratio": share(
            decisions - sum(p.tpps_verified for p in policies), decisions),
        "race.admits": recorder.layer("race")[0],
        "race.self_s": recorder.layer("race")[1],
        "control.decisions": recorder.layer("control")[0],
        "control.self_s": recorder.layer("control")[1],
        "endhost.sends": sends,
        "endhost.self_s": recorder.layer("endhost")[1],
        "endhost.answered_share": share(
            sum(e.responses_received for e in endpoints), sends),
        "endhost.timeouts": sum(e.timeouts for e in endpoints),
        "analysis.self_s": recorder.layer("analysis")[1],
        "trace.emits": net.trace.records_emitted,
        "trace.self_s": recorder.layer("trace")[1],
        "trace.records_held": len(net.trace),
        "tpp.snapshot_s": recorder.layer("snapshot")[1],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", type=Path, default=None,
                        help="write the traced run's spans here")
    args = parser.parse_args()

    recorder = None
    if args.trace:
        import spans
        recorder = spans.SpanRecorder()
        spans.install(recorder)

    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    if recorder is not None:
        recorder.reset()
    first_event_mono = time.monotonic()
    # The horizon runs in equal slices (consecutive runs compose into
    # one), each followed by an untimed run of the host-speed kernel.
    run_s = 0.0
    kernels = []
    for k in range(1, SLICES + 1):
        start = time.perf_counter()
        workload.simulate(k / SLICES)
        run_s += time.perf_counter() - start
        kernels.append(hostspeed.kernel_s())
    start = time.perf_counter()
    result = workload.analyze()
    run_s += time.perf_counter() - start
    kernels.append(hostspeed.kernel_s())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checks = dict(workload.checks(result))
    outcome = json.dumps(workload.outcome(result), sort_keys=True)
    report: Dict[str, Any] = {
        "first_event_mono": first_event_mono,
        "run_s": run_s,
        "kernel_s": sum(kernels) / len(kernels),
        "peak_rss_mb": peak_rss_mb,
        "checks": checks,
        "digest": hashlib.sha256(outcome.encode()).hexdigest(),
    }
    if recorder is not None:
        report["layers"] = layer_metrics(workload, recorder)
        if args.spans_out is not None:
            recorder.write(args.spans_out)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
