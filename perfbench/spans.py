"""Span tracing around the public entry points of each ``repro`` layer.

The wrappers live in the benchmark, not in the program: :func:`install`
replaces each function named in :data:`TARGETS` with a timing wrapper
(class attributes for methods; every module binding of the object for
plain functions, since ``from x import f`` copies the reference).  It
must run after ``repro`` is imported and before any topology is built,
so bound methods that devices cache at construction (link callbacks,
endpoint handlers, pacing timers) are wrapped too.

Each call becomes a span with a parent link to the span open around it.
A span's self time is its duration minus the durations of its direct
children.  Aggregates (calls, total, self) are kept for every target;
per-call durations only for the targets whose percentiles are reported;
and the first :attr:`SpanRecorder.keep` spans themselves, with parent
links, for :meth:`SpanRecorder.write`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

#: (layer, "module:qualname") of every wrapped entry point.
TARGETS: List[Tuple[str, str]] = [
    ("sim", "repro.sim.simulator:Simulator.run"),
    ("net", "repro.net.port:Port.enqueue"),
    ("net", "repro.net.port:Port._finish_transmission"),
    ("net", "repro.net.link:Link.deliver_after_propagation"),
    ("net", "repro.net.link:Link._arrive"),
    ("net", "repro.net.queues:DropTailQueue.offer"),
    ("net", "repro.net.queues:DropTailQueue.begin_transmit"),
    ("net", "repro.net.queues:DropTailQueue.transmit_complete"),
    ("net", "repro.net.host:Host.receive"),
    ("asic", "repro.asic.switch:TPPSwitch.receive"),
    ("asic", "repro.asic.switch:TPPSwitch._drain_ingress"),
    ("asic", "repro.asic.parser:parse_frame"),
    ("asic", "repro.asic.tables:Tcam.lookup"),
    ("asic", "repro.asic.tables:L2Table.lookup"),
    ("asic", "repro.asic.tables:L3Table.lookup"),
    ("tcpu", "repro.core.tcpu:TCPU.execute"),
    ("batch", "repro.core.tcpu:TCPU.execute_batch"),
    ("asm", "repro.core.assembler:assemble"),
    ("tpp", "repro.core.assembler:AssembledProgram.build"),
    ("verify", "repro.core.verifier:verify"),
    ("verify", "repro.core.verifier:verify_program"),
    ("verify", "repro.core.verifier:verify_section"),
    ("verify", "repro.core.racecheck:summarize_certificate"),
    ("verify", "repro.core.tcpu:TCPU.trust"),
    ("race", "repro.core.racecheck:FleetRaceTable.admit"),
    ("control", "repro.control.security:VerifierPolicy.action_for"),
    ("control", "repro.control.security:EdgeTPPPolicy.action_for"),
    ("control", "repro.control.agent:ControlPlaneAgent.create_task"),
    ("control", "repro.control.agent:ControlPlaneAgent.allocate_sram"),
    ("control",
     "repro.control.agent:ControlPlaneAgent.allocate_link_register"),
    ("control",
     "repro.control.agent:ControlPlaneAgent.initialize_link_register"),
    ("control", "repro.control.agent:ControlPlaneAgent.initialize_sram"),
    ("endhost", "repro.endhost.client:TPPEndpoint.send"),
    ("endhost", "repro.endhost.client:TPPEndpoint.send_tpp"),
    ("endhost", "repro.endhost.client:TPPEndpoint.wrap"),
    ("endhost", "repro.endhost.client:TPPEndpoint.admit"),
    ("endhost", "repro.endhost.client:TPPEndpoint._on_tpp_frame"),
    ("endhost", "repro.endhost.probes:PeriodicProber._fire"),
    ("endhost", "repro.endhost.flows:Flow._emit"),
    ("endhost", "repro.endhost.flows:FlowSink._on_datagram"),
    ("analysis", "repro.apps.microburst:BurstDetector.detect"),
    ("analysis", "repro.apps.ndb:PathVerifier.verify"),
    ("analysis", "repro.analysis.convergence:jain_fairness"),
    ("analysis", "repro.analysis.timeseries:TimeSeries.resample_mean"),
    ("analysis", "repro.endhost.flows:FlowSink.goodput_bps"),
    ("analysis", "repro.endhost.client:TPPResultView.per_hop_words"),
    ("trace", "repro.sim.trace:TraceRecorder.emit"),
    ("snapshot", "repro.core.tpp:TPPSection.words"),
]

#: Targets whose per-call durations are kept for percentiles.
PER_CALL = {"repro.asic.switch:TPPSwitch.receive",
            "repro.core.tcpu:TCPU.execute"}


class SpanRecorder:
    """In-memory span store shared by every installed wrapper."""

    def __init__(self, keep: int = 20_000) -> None:
        self.keep = keep
        #: Open spans, innermost last: ``[child_seconds, span_id]``.
        self._stack: List[List[Any]] = []
        #: target -> [calls, total_s, self_s]
        self.stats: Dict[str, List[Any]] = {}
        #: target -> per-call durations (PER_CALL targets only).
        self.durations: Dict[str, array] = {}
        #: The first ``keep`` closed spans:
        #: ``(span_id, parent_id, target, start, duration)``.
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self._ids = itertools.count(1)
        self.origin = time.perf_counter()

    def wrap(self, target: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A timing wrapper around ``fn`` recording spans as ``target``."""
        stat = self.stats.setdefault(target, [0, 0.0, 0.0])
        samples = (self.durations.setdefault(target, array("d"))
                   if target.split(":", 1)[1] in PER_CALL else None)
        stack = self._stack
        spans = self.spans
        keep = self.keep
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            frame = [0.0, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if samples is not None:
                    samples.append(duration)
                if len(spans) < keep:
                    spans.append((frame[1], parent[1] if parent else 0,
                                  target, start, duration))

        return wrapper

    def reset(self) -> None:
        """Forget everything recorded so far (e.g. during set-up)."""
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        for samples in self.durations.values():
            del samples[:]
        self.spans.clear()
        self.origin = time.perf_counter()

    def layer(self, layer: str) -> Tuple[int, float]:
        """(calls, self seconds) summed over one layer's targets."""
        calls, self_s = 0, 0.0
        for target, (n, _, own) in self.stats.items():
            if target.split(":", 1)[0] == layer:
                calls += n
                self_s += own
        return calls, self_s

    def percentile_us(self, layer: str, spec: str, fraction: float) -> float:
        """Per-call duration percentile of a PER_CALL target, in µs."""
        samples = sorted(self.durations.get(f"{layer}:{spec}", ()))
        if not samples:
            return 0.0
        index = min(len(samples) - 1, int(fraction * len(samples)))
        return samples[index] * 1e6

    def write(self, path: Path) -> None:
        """Write the aggregates and the kept spans as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.origin
        doc = {
            "targets": {target: {"calls": n, "total_s": total,
                                 "self_s": own}
                        for target, (n, total, own)
                        in sorted(self.stats.items())},
            "spans_kept": len(self.spans),
            "spans": [{"id": span_id, "parent": parent, "target": target,
                       "start_us": round((start - origin) * 1e6, 3),
                       "duration_us": round(duration * 1e6, 3)}
                      for span_id, parent, target, start, duration
                      in self.spans],
        }
        path.write_text(json.dumps(doc))


def install(recorder: SpanRecorder) -> None:
    """Wrap every :data:`TARGETS` entry point with ``recorder``."""
    for layer, spec in TARGETS:
        module_name, qualname = spec.split(":")
        module = importlib.import_module(module_name)
        target = f"{layer}:{spec}"
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, attr, recorder.wrap(target, cls.__dict__[attr]))
            continue
        original = getattr(module, qualname)
        wrapped = recorder.wrap(target, original)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", {})
            for name, value in list(namespace.items()):
                if value is original:
                    namespace[name] = wrapped
