"""Outside-in span tracer for the perf benchmark.

The benchmark may not touch ``src/``, so per-layer numbers come from
wrapping public functions and methods of ``repro.*`` from here, around
the calls into each layer.  A wrapper records a span: name, start, end,
parent span and a trace id (the campaign cell key, or the patrol block
index).  Coarse spans (cells, marker, install, scheduler runs, snapshot
and warm-cache traffic, fault injection, churn) are kept in memory and
written as JSON when the run ends; per-activation and per-batch spans
(protocol steps, bulk sweeps, daemon picks, storage batch ops) are only
aggregated, because a campaign makes millions of them.  Every span,
kept or not, charges its duration to its parent, so a layer's *self*
time is its span time minus the time its child spans cover.

Names are patched where the caller looks them up: a function imported
by name into another module is replaced in *that* module's namespace
(``repro.engine.scenarios.run_marker``), methods on the class.  The
wrappers must be installed before instances are built, because
schedulers capture the protocol's bound ``bulk_step`` at construction.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Any, Callable, Dict, List, Optional

#: span names whose individual spans are kept (the rest only aggregate)
KEPT = {"scenario", "marker", "network.install", "network.memory_bits",
        "sched.construct", "sched.settle", "sched.detect", "sched.churn",
        "sched.patrol", "snapshot.capture", "snapshot.restore",
        "warm.load", "warm.store", "faults.inject", "churn",
        "churn.topology_changed"}

#: scheduler-run span names, one per phase of a run
SCHED_RUNS = ("sched.settle", "sched.detect", "sched.churn", "sched.patrol")

#: protocol ``bulk_stats`` counters (the vector tier's row mix)
ROW_STATS = ("rows_fused", "rows_residual", "rows_scalar", "plan_rebuilds",
             "plan_refreshes")


class Tracer:
    """Span stack, per-name aggregates, kept spans, and counters.

    ``phase`` lets the caller name the phase of the scheduler runs it
    drives itself (``"settle"``/``"patrol"``); runs made inside engine
    cells are classified from their stop condition instead."""

    def __init__(self) -> None:
        self.stack: List[list] = []
        #: name -> [calls, total seconds, self seconds]
        self.agg: Dict[str, list] = {}
        #: kept spans: [name, start, end, parent index, trace id]
        self.spans: List[list] = []
        self.trace_id: Optional[str] = None
        self.phase: Optional[str] = None
        self.counts: Dict[str, float] = {}
        #: per finished cell: (cache_hit, settle_rounds_saved,
        #: churn_events)
        self.cells: List[tuple] = []

    # -- spans ----------------------------------------------------------
    def enter(self, name: str) -> Optional[list]:
        stack = self.stack
        if stack and stack[-1][0] == name:
            # a super() chain of one layer (numpy store -> column store)
            # is one span
            return None
        index = None
        if name in KEPT:
            parent = next((f[3] for f in reversed(stack)
                           if f[3] is not None), None)
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.trace_id])
        frame = [name, time.perf_counter(), 0.0, index]
        if index is not None:
            self.spans[index][1] = frame[1]
        stack.append(frame)
        return frame

    def exit(self, frame: Optional[list]) -> None:
        if frame is None:
            return
        end = time.perf_counter()
        self.stack.pop()
        dur = end - frame[1]
        rec = self.agg.get(frame[0])
        if rec is None:
            rec = self.agg[frame[0]] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[2]
        if self.stack:
            self.stack[-1][2] += dur
        if frame[3] is not None:
            self.spans[frame[3]][2] = end

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(frame)
        return traced

    # -- special wrappers -----------------------------------------------
    def wrap_scenario(self, fn: Callable) -> Callable:
        """``run_scenario``: the cell span, keyed by the cell's key."""
        @functools.wraps(fn)
        def traced(spec):
            self.trace_id = spec.key
            frame = self.enter("scenario")
            try:
                result = fn(spec)
            finally:
                self.exit(frame)
                self.trace_id = None
            self.cells.append((result.cache_hit, result.settle_rounds_saved,
                               result.churn_events or 0))
            return result
        return traced

    def wrap_sched_run(self, fn: Callable, first_alarm: Callable) -> Callable:
        """``Scheduler.run``: one span per run, named after its phase,
        plus the scheduler and bulk-plane counter deltas."""
        @functools.wraps(fn)
        def traced(sched, max_rounds, stop_when=None, *args, **kwargs):
            phase = self.phase
            if phase is None:
                if any(f[0] == "churn" for f in self.stack):
                    phase = "churn"
                elif stop_when is first_alarm:
                    phase = "detect"
                else:
                    phase = "settle"
            before = _sched_counters(sched)
            frame = self.enter("sched." + phase)
            try:
                executed = fn(sched, max_rounds, stop_when, *args, **kwargs)
            finally:
                self.exit(frame)
            after = _sched_counters(sched)
            self.add("rounds", executed)
            if after["activations"] is None:
                self.add("activations",
                         len(sched.network.graph.nodes()) * executed)
            else:
                for key in ("activations", "skipped", "super_batches",
                            "coalesced"):
                    self.add(key, after[key] - before[key])
                self.add("async_activations",
                         after["activations"] - before["activations"])
            for key in ROW_STATS:
                self.add(key, after[key] - before[key])
            return executed
        return traced

    # -- results ----------------------------------------------------------
    def total(self, *names: str) -> float:
        return sum(self.agg.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_time(self, *names: str) -> float:
        return sum(self.agg.get(n, (0, 0.0, 0.0))[2] for n in names)

    def calls(self, *names: str) -> int:
        return sum(self.agg.get(n, (0, 0.0, 0.0))[0] for n in names)

    def layer_metrics(self) -> Dict[str, float]:
        """Every per-layer metric the tracer measures (the workload adds
        ``supervise.busy_frac`` and ``trace.overhead_frac``)."""
        c = self.counts.get
        cells_ms = [1000.0 * (end - start)
                    for name, start, end, _, _ in self.spans
                    if name == "scenario"]
        rows = c("rows_fused", 0) + c("rows_residual", 0) + \
            c("rows_scalar", 0)
        hits = [hit for hit, _, _ in self.cells if hit is not None]
        async_acts = c("async_activations", 0)
        return {
            "scenarios.cell_ms_p50": percentile(cells_ms, 0.50),
            "scenarios.cell_ms_p95": percentile(cells_ms, 0.95),
            "scenarios.self_s": self.self_time("scenario"),
            "marker.calls": self.calls("marker"),
            "marker.s": self.total("marker"),
            "network.install_s": self.total("network.install"),
            "network.memory_bits_s": self.total("network.memory_bits"),
            "sched.construct_s": self.total("sched.construct"),
            "sched.settle_s": self.total("sched.settle"),
            "sched.detect_s": self.total("sched.detect"),
            "sched.churn_s": self.total("sched.churn"),
            "sched.self_s": self.self_time(*SCHED_RUNS),
            "sched.rounds": c("rounds", 0),
            "sched.activations": c("activations", 0),
            "sched.skip_frac": (c("skipped", 0) / async_acts
                                if async_acts else 0.0),
            "sched.coalesce_ratio": (c("coalesced", 0) / c("super_batches")
                                     if c("super_batches") else 0.0),
            "daemon.calls": self.calls("daemon"),
            "daemon.s": self.total("daemon"),
            "proto.step_calls": self.calls("proto.step"),
            "proto.step_s": self.total("proto.step"),
            "proto.bulk_step_s": self.total("proto.bulk_step"),
            "proto.fused_sweep_s": self.total("proto.fused_sweep"),
            "bulk.drive_batch_s": self.total("bulk.drive_batch"),
            "vector.rows_fused": c("rows_fused", 0),
            "vector.rows_residual": c("rows_residual", 0),
            "vector.rows_scalar": c("rows_scalar", 0),
            "vector.fused_frac": c("rows_fused", 0) / rows if rows else 0.0,
            "vector.plan_rebuilds": c("plan_rebuilds", 0),
            "vector.plan_refreshes": c("plan_refreshes", 0),
            "store.refresh_calls": self.calls("store.refresh"),
            "store.refresh_s": self.total("store.refresh"),
            "store.batch_ops_s": self.total("store.batch"),
            "store.fork_s": self.total("store.fork"),
            "snapshot.capture_s": self.total("snapshot.capture"),
            "snapshot.restore_s": self.total("snapshot.restore"),
            "warm.load_s": self.total("warm.load"),
            "warm.store_s": self.total("warm.store"),
            "warm.hit_frac": sum(hits) / len(hits) if hits else 0.0,
            "warm.settle_rounds_saved": sum(s for _, s, _ in self.cells),
            "faults.inject_s": self.total("faults.inject"),
            "churn.events": sum(e for _, _, e in self.cells),
            "churn.topology_changed_s": self.total("churn.topology_changed"),
            "churn.self_s": self.self_time("churn"),
        }

    def dump(self, path, **meta: Any) -> None:
        """Write the kept spans and the per-name aggregates as JSON."""
        doc = dict(meta)
        doc["spans"] = [{"name": name, "start": start, "end": end,
                         "parent": parent, "trace_id": trace_id}
                        for name, start, end, parent, trace_id in self.spans]
        doc["aggregates"] = {name: {"calls": calls, "total_s": total,
                                    "self_s": self_s}
                             for name, (calls, total, self_s)
                             in sorted(self.agg.items())}
        doc["counts"] = self.counts
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _sched_counters(sched) -> Dict[str, Any]:
    stats = getattr(sched.protocol, "bulk_stats", None) or {}
    out = {key: stats.get(key, 0) for key in ROW_STATS}
    out["activations"] = getattr(sched, "activations", None)
    out["skipped"] = getattr(sched, "steps_skipped", 0)
    out["super_batches"] = getattr(sched, "super_batches", 0)
    out["coalesced"] = getattr(sched, "batches_coalesced", 0)
    return out


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0.0 for no values)."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class TracePatches:
    """Context manager: patch the layer seams of ``repro.*`` with
    ``tracer``'s wrappers, and put the originals back on exit."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[tuple] = []

    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        # remember whether the owner defined the name itself, so exit
        # restores inheritance instead of pinning the inherited function
        self._undo.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, wrapper)

    def _span(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, self.tracer.wrap(name, getattr(owner, attr)))

    def __enter__(self) -> Tracer:
        from repro.baselines import pls_sqlog
        from repro.engine import scenarios, supervise, warmcache
        from repro.sim import (columnar, faults, network, npcolumnar,
                               registers, schedulers)
        from repro.verification import hybrid, marker, verifier

        t = self.tracer
        self._patch(supervise, "run_scenario",
                    t.wrap_scenario(supervise.run_scenario))
        for module in (scenarios, marker):
            self._span(module, "run_marker", "marker")
        self._span(scenarios, "capture_run_state", "snapshot.capture")
        self._span(scenarios, "restore_run_state", "snapshot.restore")
        self._span(scenarios, "run_with_churn", "churn")
        self._span(scenarios, "lie_about_used_piece", "faults.inject")
        self._span(network.Network, "install", "network.install")
        for attr in ("max_memory_bits", "total_memory_bits"):
            self._span(network.Network, attr, "network.memory_bits")
        for cls in (schedulers.SynchronousScheduler,
                    schedulers.AsynchronousScheduler):
            self._span(cls, "__init__", "sched.construct")
            self._span(cls, "topology_changed", "churn.topology_changed")
            self._patch(cls, "run", t.wrap_sched_run(cls.run,
                                                     network.first_alarm))
        for cls in (schedulers.RoundRobinDaemon, schedulers.RandomDaemon,
                    schedulers.PermutationDaemon,
                    schedulers.LocalityBatchDaemon,
                    schedulers.ConflictFreeDaemon,
                    schedulers.TiledConflictFreeDaemon,
                    schedulers.SlowNodesDaemon):
            self._span(cls, "next_batch", "daemon")
        for cls in (verifier.MstVerifierProtocol,
                    hybrid.HybridVerifierProtocol,
                    pls_sqlog.SqLogPlsProtocol):
            self._span(cls, "step", "proto.step")
            self._span(cls, "bulk_step", "proto.bulk_step")
        for module in (verifier, hybrid):
            self._span(module, "fused_verifier_sweep", "proto.fused_sweep")
        for module in (verifier, hybrid, pls_sqlog):
            self._span(module, "drive_batch", "bulk.drive_batch")
        for cls in (columnar.ColumnStore, npcolumnar.NumpyColumnStore):
            self._span(cls, "refresh_from", "store.refresh")
            self._span(cls, "inc_nat_batch", "store.batch")
            self._span(cls, "gather_values", "store.batch")
        self._span(columnar.ColumnStore, "fork", "store.fork")
        # the register-file tier snapshots by copying per-node files
        self._span(registers.RegisterFile, "copy", "store.refresh")
        self._span(warmcache.WarmCache, "load", "warm.load")
        self._span(warmcache.WarmCache, "store", "warm.store")
        for attr in ("corrupt_random_nodes", "scramble_node"):
            self._span(faults.FaultInjector, attr, "faults.inject")
        return t

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()


_ABSENT = object()
