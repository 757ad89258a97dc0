"""Campaign execution: fan scenarios out under supervision, aggregate.

``CampaignRunner.run`` takes any iterable of
:class:`~repro.engine.spec.ScenarioSpec` (typically from
:func:`~repro.engine.spec.grid` or a builder in
:mod:`repro.engine.campaigns`), executes every scenario — in-process
when ``workers <= 1``, over *supervised* worker processes otherwise
(:mod:`repro.engine.supervise`) — and returns a :class:`CampaignResult`
that keeps the results aligned with the input specs and answers the
campaign-level questions: which scenarios violated completeness or
soundness, how detection time and memory distribute per axis value, and
how long the sweep took.

Every scenario ends in a structured terminal status
(:data:`~repro.engine.scenarios.TERMINAL_STATUSES`): a scenario that
raises becomes an ``error`` result carrying the exception type and a
bounded traceback tail; under supervision a crashed worker's cell is
retried on a fresh worker, a cell exceeding its per-cell timeout is
terminated, and retry-exhausted cells are quarantined — one broken,
hung, or OOM-killed cell never aborts or wedges a sweep.

With a ``manifest`` directory the runner streams each terminal record
to a JSONL shard plus a completed-key index as it lands
(:mod:`repro.engine.manifest`); ``resume=True`` then re-runs only the
cells missing from the index and reassembles the rest, so a killed
campaign continues where it stopped and its merged dump matches an
uninterrupted run on every deterministic field.  ``KeyboardInterrupt``
flushes completed results and raises
:class:`~repro.engine.supervise.CampaignInterrupted` with them
attached.

Runtime-registered axis kinds (``register_topology`` etc.) live in the
parent process's registries; workers inherit them only under the
``fork`` start method (the Linux default).  Under ``spawn``
(macOS/Windows default) the runner fails fast with the offending kinds
by name (see :func:`~repro.engine.scenarios.runtime_registered_axes`)
instead of letting workers die on an opaque ``KeyError``; pass a
module-level ``worker_init`` callable that performs the registrations
(it runs in every fresh worker), use ``mp_context="fork"``, or run with
``workers=1``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..sim.schedulers import STORAGE_ALIASES, STORAGE_DEFAULT
from .manifest import CampaignManifest, result_from_record
from .scenarios import (STATUS_OK, ScenarioError, ScenarioResult,
                        runtime_registered_axes)
from .spec import ScenarioSpec
from .supervise import (CampaignInterrupted, SuperviseConfig, _run_one,
                        run_supervised)
from .warmcache import WarmCache, get_warm_cache, set_warm_cache


def scenario_record(result: ScenarioResult) -> Dict[str, Any]:
    """One scenario result as a flat JSON-serializable record.

    The spec is recorded both as its compact ``key`` (the stable join
    field for cross-commit trend comparisons) and as the exploded axis
    kinds/params, so downstream tooling can group without re-parsing.
    """
    spec = result.spec
    rec: Dict[str, Any] = {
        "key": spec.key,
        "seed": spec.seed,
        "topology": str(spec.topology),
        "fault": str(spec.fault),
        "schedule": str(spec.schedule),
        "protocol": str(spec.protocol),
        "n": result.n,
        "expected_detection": result.expected_detection,
        "detected": result.detected,
        "premature_alarm": result.premature_alarm,
        "violation": result.violation,
        "settle_rounds": result.settle_rounds,
        "rounds_run": result.rounds_run,
        "rounds_to_detection": result.rounds_to_detection,
        "detection_distance": result.detection_distance,
        "max_memory_bits": result.max_memory_bits,
        "total_memory_bits": result.total_memory_bits,
        "alarm_count": result.alarm_count,
        "alarm_reasons": list(result.alarm_reasons),
        "faulty_nodes": [str(v) for v in result.faulty_nodes],
        "activations": result.activations,
        "super_batches": result.super_batches,
        "batches_coalesced": result.batches_coalesced,
        "rows_fused": result.rows_fused,
        "rows_residual": result.rows_residual,
        "rows_scalar": result.rows_scalar,
        "churn_events": result.churn_events,
        "rounds_to_redetect": list(result.rounds_to_redetect) or None,
        "rounds_to_quiesce": list(result.rounds_to_quiesce) or None,
        "alarms_per_event": list(result.alarms_per_event) or None,
        "availability": (None if result.availability is None
                         else round(result.availability, 6)),
        # None-safe scalar aggregates of the per-event tuples, shaped
        # so "bigger is worse" and the differ can gate them like
        # rounds_to_detection (unavailability inverts availability for
        # exactly that reason)
        "worst_redetect": max(
            (r for r in result.rounds_to_redetect if r is not None),
            default=None),
        "worst_quiesce": max(
            (q for q in result.rounds_to_quiesce if q is not None),
            default=None),
        "unavailability": (None if result.availability is None
                           else round(1.0 - result.availability, 6)),
        "wall_time": round(result.wall_time, 6),
        "cache_hit": result.cache_hit,
        "settle_rounds_saved": result.settle_rounds_saved,
        "error": result.error,
        "status": result.status,
        "error_type": result.error_type,
        "error_trace": list(result.error_trace),
        "attempts": result.attempts,
    }
    return rec


def dump_jsonl(results: Iterable[ScenarioResult], path: str) -> int:
    """Append-free JSONL dump: one record per scenario; returns count.

    A campaign dumped on every benchmark commit gives a comparable
    per-scenario trend series (join on ``key`` + ``seed``)."""
    count = 0
    with open(path, "w") as fh:
        for r in results:
            fh.write(json.dumps(scenario_record(r), sort_keys=True) + "\n")
            count += 1
    return count


@dataclass(frozen=True)
class CampaignResult:
    """All scenario results of one campaign, in spec order."""

    results: Tuple[ScenarioResult, ...]
    wall_time: float
    workers: int
    #: results reassembled from a manifest instead of executed (resume).
    resumed: int = 0

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index):
        return self.results[index]

    # -- campaign-level verdicts ---------------------------------------
    def violations(self) -> List[ScenarioResult]:
        """Scenarios that falsified completeness/soundness or failed to
        execute (``error``/``timeout``/``crashed``/``quarantined``)."""
        return [r for r in self.results if not r.ok]

    def completeness_violations(self) -> List[ScenarioResult]:
        return [r for r in self.results
                if r.violation == "completeness"]

    def soundness_violations(self) -> List[ScenarioResult]:
        return [r for r in self.results if r.violation == "soundness"]

    def errors(self) -> List[ScenarioResult]:
        return [r for r in self.results if r.error is not None]

    def statuses(self) -> Dict[str, int]:
        """Terminal-status histogram (``ok``/``error``/``timeout``/
        ``crashed``/``quarantined``)."""
        counts: Dict[str, int] = {}
        for r in self.results:
            counts[r.status] = counts.get(r.status, 0) + 1
        return counts

    # -- aggregation ----------------------------------------------------
    def by(self, role: str) -> Dict[str, List[ScenarioResult]]:
        """Group results by one axis (``"topology"``, ``"fault"``,
        ``"schedule"``, ``"protocol"``)."""
        groups: Dict[str, List[ScenarioResult]] = {}
        for r in self.results:
            groups.setdefault(str(getattr(r.spec, role)), []).append(r)
        return groups

    def rows(self, *fields: str) -> List[List]:
        """Extract result attributes as table rows (benchmark plumbing)."""
        return [[getattr(r, f) for f in fields] for r in self.results]

    def dump_jsonl(self, path: str) -> int:
        """Persist every scenario result as one JSON line; returns the
        number of records written (see :func:`dump_jsonl`)."""
        return dump_jsonl(self.results, path)

    def summary(self) -> str:
        """A human-readable campaign report."""
        from ..analysis import format_table
        head = (f"{len(self.results)} scenarios in {self.wall_time:.1f}s "
                f"({self.workers} worker(s)); "
                f"{len(self.violations())} violation(s), "
                f"{len(self.errors())} error(s)")
        if self.resumed:
            head += f"; {self.resumed} resumed from manifest"
        lines = [head]
        counts = self.statuses()
        if set(counts) != {STATUS_OK} and counts:
            lines.append("statuses: " + ", ".join(
                f"{status}={n}" for status, n in sorted(counts.items())))
        rows = []
        for key, group in sorted(self.by("fault").items()):
            detected = sum(1 for r in group if r.detected)
            times = [r.rounds_to_detection for r in group
                     if r.rounds_to_detection is not None]
            rows.append([
                key, len(group), detected,
                max(times) if times else "-",
                max(r.max_memory_bits for r in group),
                sum(1 for r in group if not r.ok),
            ])
        lines.append(format_table(
            ["fault", "runs", "detected", "worst detection rounds",
             "max memory bits", "violations"], rows))
        named = (r.spec.schedule.get("storage", STORAGE_DEFAULT)
                 for r in self.results)
        tiers = sorted({STORAGE_ALIASES.get(s, s) for s in named})
        if tiers:
            note = ""
            if "numpy" in tiers:
                from ..sim.npcolumnar import numpy_or_none
                note = (" (vectorized numpy tier active)"
                        if numpy_or_none() is not None else
                        " (numpy unavailable: degraded to columnar)")
            lines.append("storage tiers: " + ", ".join(tiers) + note)
        bad = self.violations()
        if bad:
            lines.append("violating scenarios:")
            lines.extend(f"  {r.spec.key} seed={r.spec.seed}: "
                         f"{r.violation}" for r in bad[:10])
        return "\n".join(lines)


class CampaignRunner:
    """Expands nothing, assumes nothing: runs the specs it is given.

    ``workers=None`` picks ``min(len(specs), cpu_count)``; ``workers=1``
    (or a single spec) runs inline, which keeps tracebacks pristine and
    lets the per-process instance cache accumulate across campaigns.
    With more workers the specs are dispatched one at a time to
    supervised worker processes (:func:`~repro.engine.supervise.
    run_supervised`): crashed workers are detected and their cells
    retried, cells exceeding ``supervise.timeout_for(spec)`` are
    terminated, and every cell ends in a terminal status.

    ``supervise`` (a :class:`~repro.engine.supervise.SuperviseConfig`)
    sets timeouts, attempt budgets, backoff, the chaos hook, and
    ``worker_init``; the default config has no deadline and one crash
    retry.  The chaos hook only applies to supervised workers — the
    inline path cannot survive a crash or hang of its own process.

    ``manifest`` (a :class:`~repro.engine.manifest.CampaignManifest`
    or a directory path) streams every terminal record to a JSONL
    shard + completed-key index as it lands; ``resume=True`` re-runs
    only the cells missing from the index and reassembles the rest
    (``CampaignResult.resumed`` counts them).

    ``warm_cache`` (a :class:`~repro.engine.warmcache.WarmCache` or a
    directory path) warm-starts inject-fault scenarios from settled
    snapshots: cells sharing a settle configuration restore instead of
    re-settling, across fault cells within the run and across runs over
    the same directory.  The cache is installed ambiently for the run —
    inline or in each supervised worker — and the previous ambient
    cache is put back afterwards; without the parameter an
    already-ambient cache (``set_warm_cache``) is honored.
    """

    def __init__(self, workers: Optional[int] = None,
                 mp_context: Optional[str] = None,
                 warm_cache: Optional[Any] = None,
                 supervise: Optional[SuperviseConfig] = None,
                 manifest: Optional[Any] = None,
                 resume: bool = False) -> None:
        self.workers = workers
        self.mp_context = mp_context
        if isinstance(warm_cache, str):
            warm_cache = WarmCache(warm_cache)
        self.warm_cache: Optional[WarmCache] = warm_cache
        self.supervise = supervise or SuperviseConfig()
        if isinstance(manifest, str):
            manifest = CampaignManifest(manifest)
        self.manifest: Optional[CampaignManifest] = manifest
        self.resume = resume
        if resume and manifest is None:
            raise ValueError("resume=True requires a manifest")

    def _check_spawn_safe(self, specs: List[ScenarioSpec]) -> None:
        """Fail fast when runtime-registered axes cannot reach spawned
        workers (satellite: the opaque in-worker KeyError this used to
        surface as)."""
        method = multiprocessing.get_context(
            self.mp_context).get_start_method()
        if method == "fork" or self.supervise.worker_init is not None:
            return
        rogue = runtime_registered_axes(specs)
        if not rogue:
            return
        detail = "; ".join(f"{role} kind(s) {kinds}"
                           for role, kinds in rogue.items())
        raise ScenarioError(
            f"campaign uses runtime-registered {detail}, but the "
            f"{method!r} start method re-imports the registries in "
            f"every worker, so those registrations would be missing "
            f"(workers die with an opaque KeyError). Workarounds: pass "
            f"a module-level worker_init callable that performs the "
            f"register_* calls (SuperviseConfig(worker_init=...)), use "
            f"mp_context='fork', or run with workers=1.")

    def run(self, specs: Iterable[ScenarioSpec],
            progress: Optional[Callable[[int, int, ScenarioResult],
                                        None]] = None) -> CampaignResult:
        spec_list = list(specs)
        start = time.perf_counter()

        # resume: split completed cells (reassembled from the manifest)
        # from the cells still to run
        slots: List[Optional[ScenarioResult]] = [None] * len(spec_list)
        todo: List[Tuple[int, ScenarioSpec]] = list(enumerate(spec_list))
        resumed = 0
        if self.manifest is not None and self.resume:
            recorded = self.manifest.records()
            todo = []
            for i, spec in enumerate(spec_list):
                rec = recorded.get((spec.key, spec.seed))
                if rec is not None:
                    slots[i] = result_from_record(spec, rec)
                    resumed += 1
                else:
                    todo.append((i, spec))

        workers = self.workers
        if workers is None:
            workers = min(len(todo), os.cpu_count() or 1) or 1
        active = self.warm_cache if self.warm_cache is not None \
            else get_warm_cache()

        writer = self.manifest.open_writer() \
            if self.manifest is not None and todo else None
        executed = 0

        def land(idx: int, result: ScenarioResult) -> None:
            """A cell reached terminal status: stream it, then report."""
            nonlocal executed
            slots[idx] = result
            executed += 1
            if writer is not None:
                writer.append(scenario_record(result))
            if progress is not None:
                progress(resumed + executed, len(spec_list), result)

        try:
            if workers <= 1 or len(todo) <= 1:
                workers = 1
                previous = set_warm_cache(active)
                try:
                    for i, spec in todo:
                        land(i, _run_one(spec))
                except KeyboardInterrupt:
                    raise CampaignInterrupted(
                        [r for r in slots if r is not None],
                        len(spec_list)) from None
                finally:
                    set_warm_cache(previous)
            else:
                self._check_spawn_safe([spec for _, spec in todo])
                try:
                    run_supervised(
                        [spec for _, spec in todo], workers,
                        config=self.supervise,
                        mp_context=self.mp_context,
                        warm_root=active.root if active else None,
                        warm_restore=active.restore if active else True,
                        on_result=lambda pos, result: land(
                            todo[pos][0], result))
                except CampaignInterrupted:
                    raise CampaignInterrupted(
                        [r for r in slots if r is not None],
                        len(spec_list)) from None
        finally:
            if writer is not None:
                writer.close()

        return CampaignResult(
            results=tuple(r for r in slots if r is not None),
            wall_time=time.perf_counter() - start,
            workers=workers, resumed=resumed)


def run_campaign(specs: Iterable[ScenarioSpec],
                 workers: Optional[int] = None,
                 warm_cache: Optional[Any] = None,
                 **kwargs: Any) -> CampaignResult:
    """One-call convenience: ``CampaignRunner(...).run(specs)``."""
    return CampaignRunner(workers=workers, warm_cache=warm_cache,
                          **kwargs).run(specs)
