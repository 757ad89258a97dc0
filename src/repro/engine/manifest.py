"""Resumable campaign manifests: streamed JSONL shards + completed-key index.

A :class:`CampaignManifest` is a directory the runner streams into as
cells reach terminal status — the durability layer under the supervisor
(:mod:`repro.engine.supervise`):

* ``shards/shard-NNNN.jsonl`` — full scenario records in completion
  order, one shard per campaign run over the directory (a resumed
  campaign appends a new shard, never rewrites an old one);
* ``manifest.jsonl`` — the completed-key index: one line per terminal
  cell with its ``key`` + ``seed`` (the same content-addressing the
  warm cache and the cross-commit differ join on), terminal ``status``,
  attempt count, and owning shard.

Each record is flushed to its shard *before* its manifest line is
written and flushed, so a manifest entry always points at a durable
record; ``kill -9`` can at worst leave a truncated trailing line in
either file, which the loaders skip (the cell simply counts as not
completed and is re-run on resume).  Cells in *any* terminal status —
including ``error``/``timeout``/``crashed``/``quarantined`` — are
completed: ``--resume`` re-runs only cells missing from the index, so a
quarantined hang is not re-hung on every resume (re-run failures by
deleting the directory or with a fresh one).

:func:`merge_records` reassembles a full campaign dump in spec order
from the shards, so the merged JSONL of an interrupted-and-resumed
campaign matches an uninterrupted run on every deterministic field
(wall time and attempt counts legitimately differ).
"""

from __future__ import annotations

import json
import os
import warnings
from typing import (Any, Dict, Iterable, List, Optional, Sequence,
                    TextIO, Tuple)

from .scenarios import ScenarioResult
from .spec import ScenarioSpec

__all__ = ["CampaignManifest", "ManifestWarning", "ShardWriter",
           "result_from_record"]

#: join identity of one scenario (the differ's ``Key``)
Key = Tuple[str, int]

MANIFEST_NAME = "manifest.jsonl"
SHARD_DIR = "shards"


class ManifestWarning(UserWarning):
    """A manifest or shard line could not be used (typically the
    truncated tail a ``kill -9`` leaves); the cell counts as missing."""


def _read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL file, skipping unparseable lines with a warning.

    A half-written trailing line is the expected wreckage of a killed
    campaign; anything else malformed is surfaced but never fatal — a
    resume must not be blocked by the very crash it is recovering from.
    """
    records: List[Dict[str, Any]] = []
    try:
        with open(path) as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    warnings.warn(
                        f"{path}:{line_no}: skipping unparseable line "
                        f"(truncated by a crash?)", ManifestWarning,
                        stacklevel=2)
                    continue
                if isinstance(rec, dict):
                    records.append(rec)
    except FileNotFoundError:
        pass
    return records


class ShardWriter:
    """Streams one campaign run's records into its own shard.

    ``append`` writes the record line and flushes it, then the
    manifest index line and flushes that — the ordering that makes the
    index trustworthy after a kill.  Flushing hands the lines to the
    OS, which survives process death (only power loss defeats it);
    per-record ``fsync`` would cost more than most cells do.
    """

    def __init__(self, shard_name: str, shard_path: str,
                 manifest_path: str) -> None:
        self.shard_name = shard_name
        self._shard: Optional[TextIO] = open(shard_path, "a")
        self._manifest: Optional[TextIO] = open(manifest_path, "a")
        self.written = 0

    def append(self, record: Dict[str, Any]) -> None:
        if self._shard is None:
            raise ValueError("shard writer is closed")
        self._shard.write(json.dumps(record, sort_keys=True) + "\n")
        self._shard.flush()
        entry = {"key": record["key"], "seed": record["seed"],
                 "status": record.get("status", "ok"),
                 "attempts": record.get("attempts", 1),
                 "shard": self.shard_name}
        self._manifest.write(json.dumps(entry, sort_keys=True) + "\n")
        self._manifest.flush()
        self.written += 1

    def close(self) -> None:
        for fh in (self._shard, self._manifest):
            if fh is not None:
                fh.close()
        self._shard = self._manifest = None

    def __enter__(self) -> "ShardWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class CampaignManifest:
    """One campaign's durable state, rooted at a directory."""

    def __init__(self, root: str) -> None:
        self.root = root

    # -- paths ----------------------------------------------------------
    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_NAME)

    @property
    def shard_dir(self) -> str:
        return os.path.join(self.root, SHARD_DIR)

    def shard_path(self, name: str) -> str:
        return os.path.join(self.shard_dir, name)

    def exists(self) -> bool:
        return os.path.exists(self.manifest_path)

    # -- write side -----------------------------------------------------
    def open_writer(self) -> ShardWriter:
        """A writer on the next free shard (one shard per run)."""
        os.makedirs(self.shard_dir, exist_ok=True)
        taken = set(os.listdir(self.shard_dir))
        index = 0
        while f"shard-{index:04d}.jsonl" in taken:
            index += 1
        name = f"shard-{index:04d}.jsonl"
        return ShardWriter(name, self.shard_path(name),
                           self.manifest_path)

    # -- read side ------------------------------------------------------
    def completed(self) -> Dict[Key, Dict[str, Any]]:
        """``(key, seed) -> index entry`` for every terminal cell
        (later entries win: a re-run over the same directory counts
        its last terminal outcome)."""
        entries: Dict[Key, Dict[str, Any]] = {}
        for entry in _read_jsonl(self.manifest_path):
            try:
                ident = (entry["key"], int(entry["seed"]))
            except (KeyError, TypeError, ValueError):
                continue
            entries[ident] = entry
        return entries

    def records(self) -> Dict[Key, Dict[str, Any]]:
        """``(key, seed) -> full scenario record``, joined against the
        completed-key index (a shard record without an index line was
        mid-write when the campaign died — it is *not* completed)."""
        index = self.completed()
        records: Dict[Key, Dict[str, Any]] = {}
        if not index:
            return records
        try:
            shards = sorted(os.listdir(self.shard_dir))
        except FileNotFoundError:
            shards = []
        for shard in shards:
            if not shard.endswith(".jsonl"):
                continue
            for rec in _read_jsonl(self.shard_path(shard)):
                try:
                    ident = (rec["key"], int(rec["seed"]))
                except (KeyError, TypeError, ValueError):
                    continue
                if ident in index:
                    records[ident] = rec
        return records

    def merge_records(self, specs: Sequence[ScenarioSpec]
                      ) -> List[Dict[str, Any]]:
        """The completed records of ``specs``, in spec order — the
        deterministic reassembly of an interrupted campaign's dump."""
        records = self.records()
        out: List[Dict[str, Any]] = []
        for spec in specs:
            rec = records.get((spec.key, spec.seed))
            if rec is not None:
                out.append(rec)
        return out

    def merge_to(self, path: str, specs: Sequence[ScenarioSpec]) -> int:
        """Write the merged dump for ``specs`` to ``path`` (JSONL,
        spec order); returns the record count."""
        merged = self.merge_records(specs)
        with open(path, "w") as fh:
            for rec in merged:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        return len(merged)


def result_from_record(spec: ScenarioSpec,
                       rec: Dict[str, Any]) -> ScenarioResult:
    """Reconstruct a :class:`ScenarioResult` from its JSONL record so a
    resumed campaign aggregates exactly like the run that produced it.

    Node identities travel as strings in records (the JSON encoding),
    so ``faulty_nodes`` of a reconstructed result are strings even when
    the original ids were ints — every *recorded* field round-trips
    bit-for-bit, which is what resume correctness is defined over.
    """
    return ScenarioResult(
        spec=spec,
        n=rec.get("n", 0),
        expected_detection=bool(rec.get("expected_detection", False)),
        detected=bool(rec.get("detected", False)),
        premature_alarm=bool(rec.get("premature_alarm", False)),
        settle_rounds=rec.get("settle_rounds", 0),
        rounds_run=rec.get("rounds_run", 0),
        rounds_to_detection=rec.get("rounds_to_detection"),
        detection_distance=rec.get("detection_distance"),
        max_memory_bits=rec.get("max_memory_bits", 0),
        total_memory_bits=rec.get("total_memory_bits", 0),
        alarm_count=rec.get("alarm_count", 0),
        alarm_reasons=tuple(rec.get("alarm_reasons", ())),
        faulty_nodes=tuple(rec.get("faulty_nodes", ())),
        activations=rec.get("activations"),
        rows_fused=rec.get("rows_fused"),
        rows_residual=rec.get("rows_residual"),
        rows_scalar=rec.get("rows_scalar"),
        churn_events=rec.get("churn_events"),
        rounds_to_redetect=tuple(rec.get("rounds_to_redetect") or ()),
        rounds_to_quiesce=tuple(rec.get("rounds_to_quiesce") or ()),
        alarms_per_event=tuple(rec.get("alarms_per_event") or ()),
        availability=rec.get("availability"),
        wall_time=rec.get("wall_time", 0.0),
        cache_hit=rec.get("cache_hit"),
        settle_rounds_saved=rec.get("settle_rounds_saved", 0),
        error=rec.get("error"),
        status=rec.get("status", "ok"),
        error_type=rec.get("error_type"),
        error_trace=tuple(rec.get("error_trace", ())),
        attempts=rec.get("attempts", 1),
    )
