"""The bulk-activation plane: whole batches of activations at once.

PR 3 established that the columnar backend hit the pure-Python wall:
per verifier step, ~70 fine-grained context calls of protocol logic
dominate, so storage layout alone cannot buy further per-step time.
The next lever is *batching at the protocol level* — this module is the
contract between schedulers, protocols, and storage backends that makes
it possible without giving up the repo's bit-for-bit equivalence
guarantees.

The plane has three layers:

* **Protocols** receive every batch through
  :meth:`~repro.sim.network.Protocol.bulk_step`, whose base method runs
  :func:`drive_batch` over ``step``.  The contract for an override:
  ``bulk_step(batch)`` must be *observationally identical* to running
  ``self.step(ctx)`` for every context of the batch in order — same
  register contents, same alarms, same write tracking.  Protocols
  typically fuse their read-mostly phase (the static-check sweep, PLS
  verdict checks, train bookkeeping reads) across the batch and fall
  back to :func:`drive_batch` whenever fusion is not licensed.
* **Schedulers** step nodes only through ``bulk_step``: the
  synchronous schedulers hand over one whole round of active nodes;
  the asynchronous scheduler hands over one *group* at a time — the
  survivors of a conflict-free daemon batch, or a single activation of
  any other daemon (see the licenses below).  Skip logic, activation
  accounting, and stop conditions stay in the scheduler, run before
  and after each call: a batch is always a plain list of contexts to
  step.  ``bulk=False`` hands every batch over with ``ops=None``.
* **Storage backends** supply the fused primitives.  On columnar
  storage (:class:`ColumnarBulkOps`) a fused read-modify-write is a
  single sweep over an ``array('q')`` column with one dirty mark per
  batch (:meth:`~repro.sim.columnar.ColumnStore.inc_nat_batch`,
  :meth:`~repro.sim.columnar.ColumnStore.gather_values`); dict
  storage has no vectorizable layout, so ``batch.ops`` is None there
  and protocols run the generic per-node fallback driver — which is
  what keeps every backend bit-for-bit equivalent
  (``tests/test_bulk_plane.py`` proves bulk == scalar on every backend
  under every scheduler kind).

Fusion licenses: ``batch.ops`` is non-None only when the scheduler
guarantees that (a) no activation of the batch can observe a
batchmate's write, and (b) the batch cannot be aborted between
activations.  Under those two facts, hoisting *own-register* writes of
distinct nodes past each other is unobservable, so a protocol may run
one column sweep for the whole batch.  Three schedules grant it:

* **synchronous rounds** — neighbour reads go to a snapshot (never the
  live store) and ``stop_when`` is checked at round boundaries;
* **conflict-free asynchronous batches** — a daemon whose
  ``conflict_free`` attribute is set, such as
  :class:`~repro.sim.schedulers.ConflictFreeDaemon`, *pre-declares*
  that each batch's activated nodes have pairwise disjoint closed
  neighbourhoods, so even *live* reads (each activation reads exactly
  N[v]) cannot observe a batchmate's own-register write,
  and the scheduler resolves stop conditions at batch boundaries (a
  conflict-free batch models the distributed daemon's *simultaneous*
  activation of an independent set — checking a stop "between" two
  indistinguishable orderings is meaningless).  The same disjointness
  lets the scheduler run every skip check of the batch first, hand the
  survivors over in one call, and then do every activation's
  accounting: a skip check reads only the scheduler's per-node
  tracking of N[v] and an activation's accounting writes only node v's,
  so no check reads what a batchmate's accounting wrote.  The batch
  takes one logical tick per activation, and every survivor records
  the batch's final tick; since the batch's activations are contiguous
  in tick order, that preserves every cross-batch
  ``changed_at``/``stepped_at`` comparison (any other node's tick lies
  strictly before or strictly after the whole batch).  The argument
  needs no fused ops, so the scheduler runs a conflict-free batch this
  way on every storage and under ``bulk=False`` too;
* **one activation** — every asynchronous activation of a daemon
  that is not conflict-free (the one-node daemons, and each
  activation of the locality daemon's overlapping batches, which run
  live with activation-granular stops) is a group of its own, handed
  over as a one-context batch with live ops.  It has no batchmate
  whose write it could observe and no point between activations where
  it could be aborted, so both conditions hold trivially.  What this
  licenses is the per-node body with its dispatch layers hoisted out,
  not a cross-node sweep.  A conflict-free batch whose skip checks
  leave one survivor is handed over the same way.

``bulk=False`` hands every batch over with ``ops=None``, and on dict
storage ``batch.ops`` is None too, so the generic driver runs ``step``
there.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional


class BulkBatch:
    """One scheduler-issued batch of activations.

    ``contexts`` are the per-node contexts in activation order, every
    one of which steps (skipped activations never reach a batch);
    ``indices`` the matching dense node indices when ``ops`` is given
    (the asynchronous scheduler leaves them None on a one-context
    batch); ``ops`` the backend's fused primitives (None when only
    per-node semantics are licensed).  A protocol whose bulk sweep
    wrote every node of the batch sets ``wrote_all`` so the scheduler
    can account the whole batch in one pass instead of consuming
    per-context ``wrote`` flags.

    Several contexts with ``ops`` are a synchronous round or the
    survivors of a conflict-free asynchronous batch; one context with
    ``ops`` is the one-activation license (see the module docstring).
    """

    __slots__ = ("contexts", "indices", "ops", "wrote_all")

    def __init__(self, contexts: List[Any],
                 indices: Optional[List[int]] = None,
                 ops: Optional["ColumnarBulkOps"] = None) -> None:
        self.contexts = contexts
        self.indices = indices
        self.ops = ops
        self.wrote_all = False


def drive_batch(step: Callable[[Any], None], batch: BulkBatch) -> None:
    """The generic per-node fallback driver.

    Executes the batch exactly like a scalar loop — one ``step(ctx)``
    per context, in order.  The base
    :meth:`~repro.sim.network.Protocol.bulk_step` runs it, and a
    protocol that cannot (or may not) fuse delegates here and stays
    bit-for-bit equivalent on every backend.
    """
    for ctx in batch.contexts:
        step(ctx)


class ColumnarBulkOps:
    """Fused batch primitives over a :class:`~repro.sim.columnar.ColumnStore`.

    Handed to protocols by the *synchronous* schedulers on columnar
    storage (neighbour reads come from ``snap``, the batch cannot abort
    mid-round), and by the asynchronous scheduler with ``snap=None``
    (so ``snap is store``: reads are live) on every activation group.
    Being handed ops *is* the fusion license (see the module
    docstring): an unlicensed batch carries ``ops=None``.  The
    per-value semantics of every primitive replicate the scalar context
    API exactly — including sentinel encodings, boxed-overflow junk,
    and stable-version bookkeeping — so fusing is a pure reordering of
    own-register writes.
    """

    __slots__ = ("store", "snap")

    def __init__(self, store, snap=None) -> None:
        self.store = store
        self.snap = store if snap is None else snap

    def inc_nat(self, batch: BulkBatch, handle: int,
                cap: int = 1 << 30) -> List[int]:
        """Fused ``(nat(own) or 0) + 1`` read-modify-write over the
        batch; returns the new per-node values in batch order and marks
        the column dirty once.  The caller is responsible for write
        tracking (typically ``batch.wrote_all = True``)."""
        return self.store.inc_nat_batch(batch.indices, handle, cap)

    def gather(self, batch: BulkBatch, handle: int,
               default: Any = None) -> List[Any]:
        """Batch read of an own-register column in batch order — the
        values a scalar ``ctx.get`` loop would return (see
        :meth:`~repro.sim.columnar.ColumnStore.gather_values`); the
        verifier/hybrid sweeps read their budget ghost registers for
        the whole batch through this."""
        return self.store.gather_values(batch.indices, handle, default)
