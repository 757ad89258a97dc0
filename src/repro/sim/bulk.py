"""The bulk-activation plane: whole batches of activations at once.

PR 3 established that the columnar backend hit the pure-Python wall:
per verifier step, ~70 fine-grained context calls of protocol logic
dominate, so storage layout alone cannot buy further per-step time.
The next lever is *batching at the protocol level* — this module is the
contract between schedulers, protocols, and storage backends that makes
it possible without giving up the repo's bit-for-bit equivalence
guarantees.

The plane has three layers:

* **Protocols** declare the capability by overriding
  :meth:`~repro.sim.network.Protocol.bulk_step` (``None`` on the base
  class).  The contract: ``bulk_step(batch)`` must be *observationally
  identical* to running ``self.step(ctx)`` for every context of the
  batch in order, honouring the batch's ``gate``/``after`` callbacks —
  same register contents, same alarms, same write tracking.  Protocols
  typically fuse their read-mostly phase (the static-check sweep, PLS
  verdict checks, train bookkeeping reads) across the batch and fall
  back to :func:`drive_batch` whenever fusion is not licensed.
* **Schedulers** route their activation batches through ``bulk_step``
  when the protocol declares it (``bulk=False`` keeps the scalar loops):
  the synchronous schedulers hand over one whole round of active nodes;
  the asynchronous scheduler hands over conflict-free daemon batches
  (see the licenses below) to protocols that declare
  ``bulk_conflict_free``.  Skip logic, activation accounting, and stop
  conditions stay in the scheduler, threaded through the callbacks.
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

Fusion licenses: ``batch.ops.fused`` is True only when the scheduler
guarantees that (a) no activation of the batch can observe a
batchmate's write, and (b) the batch cannot be aborted between
activations.  Under those two facts, hoisting *own-register* writes of
distinct nodes past each other is unobservable, so a protocol may run
one column sweep for the whole batch.  Two schedules grant it:

* **synchronous rounds** — neighbour reads go to a snapshot (never the
  live store) and ``stop_when`` is checked at round boundaries; the
  batch carries no callbacks (PR 4's license);
* **conflict-free asynchronous batches** (``batch.conflict_free``) — a
  daemon such as :class:`~repro.sim.schedulers.ConflictFreeDaemon`
  *pre-declares* that the batch's activated nodes have pairwise
  disjoint closed neighbourhoods, so even *live* reads (each activation
  reads exactly N[v]) cannot observe a batchmate's own-register write,
  and the scheduler resolves stop conditions at batch boundaries (a
  conflict-free batch models the distributed daemon's *simultaneous*
  activation of an independent set — checking a stop "between" two
  indistinguishable orderings is meaningless).  Such batches carry the
  scheduler's ``gate``/``after`` callbacks, but the same disjointness
  makes them **commute** across the batch: a gate reads only the
  scheduler's per-node tracking of N[v] and an after writes only node
  v's, so a fused implementation may run *all* gates first, one fused
  sweep over the gated survivors, then *all* afters in activation order
  — exactly what :func:`~repro.verification.verifier.
  fused_verifier_sweep` does.  The after of a conflict-free batch never
  aborts (the scheduler checks ``stop_when`` once per batch), so the
  hoisted writes of later activations are never observably premature.

Other asynchronous batches (the locality daemon's overlapping closed
neighbourhoods) run live with activation-granular stop conditions, so
they never license fusion; the asynchronous scheduler runs them
through its scalar loop.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

#: gate callback: ``gate(k, ctx) -> bool`` — False skips activation k
#: (the scheduler counts it as skipped); True performs any pre-step
#: setup (write trackers) and licenses the step.
GateFn = Callable[[int, Any], bool]
#: after callback: ``after(k, ctx, stepped) -> bool`` — runs the
#: scheduler's per-activation accounting; True aborts the batch
#: (stop condition fired).
#:
#: INTERLEAVING CONTRACT: the callbacks carry per-activation state
#: (the async scheduler's logical tick) between a gate call and its
#: matching after call, so a bulk_step implementation MUST drive them
#: strictly interleaved per activation — ``gate(k)``, then the step,
#: then ``after(k)``, before ``gate(k+1)`` — exactly as
#: :func:`drive_batch` does.  Batching all gates up front (e.g. to
#: precompute a skip set) hands every ``after`` the final gate's tick
#: and silently corrupts the dirty-aware skip accounting.
#:
#: Exception: a batch carrying the ``conflict_free`` license may be
#: driven gates-first / sweep / afters-last.  Batchmates with pairwise
#: disjoint closed neighbourhoods never appear in each other's skip
#: scope, so no gate reads what a batchmate's after wrote; and because
#: the scheduler's activations of one batch are contiguous in tick
#: order, collapsing the batch's recorded ticks onto the final gate's
#: tick preserves every cross-batch ``changed_at``/``stepped_at``
#: comparison (any other node's tick lies strictly before or strictly
#: after the whole batch).
AfterFn = Callable[[int, Any, bool], bool]
#: boundary callback: ``boundary(i) -> bool`` — runs after segment i of
#: a *coalesced* batch (see :attr:`BulkBatch.segments`) completes its
#: afters; it replays everything the issuing scheduler would have done
#: between the original batches (stop-condition checks, round/budget
#: limits).  True aborts the remaining segments: the scheduler requeues
#: them, so observable semantics stay bit-for-bit identical to issuing
#: the original batches one at a time.
BoundaryFn = Callable[[int], bool]


class BulkBatch:
    """One scheduler-issued batch of activations.

    ``contexts`` are the per-node contexts in activation order;
    ``indices`` the matching dense node indices on columnar storage
    (None elsewhere); ``ops`` the backend's fused primitives (None when
    only per-node semantics are licensed).  A protocol whose bulk sweep
    wrote every node of the batch sets ``wrote_all`` so the scheduler
    can mark the whole batch dirty in one pass instead of consuming
    per-context ``wrote`` flags.

    ``conflict_free`` is the asynchronous fusion license (see the
    module docstring): the issuing scheduler vouches that the batch's
    activated nodes have pairwise disjoint closed neighbourhoods, that
    its ``after`` never aborts mid-batch, and that ``gate``/``after``
    commute across the batch — so a protocol may fuse the batch's
    own-register column sweeps even though neighbour reads are live.

    ``segments`` marks a *coalesced* conflict-free batch: a scheduler
    that fused several consecutive same-sweep batches into this one
    records their lengths here (in issue order; they sum to
    ``len(contexts)``) and supplies ``boundary``, called after each
    segment's afters.  The license is per *segment*: members of
    distinct segments may share neighbourhoods, so an implementation
    must drive segments strictly in order — segment i's gates run only
    after segment i-1's afters (and its fused sweep observes segment
    i-1's writes), with ``boundary(i-1)`` in between; ``boundary``
    returning True aborts the remaining segments.  ``segments is
    None`` (the default) is the ordinary single-batch case.
    """

    __slots__ = ("contexts", "indices", "ops", "gate", "after",
                 "wrote_all", "conflict_free", "segments", "boundary")

    def __init__(self, contexts: List[Any],
                 indices: Optional[List[int]] = None,
                 ops: Optional["ColumnarBulkOps"] = None,
                 gate: Optional[GateFn] = None,
                 after: Optional[AfterFn] = None,
                 conflict_free: bool = False,
                 segments: Optional[List[int]] = None,
                 boundary: Optional[BoundaryFn] = None) -> None:
        self.contexts = contexts
        self.indices = indices
        self.ops = ops
        self.gate = gate
        self.after = after
        self.wrote_all = False
        self.conflict_free = conflict_free
        self.segments = segments
        self.boundary = boundary


def drive_batch(step: Callable[[Any], None], batch: BulkBatch) -> None:
    """The generic per-node fallback driver.

    Executes the batch exactly like the scalar loops — one ``step(ctx)``
    per context, in order, honouring ``gate``/``after`` (and, on a
    coalesced batch, ``boundary`` at the original batch boundaries) —
    so a protocol that cannot (or may not) fuse simply delegates here
    and stays bit-for-bit equivalent on every backend.
    """
    gate = batch.gate
    after = batch.after
    if gate is None and after is None:
        for ctx in batch.contexts:
            step(ctx)
        return
    segments = batch.segments
    if segments is None:
        for k, ctx in enumerate(batch.contexts):
            stepped = gate is None or gate(k, ctx)
            if stepped:
                step(ctx)
            if after is not None and after(k, ctx, stepped):
                return
        return
    boundary = batch.boundary
    contexts = batch.contexts
    k = 0
    for i, seg_len in enumerate(segments):
        for _ in range(seg_len):
            ctx = contexts[k]
            stepped = gate is None or gate(k, ctx)
            if stepped:
                step(ctx)
            if after is not None and after(k, ctx, stepped):
                return
            k += 1
        if boundary is not None and boundary(i):
            return


class ColumnarBulkOps:
    """Fused batch primitives over a :class:`~repro.sim.columnar.ColumnStore`.

    Handed to protocols by the *synchronous* schedulers on columnar
    storage (``fused=True``: neighbour reads come from ``snap``, the
    batch cannot abort mid-round), and by the asynchronous scheduler
    with ``snap=None`` (so ``snap is store``: reads are live) on
    batches carrying the ``conflict_free`` license — the only
    asynchronous batches that may fuse.  The per-value semantics of
    every primitive replicate the scalar context API exactly —
    including sentinel encodings, boxed-overflow junk, and
    stable-version bookkeeping — so fusing is a pure reordering of
    own-register writes.
    """

    __slots__ = ("store", "snap")

    #: fusion license (see module docstring); the asynchronous
    #: scheduler passes ops only on conflict-free batches, so an
    #: unlicensed live batch cannot fuse by construction.
    fused = True

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
