"""The self-stabilizing MST verifier (Theorem 8.5) as one protocol.

Per activation, every node:

1. runs the 1-round static checks (Example SP/NumK, RS0–RS5, EPS0–EPS5,
   the partition fields) — these detect label corruption within one round
   of it becoming visible to a neighbour;
2. advances its two trains (Top and Bottom, multiplexed), including the
   rotation checks of Section 8 (cyclic order, per-rotation level
   coverage, piece counts, fragment-root identity);
3. advances the Ask/Show comparison mechanism with the minimality checks
   C1/C2 and the Claim-8.3 piece-agreement check.

The protocol is parameterized by the execution model:

* ``synchronous=True``  — timing budgets per Lemma 7.5; comparison mode
  defaults to the stateless window sampling (detection O(log^2 n));
* ``synchronous=False`` — budgets per Lemma 7.6; comparison mode defaults
  to the Want handshake (detection O(Delta log^3 n)); the ablation mode
  ``want-simple`` reproduces the O(Delta^2 log^3 n) variant.

Alarms latch in the ``alarm`` register with a reason string.

The protocol surface lives in :class:`TrainVerifierProtocol`;
:class:`MstVerifierProtocol` and the hybrid scheme's
:class:`~repro.verification.hybrid.HybridVerifierProtocol` are its two
sibling subclasses.

The protocol declares a register schema (labels, both trains, the
comparison mechanism, its own working registers), so the schedulers back
its networks with per-register columns by default; see
:mod:`repro.sim.columnar`.
"""

from __future__ import annotations

import weakref
from typing import List, Optional

from ..labels.registers import (REG_BOT_COUNT, REG_BOT_ROOT,
                                REG_PIECES_BOT, REG_PIECES_TOP,
                                REG_TOP_COUNT, REG_TOP_ROOT,
                                declare_label_registers)
from ..labels.wellforming import static_check
from ..sim.bulk import drive_batch
from ..sim.network import NodeContext, Protocol
from ..sim.npcolumnar import VecTopo, numpy_or_none
from ..sim.registers import ALARM, RegisterSchema, handle_resolver
from ..trains.budgets import BUDGET_CACHE_STEPS, Budgets, node_budgets
from ..trains.comparison import (MODE_SYNC_WINDOW, MODE_WANT,
                                 MODE_WANT_SIMPLE, ComparisonComponent)
from ..trains.train import TrainComponent

REG_VSTEP = "vstep"
REG_BUDGET_CACHE = "_bgt"


def _bulk_stats(proto):
    """The protocol's lazily created bulk-plane accounting dict.

    Pure diagnostics (scenario results surface it; nothing reads it
    back into the protocol), so it is neither snapshotted nor reset by
    ``bind_registers``: rows fused through the vector tier, rows
    replayed with a partial plan (residual), and rows replayed fully
    scalar."""
    stats = getattr(proto, "bulk_stats", None)
    if stats is None:
        stats = proto.bulk_stats = {
            "rows_fused": 0, "rows_residual": 0, "rows_scalar": 0}
    return stats


def fused_verifier_sweep(proto, batch, trains, comparison) -> None:
    """The fused bulk sweep of :class:`TrainVerifierProtocol` over its
    ``trains`` (both for the full verifier, only Top for the hybrid).

    With fused column ops licensed — a synchronous round on columnar
    storage, or an asynchronous conflict-free batch (live columns,
    ``batch.conflict_free``) — the step counters of the whole batch
    advance in one ``array('q')`` sweep, the budget ghost registers are
    gathered once per batch, and the per-node bodies run with the
    dispatch layers hoisted out of the loop: column-fused train and
    comparison steps (:meth:`TrainComponent.make_bulk_step
    <repro.trains.train.TrainComponent.make_bulk_step>`,
    :meth:`ComparisonComponent.make_bulk_sync
    <repro.trains.comparison.ComparisonComponent.make_bulk_sync>`, with
    scalar adapters where a component declines to fuse), no
    intermediate alarm-list splicing.  Everything executes the exact
    scalar ``step`` sequence per node — including the alarm priority
    order statics > trains in order > comparison — so the sweep is
    bit-for-bit equivalent (``tests/test_bulk_plane.py``).

    Conflict-free batches arrive with the scheduler's ``gate``/``after``
    callbacks, which the license makes commute across the batch (see
    :mod:`repro.sim.bulk`): the sweep runs every gate first, fuses over
    the gated survivors only (a skipped activation must not advance its
    step counter), sets each survivor's ``wrote`` flag (every stepped
    activation writes at least its counter — exactly the scalar
    outcome), and then runs every after in activation order.

    ``proto`` must carry the verifier-shaped surface: ``h_vstep``,
    ``h_bgt``, ``static_every``, ``_static_alarms``, ``budgets_for``,
    and the ``_fused`` closure cache (reset by ``bind_registers``).
    """
    ops = batch.ops
    contexts = batch.contexts
    se = proto.static_every
    statics = proto._static_alarms
    budgets_for = proto.budgets_for
    fused = proto._fused
    if fused is None or fused[0] is not ops:
        raw_steps = tuple(t.make_bulk_step(ops) for t in trains)
        steps = tuple(
            f if f is not None else
            (lambda ctx, b, h, s, _t=train: _t.step(ctx, b, h,
                                                    sentinel=s))
            for train, f in zip(trains, raw_steps))
        cmp_fused = comparison.make_bulk_sync(ops)
        if cmp_fused is None:
            cmp_fused = comparison.make_bulk_want(ops)
        comp_step = cmp_fused if cmp_fused is not None \
            else comparison.step
        held_fused = comparison.make_bulk_held(ops)
        held = held_fused if held_fused is not None \
            else comparison.held_levels
        # the vector tier sits strictly above full fusion: a numpy
        # store, numpy importable, every component fused, and a mode
        # whose per-node bodies the classifiers model (want-simple's
        # serialized server stays scalar)
        vec = None
        if (getattr(ops.store, "numpy_tier", False)
                and numpy_or_none() is not None
                and comparison.mode in (MODE_SYNC_WINDOW, MODE_WANT)
                and all(f is not None for f in raw_steps)
                and cmp_fused is not None
                and (comparison.mode == MODE_SYNC_WINDOW
                     or held_fused is not None)):
            vec = _VectorSweep(proto, trains, comparison, ops,
                               raw_steps, cmp_fused, held_fused)
        fused = proto._fused = (ops, steps, comp_step, held, vec)
    _, train_steps, comp_step, held, vec = fused
    sync_window = comparison.mode == MODE_SYNC_WINDOW
    # serve_turn acts only in the serialized want-simple ablation; the
    # per-node no-op call is hoisted out of the hot loop entirely
    serve = comparison.serve_turn \
        if comparison.mode == MODE_WANT_SIMPLE else None
    tr0 = train_steps[0]
    tr1 = train_steps[1] if len(train_steps) == 2 else None
    horizon = BUDGET_CACHE_STEPS

    def run_bodies(ctx_list, step_nos, bgts):
        for k, ctx in enumerate(ctx_list):
            step_no = step_nos[k]
            sentinel = ctx.stable_sentinel()
            first = statics(ctx, sentinel) if step_no % se == 0 else None
            cached = bgts[k]
            if isinstance(cached, tuple) and len(cached) == 2 and \
                    isinstance(cached[1], Budgets) and \
                    step_no - cached[0] < horizon:
                budgets = cached[1]
            else:
                budgets = budgets_for(ctx, sentinel, step_no)
            if sync_window:
                a = tr0(ctx, budgets, False, sentinel)
                if a and not first:
                    first = a
                if tr1 is not None:
                    a = tr1(ctx, budgets, False, sentinel)
                    if a and not first:
                        first = a
            else:
                ht, hb = held(ctx)
                a = tr0(ctx, budgets, ht is not None, sentinel)
                if a and not first:
                    first = a
                if tr1 is not None:
                    a = tr1(ctx, budgets, hb is not None, sentinel)
                    if a and not first:
                        first = a
                if serve is not None:
                    serve(ctx)
            a = comp_step(ctx, budgets, sentinel)
            if a and not first:
                first = a
            if first:
                ctx.alarm(first[0])

    gate = batch.gate
    after = batch.after
    if gate is None and after is None and batch.segments is None:
        step_nos = ops.inc_nat(batch, proto.h_vstep)
        batch.wrote_all = True
        bgts = ops.gather(batch, proto.h_bgt)
        if vec is None or not vec.run(contexts, step_nos, bgts,
                                      run_bodies):
            run_bodies(contexts, step_nos, bgts)
        return
    # conflict-free batch, possibly coalesced: per segment, commuting
    # gates first, fused sweep over the survivors, afters last (in
    # activation order), then the scheduler's boundary replay —
    # segments run strictly in order (members of distinct segments may
    # share neighbourhoods, so segment i must observe i-1's writes)
    store = ops.store
    segments = batch.segments if batch.segments is not None \
        else [len(contexts)]
    boundary = batch.boundary
    base = 0
    for si, seg_len in enumerate(segments):
        seg_ctxs = contexts[base:base + seg_len]
        if gate is None:
            stepped = [True] * seg_len
        else:
            stepped = [gate(base + k, ctx)
                       for k, ctx in enumerate(seg_ctxs)]
        active = [ctx for ctx, s in zip(seg_ctxs, stepped) if s]
        if active:
            idx = [ctx._i for ctx in active]
            step_nos = store.inc_nat_batch(idx, proto.h_vstep)
            bgts = store.gather_values(idx, proto.h_bgt)
            for ctx in active:
                # every stepped activation writes its step counter, so
                # the scalar loop would flag every survivor as written
                ctx.wrote = True
            if vec is None or not vec.run(active, step_nos, bgts,
                                          run_bodies):
                run_bodies(active, step_nos, bgts)
        if after is not None:
            for k, ctx in enumerate(seg_ctxs):
                after(base + k, ctx, stepped[k])
        base += seg_len
        if boundary is not None and boundary(si):
            return


def _budget_rows(np, bgts, step_nos):
    """Per-row budget thresholds ``(na, rr, aa, sv, ok)`` — node
    alarm, root reset, ask alarm, service — from the gathered ghost
    budget caches; -1 (and ``ok`` False) where a row's cache is not
    valid for its step.  Row by row: id-keying Budgets objects would
    be unsound across gc reuse, and the attribute reads are cheap."""
    na, rr, aa, sv, ok = [], [], [], [], []
    horizon = BUDGET_CACHE_STEPS
    for c, sno in zip(bgts, step_nos):
        if isinstance(c, tuple) and len(c) == 2 and \
                isinstance(c[1], Budgets) and sno - c[0] < horizon:
            b = c[1]
            ok.append(True)
            na.append(b.node_alarm)
            rr.append(b.root_reset)
            aa.append(b.ask_alarm)
            sv.append(b.service)
        else:
            ok.append(False)
            na.append(-1)
            rr.append(-1)
            aa.append(-1)
            sv.append(-1)
    return (np.array(na, np.int64), np.array(rr, np.int64),
            np.array(aa, np.int64), np.array(sv, np.int64),
            np.array(ok, bool))


class _VectorSweep:
    """The numpy-tier whole-batch sweep behind
    :func:`fused_verifier_sweep`: one call per synchronous round or
    conflict-free segment of at least :attr:`MIN_BATCH` rows, which it
    classifies and applies in one go (smaller batches run the scalar
    fused bodies).

    Each component's classifier proves, per batch row, whether that
    component's fused step is exactly its masked column write(s) — no
    alarm, no transition.  Trivial (component, row) pairs get the
    write applied as one masked slice-store; the rest replay the exact
    scalar fused bodies, *per component*: a row whose top train is
    mid-transition still vectorizes its bottom train and comparison
    halves.  The replay loop mirrors ``run_bodies`` body for body
    (statics first, trains in order, comparison, alarm priority), so
    the sweep is bit-for-bit equivalent to the scalar path on every
    input, including planted junk; the split is conservative by
    construction (an unprovable pair is merely residual), and what
    varies with the input is only how much of the batch vectorizes.

    Per-row label-derived attributes (part topology, level rotations,
    static-check verdicts) rebuild when the joint stable epoch moves —
    the same sentinel discipline the scalar caches key on.  Budget
    thresholds come only from rows whose ghost budget cache is valid
    for this step; a stale row goes residual, where ``budgets_for``
    refreshes the ghost register exactly as the scalar sweep would.
    """

    #: below this many rows the classification overhead beats the
    #: savings, so the batch runs the scalar fused bodies instead
    #: (conflict-free segments are often small; coalescing keeps the
    #: segments of a settled async patrol near ~130 rows)
    MIN_BATCH = 48
    #: below this many rows the sweep leaves the trains' child traffic
    #: to the scalar replay: planning it costs ~0.3 ms of small-array
    #: numpy calls per train and batch, and saves ~17 us per planned
    #: row — about a tenth of a batch's rows, so the plan pays from a
    #: few hundred rows (settled synchronous rounds, not the
    #: conflict-free segments of an async patrol).  Both floors are
    #: class attributes that tests lower to reach the vector paths on
    #: small instances
    TRAFFIC_MIN = 256

    def __init__(self, proto, trains, comparison, ops,
                 raw_steps, cmp_fused, held_fused) -> None:
        # a proxy, not a reference: the protocol owns this sweep (via
        # its ``_fused`` cache), and a strong back-reference would make
        # every verifier a reference cycle whose pool-sized vector
        # caches outlive their run until the cyclic collector runs
        self.proto = weakref.proxy(proto)
        self.store = ops.store
        self.snap = ops.snap
        self.topo = VecTopo(ops.store.n)
        self.train_kerns = tuple(
            t.make_vector_kernel(ops, self.topo) for t in trains)
        self.comp_kern = comparison.make_vector_kernel(ops, self.topo)
        self.tr0 = raw_steps[0]
        self.tr1 = raw_steps[1] if len(raw_steps) == 2 else None
        self.comp_step = cmp_fused
        self.held = held_fused
        self.want = comparison.mode == MODE_WANT
        self.key = None
        self.statics_empty = None
        self.row_of = None

    def _rebuild(self, np) -> None:
        proto = self.proto
        topo = self.topo
        n = topo.n
        statics_empty = np.zeros(n, bool)
        statics = proto._static_alarms
        for i in range(n):
            ctx = topo.ctxs[i]
            statics_empty[i] = \
                not statics(ctx, ctx.stable_sentinel())
        self.statics_empty = statics_empty
        for kern in self.train_kerns:
            kern.rebuild(np, topo)
        self.comp_kern.rebuild(np, topo)
        if self.row_of is None:
            self.row_of = np.empty(n, np.int64)
        self.key = self.store.stable_epoch + self.snap.stable_epoch

    def run(self, ctx_list, step_nos, bgts, run_bodies) -> bool:
        """Vector-sweep the batch; False defers it to the caller's
        scalar loop (numpy disabled, batch too small, or topology not
        yet fully observed)."""
        np = numpy_or_none()
        m = len(ctx_list)
        if np is None or m < self.MIN_BATCH:
            return False
        if not self.topo.offer(ctx_list):
            return False
        proto = self.proto
        key = self.store.stable_epoch + self.snap.stable_epoch
        if key != self.key:
            self._rebuild(np)
        ia = np.fromiter((ctx._i for ctx in ctx_list), np.int64,
                         count=m)
        row_of = self.row_of
        row_of[:] = -1
        row_of[ia] = np.arange(m, dtype=np.int64)
        stat_ok = self.statics_empty[ia].copy()
        se = proto.static_every
        if se > 1:
            snos = np.fromiter(step_nos, np.int64, count=m)
            stat_ok |= (snos % se) != 0
        na, rr, aa, sv, bgok = _budget_rows(np, bgts, step_nos)
        traffic = m >= self.TRAFFIC_MIN
        if self.want:
            held_ok, ht, hb = self.comp_kern.held(np, ia, row_of)
            holds = (ht, hb)
        else:
            held_ok = None
            holds = (False, False)
        trivs = []
        applies = []
        bc_dones = []
        adopts = []
        for kern, hold in zip(self.train_kerns, holds):
            triv, bc_done, apply, pend = kern.classify(
                np, ia, row_of, na, rr, hold, traffic)
            if held_ok is not None:
                # an unprovable hold flag poisons the train inputs
                triv &= held_ok
            trivs.append(triv)
            bc_dones.append(bc_done)
            applies.append(apply)
            adopts.append(pend)
        ctriv, capply = self.comp_kern.classify(np, ia, row_of, aa, sv)
        trivs.append(ctriv)
        applies.append(capply)
        any_triv = False
        full = stat_ok & bgok
        for triv in trivs:
            full &= triv
            any_triv = any_triv or triv.any()
        stats = _bulk_stats(self.proto)
        if not any_triv:
            stats["rows_scalar"] += m
            run_bodies(ctx_list, step_nos, bgts)
            return True
        for triv, apply in zip(trivs, applies):
            apply(np.flatnonzero(triv))
        nf = int(full.sum())
        stats["rows_fused"] += nf
        stats["rows_residual"] += m - nf
        if nf == m:
            return True
        self._run_partial(np.flatnonzero(~full), ctx_list, step_nos,
                          bgts, trivs, bc_dones, adopts, holds,
                          held_ok)
        return True

    def _run_partial(self, resid, ctx_list, step_nos, bgts, trivs,
                     bc_dones, adopts, holds, held_ok) -> None:
        """Replay the scalar fused bodies for every non-trivial
        (component, row) pair — the exact ``run_bodies`` sequence with
        the already-applied components skipped."""
        proto = self.proto
        statics = proto._static_alarms
        budgets_for = proto.budgets_for
        se = proto.static_every
        tr0, tr1 = self.tr0, self.tr1
        comp_step = self.comp_step
        held = self.held
        want = self.want
        horizon = BUDGET_CACHE_STEPS
        # plain-list views: per-element indexing of numpy bool arrays
        # costs more than the loop bodies it gates
        t0 = trivs[0].tolist()
        t1 = trivs[1].tolist() if tr1 is not None else None
        tc = trivs[-1].tolist()
        b0 = bc_dones[0].tolist()
        b1 = bc_dones[1].tolist() if tr1 is not None else None
        p0 = adopts[0]
        p1 = adopts[1] if tr1 is not None else None
        kerns = self.train_kerns
        htm, hbm = holds
        if want:
            held_ok = held_ok.tolist()
            htm = htm.tolist()
            hbm = hbm.tolist()
        for r in resid.tolist():
            k = r
            ctx = ctx_list[k]
            step_no = step_nos[k]
            sentinel = ctx.stable_sentinel()
            first = statics(ctx, sentinel) if step_no % se == 0 else None
            cached = bgts[k]
            if isinstance(cached, tuple) and len(cached) == 2 and \
                    isinstance(cached[1], Budgets) and \
                    step_no - cached[0] < horizon:
                budgets = cached[1]
            else:
                budgets = budgets_for(ctx, sentinel, step_no)
            if want:
                if held_ok[k]:
                    h0, h1 = htm[k], hbm[k]
                else:
                    hlt, hlb = held(ctx)
                    h0, h1 = hlt is not None, hlb is not None
            else:
                h0 = h1 = False
            if not t0[k]:
                a = tr0(ctx, budgets, h0 or b0[k], sentinel)
                ent = p0.get(k)
                if ent is not None and not h0:
                    # the planned adopt lands after the prologue and
                    # convergecast, exactly where the scalar broadcast
                    # would have written it (a live hold cancels it,
                    # as it cancels the whole broadcast)
                    kerns[0]._exec_adopt(ent)
                if a and not first:
                    first = a
            if t1 is not None and not t1[k]:
                a = tr1(ctx, budgets, h1 or b1[k], sentinel)
                ent = p1.get(k)
                if ent is not None and not h1:
                    kerns[1]._exec_adopt(ent)
                if a and not first:
                    first = a
            if not tc[k]:
                a = comp_step(ctx, budgets, sentinel)
                if a and not first:
                    first = a
            if first:
                ctx.alarm(first[0])


class TrainVerifierProtocol(Protocol):
    """The train verifiers' shared protocol surface.  Subclasses set
    only which trains rotate (:attr:`only_top`), their 1-round checks
    (:meth:`_checks`) and any registers declared after the labels."""

    #: only the Top train rotates and the Ask cycle covers top levels;
    #: the Bottom train stays an inert observer target
    only_top = False

    def __init__(self, synchronous: bool = True,
                 comparison_mode: Optional[str] = None,
                 static_every: int = 1) -> None:
        self.synchronous = synchronous
        if comparison_mode is None:
            comparison_mode = MODE_SYNC_WINDOW if synchronous else MODE_WANT
        self.top = TrainComponent("top", REG_TOP_ROOT, REG_TOP_COUNT,
                                  REG_PIECES_TOP, synchronous)
        self.bottom = TrainComponent("bottom", REG_BOT_ROOT, REG_BOT_COUNT,
                                     REG_PIECES_BOT, synchronous)
        self.trains = (self.top,) if self.only_top \
            else (self.top, self.bottom)
        self.comparison = ComparisonComponent(self.top, self.bottom,
                                              comparison_mode,
                                              only_top=self.only_top)
        self.static_every = max(1, static_every)
        self.bind_registers(None)

    # ------------------------------------------------------------------
    def register_schema(self) -> RegisterSchema:
        schema = RegisterSchema()
        schema.declare(ALARM, "opaque", None)
        schema.declare(REG_VSTEP, "nat", 0)
        schema.declare(REG_BUDGET_CACHE, "opaque", None)
        declare_label_registers(schema)
        self.declare_extra_registers(schema)
        self.top.declare_registers(schema)
        self.bottom.declare_registers(schema)
        self.comparison.declare_registers(schema)
        return schema

    def declare_extra_registers(self, schema: RegisterSchema) -> None:
        """Hook: registers declared right after the labels."""

    def _checks(self, ctx) -> List[str]:
        """Hook: the 1-round checks, deterministic in the closed
        neighbourhood's labels."""
        raise NotImplementedError

    def bind_registers(self, compiled) -> None:
        """Resolve register handles and reset every cache derived from
        register contents.  Checkpoint restore leans on this contract:
        after :func:`repro.sim.snapshot.restore_run_state` swaps the
        registers wholesale it re-binds, and because the caches below
        are rebuilt lazily from (sentinel-validated) restored state the
        continuation is bit-for-bit the uninterrupted run's."""
        resolve = handle_resolver(compiled)
        self.h_alarm = resolve(ALARM)
        self.h_vstep = resolve(REG_VSTEP)
        self.h_bgt = resolve(REG_BUDGET_CACHE)
        self.top.bind_registers(compiled)
        self.bottom.bind_registers(compiled)
        self.comparison.bind_registers(compiled)
        # columnar storage only: label-derived caches keyed by the closed
        # neighbourhood's stable-register version sentinel
        self._slot_bound = compiled is not None
        self._static_cache = {}
        self._budget_cache = {}
        # bulk plane: fused component closures, keyed on the ops object
        self._fused = None

    # ------------------------------------------------------------------
    def init_node(self, ctx: NodeContext) -> None:
        ctx.set(self.h_alarm, None)
        ctx.set(self.h_vstep, 0)
        self.top.init_node(ctx)
        self.bottom.init_node(ctx)
        self.comparison.init_node(ctx)

    # ------------------------------------------------------------------
    def budgets_for(self, ctx: NodeContext,
                    sentinel: Optional[int] = None,
                    step_no: Optional[int] = None) -> Budgets:
        """Label-driven budgets, cached in ghost state and refreshed
        periodically (they are pure functions of slowly changing labels).

        The ghost-register refresh cadence (every 32 steps) is identical
        under every storage; on columnar storage the
        recomputation at a refresh is additionally memoized on the label
        sentinel, so an unchanged neighbourhood never re-derives its
        budgets.  ``step_no`` lets :meth:`step` pass the counter it just
        advanced instead of re-reading the register."""
        cached = ctx.get(self.h_bgt)
        if step_no is None:
            step_no = ctx.nat(self.h_vstep, cap=1 << 30) or 0
        if isinstance(cached, tuple) and len(cached) == 2 and \
                isinstance(cached[1], Budgets) and \
                step_no - cached[0] < BUDGET_CACHE_STEPS:
            return cached[1]
        if sentinel is not None:
            ent = self._budget_cache.get(ctx.node)
            if ent is not None and ent[0] == sentinel:
                budgets = ent[1]
            else:
                budgets = node_budgets(ctx, self.synchronous)
                self._budget_cache[ctx.node] = (sentinel, budgets)
        else:
            budgets = node_budgets(ctx, self.synchronous)
        ctx.set(self.h_bgt, (step_no, budgets))
        return budgets

    def _static_alarms(self, ctx, sentinel: Optional[int]) -> List[str]:
        """The 1-round checks, recomputed only when a label in the closed
        neighbourhood changed (they are deterministic in exactly that
        scope, so an unchanged sentinel implies an unchanged verdict)."""
        if sentinel is None:
            return self._checks(ctx)
        ent = self._static_cache.get(ctx.node)
        if ent is not None and ent[0] == sentinel:
            return ent[1]
        reasons = self._checks(ctx)
        self._static_cache[ctx.node] = (sentinel, reasons)
        return reasons

    def step(self, ctx: NodeContext) -> None:
        step_no = (ctx.nat(self.h_vstep, cap=1 << 30) or 0) + 1
        ctx.set(self.h_vstep, step_no)
        sentinel = ctx.stable_sentinel() if self._slot_bound else None
        alarms: List[str] = []

        if step_no % self.static_every == 0:
            alarms.extend(self._static_alarms(ctx, sentinel))

        budgets = self.budgets_for(ctx, sentinel, step_no)
        for train, held in zip(self.trains,
                               self.comparison.held_levels(ctx)):
            alarms.extend(train.step(ctx, budgets,
                                     hold_broadcast=held is not None,
                                     sentinel=sentinel))
        self.comparison.serve_turn(ctx)
        alarms.extend(self.comparison.step(ctx, budgets, sentinel))

        if alarms:
            ctx.alarm(alarms[0])

    # ------------------------------------------------------------------
    #: conflict-free asynchronous batches may fuse (the sweep handles
    #: the commuting gate/after contract; see repro.sim.bulk)
    bulk_conflict_free = True
    #: coalesced batches supported: the fused sweep drives segments
    #: strictly in order and replays ``boundary`` between them
    bulk_segments = True

    def bulk_step(self, batch) -> None:
        """One whole scheduler batch (the bulk-activation plane): the
        shared fused sweep over :attr:`trains` when fusion is licensed —
        a synchronous columnar round, or a conflict-free asynchronous
        batch — and the generic per-node fallback driver otherwise
        (dict storage, unlicensed live batches).
        See :func:`fused_verifier_sweep`."""
        ops = batch.ops
        if ops is None or not ops.fused or (
                not batch.conflict_free and
                (batch.gate is not None or batch.after is not None)):
            drive_batch(self.step, batch)
            return
        fused_verifier_sweep(self, batch, self.trains, self.comparison)


class MstVerifierProtocol(TrainVerifierProtocol):
    """The complete verifier of Sections 5–8: both trains rotate."""

    def _checks(self, ctx) -> List[str]:
        return static_check(ctx)
