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

The protocol declares a register schema (labels, both trains, the
comparison mechanism, its own working registers), so the schedulers back
its networks with array-based register files by default; see
:mod:`repro.sim.registers`.
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
from ..sim.npcolumnar import VecTopo, csr_take, numpy_or_none, view64
from ..sim.registers import ALARM, RegisterSchema, handle_resolver
from ..trains.budgets import Budgets, node_budgets
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
    replayed with a partial plan (residual), rows replayed fully
    scalar, and persistent-plan rebuilds."""
    stats = getattr(proto, "bulk_stats", None)
    if stats is None:
        stats = proto.bulk_stats = {
            "rows_fused": 0, "rows_residual": 0, "rows_scalar": 0,
            "plan_rebuilds": 0, "plan_refreshes": 0}
    return stats


def fused_verifier_sweep(proto, batch, trains, comparison) -> None:
    """The shared fused bulk sweep of the train verifiers (the full
    verifier passes both trains, the hybrid only Top — one driver so
    the two sweeps cannot drift apart).

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

    def run_bodies(ctx_list, step_nos, bgts):
        for k, ctx in enumerate(ctx_list):
            step_no = step_nos[k]
            sentinel = ctx.stable_sentinel()
            first = statics(ctx, sentinel) if step_no % se == 0 else None
            cached = bgts[k]
            if isinstance(cached, tuple) and len(cached) == 2 and \
                    isinstance(cached[1], Budgets) and \
                    step_no - cached[0] < 32:
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
    if gate is None and after is None and batch.segments is None \
            and batch.plan_key is None:
        step_nos = ops.inc_nat(batch, proto.h_vstep)
        batch.wrote_all = True
        bgts = ops.gather(batch, proto.h_bgt)
        if vec is None or not vec.run(contexts, step_nos, bgts,
                                      run_bodies, batch.vec_min_batch):
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
    plan_key = batch.plan_key
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
            handled = False
            if vec is not None and plan_key is not None:
                handled = vec.run_planned(plan_key, active, step_nos,
                                          bgts, batch.vec_min_batch)
            if not handled and (vec is None or not vec.run(
                    active, step_nos, bgts, run_bodies,
                    batch.vec_min_batch)):
                run_bodies(active, step_nos, bgts)
        if after is not None:
            for k, ctx in enumerate(seg_ctxs):
                after(base + k, ctx, stepped[k])
        base += seg_len
        if boundary is not None and boundary(si):
            return


class _VectorSweep:
    """The numpy-tier whole-batch sweep behind
    :func:`fused_verifier_sweep`.

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

    #: below this many rows the per-batch classification overhead beats
    #: the savings (conflict-free batches are often small); schedulers
    #: override it per batch via ``vec_min_batch``.  The same threshold
    #: routes conflict-free sweeps between the two vector tiers: at or
    #: above it the per-batch tier classifies fresh per segment, below
    #: it the persistent per-sweep plan amortizes classification over
    #: the whole sweep, so even singleton segments can fuse
    MIN_BATCH = 48

    def __init__(self, proto, trains, comparison, ops,
                 raw_steps, cmp_fused, held_fused) -> None:
        # a proxy, not a reference: the protocol owns this sweep (via
        # its ``_fused`` cache), and a strong back-reference would make
        # every verifier a reference cycle whose pool-sized vector
        # caches outlive their run until the cyclic collector runs
        self.proto = weakref.proxy(proto)
        self.comparison = comparison
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
        # the neighbour-read register set: everything any row's
        # classification reads from another row (write detection for
        # the per-sweep plans keys on exactly these columns): epoch,
        # activation car, broadcast slot and sequence — the only
        # neighbour-read registers any classification consults (the
        # convergecast cars/acks are deliberately *not* classified on:
        # they churn every delivery, and watching them costs more in
        # invalidation fan-out than the waits they would prove)
        self.chk_tr = tuple(
            (t.h_ep, t.h_act, t.h_bbuf, t.h_bseq)
            for t in trains)
        self.chk_want = comparison.h_want if self.want else None
        self.key = None
        self.statics_empty = None
        self.row_of = None
        # persistent per-sweep plan state (see run_planned)
        self.plan = None
        self.plan_ia = None
        self.readers = None
        # profitability (see run_planned): exponential moving average
        # of segment width, the sweep the plan was declined for, and
        # the adaptive yield backoff.  The mode is decided once per
        # sweep: mixing would let legacy segments write without the
        # plan's invalidation tracking, leaving stale verdicts.
        self.seg_ema = None
        self.plan_off_key = None
        self.plan_cool = 0
        self.plan_back = 1

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
        # per-train reverse-reader CSR: readers(p) = rows whose train
        # classification *reads* p's train registers ({x: parent(x)=p}
        # union {x: p in children(x)}).  Junk labels make the claimed
        # tree asymmetric (x may name a parent whose own child list
        # omits x), so invalidation must follow the read edges, not
        # p's own parent/children claims.
        readers = []
        for kern in self.train_kerns:
            pk = kern.pidx
            src_p = np.flatnonzero(pk >= 0)
            src_c = np.repeat(np.arange(n, dtype=np.int64),
                              np.diff(kern.coff))
            src = np.concatenate((src_p, src_c))
            dst = np.concatenate((pk[src_p], kern.cflat))
            order = np.argsort(dst, kind="stable")
            off = np.zeros(n + 1, np.int64)
            np.cumsum(np.bincount(dst, minlength=n), out=off[1:])
            readers.append((off, src[order]))
        self.readers = readers
        if self.row_of is None:
            self.row_of = np.empty(n, np.int64)
        self.key = self.store.stable_epoch + self.snap.stable_epoch

    def run(self, ctx_list, step_nos, bgts, run_bodies,
            min_batch=None) -> bool:
        """Vector-sweep the batch; False defers it to the caller's
        scalar loop (numpy disabled, batch too small, or topology not
        yet fully observed).  ``min_batch`` overrides :attr:`MIN_BATCH`
        (the scheduler's ``vec_min_batch`` knob)."""
        np = numpy_or_none()
        m = len(ctx_list)
        mb = self.MIN_BATCH if min_batch is None else min_batch
        if np is None or m < mb:
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
        # budget thresholds row by row (id-keying Budgets objects would
        # be unsound across gc reuse; the attribute reads are cheap)
        na = np.full(m, -1, np.int64)
        rr = np.full(m, -1, np.int64)
        aa = np.full(m, -1, np.int64)
        sv = np.full(m, -1, np.int64)
        bgok = np.zeros(m, bool)
        for k in range(m):
            c = bgts[k]
            if isinstance(c, tuple) and len(c) == 2 and \
                    isinstance(c[1], Budgets) and \
                    step_nos[k] - c[0] < 32:
                b = c[1]
                bgok[k] = True
                na[k] = b.node_alarm
                rr[k] = b.root_reset
                aa[k] = b.ask_alarm
                sv[k] = b.service
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
            triv, bc_done, apply, pend = kern.classify(np, ia, row_of,
                                                       na, rr, hold)
            if held_ok is not None:
                # an unprovable hold flag poisons the train inputs
                triv &= held_ok
            trivs.append(triv)
            bc_dones.append(bc_done)
            applies.append(apply)
            adopts.append(pend)
        ctriv, capply, _cpub = self.comp_kern.classify(np, ia, row_of,
                                                       aa, sv)
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
                    step_no - cached[0] < 32:
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

    # -- persistent per-sweep plan -------------------------------------
    def _build_plan(self, np, plan_key, epoch, cur_ia, cur_snos):
        """Classify *every* node once for the daemon sweep ``plan_key``.

        Sound because classification inputs of row x live entirely in
        the closed neighbourhood N[x]'s registers: a row's verdict
        stays exact until a register it reads is written, and
        :meth:`run_planned` invalidates (conservatively, per
        component) the affected readers after every segment.  Step
        numbers are predicted (``vstep + 1`` with the nat restart
        semantics of ``inc_nat_batch``): a node steps at most once per
        sweep and only the node itself writes its counter, so the
        prediction is the value the node's segment will produce.  The
        triggering segment ``cur_ia`` already incremented its
        counters before the build, so its actual step numbers
        ``cur_snos`` override the prediction."""
        proto = self.proto
        store = self.store
        topo = self.topo
        n = topo.n
        if epoch != self.key:
            self._rebuild(np)
        ia = self.plan_ia
        if ia is None:
            ia = self.plan_ia = np.arange(n, dtype=np.int64)
        row_of = ia                # identity: plan rows ARE dense rows
        vs = view64(store.data[proto.h_vstep])[ia]
        snos = np.where((vs >= 0) & (vs <= 1 << 30), vs + 1, 1)
        snos[cur_ia] = cur_snos
        stat_ok = self.statics_empty.copy()
        se = proto.static_every
        if se > 1:
            stat_ok |= (snos % se) != 0
        bgts = store.gather_values(list(range(n)), proto.h_bgt)
        na = np.full(n, -1, np.int64)
        rr = np.full(n, -1, np.int64)
        aa = np.full(n, -1, np.int64)
        sv = np.full(n, -1, np.int64)
        bgok = np.zeros(n, bool)
        snos_l = snos.tolist()
        for k in range(n):
            c = bgts[k]
            if isinstance(c, tuple) and len(c) == 2 and \
                    isinstance(c[1], Budgets) and \
                    snos_l[k] - c[0] < 32:
                b = c[1]
                bgok[k] = True
                na[k] = b.node_alarm
                rr[k] = b.root_reset
                aa[k] = b.ask_alarm
                sv[k] = b.service
        plan = _SweepPlan()
        plan.key = plan_key
        plan.epoch = epoch
        plan.done = np.zeros(n, bool)
        plan.base = stat_ok & bgok
        # the frame — step predictions, budget thresholds, statics —
        # holds for the whole sweep (only a row's own step writes its
        # vstep/budget ghost, and done rows never consult the plan
        # again), so a mid-sweep refresh reuses it and redoes only the
        # classification below
        plan.na = na
        plan.rr = rr
        plan.aa = aa
        plan.sv = sv
        plan.refresh_left = 4
        plan.srv = 0
        plan.fus = 0
        self._classify_plan(np, plan)
        self.plan = plan
        _bulk_stats(proto)["plan_rebuilds"] += 1
        return plan

    def _classify_plan(self, np, plan) -> None:
        """(Re)classify every node against the *current* registers.

        Called at plan build and again mid-sweep when invalidation has
        eroded coverage: not-yet-done rows then read exactly the state
        their scalar step would read at this point of the sweep, so the
        fresh verdicts are exact and all validity resets to covered.
        Done rows get garbage verdicts — harmless, every consumer gates
        on ``~plan.done``."""
        n = self.topo.n
        ia = self.plan_ia
        row_of = ia
        na, rr, aa, sv = plan.na, plan.rr, plan.aa, plan.sv
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
            triv, bc_done, apply, pend = kern.classify(np, ia, row_of,
                                                       na, rr, hold)
            if held_ok is not None:
                triv &= held_ok
            trivs.append(triv)
            bc_dones.append(bc_done)
            applies.append(apply)
            adopts.append(pend)
        ctriv, capply, cpub = self.comp_kern.classify(np, ia, row_of,
                                                      aa, sv)
        trivs.append(ctriv)
        applies.append(capply)
        plan.trivs = trivs
        plan.bc_dones = bc_dones
        plan.applies = applies
        plan.adopts = adopts
        plan.holds = holds
        plan.held_ok = held_ok
        # per-component validity: a write invalidates only the
        # classifications that read it (see _invalidate), so an adopt
        # at p costs p's tree readers their train verdict and N(p)
        # their comparison verdict — the other train survives
        plan.v_tr = [np.ones(n, bool) for _ in self.train_kerns]
        plan.v_cmp = np.ones(n, bool)
        plan.v_held = np.ones(n, bool) if self.want else None
        # neighbour-visible fused writes: adopt plans per train
        # (broadcast slots), planned subtree completions (activation
        # clears) and Want filings (comparison)
        pub_tr = []
        for kern, pend in zip(self.train_kerns, adopts):
            mask = np.zeros(n, bool)
            if pend:
                mask[list(pend)] = True
            pe = kern.pub_extra
            if pe is not None and len(pe):
                mask[pe] = True
            pub_tr.append(mask)
        plan.pub_tr = pub_tr
        plan.pub_want = cpub

    def run_planned(self, plan_key, ctx_list, step_nos, bgts,
                    min_batch=None) -> bool:
        """Sweep one conflict-free segment against the persistent
        per-sweep plan; False defers the segment to the caller (numpy
        off, topology not yet fully observed, or the profitability
        gate routed this sweep to the per-batch tier — the plan itself
        has no minimum size: its classification is amortized over the
        whole sweep).

        Profitability, decided once per sweep: when segments average
        at or above the per-batch threshold, that tier's fresh
        per-segment classification is strictly better informed than
        plan reuse for the same O(n)-per-sweep work, so the plan
        yields.  The plan's domain is the small-segment regime the
        per-batch gate would send scalar; there it probes, measures
        its own fused yield, and retires itself with exponential
        backoff when sweep locality (the tiled daemon's
        self-invalidating tiles) starves it.

        Per component, rows whose verdict is still covered (nothing
        that classification reads was written since the build) either
        apply their proven writes in one subset-indexed slice-store or
        hand the replay loop their planned flags; uncovered components
        replay the exact scalar body.  After the segment,
        :meth:`_invalidate` revokes only the verdicts each write can
        actually stale — per-train tree readers, graph-neighbour
        comparisons, graph-neighbour holds."""
        np = numpy_or_none()
        if np is None or not self.topo.offer(ctx_list):
            return False
        m = len(ctx_list)
        ema = self.seg_ema
        self.seg_ema = ema = m if ema is None else \
            0.05 * m + 0.95 * ema
        if self.plan_off_key == plan_key:
            return False
        epoch = self.store.stable_epoch + self.snap.stable_epoch
        plan = self.plan
        if plan is None or plan.key != plan_key:
            # sweep boundary: score the plan that just finished, then
            # commit this sweep to one tier
            if plan is not None and plan.srv >= 256:
                # break-even sits near one third fused: a high-yield
                # sweep triggers almost no refreshes, so its cost is
                # one build; below that the erosion-refresh cycle
                # outruns what reuse saves and the scalar replay of a
                # small sweep is simply cheaper
                if plan.fus * 3 < plan.srv:
                    self.plan_back = min(64, self.plan_back * 2)
                    self.plan_cool = self.plan_back
                else:
                    self.plan_back = 1
                    self.plan_cool = 0
            mb = self.MIN_BATCH if min_batch is None else min_batch
            if ema >= mb or self.plan_cool > 0:
                if ema < mb:
                    self.plan_cool -= 1
                self.plan = None
                self.plan_off_key = plan_key
                return False
        ia = np.fromiter((ctx._i for ctx in ctx_list), np.int64,
                         count=m)
        if plan is None or plan.key != plan_key or plan.epoch != epoch:
            plan = self._build_plan(np, plan_key, epoch, ia,
                                    np.fromiter(step_nos, np.int64,
                                                count=m))
        want = self.want
        nd = ~plan.done[ia]
        # refresh rather than decay: when invalidation has eroded this
        # segment's coverage below half, reclassify every remaining row
        # against the current registers (the frame part of the plan
        # survives).  Amortized over the rest of the sweep this is far
        # cheaper than replaying the uncovered rows scalar.
        cov = nd & plan.v_cmp[ia]
        for vt in plan.v_tr:
            cov &= vt[ia]
        if want:
            cov &= plan.v_held[ia]
        undone = len(plan.done) - int(plan.done.sum())
        if plan.refresh_left > 0 and \
                int(cov.sum()) * 2 < int(nd.sum()) and \
                undone >= max(64, len(plan.done) // 8):
            # budgeted: locality-heavy sweep orders (the tiled daemon)
            # re-erode every tile — past the budget, uncovered rows
            # just replay scalar rather than thrash reclassification
            plan.refresh_left -= 1
            self._classify_plan(np, plan)
            stats = _bulk_stats(self.proto)
            stats["plan_refreshes"] += 1
        vh = plan.v_held[ia] if want else None
        # trusted flags per component; train verdicts were proven
        # under the build's hold window (classify poisons triv with
        # held_ok), so a stale held untrusts the trains too
        tr_ok = []
        tsel = []
        for t in range(len(self.train_kerns)):
            ok = nd & plan.v_tr[t][ia]
            if vh is not None:
                ok &= vh
            tr_ok.append(ok)
            tsel.append(ok & plan.trivs[t][ia])
        c_ok = nd & plan.v_cmp[ia]
        csel = c_ok & plan.trivs[-1][ia]
        stats = _bulk_stats(self.proto)
        fused = nd & plan.base[ia] & csel
        for sel in tsel:
            fused &= sel
        # write detection beats prediction: snapshot the neighbour-read
        # columns of every row that MAY write one (scalar replays,
        # planned adopts, changing Want filings) and invalidate, after
        # the segment, only the rows that actually did — the bulk of
        # the sweep's writes (watchdogs, idempotent re-filings) stale
        # no verdict at all
        wmay = ~fused
        for t, sel in enumerate(tsel):
            wmay |= sel & plan.pub_tr[t][ia]
        pw = plan.pub_want
        if pw is not None:
            wmay |= csel & pw[ia]
        w_ia = ia[wmay]
        data = self.store.data
        before = None
        if len(w_ia):
            before = [[view64(data[h])[w_ia].copy() for h in cols]
                      for cols in self.chk_tr]
            if self.chk_want is not None:
                before.append(
                    [view64(data[self.chk_want])[w_ia].copy()])
        # every component's proven-trivial writes for still-covered
        # rows — exactly the legacy sweep's ``apply(triv)``: a row may
        # be residual overall yet have trivial components applied here
        # (the replay loop then skips them)
        for sel, apply in zip(tsel + [csel], plan.applies):
            if sel.any():
                apply(ia[sel])
        nf = int(fused.sum())
        plan.srv += m
        plan.fus += nf
        stats["rows_fused"] += nf
        if nf != m:
            h_ok = nd & vh & plan.held_ok[ia] if want else None
            self._replay_planned(np.flatnonzero(~fused), ia, ctx_list,
                                 step_nos, bgts, plan, tr_ok, tsel,
                                 c_ok, csel, h_ok, stats)
        plan.done[ia] = True
        if before is not None:
            self._invalidate(np, plan, w_ia, before)
        return True

    def _changed(self, np, w_ia, cols, before):
        """Rows of ``w_ia`` whose value in any of ``cols`` differs
        from the snapshot (boxed rows count as changed: the sentinel
        hides the side-table entry)."""
        chg = np.zeros(len(w_ia), bool)
        data = self.store.data
        overflow = self.store.overflow
        for h, b in zip(cols, before):
            chg |= view64(data[h])[w_ia] != b
            ovf = overflow[h]
            if ovf:
                chg |= np.isin(w_ia, np.fromiter(ovf, np.int64,
                                                 count=len(ovf)))
        return chg

    def _invalidate(self, np, plan, w_ia, before) -> None:
        """Revoke the verdicts a segment's actual writes stale.

        A train-t write at p (ep/act/bbuf/bseq moved) is read by the
        train-t classification of p's tree readers, by every graph
        neighbour's comparison (the broadcast slot is the show), and
        by p's own hold query.  A ``want`` write at p is read only by
        the neighbours' hold queries.  Everything else either tier
        writes is own-only, and p itself is done for the sweep."""
        topo = self.topo
        vc = plan.v_cmp
        vh = plan.v_held
        for t in range(len(self.train_kerns)):
            wt = w_ia[self._changed(np, w_ia, self.chk_tr[t],
                                    before[t])]
            if not len(wt):
                continue
            vt = plan.v_tr[t]
            vt[wt] = False
            off, src = self.readers[t]
            _, e_pos = csr_take(off, wt)
            vt[src[e_pos]] = False
            vc[wt] = False
            _, e_pos = csr_take(topo.off, wt)
            vc[topo.flat[e_pos]] = False
            if vh is not None:
                vh[wt] = False
        if vh is not None:
            wf = w_ia[self._changed(np, w_ia, (self.chk_want,),
                                    before[-1])]
            if len(wf):
                vh[wf] = False
                _, e_pos = csr_take(topo.off, wf)
                vh[topo.flat[e_pos]] = False

    def _replay_planned(self, resid, ia, ctx_list, step_nos, bgts,
                        plan, tr_ok, tsel, c_ok, csel, h_ok,
                        stats) -> None:
        """Replay a planned segment's non-fused rows — the exact
        ``run_bodies`` sequence, with the plan's verdicts trusted per
        component only where still covered."""
        proto = self.proto
        statics = proto._static_alarms
        budgets_for = proto.budgets_for
        se = proto.static_every
        tr0, tr1 = self.tr0, self.tr1
        comp_step = self.comp_step
        held = self.held
        want = self.want
        kerns = self.train_kerns
        b0a = plan.bc_dones[0]
        b1a = plan.bc_dones[1] if tr1 is not None else None
        p0 = plan.adopts[0]
        p1 = plan.adopts[1] if tr1 is not None else None
        htm, hbm = plan.holds
        ia_l = ia.tolist()
        t0l = tsel[0].tolist()
        k0l = tr_ok[0].tolist()
        t1l = tsel[1].tolist() if tr1 is not None else None
        k1l = tr_ok[1].tolist() if tr1 is not None else None
        tcl = csel.tolist()
        ckl = c_ok.tolist()
        hkl = h_ok.tolist() if h_ok is not None else None
        for k in resid.tolist():
            ctx = ctx_list[k]
            d = ia_l[k]
            step_no = step_nos[k]
            sentinel = ctx.stable_sentinel()
            first = statics(ctx, sentinel) if step_no % se == 0 else None
            cached = bgts[k]
            if isinstance(cached, tuple) and len(cached) == 2 and \
                    isinstance(cached[1], Budgets) and \
                    step_no - cached[0] < 32:
                budgets = cached[1]
            else:
                budgets = budgets_for(ctx, sentinel, step_no)
            trusted = ckl[k] or k0l[k] or (k1l is not None and k1l[k])
            if trusted:
                stats["rows_residual"] += 1
            else:
                stats["rows_scalar"] += 1
            t0 = t0l[k]
            tc = tcl[k]
            b0 = False
            ent0 = None
            if k0l[k]:
                b0 = bool(b0a[d])
                ent0 = p0.get(d)
            t1 = b1 = False
            ent1 = None
            if t1l is not None:
                t1 = t1l[k]
                if k1l[k]:
                    b1 = bool(b1a[d])
                    ent1 = p1.get(d)
            if want:
                if hkl[k]:
                    h0, h1 = bool(htm[d]), bool(hbm[d])
                else:
                    hlt, hlb = held(ctx)
                    h0, h1 = hlt is not None, hlb is not None
            else:
                h0 = h1 = False
            if not t0:
                a = tr0(ctx, budgets, h0 or b0, sentinel)
                if ent0 is not None and not h0:
                    kerns[0]._exec_adopt(ent0)
                if a and not first:
                    first = a
            if tr1 is not None and not t1:
                a = tr1(ctx, budgets, h1 or b1, sentinel)
                if ent1 is not None and not h1:
                    kerns[1]._exec_adopt(ent1)
                if a and not first:
                    first = a
            if not tc:
                a = comp_step(ctx, budgets, sentinel)
                if a and not first:
                    first = a
            if first:
                ctx.alarm(first[0])


class _SweepPlan:
    """One daemon sweep's persistent vector-tier state (built by
    :meth:`_VectorSweep._build_plan`, consumed per conflict-free
    segment by :meth:`_VectorSweep.run_planned`).

    ``done`` — rows already activated this sweep (a daemon covers
    each node at most once per sweep; the flag also hardens against a
    daemon that does not); ``base`` — statics proven silent and
    budget ghost valid at the predicted step; ``v_tr``/``v_cmp``/
    ``v_held`` — per-component validity: the verdict of that
    component for that row is exact until a register it reads is
    written (:meth:`_VectorSweep._invalidate`); ``pub_tr``/
    ``pub_want`` — rows whose *fused* step writes a register some
    neighbour's classification reads (adopt plans per train, Want
    filings).  The remaining fields are the per-component verdicts
    the replay loop consults, all indexed by dense row."""

    __slots__ = ("key", "epoch", "done", "base", "na", "rr", "aa", "sv",
                 "refresh_left", "srv", "fus", "trivs", "bc_dones",
                 "applies", "adopts", "holds", "held_ok", "v_tr",
                 "v_cmp", "v_held", "pub_tr", "pub_want")


class MstVerifierProtocol(Protocol):
    """The complete verifier of Sections 5–8."""

    def __init__(self, synchronous: bool = True,
                 comparison_mode: Optional[str] = None,
                 static_every: int = 1) -> None:
        self.synchronous = synchronous
        if comparison_mode is None:
            comparison_mode = MODE_SYNC_WINDOW if synchronous else MODE_WANT
        if synchronous and comparison_mode != MODE_SYNC_WINDOW:
            # want-modes also run under a synchronous scheduler (ablation)
            pass
        self.top = TrainComponent("top", REG_TOP_ROOT, REG_TOP_COUNT,
                                  REG_PIECES_TOP, synchronous)
        self.bottom = TrainComponent("bottom", REG_BOT_ROOT, REG_BOT_COUNT,
                                     REG_PIECES_BOT, synchronous)
        self.comparison = ComparisonComponent(self.top, self.bottom,
                                              comparison_mode)
        self.static_every = max(1, static_every)
        self.bind_registers(None)

    # ------------------------------------------------------------------
    def register_schema(self) -> RegisterSchema:
        schema = RegisterSchema()
        schema.declare(ALARM, "opaque", None)
        schema.declare(REG_VSTEP, "nat", 0)
        schema.declare(REG_BUDGET_CACHE, "opaque", None)
        declare_label_registers(schema)
        self.top.declare_registers(schema)
        self.bottom.declare_registers(schema)
        self.comparison.declare_registers(schema)
        return schema

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
        # register files only: label-derived caches keyed by the closed
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
        under every storage; under register files/columns the
        recomputation at a refresh is additionally memoized on the label
        sentinel, so an unchanged neighbourhood never re-derives its
        budgets.  ``step_no`` lets :meth:`step` pass the counter it just
        advanced instead of re-reading the register."""
        cached = ctx.get(self.h_bgt)
        if step_no is None:
            step_no = ctx.nat(self.h_vstep, cap=1 << 30) or 0
        if isinstance(cached, tuple) and len(cached) == 2 and \
                isinstance(cached[1], Budgets) and step_no - cached[0] < 32:
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
            return static_check(ctx)
        ent = self._static_cache.get(ctx.node)
        if ent is not None and ent[0] == sentinel:
            return ent[1]
        reasons = static_check(ctx)
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
        held_top, held_bot = self.comparison.held_levels(ctx)
        alarms.extend(self.top.step(ctx, budgets,
                                    hold_broadcast=held_top is not None,
                                    sentinel=sentinel))
        alarms.extend(self.bottom.step(ctx, budgets,
                                       hold_broadcast=held_bot is not None,
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
        shared fused sweep over both trains when fusion is licensed —
        a synchronous columnar round, or a conflict-free asynchronous
        batch — and the generic per-node fallback driver otherwise
        (dict/schema storage, unlicensed live batches).
        See :func:`fused_verifier_sweep`."""
        ops = batch.ops
        if ops is None or not ops.fused or (
                not batch.conflict_free and
                (batch.gate is not None or batch.after is not None)):
            drive_batch(self.step, batch)
            return
        fused_verifier_sweep(self, batch, (self.top, self.bottom),
                             self.comparison)
