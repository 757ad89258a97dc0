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
from ..sim.columnar import INT_HI, INT_LO
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


def _fused_plane(proto, ops, trains, comparison):
    """The fused plane of ``proto`` over ``ops``: built once per ops
    object and cached in ``proto._fused`` as ``(ops, body, run_bodies,
    vec)``.

    ``body(ctx, step_no, cached)`` is the one transcription of the
    per-node step with the dispatch layers hoisted out: the statics, the
    ghost budgets (``cached`` is the node's ``_bgt`` register), the
    Want-mode hold scan, the column-fused train and comparison steps
    (:meth:`TrainComponent.make_bulk_step
    <repro.trains.train.TrainComponent.make_bulk_step>`,
    :meth:`ComparisonComponent.make_bulk_step
    <repro.trains.comparison.ComparisonComponent.make_bulk_step>`,
    :meth:`~repro.trains.comparison.ComparisonComponent.make_bulk_held`),
    ``serve_turn`` in the want-simple ablation, and the alarm priority
    statics > trains in order > comparison.  Its caller has already
    advanced the step counter to ``step_no``.  ``run_bodies`` loops it
    over a batch; ``vec`` is the numpy tier's :class:`_VectorSweep`, or
    None.
    """
    steps = tuple(t.make_bulk_step(ops) for t in trains)
    comp_step = comparison.make_bulk_step(ops)
    held = comparison.make_bulk_held(ops)   # None: nothing is held
    # serve_turn acts only in the serialized want-simple ablation; the
    # per-node no-op call is hoisted out of the body entirely
    serve = comparison.serve_turn \
        if comparison.mode == MODE_WANT_SIMPLE else None
    se = proto.static_every
    # the protocol owns this plane (``proto._fused``), so the body
    # reaches it through a proxy, as :class:`_VectorSweep` does: a
    # bound method here would make a reference cycle that keeps the
    # plane's pool-sized caches alive until the cyclic collector runs
    me = weakref.proxy(proto)
    statics = type(proto)._static_alarms
    budgets_for = type(proto).budgets_for
    tr0 = steps[0]
    tr1 = steps[1] if len(steps) == 2 else None
    horizon = BUDGET_CACHE_STEPS

    def body(ctx, step_no, cached):
        sentinel = ctx.stable_sentinel()
        first = statics(me, ctx, sentinel) if step_no % se == 0 \
            else None
        if isinstance(cached, tuple) and len(cached) == 2 and \
                isinstance(cached[1], Budgets) and \
                step_no - cached[0] < horizon:
            budgets = cached[1]
        else:
            budgets = budgets_for(me, ctx, sentinel, step_no)
        if held is None:
            h0 = h1 = False
        else:
            ht, hb = held(ctx)
            h0 = ht is not None
            h1 = hb is not None
        a = tr0(ctx, budgets, h0, sentinel)
        if a and not first:
            first = a
        if tr1 is not None:
            a = tr1(ctx, budgets, h1, sentinel)
            if a and not first:
                first = a
        if serve is not None:
            serve(ctx)
        a = comp_step(ctx, budgets, sentinel)
        if a and not first:
            first = a
        if first:
            ctx.alarm(first[0])

    def run_bodies(ctx_list, step_nos, bgts):
        for k, ctx in enumerate(ctx_list):
            body(ctx, step_nos[k], bgts[k])

    # the vector tier: a numpy store, numpy importable, and a mode
    # whose per-node bodies the classifiers model (want-simple's
    # serialized server stays on the fused bodies)
    vec = None
    if (getattr(ops.store, "numpy_tier", False)
            and numpy_or_none() is not None
            and comparison.mode in (MODE_SYNC_WINDOW, MODE_WANT)):
        vec = _VectorSweep(proto, trains, comparison, ops, steps,
                           comp_step, held)
    return (ops, body, run_bodies, vec)


def fused_verifier_sweep(proto, batch, trains, comparison) -> None:
    """The fused bulk sweep of :class:`TrainVerifierProtocol` over its
    ``trains`` (both for the full verifier, only Top for the hybrid).

    With fused column ops licensed (see :mod:`repro.sim.bulk`) every
    activation runs the per-node body of :func:`_fused_plane`, which
    executes the exact scalar ``step`` sequence per node, so the sweep
    is bit-for-bit equivalent (``tests/test_bulk_plane.py``).  By batch
    size:

    * a batch of several contexts (a synchronous round, or the
      survivors of a conflict-free asynchronous batch) advances the
      step counters of the whole batch in one ``array('q')`` sweep,
      gathers the budget ghost registers once, and offers the batch to
      the vector tier before the body loop.  Every activation writes at
      least its step counter, so the sweep sets ``wrote_all``, exactly
      the scalar outcome;
    * a *one-activation* batch (one context) advances the node's
      counter through its context and runs the body directly: no
      per-batch list, gather or vector probe, since asynchronous
      daemons issue these one per scheduler call.

    ``proto`` must carry the verifier-shaped surface: ``h_vstep``,
    ``h_bgt``, ``static_every``, ``_static_alarms``, ``budgets_for``,
    and the ``_fused`` cache (reset by ``bind_registers``).
    """
    ops = batch.ops
    contexts = batch.contexts
    fused = proto._fused
    if fused is None or fused[0] is not ops:
        fused = proto._fused = _fused_plane(proto, ops, trains,
                                            comparison)
    _, body, run_bodies, vec = fused
    if len(contexts) == 1:
        ctx = contexts[0]
        h_vstep = proto.h_vstep
        step_no = (ctx.nat(h_vstep, cap=1 << 30) or 0) + 1
        ctx.set(h_vstep, step_no)     # flags ctx.wrote
        body(ctx, step_no, ctx.get(proto.h_bgt))
        return
    step_nos = ops.inc_nat(batch, proto.h_vstep)
    batch.wrote_all = True
    bgts = ops.gather(batch, proto.h_bgt)
    if vec is None or not vec.run(contexts, step_nos, bgts, run_bodies):
        run_bodies(contexts, step_nos, bgts)


#: the budget thresholds the vector classifiers read, in the order
#: :meth:`_VectorSweep._budgets` returns them
_BUDGET_FIELDS = ("node_alarm", "root_reset", "ask_alarm", "service",
                  "ask_window")
#: kinds of a memoized ghost budget cache: no ``(step, Budgets)`` pair
#: (stale on every step), a plain-int step (horizon checked as an
#: array), any other step (horizon checked in Python)
_BK_NONE, _BK_PLAIN, _BK_ODD = 0, 1, 2
_I62 = 1 << 62


class _VectorSweep:
    """The numpy-tier whole-batch sweep behind
    :func:`fused_verifier_sweep`: one call per synchronous round or
    conflict-free daemon batch of at least :attr:`MIN_BATCH` rows,
    which it classifies and applies in one go (smaller batches run the
    scalar fused bodies).

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
    the same sentinel discipline the scalar caches key on.  Stale ghost
    budget caches are refreshed up front (:meth:`_budgets`), so every
    row classifies against the budgets its scalar body would use.
    """

    #: below this many rows the classification overhead beats the
    #: savings, so the batch runs the scalar fused bodies instead
    #: (conflict-free daemon batches are often small: a settled async
    #: patrol of ``random_connected_graph(2000, 3600, seed=21)`` under
    #: ``ConflictFreeDaemon(seed=7)`` sweeps 20-22 daemon batches per
    #: round, sized 1-233 rows, median ~94, a quarter under 48)
    MIN_BATCH = 48
    #: below this many rows the sweep leaves the trains' child traffic
    #: to the scalar replay: planning it costs ~0.3 ms of small-array
    #: numpy calls per train and batch, and saves ~17 us per planned
    #: row — about a tenth of a batch's rows, so the plan pays from a
    #: few hundred rows (settled synchronous rounds, not the
    #: conflict-free batches of an async patrol).  Both floors are
    #: class attributes that tests lower to reach the vector paths on
    #: small instances
    TRAFFIC_MIN = 256

    def __init__(self, proto, trains, comparison, ops, steps, comp_step,
                 held) -> None:
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
        self.tr0 = steps[0]
        self.tr1 = steps[1] if len(steps) == 2 else None
        self.comp_step = comp_step
        self.held = held            # None in the sync window mode
        self.key = None
        self.statics_empty = None
        self.row_of = None
        # per dense row: the last ghost budget cache seen (held alive,
        # so its id stays unique), its id, kind, step and thresholds
        np = numpy_or_none()
        n = ops.store.n
        self.b_obj = [None] * n
        self.b_id = np.zeros(n, np.int64)
        self.b_kind = np.zeros(n, np.int8)
        self.b_step = np.zeros(n, np.int64)
        self.b_thr = np.full((len(_BUDGET_FIELDS), n), -1, np.int64)
        self.b_ok = np.zeros(n, bool)

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
        snos = np.fromiter(step_nos, np.int64, count=m)
        if se > 1:
            stat_ok |= (snos % se) != 0
        na, rr, aa, sv, aw, bgok = self._budgets(np, ia, ctx_list,
                                                 step_nos, snos, bgts)
        traffic = m >= self.TRAFFIC_MIN
        if self.held is not None:
            held_ok, ht, hb = self.comp_kern.held(np, ia)
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
        ctriv, capply = self.comp_kern.classify(
            np, ia, aa, sv, aw, list(zip(trivs, adopts)))
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

    def _budgets(self, np, ia, ctx_list, step_nos, snos, bgts):
        """Per-row budget thresholds ``(na, rr, aa, sv, aw, ok)`` —
        node alarm, root reset, ask alarm, service, ask window — for
        the batch rows ``ia``, after refreshing every stale ghost
        budget cache with ``budgets_for``: the write the scalar body
        makes before any train step, and one no other row reads, so it
        may land first.  ``bgts`` is updated in place.  -1 (and ``ok``
        False) where a row's cache holds a threshold that is no plain
        int a nat column stores as is (the ask window is written).

        A row's decoded cache is memoized with the cache object, which
        the memo holds alive: its ``id`` cannot be reused meanwhile, so
        an unchanged id proves the batch holds the same tuple, and only
        rows whose cache changed (once per refresh) decode in Python.
        The horizon check is an array compare."""
        m = len(ia)
        ids = np.fromiter(map(id, bgts), np.int64, count=m)
        memo = self._memo_budget
        for k in np.flatnonzero(ids != self.b_id[ia]).tolist():
            memo(int(ia[k]), bgts[k])
        kind = self.b_kind[ia]
        stale = (kind == _BK_NONE) | ((kind == _BK_PLAIN) & (
            snos - self.b_step[ia] >= BUDGET_CACHE_STEPS))
        for k in np.flatnonzero(kind == _BK_ODD).tolist():
            if not step_nos[k] - bgts[k][0] < BUDGET_CACHE_STEPS:
                stale[k] = True
        if stale.any():
            proto = self.proto
            budgets_for = proto.budgets_for
            h_bgt = proto.h_bgt
            for k in np.flatnonzero(stale).tolist():
                ctx = ctx_list[k]
                budgets_for(ctx, ctx.stable_sentinel(), step_nos[k])
                c = bgts[k] = ctx.get(h_bgt)
                memo(int(ia[k]), c)
        thr = self.b_thr[:, ia]
        return (*thr, self.b_ok[ia])

    def _memo_budget(self, i, c) -> None:
        """Decode the ghost budget cache ``c`` of dense row ``i``."""
        self.b_obj[i] = c
        self.b_id[i] = id(c)
        self.b_thr[:, i] = -1
        self.b_ok[i] = False
        if not (isinstance(c, tuple) and len(c) == 2 and
                isinstance(c[1], Budgets)):
            self.b_kind[i] = _BK_NONE
            return
        s = c[0]
        if type(s) is int and -_I62 < s < _I62:
            self.b_kind[i] = _BK_PLAIN
            self.b_step[i] = s
        else:
            self.b_kind[i] = _BK_ODD
        vals = [getattr(c[1], f) for f in _BUDGET_FIELDS]
        if all(type(x) is int and INT_LO < x < INT_HI for x in vals):
            self.b_thr[:, i] = vals
            self.b_ok[i] = True

    def _run_partial(self, resid, ctx_list, step_nos, bgts, trivs,
                     bc_dones, adopts, holds, held_ok) -> None:
        """Replay the scalar fused bodies for every non-trivial
        (component, row) pair — the exact ``run_bodies`` sequence with
        the already-applied components skipped."""
        proto = self.proto
        statics = proto._static_alarms
        se = proto.static_every
        tr0, tr1 = self.tr0, self.tr1
        comp_step = self.comp_step
        held = self.held
        # plain-list views: per-element indexing of numpy bool arrays
        # costs more than the loop bodies it gates
        t0 = trivs[0].tolist()
        t1 = trivs[1].tolist() if tr1 is not None else None
        tc = trivs[-1].tolist()
        b0 = bc_dones[0].tolist()
        b1 = bc_dones[1].tolist() if tr1 is not None else None
        # per-row writes of the adopts planned for replayed rows
        s0 = adopts[0]
        s1 = adopts[1] if tr1 is not None else None
        p0 = s0.apos.tolist() if s0 is not None else None
        p1 = s1.apos.tolist() if s1 is not None else None
        kerns = self.train_kerns
        htm, hbm = holds
        if held is not None:
            held_ok = held_ok.tolist()
            htm = htm.tolist()
            hbm = hbm.tolist()
        for r in resid.tolist():
            k = r
            ctx = ctx_list[k]
            step_no = step_nos[k]
            sentinel = ctx.stable_sentinel()
            first = statics(ctx, sentinel) if step_no % se == 0 else None
            budgets = bgts[k][1]    # valid: refreshed by _budgets
            if held is not None:
                if held_ok[k]:
                    h0, h1 = htm[k], hbm[k]
                else:
                    hlt, hlb = held(ctx)
                    h0, h1 = hlt is not None, hlb is not None
            else:
                h0 = h1 = False
            if not t0[k]:
                a = tr0(ctx, budgets, h0 or b0[k], sentinel)
                if p0 is not None and p0[k] >= 0 and not h0:
                    # the planned adopt lands after the prologue and
                    # convergecast, exactly where the scalar broadcast
                    # would have written it (a live hold cancels it,
                    # as it cancels the whole broadcast)
                    kerns[0].exec_row(s0, p0[k])
                if a and not first:
                    first = a
            if t1 is not None and not t1[k]:
                a = tr1(ctx, budgets, h1 or b1[k], sentinel)
                if p1 is not None and p1[k] >= 0 and not h1:
                    kerns[1].exec_row(s1, p1[k])
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
        after :func:`repro.sim.snapshot.restore_network` swaps the
        registers wholesale the scheduler re-binds, and because the
        caches below are rebuilt lazily from (sentinel-validated)
        restored state the continuation is bit-for-bit the
        uninterrupted run's."""
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
    def bulk_step(self, batch) -> None:
        """One scheduler batch (the bulk-activation plane): the shared
        fused sweep over :attr:`trains` when fusion is licensed — a
        synchronous columnar round, a conflict-free asynchronous batch,
        or a single asynchronous activation on columnar storage — and
        the generic per-node fallback driver on dict storage.
        See :func:`fused_verifier_sweep`."""
        if batch.ops is None:
            drive_batch(self.step, batch)
            return
        fused_verifier_sweep(self, batch, self.trains, self.comparison)


class MstVerifierProtocol(TrainVerifierProtocol):
    """The complete verifier of Sections 5–8: both trains rotate."""

    def _checks(self, ctx) -> List[str]:
        return static_check(ctx)
