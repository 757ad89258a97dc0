"""The hybrid scheme: faster, more local detection for more memory.

The paper notes (Section 1.3) that the detection time and detection
distance can be improved "at the expense of some increase in the
memory".  This module implements the natural middle point between the
O(log n)-bit train scheme and the O(log^2 n)-bit 1-round PLS:

* every node stores the pieces I(F) of its **bottom** fragments locally
  (there are at most ~log log n of them — fragment sizes double per
  level and bottom means below log n — so the extra memory is
  O(log n * log log n) bits);
* bottom levels are then verified **in one round**, sqlog-style, against
  the neighbours' replicated pieces (detection distance 1);
* the Bottom partition and its train disappear entirely; the Top train
  still rotates the top pieces, and the Ask cycle shrinks to the top
  levels only.

Result: bottom-fragment faults are detected in 1 round at distance <= 1;
top-level detection keeps the train scheme's O(log^2 n) bound with a
shorter rotation.  Benchmark E11 quantifies the trade.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..graphs.weighted import NodeId, WeightedGraph
from ..labels import registers as R
from ..labels.strings import ENDP_DOWN, ENDP_UP
from ..labels.wellforming import sorted_levels, static_check
from ..sim.bulk import drive_batch
from ..sim.network import NodeContext, Protocol
from ..sim.registers import ALARM, RegisterSchema, handle_resolver
from ..trains.budgets import BUDGET_CACHE_STEPS, Budgets, node_budgets
from ..trains.comparison import (MODE_SYNC_WINDOW, MODE_WANT,
                                 ComparisonComponent)
from ..trains.train import TrainComponent, _nat, valid_piece
from .marker import MarkerOutput, run_marker
from .verifier import (REG_BUDGET_CACHE, REG_VSTEP,
                       fused_verifier_sweep)

#: the replicated bottom pieces: tuple of (root, level, weight), sorted.
REG_OWN_BOT = "ownbot"


def hybrid_labels(marker: MarkerOutput) -> Dict[NodeId, Dict[str, Any]]:
    """Rewrite a marker output into hybrid labels.

    Bottom parts degenerate to empty singletons; every node gains the
    piece table of its own bottom fragments.
    """
    hierarchy = marker.hierarchy
    classes = marker.layout.classes
    labels: Dict[NodeId, Dict[str, Any]] = {}
    for v, regs in marker.labels.items():
        new = dict(regs)
        own = tuple(
            (f.root, f.level, f.candidate_weight)
            for f in hierarchy.fragments_of(v)
            if f in classes.bottom
        )
        new[REG_OWN_BOT] = own
        new[R.REG_BOT_ROOT] = v
        new[R.REG_BOT_DIST] = 0
        new[R.REG_BOT_BOUND] = 0
        new[R.REG_BOT_COUNT] = 0
        new[R.REG_PIECES_BOT] = ()
        labels[v] = new
    return labels


def run_hybrid_marker(graph: WeightedGraph) -> MarkerOutput:
    """The hybrid marker: the standard marker plus piece replication."""
    marker = run_marker(graph)
    return MarkerOutput(tree=marker.tree, hierarchy=marker.hierarchy,
                        layout=marker.layout,
                        labels=hybrid_labels(marker),
                        construction_rounds=marker.construction_rounds)


def _own_piece_at(pieces: Any, level: int):
    if not isinstance(pieces, tuple):
        return None
    for pc in pieces:
        if valid_piece(pc) and pc[1] == level:
            return pc
    return None


def check_bottom_levels(ctx) -> List[str]:
    """One-round verification of all bottom levels from replicated pieces.

    The sqlog-style comparisons of Section 8 restricted to the levels
    below the delimiter: root identity, C1 (candidate weight and
    outgoingness), C2 (no lighter outgoing edge), and member agreement.
    """
    bad: List[str] = []
    jmask = _nat(ctx.get(R.REG_JMASK))
    delim = _nat(ctx.get(R.REG_DELIM))
    roots = ctx.get(R.REG_ROOTS)
    endp = ctx.get(R.REG_ENDP)
    own = ctx.get(REG_OWN_BOT)
    if jmask is None or delim is None or not isinstance(roots, str) \
            or not isinstance(endp, str):
        return bad  # malformed bases are reported by the static checks
    levels = sorted_levels(jmask)[:delim]
    if not isinstance(own, tuple) or \
            sorted(pc[1] for pc in own if valid_piece(pc)) != levels:
        return ["HYB: replicated piece table does not match the bottom "
                "levels"]
    for level in levels:
        mine = _own_piece_at(own, level)
        assert mine is not None
        if level < len(roots) and roots[level] == "1" and \
                mine[0] != ctx.node:
            bad.append("HYB: bottom fragment root id mismatch")
        u0 = None
        if level < len(endp) and endp[level] == ENDP_UP:
            pid = ctx.get(R.REG_PARENT_ID)
            u0 = pid if pid in ctx.neighbors else None
        elif level < len(endp) and endp[level] == ENDP_DOWN:
            for c in ctx.neighbors:
                if ctx.read(c, R.REG_PARENT_ID) != ctx.node:
                    continue
                cp = ctx.read(c, R.REG_PARENTS)
                if isinstance(cp, str) and level < len(cp) and \
                        cp[level] == "1":
                    u0 = c
                    break
        if u0 is not None and mine[2] != ctx.weight(u0):
            bad.append("HYB C1: claimed minimum differs from the "
                       "candidate weight")
        for u in ctx.neighbors:
            other = _own_piece_at(ctx.read(u, REG_OWN_BOT), level)
            if other is not None and other[0] == mine[0]:
                if tuple(other) != tuple(mine):
                    bad.append("HYB AGREE: same fragment, different piece")
                if u == u0:
                    bad.append("HYB C1: candidate edge is internal")
            else:
                w_hat = mine[2]
                if w_hat is None:
                    bad.append("HYB C2: bottom fragment without a minimum")
                    continue
                try:
                    lighter = ctx.weight(u) < w_hat
                except TypeError:
                    bad.append("HYB C2: incomparable weights")
                    continue
                if lighter:
                    bad.append("HYB C2: outgoing edge lighter than the "
                               "claimed minimum")
    return bad


class HybridVerifierProtocol(Protocol):
    """Top train + local bottom checks (the memory/time knob)."""

    def __init__(self, synchronous: bool = True,
                 comparison_mode: Optional[str] = None,
                 static_every: int = 1) -> None:
        self.synchronous = synchronous
        if comparison_mode is None:
            comparison_mode = MODE_SYNC_WINDOW if synchronous else MODE_WANT
        self.top = TrainComponent("top", R.REG_TOP_ROOT, R.REG_TOP_COUNT,
                                  R.REG_PIECES_TOP, synchronous)
        # the bottom train exists only as an inert observer target; its
        # part registers are degenerate singletons with zero pieces.
        self.bottom = TrainComponent("bottom", R.REG_BOT_ROOT,
                                     R.REG_BOT_COUNT, R.REG_PIECES_BOT,
                                     synchronous)
        self.comparison = ComparisonComponent(self.top, self.bottom,
                                              comparison_mode,
                                              only_top=True)
        self.static_every = max(1, static_every)
        self.bind_registers(None)

    def register_schema(self) -> RegisterSchema:
        schema = RegisterSchema()
        schema.declare(ALARM, "opaque", None)
        schema.declare(REG_VSTEP, "nat", 0)
        schema.declare(REG_BUDGET_CACHE, "opaque", None)
        R.declare_label_registers(schema)
        schema.declare(REG_OWN_BOT, "tuple", None, stable=True)
        self.top.declare_registers(schema)
        self.bottom.declare_registers(schema)
        self.comparison.declare_registers(schema)
        return schema

    def bind_registers(self, compiled) -> None:
        """See :meth:`MstVerifierProtocol.bind_registers`: besides
        resolving handles this must reset every register-derived cache —
        snapshot restore re-binds after replacing the registers."""
        resolve = handle_resolver(compiled)
        self.h_alarm = resolve(ALARM)
        self.h_vstep = resolve(REG_VSTEP)
        self.h_bgt = resolve(REG_BUDGET_CACHE)
        self.top.bind_registers(compiled)
        self.bottom.bind_registers(compiled)
        self.comparison.bind_registers(compiled)
        # register files only: label-derived caches (see the verifier)
        self._slot_bound = compiled is not None
        self._static_cache = {}
        self._budget_cache = {}
        # bulk plane: fused component closures, keyed on the ops object
        self._fused = None

    def init_node(self, ctx: NodeContext) -> None:
        ctx.set(self.h_alarm, None)
        ctx.set(self.h_vstep, 0)
        self.top.init_node(ctx)
        self.bottom.init_node(ctx)
        self.comparison.init_node(ctx)

    def budgets_for(self, ctx: NodeContext,
                    sentinel: Optional[int] = None,
                    step_no: Optional[int] = None) -> Budgets:
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
        """Static + replicated-bottom checks: both are deterministic in
        the closed neighbourhood's labels (incl. ``ownbot``), so they are
        recomputed only when the stable sentinel moves."""
        if sentinel is None:
            return static_check(ctx) + check_bottom_levels(ctx)
        ent = self._static_cache.get(ctx.node)
        if ent is not None and ent[0] == sentinel:
            return ent[1]
        reasons = static_check(ctx) + check_bottom_levels(ctx)
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
        held_top, _held_bot = self.comparison.held_levels(ctx)
        alarms.extend(self.top.step(ctx, budgets,
                                    hold_broadcast=held_top is not None,
                                    sentinel=sentinel))
        self.comparison.serve_turn(ctx)
        alarms.extend(self.comparison.step(ctx, budgets, sentinel))
        if alarms:
            ctx.alarm(alarms[0])

    #: conflict-free asynchronous batches may fuse (see repro.sim.bulk)
    bulk_conflict_free = True
    #: coalesced batches supported: the shared fused sweep drives
    #: segments in order and replays ``boundary`` between them
    bulk_segments = True

    def bulk_step(self, batch) -> None:
        """Bulk-activation sweep: the shared fused verifier sweep with
        only the Top train (bottom levels verify inside the static
        phase via the replicated pieces), fused under either license —
        synchronous columnar rounds or conflict-free asynchronous
        batches; see
        :func:`repro.verification.verifier.fused_verifier_sweep` for
        the fusion licenses and equivalence contract."""
        ops = batch.ops
        if ops is None or not ops.fused or (
                not batch.conflict_free and
                (batch.gate is not None or batch.after is not None)):
            drive_batch(self.step, batch)
            return
        fused_verifier_sweep(self, batch, (self.top,), self.comparison)
