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

from typing import Any, Dict, List

from ..graphs.weighted import NodeId, WeightedGraph
from ..labels import registers as R
from ..labels.strings import ENDP_DOWN, ENDP_UP
from ..labels.wellforming import sorted_levels, static_check
from ..sim.registers import RegisterSchema
from ..trains.train import _nat, valid_piece
from .marker import MarkerOutput, run_marker
from .verifier import TrainVerifierProtocol

# Unused here: the per-layer tracer of ``benchmarks/perf`` patches
# these two names in this module's namespace, so they must resolve.
from ..sim.bulk import drive_batch  # noqa: F401
from .verifier import fused_verifier_sweep  # noqa: F401

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


class HybridVerifierProtocol(TrainVerifierProtocol):
    """Top train + local bottom checks (the memory/time knob): only the
    Top train rotates, ``ownbot`` replicates the bottom pieces, and the
    bottom levels verify inside the static phase."""

    only_top = True

    def declare_extra_registers(self, schema: RegisterSchema) -> None:
        schema.declare(REG_OWN_BOT, "tuple", None, stable=True)

    def _checks(self, ctx) -> List[str]:
        # both are deterministic in the closed neighbourhood's labels
        # (incl. ``ownbot``), so the base caches them on the sentinel
        return static_check(ctx) + check_bottom_levels(ctx)
