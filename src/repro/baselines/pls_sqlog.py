"""The O(log^2 n)-bit, 1-round proof labeling scheme for MST [54, 55].

The scheme the paper improves upon: every node stores the piece I(F) of
*every* fragment containing it — Theta(log n) pieces of Theta(log n) bits
— so all comparisons run against the neighbours' labels directly and
verification completes in a single round.  Detection time 1, detection
distance <= 1, memory Theta(log^2 n): the opposite end of the
memory/time trade-off from the train-based scheme.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..graphs.weighted import NodeId, WeightedGraph
from ..hierarchy.fragments import Hierarchy
from ..labels import registers as R
from ..labels.strings import ENDP_DOWN, ENDP_UP, compute_node_strings, levels_mask
from ..labels.wellforming import (check_ell, check_endp_parents,
                                  check_roots_string, check_size,
                                  check_spanning_tree, sorted_levels)
from ..mst.sync_mst import run_sync_mst
from ..sim.bulk import drive_batch
from ..sim.network import NodeContext, Protocol
from ..verification.marker import MarkerOutput

REG_ALL_PIECES = "allpc"   # tuple of (root, level, weight), one per level


def sqlog_labels(graph: WeightedGraph,
                 hierarchy: Optional[Hierarchy] = None) -> Dict[NodeId, Dict[str, Any]]:
    """Marker: base labels plus the full per-node piece table."""
    if hierarchy is None:
        hierarchy = run_sync_mst(graph).hierarchy
    tree = hierarchy.tree
    strings = compute_node_strings(hierarchy)
    sizes = tree.subtree_sizes()
    labels: Dict[NodeId, Dict[str, Any]] = {}
    for v in graph.nodes():
        parent = tree.parent[v]
        s = strings[v]
        pieces = tuple(
            (f.root, f.level, f.candidate_weight)
            for f in hierarchy.fragments_of(v)
        )
        labels[v] = {
            R.REG_PARENT_ID: parent,
            R.REG_PARENT_PORT: None if parent is None else graph.port(v, parent),
            R.REG_TID: tree.root,
            R.REG_DIST: tree.depth[v],
            R.REG_N: graph.n,
            R.REG_SUBTREE: sizes[v],
            R.REG_ELL: hierarchy.height,
            R.REG_ROOTS: s.roots,
            R.REG_ENDP: s.endp,
            R.REG_PARENTS: s.parents,
            R.REG_ORENDP: s.orendp,
            R.REG_JMASK: levels_mask(s.roots),
            REG_ALL_PIECES: pieces,
        }
    return labels


def _piece_at_level(pieces: Any, level: int) -> Optional[Tuple]:
    if not isinstance(pieces, tuple):
        return None
    for pc in pieces:
        if isinstance(pc, tuple) and len(pc) == 3 and pc[1] == level:
            return pc
    return None


def sqlog_check(view) -> List[str]:
    """The complete 1-round verification (all comparisons local)."""
    bad: List[str] = []
    for check in (check_spanning_tree, check_size, check_ell,
                  check_roots_string, check_endp_parents):
        bad.extend(check(view))

    jmask = view.get(R.REG_JMASK)
    roots = view.get(R.REG_ROOTS)
    endp = view.get(R.REG_ENDP)
    pieces = view.get(REG_ALL_PIECES)
    if not isinstance(jmask, int) or isinstance(jmask, bool) \
            or jmask < 0 or not isinstance(roots, str) \
            or not isinstance(endp, str):
        return bad or ["sqlog: malformed base labels"]
    levels = sorted_levels(jmask)
    if not isinstance(pieces, tuple) or \
            sorted(pc[1] for pc in pieces
                   if isinstance(pc, tuple) and len(pc) == 3) != levels:
        bad.append("sqlog: piece table does not match J(v)")
        return bad

    expected = 0
    for j, c in enumerate(roots):
        if c != "*":
            expected |= 1 << j
    if jmask != expected:
        bad.append("sqlog: J-mask differs from the Roots string")

    for level in levels:
        mine = _piece_at_level(pieces, level)
        assert mine is not None
        if level < len(roots) and roots[level] == "1" and mine[0] != view.node:
            bad.append("sqlog: fragment root id mismatch")
        # candidate endpoint: C1 weight half
        u0 = None
        if level < len(endp) and endp[level] == ENDP_UP:
            pid = view.get(R.REG_PARENT_ID)
            u0 = pid if pid in view.neighbors else None
        elif level < len(endp) and endp[level] == ENDP_DOWN:
            for c in view.neighbors:
                if view.read(c, R.REG_PARENT_ID) != view.node:
                    continue
                cp = view.read(c, R.REG_PARENTS)
                if isinstance(cp, str) and level < len(cp) and cp[level] == "1":
                    u0 = c
                    break
        if u0 is not None and mine[2] != view.weight(u0):
            bad.append("sqlog C1: claimed minimum differs from the "
                       "candidate weight")
        for u in view.neighbors:
            other = _piece_at_level(view.read(u, REG_ALL_PIECES), level)
            same = other is not None and other[0] == mine[0]
            if same:
                if tuple(other) != tuple(mine):
                    bad.append("sqlog AGREE: same fragment, different piece")
                if u == u0:
                    bad.append("sqlog C1: candidate edge is internal")
            else:
                w_hat = mine[2]
                if w_hat is None:
                    bad.append("sqlog C2: whole tree has an outgoing edge")
                    continue
                try:
                    lighter = view.weight(u) < w_hat
                except TypeError:
                    bad.append("sqlog C2: incomparable weights")
                    continue
                if lighter:
                    bad.append("sqlog C2: outgoing edge lighter than the "
                               "claimed minimum")
    return bad


class SqLogPlsProtocol(Protocol):
    """The 1-round verifier as a simulator protocol (detection time 1).

    The checks are written against the storage-agnostic name-based view
    API, but declaring a schema still pays: the network's snapshots
    become whole-column copies and alarm polling a column scan, the
    Theta(log^2 n)-bit piece tables intern into the columnar pool (one
    shared tuple per distinct table instead of one per node copy), and
    the dirty-aware schedulers can skip re-checking quiescent
    (accepting) nodes — under the locality-batching daemon a whole
    settled neighbourhood skips per batch."""

    def register_schema(self):
        from ..sim.registers import ALARM, RegisterSchema
        schema = RegisterSchema()
        schema.declare(ALARM, "opaque", None)
        R.declare_label_registers(schema)
        schema.declare(REG_ALL_PIECES, "tuple", None, stable=True)
        return schema

    def bind_registers(self, compiled) -> None:
        # the whole check is a pure function of the closed
        # neighbourhood's labels: on columnar storage it reruns only
        # when the stable sentinel moves
        self._slot_bound = compiled is not None
        self._check_cache = {}

    def init_node(self, ctx: NodeContext) -> None:
        if not hasattr(self, "_check_cache"):
            self.bind_registers(None)
        ctx.set("alarm", None)

    def step(self, ctx: NodeContext) -> None:
        if getattr(self, "_slot_bound", False):
            sentinel = ctx.stable_sentinel()
            ent = self._check_cache.get(ctx.node)
            if ent is not None and ent[0] == sentinel:
                reasons = ent[1]
            else:
                reasons = sqlog_check(ctx)
                self._check_cache[ctx.node] = (sentinel, reasons)
        else:
            reasons = sqlog_check(ctx)
        if reasons:
            ctx.alarm(reasons[0])

    def bulk_step(self, batch) -> None:
        """Bulk-activation sweep: the generic per-node driver over
        :meth:`step`.  The step is a static verdict check cached on the
        stable sentinel, so an accepting batch performs no writes at
        all, which is what lets the schedulers' quiescence/skip
        machinery retire it wholesale."""
        drive_batch(self.step, batch)


def sqlog_marker_output(graph: WeightedGraph):
    """(labels, construction_rounds) for the transformer's checker slot."""
    result = run_sync_mst(graph)
    labels = sqlog_labels(graph, result.hierarchy)
    return labels, result.rounds + 2 * (result.tree.height() + 1)
