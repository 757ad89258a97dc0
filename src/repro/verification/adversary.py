"""Adversarial label assignments for soundness experiments.

The verifier must reject *any* label assignment when the represented
subgraph is not an MST (Section 2.4's second property).  Random
corruption is easy to detect; the strongest consistent adversary labels a
**non-minimum spanning tree as if it were correct**: it slices the wrong
tree into a perfectly legal hierarchy (running the SYNC_MST merging with
the outgoing-edge search restricted to tree edges), assigns all strings,
partitions and pieces honestly for that hierarchy, and claims each
fragment's minimum outgoing weight to be the candidate's weight.

Every static check and every train check passes on such labels; only the
minimality comparisons (C2 — some cross-fragment non-tree edge is lighter
than a claimed minimum) can expose the lie, which is exactly the paper's
point: Well-Forming is 1-round verifiable, Minimality needs the trains.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Set, Tuple

from ..graphs.spanning import RootedTree
from ..graphs.weighted import Edge, NodeId, WeightedGraph, edge_key
from ..hierarchy.fragments import Fragment, Hierarchy
from ..mst.sync_mst import run_sync_mst
from ..partition.distribution import build_partitions
from .marker import MarkerOutput, assemble_labels


def tree_only_subgraph(graph: WeightedGraph,
                       tree_edges: Iterable[Edge]) -> WeightedGraph:
    """The subgraph containing only the candidate tree's edges."""
    sub = WeightedGraph()
    for v in graph.nodes():
        sub.add_node(v)
    for (u, v) in tree_edges:
        sub.add_edge(u, v, graph.weight(u, v))
    return sub


def labels_for_claimed_tree(graph: WeightedGraph,
                            tree_edges: Set[Edge]) -> MarkerOutput:
    """Honest-looking labels for an arbitrary spanning tree of ``graph``.

    When ``tree_edges`` is the MST this coincides with the real marker;
    when it is not, the result is the strongest consistent adversary.
    """
    sub = tree_only_subgraph(graph, tree_edges)
    result = run_sync_mst(sub)

    # rebuild the tree and hierarchy over the *real* graph (ports differ)
    tree = RootedTree(graph, result.tree.root, result.tree.parent)
    fragments = [
        Fragment(root=f.root, level=f.level, nodes=f.nodes,
                 candidate_edge=f.candidate_edge,
                 candidate_weight=f.candidate_weight)
        for f in result.hierarchy.fragments
    ]
    hierarchy = Hierarchy(tree, fragments)
    layout = build_partitions(hierarchy)
    labels = assemble_labels(tree, hierarchy, layout)
    return MarkerOutput(tree=tree, hierarchy=hierarchy, layout=layout,
                        labels=labels,
                        construction_rounds=result.rounds)


def swap_one_mst_edge(graph: WeightedGraph,
                      mst_edges: Set[Edge],
                      seed_edge: Optional[Edge] = None) -> Optional[Set[Edge]]:
    """A spanning tree differing from the MST by one edge swap (heavier
    non-tree edge replacing a tree edge on its cycle), or None when the
    graph is itself a tree."""
    root = graph.nodes()[0]
    tree = RootedTree.from_edges(graph, mst_edges, root)
    for u, v, w in sorted(graph.edges(), key=lambda e: e[2]):
        e = edge_key(u, v)
        if e in mst_edges or (seed_edge is not None and e != seed_edge):
            continue
        path = tree.tree_path(u, v)
        # drop the heaviest tree edge on the cycle, add (u, v)
        heaviest = max(zip(path, path[1:]),
                       key=lambda ab: graph.weight(ab[0], ab[1]))
        swapped = set(mst_edges)
        swapped.remove(edge_key(*heaviest))
        swapped.add(e)
        return swapped
    return None


def heavier_weight(w: Any) -> Any:
    """A strictly heavier weight comparable with ``w`` under the
    graph's total order.  Numeric weights bump by one; the
    lexicographic tuple weights of :mod:`repro.graphs.weights` (the
    Section-9 subdivided instances use them) gain a suffix, which makes
    the tuple strictly greater while staying comparable; ``None`` (a
    whole-tree fragment claiming no outgoing edge) becomes the lightest
    concrete claim."""
    if isinstance(w, tuple):
        return w + (1,)
    return (w or 0) + 1


def lie_about_used_piece(network, injector) -> None:
    """Increase the claimed minimum-outgoing weight of a stored piece
    whose fragment is guaranteed to be observed — the hardest detectable
    fault class (only the train comparisons can catch it).

    Bottom-partition pieces describe fragments contained in the storing
    part, so their members rotate past the lie every cycle; a corrupted
    *top* piece can be dead data when its fragment does not intersect the
    storing part (the parts store whole ancestor chains — see
    Section 6.3.7), which would be correctly accepted.  Labels of the
    O(log² n)-bit scheme (:mod:`repro.baselines.pls_sqlog`) keep every
    fragment's piece in one table instead; the lie then lands on that
    table's first piece, which every neighbour compares against.
    Raises ``LookupError`` when the labels store no pieces at all.
    """
    from ..baselines.pls_sqlog import REG_ALL_PIECES
    from ..labels import registers as R

    for reg in (R.REG_PIECES_BOT, R.REG_PIECES_TOP, REG_ALL_PIECES):
        for v in network.graph.nodes():
            pieces = network.registers[v].get(reg) or ()
            if pieces:
                z, lvl, w = pieces[0]
                injector.corrupt_register(
                    v, reg,
                    ((z, lvl, heavier_weight(w)),) + tuple(pieces[1:]))
                return
    raise LookupError("no stored piece found to corrupt")
