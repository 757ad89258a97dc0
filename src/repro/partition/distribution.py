"""Building both partitions and distributing the pieces (Section 6).

:func:`build_partitions` runs the whole Section-6 pipeline:

1. classify fragments (top/bottom, red/blue/large/green);
2. Procedure Merge -> partition P'';
3. split P'' into partition Top (size >= log n, height O(log n));
4. partition Bottom (blue + green fragments);
5. assign each part its piece list — a Top part stores I(F) for every top
   ancestor of its red fragment (Claim 6.3 makes this sufficient), a
   Bottom part stores I(F) for every bottom fragment inside it;
6. lay the pieces out in pairs along the DFS preorder of each part
   (the initialization of the trains, Section 6.2).

The result maps every node to its two parts, its stored piece pair(s),
and its top/bottom level delimiter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..graphs.spanning import RootedTree
from ..graphs.weighted import GraphError, NodeId
from ..hierarchy.fragments import Hierarchy
from .classify import (FragmentClasses, bottom_fragments_within,
                       classify_fragments, top_ancestors_chain)
from .parts import (MergedPart, Part, Piece, build_bottom_parts,
                    merge_procedure, piece_of, split_into_top_parts)


@dataclass
class PartitionLayout:
    """Everything Section 6 produces, ready for the marker."""

    classes: FragmentClasses
    merged: List[MergedPart]
    top_parts: List[Part]
    bottom_parts: List[Part]
    top_part_of: Dict[NodeId, Part] = field(default_factory=dict)
    bottom_part_of: Dict[NodeId, Part] = field(default_factory=dict)
    #: pieces stored permanently at each node, per partition
    node_pieces_top: Dict[NodeId, Tuple[Piece, ...]] = field(default_factory=dict)
    node_pieces_bot: Dict[NodeId, Tuple[Piece, ...]] = field(default_factory=dict)
    #: number of bottom levels of each node (prefix of J(v))
    delim: Dict[NodeId, int] = field(default_factory=dict)


def _dfs_preorder_of_part(tree: RootedTree, part: Part) -> List[NodeId]:
    nodes = set(part.nodes)
    order: List[NodeId] = []
    stack = [part.root]
    while stack:
        v = stack.pop()
        order.append(v)
        for c in reversed(tree.children[v]):
            if c in nodes:
                stack.append(c)
    if len(order) != len(nodes):  # pragma: no cover - parts are subtrees
        raise GraphError("part is not a connected subtree")
    return order


def _place_pieces(tree: RootedTree, part: Part,
                  store: Dict[NodeId, Tuple[Piece, ...]]) -> None:
    """Pair the pieces and store pair i at the i-th DFS node (Section 6.2)."""
    order = _dfs_preorder_of_part(tree, part)
    pairs = [tuple(part.pieces[i:i + 2])
             for i in range(0, len(part.pieces), 2)]
    if len(pairs) > len(order):
        raise GraphError(
            f"part rooted at {part.root} holds {len(part.pieces)} pieces "
            f"but only {len(order)} nodes")
    for i, v in enumerate(order):
        store[v] = pairs[i] if i < len(pairs) else ()


def build_partitions(hierarchy: Hierarchy) -> PartitionLayout:
    """Run the full Section-6 pipeline on a hierarchy."""
    tree = hierarchy.tree
    classes = classify_fragments(hierarchy)
    merged = merge_procedure(hierarchy, classes)

    top_parts: List[Part] = []
    for mp in merged:
        chain = top_ancestors_chain(classes, mp.red)
        pieces = [piece_of(f) for f in chain]
        for part in split_into_top_parts(tree, mp, classes.threshold):
            part.pieces = list(pieces)
            top_parts.append(part)

    bottom_parts = build_bottom_parts(hierarchy, classes)
    frag_by_root_level = {(f.root, f.level): f for f in hierarchy.fragments}
    for part in bottom_parts:
        # every fragment rooted at (or containing) the part's root is
        # among the root's own fragments, in the hierarchy's order
        own = hierarchy.fragments_of(part.root)
        if part.size == 1 and not any(
                f.size < classes.threshold for f in own):
            part.pieces = []  # degenerate singleton part (n <= 2)
            continue
        # the part *is* a bottom fragment; find it and collect descendants
        frag = None
        for f in own:
            if f.root == part.root and set(f.nodes) == set(part.nodes) \
                    and f in classes.bottom:
                frag = f
                break
        if frag is None:  # pragma: no cover - construction guarantees this
            raise GraphError(f"bottom part at {part.root} matches no fragment")
        part.pieces = [piece_of(f) for f in
                       bottom_fragments_within(classes, frag)]

    layout = PartitionLayout(classes=classes, merged=merged,
                             top_parts=top_parts, bottom_parts=bottom_parts)
    for part in top_parts:
        for v in part.nodes:
            layout.top_part_of[v] = part
        _place_pieces(tree, part, layout.node_pieces_top)
    for part in bottom_parts:
        for v in part.nodes:
            layout.bottom_part_of[v] = part
        _place_pieces(tree, part, layout.node_pieces_bot)

    for v in tree.nodes():
        frags = hierarchy.fragments_of(v)
        layout.delim[v] = sum(1 for f in frags if f in classes.bottom)

    _sanity_check(hierarchy, layout)
    return layout


def _sanity_check(hierarchy: Hierarchy, layout: PartitionLayout) -> None:
    """Marker-side invariants (Lemmas 6.4/6.5 and coverage)."""
    nodes = hierarchy.graph.nodes()
    for v in nodes:
        if v not in layout.top_part_of or v not in layout.bottom_part_of:
            raise GraphError(f"node {v} is not covered by both partitions")
    threshold = layout.classes.threshold
    for part in layout.top_parts:
        if part.size < threshold and hierarchy.graph.n >= threshold:
            raise GraphError("Top part smaller than log n")
        top_levels = {}
        for (root, level, _w) in part.pieces:
            if level in top_levels:
                raise GraphError("Top part stores two pieces of one level")
            top_levels[level] = root
    # every fragment's piece must be stored in every member's relevant part
    for frag in hierarchy.fragments:
        expected = piece_of(frag)
        is_top = frag in layout.classes.top
        for v in frag.nodes:
            part = (layout.top_part_of if is_top
                    else layout.bottom_part_of)[v]
            if expected not in part.pieces:
                raise GraphError(
                    f"piece of fragment {frag.fragment_id} missing from "
                    f"the {'top' if is_top else 'bottom'} part of node {v}")
