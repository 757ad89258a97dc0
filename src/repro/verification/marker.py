"""The distributed marker algorithm M (Sections 5.4 and 6.3).

``run_marker`` produces every label register of the proof labeling
scheme for a correct instance:

1. run SYNC_MST (the hierarchy H_M and candidate function chi_M);
2. the Example-SP / Example-NumK registers;
3. the hierarchy strings (Roots/EndP/Parents/Or-EndP, J-mask, delimiter);
4. both partitions, their EDIAM fields, and the DFS-placed pieces.

Construction-time accounting follows the paper: SYNC_MST costs O(n)
rounds (Theorem 4.4); the string assignment piggybacks on it (Lemma 5.4);
the partition construction and train initialization are Multi_Wave
executions plus DFS traversals, all O(n) (Claims 6.9/6.10) — the charged
total is Corollary 6.11's O(n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..graphs.spanning import RootedTree
from ..graphs.weighted import NodeId, WeightedGraph
from ..hierarchy.fragments import Hierarchy
from ..labels import registers as R
from ..labels.strings import compute_node_strings, levels_mask
from ..mst.sync_mst import SyncMstResult, run_sync_mst
from ..partition.distribution import PartitionLayout, build_partitions
from ..partition.multiwave import run_multi_wave


@dataclass
class MarkerOutput:
    """Labels plus the structures they were computed from."""

    tree: RootedTree
    hierarchy: Hierarchy
    layout: PartitionLayout
    labels: Dict[NodeId, Dict[str, Any]]
    construction_rounds: int


def assemble_labels(tree: RootedTree, hierarchy: Hierarchy,
                    layout: PartitionLayout) -> Dict[NodeId, Dict[str, Any]]:
    """All label registers for a given (tree, hierarchy, partitions)."""
    graph = tree.graph
    strings = compute_node_strings(hierarchy)
    sizes = tree.subtree_sizes()
    height = hierarchy.height     # a max over every fragment: read once
    labels: Dict[NodeId, Dict[str, Any]] = {}
    for v in graph.nodes():
        parent = tree.parent[v]
        s = strings[v]
        top = layout.top_part_of[v]
        bot = layout.bottom_part_of[v]
        labels[v] = {
            R.REG_PARENT_ID: parent,
            R.REG_PARENT_PORT: None if parent is None else graph.port(v, parent),
            R.REG_TID: tree.root,
            R.REG_DIST: tree.depth[v],
            R.REG_N: graph.n,
            R.REG_SUBTREE: sizes[v],
            R.REG_ELL: height,
            R.REG_ROOTS: s.roots,
            R.REG_ENDP: s.endp,
            R.REG_PARENTS: s.parents,
            R.REG_ORENDP: s.orendp,
            R.REG_JMASK: levels_mask(s.roots),
            R.REG_DELIM: layout.delim[v],
            R.REG_TOP_ROOT: top.root,
            R.REG_TOP_DIST: tree.depth[v] - tree.depth[top.root],
            R.REG_TOP_BOUND: top.height,
            R.REG_TOP_COUNT: len(top.pieces),
            R.REG_BOT_ROOT: bot.root,
            R.REG_BOT_DIST: tree.depth[v] - tree.depth[bot.root],
            R.REG_BOT_BOUND: bot.height,
            R.REG_BOT_COUNT: len(bot.pieces),
            R.REG_PIECES_TOP: layout.node_pieces_top.get(v, ()),
            R.REG_PIECES_BOT: layout.node_pieces_bot.get(v, ()),
        }
    return labels


def run_marker(graph: WeightedGraph,
               sync_result: Optional[SyncMstResult] = None) -> MarkerOutput:
    """Run the full marker on a correct instance (the graph's MST)."""
    result = sync_result if sync_result is not None else run_sync_mst(graph)
    tree = result.tree
    hierarchy = result.hierarchy
    layout = build_partitions(hierarchy)
    labels = assemble_labels(tree, hierarchy, layout)

    # construction time: SYNC_MST + the SP/NumK waves + the partition
    # stages (Multi_Wave executions) + the DFS train initialization.
    mw = run_multi_wave(hierarchy)
    rounds = (result.rounds
              + 2 * (tree.height() + 1)       # SP/NumK aggregation
              + 4 * mw.pipelined_time         # classify/merge/split/notify
              + 2 * graph.n)                  # DFS piece placement
    return MarkerOutput(tree=tree, hierarchy=hierarchy, layout=layout,
                        labels=labels, construction_rounds=rounds)
