"""Partitions Top and Bottom (Section 6): classification, Procedure
Merge, splitting, piece distribution, and the Multi_Wave primitive."""

import pytest

from repro.engine.scenarios import _subdivided_graph
from repro.graphs import kruskal_mst
from repro.graphs.generators import (caterpillar_graph, complete_graph,
                                     grid_graph, path_graph,
                                     random_connected_graph, star_graph)
from repro.labels import registers as R
from repro.labels.wellforming import log_threshold
from repro.mst import run_sync_mst
from repro.partition import (bottom_fragments_within, build_partitions,
                             check_red_blue_partition, classify_fragments,
                             merge_procedure, piece_of, run_multi_wave,
                             top_ancestors_chain)
from repro.verification.adversary import (labels_for_claimed_tree,
                                          swap_one_mst_edge)
from repro.verification.marker import run_marker

FAMILIES = [
    lambda: random_connected_graph(40, 70, seed=1),
    lambda: random_connected_graph(24, 24, seed=2),
    lambda: path_graph(33, seed=3),
    lambda: star_graph(21, seed=4),
    lambda: caterpillar_graph(7, 3, seed=5),
    lambda: complete_graph(12, seed=6),
]


@pytest.fixture(scope="module", params=range(len(FAMILIES)))
def case(request):
    g = FAMILIES[request.param]()
    result = run_sync_mst(g)
    return g, result.hierarchy


class TestClassification:
    def test_top_fragments_upward_closed(self, case):
        _g, hierarchy = case
        classes = classify_fragments(hierarchy)
        for frag in classes.top:
            if frag.parent is not None:
                assert frag.parent in classes.top

    def test_whole_tree_is_top(self, case):
        _g, hierarchy = case
        classes = classify_fragments(hierarchy)
        assert hierarchy.whole_tree_fragment in classes.top

    def test_size_threshold(self, case):
        g, hierarchy = case
        classes = classify_fragments(hierarchy)
        threshold = log_threshold(g.n)
        for frag in classes.top:
            assert frag.size >= threshold
        for frag in classes.bottom:
            assert frag.size < threshold

    def test_red_blue_partition(self, case):
        """Observation 6.1."""
        _g, hierarchy = case
        classes = classify_fragments(hierarchy)
        assert check_red_blue_partition(hierarchy, classes)

    def test_red_are_leaves_of_ttop(self, case):
        _g, hierarchy = case
        classes = classify_fragments(hierarchy)
        for red in classes.red:
            assert not any(c in classes.top for c in red.children)
        for large in classes.large:
            assert any(c in classes.top for c in large.children)

    def test_top_ancestors_chain_sorted(self, case):
        _g, hierarchy = case
        classes = classify_fragments(hierarchy)
        for red in classes.red:
            chain = top_ancestors_chain(classes, red)
            levels = [f.level for f in chain]
            assert levels == sorted(levels)
            assert chain[-1] is hierarchy.whole_tree_fragment


class TestMergeProcedure:
    def test_parts_cover_all_nodes_once(self, case):
        g, hierarchy = case
        classes = classify_fragments(hierarchy)
        parts = merge_procedure(hierarchy, classes)
        seen = {}
        for part in parts:
            for v in part.nodes:
                seen[v] = seen.get(v, 0) + 1
        assert seen == {v: 1 for v in g.nodes()}

    def test_one_red_per_part(self, case):
        _g, hierarchy = case
        classes = classify_fragments(hierarchy)
        parts = merge_procedure(hierarchy, classes)
        assert len(parts) == len(classes.red)
        for part in parts:
            assert part.red.nodes <= part.nodes

    def test_parts_are_subtrees(self, case):
        _g, hierarchy = case
        classes = classify_fragments(hierarchy)
        for part in merge_procedure(hierarchy, classes):
            nodes = part.nodes
            root = min(nodes, key=lambda v: hierarchy.tree.depth[v])
            for v in nodes:
                if v != root:
                    assert hierarchy.tree.parent[v] in nodes


class TestFullLayout:
    def test_claim_6_3_one_top_fragment_per_level(self, case):
        _g, hierarchy = case
        layout = build_partitions(hierarchy)
        for part in layout.top_parts:
            levels = [lvl for _r, lvl, _w in part.pieces]
            assert len(levels) == len(set(levels))

    def test_lemma_6_4_top_part_shape(self, case):
        g, hierarchy = case
        layout = build_partitions(hierarchy)
        threshold = layout.classes.threshold
        for part in layout.top_parts:
            if g.n >= threshold:
                assert part.size >= threshold
            assert part.height <= 3 * threshold
            assert len(part.pieces) <= threshold + 2

    def test_lemma_6_5_bottom_part_shape(self, case):
        _g, hierarchy = case
        layout = build_partitions(hierarchy)
        threshold = layout.classes.threshold
        for part in layout.bottom_parts:
            assert part.size <= max(1, threshold - 1) or part.size == 1
            assert len(part.pieces) <= 2 * part.size

    def test_every_node_in_both_partitions(self, case):
        g, hierarchy = case
        layout = build_partitions(hierarchy)
        assert set(layout.top_part_of) == set(g.nodes())
        assert set(layout.bottom_part_of) == set(g.nodes())

    def test_piece_pairs_at_most_two_per_node(self, case):
        g, hierarchy = case
        layout = build_partitions(hierarchy)
        for v in g.nodes():
            assert len(layout.node_pieces_top.get(v, ())) <= 2
            assert len(layout.node_pieces_bot.get(v, ())) <= 2

    def test_every_fragment_piece_reachable(self, case):
        """The _sanity_check invariant, asserted independently: each
        fragment's piece is stored in the relevant part of each member."""
        _g, hierarchy = case
        layout = build_partitions(hierarchy)
        for frag in hierarchy.fragments:
            expected = piece_of(frag)
            part_of = (layout.top_part_of
                       if frag in layout.classes.top
                       else layout.bottom_part_of)
            for v in frag.nodes:
                assert expected in part_of[v].pieces

    def test_pieces_sorted_by_level_root(self, case):
        _g, hierarchy = case
        layout = build_partitions(hierarchy)
        for part in layout.top_parts + layout.bottom_parts:
            keys = [(lvl, r) for r, lvl, _w in part.pieces]
            assert keys == sorted(keys)

    def test_delim_is_bottom_prefix(self, case):
        g, hierarchy = case
        layout = build_partitions(hierarchy)
        for v in g.nodes():
            frags = hierarchy.fragments_of(v)
            bottoms = [f in layout.classes.bottom for f in frags]
            # bottom fragments form a prefix of the nested chain
            assert bottoms == sorted(bottoms, reverse=True)
            assert layout.delim[v] == sum(bottoms)


class TestMultiWave:
    def test_visits_every_fragment_in_level_order(self, case):
        _g, hierarchy = case
        seen = []
        run_multi_wave(hierarchy, on_fragment=seen.append)
        assert len(seen) == len(hierarchy.fragments)
        levels = [f.level for f in seen]
        assert levels == sorted(levels)

    def test_pipelined_beats_naive(self, case):
        g, hierarchy = case
        res = run_multi_wave(hierarchy)
        assert res.pipelined_time <= res.naive_time

    def test_pipelined_linear(self, case):
        g, hierarchy = case
        res = run_multi_wave(hierarchy)
        assert res.pipelined_time <= 8 * g.n + 16


SETUP_GRAPHS = [
    lambda: random_connected_graph(90, 160, seed=7),
    lambda: random_connected_graph(60, 60, seed=8),
    lambda: _subdivided_graph(3, base_n=16, extra=24),
    lambda: grid_graph(6, 7, seed=9),
    lambda: path_graph(40, seed=10),
    lambda: star_graph(30, seed=11),
]


def _marker_outputs(graph):
    """The honest marker output, plus the strongest consistent
    adversary's output for a non-MST spanning tree when one exists."""
    outs = [run_marker(graph)]
    swapped = swap_one_mst_edge(graph, kruskal_mst(graph))
    if swapped is not None:
        outs.append(labels_for_claimed_tree(graph, swapped))
    return outs


class TestSetupScans:
    """The marker set-up's fragment lookups (the descendant walk of
    ``bottom_fragments_within``, the bottom-part fragment lookup, the
    hoisted hierarchy height) give exactly what the subset and max
    scans over every fragment give."""

    @pytest.mark.parametrize("make", SETUP_GRAPHS)
    def test_labels_match_the_full_scans(self, make):
        for out in _marker_outputs(make()):
            hierarchy, layout = out.hierarchy, out.layout
            classes = layout.classes
            for frag in classes.bottom:
                scan = sorted((f for f in classes.bottom
                               if f.nodes <= frag.nodes),
                              key=lambda f: (f.level, f.root))
                assert bottom_fragments_within(classes, frag) == scan
            for part in layout.bottom_parts:
                if part.size == 1 and not any(
                        f.size < classes.threshold and part.root in f.nodes
                        for f in hierarchy.fragments):
                    assert part.pieces == []
                    continue
                frag = next(f for f in hierarchy.fragments
                            if f.root == part.root
                            and f.nodes == frozenset(part.nodes)
                            and f in classes.bottom)
                assert part.pieces == [
                    piece_of(f) for f in sorted(
                        (f for f in classes.bottom
                         if f.nodes <= frag.nodes),
                        key=lambda f: (f.level, f.root))]
            ell = max(f.level for f in hierarchy.fragments)
            assert {regs[R.REG_ELL] for regs in out.labels.values()} == \
                {ell}
