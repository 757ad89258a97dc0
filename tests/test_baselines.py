"""Baselines: the O(log^2 n) 1-PLS, recompute checking, the cycle-rule
low-memory algorithm, and the Table-1 models."""

import math

import pytest

from repro.graphs import kruskal_mst
from repro.graphs.generators import random_connected_graph
from repro.labels.registers import REG_JMASK
from repro.labels.wellforming import sorted_levels
from repro.baselines import (HISTORICAL_ROWS, SqLogPlsProtocol,
                             evaluate_rows, recompute_checker_metrics,
                             recompute_detect, run_low_memory_mst,
                             sqlog_labels, sqlog_marker_output)
from repro.sim import FaultInjector, Network, SynchronousScheduler, first_alarm
from repro.verification import (labels_for_claimed_tree, run_marker,
                                swap_one_mst_edge)
from repro.verification.adversary import tree_only_subgraph


def sqlog_network(g, labels):
    net = Network(g)
    net.install(labels)
    return net


class TestSqLogPls:
    def test_accepts_correct(self):
        g = random_connected_graph(20, 34, seed=1)
        net = sqlog_network(g, sqlog_labels(g))
        rounds = SynchronousScheduler(net, SqLogPlsProtocol()).run(
            3, stop_when=first_alarm)
        assert not net.alarms()

    def test_detects_in_one_round(self):
        g = random_connected_graph(20, 34, seed=2)
        net = sqlog_network(g, sqlog_labels(g))
        inj = FaultInjector(net, seed=1)
        inj.corrupt_random_nodes(1, fraction=0.6)
        rounds = SynchronousScheduler(net, SqLogPlsProtocol()).run(
            5, stop_when=first_alarm)
        assert net.alarms()
        assert rounds == 1

    def test_rejects_non_mst_in_one_round(self):
        from repro.graphs.spanning import RootedTree
        from repro.hierarchy.fragments import Fragment, Hierarchy
        from repro.mst import run_sync_mst

        g = random_connected_graph(18, 30, seed=3)
        wrong = swap_one_mst_edge(g, kruskal_mst(g))
        sub = tree_only_subgraph(g, wrong)
        res = run_sync_mst(sub)
        tree = RootedTree(g, res.tree.root, res.tree.parent)
        hierarchy = Hierarchy(tree, [
            Fragment(root=f.root, level=f.level, nodes=f.nodes,
                     candidate_edge=f.candidate_edge,
                     candidate_weight=f.candidate_weight)
            for f in res.hierarchy.fragments])
        net = sqlog_network(g, sqlog_labels(g, hierarchy))
        rounds = SynchronousScheduler(net, SqLogPlsProtocol()).run(
            3, stop_when=first_alarm)
        assert net.alarms()
        assert rounds == 1
        assert any("C2" in r or "C1" in r for r in net.alarms().values())

    @pytest.mark.parametrize("jmask", [-1, -6, True])
    def test_negative_or_bool_jmask_is_malformed(self, jmask):
        """A perturbed J-mask of -1 used to send the level decoder into
        an endless shift loop; negative and bool masks are malformed
        base labels, reported in the same round."""
        g = random_connected_graph(16, 28, seed=5)
        net = sqlog_network(g, sqlog_labels(g))
        v = g.nodes()[3]
        net.registers[v][REG_JMASK] = jmask
        rounds = SynchronousScheduler(net, SqLogPlsProtocol()).run(
            3, stop_when=first_alarm)
        assert rounds == 1
        assert net.alarms().get(v) is not None

    def test_sorted_levels_rejects_negative_mask(self):
        assert sorted_levels(0b1011) == [0, 1, 3]
        with pytest.raises(ValueError):
            sorted_levels(-1)

    def test_scrambled_jmask_cell_detects(self):
        """The campaign cell that once hung until MemoryError (a
        scrambled J-mask of -1) ends ``ok`` with the fault detected."""
        from repro.engine import ScenarioSpec, axis, run_scenario
        res = run_scenario(ScenarioSpec(
            topology=axis("random", n=40, extra=72),
            fault=axis("scramble"), schedule=axis("sync"),
            protocol=axis("sqlog"), seed=8683635352908587928,
            topology_seed=3081366249871184947))
        assert res.status == "ok"
        assert res.detected
        assert res.violation is None

    def test_piece_lie_cell_detects(self):
        """The stored-piece lie lands in the sqlog piece table (it
        used to find no piece and end the cell with a ScenarioError)
        and the 1-round check catches it."""
        from repro.engine import ScenarioSpec, axis, run_scenario
        res = run_scenario(ScenarioSpec(
            topology=axis("random", n=16), fault=axis("piece_lie"),
            schedule=axis("sync"), protocol=axis("sqlog"), seed=3))
        assert res.status == "ok"
        assert res.detected
        assert res.violation is None

    def test_memory_is_log_squared_shape(self):
        """The sqlog scheme's memory grows faster than the train scheme's."""
        from repro.verification import make_network
        ratios = {}
        for n in (16, 256):
            g = random_connected_graph(n, 2 * n, seed=4)
            sq = sqlog_network(g, sqlog_labels(g)).max_memory_bits()
            kkm = make_network(g, run_marker(g)).max_memory_bits()
            ratios[n] = sq / kkm
        # with more levels per node, the piece table grows relative to
        # the O(log n) label set
        assert ratios[256] > ratios[16]

    def test_marker_output_interface(self):
        g = random_connected_graph(12, 18, seed=5)
        labels, rounds = sqlog_marker_output(g)
        assert set(labels) == set(g.nodes())
        assert rounds > 0


class TestRecompute:
    def test_silent_on_correct(self):
        g = random_connected_graph(16, 26, seed=6)
        net = Network(g)
        net.install(run_marker(g).labels)
        rounds, alarms = recompute_detect(net)
        assert not alarms
        assert rounds > 0

    def test_detects_wrong_component(self):
        g = random_connected_graph(16, 26, seed=7)
        marker = run_marker(g)
        net = Network(g)
        net.install(marker.labels)
        victim = next(v for v in g.nodes()
                      if marker.labels[v]["pid"] is not None)
        wrong = next(u for u in g.neighbors(victim)
                     if u != marker.labels[victim]["pid"]
                     and frozenset((victim, u)) not in
                     {frozenset(e) for e in marker.tree.edge_set()})
        net.registers[victim]["pid"] = wrong
        _rounds, alarms = recompute_detect(net)
        assert victim in alarms

    def test_detection_time_linear(self):
        times = {}
        for n in (16, 128):
            g = random_connected_graph(n, 2 * n, seed=8)
            times[n] = recompute_checker_metrics(g)["detection_rounds"]
        assert times[128] >= 4 * times[16]


class TestLowMemory:
    @pytest.mark.parametrize("seed", range(3))
    def test_reaches_the_mst(self, seed):
        g = random_connected_graph(18, 36, seed=seed)
        res = run_low_memory_mst(g)
        assert res.edges == kruskal_mst(g)

    def test_rounds_grow_with_edges(self):
        g_sparse = random_connected_graph(24, 10, seed=9)
        g_dense = random_connected_graph(24, 150, seed=9)
        sparse = run_low_memory_mst(g_sparse).rounds
        dense = run_low_memory_mst(g_dense).rounds
        assert dense > sparse

    def test_memory_logarithmic(self):
        g = random_connected_graph(30, 60, seed=10)
        res = run_low_memory_mst(g)
        assert res.memory_bits <= 4 * math.ceil(math.log2(g.n)) + 16

    def test_already_minimal_makes_no_swaps(self):
        g = random_connected_graph(15, 25, seed=11)
        res = run_low_memory_mst(g, initial=kruskal_mst(g))
        assert res.swaps == 0


class TestTable1Models:
    def test_rows_evaluate(self):
        rows = evaluate_rows(n=256, m=1024)
        assert len(rows) == len(HISTORICAL_ROWS)
        byname = {r["name"]: r for r in rows}
        kkm = next(r for r in rows if "Current paper" in r["name"])
        hl = next(r for r in rows if "Higham" in r["name"])
        assert kkm["time_rounds"] < hl["time_rounds"]
        assert kkm["space_bits"] <= hl["space_bits"] + 1

    def test_kkm_dominates_all_rows(self):
        rows = evaluate_rows(n=1024, m=8192)
        kkm = next(r for r in rows if "Current paper" in r["name"])
        for row in rows:
            if row is kkm:
                continue
            assert kkm["space_bits"] <= row["space_bits"] * 1.01
            if abs(row["space_bits"] - kkm["space_bits"]) < 1:
                # equal-memory rows are strictly slower
                assert kkm["time_rounds"] < row["time_rounds"]
