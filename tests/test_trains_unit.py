"""Unit-level behaviour of the train mechanism (Theorem 7.1) observed
through the full verifier protocol on correct instances."""

import pytest

from repro.graphs.generators import path_graph, random_connected_graph
from repro.labels import registers as R
from repro.labels.wellforming import sorted_levels
from repro.sim import Network, SynchronousScheduler
from repro.trains.budgets import compute_budgets
from repro.trains.train import SEQ_MOD, piece_key, valid_piece
from repro.verification import make_network, run_marker
from repro.verification.verifier import MstVerifierProtocol


@pytest.fixture(scope="module")
def running():
    g = random_connected_graph(20, 32, seed=21)
    marker = run_marker(g)
    network = make_network(g, marker)
    protocol = MstVerifierProtocol(synchronous=True)
    sched = SynchronousScheduler(network, protocol)
    # record the broadcast stream at every node
    streams = {v: [] for v in g.nodes()}

    rounds = 600
    sched.initialize()
    for _ in range(rounds):
        sched.run(1)
        for v in g.nodes():
            for prefix in ("tt_", "bt_"):
                buf = network.registers[v].get(prefix + "bbuf")
                if isinstance(buf, tuple) and len(buf) == 2 and \
                        valid_piece(buf[0]):
                    key = (prefix, buf[0], bool(buf[1]))
                    if not streams[v] or streams[v][-1] != key:
                        streams[v].append(key)
    return g, marker, network, streams


class TestPieceHelpers:
    def test_valid_piece(self):
        assert valid_piece((3, 1, 17))
        assert valid_piece((3, 0, None))
        assert not valid_piece((3, 1))
        assert not valid_piece("x")
        assert not valid_piece((True, 1, 2))

    def test_piece_key_orders_by_level_then_root(self):
        assert piece_key((9, 1, 5)) < piece_key((2, 2, 1))
        assert piece_key((2, 1, 5)) < piece_key((9, 1, 1))


class TestRotation:
    def test_no_alarms(self, running):
        _g, _m, network, _s = running
        assert not network.alarms()

    def test_every_node_sees_its_levels_flagged(self, running):
        g, marker, _network, streams = running
        for v in g.nodes():
            levels_seen = {pc[1] for _p, pc, flag in streams[v] if flag}
            jmask = marker.labels[v][R.REG_JMASK]
            needed = set(sorted_levels(jmask))
            assert needed <= levels_seen, (v, needed, levels_seen)

    def test_streams_cycle_in_lex_order(self, running):
        """Within one rotation the (level, root) keys increase."""
        _g, _m, _network, streams = running
        for v, stream in streams.items():
            for prefix in ("tt_", "bt_"):
                keys = [piece_key(pc) for p, pc, _f in stream if p == prefix]
                if len(keys) < 3:
                    continue
                # drop the (possibly partial) first rotation
                boundaries = [i for i in range(1, len(keys))
                              if keys[i] <= keys[i - 1]]
                if len(boundaries) < 2:
                    continue
                # every full rotation between boundaries is increasing
                for b_start, b_end in zip(boundaries, boundaries[1:]):
                    rotation = keys[b_start:b_end]
                    assert rotation == sorted(rotation), \
                        f"non-monotone rotation at node {v}"

    def test_rotation_time_within_budget(self, running):
        """Theorem 7.1: each node sees a full rotation within O(log n)
        synchronous rounds (we ran 600 rounds; every node must have seen
        several rotations of every train with pieces)."""
        g, marker, _network, streams = running
        budgets = compute_budgets(g.n, synchronous=True)
        for v in g.nodes():
            for prefix, count_reg in (("tt_", R.REG_TOP_COUNT),
                                      ("bt_", R.REG_BOT_COUNT)):
                expect = marker.labels[v][count_reg]
                if expect == 0:
                    continue
                total = sum(1 for p, _pc, _f in streams[v] if p == prefix)
                assert total >= 3 * expect, \
                    f"node {v} saw too few {prefix} pieces in 600 rounds"


class TestBudgets:
    def test_budget_monotone_in_n(self):
        b1 = compute_budgets(16, True)
        b2 = compute_budgets(256, True)
        assert b2.cycle > b1.cycle
        assert b2.ask_alarm > b1.ask_alarm

    def test_async_cycle_superlinear_in_log(self):
        bs = compute_budgets(64, True)
        ba = compute_budgets(64, False)
        assert ba.cycle > bs.cycle

    def test_degree_scales_async_ask(self):
        b1 = compute_budgets(64, False, degree=2)
        b2 = compute_budgets(64, False, degree=8)
        assert b2.ask_alarm == 4 * b1.ask_alarm


def test_single_node_network_quiet():
    g = path_graph(1)
    marker = run_marker(g)
    network = make_network(g, marker)
    protocol = MstVerifierProtocol(synchronous=True)
    SynchronousScheduler(network, protocol).run(100)
    assert not network.alarms()


@pytest.mark.parametrize("storage", ["dict", "columnar"])
def test_incomparable_last_is_no_boundary(storage):
    """A ``last`` register holding ``(level, "x")`` cannot be compared
    with a rotation key of that level (an int root against a str).  The
    accounting treats it as "no boundary", like a ``last`` that is no
    tuple: the step does not raise, and ``last`` is rewritten to the
    accounted piece's key.  A part leaf is made to adopt a piece of
    ``level`` on the next round (its parent's slot one sequence ahead)."""
    g = random_connected_graph(20, 32, seed=21)
    network = make_network(g, run_marker(g))
    protocol = MstVerifierProtocol(synchronous=True)
    sched = SynchronousScheduler(network, protocol, storage=storage,
                                 fast_path=storage != "dict")
    sched.run(80)
    regs = network.registers
    parent = {v: regs[v][R.REG_PARENT_ID] for v in g.nodes()
              if regs[v][R.REG_PARENT_ID] in g.neighbors(v)
              and regs[regs[v][R.REG_PARENT_ID]][R.REG_TOP_ROOT]
              == regs[v][R.REG_TOP_ROOT]}
    leaves = [v for v in sorted(parent) if v not in parent.values()]
    assert leaves
    planted = {}
    for v in leaves:
        buf = regs[v]["tt_bbuf"]
        if not (isinstance(buf, tuple) and valid_piece(buf[0])):
            continue
        piece = buf[0]
        p = parent[v]
        regs[p]["tt_bbuf"] = (piece, True)
        regs[p]["tt_bseq"] = ((regs[v]["tt_bseq"] or 0) + 1) % SEQ_MOD
        regs[v]["tt_last"] = (piece[1], "x")
        planted[v] = piece
    assert planted
    sched.run(1)
    for v, piece in planted.items():
        assert regs[v]["tt_last"] == piece_key(piece), v
