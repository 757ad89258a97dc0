"""Differential test: the fast-path synchronous scheduler is bit-for-bit
equivalent to the naive lock-step loop, under both storage backends.

The fast path (dirty-set snapshot + quiescence skip, see
``repro.sim.schedulers``) must produce *identical register traces and
round counts* on every protocol in the repo — whether node state lives
in dicts or in the columnar store (``storage``).  We
drive the full MST verifier (never quiescent: the trains patrol
forever) across the full fast_path x storage grid, the Boruvka
construction protocol (quiescent once every node is done — exercises the
skip and the fast-forward; schema-less, so it also pins the dict path),
the other schema-less protocols (Wave&Echo, the TTL wave, the data link
and the reset wave), and the 1-round PLS verifier (quiescent
immediately), through settle/inject/detect phases.
"""

import pytest

from repro.baselines.pls_sqlog import SqLogPlsProtocol, sqlog_labels
from repro.graphs.generators import path_graph, random_connected_graph
from repro.graphs.mst_reference import kruskal_mst
from repro.graphs.spanning import RootedTree
from repro.mst.boruvka_protocol import BoruvkaProtocol
from repro.selfstab import REG_RESET_EPOCH, ResetWaveProtocol
from repro.sim import FaultInjector, Network, SynchronousScheduler
from repro.sim.datalink import DataLinkProtocol, LinkEndpoints
from repro.sim.waves import TimeToLiveWave, WaveEchoProtocol, sum_command
from repro.verification import make_network
from repro.verification.verifier import MstVerifierProtocol


def run_traced(network, protocol, rounds, fast, storage="columnar"):
    """Run and record the full register state after every executed round."""
    sched = SynchronousScheduler(network, protocol, fast_path=fast,
                                 storage=storage)
    trace = []

    def record(net):
        trace.append({v: dict(r) for v, r in net.registers.items()})
        return False

    executed = sched.run(rounds, stop_when=record)
    return sched, trace, executed


def assert_equivalent(naive_trace, fast_trace):
    """Fast trace must equal the naive one; if the fast path
    fast-forwarded a quiescent tail, the missing entries must all equal
    the last recorded (fixed-point) state."""
    assert len(fast_trace) <= len(naive_trace)
    for i, (a, b) in enumerate(zip(naive_trace, fast_trace)):
        assert a == b, f"trace diverges at round {i}"
    if len(fast_trace) < len(naive_trace):
        fixed_point = fast_trace[-1]
        for i in range(len(fast_trace), len(naive_trace)):
            assert naive_trace[i] == fixed_point, \
                f"naive state changed at round {i} after fast-forward"


class TestVerifierEquivalence:
    """The verifier's registers churn every round (patrolling trains):
    the dirty-set snapshot must still match the full copy exactly."""

    def test_completeness_run(self):
        """fast_path x storage: all four register traces are identical."""
        g = random_connected_graph(24, 40, seed=11)
        traces = {}
        for fast in (False, True):
            for storage in ("dict", "columnar"):
                net = make_network(g)
                proto = MstVerifierProtocol(synchronous=True)
                _, trace, executed = run_traced(net, proto, 80, fast,
                                                storage)
                traces[(fast, storage)] = (trace, executed)
        ref = traces[(False, "dict")]
        for combo, got in traces.items():
            assert got[1] == ref[1], combo
            assert len(got[0]) == len(ref[0]), combo
            assert_equivalent(ref[0], got[0])

    def test_settle_inject_detect_run(self):
        """Fault injection between run() calls: the fast path re-snapshots
        and must detect in exactly the same round with the same alarms."""
        g = random_connected_graph(20, 34, seed=12)
        outcomes = {}
        for fast in (False, True):
            for storage in ("dict", "columnar"):
                net = make_network(g)
                proto = MstVerifierProtocol(synchronous=True)
                sched = SynchronousScheduler(net, proto, fast_path=fast,
                                             storage=storage)
                sched.run(60)
                inj = FaultInjector(net, seed=5)
                inj.corrupt_random_nodes(2, fraction=0.5)
                trace = []

                def record(n, trace=trace):
                    trace.append({v: dict(r)
                                  for v, r in n.registers.items()})
                    return bool(n.alarms())

                detect_rounds = sched.run(3000, stop_when=record)
                outcomes[(fast, storage)] = (detect_rounds, net.alarms(),
                                             trace, sched.rounds)
        ref = outcomes[(False, "dict")]
        for combo, got in outcomes.items():
            assert got[0] == ref[0], combo
            assert got[1] == ref[1], combo
            assert got[3] == ref[3], combo
            assert_equivalent(ref[2], got[2])


class TestBoruvkaEquivalence:
    """A SYNC_MST-style construction run (the scheduler-driven MST
    protocol): phase clocks keep every node live, so this exercises the
    dirty-set snapshot under full churn on a non-verifier protocol."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_construction_run(self, seed):
        g = random_connected_graph(18, 30, seed=seed)
        horizon = g.n + 1
        results = {}
        for fast in (False, True):
            net = Network(g)
            proto = BoruvkaProtocol(horizon)
            sched, trace, executed = run_traced(
                net, proto, 2 * horizon * (g.n.bit_length() + 2), fast)
            results[fast] = (trace, executed, sched.rounds,
                            {v: dict(r) for v, r in net.registers.items()})
        assert results[False][1] == results[True][1]
        assert results[False][2] == results[True][2]
        assert results[False][3] == results[True][3]
        assert_equivalent(results[False][0], results[True][0])


def _wave_echo():
    g = random_connected_graph(20, 30, seed=3)
    tree = RootedTree.from_edges(g, kruskal_mst(g), g.nodes()[0])
    net = Network(g)
    net.install({v: {"pid": tree.parent[v]} for v in g.nodes()})
    values = {v: 3 * v + 1 for v in g.nodes()}
    return net, WaveEchoProtocol(sum_command(values)), None


def _ttl_wave():
    g = random_connected_graph(20, 30, seed=4)
    tree = RootedTree.from_edges(g, kruskal_mst(g), g.nodes()[0])
    net = Network(g)
    net.install({v: {"pid": tree.parent[v]} for v in g.nodes()})
    return net, TimeToLiveWave(3), None


def _data_link():
    g = path_graph(6, seed=5)
    net = Network(g)
    inbox = []
    proto = DataLinkProtocol(LinkEndpoints(2, 3), list("abcde"), inbox)
    return net, proto, inbox


def _reset_wave():
    g = random_connected_graph(16, 24, seed=6)
    net = Network(g)
    net.install({v: {"junk": v, "_ghost": 1} for v in g.nodes()})
    net.registers[0] = {REG_RESET_EPOCH: 5, "_ghost": 1}
    return net, ResetWaveProtocol(), None


class TestSchemaLessEquivalence:
    """The other protocols that declare no register schema run on dict
    storage, where the round loop is their only fast path: wave fronts
    (Wave&Echo, the TTL wave, the reset flood) and a two-node data link
    write a few nodes per round, then fall quiescent."""

    @pytest.mark.parametrize("make", [_wave_echo, _ttl_wave, _data_link,
                                      _reset_wave])
    def test_fast_matches_naive(self, make):
        results = {}
        for fast in (False, True):
            net, proto, inbox = make()
            sched, trace, executed = run_traced(net, proto, 60, fast,
                                                storage="dict")
            results[fast] = (trace, executed, sched.rounds, inbox,
                            {v: dict(r) for v, r in net.registers.items()})
        assert results[False][1:] == results[True][1:]
        assert_equivalent(results[False][0], results[True][0])
        # the fast path fast-forwarded a quiescent tail
        assert len(results[True][0]) < len(results[False][0])


class TestQuiescentVerifierEquivalence:
    """The 1-round PLS verifier accepts without writing: the whole
    network is quiescent after the first round."""

    def test_accepting_run_fast_forwards(self):
        g = random_connected_graph(40, 70, seed=13)
        labels = sqlog_labels(g)
        finals = {}
        for fast in (False, True):
            net = Network(g)
            net.install(labels)
            sched = SynchronousScheduler(net, SqLogPlsProtocol(),
                                         fast_path=fast)
            executed = sched.run(500)
            finals[fast] = (executed, sched.rounds, net.alarms(),
                            {v: dict(r) for v, r in net.registers.items()})
        assert finals[False] == finals[True]
        assert not finals[True][2]

    def test_detection_after_quiescence(self):
        """A fault injected into a fast-forwarded network must be caught
        on the next run() exactly as under the naive scheduler."""
        g = random_connected_graph(30, 50, seed=14)
        labels = sqlog_labels(g)
        outcomes = {}
        for fast in (False, True):
            net = Network(g)
            net.install(labels)
            sched = SynchronousScheduler(net, SqLogPlsProtocol(),
                                         fast_path=fast)
            sched.run(50)
            inj = FaultInjector(net, seed=9)
            inj.corrupt_random_nodes(1, fraction=0.8)
            from repro.sim import first_alarm
            rounds = sched.run(50, stop_when=first_alarm)
            outcomes[fast] = (rounds, net.alarms(), sched.rounds)
        assert outcomes[False] == outcomes[True]
        assert outcomes[True][1], "sqlog must detect the corruption"
