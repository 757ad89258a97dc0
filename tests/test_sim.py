"""Unit tests for the simulation substrate: registers, network,
schedulers, daemons, and fault injection."""

import pytest

from repro.graphs.generators import path_graph, ring_graph
from repro.sim import (ALARM, AsynchronousScheduler, FaultInjector, Network,
                       PermutationDaemon, Protocol, RandomDaemon,
                       RoundRobinDaemon, SlowNodesDaemon,
                       SynchronousScheduler, bit_size, detection_distance,
                       first_alarm, register_bits)


class TestBitAccounting:
    def test_int_bits(self):
        assert bit_size(0) == 2
        assert bit_size(7) == 4
        assert bit_size(-7) == 4

    def test_none_and_bool(self):
        assert bit_size(None) == 1
        assert bit_size(True) == 1

    def test_string_bits(self):
        assert bit_size("abc") == 24

    def test_tuple_recursion(self):
        assert bit_size((1, 2)) == bit_size(1) + bit_size(2) + 4

    def test_unencodable_raises(self):
        with pytest.raises(TypeError):
            bit_size(object())

    def test_ghost_registers_excluded(self):
        regs = {"x": 7, "_ghost": 123456}
        assert register_bits(regs) == bit_size(7)


class CounterProtocol(Protocol):
    """Every node counts rounds and mirrors its left neighbour's count."""

    def init_node(self, ctx):
        ctx.set("count", 0)
        ctx.set("mirror", 0)

    def step(self, ctx):
        ctx.set("count", ctx.get("count") + 1)
        left = min(ctx.neighbors)
        ctx.set("mirror", ctx.read(left, "count", 0))


class TestSynchronousScheduler:
    def test_rounds_and_snapshot_semantics(self):
        net = Network(ring_graph(5))
        sched = SynchronousScheduler(net, CounterProtocol())
        sched.run(4)
        for v in net.graph.nodes():
            assert net.registers[v]["count"] == 4
            # mirror lags one round behind: it read the snapshot
            assert net.registers[v]["mirror"] == 3

    def test_stop_condition(self):
        net = Network(path_graph(4))

        class AlarmAtThree(Protocol):
            def init_node(self, ctx):
                ctx.set("c", 0)

            def step(self, ctx):
                ctx.set("c", ctx.get("c") + 1)
                if ctx.get("c") == 3 and ctx.node == 0:
                    ctx.alarm("boom")

        sched = SynchronousScheduler(net, AlarmAtThree())
        rounds = sched.run(10, stop_when=first_alarm)
        assert rounds == 3
        assert net.alarms() == {0: "boom"}

    def test_initialize_idempotent(self):
        net = Network(path_graph(3))
        sched = SynchronousScheduler(net, CounterProtocol())
        sched.initialize()
        sched.initialize()
        sched.run(1)
        assert net.registers[0]["count"] == 1


class TestAsynchronousScheduler:
    @pytest.mark.parametrize("daemon", [
        RoundRobinDaemon(), RandomDaemon(seed=1), PermutationDaemon(seed=1)])
    def test_rounds_mean_full_coverage(self, daemon):
        net = Network(ring_graph(6))
        sched = AsynchronousScheduler(net, CounterProtocol(), daemon)
        rounds = sched.run(3)
        assert rounds == 3
        for v in net.graph.nodes():
            assert net.registers[v]["count"] >= 3

    def test_slow_daemon_still_fair(self):
        net = Network(ring_graph(6))
        daemon = SlowNodesDaemon([0, 1], slowdown=3, seed=2)
        sched = AsynchronousScheduler(net, CounterProtocol(), daemon)
        rounds = sched.run(2)
        assert rounds == 2
        # fast nodes stepped roughly 3x more often
        assert net.registers[3]["count"] > net.registers[0]["count"]

    def test_activation_counter(self):
        net = Network(path_graph(4))
        sched = AsynchronousScheduler(net, CounterProtocol(),
                                      RoundRobinDaemon())
        sched.run(2)
        assert sched.activations >= 8


class TestNetwork:
    def test_install_and_alarm(self):
        net = Network(path_graph(3))
        net.install({0: {"x": 1}, 2: {ALARM: "bad"}})
        assert net.registers[0]["x"] == 1
        assert net.alarms() == {2: "bad"}

    def test_memory_accounting(self):
        net = Network(path_graph(2))
        net.install({0: {"x": 255}, 1: {"x": 1, "_g": 10 ** 9}})
        assert net.max_memory_bits() == bit_size(255)
        assert net.total_memory_bits() == bit_size(255) + bit_size(1)

    def test_clear(self):
        net = Network(path_graph(2))
        net.install({0: {"x": 1}})
        net.clear()
        assert net.registers[0] == {}


class TestFaults:
    def test_corrupt_marks_nodes(self):
        net = Network(path_graph(5))
        net.install({v: {"a": 10, "b": "hello"} for v in net.graph.nodes()})
        inj = FaultInjector(net, seed=1)
        hit = inj.corrupt_random_nodes(2)
        assert len(hit) == 2
        assert inj.faulty_nodes == hit
        for v in hit:
            assert net.registers[v].get("_faulty")

    def test_corrupt_changes_value(self):
        net = Network(path_graph(2))
        net.install({0: {"a": 10}})
        inj = FaultInjector(net, seed=3)
        inj.corrupt_register(0, "a")
        assert net.registers[0]["a"] != 10

    def test_alarm_register_protected(self):
        net = Network(path_graph(2))
        net.install({0: {"a": 1, "alarm": None}})
        inj = FaultInjector(net, seed=0)
        names = inj.corrupt_node(0, fraction=1.0)
        assert "alarm" not in names

    def test_detection_distance(self):
        net = Network(path_graph(6))
        inj = FaultInjector(net, seed=0)
        net.install({v: {"x": 1} for v in net.graph.nodes()})
        inj.corrupt_node(0)
        net.registers[3][ALARM] = "seen"
        assert detection_distance(net, inj.faulty_nodes) == 3

    def test_detection_distance_none_without_alarm(self):
        net = Network(path_graph(3))
        inj = FaultInjector(net, seed=0)
        net.install({0: {"x": 1}})
        inj.corrupt_node(0)
        assert detection_distance(net, inj.faulty_nodes) is None

    def test_perturbing_missing_register_refuses(self):
        """Regression: perturbation mode must not invent registers on
        nodes that never had them (it used to materialize the register
        with value 0, silently changing the memory accounting)."""
        net = Network(path_graph(2))
        net.install({0: {"a": 1}})
        inj = FaultInjector(net, seed=0)
        with pytest.raises(KeyError):
            inj.corrupt_register(0, "ghost_of_a_register")
        assert "ghost_of_a_register" not in net.registers[0]
        assert inj.faulty_nodes == []
        # an explicit value still models an adversary planting new state
        inj.corrupt_register(0, "planted", value=42)
        assert net.registers[0]["planted"] == 42


class TestAsyncStopGranularity:
    def test_stop_checked_inside_multi_node_batches(self):
        """Regression: a daemon handing out whole-network batches used to
        run the entire batch past the activation that satisfied
        ``stop_when``."""
        from repro.sim import Daemon

        class WholeNetworkDaemon(Daemon):
            def next_batch(self, nodes):
                return list(nodes)

        class AlarmOnFirstStep(Protocol):
            def step(self, ctx):
                ctx.set("stepped", True)
                ctx.alarm("first")

        net = Network(path_graph(6))
        sched = AsynchronousScheduler(net, AlarmOnFirstStep(),
                                      WholeNetworkDaemon())
        sched.run(3, stop_when=first_alarm)
        assert sched.activations == 1
        stepped = [v for v in net.graph.nodes()
                   if net.registers[v].get("stepped")]
        assert stepped == [net.graph.nodes()[0]]


class TestFastPathScheduler:
    """Unit-level checks of the dirty-set snapshot and quiescence skip
    (the bit-for-bit contract lives in test_scheduler_equivalence.py)."""

    def test_counter_protocol_matches_naive(self):
        nets = {}
        for fast in (False, True):
            net = Network(ring_graph(5))
            SynchronousScheduler(net, CounterProtocol(),
                                 fast_path=fast).run(4)
            nets[fast] = net.registers
        assert nets[False] == nets[True]

    def test_quiescent_protocol_fast_forwards(self):
        class WriteOnce(Protocol):
            def init_node(self, ctx):
                ctx.set("x", 0)

            def step(self, ctx):
                if ctx.get("x") == 0:
                    ctx.set("x", ctx.node + 1)

        net = Network(path_graph(4))
        sched = SynchronousScheduler(net, WriteOnce(), fast_path=True)
        executed = sched.run(1000)
        assert executed == 1000
        assert sched.rounds == 1000
        for v in net.graph.nodes():
            assert net.registers[v]["x"] == v + 1

    def test_custom_on_round_end_disables_fast_path(self):
        class HookedCounter(CounterProtocol):
            def on_round_end(self, network, round_index):
                network.registers[0]["hooked"] = round_index

        net = Network(ring_graph(4))
        sched = SynchronousScheduler(net, HookedCounter(), fast_path=True)
        assert not sched.fast_path
        sched.run(3)
        assert net.registers[0]["hooked"] == 3

    def test_external_writes_between_runs_are_seen(self):
        """After quiescence, registers rewritten from outside the context
        API (fault injection) must be re-read on the next run()."""
        class Mirror(Protocol):
            def init_node(self, ctx):
                ctx.set("seen", None)

            def step(self, ctx):
                left = min(ctx.neighbors)
                val = ctx.read(left, "mark", 0)
                if ctx.get("seen") != val:
                    ctx.set("seen", val)

        net = Network(ring_graph(4))
        sched = SynchronousScheduler(net, Mirror(), fast_path=True)
        sched.run(50)   # quiesces with seen == 0 everywhere
        net.registers[0]["mark"] = 7
        sched.run(50)
        right_of_0 = max(v for v in net.graph.nodes()
                         if min(net.graph.neighbors(v)) == 0)
        assert net.registers[right_of_0]["seen"] == 7

    def test_dirty_set_records_only_real_changes(self):
        from repro.sim.network import NodeContext

        net = Network(path_graph(2))
        net.install({0: {"a": 1}, 1: {}})
        snapshot = {v: dict(r) for v, r in net.registers.items()}
        ctx = NodeContext(net, 0, snapshot)
        ctx.set("a", 1)          # no-op write
        assert not ctx.wrote
        ctx.set("a", 2)
        assert ctx.wrote
        ctx.wrote = False        # what a scheduler does before a step
        ctx.unset("missing")     # removing nothing is not a change
        assert not ctx.wrote
        ctx.unset("a")
        assert ctx.wrote
