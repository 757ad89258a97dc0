"""Sustained-churn robustness tests (``repro.sim.churn`` + the engine's
``churn`` fault axis).

Three layers of guarantees:

* **script layer** — :class:`ChurnScript` streams are deterministic in
  (graph, seed, params) and honour their structural invariants: at most
  one node down, crash victims never cut vertices, every crash paired
  with an immediate rejoin, reweights confined to non-MST edges with
  fresh strictly-larger weights (the unique MST survives);
* **driver layer** — :func:`run_with_churn` is bit-for-bit identical
  across dict/columnar/numpy storage, under synchronous and
  asynchronous daemons, the daemons re-cover exactly the survivors
  after ``topology_changed()``, and a reweight-only stream never raises
  an alarm (false-alarm immunity: the MST did not change);
* **engine layer** — the ``churn`` fault axis produces per-event
  re-stabilization metrics on the scenario record, deterministically
  and storage-independently, at the acceptance scale (500 nodes,
  crash + rejoin + reweight, all four backends).
"""

import pytest

from repro.engine import ScenarioSpec, axis, run_scenario, scenario_record
from repro.graphs.generators import random_connected_graph
from repro.sim import (STORAGE_KINDS, AsynchronousScheduler, ChurnEvent,
                       ChurnScript, ConflictFreeDaemon,
                       LocalityBatchDaemon, PermutationDaemon,
                       SynchronousScheduler, TiledConflictFreeDaemon,
                       run_with_churn)
from repro.sim.churn import _articulation_points, _mst_edges
from repro.trains.comparison import rotation_settled
from repro.verification import make_network
from repro.verification.hybrid import HybridVerifierProtocol
from repro.verification.verifier import MstVerifierProtocol

STORAGES = STORAGE_KINDS


def _protocol(kind, synchronous):
    if kind == "verifier":
        return MstVerifierProtocol(synchronous=synchronous)
    if kind == "hybrid":
        return HybridVerifierProtocol(synchronous=synchronous)
    from repro.baselines.pls_sqlog import SqLogPlsProtocol
    return SqLogPlsProtocol()


def _daemon(kind, g, seed):
    if kind == "locality":
        return LocalityBatchDaemon(g, seed=seed)
    if kind == "independent":
        return ConflictFreeDaemon(g, seed=seed)
    if kind == "tiled":
        return TiledConflictFreeDaemon(g, seed=seed)
    return PermutationDaemon(seed=seed)


# ---------------------------------------------------------------------------
# script layer
# ---------------------------------------------------------------------------

def test_script_deterministic_in_graph_and_seed(campaign_seed):
    g = random_connected_graph(14, 24, seed=campaign_seed % 991)
    a = ChurnScript.generate(g, seed=campaign_seed, events=8)
    b = ChurnScript.generate(g, seed=campaign_seed, events=8)
    assert a.key() == b.key()
    assert list(a) == list(b)
    c = ChurnScript.generate(g, seed=campaign_seed + 1, events=8)
    assert a.key() != c.key()
    # generation never mutates the caller's graph
    assert g.topology_key() == random_connected_graph(
        14, 24, seed=campaign_seed % 991).topology_key()


def test_script_invariants(campaign_seed):
    g = random_connected_graph(16, 26, seed=campaign_seed % 977)
    tree = _mst_edges(g)
    max_w = max(w for _, _, w in g.edges())
    script = ChurnScript.generate(g, seed=campaign_seed, events=12)
    work = g.copy()
    down = None
    last_w = max_w
    for i, ev in enumerate(script):
        assert ev.mark == i
        if ev.kind == "crash":
            assert down is None, "two nodes down at once"
            assert ev.node not in _articulation_points(work)
            assert work.n - 1 >= 4
            stub = work.remove_node(ev.node)
            down = (ev.node, stub)
        elif ev.kind == "rejoin":
            assert down is not None and down[0] == ev.node
            # a crash is always healed by the very next event
            assert script.events[i - 1].kind == "crash"
            work.restore_node(ev.node, down[1])
            down = None
        else:
            assert ev.kind == "reweight"
            assert ev.edge not in tree, "reweighted an MST edge"
            assert ev.weight > last_w, "weights must stay distinct"
            last_w = ev.weight
            work.set_weight(*ev.edge, ev.weight)
    assert down is None, "script left a node down"
    # the churned graph's MST is the original one
    assert _mst_edges(work) == tree


def test_script_respects_kind_gates():
    g = random_connected_graph(12, 20, seed=3)
    crash_only = ChurnScript.generate(g, seed=9, events=6, reweight=False)
    assert {e.kind for e in crash_only} <= {"crash", "rejoin"}
    rw_only = ChurnScript.generate(g, seed=9, events=6, crash=False)
    assert {e.kind for e in rw_only} == {"reweight"}
    # a tree has no non-MST edges: nothing to reweight
    tree_g = random_connected_graph(8, 0, seed=5)
    assert not ChurnScript.generate(tree_g, seed=9, events=4,
                                    crash=False).events


def test_script_window_floor_blocks_tiny_graphs():
    g = random_connected_graph(5, 6, seed=2)
    script = ChurnScript.generate(g, seed=4, events=6, reweight=False)
    work = g.copy()
    for ev in script:
        if ev.kind == "crash":
            assert work.n >= 5
            work.remove_node(ev.node)
        elif ev.kind == "rejoin":
            work.restore_node(ev.node, g.copy().remove_node(ev.node))


# ---------------------------------------------------------------------------
# driver layer: storage & daemon agreement
# ---------------------------------------------------------------------------

def _settle_fully(sched, net, budget=800):
    """Run until the rotation settle predicate holds (honest labels
    never alarm, so the predicate is the only stop condition)."""
    sched.run(budget, stop_when=rotation_settled)
    assert rotation_settled(net) and not net.alarms()


def _drive(graph, storage, schedule, proto_kind, seed, settle=24,
           window=40, events=6, n_rounds=None):
    g = graph.copy()           # the driver mutates the graph in place
    net = make_network(g)
    proto = _protocol(proto_kind, schedule == "sync")
    if schedule == "sync":
        sched = SynchronousScheduler(net, proto, storage=storage)
    else:
        sched = AsynchronousScheduler(net, proto,
                                      daemon=_daemon(schedule, g, 7),
                                      storage=storage)
    sched.run(settle)
    script = ChurnScript.generate(g, seed=seed, events=events)
    settled = rotation_settled if proto_kind != "sqlog" else None
    report = run_with_churn(net, sched, proto, script, window=window,
                            settled=settled)
    final = {v: dict(net.registers[v]) for v in sorted(net.graph.nodes())}
    return report.as_tuple(), final, dict(net.alarms())


@pytest.mark.parametrize("schedule", ["sync", "permutation",
                                      "independent", "tiled"])
def test_churn_bitwise_equal_across_storages(schedule, campaign_seed):
    """One churn script, four backends: identical per-event metrics and
    identical final registers — the dynamic-topology machinery (port
    tombstones, columnar freelist rows, daemon cache invalidation)
    never leaks into observable state."""
    g = random_connected_graph(14, 24, seed=campaign_seed % 1009)
    ref = _drive(g, "dict", schedule, "verifier", campaign_seed)
    for storage in STORAGES:
        got = _drive(g, storage, schedule, "verifier", campaign_seed)
        assert got == ref, storage


@pytest.mark.parametrize("proto_kind", ["hybrid", "sqlog"])
def test_churn_storage_agreement_other_protocols(proto_kind,
                                                 campaign_seed):
    g = random_connected_graph(12, 20, seed=campaign_seed % 997)
    ref = _drive(g, "dict", "sync", proto_kind, campaign_seed)
    for storage in STORAGES:
        assert _drive(g, storage, "sync", proto_kind,
                      campaign_seed) == ref, storage


def test_reweight_only_stream_is_alarm_free(campaign_seed):
    """Bumping non-MST edges preserves the unique MST, so a sound
    verifier must stay silent: every window benign, availability 1."""
    g = random_connected_graph(12, 22, seed=campaign_seed % 1013)
    net = make_network(g)
    proto = _protocol("verifier", True)
    sched = SynchronousScheduler(net, proto, storage="columnar")
    _settle_fully(sched, net)
    script = ChurnScript.generate(g, seed=campaign_seed, events=5,
                                  crash=False)
    assert script.events, "expected a non-tree edge to reweight"
    report = run_with_churn(net, sched, proto, script, window=20,
                            settled=rotation_settled)
    assert report.redetect == (None,) * len(script)
    assert report.alarms == (0,) * len(script)
    assert report.quiesce == (0,) * len(script)
    assert report.availability == 1.0


def test_crash_rejoin_redetects_and_recovers(campaign_seed):
    """A crash breaks the settled proof state at the survivors' ports;
    the verifier must alarm within the window, and after the rejoin
    (wiped working registers) the network must re-quiesce."""
    g = random_connected_graph(12, 20, seed=campaign_seed % 983)
    net = make_network(g)
    proto = _protocol("verifier", True)
    sched = SynchronousScheduler(net, proto, storage="columnar")
    _settle_fully(sched, net)
    script = ChurnScript.generate(g, seed=campaign_seed, events=2,
                                  reweight=False)
    kinds = [e.kind for e in script]
    assert kinds[:2] == ["crash", "rejoin"]
    report = run_with_churn(net, sched, proto, script, window=700,
                            settled=rotation_settled)
    assert report.redetect[0] is not None, "crash went undetected"
    assert report.alarms[0] >= 1
    # after the rejoin the protocol re-settles inside the window
    assert report.quiesce[-1] is not None, "never re-quiesced"
    assert not net.alarms()
    assert 0.0 <= report.availability <= 1.0


@pytest.mark.parametrize("daemon_kind", ["permutation", "locality",
                                         "independent", "tiled"])
def test_daemons_recover_survivors_after_topology_change(daemon_kind):
    """After a crash + ``topology_changed()`` the daemon's rounds must
    keep completing — i.e. its coverage target is exactly the surviving
    nodes — and every survivor keeps making progress (rotations
    advance).  A daemon still waiting on the dead node would never
    finish a round; one still activating it would KeyError."""
    activated = set()

    class Recorder(MstVerifierProtocol):
        def step(self, ctx):
            activated.add(ctx.node)
            return super().step(ctx)

    g = random_connected_graph(10, 16, seed=11)
    net = make_network(g)
    proto = Recorder(synchronous=False)
    # dict storage + bulk off: every activation goes through the scalar
    # ``step`` above, so the daemon's coverage is directly observable
    sched = AsynchronousScheduler(net, proto,
                                  daemon=_daemon(daemon_kind, g, 5),
                                  storage="dict", bulk=False)
    sched.run(6)
    cuts = _articulation_points(net.graph)
    victim = next(v for v in net.graph.nodes() if v not in cuts)
    stub = net.remove_node(victim)
    sched.topology_changed()
    activated.clear()
    assert sched.run(3) == 3, "round never completed without the victim"
    survivors = set(net.graph.nodes())
    assert victim not in survivors
    assert activated == survivors, \
        "daemon coverage is not exactly the survivors"
    # and the rejoin is symmetric: the victim participates again
    net.add_node(victim, stub)
    proto.init_node(net.local_context(victim))
    sched.topology_changed()
    activated.clear()
    assert sched.run(3) == 3
    assert activated == set(net.graph.nodes())
    assert victim in activated


# ---------------------------------------------------------------------------
# engine layer
# ---------------------------------------------------------------------------

def _strip(rec):
    return {k: v for k, v in rec.items()
            if k not in ("spec", "schedule", "key", "wall_time",
                         "activations", "rows_fused",
                         "rows_residual", "rows_scalar")}


def test_engine_churn_records_are_storage_independent(campaign_seed):
    base = dict(topology=axis("random", n=16, extra=10),
                fault=axis("churn", events=5),
                protocol=axis("verifier"), seed=campaign_seed)
    recs = []
    for storage in STORAGES:
        spec = ScenarioSpec(schedule=axis("sync", storage=storage),
                            **base)
        result = run_scenario(spec)
        assert result.status == "ok"
        assert result.violation is None
        rec = scenario_record(result)
        assert rec["churn_events"] == len(rec["rounds_to_redetect"]) \
            == len(rec["rounds_to_quiesce"]) == len(rec["alarms_per_event"])
        assert rec["worst_redetect"] == max(
            (r for r in rec["rounds_to_redetect"] if r is not None),
            default=None)
        assert rec["unavailability"] is not None
        assert 0.0 <= rec["availability"] <= 1.0
        recs.append(_strip(rec))
    assert all(r == recs[0] for r in recs[1:])


def test_engine_churn_deterministic_and_seed_sensitive(campaign_seed):
    spec = ScenarioSpec(topology=axis("random", n=14, extra=8),
                        fault=axis("churn", events=4, window=60),
                        schedule=axis("sync", storage="numpy"),
                        protocol=axis("hybrid"), seed=campaign_seed)
    a = _strip(scenario_record(run_scenario(spec)))
    b = _strip(scenario_record(run_scenario(spec)))
    assert a == b
    other = _strip(scenario_record(run_scenario(
        ScenarioSpec(topology=spec.topology, fault=spec.fault,
                     schedule=spec.schedule, protocol=spec.protocol,
                     seed=campaign_seed + 1))))
    assert a != other


def test_engine_churn_rejects_unknown_params():
    from repro.engine import ScenarioError
    spec = ScenarioSpec(topology=axis("random", n=10, extra=6),
                        fault=axis("churn", typo=1),
                        schedule=axis("sync"),
                        protocol=axis("verifier"), seed=1)
    with pytest.raises(ScenarioError, match="typo"):
        run_scenario(spec)


def test_acceptance_500_node_churn_all_backends(campaign_seed):
    """The issue's acceptance cell: a 500-node scenario under a
    crash + rejoin + reweight stream runs identically on all four
    storage backends."""
    g = random_connected_graph(500, 750, seed=campaign_seed % 1021)
    script = ChurnScript.generate(g, seed=campaign_seed, events=6)
    kinds = {e.kind for e in script}
    assert kinds == {"crash", "rejoin", "reweight"}, kinds
    ref = None
    for storage in STORAGES:
        work = g.copy()
        net = make_network(work)
        proto = _protocol("verifier", True)
        sched = SynchronousScheduler(net, proto, storage=storage)
        sched.run(60)
        report = run_with_churn(net, sched, proto, script, window=80,
                                settled=rotation_settled)
        got = (report.as_tuple(),
               {v: dict(net.registers[v])
                for v in sorted(net.graph.nodes())})
        if ref is None:
            ref = got
        else:
            assert got == ref, storage


def test_churn_event_identity():
    a = ChurnEvent(0, "crash", node=3)
    b = ChurnEvent(0, "crash", node=3)
    c = ChurnEvent(1, "crash", node=3)
    assert a == b and hash(a) == hash(b) and a != c
    assert "reweight" in repr(ChurnEvent(2, "reweight", edge=(1, 2),
                                         weight=9))
