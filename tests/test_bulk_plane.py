"""Bulk-activation plane differential tests (``repro.sim.bulk``).

The plane's contract: routing batches through ``Protocol.bulk_step``
(scheduler default) is *bit-for-bit* equivalent to the scalar per-node
loops (``bulk=False``) — same register traces, alarms, rounds,
activations, skip accounting, and memory bits — on every storage
backend (dict / columnar / numpy), under every scheduler kind (sync /
async daemons / the locality-batching daemon), for every protocol that
declares a bulk sweep, and in the presence of adversarial junk planted
into nat/tuple columns mid-sweep (the fused column ops must degrade
exactly like the scalar context writes, and the dirty/skip machinery
must stay sound across batched writes).
"""

from unittest import mock

import pytest

from repro.engine import TOPOLOGIES, axis, derive_seed, run_scenario, \
    ScenarioSpec
from repro.graphs.generators import (grid_graph, random_connected_graph,
                                     star_graph)
from repro.sim import (STORAGE_KINDS, AsynchronousScheduler,
                       ConflictFreeDaemon, FaultInjector,
                       LocalityBatchDaemon, Network, PermutationDaemon,
                       SynchronousScheduler, TiledConflictFreeDaemon,
                       first_alarm)
from repro.sim.columnar import ColumnStore
from repro.sim.registers import CompiledSchema
from repro.verification import make_network
from repro.verification.hybrid import HybridVerifierProtocol
from repro.verification.verifier import MstVerifierProtocol, _VectorSweep

STORAGES = STORAGE_KINDS


def _protocol(kind, synchronous):
    if kind == "verifier":
        return MstVerifierProtocol(synchronous=synchronous)
    if kind == "hybrid":
        return HybridVerifierProtocol(synchronous=synchronous)
    from repro.baselines.pls_sqlog import SqLogPlsProtocol
    return SqLogPlsProtocol()


def _run_sync(graph, storage, bulk, seed, proto_kind, fast_path=True):
    net = make_network(graph)
    sched = SynchronousScheduler(net, _protocol(proto_kind, True),
                                 fast_path=fast_path, storage=storage,
                                 bulk=bulk)
    trace = []

    def record(n):
        trace.append({v: dict(r) for v, r in n.registers.items()})
        return bool(n.alarms())

    sched.run(30)
    inj = FaultInjector(net, seed=seed)
    inj.corrupt_random_nodes(2, fraction=0.5)
    detect = sched.run(2500, stop_when=record)
    return (detect, sched.rounds, net.alarms(), trace,
            net.max_memory_bits(), net.total_memory_bits())


@pytest.mark.parametrize("proto_kind", ["verifier", "hybrid", "sqlog"])
def test_sync_bulk_vs_scalar_bitwise_equal(proto_kind, campaign_seed):
    """Full per-round register traces of a settle/inject/detect run
    match between the bulk plane and the scalar loop on every storage
    backend (columnar exercises the fused column sweep; dict the
    generic fallback driver), fast path and naive loop alike."""
    g = random_connected_graph(14, 22, seed=campaign_seed % 1013)
    ref = _run_sync(g, "dict", False, campaign_seed, proto_kind)
    for storage in STORAGES:
        for fast_path in (True, False):
            got = _run_sync(g, storage, True, campaign_seed, proto_kind,
                            fast_path)
            assert got == ref, (storage, fast_path)


def _daemon(kind, g, seed):
    if kind == "locality":
        return LocalityBatchDaemon(g, seed=seed)
    if kind == "independent":
        return ConflictFreeDaemon(g, seed=seed)
    if kind == "tiled":
        return TiledConflictFreeDaemon(g, seed=seed)
    return PermutationDaemon(seed=seed)


@pytest.mark.parametrize("daemon_kind",
                         ["permutation", "locality", "independent",
                          "tiled"])
def test_async_bulk_vs_scalar_equal(daemon_kind, campaign_seed):
    """Asynchronous daemon batches routed through the bulk plane (the
    conflict-free daemons' independent sets via the ``conflict_free``
    license — with *fused* column sweeps on columnar storage; every
    other daemon keeps the scalar loop) match the scalar execution
    exactly — including the dirty-aware skip accounting, which must
    stay sound when a whole batch's writes land through
    ``bulk_step``."""
    g = random_connected_graph(12, 20, seed=campaign_seed % 983)

    def run(storage, bulk, dirty_aware=True):
        daemon = _daemon(daemon_kind, g, 5)
        net = make_network(g)
        proto = MstVerifierProtocol(synchronous=False)
        sched = AsynchronousScheduler(net, proto,
                                      daemon, storage=storage, bulk=bulk,
                                      dirty_aware=dirty_aware)
        sched.run(20)
        inj = FaultInjector(net, seed=campaign_seed)
        inj.corrupt_random_nodes(2, fraction=0.5)
        r = sched.run(2000, stop_when=first_alarm)
        return (r, sched.rounds, sched.activations, sched.steps_skipped,
                net.alarms(),
                {v: dict(regs) for v, regs in net.registers.items()})

    for storage in STORAGES:
        ref = run(storage, bulk=False)
        assert run(storage, bulk=True) == ref, storage
    # and against the naive (non-dirty-aware, scalar dict) ground truth,
    # minus the skip counter naive never increments
    naive = run("dict", bulk=False, dirty_aware=False)
    bulk = run("columnar", bulk=True)
    assert bulk[:3] + bulk[4:] == naive[:3] + naive[4:]


def test_engine_bulk_flag_matrix(campaign_seed):
    """The ``bulk`` schedule parameter is implementation-only: flipping
    it reproduces the identical scenario (seeds, faults, metrics) on
    every backend, through the campaign engine.  The cells cover the
    locality and conflict-free (``independent``) daemons across all
    three protocols — the three-way differential matrix of the
    asynchronous fusion license."""
    cells = [("sync", "verifier"), ("sync", "sqlog"),
             ("locality", "verifier"), ("locality", "hybrid"),
             ("locality", "sqlog"), ("permutation", "hybrid"),
             ("independent", "verifier"), ("independent", "hybrid"),
             ("independent", "sqlog"), ("tiled", "verifier"),
             ("tiled", "hybrid"), ("tiled", "sqlog")]
    for sched, proto in cells:
        seed = derive_seed(campaign_seed, "bulk-flag", sched, proto)
        results = []
        for storage in STORAGES:
            flags = [({"bulk": False}, None), ({"bulk": True}, None)]
            if sched in ("independent", "tiled"):
                # coalescing is equally implementation-only on the
                # conflict-free daemons, and so are the vector floors
                # (lowered so the small segments take the vector tier)
                flags += [({"bulk": True, "coalesce": False}, None),
                          ({"bulk": True}, 2)]
            for extra, floor in flags:
                spec = ScenarioSpec(
                    topology=axis("random", n=12, extra=8),
                    fault=axis("corrupt", count=1, fraction=0.6),
                    schedule=axis(sched, storage=storage, **extra),
                    protocol=axis(proto), seed=seed, max_rounds=20_000)
                if floor is None:
                    r = run_scenario(spec)
                else:
                    with mock.patch.multiple(_VectorSweep,
                                             MIN_BATCH=floor,
                                             TRAFFIC_MIN=floor):
                        r = run_scenario(spec)
                assert r.error is None, (spec.key, r.error)
                results.append((r.detected, r.rounds_run,
                                r.rounds_to_detection, r.alarm_reasons,
                                r.max_memory_bits, r.total_memory_bits,
                                r.activations))
        assert len(set(results)) == 1, (sched, proto, results)


def _plant_junk(net):
    """Adversarial junk straight into declared nat/tuple registers:
    strings and bools in nat columns, huge ints beyond int64, an
    unhashable list in a tuple column, a bool-vs-int shape collision.
    On columnar storage these exercise the boxed-overflow and typed-pool
    paths that the fused batch ops must replicate."""
    nodes = net.graph.nodes()
    regs = net.registers
    regs[nodes[0]]["vstep"] = "not-a-counter"
    regs[nodes[1]]["vstep"] = True
    regs[nodes[1]]["tt_wd"] = 1 << 70
    regs[nodes[2]]["tt_bbuf"] = [1, 2, 3]          # unhashable in a tuple col
    regs[nodes[2]]["cmp_ask"] = (1, True)          # vs interned (1, 1)
    regs[nodes[3]]["tt_out"] = (1, 1)
    regs[nodes[3]]["vstep"] = -7


@pytest.mark.parametrize("storage", STORAGES)
def test_junk_mid_sweep_bulk_equals_scalar(storage, campaign_seed):
    """Fault-injected junk in nat/tuple registers mid-sweep: the fused
    ``inc_nat`` sweep must coerce sentinel-coded and boxed junk exactly
    like the scalar context (restart at 1, drop stale boxed overflow),
    and the run must keep matching the scalar loop bit for bit."""
    g = random_connected_graph(12, 20, seed=campaign_seed % 967)

    def run(bulk):
        net = make_network(g)
        sched = SynchronousScheduler(net, _protocol("verifier", True),
                                     storage=storage, bulk=bulk)
        sched.run(12)
        _plant_junk(net)
        sched.run(40)   # keep sweeping over the junk
        return (sched.rounds, net.alarms(),
                {v: dict(r) for v, r in net.registers.items()},
                net.max_memory_bits(), net.total_memory_bits())

    assert run(True) == run(False)


def test_junk_mid_sweep_vector_path_big_n(campaign_seed):
    """The sync junk differential at a size where the numpy tier's
    whole-batch vector sweep actually engages (n >= the vector batch
    floor): junk planted mid-run must be classified out row by row —
    boxed rows, mismatch rows, alarm candidates all routed to the
    scalar replay — while the clean majority stays on the masked
    ndarray path, bit-for-bit with the scalar loop."""
    g = random_connected_graph(64, 112, seed=campaign_seed % 1009)

    def run(storage, bulk):
        net = make_network(g)
        sched = SynchronousScheduler(net, _protocol("verifier", True),
                                     storage=storage, bulk=bulk)
        sched.run(12)
        _plant_junk(net)
        sched.run(40)
        return (sched.rounds, net.alarms(),
                {v: dict(r) for v, r in net.registers.items()},
                net.max_memory_bits(), net.total_memory_bits())

    ref = run("dict", bulk=False)
    assert run("numpy", bulk=True) == ref
    assert run("columnar", bulk=True) == ref


def test_junk_mid_sweep_async_vector_path(campaign_seed, monkeypatch):
    """The conflict-free async mirror of the big-n vector test: with
    the vector batch floor lowered so the daemon's ~modest independent
    sets engage the masked-ndarray replay, junk planted between runs
    must flow through the per-batch classify/apply split exactly like
    the scalar context writes."""
    monkeypatch.setattr(_VectorSweep, "MIN_BATCH", 4)
    g = random_connected_graph(40, 68, seed=campaign_seed % 929)

    def run(storage, bulk):
        net = make_network(g)
        proto = MstVerifierProtocol(synchronous=False)
        sched = AsynchronousScheduler(net, proto,
                                      ConflictFreeDaemon(g, seed=3),
                                      storage=storage, bulk=bulk)
        sched.run(10)
        _plant_junk(net)
        r = sched.run(25)
        return (r, sched.rounds, sched.activations, sched.steps_skipped,
                net.alarms(),
                {v: dict(regs) for v, regs in net.registers.items()})

    ref = run("dict", bulk=False)
    assert run("numpy", bulk=True) == ref
    assert run("columnar", bulk=True) == ref


def test_conflict_free_batches_are_independent(campaign_seed):
    """License soundness: every batch the ``ConflictFreeDaemon`` issues
    must have pairwise *disjoint closed neighbourhoods* (no two
    activated nodes within distance 2 — the independence radius that
    makes live fused sweeps unobservable), and every sweep must cover
    every node exactly once (fairness), across random, dense-star,
    grid, and Section-9 subdivided topologies."""
    s = campaign_seed % 911
    graphs = [
        random_connected_graph(20, 34, seed=s),
        star_graph(10, seed=s),
        grid_graph(4, 5, seed=s),
        TOPOLOGIES["subdivided"](seed=s, base_n=10, extra=14, tau=2),
    ]
    for g in graphs:
        nodes = g.nodes()
        closed = {v: {v, *g.neighbors(v)} for v in nodes}
        daemon = ConflictFreeDaemon(g, seed=campaign_seed % 509)
        for _sweep in range(3):
            covered = []
            while len(covered) < len(nodes):
                batch = daemon.next_batch(nodes)
                blocked = set()
                for v in batch:
                    assert blocked.isdisjoint(closed[v]), \
                        (g.n, batch, v, "batchmates within the closed-"
                         "neighbourhood radius")
                    blocked |= closed[v]
                covered.extend(batch)
            assert sorted(covered) == sorted(nodes), \
                (g.n, "a sweep must activate every node exactly once")


def test_tiled_batches_are_independent_and_fair(campaign_seed):
    """License soundness of the tiled hybrid daemon: every sub-batch it
    issues is pairwise independent at the closed-neighbourhood radius
    (exactly the ``ConflictFreeDaemon`` license — tiles only *order*
    the sweep, they must not weaken independence), and every sweep
    still covers every node exactly once."""
    s = campaign_seed % 877
    graphs = [
        random_connected_graph(20, 34, seed=s),
        star_graph(10, seed=s),
        grid_graph(4, 5, seed=s),
        TOPOLOGIES["subdivided"](seed=s, base_n=10, extra=14, tau=2),
    ]
    for g in graphs:
        nodes = g.nodes()
        closed = {v: {v, *g.neighbors(v)} for v in nodes}
        daemon = TiledConflictFreeDaemon(g, seed=campaign_seed % 503)
        for _sweep in range(3):
            covered = []
            while len(covered) < len(nodes):
                batch = daemon.next_batch(nodes)
                blocked = set()
                for v in batch:
                    assert blocked.isdisjoint(closed[v]), \
                        (g.n, batch, v, "batchmates within the closed-"
                         "neighbourhood radius")
                    blocked |= closed[v]
                covered.extend(batch)
            assert sorted(covered) == sorted(nodes), \
                (g.n, "a sweep must activate every node exactly once")


@pytest.mark.parametrize("daemon_kind", ["independent", "tiled"])
@pytest.mark.parametrize("proto_kind", ["verifier", "hybrid", "sqlog"])
def test_coalescing_on_off_bitwise_equal(daemon_kind, proto_kind,
                                         campaign_seed):
    """Conflict-free super-batch coalescing is unobservable: with junk
    planted mid-sweep, a coalescing run matches the uncoalesced one bit
    for bit — register traces at every stop poll, rounds, activations,
    skip accounting, alarms, and the daemon's own issue accounting —
    on all four storage backends."""
    g = random_connected_graph(14, 24, seed=campaign_seed % 919)

    def run(storage, coalesce):
        net = make_network(g)
        proto = _protocol(proto_kind, False)
        sched = AsynchronousScheduler(net, proto,
                                      _daemon(daemon_kind, g, 5),
                                      storage=storage, coalesce=coalesce)
        sched.run(10)
        _plant_junk(net)
        trace = []

        def record(n):
            trace.append({v: dict(r) for v, r in n.registers.items()})
            return bool(n.alarms())

        r = sched.run(30, stop_when=record)
        return (r, sched.rounds, sched.activations, sched.steps_skipped,
                sched.daemon.sweeps, net.alarms(), trace,
                {v: dict(regs) for v, regs in net.registers.items()})

    for storage in STORAGES:
        ref = run(storage, coalesce=False)
        got = run(storage, coalesce=True)
        assert got == ref, (storage, daemon_kind, proto_kind)


def test_coalesced_stop_replays_batch_boundaries(campaign_seed):
    """A stop condition that fires for a node of the sweep's *first*
    daemon batch must halt the coalesced super-batch at that original
    boundary: the later batches stay unexecuted (identical activation
    counts to the uncoalesced run) and are handed back to the daemon,
    so a later resume issues them exactly as an uncoalesced scheduler
    would have."""
    g = random_connected_graph(16, 28, seed=campaign_seed % 907)

    def run(coalesce):
        net = make_network(g)
        proto = MstVerifierProtocol(synchronous=False)
        sched = AsynchronousScheduler(net, proto,
                                      ConflictFreeDaemon(g, seed=7),
                                      storage="numpy", coalesce=coalesce)
        sched.run(6)
        polls = [0]
        threshold = sched.activations + 1   # fire at the first boundary

        def stop(n):
            polls[0] += 1
            return sched.activations >= threshold

        r = sched.run(10, stop_when=stop)
        out = [(r, sched.rounds, sched.activations, polls[0],
                {v: dict(regs) for v, regs in net.registers.items()})]
        # the requeued tail must replay exactly on resume
        r2 = sched.run(4)
        out.append((r2, sched.rounds, sched.activations,
                    {v: dict(regs) for v, regs in net.registers.items()}))
        return out

    assert run(True) == run(False)


def test_junk_mid_sweep_async_fused_equals_scalar(campaign_seed):
    """The asynchronous mirror of the sync junk test: under the
    conflict-free daemon, junk planted into nat/tuple columns between
    runs must flow through the *live* fused column sweeps exactly like
    the scalar context writes — bit-for-bit vs the scalar loop across
    every storage, skip accounting included."""
    g = random_connected_graph(12, 20, seed=campaign_seed % 941)

    def run(storage, bulk, dirty_aware=True):
        net = make_network(g)
        proto = MstVerifierProtocol(synchronous=False)
        sched = AsynchronousScheduler(net, proto,
                                      ConflictFreeDaemon(g, seed=3),
                                      storage=storage, bulk=bulk,
                                      dirty_aware=dirty_aware)
        sched.run(10)
        _plant_junk(net)
        r = sched.run(25)
        return (r, sched.rounds, sched.activations, sched.steps_skipped,
                net.alarms(),
                {v: dict(regs) for v, regs in net.registers.items()})

    ref = run("dict", bulk=False)
    for storage in STORAGES:
        assert run(storage, bulk=True) == ref, storage
    # and against the naive scalar ground truth (minus the skip counter
    # naive never increments)
    naive = run("dict", bulk=False, dirty_aware=False)
    fused = run("columnar", bulk=True)
    assert fused[:3] + fused[4:] == naive[:3] + naive[4:]


def test_junk_mid_sweep_skip_soundness_async(campaign_seed):
    """Skip soundness survives junk under neighbourhood batches: the
    locality-batched dirty-aware scheduler on every storage, with junk
    planted between runs, still matches the naive scalar loop."""
    g = random_connected_graph(10, 16, seed=campaign_seed % 953)

    def run(storage, bulk, dirty_aware):
        net = make_network(g)
        proto = MstVerifierProtocol(synchronous=False)
        sched = AsynchronousScheduler(net, proto,
                                      LocalityBatchDaemon(g, seed=3),
                                      storage=storage, bulk=bulk,
                                      dirty_aware=dirty_aware)
        sched.run(10)
        _plant_junk(net)
        r = sched.run(25)
        return (r, sched.rounds, sched.activations, net.alarms(),
                {v: dict(regs) for v, regs in net.registers.items()})

    ref = run("dict", bulk=False, dirty_aware=False)
    for storage in STORAGES:
        assert run(storage, bulk=True, dirty_aware=True) == ref, storage


def test_inc_nat_batch_semantics():
    """The fused column RMW coerces exactly like the scalar context:
    unset/None/bool/str/huge/negative all restart at 1, in-range values
    increment, boxed overflow entries are dropped by the write."""
    schema = CompiledSchema(["x", "t"], ["nat", "tuple"], [None, None])
    store = ColumnStore(schema, list(range(7)))
    x = schema.slots["x"]
    store.set_value(1, x, 5)
    store.set_value(2, x, None)
    store.set_value(3, x, "junk")       # boxed
    store.set_value(4, x, True)         # boxed (bools keep their type)
    store.set_value(5, x, 1 << 70)      # boxed (beyond int64)
    store.set_value(6, x, -3)           # stored, but not a nat
    out = store.inc_nat_batch(list(range(7)), x)
    assert out == [1, 6, 1, 1, 1, 1, 1]
    assert not store.overflow[x], "stale boxed entries must be dropped"
    assert [store.get_value(i, x) for i in range(7)] == out
    # pooled column fallback keeps the same semantics
    t = schema.slots["t"]
    store.set_value(0, t, (1, 2))
    assert store.inc_nat_batch([0, 1], t) == [1, 1]
    assert store.get_value(0, t) == 1


def test_gather_values_batch():
    schema = CompiledSchema(["n", "t", "o"], ["nat", "tuple", "opaque"],
                            [None, None, None])
    store = ColumnStore(schema, list(range(4)))
    n, t, o = (schema.slots[k] for k in ("n", "t", "o"))
    store.set_value(0, n, 9)
    store.set_value(1, n, None)
    store.set_value(2, n, "boxed")
    store.set_value(0, t, ("a", 1))
    store.set_value(1, t, [9])          # unhashable -> boxed
    store.set_value(0, o, {"d": 1})
    assert store.gather_values([0, 1, 2, 3], n, "dflt") == \
        [9, None, "boxed", "dflt"]
    assert store.gather_values([0, 1, 2, 3], t) == \
        [("a", 1), [9], None, None]
    assert store.gather_values([0, 1], o, 0) == [{"d": 1}, 0]


# ---------------------------------------------------------------------------
# churn crossing the bulk plane
# ---------------------------------------------------------------------------

def _churn_run(g, storage, make_sched, seed):
    """Settle, then drive one churn script; the report plus final
    registers are what the bulk/coalescing knobs may not perturb."""
    from repro.sim import ChurnScript, run_with_churn
    from repro.trains.comparison import rotation_settled
    work = g.copy()
    net = make_network(work)
    proto, sched = make_sched(net, work)
    sched.run(24)
    script = ChurnScript.generate(work, seed=seed, events=4)
    report = run_with_churn(net, sched, proto, script, window=40,
                            settled=rotation_settled)
    return (report.as_tuple(), dict(net.alarms()),
            {v: dict(net.registers[v])
             for v in sorted(net.graph.nodes())})


def test_churn_sync_bulk_vs_scalar_equal(campaign_seed):
    """Crash/rejoin/reweight events between runs: the fused column
    sweeps must keep matching the scalar loop bit for bit."""
    g = random_connected_graph(12, 20, seed=campaign_seed % 1019)

    def make(bulk, storage, fast_path=True):
        def build(net, work):
            proto = _protocol("verifier", True)
            return proto, SynchronousScheduler(
                net, proto, storage=storage, bulk=bulk,
                fast_path=fast_path)
        return build

    ref = _churn_run(g, "dict", make(False, "dict"), campaign_seed)
    for storage in STORAGES:
        for bulk in (True, False):
            got = _churn_run(g, storage, make(bulk, storage),
                             campaign_seed)
            assert got == ref, (storage, bulk)
    assert _churn_run(g, "numpy", make(True, "numpy", fast_path=False),
                      campaign_seed) == ref


@pytest.mark.parametrize("daemon_kind", ["independent", "tiled"])
def test_churn_coalescing_on_off_equal(daemon_kind, campaign_seed):
    """Churn events fence super-batch coalescing: a coalescing run
    across crash/rejoin/reweight events matches the uncoalesced one —
    no super-batch may span a topology change."""
    g = random_connected_graph(12, 20, seed=campaign_seed % 911)

    def make(coalesce, storage):
        def build(net, work):
            proto = _protocol("verifier", False)
            return proto, AsynchronousScheduler(
                net, proto, _daemon(daemon_kind, work, 5),
                storage=storage, coalesce=coalesce)
        return build

    for storage in ("columnar", "numpy"):
        ref = _churn_run(g, storage, make(False, storage), campaign_seed)
        got = _churn_run(g, storage, make(True, storage), campaign_seed)
        assert got == ref, (storage, daemon_kind)
