"""Differential test: every storage backend is bit-for-bit equivalent.

Three backends coexist: the per-node dict store (the reference
semantics), the columnar store (``repro.sim.columnar`` — ``array('q')``
columns, interning pool, conservative column dirty tracking, with the
contexts' write flags as the only record of which nodes changed), and
the numpy tier (``repro.sim.npcolumnar`` — the same columnar
representation with vectorized bulk sweeps and masked-row snapshot
refreshes).  They
re-represent node state, but none of that may be *observable*: the
same scenario must produce identical alarms, rounds, activations,
register contents, and memory-bit accounting under every backend, for
every scheduler and protocol.

Two layers of evidence:

* a randomized scenario sweep driven through the campaign engine with
  the ``storage`` schedule parameter swept over ``dict`` /
  ``columnar`` / ``numpy`` (scenario seeds derive from
  ``campaign_seed``, so
  ``REPRO_TEST_SEED`` re-randomizes the whole sweep);
* direct scheduler-level runs comparing full register traces through
  settle/inject/detect phases across all three label formats (train
  verifier, hybrid, sqlog), including the dirty-aware asynchronous
  scheduler's skip logic, the locality-batching daemon, and 64-node
  synchronous numpy runs that refresh their snapshot row by row.
"""

import dataclasses

import pytest

from repro.engine import axis, derive_seed, run_scenario, ScenarioSpec
from repro.graphs.generators import random_connected_graph
from repro.sim import (STORAGE_KINDS, AsynchronousScheduler,
                       ConflictFreeDaemon, FaultInjector,
                       LocalityBatchDaemon, Network, PermutationDaemon,
                       Protocol, RandomDaemon, RoundRobinDaemon,
                       SynchronousScheduler, TiledConflictFreeDaemon,
                       first_alarm)
from repro.sim.registers import RegisterSchema
from repro.verification import make_network
from repro.verification.hybrid import HybridVerifierProtocol, hybrid_labels
from repro.verification.marker import run_marker
from repro.verification.verifier import MstVerifierProtocol

STORAGES = STORAGE_KINDS


def _strip_spec(result):
    """Result fields that must match across storages: drop wall_time
    and the bulk-plane accounting diagnostics — how much work ran
    fused vs scalar is exactly what storage backends are allowed to
    vary (only the columnar/numpy tiers fuse at all)."""
    d = dataclasses.asdict(result)
    d.pop("wall_time")
    d.pop("spec")
    for diag in ("rows_fused", "rows_residual", "rows_scalar"):
        d.pop(diag)
    return d


def _spec_triples(campaign_seed):
    """Storage triples of one spec, across every axis kind."""
    cells = [
        ("random", dict(n=12, extra=8), "none", {}, "sync", "verifier"),
        ("random", dict(n=12, extra=8), "corrupt", dict(count=1),
         "sync", "verifier"),
        ("random", dict(n=14, extra=10), "label_swap", {}, "sync", "hybrid"),
        ("grid", dict(rows=3, cols=3), "corrupt", dict(count=1),
         "permutation", "verifier"),
        ("ring", dict(n=8), "scramble", dict(count=2),
         "round_robin", "verifier"),
        ("random", dict(n=12, extra=8), "label_swap", {}, "permutation",
         "sqlog"),
        ("path", dict(n=10), "corrupt", dict(count=1), "sync", "sqlog"),
        ("random", dict(n=12, extra=8), "corrupt", dict(count=1),
         "locality", "verifier"),
        ("ring", dict(n=8), "corrupt", dict(count=1), "locality", "sqlog"),
        ("random", dict(n=12, extra=8), "corrupt", dict(count=1),
         "tiled", "verifier"),
        ("grid", dict(rows=3, cols=3), "corrupt", dict(count=1),
         "tiled", "hybrid"),
        ("ring", dict(n=8), "scramble", dict(count=1), "tiled", "sqlog"),
        ("random", dict(n=14, extra=10), "corrupt", dict(count=1),
         "independent", "hybrid"),
        # sustained churn: topology mutates mid-run — port tombstones,
        # columnar freelist rows, and daemon cache invalidation must
        # all stay invisible to the per-event metrics
        ("random", dict(n=12, extra=8), "churn", dict(events=4),
         "sync", "verifier"),
        ("random", dict(n=10, extra=6), "churn", dict(events=3),
         "independent", "hybrid"),
    ]
    triples = []
    for topo, tp, fault, fp, sched, proto in cells:
        seed = derive_seed(campaign_seed, "storage-diff", topo, fault,
                           sched, proto)
        base = dict(topology=axis(topo, **tp), fault=axis(fault, **fp),
                    protocol=axis(proto), seed=seed, max_rounds=20_000)
        triples.append(tuple(
            ScenarioSpec(schedule=axis(sched, storage=storage), **base)
            for storage in STORAGES))
    return triples


def test_scenarios_match_across_storage(campaign_seed):
    """The same scenario under every storage yields identical
    alarms, rounds, memory bits, and every other metric."""
    for triple in _spec_triples(campaign_seed):
        results = [run_scenario(spec) for spec in triple]
        assert results[0].error is None, triple[0].key
        ref = _strip_spec(results[0])
        for spec, result in zip(triple[1:], results[1:]):
            assert _strip_spec(result) == ref, \
                f"storage divergence in {spec.key}"


def _protocol_for(kind, synchronous):
    if kind == "verifier":
        return MstVerifierProtocol(synchronous=synchronous)
    if kind == "hybrid":
        return HybridVerifierProtocol(synchronous=synchronous)
    from repro.baselines.pls_sqlog import SqLogPlsProtocol
    return SqLogPlsProtocol()


def _run_sync(graph, storage, fast_path, seed, proto_kind="verifier"):
    net = make_network(graph)
    proto = _protocol_for(proto_kind, True)
    sched = SynchronousScheduler(net, proto, fast_path=fast_path,
                                 storage=storage)
    trace = []

    def record(n):
        trace.append({v: dict(r) for v, r in n.registers.items()})
        return bool(n.alarms())

    sched.run(40)
    inj = FaultInjector(net, seed=seed)
    inj.corrupt_random_nodes(2, fraction=0.5)
    detect = sched.run(3000, stop_when=record)
    return (detect, sched.rounds, net.alarms(), trace,
            net.max_memory_bits(), net.total_memory_bits())


@pytest.mark.parametrize("proto_kind", ["verifier", "sqlog"])
def test_sync_register_trace_bitwise_equal(proto_kind, campaign_seed):
    """Full per-round register traces match across storage x fast_path
    through a settle/inject/detect run, for both label formats that run
    standalone."""
    g = random_connected_graph(16, 26, seed=campaign_seed % 1009)
    ref = _run_sync(g, "dict", False, campaign_seed, proto_kind)
    for storage, fast_path in [("dict", True), ("columnar", False),
                               ("columnar", True), ("numpy", False),
                               ("numpy", True)]:
        got = _run_sync(g, storage, fast_path, campaign_seed, proto_kind)
        assert got == ref, (storage, fast_path)


def _masked_refresh_graph(campaign_seed):
    """A 64-node instance (above ``VECTOR_MIN``, so the numpy tier may
    mask its snapshot refresh)."""
    from repro.sim.npcolumnar import VECTOR_MIN

    g = random_connected_graph(
        64, 110, seed=derive_seed(campaign_seed, "masked-refresh") % 1009)
    assert g.n >= VECTOR_MIN
    return g


def _trace_until_still(sched, net, rounds):
    """Run until a round leaves every register unchanged; returns
    (rounds executed, per-round register trace)."""
    trace = []

    def record(n):
        trace.append({v: dict(r) for v, r in n.registers.items()})
        return len(trace) > 1 and trace[-1] == trace[-2]

    return sched.run(rounds, stop_when=record), trace


def _track_refreshes(monkeypatch):
    """Record every numpy snapshot refresh as (rows given, live node
    count, columns row-copied through ``view64``)."""
    from repro.sim import npcolumnar

    calls = []
    refreshing = []
    view64 = npcolumnar.view64
    refresh_from = npcolumnar.NumpyColumnStore.refresh_from

    def counting_view64(col):
        if refreshing:
            refreshing[-1].append(col)
        return view64(col)

    def tracked_refresh(self, live, full=False, rows=None):
        copied = []
        calls.append((rows, live.n, copied))
        refreshing.append(copied)
        try:
            return refresh_from(self, live, full, rows)
        finally:
            refreshing.pop()

    monkeypatch.setattr(npcolumnar, "view64", counting_view64)
    monkeypatch.setattr(npcolumnar.NumpyColumnStore, "refresh_from",
                        tracked_refresh)
    return calls


def test_numpy_masked_refresh_matches_naive_dict(campaign_seed,
                                                 monkeypatch):
    """A synchronous numpy run in which few nodes write per round hands
    the snapshot refresh few enough rows to mask, and still matches the
    naive dict loop's full register traces.  sqlog settles quiescent;
    after one node is corrupted only the nodes around the fault raise
    alarms, and the run goes on until the registers stop changing."""
    from repro.baselines.pls_sqlog import SqLogPlsProtocol, sqlog_labels
    from repro.sim.npcolumnar import numpy_or_none

    if numpy_or_none() is None:
        pytest.skip("numpy unavailable")
    g = _masked_refresh_graph(campaign_seed)
    labels = sqlog_labels(g)

    def run(storage, fast_path):
        net = Network(g)
        net.install(labels)
        sched = SynchronousScheduler(net, SqLogPlsProtocol(),
                                     fast_path=fast_path, storage=storage)
        settle = sched.run(40)
        FaultInjector(net, seed=campaign_seed).corrupt_random_nodes(
            1, fraction=0.8)
        detect, trace = _trace_until_still(sched, net, 200)
        return settle, detect, sched.rounds, net.alarms(), trace

    ref = run("dict", False)
    assert ref[3], "sqlog must detect the corruption"
    calls = _track_refreshes(monkeypatch)
    assert run("numpy", True) == ref
    assert any(rows is not None and 0 < len(rows) * 4 < n
               for rows, n, _ in calls), "no refresh was masked"


class _HopFlood(Protocol):
    """Hop distance from node 0 in one declared nat register: only the
    flood's frontier writes, so most rounds change a few rows of an
    ``array('q')`` column."""

    def register_schema(self):
        schema = RegisterSchema()
        schema.declare("hop", "nat", None)
        return schema

    def step(self, ctx):
        if ctx.node == 0:
            best = 0
        else:
            hops = [h for u in ctx.neighbors
                    if (h := ctx.read_nat(u, "hop")) is not None]
            best = min(hops) + 1 if hops else None
        if ctx.get("hop") != best:
            ctx.set("hop", best)


def test_numpy_masked_row_copy_matches_naive_dict(campaign_seed,
                                                  monkeypatch):
    """The masked refresh's row copy into a nat column: a hop-count
    flood on numpy storage copies only the frontier's rows into its
    snapshot and matches the naive dict loop's register traces."""
    from repro.sim.npcolumnar import numpy_or_none

    if numpy_or_none() is None:
        pytest.skip("numpy unavailable")
    g = _masked_refresh_graph(campaign_seed)

    def run(storage, fast_path):
        net = Network(g)
        sched = SynchronousScheduler(net, _HopFlood(),
                                     fast_path=fast_path, storage=storage)
        return _trace_until_still(sched, net, 200)

    ref = run("dict", False)
    assert all(r["hop"] is not None for r in ref[1][-1].values())
    calls = _track_refreshes(monkeypatch)
    assert run("numpy", True) == ref
    assert any(copied for _, _, copied in calls), \
        "no refresh copied masked rows"


@pytest.mark.parametrize("daemon_cls", [PermutationDaemon, RoundRobinDaemon,
                                        RandomDaemon, LocalityBatchDaemon,
                                        ConflictFreeDaemon,
                                        TiledConflictFreeDaemon])
def test_async_dirty_aware_bitwise_equal(daemon_cls, campaign_seed):
    """The dirty-aware asynchronous scheduler (under every storage and
    daemon, including locality batching and both conflict-free covers)
    matches the naive activation loop: same rounds, activations,
    alarms, and final registers."""
    g = random_connected_graph(12, 20, seed=campaign_seed % 997)

    def make_daemon():
        if daemon_cls is RoundRobinDaemon:
            return daemon_cls()
        if daemon_cls in (LocalityBatchDaemon, ConflictFreeDaemon,
                          TiledConflictFreeDaemon):
            return daemon_cls(g, seed=7)
        return daemon_cls(seed=7)

    def run(storage, dirty_aware):
        net = make_network(g)
        proto = MstVerifierProtocol(synchronous=False)
        sched = AsynchronousScheduler(net, proto, make_daemon(),
                                      storage=storage,
                                      dirty_aware=dirty_aware)
        sched.run(25)
        inj = FaultInjector(net, seed=campaign_seed)
        inj.corrupt_random_nodes(2, fraction=0.5)
        r = sched.run(2500, stop_when=first_alarm)
        return (r, sched.rounds, sched.activations, net.alarms(),
                {v: dict(regs) for v, regs in net.registers.items()})

    ref = run("dict", False)
    for storage in STORAGES:
        for dirty_aware in (False, True):
            if (storage, dirty_aware) == ("dict", False):
                continue
            assert run(storage, dirty_aware) == ref, (storage, dirty_aware)


def test_async_dirty_aware_skips_quiescent_nodes():
    """On an accepting 1-round PLS run the dirty-aware scheduler provably
    skips re-steps (each node executes once per run, the rest skip) while
    producing the identical outcome — under every storage, and under
    the locality daemon (whose whole-neighbourhood batches are exactly
    what the skip amortizes)."""
    from repro.baselines.pls_sqlog import SqLogPlsProtocol, sqlog_labels

    g = random_connected_graph(14, 24, seed=5)
    labels = sqlog_labels(g)

    def run(storage, dirty_aware, locality=False):
        net = Network(g)
        net.install(labels)
        daemon = LocalityBatchDaemon(g, seed=1) if locality \
            else PermutationDaemon(seed=1)
        sched = AsynchronousScheduler(net, SqLogPlsProtocol(), daemon,
                                      storage=storage,
                                      dirty_aware=dirty_aware)
        r = sched.run(30)
        return (r, sched.rounds, sched.activations, net.alarms(),
                {v: dict(regs) for v, regs in net.registers.items()},
                sched.steps_skipped)

    for locality in (False, True):
        naive = run("dict", False, locality)
        assert naive[5] == 0
        for storage in STORAGES:
            aware = run(storage, True, locality)
            assert naive[:5] == aware[:5], (storage, locality)
            # every activation after each node's first no-op step skips
            assert aware[5] >= aware[2] - 2 * g.n, (storage, locality)


def test_fault_recipes_storage_independent(campaign_seed):
    """The fault injector's rng draws must not depend on the storage
    backend's iteration order: the same seed corrupts the same registers
    to the same values under every representation."""
    g = random_connected_graph(10, 16, seed=3)
    marker = run_marker(g)

    def corrupted(storage):
        net = make_network(g, marker)
        proto = MstVerifierProtocol(synchronous=True)
        sched = SynchronousScheduler(net, proto, storage=storage)
        sched.run(10)
        inj = FaultInjector(net, seed=campaign_seed)
        inj.scramble_node(g.nodes()[0])
        inj.corrupt_random_nodes(2, fraction=0.4)
        return {v: dict(regs) for v, regs in net.registers.items()}

    ref = corrupted("dict")
    assert corrupted("columnar") == ref
    assert corrupted("numpy") == ref


def test_hybrid_storage_differential(campaign_seed):
    """The hybrid protocol (replicated bottom pieces + top train) is
    storage-equivalent through a cold adversarial start."""
    from repro.graphs.mst_reference import kruskal_mst
    from repro.verification.adversary import (labels_for_claimed_tree,
                                              swap_one_mst_edge)

    g = random_connected_graph(14, 24, seed=campaign_seed % 911)
    wrong = swap_one_mst_edge(g, kruskal_mst(g))
    assert wrong is not None
    labels = hybrid_labels(labels_for_claimed_tree(g, wrong))

    def run(storage):
        net = Network(g)
        net.install(labels)
        proto = HybridVerifierProtocol(synchronous=True)
        sched = SynchronousScheduler(net, proto, storage=storage)
        r = sched.run(5000, stop_when=first_alarm)
        return (r, net.alarms(),
                {v: dict(regs) for v, regs in net.registers.items()})

    ref = run("dict")
    assert run("columnar") == ref
    assert run("numpy") == ref
    assert ref[1], "hybrid must reject the adversarial labeling"


def test_protocol_shared_across_schedulers_rebinds():
    """A protocol instance handed to other schedulers (different
    storages, different networks) is re-bound before each run, so no
    scheduler runs with another's handles or label caches."""
    g1 = random_connected_graph(10, 16, seed=1)
    g2 = random_connected_graph(10, 16, seed=2)
    g3 = random_connected_graph(10, 16, seed=4)
    proto = MstVerifierProtocol(synchronous=True)
    net1, net2, net3 = make_network(g1), make_network(g2), make_network(g3)
    s1 = SynchronousScheduler(net1, proto, storage="dict")
    s2 = SynchronousScheduler(net2, proto, storage="numpy")
    s3 = SynchronousScheduler(net3, proto, storage="columnar")
    # interleave: each run must rebind to its own storage
    for _ in range(2):
        s1.run(3)
        s2.run(3)
        s3.run(3)
    assert not net1.alarms() and not net2.alarms() and not net3.alarms()

    # reference: fresh protocols, same schedules
    for g, storage, net in ((g1, "dict", net1), (g2, "numpy", net2),
                            (g3, "columnar", net3)):
        ref_net = make_network(g)
        ref = SynchronousScheduler(ref_net, MstVerifierProtocol(
            synchronous=True), storage=storage)
        ref.run(6)
        assert {v: dict(r) for v, r in ref_net.registers.items()} == \
            {v: dict(r) for v, r in net.registers.items()}


def test_shared_network_across_storage_schedulers():
    """Two schedulers with different storage modes sharing one *network*
    re-adopt the backing store on each run (values preserved through
    the columnar -> numpy -> columnar round trips) and behave exactly
    like a same-storage scheduler pair."""
    g = random_connected_graph(10, 16, seed=9)

    def interleave(second_storage):
        net = make_network(g)
        s1 = SynchronousScheduler(net, MstVerifierProtocol(
            synchronous=True), storage="columnar")
        s2 = SynchronousScheduler(net, MstVerifierProtocol(
            synchronous=True), storage=second_storage)
        s1.run(3)
        s2.run(3)   # numpy: switches the network to numpy columns
        s1.run(3)   # and back to plain columns
        return {v: dict(r) for v, r in net.registers.items()}

    assert interleave("numpy") == interleave("columnar")


@pytest.mark.parametrize("proto_kind", ["verifier", "sqlog"])
@pytest.mark.parametrize("daemon_kind", ["locality", "independent",
                                         "permutation"])
def test_async_max_activations_storage_independent(daemon_kind, proto_kind,
                                                   campaign_seed):
    """``max_activations`` and ``stop_when`` end an asynchronous run at
    the same point on every storage: the dict store is the reference,
    columnar and numpy run with fused live ops (``bulk=True``), with
    dirty-aware skipping on and off (sqlog's accepting steps write
    nothing, so its runs skip).

    A probe copy of the daemon gives the batch boundaries, so the budget
    ends one activation into a multi-node batch (the budget is checked
    at batch boundaries: the batch completes), and the stop condition
    turns true one activation into another multi-node batch, after a
    fault.  The stop resolves at that activation under the locality
    daemon and at the batch's end under the conflict-free one."""
    from itertools import accumulate

    from repro.baselines.pls_sqlog import SqLogPlsProtocol, sqlog_labels

    g = random_connected_graph(14, 24, seed=campaign_seed % 983)
    n = g.n
    labels = sqlog_labels(g) if proto_kind == "sqlog" else None

    def make_daemon():
        if daemon_kind == "locality":
            return LocalityBatchDaemon(g, seed=3)
        if daemon_kind == "independent":
            return ConflictFreeDaemon(g, seed=3)
        return PermutationDaemon(seed=3)

    probe = make_daemon()
    sizes = [len(probe.next_batch(g.nodes())) for _ in range(12 * n)]
    ends = list(accumulate(sizes))

    def inside(after):
        """(an activation one into the first batch starting at or past
        ``after``, preferring multi-node batches, and that batch's end)."""
        for k, size in enumerate(sizes):
            begin = ends[k] - size
            if begin >= after and (size > 1 or daemon_kind == "permutation"):
                return begin + 1, ends[k]
        raise AssertionError("no multi-node batch in the probe")

    budget, budget_end = inside(3 * n)
    stop_at, stop_end = inside(budget_end + 2 * n)
    if daemon_kind != "permutation":
        assert budget < budget_end and stop_at < stop_end

    def run(storage, dirty_aware):
        if labels is None:
            net = make_network(g)
            proto = MstVerifierProtocol(synchronous=False)
        else:
            net = Network(g)
            net.install(labels)
            proto = SqLogPlsProtocol()
        sched = AsynchronousScheduler(net, proto, make_daemon(),
                                      storage=storage,
                                      dirty_aware=dirty_aware, bulk=True)
        trace = []

        def record(r):
            trace.append((r, sched.rounds, sched.activations,
                          sched.steps_skipped, net.alarms(),
                          {v: dict(regs)
                           for v, regs in net.registers.items()}))

        record(sched.run(10_000, max_activations=budget))
        assert sched.activations == budget_end
        FaultInjector(net, seed=campaign_seed).corrupt_random_nodes(
            2, fraction=0.5)
        record(sched.run(10_000,
                         stop_when=lambda _: sched.activations >= stop_at))
        assert sched.activations == (stop_end if daemon_kind == "independent"
                                     else stop_at)
        return trace

    for dirty_aware in (False, True):
        ref = run("dict", dirty_aware)
        for storage in ("columnar", "numpy"):
            assert run(storage, dirty_aware) == ref, (storage, dirty_aware)
    naive = run("dict", False)
    aware = run("dict", True)
    assert [t[:3] + t[4:] for t in naive] == [t[:3] + t[4:] for t in aware]
    if proto_kind == "sqlog":
        assert aware[-1][3] > 0
