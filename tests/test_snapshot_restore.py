"""Restore-equivalence matrix for settle-state checkpoints.

The warm-start cache replays saved settled state instead of re-settling;
that is only trustworthy if restore is *indistinguishable* from never
having stopped.  These tests prove it at the storage-differential
suite's standard: settle → snapshot → restore into a freshly built
network/scheduler/protocol → inject fault → run, compared bit-for-bit —
full per-node register traces at every stop-condition poll, alarms,
round/activation/skip counters, memory-bit accounting — against the
uninterrupted settle → inject → run, across dict/columnar/numpy
storage × sync/async/locality/independent/tiled schedules ×
verifier/hybrid/sqlog protocols, with adversarial junk planted in
nat/tuple columns *before* the snapshot.  The ``schema`` column runs
the retired storage name (an alias of columnar) and restores the
payload as the retired per-node register-file backend wrote it, which
old warm caches still hold.

The engine-level tests then pin the cache semantics: warm-started
``run_scenario`` results equal cold ones field for field, the cache key
ignores exactly the implementation-only schedule params (enumerated
from the registries, so a newly registered param cannot silently alias
a stale snapshot), and corrupt or truncated cache entries fall back to
a cold settle with a :class:`WarmCacheWarning` — never a crash, never a
silently wrong result.
"""

import os
from dataclasses import asdict, replace

import pytest

from repro.engine import ScenarioSpec, axis, run_scenario
from repro.engine.scenarios import FAULTS, PROTOCOLS, SCHEDULES
from repro.engine.spec import IMPL_SCHEDULE_PARAMS, Axis
from repro.engine.warmcache import (SEMANTIC_FAULT_KINDS, WarmCache,
                                    WarmCacheWarning, set_warm_cache,
                                    warm_key)
from repro.graphs.generators import random_connected_graph
from repro.sim import (STORAGE_KINDS, AsynchronousScheduler,
                       ConflictFreeDaemon, FaultInjector,
                       LocalityBatchDaemon, Network, PermutationDaemon,
                       SynchronousScheduler, TiledConflictFreeDaemon)
from repro.sim.churn import _articulation_points
from repro.sim.registers import UNSET
from repro.sim.snapshot import (SnapshotError, capture_run_state,
                                decode_snapshot, encode_snapshot,
                                restore_run_state, topology_signature)
from repro.verification.marker import run_marker

SETTLE_ROUNDS = 16
DETECT_ROUNDS = 40
DAEMON_SEED = 11
FAULT_SEED = 77

STORAGES = ("dict", "schema", "columnar", "numpy")
PROTOCOL_KINDS = ("verifier", "hybrid", "sqlog")
SCHEDULE_KINDS = ("sync", "permutation", "locality", "independent",
                  "tiled")


@pytest.fixture(scope="module")
def instance():
    graph = random_connected_graph(10, 16, seed=9)
    return graph, run_marker(graph)


def _build(instance, protocol_kind, schedule, storage):
    """A fresh network/scheduler pair exactly as the engine builds one."""
    graph, marker = instance
    entry = PROTOCOLS[protocol_kind]
    synchronous = schedule == "sync"
    network = Network(graph)
    network.install(entry.labels(graph, marker))
    protocol = entry.make(synchronous, {})
    if synchronous:
        scheduler = SynchronousScheduler(network, protocol,
                                         storage=storage)
    else:
        daemons = {"locality": lambda: LocalityBatchDaemon(
                       graph, seed=DAEMON_SEED),
                   "independent": lambda: ConflictFreeDaemon(
                       graph, seed=DAEMON_SEED),
                   "tiled": lambda: TiledConflictFreeDaemon(
                       graph, seed=DAEMON_SEED),
                   "permutation": lambda: PermutationDaemon(
                       seed=DAEMON_SEED)}
        scheduler = AsynchronousScheduler(network, protocol,
                                          daemon=daemons[schedule](),
                                          storage=storage)
    return network, scheduler


def _plant_junk(network):
    """Adversarial junk a snapshot must carry: a string in a
    nat-declared register, an unhashable value in a tuple/str one, and
    an undeclared extra with a beyond-int64 payload."""
    v = network.graph.nodes()[1]
    registers = network.registers[v]
    schema = network.schema
    if schema is not None:
        nat = next((n for n, k in zip(schema.names, schema.kinds)
                    if k == "nat"), None)
        boxy = next((n for n, k in zip(schema.names, schema.kinds)
                     if k in ("tuple", "str")), None)
        if nat:
            registers[nat] = "junk-in-nat"
        if boxy:
            registers[boxy] = ("boxed", [1, 2])
    else:
        registers["junk_nat"] = "junk-in-nat"
        registers["junk_tup"] = ("boxed", [1, 2])
    registers["_ghost_extra"] = ("planted", 1 << 70)


def _settle(instance, protocol_kind, schedule, storage):
    network, scheduler = _build(instance, protocol_kind, schedule,
                                storage)
    settled = scheduler.run(SETTLE_ROUNDS)
    assert not network.has_alarm(), "honest labels must settle silently"
    _plant_junk(network)
    return network, scheduler, settled


def _legacy_schema_payload(payload, schema):
    """``payload`` as the retired per-node register-file backend wrote
    it: ``backend: "schema"`` with a native ``files`` section (per-node
    slot lists, extras, stable counter) in place of ``columns``."""
    net = {k: v for k, v in payload["network"].items() if k != "columns"}
    net["backend"] = "schema"
    net["files"] = {
        v: {"slots": [regs.get(name, UNSET) for name in schema.names],
            "extra": {k: x for k, x in regs.items()
                      if k not in schema.slots} or None,
            "stable_version": 0}
        for v, regs in net["values"].items()}
    return dict(payload, network=net)


def _detect(network, scheduler):
    """Inject the same fault and record everything observable at every
    stop-condition poll."""
    injector = FaultInjector(network, seed=FAULT_SEED)
    injector.corrupt_random_nodes(2)
    trace = []

    def record(net):
        trace.append({v: dict(net.registers[v])
                      for v in net.graph.nodes()})
        return net.has_alarm()

    rounds = scheduler.run(DETECT_ROUNDS, stop_when=record)
    return {
        "rounds": rounds,
        "sched_rounds": scheduler.rounds,
        "activations": getattr(scheduler, "activations", None),
        "skipped": getattr(scheduler, "steps_skipped", None),
        "alarms": dict(network.alarms()),
        "max_bits": network.max_memory_bits(),
        "total_bits": network.total_memory_bits(),
        "faulty": list(injector.faulty_nodes),
        "trace": trace,
    }


@pytest.mark.parametrize("storage", STORAGES)
@pytest.mark.parametrize("schedule", SCHEDULE_KINDS)
@pytest.mark.parametrize("protocol_kind", PROTOCOL_KINDS)
def test_restore_equivalence(instance, protocol_kind, schedule, storage):
    """settle→snapshot→restore→inject ≡ settle→inject, bit for bit."""
    network, scheduler, settled = _settle(instance, protocol_kind,
                                          schedule, storage)
    payload = capture_run_state(network, scheduler, settled)
    assert payload is not None
    if storage == "schema":
        payload = _legacy_schema_payload(payload, network.schema)
    blob = encode_snapshot(payload)          # through the wire format
    settled_registers = {v: dict(network.registers[v])
                         for v in network.graph.nodes()}
    settled_bits = (network.max_memory_bits(), network.total_memory_bits())
    reference = _detect(network, scheduler)

    fresh_net, fresh_sched = _build(instance, protocol_kind, schedule,
                                    storage)
    restored = restore_run_state(fresh_net, fresh_sched,
                                 decode_snapshot(blob))
    assert restored == settled
    assert {v: dict(fresh_net.registers[v]) for v in
            fresh_net.graph.nodes()} == settled_registers
    assert (fresh_net.max_memory_bits(),
            fresh_net.total_memory_bits()) == settled_bits
    assert _detect(fresh_net, fresh_sched) == reference


@pytest.mark.parametrize("schedule", ("independent", "tiled"))
def test_restore_crosses_coalescing_modes(instance, schedule):
    """Under the conflict-free daemons, state captured from a columnar
    scheduler restores into every storage (the dict oracle, columnar,
    the numpy vector tier) with an identical detection run — every
    backend runs the same daemon batches, so the daemon's sweep state
    stays interchangeable.  (The name is kept from when the restore
    also crossed batch-coalescing modes, which no longer exist.)"""
    network, scheduler, settled = _settle(instance, "verifier", schedule,
                                          "columnar")
    payload = capture_run_state(network, scheduler, settled)
    blob = encode_snapshot(payload)
    reference = _detect(network, scheduler)
    for storage in STORAGE_KINDS:
        fresh_net, fresh_sched = _build(instance, "verifier", schedule,
                                        storage)
        restored = restore_run_state(fresh_net, fresh_sched,
                                     decode_snapshot(blob))
        assert restored == settled
        assert _detect(fresh_net, fresh_sched) == reference, storage


@pytest.mark.parametrize("target_storage", ("dict", "columnar", "numpy"))
def test_restore_crosses_storage_backends(instance, target_storage):
    """A snapshot taken on one backend restores onto another (the cache
    key excludes ``storage``) with the same observable continuation —
    including numpy-tier snapshots warming plain-columnar runs and
    vice versa (the serialized buffer is the same raw int64 layout)."""
    source_storage = {"dict": "numpy", "columnar": "dict",
                      "numpy": "columnar"}[target_storage]
    network, scheduler, settled = _settle(instance, "verifier", "sync",
                                          source_storage)
    payload = capture_run_state(network, scheduler, settled)
    reference = _detect(network, scheduler)

    fresh_net, fresh_sched = _build(instance, "verifier", "sync",
                                    target_storage)
    assert restore_run_state(fresh_net, fresh_sched, payload) == settled
    assert _detect(fresh_net, fresh_sched) == reference


def test_restore_validates_before_mutating(instance):
    """A payload that does not fit the target raises and leaves the
    target untouched — the caller's cold fallback then runs clean."""
    network, scheduler, settled = _settle(instance, "verifier", "sync",
                                          "columnar")
    payload = capture_run_state(network, scheduler, settled)

    other_graph = random_connected_graph(12, 18, seed=4)
    other = Network(other_graph)
    entry = PROTOCOLS["verifier"]
    other.install(entry.labels(other_graph, run_marker(other_graph)))
    sched = SynchronousScheduler(other, entry.make(True, {}),
                                 storage="columnar")
    before = {v: dict(other.registers[v]) for v in other_graph.nodes()}
    with pytest.raises(SnapshotError):
        restore_run_state(other, sched, payload)
    assert {v: dict(other.registers[v])
            for v in other_graph.nodes()} == before

    # scheduler-kind mismatch, same topology
    net2, sched2 = _build(instance, "verifier", "permutation", "dict")
    with pytest.raises(SnapshotError):
        restore_run_state(net2, sched2, payload)
    # malformed payloads never half-apply either
    net3, sched3 = _build(instance, "verifier", "sync", "dict")
    with pytest.raises(SnapshotError):
        restore_run_state(net3, sched3, {"version": 99})


def _fresh_instance(instance):
    """A private graph copy (the churn tests mutate topology in place;
    the module-scoped instance must stay pristine)."""
    graph, marker = instance
    return graph.copy(), marker


def test_snapshot_round_trips_across_crash_rejoin(instance):
    """A snapshot taken *after* a crash + rejoin cycle restores into a
    freshly built network on the original graph: the rejoin rebuilds
    the exact original ports, so the topology signature matches and the
    continuation is bit-for-bit."""
    inst = _fresh_instance(instance)
    network, scheduler = _build(inst, "verifier", "sync", "columnar")
    scheduler.run(SETTLE_ROUNDS)
    victim = next(v for v in network.graph.nodes()
                  if v not in _articulation_points(network.graph))
    stub = network.remove_node(victim)
    scheduler.topology_changed()
    scheduler.run(4)
    network.add_node(victim, stub)
    view = network.registers[victim]
    for name in sorted(stub["registers"]):
        view[name] = stub["registers"][name]
    scheduler.topology_changed()
    scheduler.run(4)
    assert topology_signature(network.graph) == \
        topology_signature(instance[0])
    payload = capture_run_state(network, scheduler, scheduler.rounds)
    blob = encode_snapshot(payload)
    reference = _detect(network, scheduler)

    fresh_net, fresh_sched = _build(_fresh_instance(instance),
                                    "verifier", "sync", "columnar")
    restore_run_state(fresh_net, fresh_sched, decode_snapshot(blob))
    assert _detect(fresh_net, fresh_sched) == reference


@pytest.mark.parametrize("storage", ("dict", "columnar", "numpy"))
def test_snapshot_round_trips_while_node_is_down(instance, storage):
    """A snapshot taken mid-churn — one node crashed out — restores
    into a fresh network with the same node removed (identical port
    tombstones, identical freelist state observably), on any backend."""
    inst = _fresh_instance(instance)
    network, scheduler = _build(inst, "verifier", "sync", storage)
    scheduler.run(SETTLE_ROUNDS)
    victim = next(v for v in network.graph.nodes()
                  if v not in _articulation_points(network.graph))
    network.remove_node(victim)
    scheduler.topology_changed()
    scheduler.run(4)
    payload = capture_run_state(network, scheduler, scheduler.rounds)
    blob = encode_snapshot(payload)
    reference = _detect(network, scheduler)

    fresh_net, fresh_sched = _build(_fresh_instance(instance),
                                    "verifier", "sync", storage)
    fresh_net.remove_node(victim)
    fresh_sched.topology_changed()
    restore_run_state(fresh_net, fresh_sched, decode_snapshot(blob))
    assert _detect(fresh_net, fresh_sched) == reference


def test_snapshot_signature_guards_churned_topology(instance):
    """A settled snapshot must not restore onto a network whose
    topology has since churned (reweighted edge or missing node) — the
    signature check rejects it before any state is touched; payloads
    from before the signature existed still restore."""
    network, scheduler, settled = _settle(instance, "verifier", "sync",
                                          "columnar")
    payload = capture_run_state(network, scheduler, settled)
    graph, marker = instance

    # reweighted edge: same nodes, same ports, different weight
    g2 = graph.copy()
    u, v, w = next(iter(g2.edges()))
    g2.set_weight(u, v, max(x for _, _, x in g2.edges()) + 1)
    net2, sched2 = _build((g2, marker), "verifier", "sync", "columnar")
    before = {x: dict(net2.registers[x]) for x in g2.nodes()}
    with pytest.raises(SnapshotError, match="topology signature"):
        restore_run_state(net2, sched2, payload)
    assert {x: dict(net2.registers[x]) for x in g2.nodes()} == before

    # a node crashed out after the snapshot was taken
    net3, sched3 = _build(_fresh_instance(instance), "verifier", "sync",
                          "columnar")
    victim = next(x for x in net3.graph.nodes()
                  if x not in _articulation_points(net3.graph))
    net3.remove_node(victim)
    sched3.topology_changed()
    with pytest.raises(SnapshotError):
        restore_run_state(net3, sched3, payload)

    # pre-signature payloads (no ``topo_sig``) still restore
    legacy = decode_snapshot(encode_snapshot(payload))
    legacy["network"].pop("topo_sig")
    net4, sched4 = _build(_fresh_instance(instance), "verifier", "sync",
                          "columnar")
    assert restore_run_state(net4, sched4, legacy) == settled


def test_wire_format_rejects_corruption():
    payload = {"version": 1, "data": list(range(32))}
    blob = encode_snapshot(payload)
    assert decode_snapshot(blob) == payload
    for bad in (b"", b"junk", blob[:-1], blob[: len(blob) // 2],
                blob[:7] + b"\x00" * (len(blob) - 7)):
        with pytest.raises(SnapshotError):
            decode_snapshot(bad)
    flipped = bytearray(blob)
    flipped[len(blob) // 2] ^= 0xFF
    with pytest.raises(SnapshotError):
        decode_snapshot(bytes(flipped))


# ---------------------------------------------------------------------------
# engine-level warm start
# ---------------------------------------------------------------------------

def _spec(**overrides):
    base = dict(topology=axis("random", n=10, extra=14),
                fault=axis("corrupt", count=1),
                schedule=axis("sync", storage="columnar"),
                seed=5)
    base.update(overrides)
    return ScenarioSpec(**base)


def _strip(result):
    """Everything deterministic about a result (drop wall time and the
    cache bookkeeping the comparison is about)."""
    return {k: v for k, v in asdict(result).items()
            if k not in ("wall_time", "cache_hit", "settle_rounds_saved",
                         "spec")}


@pytest.fixture
def warm_dir(tmp_path):
    cache = WarmCache(str(tmp_path / "warm"))
    previous = set_warm_cache(cache)
    yield cache
    set_warm_cache(previous)


@pytest.mark.parametrize("schedule", (axis("sync", storage="columnar"),
                                      axis("permutation")))
def test_run_scenario_warm_equals_cold(tmp_path, schedule):
    spec = _spec(schedule=schedule)
    cold = run_scenario(spec)
    cache = WarmCache(str(tmp_path / "warm"))
    previous = set_warm_cache(cache)
    try:
        miss = run_scenario(spec)
        hit = run_scenario(spec)
    finally:
        set_warm_cache(previous)
    assert miss.cache_hit is False and miss.settle_rounds_saved == 0
    assert hit.cache_hit is True
    assert hit.settle_rounds_saved == cold.settle_rounds > 0
    assert _strip(miss) == _strip(cold)
    assert _strip(hit) == _strip(cold)
    assert (cache.hits, cache.misses) == (1, 1)
    assert cold.cache_hit is None            # no cache: never consulted


def test_warm_cache_shared_across_impl_params(warm_dir):
    """`storage`/`bulk`/... are proven equivalent, so cells differing
    only in them share one entry — and restoring a columnar-written
    snapshot into a dict-backed run reproduces the cold result."""
    cold = run_scenario(_spec())           # columnar, populates
    for params in ({"storage": "dict"}, {"storage": "schema"},
                   {"bulk": False}, {"fast_path": False}):
        result = run_scenario(_spec(schedule=axis("sync", **params)))
        assert result.cache_hit is True, params
        assert _strip(result) == _strip(cold)
    assert warm_dir.misses == 1


def test_warm_cache_not_consulted_without_settle_phase(warm_dir):
    result = run_scenario(_spec(fault=axis("none")))
    assert result.cache_hit is None
    assert (warm_dir.hits, warm_dir.misses) == (0, 0)


def test_populate_only_mode_never_restores(tmp_path):
    """``restore=False`` (--no-warm-start): every lookup misses but the
    settled state is still stored for a later warm run."""
    root = str(tmp_path / "warm")
    spec = _spec()
    previous = set_warm_cache(WarmCache(root, restore=False))
    try:
        first = run_scenario(spec)
        second = run_scenario(spec)
    finally:
        set_warm_cache(previous)
    assert first.cache_hit is False and second.cache_hit is False
    previous = set_warm_cache(WarmCache(root))
    try:
        third = run_scenario(spec)
    finally:
        set_warm_cache(previous)
    assert third.cache_hit is True


# ---------------------------------------------------------------------------
# cache-key properties (enumerated from the registries)
# ---------------------------------------------------------------------------

def _key_of(spec, settle_budget=40, topology_seed=123):
    synchronous, _ = SCHEDULES[spec.schedule.kind]
    return warm_key(spec, synchronous, settle_budget, topology_seed,
                    spec.derived_seed("daemon"))


def test_impl_only_schedule_params_never_change_the_key():
    """For every registered schedule kind, every implementation-only
    param is invisible to both the key and the daemon seed."""
    assert {"storage", "bulk", "fast_path",
            "dirty_aware"} <= set(IMPL_SCHEDULE_PARAMS)
    for kind in sorted(SCHEDULES):
        base = _spec(schedule=Axis(kind))
        for param in sorted(IMPL_SCHEDULE_PARAMS):
            varied = _spec(schedule=axis(kind, **{param: "varied"}))
            assert _key_of(varied) == _key_of(base), (kind, param)
            assert varied.derived_seed("daemon") == \
                base.derived_seed("daemon"), (kind, param)


def test_semantic_schedule_params_always_change_the_key():
    """Any schedule param *outside* IMPL_SCHEDULE_PARAMS is key-relevant
    by construction — a future registered knob cannot silently alias a
    stale snapshot.  Spot-checked on a real semantic param too."""
    for kind in sorted(SCHEDULES):
        base = _spec(schedule=Axis(kind))
        varied = _spec(schedule=axis(kind, zz_future_knob=1))
        assert _key_of(varied) != _key_of(base), kind
    slow2 = _spec(schedule=axis("slow_nodes", count=2, slowdown=4))
    slow3 = _spec(schedule=axis("slow_nodes", count=3, slowdown=4))
    assert _key_of(slow2) != _key_of(slow3)


def test_fault_axis_keying_follows_semantic_registry():
    """For every registered fault kind: semantic kinds (churn) key on
    their full axis — kind and every parameter — while ordinary
    injection faults stay invisible to the key (they apply after the
    settle phase the cache stores).  Enumerated from the registry, so a
    future topology-mutating fault kind must declare itself via
    ``mark_fault_semantic`` or inherit the proven-safe default."""
    for kind in sorted(FAULTS):
        base = _spec(fault=Axis(kind))
        varied = _spec(fault=axis(kind, zz_probe=1))
        changed = _key_of(varied) != _key_of(base)
        assert changed == (kind in SEMANTIC_FAULT_KINDS), kind


def test_every_churn_param_changes_the_key():
    """Each of the churn axis's parameters — events, window, crash,
    reweight — lands in the warm key: a churned cell never aliases a
    cell with a different event stream (and never a static one)."""
    assert "churn" in SEMANTIC_FAULT_KINDS
    base = _spec(fault=axis("churn"))
    assert _key_of(base) != _key_of(_spec(fault=axis("corrupt",
                                                     count=1)))
    for params in ({"events": 9}, {"window": 13}, {"crash": False},
                   {"reweight": False}):
        varied = _spec(fault=axis("churn", **params))
        assert _key_of(varied) != _key_of(base), params
    # identical churn axes still share (the cache stays useful)
    assert _key_of(_spec(fault=axis("churn", events=9))) == \
        _key_of(_spec(fault=axis("churn", events=9)))


def test_churn_cells_warm_start_cleanly(warm_dir):
    """The settle phase precedes every churn event, so churn cells can
    warm-start; the semantic key keeps their entries private, and a
    warm churn run equals the cold one field for field."""
    spec = _spec(fault=axis("churn", events=3))
    miss = run_scenario(spec)
    hit = run_scenario(spec)
    assert miss.cache_hit is False and hit.cache_hit is True
    assert hit.settle_rounds_saved > 0
    assert _strip(hit) == _strip(miss)
    assert (warm_dir.hits, warm_dir.misses) == (1, 1)


def test_key_covers_semantic_axes_and_horizon():
    base = _spec()
    assert _key_of(base) == _key_of(base)
    # topology spec, topology seed, protocol, settle horizon all enter
    assert _key_of(_spec(topology=axis("random", n=12, extra=14))) \
        != _key_of(base)
    assert _key_of(base, topology_seed=124) != _key_of(base)
    assert _key_of(_spec(protocol=axis("hybrid"))) != _key_of(base)
    assert _key_of(base, settle_budget=41) != _key_of(base)
    # synchronous settling is seed-free: fault cells differing only in
    # base seed (hence fault/daemon seeds) share the entry...
    assert _key_of(_spec(seed=6)) == _key_of(base)
    # ...asynchronous settling consumes daemon randomness, so the seed
    # (via the derived daemon seed) splits the key
    async_base = _spec(schedule=axis("permutation"))
    async_other = _spec(schedule=axis("permutation"), seed=6)
    assert _key_of(async_base) != _key_of(async_other)
    # the fault axis feeds the daemon seed derivation, so async cells
    # with different faults settle differently and must not share
    fault_a = _spec(schedule=axis("permutation"))
    fault_b = _spec(schedule=axis("permutation"),
                    fault=axis("scramble", count=1))
    assert (_key_of(fault_a) == _key_of(fault_b)) == \
        (fault_a.derived_seed("daemon") == fault_b.derived_seed("daemon"))


# ---------------------------------------------------------------------------
# corrupt cache entries: warn + cold fallback, never wrong
# ---------------------------------------------------------------------------

def _single_entry(cache):
    files = [f for f in os.listdir(cache.root) if f.endswith(".snap")]
    assert len(files) == 1
    return os.path.join(cache.root, files[0])


@pytest.mark.parametrize("corruption", ("bitflip", "truncate", "stub"))
def test_corrupt_cache_entry_falls_back_cold(warm_dir, corruption):
    spec = _spec()
    cold = run_scenario(spec)              # miss: populates the cache
    path = _single_entry(warm_dir)
    blob = open(path, "rb").read()
    if corruption == "bitflip":
        bad = bytearray(blob)
        bad[len(bad) // 2] ^= 0x01
        blob = bytes(bad)
    elif corruption == "truncate":
        blob = blob[: len(blob) // 2]
    else:
        blob = blob[:3]
    with open(path, "wb") as fh:
        fh.write(blob)

    with pytest.warns(WarmCacheWarning):
        fallback = run_scenario(spec)
    assert fallback.cache_hit is False
    assert _strip(fallback) == _strip(cold)
    # the cold fallback repaired the entry in place
    repaired = run_scenario(spec)
    assert repaired.cache_hit is True
    assert _strip(repaired) == _strip(cold)


def test_valid_snapshot_for_wrong_network_falls_back_cold(warm_dir,
                                                          tmp_path):
    """A checksum-valid payload that fails restore validation (here: a
    different topology planted under the right key) warns and settles
    cold instead of crashing or half-applying."""
    spec = _spec()
    cold = run_scenario(spec)
    path = _single_entry(warm_dir)
    payload = decode_snapshot(open(path, "rb").read())
    payload["network"]["nodes"] = payload["network"]["nodes"][:-1]
    with open(path, "wb") as fh:
        fh.write(encode_snapshot(payload))
    with pytest.warns(WarmCacheWarning):
        fallback = run_scenario(spec)
    assert fallback.cache_hit is False
    assert _strip(fallback) == _strip(cold)


@pytest.mark.parametrize("storage", ["columnar", "numpy"])
@pytest.mark.parametrize("schedule", ["sync", "independent"])
def test_contexts_reused_across_backward_restore(schedule, storage):
    """Both schedulers keep their columnar contexts across ``run()``
    calls, and each context memoizes its label sentinel on the stores'
    stable epochs.  A network restore between two runs moves the epoch
    backwards; one label write then brings it back to the value the
    memos were taken at, with a different node's label changed.  The
    next run must still read the current labels: registers, alarms and
    counters match a fresh scheduler restored to the same state."""
    from repro.labels.registers import REG_DIST
    from repro.sim.snapshot import capture_network, restore_network
    from repro.verification import make_network
    from repro.verification.verifier import MstVerifierProtocol

    graph = random_connected_graph(30, 40, seed=3)

    def build():
        net = make_network(graph)
        if schedule == "sync":
            return net, SynchronousScheduler(
                net, MstVerifierProtocol(synchronous=True),
                storage=storage)
        return net, AsynchronousScheduler(
            net, MstVerifierProtocol(synchronous=False),
            ConflictFreeDaemon(graph, seed=DAEMON_SEED), storage=storage)

    def counters(sched):
        return (sched.rounds, getattr(sched, "activations", None),
                getattr(sched, "steps_skipped", None))

    net, sched = build()
    sched.run(8)
    saved = capture_network(net)
    epoch = net.columns.stable_epoch
    # two nodes at distance >= 3, so no closed neighbourhood holds both
    nodes = graph.nodes()
    x = nodes[0]
    near = {x} | {w for u in graph.neighbors(x)
                  for w in (u, *graph.neighbors(u))}
    y = next(v for v in nodes if v not in near)
    net.registers[x][REG_DIST] += 1
    sched.run(3)
    assert net.has_alarm()
    restore_network(net, saved)
    assert net.columns.stable_epoch == epoch
    net.registers[y][REG_DIST] += 1
    assert net.columns.stable_epoch == epoch + 1
    state = capture_run_state(net, sched, 8)
    sched.run(3)

    fresh_net, fresh = build()
    restore_run_state(fresh_net, fresh, state)
    fresh.run(3)
    assert net.alarms() == fresh_net.alarms()
    assert y in net.alarms()
    assert counters(sched) == counters(fresh)
    assert {v: dict(r) for v, r in net.registers.items()} == \
        {v: dict(r) for v, r in fresh_net.registers.items()}
