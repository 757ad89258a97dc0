"""Scenario execution: registries for every axis, and ``run_scenario``.

Each axis of a :class:`~repro.engine.spec.ScenarioSpec` resolves against
a registry in this module:

* :data:`TOPOLOGIES` — graph families (``random``, ``path``, ``star``,
  ``ring``, ``grid``, ``caterpillar``, ``tree``, ``geometric``);
* :data:`FAULTS` — fault recipes, either *injection* recipes applied to
  a settled network (``corrupt``, ``scramble``, ``piece_lie``) or
  *labeling* adversaries installed from a cold start (``label_swap``),
  plus ``none`` for completeness runs;
* :data:`SCHEDULES` — the synchronous scheduler or an asynchronous
  daemon (``sync``, ``round_robin``, ``permutation``, ``random``,
  ``slow_nodes``, ``locality`` — the neighbourhood-batching daemon —
  ``independent`` — the conflict-free daemon whose disjoint
  closed-neighbourhood batches license asynchronous bulk fusion — and
  ``tiled`` — the hybrid daemon that sweeps distance-2 tiles and
  partitions each tile into conflict-free sub-batches);
  every schedule accepts the implementation parameter
  ``storage="columnar"|"numpy"|"dict"`` selecting the register backend
  (``"schema"`` is a deprecated alias of the default, ``"columnar"``);
* :data:`PROTOCOLS` — the verifier under test (``verifier``, ``hybrid``,
  ``sqlog``).

New axis values register with :func:`register_topology`,
:func:`register_fault`, :func:`register_schedule`, or
:func:`register_protocol`; campaign definitions then name them like any
built-in.  Instances (graph + honest marker) are memoized per process,
so campaign workers amortize marker construction across the scenarios
that share a topology.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from functools import lru_cache
from random import Random
from typing import Any, Callable, Dict, Optional, Tuple

from ..baselines.pls_sqlog import SqLogPlsProtocol, sqlog_labels
from ..graphs.generators import (bounded_degree_graph, caterpillar_graph,
                                 grid_graph, path_graph,
                                 random_connected_graph,
                                 random_geometric_graph, random_tree,
                                 ring_graph, star_graph)
from ..graphs.mst_reference import kruskal_mst
from ..graphs.weighted import NodeId, WeightedGraph
from ..sim.churn import ChurnScript, run_with_churn
from ..sim.faults import FaultInjector, detection_distance
from ..sim.network import Network, Protocol, first_alarm
from ..sim.schedulers import (STORAGE_ALIASES, STORAGE_DEFAULT,
                              STORAGE_KINDS, AsynchronousScheduler,
                              ConflictFreeDaemon, LocalityBatchDaemon,
                              PermutationDaemon, RandomDaemon,
                              RoundRobinDaemon, SlowNodesDaemon,
                              SynchronousScheduler, TiledConflictFreeDaemon)
from ..trains.budgets import Budgets, compute_budgets
from ..trains.comparison import rotation_settled
from ..verification.adversary import (labels_for_claimed_tree,
                                      lie_about_used_piece,
                                      swap_one_mst_edge)
from ..verification.hybrid import HybridVerifierProtocol, hybrid_labels
from ..verification.marker import MarkerOutput, run_marker
from ..sim.snapshot import (SnapshotError, capture_run_state,
                            restore_run_state)
from ..verification.verifier import MstVerifierProtocol
from .spec import Axis, ScenarioSpec
from .warmcache import (WarmCacheWarning, get_warm_cache,
                        mark_fault_semantic, warm_key)


class ScenarioError(ValueError):
    """A spec that cannot be executed (unknown kind, bad parameters)."""


# ---------------------------------------------------------------------------
# topology registry
# ---------------------------------------------------------------------------

TOPOLOGIES: Dict[str, Callable[..., WeightedGraph]] = {}


def register_topology(kind: str,
                      build: Callable[..., WeightedGraph]) -> None:
    """Register ``build(seed=..., **params) -> WeightedGraph``."""
    TOPOLOGIES[kind] = build


register_topology(
    "random", lambda seed, n=16, extra=None: random_connected_graph(
        n, (2 * n) if extra is None else extra, seed=seed))
register_topology("path", lambda seed, n=16: path_graph(n, seed=seed))
register_topology("star", lambda seed, n=12: star_graph(n, seed=seed))
register_topology("ring", lambda seed, n=12: ring_graph(n, seed=seed))
register_topology(
    "grid", lambda seed, rows=4, cols=4: grid_graph(rows, cols, seed=seed))
register_topology(
    "caterpillar", lambda seed, spine=4, legs=2: caterpillar_graph(
        spine, legs, seed=seed))
register_topology("tree", lambda seed, n=16: random_tree(n, seed=seed))
register_topology(
    "geometric", lambda seed, n=24, radius=0.35: random_geometric_graph(
        n, radius, seed=seed))
register_topology(
    "bounded_degree", lambda seed, n=16, degree=4: bounded_degree_graph(
        n, degree, seed=seed))


def _subdivided_graph(seed, base_n=80, extra=130, tau=2) -> WeightedGraph:
    """The Section-9 lower-bound instances as a topology family: a
    random connected base graph with every edge replaced by a
    ``2 tau + 2``-node path (Figure 10's weight placement), re-weighted
    with the verification-safe distinct-weight rule so the honest
    marker can run on it.  ``n`` grows by ~``2 tau`` per base edge, so
    modest bases reach the 10k+-node scale the KMW-style sweeps want
    (``kmw_sweep_campaign``)."""
    from ..graphs.weights import ensure_distinct_weights
    from ..lowerbound.transform import lift_tree, subdivide
    g = random_connected_graph(base_n, extra, seed=seed)
    mst = kruskal_mst(g)
    sub = subdivide(g, tau, tree_edges=mst)
    return ensure_distinct_weights(sub.graph, lift_tree(sub, mst))


register_topology("subdivided", _subdivided_graph)


def _paper_graph(seed) -> WeightedGraph:
    """The fixed 18-node example of Figures 1-3 (deterministic: the
    seed is ignored, so every scenario on this topology shares the
    memoized instance and marker)."""
    from ..graphs.paper_example import build_paper_graph
    return build_paper_graph()


register_topology("paper", _paper_graph)


# ---------------------------------------------------------------------------
# protocol registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProtocolEntry:
    """How to build a protocol and its labels, and when it is settled."""

    make: Callable[[bool, dict], Protocol]
    #: rewrite a (possibly adversarial) marker output into this
    #: protocol's label assignment.
    labels: Callable[[WeightedGraph, MarkerOutput], Dict[NodeId, dict]]
    #: steady-state predicate for the settle phase (None: rely on the
    #: settle budget alone).
    settled: Optional[Callable[[Network], bool]] = None


PROTOCOLS: Dict[str, ProtocolEntry] = {}


def register_protocol(kind: str, entry: ProtocolEntry) -> None:
    PROTOCOLS[kind] = entry


def _no_params(kind: str, params: dict) -> None:
    """Axis kinds without parameters must reject them loudly — a typo'd
    or misplaced parameter silently running with defaults would poison a
    whole sweep."""
    if params:
        raise ScenarioError(
            f"{kind!r} accepts no parameters, got {sorted(params)}")


def _make_sqlog(synchronous: bool, params: dict) -> Protocol:
    _no_params("sqlog", params)
    return SqLogPlsProtocol()


register_protocol("verifier", ProtocolEntry(
    make=lambda synchronous, params: MstVerifierProtocol(
        synchronous=synchronous, **params),
    labels=lambda graph, marker: marker.labels,
    settled=rotation_settled,
))
register_protocol("hybrid", ProtocolEntry(
    make=lambda synchronous, params: HybridVerifierProtocol(
        synchronous=synchronous, **params),
    labels=lambda graph, marker: hybrid_labels(marker),
    settled=rotation_settled,
))
register_protocol("sqlog", ProtocolEntry(
    make=_make_sqlog,
    labels=lambda graph, marker: sqlog_labels(graph, marker.hierarchy),
    settled=None,
))


# ---------------------------------------------------------------------------
# schedule registry
# ---------------------------------------------------------------------------

#: kind -> (is_synchronous, factory(network, protocol, params, seed))
SCHEDULES: Dict[str, Tuple[bool, Callable[..., Any]]] = {}


def register_schedule(kind: str, synchronous: bool,
                      factory: Callable[..., Any]) -> None:
    SCHEDULES[kind] = (synchronous, factory)


def _storage_flag(kind: str, params: dict) -> str:
    """Pop the ``storage`` schedule parameter: ``"columnar"`` (the
    default) backs the network with the packed column store
    (:mod:`repro.sim.columnar`), ``"numpy"`` with the vectorized numpy
    column tier (:mod:`repro.sim.npcolumnar`; falls back to columnar
    with a warning when numpy is absent), and ``"dict"`` forces the
    per-node dict store (the reference representation the differential
    tests compare against).  The retired ``"schema"`` passes through to
    the scheduler, which runs it on columnar with a deprecation
    warning."""
    storage = params.pop("storage", STORAGE_DEFAULT)
    if storage not in STORAGE_KINDS and storage not in STORAGE_ALIASES:
        raise ScenarioError(
            f"{kind!r}: unknown storage {storage!r} "
            f"(expected one of {STORAGE_KINDS})")
    return storage


def _make_sync(net: Network, proto: Protocol, params: dict, seed: int):
    params = dict(params)
    fast_path = params.pop("fast_path", True)
    bulk = params.pop("bulk", True)
    storage = _storage_flag("sync", params)
    _no_params("sync", params)
    return SynchronousScheduler(net, proto, fast_path=fast_path,
                                storage=storage, bulk=bulk)


def _slow_nodes_daemon(network: Network, params: dict, seed: int):
    count = params.pop("count", 2)
    slowdown = params.pop("slowdown", 3)
    nodes = network.graph.nodes()
    slow = Random(seed).sample(nodes, min(count, len(nodes)))
    return SlowNodesDaemon(slow, slowdown, seed=seed)


#: asynchronous schedule kind -> daemon builder(network, params, seed);
#: a builder pops the schedule parameters it takes
_DAEMON_BUILDERS: Dict[str, Callable[..., Any]] = {
    "round_robin": lambda net, params, seed: RoundRobinDaemon(),
    "permutation": lambda net, params, seed: PermutationDaemon(seed=seed),
    "random": lambda net, params, seed: RandomDaemon(seed=seed),
    "slow_nodes": _slow_nodes_daemon,
    "locality": lambda net, params, seed:
        LocalityBatchDaemon(net.graph, seed=seed),
    "independent": lambda net, params, seed:
        ConflictFreeDaemon(net.graph, seed=seed),
    "tiled": lambda net, params, seed:
        TiledConflictFreeDaemon(net.graph, seed=seed),
}


def _async_factory(kind: str) -> Callable[..., Any]:
    """The schedule factory of an asynchronous ``kind``: the scheduler
    flags every kind takes (``storage``, ``dirty_aware``, ``bulk``),
    then the daemon from its builder, which takes the rest."""
    build = _DAEMON_BUILDERS[kind]

    def factory(net: Network, proto: Protocol, params: dict, seed: int):
        params = dict(params)
        storage = _storage_flag(kind, params)
        dirty_aware = params.pop("dirty_aware", True)
        bulk = params.pop("bulk", True)
        daemon = build(net, params, seed)
        _no_params(kind, params)
        return AsynchronousScheduler(net, proto, daemon, storage=storage,
                                     dirty_aware=dirty_aware, bulk=bulk)

    return factory


register_schedule("sync", True, _make_sync)
for _kind in _DAEMON_BUILDERS:
    register_schedule(_kind, False, _async_factory(_kind))


# ---------------------------------------------------------------------------
# fault registry
# ---------------------------------------------------------------------------

MODE_NONE = "none"
MODE_INJECT = "inject"
MODE_LABELING = "labeling"
MODE_CHURN = "churn"


@dataclass(frozen=True)
class FaultEntry:
    """A fault recipe: its mode and how to apply it."""

    mode: str
    #: injection recipes: apply(network, injector, params) after settling.
    inject: Optional[Callable[[Network, FaultInjector, dict], None]] = None
    #: labeling recipes: marker(graph, params, seed) -> adversarial
    #: MarkerOutput installed from a cold start.
    marker: Optional[Callable[[WeightedGraph, dict, int],
                              MarkerOutput]] = None


FAULTS: Dict[str, FaultEntry] = {}


def register_fault(kind: str, entry: FaultEntry) -> None:
    FAULTS[kind] = entry


def _inject_corrupt(net: Network, inj: FaultInjector, params: dict) -> None:
    inj.corrupt_random_nodes(params.get("count", 1),
                             fraction=params.get("fraction", 0.5))


def _inject_scramble(net: Network, inj: FaultInjector,
                     params: dict) -> None:
    nodes = net.graph.nodes()
    for v in inj.rng.sample(nodes, min(params.get("count", 1), len(nodes))):
        inj.scramble_node(v)


def _inject_piece_lie(net: Network, inj: FaultInjector,
                      params: dict) -> None:
    """The stored-piece minimality lie (the hardest detectable fault
    class: only the train comparisons can catch it)."""
    try:
        lie_about_used_piece(net, inj)
    except LookupError as exc:
        raise ScenarioError(str(exc)) from None


def _label_swap_marker(graph: WeightedGraph, params: dict,
                       seed: int) -> MarkerOutput:
    wrong = swap_one_mst_edge(graph, kruskal_mst(graph))
    if wrong is None:
        raise ScenarioError(
            "label_swap needs a non-tree edge (tree topologies have a "
            "unique spanning tree)")
    return labels_for_claimed_tree(graph, wrong)


#: topology kinds that generate trees (no non-tree edge to swap in).
TREE_TOPOLOGY_KINDS = {"path", "star", "tree", "caterpillar"}


def spec_is_satisfiable(spec: ScenarioSpec) -> bool:
    """Whether the axis combination is meaningful at all.

    ``label_swap`` swaps an MST edge for a non-tree edge, which tree
    topologies do not have; grid builders drop such cells instead of
    reporting them as scenario errors.
    """
    return not (spec.fault.kind == "label_swap"
                and spec.topology.kind in TREE_TOPOLOGY_KINDS)


register_fault("none", FaultEntry(mode=MODE_NONE))
register_fault("corrupt", FaultEntry(mode=MODE_INJECT,
                                     inject=_inject_corrupt))
register_fault("scramble", FaultEntry(mode=MODE_INJECT,
                                      inject=_inject_scramble))
register_fault("piece_lie", FaultEntry(mode=MODE_INJECT,
                                       inject=_inject_piece_lie))
register_fault("label_swap", FaultEntry(mode=MODE_LABELING,
                                        marker=_label_swap_marker))
# the sustained-churn fault axis (ROADMAP 4(b)): settle on honest
# labels, then drain a seed-derived crash/rejoin/reweight event stream
# (repro.sim.churn) while measuring per-event re-stabilization.
# Parameters: events (count), window (rounds budget per event; default
# budgets.cycle), crash / reweight (event-kind gates).  All of them are
# semantic for warm-cache keys — churned cells must never alias
# static-topology settle snapshots.
register_fault("churn", FaultEntry(mode=MODE_CHURN))
mark_fault_semantic("churn")


#: the axis kinds registered by *importing this module* — what a
#: freshly spawned worker process will know about.  Kinds registered at
#: runtime (tests, notebooks, bespoke sweeps) exist only in the parent
#: process; under the ``spawn``/``forkserver`` start methods the worker
#: re-imports the registries and the runtime entries are simply absent,
#: which used to surface as an opaque ``KeyError`` deep inside the
#: pool.  The runner consults this snapshot to fail fast instead
#: (:func:`runtime_registered_axes`).
BUILTIN_AXIS_KINDS: Dict[str, frozenset] = {
    "topology": frozenset(TOPOLOGIES),
    "fault": frozenset(FAULTS),
    "schedule": frozenset(SCHEDULES),
    "protocol": frozenset(PROTOCOLS),
}


def runtime_registered_axes(specs) -> Dict[str, list]:
    """``role -> sorted kinds`` used by ``specs`` but registered after
    import (absent from :data:`BUILTIN_AXIS_KINDS`) — the axis values a
    spawned worker cannot resolve."""
    rogue: Dict[str, set] = {}
    for spec in specs:
        for role in ("topology", "fault", "schedule", "protocol"):
            kind = getattr(spec, role).kind
            if kind not in BUILTIN_AXIS_KINDS[role]:
                rogue.setdefault(role, set()).add(kind)
    return {role: sorted(kinds) for role, kinds in sorted(rogue.items())}


# ---------------------------------------------------------------------------
# instance cache (per process)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _graph_for(topo: Axis, seed: int) -> WeightedGraph:
    try:
        build = TOPOLOGIES[topo.kind]
    except KeyError:
        raise ScenarioError(f"unknown topology kind {topo.kind!r}") from None
    return build(seed=seed, **topo.param_dict())


@lru_cache(maxsize=128)
def _honest_marker(topo: Axis, seed: int) -> MarkerOutput:
    return run_marker(_graph_for(topo, seed))


@lru_cache(maxsize=128)
def _adversarial_marker(topo: Axis, seed: int, flt: Axis,
                        fault_seed: int) -> MarkerOutput:
    graph = _graph_for(topo, seed)
    return FAULTS[flt.kind].marker(graph, flt.param_dict(), fault_seed)


def clear_instance_cache() -> None:
    """Drop memoized graphs/markers (tests, long-lived workers)."""
    _graph_for.cache_clear()
    _honest_marker.cache_clear()
    _adversarial_marker.cache_clear()


def _topology_seed(spec: ScenarioSpec) -> int:
    if spec.topology_seed is not None:
        return spec.topology_seed
    return spec.derived_seed("topology")


def graph_for(spec: ScenarioSpec) -> WeightedGraph:
    """The exact graph instance ``run_scenario(spec)`` executes on.

    Public so benchmarks can compute baseline metrics on the same
    instance without re-deriving the engine's seeding internally.
    """
    return _graph_for(spec.topology, _topology_seed(spec))


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

VIOLATION_COMPLETENESS = "completeness"
VIOLATION_SOUNDNESS = "soundness"

#: terminal execution statuses — every scenario of a finished campaign
#: carries exactly one, never an implicit "missing":
#:
#: * ``ok`` — ran to completion (possibly after supervised retries);
#: * ``error`` — raised inside the worker (deterministic, not retried);
#: * ``timeout`` — exceeded its per-cell wall-clock deadline and was
#:   terminated (terminal when the timeout attempt budget is 1);
#: * ``crashed`` — its worker process died mid-run (OOM kill,
#:   preemption; terminal when the crash attempt budget is 1);
#: * ``quarantined`` — a retryable failure exhausted a multi-attempt
#:   budget: the supervisor parks the cell so the sweep continues, and
#:   ``--resume`` will not re-run it (``error_type`` records the last
#:   failure kind).
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"
STATUS_CRASHED = "crashed"
STATUS_QUARANTINED = "quarantined"
TERMINAL_STATUSES = (STATUS_OK, STATUS_ERROR, STATUS_TIMEOUT,
                     STATUS_CRASHED, STATUS_QUARANTINED)
FAILURE_STATUSES = frozenset(TERMINAL_STATUSES) - {STATUS_OK}


#: the protocol ``bulk_stats`` keys mirrored onto :class:`ScenarioResult`
#: (an unknown future key is simply not surfaced rather than crashing
#: result assembly)
_BULK_STAT_FIELDS = ("rows_fused", "rows_residual", "rows_scalar")


@dataclass(frozen=True)
class ScenarioResult:
    """Structured outcome of one scenario (picklable, aggregatable)."""

    spec: ScenarioSpec
    n: int = 0
    expected_detection: bool = False
    detected: bool = False
    #: alarm raised before the fault was even injected (a completeness
    #: violation surfaced during the settle phase).
    premature_alarm: bool = False
    settle_rounds: int = 0
    rounds_run: int = 0
    rounds_to_detection: Optional[int] = None
    detection_distance: Optional[int] = None
    max_memory_bits: int = 0
    total_memory_bits: int = 0
    alarm_count: int = 0
    alarm_reasons: Tuple[str, ...] = ()
    faulty_nodes: Tuple[NodeId, ...] = ()
    activations: Optional[int] = None
    #: vector-tier accounting (``None`` when the vector sweep never
    #: ran): rows fused through the vector tier, rows replayed with
    #: partial verdicts (residual), and rows replayed fully scalar.
    rows_fused: Optional[int] = None
    rows_residual: Optional[int] = None
    rows_scalar: Optional[int] = None
    #: churn cells (``fault.kind == "churn"``) only — per-event
    #: re-stabilization metrics from :func:`repro.sim.churn.
    #: run_with_churn`: executed event count, rounds until the first
    #: alarm after each event (``None`` = the event went undetected in
    #: its window, e.g. a benign reweight), rounds until the settle
    #: predicate held alarm-free again (``None`` = never within the
    #: window, or no predicate), alarming nodes at each detection
    #: point, and the alarm-free fraction of all churn rounds.
    churn_events: Optional[int] = None
    rounds_to_redetect: Tuple[Optional[int], ...] = ()
    rounds_to_quiesce: Tuple[Optional[int], ...] = ()
    alarms_per_event: Tuple[int, ...] = ()
    availability: Optional[float] = None
    wall_time: float = 0.0
    #: warm-start cache outcome: ``None`` when no cache was consulted
    #: (no cache active, or the scenario has no settle phase), else
    #: whether the settled state was restored from the cache.
    cache_hit: Optional[bool] = None
    #: settle rounds *not* re-executed thanks to a warm start (0 on a
    #: miss; on a hit equals ``settle_rounds``, which reports the
    #: cached cold run's count so records stay comparable).
    settle_rounds_saved: int = 0
    error: Optional[str] = None
    #: terminal execution status (:data:`TERMINAL_STATUSES`); every
    #: non-``ok`` status also carries a human-readable ``error``.
    status: str = STATUS_OK
    #: exception class name (``error`` status) or the failure kind a
    #: quarantined cell last exhibited (``timeout``/``crashed``).
    error_type: Optional[str] = None
    #: bounded tail of the worker traceback (``error`` status), so the
    #: differ and analytics can group failures by cause without
    #: shipping unbounded text through every record.
    error_trace: Tuple[str, ...] = ()
    #: how many supervised attempts this terminal result took (1 when
    #: the first attempt was terminal — including unsupervised runs).
    attempts: int = 1

    @property
    def violation(self) -> Optional[str]:
        """Which paper property (if any) this scenario falsifies."""
        if self.status != STATUS_OK:
            # the terminal status is the stable category; the free-form
            # message stays in ``error`` for humans
            return self.status
        if self.error is not None:
            return self.error
        if self.premature_alarm:
            return VIOLATION_COMPLETENESS
        if self.expected_detection and not self.detected:
            return VIOLATION_SOUNDNESS
        if not self.expected_detection and self.detected:
            return VIOLATION_COMPLETENESS
        return None

    @property
    def ok(self) -> bool:
        return self.violation is None


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _budgets_for(graph: WeightedGraph, synchronous: bool) -> Budgets:
    return compute_budgets(graph.n, synchronous, degree=graph.max_degree())


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Execute one scenario and measure everything the paper cares about.

    * ``none`` faults: install honest labels, run the completeness budget,
      expect silence;
    * labeling faults: install the adversarial labels from a cold start,
      expect an alarm within the detection budget;
    * injection faults: settle on honest labels (no alarm allowed), apply
      the recipe, expect an alarm within the detection budget.
    """
    start = time.perf_counter()
    try:
        fault_entry = FAULTS[spec.fault.kind]
    except KeyError:
        raise ScenarioError(f"unknown fault kind {spec.fault.kind!r}") \
            from None
    try:
        proto_entry = PROTOCOLS[spec.protocol.kind]
    except KeyError:
        raise ScenarioError(
            f"unknown protocol kind {spec.protocol.kind!r}") from None
    try:
        synchronous, sched_factory = SCHEDULES[spec.schedule.kind]
    except KeyError:
        raise ScenarioError(
            f"unknown schedule kind {spec.schedule.kind!r}") from None

    topo_seed = _topology_seed(spec)
    fault_seed = spec.derived_seed("fault")
    daemon_seed = spec.derived_seed("daemon")

    graph = _graph_for(spec.topology, topo_seed)
    if fault_entry.mode == MODE_CHURN:
        # churn mutates the topology in place; the memoized instance is
        # shared across every scenario of this (topology, seed) cell
        graph = graph.copy()
    budgets = _budgets_for(graph, synchronous)
    max_rounds = spec.max_rounds if spec.max_rounds is not None else (
        budgets.settle + budgets.ask_alarm)

    if fault_entry.mode == MODE_LABELING:
        marker = _adversarial_marker(spec.topology, topo_seed, spec.fault,
                                     fault_seed)
    else:
        marker = _honest_marker(spec.topology, topo_seed)

    network = Network(graph)
    network.install(proto_entry.labels(graph, marker))
    protocol = proto_entry.make(synchronous, spec.protocol.param_dict())
    scheduler = sched_factory(network, protocol, spec.schedule.param_dict(),
                              daemon_seed)

    settle_rounds = 0
    faulty: Tuple[NodeId, ...] = ()
    premature = False
    detected = False
    rounds_to_detection: Optional[int] = None
    dist: Optional[int] = None
    cache_hit: Optional[bool] = None
    settle_saved = 0
    churn_report = None

    if fault_entry.mode == MODE_NONE:
        rounds = spec.completeness_rounds
        if rounds is None:
            rounds = 3 * budgets.cycle + 60 if synchronous \
                else budgets.cycle + 32
        rounds_run = scheduler.run(rounds, stop_when=first_alarm)
        detected = bool(network.alarms())
        expected = False
    elif fault_entry.mode == MODE_LABELING:
        rounds_run = scheduler.run(max_rounds, stop_when=first_alarm)
        detected = bool(network.alarms())
        rounds_to_detection = rounds_run if detected else None
        expected = True
    else:
        churn_params = None
        if fault_entry.mode == MODE_CHURN:
            fp = spec.fault.param_dict()
            events = fp.pop("events", 6)
            window = fp.pop("window", None)
            crash = fp.pop("crash", True)
            reweight = fp.pop("reweight", True)
            if fp:
                raise ScenarioError(
                    f"churn: unknown parameters {sorted(fp)}")
            churn_params = (int(events),
                            budgets.cycle if window is None else int(window),
                            bool(crash), bool(reweight))
        settle_budget = spec.settle_rounds if spec.settle_rounds is not None \
            else budgets.settle
        warm = get_warm_cache()
        wkey = None
        if warm is not None and settle_budget > 0:
            wkey = warm_key(spec, synchronous, settle_budget, topo_seed,
                            daemon_seed)
            cache_hit = False
            payload = warm.load(wkey)
            if payload is not None:
                try:
                    settle_rounds = restore_run_state(network, scheduler,
                                                      payload)
                except SnapshotError as exc:
                    warnings.warn(
                        f"warm-start snapshot for {spec.key} is not "
                        f"restorable ({exc}); settling cold",
                        WarmCacheWarning, stacklevel=2)
                else:
                    cache_hit = True
                    settle_saved = settle_rounds
        if not cache_hit:
            settle_rounds = scheduler.run(settle_budget,
                                          stop_when=proto_entry.settled)
        if network.alarms():
            premature = True
            detected = True
            expected = True
            rounds_run = settle_rounds
        else:
            if wkey is not None and not cache_hit:
                # only alarm-free settled state is cacheable (a restored
                # premature alarm would skip the settle-phase accounting)
                payload = capture_run_state(network, scheduler,
                                            settle_rounds)
                if payload is not None:
                    warm.store(wkey, payload)
            if churn_params is not None:
                events, window, crash, reweight = churn_params
                script = ChurnScript.generate(graph, fault_seed,
                                              events=events, crash=crash,
                                              reweight=reweight)
                churn_report = run_with_churn(network, scheduler, protocol,
                                              script, window=window,
                                              settled=proto_entry.settled)
                rounds_run = churn_report.rounds
                # churn cells are metric-only: alarms are expected,
                # latched, measured, and cleared per event by the
                # driver, so neither soundness nor completeness applies
                detected = bool(network.alarms())
                expected = detected
            else:
                injector = FaultInjector(network, seed=fault_seed)
                fault_entry.inject(network, injector,
                                   spec.fault.param_dict())
                faulty = tuple(injector.faulty_nodes)
                rounds_run = scheduler.run(max_rounds,
                                           stop_when=first_alarm)
                detected = bool(network.alarms())
                rounds_to_detection = rounds_run if detected else None
                dist = detection_distance(network, list(faulty))
                expected = True

    alarms = network.alarms()
    return ScenarioResult(
        spec=spec,
        n=graph.n,
        expected_detection=expected,
        detected=detected,
        premature_alarm=premature,
        settle_rounds=settle_rounds,
        rounds_run=rounds_run,
        rounds_to_detection=rounds_to_detection,
        detection_distance=dist,
        max_memory_bits=network.max_memory_bits(),
        total_memory_bits=network.total_memory_bits(),
        alarm_count=len(alarms),
        alarm_reasons=tuple(sorted(set(alarms.values()))[:3]),
        faulty_nodes=faulty,
        activations=getattr(scheduler, "activations", None),
        churn_events=(len(churn_report.events)
                      if churn_report is not None else None),
        rounds_to_redetect=(churn_report.redetect
                            if churn_report is not None else ()),
        rounds_to_quiesce=(churn_report.quiesce
                           if churn_report is not None else ()),
        alarms_per_event=(churn_report.alarms
                          if churn_report is not None else ()),
        availability=(churn_report.availability
                      if churn_report is not None else None),
        wall_time=time.perf_counter() - start,
        **{k: v for k, v in (getattr(protocol, "bulk_stats", None)
                             or {}).items() if k in _BULK_STAT_FIELDS},
        cache_hit=cache_hit,
        settle_rounds_saved=settle_saved,
    )
