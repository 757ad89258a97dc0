"""Sustained-churn events and re-stabilization tracking (ROADMAP 4(b)).

Every fault recipe elsewhere in the repo is a one-shot register hit on a
frozen topology.  This module makes the topology itself a fault axis: a
:class:`ChurnScript` is a deterministic, seed-derived stream of
``crash(node)`` / ``rejoin(node)`` / ``reweight(edge)`` events, and
:func:`run_with_churn` drives a scheduler through it, measuring — per
event — how the verifier *re*-stabilizes:

* ``rounds_to_redetect`` — rounds until some node raises an alarm after
  the event (None: the event went undetected within its window; benign
  events, like a non-tree edge reweight, *should* go undetected);
* ``rounds_to_quiesce`` — rounds until the protocol's settle predicate
  holds alarm-free after the event (None: never within the window, or
  the protocol has no settle predicate);
* ``alarms_per_event`` — alarming nodes at the detection point;
* ``availability`` — fraction of alarm-free rounds across all windows.

Event semantics:

* ``crash(v)`` removes the node from the graph (survivor ports are
  tombstoned, never renumbered — labels bake port numbers in) and from
  the storage backend (columnar rows are parked on a freelist, columns
  never change length).  At most one node is down at a time, and the
  victim is never a cut vertex, so the surviving network stays
  connected.
* ``rejoin(v)`` restores the node's edges at their exact original ports
  and wakes the node up *wiped*: only its stable (label) registers are
  restored — the marker's labels are part of the input assignment — and
  ``init_node`` rebuilds the working registers from scratch.
* ``reweight(u, v, w)`` bumps a non-MST edge to a fresh distinct weight
  strictly above every existing one.  This preserves the unique MST, so
  a sound verifier must *not* alarm — the reweight windows double as a
  false-alarm immunity check.

Fencing: events apply strictly *between* ``scheduler.run()`` calls.
Run boundaries already fence super-batch coalescing (every run
rebuilds contexts and re-snapshots); the scheduler's ``topology_changed()`` adds the cross-run invalidation —
adjacency maps, daemon ball memos and in-flight sweeps, round-coverage
sets, fused-ops identities, and the protocol's label-derived verdict
caches (via a forced re-bind).

Determinism: scripts derive only from the graph and the seed; the
driver's metrics are pure round/alarm-count arithmetic over quantities
the storage-differential matrices already prove backend-equal, so a
churn run is bit-for-bit identical on dict, columnar, and numpy
storage.  Callers that run one script against several backends must
hand each run its own ``graph.copy()`` — the driver mutates the
network's graph in place.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..graphs.weighted import GraphError, NodeId, WeightedGraph, edge_key
from .network import Network
from .registers import ALARM, compile_schema, is_ghost

__all__ = ["ChurnEvent", "ChurnScript", "ChurnReport", "run_with_churn",
           "clear_alarms"]


class ChurnEvent:
    """One topology event: ``kind`` is ``"crash"``, ``"rejoin"`` or
    ``"reweight"``; ``mark`` is the event's position in the script.
    Crash/rejoin carry ``node``; reweight carries ``edge`` (canonical
    ``(u, v)``) and the new ``weight``."""

    __slots__ = ("mark", "kind", "node", "edge", "weight")

    def __init__(self, mark: int, kind: str,
                 node: Optional[NodeId] = None,
                 edge: Optional[Tuple[NodeId, NodeId]] = None,
                 weight: Any = None) -> None:
        self.mark = mark
        self.kind = kind
        self.node = node
        self.edge = edge
        self.weight = weight

    def key(self) -> tuple:
        return (self.mark, self.kind, self.node, self.edge, self.weight)

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, ChurnEvent) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        if self.kind == "reweight":
            return (f"ChurnEvent({self.mark}, reweight, edge={self.edge}, "
                    f"weight={self.weight!r})")
        return f"ChurnEvent({self.mark}, {self.kind}, node={self.node})"


def _articulation_points(graph: WeightedGraph) -> set:
    """Cut vertices of a connected graph (iterative Tarjan DFS)."""
    nodes = graph.nodes()
    if not nodes:
        return set()
    disc: Dict[NodeId, int] = {}
    low: Dict[NodeId, int] = {}
    parent: Dict[NodeId, Optional[NodeId]] = {}
    cuts: set = set()
    timer = 0
    for root in nodes:
        if root in disc:
            continue
        parent[root] = None
        stack: List[Tuple[NodeId, int]] = [(root, 0)]
        disc[root] = low[root] = timer = timer + 1
        root_children = 0
        order: List[NodeId] = [root]
        while stack:
            v, i = stack[-1]
            nbrs = graph.neighbors(v)
            if i < len(nbrs):
                stack[-1] = (v, i + 1)
                u = nbrs[i]
                if u not in disc:
                    parent[u] = v
                    if v == root:
                        root_children += 1
                    disc[u] = low[u] = timer = timer + 1
                    stack.append((u, 0))
                    order.append(u)
                elif u != parent[v]:
                    if disc[u] < low[v]:
                        low[v] = disc[u]
            else:
                stack.pop()
                p = parent[v]
                if p is not None:
                    if low[v] < low[p]:
                        low[p] = low[v]
                    if p != root and low[v] >= disc[p]:
                        cuts.add(p)
        if root_children > 1:
            cuts.add(root)
    return cuts


def _mst_edges(graph: WeightedGraph) -> set:
    """The unique MST's edge set (Kruskal; weights must be distinct)."""
    parent: Dict[NodeId, NodeId] = {v: v for v in graph.nodes()}

    def find(v: NodeId) -> NodeId:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    tree: set = set()
    for u, v, _w in sorted(graph.edges(), key=lambda e: e[2]):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.add(edge_key(u, v))
    return tree


class ChurnScript:
    """A deterministic, seed-derived event stream over one graph.

    :meth:`generate` draws events with ``random.Random(seed)`` against a
    scratch copy of the graph, so the same (graph, seed, params) always
    yields the identical stream — the determinism the storage
    differential matrices rely on.  Invariants enforced:

    * at most one node is down at any point, and every ``crash`` is
      immediately followed by its ``rejoin`` (next event), so a stub's
      neighbours are always present at restore time;
    * crash victims are never cut vertices (survivors stay connected)
      and never drop the live node count below 4;
    * reweights touch only non-MST int-weighted edges, with fresh
      weights strictly above every existing one — weight distinctness
      and the unique MST are preserved.
    """

    __slots__ = ("events", "seed")

    def __init__(self, events: Sequence[ChurnEvent], seed: int) -> None:
        self.events: Tuple[ChurnEvent, ...] = tuple(events)
        self.seed = seed

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def key(self) -> tuple:
        return tuple(e.key() for e in self.events)

    @classmethod
    def generate(cls, graph: WeightedGraph, seed: int, events: int = 6,
                 crash: bool = True, reweight: bool = True) -> "ChurnScript":
        rng = random.Random(seed)
        work = graph.copy()
        pool: List[Tuple[NodeId, NodeId]] = []
        if reweight:
            weights = [w for _, _, w in work.edges()]
            if weights and all(isinstance(w, int) and
                               not isinstance(w, bool) for w in weights):
                tree = _mst_edges(work)
                pool = sorted(e for e in (edge_key(u, v)
                                          for u, v, _ in work.edges())
                              if e not in tree)
        next_weight = (max((w for _, _, w in work.edges()), default=0) + 1
                       if pool else None)
        out: List[ChurnEvent] = []
        down: Optional[NodeId] = None
        stub: Optional[dict] = None
        while len(out) < events:
            if down is not None:
                out.append(ChurnEvent(len(out), "rejoin", node=down))
                work.restore_node(down, stub)
                down = stub = None
                continue
            kinds: List[str] = []
            if crash and work.n >= 5:
                kinds.append("crash")
            if pool:
                kinds.append("reweight")
            if not kinds:
                break
            kind = rng.choice(kinds)
            if kind == "crash":
                cuts = _articulation_points(work)
                cands = [v for v in work.nodes() if v not in cuts]
                if not cands:
                    if not pool:
                        break
                    kind = "reweight"
                else:
                    victim = rng.choice(cands)
                    stub = work.remove_node(victim)
                    down = victim
                    out.append(ChurnEvent(len(out), "crash", node=victim))
                    continue
            u, v = rng.choice(pool)
            w = next_weight
            next_weight += 1
            work.set_weight(u, v, w)
            out.append(ChurnEvent(len(out), "reweight", edge=(u, v),
                                  weight=w))
        if down is not None:
            # never leave a node down past the script's end
            out.append(ChurnEvent(len(out), "rejoin", node=down))
        return cls(out, seed)


class ChurnReport:
    """Per-event re-stabilization metrics of one churned run."""

    __slots__ = ("events", "rounds", "redetect", "quiesce", "alarms",
                 "availability")

    def __init__(self, events: Tuple[tuple, ...], rounds: int,
                 redetect: Tuple[Optional[int], ...],
                 quiesce: Tuple[Optional[int], ...],
                 alarms: Tuple[int, ...], availability: float) -> None:
        #: the executed events' keys (mark, kind, node, edge, weight)
        self.events = events
        #: total rounds driven across all event windows
        self.rounds = rounds
        self.redetect = redetect
        self.quiesce = quiesce
        self.alarms = alarms
        self.availability = availability

    def as_tuple(self) -> tuple:
        return (self.events, self.rounds, self.redetect, self.quiesce,
                self.alarms, self.availability)


def clear_alarms(network: Network) -> None:
    """Reset latched alarms (the operator acknowledging an alert): the
    alarm register is written back to None at every alarming node, on
    any storage backend."""
    for v in list(network.alarms()):
        network.registers[v][ALARM] = None


def _stable_names(protocol) -> Optional[List[str]]:
    """The protocol's stable (label) register names — what survives a
    node's crash, the way the marker's input assignment does.  None for
    schema-less protocols (everything non-ghost survives)."""
    schema = protocol.register_schema()
    if schema is None:
        return None
    compiled = compile_schema(schema)
    return [n for n, s in zip(compiled.names, compiled.stable_mask) if s]


def run_with_churn(network: Network, scheduler, protocol,
                   script: ChurnScript, window: int,
                   settled: Optional[Callable[[Network], bool]] = None
                   ) -> ChurnReport:
    """Drive ``scheduler`` through ``script``, running up to ``window``
    rounds after each event and measuring re-stabilization.

    Per event: apply it, call ``scheduler.topology_changed()``, then run
    until the first alarm (``rounds_to_redetect``; None if the window
    passes alarm-free), record the alarming nodes, clear the latch, and
    spend the window's remainder re-settling — re-clearing any further
    alarms — until ``settled(network)`` holds alarm-free
    (``rounds_to_quiesce``) or the window is exhausted.  Once settled,
    the window's tail is not simulated (a settled protocol's rounds are
    no-ops) but counts as available.

    Round accounting: asynchronous schedulers stop mid-round when the
    stop condition fires between activations and report only *completed*
    rounds, so a run that stopped on an alarm is charged
    ``max(rounds, 1)`` against the window (the partial round happened);
    that round counts as unavailable.  A benign event (no alarm, settle
    predicate held before and after its window) reports
    ``rounds_to_quiesce = 0``.

    The caller owns initial settling; the network's graph is mutated in
    place.
    """
    if window < 1:
        raise ValueError("churn window must be >= 1 round")
    stable = _stable_names(protocol)
    down: Dict[NodeId, dict] = {}
    redetect: List[Optional[int]] = []
    quiesce: List[Optional[int]] = []
    alarms: List[int] = []
    executed: List[tuple] = []
    total_rounds = 0
    avail_rounds = 0

    def alarm_free(n: int, ended_alarmed: bool) -> int:
        # a run that stopped on an alarm spent its final round alarmed
        return n - 1 if ended_alarmed else n

    for event in script:
        if event.kind == "crash":
            down[event.node] = network.remove_node(event.node)
        elif event.kind == "rejoin":
            stub = down.pop(event.node)
            network.add_node(event.node, stub)
            regs = stub["registers"]
            view = network.registers[event.node]
            if stable is None:
                for name in sorted(regs):
                    if not is_ghost(name) and name != ALARM:
                        view[name] = regs[name]
            else:
                for name in stable:
                    if name in regs:
                        view[name] = regs[name]
            protocol.init_node(network.local_context(event.node))
        elif event.kind == "reweight":
            u, v = event.edge
            network.graph.set_weight(u, v, event.weight)
        else:
            raise GraphError(f"unknown churn event kind {event.kind!r}")
        scheduler.topology_changed()
        executed.append(event.key())
        pre_settled = settled is not None and settled(network)

        det = scheduler.run(window, stop_when=_first_alarm)
        detected = network.has_alarm()
        # a mid-round async stop reports 0 completed rounds; the partial
        # round happened, so charge it as one
        det_rounds = max(det, 1) if detected else det
        total_rounds += det_rounds
        avail_rounds += alarm_free(det_rounds, detected)
        redetect.append(det_rounds if detected else None)
        alarms.append(len(network.alarms()) if detected else 0)
        clear_alarms(network)

        spent = det_rounds
        settled_at: Optional[int] = None
        if not detected and settled is not None and settled(network):
            settled_at = 0 if pre_settled else det_rounds
        stop = (_settle_stop if settled is None
                else _settle_or_alarm(settled))
        while settled_at is None and spent < window:
            q = scheduler.run(window - spent, stop_when=stop)
            realarmed = network.has_alarm()
            q_rounds = max(q, 1) if realarmed else q
            spent += q_rounds
            total_rounds += q_rounds
            avail_rounds += alarm_free(q_rounds, realarmed)
            if realarmed:
                clear_alarms(network)
                continue
            if settled is not None and settled(network):
                settled_at = spent
                # the settled tail is alarm-free by determinism; count
                # it without simulating no-op rounds
                avail_rounds += window - spent
                total_rounds += window - spent
            elif q == 0:
                break  # no progress and nothing left to wait for
        quiesce.append(settled_at)

    return ChurnReport(tuple(executed), total_rounds, tuple(redetect),
                       tuple(quiesce), tuple(alarms),
                       (avail_rounds / total_rounds) if total_rounds
                       else 1.0)


def _first_alarm(network: Network) -> bool:
    return network.has_alarm()


def _settle_stop(network: Network) -> bool:
    # no settle predicate: the remainder window only watches for alarms
    return network.has_alarm()


def _settle_or_alarm(settled: Callable[[Network], bool]
                     ) -> Callable[[Network], bool]:
    def stop(network: Network) -> bool:
        return network.has_alarm() or settled(network)
    return stop
