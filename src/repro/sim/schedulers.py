"""Synchronous and asynchronous execution of protocols.

Synchronous model: all nodes step simultaneously each round, reading the
registers their neighbours exposed at the end of the previous round.

Asynchronous model: a *daemon* picks batches of nodes to activate; an
activated node performs one atomic read-all-neighbours/update step against
the live registers.  Time is measured in **asynchronous rounds**: a round
completes when every node has been activated at least once since the
previous round boundary (the standard self-stabilization measure, matching
the paper's strongly fair distributed daemon).

Storage: when the protocol declares a register schema
(:meth:`Protocol.register_schema`) both schedulers back the network with
per-register columns (:meth:`Network.adopt_schema`), bind the protocol's
register names to integer slot handles once, and drive steps through
:class:`~repro.sim.columnar.ColumnarNodeContext`.  The ``storage``
parameter selects the backend: ``"columnar"`` (the default,
:mod:`repro.sim.columnar` — ``array('q')`` nat columns, interning pool,
bulk-copy snapshots); ``"numpy"``, the same columns with vectorized
batch ops (:mod:`repro.sim.npcolumnar`); ``"dict"`` (or an undeclared
protocol) keeps the per-node dict storage, the reference the
differential tests compare against.  The representations are
bit-for-bit equivalent (``tests/test_storage_differential.py``).
``"schema"``, the name of the retired per-node register-file backend,
is accepted as an alias of ``"columnar"`` with a one-time
:class:`DeprecationWarning`.

Bulk-activation plane: both schedulers step nodes only through
:meth:`Protocol.bulk_step`.  The synchronous scheduler hands over whole
rounds of active nodes.  The asynchronous scheduler hands over one
*group* at a time: a :class:`ConflictFreeDaemon` batch is one group
(pairwise disjoint closed neighbourhoods, so live reads cannot observe
a batchmate's write), and every other daemon's batch is one group per
activation.  The scheduler runs each group's skip checks before the
call and its accounting and stop check after it.  On columnar storage
with ``bulk=True`` (the default) the batch carries fused column ops;
``bulk=False`` hands it ``ops=None``, so the protocol steps node by
node.  Both modes are bit-for-bit equivalent
(``tests/test_bulk_plane.py``).  See :mod:`repro.sim.bulk`.
"""

from __future__ import annotations

import random
import warnings
from typing import (Any, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from ..graphs.weighted import NodeId
from .bulk import BulkBatch, ColumnarBulkOps
from .columnar import ColumnarNodeContext
from .network import Network, NodeContext, Protocol, StopCondition

#: storage backends a scheduler can run a schema-declaring protocol on
STORAGE_DICT = "dict"
STORAGE_COLUMNAR = "columnar"
STORAGE_NUMPY = "numpy"
STORAGE_KINDS = (STORAGE_DICT, STORAGE_COLUMNAR, STORAGE_NUMPY)

#: the backend of a scheduler or scenario that names none
STORAGE_DEFAULT = STORAGE_COLUMNAR

#: retired backend names still accepted, and the backend each runs on
#: (old JSONL specs and warm caches name ``schema``)
STORAGE_ALIASES = {"schema": STORAGE_COLUMNAR}

_alias_warned = False


def _storage_mode(storage: Optional[str]) -> str:
    """Normalize the scheduler storage selection (None: the default).
    A retired name runs on its replacement with a once-per-process
    :class:`DeprecationWarning`.  ``numpy`` without numpy installed
    degrades to ``columnar`` with a one-shot warning — the tiers are
    bit-for-bit identical, so both are implementation substitutions,
    never semantic ones."""
    global _alias_warned
    if storage is None:
        return STORAGE_DEFAULT
    if storage in STORAGE_ALIASES:
        if not _alias_warned:
            _alias_warned = True
            warnings.warn(
                f"storage={storage!r} is retired; running on "
                f"storage={STORAGE_ALIASES[storage]!r}",
                DeprecationWarning, stacklevel=3)
        return STORAGE_ALIASES[storage]
    if storage not in STORAGE_KINDS:
        raise ValueError(f"unknown storage {storage!r} "
                         f"(expected one of {STORAGE_KINDS})")
    if storage == STORAGE_NUMPY:
        from .npcolumnar import numpy_or_none, warn_fallback_once
        if numpy_or_none() is None:
            warn_fallback_once()
            return STORAGE_COLUMNAR
    return storage


def _bind_storage(network: Network, protocol: Protocol, storage: str):
    """Adopt the protocol's schema (if any) and bind its handles.

    Returns the compiled schema backing the run, or None for legacy dict
    storage (or an undeclared protocol, which keeps dict storage under
    every mode).  Binding always happens — a protocol previously bound
    to slots by another scheduler must be re-bound to names before a
    dict run."""
    compiled = None
    if storage != STORAGE_DICT:
        schema = protocol.register_schema()
        if schema is not None:
            compiled = network.adopt_schema(
                schema, numpy=storage == STORAGE_NUMPY)
    _bind(protocol, network, compiled)
    return compiled


def _bind(protocol: Protocol, network: Network, compiled) -> None:
    """Bind the protocol's handles and record the storage and the
    network restore count they were bound at."""
    protocol.bind_registers(compiled)
    protocol._storage_binding = (compiled, network.restores)


def _ensure_storage(network: Network, protocol: Protocol,
                    storage: str, compiled):
    """Re-adopt the scheduler's store class if another scheduler
    switched the shared network between columnar and numpy since the
    last run; returns the compiled schema now backing it (``compiled``
    when unchanged)."""
    if compiled is None:
        return None
    from .npcolumnar import NumpyColumnStore
    if (type(network.columns) is NumpyColumnStore) != \
            (storage == STORAGE_NUMPY):
        return _bind_storage(network, protocol, storage)
    return compiled


def _ensure_binding(protocol: Protocol, network: Network,
                    compiled) -> None:
    """Re-bind before running if another scheduler re-bound the protocol
    since construction, or a snapshot was restored into the network
    since the last binding.  Binding clears the protocol's
    label-derived caches, so a protocol shared across
    schedulers/networks (legal, if unusual) never runs with another
    network's handles or serves another network's cached verdicts — at
    the cost of a cache flush per hand-over — and no pool-id cache
    outlives the pool truncation of a restore."""
    bound = getattr(protocol, "_storage_binding", None)
    if bound is None or bound[0] is not compiled or \
            bound[1] != network.restores:
        _bind(protocol, network, compiled)


class SynchronousScheduler:
    """Lock-step rounds over a network (ideal time complexity).

    By default the scheduler runs with a *fast path* that is bit-for-bit
    equivalent to the naive lock-step loop (``fast_path=False``, and
    proven so by ``tests/test_scheduler_equivalence.py``):

    * **dirty-set snapshot** — instead of deep-copying every node's
      registers each round, only the state of nodes whose registers
      actually changed last round is re-copied into the read snapshot
      (on columnar storage the refresh bulk-copies exactly the columns
      that were written);
    * **quiescence skip** — a node whose closed neighbourhood's registers
      were untouched last round would read exactly the inputs of its
      previous step and, since ``Protocol.step`` must be a deterministic
      function of the visible registers, rewrite exactly its current
      state; such nodes are not re-stepped.  When *every* node is
      quiescent the remaining rounds are fast-forwarded in O(1).

    The fast path assumes (a) ``step`` is deterministic in the
    ctx-visible state (all protocols in this repo are — randomness lives
    in the daemons and fault injectors, not the protocols), (b) register
    writes go through the context API, and (c) ``stop_when``
    is a pure function of the network state.  A protocol that overrides
    ``on_round_end`` may mutate registers behind the dirty tracking, so
    it silently falls back to the naive loop.  External register writes
    (fault injection) between ``run()`` calls are always safe: every
    ``run()`` starts from a full snapshot and a full step round.
    """

    def __init__(self, network: Network, protocol: Protocol,
                 fast_path: bool = True,
                 storage: Optional[str] = None,
                 bulk: bool = True) -> None:
        self.network = network
        self.protocol = protocol
        self.rounds = 0
        self._initialized = False
        self.fast_path = bool(fast_path) and (
            type(protocol).on_round_end is Protocol.on_round_end)
        #: bulk-activation plane: license fused column ops on the
        #: rounds handed to ``bulk_step`` (``bulk=False`` hands them
        #: over with ``ops=None``, so the protocol steps node by node)
        self._bulk = bool(bulk)
        self._storage = _storage_mode(storage)
        self._compiled = _bind_storage(network, protocol, self._storage)
        self._adjacency: Optional[Dict[NodeId, List[NodeId]]] = None
        self._snap_store = None
        self._col_contexts = None
        self._bulk_ops = None

    def _neighbors_of(self) -> Dict[NodeId, List[NodeId]]:
        if self._adjacency is None:
            graph = self.network.graph
            self._adjacency = {v: graph.neighbors(v) for v in graph.nodes()}
        return self._adjacency

    def topology_changed(self) -> None:
        """Invalidate every topology-derived cache after a churn event
        (:mod:`repro.sim.churn`): the adjacency map, the columnar
        snapshot/context pair, and the fused batch ops are rebuilt on
        the next ``run()``, and the protocol is re-bound (binding
        clears its label-derived verdict caches, whose stable-version
        keys are not collision-free across a change of read scope).
        Churn events apply *between* ``run()`` calls, which already
        fence the fast path: every run starts from a full snapshot and
        a full step round."""
        self._adjacency = None
        self._snap_store = None
        self._col_contexts = None
        self._bulk_ops = None
        self.protocol._storage_binding = None

    def _columnar_state(self):
        """(snapshot store, per-node contexts), rebuilt when the network's
        column store was replaced (storage switch, re-adoption)."""
        store = self.network.columns
        snap = self._snap_store
        if snap is None or snap.schema is not store.schema or \
                self._col_contexts is None or \
                self._col_contexts[0] is not store:
            snap = store.fork()
            adjacency = self._neighbors_of()
            contexts = {v: ColumnarNodeContext(self.network, v, store, snap,
                                               adjacency[v])
                        for v in self.network.graph.nodes()}
            self._snap_store = snap
            self._col_contexts = (store, contexts)
        return self._snap_store, self._col_contexts[1]

    def _bulk_ops_for(self, store, snap):
        """The fused batch ops for (store, snap), cached so protocols
        can key their fused closures on the ops object's identity."""
        ops = self._bulk_ops
        if ops is None or ops.store is not store or ops.snap is not snap:
            ops = self._bulk_ops = ColumnarBulkOps(store, snap)
        return ops

    def initialize(self) -> None:
        """Run ``init_node`` at every node (idempotent)."""
        if self._initialized:
            return
        if self._compiled is not None:
            snap, contexts = self._columnar_state()
            snap.refresh_from(self.network.columns, full=True)
            for v in self.network.graph.nodes():
                self.protocol.init_node(contexts[v])
        else:
            snapshot = self._snapshot()
            for v in self.network.graph.nodes():
                self.protocol.init_node(NodeContext(self.network, v, snapshot))
        self._initialized = True

    def _snapshot(self):
        return {v: dict(regs) for v, regs in self.network.registers.items()}

    def run(self, max_rounds: int,
            stop_when: Optional[StopCondition] = None) -> int:
        """Run up to ``max_rounds`` rounds; return rounds executed.

        Stops early (after completing a round) when ``stop_when(network)``
        becomes true.
        """
        _ensure_binding(self.protocol, self.network, self._compiled)
        self._compiled = _ensure_storage(self.network, self.protocol,
                                         self._storage, self._compiled)
        self.initialize()
        if self._compiled is not None:
            return self._run_columns(max_rounds, stop_when)
        if self.fast_path:
            return self._run_fast(max_rounds, stop_when)
        executed = 0
        bulk_step = self.protocol.bulk_step
        for _ in range(max_rounds):
            snapshot = self._snapshot()
            bulk_step(BulkBatch([NodeContext(self.network, v, snapshot)
                                 for v in self.network.graph.nodes()]))
            self.rounds += 1
            executed += 1
            self.protocol.on_round_end(self.network, self.rounds)
            if stop_when is not None and stop_when(self.network):
                break
        return executed

    def _run_fast(self, max_rounds: int,
                  stop_when: Optional[StopCondition]) -> int:
        network = self.network
        bulk_step = self.protocol.bulk_step
        nodes = network.graph.nodes()
        neighbors = network.graph.neighbors
        registers = network.registers
        node_order = {v: i for i, v in enumerate(nodes)}
        executed = 0
        snapshot: dict = {}
        # registers may have been rewritten externally since the last call
        # (fault injection, resets): the first round re-snapshots and
        # re-steps everything, exactly like the naive loop.
        changed_prev: Optional[List[NodeId]] = None
        while executed < max_rounds:
            if changed_prev is None:
                snapshot = {v: dict(regs) for v, regs in registers.items()}
                active: Sequence[NodeId] = nodes
            else:
                for v in changed_prev:
                    snapshot[v] = dict(registers[v])
                if not changed_prev:
                    # global quiescence: every remaining round is a no-op
                    # (and stop_when stayed false after the last change).
                    self.rounds += max_rounds - executed
                    return max_rounds
                if len(changed_prev) == len(nodes):
                    # full churn (e.g. the train verifier): skip the
                    # stale-set construction entirely
                    active = nodes
                else:
                    stale: Set[NodeId] = set()
                    for u in changed_prev:
                        stale.add(u)
                        stale.update(neighbors(u))
                    # O(|stale| log |stale|), not O(n): localized churn
                    # must not pay a full-network scan every round
                    active = (nodes if len(stale) >= len(nodes)
                              else sorted(stale,
                                          key=node_order.__getitem__))
            ctxs = [NodeContext(network, v, snapshot) for v in active]
            bulk_step(BulkBatch(ctxs))
            self.rounds += 1
            executed += 1
            self.protocol.on_round_end(network, self.rounds)
            changed_prev = [ctx.node for ctx in ctxs if ctx.wrote]
            if stop_when is not None and stop_when(network):
                break
        return executed

    # -- columnar path ---------------------------------------------------
    def _run_columns(self, max_rounds: int,
                     stop_when: Optional[StopCondition]) -> int:
        """The loop over columns.  On the fast path the snapshot refresh
        is a bulk copy of exactly the dirty columns (slice assignment,
        not per-slot loops), and the quiescence skip keys off the
        store's conservative dirty node list — sound because a node is
        only skipped when *no write at all* happened in its closed
        neighbourhood last round, in which case its deterministic step
        would rewrite its current state.  Off the fast path (or under
        an overridden ``on_round_end``) every round is the naive one: a
        full refresh, then every node steps."""
        network = self.network
        protocol = self.protocol
        bulk_step = protocol.bulk_step
        nodes = network.graph.nodes()
        store = network.columns
        adjacency = self._neighbors_of()
        node_order = {v: i for i, v in enumerate(nodes)}
        snap, contexts = self._columnar_state()
        # a restore between runs can move the stable epochs backwards,
        # so no label-sentinel memo survives a run boundary
        for ctx in contexts.values():
            ctx._sent_key = None
        ops = self._bulk_ops_for(store, snap) if self._bulk else None
        executed = 0
        # external writes (fault injection, resets) since the last call
        # are not round-tracked: the first round re-snapshots and
        # re-steps everything, exactly like the naive loop.
        first = True
        naive = not self.fast_path
        while executed < max_rounds:
            if first or naive:
                snap.refresh_from(store, full=True)
                store.clear_dirty()
                active: Sequence[NodeId] = nodes
                first = False
            else:
                dirty = store.dirty_node_list
                if not dirty:
                    # global quiescence: every remaining round is a no-op
                    self.rounds += max_rounds - executed
                    return max_rounds
                snap.refresh_from(store)
                if len(dirty) == len(nodes):
                    active = nodes
                else:
                    stale: Set[NodeId] = set()
                    for u in dirty:
                        stale.add(u)
                        stale.update(adjacency[u])
                    active = (nodes if len(stale) >= len(nodes)
                              else sorted(stale,
                                          key=node_order.__getitem__))
                store.clear_dirty()
            dn = store.dirty_nodes
            dlist = store.dirty_node_list
            batch_ctxs = []
            batch_idx = []
            capp = batch_ctxs.append
            iapp = batch_idx.append
            for v in active:
                ctx = contexts[v]
                ctx.wrote = False
                capp(ctx)
                iapp(ctx._i)
            batch = BulkBatch(batch_ctxs, batch_idx, ops)
            bulk_step(batch)
            if batch.wrote_all:
                # the protocol's fused sweep wrote every node of the
                # batch: mark the round dirty in one pass
                if len(batch_ctxs) == len(nodes):
                    dn[:] = b"\x01" * len(dn)
                    dlist[:] = nodes
                else:
                    for ctx in batch_ctxs:
                        i = ctx._i
                        if not dn[i]:
                            dn[i] = 1
                            dlist.append(ctx.node)
            else:
                for ctx in batch_ctxs:
                    if ctx.wrote:
                        i = ctx._i
                        if not dn[i]:
                            dn[i] = 1
                            dlist.append(ctx.node)
            self.rounds += 1
            executed += 1
            protocol.on_round_end(network, self.rounds)
            if stop_when is not None and stop_when(network):
                break
        return executed


# ---------------------------------------------------------------------------
# daemons
# ---------------------------------------------------------------------------

class Daemon:
    """Chooses which nodes to activate next (asynchronous adversary).

    Daemons that want to support exact checkpoint/restore (see
    :mod:`repro.sim.snapshot`) additionally implement ``state()`` /
    ``set_state(state)`` returning/accepting one picklable dict that
    captures every bit of cross-batch decision state — RNG state,
    pending permutations, in-flight batch queues — but *not* memoized
    topology caches, which are static and rebuilt on demand.  A daemon
    without the pair simply is not snapshottable: the snapshot layer
    skips caching rather than guessing."""

    def next_batch(self, nodes: Sequence[NodeId]) -> List[NodeId]:
        raise NotImplementedError

    def topology_changed(self) -> None:
        """Invalidate topology-derived state after a churn event
        (node crash/rejoin, edge reweight — see :mod:`repro.sim.churn`).

        The contract: after this call the daemon must issue batches
        drawn only from the *current* node set — memoized closed
        neighbourhoods and distance-2 balls are dropped, and in-flight
        sweep queues that may name removed nodes are discarded (the
        next ``next_batch`` starts a fresh sweep over the survivors).
        Decision state that is topology-independent (RNG streams,
        cycle counters) is kept, so event streams stay deterministic.
        """


class RoundRobinDaemon(Daemon):
    """Activates nodes one at a time in a fixed cyclic order."""

    def __init__(self) -> None:
        self._index = 0

    def next_batch(self, nodes: Sequence[NodeId]) -> List[NodeId]:
        node = nodes[self._index % len(nodes)]
        self._index += 1
        return [node]

    def state(self) -> Dict[str, Any]:
        return {"index": self._index}

    def set_state(self, state: Mapping[str, Any]) -> None:
        self._index = state["index"]


class RandomDaemon(Daemon):
    """Activates one uniformly random node per tick (fair with prob. 1)."""

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)

    def next_batch(self, nodes: Sequence[NodeId]) -> List[NodeId]:
        return [self.rng.choice(nodes)]

    def state(self) -> Dict[str, Any]:
        return {"rng": self.rng.getstate()}

    def set_state(self, state: Mapping[str, Any]) -> None:
        self.rng.setstate(state["rng"])


class PermutationDaemon(Daemon):
    """Each round activates every node once, in a fresh random order —
    an asynchronous execution with maximal per-round interleaving."""

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)
        self._pending: List[NodeId] = []

    def next_batch(self, nodes: Sequence[NodeId]) -> List[NodeId]:
        if not self._pending:
            self._pending = list(nodes)
            self.rng.shuffle(self._pending)
        return [self._pending.pop()]

    def state(self) -> Dict[str, Any]:
        return {"rng": self.rng.getstate(), "pending": self._pending[:]}

    def set_state(self, state: Mapping[str, Any]) -> None:
        self.rng.setstate(state["rng"])
        self._pending = list(state["pending"])

    def topology_changed(self) -> None:
        # the pending permutation may name removed nodes
        self._pending = []


class LocalityBatchDaemon(Daemon):
    """Locality batching: each batch activates one whole *closed
    neighbourhood* — a center node followed by all of its neighbours —
    with centers drawn from a fresh random permutation per sweep.

    Consecutive activations then share most of their read scope, which
    is what lets the dirty-aware scheduler's reuse amortize: once the
    center's step turns out to be a no-op, its neighbours' activations
    hit the unchanged-neighbourhood skip immediately (the scheduler's
    ``steps_skipped`` counter is the visible accounting), and a columnar
    store serves the whole batch out of the same few cache-hot columns.

    Fairness: every node is its own center once per sweep, so every
    node is activated at least once per sweep regardless of topology.

    The closed-neighbourhood lists depend only on the static topology,
    so they are computed once per daemon and memoized; each sweep only
    re-permutes the centers.
    """

    def __init__(self, graph, seed: int = 0) -> None:
        self.graph = graph
        self.rng = random.Random(seed)
        self._centers: List[NodeId] = []
        #: center -> closed neighbourhood, memoized (static topology)
        self._closed: Dict[NodeId, List[NodeId]] = {}
        #: batches issued (one closed neighbourhood each)
        self.batches = 0

    def next_batch(self, nodes: Sequence[NodeId]) -> List[NodeId]:
        if not self._centers:
            self._centers = list(nodes)
            self.rng.shuffle(self._centers)
        center = self._centers.pop()
        self.batches += 1
        batch = self._closed.get(center)
        if batch is None:
            batch = self._closed[center] = \
                [center] + self.graph.neighbors(center)
        return batch

    def state(self) -> Dict[str, Any]:
        # `_closed` is a static-topology memo, not decision state
        return {"rng": self.rng.getstate(), "centers": self._centers[:],
                "batches": self.batches}

    def set_state(self, state: Mapping[str, Any]) -> None:
        self.rng.setstate(state["rng"])
        self._centers = list(state["centers"])
        self.batches = state["batches"]

    def topology_changed(self) -> None:
        # pending centers may name removed nodes; the closed-
        # neighbourhood memo is stale for every survivor of the event
        self._centers = []
        self._closed = {}


class _CoverDaemon(Daemon):
    """Shared machinery for daemons that issue each sweep as a
    pre-computed cover of the node set by G²-independent batches
    (pairwise disjoint closed neighbourhoods), queued and served one
    batch per ``next_batch`` call.

    Subclasses implement ``_cover(nodes)`` returning the sweep's batch
    list; the base class owns the queue, the memoized closed
    neighbourhoods (and, for tiles, distance-2 balls), the greedy
    first-fit partitioner, issue accounting, snapshot
    ``state()/set_state()``.  The asynchronous scheduler runs each
    batch as one group: the survivors of its skip checks reach
    ``bulk_step`` in one call.
    """

    #: schedulers read this to grant the conflict-free license
    conflict_free = True

    def __init__(self, graph, seed: int = 0) -> None:
        self.graph = graph
        self.rng = random.Random(seed)
        #: the current sweep's remaining batches (reversed: pop() serves
        #: them in cover order)
        self._queue: List[List[NodeId]] = []
        #: dense index -> closed neighbourhood N[v] as dense indices,
        #: memoized per node sequence
        self._nbhd: Optional[List[List[int]]] = None
        #: dense index -> distance-<=2 ball (the G² closed
        #: neighbourhood), sorted dense indices; built from ``_nbhd`` on
        #: first request (only tiles need it)
        self._ball2: Optional[List[List[int]]] = None
        #: the exact node sequence the memos were built for: dense
        #: indices are positions in this sequence, so a changed node set
        #: (or order) must rebuild the memos rather than silently serve
        #: stale neighbourhoods that would corrupt covers under churn
        self._sig: Optional[Tuple[NodeId, ...]] = None
        #: batches issued / sweeps started (accounting)
        self.batches = 0
        self.sweeps = 0

    def _closed(self, nodes: Sequence[NodeId]) -> List[List[int]]:
        """Dense-indexed closed neighbourhoods, memoized on the node
        sequence and rebuilt when it changes between sweeps."""
        sig = tuple(nodes)
        if self._nbhd is None or self._sig != sig:
            order = {v: k for k, v in enumerate(nodes)}
            neighbors = self.graph.neighbors
            self._nbhd = [[k] + [order[u] for u in neighbors(v)]
                          for k, v in enumerate(nodes)]
            self._ball2 = None
            self._sig = sig
        return self._nbhd

    def _balls(self, nodes: Sequence[NodeId]) -> List[List[int]]:
        """Dense-indexed distance-2 balls, ball2(v) = the union of N[u]
        over u in N[v]: two nodes are G²-adjacent (closed neighbourhoods
        intersect) iff one lies in the other's ball.  Each ball is
        sorted so tile construction is deterministic across interpreter
        builds."""
        nbhd = self._closed(nodes)
        if self._ball2 is None:
            self._ball2 = [sorted({w for u in nb for w in nbhd[u]})
                           for nb in nbhd]
        return self._ball2

    @staticmethod
    def _partition(scan: Sequence[int], nbhd: List[List[int]],
                   nodes: Sequence[NodeId]) -> List[List[NodeId]]:
        """Greedy first-fit partition of the dense indices ``scan`` (in
        order) into G²-independent batches of nodes: a node joins the
        first batch containing no other node within distance 2.

        ``near[u]`` holds the batch bits of the nodes already placed in
        N[u].  A placed node w is within distance 2 of v iff some u in
        N[v] has w in N[u], so the batches blocked for v are the OR of
        ``near`` over N[v]: each node reads and writes |N[v]| masks,
        O(sum |N[v]|) int ops per partition."""
        near = [0] * len(nbhd)
        batches: List[List[NodeId]] = []
        for k in scan:
            nb = nbhd[k]
            m = 0
            for u in nb:
                m |= near[u]
            b = (~m & (m + 1)).bit_length() - 1   # lowest clear bit
            if b == len(batches):
                batches.append([nodes[k]])
            else:
                batches[b].append(nodes[k])
            bit = 1 << b
            for u in nb:
                near[u] |= bit
        return batches

    def _cover(self, nodes: Sequence[NodeId]) -> List[List[NodeId]]:
        raise NotImplementedError

    def next_batch(self, nodes: Sequence[NodeId]) -> List[NodeId]:
        if not self._queue:
            self._queue = self._cover(nodes)[::-1]
            self.sweeps += 1
        self.batches += 1
        return self._queue.pop()

    def state(self) -> Dict[str, Any]:
        # neighbourhood memos are static-topology caches, rebuilt on
        # demand
        return {"rng": self.rng.getstate(),
                "queue": [batch[:] for batch in self._queue],
                "batches": self.batches, "sweeps": self.sweeps}

    def set_state(self, state: Mapping[str, Any]) -> None:
        self.rng.setstate(state["rng"])
        self._queue = [list(batch) for batch in state["queue"]]
        self.batches = state["batches"]
        self.sweeps = state["sweeps"]

    def topology_changed(self) -> None:
        # queued batches are served *before* the signature check (the
        # signature is only consulted when the queue empties), so an
        # in-flight sweep naming removed nodes must be discarded here;
        # the memos are invalidated outright rather than left to the
        # signature, which cannot see a pure edge reweight
        self._queue = []
        self._nbhd = None
        self._ball2 = None
        self._sig = None


class ConflictFreeDaemon(_CoverDaemon):
    """Conflict-free batching: each batch activates a set of nodes with
    **pairwise disjoint closed neighbourhoods** (an independent set of
    the square graph G² — no two batch members within distance 2), and
    each sweep covers every node exactly once with a greedy
    maximal-independent-set cover built from a fresh random permutation
    (fair on any topology, like the locality daemon's centers).

    The point is the *license*: an activated node reads exactly its
    closed neighbourhood N[v] and writes only its own registers, so
    inside a batch with pairwise disjoint N[v] no activation can
    observe a batchmate's write — live executions of the batch members
    in any order (or fused into one column sweep) are indistinguishable
    from the sequential one.  The daemon therefore *pre-declares* its
    batches conflict-free (the ``conflict_free`` class attribute), and
    the asynchronous scheduler hands the survivors of each batch to the
    protocol's ``bulk_step`` as one :class:`~repro.sim.bulk.BulkBatch`
    with live fused column ops, which is what lets the fused columnar
    kernels of the bulk plane sweep several nodes off the synchronous
    path (see :mod:`repro.sim.bulk`).

    Semantics: a conflict-free batch models the distributed daemon
    activating a whole independent set *simultaneously*; the scheduler
    accordingly resolves stop conditions at batch boundaries (exactly
    as synchronous rounds resolve them at round boundaries) — for every
    storage backend and for ``bulk=False`` too, so ``bulk`` stays an
    implementation-only flag under this daemon.

    The closed neighbourhoods are memoized per node sequence (static
    topology: computed once); each sweep only re-permutes the nodes and
    re-runs the greedy first-fit cover over them.
    """

    def _cover(self, nodes: Sequence[NodeId]) -> List[List[NodeId]]:
        """Greedy first-fit cover of ``nodes`` by G²-independent sets,
        scanned in a fresh random order.  ``shuffle`` permutes by
        position alone, so shuffling the dense indices draws the same
        random stream and the same order as shuffling the nodes."""
        nbhd = self._closed(nodes)
        perm = list(range(len(nodes)))
        self.rng.shuffle(perm)
        return self._partition(perm, nbhd, nodes)


class TiledConflictFreeDaemon(_CoverDaemon):
    """Tiled hybrid daemon (schedule kind ``"tiled"``): locality
    batching under the conflict-free license.

    Each sweep shuffles the nodes into a fresh random center order;
    each center contributes one *tile* — the not-yet-covered part of
    its distance-2 ball — and the tile is partitioned into
    G²-independent sub-batches issued consecutively.  Every batch
    therefore carries the conflict-free license (fused columnar
    execution), while consecutive batches stay inside one ball: they
    share most of their read scope, so the dirty-aware scheduler's
    unchanged-neighbourhood skip and a columnar store's cache locality
    amortize exactly as under the locality daemon — the hybrid of
    ROADMAP's "skip amortization + fusion license" item.

    Geometry: *within* one closed neighbourhood N[v] any two members
    are within distance 2 of each other through v, so conflict-free
    tiles of N[v] itself degenerate to singletons — the useful tile is
    the distance-2 ball, whose members can be pairwise G²-independent
    (e.g. the center's neighbours' neighbours avoiding each other).

    Fairness: tiles are carved from the uncovered remainder and every
    node lies in its own ball, so each sweep activates every node
    exactly once, like the other cover daemons.
    """

    def _cover(self, nodes: Sequence[NodeId]) -> List[List[NodeId]]:
        nbhd = self._closed(nodes)
        ball2 = self._balls(nodes)
        centers = list(range(len(nodes)))
        self.rng.shuffle(centers)
        covered = [False] * len(centers)
        batches: List[List[NodeId]] = []
        for c in centers:
            tile = [k for k in ball2[c] if not covered[k]]
            if not tile:
                continue
            for k in tile:
                covered[k] = True
            batches.extend(self._partition(tile, nbhd, nodes))
        return batches


class SlowNodesDaemon(Daemon):
    """Adversarial daemon: designated nodes run ``slowdown`` times less
    often than the rest (stretching asynchronous rounds)."""

    def __init__(self, slow_nodes: Iterable[NodeId], slowdown: int,
                 seed: int = 0) -> None:
        if slowdown < 1:
            raise ValueError("slowdown must be >= 1")
        self.slow: Set[NodeId] = set(slow_nodes)
        self.slowdown = slowdown
        self.rng = random.Random(seed)
        self._pending: List[NodeId] = []
        self._cycle = 0

    def next_batch(self, nodes: Sequence[NodeId]) -> List[NodeId]:
        if not self._pending:
            self._cycle += 1
            batch = [v for v in nodes if v not in self.slow]
            if self._cycle % self.slowdown == 0:
                batch.extend(v for v in nodes if v in self.slow)
            self.rng.shuffle(batch)
            self._pending = batch
        return [self._pending.pop()]

    def state(self) -> Dict[str, Any]:
        return {"rng": self.rng.getstate(), "pending": self._pending[:],
                "cycle": self._cycle}

    def set_state(self, state: Mapping[str, Any]) -> None:
        self.rng.setstate(state["rng"])
        self._pending = list(state["pending"])
        self._cycle = state["cycle"]

    def topology_changed(self) -> None:
        # the pending cycle may name removed nodes; the slow set and
        # cycle counter are semantic (a slow node stays slow across a
        # crash/rejoin), so they survive
        self._pending = []


class AsynchronousScheduler:
    """Daemon-driven execution with asynchronous-round accounting.

    The scheduler is *dirty-aware* by default: per-node contexts over the
    live registers are reused across activations (no per-activation
    mapping rebuild), every activation tracks whether the step actually
    changed a register, and an activation of a node whose closed
    neighbourhood is unchanged since the node's own last (no-op) step is
    *skipped* — by protocol determinism the step would rewrite exactly
    the current state.  Skipped activations still count toward
    activations, round coverage, and the stop condition, so the
    execution is bit-for-bit equivalent to the naive activation loop
    (``dirty_aware=False``); protocols that override ``on_round_end``
    fall back automatically, and every ``run()`` restarts the tracking,
    so external register writes between runs (fault injection) are
    always observed.

    On columnar storage the contexts and the neighbour map are built
    once per column store and kept across ``run()`` calls (they alias
    the store's columns, which restores and fault injection mutate in
    place); ``topology_changed()`` drops them.  Each ``run()`` resets
    the contexts' label-sentinel memos, because a snapshot restore can
    move the store's stable epoch backwards.  Dict contexts alias
    per-node register dicts, which a restore replaces, so they are
    rebuilt every run.
    """

    def __init__(self, network: Network, protocol: Protocol,
                 daemon: Optional[Daemon] = None,
                 dirty_aware: bool = True,
                 storage: Optional[str] = None,
                 bulk: bool = True) -> None:
        self.network = network
        self.protocol = protocol
        self.daemon = daemon if daemon is not None else PermutationDaemon()
        self.rounds = 0
        self.activations = 0
        self.steps_skipped = 0
        self._covered: Set[NodeId] = set()
        self._initialized = False
        self.dirty_aware = bool(dirty_aware) and (
            type(protocol).on_round_end is Protocol.on_round_end)
        #: bulk-activation plane: on columnar storage every activation
        #: group reaches ``bulk_step`` with live fused column ops (see
        #: :meth:`run`); ``bulk=False`` hands it ``ops=None``, so the
        #: protocol steps node by node
        self._bulk = bool(bulk)
        self._live_ops = None
        #: (store, contexts, neighbour map) of the columnar runs
        self._columnar = None
        self._storage = _storage_mode(storage)
        self._compiled = _bind_storage(network, protocol, self._storage)

    def topology_changed(self) -> None:
        """Invalidate topology-derived state after a churn event
        (:mod:`repro.sim.churn`).  Churn events apply *between* runs,
        and skip tracking is rebuilt every ``run()``.  What persists
        across runs is handled here: the round-coverage set drops
        removed nodes (a crashed node can never complete a round), the
        contexts, neighbour map and live fused ops are rebuilt, the
        daemon drops its memoized neighbourhoods and in-flight sweeps,
        and the protocol is re-bound (clearing its label-derived
        verdict caches and its vector sweep)."""
        self._covered.intersection_update(self.network.graph.nodes())
        self._live_ops = None
        self._columnar = None
        self.daemon.topology_changed()
        self.protocol._storage_binding = None

    def initialize(self) -> None:
        if self._initialized:
            return
        for ctx in self._contexts()[0].values():
            self.protocol.init_node(ctx)
        self._initialized = True

    def _contexts(self):
        """(per-node contexts over the live registers, neighbour map)."""
        network = self.network
        graph = network.graph
        if self._compiled is None:
            nodes = graph.nodes()
            return ({v: NodeContext(network, v, network.registers)
                     for v in nodes},
                    {v: graph.neighbors(v) for v in nodes})
        store = network.columns
        cached = self._columnar
        if cached is not None and cached[0] is store:
            contexts = cached[1]
            for ctx in contexts.values():
                ctx._sent_key = None
            return contexts, cached[2]
        neighbors = {v: graph.neighbors(v) for v in graph.nodes()}
        contexts = {v: ColumnarNodeContext(network, v, store, None, nbrs)
                    for v, nbrs in neighbors.items()}
        self._columnar = (store, contexts, neighbors)
        return contexts, neighbors

    def run(self, max_rounds: int,
            stop_when: Optional[StopCondition] = None,
            max_activations: Optional[int] = None) -> int:
        """Run until ``max_rounds`` asynchronous rounds complete (or the
        stop condition fires — checked at activation granularity, except
        under a conflict-free daemon, whose batches model simultaneous
        activations and resolve stops at batch boundaries).  Returns
        the number of asynchronous rounds completed.

        Every activation passes through one *group* loop.  A
        conflict-free daemon's batch is one group; every other daemon's
        batch is one group per activation.  A group advances the tick by
        its size, runs every skip check, hands the survivors to
        ``bulk_step`` in one call, records their accounting at the
        group's final tick, updates round coverage and checks the stop
        condition.  A group of several nodes is sound because its
        closed neighbourhoods are pairwise disjoint (see
        :mod:`repro.sim.bulk`).  ``max_activations`` is checked at
        daemon-batch boundaries."""
        _ensure_binding(self.protocol, self.network, self._compiled)
        self._compiled = _ensure_storage(self.network, self.protocol,
                                         self._storage, self._compiled)
        self.initialize()
        network = self.network
        protocol = self.protocol
        bulk_step = protocol.bulk_step
        nodes = network.graph.nodes()
        all_nodes = set(nodes)
        contexts, neighbors = self._contexts()
        dirty_aware = self.dirty_aware
        # per-run dirty tracking: registers may have been rewritten
        # externally since the last call, so no skip survives a run()
        # boundary.
        stepped_at: Dict[NodeId, int] = {}
        changed_at: Dict[NodeId, int] = {}
        tick = 0
        start_rounds = self.rounds
        budget = max_activations if max_activations is not None else (
            max_rounds * len(nodes) * 4 + 64)
        # conflict-free daemons: batches are simultaneous activations,
        # so a whole batch is one group and stop conditions resolve at
        # batch boundaries (for every storage and for ``bulk=False``
        # alike — the semantics belong to the daemon, not to the bulk
        # flag)
        batch_groups = getattr(self.daemon, "conflict_free", False)
        ops = None
        if self._compiled is not None and self._bulk:
            store = network.columns
            ops = self._live_ops
            if ops is None or ops.store is not store:
                ops = self._live_ops = ColumnarBulkOps(store)
        # one batch object for the whole run; ``indices`` are filled only
        # for a fused group of several contexts
        batch = BulkBatch([], None, ops)
        run_ctxs = batch.contexts
        append = run_ctxs.append
        indexed = ops is not None and batch_groups
        covered = self._covered
        while self.rounds - start_rounds < max_rounds and budget > 0:
            batch_nodes = self.daemon.next_batch(nodes)
            # a one-node batch is one group under every daemon
            groups = (batch_nodes,) \
                if batch_groups or len(batch_nodes) == 1 \
                else zip(batch_nodes)
            for group in groups:
                size = len(group)
                tick += size
                run_ctxs.clear()
                for v in group:
                    if dirty_aware:
                        st = stepped_at.get(v)
                        if st is not None and changed_at.get(v, 0) < st:
                            for u in neighbors[v]:
                                if changed_at.get(u, 0) >= st:
                                    break
                            else:
                                continue
                    ctx = contexts[v]
                    ctx.wrote = False
                    append(ctx)
                ran = len(run_ctxs)
                if ran:
                    if indexed:
                        batch.indices = [ctx._i for ctx in run_ctxs] \
                            if ran > 1 else None
                    batch.wrote_all = False
                    bulk_step(batch)
                    if dirty_aware:
                        wrote_all = batch.wrote_all
                        for ctx in run_ctxs:
                            v = ctx.node
                            if wrote_all or ctx.wrote:
                                changed_at[v] = tick
                            stepped_at[v] = tick
                if ran != size:
                    self.steps_skipped += size - ran
                self.activations += size
                budget -= size
                for v in group:
                    covered.add(v)
                    if covered == all_nodes:
                        self.rounds += 1
                        covered = self._covered = set()
                        protocol.on_round_end(network, self.rounds)
                if stop_when is not None and stop_when(network):
                    return self.rounds - start_rounds
        return self.rounds - start_rounds
