"""The shared-memory network model (Section 2.1 / 2.2).

Each node owns a set of registers readable by its neighbours.  In one
*ideal time* unit a node reads all of its neighbours' registers and
rewrites its own (the paper's ideal time complexity; the stricter
contention model costs an extra Delta factor, which our asynchronous
daemons can emulate).

A :class:`Protocol` provides two callbacks:

* ``init_node(ctx)`` — set up the node's working registers (labels
  installed by a marker are left untouched);
* ``step(ctx)`` — one atomic step: read neighbours through ``ctx.read``
  and update own registers through ``ctx.set``.

The schedulers reach ``step`` through :meth:`Protocol.bulk_step`, which
runs it over a batch of contexts and which a protocol may override to
fuse the batch (:mod:`repro.sim.bulk`).

Protocols signal fault detection by setting the ``alarm`` register to a
non-None reason string; the harness collects alarms via
:meth:`Network.alarms`.

Storage: a network starts on the per-node dict store.  When a protocol
declares a :class:`~repro.sim.registers.RegisterSchema`
(:meth:`Protocol.register_schema`), the schedulers compile it once and
call :meth:`Network.adopt_schema`, which converts the whole network to
per-register columns (:mod:`repro.sim.columnar`); ``registers`` then
maps nodes to dict-compatible views, so storage-agnostic code (fault
injection, markers, tests) is unaffected.  Protocol hot paths run
against :class:`~repro.sim.columnar.ColumnarNodeContext`, whose
accessors take integer slot handles and are O(1) column loads.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional

from ..graphs.weighted import NodeId, WeightedGraph
from .bulk import drive_batch
from .registers import (ALARM, CompiledSchema, RegisterSchema, RegisterView,
                        UNSET, compile_schema, nat_value, register_bits)

_MISSING = object()


class RegisterTable(dict):
    """``node -> RegisterView`` with dict-style write-through.

    Legacy code replaces a node's registers wholesale
    (``network.registers[v] = {...}``); on a schema-backed network that
    must rewrite the node's columns in place, not shadow them with a
    plain dict."""

    def __setitem__(self, node: NodeId, value: Any) -> None:
        current = dict.get(self, node)
        if isinstance(current, RegisterView) \
                and not isinstance(value, RegisterView):
            current.clear()
            current.update(value)
        else:
            dict.__setitem__(self, node, value)


class Network:
    """A set of nodes with registers, built over a :class:`WeightedGraph`."""

    def __init__(self, graph: WeightedGraph) -> None:
        self.graph = graph
        self.schema: Optional[CompiledSchema] = None
        #: columnar backing (:class:`~repro.sim.columnar.ColumnStore`)
        #: once :meth:`adopt_schema` ran; None on dict storage
        self.columns = None
        self.registers: Dict[NodeId, Dict[str, Any]] = {
            v: {} for v in graph.nodes()
        }
        #: snapshot restores into this network so far
        #: (:func:`~repro.sim.snapshot.restore_network` bumps it); a
        #: scheduler re-binds its protocol when it moved, because a
        #: restore truncates the interning pool the protocol's pool-id
        #: caches point into
        self.restores = 0

    def adopt_schema(self, schema, numpy: bool = False) -> CompiledSchema:
        """Convert node storage to per-register columns of ``schema``
        (see :mod:`repro.sim.columnar`), or to numpy-tier columns under
        ``numpy=True`` (same representation, vector batch ops — see
        :mod:`repro.sim.npcolumnar`).

        Idempotent for an equal schema on the same store class;
        re-adopting a different schema or switching between columnar
        and numpy rebuilds the storage from the current register
        contents (values are preserved, undeclared names land in the
        extras).  Returns the compiled schema now backing the network.
        """
        compiled = compile_schema(schema)
        if numpy:
            from .npcolumnar import NumpyColumnStore as store_cls
        else:
            from .columnar import ColumnStore as store_cls
        if self.schema == compiled and type(self.columns) is store_cls:
            return self.schema
        nodes = self.graph.nodes()
        store = store_cls(compiled, nodes)
        table = RegisterTable()
        for v in nodes:
            view = RegisterView(store, v)
            view.update(self.registers[v])
            dict.__setitem__(table, v, view)
        self.schema = compiled
        self.columns = store
        self.registers = table
        return compiled

    def install(self, assignments: Mapping[NodeId, Mapping[str, Any]]) -> None:
        """Write marker-produced labels into node registers."""
        for v, regs in assignments.items():
            self.registers[v].update(regs)

    # -- dynamic topology (churn) ---------------------------------------
    def remove_node(self, v: NodeId) -> Dict[str, Any]:
        """Crash node ``v``: drop it from the graph (surviving ports are
        tombstoned, not renumbered) and from the storage backend, and
        return a stub from which :meth:`add_node` can rebuild it.  The
        stub carries the node's final register contents so callers can
        model either a wiped rejoin or a state-preserving one.

        On columnar storage the node's dense row is parked on the
        store's freelist (:meth:`~repro.sim.columnar.ColumnStore.
        detach_node`) — columns never change length and no live handle
        is reindexed.  Schedulers driving the network must be told via
        their ``topology_changed()`` after any call here."""
        regs = dict(self.registers[v])
        stub = {"graph": self.graph.remove_node(v), "registers": regs}
        if self.columns is not None:
            self.columns.detach_node(v)
            dict.pop(self.registers, v)
        else:
            del self.registers[v]
        return stub

    def add_node(self, v: NodeId, stub: Mapping[str, Any]) -> None:
        """Rejoin a node crashed by :meth:`remove_node`: the graph edges
        come back at their exact original ports on both endpoints, and
        the node's registers start *empty* (a rejoining node wakes up
        wiped; callers restore whatever survives — e.g. the stable
        label registers from ``stub["registers"]`` — and re-run the
        protocol's ``init_node``)."""
        self.graph.restore_node(v, stub["graph"])
        if self.columns is not None:
            self.columns.attach_node(v)
            dict.__setitem__(self.registers, v,
                             RegisterView(self.columns, v))
        else:
            self.registers[v] = {}

    def clear(self) -> None:
        """Erase all registers (fresh adversarial start)."""
        if self.columns is not None:
            for i in range(self.columns.n):
                self.columns.clear_node(i)
        else:
            for v in self.registers:
                self.registers[v] = {}

    def alarms(self) -> Dict[NodeId, str]:
        """Nodes currently raising an alarm, with their reasons."""
        store = self.columns
        if store is not None:
            a = self.schema.alarm_slot
            col = store.data[a]
            if type(col) is list:
                return {store.nodes[i]: reason
                        for i, reason in enumerate(col)
                        if reason is not UNSET and reason is not None}
            # alarm declared with a packed kind: resolve per node
            return {store.nodes[i]: reason for i in range(store.n)
                    if (reason := store.get_value(i, a)) is not None}
        return {
            v: regs[ALARM]
            for v, regs in self.registers.items()
            if regs.get(ALARM) is not None
        }

    def has_alarm(self) -> bool:
        """Whether any node currently raises an alarm (O(n), no dict)."""
        store = self.columns
        if store is not None:
            a = self.schema.alarm_slot
            col = store.data[a]
            if type(col) is list:
                for reason in col:
                    if reason is not UNSET and reason is not None:
                        return True
                return False
            return any(store.get_value(i, a) is not None
                       for i in range(store.n))
        for regs in self.registers.values():
            if regs.get(ALARM) is not None:
                return True
        return False

    def local_context(self, node: NodeId):
        """A context over the live registers, matching the storage.

        Harness code that pokes a protocol outside a scheduler (budget
        probes, examples) must use this instead of constructing a
        :class:`NodeContext` directly: a protocol bound to slot handles
        needs a slot-addressed context."""
        if self.columns is not None:
            from .columnar import ColumnarNodeContext
            return ColumnarNodeContext(self, node, self.columns)
        return NodeContext(self, node, self.registers)

    def max_memory_bits(self) -> int:
        """max over nodes of the bits of non-ghost registers (the paper's
        memory-size measure); 0 for an empty graph."""
        if self.columns is not None:
            store = self.columns
            return max((store.node_bits(i) for i in range(store.n)),
                       default=0)
        return max((register_bits(regs) for regs in self.registers.values()),
                   default=0)

    def total_memory_bits(self) -> int:
        """Sum over nodes of non-ghost register bits."""
        if self.columns is not None:
            store = self.columns
            return sum(store.node_bits(i) for i in range(store.n))
        return sum(register_bits(regs) for regs in self.registers.values())


class NodeContext:
    """Read/write access for one atomic step of one node (dict storage).

    Own registers are read and written *live*; neighbour registers are read
    from ``snapshot`` (the previous round's state under the synchronous
    scheduler, the current state under asynchronous ones).

    ``wrote`` turns true on the first write that actually changes a
    register value (the scheduler resets it before each step) — the
    fast-path synchronous scheduler uses it to rebuild only the stale
    slice of its snapshot and to skip re-stepping quiescent
    neighbourhoods, the dirty-aware asynchronous one to skip
    activations whose closed neighbourhood is unchanged.
    """

    __slots__ = ("network", "node", "_snapshot", "_own", "wrote")

    def __init__(self, network: Network, node: NodeId,
                 snapshot: Mapping[NodeId, Mapping[str, Any]]) -> None:
        self.network = network
        self.node = node
        self._snapshot = snapshot
        self._own = network.registers[node]
        self.wrote = False

    # -- own state ------------------------------------------------------
    def get(self, name: str, default: Any = None) -> Any:
        return self._own.get(name, default)

    def nat(self, name: str, cap: int = 1 << 30) -> Optional[int]:
        """Own register as a bounded non-negative int, else None."""
        return nat_value(self._own.get(name), cap)

    def get_decoded(self, name: str, decoder) -> Any:
        """``decoder(own register value)`` — uncached on dict storage."""
        return decoder(self._own.get(name))

    def set(self, name: str, value: Any) -> None:
        if not self.wrote:
            prev = self._own.get(name, _MISSING)
            # the type check keeps equal-but-distinct writes (True -> 1)
            # from silently going stale in the fast-path snapshot
            if prev != value or type(prev) is not type(value):
                self.wrote = True
        self._own[name] = value

    def unset(self, name: str) -> None:
        if name in self._own:
            self.wrote = True
            del self._own[name]

    def alarm(self, reason: str) -> None:
        """Raise (and latch) an alarm at this node."""
        if self._own.get(ALARM) is None:
            self.set(ALARM, reason)

    # -- neighbour state --------------------------------------------------
    def read(self, neighbor: NodeId, name: str, default: Any = None) -> Any:
        """Read a neighbour's register from the step's snapshot."""
        return self._snapshot[neighbor].get(name, default)

    def read_nat(self, neighbor: NodeId, name: str,
                 cap: int = 1 << 30) -> Optional[int]:
        """A neighbour's register as a bounded non-negative int."""
        return nat_value(self._snapshot[neighbor].get(name), cap)

    def read_decoded(self, neighbor: NodeId, name: str, decoder) -> Any:
        """``decoder(neighbour register value)`` — uncached on dicts."""
        return decoder(self._snapshot[neighbor].get(name))

    # -- topology ---------------------------------------------------------
    @property
    def neighbors(self) -> List[NodeId]:
        return self.network.graph.neighbors(self.node)

    @property
    def degree(self) -> int:
        return self.network.graph.degree(self.node)

    def weight(self, neighbor: NodeId):
        return self.network.graph.weight(self.node, neighbor)

    def port(self, neighbor: NodeId) -> int:
        return self.network.graph.port(self.node, neighbor)


class Protocol:
    """Base class for distributed protocols run by the schedulers.

    Contract required by the fast-path synchronous scheduler: ``step``
    must be a *deterministic pure function* of the state visible through
    its :class:`NodeContext` (own registers plus the neighbour snapshot),
    and all register writes must go through the context API.  Randomness
    belongs in daemons, fault injectors, and markers — not in ``step``.
    Change detection treats ``==``-equal values of the same top-level
    type as unchanged, so protocols must not rely on distinctions ``==``
    cannot see (``(1, True)`` vs ``(1, 1)``, ``-0.0`` vs ``0.0``); the
    repo convention of plain immutable register values already rules
    these out.

    A protocol may declare its registers by returning a
    :class:`~repro.sim.registers.RegisterSchema` from
    :meth:`register_schema`; the schedulers then back the network with
    per-register columns and call :meth:`bind_registers` with the
    compiled schema so the protocol can resolve its register names to
    integer slot handles once (``bind_registers(None)`` restores
    name-string handles for dict storage).  Protocols without a schema
    keep the legacy dict behaviour everywhere.

    **Bulk-activation plane** (:mod:`repro.sim.bulk`): the schedulers
    step nodes only through :meth:`bulk_step`, handing it entire rounds
    (synchronous), conflict-free daemon batches or single activations
    (asynchronous).  The base method runs :meth:`step` per context; a
    protocol that can fuse a batch overrides it.  The contract is
    strict: ``bulk_step(batch)`` must be observationally identical to
    ``for ctx in batch.contexts: self.step(ctx)`` (the scheduler keeps
    skip checks, accounting and stop checks outside the call), and
    fused column sweeps are licensed only by ``batch.ops``.
    """

    def register_schema(self) -> Optional[RegisterSchema]:
        """The protocol's register declaration (None: undeclared)."""
        return None

    def bind_registers(self, compiled: Optional[CompiledSchema]) -> None:
        """Resolve register handles for the given storage (no-op here)."""

    def init_node(self, ctx: NodeContext) -> None:  # pragma: no cover
        """Initialize working registers (default: nothing)."""

    def step(self, ctx: NodeContext) -> None:
        raise NotImplementedError

    def bulk_step(self, batch) -> None:
        """Step every context of ``batch`` in order (see the class
        docstring); the generic driver :func:`repro.sim.bulk.drive_batch`
        over :meth:`step`."""
        drive_batch(self.step, batch)

    def on_round_end(self, network: Network, round_index: int) -> None:
        """Optional hook called by schedulers after each full round."""


StopCondition = Callable[[Network], bool]


def first_alarm(network: Network) -> bool:
    """Stop condition: some node raised an alarm."""
    return network.has_alarm()
