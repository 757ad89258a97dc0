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

Protocols signal fault detection by setting the ``alarm`` register to a
non-None reason string; the harness collects alarms via
:meth:`Network.alarms`.

Storage: a network starts on the legacy per-node dict store.  When a
protocol declares a :class:`~repro.sim.registers.RegisterSchema`
(:meth:`Protocol.register_schema`), the schedulers compile it once and
call :meth:`Network.adopt_schema`, which converts every node to a
slot-addressed :class:`~repro.sim.registers.RegisterFile` (or, with
``columnar=True``, the whole network to per-register columns —
:mod:`repro.sim.columnar`); ``registers`` then maps nodes to
dict-compatible views, so storage-agnostic code (fault injection,
markers, tests) is unaffected.  Protocol hot paths run against
:class:`SlotNodeContext` (or its columnar counterpart), whose accessors
take integer slot handles and are O(1) loads with write-time-cached
``nat`` coercion.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional

from ..graphs.weighted import NodeId, WeightedGraph
from .registers import (ALARM, CompiledSchema, NO_DECODE, RegisterFile,
                        RegisterSchema, RegisterView, UNSET, compile_schema,
                        nat_value, register_bits)

_MISSING = object()


class RegisterTable(dict):
    """``node -> RegisterView`` with dict-style write-through.

    Legacy code replaces a node's registers wholesale
    (``network.registers[v] = {...}``); on a schema-backed network that
    must rewrite the node's register *file* in place, not shadow it with
    a plain dict."""

    def __setitem__(self, node: NodeId, value: Any) -> None:
        current = dict.get(self, node)
        if isinstance(current, RegisterView) \
                and not isinstance(value, RegisterView):
            current.file.clear()
            current.file.update(value)
        else:
            dict.__setitem__(self, node, value)


class Network:
    """A set of nodes with registers, built over a :class:`WeightedGraph`."""

    def __init__(self, graph: WeightedGraph,
                 schema: Optional[RegisterSchema] = None) -> None:
        self.graph = graph
        self.schema: Optional[CompiledSchema] = None
        self.files: Optional[Dict[NodeId, RegisterFile]] = None
        #: columnar backing (:class:`~repro.sim.columnar.ColumnStore`)
        #: when ``adopt_schema(..., columnar=True)`` was used
        self.columns = None
        self.registers: Dict[NodeId, Dict[str, Any]] = {
            v: {} for v in graph.nodes()
        }
        if schema is not None:
            self.adopt_schema(schema)

    def adopt_schema(self, schema, columnar: bool = False) -> CompiledSchema:
        """Convert node storage to register files of ``schema`` — per-node
        slot lists by default, network-wide columns under
        ``columnar=True`` (see :mod:`repro.sim.columnar`), numpy-tier
        columns under ``columnar="numpy"`` (same representation, vector
        batch ops — see :mod:`repro.sim.npcolumnar`).

        Idempotent for an equal schema on the same layout; re-adopting a
        different schema or switching layout (including columnar <->
        numpy, which differ only by store class) rebuilds the storage
        from the current register contents (values are preserved,
        undeclared names land in the extras).  Returns the compiled
        schema now backing the network.
        """
        compiled = compile_schema(schema)
        if columnar == "numpy":
            from .npcolumnar import NumpyColumnStore
            store_cls = NumpyColumnStore
        else:
            from .columnar import ColumnStore
            store_cls = ColumnStore
        if self.schema is not None and self.schema == compiled and \
                (self.columns is not None) == bool(columnar) and \
                (self.columns is None or type(self.columns) is store_cls):
            return self.schema
        if columnar:
            from .columnar import ColumnarNodeFacade
            nodes = self.graph.nodes()
            store = store_cls(compiled, nodes)
            table = RegisterTable()
            for v in nodes:
                facade = ColumnarNodeFacade(store, v)
                facade.update(self.registers[v])
                dict.__setitem__(table, v, RegisterView(facade))
            self.schema = compiled
            self.files = None
            self.columns = store
            self.registers = table
            return compiled
        files: Dict[NodeId, RegisterFile] = {}
        table = RegisterTable()
        for v in self.graph.nodes():
            f = RegisterFile(compiled)
            f.update(self.registers[v])
            files[v] = f
            dict.__setitem__(table, v, RegisterView(f))
        self.schema = compiled
        self.files = files
        self.columns = None
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
        elif self.files is not None:
            del self.files[v]
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
            from .columnar import ColumnarNodeFacade
            self.columns.attach_node(v)
            facade = ColumnarNodeFacade(self.columns, v)
            dict.__setitem__(self.registers, v, RegisterView(facade))
        elif self.files is not None:
            f = RegisterFile(self.schema)
            self.files[v] = f
            dict.__setitem__(self.registers, v, RegisterView(f))
        else:
            self.registers[v] = {}

    def clear(self) -> None:
        """Erase all registers (fresh adversarial start)."""
        if self.columns is not None:
            for i in range(self.columns.n):
                self.columns.clear_node(i)
        elif self.files is not None:
            for f in self.files.values():
                f.clear()
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
        files = self.files
        if files is not None:
            a = self.schema.alarm_slot
            out = {}
            for v, f in files.items():
                reason = f.slots[a]
                if reason is not UNSET and reason is not None:
                    out[v] = reason
            return out
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
        files = self.files
        if files is not None:
            a = self.schema.alarm_slot
            for f in files.values():
                reason = f.slots[a]
                if reason is not UNSET and reason is not None:
                    return True
            return False
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
        if self.files is not None:
            return SlotNodeContext(self, node, self.files)
        return NodeContext(self, node, self.registers)

    def max_memory_bits(self) -> int:
        """max over nodes of the bits of non-ghost registers (the paper's
        memory-size measure); 0 for an empty graph."""
        if self.columns is not None:
            store = self.columns
            return max((store.node_bits(i) for i in range(store.n)),
                       default=0)
        if self.files is not None:
            return max((f.bits() for f in self.files.values()), default=0)
        return max((register_bits(regs) for regs in self.registers.values()),
                   default=0)

    def total_memory_bits(self) -> int:
        """Sum over nodes of non-ghost register bits."""
        if self.columns is not None:
            store = self.columns
            return sum(store.node_bits(i) for i in range(store.n))
        if self.files is not None:
            return sum(f.bits() for f in self.files.values())
        return sum(register_bits(regs) for regs in self.registers.values())


class NodeContext:
    """Read/write access for one atomic step of one node (dict storage).

    Own registers are read and written *live*; neighbour registers are read
    from ``snapshot`` (the previous round's state under the synchronous
    scheduler, the current state under asynchronous ones).

    When ``dirty`` is given, the context records the node into it on the
    first write that actually changes a register value — the fast-path
    synchronous scheduler uses this to rebuild only the stale slice of its
    snapshot and to skip re-stepping quiescent neighbourhoods.
    """

    __slots__ = ("network", "node", "_snapshot", "_own", "_dirty")

    def __init__(self, network: Network, node: NodeId,
                 snapshot: Mapping[NodeId, Mapping[str, Any]],
                 dirty: Optional[set] = None) -> None:
        self.network = network
        self.node = node
        self._snapshot = snapshot
        self._own = network.registers[node]
        self._dirty = dirty

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
        dirty = self._dirty
        if dirty is not None and self.node not in dirty:
            prev = self._own.get(name, _MISSING)
            # the type check keeps equal-but-distinct writes (True -> 1)
            # from silently going stale in the fast-path snapshot
            if prev != value or type(prev) is not type(value):
                dirty.add(self.node)
        self._own[name] = value

    def unset(self, name: str) -> None:
        if name in self._own:
            if self._dirty is not None:
                self._dirty.add(self.node)
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


class SlotNodeContext:
    """The register-file counterpart of :class:`NodeContext`.

    Accessors take *handles*: an ``int`` slot index (resolved once per
    run by :meth:`Protocol.bind_registers`) gives an O(1) list load; a
    ``str`` name falls back to the schema lookup, so storage-agnostic
    code (static label checks, instrumentation) runs unchanged.  ``nat``
    and ``read_nat`` return the write-time-cached coercion instead of
    re-parsing the value on every read.

    ``dirty`` is slot-level: a dict mapping the node to the set of slot
    indices whose value actually changed (``-1`` marks a change in the
    undeclared-extras dict), which lets the fast-path synchronous
    scheduler refresh only the stale slots of its snapshot.

    ``neighbors`` is a plain attribute (the schedulers pass the cached
    adjacency list), not a property.
    """

    __slots__ = ("network", "node", "neighbors", "_own", "_slots", "_nats",
                 "_decoded", "_stable_mask", "_snapshot", "_dirty", "_marks")

    def __init__(self, network: Network, node: NodeId,
                 snapshot: Mapping[NodeId, RegisterFile],
                 dirty: Optional[dict] = None,
                 neighbors: Optional[List[NodeId]] = None) -> None:
        self.network = network
        self.node = node
        self.neighbors = network.graph.neighbors(node) \
            if neighbors is None else neighbors
        own = network.files[node]
        self._own = own
        self._slots = own.slots
        self._nats = own.nats
        self._decoded = own.decoded
        self._stable_mask = own.schema.stable_mask
        self._snapshot = snapshot
        self._dirty = dirty
        #: the node's slot-mark set inside ``_dirty``, looked up once per
        #: step; whoever reassigns ``_dirty`` must reset this to None
        self._marks = None

    def stable_sentinel(self) -> int:
        """Version sentinel of the closed neighbourhood's stable (label)
        registers: own live file plus the neighbours as visible through
        this step's snapshot.  Protocols key label-derived caches on it —
        the counters are monotone, so the sum changes iff some label in
        the read scope changed."""
        s = self._own.stable_version
        snapshot = self._snapshot
        for u in self.neighbors:
            s += snapshot[u].stable_version
        return s

    # -- own state ------------------------------------------------------
    def get(self, handle, default: Any = None) -> Any:
        if type(handle) is int:
            v = self._slots[handle]
            return default if v is UNSET else v
        return self._own.get_name(handle, default)

    def nat(self, handle, cap: int = 1 << 30) -> Optional[int]:
        if type(handle) is int:
            v = self._nats[handle]
            return v if v is not None and v <= cap else None
        return nat_value(self._own.get_name(handle), cap)

    def get_decoded(self, handle, decoder) -> Any:
        """``decoder(own register value)``, decoded once per write.

        The decoder must be a pure function of the raw value, and a slot
        must always be decoded by the same decoder (one cache line per
        slot)."""
        if type(handle) is int:
            d = self._decoded[handle]
            if d is NO_DECODE:
                v = self._slots[handle]
                d = decoder(None if v is UNSET else v)
                self._decoded[handle] = d
            return d
        return decoder(self._own.get_name(handle))

    def set(self, handle, value: Any) -> None:
        if type(handle) is not int:
            i = self._own.schema.slots.get(handle)
            if i is None:
                self._set_extra(handle, value)
                return
            handle = i
        slots = self._slots
        if self._dirty is not None:
            prev = slots[handle]
            if prev != value or type(prev) is not type(value):
                marks = self._marks
                if marks is not None:
                    marks.add(handle)
                else:
                    self._mark(handle)
        slots[handle] = value
        # inlined registers.nat_cache_value (hot path) — keep in sync
        self._nats[handle] = value if isinstance(value, int) \
            and not isinstance(value, bool) and value >= 0 else None
        self._decoded[handle] = NO_DECODE
        if self._stable_mask[handle]:
            self._own.stable_version += 1

    def _set_extra(self, name: str, value: Any) -> None:
        own = self._own
        if self._dirty is not None:
            prev = own.extra.get(name, _MISSING) if own.extra else _MISSING
            if prev != value or type(prev) is not type(value):
                self._mark(-1)
        if own.extra is None:
            own.extra = {}
        own.extra[name] = value

    def _mark(self, slot: int) -> None:
        marks = self._marks
        if marks is None:
            dirty = self._dirty
            marks = dirty.get(self.node)
            if marks is None:
                dirty[self.node] = marks = set()
            self._marks = marks
        marks.add(slot)

    def unset(self, handle) -> None:
        own = self._own
        if type(handle) is not int:
            i = own.schema.slots.get(handle)
            if i is None:
                if own.extra and handle in own.extra:
                    if self._dirty is not None:
                        self._mark(-1)
                    del own.extra[handle]
                return
            handle = i
        if self._slots[handle] is not UNSET:
            if self._dirty is not None:
                self._mark(handle)
            self._slots[handle] = UNSET
            self._nats[handle] = None
            self._decoded[handle] = NO_DECODE
            if self._stable_mask[handle]:
                self._own.stable_version += 1

    def alarm(self, reason: str) -> None:
        """Raise (and latch) an alarm at this node."""
        a = self._own.schema.alarm_slot
        current = self._slots[a]
        if current is UNSET or current is None:
            self.set(a, reason)

    # -- neighbour state --------------------------------------------------
    def read(self, neighbor: NodeId, handle, default: Any = None) -> Any:
        f = self._snapshot[neighbor]
        if type(handle) is int:
            v = f.slots[handle]
            return default if v is UNSET else v
        return f.get_name(handle, default)

    def read_nat(self, neighbor: NodeId, handle,
                 cap: int = 1 << 30) -> Optional[int]:
        f = self._snapshot[neighbor]
        if type(handle) is int:
            v = f.nats[handle]
            return v if v is not None and v <= cap else None
        return nat_value(f.get_name(handle), cap)

    def read_decoded(self, neighbor: NodeId, handle, decoder) -> Any:
        """``decoder(neighbour register value)``, decoded once per write
        (the cache lives in the snapshot's register file)."""
        f = self._snapshot[neighbor]
        if type(handle) is int:
            d = f.decoded[handle]
            if d is NO_DECODE:
                v = f.slots[handle]
                d = decoder(None if v is UNSET else v)
                f.decoded[handle] = d
            return d
        return decoder(f.get_name(handle))

    # -- topology ---------------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.neighbors)

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
    array-based register files and call :meth:`bind_registers` with the
    compiled schema so the protocol can resolve its register names to
    integer slot handles once (``bind_registers(None)`` restores
    name-string handles for dict storage).  Protocols without a schema
    keep the legacy dict behaviour everywhere.

    **Bulk-activation plane** (:mod:`repro.sim.bulk`): a protocol may
    additionally declare that it can execute a whole scheduler batch at
    once by overriding :attr:`bulk_step` with a method
    ``bulk_step(batch)`` — the schedulers then hand it entire rounds
    (synchronous) or daemon batches (asynchronous) instead of stepping
    node by node.  The contract is strict: ``bulk_step(batch)`` must be
    observationally identical to ``for ctx in batch.contexts:
    self.step(ctx)`` honouring the batch's ``gate``/``after`` callbacks
    strictly interleaved per activation (see the interleaving contract
    in :mod:`repro.sim.bulk`); :func:`repro.sim.bulk.drive_batch` is
    the always-correct fallback driver, and fused column sweeps are
    licensed only by ``batch.ops``.  ``bulk_step = None`` (the base
    default) keeps the scalar loops.
    """

    #: bulk-activation capability: None (scalar-only) on the base class;
    #: protocols that can run whole batches override this with a method.
    bulk_step = None

    #: whether ``bulk_step`` can fuse batches carrying the
    #: ``conflict_free`` license (:class:`~repro.sim.schedulers.
    #: ConflictFreeDaemon` batches: pairwise disjoint closed
    #: neighbourhoods, batch-granular stops).  The asynchronous
    #: scheduler routes conflict-free daemon batches — with live fused
    #: column ops — only to protocols declaring this; a declaring
    #: ``bulk_step`` must handle ``batch.conflict_free`` batches per
    #: the commuting gate/after contract in :mod:`repro.sim.bulk`.
    bulk_conflict_free = False

    #: whether ``bulk_step`` honours *coalesced* conflict-free batches
    #: (``batch.segments``/``batch.boundary``, see
    #: :class:`~repro.sim.bulk.BulkBatch`): segments driven strictly in
    #: order with ``boundary`` replayed at the original batch
    #: boundaries.  The asynchronous scheduler only coalesces
    #: consecutive same-sweep batches for protocols declaring this;
    #: :func:`repro.sim.bulk.drive_batch` already honours the contract,
    #: so a ``bulk_step`` delegating every callback-carrying batch
    #: there may declare it for free.
    bulk_segments = False

    def register_schema(self) -> Optional[RegisterSchema]:
        """The protocol's register declaration (None: undeclared)."""
        return None

    def bind_registers(self, compiled: Optional[CompiledSchema]) -> None:
        """Resolve register handles for the given storage (no-op here)."""

    def init_node(self, ctx: NodeContext) -> None:  # pragma: no cover
        """Initialize working registers (default: nothing)."""

    def step(self, ctx: NodeContext) -> None:
        raise NotImplementedError

    def on_round_end(self, network: Network, round_index: int) -> None:
        """Optional hook called by schedulers after each full round."""


StopCondition = Callable[[Network], bool]


def first_alarm(network: Network) -> bool:
    """Stop condition: some node raised an alarm."""
    return network.has_alarm()
