"""Columnar register storage: pack the hot state into arrays.

The production storage backend (the per-node dicts are the reference):
a protocol's compiled :class:`~repro.sim.registers.RegisterSchema` is
laid out as one **column** per register, indexed by a dense node index.

* ``nat``-kind registers pack into ``array('q')`` columns — the raw
  value *is* the stored int64, so numeric reads need no separate
  coercion cache and per-round snapshots are C-level ``memcpy``;
* ``str``/``tuple`` kinds go through an **interning pool**
  (:class:`PoolColumn`): the column stores an int id into a shared
  append-only value table, so a write pays one hash, every snapshot
  copy moves 8 bytes per node, and decoded values (validated train
  observations, convergecast cars) are memoized *per pool id* — a piece
  that circulates a whole part is decoded once ever, not once per node
  per write;
* ``opaque`` kinds stay boxed in plain Python list columns.

Values that do not fit their column's encoding — an adversary planting
a string in a nat register, a bool (which must keep its type for the
bit accounting), an int beyond int64, an unhashable object — degrade
gracefully to a boxed per-column overflow dict; nothing ever raises out
of ``array('q')``.

Sentinel encoding (int columns): stored values live in
``(INT_LO, INT_HI)``; reserved values far below ``INT_LO`` mark a
never-written slot (``UNSET_S``), an explicit ``None`` (``NONE_S``), and
a boxed overflow value (``BOX_S``).

Dirty handling is **column + node** grained instead of per-slot sets:
a write flags its column in a bytearray, and the scheduler marks the
stepping node once per activation off the context's ``wrote`` flag; the
synchronous fast path's snapshot refresh then bulk-copies exactly the
dirty columns (slice assignment — ``memcpy`` for arrays, a C pointer
copy for lists) instead of walking per-node mark sets.  Write tracking
is *conservative* (every write marks, no previous-value comparison):
skipping stays sound — a node is skipped only when no write at all
happened in its closed neighbourhood, in which case its deterministic
step would rewrite exactly the current state — and the quiescent
fast-forward still fires because an accepting verifier performs no
writes at all.

A store-level ``stable_epoch`` counter (bumped on every write to a
``stable``-declared register anywhere) lets
:meth:`ColumnarNodeContext.stable_sentinel` answer in O(1) while no
label anywhere changed — the common case on every settled network —
instead of summing the closed neighbourhood per step.

Equivalence: the backend is observably identical to the dict
reference — same mapping contents, same alarms, rounds, activations,
and memory bits (``tests/test_storage_differential.py`` proves it).
The interning pool verifies every hit with :func:`same_shape` (deep
type equality) and diverts ``==``-equal values of different types
(``True`` vs ``1``, ``(1, 1)`` vs ``(1, True)``) to a secondary
typed-key pool: Python's ``True == 1`` would otherwise hand a later
bool write back as the earlier int, silently changing register
contents and the bit accounting relative to the dict reference.
"""

from __future__ import annotations

from array import array
from operator import is_
from typing import Any, Dict, Iterator, List, Mapping, Optional

from ..graphs.weighted import NodeId
from .registers import (CompiledSchema, KIND_NAT, KIND_STR, KIND_TUPLE,
                        NO_DECODE, UNSET, bit_size, is_ghost, nat_value)

#: int-column sentinels; any *stored* int must satisfy INT_LO < x < INT_HI,
#: so the sentinels (far below INT_LO) can never collide with a value.
UNSET_S = -(1 << 62)
NONE_S = UNSET_S + 1
BOX_S = UNSET_S + 2
SENT_CEIL = UNSET_S + 8      # v <= SENT_CEIL  <=>  v is a sentinel
INT_LO = -(1 << 61)
INT_HI = 1 << 61


class PoolColumn(array):
    """An int64 column whose entries are interning-pool ids (or
    sentinels).  A distinct type so the contexts dispatch on
    ``type(col)`` alone — ``array`` means "the int is the value",
    ``PoolColumn`` means "the int indexes the pool", ``list`` means
    boxed.  (``array`` slicing drops subclasses, so copies must be
    rebuilt via ``PoolColumn("q", source)``.)"""

    __slots__ = ()


def _is_pooled(kind: str) -> bool:
    return kind in (KIND_STR, KIND_TUPLE)


def _make_column(kind: str, n: int):
    if kind == KIND_NAT:
        return array("q", [UNSET_S] * n)
    if _is_pooled(kind):
        return PoolColumn("q", [UNSET_S] * n)
    return [UNSET] * n


def _nat_columns(data) -> tuple:
    return tuple(col if type(col) is array else None for col in data)


def _copy_column(col):
    if type(col) is PoolColumn:
        return PoolColumn("q", col)
    return col[:]


def same_shape(a: Any, b: Any) -> bool:
    """Deep type equality of two ``==``-equal values.

    ``True == 1`` and ``2.0 == 2`` in Python, so raw equality alone
    would let the interning pool hand one back as the other — changing
    register contents, bit accounting, and nat coercion relative to the
    dict reference.  Tuples recurse element-wise (``==``-equal tuples
    pair up positionally); ``==``-equal but non-identical frozensets
    iterate in unrelated orders, so they conservatively report False
    and intern separately."""
    ta = a.__class__
    if ta is not b.__class__:
        return False
    if ta is tuple:
        if all(map(is_, a, b)):   # shared parts, small ints: the common
            return True           # hit, checked at C speed
        for x, y in zip(a, b):
            if x is not y and not same_shape(x, y):
                return False
        return True
    if ta is frozenset:
        return False
    return True


def typed_key(value: Any):
    """The value tagged with its type, recursively — the key of the
    secondary pool for values that are ``==``-equal to an already
    interned value of a different (possibly nested) type.  Only built
    on that rare adversarial path, never per ordinary write."""
    t = value.__class__
    if t is tuple or t is frozenset:
        return (t, tuple(typed_key(x) for x in value))
    return (t, value)


class ColumnStore:
    """One network's registers as per-register columns.

    A store is either the *live* state or a scheduler *snapshot*; both
    share the schema, the node indexing, the interning pool, and the
    per-pool-id decode memos (ids in a snapshot stay valid because the
    pool is append-only and values are immutable; decode results are
    pure functions of the value, so they are shareable too).
    """

    __slots__ = ("schema", "nodes", "index", "n", "data", "nat_cols",
                 "decoded", "decode_memo", "none_decode", "overflow",
                 "stable_versions", "stable_epoch",
                 "extras", "pool_values", "pool_index", "pool_typed",
                 "detached",
                 "dirty_cols", "dirty_nodes", "dirty_node_list",
                 "extras_dirty", "_zero_cols", "_zero_nodes")

    def __init__(self, schema: CompiledSchema,
                 nodes: List[NodeId]) -> None:
        self.schema = schema
        self.nodes = list(nodes)
        n = self.n = len(self.nodes)
        #: node -> dense index; a plain list when the ids already *are*
        #: 0..n-1 (the common case), which indexes ~3x faster than a dict
        if self.nodes == list(range(n)):
            self.index = list(range(n))
        else:
            self.index = {v: i for i, v in enumerate(self.nodes)}
        size = schema.size
        self.data: List[Any] = [_make_column(k, n) for k in schema.kinds]
        #: per slot, the column when it is a plain ``array('q')`` nat
        #: column, else None (the contexts' fast path for nat reads and
        #: writes)
        self.nat_cols = _nat_columns(self.data)
        #: per-slot per-node decode caches for *boxed* columns (created
        #: lazily); pooled columns use the per-id memo instead
        self.decoded: List[Optional[List[Any]]] = [None] * size
        #: per-slot decode memos for pooled columns, indexed by pool id
        #: (shared with snapshots; grown lazily to the pool's size); one
        #: extra per-slot cache holds the decode of None/UNSET
        self.decode_memo: List[Optional[List[Any]]] = [None] * size
        self.none_decode: List[Any] = [NO_DECODE] * size
        #: per-slot boxed values that do not fit the int encoding
        self.overflow: List[Optional[Dict[int, Any]]] = [None] * size
        self.stable_versions = array("q", [0] * n)
        self.stable_epoch = 0
        #: undeclared registers, per node index (lazy)
        self.extras: List[Optional[Dict[str, Any]]] = [None] * n
        #: interning pool shared with every snapshot of this store;
        #: ``pool_typed`` holds the rare ==-equal-but-differently-typed
        #: entries (see :meth:`intern`)
        self.pool_values: List[Any] = []
        self.pool_index: Dict[Any, int] = {}
        self.pool_typed: Dict[Any, int] = {}
        #: dense-index freelist for churned nodes: node id -> the dense
        #: row it vacated.  Columns never change length and survivors
        #: never move, so live handles (register views, numpy views) stay valid
        #: across crash/rejoin; a rejoining node reclaims its exact
        #: original row.
        self.detached: Dict[NodeId, int] = {}
        # -- write tracking (conservative: every write marks) ----------
        self.dirty_cols = bytearray(size)
        self.dirty_nodes = bytearray(n)
        self.dirty_node_list: List[NodeId] = []
        self.extras_dirty: set = set()
        self._zero_cols = bytes(size)
        self._zero_nodes = bytes(n)

    # -- value encoding -------------------------------------------------
    def intern(self, value: Any) -> int:
        """The pool id of ``value`` (interning it on first sight).

        Keyed by raw equality but *verified* by :func:`same_shape`
        (identity short-circuits): a hit whose stored value is
        ``==``-equal yet differently typed (``True`` vs ``1``,
        ``(1, 1)`` vs ``(1, True)``) must not be handed back — such
        values divert to a secondary :func:`typed_key` pool, so the
        common path pays no typed-key construction and the pool index
        stores no typed-key memory."""
        pid = self.pool_index.get(value)
        if pid is not None:
            stored = self.pool_values[pid]
            if stored is value or same_shape(stored, value):
                return pid
            key = typed_key(value)
            pid = self.pool_typed.get(key)
            if pid is None:
                pid = len(self.pool_values)
                self.pool_values.append(value)
                self.pool_typed[key] = pid
            return pid
        pid = len(self.pool_values)
        self.pool_values.append(value)
        self.pool_index[value] = pid
        return pid

    def pooled_id(self, value: Any) -> Optional[int]:
        """The id :meth:`intern` would return for ``value`` if it is
        already pooled, else None — without interning it."""
        pid = self.pool_index.get(value)
        if pid is not None:
            stored = self.pool_values[pid]
            if stored is value or same_shape(stored, value):
                return pid
            return self.pool_typed.get(typed_key(value))
        return None

    def _box(self, slot: int, i: int, value: Any) -> int:
        ovf = self.overflow[slot]
        if ovf is None:
            ovf = self.overflow[slot] = {}
        ovf[i] = value
        return BOX_S

    # -- generic (index, slot) access -----------------------------------
    # The hot paths live in ColumnarNodeContext; these are the shared
    # slow-path primitives used by name access, register views, and the
    # memory accounting.
    def get_value(self, i: int, slot: int, default: Any = None) -> Any:
        col = self.data[slot]
        v = col[i]
        if type(col) is list:
            return default if v is UNSET else v
        if v > SENT_CEIL:
            return self.pool_values[v] if type(col) is PoolColumn else v
        if v == NONE_S:
            return None
        if v == UNSET_S:
            return default
        return self.overflow[slot][i]

    def has_value(self, i: int, slot: int) -> bool:
        col = self.data[slot]
        v = col[i]
        if type(col) is list:
            return v is not UNSET
        return v != UNSET_S

    def set_value(self, i: int, slot: int, value: Any) -> None:
        """Slow-path write with full bookkeeping (dirty, stable, decode).

        Never raises out of the int encoding: out-of-range ints, bools
        (whose type the bit accounting must preserve), and unhashable
        values all degrade to the boxed per-column overflow."""
        col = self.data[slot]
        if type(col) is list:
            col[i] = value
        else:
            ovf = self.overflow[slot]
            if ovf:                  # drop a stale boxed entry (re-boxed
                ovf.pop(i, None)     # below when the new value needs it)
            if type(col) is PoolColumn:
                if value is None:
                    col[i] = NONE_S
                else:
                    try:
                        col[i] = self.intern(value)
                    except TypeError:   # unhashable adversarial junk
                        col[i] = self._box(slot, i, value)
            elif type(value) is int and INT_LO < value < INT_HI:
                col[i] = value
            elif value is None:
                col[i] = NONE_S
            else:
                col[i] = self._box(slot, i, value)
        dec = self.decoded[slot]
        if dec is not None:
            dec[i] = NO_DECODE
        self.mark_dirty(i, slot)
        if self.schema.stable_mask[slot]:
            self.stable_versions[i] += 1
            self.stable_epoch += 1

    def unset_value(self, i: int, slot: int) -> None:
        col = self.data[slot]
        col[i] = UNSET if type(col) is list else UNSET_S
        ovf = self.overflow[slot]
        if ovf:
            ovf.pop(i, None)
        dec = self.decoded[slot]
        if dec is not None:
            dec[i] = NO_DECODE
        self.mark_dirty(i, slot)
        if self.schema.stable_mask[slot]:
            self.stable_versions[i] += 1
            self.stable_epoch += 1

    def mark_dirty(self, i: int, slot: int) -> None:
        self.dirty_cols[slot] = 1
        if not self.dirty_nodes[i]:
            self.dirty_nodes[i] = 1
            self.dirty_node_list.append(self.nodes[i])

    def mark_node(self, i: int) -> None:
        """Node-only dirt (extras changes, which refresh separately)."""
        if not self.dirty_nodes[i]:
            self.dirty_nodes[i] = 1
            self.dirty_node_list.append(self.nodes[i])

    def clear_dirty(self) -> None:
        self.dirty_cols[:] = self._zero_cols
        self.dirty_nodes[:] = self._zero_nodes
        self.dirty_node_list.clear()
        self.extras_dirty.clear()

    # -- batch entry points (the bulk-activation plane) ------------------
    def inc_nat_batch(self, idx: List[int], slot: int,
                      cap: int = 1 << 30) -> List[int]:
        """Fused read-modify-write: apply the scalar context semantics
        of ``new = (nat(value) or 0) + 1; set(new)`` to every node index
        of ``idx`` in one column sweep, marking the column dirty once.

        Matches :class:`ColumnarNodeContext` bit for bit: sentinel
        entries (UNSET/None), boxed junk, bools, and over-cap ints all
        coerce to 0 and restart at 1; stale boxed-overflow entries are
        dropped exactly as a scalar write would drop them.  Node-level
        dirty tracking is the caller's job (the bulk driver marks the
        whole batch).  Returns the new values in ``idx`` order."""
        col = self.data[slot]
        out: List[int] = []
        append = out.append
        if type(col) is array:
            ovf = self.overflow[slot]
            if ovf:
                pop = ovf.pop
                for i in idx:
                    v = col[i]
                    v = v + 1 if 0 <= v <= cap else 1
                    col[i] = v
                    append(v)
                    pop(i, None)
            else:
                for i in idx:
                    v = col[i]
                    v = v + 1 if 0 <= v <= cap else 1
                    col[i] = v
                    append(v)
            self.dirty_cols[slot] = 1
            if self.schema.stable_mask[slot]:
                sv = self.stable_versions
                for i in idx:
                    sv[i] += 1
                self.stable_epoch += len(idx)
            return out
        # pooled/boxed columns (a nat-semantics register declared with a
        # non-nat kind): the slow-path write keeps full bookkeeping
        for i in idx:
            v = nat_value(self.get_value(i, slot), cap)
            v = (v or 0) + 1
            self.set_value(i, slot, v)
            append(v)
        return out

    def gather_values(self, idx: List[int], slot: int,
                      default: Any = None) -> List[Any]:
        """Batch read of one column at the given node indices (the
        values a scalar ``ctx.get`` loop would return, in order) in a
        single sweep — pooled ids resolve straight off the shared pool,
        sentinels and boxed overflow decode inline, with none of the
        per-node context dispatch a scalar read loop pays."""
        col = self.data[slot]
        if type(col) is list:
            return [default if (v := col[i]) is UNSET else v for i in idx]
        out: List[Any] = []
        append = out.append
        if type(col) is PoolColumn:
            pool = self.pool_values
            for i in idx:
                v = col[i]
                if v > SENT_CEIL:
                    append(pool[v])
                elif v == NONE_S:
                    append(None)
                elif v == UNSET_S:
                    append(default)
                else:
                    append(self.overflow[slot][i])
            return out
        for i in idx:
            v = col[i]
            if v > SENT_CEIL:
                append(v)
            elif v == NONE_S:
                append(None)
            elif v == UNSET_S:
                append(default)
            else:
                append(self.overflow[slot][i])
        return out

    def make_nat_writer(self, slot: int):
        """A closure replicating the array-column branch of
        :meth:`ColumnarNodeContext.set` — the single source of truth
        for fused nat writes (range check, ``None`` sentinel, boxed
        overflow pop/re-box, dirty-column mark).  The bulk plane's
        fused sweeps (:meth:`TrainComponent.make_bulk_step
        <repro.trains.train.TrainComponent.make_bulk_step>`,
        :meth:`ComparisonComponent.make_bulk_sync
        <repro.trains.comparison.ComparisonComponent.make_bulk_sync>`)
        bind one per written column; per-context ``wrote`` flags are
        the caller's contract (``batch.wrote_all``)."""
        col = self.data[slot]
        overflow = self.overflow
        box = self._box
        dc = self.dirty_cols

        def write(i: int, val) -> None:
            ovf = overflow[slot]
            if ovf:
                ovf.pop(i, None)
            if type(val) is int and INT_LO < val < INT_HI:
                col[i] = val
            elif val is None:
                col[i] = NONE_S
            else:
                col[i] = box(slot, i, val)
            dc[slot] = 1

        return write

    def decode_col(self, slot: int) -> List[Any]:
        dec = self.decoded[slot]
        if dec is None:
            dec = self.decoded[slot] = [NO_DECODE] * self.n
        return dec

    def memo_for(self, slot: int, pid: int) -> List[Any]:
        """The pool-id-indexed decode memo of ``slot``, grown to cover
        ``pid`` (entries beyond the previous pool size start empty)."""
        memo = self.decode_memo[slot]
        if memo is None:
            memo = self.decode_memo[slot] = []
        if pid >= len(memo):
            memo.extend([NO_DECODE] * (len(self.pool_values) - len(memo)))
        return memo

    # -- per-node operations --------------------------------------------
    def clear_node(self, i: int) -> None:
        for slot, col in enumerate(self.data):
            col[i] = UNSET if type(col) is list else UNSET_S
            ovf = self.overflow[slot]
            if ovf:
                ovf.pop(i, None)
            dec = self.decoded[slot]
            if dec is not None:
                dec[i] = NO_DECODE
            self.dirty_cols[slot] = 1
        self.extras[i] = None
        self.extras_dirty.add(i)
        self.mark_node(i)
        self.stable_versions[i] += 1
        self.stable_epoch += 1

    # -- dynamic node membership (churn) --------------------------------
    def detach_node(self, node: NodeId) -> None:
        """Remove ``node`` from the store without reindexing: its row is
        cleared and parked on the :attr:`detached` freelist.  Column
        lengths and the dense indices of every other node are untouched,
        so live handles (contexts are rebuilt by the schedulers'
        ``topology_changed``; register views and numpy column views need no
        rebuild) stay valid."""
        index = self.index
        if type(index) is list:
            index = self.index = {v: i for i, v in enumerate(self.nodes)}
        i = index.pop(node)
        self.clear_node(i)
        self.nodes[i] = None
        self.detached[node] = i

    def attach_node(self, node: NodeId) -> None:
        """Re-admit a node parked by :meth:`detach_node` at its exact
        original dense row (all registers unset).  The store cannot
        grow: attaching a node it never held is an error."""
        try:
            i = self.detached.pop(node)
        except KeyError:
            raise ValueError(
                f"node {node!r} is not detached from this store; "
                f"columns cannot grow") from None
        self.nodes[i] = node
        self.index[node] = i

    def node_dict(self, i: int) -> Dict[str, Any]:
        out = {}
        for slot, name in enumerate(self.schema.names):
            if self.has_value(i, slot):
                out[name] = self.get_value(i, slot)
        extra = self.extras[i]
        if extra:
            out.update(extra)
        return out

    def node_bits(self, i: int) -> int:
        get = self.get_value
        total = 0
        for slot in self.schema.nonghost_slots:
            v = get(i, slot, UNSET)
            if v is not UNSET:
                total += bit_size(v)
        extra = self.extras[i]
        if extra:
            total += sum(bit_size(v) for name, v in extra.items()
                         if not is_ghost(name))
        return total

    # -- name access (register views, name-addressed context calls) -----
    # A declared name resolves to its slot; any other name lives in the
    # node's extras dict, so undeclared state can always be planted.
    def get_name(self, i: int, name: str, default: Any = None) -> Any:
        slot = self.schema.slots.get(name)
        if slot is not None:
            return self.get_value(i, slot, default)
        extra = self.extras[i]
        return default if extra is None else extra.get(name, default)

    def set_name(self, i: int, name: str, value: Any) -> None:
        slot = self.schema.slots.get(name)
        if slot is not None:
            self.set_value(i, slot, value)
            return
        extra = self.extras[i]
        if extra is None:
            extra = self.extras[i] = {}
        extra[name] = value
        self.extras_dirty.add(i)
        self.mark_node(i)

    def has_name(self, i: int, name: str) -> bool:
        slot = self.schema.slots.get(name)
        if slot is not None:
            return self.has_value(i, slot)
        extra = self.extras[i]
        return bool(extra) and name in extra

    def del_name(self, i: int, name: str) -> None:
        if not self.has_name(i, name):
            raise KeyError(name)
        slot = self.schema.slots.get(name)
        if slot is not None:
            self.unset_value(i, slot)
            return
        del self.extras[i][name]
        self.extras_dirty.add(i)
        self.mark_node(i)

    # -- snapshots -------------------------------------------------------
    def fork(self) -> "ColumnStore":
        """A full snapshot copy sharing schema, indexing, pool, and
        decode memos.  Subclass-preserving: a numpy-tier store forks a
        numpy-tier snapshot, so snapshot-side batch gathers and masked
        refreshes stay vectorized."""
        cls = type(self)
        snap = cls.__new__(cls)
        snap.schema = self.schema
        snap.nodes = self.nodes
        snap.index = self.index
        snap.n = self.n
        snap.pool_values = self.pool_values
        snap.pool_index = self.pool_index
        snap.pool_typed = self.pool_typed
        snap.detached = dict(self.detached)
        snap.decode_memo = self.decode_memo
        snap.none_decode = self.none_decode
        snap.data = [_copy_column(col) for col in self.data]
        snap.nat_cols = _nat_columns(snap.data)
        snap.decoded = [dec[:] if dec is not None else None
                        for dec in self.decoded]
        snap.overflow = [dict(ovf) if ovf else None
                         for ovf in self.overflow]
        snap.stable_versions = self.stable_versions[:]
        snap.stable_epoch = self.stable_epoch
        snap.extras = [dict(e) if e else None for e in self.extras]
        snap.dirty_cols = bytearray(self.schema.size)
        snap.dirty_nodes = bytearray(self.n)
        snap.dirty_node_list = []
        snap.extras_dirty = set()
        snap._zero_cols = self._zero_cols
        snap._zero_nodes = self._zero_nodes
        return snap

    # -- checkpoint serialization (:mod:`repro.sim.snapshot`) ------------
    def serialize(self) -> Dict[str, Any]:
        """The store's full state as one picklable dict: raw column
        bytes for the packed kinds, the interning-pool value table, the
        boxed overflow, extras, and the stable-version state.  The pool
        *indexes* are not shipped — :meth:`restore_serialized` rebuilds
        them from the value table, which keeps the payload small and
        the restored ids exact."""
        cols: List[Any] = []
        for col in self.data:
            if type(col) is PoolColumn:
                cols.append(("pool", col.tobytes()))
            elif type(col) is array:
                cols.append(("nat", col.tobytes()))
            else:
                cols.append(("box", col[:]))
        return {
            "names": tuple(self.schema.names),
            "nodes": list(self.nodes),
            "cols": cols,
            "overflow": [dict(o) if o else None for o in self.overflow],
            "pool": list(self.pool_values),
            "extras": [dict(e) if e else None for e in self.extras],
            "stable_versions": self.stable_versions.tobytes(),
            "stable_epoch": self.stable_epoch,
            "detached": dict(self.detached),
        }

    def _check_serialized(self, state: Mapping[str, Any]) -> None:
        """Reject a payload that does not fit this store *before* any
        mutation, so a failed restore leaves the store untouched."""
        if tuple(state["names"]) != tuple(self.schema.names) or \
                list(state["nodes"]) != self.nodes:
            raise ValueError("serialized state does not match this "
                             "store's schema/node layout")
        if (state.get("detached") or {}) != self.detached:
            raise ValueError("serialized state does not match this "
                             "store's detached-node freelist")
        cols = state["cols"]
        if len(cols) != self.schema.size:
            raise ValueError("serialized column count mismatch")
        for (tag, data), col in zip(cols, self.data):
            want = ("pool" if type(col) is PoolColumn
                    else "nat" if type(col) is array else "box")
            if tag != want:
                raise ValueError(f"serialized column kind {tag!r} does "
                                 f"not match the store's {want!r}")
            if len(data) != (self.n if tag == "box"
                             else self.n * col.itemsize):
                raise ValueError("serialized column length mismatch")
        if len(state["stable_versions"]) != \
                self.n * self.stable_versions.itemsize or \
                len(state["overflow"]) != self.schema.size or \
                len(state["extras"]) != self.n:
            raise ValueError("serialized per-node state length mismatch")

    def restore_serialized(self, state: Mapping[str, Any]) -> None:
        """Restore a :meth:`serialize` payload **in place**, exactly:
        column contents, boxed overflow, extras, stable versions, and —
        bit for bit — the interning-pool ids.

        The pool indexes are rebuilt from the value table with the same
        first-occurrence / typed-key split :meth:`intern` produced, so
        a circulating piece re-interned after the restore resolves to
        its original id instead of re-validating into a duplicate.  All
        mutation is in place (contexts and snapshots alias the pool
        lists and columns); derived decode caches are dropped (pool ids
        changed meaning wholesale) and dirty tracking is reset (run
        boundaries re-snapshot fully anyway)."""
        self._check_serialized(state)
        pool = self.pool_values
        pool[:] = state["pool"]
        index = self.pool_index
        typed = self.pool_typed
        index.clear()
        typed.clear()
        for pid, value in enumerate(pool):
            prev = index.get(value)
            if prev is None:
                index[value] = pid
            elif not (pool[prev] is value or same_shape(pool[prev], value)):
                typed.setdefault(typed_key(value), pid)
        for slot, (tag, data) in enumerate(state["cols"]):
            col = self.data[slot]
            if tag == "box":
                col[:] = data
            else:
                fresh = array("q")
                fresh.frombytes(data)
                col[:] = fresh
        self.overflow[:] = [dict(o) if o else None
                            for o in state["overflow"]]
        self.extras[:] = [dict(e) if e else None for e in state["extras"]]
        sv = array("q")
        sv.frombytes(state["stable_versions"])
        self.stable_versions[:] = sv
        self.stable_epoch = state["stable_epoch"]
        size = self.schema.size
        self.decoded[:] = [None] * size
        self.decode_memo[:] = [None] * size
        self.none_decode[:] = [NO_DECODE] * size
        self.clear_dirty()

    def refresh_from(self, live: "ColumnStore", full: bool = False) -> None:
        """Bulk-refresh this snapshot from ``live``'s dirty state.

        ``full=True`` recopies everything (run boundaries, where external
        writes may be untracked).  Otherwise only the dirty columns are
        copied — slice assignment, so arrays are a single ``memcpy``.
        Boxed columns' per-node decode caches follow the live side's
        (live entries for rewritten slots are already invalidated;
        decode results are pure functions of the value, so sharing or
        recomputing them is observationally identical); pooled columns
        need nothing, their decode memo is value-keyed.
        """
        dirty = range(self.schema.size) if full else [
            s for s in range(self.schema.size) if live.dirty_cols[s]]
        for s in dirty:
            self.data[s][:] = live.data[s]
            ldec = live.decoded[s]
            if ldec is not None:
                sdec = self.decoded[s]
                if sdec is None:
                    self.decoded[s] = ldec[:]
                else:
                    sdec[:] = ldec
            elif self.decoded[s] is not None:
                self.decoded[s][:] = [NO_DECODE] * self.n
            lovf = live.overflow[s]
            if lovf or self.overflow[s]:
                self.overflow[s] = dict(lovf) if lovf else None
        if full:
            self.extras = [dict(e) if e else None for e in live.extras]
            self.stable_versions[:] = live.stable_versions
            self.stable_epoch = live.stable_epoch
        else:
            for i in live.extras_dirty:
                e = live.extras[i]
                self.extras[i] = dict(e) if e else None
            if live.stable_epoch != self.stable_epoch:
                self.stable_versions[:] = live.stable_versions
                self.stable_epoch = live.stable_epoch


class ColumnarNodeContext:
    """The slot-addressed counterpart of
    :class:`~repro.sim.network.NodeContext`: accessors take *handles*,
    int slot indices resolved once per run by
    ``Protocol.bind_registers`` (str names are the storage-agnostic
    fallback), backed by column loads.

    Own registers are read and written live; neighbour reads go to the
    ``snap`` store (a scheduler snapshot under the synchronous fast
    path, the live store itself under asynchronous execution).  Every
    write flags its column dirty and sets :attr:`wrote`; the schedulers
    mark the node dirty once per activation off that flag (writes
    outside a scheduler step — markers, fault injection, view pokes —
    are covered by the run-boundary full refresh, exactly as on dict
    storage).
    """

    __slots__ = ("network", "node", "neighbors", "store", "snap",
                 "_i", "_index", "_data", "_snap_data", "_pool",
                 "_memos", "_decs", "_snap_decs", "_stable", "_dc",
                 "_ovf", "_snap_ovf", "_nat_cols", "_snap_nat_cols",
                 "_nbr_idx", "wrote", "_sent_key", "_sent_val")

    def __init__(self, network, node: NodeId, store: ColumnStore,
                 snap: Optional[ColumnStore] = None,
                 neighbors: Optional[List[NodeId]] = None) -> None:
        self.network = network
        self.node = node
        self.neighbors = network.graph.neighbors(node) \
            if neighbors is None else neighbors
        self.store = store
        if snap is None:
            snap = store
        self.snap = snap
        self._i = store.index[node]
        self._index = store.index
        self._data = store.data
        self._snap_data = snap.data
        self._pool = store.pool_values
        self._memos = store.decode_memo
        self._decs = store.decoded
        self._snap_decs = snap.decoded
        self._stable = store.schema.stable_mask
        self._dc = store.dirty_cols
        self._ovf = store.overflow
        self._snap_ovf = snap.overflow
        self._nat_cols = store.nat_cols
        self._snap_nat_cols = snap.nat_cols
        self._nbr_idx = tuple(self._index[u] for u in self.neighbors)
        self.wrote = False
        self._sent_key = None
        self._sent_val = 0

    # -- own state ------------------------------------------------------
    def get(self, handle, default: Any = None) -> Any:
        try:
            col = self._data[handle]
        except TypeError:     # a register name, not a slot handle
            return self.store.get_name(self._i, handle, default)
        v = col[self._i]
        t = type(col)
        if t is list:
            return default if v is UNSET else v
        if v > SENT_CEIL:
            return v if t is array else self._pool[v]
        if v == NONE_S:
            return None
        if v == UNSET_S:
            return default
        return self._ovf[handle][self._i]

    def nat(self, handle, cap: int = 1 << 30) -> Optional[int]:
        try:
            col = self._nat_cols[handle]
        except TypeError:
            return nat_value(self.store.get_name(self._i, handle), cap)
        if col is not None:
            v = col[self._i]
            return v if 0 <= v <= cap else None
        col = self._data[handle]
        v = col[self._i]
        if type(col) is list:
            return nat_value(v, cap)
        # pooled: an adversary may plant an int in a str/tuple column;
        # boxed overflow values are unhashable, hence never ints
        return nat_value(self._pool[v], cap) if v > SENT_CEIL else None

    def get_decoded(self, handle, decoder) -> Any:
        try:
            col = self._data[handle]
        except TypeError:
            return decoder(self.store.get_name(self._i, handle))
        if type(col) is PoolColumn:
            v = col[self._i]
            if v >= 0:
                try:
                    d = self._memos[handle][v]
                except (TypeError, IndexError):
                    d = NO_DECODE
                if d is NO_DECODE:
                    d = decoder(self._pool[v])
                    self.store.memo_for(handle, v)[v] = d
                return d
            return self._decode_sentinel(v, self._i, handle, decoder,
                                         self.store)
        if type(col) is array:
            # nat columns carry no decode cache (nothing in the repo
            # decodes a numeric register; correctness over a cache that
            # every write would have to invalidate)
            return decoder(self.store.get_value(self._i, handle))
        dec = self._decs[handle]
        if dec is None:
            dec = self.store.decode_col(handle)
        i = self._i
        d = dec[i]
        if d is NO_DECODE:
            d = decoder(self.store.get_value(i, handle))
            dec[i] = d
        return d

    def _decode_sentinel(self, v: int, i: int, handle: int, decoder,
                         store: ColumnStore) -> Any:
        """Decode a pooled column's sentinel entry at node index ``i``
        of ``store``.  UNSET and None share one cache line — both decode
        ``decoder(None)``, like the other backends; boxed values decode
        uncached (adversarial rarities)."""
        if v == BOX_S:
            return decoder(store.overflow[handle][i])
        d = store.none_decode[handle]
        if d is NO_DECODE:
            d = store.none_decode[handle] = decoder(None)
        return d

    def set(self, handle, value: Any) -> None:
        try:
            col = self._nat_cols[handle]
        except TypeError:
            self.store.set_name(self._i, handle, value)
            self.wrote = True
            return
        i = self._i
        ovf = self._ovf[handle]
        if ovf:                  # drop a stale boxed entry (re-boxed
            ovf.pop(i, None)     # below when still needed)
        if col is not None:
            if type(value) is int and INT_LO < value < INT_HI:
                col[i] = value
            elif value is None:
                col[i] = NONE_S
            else:
                col[i] = self.store._box(handle, i, value)
        elif type(col := self._data[handle]) is list:
            col[i] = value
            dec = self._decs[handle]
            if dec is not None:
                dec[i] = NO_DECODE
        elif value is None:
            col[i] = NONE_S
        else:
            try:
                col[i] = self.store.intern(value)
            except TypeError:   # unhashable adversarial junk
                col[i] = self.store._box(handle, i, value)
        self._dc[handle] = 1
        self.wrote = True
        if self._stable[handle]:
            store = self.store
            store.stable_versions[i] += 1
            store.stable_epoch += 1

    def unset(self, handle) -> None:
        store = self.store
        if type(handle) is not int:
            if store.has_name(self._i, handle):
                store.del_name(self._i, handle)
                self.wrote = True
        elif store.has_value(self._i, handle):
            store.unset_value(self._i, handle)
            self.wrote = True

    def alarm(self, reason: str) -> None:
        """Raise (and latch) an alarm at this node.

        Cold path (protocols call it only when actually alarming), so it
        resolves through ``get_value`` — correct for any declared kind
        of the alarm register, not just the usual ``opaque``."""
        a = self.store.schema.alarm_slot
        if self.store.get_value(self._i, a) is None:
            self.set(a, reason)

    # -- neighbour state --------------------------------------------------
    def read(self, neighbor: NodeId, handle, default: Any = None) -> Any:
        try:
            col = self._snap_data[handle]
        except TypeError:
            return self.snap.get_name(self._index[neighbor], handle, default)
        v = col[self._index[neighbor]]
        t = type(col)
        if t is list:
            return default if v is UNSET else v
        if v > SENT_CEIL:
            return v if t is array else self._pool[v]
        if v == NONE_S:
            return None
        if v == UNSET_S:
            return default
        return self._snap_ovf[handle][self._index[neighbor]]

    def read_nat(self, neighbor: NodeId, handle,
                 cap: int = 1 << 30) -> Optional[int]:
        try:
            col = self._snap_nat_cols[handle]
        except TypeError:
            return nat_value(self.read(neighbor, handle), cap)
        if col is not None:
            v = col[self._index[neighbor]]
            return v if 0 <= v <= cap else None
        col = self._snap_data[handle]
        v = col[self._index[neighbor]]
        if type(col) is list:
            return nat_value(v, cap)
        return nat_value(self._pool[v], cap) if v > SENT_CEIL else None

    def read_decoded(self, neighbor: NodeId, handle, decoder) -> Any:
        try:
            col = self._snap_data[handle]
        except TypeError:
            return decoder(self.read(neighbor, handle))
        i = self._index[neighbor]
        if type(col) is PoolColumn:
            v = col[i]
            if v >= 0:
                try:
                    d = self._memos[handle][v]
                except (TypeError, IndexError):
                    d = NO_DECODE
                if d is NO_DECODE:
                    d = decoder(self._pool[v])
                    self.snap.memo_for(handle, v)[v] = d
                return d
            return self._decode_sentinel(v, i, handle, decoder, self.snap)
        snap = self.snap
        if type(col) is array:
            return decoder(snap.get_value(i, handle))
        dec = self._snap_decs[handle]
        if dec is None:
            dec = snap.decode_col(handle)
        d = dec[i]
        if d is NO_DECODE:
            d = decoder(snap.get_value(i, handle))
            dec[i] = d
        return d

    # -- label sentinel ----------------------------------------------------
    def stable_sentinel(self) -> int:
        """Version sentinel of the closed neighbourhood's stable (label)
        registers, O(1) while no stable register anywhere changed (the
        store-level epoch is monotone, so an unchanged epoch pair
        implies every constituent version is unchanged)."""
        store = self.store
        snap = self.snap
        # both epochs are monotone non-decreasing, so their sum is
        # unchanged iff both are unchanged
        key = store.stable_epoch + snap.stable_epoch
        if key == self._sent_key:
            return self._sent_val
        sv = snap.stable_versions
        s = store.stable_versions[self._i]
        for j in self._nbr_idx:
            s += sv[j]
        self._sent_key = key
        self._sent_val = s
        return s

    # -- topology ---------------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.neighbors)

    def weight(self, neighbor: NodeId):
        return self.network.graph.weight(self.node, neighbor)

    def port(self, neighbor: NodeId) -> int:
        return self.network.graph.port(self.node, neighbor)
