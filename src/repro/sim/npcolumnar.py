"""Numpy-backed column tier for :class:`~repro.sim.columnar.ColumnStore`.

The store keeps the *exact* storage representation of its parent —
``array('q')`` nat columns, :class:`PoolColumn` interning-id columns,
boxed ``list`` columns, the sentinel encoding, the per-slot overflow
dicts — so equality with the plain columnar backend is structural, not
emergent: every scalar path (contexts, register views, snapshot serialize /
restore) runs the inherited code unchanged, and a snapshot written by
this store restores into any backend (the serialized ``tobytes`` *is*
the raw int64 buffer numpy views).  Numpy enters only through on-demand
zero-copy ``np.frombuffer`` views over the ``array('q')`` buffers, used
by the bulk-plane batch operations:

* :meth:`NumpyColumnStore.inc_nat_batch` — the fused step-counter bump
  as masked ndarray arithmetic (``where(0 <= v <= cap, v + 1, 1)``),
  falling back to the scalar loop whenever the slot carries boxed
  overflow, is stability-tracked, or the batch is too small to amortize
  the ufunc overhead;
* :meth:`NumpyColumnStore.gather_values` — whole-batch fancy-indexed
  gathers with an all-real fast path (``.tolist()`` hands back Python
  ints, so numpy scalars never leak into register values);
* :meth:`NumpyColumnStore.refresh_from` — the snapshot refresh as
  fancy-indexed row copies: when few nodes wrote last round, only
  their rows are copied per dirty column (sound because the caller
  passes every written row: the synchronous scheduler's changed
  contexts, whose ``wrote`` flags are conservative — every write sets
  one).

The vectorized *protocol* sweeps (train convergecast / broadcast, the
Ask/Show comparison kernels) live with their scalar twins in
``trains/train.py`` and ``trains/comparison.py``; this module provides
their shared ingredients: pool-id-indexed attribute caches (sound
because the interning pool is append-only and values immutable) and
CSR neighbourhood topology built lazily from the bulk contexts.

Numpy is optional.  ``storage="numpy"`` on a machine without it (or
with ``REPRO_NO_NUMPY`` set, the CI fallback-job switch) degrades to
the plain columnar tier with a single :class:`NumpyFallbackWarning`
per process — an implementation detail only, never a seed reshuffle.
"""

from __future__ import annotations

import os
import warnings
from array import array
from typing import Any, List

try:
    import numpy as _np
except ImportError:          # pragma: no cover - exercised via env flag
    _np = None

from .columnar import ColumnStore, PoolColumn, SENT_CEIL

#: below this many batch rows the ufunc/set-up overhead beats the
#: scalar loop, so the vector overrides defer to the parent
VECTOR_MIN = 32


class NumpyFallbackWarning(RuntimeWarning):
    """``storage="numpy"`` requested but numpy is unavailable; the run
    proceeds on the plain columnar tier (bit-for-bit identical)."""


def numpy_or_none():
    """The numpy module, or None when absent / disabled.

    ``REPRO_NO_NUMPY`` is consulted per call (not import time) so the
    no-numpy CI job and the fallback tests can flip it at runtime."""
    if _np is None or os.environ.get("REPRO_NO_NUMPY"):
        return None
    return _np


_warned = False


def warn_fallback_once() -> None:
    """Emit the numpy-absent fallback warning, once per process."""
    global _warned
    if _warned:
        return
    _warned = True
    warnings.warn(
        "storage='numpy' requested but numpy is unavailable; "
        "falling back to storage='columnar' (bit-for-bit identical, "
        "scalar kernels)", NumpyFallbackWarning, stacklevel=3)


def _reset_fallback_warning() -> None:
    """Test hook: arm :func:`warn_fallback_once` again."""
    global _warned
    _warned = False


def view64(col):
    """A writable zero-copy int64 ndarray view over an ``array('q')``
    column (or a stable-versions array).  Columns are fixed-size for a
    store's lifetime and ``restore_serialized`` slice-assigns in place,
    so views taken here never dangle."""
    return _np.frombuffer(col, dtype=_np.int64)


class NumpyColumnStore(ColumnStore):
    """A :class:`ColumnStore` whose batch operations are ndarray passes.

    Representation-identical to the parent (see module docstring); only
    the bulk-plane batch methods are overridden, each with a scalar
    escape hatch for the cases the vector form cannot express (boxed
    overflow junk, stability bookkeeping, pooled columns, tiny batches).
    """

    __slots__ = ()

    #: feature probe for the vectorized protocol kernels
    numpy_tier = True

    # -- bulk plane ------------------------------------------------------
    def inc_nat_batch(self, idx, slot: int, cap: int = 1 << 30):
        np = numpy_or_none()
        col = self.data[slot]
        if (np is None or type(col) is not array or len(idx) < VECTOR_MIN
                or self.overflow[slot] or self.schema.stable_mask[slot]):
            return super().inc_nat_batch(idx, slot, cap)
        view = view64(col)
        ia = np.asarray(idx, dtype=np.intp)
        cur = view[ia]
        new = np.where((cur >= 0) & (cur <= cap), cur + 1, 1)
        view[ia] = new
        self.dirty_cols[slot] = 1
        return new.tolist()

    def gather_values(self, idx, slot: int, default=None):
        np = numpy_or_none()
        col = self.data[slot]
        if (np is None or len(idx) < VECTOR_MIN
                or type(col) not in (array, PoolColumn)):
            return super().gather_values(idx, slot, default)
        view = view64(col)
        taken = view[np.asarray(idx, dtype=np.intp)]
        if type(col) is array and bool((taken > SENT_CEIL).all()):
            return taken.tolist()
        # sentinels (or pool ids) present: the parent's per-element
        # decode handles None/default/overflow/pool exactly
        return super().gather_values(idx, slot, default)

    def refresh_from(self, live: "ColumnStore", full: bool = False,
                     rows=None):
        np = numpy_or_none()
        if np is None or full:
            return super().refresh_from(live, full)
        mask = None
        # masked row copy only pays when few nodes wrote; ``rows`` names
        # every written row, so the others are bitwise equal already and
        # skipping them is exact
        if rows is not None and 0 < len(rows) * 4 < live.n >= VECTOR_MIN:
            mask = np.asarray(rows, dtype=np.intp)
        size = self.schema.size
        for s in range(size):
            if not live.dirty_cols[s]:
                continue
            col = self.data[s]
            if mask is not None and type(col) is not list:
                view64(col)[mask] = view64(live.data[s])[mask]
            else:
                col[:] = live.data[s]
            dec = live.decoded[s]
            self.decoded[s] = list(dec) if dec is not None else None
            ovf = live.overflow[s]
            self.overflow[s] = dict(ovf) if ovf else None
        if live.extras_dirty:
            for i in live.extras_dirty:
                e = live.extras[i]
                self.extras[i] = dict(e) if e else None
        if self.stable_epoch != live.stable_epoch:
            self.stable_versions[:] = live.stable_versions
            self.stable_epoch = live.stable_epoch


class PoolIdCache:
    """Pool-id-indexed int64 attribute arrays, filled on demand.

    ``fn(value)`` maps a pooled value to ``k`` int64 attributes.  The
    arrays are dense over the interning pool (shared between a live
    store and its snapshots, append-only, values immutable — so a
    computed entry never goes stale) and grow geometrically with it,
    but :meth:`sync` computes only the ids its caller is about to
    gather: most values a sweep interns (convergecast cars, rotation
    keys) are never read through a given cache.  ``have`` marks the
    computed ids, one byte each.  After a sync, every pool id of the
    arrays passed in is valid for indexing; ``filled`` is the pool size
    at that sync (ids at or above it are not pooled values the caller
    can have read).  Callers must clamp negative (sentinel) ids before
    fancy-indexing, or gather through :meth:`take`."""

    __slots__ = ("pool", "fn", "k", "arrs", "have", "filled")

    def __init__(self, store: ColumnStore, k: int, fn) -> None:
        self.pool = store.pool_values
        self.fn = fn
        self.k = k
        self.arrs = [_np.zeros(0, _np.int64) for _ in range(k)]
        self.have = _np.zeros(0, _np.uint8)
        self.filled = 0

    def sync(self, *id_arrays) -> List[Any]:
        """Fill the attributes of every pool id in ``id_arrays``
        (int64 arrays of column cells; sentinels are skipped) and
        return the ``k`` attribute arrays."""
        np = _np
        pool = self.pool
        m = len(pool)
        have = self.have
        arrs = self.arrs
        if len(arrs[0]) < max(m, 1):
            # zero-filled growth: pages of ids never requested are
            # never written, so they cost address space, not memory
            cap = max(m, 2 * len(arrs[0]), 64)
            grown = []
            for a in arrs:
                b = np.zeros(cap, np.int64)
                b[:len(a)] = a
                grown.append(b)
            self.arrs = arrs = grown
            h = np.zeros(cap, np.uint8)
            h[:len(have)] = have
            self.have = have = h
        self.filled = m
        need = []
        for ids in id_arrays:
            ids = ids[ids >= 0]          # sentinels are negative
            if len(ids):
                ids = ids[have[ids] == 0]
                if len(ids):
                    need.append(ids)
        if need:
            fn = self.fn
            todo = np.concatenate(need) if len(need) > 1 else need[0]
            todo = list(dict.fromkeys(todo.tolist()))     # dedupe
            for pid in todo:
                vals = fn(pool[pid])
                for a, v in zip(arrs, vals):
                    a[pid] = v
            have[todo] = 1
        return arrs

    def take(self, ids, *defaults) -> List[Any]:
        """The ``k`` attributes of every cell of ``ids`` (synced
        already), ``defaults[j]`` where a cell holds a sentinel."""
        np = _np
        pooled = ids >= 0
        safe = np.where(pooled, ids, 0)
        return [np.where(pooled, a[safe], d)
                for a, d in zip(self.arrs, defaults)]


def put_rows(store: ColumnStore, slot: int, rows, vals) -> None:
    """Slice-store plain ints (nats, sentinels or pool ids) into
    column ``slot`` at the dense ``rows``: the scalar writers' overflow
    pop and dirty mark, minus the per-row calls."""
    ovf = store.overflow[slot]
    if ovf:
        for i in rows.tolist():
            ovf.pop(i, None)
    view64(store.data[slot])[rows] = vals
    store.dirty_cols[slot] = 1


#: encodings used by the vectorized protocol kernels.  All are far
#: outside the value ranges they are compared against (piece levels are
#: 0..256 by ``valid_piece``; node indices are 0..n-1), so a sentinel
#: can never collide with a real comparison match.
SHOW_NONE = -(1 << 40)   # "no flagged show at any level"
WL_NEVER = 1 << 40       # a want level that equals no real level
WL_ODD = -(1 << 41)      # a want level with unknown == semantics
IDX_NOT = -2             # idx_of: equals no node
IDX_ODD = -3             # idx_of: unknown == semantics -> scalar path

#: types whose ``==`` against node ids / plain-int levels follows
#: standard value semantics (no adversarial ``__eq__``)
PLAIN_TYPES = (int, bool, float, str, bytes, tuple, frozenset, type(None))


def idx_of(store: ColumnStore, x: Any) -> int:
    """The dense index of the node ``x`` compares equal to, or
    ``IDX_NOT`` when it provably equals none, or ``IDX_ODD`` when its
    equality semantics are not the plain value semantics the vector
    kernels assume (custom objects route to the scalar path).

    Mirrors the scalar kernels' ``value == me`` checks: ``True == 1``
    and ``1.0 == 1`` alias exactly as Python equality does."""
    index = store.index
    if type(index) is dict:
        if type(x) not in PLAIN_TYPES:
            return IDX_ODD
        try:
            i = index.get(x, IDX_NOT)
        except TypeError:            # unhashable (tuple holding a list)
            return IDX_ODD
        return i if type(i) is int and i >= 0 else IDX_NOT
    # list index: node ids are exactly the dense ints 0..n-1
    if type(x) is bool:
        xi = int(x)
    elif type(x) is int:
        xi = x
    elif type(x) is float:
        if x != x or x in (float("inf"), float("-inf")) \
                or not x.is_integer():
            return IDX_NOT
        xi = int(x)
    elif type(x) in PLAIN_TYPES:
        return IDX_NOT               # str/tuple/... never == an int id
    else:
        return IDX_ODD
    return xi if 0 <= xi < store.n else IDX_NOT


def csr_take(off, ia):
    """Expand a CSR row selection to edge-aligned arrays: for the rows
    ``ia`` return ``(e_node, e_pos)`` where ``e_node[t]`` is the
    position *within* ``ia`` owning edge ``t`` and ``e_pos[t]`` indexes
    the flat CSR arrays.  Empty rows contribute nothing."""
    starts = off[ia]
    return csr_span(starts, off[ia + 1] - starts)


def csr_span(starts, counts):
    """:func:`csr_take` over explicit flat ranges: row ``k`` owns the
    positions ``starts[k] .. starts[k] + counts[k] - 1`` (a row's
    suffix of its CSR segment, say).  Edges come out grouped by row,
    in row order, ascending within a row."""
    np = _np
    total = int(counts.sum())
    m = len(starts)
    e_node = np.repeat(np.arange(m, dtype=np.int64), counts)
    cs = np.zeros(m, np.int64)
    if m > 1:
        np.cumsum(counts[:-1], out=cs[1:])
    e_pos = np.arange(total, dtype=np.int64) + np.repeat(starts - cs,
                                                         counts)
    return e_node, e_pos


def seg_any(flags, e_node, m):
    """Per-row OR-reduction of an edge-aligned boolean array."""
    return _np.bincount(e_node[flags], minlength=m).astype(bool)


class VecTopo:
    """CSR neighbourhood topology over a store's dense node index.

    Built lazily from the bulk contexts the fused sweeps already carry
    (conflict-free batches only cover a subset per batch, so rows
    accumulate until every node has been offered once).  Topology is
    static for a scheduler run, so the flat/offset arrays are built
    exactly once, together with the per-edge weight columns the Ask
    comparison needs.  Being the one object every kernel of a sweep
    receives, it also holds their :meth:`shared` state."""

    __slots__ = ("n", "ctxs", "rows", "missing", "flat", "off",
                 "wts", "w_exact", "degs", "objs")

    #: |weight| ints above this go through the scalar path (float64
    #: compares are exact only to 2**53; stay well clear)
    W_EXACT = 1 << 50

    def __init__(self, n: int) -> None:
        self.n = n
        self.ctxs: List[Any] = [None] * n
        self.rows: List[Any] = [None] * n
        self.missing = n
        self.flat = None
        self.off = None
        self.wts = None
        self.w_exact = None
        self.degs = None
        self.objs = {}

    def shared(self, name: str, make):
        """The sweep-wide object ``name``, built by ``make()`` on first
        request.  The kernels of both trains share their pool-id caches
        this way: an attribute is a function of the pooled value alone,
        whichever train's column holds it."""
        obj = self.objs.get(name)
        if obj is None:
            obj = self.objs[name] = make()
        return obj

    def offer(self, contexts) -> bool:
        """Record the batch's contexts; True once every node is known
        and the CSR arrays are built."""
        if self.flat is not None:
            return True
        ctxs, rows = self.ctxs, self.rows
        for ctx in contexts:
            i = ctx._i
            if rows[i] is None:
                ctxs[i] = ctx
                rows[i] = list(ctx._nbr_idx)
                self.missing -= 1
        if self.missing:
            return False
        self._build()
        return True

    def _build(self) -> None:
        np = _np
        rows = self.rows
        degs = np.fromiter((len(r) for r in rows), np.int64,
                           count=self.n)
        off = np.zeros(self.n + 1, np.int64)
        np.cumsum(degs, out=off[1:])
        flat = np.empty(int(off[-1]), np.int64)
        wts = np.empty(int(off[-1]), np.float64)
        w_exact = np.ones(int(off[-1]), bool)
        for i, r in enumerate(rows):
            a, b = int(off[i]), int(off[i + 1])
            flat[a:b] = r
            ctx = self.ctxs[i]
            store = ctx.store
            for e, j in enumerate(r):
                w = ctx.weight(store.nodes[j])
                if type(w) is int:
                    wts[a + e] = float(w)
                    if not -self.W_EXACT < w < self.W_EXACT:
                        w_exact[a + e] = False
                elif type(w) is float:
                    wts[a + e] = w
                else:
                    wts[a + e] = np.nan
                    w_exact[a + e] = False
        self.flat, self.off, self.degs = flat, off, degs
        self.wts, self.w_exact = wts, w_exact
