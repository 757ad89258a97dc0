"""The Ask/Show/Want comparison mechanism (Sections 7.2 and 8).

A node ``v`` rotates through the levels of J(v).  For the current level
``j`` it samples its own train for the flagged piece I(F_j(v)), stores it
in ``Ask``, and compares it against what each neighbour ``u`` *shows* —
the broadcast slots of u's two trains:

* **synchronous mode** (Lemma 7.5): v holds the level for a full
  ask-window (one train-cycle budget); every neighbour's train is
  guaranteed to have displayed its matching piece within the window, so
  the sampling is stateless and all neighbours are compared in parallel.
* **asynchronous Want mode** (Lemma 7.6): v serves neighbours one at a
  time, filing a request in its ``Want`` register; the server delays its
  train while a displayed piece is wanted (a constant delay per node), so
  a slow reader never misses a piece.  An intentionally serialized
  variant ("simple") reproduces the O(Delta^2 log^3 n) handshake the
  paper describes first.

When the events E(v, u, j) occur the verifier applies the minimality
checks of Section 8:

* **C1** — if v is the endpoint of the candidate edge (v, u0) of F_j(v):
  u0 must lie outside F_j(v) and the candidate's weight must equal the
  claimed minimum omega(F_j(v));
* **C2** — for every outgoing edge (v, u): omega(F_j(v)) <= w(v, u);
* **piece agreement** (Claim 8.3) — neighbours inside the same fragment
  must show the identical piece.

Like the trains, the component resolves every register it touches to a
handle once (:meth:`ComparisonComponent.bind_registers`) — a name string
on dict storage, an integer slot under a compiled register schema.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

from ..labels.registers import (REG_DELIM, REG_ENDP, REG_JMASK,
                                REG_PARENT_ID, REG_PARENTS, REG_ROOTS)
from ..labels.strings import ENDP_DOWN, ENDP_UP
from ..labels.wellforming import sorted_levels
from ..sim.columnar import BOX_S, INT_HI, NONE_S, SENT_CEIL, UNSET_S
from ..sim.npcolumnar import (IDX_NOT, IDX_ODD, SHOW_NONE, WL_NEVER,
                              WL_ODD, PoolIdCache, csr_take, idx_of,
                              put_rows, seg_any, view64)
from ..sim.registers import handle_resolver
from .budgets import Budgets
from .train import (TrainComponent, decode_observation, valid_piece,
                    _NAT_CAP, _PieceTable)

#: comparison modes
MODE_SYNC_WINDOW = "sync-window"
MODE_WANT = "want"
MODE_WANT_SIMPLE = "want-simple"

#: ghost instrumentation: completed full Ask rotations at a node.
REG_ROT = "_rot"


def rotation_settled(network, min_rotations: int = 1,
                     base: Optional[dict] = None) -> bool:
    """Steady-state predicate over the ``_rot`` ghost instrumentation
    written by :meth:`ComparisonComponent._advance`: every node has
    completed ``min_rotations`` full Ask rotations (beyond its ``base``
    count, when given), or some node already raised an alarm.

    The single definition of "the verifier has settled" — the detection
    harness, the campaign engine, and the self-stabilization transformer
    all key off it.
    """
    if network.has_alarm():
        return True
    store = getattr(network, "columns", None)
    if store is not None and REG_ROT in network.schema.slots:
        from ..sim.columnar import SENT_CEIL
        rot = network.schema.slots[REG_ROT]
        # nat column: the common entries are plain counter ints; the
        # sentinel-coded ones (unwritten, None, boxed adversarial junk)
        # resolve through get_value and apply the exact dict-backend
        # expression, so "missing counts as 0" — and even the TypeError
        # a non-int count raises — match across storages
        col = store.data[rot]
        nodes = store.nodes
        for i, v in enumerate(col):
            if nodes[i] is None:
                continue  # freelist-parked row (node crashed out)
            if v <= SENT_CEIL:
                raw = store.get_value(i, rot)
                v = (0 if raw is None else raw) or 0
            floor = min_rotations if base is None \
                else base.get(nodes[i], 0) + min_rotations
            if v < floor:
                return False
        return True
    if base is None:
        return all((regs.get(REG_ROT) or 0) >= min_rotations
                   for regs in network.registers.values())
    return all((regs.get(REG_ROT) or 0) >= base.get(v, 0) + min_rotations
               for v, regs in network.registers.items())

REG_ASK = "cmp_ask"          # the piece currently exposed for comparison
REG_ASK_IDX = "cmp_idx"      # index into J(v) of the current level
REG_ASK_WAIT = "cmp_wait"    # synchronous hold-down counter
REG_ASK_WD = "cmp_wd"        # progress watchdog
REG_WANT = "cmp_want"        # (server, level) request (asynchronous)
REG_ASK_NBR = "cmp_nbr"      # which neighbour is being served (async)
REG_SVC_WD = "cmp_svc"       # per-service watchdog (async)
REG_TURN = "cmp_turn"        # server round-robin pointer ("simple" mode)

#: (name, kind, init-default); ``_rot`` is declared but not initialized
#: (the settle predicate treats missing as 0, matching dict storage).
#: ``Ask``/``Want`` hold tuples (a piece; a ``(server, level)``
#: request), declared so a columnar store interns them.
_CMP_DECLS = (
    (REG_ASK, "tuple", None),
    (REG_ASK_IDX, "nat", 0),
    (REG_ASK_WAIT, "nat", 0),
    (REG_ASK_WD, "nat", 0),
    (REG_WANT, "tuple", None),
    (REG_ASK_NBR, "nat", 0),
    (REG_SVC_WD, "nat", 0),
    (REG_TURN, "nat", 0),
)


class ComparisonComponent:
    """Per-node comparison logic over two train components.

    ``only_top`` restricts the Ask rotation to the node's top levels —
    used by the hybrid scheme of :mod:`repro.verification.hybrid`, which
    verifies bottom levels locally from replicated pieces.
    """

    def __init__(self, top: TrainComponent, bottom: TrainComponent,
                 mode: str, only_top: bool = False) -> None:
        if mode not in (MODE_SYNC_WINDOW, MODE_WANT, MODE_WANT_SIMPLE):
            raise ValueError(f"unknown comparison mode {mode!r}")
        self.top = top
        self.bottom = bottom
        self.mode = mode
        self.only_top = only_top
        self.bind_registers(None)

    def declare_registers(self, schema) -> None:
        schema.declare_many(_CMP_DECLS)
        schema.declare(REG_ROT, "nat", None)

    def bind_registers(self, compiled) -> None:
        resolve = handle_resolver(compiled)
        self.h_ask = resolve(REG_ASK)
        self.h_idx = resolve(REG_ASK_IDX)
        self.h_wait = resolve(REG_ASK_WAIT)
        self.h_wd = resolve(REG_ASK_WD)
        self.h_want = resolve(REG_WANT)
        self.h_nbr = resolve(REG_ASK_NBR)
        self.h_svc = resolve(REG_SVC_WD)
        self.h_turn = resolve(REG_TURN)
        self.h_rot = resolve(REG_ROT)
        self.h_jmask = resolve(REG_JMASK)
        self.h_delim = resolve(REG_DELIM)
        self.h_endp = resolve(REG_ENDP)
        self.h_pid = resolve(REG_PARENT_ID)
        self.h_parents = resolve(REG_PARENTS)
        self.h_roots = resolve(REG_ROOTS)
        self._init_pairs = tuple(
            (resolve(name), default) for name, _kind, default in _CMP_DECLS)
        # label-derived cache: node -> (sentinel, levels, {level: u0})
        # (columnar storage only; invalidated when the stable
        # sentinel moves)
        self._label_cache = {}

    def _levels(self, ctx) -> List[int]:
        levels = sorted_levels(ctx.nat(self.h_jmask) or 0)
        if self.only_top:
            delim = ctx.nat(self.h_delim) or 0
            levels = levels[delim:]
        return levels

    # ------------------------------------------------------------------
    def init_node(self, ctx) -> None:
        for handle, default in self._init_pairs:
            ctx.set(handle, default)

    # ------------------------------------------------------------------
    # what the servers must hold (queried by the verifier before the
    # trains' broadcast steps)
    # ------------------------------------------------------------------
    def held_levels(self, ctx) -> Tuple[Optional[int], Optional[int]]:
        """(top_level, bottom_level) this node must keep displayed: train
        x holds ``lvl`` iff its own show is flagged at ``lvl`` and some
        neighbour's ``Want`` names ``(me, lvl)``.

        The neighbours' requests are scanned first, because most
        activations find none naming this node, and then the own shows
        need no decoding.  The "simple" server honours one client per
        turn, so only the neighbour whose turn it is can hold a level."""
        if self.mode == MODE_SYNC_WINDOW:
            return (None, None)
        me = ctx.node
        nbrs = ctx.neighbors
        if self.mode == MODE_WANT_SIMPLE and nbrs:
            nbrs = (nbrs[(ctx.nat(self.h_turn) or 0) % len(nbrs)],)
        read = ctx.read
        h_want = self.h_want
        # a list, not a set: an adversarial want level may be
        # unhashable, and ``in`` must compare with == like a scan would
        wanted = []
        for u in nbrs:
            want = read(u, h_want)
            if isinstance(want, tuple) and len(want) == 2 and \
                    want[0] == me:
                wanted.append(want[1])
        if not wanted:
            return (None, None)
        held = [None, None]
        for k, train in enumerate((self.top, self.bottom)):
            show = train.own_show(ctx)
            if show is not None and show.flag and show.piece[1] in wanted:
                held[k] = show.piece[1]
        return (held[0], held[1])

    def serve_turn(self, ctx) -> None:
        """Advance the round-robin pointer ("simple" server side)."""
        if self.mode != MODE_WANT_SIMPLE:
            return
        nbrs = ctx.neighbors
        if not nbrs:
            return
        turn = (ctx.nat(self.h_turn) or 0) % len(nbrs)
        current = nbrs[turn]
        want = ctx.read(current, self.h_want)
        if not (isinstance(want, tuple) and len(want) == 2
                and want[0] == ctx.node):
            ctx.set(self.h_turn, (turn + 1) % len(nbrs))

    # ------------------------------------------------------------------
    # main step
    # ------------------------------------------------------------------
    def step(self, ctx, budgets: Budgets,
             sentinel: Optional[int] = None) -> List[str]:
        if sentinel is not None:
            ent = self._label_cache.get(ctx.node)
            if ent is None or ent[0] != sentinel:
                ent = (sentinel, self._levels(ctx), {})
                self._label_cache[ctx.node] = ent
            levels = ent[1]
            cands = ent[2]
        else:
            levels = self._levels(ctx)
            cands = None
        alarms: List[str] = []
        if not levels:
            return alarms

        wd = (ctx.nat(self.h_wd) or 0) + 1
        ctx.set(self.h_wd, wd)
        if wd > budgets.ask_alarm:
            alarms.append("ask: no comparison progress within budget")
            ctx.set(self.h_wd, 0)

        ask = ctx.get(self.h_ask)
        if ask is not None and not valid_piece(ask):
            ctx.set(self.h_ask, None)
            ask = None

        if ask is None:
            self._try_acquire(ctx, levels, budgets, alarms, cands)
            return alarms

        # The events E(v, u, level).  The synchronous window (Section
        # 7.2.1) compares every neighbour at once; the Want handshake
        # (Section 7.2.2) serves one neighbour at a time.
        sync = self.mode == MODE_SYNC_WINDOW
        nbrs = ctx.neighbors
        if sync:
            scan = nbrs
        else:
            idx = ctx.nat(self.h_nbr) or 0
            if idx >= len(nbrs):
                self._advance(ctx, levels)
                return alarms
            scan = (nbrs[idx],)
        z, level, weight = ask
        bit = 1 << level
        read_nat = ctx.read_nat
        read_decoded = ctx.read_decoded
        h_jmask = self.h_jmask
        h_top, h_bot = self.top.h_bbuf, self.bottom.h_bbuf
        decode = decode_observation
        u0 = self._MISS     # the C1 candidate, looked up at first use
        obs = None
        for u in scan:
            jmask_u = read_nat(u, h_jmask)
            if jmask_u is not None and jmask_u & bit:
                # u claims the level: the flagged piece it shows there,
                # the top train's slot first
                obs = read_decoded(u, h_top, decode)
                if obs is None or not obs.flag or obs.piece[1] != level:
                    obs = read_decoded(u, h_bot, decode)
                    if obs is not None and (not obs.flag
                                            or obs.piece[1] != level):
                        obs = None
                if obs is None:
                    if sync:
                        continue        # no event for this neighbour
                    # no event yet: file the Want (in the "simple"
                    # variant the server honours one client at a time,
                    # which is what makes that variant Delta^2)
                    ctx.set(self.h_want, (u, level))
                    svc = (ctx.nat(self.h_svc) or 0) + 1
                    ctx.set(self.h_svc, svc)
                    scale = max(1, ctx.degree) \
                        if self.mode == MODE_WANT_SIMPLE else 1
                    if svc > budgets.service * scale:
                        alarms.append("WANT: server never displayed the "
                                      "requested piece")
                        ctx.set(self.h_want, None)
                        ctx.set(self.h_nbr, idx + 1)
                        ctx.set(self.h_svc, 0)
                    return alarms
                if obs.piece[0] == z:
                    # same claimed fragment: members must agree on the
                    # piece (Claim 8.3), and the candidate edge of C1
                    # must leave the fragment
                    if tuple(obs.piece) != tuple(ask):
                        alarms.append("AGREE: same fragment, different "
                                      "piece (Claim 8.3)")
                    if u0 is self._MISS:
                        u0 = self._candidate_neighbor(ctx, level,
                                                      cands)
                    if u0 == u:
                        alarms.append("C1: candidate edge is internal to "
                                      "its fragment")
                    continue
            # the edge (v, u) is outgoing: C2
            if weight is None:
                alarms.append("C2: the whole-tree fragment has an "
                              "outgoing edge")
                continue
            try:
                violated = ctx.weight(u) < weight
            except TypeError:
                alarms.append("C2: incomparable weights in piece")
                continue
            if violated:
                alarms.append("C2: outgoing edge lighter than the claimed "
                              "minimum")
        if sync:
            wait = ctx.nat(self.h_wait) or 0
            if wait <= 1:
                self._advance(ctx, levels)
            else:
                ctx.set(self.h_wait, wait - 1)
        else:
            if obs is not None:
                ctx.set(self.h_want, None)
            ctx.set(self.h_nbr, idx + 1)
            ctx.set(self.h_svc, 0)
        return alarms

    # ------------------------------------------------------------------
    def _target_level(self, ctx, levels: List[int]) -> int:
        idx = (ctx.nat(self.h_idx) or 0) % len(levels)
        return levels[idx]

    def _advance(self, ctx, levels: List[int]) -> None:
        idx = (ctx.nat(self.h_idx) or 0) % len(levels)
        if idx + 1 >= len(levels):
            # ghost instrumentation: completed full Ask rotations
            ctx.set(self.h_rot, (ctx.get(self.h_rot) or 0) + 1)
        ctx.set(self.h_idx, (idx + 1) % len(levels))
        ctx.set(self.h_ask, None)
        ctx.set(self.h_wait, 0)
        ctx.set(self.h_want, None)
        ctx.set(self.h_nbr, 0)
        ctx.set(self.h_svc, 0)
        ctx.set(self.h_wd, 0)

    def _try_acquire(self, ctx, levels: List[int], budgets: Budgets,
                     alarms: List[str], cands) -> None:
        """Sample the node's own trains for the target level's piece;
        ``cands`` is :meth:`_candidate_neighbor`'s memo."""
        target = self._target_level(ctx, levels)
        for train in (self.top, self.bottom):
            show = train.own_show(ctx)
            if show is not None and show.flag and show.piece[1] == target:
                ctx.set(self.h_ask, show.piece)
                ctx.set(self.h_wait, budgets.ask_window)
                ctx.set(self.h_nbr, 0)
                ctx.set(self.h_svc, 0)
                alarms.extend(
                    self._on_acquire_checks(ctx, show.piece, cands))
                return

    # ------------------------------------------------------------------
    # checks at acquisition time (no neighbour info needed)
    # ------------------------------------------------------------------
    _MISS = object()

    def _candidate_neighbor(self, ctx, level: int,
                            cands=None) -> Optional[int]:
        """The other endpoint of the candidate edge of F_level(v), when v
        is the endpoint; None otherwise.

        A pure function of the labels in the closed neighbourhood —
        memoized per level in ``cands`` on columnar storage (the
        sentinel-validated ``{level: u0}`` dict :meth:`step` passes
        down; None computes afresh)."""
        if cands is not None:
            hit = cands.get(level, self._MISS)
            if hit is not self._MISS:
                return hit
            u0 = self._candidate_neighbor_uncached(ctx, level)
            cands[level] = u0
            return u0
        return self._candidate_neighbor_uncached(ctx, level)

    def _candidate_neighbor_uncached(self, ctx, level: int) -> Optional[int]:
        endp = ctx.get(self.h_endp)
        if not isinstance(endp, str) or level >= len(endp):
            return None
        if endp[level] == ENDP_UP:
            pid = ctx.get(self.h_pid)
            return pid if pid in ctx.neighbors else None
        if endp[level] == ENDP_DOWN:
            h_pid = self.h_pid
            h_parents = self.h_parents
            me = ctx.node
            read = ctx.read
            for c in ctx.neighbors:
                if read(c, h_pid) != me:
                    continue
                cp = read(c, h_parents)
                if isinstance(cp, str) and level < len(cp) and cp[level] == "1":
                    return c
        return None

    def _on_acquire_checks(self, ctx, piece, cands=None) -> List[str]:
        alarms: List[str] = []
        z, level, weight = piece
        roots = ctx.get(self.h_roots)
        if isinstance(roots, str) and level < len(roots):
            if roots[level] == "1" and z != ctx.node:
                alarms.append("ask: fragment root id differs from the piece")
        u0 = self._candidate_neighbor(ctx, level, cands)
        if u0 is not None:
            # C1 (weight half): the claimed minimum must be the candidate's
            # actual weight.
            if weight is None or weight != ctx.weight(u0):
                alarms.append("C1: claimed minimum differs from the "
                              "candidate edge weight")
        return alarms

    def make_vector_kernel(self, ops, topo):
        """The whole-column classifier for the comparison half of the
        numpy-tier vector sweep (see
        :meth:`TrainComponent.make_vector_kernel
        <repro.trains.train.TrainComponent.make_vector_kernel>` for the
        contract).  Most activations of the comparison are *trivial*:
        the ask is held and no neighbour event fires (sync window), or
        the served neighbour has not displayed the piece yet and the
        ``Want`` stays filed (async).  Those paths reduce to int64
        masks over the J-mask / broadcast-slot / ``Want`` columns plus
        per-pool-id attribute lookups (piece validity, level, weight
        class), with float64 edge-weight compares guarded to the range
        where they are exact.  The acquire cycle — waiting for the
        target level's flagged piece in the node's own slots, acquiring
        it, advancing to the next level — is planned as masked writes
        too.  Anything else — events, alarms, rows whose train replays,
        boxed junk, odd ``==`` semantics — replays :meth:`step`.
        """
        return _VectorCmpKernel(self, ops, topo)


#: levels of the vector kernel's (row, level) tables; a J-mask is a
#: nat of at most 31 bits, and Ask levels go to 62 (see ``_prologue``)
_CMP_LEVELS = 64
#: ``_VectorCmpKernel.cand`` cells: C1's candidate as a CSR edge
#: position, or one of these
CAND_NONE = -1   # no candidate (u0 is None)
CAND_ODD = -2    # a candidate the arrays cannot model: replay
CAND_UNSET = -3  # not derived yet
#: ``_VectorCmpKernel.rcode`` cells: the acquire's root check
RC_NONE = 1      # silent
RC_ONE = 2       # ``roots[level] == "1"``: alarms unless z is me
RC_ODD = 3       # ``roots`` is a str subclass: replay


#: float64 bit pattern as an int64 (PoolIdCache cells are int64)
def _f64bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


class _VectorCmpKernel:
    """Vector classifier state for one :class:`ComparisonComponent`:
    the numpy transcription of :meth:`~ComparisonComponent.step`, the
    only one besides the scalar method itself.

    ``classify`` dispatches on the mode (sync window / Want); ``held``
    is the Want mode's vectorized :meth:`~ComparisonComponent.held_levels`
    — it returns per-row hold flags for the train classifiers plus a
    soundness mask (rows whose hold could not be proven go scalar).
    Every row a classifier cannot prove trivial replays the scalar
    methods.

    Besides the held-ask paths, both modes plan the acquire cycle as
    masked writes of every register's final value: the *wait* for the
    target level's flagged piece, its *acquire* and the *advance* to
    the next level.  Their label-derived inputs are per-row tables:
    each row's level rotation (a CSR over ``lv_off``/``lv_flat``,
    rebuilt per stable epoch) and, per (row, level) cell, the
    candidate edge of C1 as a CSR edge position (``cand``) and the
    ``roots`` verdict of the acquire's root check (``rcode``), filled
    on a miss by the scalar fill code and cleared by ``rebuild``.
    """

    __slots__ = ("comp", "store", "snap", "topo", "ask_cache",
                 "show_cache", "want_cache", "pieces", "nlev", "lv_off",
                 "lv_flat", "cand", "rcode", "_want_ids")

    def __init__(self, comp, ops, topo):
        self.comp = comp
        self.store = ops.store
        self.snap = ops.snap
        self.topo = topo
        store = ops.store
        pieces = self.pieces = topo.shared(
            "train.pieces", lambda: _PieceTable(store))

        # shared identity interns: two pieces (or fragment roots) get
        # the same id iff they compare equal under the scalar body's
        # own comparisons.  Roots are plain non-bool ints (valid_piece)
        # so dict equality IS ``==``; whole pieces are tuples, where
        # both dict lookup and tuple ``==`` go through
        # PyObject_RichCompareBool (identity-shortcut) item-wise — the
        # same semantics, including same-object NaN weights.  An
        # unhashable weight falls out as id -1 (never equal: scalar).
        frags: dict = {}
        ids: dict = {}

        def _piece_id(p):
            try:
                return ids.setdefault(p, len(ids))
            except TypeError:
                return -1

        def ask_attrs(val):
            # (valid, level, weight-kind, float64 weight bits,
            #  fragment id, piece id); kind 1 means "compares exactly
            # as float64 against edge weights"
            if not valid_piece(val):
                return (0, 0, 0, 0, -1, -1)
            w = val[2]
            if type(w) is float:
                wk, bits = 1, _f64bits(w)
            elif type(w) is bool:
                wk, bits = 1, _f64bits(float(w))
            elif type(w) is int and -(1 << 50) < w < (1 << 50):
                wk, bits = 1, _f64bits(float(w))
            elif w is None:
                wk, bits = 0, 0
            else:
                wk, bits = 2, 0
            return (1, val[1], wk, bits,
                    frags.setdefault(val[0], len(frags)),
                    _piece_id(tuple(val)))

        def show_attrs(val):
            # (level, fragment id, piece id, piece serial) a show
            # exposes to _neighbor_piece and _try_acquire, or
            # (SHOW_NONE, -1, -1, -1)
            d = decode_observation(val)
            if d is not None and d.flag:
                p = d.piece
                return (p[1], frags.setdefault(p[0], len(frags)),
                        _piece_id(tuple(p)), pieces.serial(p))
            return (SHOW_NONE, -1, -1, -1)

        def want_attrs(val):
            # (who the request names, its level) under plain ==
            # semantics; WL_ODD forces the scalar path
            if isinstance(val, tuple) and len(val) == 2:
                lv = val[1]
                if type(lv) is bool:
                    enc = int(lv)
                elif type(lv) is int:
                    enc = lv if -(1 << 40) < lv < (1 << 40) else WL_NEVER
                elif type(lv) is float:
                    if lv != lv or lv in (float("inf"), float("-inf")) \
                            or not lv.is_integer():
                        enc = WL_NEVER
                    else:
                        iv = int(lv)
                        enc = iv if -(1 << 40) < iv < (1 << 40) \
                            else WL_NEVER
                elif type(lv) in (str, bytes, tuple, frozenset,
                                  type(None)):
                    enc = WL_NEVER      # never == a plain int level
                else:
                    enc = WL_ODD
                return (idx_of(store, val[0]), enc)
            return (IDX_NOT, WL_NEVER)

        self.ask_cache = PoolIdCache(store, 6, ask_attrs)
        self.show_cache = PoolIdCache(store, 4, show_attrs)
        self.want_cache = PoolIdCache(store, 2, want_attrs)
        self.nlev = self.lv_off = self.lv_flat = None
        self.cand = self.rcode = None
        # per-row memo of the last interned Want filing: a waiting
        # client re-files the same (server, level) for many sweeps, and
        # the pool id of a value never changes, so the memo needs no
        # epoch guard
        self._want_ids = None

    def rebuild(self, np, topo) -> None:
        """Refresh the level rotations, filling the label cache with
        the exact fill code of :meth:`ComparisonComponent.step`, and
        clear the (row, level) tables."""
        comp = self.comp
        cache = comp._label_cache
        n = topo.n
        rows = []
        for i in range(n):
            ctx = topo.ctxs[i]
            sentinel = ctx.stable_sentinel()
            ent = cache.get(ctx.node)
            if ent is None or ent[0] != sentinel:
                ent = (sentinel, comp._levels(ctx), {})
                cache[ctx.node] = ent
            rows.append(ent[1])
        nlev = self.nlev = np.fromiter(map(len, rows), np.int64, count=n)
        self.lv_off = np.zeros(n + 1, np.int64)
        np.cumsum(nlev, out=self.lv_off[1:])
        self.lv_flat = np.fromiter((lv for r in rows for lv in r),
                                   np.int64, count=int(self.lv_off[-1]))
        self.cand = np.full(n * _CMP_LEVELS, CAND_UNSET, np.int64)
        self.rcode = np.zeros(n * _CMP_LEVELS, np.int8)

    # -- label tables ------------------------------------------------------
    def _cells(self, np, i, lvl):
        """``(cand, rcode)`` of the (row, level) cells ``i``, ``lvl``
        (levels below ``_CMP_LEVELS``), filling the misses."""
        cells = i * _CMP_LEVELS + lvl
        c = self.cand[cells]
        miss = c == CAND_UNSET
        if miss.any():
            self._fill_cells(np, np.unique(cells[miss]))
            c = self.cand[cells]
        return c, self.rcode[cells]

    def _fill_cells(self, np, cells) -> None:
        """Derive the (row, level) ``cells`` from the labels with the
        scalar fill code: C1's candidate ``u0`` as the position of its
        edge in the row's CSR segment (``CAND_NONE`` for None,
        ``CAND_ODD`` for a value the arrays cannot model), and whether
        ``roots[level]`` is ``"1"``."""
        comp, topo, store = self.comp, self.topo, self.store
        nodes, off, flat = store.nodes, topo.off, topo.flat
        for cell in cells.tolist():
            i, level = divmod(cell, _CMP_LEVELS)
            ctx = topo.ctxs[i]
            roots = ctx.get(comp.h_roots)
            if type(roots) is not str:
                # a str subclass may index and compare unlike a str
                rc = RC_ODD if isinstance(roots, str) else RC_NONE
            else:
                rc = RC_ONE if level < len(roots) and roots[level] == "1" \
                    else RC_NONE
            u0 = comp._candidate_neighbor_uncached(ctx, level)
            pos = CAND_NONE
            if u0 is not None:
                pos = CAND_ODD
                j = idx_of(store, u0)
                if j >= 0 and type(u0) is type(nodes[j]):
                    a = int(off[i])
                    hit = np.flatnonzero(flat[a:int(off[i + 1])] == j)
                    if len(hit):
                        pos = a + int(hit[0])
            self.cand[cell] = pos
            self.rcode[cell] = rc

    # -- shared prologue ---------------------------------------------------
    def _prologue(self, np, ia):
        comp, store = self.comp, self.store
        data = store.data
        empty = self.nlev[ia] == 0
        wd_v = view64(data[comp.h_wd])[ia]
        wd_new = np.where((wd_v >= 0) & (wd_v <= _NAT_CAP), wd_v, 0) + 1
        av = view64(data[comp.h_ask])[ia]
        asks = self.ask_cache.sync(av)
        a_pool = (av >= 0) & (av < self.ask_cache.filled)
        api = np.where(a_pool, av, 0)
        ask_ok = a_pool & (asks[0][api] == 1)
        ask_none = (av == NONE_S) | (av == UNSET_S)
        lvl = asks[1][api]
        # int64 shifts are defined only to 63; real levels are 0..256
        # and a level above 62 cannot set a bit of a <=_NAT_CAP J-mask,
        # but proving that per edge is not worth it: route scalar
        lvl_ok = (lvl >= 0) & (lvl <= 62)
        wk = asks[2][api]
        wflt = asks[3][api].view(np.float64)
        afid = np.where(ask_ok, asks[4][api], -1)
        apid = np.where(ask_ok, asks[5][api], -1)
        return (empty, wd_new, ask_ok, ask_none, lvl, lvl_ok, wk, wflt,
                afid, apid)

    def _show_levels(self, np, cols, k=1):
        """Per input column of broadcast-slot pool ids, the first ``k``
        of: the shown level (SHOW_NONE: no flagged show), the show's
        fragment and piece intern ids (-1: none)."""
        arrs = self.show_cache.sync(*cols)
        out = []
        for c in cols:
            pooled = c >= 0
            ci = np.where(pooled, c, 0)
            out.append([np.where(pooled, a[ci], d)
                        for a, d in zip(arrs[:k], (SHOW_NONE, -1, -1))])
        return out

    # -- the acquire cycle -------------------------------------------------
    def _plan_acquire(self, np, ia, free, trains):
        """``(wait, acquire, serial)`` over the batch rows: of the rows
        ``free`` (no Ask, watchdog under budget), those whose
        ``_try_acquire`` provably finds no flagged piece at the target
        level ``levels[idx % len(levels)]`` in either train's own slot,
        and those that provably acquire one without an alarm, with the
        acquired piece's serial.  The slots read are the ones each
        train leaves this step (``trains``: per stepping train, its
        final trivial mask and slot plan): its planned adopt or drain
        write, or its unchanged cell.  Rows whose train replays, boxed
        cells and pieces without a serial stay residual."""
        m = len(ia)
        wait = np.zeros(m, bool)
        acq = np.zeros(m, bool)
        ser = np.full(m, -1, np.int64)
        for triv, _sp in trains:
            free = free & triv
        f = np.flatnonzero(free)
        if not len(f):
            return wait, acq, ser
        comp, topo, pt = self.comp, self.topo, self.pieces
        data = self.store.data
        i = ia[f]
        # both trains' own cells as one (2, |f|) array: the top
        # train's row first, as _try_acquire scans them
        cells = np.stack([view64(data[t.h_bbuf])[i]
                          for t in (comp.top, comp.bottom)])
        arrs = self.show_cache.sync(cells.ravel())
        pooled = cells >= 0
        ci = np.where(pooled, cells, 0)
        lv = np.where(pooled, arrs[0][ci], SHOW_NONE)
        sr = arrs[3][ci]            # read only where lv is a level
        box = cells == BOX_S
        for t, (_triv, sp) in enumerate(trains):
            if sp is None:
                continue
            p = sp.pos[f]
            k = np.flatnonzero(p >= 0)
            if len(k):
                j = p[k]
                s = sp.ser[j]
                lv[t, k] = np.where(sp.flag[j], pt.lv[s], SHOW_NONE)
                sr[t, k] = s
                box[t, k] = False
        iv = view64(data[comp.h_idx])[i]
        idx = np.where((iv >= 0) & (iv <= _NAT_CAP), iv, 0)
        tgt = self.lv_flat[self.lv_off[i] + idx % self.nlev[i]]
        at = lv == tgt
        top = at[0]
        hit = top | at[1]
        ok = ~(box[0] | box[1])
        s = np.where(top, sr[0], sr[1])
        a = ok & hit & (s >= 0)
        if a.any():
            k = np.flatnonzero(a)
            sk, ik = s[k], i[k]
            cand, rc = self._cells(np, ik, tgt[k])
            cp = np.where(cand >= 0, cand, 0)
            # the root check alarms when roots[level] == "1" names
            # another root; C1 when the candidate edge's weight is not
            # the piece's (a NaN weight stands for None or inexact)
            a[k] = ((rc == RC_NONE) | ((rc == RC_ONE) & (pt.zi[sk] == ik))) \
                & ((cand == CAND_NONE) | ((cand >= 0) & topo.w_exact[cp]
                                          & (topo.wts[cp] == pt.wt[sk])))
        wait[f] = ok & ~hit
        acq[f] = a
        ser[f] = s
        return wait, acq, ser

    def _plan_advance(self, np, ia, adv):
        """``(ok, idx, rot)`` for the rows ``adv`` about to run
        ``_advance``: the rows whose ``_rot`` increment is a plain int
        write (or who do not wrap), the new level index, and the new
        ``_rot`` (-1: untouched); ``idx`` and ``rot`` are None when no
        row advances."""
        k = np.flatnonzero(adv)
        if not len(k):
            return adv, None, None
        m = len(ia)
        ok = np.zeros(m, bool)
        idx = np.zeros(m, np.int64)
        rot = np.full(m, -1, np.int64)
        data = self.store.data
        i = ia[k]
        nl = self.nlev[i]
        iv = view64(data[self.comp.h_idx])[i]
        x = np.where((iv >= 0) & (iv <= _NAT_CAP), iv, 0) % nl
        wrap = x + 1 >= nl
        rv = view64(data[self.comp.h_rot])[i]
        raw = (rv > SENT_CEIL) & (rv < INT_HI - 1)
        ok[k] = ~wrap | raw | (rv == NONE_S) | (rv == UNSET_S)
        idx[k] = (x + 1) % nl
        rot[k] = np.where(wrap, np.where(raw, rv + 1, 1), -1)
        return ok, idx, rot

    def _make_apply(self, ia, wd_new, aw, acq, ser, adv, adv_idx, adv_rot,
                    wd_rows):
        """The planned writes of the acquire cycle for the kept row
        positions: the watchdog of ``wd_rows``, the acquires' Ask
        (interned as the write lands), hold-down and service counters,
        and the advances' eight registers."""
        comp, store = self.comp, self.store
        pt = self.pieces

        def apply(rows):
            sel = rows[wd_rows[rows]]
            if len(sel):
                put_rows(store, comp.h_wd, ia[sel], wd_new[sel])
            sel = rows[acq[rows]]
            if len(sel):
                ri = ia[sel]
                put_rows(store, comp.h_ask, ri, pt.piece_ids(ser[sel]))
                put_rows(store, comp.h_wait, ri, aw[sel])
                put_rows(store, comp.h_nbr, ri, 0)
                put_rows(store, comp.h_svc, ri, 0)
            sel = rows[adv[rows]] if adv_idx is not None else ()
            if len(sel):
                ri = ia[sel]
                rot = adv_rot[sel]
                w = rot >= 0
                if w.any():
                    put_rows(store, comp.h_rot, ri[w], rot[w])
                put_rows(store, comp.h_idx, ri, adv_idx[sel])
                for h in (comp.h_ask, comp.h_want):
                    put_rows(store, h, ri, NONE_S)
                for h in (comp.h_wait, comp.h_nbr, comp.h_svc, comp.h_wd):
                    put_rows(store, h, ri, 0)

        return apply

    # -- classifiers -------------------------------------------------------
    def classify(self, np, ia, aa, sv, aw, trains):
        """``(trivial-mask, apply)`` for the batch rows ``ia``; ``aa``,
        ``sv`` and ``aw`` are the per-row ask-alarm, service and
        ask-window budgets, ``trains`` each stepping train's final
        ``(trivial-mask, slot plan)``.

        ``apply(rows)`` performs the trivial writes for the row
        *positions* kept (an int64 index array into ``ia``, O(|rows|))."""
        if self.comp.mode == MODE_SYNC_WINDOW:
            return self._classify_sync(np, ia, aa, aw, trains)
        return self._classify_want(np, ia, aa, sv, aw, trains)

    def _classify_sync(self, np, ia, aa, aw, trains):
        comp, store, snap = self.comp, self.store, self.snap
        data, sdata = store.data, snap.data
        topo = self.topo
        m = len(ia)
        (empty, wd_new, ask_ok, ask_none, lvl, lvl_ok, wk, wflt, afid,
         apid) = self._prologue(np, ia)
        wait_v = view64(data[comp.h_wait])[ia]
        wait = np.where((wait_v >= 0) & (wait_v <= _NAT_CAP), wait_v, 0)
        wd_ok = ~empty & (wd_new <= aa)
        held = np.flatnonzero(wd_ok & ask_ok & lvl_ok)
        # per-edge replay of _sync_compare_all's silent paths over the
        # rows holding an Ask: a neighbour inside the level must
        # display the *same* piece and not be the candidate (else
        # AGREE/C1 could fire); an outgoing edge must pass the weight
        # check exactly.  Anything undecidable — boxed slots, odd
        # weights, an odd candidate — forces the scalar body.
        hi = ia[held]
        hl = lvl[held]
        e_node, e_pos = csr_take(topo.off, hi)
        ej = topo.flat[e_pos]
        jm = view64(sdata[comp.h_jmask])[ej]
        lvl_e = hl[e_node]
        u_has = (jm >= 0) & (jm <= _NAT_CAP) & (((jm >> lvl_e) & 1) == 1)
        tb = view64(sdata[comp.top.h_bbuf])[ej]
        bb = view64(sdata[comp.bottom.h_bbuf])[ej]
        (st, tf, tp), (sb, bf, bp) = self._show_levels(np, (tb, bb), 3)
        ebox = u_has & ((tb == BOX_S) | (bb == BOX_S))
        # the scalar scan takes the top train's show first
        obs_top = u_has & (st == lvl_e)
        obs_bot = u_has & ~obs_top & (sb == lvl_e)
        obs = obs_top | obs_bot
        sfid = np.where(obs_top, tf, bf)
        spid = np.where(obs_top, tp, bp)
        h_afid, h_apid = afid[held], apid[held]
        same_frag = obs & (sfid == h_afid[e_node]) & (sfid >= 0)
        same_piece = (spid >= 0) & (spid == h_apid[e_node])
        h_wk, h_wflt = wk[held], wflt[held]
        out_ok = (h_wk[e_node] == 1) & topo.w_exact[e_pos] \
            & ~(topo.wts[e_pos] < h_wflt[e_node])
        # C1 compares each same-fragment neighbour with the candidate
        u0j = np.full(len(held), -1, np.int64)
        u0_odd = np.zeros(len(held), bool)
        need = np.flatnonzero(seg_any(same_frag, e_node, len(held)))
        if len(need):
            cand, _rc = self._cells(np, hi[need], hl[need])
            u0_odd[need] = cand == CAND_ODD
            u0j[need] = np.where(cand >= 0,
                                 topo.flat[np.where(cand >= 0, cand, 0)],
                                 -1)
        bad = ebox \
            | (~u_has & ~out_ok) \
            | (obs & ~same_frag & ~out_ok) \
            | (same_frag & (~same_piece | u0_odd[e_node]
                            | (ej == u0j[e_node])))
        quiet = np.zeros(m, bool)
        quiet[held] = ~seg_any(bad, e_node, len(held))
        hold = quiet & (wait > 1)
        adv, adv_idx, adv_rot = self._plan_advance(np, ia, quiet & (wait <= 1))
        wt, acq, ser = self._plan_acquire(np, ia, wd_ok & ask_none, trains)
        triv = empty | hold | adv | wt | acq
        base = self._make_apply(ia, wd_new, aw, acq, ser, adv,
                                adv_idx, adv_rot, hold | wt | acq)
        h_wait = comp.h_wait

        def apply(rows):
            base(rows)
            sel = rows[hold[rows]]
            if len(sel):
                put_rows(store, h_wait, ia[sel], wait[sel] - 1)

        return triv, apply

    def _classify_want(self, np, ia, aa, sv, aw, trains):
        comp, store, snap = self.comp, self.store, self.snap
        data, sdata = store.data, snap.data
        topo = self.topo
        m = len(ia)
        (empty, wd_new, ask_ok, ask_none, lvl, lvl_ok, wk, wflt, _afid,
         _apid) = self._prologue(np, ia)
        if int(topo.off[-1]) == 0:
            # no edges anywhere: every non-empty row advances (scalar)
            return empty.copy(), (lambda rows: None)
        nr = view64(data[comp.h_nbr])[ia]
        idx = np.where((nr > 0) & (nr <= _NAT_CAP), nr, 0)
        in_rng = idx < topo.degs[ia]
        pos = np.where(in_rng, topo.off[ia] + idx, 0)
        j = topo.flat[pos]
        jm = view64(sdata[comp.h_jmask])[j]
        sh = np.where(lvl_ok, lvl, 0)
        u_has = (jm >= 0) & (jm <= _NAT_CAP) & (((jm >> sh) & 1) == 1)
        tb = view64(sdata[comp.top.h_bbuf])[j]
        bb = view64(sdata[comp.bottom.h_bbuf])[j]
        (st,), (sb,) = self._show_levels(np, (tb, bb))
        ebox = u_has & ((tb == BOX_S) | (bb == BOX_S))
        obs_found = u_has & ((st == lvl) | (sb == lvl))
        out_bad = (wk != 1) | ~topo.w_exact[pos] | (topo.wts[pos] < wflt)
        svc_v = view64(data[comp.h_svc])[ia]
        svc_new = np.where((svc_v >= 0) & (svc_v <= _NAT_CAP),
                           svc_v, 0) + 1
        wd_ok = ~empty & (wd_new <= aa)
        cond = wd_ok & ask_ok & lvl_ok & in_rng & ~ebox
        # branch B: the served neighbour is outside the level and no
        # outgoing check can alarm -> bump wd, advance nbr, clear svc
        triv_b = cond & ~u_has & ~out_bad
        # branch F: the neighbour claims the level but shows no piece
        # yet -> file the Want, bump the service watchdog (under budget)
        triv_f = cond & u_has & ~obs_found & (svc_new <= sv)
        # every neighbour served: the level advances
        adv, adv_idx, adv_rot = self._plan_advance(
            np, ia, wd_ok & ask_ok & ~in_rng)
        wt, acq, ser = self._plan_acquire(np, ia, wd_ok & ask_none, trains)
        triv = empty | triv_b | triv_f | adv | wt | acq
        base = self._make_apply(ia, wd_new, aw, acq, ser, adv,
                                adv_idx, adv_rot, triv_b | wt | acq)

        h_nbr, h_svc, h_want = comp.h_nbr, comp.h_svc, comp.h_want
        nodes = store.nodes
        overflow = store.overflow
        intern = store.intern
        pooled_id = store.pooled_id
        want_col = data[h_want]
        dc = store.dirty_cols
        w_wd = store.make_nat_writer(comp.h_wd)
        w_svc = store.make_nat_writer(h_svc)

        # resolve the filings' pool ids up front (most filings re-assert
        # the want the row already holds while it waits for service, so
        # a per-row memo of the last id skips the pool lookup).  A value
        # not yet pooled interns only when its filing is applied (a
        # classified row may never be), so the pool holds exactly what
        # the scalar sweep would intern.
        f_rows = np.flatnonzero(triv_f)
        want_ids = None
        if len(f_rows):
            wc = self._want_ids
            if wc is None or len(wc[0]) != topo.n:
                wc = self._want_ids = (
                    np.full(topo.n, -1, np.int64),
                    np.full(topo.n, WL_NEVER, np.int64),
                    np.zeros(topo.n, np.int64))
            wcj, wcl, wcv = wc
            ri = ia[f_rows]
            jj = j[f_rows]
            ll = lvl[f_rows]
            ids = np.where((wcj[ri] == jj) & (wcl[ri] == ll),
                           wcv[ri], -1)
            for q in np.flatnonzero(ids < 0).tolist():
                r = int(f_rows[q])
                pid = pooled_id((nodes[int(j[r])], int(lvl[r])))
                if pid is not None:
                    ids[q] = pid
            known = ids >= 0
            wcj[ri[known]] = jj[known]
            wcl[ri[known]] = ll[known]
            wcv[ri[known]] = ids[known]
            want_ids = np.zeros(m, np.int64)
            want_ids[f_rows] = ids

        def apply(rows):
            base(rows)
            b = rows[triv_b[rows]]
            if len(b):
                ri = ia[b]
                put_rows(store, h_nbr, ri, idx[b] + 1)
                put_rows(store, h_svc, ri, 0)
            f = rows[triv_f[rows]]
            if len(f):
                # the Want filing lands through the store's canonical
                # writers: a short python loop over the (few) waiting
                # clients
                ovf = overflow[h_want]
                for r in f.tolist():
                    i = int(ia[r])
                    w_wd(i, int(wd_new[r]))
                    if ovf:
                        ovf.pop(i, None)
                    wid = int(want_ids[r])
                    if wid < 0:
                        wid = intern((nodes[int(j[r])], int(lvl[r])))
                    want_col[i] = wid
                    w_svc(i, int(svc_new[r]))
                dc[h_want] = 1

        return triv, apply

    # -- Want-mode hold flags ---------------------------------------------
    def held(self, np, ia):
        """(held_ok, hold_top, hold_bot): per-row "is a show held" for
        the train classifiers, with held_ok False where boxed slots or
        odd equality semantics leave the answer to the scalar body."""
        comp, store, snap = self.comp, self.store, self.snap
        topo = self.topo
        m = len(ia)
        if int(topo.off[-1]) == 0:
            z = np.zeros(m, bool)
            return np.ones(m, bool), z, z
        e_node, e_pos = csr_take(topo.off, ia)
        wr = view64(snap.data[comp.h_want])[topo.flat[e_pos]]
        wants = self.want_cache.sync(wr)
        w_pool = (wr >= 0) & (wr < self.want_cache.filled)
        wpi = np.where(w_pool, wr, 0)
        wf = wants[0][wpi]
        wl = wants[1][wpi]
        mine = w_pool & (wf == ia[e_node])
        odd = (wr == BOX_S) | (w_pool & ((wf == IDX_ODD)
                                         | (mine & (wl == WL_ODD))))
        tb = view64(store.data[comp.top.h_bbuf])[ia]       # own, live
        bb = view64(store.data[comp.bottom.h_bbuf])[ia]
        (st,), (sb,) = self._show_levels(np, (tb, bb))
        obox = (tb == BOX_S) | (bb == BOX_S)
        ht = seg_any(mine & (wl == st[e_node]), e_node, m)
        hb = seg_any(mine & (wl == sb[e_node]), e_node, m)
        held_ok = ~(seg_any(odd, e_node, m) | obox)
        return held_ok, ht, hb
