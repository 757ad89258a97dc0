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
from array import array
from typing import Any, List, Optional, Tuple

from ..labels.registers import (REG_DELIM, REG_ENDP, REG_JMASK,
                                REG_PARENT_ID, REG_PARENTS, REG_ROOTS)
from ..labels.strings import ENDP_DOWN, ENDP_UP
from ..labels.wellforming import sorted_levels
from ..sim.columnar import BOX_S, NONE_S, PoolColumn, SENT_CEIL
from ..sim.npcolumnar import (IDX_NOT, IDX_ODD, SHOW_NONE, WL_NEVER,
                              WL_ODD, PoolIdCache, csr_take, idx_of,
                              seg_any, view64)
from ..sim.registers import NO_DECODE, handle_resolver
from .budgets import Budgets
from .train import (TrainComponent, TrainObservation, decode_observation,
                    valid_piece, _nat, _NAT_CAP)

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
        self._cur_cands = None

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
        """(top_level, bottom_level) this node must keep displayed."""
        if self.mode == MODE_SYNC_WINDOW:
            return (None, None)
        me = ctx.node
        serve_only = None
        if self.mode == MODE_WANT_SIMPLE:
            nbrs = ctx.neighbors
            if nbrs:
                turn = (ctx.nat(self.h_turn) or 0) % len(nbrs)
                serve_only = nbrs[turn]
        held_top = held_bot = None
        for train, attr in ((self.top, 0), (self.bottom, 1)):
            show = train.own_show(ctx)
            if show is None or not show.flag:
                continue
            lvl = show.piece[1]
            for u in ctx.neighbors:
                if serve_only is not None and u != serve_only:
                    continue
                want = ctx.read(u, self.h_want)
                if isinstance(want, tuple) and len(want) == 2 and \
                        want[0] == me and want[1] == lvl:
                    if attr == 0:
                        held_top = lvl
                    else:
                        held_bot = lvl
        return (held_top, held_bot)

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
            self._cur_cands = ent[2]
        else:
            levels = self._levels(ctx)
            self._cur_cands = None
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
            self._try_acquire(ctx, levels, budgets, alarms)
            return alarms

        if self.mode == MODE_SYNC_WINDOW:
            self._sync_compare_all(ctx, ask, alarms)
            wait = ctx.nat(self.h_wait) or 0
            if wait <= 1:
                self._advance(ctx, levels)
            else:
                ctx.set(self.h_wait, wait - 1)
        else:
            self._async_serve_one(ctx, ask, budgets, alarms, levels)
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
                     alarms: List[str]) -> None:
        """Sample the node's own trains for the target level's piece."""
        target = self._target_level(ctx, levels)
        for train in (self.top, self.bottom):
            show = train.own_show(ctx)
            if show is not None and show.flag and show.piece[1] == target:
                ctx.set(self.h_ask, show.piece)
                ctx.set(self.h_wait, budgets.ask_window)
                ctx.set(self.h_nbr, 0)
                ctx.set(self.h_svc, 0)
                alarms.extend(self._on_acquire_checks(ctx, show.piece))
                return

    # ------------------------------------------------------------------
    # checks at acquisition time (no neighbour info needed)
    # ------------------------------------------------------------------
    _MISS = object()

    def _candidate_neighbor(self, ctx, level: int) -> Optional[int]:
        """The other endpoint of the candidate edge of F_level(v), when v
        is the endpoint; None otherwise.

        A pure function of the labels in the closed neighbourhood —
        memoized per level on columnar storage (``self._cur_cands`` is
        the sentinel-validated cache installed by :meth:`step`)."""
        cands = self._cur_cands
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

    def _on_acquire_checks(self, ctx, piece) -> List[str]:
        alarms: List[str] = []
        z, level, weight = piece
        roots = ctx.get(self.h_roots)
        if isinstance(roots, str) and level < len(roots):
            if roots[level] == "1" and z != ctx.node:
                alarms.append("ask: fragment root id differs from the piece")
        u0 = self._candidate_neighbor(ctx, level)
        if u0 is not None:
            # C1 (weight half): the claimed minimum must be the candidate's
            # actual weight.
            if weight is None or weight != ctx.weight(u0):
                alarms.append("C1: claimed minimum differs from the "
                              "candidate edge weight")
        return alarms

    # ------------------------------------------------------------------
    # the event E(v, u, j): compare my piece against what u shows
    # ------------------------------------------------------------------
    def _neighbor_piece(self, ctx, u, level) -> Optional[TrainObservation]:
        read_decoded = ctx.read_decoded
        for train in (self.top, self.bottom):
            obs = read_decoded(u, train.h_bbuf, decode_observation)
            if obs is not None and obs.flag and obs.piece[1] == level:
                return obs
        return None

    def _compare_with(self, ctx, ask, u, obs: Optional[TrainObservation],
                      u_has_level: bool, alarms: List[str]) -> bool:
        """Run C1/C2/agreement for one neighbour; True when the event
        happened (info was available)."""
        z, level, weight = ask
        u0 = self._candidate_neighbor(ctx, level)
        if not u_has_level:
            # u is in no level-j fragment: the edge is outgoing.
            self._outgoing_checks(ctx, ask, u, u0, alarms)
            return True
        if obs is None:
            return False
        if obs.piece[0] == z:
            # same claimed fragment: members must agree on the piece
            if tuple(obs.piece) != tuple(ask):
                alarms.append("AGREE: same fragment, different piece "
                              "(Claim 8.3)")
            if u0 == u:
                alarms.append("C1: candidate edge is internal to its "
                              "fragment")
        else:
            self._outgoing_checks(ctx, ask, u, u0, alarms)
        return True

    def _outgoing_checks(self, ctx, ask, u, u0, alarms: List[str]) -> None:
        _z, _level, weight = ask
        edge_w = ctx.weight(u)
        if weight is None:
            alarms.append("C2: the whole-tree fragment has an outgoing edge")
            return
        try:
            violated = edge_w < weight
        except TypeError:
            alarms.append("C2: incomparable weights in piece")
            return
        if violated:
            alarms.append("C2: outgoing edge lighter than the claimed "
                          "minimum")

    # ------------------------------------------------------------------
    # synchronous window sampling (Section 7.2.1)
    # ------------------------------------------------------------------
    def _sync_compare_all(self, ctx, ask, alarms: List[str]) -> None:
        level = ask[1]
        bit = 1 << level
        h_jmask = self.h_jmask
        for u in ctx.neighbors:
            jmask_u = ctx.read_nat(u, h_jmask)
            u_has = jmask_u is not None and bool(jmask_u & bit)
            obs = self._neighbor_piece(ctx, u, level) if u_has else None
            self._compare_with(ctx, ask, u, obs, u_has, alarms)

    # ------------------------------------------------------------------
    # asynchronous Want mode (Section 7.2.2)
    # ------------------------------------------------------------------
    def _async_serve_one(self, ctx, ask, budgets: Budgets,
                         alarms: List[str], levels: List[int]) -> None:
        level = ask[1]
        nbrs = ctx.neighbors
        idx = ctx.nat(self.h_nbr) or 0
        if idx >= len(nbrs):
            self._advance(ctx, levels)
            return
        u = nbrs[idx]
        jmask_u = ctx.read_nat(u, self.h_jmask)
        u_has = jmask_u is not None and bool(jmask_u & (1 << level))
        if not u_has:
            self._compare_with(ctx, ask, u, None, False, alarms)
            self._next_neighbor(ctx, idx)
            return
        # In the "simple" variant the client files its request just the
        # same, but the server honours one client at a time (round robin),
        # which is what makes that variant Delta^2.
        obs = self._neighbor_piece(ctx, u, level)
        if obs is not None:
            self._compare_with(ctx, ask, u, obs, True, alarms)
            ctx.set(self.h_want, None)
            self._next_neighbor(ctx, idx)
            return
        ctx.set(self.h_want, (u, level))
        svc = (ctx.nat(self.h_svc) or 0) + 1
        ctx.set(self.h_svc, svc)
        scale = max(1, ctx.degree) if self.mode == MODE_WANT_SIMPLE else 1
        if svc > budgets.service * scale:
            alarms.append("WANT: server never displayed the requested piece")
            ctx.set(self.h_want, None)
            self._next_neighbor(ctx, idx)

    def _next_neighbor(self, ctx, idx: int) -> None:
        ctx.set(self.h_nbr, idx + 1)
        ctx.set(self.h_svc, 0)

    # ------------------------------------------------------------------
    # the bulk-activation plane (repro.sim.bulk)
    # ------------------------------------------------------------------
    def make_bulk_sync(self, ops):
        """A column-fused variant of :meth:`step` for the synchronous
        window mode, for the bulk plane.

        The Ask/Show comparison is the verifier's read-mostliest phase:
        per held level it reads every neighbour's J-mask and broadcast
        slots and writes only its own watchdog/wait counters.  The
        fused closure inlines those reads to direct (snapshot) column
        indexing — pooled observations resolve through the shared
        per-pool-id decode memo, edge weights through a per-node map
        built once per ops — while the infrequent transitions
        (acquire, advance, candidate lookup) stay on the scalar
        helpers.  Same control flow, same junk coercions, same writes
        in the same order as :meth:`step`; write-tracking contract as
        in :meth:`TrainComponent.make_bulk_step`.  Returns None unless
        the mode is sync-window and the layout is the expected columnar
        one (callers then fall back to the scalar :meth:`step`).
        """
        if self.mode != MODE_SYNC_WINDOW or \
                not getattr(ops, "fused", False) or \
                type(self.h_ask) is not int:
            return None
        store = ops.store
        snap = ops.snap
        data = store.data
        sdata = snap.data
        h_ask, h_wd, h_wait = self.h_ask, self.h_wd, self.h_wait
        h_jmask = self.h_jmask
        h_tb, h_bb = self.top.h_bbuf, self.bottom.h_bbuf
        stable = store.schema.stable_mask
        if type(data[h_ask]) is not PoolColumn or \
                any(type(data[h]) is not array for h in (h_wd, h_wait)) \
                or type(sdata[h_jmask]) is not array or \
                any(type(sdata[h]) is not PoolColumn
                    for h in (h_tb, h_bb)) or \
                any(stable[h] for h in (h_ask, h_wd, h_wait)):
            return None
        ask_col, wd_col, wait_col = data[h_ask], data[h_wd], data[h_wait]
        s_jmask, s_tb, s_bb = sdata[h_jmask], sdata[h_tb], sdata[h_bb]
        pool = store.pool_values
        overflow = store.overflow
        soverflow = snap.overflow
        none_decode = store.none_decode  # shared with the snapshot
        memos = store.decode_memo        # shared with the snapshot
        memo_for = store.memo_for
        dc = store.dirty_cols
        cache = self._label_cache
        # fused nat writes via the store's canonical writer closures
        # (one source of truth for the array-write encoding)
        w_wd = store.make_nat_writer(h_wd)
        w_wait = store.make_nat_writer(h_wait)
        #: per-node neighbour-weight maps (topology is immutable, so
        #: caching edge weights for the closure's lifetime is pure)
        weight_maps: dict = {}
        MISS = self._MISS

        def fused(ctx, budgets, sentinel):
            i = ctx._i
            node = ctx.node
            ent = cache.get(node)
            if ent is None or ent[0] != sentinel:
                ent = (sentinel, self._levels(ctx), {})
                cache[node] = ent
            levels = ent[1]
            cands = ent[2]
            self._cur_cands = cands
            alarms: List[str] = []
            if not levels:
                return alarms
            v = wd_col[i]
            wd = (v if 0 <= v <= _NAT_CAP else 0) + 1
            w_wd(i, wd)
            if wd > budgets.ask_alarm:
                alarms.append("ask: no comparison progress within budget")
                w_wd(i, 0)
            v = ask_col[i]
            ask = pool[v] if v > SENT_CEIL else (
                overflow[h_ask][i] if v == BOX_S else None)
            if ask is not None and not valid_piece(ask):
                ovf = overflow[h_ask]
                if ovf:
                    ovf.pop(i, None)
                ask_col[i] = NONE_S
                dc[h_ask] = 1
                ask = None
            if ask is None:
                self._try_acquire(ctx, levels, budgets, alarms)
                return alarms
            # -- _sync_compare_all, inlined -----------------------------
            z, level, weight = ask
            bit = 1 << level
            u0 = cands.get(level, MISS)
            if u0 is MISS:
                u0 = self._candidate_neighbor_uncached(ctx, level)
                cands[level] = u0
            wmap = weight_maps.get(node)
            if wmap is None:
                wmap = weight_maps[node] = {
                    u: ctx.weight(u) for u in ctx.neighbors}
            nbrs = ctx.neighbors
            nbr_idx = ctx._nbr_idx
            for k in range(len(nbrs)):
                u = nbrs[k]
                j = nbr_idx[k]
                v = s_jmask[j]
                if 0 <= v <= _NAT_CAP and v & bit:
                    # u claims the level: find its displayed piece
                    # (_neighbor_piece over both trains' slots)
                    obs = None
                    for s_col, h in ((s_tb, h_tb), (s_bb, h_bb)):
                        v2 = s_col[j]
                        if v2 >= 0:
                            m = memos[h]
                            try:
                                d = m[v2]
                            except (TypeError, IndexError):
                                d = NO_DECODE
                            if d is NO_DECODE:
                                d = decode_observation(pool[v2])
                                memo_for(h, v2)[v2] = d
                        elif v2 == BOX_S:
                            d = decode_observation(soverflow[h][j])
                        else:
                            d = none_decode[h]
                            if d is NO_DECODE:
                                d = none_decode[h] = \
                                    decode_observation(None)
                        if d is not None and d.flag and \
                                d.piece[1] == level:
                            obs = d
                            break
                    if obs is None:
                        continue        # no event for this neighbour
                    if obs.piece[0] == z:
                        if tuple(obs.piece) != tuple(ask):
                            alarms.append("AGREE: same fragment, "
                                          "different piece (Claim 8.3)")
                        if u0 == u:
                            alarms.append("C1: candidate edge is "
                                          "internal to its fragment")
                        continue
                # the edge is outgoing (_outgoing_checks)
                if weight is None:
                    alarms.append("C2: the whole-tree fragment has an "
                                  "outgoing edge")
                    continue
                try:
                    violated = wmap[u] < weight
                except TypeError:
                    alarms.append("C2: incomparable weights in piece")
                    continue
                if violated:
                    alarms.append("C2: outgoing edge lighter than the "
                                  "claimed minimum")
            v = wait_col[i]
            wait = v if 0 <= v <= _NAT_CAP else 0
            if wait <= 1:
                self._advance(ctx, levels)
            else:
                w_wait(i, wait - 1)
            return alarms

        return fused

    def make_bulk_want(self, ops):
        """A column-fused variant of :meth:`step` for the asynchronous
        Want mode, for the bulk plane — the kernel that takes the
        comparison mechanism off the synchronous-only fused path.

        Same shape as :meth:`make_bulk_sync`, generalized to gather
        from whatever column store the ops designate: under the
        synchronous fusion license ``ops.snap`` is the round snapshot;
        under the asynchronous *conflict-free* license the scheduler
        passes ``snap=store``, so the very same closure reads
        neighbours live — which the license makes unobservable (no
        batchmate is within the closed-neighbourhood radius).  The hot
        serve-one body (neighbour J-mask, displayed-piece lookup
        through the shared decode memo, the ``Want`` filing and service
        watchdog) is inlined to direct column indexing; the infrequent
        transitions (acquire, advance, candidate lookup) stay on the
        scalar helpers.  Same control flow, same junk coercions, same
        writes in the same order as :meth:`step`; write-tracking
        contract as in :meth:`TrainComponent.make_bulk_step`.  Returns
        None unless the mode is ``want`` or the serialized
        ``want-simple`` ablation (whose only client-side difference is
        the degree-scaled service budget) and the layout is the
        expected columnar one.
        """
        if self.mode not in (MODE_WANT, MODE_WANT_SIMPLE) or \
                not getattr(ops, "fused", False) or \
                type(self.h_ask) is not int:
            return None
        simple = self.mode == MODE_WANT_SIMPLE
        store = ops.store
        snap = ops.snap
        data = store.data
        sdata = snap.data
        h_ask, h_wd, h_want = self.h_ask, self.h_wd, self.h_want
        h_nbr, h_svc = self.h_nbr, self.h_svc
        h_jmask = self.h_jmask
        h_tb, h_bb = self.top.h_bbuf, self.bottom.h_bbuf
        stable = store.schema.stable_mask
        if type(data[h_ask]) is not PoolColumn or \
                type(data[h_want]) is not PoolColumn or \
                any(type(data[h]) is not array
                    for h in (h_wd, h_nbr, h_svc)) or \
                type(sdata[h_jmask]) is not array or \
                any(type(sdata[h]) is not PoolColumn
                    for h in (h_tb, h_bb)) or \
                any(stable[h] for h in (h_ask, h_want, h_wd, h_nbr,
                                        h_svc)):
            return None
        ask_col, want_col, wd_col = data[h_ask], data[h_want], data[h_wd]
        nbr_col, svc_col = data[h_nbr], data[h_svc]
        s_jmask, s_tb, s_bb = sdata[h_jmask], sdata[h_tb], sdata[h_bb]
        pool = store.pool_values
        overflow = store.overflow
        soverflow = snap.overflow
        none_decode = store.none_decode  # shared with the snapshot
        memos = store.decode_memo        # shared with the snapshot
        memo_for = store.memo_for
        intern = store.intern
        dc = store.dirty_cols
        cache = self._label_cache
        w_wd = store.make_nat_writer(h_wd)
        w_nbr = store.make_nat_writer(h_nbr)
        w_svc = store.make_nat_writer(h_svc)
        #: per-node neighbour-weight maps (static topology; see
        #: make_bulk_sync)
        weight_maps: dict = {}
        MISS = self._MISS

        def _w_want(i, val):
            # the pooled branch of ctx.set for the Want register (a
            # well-formed (server, level) tuple or None — both
            # internable, so no unhashable branch is needed here)
            ovf = overflow[h_want]
            if ovf:
                ovf.pop(i, None)
            want_col[i] = NONE_S if val is None else intern(val)
            dc[h_want] = 1

        def _obs_at(j, s_col, h, level):
            # _neighbor_piece's per-train half: u's displayed piece at
            # ``level``, through the shared per-pool-id decode memo
            v = s_col[j]
            if v >= 0:
                m = memos[h]
                try:
                    d = m[v]
                except (TypeError, IndexError):
                    d = NO_DECODE
                if d is NO_DECODE:
                    d = decode_observation(pool[v])
                    memo_for(h, v)[v] = d
            elif v == BOX_S:
                d = decode_observation(soverflow[h][j])
            else:
                d = none_decode[h]
                if d is NO_DECODE:
                    d = none_decode[h] = decode_observation(None)
            if d is not None and d.flag and d.piece[1] == level:
                return d
            return None

        def fused(ctx, budgets, sentinel):
            i = ctx._i
            node = ctx.node
            ent = cache.get(node)
            if ent is None or ent[0] != sentinel:
                ent = (sentinel, self._levels(ctx), {})
                cache[node] = ent
            levels = ent[1]
            cands = ent[2]
            self._cur_cands = cands
            alarms: List[str] = []
            if not levels:
                return alarms
            v = wd_col[i]
            wd = (v if 0 <= v <= _NAT_CAP else 0) + 1
            w_wd(i, wd)
            if wd > budgets.ask_alarm:
                alarms.append("ask: no comparison progress within budget")
                w_wd(i, 0)
            v = ask_col[i]
            ask = pool[v] if v > SENT_CEIL else (
                overflow[h_ask][i] if v == BOX_S else None)
            if ask is not None and not valid_piece(ask):
                ovf = overflow[h_ask]
                if ovf:
                    ovf.pop(i, None)
                ask_col[i] = NONE_S
                dc[h_ask] = 1
                ask = None
            if ask is None:
                self._try_acquire(ctx, levels, budgets, alarms)
                return alarms
            # -- _async_serve_one, inlined ------------------------------
            z, level, weight = ask
            nbrs = ctx.neighbors
            v = nbr_col[i]
            idx = v if 0 < v <= _NAT_CAP else 0
            if idx >= len(nbrs):
                self._advance(ctx, levels)
                return alarms
            u = nbrs[idx]
            j = ctx._nbr_idx[idx]
            v = s_jmask[j]
            obs = None
            if 0 <= v <= _NAT_CAP and v & (1 << level):
                # u claims the level: look for its displayed piece
                obs = _obs_at(j, s_tb, h_tb, level) or \
                    _obs_at(j, s_bb, h_bb, level)
                if obs is None:
                    # no event yet: file the Want, bump the service
                    # watchdog, alarm on a starving server
                    _w_want(i, (u, level))
                    v = svc_col[i]
                    svc = (v if 0 <= v <= _NAT_CAP else 0) + 1
                    w_svc(i, svc)
                    scale = max(1, ctx.degree) if simple else 1
                    if svc > budgets.service * scale:
                        alarms.append("WANT: server never displayed the "
                                      "requested piece")
                        _w_want(i, None)
                        w_nbr(i, idx + 1)
                        w_svc(i, 0)
                    return alarms
            # the event E(v, u, level): _compare_with, inlined
            u0 = cands.get(level, MISS)
            if u0 is MISS:
                u0 = self._candidate_neighbor_uncached(ctx, level)
                cands[level] = u0
            if obs is not None and obs.piece[0] == z:
                if tuple(obs.piece) != tuple(ask):
                    alarms.append("AGREE: same fragment, different piece "
                                  "(Claim 8.3)")
                if u0 == u:
                    alarms.append("C1: candidate edge is internal to its "
                                  "fragment")
            else:
                # u outside the fragment (or outside the level):
                # _outgoing_checks
                wmap = weight_maps.get(node)
                if wmap is None:
                    wmap = weight_maps[node] = {
                        w: ctx.weight(w) for w in nbrs}
                if weight is None:
                    alarms.append("C2: the whole-tree fragment has an "
                                  "outgoing edge")
                else:
                    try:
                        violated = wmap[u] < weight
                    except TypeError:
                        alarms.append("C2: incomparable weights in piece")
                        violated = False
                    if violated:
                        alarms.append("C2: outgoing edge lighter than "
                                      "the claimed minimum")
            if obs is not None:
                _w_want(i, None)
            w_nbr(i, idx + 1)
            w_svc(i, 0)
            return alarms

        return fused

    def make_bulk_held(self, ops):
        """A column-fused :meth:`held_levels` for the Want mode — the
        per-activation scan every verifier step performs before its
        trains move (which neighbours filed a Want for a piece this
        node currently displays).  Own broadcast slots decode through
        the shared per-pool-id memo; the neighbours' ``Want`` registers
        gather straight off the designated column store (the round
        snapshot under the synchronous ablation, the live columns under
        the conflict-free asynchronous license).  Exact transcription
        of the scalar scan — including the ``want-simple`` server's
        round-robin filter, which reads only the neighbour whose turn
        it is; returns None unless the mode is ``want`` /
        ``want-simple`` and the layout is the expected columnar one.
        """
        if self.mode not in (MODE_WANT, MODE_WANT_SIMPLE) or \
                not getattr(ops, "fused", False) or \
                type(self.h_want) is not int:
            return None
        simple = self.mode == MODE_WANT_SIMPLE
        store = ops.store
        snap = ops.snap
        data = store.data
        sdata = snap.data
        h_want = self.h_want
        h_turn = self.h_turn
        h_tb, h_bb = self.top.h_bbuf, self.bottom.h_bbuf
        if type(sdata[h_want]) is not PoolColumn or \
                any(type(data[h]) is not PoolColumn for h in (h_tb, h_bb)) \
                or (simple and type(data[h_turn]) is not array):
            return None
        turn_col = data[h_turn]
        s_want = sdata[h_want]
        tb_col, bb_col = data[h_tb], data[h_bb]
        pool = store.pool_values
        overflow = store.overflow
        soverflow = snap.overflow
        none_decode = store.none_decode
        memos = store.decode_memo
        memo_for = store.memo_for

        def held(ctx):
            # scan the neighbours' Want column first: a node is asked
            # to hold only when some neighbour's request names it, and
            # most activations find none — skipping the own-show
            # decodes entirely.  held_x = lvl iff (some neighbour wants
            # (me, lvl)) and (train x's own show is flagged at lvl) —
            # the same conjunction the scalar scan evaluates, with the
            # quantifiers commuted.
            i = ctx._i
            me = ctx.node
            if simple and ctx.neighbors:
                # the simple server honours one client per turn: only
                # that neighbour's request can hold a level (the same
                # nat coercion ctx.nat applies, inlined)
                v = turn_col[i]
                if v > SENT_CEIL:
                    t = v if 0 <= v <= _NAT_CAP else 0
                elif v == BOX_S:
                    x = overflow[h_turn][i]
                    t = x if (isinstance(x, int)
                              and not isinstance(x, bool)
                              and 0 <= x <= _NAT_CAP) else 0
                else:
                    t = 0
                scan = (ctx._nbr_idx[t % len(ctx.neighbors)],)
            else:
                scan = ctx._nbr_idx
            wanted = None
            for j in scan:
                v2 = s_want[j]
                want = pool[v2] if v2 > SENT_CEIL else (
                    soverflow[h_want][j] if v2 == BOX_S else None)
                if isinstance(want, tuple) and len(want) == 2 and \
                        want[0] == me:
                    # a list, not a set: an adversarial want level may
                    # be unhashable, and ``in`` must compare with ==
                    # exactly like the scalar scan
                    if wanted is None:
                        wanted = [want[1]]
                    else:
                        wanted.append(want[1])
            if wanted is None:
                return (None, None)
            held_top = held_bot = None
            for col, h, attr in ((tb_col, h_tb, 0), (bb_col, h_bb, 1)):
                v = col[i]
                if v >= 0:
                    m = memos[h]
                    try:
                        show = m[v]
                    except (TypeError, IndexError):
                        show = NO_DECODE
                    if show is NO_DECODE:
                        show = decode_observation(pool[v])
                        memo_for(h, v)[v] = show
                elif v == BOX_S:
                    show = decode_observation(overflow[h][i])
                else:
                    show = none_decode[h]
                    if show is NO_DECODE:
                        show = none_decode[h] = decode_observation(None)
                if show is None or not show.flag:
                    continue
                lvl = show.piece[1]
                if lvl in wanted:
                    if attr == 0:
                        held_top = lvl
                    else:
                        held_bot = lvl
            return (held_top, held_bot)

        return held

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
        where they are exact.  Anything else — acquire, advance,
        events, alarms, boxed junk, odd ``==`` semantics — replays the
        scalar fused body.
        """
        return _VectorCmpKernel(self, ops, topo)


#: float64 bit pattern as an int64 (PoolIdCache cells are int64)
def _f64bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


class _VectorCmpKernel:
    """Vector classifier state for one :class:`ComparisonComponent`.

    ``classify`` dispatches on the mode (sync window / Want); ``held``
    is the Want mode's vectorized :meth:`~ComparisonComponent.held_levels`
    — it returns per-row hold flags for the train classifiers plus a
    soundness mask (rows whose hold could not be proven go scalar).
    """

    __slots__ = ("comp", "store", "snap", "topo", "ask_cache",
                 "show_cache", "want_cache", "lvl_empty", "_want_ids")

    def __init__(self, comp, ops, topo):
        self.comp = comp
        self.store = ops.store
        self.snap = ops.snap
        self.topo = topo
        store = ops.store

        # shared identity interns: two pieces (or fragment roots) get
        # the same id iff they compare equal under the scalar body's
        # own comparisons.  Roots are plain non-bool ints (valid_piece)
        # so dict equality IS ``==``; whole pieces are tuples, where
        # both dict lookup and tuple ``==`` go through
        # PyObject_RichCompareBool (identity-shortcut) item-wise — the
        # same semantics, including same-object NaN weights.  An
        # unhashable weight falls out as id -1 (never equal: scalar).
        frags: dict = {}
        pieces: dict = {}

        def _piece_id(p):
            try:
                return pieces.setdefault(p, len(pieces))
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
            # (level, fragment id, piece id) a show exposes to
            # _neighbor_piece, or (SHOW_NONE, -1, -1)
            d = decode_observation(val)
            if d is not None and d.flag:
                p = d.piece
                return (p[1], frags.setdefault(p[0], len(frags)),
                        _piece_id(tuple(p)))
            return (SHOW_NONE, -1, -1)

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
        self.show_cache = PoolIdCache(store, 3, show_attrs)
        self.want_cache = PoolIdCache(store, 2, want_attrs)
        self.lvl_empty = None
        # per-row memo of the last interned Want filing: a waiting
        # client re-files the same (server, level) for many sweeps, and
        # the pool id of a value never changes, so the memo needs no
        # epoch guard
        self._want_ids = None

    def rebuild(self, np, topo) -> None:
        """Refresh the level-rotation emptiness flags, filling the
        label cache with the exact fused-prologue fill code."""
        comp = self.comp
        cache = comp._label_cache
        n = topo.n
        lvl_empty = np.zeros(n, bool)
        for i in range(n):
            ctx = topo.ctxs[i]
            sentinel = ctx.stable_sentinel()
            ent = cache.get(ctx.node)
            if ent is None or ent[0] != sentinel:
                ent = (sentinel, comp._levels(ctx), {})
                cache[ctx.node] = ent
            lvl_empty[i] = not ent[1]
        self.lvl_empty = lvl_empty

    # -- shared prologue ---------------------------------------------------
    def _prologue(self, np, ia):
        comp, store = self.comp, self.store
        data = store.data
        empty = self.lvl_empty[ia]
        wd_v = view64(data[comp.h_wd])[ia]
        wd_new = np.where((wd_v >= 0) & (wd_v <= _NAT_CAP), wd_v, 0) + 1
        av = view64(data[comp.h_ask])[ia]
        asks = self.ask_cache.sync(av)
        a_pool = (av >= 0) & (av < self.ask_cache.filled)
        api = np.where(a_pool, av, 0)
        ask_ok = a_pool & (asks[0][api] == 1)
        lvl = asks[1][api]
        # int64 shifts are defined only to 63; real levels are 0..256
        # and a level above 62 cannot set a bit of a <=_NAT_CAP J-mask,
        # but proving that per edge is not worth it: route scalar
        lvl_ok = (lvl >= 0) & (lvl <= 62)
        wk = asks[2][api]
        wflt = asks[3][api].view(np.float64)
        afid = np.where(ask_ok, asks[4][api], -1)
        apid = np.where(ask_ok, asks[5][api], -1)
        return empty, wd_new, ask_ok, lvl, lvl_ok, wk, wflt, afid, apid

    def _show_levels(self, np, cols):
        """Per input column of broadcast-slot pool ids: the shown level
        (or SHOW_NONE) plus the show's fragment and piece intern ids
        (or -1)."""
        shows = self.show_cache.sync(*cols)
        filled = self.show_cache.filled
        out = []
        for c in cols:
            pooled = (c >= 0) & (c < filled)
            ci = np.where(pooled, c, 0)
            out.append((np.where(pooled, shows[0][ci], SHOW_NONE),
                        np.where(pooled, shows[1][ci], -1),
                        np.where(pooled, shows[2][ci], -1)))
        return out

    def _kill_overflow_rows(self, triv, row_of, slots):
        store = self.store
        for h in slots:
            ovf = store.overflow[h]
            if ovf:
                for node_i in ovf:
                    r = row_of[node_i]
                    if r >= 0:
                        triv[r] = False

    # -- classifiers -------------------------------------------------------
    def classify(self, np, ia, row_of, aa, sv):
        """``(trivial-mask, apply)`` for the batch rows ``ia``.

        ``apply(rows)`` performs the trivial writes for the row
        *positions* kept (an int64 index array into ``ia``, O(|rows|))."""
        if self.comp.mode == MODE_SYNC_WINDOW:
            return self._classify_sync(np, ia, row_of, aa)
        return self._classify_want(np, ia, row_of, aa, sv)

    def _classify_sync(self, np, ia, row_of, aa):
        comp, store, snap = self.comp, self.store, self.snap
        data, sdata = store.data, snap.data
        topo = self.topo
        m = len(ia)
        empty, wd_new, ask_ok, lvl, lvl_ok, wk, wflt, afid, apid = \
            self._prologue(np, ia)
        wait_v = view64(data[comp.h_wait])[ia]
        wait = np.where((wait_v >= 0) & (wait_v <= _NAT_CAP), wait_v, 0)
        cond = (wd_new <= aa) & ask_ok & lvl_ok & (wait > 1)
        # per-edge replay of _sync_compare_all's silent paths: a
        # neighbour inside the level must display the *same* piece and
        # not be the cached candidate (else AGREE/C1 could fire); an
        # outgoing edge must pass the weight check exactly.  Anything
        # undecidable — boxed slots, odd weights, an uncached candidate
        # — forces the scalar body.
        e_node, e_pos = csr_take(topo.off, ia)
        ej = topo.flat[e_pos]
        jm = view64(sdata[comp.h_jmask])[ej]
        lvl_e = lvl[e_node]
        sh = np.where((lvl_e >= 0) & (lvl_e <= 62), lvl_e, 0)
        u_has = (jm >= 0) & (jm <= _NAT_CAP) & (((jm >> sh) & 1) == 1)
        tb = view64(sdata[comp.top.h_bbuf])[ej]
        bb = view64(sdata[comp.bottom.h_bbuf])[ej]
        (st, tf, tp), (sb, bf, bp) = self._show_levels(np, (tb, bb))
        ebox = u_has & ((tb == BOX_S) | (bb == BOX_S))
        # the scalar scan takes the top train's show first
        obs_top = u_has & (st == lvl_e)
        obs_bot = u_has & ~obs_top & (sb == lvl_e)
        obs = obs_top | obs_bot
        sfid = np.where(obs_top, tf, bf)
        spid = np.where(obs_top, tp, bp)
        same_frag = obs & (sfid == afid[e_node]) & (sfid >= 0)
        same_piece = (spid >= 0) & (spid == apid[e_node])
        out_ok = (wk[e_node] == 1) & topo.w_exact[e_pos] \
            & ~(topo.wts[e_pos] < wflt[e_node])
        # C1 needs the per-(node, level) candidate: read the scalar
        # body's own cache; a cache miss stays scalar (and fills it)
        u0i = np.full(m, -1, np.int64)
        u0_miss = np.zeros(m, bool)
        if same_frag.any():
            need = seg_any(same_frag, e_node, m)
            cache = comp._label_cache
            MISS = comp._MISS
            ctxs = topo.ctxs
            for r in np.flatnonzero(need):
                r = int(r)
                ent = cache.get(ctxs[int(ia[r])].node)
                u0 = MISS if ent is None \
                    else ent[2].get(int(lvl[r]), MISS)
                if u0 is MISS:
                    u0_miss[r] = True
                elif u0 is not None:
                    u0x = idx_of(store, u0)
                    if u0x == IDX_ODD:
                        u0_miss[r] = True   # odd ==: scalar decides
                    else:
                        u0i[r] = u0x
        bad = ebox \
            | (~u_has & ~out_ok) \
            | (obs & ~same_frag & ~out_ok) \
            | (same_frag & (~same_piece | u0_miss[e_node]
                            | (ej == u0i[e_node])))
        triv = empty | (cond & ~seg_any(bad, e_node, m))
        self._kill_overflow_rows(triv, row_of, (comp.h_wd, comp.h_wait))

        h_wd, h_wait = comp.h_wd, comp.h_wait
        dc = store.dirty_cols

        def apply(rows):
            sel = rows[~empty[rows]]
            if len(sel):
                ri = ia[sel]
                view64(data[h_wd])[ri] = wd_new[sel]
                dc[h_wd] = 1
                view64(data[h_wait])[ri] = wait[sel] - 1
                dc[h_wait] = 1

        return triv, apply

    def _classify_want(self, np, ia, row_of, aa, sv):
        comp, store, snap = self.comp, self.store, self.snap
        data, sdata = store.data, snap.data
        topo = self.topo
        m = len(ia)
        empty, wd_new, ask_ok, lvl, lvl_ok, wk, wflt, _afid, _apid = \
            self._prologue(np, ia)
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
        (st, _, _), (sb, _, _) = self._show_levels(np, (tb, bb))
        ebox = u_has & ((tb == BOX_S) | (bb == BOX_S))
        obs_found = u_has & ((st == lvl) | (sb == lvl))
        out_bad = (wk != 1) | ~topo.w_exact[pos] | (topo.wts[pos] < wflt)
        svc_v = view64(data[comp.h_svc])[ia]
        svc_new = np.where((svc_v >= 0) & (svc_v <= _NAT_CAP),
                           svc_v, 0) + 1
        cond = ~empty & (wd_new <= aa) & ask_ok & lvl_ok & in_rng & ~ebox
        # branch B: the served neighbour is outside the level and no
        # outgoing check can alarm -> bump wd, advance nbr, clear svc
        triv_b = cond & ~u_has & ~out_bad
        # branch F: the neighbour claims the level but shows no piece
        # yet -> file the Want, bump the service watchdog (under budget)
        triv_f = cond & u_has & ~obs_found & (svc_new <= sv)
        self._kill_overflow_rows(
            triv_b, row_of, (comp.h_wd, comp.h_nbr, comp.h_svc))
        triv = empty | triv_b | triv_f

        h_wd, h_nbr, h_svc, h_want = (comp.h_wd, comp.h_nbr,
                                      comp.h_svc, comp.h_want)
        dc = store.dirty_cols
        nodes = store.nodes
        overflow = store.overflow
        intern = store.intern
        pooled_id = store.pooled_id
        want_col = data[h_want]
        w_wd = store.make_nat_writer(h_wd)
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
            b = rows[triv_b[rows]]
            if len(b):
                ri = ia[b]
                view64(data[h_wd])[ri] = wd_new[b]
                dc[h_wd] = 1
                view64(data[h_nbr])[ri] = idx[b] + 1
                dc[h_nbr] = 1
                view64(data[h_svc])[ri] = 0
                dc[h_svc] = 1
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
    def held(self, np, ia, row_of):
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
        (st, _, _), (sb, _, _) = self._show_levels(np, (tb, bb))
        obox = (tb == BOX_S) | (bb == BOX_S)
        ht = seg_any(mine & (wl == st[e_node]), e_node, m)
        hb = seg_any(mine & (wl == sb[e_node]), e_node, m)
        held_ok = ~(seg_any(odd, e_node, m) | obox)
        return held_ok, ht, hb
