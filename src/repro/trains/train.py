"""The train mechanism (Section 7.1) as a per-node protocol component.

One :class:`TrainComponent` instance drives one partition's train at every
node (the verifier composes two: Top and Bottom, multiplexed).  Per node
the component keeps O(log n) bits:

Convergecast (the two-car pipeline of the Train Convergecast Protocol):

* ``<p>out``  — the outgoing car: ``(seq, piece)`` or None;
* ``<p>src``  — DFS source pointer: own stored pieces first, then the
  part children in port order;
* ``<p>cyc``  — the convergecast cycle the node is serving (mod 64);
* ``<p>done`` — set to the cycle id when the node's subtree finished;
* ``<p>act``  — which child is currently active, ``(child, cyc)``;
* ``<p>tak``  — ack register: the ``(child, seq)`` last consumed.

Broadcast (pipelined flooding with membership flags, Section 7.1):

* ``<p>bseq`` / ``<p>bbuf`` — the broadcast slot: current ``(piece, flag)``
  and its sequence number; a node adopts its part parent's slot when all
  of its own part children caught up — the neighbours' *Show* of
  Section 7.2 is exactly this slot;
* ``<p>seen`` — levels of flagged pieces seen in the current rotation;
* ``<p>last`` / ``<p>cnt`` / ``<p>sync`` — rotation-boundary detection
  ((level, root) must increase lexicographically within a rotation),
  piece count, and the synced-once latch;
* ``<p>wd`` / ``<p>ep`` — watchdog counter and reset epoch.

Self-stabilization: the part root resets the train (epoch bump, adopted
downward) when a rotation exceeds its budget — corrupted *dynamic* state
heals silently; corrupted *labels* keep starving the nodes whose larger
alarm budgets then fire (Section 8's detection).

Register handles: every register the component touches is resolved once
by :meth:`TrainComponent.bind_registers` — to its name string under the
legacy dict storage, or to its integer slot index under a compiled
register schema — so the per-step code performs no string concatenation
or repeated name hashing, and numeric reads go through the context's
write-time-cached ``nat`` coercion.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from ..labels.registers import (REG_DELIM, REG_JMASK, REG_PARENT_ID,
                                REG_ROOTS)
from ..labels.wellforming import level_is_bottom, sorted_levels
from ..sim.columnar import BOX_S, NONE_S, PoolColumn, SENT_CEIL
from ..sim.npcolumnar import (IDX_NOT, IDX_ODD, PLAIN_TYPES, PoolIdCache,
                              csr_span, csr_take, idx_of, seg_any, view64)
from ..sim.registers import NO_DECODE, UNSET, handle_resolver
from .budgets import Budgets, compute_budgets

SEQ_MOD = 64
_NAT_CAP = 1 << 30

#: convergecast outcomes of ``_VectorTrainKernel._conv_outcomes``
CV_REPLAY = -1   # unproven: the row replays the scalar body
CV_QUIET = 0     # writes nothing
CV_EMIT = 1      # the next own piece into the outgoing car
CV_TAKE = 2      # a child's car into the outgoing car
CV_WAIT = 3      # the activation car names an unfinished child
CV_EXH = 4       # sources exhausted: done posted, or a root's cycle wraps

#: sequence-slot keys (see :func:`_seq_key`): far outside the key range
KEY_ODD = -(1 << 50)
CAR_BAD = -(1 << 51)
_KEY_CAP = 1 << 40
#: ``act_pid`` holds id + 1 in int32; larger ids are simply not cached
_ACT_PID_CAP = (1 << 31) - 2


def _nat(x: Any, cap: int = 1 << 30) -> Optional[int]:
    """x as a bounded non-negative int, else None."""
    if isinstance(x, int) and not isinstance(x, bool) and 0 <= x <= cap:
        return x
    return None


def valid_piece(piece: Any) -> bool:
    """Shape check for a piece (root, level, weight)."""
    return (isinstance(piece, tuple) and len(piece) == 3
            and isinstance(piece[0], int) and not isinstance(piece[0], bool)
            and isinstance(piece[1], int) and not isinstance(piece[1], bool)
            and 0 <= piece[1] <= 256)


def piece_key(piece: Tuple) -> Tuple[int, int]:
    """The cyclic ordering key (level, root) of a piece."""
    return (piece[1], piece[0])


@dataclass
class TrainObservation:
    """What the comparison layer reads off a neighbour's broadcast slot.

    Instances may be shared across reads (the columnar store caches the
    decoded observation per broadcast-slot value): treat as read-only.
    """

    piece: Tuple
    flag: bool


def decode_observation(buf: Any) -> Optional[TrainObservation]:
    """Validate and parse a broadcast slot; the slot's decode function
    (run once per pooled value on columnar storage)."""
    if isinstance(buf, tuple) and len(buf) == 2 and valid_piece(buf[0]):
        return TrainObservation(piece=buf[0], flag=bool(buf[1]))
    return None


def _seq_key(x: Any) -> int:
    """An int64 key of a car's or ack's sequence slot:
    ``_seq_key(a) == _seq_key(b)`` iff ``a == b`` for the plain
    integral numbers honest trains write, ``KEY_ODD`` for anything
    else (a row comparing one replays the scalar body)."""
    t = type(x)
    if t is int or t is bool:
        return int(x) if -_KEY_CAP < x < _KEY_CAP else KEY_ODD
    if t is float and x.is_integer() and -_KEY_CAP < x < _KEY_CAP:
        return int(x)
    return KEY_ODD


def _decode_car(out: Any) -> Optional[Tuple]:
    """Validate a convergecast car ``(seq, piece)``; None when malformed."""
    if isinstance(out, tuple) and len(out) == 2 and valid_piece(out[1]):
        return out
    return None


#: the component's dynamic registers: (suffix, kind, init-default).
#: ``seq`` is declared but deliberately *not* initialized by
#: ``init_node`` (the convergecast writes it on first use) — keeping the
#: mapping contents identical to the historical dict behaviour.
#: The pipeline's tuple-valued registers (cars, broadcast slots, acks,
#: rotation keys) are declared ``tuple``: a columnar store then interns
#: them — a piece circulating a part is one pool entry plus int ids,
#: and its validated decode is memoized per value instead of per node.
_DYNAMIC_DECLS = (
    ("out", "tuple", None),
    ("src", "nat", 0),
    ("cyc", "nat", 0),
    ("done", "nat", None),
    ("act", "tuple", None),
    ("tak", "tuple", None),
    ("bseq", "nat", 0),
    ("bbuf", "tuple", None),
    ("seen", "nat", 0),
    ("last", "tuple", None),
    ("cnt", "nat", 0),
    ("sync", "opaque", False),
    ("wd", "nat", 0),
    ("ep", "nat", 0),
)

_SEQ_DECL = ("seq", "nat", 0)


class TrainComponent:
    """One partition's train at every node.  ``kind`` is 'top'/'bottom'."""

    def __init__(self, kind: str, reg_root: str, reg_count: str,
                 reg_pieces: str, synchronous: bool) -> None:
        self.kind = kind
        self.p = "tt_" if kind == "top" else "bt_"
        self.reg_root = reg_root
        self.reg_count = reg_count
        self.reg_pieces = reg_pieces
        self.synchronous = synchronous
        self.bind_registers(None)

    # -- register helpers ------------------------------------------------
    def r(self, name: str) -> str:
        return self.p + name

    def declare_registers(self, schema) -> None:
        """Declare this train's dynamic registers (labels are declared
        by the owning protocol)."""
        for suffix, kind, default in _DYNAMIC_DECLS + (_SEQ_DECL,):
            schema.declare(self.p + suffix, kind, default)

    def bind_registers(self, compiled) -> None:
        """Resolve register handles: names (``compiled=None``) or slots."""
        resolve = handle_resolver(compiled)
        p = self.p
        self.h_out = resolve(p + "out")
        self.h_src = resolve(p + "src")
        self.h_cyc = resolve(p + "cyc")
        self.h_done = resolve(p + "done")
        self.h_act = resolve(p + "act")
        self.h_tak = resolve(p + "tak")
        self.h_seq = resolve(p + "seq")
        self.h_bseq = resolve(p + "bseq")
        self.h_bbuf = resolve(p + "bbuf")
        self.h_seen = resolve(p + "seen")
        self.h_last = resolve(p + "last")
        self.h_cnt = resolve(p + "cnt")
        self.h_sync = resolve(p + "sync")
        self.h_wd = resolve(p + "wd")
        self.h_ep = resolve(p + "ep")
        self.h_root = resolve(self.reg_root)
        self.h_count = resolve(self.reg_count)
        self.h_pieces = resolve(self.reg_pieces)
        self.h_pid = resolve(REG_PARENT_ID)
        self.h_roots = resolve(REG_ROOTS)
        self.h_jmask = resolve(REG_JMASK)
        self.h_delim = resolve(REG_DELIM)
        # init_node's write sequence, in the historical order
        self._init_pairs = tuple(
            (resolve(p + suffix), default)
            for suffix, _kind, default in _DYNAMIC_DECLS)
        # label-derived cache: node -> (stable sentinel, (parent,
        # children, own pieces, count claim, needed mask)).  Only used
        # on columnar storage, where the sentinel detects label writes.
        self._label_cache = {}
        self._cur_needed: Optional[int] = None

    def init_node(self, ctx) -> None:
        for handle, default in self._init_pairs:
            ctx.set(handle, default)

    # -- topology inside the part ----------------------------------------
    def part_root_id(self, ctx) -> Optional[int]:
        root = ctx.get(self.h_root)
        return root if isinstance(root, int) else None

    def part_parent(self, ctx) -> Optional[int]:
        pid = ctx.get(self.h_pid)
        if pid is None or pid not in ctx.neighbors:
            return None
        if ctx.read(pid, self.h_root) == ctx.get(self.h_root):
            return pid
        return None

    def part_children(self, ctx) -> List[int]:
        me = ctx.node
        mine = ctx.get(self.h_root)
        h_pid = self.h_pid
        h_root = self.h_root
        read = ctx.read
        return [c for c in ctx.neighbors
                if read(c, h_pid) == me and read(c, h_root) == mine]

    def own_pieces(self, ctx) -> Tuple:
        pieces = ctx.get(self.h_pieces)
        if not isinstance(pieces, tuple):
            return ()
        return tuple(pc for pc in pieces if valid_piece(pc))

    def is_part_root(self, ctx) -> bool:
        return self.part_parent(ctx) is None

    # -- membership flags (Section 7.1) -----------------------------------
    def membership_flag(self, ctx, piece: Tuple, parent_flag: bool) -> bool:
        """Whether this node belongs to the fragment the piece describes."""
        z, level, _w = piece
        roots = ctx.get(self.h_roots)
        jmask = ctx.nat(self.h_jmask) or 0
        delim = ctx.nat(self.h_delim) or 0
        if not isinstance(roots, str) or level >= len(roots):
            return False
        want_bottom = (self.kind == "bottom")
        cls = level_is_bottom(jmask, delim, level)
        if cls is None or cls != want_bottom:
            return False
        if self.kind == "top":
            # Claim 6.3: at most one top fragment per level crosses a part.
            return True
        if roots[level] == "1":
            return z == ctx.node
        if roots[level] == "0":
            return bool(parent_flag)
        return False

    def needed_mask(self, ctx) -> int:
        """Levels this node must see flagged in this train's rotations."""
        jmask = ctx.nat(self.h_jmask) or 0
        delim = ctx.nat(self.h_delim) or 0
        levels = sorted_levels(jmask)
        mask = 0
        for i, j in enumerate(levels):
            if (i < delim) == (self.kind == "bottom"):
                mask |= 1 << j
        return mask

    # -- epochs / reset ----------------------------------------------------
    def _reset_dynamic(self, ctx, epoch: int) -> None:
        self.init_node(ctx)
        ctx.set(self.h_ep, epoch % SEQ_MOD)

    # -- the per-activation step -------------------------------------------
    def step(self, ctx, budgets: Budgets,
             hold_broadcast: bool = False,
             sentinel: Optional[int] = None) -> List[str]:
        """Advance the train by one atomic step; returns alarm reasons.

        ``hold_broadcast`` freezes this node's broadcast slot for one step
        (the Want-mode server delaying the train, Section 7.2.2); the
        convergecast keeps flowing.

        ``sentinel`` (columnar storage only) is the closed neighbourhood's
        stable-register version: the part topology, own pieces, count
        claim, and needed mask are pure functions of labels, so they are
        recomputed only when the sentinel moves — never per step.
        """
        alarms: List[str] = []
        if sentinel is not None:
            ent = self._label_cache.get(ctx.node)
            if ent is not None and ent[0] == sentinel:
                parent, children, own, count_claim, needed = ent[1]
            else:
                parent = self.part_parent(ctx)
                children = self.part_children(ctx)
                own = self.own_pieces(ctx)
                count_claim = ctx.nat(self.h_count, cap=4096)
                needed = self.needed_mask(ctx)
                self._label_cache[ctx.node] = (
                    sentinel, (parent, children, own, count_claim, needed))
            self._cur_needed = needed
        else:
            parent = self.part_parent(ctx)
            children = self.part_children(ctx)
            own = self.own_pieces(ctx)
            count_claim = ctx.nat(self.h_count, cap=4096)
            needed = None
            self._cur_needed = None

        # --- epoch adoption (train self-stabilization) --------------------
        if parent is not None:
            pep = ctx.read_nat(parent, self.h_ep, cap=SEQ_MOD)
            if pep is not None and pep != ctx.get(self.h_ep):
                self._reset_dynamic(ctx, pep)
                return alarms

        # --- watchdogs -----------------------------------------------------
        idle = (count_claim == 0 and
                (needed if needed is not None
                 else self.needed_mask(ctx)) == 0)
        if not idle:
            wd = (ctx.nat(self.h_wd) or 0) + 1
            ctx.set(self.h_wd, wd)
            if parent is None and wd > 0 and wd % budgets.root_reset == 0:
                # the part root restarts a wedged train
                new_ep = ((ctx.nat(self.h_ep, cap=SEQ_MOD) or 0) + 1) % SEQ_MOD
                self._reset_dynamic(ctx, new_ep)
                ctx.set(self.h_wd, wd)  # keep counting toward the alarm
                return alarms
            if wd > budgets.node_alarm:
                alarms.append(f"{self.kind}-train: no good rotation within "
                              "budget (missing levels, wrong piece count, "
                              "or a starved train)")
                ctx.set(self.h_wd, 0)

        self._step_convergecast(ctx, parent, children, own)
        if not hold_broadcast:
            alarms.extend(
                self._step_broadcast(ctx, parent, children, count_claim))
        return alarms

    # -- convergecast -----------------------------------------------------
    def _step_convergecast(self, ctx, parent, children, own) -> None:
        me = ctx.node
        cyc = ctx.nat(self.h_cyc, cap=SEQ_MOD) or 0

        if parent is not None:
            pact = ctx.read(parent, self.h_act)
            if not (isinstance(pact, tuple) and len(pact) == 2
                    and pact[0] == me):
                return  # not my turn in the parent's DFS
            new_cyc = _nat(pact[1], cap=SEQ_MOD)
            if new_cyc is None:
                return
            if new_cyc != cyc:
                # a fresh DFS visit: restart my subtree's delivery
                ctx.set(self.h_cyc, new_cyc)
                ctx.set(self.h_src, 0)
                ctx.set(self.h_done, None)
                ctx.set(self.h_act, None)
                cyc = new_cyc
            if ctx.get(self.h_done) == cyc:
                return  # finished; wait for the next visit

        out = ctx.get(self.h_out)
        if out is not None and ctx.get_decoded(self.h_out, _decode_car) \
                is None:
            ctx.set(self.h_out, None)
            out = None

        # ack: the parent consumed my outgoing car
        if out is not None and parent is not None:
            ptak = ctx.read(parent, self.h_tak)
            if isinstance(ptak, tuple) and len(ptak) == 2 and \
                    ptak[0] == me and ptak[1] == out[0]:
                ctx.set(self.h_out, None)
                out = None

        if out is not None:
            return  # still waiting for the car to be consumed

        src = ctx.nat(self.h_src, cap=4096)
        if src is None:
            src = 0
        seq = ((ctx.nat(self.h_seq, cap=SEQ_MOD) or 0) + 1) % SEQ_MOD

        if src < len(own):
            ctx.set(self.h_out, (seq, own[src]))
            ctx.set(self.h_seq, seq)
            ctx.set(self.h_src, src + 1)
            return

        child_idx = src - len(own)
        while child_idx < len(children):
            child = children[child_idx]
            ctx.set(self.h_act, (child, cyc))
            cdone = ctx.read(child, self.h_done)
            cout = ctx.read_decoded(child, self.h_out, _decode_car)
            if cout is not None:
                tak = ctx.get(self.h_tak)
                if tak != (child, cout[0]):
                    # take the child's piece into my outgoing car
                    ctx.set(self.h_out, (seq, cout[1]))
                    ctx.set(self.h_seq, seq)
                    ctx.set(self.h_tak, (child, cout[0]))
                    return
            if cdone == cyc:
                child_idx += 1
                ctx.set(self.h_src, len(own) + child_idx)
                continue
            return  # wait for this child

        # all sources exhausted: subtree finished for this cycle
        ctx.set(self.h_act, None)
        if parent is not None:
            ctx.set(self.h_done, cyc)
        else:
            ctx.set(self.h_cyc, (cyc + 1) % SEQ_MOD)
            ctx.set(self.h_src, 0)

    # -- broadcast ----------------------------------------------------------
    def _step_broadcast(self, ctx, parent, children, count_claim) -> List[str]:
        alarms: List[str] = []
        bseq = ctx.nat(self.h_bseq, cap=SEQ_MOD) or 0

        # children must catch up before this node's slot may change
        for c in children:
            if ctx.read(c, self.h_bseq) != bseq:
                return alarms

        new_slot = None
        if parent is None:
            out = ctx.get_decoded(self.h_out, _decode_car)
            if out is not None:
                piece = out[1]
                flag = self.membership_flag(ctx, piece, parent_flag=False)
                new_slot = (piece, flag)
                ctx.set(self.h_out, None)  # the broadcast consumed the car
        else:
            pseq = ctx.read_nat(parent, self.h_bseq, cap=SEQ_MOD)
            pobs = ctx.read_decoded(parent, self.h_bbuf, decode_observation)
            if pseq is not None and pseq != bseq and pobs is not None:
                piece = pobs.piece
                flag = self.membership_flag(ctx, piece, pobs.flag)
                new_slot = (piece, flag)
                bseq = (pseq - 1) % SEQ_MOD  # will advance to pseq below

        if new_slot is None:
            return alarms

        piece, flag = new_slot
        ctx.set(self.h_bbuf, (piece, flag))
        ctx.set(self.h_bseq, (bseq + 1) % SEQ_MOD)
        alarms.extend(self._account_piece(ctx, piece, flag, count_claim))
        return alarms

    # -- rotation accounting (cycle-set checks of Section 8) ---------------
    def _account_piece(self, ctx, piece, flag, count_claim) -> List[str]:
        alarms: List[str] = []
        key = piece_key(piece)
        last = ctx.get(self.h_last)
        boundary = (isinstance(last, tuple) and key <= tuple(last)) \
            if last is not None else False

        roots = ctx.get(self.h_roots)
        level = piece[1]
        if flag and isinstance(roots, str) and level < len(roots):
            if roots[level] == "1" and piece[0] != ctx.node:
                alarms.append(f"{self.kind}-train: fragment root id mismatch")
            if roots[level] == "0" and piece[0] == ctx.node:
                alarms.append(f"{self.kind}-train: member claims to be "
                              "the fragment root")

        if boundary:
            # A rotation only placates the watchdog when it is *good*:
            # correct piece count and full coverage of this node's levels.
            # Transient corruption of the pipeline produces bad rotations
            # for at most O(root_reset) rounds before the part root's
            # epoch reset repairs it (Observation 8.1); persistently bad
            # rotations — wrong labels — starve the watchdog until the
            # node_alarm budget fires (Claim 8.2's detection).
            good = True
            if ctx.get(self.h_sync):
                needed = self._cur_needed if self._cur_needed is not None \
                    else self.needed_mask(ctx)
                seen = ctx.nat(self.h_seen) or 0
                if needed & ~seen:
                    good = False
                cnt = ctx.nat(self.h_cnt, cap=1 << 20) or 0
                if count_claim is not None and cnt != count_claim:
                    good = False
            ctx.set(self.h_sync, True)
            ctx.set(self.h_seen, (1 << level) if flag else 0)
            ctx.set(self.h_cnt, 1)
            if good:
                ctx.set(self.h_wd, 0)
        else:
            if flag:
                ctx.set(self.h_seen, (ctx.nat(self.h_seen) or 0) | (1 << level))
            ctx.set(self.h_cnt, (ctx.nat(self.h_cnt, cap=1 << 20) or 0) + 1)
        ctx.set(self.h_last, key)
        return alarms

    # -- what neighbours see (Show) ----------------------------------------
    def observe(self, ctx, neighbor: int) -> Optional[TrainObservation]:
        """The neighbour's current broadcast slot, if well-formed."""
        return ctx.read_decoded(neighbor, self.h_bbuf, decode_observation)

    def own_show(self, ctx) -> Optional[TrainObservation]:
        """This node's own broadcast slot (its train's current piece)."""
        return ctx.get_decoded(self.h_bbuf, decode_observation)

    # -- the bulk-activation plane (repro.sim.bulk) ------------------------
    def make_bulk_step(self, ops):
        """A column-fused variant of :meth:`step` for the bulk plane.

        Returns a closure ``fused(ctx, budgets, hold_broadcast,
        sentinel) -> List[str]`` that executes the exact scalar step —
        same control flow, same junk coercions, same writes in the same
        order — with every context accessor inlined to direct column
        indexing against ``ops.store``/``ops.snap``.  Licensed only by
        fused ops (synchronous batches: neighbour reads hit the
        snapshot, no mid-batch aborts); returns None when the layout is
        not the expected columnar one, so callers fall back to the
        scalar :meth:`step`.

        Write tracking: fused writes mark columns dirty but skip the
        per-context ``wrote`` flag — the calling protocol's bulk sweep
        declares ``batch.wrote_all`` instead (every batch node's step
        counter advances, so the scalar path marks every node too).
        Equivalence is proven by ``tests/test_bulk_plane.py`` (full
        register traces, including planted junk in nat/tuple columns).
        """
        if not getattr(ops, "fused", False) or type(self.h_out) is not int:
            return None
        store = ops.store
        snap = ops.snap
        data = store.data
        sdata = snap.data
        h_out, h_src, h_cyc = self.h_out, self.h_src, self.h_cyc
        h_done, h_act, h_tak, h_seq = (self.h_done, self.h_act,
                                       self.h_tak, self.h_seq)
        h_bseq, h_bbuf, h_seen = self.h_bseq, self.h_bbuf, self.h_seen
        h_last, h_cnt, h_sync = self.h_last, self.h_cnt, self.h_sync
        h_wd, h_ep, h_roots = self.h_wd, self.h_ep, self.h_roots
        nat_slots = (h_src, h_cyc, h_done, h_seq, h_bseq, h_seen, h_cnt,
                     h_wd, h_ep)
        pool_slots = (h_out, h_act, h_tak, h_bbuf, h_last, h_roots)
        stable = store.schema.stable_mask
        if any(type(data[h]) is not array for h in nat_slots) or \
                any(type(data[h]) is not PoolColumn for h in pool_slots) \
                or type(data[h_sync]) is not list or \
                any(stable[h] for h in nat_slots + pool_slots[:-1]) or \
                stable[h_sync]:
            return None
        out_col, src_col, cyc_col = data[h_out], data[h_src], data[h_cyc]
        done_col, act_col, tak_col = data[h_done], data[h_act], data[h_tak]
        seq_col, bseq_col, bbuf_col = (data[h_seq], data[h_bseq],
                                       data[h_bbuf])
        seen_col, last_col, cnt_col = (data[h_seen], data[h_last],
                                       data[h_cnt])
        sync_col, wd_col, ep_col = data[h_sync], data[h_wd], data[h_ep]
        roots_col = data[h_roots]
        s_ep, s_act, s_tak = sdata[h_ep], sdata[h_act], sdata[h_tak]
        s_done, s_out, s_bseq = sdata[h_done], sdata[h_out], sdata[h_bseq]
        s_bbuf = sdata[h_bbuf]
        index = store.index
        pool = store.pool_values
        overflow = store.overflow
        soverflow = snap.overflow
        decoded = store.decoded
        none_decode = store.none_decode  # shared with the snapshot
        memos = store.decode_memo        # shared with the snapshot
        memo_for = store.memo_for
        intern = store.intern
        box = store._box
        dc = store.dirty_cols
        cache = self._label_cache
        kind = self.kind

        # fused writes: per-column nat writers from the store (the one
        # source of truth for the array-write encoding) plus the pooled
        # branch of ctx.set, minus handle dispatch and per-context
        # wrote flags (see the write-tracking note above)
        w_cyc = store.make_nat_writer(h_cyc)
        w_src = store.make_nat_writer(h_src)
        w_done = store.make_nat_writer(h_done)
        w_seq = store.make_nat_writer(h_seq)
        w_bseq = store.make_nat_writer(h_bseq)
        w_seen = store.make_nat_writer(h_seen)
        w_cnt = store.make_nat_writer(h_cnt)
        w_wd = store.make_nat_writer(h_wd)

        def _wpool(col, h, i, val):
            ovf = overflow[h]
            if ovf:
                ovf.pop(i, None)
            if val is None:
                col[i] = NONE_S
            else:
                try:
                    col[i] = intern(val)
                except TypeError:       # unhashable adversarial junk
                    col[i] = box(h, i, val)
            dc[h] = 1

        def conv(ctx, i, parent, children, own):
            # _step_convergecast with inlined column access
            me = ctx.node
            v = cyc_col[i]
            cyc = v if 0 <= v <= SEQ_MOD else 0
            if parent is not None:
                pj = index[parent]
                v = s_act[pj]
                pact = pool[v] if v > SENT_CEIL else (
                    soverflow[h_act][pj] if v == BOX_S else None)
                if not (isinstance(pact, tuple) and len(pact) == 2
                        and pact[0] == me):
                    return
                new_cyc = _nat(pact[1], cap=SEQ_MOD)
                if new_cyc is None:
                    return
                if new_cyc != cyc:
                    w_cyc(i, new_cyc)
                    w_src(i, 0)
                    w_done(i, None)
                    _wpool(act_col, h_act, i, None)
                    cyc = new_cyc
                v = done_col[i]
                done = v if v > SENT_CEIL else (
                    overflow[h_done][i] if v == BOX_S else None)
                if done == cyc:
                    return
            v = out_col[i]
            out = pool[v] if v > SENT_CEIL else (
                overflow[h_out][i] if v == BOX_S else None)
            if out is not None:
                if v >= 0:
                    m = memos[h_out]
                    try:
                        d = m[v]
                    except (TypeError, IndexError):
                        d = NO_DECODE
                    if d is NO_DECODE:
                        d = _decode_car(pool[v])
                        memo_for(h_out, v)[v] = d
                else:
                    d = _decode_car(out)
                if d is None:
                    _wpool(out_col, h_out, i, None)
                    out = None
            if out is not None and parent is not None:
                v = s_tak[pj]
                ptak = pool[v] if v > SENT_CEIL else (
                    soverflow[h_tak][pj] if v == BOX_S else None)
                if isinstance(ptak, tuple) and len(ptak) == 2 and \
                        ptak[0] == me and ptak[1] == out[0]:
                    _wpool(out_col, h_out, i, None)
                    out = None
            if out is not None:
                return
            v = src_col[i]
            src = v if 0 <= v <= 4096 else 0
            v = seq_col[i]
            seq = ((v if 0 <= v <= SEQ_MOD else 0) + 1) % SEQ_MOD
            if src < len(own):
                _wpool(out_col, h_out, i, (seq, own[src]))
                w_seq(i, seq)
                w_src(i, src + 1)
                return
            child_idx = src - len(own)
            while child_idx < len(children):
                child = children[child_idx]
                _wpool(act_col, h_act, i, (child, cyc))
                cj = index[child]
                v = s_done[cj]
                cdone = v if v > SENT_CEIL else (
                    soverflow[h_done][cj] if v == BOX_S else None)
                v = s_out[cj]
                if v >= 0:
                    m = memos[h_out]
                    try:
                        cout = m[v]
                    except (TypeError, IndexError):
                        cout = NO_DECODE
                    if cout is NO_DECODE:
                        cout = _decode_car(pool[v])
                        memo_for(h_out, v)[v] = cout
                elif v == BOX_S:
                    cout = _decode_car(soverflow[h_out][cj])
                else:
                    cout = none_decode[h_out]
                    if cout is NO_DECODE:
                        cout = none_decode[h_out] = _decode_car(None)
                if cout is not None:
                    v = tak_col[i]
                    tak = pool[v] if v > SENT_CEIL else (
                        overflow[h_tak][i] if v == BOX_S else None)
                    if tak != (child, cout[0]):
                        _wpool(out_col, h_out, i, (seq, cout[1]))
                        w_seq(i, seq)
                        _wpool(tak_col, h_tak, i, (child, cout[0]))
                        return
                if cdone == cyc:
                    child_idx += 1
                    w_src(i, len(own) + child_idx)
                    continue
                return
            _wpool(act_col, h_act, i, None)
            if parent is not None:
                w_done(i, cyc)
            else:
                w_cyc(i, (cyc + 1) % SEQ_MOD)
                w_src(i, 0)

        def account(ctx, i, piece, flag, count_claim):
            # _account_piece with inlined column access
            alarms = []
            level = piece[1]
            key = (level, piece[0])
            v = last_col[i]
            last = pool[v] if v > SENT_CEIL else (
                overflow[h_last][i] if v == BOX_S else None)
            boundary = (isinstance(last, tuple) and key <= tuple(last)) \
                if last is not None else False
            v = roots_col[i]
            roots = pool[v] if v > SENT_CEIL else (
                overflow[h_roots][i] if v == BOX_S else None)
            if flag and isinstance(roots, str) and level < len(roots):
                if roots[level] == "1" and piece[0] != ctx.node:
                    alarms.append(f"{kind}-train: fragment root id "
                                  "mismatch")
                if roots[level] == "0" and piece[0] == ctx.node:
                    alarms.append(f"{kind}-train: member claims to be "
                                  "the fragment root")
            if boundary:
                good = True
                v = sync_col[i]
                if v is not UNSET and v:
                    needed = self._cur_needed \
                        if self._cur_needed is not None \
                        else self.needed_mask(ctx)
                    v = seen_col[i]
                    seen = v if 0 <= v <= _NAT_CAP else 0
                    if needed & ~seen:
                        good = False
                    v = cnt_col[i]
                    cnt = v if 0 <= v <= (1 << 20) else 0
                    if count_claim is not None and cnt != count_claim:
                        good = False
                sync_col[i] = True
                dec = decoded[h_sync]
                if dec is not None:
                    dec[i] = NO_DECODE
                dc[h_sync] = 1
                w_seen(i, (1 << level) if flag else 0)
                w_cnt(i, 1)
                if good:
                    w_wd(i, 0)
            else:
                if flag:
                    v = seen_col[i]
                    seen = v if 0 <= v <= _NAT_CAP else 0
                    w_seen(i, seen | (1 << level))
                v = cnt_col[i]
                cnt = v if 0 <= v <= (1 << 20) else 0
                w_cnt(i, cnt + 1)
            _wpool(last_col, h_last, i, key)
            return alarms

        def broadcast(ctx, i, parent, children, count_claim):
            # _step_broadcast with inlined column access
            alarms = []
            v = bseq_col[i]
            bseq = v if 0 <= v <= SEQ_MOD else 0
            for child in children:
                cj = index[child]
                v = s_bseq[cj]
                cbseq = v if v > SENT_CEIL else (
                    soverflow[h_bseq][cj] if v == BOX_S else None)
                if cbseq != bseq:
                    return alarms
            new_slot = None
            if parent is None:
                v = out_col[i]
                if v >= 0:
                    m = memos[h_out]
                    try:
                        out = m[v]
                    except (TypeError, IndexError):
                        out = NO_DECODE
                    if out is NO_DECODE:
                        out = _decode_car(pool[v])
                        memo_for(h_out, v)[v] = out
                elif v == BOX_S:
                    out = _decode_car(overflow[h_out][i])
                else:
                    out = none_decode[h_out]
                    if out is NO_DECODE:
                        out = none_decode[h_out] = _decode_car(None)
                if out is not None:
                    piece = out[1]
                    flag = self.membership_flag(ctx, piece,
                                                parent_flag=False)
                    new_slot = (piece, flag)
                    _wpool(out_col, h_out, i, None)
            else:
                pj = index[parent]
                v = s_bseq[pj]
                pseq = v if 0 <= v <= SEQ_MOD else None
                v = s_bbuf[pj]
                if v >= 0:
                    m = memos[h_bbuf]
                    try:
                        pobs = m[v]
                    except (TypeError, IndexError):
                        pobs = NO_DECODE
                    if pobs is NO_DECODE:
                        pobs = decode_observation(pool[v])
                        memo_for(h_bbuf, v)[v] = pobs
                elif v == BOX_S:
                    pobs = decode_observation(soverflow[h_bbuf][pj])
                else:
                    pobs = none_decode[h_bbuf]
                    if pobs is NO_DECODE:
                        pobs = none_decode[h_bbuf] = \
                            decode_observation(None)
                if pseq is not None and pseq != bseq and pobs is not None:
                    piece = pobs.piece
                    flag = self.membership_flag(ctx, piece, pobs.flag)
                    new_slot = (piece, flag)
                    bseq = (pseq - 1) % SEQ_MOD
            if new_slot is None:
                return alarms
            piece, flag = new_slot
            _wpool(bbuf_col, h_bbuf, i, (piece, flag))
            w_bseq(i, (bseq + 1) % SEQ_MOD)
            alarms.extend(account(ctx, i, piece, flag, count_claim))
            return alarms

        def fused(ctx, budgets, hold_broadcast, sentinel):
            # step() with the prologue (label row, epoch adoption,
            # watchdogs) on direct column reads
            alarms: List[str] = []
            i = ctx._i
            ent = cache.get(ctx.node)
            if ent is not None and ent[0] == sentinel:
                parent, children, own, count_claim, needed = ent[1]
            else:
                parent = self.part_parent(ctx)
                children = self.part_children(ctx)
                own = self.own_pieces(ctx)
                count_claim = ctx.nat(self.h_count, cap=4096)
                needed = self.needed_mask(ctx)
                cache[ctx.node] = (
                    sentinel, (parent, children, own, count_claim, needed))
            self._cur_needed = needed
            if parent is not None:
                v = s_ep[index[parent]]
                pep = v if 0 <= v <= SEQ_MOD else None
                if pep is not None:
                    v = ep_col[i]
                    own_ep = v if v > SENT_CEIL else (
                        overflow[h_ep][i] if v == BOX_S else None)
                    if pep != own_ep:
                        self._reset_dynamic(ctx, pep)
                        return alarms
            if not (count_claim == 0 and needed == 0):
                v = wd_col[i]
                wd = (v if 0 <= v <= _NAT_CAP else 0) + 1
                w_wd(i, wd)
                if parent is None and wd % budgets.root_reset == 0:
                    v = ep_col[i]
                    new_ep = ((v if 0 <= v <= SEQ_MOD else 0) + 1) \
                        % SEQ_MOD
                    self._reset_dynamic(ctx, new_ep)
                    w_wd(i, wd)
                    return alarms
                if wd > budgets.node_alarm:
                    alarms.append(
                        f"{kind}-train: no good rotation within budget "
                        "(missing levels, wrong piece count, or a "
                        "starved train)")
                    w_wd(i, 0)
            conv(ctx, i, parent, children, own)
            if not hold_broadcast:
                alarms.extend(
                    broadcast(ctx, i, parent, children, count_claim))
            return alarms

        return fused

    def make_vector_kernel(self, ops, topo):
        """The whole-column classifier behind the numpy-tier vector
        sweep (:func:`repro.verification.verifier.fused_verifier_sweep`
        on a :class:`~repro.sim.npcolumnar.NumpyColumnStore`).

        The fused step of most nodes on most activations is *trivial*:
        it bumps the watchdog and returns without any other write or
        alarm — the parent's activation car names another child (or is
        absent), the subtree is done for the cycle, the broadcast is
        blocked on a lagging child or has nothing to adopt.  Those exit
        conditions are plain int64 comparisons over the train's nat
        columns plus pool-id-indexed attribute lookups, so one ndarray
        pass classifies every batch node; provably-trivial nodes get
        their single watchdog write applied as one masked slice-store.
        The frequent transitions are *planned* instead: the whole
        convergecast past the activation check — ack waits, acks, own
        piece emissions, the child scan (advancing past finished
        children, then taking a child's car or waiting for one),
        subtree completions and cycle wraps — a broadcast adopt, and a
        part root's drain of its car into its broadcast slot.  Their
        exact write sequences are vetted at classify time and executed
        after the watchdog write.  Everything else (new-cycle
        restarts, epoch adoption, boxed or custom-``==`` junk, alarms
        — anything the masks cannot prove) replays the exact scalar
        fused body.  Equivalence is
        therefore by construction: the vector path only ever *skips*
        per-node code whose effect it proved to be exactly the writes
        it applies.

        Returns an object with ``rebuild``/``classify`` (see
        ``_VectorSweep``); call only when :meth:`make_bulk_step`
        returned a closure (same layout preconditions) and numpy is
        available.
        """
        return _VectorTrainKernel(self, ops, topo)


class _VectorTrainKernel:
    """Whole-column trivial-step classifier for one train component.

    ``rebuild`` (per stability epoch) fills the component's label cache
    eagerly with the exact fill code of the fused prologue and freezes
    the part topology into flat arrays; ``classify`` (per sweep) proves,
    with pure reads only, which batch rows' fused step would be exactly
    "bump the watchdog and return" or one of the planned transitions
    (the convergecast's outcome table is :meth:`_conv_outcomes`).
    The reads of the child traffic — the children's cars and ``done``
    flags, own and parent ``tak`` — go through pool-id attribute caches
    shared with the other train's kernel, and the activation car a
    scan writes resolves to its pool id through ``act_pid``.  New-cycle
    restarts, rows under epoch adoption, rows whose reads hit boxed
    overflow or custom-``==`` junk, and anything the masks cannot
    decide stay non-trivial and replay the scalar fused body verbatim.
    """

    __slots__ = ("comp", "store", "snap", "vd", "vs", "act_cache",
                 "obs_cache",
                 "car_cache", "tak_cache", "act_pid",
                 "pidx", "idle", "bad", "coff", "cflat", "nch", "n_own",
                 "ooff", "oflat", "ohash", "ctxs", "ccs", "needs",
                 "w_bseq", "w_seen", "w_cnt",
                 "w_wd", "_adopt_memo", "_root_memo")

    def __init__(self, comp, ops, topo):
        self.comp = comp
        self.store = ops.store
        self.snap = ops.snap
        store = ops.store
        # int64 views of the columns the kernel reads and writes, live
        # and snapshot: taken once, since columns never change length
        # and refreshes and restores write them in place
        cols = (comp.h_ep, comp.h_wd, comp.h_act, comp.h_cyc,
                comp.h_done, comp.h_bseq, comp.h_bbuf, comp.h_out,
                comp.h_src, comp.h_tak, comp.h_seq)
        self.vd = {h: view64(store.data[h]) for h in cols}
        self.vs = {h: view64(ops.snap.data[h]) for h in cols}
        self.w_bseq = store.make_nat_writer(comp.h_bseq)
        self.w_seen = store.make_nat_writer(comp.h_seen)
        self.w_cnt = store.make_nat_writer(comp.h_cnt)
        self.w_wd = store.make_nat_writer(comp.h_wd)

        def act_attrs(val):
            # mirrors conv()'s activation-car check: (who is named,
            # which cycle); IDX_ODD routes custom-__eq__ junk scalar
            if isinstance(val, tuple) and len(val) == 2:
                c = _nat(val[1], cap=SEQ_MOD)
                return (idx_of(store, val[0]), -1 if c is None else c)
            return (IDX_NOT, -1)

        def obs_attrs(val):
            return (1 if decode_observation(val) is not None else 0,)

        def car_attrs(val):
            # a car's sequence key, CAR_BAD when it does not decode
            car = _decode_car(val)
            return (CAR_BAD if car is None else _seq_key(car[0]),)

        def tak_attrs(val):
            # an ack (who, seq key); a value that is no 2-tuple equals
            # no ack or (child, seq) pair — unless its == is custom
            if type(val) is tuple and len(val) == 2:
                return (idx_of(store, val[0]), _seq_key(val[1]))
            if type(val) in PLAIN_TYPES:
                return (IDX_NOT, KEY_ODD)
            return (IDX_ODD, KEY_ODD)

        shared = topo.shared
        self.act_cache = shared(
            "train.act", lambda: PoolIdCache(store, 2, act_attrs))
        self.obs_cache = shared(
            "train.obs", lambda: PoolIdCache(store, 1, obs_attrs))
        self.car_cache = shared(
            "train.car", lambda: PoolIdCache(store, 1, car_attrs))
        self.tak_cache = shared(
            "train.tak", lambda: PoolIdCache(store, 2, tak_attrs))
        self.act_pid = None
        self.pidx = None
        self.idle = None
        self.bad = None
        self.coff = None
        self.cflat = None
        self.nch = None
        self.n_own = None
        self.ooff = None
        self.oflat = None
        self.ohash = None
        self.ctxs = None
        self.ccs = None
        self.needs = None
        self._adopt_memo = {}
        self._root_memo = {}

    def rebuild(self, np, topo) -> None:
        """Refresh label-derived row attributes (called when the joint
        stable epoch moved; label registers are stable, so between
        rebuilds every cached entry's sentinel still matches)."""
        comp = self.comp
        cache = comp._label_cache
        index = self.store.index
        n = topo.n
        pidx = np.full(n, -1, np.int64)
        idle = np.zeros(n, bool)
        bad = np.zeros(n, bool)
        n_own = np.zeros(n, np.int64)
        ooff = np.zeros(n + 1, np.int64)
        oflat = []
        ohash = []
        ccs = [None] * n
        needs = [0] * n
        child_rows = []
        for i in range(n):
            ctx = topo.ctxs[i]
            sentinel = ctx.stable_sentinel()
            ent = cache.get(ctx.node)
            if ent is not None and ent[0] == sentinel:
                parent, children, own, count_claim, needed = ent[1]
            else:
                parent = comp.part_parent(ctx)
                children = comp.part_children(ctx)
                own = comp.own_pieces(ctx)
                count_claim = ctx.nat(comp.h_count, cap=4096)
                needed = comp.needed_mask(ctx)
                cache[ctx.node] = (
                    sentinel,
                    (parent, children, own, count_claim, needed))
            idle[i] = count_claim == 0 and needed == 0
            n_own[i] = len(own)
            ooff[i + 1] = ooff[i] + len(own)
            for pc in own:
                oflat.append(pc)
                try:
                    hash(pc)        # a planned emission must intern
                    ohash.append(True)
                except Exception:
                    ohash.append(False)
            ccs[i] = count_claim
            needs[i] = needed
            crow = []
            try:
                if parent is not None:
                    pidx[i] = index[parent]
                for child in children:
                    crow.append(index[child])
            except (KeyError, TypeError, IndexError):
                bad[i] = True   # unmappable label: the scalar body owns
                crow = []       # whatever happens (including the raise)
            child_rows.append(crow)
        coff = np.zeros(n + 1, np.int64)
        np.cumsum(np.fromiter((len(r) for r in child_rows), np.int64,
                              count=n), out=coff[1:])
        cflat = np.empty(int(coff[-1]), np.int64)
        for i, r in enumerate(child_rows):
            cflat[int(coff[i]):int(coff[i + 1])] = r
        self.pidx, self.idle, self.bad = pidx, idle, bad
        self.coff, self.cflat = coff, cflat
        self.nch = coff[1:] - coff[:-1]
        self.n_own = n_own
        self.ooff = ooff
        self.oflat = oflat
        self.ohash = np.array(ohash, bool) if ohash \
            else np.zeros(0, bool)
        self.ctxs = topo.ctxs
        self.ccs, self.needs = ccs, needs
        # the vetting memos read stable labels (roots, jmask, own
        # pieces); a stable-epoch move may change any of them
        self._adopt_memo = {}
        self._root_memo = {}
        # activation-car ids + 1 per (child row, cycle), 0 = unknown;
        # dense rows keep their node for the store's lifetime, so this
        # is a pool-id cache like the others
        self.act_pid = topo.shared(
            "train.act_pid",
            lambda: np.zeros(n * (SEQ_MOD + 1), np.int32))

    def classify(self, np, ia, row_of, na, rr, hold, traffic):
        """(trivial-mask, broadcast-done-mask, apply, adopt-plans) for
        the batch rows ``ia``.

        ``na`` and ``rr`` are the per-row node-alarm and root-reset
        budgets (-1 where unknown, which simply fails the watchdog
        bounds), ``hold`` the sweep's hold_broadcast flag.  ``traffic``
        admits the convergecast outcomes that read the children's cars
        and ``done`` flags and the acks (see :meth:`_conv_outcomes`);
        the sweep sets it for batches large enough to amortize its
        cost (``_VectorSweep.TRAFFIC_MIN`` rows).
        ``apply(rows)`` performs the one masked watchdog write (plus
        any planned convergecast transitions, part-root drains and
        adopts) for the row *positions* the orchestrator kept — an
        int64 index array into ``ia``, so the cost is O(|rows|).

        The broadcast-done mask marks rows whose *broadcast half* is
        proven silent (writes nothing, raises no alarm) or fully
        planned as an adopt, even though the row as a whole is not
        trivial — the replay loop steps those rows with
        ``hold_broadcast=True``, skipping the child scan and adopt
        logic the scalar body would re-derive, and then executes the
        row's adopt plan (if any) so the writes land in scalar order.
        Epoch adoption and the root-reset branch return before the
        broadcast, so the flag is vacuous (and harmless) there; roots
        never set it (their broadcast half drains the car their own
        convergecast produced, so a root's drain is planned only
        together with the whole step)."""
        comp = self.comp
        store = self.store
        vd, vs = self.vd, self.vs
        m = len(ia)
        pidx = self.pidx[ia]
        parented = (pidx >= 0) & ~self.bad[ia]
        pj = np.where(pidx >= 0, pidx, 0)

        # epoch adoption would reset before the watchdog ever bumps
        ep_v = vd[comp.h_ep][ia]
        pe = vs[comp.h_ep][pj]
        pep_valid = (pe >= 0) & (pe <= SEQ_MOD)
        epoch_ok = ~pep_valid | ((ep_v > SENT_CEIL) & (ep_v == pe))

        # watchdog: idle rows skip it; others must stay under budget
        # (over-budget rows alarm and reset — scalar's job)
        idle = self.idle[ia]
        wd_v = vd[comp.h_wd][ia]
        wd_new = np.where((wd_v >= 0) & (wd_v <= _NAT_CAP), wd_v, 0) + 1
        wd_ok = idle | (wd_new <= na)

        # convergecast exits without writing iff the parent's activation
        # car is absent / names someone else / is malformed, or names us
        # for the cycle our subtree already finished
        ar = vs[comp.h_act][pj]
        acts = self.act_cache.sync(ar)
        a_pool = (ar >= 0) & (ar < self.act_cache.filled)
        api = np.where(a_pool, ar, 0)
        af = acts[0][api]
        ac = acts[1][api]
        a_none = (ar <= SENT_CEIL) & (ar != BOX_S)
        mine = a_pool & (af == ia)
        odd = a_pool & (af == IDX_ODD)
        not_mine = a_none | (a_pool & ~mine & ~odd)
        cyc_v = vd[comp.h_cyc][ia]
        cyc = np.where((cyc_v >= 0) & (cyc_v <= SEQ_MOD), cyc_v, 0)
        done_v = vd[comp.h_done][ia]
        done_eq = (done_v > SENT_CEIL) & (done_v == cyc)

        # it IS my turn (named in the parent's car, matching cycle,
        # subtree unfinished): the rest of the convergecast runs.  Part
        # roots run it on every step: an honest root emits or forwards
        # a car and drains it on every step, forever, so a root row is
        # planned when its watchdog stays under both the alarm and the
        # reset budget (a new-cycle restart stays scalar, as does
        # anything with an unmappable label)
        root = (pidx < 0) & ~self.bad[ia]
        if root.any():
            rr_ok = rr > 0
            root &= idle | ((wd_new <= na) & rr_ok
                            & (wd_new % np.where(rr_ok, rr, 1) != 0))
        deliver = (parented & mine & (ac == cyc) & ~done_eq
                   & (done_v != BOX_S))
        oc = np.full(m, CV_REPLAY, np.int8)
        oc[parented & (not_mine | (mine & ((ac == -1)
                                           | ((ac == cyc) & done_eq))))] \
            = CV_QUIET
        cv = None
        if deliver.any() or root.any():
            cv = self._conv_outcomes(np, ia, deliver | root, root, pj,
                                     cyc, oc, traffic)
        conv_ok = oc != CV_REPLAY

        pending = {}
        bseq = None
        if hold is True:
            bc_triv = np.ones(m, bool)
            bc_done = np.zeros(m, bool)
        else:
            # broadcast exits without writing iff a child's slot lags
            # (first-mismatch return) or there is nothing to adopt; any
            # boxed read in the gate makes the row scalar
            bseq_v = vd[comp.h_bseq][ia]
            bseq = np.where((bseq_v >= 0) & (bseq_v <= SEQ_MOD),
                            bseq_v, 0)
            e_node, e_pos = csr_take(self.coff, ia)
            cb = vs[comp.h_bseq][self.cflat[e_pos]]
            any_box = seg_any(cb == BOX_S, e_node, m)
            any_mism = seg_any((cb <= SENT_CEIL)
                               | (cb != bseq[e_node]), e_node, m)
            pb = vs[comp.h_bbuf][pj]
            obs_ok = self.obs_cache.sync(pb)[0]
            b_pool = (pb >= 0) & (pb < self.obs_cache.filled)
            pobs_valid = b_pool & (obs_ok[np.where(b_pool, pb, 0)] == 1)
            psr = vs[comp.h_bseq][pj]
            advance = ((psr >= 0) & (psr <= SEQ_MOD) & (psr != bseq)
                       & pobs_valid)
            bc_triv = ~any_box & (any_mism
                                  | (~advance & (pb != BOX_S)))
            # the broadcast-adopt fast path: every child in step, the
            # parent's slot holds a decodable observation one sequence
            # ahead — the scalar body would adopt it and account the
            # piece.  Rows whose adopt is provably alarm-free and free
            # of junk comparisons get the exact write sequence planned
            # here and executed after the prologue (masked wd write or
            # scalar replay with the broadcast held); the rest replay.
            adopt = (parented & epoch_ok & ~any_box & ~any_mism
                     & advance)
            if hold is not False:    # per-row hold mask (Want mode)
                adopt &= ~hold
            if adopt.any():
                pending = self._plan_adopts(np.flatnonzero(adopt),
                                            ia, pb, psr)
                if pending:
                    planned = np.zeros(m, bool)
                    planned[list(pending)] = True
                    bc_triv = bc_triv | planned
            # proven-handled broadcast for parented rows, regardless of
            # what the prologue or convergecast do (they touch none of
            # the gate's reads before the broadcast would run)
            bc_done = parented & bc_triv
            if hold is not False:
                bc_triv = hold | bc_triv

        triv = parented & epoch_ok & wd_ok & conv_ok & bc_triv
        drains = {}
        if root.any():
            # a root's broadcast is decidable unless a child's slot is
            # boxed; it drains ``out`` when every child is in step and
            # no Want hold freezes it, and is silent otherwise — a
            # root's car after its convergecast is the pending one
            # (quiet), a fresh emission or a taken child car
            if hold is True:
                bc_gate = np.ones(m, bool)
                bc_runs = np.zeros(m, bool)
            else:
                bc_gate = ~any_box
                bc_runs = bc_gate & ~any_mism
                if hold is not False:
                    bc_gate = bc_gate | hold
                    bc_runs &= ~hold
            rtriv = root & bc_gate & conv_ok
            drain = rtriv & bc_runs & ((oc == CV_QUIET) | (oc == CV_EMIT)
                                       | (oc == CV_TAKE))
            if drain.any():
                drains, rejected = self._plan_roots(
                    np.flatnonzero(drain), ia, cv, bseq)
                rtriv[rejected] = False
            triv |= rtriv
        ovf = store.overflow[comp.h_wd]
        if ovf:
            # the nat writer pops a row's boxed entry; keep those scalar
            for node_i in ovf:
                r = row_of[node_i]
                if r >= 0:
                    triv[r] = False

        h_wd = comp.h_wd
        dc = store.dirty_cols
        exec_adopt = self._exec_adopt
        exec_drain = self._exec_drain
        exec_conv = self._exec_conv

        def apply(rows):
            sel = rows[~idle[rows]]
            if len(sel):
                vd[h_wd][ia[sel]] = wd_new[sel]
                dc[h_wd] = 1
            if cv is not None:
                # scalar order inside the step: the convergecast's
                # writes land after the watchdog bump ...
                exec_conv(np, rows, cv)
            if pending or drains:
                kept = set(rows.tolist())
                # ... and before the broadcast's drain or adopt (whose
                # accounting may reset the freshly bumped watchdog)
                for k, ent in drains.items():
                    if k in kept:
                        exec_drain(ent)
                for k, ent in pending.items():
                    if k in kept:
                        exec_adopt(ent)

        return triv, bc_done, apply, pending

    def _conv_outcomes(self, np, ia, live, root, pj, cyc, oc, traffic):
        """Evaluate ``_step_convergecast`` past its activation check
        for the ``live`` rows (deliveries and part roots), writing each
        row's outcome into ``oc`` (``CV_*``; rows left at
        ``CV_REPLAY`` replay the scalar body) and returning the
        :class:`_ConvPlan` :meth:`_exec_conv` applies.

        The outcome table, in the scalar body's order:

        * a pending car: a part root's waits for its drain
          (``CV_QUIET``); a non-root's is cleared when the parent's
          ``tak`` acks it (``ack``, then the row continues below) and
          otherwise waits for the ack (``CV_QUIET``);
        * no car and an own piece left: ``CV_EMIT``;
        * the child scan from ``src``: point ``act`` at each child in
          turn, skipping (advancing ``src`` past) finished ones; stop
          at the first child whose car is not yet taken (``CV_TAKE``)
          or that is unfinished (``CV_WAIT``), or run out of children
          (``CV_EXH``: post ``done``, or wrap a root's cycle).

        Boxed reads, junk cars, sequence numbers or acks whose ``==``
        the masks do not model, and unhashable own pieces stay
        ``CV_REPLAY``.  Without ``traffic`` the outcomes that read the
        children's registers or the parent's ack — acks, ack waits,
        and every child visit — stay ``CV_REPLAY`` too.  The work runs
        over the live rows only, compressed, with one sync per
        attribute cache: the per-call cost is what small
        conflict-free segments pay."""
        comp = self.comp
        vd, vs = self.vd, self.vs
        cars, taks = self.car_cache, self.tak_cache
        cv = _ConvPlan()
        cv.L = L = np.flatnonzero(live)
        cv.iL = iL = ia[L]
        cv.rootL = rootL = root[L]
        cv.cycL = cycL = cyc[L]
        cv.out_v = out_v = vd[comp.h_out][iL]
        src_v = vd[comp.h_src][iL]
        cv.src = src = np.where((src_v >= 0) & (src_v <= 4096), src_v, 0)
        ci = src - self.n_own[iL]
        nch = self.nch[iL]
        o_none = out_v == NONE_S
        if traffic:
            # every row that may reach the child scan (no car, or one
            # an ack may clear) gets its scan edges gathered up front,
            # so that each attribute cache syncs once
            S = np.flatnonzero((o_none | ((out_v >= 0) & ~rootL))
                               & (ci >= 0) & (ci < nch))
            cnt = nch[S] - ci[S]
            e_row, e_pos = csr_span(self.coff[iL[S]] + ci[S], cnt)
            cj = self.cflat[e_pos]
            co = vs[comp.h_out][cj]
            pt = vs[comp.h_tak][pj[L]]
            tak_v = vd[comp.h_tak][iL[S]]
            cars.sync(out_v, co)
            taks.sync(pt, tak_v)
        else:
            cars.sync(out_v)
        ck, = cars.take(out_v, CAR_BAD)
        o_car = ck != CAR_BAD
        cv.kind = kind = np.where(o_car & rootL, CV_QUIET, CV_REPLAY)
        eff = o_none
        cv.ack = None
        if traffic:
            # a pending car is acked iff the parent's tak is (me, seq)
            pwho, pkey = taks.take(pt, IDX_NOT, KEY_ODD)
            named = pwho == iL
            sure = (o_car & ~rootL & (pt != BOX_S) & (pwho != IDX_ODD)
                    & ~(named & ((pkey == KEY_ODD) | (ck == KEY_ODD))))
            cv.ack = ack = sure & named & (pkey == ck)
            kind[sure & ~ack] = CV_QUIET
            eff = eff | ack
        emit = eff & (ci < 0)
        if emit.any():
            # an unhashable own piece could not intern: scalar
            emit &= self.ohash[np.where(emit, self.ooff[iL] + src, 0)]
        kind[emit] = CV_EMIT
        exh = eff & (ci >= nch)
        kind[exh] = CV_EXH
        # src after the step: emissions, advances, root wraps (-1: kept)
        cv.nsrc = nsrc = np.where(emit, src + 1,
                                  np.where(exh & rootL, 0, -1))
        cv.stop = cv.car = cv.vis_k = cv.vis_c = None
        if traffic and len(S):
            # the scan, one edge per (row, child at or after src): a
            # row stops at its first edge that takes, waits, or reads
            # something the masks cannot decide
            cck, = cars.take(co, CAR_BAD)
            twho, tkey = taks.take(tak_v, IDX_NOT, KEY_ODD)
            t_odd = ((tak_v == BOX_S) | (twho == IDX_ODD))[e_row]
            tk = tkey[e_row]
            named = twho[e_row] == cj
            cvalid = cck != CAR_BAD
            take = cvalid & ~(named & (tk == cck))
            cd = vs[comp.h_done][cj]
            junk = (co == BOX_S) | (cd == BOX_S) | (cvalid & (
                t_odd | (named & ((tk == KEY_ODD) | (cck == KEY_ODD)))))
            stop = junk | take | (cd <= SENT_CEIL) | (cd != cycL[S][e_row])
            n_e = len(cj)
            es = np.cumsum(cnt) - cnt
            first = np.minimum.reduceat(
                np.where(stop, np.arange(n_e), n_e), es)
            stopped = first < n_e
            f = np.where(stopped, first, 0)
            ok = eff[S]     # ack waits and junk cars keep their outcome
            kind[S] = np.where(ok, np.where(
                stopped, np.where(junk[f], CV_REPLAY, np.where(
                    take[f], CV_TAKE, CV_WAIT)), CV_EXH), kind[S])
            adv = np.where(stopped, first, es + cnt) - es
            nsrc[S] = np.where(ok & (adv > 0), src[S] + adv, -1)
            nsrc[S[(kind[S] == CV_EXH) & rootL[S]]] = 0
            cv.stop = np.full(len(L), -1, np.int64)
            cv.stop[S] = cj[f]
            cv.car = np.full(len(L), -1, np.int64)
            cv.car[S] = co[f]
            # every activation car the scan writes (the advanced
            # children and the stop child): the final one lands in
            # ``act``, and all of them intern, as the scalar loop's do
            vis = np.arange(n_e) <= first[e_row]
            cv.vis_k = S[e_row[vis]]
            cv.vis_c = cj[vis]
        # batch row -> index into L, for the rows that write
        w = np.flatnonzero(kind > CV_QUIET)
        cv.wpos = np.full(len(ia), -1, np.int64)
        cv.wpos[L[w]] = w
        sq_v = vd[comp.h_seq][iL]
        cv.seq_new = (np.where((sq_v >= 0) & (sq_v <= SEQ_MOD), sq_v, 0)
                      + 1) % SEQ_MOD
        oc[L] = kind
        return cv

    def _act_ids(self, np, cj, cyc):
        """Pool ids of the activation cars ``(node of cj, cyc)``,
        interning those not yet pooled.  ``act_pid`` caches id + 1 per
        (child row, cycle): the pool is append-only, so an id, once
        known, is what ``intern`` returns for that value forever."""
        key = cj * (SEQ_MOD + 1) + cyc
        ids = self.act_pid[key].astype(np.int64) - 1
        miss = np.flatnonzero(ids < 0)
        if len(miss):
            nodes, intern, apid = self.store.nodes, self.store.intern, \
                self.act_pid
            for t in miss.tolist():
                k = int(key[t])
                p = int(apid[k]) - 1
                if p < 0:
                    p = intern((nodes[int(cj[t])], int(cyc[t])))
                    if p < _ACT_PID_CAP:
                        apid[k] = p + 1
                ids[t] = p
        return ids

    def _put(self, h, rows_i, vals) -> None:
        """Slice-store plain ints (nats or pool ids) into column ``h``
        at the rows ``rows_i``: the writers' overflow pop and dirty
        mark, minus the per-row calls."""
        store = self.store
        ovf = store.overflow[h]
        if ovf:
            for i in rows_i.tolist():
                ovf.pop(i, None)
        self.vd[h][rows_i] = vals
        store.dirty_cols[h] = 1

    def _exec_conv(self, np, rows, cv) -> None:
        """Apply the planned convergecast writes of the kept row
        positions ``rows``: the final value of every register the
        scalar body writes, each written column marked dirty, and every
        value it interns interned."""
        k = cv.wpos[rows]
        k = k[k >= 0]
        if not len(k):
            return
        kind = cv.kind
        comp = self.comp
        store = self.store
        put = self._put
        iL = cv.iL
        kk = kind[k]
        if cv.ack is not None:
            a = k[cv.ack[k]]
            if len(a):
                put(comp.h_out, iL[a], NONE_S)
        w = k[cv.nsrc[k] >= 0]
        if len(w):
            put(comp.h_src, iL[w], cv.nsrc[w])
        take = kk == CV_TAKE
        c = k[(kk == CV_EMIT) | take]
        if len(c):
            # the new car: the next own piece or the child's piece
            intern = store.intern
            pool = store.pool_values
            oflat = self.oflat
            i_c = iL[c]
            sq = cv.seq_new[c]
            emit = (kind[c] == CV_EMIT).tolist()
            opos = (self.ooff[i_c] + cv.src[c]).tolist()
            tcar = cv.car[c].tolist() if cv.car is not None else None
            put(comp.h_out, i_c, [
                intern((s, oflat[opos[j]] if emit[j]
                        else pool[tcar[j]][1]))
                for j, s in enumerate(sq.tolist())])
            put(comp.h_seq, i_c, sq)
            t = k[take]
            if len(t):
                nodes = store.nodes
                put(comp.h_tak, iL[t], [
                    intern((nodes[ch], pool[v][0])) for ch, v in zip(
                        cv.stop[t].tolist(), cv.car[t].tolist())])
        if cv.vis_k is not None:
            kl = np.zeros(len(kind), bool)
            kl[k] = True
            vk = kl[cv.vis_k]
            if vk.any():
                self._act_ids(np, cv.vis_c[vk], cv.cycL[cv.vis_k[vk]])
        tw = k[take | (kk == CV_WAIT)]
        x = k[kk == CV_EXH]
        if len(tw):
            put(comp.h_act, iL[tw],
                self._act_ids(np, cv.stop[tw], cv.cycL[tw]))
        if len(x):
            put(comp.h_act, iL[x], NONE_S)
            r = cv.rootL[x]
            d = x[~r]
            if len(d):
                put(comp.h_done, iL[d], cv.cycL[d])
            c = x[r]
            if len(c):
                put(comp.h_cyc, iL[c], (cv.cycL[c] + 1) % SEQ_MOD)

    def _plan_adopts(self, rows, ia, pb, psr):
        """Vet the adopt-candidate rows for the exact-write fast path.

        A row qualifies only when the full adopt — membership flag,
        root-consistency checks, boundary comparison, and the interning
        of the new slot values — is provably alarm-free and touches no
        value whose comparison or hash the masks cannot trust (boxed
        overflow, junk tuples, unhashable weights); everything else is
        left for the scalar replay.  Returns ``{row: plan}`` for
        :meth:`_exec_adopt`."""
        store = self.store
        pool = store.pool_values
        memos = store.decode_memo
        memo_for = store.memo_for
        h_bbuf = self.comp.h_bbuf
        vet, plan = self._vet_slot, self._slot_plan
        # the static half of the vetting — decode, membership flag,
        # root-consistency, hashability — is a pure function of the
        # row's stable labels and the slot's pool id, so it memoizes
        # on (row, id) until the stable epoch moves (rebuild clears);
        # only the boundary compare and sequence math are per call
        amemo = self._adopt_memo
        pending = {}
        for k in rows.tolist():
            i = int(ia[k])
            v = int(pb[k])
            mkey = (i, v)
            ent = amemo.get(mkey, NO_DECODE)
            if ent is NO_DECODE:
                memo = memos[h_bbuf]
                try:
                    pobs = memo[v]
                except (TypeError, IndexError):
                    pobs = NO_DECODE
                if pobs is NO_DECODE:
                    pobs = decode_observation(pool[v])
                    memo_for(h_bbuf, v)[v] = pobs
                ent = amemo[mkey] = vet(i, pobs.piece, pobs.flag)
            if ent is None:
                continue
            ent = plan(i, ent, ((int(psr[k]) - 1) % SEQ_MOD + 1) % SEQ_MOD)
            if ent is not None:
                pending[k] = ent
        return pending

    def _plan_roots(self, rows, ia, cv, bseq):
        """Vet the part-root drains: the broadcast consuming the car the
        root's convergecast leaves in ``out`` — the pending one, a fresh
        emission or a taken child car (all decodable, by
        :meth:`_conv_outcomes`) — into the root's own slot must pass
        the adopt vetting, with the root's membership flag computed
        against no parent.  Returns ``({row: plan}, rejected rows)``;
        plans are for :meth:`_exec_drain`."""
        pool = self.store.pool_values
        oflat, ooff = self.oflat, self.ooff
        vet, plan = self._vet_slot, self._slot_plan
        # memoized like the adopts, by (row, piece): a root drains the
        # few pieces of its part over and over, each in many cars
        rmemo = self._root_memo
        drains = {}
        rejected = []
        for k, j in zip(rows.tolist(), cv.L.searchsorted(rows).tolist()):
            i = int(ia[k])
            o = cv.kind[j]
            if o == CV_EMIT:
                piece = oflat[int(ooff[i]) + int(cv.src[j])]
            else:
                v = cv.out_v[j] if o == CV_QUIET else cv.car[j]
                piece = pool[int(v)][1]
            # the memo keeps only the flag: ==-equal pieces (a weight 3
            # and a weight 3.0) vet alike, but the slot and rotation key
            # must be built from this very piece
            flag = rmemo.get((i, piece), NO_DECODE)
            if flag is NO_DECODE:
                ent = vet(i, piece, False)
                flag = rmemo[(i, piece)] = None if ent is None else ent[1]
            ent = None if flag is None else plan(
                i, (piece, flag, piece[1], piece[0]),
                (int(bseq[k]) + 1) % SEQ_MOD)
            if ent is None:
                rejected.append(k)
            else:
                drains[k] = ent
        return drains, rejected

    def _vet_slot(self, i, piece, parent_flag):
        """The static half of a slot write's vetting: ``(piece, flag,
        level, root)`` when accounting ``piece`` at row ``i`` provably
        raises no root-consistency alarm and the new slot interns
        cleanly, else None (the scalar body owns the row)."""
        store = self.store
        ctx = self.ctxs[i]
        level, root = piece[1], piece[0]
        flag = self.comp.membership_flag(ctx, piece, parent_flag)
        h_roots = self.comp.h_roots
        rv = store.data[h_roots][i]
        roots = store.pool_values[rv] if rv > SENT_CEIL else (
            store.overflow[h_roots][i] if rv == BOX_S else None)
        if flag and isinstance(roots, str) and level < len(roots):
            rc = roots[level]
            if (rc == "1" and root != ctx.node) or \
                    (rc == "0" and root == ctx.node):
                return None         # would alarm
        try:
            hash(piece)
        except Exception:
            return None
        return (piece, flag, level, root)

    def _slot_plan(self, i, vetted, nbseq):
        """The write plan of a vetted slot at row ``i`` (see
        :meth:`_exec_adopt`), or None when the rotation-boundary
        compare would touch junk: a boxed or non-key ``last``."""
        level, root = vetted[2], vetted[3]
        lv = self.store.data[self.comp.h_last][i]
        if lv == BOX_S:
            return None
        last = self.store.pool_values[lv] if lv > SENT_CEIL else None
        if last is None:
            boundary = False
        elif type(last) is tuple and len(last) == 2 and \
                type(last[0]) is int and type(last[1]) is int:
            boundary = (level, root) <= last
        else:
            return None
        return (i, vetted, boundary, nbseq, self.ccs[i], self.needs[i])

    def _exec_drain(self, ent):
        """Apply one planned part-root drain: the broadcast consumes
        the car, then writes and accounts the new slot exactly as an
        adopt does."""
        i = ent[0]
        store = self.store
        h_out = self.comp.h_out
        ovf = store.overflow[h_out]
        if ovf:
            ovf.pop(i, None)
        store.data[h_out][i] = NONE_S
        store.dirty_cols[h_out] = 1
        self._exec_adopt(ent)

    def _exec_adopt(self, ent):
        """Apply one planned adopt: the exact write sequence of the
        scalar broadcast's adopt branch plus ``account`` (alarm-free by
        :meth:`_plan_adopts`), via the store's own writers."""
        i, vetted, boundary, nbseq, cc, nd = ent
        piece, flag, level, root = vetted
        comp = self.comp
        store = self.store
        data = store.data
        h_bbuf, h_last, h_sync = comp.h_bbuf, comp.h_last, comp.h_sync
        overflow = store.overflow
        dc = store.dirty_cols
        ovf = overflow[h_bbuf]
        if ovf:
            ovf.pop(i, None)
        data[h_bbuf][i] = store.intern((piece, flag))
        dc[h_bbuf] = 1
        self.w_bseq(i, nbseq)
        if boundary:
            good = True
            sync_col = data[h_sync]
            v = sync_col[i]
            if v is not UNSET and v:
                v = data[comp.h_seen][i]
                seen = v if 0 <= v <= _NAT_CAP else 0
                if nd & ~seen:
                    good = False
                v = data[comp.h_cnt][i]
                cnt = v if 0 <= v <= (1 << 20) else 0
                if cc is not None and cnt != cc:
                    good = False
            sync_col[i] = True
            dec = store.decoded[h_sync]
            if dec is not None:
                dec[i] = NO_DECODE
            dc[h_sync] = 1
            self.w_seen(i, (1 << level) if flag else 0)
            self.w_cnt(i, 1)
            if good:
                self.w_wd(i, 0)
        else:
            if flag:
                v = data[comp.h_seen][i]
                seen = v if 0 <= v <= _NAT_CAP else 0
                self.w_seen(i, seen | (1 << level))
            v = data[comp.h_cnt][i]
            cnt = v if 0 <= v <= (1 << 20) else 0
            self.w_cnt(i, cnt + 1)
        ovf = overflow[h_last]
        if ovf:
            ovf.pop(i, None)
        data[h_last][i] = store.intern((level, root))
        dc[h_last] = 1


class _ConvPlan:
    """One classification's planned convergecast (built by
    :meth:`_VectorTrainKernel._conv_outcomes`, applied by
    :meth:`_VectorTrainKernel._exec_conv`).  ``L`` holds the live
    rows' batch positions and ``wpos`` each batch row's index into
    ``L`` if its step writes (-1 otherwise); every other array is over
    ``L``: ``iL`` (dense rows), ``rootL``, ``cycL``, ``kind``
    (outcomes), ``out_v`` (own car ids), ``src`` (clamped source
    pointers), ``ack`` (the pending car is cleared first; None when
    acks were not evaluated), ``nsrc`` (``src`` after the step, -1
    where untouched), ``seq_new`` (the next car number), ``stop`` and
    ``car`` (the child row the scan stopped at and its car id, -1 if
    none); ``vis_k``/``vis_c`` list every visited scan edge as (live
    row, child row).  The scan fields are None when no row scanned."""

    __slots__ = ("L", "wpos", "iL", "rootL", "cycL", "kind", "out_v", "src",
                 "ack", "nsrc", "seq_new", "stop", "car", "vis_k",
                 "vis_c")
