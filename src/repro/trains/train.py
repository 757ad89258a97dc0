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

from dataclasses import dataclass
from functools import partial
from typing import Any, List, Optional, Tuple

from ..labels.registers import (REG_DELIM, REG_JMASK, REG_PARENT_ID,
                                REG_ROOTS)
from ..labels.wellforming import level_is_bottom, sorted_levels
from ..sim.columnar import BOX_S, NONE_S, SENT_CEIL
from ..sim.npcolumnar import (IDX_NOT, IDX_ODD, PLAIN_TYPES, PoolIdCache,
                              VecTopo, csr_span, csr_take, idx_of,
                              numpy_or_none, put_rows, seg_any, view64)
from ..sim.registers import NO_DECODE, UNSET, handle_resolver
from .budgets import Budgets

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

#: levels a planned slot write may account: ``seen | 1 << level`` stays
#: a plain nat (below the store's ``INT_HI`` = 2**61)
_PLAN_LEVELS = 61
#: piece weights whose float64 compares against edge weights are exact
_W_EXACT = VecTopo.W_EXACT

#: per-(row, level) slot codes of ``_VectorTrainKernel.codes``: how
#: accounting a piece of that level at that row sets the membership
#: flag and whether its root-consistency check may alarm (0: not yet
#: derived; see :func:`_slot_code`)
SC_NONE = 1      # flag False, no alarm
SC_TOP = 2       # top train: flag True, no alarm
SC_TOP1 = 3      # top, ``roots[level] == "1"``: alarms unless z is me
SC_TOP0 = 4      # top, ``roots[level] == "0"``: alarms if z is me
SC_OWN = 5       # bottom, "1": flag iff z is me
SC_INHERIT = 6   # bottom, "0": the parent's flag; alarms if z is me too
SC_ODD = 7       # ``roots`` is a str subclass: replay


def _slot_verdict(code: int, zeq: bool, pflag: bool) -> int:
    """The flag (0/1) of accounting a piece at a row of slot code
    ``code`` — ``zeq``: the piece's root is the row's node, ``pflag``:
    the parent's flag — or 2 when the scalar body would alarm (or the
    code cannot tell): :meth:`TrainComponent.membership_flag` and the
    root checks of :meth:`TrainComponent._account_piece`, tabulated."""
    if code == SC_NONE:
        return 0
    if code == SC_TOP:
        return 1
    if code == SC_TOP1:
        return 1 if zeq else 2
    if code == SC_TOP0:
        return 2 if zeq else 1
    if code == SC_OWN:
        return 1 if zeq else 0
    if code == SC_INHERIT:
        return (2 if zeq else 1) if pflag else 0
    return 2


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


def _is_boundary(key: Tuple, last: Any) -> bool:
    """Whether accounting the piece of rotation key ``key`` closes a
    rotation: ``key <= last``.  A ``last`` that is no tuple, or whose
    comparison with the key raises (``(level, "x")``: an int root
    against a str), marks no boundary."""
    if not isinstance(last, tuple):
        return False
    try:
        return key <= tuple(last)
    except TypeError:
        return False


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

    def init_node(self, ctx) -> None:
        for handle, default in self._init_pairs:
            ctx.set(handle, default)

    # -- topology inside the part ----------------------------------------
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

    def slot_code(self, ctx, level: int) -> int:
        """The ``SC_*`` code of accounting a piece of ``level`` at this
        node: :meth:`membership_flag` and the root checks of
        :meth:`_account_piece` with the piece's root and the parent's
        flag left open (see :func:`_slot_verdict`)."""
        roots = ctx.get(self.h_roots)
        if type(roots) is not str:
            # a str subclass may index and compare unlike a str
            return SC_ODD if isinstance(roots, str) else SC_NONE
        if level >= len(roots):
            return SC_NONE
        cls = level_is_bottom(ctx.nat(self.h_jmask) or 0,
                              ctx.nat(self.h_delim) or 0, level)
        if cls is None or cls != (self.kind == "bottom"):
            return SC_NONE
        rc = roots[level]
        if self.kind == "top":
            return SC_TOP1 if rc == "1" else SC_TOP0 if rc == "0" \
                else SC_TOP
        return SC_OWN if rc == "1" else SC_INHERIT if rc == "0" \
            else SC_NONE

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
        else:
            parent = self.part_parent(ctx)
            children = self.part_children(ctx)
            own = self.own_pieces(ctx)
            count_claim = ctx.nat(self.h_count, cap=4096)
            needed = None

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
            alarms.extend(self._step_broadcast(ctx, parent, children,
                                               count_claim, needed))
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
    def _step_broadcast(self, ctx, parent, children, count_claim,
                        needed) -> List[str]:
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
        alarms.extend(
            self._account_piece(ctx, piece, flag, count_claim, needed))
        return alarms

    # -- rotation accounting (cycle-set checks of Section 8) ---------------
    def _account_piece(self, ctx, piece, flag, count_claim,
                       needed) -> List[str]:
        """Account one broadcast piece; ``needed`` is this node's needed
        mask, or None to derive it here (no label cache)."""
        alarms: List[str] = []
        key = piece_key(piece)
        last = ctx.get(self.h_last)
        boundary = _is_boundary(key, last)

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
                if needed is None:
                    needed = self.needed_mask(ctx)
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

    def make_vector_kernel(self, ops, topo):
        """The whole-column classifier behind the numpy-tier vector
        sweep (:func:`repro.verification.verifier.fused_verifier_sweep`
        on a :class:`~repro.sim.npcolumnar.NumpyColumnStore`).

        The step of most nodes on most activations is *trivial*:
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
        final register values are vetted and computed at classify time
        and written as masked slice-stores after the watchdog write.
        Everything else (new-cycle
        restarts, epoch adoption, boxed or custom-``==`` junk, alarms
        — anything the masks cannot prove) replays the scalar
        :meth:`step`.  Equivalence is therefore by construction: the vector path only ever *skips*
        per-node code whose effect it proved to be exactly the writes
        it applies.

        Returns an object with ``rebuild``/``classify`` (see
        ``_VectorSweep``); call only on a numpy store with numpy
        importable.
        """
        return _VectorTrainKernel(self, ops, topo)


class _VectorTrainKernel:
    """Whole-column trivial-step classifier for one train component.

    ``rebuild`` (per stability epoch) fills the component's label cache
    eagerly with the exact fill code of :meth:`TrainComponent.step`'s
    prologue and freezes the part topology into flat arrays;
    ``classify`` (per sweep) proves, with pure reads only, which batch
    rows' step would be exactly "bump the watchdog and return" or one
    of the planned transitions
    (the convergecast's outcome table is :meth:`_conv_outcomes`).
    The reads of the child traffic — the children's cars and ``done``
    flags, own and parent ``tak`` — go through pool-id attribute caches
    shared with the other train's kernel, and the activation car a
    scan writes resolves to its pool id through ``act_pid``.  An adopt
    or drain reads its piece's serial off the same caches (or, for an
    own piece, off ``oser``) and its verdict off two tables the Python
    fill completes on a miss: the per-(row, level) slot ``codes``
    (cleared by ``rebuild``) and the per-row decoded ``last`` keys;
    the piece's pool ids live in the shared :class:`_PieceTable`.
    New-cycle restarts, rows under epoch adoption, rows whose reads hit boxed
    overflow or custom-``==`` junk, and anything the masks cannot
    decide stay non-trivial and replay the scalar step verbatim.
    """

    __slots__ = ("comp", "store", "snap", "vd", "vs", "act_cache",
                 "obs_cache",
                 "car_cache", "tak_cache", "act_pid", "pieces",
                 "pidx", "idle", "bad", "coff", "cflat", "nch", "n_own",
                 "ooff", "oflat", "oser", "ctxs", "ccs", "needs",
                 "codes", "verdict", "lkey", "ll", "lr")

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
                comp.h_src, comp.h_tak, comp.h_seq, comp.h_seen,
                comp.h_cnt, comp.h_last)
        self.vd = {h: view64(store.data[h]) for h in cols}
        self.vs = {h: view64(ops.snap.data[h]) for h in cols}
        np = numpy_or_none()
        self.verdict = np.array(
            [_slot_verdict(c, z, p) for c in range(SC_ODD + 1)
             for z in (False, True) for p in (False, True)], np.int8)
        pieces = self.pieces = topo.shared(
            "train.pieces", lambda: _PieceTable(store))

        def act_attrs(val):
            # mirrors conv()'s activation-car check: (who is named,
            # which cycle); IDX_ODD routes custom-__eq__ junk scalar
            if isinstance(val, tuple) and len(val) == 2:
                c = _nat(val[1], cap=SEQ_MOD)
                return (idx_of(store, val[0]), -1 if c is None else c)
            return (IDX_NOT, -1)

        def obs_attrs(val):
            # decodable; the piece's serial * 2 + the flag (-1: none)
            obs = decode_observation(val)
            if obs is None:
                return (0, -1)
            s = pieces.serial(obs.piece)
            return (1, -1 if s < 0 else 2 * s + obs.flag)

        def car_attrs(val):
            # a car's sequence key, CAR_BAD when it does not decode; its
            # piece's serial
            car = _decode_car(val)
            if car is None:
                return (CAR_BAD, -1)
            return (_seq_key(car[0]), pieces.serial(car[1]))

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
            "train.obs", lambda: PoolIdCache(store, 2, obs_attrs))
        self.car_cache = shared(
            "train.car", lambda: PoolIdCache(store, 2, car_attrs))
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
        self.oser = None
        self.ctxs = None
        self.ccs = None
        self.needs = None
        self.codes = None
        # the rotation key each row's ``last`` cell holds, by pool id
        # (``lkey``; -1 matches no cell): its level ``ll`` (KEY_ODD
        # when the value is no plain-int key) and root ``lr``
        n = topo.n
        self.lkey = np.full(n, -1, np.int64)
        self.ll = np.zeros(n, np.int64)
        self.lr = np.zeros(n, np.int64)

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
        ccs = np.full(n, -1, np.int64)      # -1: no count claim
        needs = np.zeros(n, np.int64)
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
            oflat.extend(own)
            if count_claim is not None:
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
        serial = self.pieces.serial
        self.oser = np.fromiter((serial(pc) for pc in oflat), np.int64,
                                count=len(oflat))
        self.ctxs = topo.ctxs
        self.ccs, self.needs = ccs, needs
        # the slot codes read stable labels (roots, jmask, delim); a
        # stable-epoch move may change any of them
        self.codes = np.zeros(n * _PLAN_LEVELS, np.int8)
        # activation-car ids + 1 per (child row, cycle), 0 = unknown;
        # dense rows keep their node for the store's lifetime, so this
        # is a pool-id cache like the others
        self.act_pid = topo.shared(
            "train.act_pid",
            lambda: np.zeros(n * (SEQ_MOD + 1), np.int32))

    def classify(self, np, ia, row_of, na, rr, hold, traffic):
        """(trivial-mask, broadcast-done-mask, apply, slot plan) for
        the batch rows ``ia``; the plan (a :class:`_SlotPlan`, or None)
        holds the planned adopts and part-root drains.

        ``na`` and ``rr`` are the per-row node-alarm and root-reset
        budgets (-1 where unknown, which simply fails the watchdog
        bounds), ``hold`` the sweep's hold_broadcast flag.  ``traffic``
        admits the convergecast outcomes that read the children's cars
        and ``done`` flags and the acks (see :meth:`_conv_outcomes`);
        the sweep sets it for batches large enough to amortize its
        cost (``_VectorSweep.TRAFFIC_MIN`` rows).
        ``apply(rows)`` performs the masked writes — the watchdog's,
        then any planned convergecast transitions, then the planned
        adopts' and part-root drains' slot writes — for the row
        *positions* the orchestrator kept: an int64 index array into
        ``ia``, so the cost is O(|rows|).

        The broadcast-done mask marks rows whose *broadcast half* is
        proven silent (writes nothing, raises no alarm) or fully
        planned as an adopt, even though the row as a whole is not
        trivial — the replay loop steps those rows with
        ``hold_broadcast=True``, skipping the child scan and adopt
        logic the scalar body would re-derive, and then writes the
        row's planned adopt (if any, :meth:`exec_row`) so the writes
        land in scalar order.
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

        bseq = adopt = drain = rtriv = obs_sp = pbi = psr = None
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
            obs_ok, obs_sp = self.obs_cache.sync(pb)
            b_pool = (pb >= 0) & (pb < self.obs_cache.filled)
            pbi = np.where(b_pool, pb, 0)
            pobs_valid = b_pool & (obs_ok[pbi] == 1)
            psr = vs[comp.h_bseq][pj]
            advance = ((psr >= 0) & (psr <= SEQ_MOD) & (psr != bseq)
                       & pobs_valid)
            bc_triv = ~any_box & (any_mism
                                  | (~advance & (pb != BOX_S)))
            # the broadcast adopt: every child in step, the parent's
            # slot holds a decodable observation one sequence ahead —
            # the scalar body would adopt it and account the piece
            adopt = (parented & epoch_ok & ~any_box & ~any_mism
                     & advance)
            if hold is not False:    # per-row hold mask (Want mode)
                adopt &= ~hold
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
        # adopts and drains whose slot write is provably alarm-free and
        # free of junk comparisons get their final values planned here
        # and written after the prologue and convergecast (masked
        # writes, or per row behind a replay with the broadcast held);
        # a rejected adopt replays, a rejected drain its whole root step
        sp = None
        if (adopt is not None and adopt.any()) or \
                (drain is not None and drain.any()):
            sp = self._plan_candidates(np, ia, adopt, drain, obs_sp, pbi,
                                       psr, bseq, cv)
            if adopt is not None:
                bc_triv |= sp.apos >= 0
            if drain is not None:
                rtriv &= ~drain | (sp.pos >= 0)
        if hold is not True:
            # proven-handled broadcast for parented rows, regardless of
            # what the prologue or convergecast do (they touch none of
            # the gate's reads before the broadcast would run)
            bc_done = parented & bc_triv
            if hold is not False:
                bc_triv = hold | bc_triv
        triv = parented & epoch_ok & wd_ok & conv_ok & bc_triv
        if rtriv is not None:
            triv |= rtriv
        ovf = store.overflow[comp.h_wd]
        if ovf:
            # the nat writer pops a row's boxed entry; keep those scalar
            for node_i in ovf:
                r = row_of[node_i]
                if r >= 0:
                    triv[r] = False

        # the watchdog's final value: bumped (idle rows skip it), then
        # reset by a good rotation boundary
        wd_fin, wd_w = wd_new, ~idle
        if sp is not None and sp.reset.any():
            r = sp.k[sp.reset]
            wd_fin = wd_new.copy()
            wd_fin[r] = 0
            wd_w[r] = True
        h_wd = comp.h_wd
        dc = store.dirty_cols
        exec_conv = self._exec_conv
        exec_slots = self._exec_slots

        def apply(rows):
            sel = rows[wd_w[rows]]
            if len(sel):
                vd[h_wd][ia[sel]] = wd_fin[sel]
                dc[h_wd] = 1
            if cv is not None:
                # scalar order inside the step: the convergecast's
                # writes land before the broadcast's drain clears ``out``
                exec_conv(np, rows, cv)
            if sp is not None:
                j = sp.pos[rows]
                j = j[j >= 0]
                if len(j):
                    exec_slots(np, sp, j)

        return triv, bc_done, apply, sp

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
        the masks do not model, and own pieces without a
        :class:`_PieceTable` serial stay ``CV_REPLAY``.  Without ``traffic`` the outcomes that read the
        children's registers or the parent's ack — acks, ack waits,
        and every child visit — stay ``CV_REPLAY`` too.  The work runs
        over the live rows only, compressed, with one sync per
        attribute cache: the per-call cost is what small
        conflict-free batches pay."""
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
            # only a piece with a serial (exact ints, so hashable) is
            # planned to intern; any other own piece replays
            emit &= self.oser[np.where(emit, self.ooff[iL] + src, 0)] >= 0
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
        put = partial(put_rows, store)
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

    def _plan_candidates(self, np, ia, adopt, drain, obs_sp, pbi, psr,
                         bseq, cv):
        """Gather each candidate's piece serial, parent flag and new
        sequence number for :meth:`_plan_slots`: an adopt's from the
        parent's observation, a part root's drain's from the car its
        convergecast leaves in ``out`` — the pending one, a fresh
        emission or a taken child car (all decodable, by
        :meth:`_conv_outcomes`), with the flag computed against no
        parent."""
        ks, sers, pflags, nbseqs, drains = [], [], [], [], []
        if adopt is not None:
            k = np.flatnonzero(adopt)
            s2 = obs_sp[pbi[k]]
            ks.append(k)
            sers.append(np.where(s2 >= 0, s2 >> 1, -1))
            pflags.append(s2 & 1)
            nbseqs.append(((psr[k] - 1) % SEQ_MOD + 1) % SEQ_MOD)
            drains.append(np.zeros(len(k), bool))
        if drain is not None:
            k = np.flatnonzero(drain)
            j = cv.L.searchsorted(k)
            kind = cv.kind[j]
            car = cv.out_v[j]
            if cv.car is not None:
                car = np.where(kind == CV_TAKE, cv.car[j], car)
            ser = self.car_cache.arrs[1][np.where(car >= 0, car, 0)]
            emit = kind == CV_EMIT
            if emit.any():
                pos = np.where(emit, self.ooff[ia[k]] + cv.src[j], 0)
                ser = np.where(emit, self.oser[pos], ser)
            ks.append(k)
            sers.append(ser)
            pflags.append(np.zeros(len(k), np.int64))
            nbseqs.append((bseq[k] + 1) % SEQ_MOD)
            drains.append(np.ones(len(k), bool))
        cat = np.concatenate
        return self._plan_slots(np, ia, cat(ks), cat(sers), cat(pflags),
                                cat(nbseqs), cat(drains))

    def _plan_slots(self, np, ia, k, ser, pflag, nbseq, drain):
        """Plan the slot writes of the candidate batch positions ``k``
        (``ser``: the piece's serial in :class:`_PieceTable`, -1 when
        it has none; ``pflag``: the parent's flag; ``nbseq``: the new
        sequence number; ``drain``: part-root drains, which also clear
        ``out``) as every register's final value: the new slot, the
        sequence number, the rotation key, and the accounting of
        ``_account_piece`` — ``seen``, ``cnt``, the sync latch and the
        watchdog reset of a good boundary.

        A candidate is planned only when the whole write is provably
        alarm-free and reads nothing whose comparison the arrays
        cannot model: its piece has a serial (exact ints), the row's
        slot code and the piece's root give a no-alarm verdict, ``last``
        is unset, None or a plain-int key, and a boundary row's sync
        latch is a plain bool (or unset).  The slot codes and the
        ``last`` keys are looked up in tables that the Python fill
        completes on a miss.  Returns the :class:`_SlotPlan`."""
        comp = self.comp
        vd = self.vd
        pt = self.pieces
        i = ia[k]
        has = ser >= 0
        s = np.where(has, ser, 0)
        lvl = pt.lv[s]
        cell = i * _PLAN_LEVELS + lvl
        code = self.codes[cell]
        miss = has & (code == 0)
        if miss.any():
            self._fill_codes(np.unique(cell[miss]))
            code = self.codes[cell]
        v = self.verdict[code * 4 + (pt.zi[s] == i) * 2 + pflag]
        flag = v == 1
        # the rotation boundary: (level, root) <= last
        cur = vd[comp.h_last][i]
        pooled = cur > SENT_CEIL
        miss = pooled & (self.lkey[i] != cur)
        if miss.any():
            self._fill_last(i[miss], cur[miss])
        ll = self.ll[i]
        z = pt.z[s]
        ok = has & (v < 2) & (cur != BOX_S) & ~(pooled & (ll == KEY_ODD))
        bnd = pooled & ((lvl < ll) | ((lvl == ll) & (z <= self.lr[i])))
        synced = np.zeros(len(k), bool)
        b = np.flatnonzero(ok & bnd)
        if len(b):
            # a boundary reads the sync latch: only plain bools (and an
            # unset latch) have a truth value the plan may take
            col = self.store.data[comp.h_sync]
            for t, row in zip(b.tolist(), i[b].tolist()):
                x = col[row]
                if x is True:
                    synced[t] = True
                elif not (x is False or x is None or x is UNSET):
                    ok[t] = False
        sv = vd[comp.h_seen][i]
        seen = np.where((sv >= 0) & (sv <= _NAT_CAP), sv, 0)
        cv = vd[comp.h_cnt][i]
        cnt = np.where((cv >= 0) & (cv <= 1 << 20), cv, 0)
        cc = self.ccs[i]
        good = ~synced | (((self.needs[i] & ~seen) == 0)
                          & ((cc < 0) | (cnt == cc)))
        bit = np.left_shift(1, lvl)
        keep = np.flatnonzero(ok)
        sp = _SlotPlan()
        sp.k = k[keep]
        sp.i = i[keep]
        sp.ser = ser[keep]
        sp.flag = flag = flag[keep]
        sp.lvl = lvl[keep]
        sp.z = z[keep]
        sp.nbseq = nbseq[keep]
        sp.bnd = bnd = bnd[keep]
        seen = seen[keep]
        bit = bit[keep]
        sp.seen = np.where(bnd, np.where(flag, bit, 0),
                           np.where(flag, seen | bit, -1))
        sp.cnt = np.where(bnd, 1, cnt[keep] + 1)
        sp.reset = bnd & good[keep]
        sp.drain = drain[keep]
        s = s[keep]
        sp.slot = pt.slot[s, flag.astype(np.int64)] - 1
        sp.key = pt.key[s] - 1
        sp.pos = np.full(len(ia), -1, np.int64)
        sp.pos[sp.k] = np.arange(len(keep))
        sp.apos = sp.pos.copy()
        sp.apos[sp.k[sp.drain]] = -1
        sp._rows = None
        return sp

    def _fill_codes(self, cells) -> None:
        """Derive the slot codes of the (row, level) ``cells``."""
        codes, ctxs, code = self.codes, self.ctxs, self.comp.slot_code
        for c in cells.tolist():
            i, level = divmod(c, _PLAN_LEVELS)
            codes[c] = code(ctxs[i], level)

    def _fill_last(self, rows, ids) -> None:
        """Decode the rotation keys of the ``last`` cells ``ids``."""
        pool = self.store.pool_values
        lkey, ll, lr = self.lkey, self.ll, self.lr
        for i, v in zip(rows.tolist(), ids.tolist()):
            last = pool[v]
            lkey[i] = v
            if type(last) is tuple and len(last) == 2 and \
                    type(last[0]) is int and type(last[1]) is int and \
                    -_KEY_CAP < last[0] < _KEY_CAP and \
                    -_KEY_CAP < last[1] < _KEY_CAP:
                ll[i], lr[i] = last
            else:
                ll[i] = KEY_ODD

    def _pool_ids(self, np, sp, j):
        """The slot and rotation-key pool ids of plan entries ``j``,
        interning those the plan did not find pooled."""
        slot, key = sp.slot[j], sp.key[j]
        miss = np.flatnonzero((slot < 0) | (key < 0))
        if len(miss):
            ids = self.pieces.ids
            for t, s, f in zip(miss.tolist(), sp.ser[j[miss]].tolist(),
                               sp.flag[j[miss]].tolist()):
                slot[t], key[t] = ids(s, f)
        return slot, key

    def _latch_sync(self, rows) -> None:
        """Set the sync latch of ``rows`` (an opaque list column)."""
        store = self.store
        h = self.comp.h_sync
        col = store.data[h]
        dec = store.decoded[h]
        for i in rows:
            col[i] = True
            if dec is not None:
                dec[i] = NO_DECODE
        store.dirty_cols[h] = 1

    def _exec_slots(self, np, sp, j) -> None:
        """Apply plan entries ``j`` as masked column writes — every
        register's final value but the watchdog's, which ``apply``
        folds into its own write."""
        comp = self.comp
        put = partial(put_rows, self.store)
        i = sp.i[j]
        slot, key = self._pool_ids(np, sp, j)
        put(comp.h_bbuf, i, slot)
        put(comp.h_bseq, i, sp.nbseq[j])
        bnd = sp.bnd[j]
        if bnd.any():
            self._latch_sync(i[bnd].tolist())
        seen = sp.seen[j]
        w = seen >= 0
        if w.any():
            put(comp.h_seen, i[w], seen[w])
        put(comp.h_cnt, i, sp.cnt[j])
        put(comp.h_last, i, key)
        self.lkey[i] = key
        self.ll[i] = sp.lvl[j]
        self.lr[i] = sp.z[j]
        d = sp.drain[j]
        if d.any():
            put(comp.h_out, i[d], NONE_S)

    def exec_row(self, sp, j) -> None:
        """Apply plan entry ``j`` of a row the sweep replays, right
        after its scalar body ran with the broadcast held: the final
        values of :meth:`_exec_slots`, one cell at a time, and the
        watchdog reset of a good boundary over whatever the prologue
        wrote."""
        (i, ser, flag, lvl, z, nbseq, bnd, seen, cnt, reset, slot,
         key) = sp.row(j)
        if slot < 0 or key < 0:
            slot, key = self.pieces.ids(ser, flag)
        comp = self.comp
        store = self.store
        data, overflow, dc = store.data, store.overflow, store.dirty_cols
        cells = [(comp.h_bbuf, slot), (comp.h_bseq, nbseq),
                 (comp.h_cnt, cnt), (comp.h_last, key)]
        if seen >= 0:
            cells.append((comp.h_seen, seen))
        if reset:
            cells.append((comp.h_wd, 0))
        for h, val in cells:
            ovf = overflow[h]
            if ovf:
                ovf.pop(i, None)
            data[h][i] = val
            dc[h] = 1
        if bnd:
            self._latch_sync((i,))
        self.lkey[i] = key
        self.ll[i] = lvl
        self.lr[i] = z


class _PieceTable:
    """The pieces a planned slot write may carry, by serial number:
    ``(root, level, weight)`` triples of exact ``int`` fields (the
    weight may also be None, as the spanning tree's own top piece has
    it) with a level below ``_PLAN_LEVELS`` and a root inside the key
    range.  Exact types make ``==``-equal pieces equal in shape too, so
    they share a serial and every pool id; a bool or float twin, or any
    other type, gets no serial (-1) and its row replays.  Per serial:
    the level ``lv``, the root ``z`` and the dense row it names ``zi``
    (:func:`idx_of`), the weight ``wt`` as a float64 (NaN for None or
    an int too large to compare exactly), and the pool ids + 1 (0: not
    pooled yet) of the slots ``(piece, False)``/``(piece, True)``, of
    the rotation key ``(level, root)`` and of the piece itself (an
    acquired ``Ask``), filled when a write interns them — the pool is
    append-only, so a known id is what ``intern`` returns forever.
    Shared by both trains' kernels and the comparison's."""

    __slots__ = ("store", "index", "pieces", "lv", "zi", "z", "wt",
                 "slot", "key", "own")

    def __init__(self, store) -> None:
        np = numpy_or_none()
        self.store = store
        self.index = {}
        self.pieces = []
        self.lv = np.zeros(64, np.int64)
        self.zi = np.zeros(64, np.int64)
        self.z = np.zeros(64, np.int64)
        self.wt = np.zeros(64, np.float64)
        self.slot = np.zeros((64, 2), np.int64)
        self.key = np.zeros(64, np.int64)
        self.own = np.zeros(64, np.int64)

    def serial(self, piece) -> int:
        if type(piece) is not tuple or len(piece) != 3:
            return -1
        z, level, w = piece
        if type(z) is not int or type(level) is not int or \
                (w is not None and type(w) is not int) or \
                not 0 <= level < _PLAN_LEVELS or \
                not -_KEY_CAP < z < _KEY_CAP:
            return -1
        s = self.index.get(piece)
        if s is None:
            s = self.index[piece] = len(self.pieces)
            self.pieces.append(piece)
            if s == len(self.lv):
                np = numpy_or_none()
                for name in ("lv", "zi", "z", "wt", "slot", "key",
                             "own"):
                    a = getattr(self, name)
                    b = np.zeros((2 * len(a),) + a.shape[1:], a.dtype)
                    b[:len(a)] = a
                    setattr(self, name, b)
            self.lv[s] = level
            self.zi[s] = idx_of(self.store, z)
            self.z[s] = z
            self.wt[s] = float(w) if w is not None and \
                -_W_EXACT < w < _W_EXACT else float("nan")
        return s

    def piece_ids(self, sers):
        """The pool ids of the pieces of serials ``sers`` (an int64
        array), interning those not pooled yet."""
        ids = self.own[sers] - 1
        for t in (ids < 0).nonzero()[0].tolist():
            s = int(sers[t])
            ids[t] = self.store.intern(self.pieces[s])
            self.own[s] = ids[t] + 1
        return ids

    def ids(self, s: int, flag: bool):
        """The pool ids of serial ``s``'s slot ``(piece, flag)`` and
        rotation key, interned on first use."""
        piece = self.pieces[s]
        f = 1 if flag else 0
        p = int(self.slot[s, f]) - 1
        if p < 0:
            p = self.store.intern((piece, bool(flag)))
            self.slot[s, f] = p + 1
        q = int(self.key[s]) - 1
        if q < 0:
            q = self.store.intern((piece[1], piece[0]))
            self.key[s] = q + 1
        return p, q


class _SlotPlan:
    """One classification's planned slot writes (built by
    :meth:`_VectorTrainKernel._plan_slots`, applied by
    :meth:`~_VectorTrainKernel._exec_slots`, or by
    :meth:`~_VectorTrainKernel.exec_row` for a replayed row).  ``pos``
    maps each batch row to its entry (-1: none), ``apos`` likewise for
    adopts only (a replayed part root runs its own drain); every other
    array is over the entries: ``k`` (batch positions), ``i`` (dense
    rows), ``ser`` (piece serials), ``flag``, ``lvl`` and ``z`` (the
    rotation key), ``nbseq``, ``bnd`` (a rotation boundary, which sets
    the sync latch), ``seen`` (-1: untouched), ``cnt``, ``reset`` (the
    watchdog resets), ``drain`` (``out`` is cleared) and
    ``slot``/``key`` (pool ids of the new slot and rotation key, -1
    until interned)."""

    __slots__ = ("pos", "apos", "k", "i", "ser", "flag", "lvl", "z",
                 "nbseq", "bnd", "seen", "cnt", "reset", "drain", "slot",
                 "key", "_rows")

    def row(self, j):
        """Entry ``j`` as plain Python values, for the per-row write."""
        rows = self._rows
        if rows is None:
            rows = self._rows = list(zip(*(a.tolist() for a in (
                self.i, self.ser, self.flag, self.lvl, self.z, self.nbseq,
                self.bnd, self.seen, self.cnt, self.reset, self.slot,
                self.key))))
        return rows[j]


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
