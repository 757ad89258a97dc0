"""Numpy column-tier contract tests (``repro.sim.npcolumnar``).

The tier's promises: ``storage="numpy"`` is a drop-in ColumnStore —
same slot handles, same ``array('q')`` sentinel encoding, same
boxed-overflow junk contract — so every run is bit-for-bit equal to
plain columnar; when numpy is unavailable (``REPRO_NO_NUMPY``, the CI
fallback job's switch) the scheduler degrades to plain columnar with
exactly one ``NumpyFallbackWarning``; and at sizes past the vector
batch floor the masked-ndarray fused sweeps (convergecast-broadcast
bookkeeping, Ask/Show, Want comparison) replace the scalar per-row
replay without changing a single register — for the sync round license
and for the ``want``/``want-simple`` ablations alike, junk included.
"""

import types
import warnings
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graphs.generators import random_connected_graph
from repro.labels.registers import (REG_BOT_ROOT, REG_DELIM, REG_ENDP,
                                    REG_JMASK, REG_PARENT_ID,
                                    REG_PIECES_BOT, REG_PIECES_TOP,
                                    REG_ROOTS, REG_TOP_ROOT)
from repro.labels.strings import ENDP_UP
from repro.labels.wellforming import sorted_levels
from repro.sim import (AsynchronousScheduler, ConflictFreeDaemon,
                       FaultInjector, SynchronousScheduler,
                       TiledConflictFreeDaemon)
from repro.sim.columnar import (BOX_S, NONE_S, SENT_CEIL, UNSET_S,
                                PoolColumn)
from repro.sim.npcolumnar import (NumpyFallbackWarning, PoolIdCache,
                                  _reset_fallback_warning, numpy_or_none)
from repro.trains.train import valid_piece
from repro.verification import make_network
from repro.verification.hybrid import (HybridVerifierProtocol,
                                       run_hybrid_marker)
from repro.verification.verifier import MstVerifierProtocol, _VectorSweep

#: fused share of rows on the honest n=500 patrol of
#: ``test_sync_tier_mix_floor`` (measured 0.943, less a margin)
FUSED_FLOOR = 0.93


def _snapshot(net, sched):
    return (sched.rounds, net.alarms(),
            {v: dict(r) for v, r in net.registers.items()},
            net.max_memory_bits(), net.total_memory_bits())


def _run_sync(graph, storage, seed, mode=None, junk=False, rounds=40):
    net = make_network(graph)
    proto = MstVerifierProtocol(synchronous=True, comparison_mode=mode)
    sched = SynchronousScheduler(net, proto, storage=storage, bulk=True)
    sched.run(12)
    if junk:
        nodes = graph.nodes()
        regs = net.registers
        regs[nodes[0]]["vstep"] = "not-a-counter"
        regs[nodes[1]]["tt_wd"] = 1 << 70
        regs[nodes[2]]["tt_bbuf"] = [1, 2, 3]
        regs[nodes[3]]["tt_last"] = (True, "x")
    else:
        inj = FaultInjector(net, seed=seed)
        inj.corrupt_random_nodes(2, fraction=0.5)
    sched.run(rounds)
    return _snapshot(net, sched)


@pytest.mark.parametrize("mode", ["sync-window", "want", "want-simple"])
@pytest.mark.parametrize("junk", [False, True])
def test_vector_sweeps_equal_scalar_big_n(mode, junk, campaign_seed):
    """Past the vector batch floor the numpy tier runs every protocol
    mode through the masked fused sweeps; plain columnar runs the same
    rounds through the scalar per-row kernels.  Faults or planted junk
    force boxed/mismatch rows through the residual scalar replay.  The
    final registers, alarms, and memory accounting must be identical."""
    if numpy_or_none() is None:
        pytest.skip("numpy unavailable")
    g = random_connected_graph(72, 126, seed=campaign_seed % 991)
    ref = _run_sync(g, "columnar", campaign_seed, mode=mode, junk=junk)
    got = _run_sync(g, "numpy", campaign_seed, mode=mode, junk=junk)
    assert got == ref, (mode, junk)


def test_fallback_warns_once_and_matches_columnar(campaign_seed,
                                                  monkeypatch):
    """With numpy switched off the tier degrades to plain columnar:
    one ``NumpyFallbackWarning`` for the whole process (not one per
    scheduler), and the degraded run is bit-for-bit the columnar run."""
    g = random_connected_graph(16, 26, seed=campaign_seed % 883)
    ref = _run_sync(g, "columnar", campaign_seed)

    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    _reset_fallback_warning()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = _run_sync(g, "numpy", campaign_seed)
            again = _run_sync(g, "numpy", campaign_seed)
        hits = [w for w in caught
                if issubclass(w.category, NumpyFallbackWarning)]
        assert len(hits) == 1, "fallback must warn exactly once"
        assert "columnar" in str(hits[0].message)
        assert got == ref
        assert again == ref
    finally:
        _reset_fallback_warning()


def test_async_conflict_free_numpy_equals_columnar(campaign_seed):
    """The PR 5 conflict-free license on the numpy tier: independent
    daemon batches routed through the vectorized fused sweeps match
    plain columnar exactly, activations and skip accounting included."""
    if numpy_or_none() is None:
        pytest.skip("numpy unavailable")
    g = random_connected_graph(30, 50, seed=campaign_seed % 877)

    def run(storage):
        net = make_network(g)
        proto = MstVerifierProtocol(synchronous=False)
        sched = AsynchronousScheduler(net, proto,
                                      ConflictFreeDaemon(g, seed=9),
                                      storage=storage, bulk=True)
        sched.run(15)
        inj = FaultInjector(net, seed=campaign_seed)
        inj.corrupt_random_nodes(2, fraction=0.5)
        sched.run(30)
        return (sched.rounds, sched.activations, sched.steps_skipped,
                net.alarms(),
                {v: dict(r) for v, r in net.registers.items()})

    assert run("numpy") == run("columnar")


# -- store-level differential: vector sweep vs scalar fused sweep ---------

def _store_state(net):
    """Every column (pool ids resolved to their values), the interning
    pool's contents, the overflow side tables and the dirty-column
    flags.  Pool *order* is left out: the vector sweep applies its
    writes component by component, so new values intern in another
    order than the row-by-row scalar sweep's."""
    s = net.columns
    pool = s.pool_values
    cols = [[("pool", pool[v]) if v > SENT_CEIL else v for v in c]
            if type(c) is PoolColumn else list(c) for c in s.data]
    return (cols, sorted(map(repr, pool)),
            [dict(o) if o else None for o in s.overflow],
            bytes(s.dirty_cols))


def _part_roots(net, reg_root):
    """Nodes whose part parent is absent (the train's part roots)."""
    graph, regs = net.graph, net.registers
    roots = []
    for v in graph.nodes():
        pid = regs[v][REG_PARENT_ID]
        if pid not in graph.neighbors(v) or \
                regs[pid][reg_root] != regs[v][reg_root]:
            roots.append(v)
    return roots


def _plant_root_junk(net):
    """Junk in part-root rows' convergecast and broadcast registers —
    malformed and unhashable cars, out-of-range and boxed counters,
    non-key rotation markers — for both trains."""
    regs = net.registers
    junk = (("out", (5, "not-a-piece")), ("out", (1, (0, 2, [1]))),
            ("src", 5000), ("src", "s"), ("seq", 1 << 70),
            ("bseq", "b"), ("bseq", 99), ("last", (True, "x")),
            ("last", [1]), ("last", (3,)), ("wd", -4), ("cyc", 1 << 70))
    for prefix, reg_root, reg_pieces in (
            ("bt_", REG_BOT_ROOT, REG_PIECES_BOT),
            ("tt_", REG_TOP_ROOT, REG_PIECES_TOP)):
        roots = _part_roots(net, reg_root)
        for v, (suffix, val) in zip(roots[1::3], junk):
            regs[v][prefix + suffix] = val
        # watchdogs one step short of the root reset and of the alarm
        budgets = regs[roots[0]]["_bgt"][1]
        for v, wd in zip(roots[::3], (budgets.root_reset - 1,
                                      budgets.node_alarm)):
            regs[v][prefix + "wd"] = wd
        # a pending car whose piece equals an own piece of the root
        # but carries its weight as a float (it must drain as such)
        for v in roots[2::3]:
            for z, level, w in regs[v][reg_pieces] or ():
                if type(w) is int:
                    regs[v][prefix + "out"] = (7, (z, level, float(w)))
                    break


class _AnyEq:
    """A hashable value equal to everything (custom ``==``): a node id
    or sequence number the vector kernels cannot compare (``IDX_ODD``,
    ``KEY_ODD``), so every row that compares one must replay."""

    def __eq__(self, other):
        return True

    def __ne__(self, other):
        return False

    def __hash__(self):
        return 1 << 40

    def __repr__(self):
        return "_AnyEq()"


class _AnyEqList(list):
    """An unhashable (boxed) value equal to everything."""

    def __eq__(self, other):
        return True

    def __ne__(self, other):
        return False

    def __repr__(self):
        return "_AnyEqList()"


def _turn(v, par, r):
    """It is ``v``'s turn: the parent's activation car names it for
    its own cycle, and its subtree is unfinished."""
    if par is None:
        return []
    return [(par, "act", (v, r[v]["cyc"])), (v, "done", None)]


def _scan(v, par, kids, r, writes):
    """``writes`` plus ``v``'s turn, with ``v`` about to scan its
    children (own pieces skipped, no car pending)."""
    return _turn(v, par, r) + [(v, "src", r[v]["n_own"]),
                               (v, "out", None)] + writes


def _finished(v, par, kids, r):
    """Every child finished for ``v``'s cycle: the next scan advances
    past all of them."""
    return _scan(v, par, kids, r, [(c, "done", r[v]["cyc"]) for c in kids]
                 + [(c, "out", None) for c in kids])


def _pending(v, par, seq, tak, r):
    """``v`` holds a car numbered ``seq`` on its turn; its parent's ack
    is ``tak``."""
    if par is None:
        return []
    return _turn(v, par, r) + [(v, "out", (seq, (v, 0, 3))),
                               (par, "tak", tak)]


#: plantings around one inner part-tree node ``v`` (parent ``par`` or
#: None, children ``kids``, ``r[v]`` its cycle and own-piece count):
#: each returns ``(node, suffix, value)`` writes into the
#: children's cars and ``done`` flags, ``v``'s own and its parent's
#: ``tak``, and the activation cars — bool and float twins,
#: non-integral, string and custom-``==`` sequence numbers and node
#: ids, boxed (unhashable or non-nat) values, and honest-looking states
#: that force advances, takes and acks
TRAFFIC_JUNK = (
    lambda v, par, kids, r: _scan(v, par, kids, r, [
        (kids[0], "out", (True, (v, 0, 3)))]),
    lambda v, par, kids, r: _scan(v, par, kids, r, [
        (kids[0], "out", (1.0, (v, 0, 3))), (v, "tak", (kids[0], 1))]),
    lambda v, par, kids, r: _scan(v, par, kids, r, [
        (kids[0], "out", (2.5, (v, 0, 3))), (v, "tak", (kids[0], 2.5))]),
    lambda v, par, kids, r: _scan(v, par, kids, r, [
        (kids[0], "out", (2.5, (v, 0, 3))), (v, "tak", (kids[0], 2))]),
    lambda v, par, kids, r: _scan(v, par, kids, r, [
        (kids[0], "out", (4, (v, 0, 3))),
        (v, "tak", (kids[0], _AnyEqList()))]),
    lambda v, par, kids, r: _scan(v, par, kids, r, [
        (kids[-1], "out", (_AnyEq(), (v, 1, 4)))]),
    lambda v, par, kids, r: _scan(v, par, kids, r, [
        (kids[0], "out", (_AnyEq(), (v, 1, 4))), (v, "tak", (kids[0], 3))]),
    lambda v, par, kids, r: _scan(v, par, kids, r, [
        (kids[0], "out", ("a", (v, 1, 4))), (v, "tak", (kids[0], "b"))]),
    lambda v, par, kids, r: _scan(v, par, kids, r, [
        (kids[0], "out", [1, 2])]),
    lambda v, par, kids, r: _scan(v, par, kids, r, [
        (kids[0], "out", (3, (v, 0, [1])))]),
    lambda v, par, kids, r: _finished(v, par, kids, r) + [
        (kids[-1], "done", float(r[v]["cyc"] or 0))],
    lambda v, par, kids, r: _finished(v, par, kids, r) + [
        (kids[0], "done", True)],
    lambda v, par, kids, r: _finished(v, par, kids, r),
    lambda v, par, kids, r: _finished(v, par, kids, r) + [
        (kids[-1], "out", (9, (v, 0, 3)))],
    lambda v, par, kids, r: _finished(v, par, kids, r) + [
        (kids[-1], "out", (9, (v, 0, 3))), (v, "tak", (kids[-1], 9))],
    lambda v, par, kids, r: _scan(v, par, kids, r, [
        (v, "tak", (kids[0], True))]),
    lambda v, par, kids, r: _scan(v, par, kids, r, [
        (v, "tak", (float(kids[0]), 1))]),
    lambda v, par, kids, r: _scan(v, par, kids, r, [
        (v, "tak", (_AnyEq(), 1))]),
    lambda v, par, kids, r: _scan(v, par, kids, r, [
        (v, "tak", ([1], 2))]),
    lambda v, par, kids, r: _scan(v, par, kids, r, [(v, "tak", "tak")]),
    lambda v, par, kids, r: _scan(v, par, kids, r, [(v, "tak", _AnyEq())]),
    lambda v, par, kids, r: _pending(v, par, 5, (float(v), 5.0), r),
    lambda v, par, kids, r: _pending(v, par, 5, (v, True), r),
    lambda v, par, kids, r: _pending(v, par, 1, (v, True), r),
    lambda v, par, kids, r: _pending(v, par, 5, (_AnyEq(), 5), r),
    lambda v, par, kids, r: _pending(v, par, 5, [v, 5], r),
    lambda v, par, kids, r: _pending(v, par, 5, (v, _AnyEqList()), r),
    lambda v, par, kids, r: [] if par is None else [
        (par, "act", (float(v), r[v]["cyc"])), (v, "done", None)],
    lambda v, par, kids, r: [] if par is None else [
        (par, "act", (_AnyEq(), r[v]["cyc"])), (v, "done", None)],
    lambda v, par, kids, r: _scan(v, par, kids, r, [
        (v, "act", (_AnyEq(), 0))]),
    lambda v, par, kids, r: _scan(v, par, kids, r, [
        (v, "act", (float(kids[0]), r[v]["cyc"]))]),
)


def _twin(piece):
    """``piece`` with its weight as a float: ``==`` to it, unlike it in
    type (the slot and rotation key must be built from this very
    piece), or None when the weight is no int."""
    if isinstance(piece, tuple) and len(piece) == 3 and \
            type(piece[2]) is int:
        return (piece[0], piece[1], float(piece[2]))
    return None


def _advance(v, par, p, regs, slot):
    """The parent's slot holds ``slot`` one sequence number ahead of
    ``v``'s: ``v`` adopts it on its next step (once its own children
    are in step)."""
    return [(par, p + "bbuf", slot),
            (par, p + "bseq", ((regs[v][p + "bseq"] or 0) + 1) % 64)]


def _slot_level(slot):
    """The level of the piece a broadcast slot holds (0 if none)."""
    if isinstance(slot, tuple) and len(slot) == 2 and \
            valid_piece(slot[0]):
        return slot[0][1]
    return 0


#: plantings on one part-parented node ``v`` (parent ``par``, train
#: prefix ``p``) into the inputs of its next broadcast adopt: its
#: accounting counters, sync latch and rotation key, its ``roots``
#: label, and its parent's slot
ADOPT_JUNK = (
    lambda v, par, p, regs: [(v, p + "seen", 1 << 40)],
    lambda v, par, p, regs: [(v, p + "seen", -3)],
    lambda v, par, p, regs: [(v, p + "seen", True)],
    lambda v, par, p, regs: [(v, p + "cnt", 1 << 21)],
    lambda v, par, p, regs: [(v, p + "cnt", True)],
    lambda v, par, p, regs: [(v, p + "sync", 1)],
    lambda v, par, p, regs: [(v, p + "sync", "yes")],
    lambda v, par, p, regs: [(v, p + "last", (1.5, 2))],
    lambda v, par, p, regs: [(v, p + "last", (3,))],
    lambda v, par, p, regs: [(v, p + "last", (True, 0))],
    lambda v, par, p, regs: [(v, p + "last", [0, 0])],
    # a level int and a str root: incomparable with a key of that level
    lambda v, par, p, regs: [(v, p + "last", (_slot_level(
        regs[par][p + "bbuf"]), "x"))],
    lambda v, par, p, regs: _advance(v, par, p, regs,
                                     regs[par][p + "bbuf"]) + [
        (v, p + "last", (_slot_level(regs[par][p + "bbuf"]), "x"))],
    lambda v, par, p, regs: [(v, REG_ROOTS, "1")],
    lambda v, par, p, regs: _advance(v, par, p, regs,
                                     ((par, 0, [1]), True)),
    lambda v, par, p, regs: _advance(v, par, p, regs, (
        _twin((regs[par][p + "bbuf"] or (None,))[0])
        or (par, 0, 3.0), True)),
)

def _hold(v, s):
    """``v`` holds a valid Ask (its own top piece when it holds none)."""
    return [] if valid_piece(s["regs"][v]["cmp_ask"]) else [
        (v, "cmp_ask", s["piece"])]


def _to_advance(v, s, wrap=False):
    """``v`` advances on its next step: its hold-down counter expires
    (sync window) and every neighbour is served (Want); with ``wrap``
    the level index is the rotation's last."""
    writes = _hold(v, s) + [(v, "cmp_wait", 1), (v, "cmp_nbr", s["deg"])]
    if wrap:
        writes.append((v, "cmp_idx", len(s["levels"]) - 1))
    return writes


def _to_acquire(v, s, level, slot):
    """``v`` holds no Ask, targets ``level`` (when it has it) and shows
    ``slot`` in its top train for one round: a part-parented ``v``
    adopts nothing (its parent's sequence number equals its own), a
    part root drains the slot's piece from its car if its children are
    in step."""
    levels = s["levels"]
    pin = [(s["parent"], "tt_bseq", s["regs"][v]["tt_bseq"])] \
        if s["parent"] is not None else \
        [(v, "tt_out", (7, slot[0]))] if type(slot) is tuple else []
    return [(v, "cmp_ask", None),
            (v, "cmp_idx", levels.index(level) if level in levels else 0),
            (v, "tt_bbuf", slot)] + pin


def _shown(v, s, make):
    """:func:`_to_acquire` at the level of ``v``'s top piece, showing
    ``make(root, level, weight)``."""
    z, level, w = s["piece"]
    return _to_acquire(v, s, level, make(z, level, w))


#: plantings on one node ``v`` about to wait for, acquire or advance
#: from a level of its Ask rotation (``s``: see :func:`_acquire_state`):
#: invalid and boxed Asks, junk level indices, junk in the registers an
#: advance rewrites and in the rotation counter, twins of the target
#: level's piece in the own slot (bool or float level, unflagged, boxed,
#: float weight), a shown piece its resetting train clears, and a piece
#: whose weight is not the candidate edge's (C1 alarms: the last recipe)
ACQUIRE_JUNK = (
    lambda v, s: [(v, "cmp_ask", (1, 2))],
    lambda v, s: [(v, "cmp_ask", [v, 0, 1])],
    lambda v, s: [(v, "cmp_ask", None), (v, "cmp_idx", -1)],
    lambda v, s: [(v, "cmp_ask", None), (v, "cmp_idx", True)],
    lambda v, s: [(v, "cmp_ask", None), (v, "cmp_idx", 1 << 40)],
    lambda v, s: _to_advance(v, s) + [(v, "cmp_wait", True)],
    lambda v, s: _to_advance(v, s) + [(v, "cmp_want", [v])],
    lambda v, s: _to_advance(v, s) + [(v, "cmp_want", (v, "x"))],
    lambda v, s: _to_advance(v, s) + [(v, "cmp_nbr", "n")],
    lambda v, s: _to_advance(v, s) + [(v, "cmp_svc", True)],
    lambda v, s: _to_advance(v, s, wrap=True) + [(v, "_rot", True)],
    lambda v, s: _to_advance(v, s, wrap=True) + [(v, "_rot", None)],
    lambda v, s: _to_advance(v, s, wrap=True) + [(v, "_rot", -1)],
    lambda v, s: _to_acquire(v, s, 1, ((v, True, 3), True)),
    lambda v, s: _shown(v, s, lambda z, lv, w: ((z, float(lv), w), True)),
    lambda v, s: _shown(v, s, lambda z, lv, w: ((z, lv, w), False)),
    lambda v, s: _shown(v, s, lambda z, lv, w: [(z, lv, w), True]),
    lambda v, s: _shown(v, s, lambda z, lv, w: ((z, lv, [w]), True)),
    # the target piece shown while the train resets to its parent's
    # epoch (the reset clears the slot before the comparison reads it)
    lambda v, s: _shown(v, s, lambda z, lv, w: ((z, lv, w), True)) + [
        (v, "tt_ep", 63)],
    lambda v, s: _shown(v, s, lambda z, lv, w: (
        (z, lv, float(w) if type(w) is int else 0.5), True)),
    lambda v, s: _to_acquire(v, s, s["c1"][0], (s["c1"][1], True)),
)
#: the recipe planted only on candidate-edge endpoints
C1_RECIPE = len(ACQUIRE_JUNK) - 1
ACQUIRE_PLANTS = [(pick, pick % len(ACQUIRE_JUNK)) for pick in range(40)]

_TRAINS = (("bt_", REG_BOT_ROOT, REG_PIECES_BOT),
           ("tt_", REG_TOP_ROOT, REG_PIECES_TOP))

#: the deterministic plantings: every recipe, cycling over the inner
#: nodes (traffic) or the parented nodes (adopt) of both part forests
TRAFFIC_PLANTS = [(pick, t, (pick + 7 * t) % len(TRAFFIC_JUNK))
                  for t in range(2) for pick in range(40)]
ADOPT_PLANTS = [(pick, t, (pick + 5 * t) % len(ADOPT_JUNK))
                for t in range(2) for pick in range(3, 60, 2)]


def _part_tree(net, reg_root):
    """(part parent, part children) per node, as the train reads them."""
    graph, regs = net.graph, net.registers
    parent = {}
    for v in graph.nodes():
        pid = regs[v][REG_PARENT_ID]
        if pid in graph.neighbors(v) and \
                regs[pid][reg_root] == regs[v][reg_root]:
            parent[v] = pid
    kids = {v: [c for c in graph.neighbors(v) if parent.get(c) == v]
            for v in graph.nodes()}
    return parent, kids


def _plant_traffic_junk(net, plants):
    """Apply ``(pick, train, recipe)`` plantings: ``pick`` selects an
    inner node (one with part children) of that train's part forest."""
    regs = net.registers
    for pick, t, recipe in plants:
        prefix, reg_root, pieces = _TRAINS[t]
        parent, kids = _part_tree(net, reg_root)
        inner = [v for v in net.graph.nodes() if kids[v]]
        if not inner:       # the hybrid's inert bottom train
            continue
        v = inner[pick % len(inner)]
        own = regs[v][pieces]
        read = {v: {"cyc": regs[v][prefix + "cyc"],
                    "n_own": len(own) if isinstance(own, tuple) else 0}}
        for node, suffix, val in TRAFFIC_JUNK[recipe](
                v, parent.get(v), kids[v], read):
            regs[node][prefix + suffix] = val


def _plant_adopt_junk(net, plants):
    """Apply ``(pick, train, recipe)`` plantings: ``pick`` selects a
    part-parented node of that train's part forest."""
    regs = net.registers
    for pick, t, recipe in plants:
        prefix, reg_root, _pieces = _TRAINS[t]
        parent, _kids = _part_tree(net, reg_root)
        nodes = sorted(parent)
        if not nodes:
            continue
        v = nodes[pick % len(nodes)]
        for node, name, val in ADOPT_JUNK[recipe](v, parent[v], prefix,
                                                  regs):
            regs[node][name] = val


def _acquire_state(net, v, only_top):
    """What the :data:`ACQUIRE_JUNK` recipes read about ``v``: its Ask
    levels, degree, a piece at one of them (its top slot's, else a
    made-up one), its top train's part parent (None for a part root),
    and ``(level, piece)``: a piece whose weight is not the candidate
    edge's at a level where ``v`` is the edge's upper endpoint, with a
    root that passes the root checks."""
    graph, regs = net.graph, net.registers
    r = regs[v]
    levels = sorted_levels(r[REG_JMASK] or 0)
    if only_top:
        levels = levels[r[REG_DELIM] or 0:]
    buf = r["tt_bbuf"]
    piece = buf[0] if isinstance(buf, tuple) and len(buf) == 2 and \
        valid_piece(buf[0]) and buf[0][1] in levels \
        else (v, levels[0] if levels else 0, 3)
    parent, _kids = _part_tree(net, REG_TOP_ROOT)
    c1 = None
    pid, endp, roots = r[REG_PARENT_ID], r[REG_ENDP], r[REG_ROOTS]
    if isinstance(endp, str) and pid in graph.neighbors(v):
        for level in levels:
            if level < len(endp) and endp[level] == ENDP_UP:
                z = v if isinstance(roots, str) and level < len(roots) \
                    and roots[level] == "1" else v + 1
                c1 = (level, (z, level, graph.weight(v, pid) + 1))
                break
    return {"regs": regs, "levels": levels, "deg": len(graph.neighbors(v)),
            "piece": piece, "parent": parent.get(v), "c1": c1}


def _plant_acquire_junk(net, plants, only_top=False):
    """Apply ``(pick, recipe)`` plantings: ``pick`` selects a node with
    Ask levels (for :data:`C1_RECIPE`, a candidate-edge endpoint, part
    roots only when no part-parented one is left); each node takes at
    most one planting."""
    state = {v: _acquire_state(net, v, only_top)
             for v in sorted(net.graph.nodes())}
    taken = set()
    for pick, recipe in plants:
        pool = [v for v, s in state.items()
                if s["levels"] and v not in taken]
        if recipe == C1_RECIPE:
            ends = [v for v in pool if state[v]["c1"]]
            pool = [v for v in ends if state[v]["parent"] is not None] \
                or ends
        if not pool:
            continue
        v = pool[pick % len(pool)]
        taken.add(v)
        for node, name, val in ACQUIRE_JUNK[recipe](v, state[v]):
            net.registers[node][name] = val


def _plant_junk(net, junk, only_top=False):
    if junk == "traffic":
        _plant_traffic_junk(net, TRAFFIC_PLANTS)
    elif junk == "adopt":
        _plant_adopt_junk(net, ADOPT_PLANTS)
    elif junk == "acquire":
        _plant_acquire_junk(net, ACQUIRE_PLANTS, only_top)
    else:
        _plant_root_junk(net)


def _lockstep(pair, rounds, label):
    for r in range(rounds):
        states = []
        for net, sched in pair:
            sched.run(1)
            states.append(_store_state(net))
        assert states[0] == states[1], (label, r)


def _floors(floor):
    """Lower both vector floors (``_VectorSweep.MIN_BATCH`` and
    ``TRAFFIC_MIN``) to ``floor`` for the duration of the block, so
    test-size batches take the vector tier and plan child traffic."""
    return mock.patch.multiple(_VectorSweep, MIN_BATCH=floor,
                               TRAFFIC_MIN=floor)


def _sync_pair(g, mode, proto_cls=MstVerifierProtocol):
    """(vector sweep, scalar fused sweep) synchronous pair: numpy
    storage against the scalar fused sweep of plain columnar
    storage, on the protocol's own honest labels."""
    marker = run_hybrid_marker(g) \
        if proto_cls is HybridVerifierProtocol else None
    pair = []
    for storage in ("numpy", "columnar"):
        net = make_network(g, marker)
        proto = proto_cls(synchronous=True, comparison_mode=mode)
        pair.append((net, SynchronousScheduler(
            net, proto, storage=storage, bulk=True)))
    return pair


@pytest.mark.parametrize("junk", [False, True, "traffic", "adopt",
                                  "acquire"])
@pytest.mark.parametrize("mode, proto_cls", [
    pytest.param(mode, cls, id=prefix + mode)
    for prefix, cls in (("", MstVerifierProtocol),
                        ("hybrid-", HybridVerifierProtocol))
    for mode in ("sync-window", "want")])
def test_vector_sweep_store_equals_scalar_fused(mode, proto_cls, junk,
                                                campaign_seed):
    """After every synchronous round the vector sweep (floors of 2, so
    child traffic is planned) leaves the store exactly as the scalar
    fused sweep of plain columnar storage does:
    every column, the pool's contents, the overflow and the dirty
    flags — from a cold start through the settled patrol, and around
    junk planted into part-root rows (the root plan's inputs), into
    the registers the child-traffic plans read (``TRAFFIC_JUNK``),
    into a parented row's adopt inputs (``ADOPT_JUNK``) or into the
    acquire cycle's inputs (``ACQUIRE_JUNK``, whose wrong-weight piece
    must raise C1).  The hybrid verifier runs the only-Top kernel (one
    train kernel per sweep)."""
    if numpy_or_none() is None:
        pytest.skip("numpy unavailable")
    g = random_connected_graph(96, 170, seed=campaign_seed % 911 + 3)
    pair = _sync_pair(g, mode, proto_cls)
    with _floors(2):
        _lockstep(pair, 45, (mode, "honest"))
        if junk:
            for net, sched in pair:
                _plant_junk(net, junk, sched.protocol.only_top)
            _lockstep(pair, 30, (mode, junk))
    assert pair[0][1].protocol.bulk_stats["rows_fused"] > 0
    if junk == "acquire":
        for net, _ in pair:
            assert any(r.startswith("C1") for r in net.alarms().values())


@pytest.mark.parametrize("junk", [False, True, "traffic", "adopt",
                                  "acquire"])
@pytest.mark.parametrize("daemon, floor", [
    pytest.param(ConflictFreeDaemon, None, id="None"),
    pytest.param(ConflictFreeDaemon, 2, id="2"),
    pytest.param(TiledConflictFreeDaemon, None, id="tiled-None"),
    pytest.param(TiledConflictFreeDaemon, 2, id="tiled-2")])
def test_async_vector_sweep_store_equals_scalar_fused(daemon, floor, junk,
                                                      campaign_seed,
                                                      monkeypatch):
    """The conflict-free asynchronous license, on the independent-set
    and the tiled daemons, at the default vector floors (segments
    below ``MIN_BATCH`` run ``step_at`` per row) and with both floors
    lowered to 2 (every segment of two or more rows takes the vector
    tier, child traffic planned), against the scalar fused sweep of
    plain columnar storage."""
    if numpy_or_none() is None:
        pytest.skip("numpy unavailable")
    if floor is not None:
        monkeypatch.setattr(_VectorSweep, "MIN_BATCH", floor)
        monkeypatch.setattr(_VectorSweep, "TRAFFIC_MIN", floor)
    g = random_connected_graph(80, 140, seed=campaign_seed % 907 + 5)
    pair = []
    for storage in ("numpy", "columnar"):
        net = make_network(g)
        proto = MstVerifierProtocol(synchronous=False)
        pair.append((net, AsynchronousScheduler(
            net, proto, daemon(g, seed=4), storage=storage, bulk=True)))
    _lockstep(pair, 30, "honest")
    if junk:
        for net, _ in pair:
            _plant_junk(net, junk)
        _lockstep(pair, 25, junk)
    if floor is not None:
        assert pair[0][1].protocol.bulk_stats["rows_fused"] > 0


def _plants(recipes):
    return st.tuples(st.integers(0, 1 << 16), st.integers(0, 1),
                     st.integers(0, len(recipes) - 1))


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(plants=st.lists(_plants(TRAFFIC_JUNK), min_size=1, max_size=8),
       adopts=st.lists(_plants(ADOPT_JUNK), max_size=8),
       acquires=st.lists(st.tuples(
           st.integers(0, 1 << 16),
           st.integers(0, len(ACQUIRE_JUNK) - 1)), max_size=8),
       warm=st.integers(3, 24),
       want=st.booleans())
def test_traffic_junk_property(plants, adopts, acquires, warm, want):
    """Generated plantings on a small instance: hypothesis draws the
    rows, the trains, the junk recipes (``TRAFFIC_JUNK``,
    ``ADOPT_JUNK`` and ``ACQUIRE_JUNK``), when they land, and the
    comparison mode; the vector sweep (floors of 1) must leave the
    store exactly as the scalar fused sweep after every round."""
    if numpy_or_none() is None:
        pytest.skip("numpy unavailable")
    g = random_connected_graph(36, 64, seed=13)
    pair = _sync_pair(g, "want" if want else "sync-window")
    with _floors(1):
        for _net, sched in pair:
            sched.run(warm)
        for net, _ in pair:
            _plant_traffic_junk(net, plants)
            _plant_adopt_junk(net, adopts)
            _plant_acquire_junk(net, acquires)
        _lockstep(pair, 12, (plants, adopts, acquires))


def test_sync_tier_mix_floor():
    """The honest settled patrol is mostly fused: part-root steps
    (emissions, wraps, drains), non-root deliveries and the
    comparison's acquire cycle are planned writes, not scalar replays,
    and no round replays whole — not even round 64, where every ghost
    budget cache expires at once and is refreshed up front.
    Deterministic (fixed instance and round count); the floor sits
    below the measured mix."""
    if numpy_or_none() is None:
        pytest.skip("numpy unavailable")
    g = random_connected_graph(500, 900, seed=17)
    net = make_network(g)
    proto = MstVerifierProtocol(synchronous=True, static_every=4)
    sched = SynchronousScheduler(net, proto, storage="numpy", bulk=True)
    sched.run(60)
    proto.bulk_stats = None
    sched.run(24)
    stats = proto.bulk_stats
    total = stats["rows_fused"] + stats["rows_residual"] \
        + stats["rows_scalar"]
    assert total == 500 * 24
    assert not net.alarms()
    assert stats["rows_scalar"] == 0, stats
    assert stats["rows_fused"] / total >= FUSED_FLOOR, stats


# -- PoolIdCache ----------------------------------------------------------

def test_pool_id_cache_fills_only_requested_ids():
    """Demand fill: only the pool ids passed to ``sync`` are computed
    (once each), sentinel ids are skipped, the arrays grow with the
    pool, and a computed id reads exactly what an eager fill gives."""
    np = numpy_or_none()
    if np is None:
        pytest.skip("numpy unavailable")
    store = types.SimpleNamespace(pool_values=[(v, v * v) for v in range(10)])
    calls = []

    def attrs(val):
        calls.append(val)
        return (val[0] + 100, val[1] - 7)

    cache = PoolIdCache(store, 2, attrs)
    arrs = cache.sync(np.array([2, 5, 2], np.int64),
                      np.array([NONE_S, BOX_S, UNSET_S, 5], np.int64))
    assert sorted(calls) == [(2, 4), (5, 25)]
    assert cache.filled == 10
    for pid in (2, 5):
        assert (arrs[0][pid], arrs[1][pid]) == attrs(store.pool_values[pid])
    calls.clear()
    cache.sync(np.array([5, 2], np.int64))
    assert calls == []                      # already filled
    cache.sync(np.array([UNSET_S], np.int64), np.array([], np.int64))
    assert calls == []

    store.pool_values.extend((v, -v) for v in range(10, 200))
    arrs = cache.sync(np.array([150, 3], np.int64))
    assert sorted(calls) == [(3, 9), (150, -150)]
    assert cache.filled == 200 and len(arrs[0]) >= 200
    eager = [attrs(val) for val in store.pool_values]
    for pid in (2, 3, 5, 150):
        assert (arrs[0][pid], arrs[1][pid]) == eager[pid]
