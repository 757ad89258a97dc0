"""Pinned register digests of the train mechanism.

The storage differentials compare dict against columnar runs, but both
sides step the same ``TrainComponent.step``, so a semantic slip in that
method would move both sides together and pass.  These cells pin the
absolute outcome instead: a ~24-node verifier run under the synchronous
scheduler (window comparison) and under a permutation daemon (Want
comparison), settled, then fed junk in every train register of both
trains.  The digest covers the settled state, the state after every
round of the first chunk after the junk (train junk heals within a few
rotations, so only the transient shows a slip) and after each later
chunk (every register value, plus the alarms).

Every storage must reproduce the pins: ``dict``, ``columnar`` (with the
bulk plane's counter sweep before the per-node ``step_at``) and
``numpy``, whose vector-tier
floors are lowered so the synchronous cell's rounds classify their
trivial rows in bulk and replay the rest through the per-row scalar
path.

Seeds are fixed (not ``campaign_seed``): the digests are constants.
"""

import hashlib
from unittest import mock

import pytest

from repro.graphs.generators import random_connected_graph
from repro.sim import AsynchronousScheduler, PermutationDaemon, \
    SynchronousScheduler
from repro.sim.npcolumnar import numpy_or_none
from repro.trains.comparison import MODE_SYNC_WINDOW, MODE_WANT, \
    rotation_settled
from repro.verification import make_network
from repro.verification.verifier import MstVerifierProtocol, _VectorSweep

from test_comparison_pins import _absorb

GRAPH_SEED = 11
DAEMON_SEED = 4

#: cell -> (comparison mode, settle round cap, rounds per chunk after
#: the junk)
_CELLS = {
    "sync": (MODE_SYNC_WINDOW, 600, 40),
    "want": (MODE_WANT, 400, 25),
}

#: sha256 per cell, recorded on the column-inlined train closures
#: before they were deleted; every storage must reproduce it
PINS = {
    "sync":
        "99b470d820ce724d7252b63b1f80909cd8531c4177ecf2412d315e7155ef4051",
    "want":
        "8405fbebed98b7b092cb0f794fdfca404fb6ccfbf5fe7298fe45a4f7c968a9bd",
}


def _part_children(net, v, root_reg):
    regs = net.registers
    return [c for c in net.graph.neighbors(v)
            if regs[c].get("pid") == v
            and regs[c].get(root_reg) == regs[v].get(root_reg)]


def _plant(net):
    """Junk in every dynamic register of both trains.

    * forged activation cars and acks that name a real part child: a
      fresh cycle (the child restarts its subtree), the child's own
      last sequence number (the child drops a car nobody consumed);
    * bool and float twins of the ints honest trains write (``True``
      for 1, ``1.0``, ``2.0``, and a float equal to the part parent's
      epoch), which compare equal but are no nats;
    * unhashable lists in the tuple registers (boxed on columnar
      storage) and a list in a nat register;
    * out-of-range, negative and str values in the nat registers, and
      a source pointer and a piece count that are nats but past their
      caps or far past the count claim;
    * a rotation key ``("x", "y")`` whose comparison with any real key
      raises, and truthy/falsy junk in the sync latch;
    * watchdogs one step short of a part root's epoch reset and of a
      node's alarm."""
    g = net.graph
    nodes = g.nodes()
    regs = net.registers
    piece = next(pc[0] for v in nodes
                 for pc in [regs[v].get("pc_top")] if pc)
    parents = {p: [v for v in nodes if _part_children(net, v, r)]
               for p, r in (("tt_", "trt"), ("bt_", "brt"))}
    used = set()

    def take(cands):
        for v in cands:
            if v not in used:
                used.add(v)
                return v
        raise AssertionError("no node left to plant on")

    # a forged activation car and ack at one part parent per train:
    # the car names its first child, the ack the sequence number of
    # the last car a child sent (0 if none did)
    for p, r in (("tt_", "trt"), ("bt_", "brt")):
        v = take(parents[p])
        children = _part_children(net, v, r)
        regs[v][p + "act"] = (children[0], (regs[v][p + "cyc"] + 1) % 64)
        c = max(children, key=lambda c: regs[c].get(p + "seq") is not None)
        regs[v][p + "tak"] = (c, regs[c].get(p + "seq") or 0)
    # junk at one node each
    junk = [
        {"tt_out": [7, piece], "bt_out": (True, piece)},
        {"tt_act": (nodes[0], 1.0), "bt_tak": [nodes[1], 0]},
        {"tt_done": True, "bt_done": 2.0},
        {"tt_src": 5000, "bt_src": "x"},
        {"tt_cyc": True, "bt_cyc": -4},
        {"tt_seq": 2.5, "bt_seq": 1 << 70},
        {"tt_bseq": True, "bt_bseq": 3.0},
        {"tt_bbuf": [piece, True], "bt_bbuf": (piece, 1.0)},
        {"tt_last": ("x", "y"), "bt_last": [0, 0]},
        {"tt_seen": 1 << 70, "bt_seen": "s"},
        {"tt_cnt": 1 << 19, "bt_cnt": 2.0},
        {"tt_sync": "yes", "tt_cnt": -5, "bt_sync": 0.0},
        {"tt_wd": True, "bt_wd": [3], "bt_ep": 1 << 70},
    ]
    for values in junk:
        regs[take(nodes)].update(values)
    # a float twin of the part parent's epoch: equal, but no nat
    v = take(c for u in parents["tt_"] for c in _part_children(net, u, "trt"))
    regs[v]["tt_ep"] = float(regs[regs[v]["pid"]]["tt_ep"])
    # watchdogs one step short of their budgets: a top part root's
    # epoch reset, and a part parent's alarm
    roots = [v for v in nodes if regs[v].get("pid") is None or
             regs[regs[v]["pid"]].get("trt") != regs[v].get("trt")]
    v = take(roots)
    regs[v]["tt_wd"] = regs[v]["_bgt"][1].root_reset - 1
    v = take(parents["tt_"])
    regs[v]["tt_wd"] = regs[v]["_bgt"][1].node_alarm - 1


def _digest(cell, storage):
    g = random_connected_graph(24, 40, seed=GRAPH_SEED)
    net = make_network(g)
    mode, settle_cap, chunk = _CELLS[cell]
    if cell == "sync":
        proto = MstVerifierProtocol(synchronous=True, comparison_mode=mode)
        sched = SynchronousScheduler(net, proto, storage=storage,
                                     bulk=True)
    else:
        proto = MstVerifierProtocol(synchronous=False,
                                    comparison_mode=mode)
        sched = AsynchronousScheduler(net, proto,
                                      PermutationDaemon(seed=DAEMON_SEED),
                                      storage=storage, bulk=True)
    h = hashlib.sha256()
    sched.run(settle_cap, stop_when=rotation_settled)
    assert not net.has_alarm(), (cell, storage, net.alarms())
    _absorb(h, net)
    _plant(net)
    for _ in range(chunk):
        sched.run(1)
        _absorb(h, net)
    for _ in range(3):
        sched.run(chunk)
        _absorb(h, net)
    return h.hexdigest(), getattr(proto, "bulk_stats", None)


@pytest.mark.parametrize("storage", ["dict", "columnar", "numpy"])
@pytest.mark.parametrize("cell", list(_CELLS))
def test_train_pin(cell, storage):
    with mock.patch.multiple(_VectorSweep, MIN_BATCH=2, TRAFFIC_MIN=2):
        digest, stats = _digest(cell, storage)
    assert digest == PINS[cell]
    if storage == "numpy" and cell == "sync" and \
            numpy_or_none() is not None:
        # the vector tier both applied rows and replayed some
        assert stats["rows_fused"] > 0 and stats["rows_residual"] > 0, \
            stats
