"""Pinned register digests of the comparison mechanism.

The storage differentials compare dict against columnar runs, but both
sides step the same ``ComparisonComponent.step``, so a semantic slip in
that method would move both sides together and pass.  These cells pin
the absolute outcome instead: a ~24-node verifier run per comparison
mode (the synchronous window under the synchronous scheduler, the Want
handshake and its serialized ablation under a permutation daemon), on
dict and on columnar storage, settled, then fed junk in every
comparison register and forged neighbour shows mid-run.  The digest
covers the settled state and the state after each later chunk of
rounds (every register value, plus the alarms).

Seeds are fixed (not ``campaign_seed``): the digests are constants.
"""

import hashlib

import pytest

from repro.graphs.generators import random_connected_graph
from repro.sim import AsynchronousScheduler, PermutationDaemon, \
    SynchronousScheduler
from repro.sim.snapshot import capture_network
from repro.trains.comparison import (MODE_SYNC_WINDOW, MODE_WANT,
                                     MODE_WANT_SIMPLE, rotation_settled)
from repro.trains.train import valid_piece
from repro.verification import make_network
from repro.verification.verifier import MstVerifierProtocol

GRAPH_SEED = 11
DAEMON_SEED = 4

#: mode -> (scheduler, settle round cap, rounds per chunk after the junk)
_CELLS = {
    MODE_SYNC_WINDOW: ("sync", 600, 40),
    MODE_WANT: ("async", 400, 25),
    MODE_WANT_SIMPLE: ("async", 400, 25),
}

#: sha256 per mode, recorded before the comparison step was rewritten;
#: dict and columnar storage must both reproduce it
PINS = {
    MODE_SYNC_WINDOW:
        "3488ee8dbdb11c2431f0e74320ce1ae645d0f789d54baa14d52b38851b49df0f",
    MODE_WANT:
        "773bcbf366622b2ae8512751d1614f2d859d4adfeba3f45cdb26ba716016daf4",
    MODE_WANT_SIMPLE:
        "8bde69dc9ebfb76dc5dbfbbf10215e290d838158abae569e3a02c9c8c7e9551b",
}


def _canon(x):
    """A ``repr``-stable form of a register value: dict items and set
    members sorted (string hashes vary per process)."""
    if isinstance(x, dict):
        return ("dict", sorted((repr(_canon(k)), _canon(v))
                               for k, v in x.items()))
    if isinstance(x, (set, frozenset)):
        return (type(x).__name__, sorted(repr(_canon(v)) for v in x))
    if isinstance(x, (tuple, list)):
        return (type(x).__name__, [_canon(v) for v in x])
    return x


def _absorb(h, net):
    state = capture_network(net)["values"]
    h.update(repr(_canon(state)).encode())
    h.update(repr(sorted(net.alarms().items(), key=repr)).encode())


def _plant(net):
    """Junk in the comparison registers, and three forged shows.

    * a malformed ``ask`` (a non-piece tuple) and a non-tuple one;
    * a ``want`` whose level is an unhashable list, a non-tuple
      ``want``, and a ``want`` whose level is ``True`` (``== 1``);
    * a negative and a str ``turn``;
    * an ``ask_nbr`` past the node's degree;
    * three forged shows, each flagged in the top broadcast slot of a
      neighbour that claims the level an asking node holds, which is
      made the neighbour that node serves next: a piece of another
      fragment, a piece of the asker's fragment with another weight,
      and the asker's own piece across its candidate edge;
    * every other node's Want service watchdog far past its budget."""
    g = net.graph
    nodes = g.nodes()
    regs = net.registers
    regs[nodes[0]]["cmp_ask"] = ("root", 2, 7)
    regs[nodes[1]]["cmp_ask"] = [nodes[1], 1, 3]
    server = g.neighbors(nodes[2])[0]
    regs[nodes[2]]["cmp_want"] = (server, [1])
    regs[nodes[3]]["cmp_want"] = "not-a-request"
    server = g.neighbors(nodes[4])[-1]
    regs[nodes[4]]["cmp_want"] = (server, True)
    regs[nodes[5]]["cmp_turn"] = -3
    regs[nodes[6]]["cmp_turn"] = "x"
    regs[nodes[7]]["cmp_nbr"] = len(g.neighbors(nodes[7])) + 5
    rest = nodes[8:]
    used = set()

    def claims(u, level):
        return u in rest and u not in used and \
            (regs[u].get("jmask") or 0) >> level & 1

    def forge(pick, show):
        for v in rest:
            ask = regs[v].get("cmp_ask")
            if v in used or not valid_piece(ask):
                continue
            u = pick(v, ask)
            if u is not None:
                regs[u]["tt_bbuf"] = (show(ask), True)
                regs[v]["cmp_nbr"] = g.neighbors(v).index(u)
                used.update((v, u))
                return
        raise AssertionError("no Ask holder to forge a show for")

    def any_claimant(v, ask):
        return next((u for u in g.neighbors(v) if claims(u, ask[1])), None)

    def candidate(v, ask):
        # the other endpoint of the C1 candidate edge: the parent when
        # EndP says "u" at the level, the marked child when it says "d"
        level = ask[1]
        end = regs[v].get("endp")[level]
        for u in g.neighbors(v):
            if end == "u" and u == regs[v].get("pid") or \
                    end == "d" and regs[u].get("pid") == v and \
                    regs[u].get("pstr")[level] == "1":
                return u if claims(u, level) else None
        return None

    # another fragment's piece: the edge counts as outgoing (C2)
    forge(any_claimant, lambda a: (a[0] + 1000, a[1], a[2]))
    # the asker's fragment with another weight: Claim 8.3 fails
    forge(any_claimant,
          lambda a: (a[0], a[1], 1 if a[2] is None else a[2] + 1))
    # the asker's own piece across its candidate edge: C1 fails
    forge(candidate, lambda a: a)
    for v in rest:
        if v not in used:
            regs[v]["cmp_svc"] = 1 << 20


def _digest(mode, storage):
    g = random_connected_graph(24, 40, seed=GRAPH_SEED)
    net = make_network(g)
    kind, settle_cap, chunk = _CELLS[mode]
    if kind == "sync":
        proto = MstVerifierProtocol(synchronous=True, comparison_mode=mode)
        sched = SynchronousScheduler(net, proto, storage=storage)
    else:
        proto = MstVerifierProtocol(synchronous=False,
                                    comparison_mode=mode)
        sched = AsynchronousScheduler(net, proto,
                                      PermutationDaemon(seed=DAEMON_SEED),
                                      storage=storage)
    h = hashlib.sha256()
    sched.run(settle_cap, stop_when=rotation_settled)
    assert not net.has_alarm(), (mode, storage, net.alarms())
    _absorb(h, net)
    _plant(net)
    for _ in range(4):
        sched.run(chunk)
        _absorb(h, net)
    return h.hexdigest()


@pytest.mark.parametrize("storage", ["dict", "columnar"])
@pytest.mark.parametrize("mode", list(_CELLS))
def test_comparison_pin(mode, storage):
    assert _digest(mode, storage) == PINS[mode]
