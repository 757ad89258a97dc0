"""Unit tests for the columnar register store (``repro.sim.columnar``).

The differential tests prove backend equivalence end-to-end; these pin
the columnar-specific mechanics: sentinel encoding and graceful
overflow (nothing may ever raise out of ``array('q')``), interning,
facade/view semantics, the conservative dirty tracking the schedulers
build on, and the locality-batching daemon's shape.
"""

import pytest

from repro.graphs.generators import random_connected_graph
from repro.sim import (FaultInjector, LocalityBatchDaemon, Network,
                      RegisterSchema, RegisterView, SynchronousScheduler,
                      register_bits)
from repro.sim.columnar import (BOX_S, ColumnStore, ColumnarNodeContext,
                                NONE_S, PoolColumn, UNSET_S)
from repro.sim.registers import compile_schema
from repro.verification import make_network
from repro.verification.verifier import MstVerifierProtocol


def _schema():
    schema = RegisterSchema()
    schema.declare("count", "nat", 0)
    schema.declare("label", "str", None, stable=True)
    schema.declare("piece", "tuple", None)
    schema.declare("blob", "opaque", None)
    return schema


def _store(n=4):
    compiled = compile_schema(_schema())
    return ColumnStore(compiled, list(range(n))), compiled


class _FakeNet:
    def __init__(self, graph):
        self.graph = graph


def _ctx(store, node=0):
    g = random_connected_graph(store.n, store.n + 2, seed=1)
    return ColumnarNodeContext(_FakeNet(g), node, store)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def test_nat_column_roundtrips_every_shape():
    """Ints (any sign), None, bools, huge ints, strings, tuples — a nat
    column accepts and returns them all exactly (type included)."""
    store, compiled = _store()
    slot = compiled.slot("count")
    values = [0, 7, -3, None, True, False, 1 << 70, -(1 << 70),
              "garbage", ("a", 1), 3.5]
    for i, value in enumerate(values[:store.n]):
        store.set_value(i, slot, value)
        got = store.get_value(i, slot, "<default>")
        assert got == value and type(got) is type(value)
    # overwrite boxed with a plain int: sentinel path wins again AND the
    # stale overflow entry is dropped (no dead weight for snapshots)
    store.set_value(0, slot, "junk")
    assert store.overflow[slot]
    store.set_value(0, slot, 5)
    assert store.get_value(0, slot) == 5
    assert 0 not in store.overflow[slot]
    ctx = _ctx(store)
    ctx.set(slot, "junk2")
    ctx.set(slot, 6)
    assert ctx.get(slot) == 6
    assert 0 not in store.overflow[slot]


def test_pool_column_interns_and_boxes():
    store, compiled = _store()
    slot = compiled.slot("piece")
    store.set_value(0, slot, (1, 2, 3))
    store.set_value(1, slot, (1, 2, 3))
    col = store.data[slot]
    assert type(col) is PoolColumn
    assert col[0] == col[1] >= 0                       # interned, shared
    assert store.get_value(0, slot) is store.get_value(1, slot)
    store.set_value(2, slot, [1, 2])                   # unhashable junk
    assert col[2] == BOX_S
    assert store.get_value(2, slot) == [1, 2]
    store.set_value(3, slot, None)
    assert col[3] == NONE_S
    assert store.get_value(3, slot, "<d>") is None
    assert store.data[compiled.slot("count")][0] == UNSET_S


def test_facade_and_view_mapping_semantics():
    store, compiled = _store()
    view = RegisterView(store, 1)
    view["count"] = 4
    view["label"] = "abc"
    view["ghost_free"] = "extra"          # undeclared -> extras
    assert dict(view) == {"count": 4, "label": "abc",
                          "ghost_free": "extra"}
    assert len(view) == 3 and "count" in view
    assert register_bits(view) == store.node_bits(1)
    del view["count"]
    assert "count" not in view
    with pytest.raises(KeyError):
        del view["count"]
    view.clear()
    assert dict(view) == {}


def test_stable_epoch_tracks_label_writes():
    store, compiled = _store()
    ctx = _ctx(store)
    before = store.stable_epoch
    ctx.set(compiled.slot("count"), 9)     # not stable
    assert store.stable_epoch == before
    ctx.set(compiled.slot("label"), "x")   # stable
    assert store.stable_epoch == before + 1
    s1 = ctx.stable_sentinel()
    assert ctx.stable_sentinel() == s1     # cached, epoch unchanged
    ctx.set(compiled.slot("label"), "y")
    assert ctx.stable_sentinel() != s1


def test_conservative_dirty_marking():
    store, compiled = _store()
    ctx = _ctx(store)
    assert not ctx.wrote
    ctx.set(compiled.slot("count"), 0)     # same value as default: still
    assert ctx.wrote                       # a write (conservative)
    assert store.dirty_cols[compiled.slot("count")]
    view = RegisterView(store, 2)
    view["count"] = 3                      # view writes mark the node
    assert 2 in store.dirty_node_list
    store.clear_dirty()
    assert not store.dirty_node_list
    assert not any(store.dirty_cols)


def test_serialize_restore_roundtrips_pool_and_overflow_exactly():
    """Checkpoint round-trip (satellite fix): restored pool ids must be
    the original ids — a circulating piece re-interned after restore
    resolves to its old id instead of re-validating into a duplicate —
    the typed-pool split for ==-equal values of different types must
    survive, and boxed overflow (unhashable junk, beyond-int64 nats)
    must come back exactly."""
    import pickle

    store, compiled = _store()
    piece = compiled.slot("piece")
    count = compiled.slot("count")
    label = compiled.slot("label")
    store.set_value(0, piece, (1, 1))
    store.set_value(1, piece, (1, True))     # ==-equal, typed pool
    store.set_value(2, piece, [9, 9])        # unhashable: boxed
    store.set_value(3, piece, (1, 1))        # re-interned: id of row 0
    store.set_value(0, count, 1 << 70)       # beyond int64: boxed
    store.set_value(1, count, 7)
    store.set_value(2, label, "stable")      # bumps the stable epoch
    ctx = _ctx(store, node=2)
    assert ctx.stable_sentinel() is not None  # warm a decode memo

    state = pickle.loads(pickle.dumps(store.serialize()))
    fresh = ColumnStore(compiled, list(store.nodes))
    fresh.set_value(0, piece, ("pre-existing", 3))  # must be overwritten
    fresh.restore_serialized(state)

    for slot in range(compiled.size):
        assert list(fresh.data[slot]) == list(store.data[slot]), slot
    assert fresh.pool_values == store.pool_values
    assert fresh.overflow == store.overflow
    assert fresh.extras == store.extras
    assert list(fresh.stable_versions) == list(store.stable_versions)
    assert fresh.stable_epoch == store.stable_epoch
    # re-interning circulating values: original ids, no pool growth
    pool_len = len(fresh.pool_values)
    assert fresh.intern((1, 1)) == store.data[piece][0]
    assert fresh.intern((1, True)) == store.data[piece][1]
    assert fresh.intern("stable") == store.data[label][2]
    assert len(fresh.pool_values) == pool_len
    # values and their exact types round-trip
    got0 = fresh.get_value(0, piece)
    got1 = fresh.get_value(1, piece)
    assert got0 == (1, 1) and type(got0[1]) is int
    assert got1 == (1, True) and type(got1[1]) is bool
    assert fresh.get_value(2, piece) == [9, 9]
    assert fresh.get_value(0, count) == 1 << 70
    assert fresh.get_value(1, count) == 7
    # dirty tracking restarts clean after a restore
    assert not fresh.dirty_node_list and not any(fresh.dirty_cols)


def test_restore_serialized_validates_before_mutating():
    """A payload for another layout raises and leaves the store
    untouched (the warm-start path then settles cold off a clean
    network)."""
    store, compiled = _store()
    store.set_value(0, compiled.slot("count"), 5)
    state = store.serialize()

    other_schema = RegisterSchema()
    other_schema.declare("different", "nat", 0)
    other = ColumnStore(compile_schema(other_schema), list(range(4)))
    with pytest.raises(ValueError):
        other.restore_serialized(state)
    assert other.get_value(0, 0, "<unset>") == "<unset>"

    small = ColumnStore(compiled, list(range(3)))   # node-count mismatch
    with pytest.raises(ValueError):
        small.restore_serialized(state)

    target, _ = _store()
    target.set_value(0, compiled.slot("label"), "keep")
    bad = dict(state)
    bad["pool"] = state["pool"] + ["tampered"]      # wrong pool is fine,
    bad["cols"] = state["cols"][:-1]                # wrong shape is not
    with pytest.raises(ValueError):
        target.restore_serialized(bad)
    assert target.get_value(0, compiled.slot("label")) == "keep"


def test_snapshot_fork_and_refresh():
    store, compiled = _store()
    slot = compiled.slot("count")
    store.set_value(0, slot, 11)
    snap = store.fork()
    store.clear_dirty()
    store.set_value(0, slot, 22)
    assert snap.data[slot][0] == 11        # snapshot is isolated
    snap.refresh_from(store)               # dirty columns only
    assert snap.data[slot][0] == 22
    # pooled column copies keep their marker type through refresh
    assert type(snap.data[compiled.slot("piece")]) is PoolColumn


# ---------------------------------------------------------------------------
# fault injection through declared kinds (regression: satellite fix)
# ---------------------------------------------------------------------------

def test_fault_injection_into_nat_columns_degrades_gracefully():
    """Corrupting writes of non-int values into nat columns must not
    raise from ``array('q')``: they box into the overflow, round-trip
    exactly, keep the bit accounting identical to the dict backend, and
    further perturbation of the planted junk keeps working."""
    g = random_connected_graph(10, 16, seed=3)

    def corrupt(storage):
        net = make_network(g)
        proto = MstVerifierProtocol(synchronous=True)
        sched = SynchronousScheduler(net, proto, storage=storage)
        sched.run(5)
        inj = FaultInjector(net, seed=41)
        v = g.nodes()[0]
        # plant junk of every shape in nat-declared registers
        inj.corrupt_register(v, "dist", value="not-an-int")
        inj.corrupt_register(v, "tcount", value=1 << 70)
        inj.corrupt_register(v, "st", value=True)
        inj.corrupt_register(v, "tt_wd", value=("tuple", "junk"))
        # ...and in a tuple-declared register
        inj.corrupt_register(v, "pc_top", value="stringy")
        # perturbation mode must now coerce *through* the planted shape
        inj.corrupt_register(v, "dist")
        inj.corrupt_register(v, "tcount")
        inj.corrupt_register(v, "st")
        return ({u: dict(r) for u, r in net.registers.items()},
                net.max_memory_bits(), net.total_memory_bits())

    ref = corrupt("dict")
    assert corrupt("columnar") == ref
    assert corrupt("numpy") == ref


def test_detection_survives_boxed_label_corruption():
    """A columnar-backed verifier still detects after junk-typed label
    corruption (the overflow path is not a dead end)."""
    from repro.sim import first_alarm
    g = random_connected_graph(12, 20, seed=7)
    net = make_network(g)
    proto = MstVerifierProtocol(synchronous=True)
    sched = SynchronousScheduler(net, proto, storage="columnar")
    sched.run(30)
    assert not net.alarms()
    inj = FaultInjector(net, seed=2)
    inj.corrupt_register(g.nodes()[3], "roots", value=12345)  # int in str
    sched.run(5000, stop_when=first_alarm)
    assert net.alarms(), "corrupted Roots string must be detected"


def test_pool_keeps_equal_values_of_different_types_apart():
    """``True == 1`` and ``2.0 == 2`` in Python: interning must not hand
    a later write back as an earlier ==-equal value of another type —
    contents, types, bit accounting, and nat coercion must match the
    other backends exactly, nested types included."""
    from repro.sim import bit_size, nat_value
    store, compiled = _store()
    slot = compiled.slot("piece")
    pairs = [(1, True), (2.0, 2), ((1, 1), (1, True))]
    for i, (a, b) in enumerate(pairs):
        store.set_value(i, slot, a)
        other = (i + 1) % store.n
        store.set_value(other, slot, b)
        got_a = store.get_value(i, slot)
        got_b = store.get_value(other, slot)
        assert got_a is a or got_a == a and type(got_a) is type(a)
        assert got_b is b or got_b == b and type(got_b) is type(b)
        assert bit_size(got_a) == bit_size(a)
        assert bit_size(got_b) == bit_size(b)
        assert nat_value(got_b) == nat_value(b)


def test_context_set_boxes_unhashable_into_pool_column():
    """ctx.set of an unhashable value into a str/tuple column must box
    like the facade path, not raise out of the pool lookup (a corrupted
    piece with a mutable element reaches ctx.set via the broadcast)."""
    store, compiled = _store()
    ctx = _ctx(store)
    slot = compiled.slot("piece")
    junk = ((1, 2, [3]), True)     # tuple containing a list: unhashable
    ctx.set(slot, junk)
    assert ctx.get(slot) == junk
    assert store.data[slot][0] == BOX_S


def test_rotation_settled_matches_dict_on_boxed_rot():
    """A huge int planted in the `_rot` ghost register settles under
    every storage (the dict expression reads it raw; the columnar branch
    must resolve the boxed entry the same way)."""
    from repro.trains.comparison import rotation_settled
    g = random_connected_graph(8, 12, seed=2)

    def settled(storage):
        net = make_network(g)
        proto = MstVerifierProtocol(synchronous=True)
        sched = SynchronousScheduler(net, proto, storage=storage)
        sched.run(2)
        for v in g.nodes():
            net.registers[v]["_rot"] = 1 << 62   # beyond int64 packing
        return rotation_settled(net)

    assert settled("dict") is settled("columnar") is settled("numpy") \
        is True


def test_alarm_latches_under_packed_alarm_kind():
    """A protocol declaring the alarm register with a packed kind still
    latches and reports alarms on the columnar backend."""
    from repro.sim import ALARM, Network, Protocol

    class StrAlarm(Protocol):
        def register_schema(self):
            schema = RegisterSchema()
            schema.declare(ALARM, "str", None)
            return schema

        def bind_registers(self, compiled):
            pass

        def step(self, ctx):
            ctx.alarm("first")
            ctx.alarm("second")    # must not overwrite the latch

    g = random_connected_graph(6, 8, seed=1)
    net = Network(g)
    sched = SynchronousScheduler(net, StrAlarm(), storage="columnar")
    sched.run(1)
    assert net.has_alarm()
    assert set(net.alarms().values()) == {"first"}


# ---------------------------------------------------------------------------
# locality-batching daemon
# ---------------------------------------------------------------------------

def test_locality_daemon_batches_closed_neighbourhoods():
    g = random_connected_graph(10, 16, seed=5)
    daemon = LocalityBatchDaemon(g, seed=0)
    nodes = g.nodes()
    seen_centers = []
    for _ in range(len(nodes)):
        batch = daemon.next_batch(nodes)
        center = batch[0]
        seen_centers.append(center)
        assert batch[1:] == g.neighbors(center)
    # one full sweep: every node was a center exactly once
    assert sorted(seen_centers) == sorted(nodes)
    assert daemon.batches == len(nodes)
    # and the next sweep reshuffles but still covers everything
    second = [daemon.next_batch(nodes)[0] for _ in range(len(nodes))]
    assert sorted(second) == sorted(nodes)
