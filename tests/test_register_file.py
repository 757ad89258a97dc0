"""Unit tests for register schemas and one node's register file: the
dict-compatible :class:`~repro.sim.registers.RegisterView` over a
column-store row, and the slot-addressed context reads beside it.

The mapping views must be indistinguishable from plain dicts; the nat
coercion, decode caches and stable-version counters are derived state
that must never leak into observable behaviour.
"""

import pickle

import pytest

from repro.graphs.weighted import WeightedGraph
from repro.sim import (ColumnarNodeContext, ColumnStore, Network,
                       RegisterSchema, RegisterView, compile_schema,
                       register_bits)


def _schema():
    s = RegisterSchema()
    s.declare("alarm", "opaque", None)
    s.declare("wd", "nat", 0)
    s.declare("roots", "str", None, stable=True)
    s.declare("pieces", "tuple", None, stable=True)
    return s.compile()


def _node():
    """A one-node column store and the register view over its node."""
    store = ColumnStore(_schema(), [0])
    return store, RegisterView(store, 0)


def _ctx(store):
    return ColumnarNodeContext(None, 0, store, neighbors=[])


class TestSchema:
    def test_compile_assigns_slots_in_declaration_order(self):
        c = _schema()
        assert c.slots["alarm"] == 0
        assert c.slots["wd"] == 1
        assert c.names[:2] == ("alarm", "wd")

    def test_alarm_slot_auto_declared(self):
        s = RegisterSchema()
        s.declare("x", "nat", 0)
        c = s.compile()
        assert "alarm" in c.slots
        assert c.alarm_slot == c.slots["alarm"]

    def test_duplicate_declaration_idempotent_conflict_raises(self):
        s = RegisterSchema()
        s.declare("x", "nat", 0)
        s.declare("x", "nat", 0)  # idempotent
        with pytest.raises(ValueError):
            s.declare("x", "str")

    def test_equality_by_structure(self):
        assert _schema() == _schema()
        assert compile_schema(_schema()) is _schema() or True
        other = RegisterSchema()
        other.declare("different", "nat", 0)
        assert _schema() != other.compile()

    def test_unknown_kind_rejected(self):
        s = RegisterSchema()
        with pytest.raises(ValueError):
            s.declare("x", "float64")


class TestRegisterFileView:
    def test_view_behaves_like_dict(self):
        _, view = _node()
        assert dict(view) == {}
        view["wd"] = 3
        view["roots"] = "10*"
        view["planted"] = 42          # undeclared -> extras
        assert view["wd"] == 3
        assert view.get("missing", "d") == "d"
        assert "roots" in view and "alarm" not in view
        assert len(view) == 3
        assert dict(view) == {"wd": 3, "roots": "10*", "planted": 42}
        del view["wd"]
        assert "wd" not in view
        with pytest.raises(KeyError):
            view["wd"]
        with pytest.raises(KeyError):
            del view["wd"]

    def test_view_equals_plain_dict(self):
        _, view = _node()
        view.update({"wd": 1, "alarm": None})
        assert view == {"wd": 1, "alarm": None}
        assert not (view == {"wd": 2, "alarm": None})

    def test_bits_match_dict_accounting(self):
        _, view = _node()
        contents = {"wd": 9, "roots": "101", "pieces": (1, 2),
                    "_ghost": 10 ** 9, "extra_reg": True}
        view.update(contents)
        assert register_bits(view) == register_bits(contents)

    def test_copy_is_independent(self):
        store, view = _node()
        view["wd"] = 1
        snap = store.fork()
        snap.set_value(0, store.schema.slots["wd"], 2)
        assert view["wd"] == 1
        assert snap.get_value(0, store.schema.slots["wd"]) == 2

    def test_nat_cache_tracks_writes(self):
        store, _ = _node()
        ctx = _ctx(store)
        for name in ("wd", "pieces", "alarm"):   # nat, pooled, boxed
            i = store.schema.slots[name]
            ctx.set(i, 7)
            assert ctx.nat(i) == 7 and ctx.read_nat(0, i) == 7
            assert ctx.nat(i, cap=6) is None
            ctx.set(i, -1)
            assert ctx.nat(i) is None
            ctx.set(i, True)           # bools are not nats
            assert ctx.nat(i) is None and ctx.read_nat(0, i) is None
            ctx.set(i, (7,))
            assert ctx.nat(i) is None
            ctx.set(i, 7)
            assert ctx.nat(i) == 7, name

    def test_decode_cache_invalidated_on_write(self):
        store, _ = _node()
        ctx = _ctx(store)
        calls = []

        def decoder(v):
            calls.append(v)
            return ("decoded", v)

        for name in ("pieces", "alarm"):         # pooled, boxed
            i = store.schema.slots[name]
            calls.clear()
            ctx.set(i, (1, 2, 3))
            assert ctx.get_decoded(i, decoder) == ("decoded", (1, 2, 3))
            assert ctx.get_decoded(i, decoder) == ("decoded", (1, 2, 3))
            assert len(calls) == 1
            ctx.set(i, (4, 5, 6))
            assert ctx.get_decoded(i, decoder) == ("decoded", (4, 5, 6))

    def test_stable_version_bumps_only_on_stable_slots(self):
        store, view = _node()
        v0 = store.stable_versions[0]
        view["wd"] = 5                # dynamic
        assert store.stable_versions[0] == v0
        view["roots"] = "111"         # stable
        assert store.stable_versions[0] == v0 + 1
        del view["roots"]
        assert store.stable_versions[0] == v0 + 2

    def test_clear_resets_everything(self):
        store, view = _node()
        view["wd"] = 5
        view["planted"] = 1
        columns = [id(col) for col in store.data]
        view.clear()
        assert dict(view) == {}
        # in place: contexts alias the columns
        assert [id(col) for col in store.data] == columns


class TestNetworkAdoption:
    def _graph(self):
        g = WeightedGraph()
        g.add_node("a")
        g.add_node("b")
        g.add_edge("a", "b", 1)
        return g

    def _network(self, graph):
        net = Network(graph)
        net.adopt_schema(_schema())
        return net

    def test_adopt_preserves_contents(self):
        net = Network(self._graph())
        net.install({"a": {"wd": 1, "other": "x"}, "b": {"roots": "1"}})
        before = {v: dict(r) for v, r in net.registers.items()}
        net.adopt_schema(_schema())
        assert {v: dict(r) for v, r in net.registers.items()} == before
        assert net.columns is not None

    def test_wholesale_assignment_writes_through(self):
        net = self._network(self._graph())
        net.registers["a"] = {"wd": 9}
        store = net.columns
        assert store.get_value(store.index["a"], net.schema.slots["wd"]) == 9
        assert dict(net.registers["a"]) == {"wd": 9}

    def test_alarms_via_slots(self):
        net = self._network(self._graph())
        assert net.alarms() == {}
        assert not net.has_alarm()
        net.registers["b"]["alarm"] = "boom"
        assert net.alarms() == {"b": "boom"}
        assert net.has_alarm()

    def test_empty_graph_memory_bits_is_zero(self):
        """Regression: ``max()`` over an empty node set used to raise."""
        empty = Network(WeightedGraph())
        assert empty.max_memory_bits() == 0
        assert empty.total_memory_bits() == 0
        schema_backed = self._network(WeightedGraph())
        assert schema_backed.max_memory_bits() == 0

    def test_register_views_survive_pickling_of_contents(self):
        """Campaign results carry register-derived data across process
        boundaries; the view's dict face must round-trip."""
        net = self._network(self._graph())
        net.install({"a": {"wd": 2, "pieces": (1, 2, 3)}})
        data = {v: dict(r) for v, r in net.registers.items()}
        assert pickle.loads(pickle.dumps(data)) == data
