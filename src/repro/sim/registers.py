"""Register declarations with bit-size accounting.

The paper's memory-size measure counts the bits stored at a node: identity,
marker labels, and verifier working memory (Section 2.4).  Protocols store
per-node state in named registers; :func:`bit_size` estimates the number of
bits needed to encode a register value.

Two storage representations coexist:

* the **dict store** — each node owns a plain ``Dict[str, Any]``;
  always available, and the reference semantics for every differential
  test;
* the **columnar store** (:mod:`repro.sim.columnar`) — a protocol
  declares a :class:`RegisterSchema` (register name -> kind, default),
  compiled once per network into integer *slot* indices, and the
  network keeps one column per register over a dense node index: nat
  kinds in ``array('q')``, str/tuple kinds interned into a shared pool,
  opaque boxed.  :class:`RegisterView` keeps a dict-compatible
  ``MutableMapping`` face over one node of it, so fault injection,
  markers, and the bit accounting keep working unchanged.

The representations are observably equivalent: the same writes produce
the same mapping contents, the same bit accounting, and the same
protocol behaviour (``tests/test_storage_differential.py`` proves it).

Conventions
-----------
* Register values must be *immutable* (ints, strings, bools, None, tuples,
  frozensets) so snapshots can share them safely.
* Register names starting with ``"_"`` are *ghost* state — simulation
  instrumentation excluded from the memory accounting (e.g. fault-injection
  bookkeeping).  Real protocol state must never use the prefix.  Ghost
  registers may be declared in a schema (they get slots and dirty
  tracking like any other register) — they are simply skipped by the
  bit accounting.
* Undeclared names written to a schema-backed node land in a per-node
  *extras* dict, so an adversary (or instrumentation) can always plant
  state the protocol never declared.
"""

from __future__ import annotations

from typing import (Any, Dict, Iterable, Iterator, List, Mapping,
                    MutableMapping, Optional, Sequence, Tuple)

#: register kinds a schema may declare.  ``nat`` marks registers whose
#: reads go through the bounded non-negative-int coercion (the verifier's
#: ``_nat``).  The columnar store packs by kind — ``nat`` into
#: ``array('q')`` columns, ``str``/``tuple`` through the interning pool,
#: ``opaque`` boxed.
KIND_NAT = "nat"
KIND_STR = "str"
KIND_TUPLE = "tuple"
KIND_OPAQUE = "opaque"

REGISTER_KINDS = (KIND_NAT, KIND_STR, KIND_TUPLE, KIND_OPAQUE)

#: the boxed-column value of a register that has never been written (it
#: does not appear in the node's mapping view).
UNSET = type("_UnsetType", (), {
    "__repr__": lambda self: "<unset register>",
    "__reduce__": lambda self: "UNSET",
})()

NAT_CAP = 1 << 30

#: per-slot decoded-value cache marker: "no decode computed since the
#: last write of this slot".
NO_DECODE = type("_NoDecodeType", (), {
    "__repr__": lambda self: "<no decode>",
    "__reduce__": lambda self: "NO_DECODE",
})()


def nat_value(x: Any, cap: int = NAT_CAP) -> Optional[int]:
    """``x`` as a bounded non-negative int, else None (the coercion the
    trains apply to every numeric register read)."""
    if isinstance(x, int) and not isinstance(x, bool) and 0 <= x <= cap:
        return x
    return None


def bit_size(value: Any) -> int:
    """Estimated number of bits to encode ``value``.

    Integers are charged their binary length (plus a sign bit), strings one
    byte per character, tuples/frozensets the sum of their parts plus two
    bits of framing per element.  None/booleans cost one bit.
    """
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return max(1, value.bit_length()) + 1
    if isinstance(value, float):
        return 64
    if isinstance(value, str):
        return 8 * len(value)
    if isinstance(value, (tuple, frozenset, list)):
        return sum(bit_size(x) + 2 for x in value)
    raise TypeError(f"unencodable register value of type {type(value)!r}")


def is_ghost(name: str) -> bool:
    """Whether a register name denotes instrumentation-only state."""
    return name.startswith("_")


def register_bits(registers: Mapping[str, Any]) -> int:
    """Total bits of the non-ghost registers of one node."""
    if isinstance(registers, RegisterView):
        return registers.store.node_bits(registers.i)
    return sum(bit_size(v) for name, v in registers.items() if not is_ghost(name))


# ---------------------------------------------------------------------------
# schema declaration and compilation
# ---------------------------------------------------------------------------

class RegisterSchema:
    """An ordered declaration of a protocol's registers.

    Components declare the registers they own with :meth:`declare`;
    duplicate declarations are idempotent (shared label registers may be
    declared by several components) but a kind conflict is an error.
    """

    def __init__(self) -> None:
        self._names: List[str] = []
        self._kinds: Dict[str, str] = {}
        self._defaults: Dict[str, Any] = {}
        self._stable: Dict[str, bool] = {}

    def declare(self, name: str, kind: str = KIND_OPAQUE,
                default: Any = None, stable: bool = False) -> None:
        """Declare one register.

        ``stable`` marks registers the protocol treats as slowly changing
        inputs (marker labels): writes to them bump the node's
        *stable version*, which lets protocols cache label-derived
        computations and invalidate them exactly when a label (or a
        neighbour's label) actually changes."""
        if kind not in REGISTER_KINDS:
            raise ValueError(f"unknown register kind {kind!r}")
        if name in self._kinds:
            if self._kinds[name] != kind or self._stable[name] != stable:
                raise ValueError(
                    f"register {name!r} redeclared as {kind!r}"
                    f"/stable={stable} (was {self._kinds[name]!r}"
                    f"/stable={self._stable[name]})")
            return
        self._names.append(name)
        self._kinds[name] = kind
        self._defaults[name] = default
        self._stable[name] = stable

    def declare_many(self,
                     decls: Iterable[Tuple[str, str, Any]]) -> None:
        for name, kind, default in decls:
            self.declare(name, kind, default)

    def names(self) -> Tuple[str, ...]:
        return tuple(self._names)

    def compile(self) -> "CompiledSchema":
        return CompiledSchema(self._names,
                              [self._kinds[n] for n in self._names],
                              [self._defaults[n] for n in self._names],
                              [self._stable[n] for n in self._names])


#: the distinguished register protocols raise alarms through (re-exported
#: by :mod:`repro.sim.network`, which historically defined it).
ALARM = "alarm"


class CompiledSchema:
    """Frozen name -> slot mapping shared by every node of a network."""

    __slots__ = ("names", "kinds", "defaults", "slots", "size",
                 "nonghost_slots", "alarm_slot", "stable_mask", "_key")

    def __init__(self, names: Sequence[str], kinds: Sequence[str],
                 defaults: Sequence[Any],
                 stable: Optional[Sequence[bool]] = None) -> None:
        names = list(names)
        kinds = list(kinds)
        defaults = list(defaults)
        stable = [False] * len(names) if stable is None else list(stable)
        if ALARM not in names:
            # every protocol signals through the alarm register; giving
            # it a slot unconditionally lets the harness poll alarms in
            # O(1) per node without a name lookup.
            names.append(ALARM)
            kinds.append(KIND_OPAQUE)
            defaults.append(None)
            stable.append(False)
        self.names: Tuple[str, ...] = tuple(names)
        self.kinds: Tuple[str, ...] = tuple(kinds)
        self.defaults: Tuple[Any, ...] = tuple(defaults)
        self.stable_mask: Tuple[bool, ...] = tuple(stable)
        self.slots: Dict[str, int] = {n: i for i, n in enumerate(self.names)}
        if len(self.slots) != len(self.names):
            raise ValueError("duplicate register names in schema")
        self.size = len(self.names)
        self.nonghost_slots: Tuple[int, ...] = tuple(
            i for i, n in enumerate(self.names) if not is_ghost(n))
        self.alarm_slot = self.slots[ALARM]
        self._key = (self.names, self.kinds, self.stable_mask)

    def slot(self, name: str) -> int:
        return self.slots[name]

    def kind(self, name: str) -> str:
        return self.kinds[self.slots[name]]

    def default(self, name: str) -> Any:
        return self.defaults[self.slots[name]]

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, CompiledSchema) and self._key == other._key

    def __ne__(self, other: Any) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"CompiledSchema({self.size} slots)"


def compile_schema(schema) -> CompiledSchema:
    """Accept a :class:`RegisterSchema` or an already compiled one."""
    if isinstance(schema, CompiledSchema):
        return schema
    return schema.compile()


def handle_resolver(compiled: Optional[CompiledSchema]):
    """The register-handle resolver for ``bind_registers`` implementations:
    the identity on names for dict storage, ``name -> slot index`` under a
    compiled schema (raising KeyError on undeclared names, so a component
    that forgot a declaration fails loudly at bind time)."""
    if compiled is None:
        return lambda name: name
    return compiled.slots.__getitem__


class RegisterFile:
    """The name of the retired per-node register-file backend, kept only
    because the per-layer tracer of ``benchmarks/perf`` still patches its
    ``copy`` seam.  Nothing constructs one: ``storage="schema"`` runs on
    the columnar store."""

    def copy(self):  # pragma: no cover - never constructed
        raise NotImplementedError


class RegisterView(MutableMapping):
    """A dict-compatible mutable mapping over one node's row of a
    :class:`~repro.sim.columnar.ColumnStore`.

    Everything that treated node registers as a plain dict — fault
    injectors, markers, reset waves, ``dict(regs)`` snapshots in tests —
    keeps working against this view; writes keep the store's dirty and
    stable-version bookkeeping.  The row is resolved once: churn parks
    a detached node's row instead of reindexing, so it stays valid.
    """

    __slots__ = ("store", "i")

    def __init__(self, store, node) -> None:
        self.store = store
        # a list index maps dense ids to themselves, so plain
        # subscription works for both index representations
        self.i = store.index[node]

    def __getitem__(self, name: str) -> Any:
        v = self.store.get_name(self.i, name, UNSET)
        if v is UNSET:
            raise KeyError(name)
        return v

    def get(self, name: str, default: Any = None) -> Any:
        return self.store.get_name(self.i, name, default)

    def __setitem__(self, name: str, value: Any) -> None:
        self.store.set_name(self.i, name, value)

    def __delitem__(self, name: str) -> None:
        self.store.del_name(self.i, name)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self.store.has_name(self.i, name)

    def __iter__(self) -> Iterator[str]:
        return iter(self.store.node_dict(self.i))

    def __len__(self) -> int:
        return len(self.store.node_dict(self.i))

    def clear(self) -> None:
        self.store.clear_node(self.i)

    def __repr__(self) -> str:
        return f"RegisterView({self.store.node_dict(self.i)!r})"

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, Mapping):
            return self.store.node_dict(self.i) == dict(other)
        return NotImplemented

    def __ne__(self, other: Any) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq
