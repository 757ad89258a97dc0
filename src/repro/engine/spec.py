"""Declarative scenario specifications.

A :class:`ScenarioSpec` pins down one verification experiment completely:
a topology generator, a fault recipe, a scheduler/daemon, a protocol —
each an :class:`Axis` (a registry kind plus frozen parameters) — and one
integer seed from which every random choice in the scenario (weights,
fault sites, daemon shuffles) is derived deterministically.  Specs are
immutable, hashable, and picklable, so a campaign can fan them out over
worker processes and still reproduce any single scenario from its spec
alone.

:func:`grid` expands axis lists into the cartesian product of specs.
Per-scenario seeds are derived by hashing the campaign seed with the
scenario's axis key (not its position), so adding a value to one axis
never reshuffles the seeds of existing scenarios.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from itertools import product
from typing import Any, Iterable, List, Mapping, Optional, Tuple

Params = Tuple[Tuple[str, Any], ...]

#: schedule parameters that select an *implementation* (storage backend,
#: scheduler fast path, dirty awareness, the bulk-activation plane)
#: rather than a different experiment: they are excluded from the seed
#: derivation so that flipping them reproduces the exact same scenario —
#: the storage/bulk differential tests depend on this, and so does
#: comparing benchmark trends across backends.
IMPL_SCHEDULE_PARAMS = frozenset({"storage", "fast_path", "dirty_aware",
                                  "bulk"})


def _freeze(params: Mapping[str, Any]) -> Params:
    return tuple(sorted(params.items()))


@dataclass(frozen=True)
class Axis:
    """One scenario dimension: a registered kind plus its parameters."""

    kind: str
    params: Params = ()

    def param_dict(self) -> dict:
        return dict(self.params)

    def get(self, name: str, default: Any = None) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        return default

    def without(self, names) -> "Axis":
        """This axis minus the given parameter names."""
        kept = tuple((k, v) for k, v in self.params if k not in names)
        return self if kept == self.params else Axis(self.kind, kept)

    def __str__(self) -> str:
        if not self.params:
            return self.kind
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kind}({inner})"


def axis(kind: str, **params: Any) -> Axis:
    """Convenience constructor: ``axis("grid", rows=3, cols=4)``."""
    return Axis(kind, _freeze(params))


# the four roles, purely for readable campaign definitions
topology = axis
fault = axis
schedule = axis
protocol = axis


def derive_seed(base: int, *salts: Any) -> int:
    """A stable 63-bit seed from ``base`` and arbitrary salt values.

    Uses sha256 (never Python's salted ``hash``) so the derivation is
    identical across processes and interpreter runs.
    """
    text = "|".join([str(int(base))] + [str(s) for s in salts])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully pinned-down scenario (see module docstring)."""

    topology: Axis
    fault: Axis = Axis("none")
    schedule: Axis = Axis("sync")
    protocol: Axis = Axis("verifier")
    seed: int = 0
    #: rounds granted to reach steady state before injection (None: derive
    #: from the protocol's budgets for the instance).
    settle_rounds: Optional[int] = None
    #: round budget for detection after the fault (None: derive).
    max_rounds: Optional[int] = None
    #: rounds a no-fault (completeness) scenario is observed for (None:
    #: derive; completeness runs cannot stop early, so this bounds cost).
    completeness_rounds: Optional[int] = None
    #: explicit topology seed (None: derive from the scenario seed).  Set
    #: it to the same value across specs that must run on the *same*
    #: graph instance — e.g. paired protocol comparisons — which the
    #: derived seed cannot provide because it hashes the full axis key.
    topology_seed: Optional[int] = None

    @property
    def key(self) -> str:
        """Compact, unique, human-readable identity of the scenario."""
        return (f"{self.topology}/{self.fault}/{self.schedule}/"
                f"{self.protocol}")

    @property
    def semantic_key(self) -> str:
        """The key minus implementation-only schedule parameters
        (:data:`IMPL_SCHEDULE_PARAMS`): two specs with the same semantic
        key run the same experiment, possibly on different backends."""
        sched = self.schedule.without(IMPL_SCHEDULE_PARAMS)
        return f"{self.topology}/{self.fault}/{sched}/{self.protocol}"

    def derived_seed(self, role: str) -> int:
        """The sub-seed feeding one random component of the scenario.

        Derived from the *semantic* key, so storage/fast-path toggles
        never reshuffle the graph, fault sites, or daemon schedule."""
        return derive_seed(self.seed, self.semantic_key, role)

    def with_seed(self, seed: int) -> "ScenarioSpec":
        return replace(self, seed=seed)


def grid(topologies: Iterable[Axis],
         faults: Iterable[Axis] = (Axis("none"),),
         schedules: Iterable[Axis] = (Axis("sync"),),
         protocols: Iterable[Axis] = (Axis("verifier"),),
         seed: int = 0,
         settle_rounds: Optional[int] = None,
         max_rounds: Optional[int] = None,
         completeness_rounds: Optional[int] = None) -> List[ScenarioSpec]:
    """The cartesian product of the axis values, seeded per scenario.

    ``seed`` is the campaign seed; each scenario receives
    ``derive_seed(seed, key)`` so the whole campaign reproduces from one
    integer and any single scenario reproduces from its spec.
    """
    specs: List[ScenarioSpec] = []
    for topo, flt, sched, proto in product(topologies, faults, schedules,
                                           protocols):
        spec = ScenarioSpec(topology=topo, fault=flt, schedule=sched,
                            protocol=proto, seed=0,
                            settle_rounds=settle_rounds,
                            max_rounds=max_rounds,
                            completeness_rounds=completeness_rounds)
        # semantic key: cells differing only in implementation parameters
        # (storage backend, fast path) share a seed, so backend sweeps
        # are paired comparisons on the same instances
        specs.append(spec.with_seed(derive_seed(seed, spec.semantic_key)))
    return specs
