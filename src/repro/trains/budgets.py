"""Timing budgets of the self-stabilizing verifier.

All watchdog thresholds are deterministic functions of the (verified)
claimed ``n`` — every node computes the same budgets, so the verifier
needs no global coordination:

* a *train cycle* budget: the time one full rotation of a part's pieces
  may take (Theorem 7.1: O(log n) synchronous, O(log^2 n) asynchronous);
* a *root reset* budget: a part root that fails to complete a cycle
  within it resets the train's dynamic state (the "known art"
  self-stabilization of the train, Observation 8.1) — resets repair
  corrupted *working* state silently and never fire in fault-free runs;
* a *node alarm* budget: a node that does not obtain the pieces it needs
  within it raises an alarm (Claim 8.2's "prescribed time bounds");
* an *ask window* (synchronous mode): how long a node exposes a level in
  Ask so that all neighbours' trains are guaranteed to have shown their
  matching piece (Section 7.2.1);
* a *service* budget (asynchronous Want mode): the wait for one server.

The constants are generous multiples of the leading terms; completeness
tests (no alarms on correct instances) and detection-time benchmarks
calibrate them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..labels.wellforming import log_threshold

#: validity horizon of a node's budget ghost cache ``(step_no,
#: Budgets)``: the cached budgets serve a step whose counter is fewer
#: than this many steps past the one that stored them
BUDGET_CACHE_STEPS = 32


@dataclass(frozen=True)
class Budgets:
    """Watchdog thresholds (in rounds / activations)."""

    cycle: int        # one train rotation
    root_reset: int   # part root resets the train after this long
    node_alarm: int   # a starving node raises an alarm after this long
    ask_window: int   # synchronous Ask hold per level
    service: int      # asynchronous wait for one server
    ask_alarm: int    # full Ask-cycle watchdog
    settle: int       # harness: rounds for a clean start to reach steady state


def compute_budgets(n: int, synchronous: bool, degree: int = 1) -> Budgets:
    """Budgets for a node of the given degree in an n-node network."""
    n = max(2, n)
    ell = log_threshold(n)          # hierarchy height bound
    pieces = 2 * ell + 4            # pieces per part (Lemmas 6.4/6.5)
    height = 4 * ell + 8            # part height bound (EDIAM cap)
    if synchronous:
        cycle = 3 * pieces + 2 * height + 16
    else:
        # asynchronous rotations pay up to the part height per piece
        cycle = 2 * pieces * (height + 4) + 32
    root_reset = 2 * cycle
    node_alarm = 8 * cycle
    ask_window = cycle + 8
    service = 2 * cycle + 16
    levels = ell + 2
    if synchronous:
        ask_alarm = 4 * levels * (ask_window + cycle)
    else:
        ask_alarm = 4 * levels * max(1, degree) * service
    settle = 2 * levels * (ask_window + cycle) + node_alarm
    return Budgets(cycle=cycle, root_reset=root_reset,
                   node_alarm=node_alarm, ask_window=ask_window,
                   service=service, ask_alarm=ask_alarm, settle=settle)


def _cycle_time(pieces: int, height: int, synchronous: bool) -> int:
    """One rotation of a part with ``pieces`` pieces and ``height`` height:
    O(pieces + height) synchronous, O(pieces * height) asynchronous
    (Theorem 7.1)."""
    if synchronous:
        return 3 * (pieces + 2) + 2 * (height + 2) + 12
    return 2 * (pieces + 2) * (height + 3) + 24


def node_budgets(ctx, synchronous: bool) -> Budgets:
    """Label-driven budgets: tighter than the worst case, still capped.

    The verified labels carry each part's actual piece count and height
    bound; every node derives its watchdog thresholds from its own part's
    parameters (resets, starvation) and its neighbours' (the ask window
    must cover the *neighbours'* rotation times).  All claims are capped
    at the O(log n) theory bounds, so corrupted labels cannot stretch the
    budgets beyond Theorem 8.5's asymptotics — the static checks reject
    over-cap claims independently.
    """
    from ..labels.registers import (REG_BOT_BOUND, REG_BOT_COUNT, REG_JMASK,
                                    REG_N, REG_TOP_BOUND, REG_TOP_COUNT)

    def nat(x, cap):
        if isinstance(x, int) and not isinstance(x, bool) and 0 <= x <= cap:
            return x
        return cap

    n = nat(ctx.get(REG_N), 1 << 26)
    ell = log_threshold(max(2, n))
    count_cap = 2 * ell + 2
    bound_cap = 4 * ell + 4

    def part_cycle(source_read):
        pieces = max(source_read(REG_TOP_COUNT, count_cap),
                     source_read(REG_BOT_COUNT, count_cap))
        height = max(source_read(REG_TOP_BOUND, bound_cap),
                     source_read(REG_BOT_BOUND, bound_cap))
        return _cycle_time(pieces, height, synchronous)

    own_cycle = part_cycle(lambda reg, cap: nat(ctx.get(reg), cap))
    nbr_cycle = own_cycle
    for u in ctx.neighbors:
        nbr_cycle = max(nbr_cycle, part_cycle(
            lambda reg, cap, u=u: nat(ctx.read(u, reg), cap)))

    jmask = ctx.get(REG_JMASK)
    levels = bin(jmask).count("1") if isinstance(jmask, int) and jmask >= 0 \
        else ell + 1
    levels = min(max(1, levels), ell + 2)

    ask_window = nbr_cycle + 8
    service = 2 * nbr_cycle + 16
    root_reset = 2 * own_cycle
    node_alarm = 8 * max(own_cycle, ask_window)
    if synchronous:
        ask_alarm = 4 * levels * (ask_window + own_cycle)
    else:
        ask_alarm = 4 * levels * max(1, ctx.degree) * service
    settle = 2 * levels * (ask_window + own_cycle) + node_alarm
    return Budgets(cycle=own_cycle, root_reset=root_reset,
                   node_alarm=node_alarm, ask_window=ask_window,
                   service=service, ask_alarm=ask_alarm, settle=settle)
