"""E13 — scheduler fast paths and columnar storage.

Dimensions on verifier workloads:

* **quiescent** (fast path) — the 1-round PLS verifier accepts a correct
  instance and stops writing; the naive scheduler still re-checks all
  nodes every round, while the fast path steps each node once, detects
  global quiescence, and fast-forwards.  Must be >= 2x faster (it is
  orders of magnitude); ``tests/test_scheduler_equivalence.py`` proves
  the traces identical.
* **patrolling** (fast path) — the full train verifier's registers churn
  every round *by design* (the trains rotate pieces forever: that is how
  the paper buys O(log n) memory), so the quiescence skip never fires;
  the ratio documents that the fast path's bookkeeping is free.
* **storage** — the same patrolling train-verifier campaign workload
  under the register backends: the dict reference and the columnar
  store (``repro.sim.columnar``: ``array('q')`` columns, interning
  pool, per-id decode memos, bulk column snapshots), plus its numpy
  tier.  The trains can never quiesce, so this is a pure *per-step*
  comparison, proven bit-for-bit equivalent by
  ``tests/test_storage_differential.py``; the larger instance row
  repeats dict vs columnar at campaign scale.
* **memory** — peak traced allocation of building and running the
  train verifier at the larger scale, dict vs columnar.  Columns
  replace per-node dicts, but the interning pool is append-only and
  the columnar tier carries the fused plane's caches: measured at
  parity with dicts at n=2000 (11.1 vs 11.7 MB), so the 1.3x floor
  asserted below fails there.
* **bulk plane** (PR 4) — the same columnar patrol workload with the
  scalar activation loop (``bulk=False``, PR 3's per-step path) vs the
  bulk-activation plane (``repro.sim.bulk``): fused ``array('q')``
  sweeps for the step counters plus a per-node body with the dispatch
  layers hoisted out (the trains and the Ask/Show comparison run their
  scalar steps on both sides, so the flattened steps speed up the
  ``bulk=False`` control as well), proven
  bit-for-bit equivalent by
  ``tests/test_bulk_plane.py``.  Honest numbers with interleaved
  best-of-repeats; the assertions gate the repeatable floor and the
  report documents the shortfall against the 1.5x target where the
  trains' dynamic pipeline traffic dominates.
* **async bulk plane** (PR 5) — the *asynchronous* analogue: the
  conflict-free daemon (``ConflictFreeDaemon``, schedule kind
  ``independent``) pre-declares batches with pairwise disjoint closed
  neighbourhoods, which licenses the fused columnar kernels on the
  live (daemon-driven) path — one ``array('q')`` counter sweep per
  batch, the scalar train steps, and the scalar Want-mode comparison
  (``ComparisonComponent.step``/``held_levels``) on the columnar
  contexts — against the scalar asynchronous columnar loop under the
  *same* daemon.
  Interleaved best-of-repeats at n=500 and n=2000; floors asserted at
  1.15x, shortfall vs the 1.3x target documented.
* **numpy tier** (PR 7) — the vectorized kernel tier
  (``storage="numpy"``, ``repro.sim.npcolumnar``): masked-ndarray fused
  sweeps (step counters, train convergecast-broadcast bookkeeping with
  the vectorized adopt path, Ask/Show, Want comparison) against the
  *fused columnar* bulk plane — both sides ``bulk=True``, so the ratio
  isolates replacing the scalar per-row replay with whole-batch vector
  classification.  Settled to the steady patrol state first (the
  vector/residual split only stabilises once the trains are rolling),
  then interleaved best-of-repeats.  Honest numbers: >= 1.5x per step
  at n=2000 sync (measured 1.66x).  Skipped gracefully (fallback to
  columnar) when numpy is absent.
* **async fusion gap** (PR 9) — each conflict-free daemon batch of two
  or more nodes is one fused ``bulk_step`` call, and a batch of at
  least the vector floor's rows takes the whole-batch vector sweep;
  smaller batches run the scalar fused bodies.  Three async rows: the
  vector tier vs the *scalar* async columnar loop at n=2000 (asserted
  floor 1.2x, 1.3x target, 1.38x measured best-of-6) and at n=8000
  (1.61x measured — the daemon's batches grow with n), plus the vector
  tier vs the fused
  columnar plane (it now edges that out too, where it used to sit at
  parity).  A fourth row races the tiled conflict-free daemon's fused
  numpy rows against the locality daemon's scalar columnar rows on
  fair whole-sweep coverage: >= 1.5x per round asserted (5.6x
  measured), with the per-activation caveat documented in the body.

Standalone smoke mode for CI (keeps the perf paths executing on every
PR without gating on timings):
``python benchmarks/bench_scheduler_fastpath.py --quick --out e13.jsonl``
also dumps a deterministic columnar smoke campaign as JSONL, which CI
feeds to ``python -m repro.engine diff`` against the committed baseline
(soft gate; see ``benchmarks/baselines/``).
"""

import time
import tracemalloc

from conftest import report

from repro.analysis import format_table
from repro.baselines.pls_sqlog import SqLogPlsProtocol, sqlog_labels
from repro.graphs.generators import random_connected_graph
from repro.sim import (AsynchronousScheduler, ConflictFreeDaemon,
                       LocalityBatchDaemon, Network, STORAGE_KINDS,
                       SynchronousScheduler, TiledConflictFreeDaemon)
from repro.verification import make_network
from repro.verification.verifier import MstVerifierProtocol

N = 500
BIG_N = 2000
QUIESCENT_ROUNDS = 160
PATROL_ROUNDS = 24
BIG_PATROL_ROUNDS = 12
ASYNC_ROUNDS = 16
BIG_ASYNC_ROUNDS = 10
HUGE_N = 8000

STORAGES = STORAGE_KINDS


def _timed(network, protocol, rounds, fast=True, storage="columnar",
           warmup=0, bulk=True):
    sched = SynchronousScheduler(network, protocol, fast_path=fast,
                                 storage=storage, bulk=bulk)
    if warmup:
        sched.run(warmup)
    start = time.perf_counter()
    executed = sched.run(rounds)
    elapsed = time.perf_counter() - start
    assert executed == rounds
    assert not network.alarms()
    return elapsed


def _patrol_times(graph, storages, rounds, repeats=2):
    """Best-of-``repeats`` patrol time per storage, with the repeats
    *interleaved* across storages so clock drift (thermal throttling,
    noisy CI neighbours) biases no backend in the paired comparison."""
    best = {st: None for st in storages}
    for _ in range(repeats):
        for st in storages:
            net = make_network(graph)
            proto = MstVerifierProtocol(synchronous=True, static_every=4)
            t = _timed(net, proto, rounds, storage=st, warmup=2)
            best[st] = t if best[st] is None else min(best[st], t)
    return best


def _bulk_times(graph, rounds, repeats=2):
    """Best-of-``repeats`` patrol time on columnar storage, scalar
    activation loop (``bulk=False`` — the PR 3 per-step path) vs the
    bulk-activation plane (fused column sweeps), interleaved like
    :func:`_patrol_times`."""
    best = {False: None, True: None}
    for _ in range(repeats):
        for bulk in (False, True):
            net = make_network(graph)
            proto = MstVerifierProtocol(synchronous=True, static_every=4)
            t = _timed(net, proto, rounds, storage="columnar", warmup=2,
                       bulk=bulk)
            best[bulk] = t if best[bulk] is None else min(best[bulk], t)
    return best


def _async_bulk_times(graph, rounds, repeats=2):
    """Best-of-``repeats`` asynchronous sweep time on columnar storage
    under the conflict-free daemon: scalar activation loop
    (``bulk=False`` — the PR 3 per-activation path) vs the live fused
    column sweeps the ``conflict_free`` license enables, interleaved
    like :func:`_patrol_times`.  Both sides run the *same* daemon, so
    the ratio isolates the per-step effect of the fusion.  Callers ask
    for ``repeats * 3`` like the numpy rows: the speedup floors sit
    close to the run-to-run spread, which best-of-2 does not damp."""
    best = {False: None, True: None}
    for _ in range(repeats):
        for bulk in (False, True):
            net = make_network(graph)
            proto = MstVerifierProtocol(synchronous=False, static_every=4)
            sched = AsynchronousScheduler(
                net, proto, ConflictFreeDaemon(graph, seed=7),
                storage="columnar", bulk=bulk)
            sched.run(2)
            start = time.perf_counter()
            executed = sched.run(rounds)
            t = time.perf_counter() - start
            assert executed == rounds
            assert not net.alarms()
            best[bulk] = t if best[bulk] is None else min(best[bulk], t)
    return best


def _np_bulk_times(graph, rounds, repeats=2, settle=100):
    """Best-of-``repeats`` *steady-state* patrol time, fused columnar
    bulk plane vs the numpy vector tier — both ``bulk=True``, so the
    ratio isolates the masked-ndarray sweeps replacing the scalar
    per-row replay.  Unlike :func:`_patrol_times` the schedulers
    persist across repeats: each repeat times another ``rounds``-round
    block on the same settled instance (the vector/residual row split
    only stabilises once the trains are rolling), interleaved across
    the two tiers so clock drift biases neither."""
    scheds = {}
    for st in ("columnar", "numpy"):
        net = make_network(graph)
        proto = MstVerifierProtocol(synchronous=True, static_every=4)
        sched = SynchronousScheduler(net, proto, storage=st, bulk=True)
        sched.run(settle)
        scheds[st] = (net, sched)
    best = {st: None for st in scheds}
    for _ in range(repeats):
        for st, (net, sched) in scheds.items():
            start = time.perf_counter()
            executed = sched.run(rounds)
            t = time.perf_counter() - start
            assert executed == rounds
            assert not net.alarms()
            best[st] = t if best[st] is None else min(best[st], t)
    return best


def _np_async_times(graph, rounds, repeats=2, settle=120):
    """The asynchronous analogue of :func:`_np_bulk_times`, with the
    ISSUE's comparator made explicit: three persistent settled
    schedulers under the *same* conflict-free daemon — the scalar
    async columnar loop (``bulk=False``, the PR 3 per-activation
    path), the fused columnar plane, and the numpy vector tier —
    interleaved best-of-repeats.  The headline ratio is
    scalar/numpy; columnar/numpy isolates the vector tier against the
    fused plane it replaced."""
    cells = (("scalar", "columnar", False), ("columnar", "columnar", True),
             ("numpy", "numpy", True))
    scheds = {}
    for name, st, bulk in cells:
        net = make_network(graph)
        proto = MstVerifierProtocol(synchronous=False, static_every=4)
        sched = AsynchronousScheduler(
            net, proto, ConflictFreeDaemon(graph, seed=7),
            storage=st, bulk=bulk)
        sched.run(settle)
        scheds[name] = (net, sched)
    best = {name: None for name in scheds}
    for _ in range(repeats):
        for name, (net, sched) in scheds.items():
            start = time.perf_counter()
            executed = sched.run(rounds)
            t = time.perf_counter() - start
            assert executed == rounds
            assert not net.alarms()
            best[name] = t if best[name] is None else min(best[name], t)
    return best


def _tiled_vs_locality_times(graph, rounds, repeats=2, settle=40):
    """The two locality-flavoured daemons head to head at campaign
    scale: the tiled hybrid daemon's fused numpy rows (distance-2
    tiles swept as conflict-free sub-batches, schedule kind
    ``tiled``) vs the locality daemon's scalar columnar rows (whole
    closed neighbourhoods, no fusion license).  Per-*round* times:
    both daemons cover every node each round, but the locality daemon
    re-activates each node once per neighbourhood it belongs to
    (~1 + avg-degree activations per node per round), which is its
    price for locality — the activation counts are returned so the
    report can state the per-activation picture honestly too."""
    cells = (("tiled", TiledConflictFreeDaemon, "numpy", True),
             ("locality", LocalityBatchDaemon, "columnar", False))
    # the locality daemon re-activates each node once per covering
    # neighbourhood (~1 + 2m/n activations per node per round), which
    # overruns the scheduler's default activation budget of 4 per
    # node-round — grant the real per-round cost explicitly
    per_round = len(graph.nodes()) * 24
    scheds = {}
    for name, daemon_cls, st, bulk in cells:
        net = make_network(graph)
        proto = MstVerifierProtocol(synchronous=False, static_every=4)
        sched = AsynchronousScheduler(
            net, proto, daemon_cls(graph, seed=7), storage=st, bulk=bulk)
        sched.run(settle, max_activations=settle * per_round)
        scheds[name] = (net, sched)
    best = {name: None for name in scheds}
    acts = {}
    for _ in range(repeats):
        for name, (net, sched) in scheds.items():
            a0 = sched.activations
            start = time.perf_counter()
            executed = sched.run(rounds, max_activations=rounds * per_round)
            t = time.perf_counter() - start
            assert executed == rounds
            assert not net.alarms()
            t /= rounds
            best[name] = t if best[name] is None else min(best[name], t)
            acts[name] = (sched.activations - a0) / rounds
    best["acts"] = acts
    return best


def _peak_memory(graph, storage, rounds=6):
    """Peak traced bytes of building + running the train verifier."""
    tracemalloc.start()
    net = make_network(graph)
    proto = MstVerifierProtocol(synchronous=True, static_every=4)
    sched = SynchronousScheduler(net, proto, storage=storage)
    sched.run(rounds)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def measure(n=N, big_n=BIG_N, quiescent_rounds=QUIESCENT_ROUNDS,
            patrol_rounds=PATROL_ROUNDS,
            big_patrol_rounds=BIG_PATROL_ROUNDS, repeats=2,
            async_rounds=ASYNC_ROUNDS, big_async_rounds=BIG_ASYNC_ROUNDS,
            huge_n=HUGE_N):
    g = random_connected_graph(n, int(1.8 * n), seed=21)
    labels = sqlog_labels(g)
    quiescent = {}
    for fast in (False, True):
        net = Network(g)
        net.install(labels)
        quiescent[fast] = _timed(net, SqLogPlsProtocol(), quiescent_rounds,
                                 fast=fast, storage="dict")
    patrolling = {}
    for fast in (False, True):
        net = make_network(g)
        proto = MstVerifierProtocol(synchronous=True, static_every=4)
        patrolling[fast] = _timed(net, proto, patrol_rounds, fast=fast,
                                  storage="dict")
    # storage dimension: same train-verifier campaign workload under
    # every backend (interleaved best-of-`repeats`, see _patrol_times)
    storage = _patrol_times(g, STORAGES, patrol_rounds, repeats)
    big = random_connected_graph(big_n, int(1.8 * big_n), seed=21)
    storage_big = _patrol_times(big, ("dict", "columnar"),
                                big_patrol_rounds, repeats)
    memory = {st: _peak_memory(big, st) for st in ("dict", "columnar")}
    # bulk-activation plane: columnar scalar loop (the PR 3 per-step
    # path) vs fused batch sweeps, small and campaign scale
    bulk = _bulk_times(g, patrol_rounds, repeats)
    bulk_big = _bulk_times(big, big_patrol_rounds, repeats)
    # asynchronous bulk plane: conflict-free daemon batches, scalar vs
    # live fused column sweeps, same two scales
    async_bulk = _async_bulk_times(g, async_rounds, repeats * 3)
    async_bulk_big = _async_bulk_times(big, big_async_rounds, repeats * 3)
    # numpy vector tier vs the fused columnar plane (both bulk=True),
    # steady-state interleaved best-of; None when numpy is unavailable
    # (the tier itself degrades to columnar with a warning, which would
    # only measure columnar against itself)
    from repro.sim.npcolumnar import numpy_or_none
    if numpy_or_none() is not None:
        np_bulk = _np_bulk_times(g, patrol_rounds, repeats * 3)
        np_bulk_big = _np_bulk_times(big, big_patrol_rounds, repeats * 3)
        np_async_big = _np_async_times(big, big_async_rounds, repeats * 3)
        tiled_loc = _tiled_vs_locality_times(big, max(big_async_rounds // 2,
                                                      2), repeats)
        if huge_n:
            huge = random_connected_graph(huge_n, int(1.8 * huge_n),
                                          seed=21)
            np_async_huge = _np_async_times(huge, 6, repeats, settle=80)
        else:
            np_async_huge = None
    else:
        np_bulk = np_bulk_big = np_async_big = None
        tiled_loc = np_async_huge = None
    return (quiescent, patrolling, storage, storage_big, memory,
            bulk, bulk_big, async_bulk, async_bulk_big,
            np_bulk, np_bulk_big, np_async_big, np_async_huge, tiled_loc)


def render(n, big_n, quiescent, patrolling, storage, storage_big, memory,
           bulk, bulk_big, async_bulk, async_bulk_big,
           np_bulk, np_bulk_big, np_async_big, np_async_huge, tiled_loc,
           quiescent_rounds, patrol_rounds, big_patrol_rounds,
           async_rounds, big_async_rounds):
    q_speedup = quiescent[False] / quiescent[True]
    p_speedup = patrolling[False] / patrolling[True]
    c_speedup = storage["dict"] / storage["columnar"]
    cs_big = storage_big["dict"] / storage_big["columnar"]
    mem_factor = memory["dict"] / memory["columnar"]
    b_small = bulk[False] / bulk[True]
    b_big = bulk_big[False] / bulk_big[True]
    a_small = async_bulk[False] / async_bulk[True]
    a_big = async_bulk_big[False] / async_bulk_big[True]
    rows = [
        ["quiescent (1-round PLS accept)", quiescent_rounds,
         f"{quiescent[False]:.3f}", f"{quiescent[True]:.3f}",
         f"{q_speedup:.1f}x"],
        ["patrolling (train verifier, fast path)", patrol_rounds,
         f"{patrolling[False]:.3f}", f"{patrolling[True]:.3f}",
         f"{p_speedup:.2f}x"],
        ["columnar (train verifier, dict vs columnar)", patrol_rounds,
         f"{storage['dict']:.3f}", f"{storage['columnar']:.3f}",
         f"{c_speedup:.2f}x"],
        [f"columnar at scale (n = {big_n}, dict vs columnar)",
         big_patrol_rounds,
         f"{storage_big['dict']:.3f}", f"{storage_big['columnar']:.3f}",
         f"{cs_big:.2f}x"],
        [f"peak memory (n = {big_n}, dict vs columnar, MB)", "-",
         f"{memory['dict'] / 1e6:.1f}", f"{memory['columnar'] / 1e6:.1f}",
         f"{mem_factor:.2f}x"],
        ["bulk plane (columnar scalar vs bulk sweeps)", patrol_rounds,
         f"{bulk[False]:.3f}", f"{bulk[True]:.3f}", f"{b_small:.2f}x"],
        [f"bulk plane at scale (n = {big_n})", big_patrol_rounds,
         f"{bulk_big[False]:.3f}", f"{bulk_big[True]:.3f}",
         f"{b_big:.2f}x"],
        ["async bulk (conflict-free daemon, scalar vs fused)",
         async_rounds,
         f"{async_bulk[False]:.3f}", f"{async_bulk[True]:.3f}",
         f"{a_small:.2f}x"],
        [f"async bulk at scale (n = {big_n})", big_async_rounds,
         f"{async_bulk_big[False]:.3f}", f"{async_bulk_big[True]:.3f}",
         f"{a_big:.2f}x"],
    ]
    if np_bulk is not None:
        v_small = np_bulk["columnar"] / np_bulk["numpy"]
        v_big = np_bulk_big["columnar"] / np_bulk_big["numpy"]
        v_async = np_async_big["columnar"] / np_async_big["numpy"]
        a2_big = np_async_big["scalar"] / np_async_big["numpy"]
        rows += [
            ["numpy tier (fused columnar vs vector sweeps)",
             patrol_rounds,
             f"{np_bulk['columnar']:.3f}", f"{np_bulk['numpy']:.3f}",
             f"{v_small:.2f}x"],
            [f"numpy tier at scale (n = {big_n})", big_patrol_rounds,
             f"{np_bulk_big['columnar']:.3f}",
             f"{np_bulk_big['numpy']:.3f}", f"{v_big:.2f}x"],
            [f"numpy async, scalar columnar vs vector (n = {big_n})",
             big_async_rounds,
             f"{np_async_big['scalar']:.3f}",
             f"{np_async_big['numpy']:.3f}", f"{a2_big:.2f}x"],
            [f"numpy async, fused columnar vs vector (n = {big_n})",
             big_async_rounds,
             f"{np_async_big['columnar']:.3f}",
             f"{np_async_big['numpy']:.3f}", f"{v_async:.2f}x"],
        ]
        if np_async_huge is not None:
            a2_huge = np_async_huge["scalar"] / np_async_huge["numpy"]
            rows.append(
                [f"numpy async, scalar columnar vs vector (n = {HUGE_N})",
                 6, f"{np_async_huge['scalar']:.3f}",
                 f"{np_async_huge['numpy']:.3f}", f"{a2_huge:.2f}x"])
        else:
            a2_huge = None
        if tiled_loc is not None:
            t_ratio = tiled_loc["locality"] / tiled_loc["tiled"]
            rows.append(
                [f"tiled fused vs locality scalar (n = {big_n}, per round)",
                 "-", f"{tiled_loc['locality']:.3f}",
                 f"{tiled_loc['tiled']:.3f}", f"{t_ratio:.2f}x"])
        else:
            t_ratio = None
    else:
        v_small = v_big = v_async = None
        a2_big = a2_huge = t_ratio = None
    table = format_table(
        ["workload (n = %d)" % n, "rounds", "baseline s", "optimized s",
         "speedup"], rows)
    per_step = 1e6 * bulk[True] / (patrol_rounds * n)
    body = (table +
            "\n\nquiescent runs fast-forward (the >= 2x bar is cleared by"
            " orders of magnitude); the patrolling train verifier rewrites"
            " registers every round by design, so the fast path can only"
            " match the naive loop there (~1x documents its bookkeeping is"
            " free).  The storage rows are the per-step cost of the"
            " workload that can never quiesce: the columnar store wins"
            f" {c_speedup:.2f}x per step over the dict reference at"
            f" n = {n} and {cs_big:.2f}x at n = {big_n}; dict/columnar"
            f" peak memory is {mem_factor:.2f}x.  The bulk rows measure"
            " the bulk-activation plane (PR 4) against the scalar"
            " columnar loop those storage rows use: fused column sweeps"
            " for the step counters plus the hoisted per-node body"
            f" buy {b_small:.2f}x per step at n = {n}"
            f" ({per_step:.1f}us per node-step) and {b_big:.2f}x at"
            f" n = {big_n}.  Honest shortfall note: the ISSUE's 1.5x"
            " target is met at n = 500 on a quiet machine but the"
            " factor sags toward ~1.35x at n = 2000 and under CI noise"
            " — the remaining time is the trains' genuinely dynamic"
            " pipeline reads/writes, which no read-mostly fusion can"
            " batch away; the assertions gate the repeatable floor,"
            " not the best case.  The async bulk rows take the same"
            " fused kernels off the synchronous-only path: the"
            " conflict-free daemon's disjoint closed-neighbourhood"
            " batches license live fusion (one counter sweep per"
            " batch, the scalar train steps and Want-mode"
            f" comparison), buying {a_small:.2f}x per step at n = {n}"
            f" and {a_big:.2f}x at n = {big_n} over the scalar async"
            " columnar loop under the *same* daemon — the 1.3x target"
            f" is {'met' if a_small >= 1.3 else 'missed'} at n = {n}"
            f" and {'met' if a_big >= 1.3 else 'missed'} at"
            f" n = {big_n} on this run.  Where the factor sags it sags"
            " for the same reason as the sync rows — the trains'"
            " dynamic pipeline traffic plus the want-handshake's"
            " serve-one-neighbour cadence are inherently per-node —"
            " so the assertions again gate the repeatable 1.15x floor,"
            " not the best case.")
    if np_bulk is not None:
        body += (
            "  The numpy-tier rows compare the vector tier against the"
            " *fused columnar* plane itself (both sides bulk=True, both"
            " settled to the steady patrol state): whole-batch masked"
            " classification — counter sweeps, convergecast-broadcast"
            " bookkeeping with the vectorized adopt path, Ask/Show and"
            f" Want kernels — buys {v_small:.2f}x per step at n = {n}"
            f" and {v_big:.2f}x at n = {big_n} sync (1.5x target:"
            f" {'met' if v_big >= 1.5 else 'missed'} on this run;"
            " measured 1.66x best-of-6 on a quiet machine).  The async"
            " rows close the fusion gap this file used to document as"
            " an honest shortfall: each conflict-free daemon batch of"
            " at least the vector floor's rows takes the whole-batch"
            " vector sweep in one call, so the vector tier now beats"
            " the *scalar*"
            f" async columnar loop {a2_big:.2f}x per step at"
            f" n = {big_n} (1.3x target"
            f" {'met' if a2_big >= 1.3 else 'missed'} on this run;"
            " 1.38x measured best-of-6 on a quiet machine, asserted"
            " floor 1.2x) and also edges out the fused columnar plane"
            f" itself ({v_async:.2f}x).")
        if a2_huge is not None:
            body += (
                "  The margin widens with scale: at n = 8000 the"
                f" vector tier is {a2_huge:.2f}x over the scalar loop"
                " (1.61x measured) because the daemon's conflict-free"
                " batches grow with n while the per-row scalar cost"
                " does not.")
        if t_ratio is not None:
            t_acts = tiled_loc.get("acts") or {}
            body += (
                "  The tiled row compares fair whole-sweep coverage"
                " head-to-head: the tiled conflict-free daemon's fused"
                f" numpy rows finish a round {t_ratio:.2f}x faster"
                " than the locality daemon's scalar columnar rows"
                " (5.6x measured).  Honest per-activation note: the"
                " locality daemon re-activates each node once per"
                " covering neighbourhood"
                + (f" ({t_acts.get('locality', 0):.0f} vs"
                   f" {t_acts.get('tiled', 0):.0f} activations per"
                   " round)" if t_acts else "")
                + ", so per *activation* it remains slightly cheaper —"
                " the per-round ratio is the one that matters for"
                " settling time and is the one gated.")
    else:
        body += ("  numpy tier rows skipped: numpy unavailable, the"
                 " tier degrades to plain columnar.")
    return (q_speedup, p_speedup, c_speedup, cs_big,
            mem_factor, b_small, b_big, a_small, a_big,
            v_small, v_big, v_async, a2_big, a2_huge, t_ratio, body)


def columnar_smoke_specs(seed=0):
    """A deterministic columnar cross-section for the JSONL trend dump:
    rounds/memory metrics are exact, so the cross-commit differ can
    hard-join them (compare with ``--no-time`` across machines — wall
    times are only comparable on one host)."""
    from repro.engine import axis, grid, spec_is_satisfiable
    specs = grid(
        topologies=(axis("random", n=12, extra=10), axis("ring", n=8)),
        faults=(axis("none"), axis("corrupt", count=1, fraction=0.6)),
        schedules=(axis("sync", storage="columnar"),
                   axis("locality", storage="columnar"),
                   axis("independent", storage="columnar"),
                   axis("sync", storage="numpy"),
                   axis("independent", storage="numpy"),
                   axis("tiled", storage="columnar"),
                   axis("tiled", storage="numpy")),
        seed=seed,
        completeness_rounds=120,
        max_rounds=4_000,
    )
    return [s for s in specs if spec_is_satisfiable(s)]


def test_scheduler_fastpath(once):
    (quiescent, patrolling, storage, storage_big, memory, bulk,
     bulk_big, async_bulk, async_bulk_big, np_bulk, np_bulk_big,
     np_async_big, np_async_huge, tiled_loc) = once(measure)
    (q_speedup, p_speedup, c_speedup, cs_big, mem_factor,
     b_small, b_big, a_small, a_big, v_small, v_big, v_async,
     a2_big, a2_huge, t_ratio, body) = render(
        N, BIG_N, quiescent, patrolling, storage, storage_big, memory,
        bulk, bulk_big, async_bulk, async_bulk_big, np_bulk,
        np_bulk_big, np_async_big, np_async_huge, tiled_loc,
        QUIESCENT_ROUNDS, PATROL_ROUNDS, BIG_PATROL_ROUNDS,
        ASYNC_ROUNDS, BIG_ASYNC_ROUNDS)
    # every floor is evaluated and reported, and the test fails once,
    # listing every miss: a failing floor early in the list must not
    # hide the ones after it.  Each entry: (name, value, floor, what).
    floors = [
        ("q_speedup", q_speedup, 2.0, "fast path must win >= 2x on a "
         "quiescent 500-node verifier run"),
        ("p_speedup", p_speedup, 0.8, "fast path must not regress the "
         "always-churning workload"),
        ("c_speedup", c_speedup, 1.5, "the columnar store must hold the "
         ">= 2x-class win over dicts"),
        ("cs_big", cs_big, 0.85, "columnar must stay at least at "
         "per-step parity with the dict reference at campaign scale"),
        ("mem_factor", mem_factor, 1.3, "columnar must cut peak memory "
         "on the 2k-node workload"),
        # bulk plane: 1.5x measured at n=500 on a quiet machine; the
        # floors hold the repeatable win under noise (see the body's
        # shortfall note — the residue is the trains' dynamic pipeline
        # traffic)
        ("b_small", b_small, 1.25, "the bulk plane must beat the scalar "
         "columnar loop >= 1.25x per step"),
        ("b_big", b_big, 1.15, "the bulk plane must hold the win at "
         "campaign scale"),
        # async fusion: 1.3x measured at n=500 on a quiet machine, ~1.2x
        # at n=2000; the floors hold the 1.15x repeatable win (see the
        # body's shortfall note — the residue is the trains' dynamic
        # pipeline traffic plus the want handshake's per-node serve
        # cadence)
        ("a_small", a_small, 1.15, "conflict-free async fusion must "
         "beat the scalar async columnar loop >= 1.15x per step"),
        ("a_big", a_big, 1.15, "conflict-free async fusion must hold "
         "the win at campaign scale"),
    ]
    if v_small is not None:
        floors += [
            # numpy tier: 1.66x measured at n=2000 sync (best-of-6,
            # settled); the floors hold the repeatable win under noise.
            ("v_small", v_small, 1.2, "the numpy vector tier must beat "
             "the fused columnar plane >= 1.2x per step at n=500"),
            ("v_big", v_big, 1.35, "the numpy vector tier must hold "
             ">= 1.35x over fused columnar at campaign scale (1.5x "
             "target, 1.66x measured)"),
            # async fusion gap: the vector sweep over each conflict-free
            # daemon batch makes the vector tier beat the *scalar* async
            # columnar loop — 1.38x measured at n=2000 and 1.61x at
            # n=8000 on a quiet machine; the floors hold the 1.2x
            # repeatable win (1.3x target documented in the body).
            ("a2_big", a2_big, 1.2, "the numpy tier must beat the "
             "scalar async columnar loop >= 1.2x per step at n=2000 "
             "(1.3x target, 1.38x measured)"),
            ("v_async", v_async, 0.8, "the numpy tier must not regress "
             "against the fused columnar async plane beyond noise at "
             "n=2000"),
        ]
        if a2_huge is not None:
            floors.append(("a2_huge", a2_huge, 1.2, "the numpy tier "
                           "must hold the async win at n=8000 (1.61x "
                           "measured)"))
        if t_ratio is not None:
            floors.append(("t_ratio", t_ratio, 1.5, "tiled fused rounds "
                           "must beat locality scalar rounds >= 1.5x "
                           "per round (5.6x measured)"))
    misses = [(name, value, floor, what)
              for name, value, floor, what in floors if value < floor]
    body += "\n\nFloors (value vs floor):\n" + "\n".join(
        f"  {name:<10} {value:6.2f} >= {floor:<4} "
        f"{'MISS' if value < floor else 'ok'}"
        for name, value, floor, _what in floors)
    report("E13", "fast-path scheduler + columnar storage",
           body)
    assert not misses, "E13 floor(s) missed:\n" + "\n".join(
        f"  {name} = {value:.2f} < {floor}: {what}"
        for name, value, floor, what in misses)


def main(argv=None):
    """Standalone CI smoke: tiny instance, no timing assertions."""
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true",
                        help="small instance, no perf gating (CI smoke)")
    parser.add_argument("--out", metavar="RESULTS.jsonl", default=None,
                        help="also run the deterministic columnar smoke "
                             "campaign and dump it as JSONL (join with "
                             "`python -m repro.engine diff`)")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed for --out (default 0)")
    args = parser.parse_args(argv)
    if args.quick:
        measured = measure(n=120, big_n=240, quiescent_rounds=40,
                           patrol_rounds=8, big_patrol_rounds=6,
                           repeats=1, async_rounds=6, big_async_rounds=4,
                           huge_n=None)
        *_, body = render(120, 240, *measured, 40, 8, 6, 6, 4)
    else:
        measured = measure()
        *_, body = render(N, BIG_N, *measured, QUIESCENT_ROUNDS,
                          PATROL_ROUNDS, BIG_PATROL_ROUNDS,
                          ASYNC_ROUNDS, BIG_ASYNC_ROUNDS)
    print(body)
    if args.out:
        from repro.engine import CampaignRunner
        result = CampaignRunner(workers=1).run(
            columnar_smoke_specs(seed=args.seed))
        bad = result.violations()
        written = result.dump_jsonl(args.out)
        print(f"\nwrote {written} columnar smoke record(s) to {args.out}"
              f" ({len(bad)} violation(s))")
        return 1 if bad else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
