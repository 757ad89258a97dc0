"""The five perf-benchmark workloads: inputs, timed loop, and oracle.

Every workload is a closed loop driven from the one process that runs
it (``matrix`` adds the campaign engine's two supervised workers).  Its
inputs come from the run seed alone, it measures for a fixed number of
seconds, and it checks every output it produced:

* ``matrix`` and ``faults`` repeat one campaign unit, identical inputs
  every repetition, and report the median repetition.  Every cell must
  end ``ok`` (completeness and soundness hold, no error), and every
  repetition must reproduce, record for record, the reference dump of
  the seed when one is committed (``reference/<workload>-seed<S>.jsonl``)
  and the first repetition otherwise;
* the three ``patrol-*`` workloads settle one honest instance, then time
  4-round blocks of the train verifier's perpetual patrol and report
  the median block.  No block may alarm or run short, every node's step
  counter must account for every activation, the settled state must
  digest the same in every set-up repetition, and at a fixed checkpoint
  the register digest must equal ``reference/patrol.json`` for the
  seed.  ``patrol-sync`` and ``patrol-nonumpy`` run the same instance on
  the numpy and the plain columnar tier, so they share one reference.

Timings are reported in *reference seconds*.  Shared hosts drift in
speed by tens of percent over seconds, which no median over one run can
remove.  So timings are scaled by ``CALIB_REF / t``, where ``t`` is the
time of a fixed pure-Python loop measured around them: before and after
each patrol block and set-up repetition (:func:`calibrate`), and before
every campaign cell in the process that runs it (:class:`CellSpeed`).
A host running the loop at reference speed reports plain seconds.  The
unscaled rates ride along in the run's result (``raw``).

The workload functions return an :class:`Outcome`; ``harness.py`` turns
it into the run's metrics.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine import supervise
from repro.engine.campaigns import (adversarial_labeling_matrix,
                                    soundness_completeness_matrix)
from repro.engine.runner import CampaignRunner, scenario_record
from repro.engine.scenarios import clear_instance_cache
from repro.engine.spec import ScenarioSpec, axis, derive_seed
from repro.graphs.generators import random_connected_graph
from repro.sim import (AsynchronousScheduler, ConflictFreeDaemon, Network,
                       SynchronousScheduler)
from repro.sim.npcolumnar import numpy_or_none
from repro.sim.snapshot import capture_network
from repro.verification import marker as marker_mod
from repro.verification.verifier import REG_VSTEP, MstVerifierProtocol

from tracer import Tracer, TracePatches

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: seconds :func:`calibrate` takes on the reference host (an
#: Intel Xeon vCPU of a 2-vCPU VM, Python 3.11, when it runs unloaded)
CALIB_REF = 7.5e-4

#: set-up repetitions per run (``setup_s`` reports their median)
SETUP_REPS = 3

#: fewest campaign repetitions per run: the first in-process repetition
#: fills process-wide caches, so the median must come from warm ones
MIN_REPS = 3

#: record fields that are timings or implementation accounting, not
#: outputs: the oracle ignores them
VOLATILE_FIELDS = frozenset({
    "wall_time", "attempts", "rows_fused", "rows_residual", "rows_scalar",
    "plan_rebuilds", "plan_refreshes", "super_batches",
    "batches_coalesced"})

#: the faults workload's two instances share this topology seed in every
#: run; the run seed moves the fault sites, daemon schedules and churn
#: scripts (per-instance cost differences would otherwise swamp the
#: run-to-run spread)
FAULTS_TOPOLOGY_SEED = 11

FAULTS_TOPOLOGIES = {
    False: (axis("random", n=32, extra=58),
            axis("subdivided", base_n=5, extra=5, tau=2)),
    True: (axis("random", n=12, extra=10),
           axis("subdivided", base_n=4, extra=2, tau=1)),
}


@dataclass(frozen=True)
class PatrolSize:
    n: int
    extra: int
    settle_sync: int
    settle_async: int
    #: blocks after which the register digest is checked
    checkpoint: int
    block: int = 4


PATROL_SIZES = {
    False: PatrolSize(n=2000, extra=3600, settle_sync=60, settle_async=40,
                      checkpoint=25),
    True: PatrolSize(n=120, extra=216, settle_sync=20, settle_async=16,
                     checkpoint=5),
}


@dataclass
class Context:
    """One run's parameters."""

    workload: str
    seed: int
    seconds: float
    smoke: bool
    #: scratch directory inside the checkout (warm caches)
    scratch: Path
    #: the tracer of a ``--trace 1`` run (None: untraced)
    tracer: Optional[Tracer] = None
    #: write this run's outputs as the seed's reference instead of
    #: checking against one
    record: bool = False


@dataclass
class Outcome:
    """What a workload measured and checked."""

    ops: int = 0
    #: one line per failed op or check
    failures: List[str] = field(default_factory=list)
    #: host seconds per set-up repetition
    setup_reps: List[float] = field(default_factory=list)
    #: reference seconds per host second during set-up
    setup_scale: float = 1.0
    ops_per_s: float = 0.0
    node_steps_per_s: float = 0.0
    #: peak resident set after a fixed amount of work (see
    #: :func:`peak_rss_mb`)
    peak_rss_mb: float = 0.0
    #: the same rates in host seconds
    raw: Dict[str, float] = field(default_factory=dict)
    busy_frac: float = 0.0
    overhead_frac: float = 0.0


def peak_rss_mb() -> float:
    """Peak resident set so far of this process or any of its waited-for
    children (``matrix``'s campaign workers), in MiB.  Workloads read it
    after a fixed amount of work: the columnar interning pool grows for
    as long as a patrol runs, so a reading at the end of the window
    would depend on how many blocks fit in it."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _calib_loop() -> float:
    """Seconds for one pass of the fixed calibration loop."""
    start = time.perf_counter()
    table: Dict[int, int] = {}
    trail = []
    for i in range(6000):
        key = i & 1023
        table[key] = table.get(key, 0) + i % 7
        if not i & 15:
            trail.append((key, i))
    return time.perf_counter() - start


def calibrate() -> float:
    """Host speed probe: median seconds of five runs of a fixed loop of
    the dict, tuple and integer traffic the simulator is made of."""
    return median(_calib_loop() for _ in range(5))


def to_reference(seconds: float, calibs: Sequence[float]) -> float:
    """Host seconds -> reference seconds, by calibration loop times
    measured around those seconds."""
    return seconds * CALIB_REF / statistics.fmean(calibs)


def _timed_setup(build: Callable, out: Outcome,
                 check: Optional[Callable] = None):
    """Run ``build`` :data:`SETUP_REPS` times between calibrations,
    timing each and passing each result to ``check`` untimed; returns
    the last result."""
    calibs = [calibrate()]
    result = None
    for _ in range(SETUP_REPS):
        result = None
        gc.collect()
        start = time.perf_counter()
        result = build()
        out.setup_reps.append(time.perf_counter() - start)
        calibs.append(calibrate())
        if check is not None:
            check(result)
    out.setup_scale = CALIB_REF / median(calibs)
    return result


# ---------------------------------------------------------------------------
# campaign workloads
# ---------------------------------------------------------------------------

def matrix_specs(seed: int, smoke: bool) -> List[ScenarioSpec]:
    """One campaign seed of the CLI's default matrix: soundness x
    completeness over topology x fault x daemon, plus ``label_swap``
    across all three label formats (68 cells, n <= 14)."""
    if not smoke:
        return (soundness_completeness_matrix(seed=seed)
                + adversarial_labeling_matrix(seed=seed))
    tiny = axis("random", n=8, extra=5)
    return (soundness_completeness_matrix(
                seed=seed, topologies=(tiny, axis("ring", n=6)),
                faults=(axis("none"), axis("corrupt", count=1, fraction=0.6),
                        axis("label_swap")),
                schedules=(axis("sync"), axis("permutation")))
            + adversarial_labeling_matrix(seed=seed, topologies=(tiny,),
                                          schedules=(axis("sync"),)))


def faults_specs(seed: int, smoke: bool) -> List[ScenarioSpec]:
    """Settle / inject / detect and churn cells on a random instance and
    a Section-9 subdivided instance sharing one topology seed."""
    sync = axis("sync")
    independent = axis("independent", storage="numpy")
    corrupt, scramble = axis("corrupt"), axis("scramble")
    piece_lie, churn = axis("piece_lie"), axis("churn", events=2)
    verifier, hybrid = axis("verifier"), axis("hybrid")
    cells = [(f, sync, verifier) for f in (corrupt, scramble, piece_lie,
                                           churn)]
    cells += [(f, sync, hybrid) for f in (corrupt, scramble)]
    # sqlog takes churn only: corrupt/scramble can plant a J-mask of -1,
    # which sqlog's check decodes without bound (see README)
    cells += [(churn, sync, axis("sqlog"))]
    cells += [(f, independent, verifier) for f in (corrupt, scramble,
                                                   piece_lie)]
    specs = []
    for topo in FAULTS_TOPOLOGIES[smoke]:
        for flt, sched, proto in cells:
            spec = ScenarioSpec(topology=topo, fault=flt, schedule=sched,
                                protocol=proto,
                                topology_seed=FAULTS_TOPOLOGY_SEED)
            specs.append(spec.with_seed(derive_seed(seed,
                                                    spec.semantic_key)))
    return specs


def node_steps(result) -> int:
    """Node activations a cell simulated: the async scheduler's count,
    or n x executed rounds for the synchronous one."""
    if result.activations is not None:
        return result.activations
    return result.n * (result.settle_rounds - result.settle_rounds_saved
                       + result.rounds_run)


def output_record(result) -> Dict:
    rec = scenario_record(result)
    return {k: v for k, v in rec.items() if k not in VOLATILE_FIELDS}


def _reference_path(ctx: Context) -> Path:
    suffix = "-smoke" if ctx.smoke else ""
    return REFERENCE_DIR / f"{ctx.workload}-seed{ctx.seed}{suffix}.jsonl"


def check_campaign(ctx: Context, reps: list, out: Outcome) -> None:
    """Every cell ok; every repetition equal to the reference dump when
    one exists for the seed, else to the first repetition."""
    first = [output_record(r) for r in reps[0]]
    path = _reference_path(ctx)
    if ctx.record:
        with open(path, "w") as fh:
            for rec in first:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    expected, against = first, "repetition 0"
    if path.is_file():
        with open(path) as fh:
            expected = [json.loads(line) for line in fh]
        against = path.name
        if len(expected) != len(first):
            out.failures.append(f"{path.name}: {len(expected)} records, "
                                f"run has {len(first)} cells")
    for i, rep in enumerate(reps):
        for j, result in enumerate(rep):
            out.ops += 1
            if not result.ok:
                out.failures.append(f"rep {i} {result.spec.key}: "
                                    f"{result.violation}")
            elif j < len(expected) and output_record(result) != expected[j]:
                out.failures.append(f"rep {i} {result.spec.key}: output "
                                    f"differs from {against}")


class CellSpeed:
    """Host-speed probes around every engine cell, in whichever process
    runs it (campaign workers are forked inside the ``with`` block).

    Each cell is preceded by one pass of the calibration loop; the probe
    and the cell's wall time are appended to a per-process file.  A cell
    runs at the speed measured by the probes on either side of it (its
    own, and the next cell's in the same process), and a repetition at
    the wall-time weighted mean of its cells' speeds."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory

    def __enter__(self) -> "CellSpeed":
        self.directory.mkdir(parents=True, exist_ok=True)
        self._original = supervise.run_scenario
        run, directory = self._original, self.directory

        def run_scenario(spec):
            probe = _calib_loop()
            result = run(spec)
            with open(directory / f"{os.getpid()}.txt", "a") as fh:
                fh.write(f"{probe!r} {result.wall_time!r}\n")
            return result

        supervise.run_scenario = run_scenario
        return self

    def __exit__(self, *exc) -> None:
        supervise.run_scenario = self._original

    def drain(self) -> float:
        """Reference seconds per host second over the cells run since
        the last drain."""
        weighted = total = 0.0
        for path in self.directory.glob("*.txt"):
            rows = [tuple(map(float, line.split()))
                    for line in path.read_text().splitlines()]
            path.unlink()
            for k, (probe, wall) in enumerate(rows):
                probes = [probe] + [p for p, _ in rows[k + 1:k + 2]]
                weighted += to_reference(wall, probes)
                total += wall
        return weighted / total


def _run_rep(specs, workers: int, warm: Optional[Path]):
    """One repetition: over ``workers`` supervised processes, or inline
    from cold instance caches (with a warm-cache directory)."""
    if workers > 1:
        return CampaignRunner(workers=workers).run(specs)
    clear_instance_cache()
    return CampaignRunner(
        workers=1, warm_cache=None if warm is None else str(warm)).run(specs)


def _measured_rep(specs, workers: int, warm: Optional[Path],
                  speed: CellSpeed) -> Tuple[object, float]:
    """One repetition and its wall time in reference seconds."""
    result = _run_rep(specs, workers, warm)
    return result, result.wall_time * speed.drain()


def _campaign(ctx: Context, specs_fn: Callable, workers: int,
              warm: bool) -> Outcome:
    """Shared loop of ``matrix`` and ``faults``.

    Untraced: repeat the unit until the deadline, at least
    :data:`MIN_REPS` times (``workers`` supervised processes, or inline
    with a fresh warm-cache directory per repetition).  Traced: spans
    of forked workers are lost, so the unit runs inline; after one
    warm-up, one untraced inline repetition gives the overhead baseline
    (and for ``matrix`` one supervised repetition gives
    ``supervise.busy_frac``)."""
    out = Outcome()
    specs = _timed_setup(lambda: specs_fn(ctx.seed, ctx.smoke), out)
    scratch = Path(tempfile.mkdtemp(prefix=f"{ctx.workload}-",
                                    dir=ctx.scratch))
    serial = itertools.count()

    def warm_dir() -> Optional[Path]:
        return scratch / str(next(serial)) if warm else None

    deadline = time.perf_counter() + ctx.seconds
    reps = []
    try:
        if ctx.tracer is None:
            timed = []
            with CellSpeed(scratch / "speed") as speed:
                while len(timed) < MIN_REPS or \
                        time.perf_counter() < deadline:
                    timed.append(_measured_rep(specs, workers, warm_dir(),
                                               speed))
                    if len(timed) == MIN_REPS:
                        out.peak_rss_mb = peak_rss_mb()
            reps = [rep for rep, _ in timed]
            steps = sum(node_steps(r) for r in reps[0])
            ref = median(t for _, t in timed)
            raw = median(rep.wall_time for rep in reps)
            out.ops_per_s = len(specs) / ref
            out.node_steps_per_s = steps / ref
            out.raw = {"ops_per_s": len(specs) / raw,
                       "node_steps_per_s": steps / raw}
        else:
            if workers > 1:
                sup = _run_rep(specs, workers, None)
                reps.append(sup)
                out.busy_frac = sum(r.wall_time for r in sup) / (
                    workers * sup.wall_time)
            # the first in-process repetition fills process-wide caches
            reps.append(_run_rep(specs, 1, warm_dir()))
            with CellSpeed(scratch / "speed") as speed:
                base, base_t = _measured_rep(specs, 1, warm_dir(), speed)
            reps.append(base)
            traced = []
            with TracePatches(ctx.tracer), \
                    CellSpeed(scratch / "speed") as speed:
                while not traced or time.perf_counter() < deadline:
                    traced.append(_measured_rep(specs, 1, warm_dir(),
                                                speed))
            reps.extend(rep for rep, _ in traced)
            out.overhead_frac = median(t for _, t in traced) / base_t - 1.0
            if workers == 1:
                out.busy_frac = median(
                    sum(r.wall_time for r in rep) / rep.wall_time
                    for rep, _ in traced)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    check_campaign(ctx, reps, out)
    return out


def run_matrix(ctx: Context) -> Outcome:
    return _campaign(ctx, matrix_specs, workers=2, warm=False)


def run_faults(ctx: Context) -> Outcome:
    return _campaign(ctx, faults_specs, workers=1, warm=True)


# ---------------------------------------------------------------------------
# patrol workloads
# ---------------------------------------------------------------------------

def register_digest(network) -> str:
    """sha256 of every node's register values, backend-neutral."""
    values = capture_network(network)["values"]
    return hashlib.sha256(
        repr(sorted(values.items())).encode("utf-8")).hexdigest()


@dataclass
class Patrol:
    network: Network
    scheduler: object
    n: int


def build_patrol(seed: int, size: PatrolSize, synchronous: bool,
                 storage: str) -> Patrol:
    """Instance, honest marker labels, network, verifier, scheduler,
    then the settle rounds (the patrol workloads' set-up)."""
    graph = random_connected_graph(size.n, size.extra, seed=seed)
    labels = marker_mod.run_marker(graph).labels
    net = Network(graph)
    net.install(labels)
    proto = MstVerifierProtocol(synchronous=synchronous, static_every=4)
    if synchronous:
        sched = SynchronousScheduler(net, proto, storage=storage)
        sched.run(size.settle_sync)
    else:
        sched = AsynchronousScheduler(net, proto,
                                      ConflictFreeDaemon(graph, seed=7),
                                      storage=storage)
        sched.run(size.settle_async)
    return Patrol(net, sched, len(graph.nodes()))


def check_checkpoint(ctx: Context, family: str, digest: str,
                     out: Outcome) -> None:
    path = REFERENCE_DIR / "patrol.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    key = family + ("-smoke" if ctx.smoke else "")
    if ctx.record:
        table.setdefault(key, {})[str(ctx.seed)] = digest
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    want = table.get(key, {}).get(str(ctx.seed))
    if want is not None and want != digest:
        out.failures.append(f"checkpoint digest {digest[:12]} != "
                            f"reference {want[:12]}")


@dataclass
class Block:
    seconds: float
    ref_seconds: float
    steps: int


def _blocks(ctx: Context, inst: Patrol, size: PatrolSize, family: str,
            out: Outcome, deadline: float, minimum: int) -> List[Block]:
    """Time blocks between calibrations until ``deadline``, at least
    ``minimum`` of them; checks every block, and the register digest
    after :attr:`PatrolSize.checkpoint` blocks (untimed)."""
    sched, net = inst.scheduler, inst.network
    tracer = ctx.tracer if ctx.tracer is not None and \
        ctx.tracer.phase == "patrol" else None
    blocks: List[Block] = []
    calib = calibrate()
    while len(blocks) < minimum or time.perf_counter() < deadline:
        i = len(blocks)
        if tracer is not None:
            tracer.trace_id = f"block-{i}"
        acts = getattr(sched, "activations", None)
        start = time.perf_counter()
        ran = sched.run(size.block)
        dt = time.perf_counter() - start
        after = calibrate()
        steps = inst.n * ran if acts is None else sched.activations - acts
        blocks.append(Block(dt, to_reference(dt, (calib, after)), steps))
        calib = after
        out.ops += 1
        if ran != size.block:
            out.failures.append(f"block {i}: ran {ran} of {size.block} "
                                f"rounds")
        if net.has_alarm():
            out.failures.append(f"block {i}: alarm "
                                f"{sorted(net.alarms().items())[:1]}")
        if i + 1 == size.checkpoint:
            pause = time.perf_counter()
            out.peak_rss_mb = peak_rss_mb()
            check_checkpoint(ctx, family, register_digest(net), out)
            deadline += time.perf_counter() - pause
    return blocks


def check_step_counts(inst: Patrol, out: Outcome) -> None:
    """Every executed activation advanced exactly one step counter."""
    regs = inst.network.registers
    steps = [regs[v][REG_VSTEP] for v in inst.network.graph.nodes()]
    sched = inst.scheduler
    if isinstance(sched, SynchronousScheduler):
        bad = sum(1 for s in steps if s != sched.rounds)
        if bad:
            out.failures.append(f"{bad} node(s) missed synchronous steps")
    elif sum(steps) != sched.activations - sched.steps_skipped:
        out.failures.append(f"step counters sum to {sum(steps)}, scheduler "
                            f"executed {sched.activations - sched.steps_skipped}")


def _patrol(ctx: Context, synchronous: bool, storage: str,
            family: str) -> Outcome:
    out = Outcome()
    size = PATROL_SIZES[ctx.smoke]

    def build() -> Patrol:
        return build_patrol(ctx.seed, size, synchronous, storage)

    digests = []

    def digest(inst: Patrol) -> None:
        digests.append(register_digest(inst.network))

    tracer = ctx.tracer
    if tracer is None:
        inst = _timed_setup(build, out, digest)
        blocks = _blocks(ctx, inst, size, family, out,
                         time.perf_counter() + ctx.seconds, size.checkpoint)
        out.ops_per_s = 1.0 / median(b.ref_seconds for b in blocks)
        out.node_steps_per_s = median(b.steps / b.ref_seconds
                                      for b in blocks)
        out.raw = {"ops_per_s": 1.0 / median(b.seconds for b in blocks),
                   "node_steps_per_s": median(b.steps / b.seconds
                                              for b in blocks)}
    else:
        # untraced baseline blocks on their own instance, then the traced
        # run on a fresh one (the wrappers must precede construction)
        inst = build()
        digest(inst)
        deadline = time.perf_counter() + ctx.seconds
        base = _blocks(ctx, inst, size, family, out, 0.0, size.checkpoint)
        inst = None
        gc.collect()
        with TracePatches(tracer):
            tracer.phase = "settle"
            inst = build()
            digest(inst)
            tracer.phase = "patrol"
            traced = _blocks(ctx, inst, size, family, out, deadline,
                             len(base))
            tracer.phase = tracer.trace_id = None
        out.overhead_frac = median(
            b.ref_seconds for b in traced[:len(base)]) / median(
            b.ref_seconds for b in base) - 1.0
    if len(set(digests)) != 1:
        out.failures.append("settled state differs between set-up "
                            "repetitions")
    check_step_counts(inst, out)
    return out


def run_patrol_sync(ctx: Context) -> Outcome:
    return _patrol(ctx, True, "numpy", "sync")


def run_patrol_nonumpy(ctx: Context) -> Outcome:
    if numpy_or_none() is not None:
        raise RuntimeError("patrol-nonumpy needs REPRO_NO_NUMPY=1 (run.py "
                           "sets it)")
    return _patrol(ctx, True, "columnar", "sync")


def run_patrol_async(ctx: Context) -> Outcome:
    return _patrol(ctx, False, "numpy", "async")


RUNNERS: Dict[str, Callable[[Context], Outcome]] = {
    "matrix": run_matrix,
    "faults": run_faults,
    "patrol-sync": run_patrol_sync,
    "patrol-nonumpy": run_patrol_nonumpy,
    "patrol-async": run_patrol_async,
}
