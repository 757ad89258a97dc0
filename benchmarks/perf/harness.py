"""One benchmark run in a fresh process; ``run.py`` starts one per run.

    python3 benchmarks/perf/harness.py --workload W --seed S --seconds T
        --trace 0|1 [--smoke] [--record] [--t0 MONOTONIC]

It imports ``repro`` from the ``src/`` directory of the checkout it sits
in (and fails when there is none), runs the workload, and prints one
JSON object as the last line of its standard output: ``correct``,
``attempted``, ``failed``, the metric values by name (the end-to-end
metrics, or with ``--trace 1`` the per-layer ones), the end-to-end
rates in unscaled host seconds (``raw``) and the failure lines.
``--t0`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` includes interpreter start-up and imports.
With ``--trace 1`` the kept spans are written to
``.bench_build/perf/trace-<workload>-seed<S>.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SCRATCH = ROOT / ".bench_build" / "perf"

#: address-space cap: a runaway cell must fail with MemoryError, not
#: exhaust a host that other processes share
MEMORY_CAP = 3 << 30


def bootstrap() -> None:
    """Put the checkout's ``src/`` first on the path and insist that
    ``repro`` comes from there."""
    pkg = ROOT / "src" / "repro"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"harness: no repro package at {pkg}")
    sys.path.insert(0, str(pkg.parent))
    import repro
    if Path(repro.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"harness: repro imported from {repro.__file__}, "
                 f"not from {pkg}")


def cap_memory() -> None:
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = MEMORY_CAP if hard == resource.RLIM_INFINITY else min(MEMORY_CAP,
                                                                hard)
    if soft == resource.RLIM_INFINITY or soft > cap:
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--t0", type=float, default=None)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.monotonic() if args.t0 is None else args.t0
    bootstrap()
    cap_memory()
    import workloads
    from tracer import Tracer
    ready = time.monotonic()

    SCRATCH.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    ctx = workloads.Context(workload=args.workload, seed=args.seed,
                            seconds=args.seconds, smoke=args.smoke,
                            scratch=SCRATCH, tracer=tracer,
                            record=args.record)
    runner = workloads.RUNNERS.get(args.workload)
    if runner is None:
        sys.exit(f"harness: unknown workload {args.workload!r}")
    out = runner(ctx)

    if tracer is None:
        setup = (ready - t0) + statistics.median(out.setup_reps)
        out.raw["setup_s"] = setup
        metrics = {
            "setup_s": setup * out.setup_scale,
            "ops_per_s": out.ops_per_s,
            "node_steps_per_s": out.node_steps_per_s,
            "peak_rss_mb": out.peak_rss_mb,
        }
    else:
        metrics = tracer.layer_metrics()
        metrics["supervise.busy_frac"] = out.busy_frac
        metrics["trace.overhead_frac"] = out.overhead_frac
        path = SCRATCH / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, workload=args.workload, seed=args.seed,
                    smoke=args.smoke)
        print(f"harness: spans written to {path}", file=sys.stderr)
    for line in out.failures[:20]:
        print(f"harness: FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": not out.failures, "attempted": out.ops,
                      "failed": len(out.failures), "metrics": metrics,
                      "raw": out.raw, "failures": out.failures[:50]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
