"""Perf benchmark of the MST-verifier simulator: five workloads, from a
supervised fault campaign down to the vectorized verifier kernel.

    python3 benchmarks/perf/run.py [--workload W] [--seed S] [--seconds T]
        [--runs K] [--trace [0|1]] [--out BENCH_<label>.json] [--smoke]

Each run executes in a fresh child process (``harness.py``), one at a
time: run ``r`` of a workload uses seed ``S + r`` (``S`` defaults to the
workload's seed in :data:`DEFAULT_SEEDS`).  Every run prints each metric
by name with its unit and checks the outputs; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (medians over the runs).  Without ``--trace`` the metrics
are the end-to-end ones of ``BENCHMARK.json``; a ``--trace`` run gives
the per-layer ones instead.  ``--out`` also writes every run, the
medians and quartiles, and a host fingerprint to a ``BENCH_*.json``
file.  ``--smoke`` shrinks every workload to seconds (the test suite
runs it).  ``--record`` (maintenance) writes the outputs of the runs as
the reference the oracle compares against.

See README.md next to this file for what each workload stresses.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: default seed per workload: campaign seed for ``matrix``/``faults``,
#: graph seed for the ``patrol-*`` instance
DEFAULT_SEEDS = {"matrix": 0, "faults": 0, "patrol-sync": 21,
                 "patrol-nonumpy": 21, "patrol-async": 21}

#: a run must end within 180 s; the child gets slightly less
CHILD_TIMEOUT = 170.0
SMOKE_SECONDS = 0.5


class RunError(RuntimeError):
    """A child run failed, timed out, or printed a malformed result."""


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _kill(proc: subprocess.Popen) -> None:
    """Kill the child's whole process group (campaign workers too)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def run_child(workload: str, seed: int, seconds: float, trace: int,
              smoke: bool, record: bool, units: dict) -> dict:
    """Run one workload once in a fresh process; returns its result with
    each metric as ``{"value", "unit"}``."""
    env = dict(os.environ)
    if workload == "patrol-nonumpy":
        env["REPRO_NO_NUMPY"] = "1"
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "harness.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(trace), "--t0", repr(t0)]
    if smoke:
        cmd.append("--smoke")
    if record:
        cmd.append("--record")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        _kill(proc)
        raise RunError(f"{workload} seed={seed}: no result within "
                       f"{CHILD_TIMEOUT:.0f} s") from None
    except BaseException:
        _kill(proc)
        raise
    label = f"{workload} seed={seed}"
    if proc.returncode != 0:
        raise RunError(f"{label}: harness exited {proc.returncode}")
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        values = result["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        raise RunError(f"{label}: no result line") from None
    if set(values) != set(units):
        raise RunError(f"{label}: metrics {sorted(set(values) ^ set(units))} "
                       f"missing or unexpected")
    for name, value in values.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise RunError(f"{label}: metric {name} = {value!r}")
    result["metrics"] = {name: {"value": values[name], "unit": units[name]}
                         for name in units}
    result["seed"] = seed
    return result


def summarize(runs: list) -> dict:
    """Median and quartiles of each metric over ``runs``."""
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (med, med, med))
        out[name] = {"unit": first["unit"], "median": med, "q1": q1,
                     "q3": q3, "n": len(values), "values": values}
    return out


def host_fingerprint() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "os": f"{platform.system()} {platform.release()}",
            "python": platform.python_version(), "numpy": numpy_version,
            "REPRO_NO_NUMPY": os.environ.get("REPRO_NO_NUMPY")}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(DEFAULT_SEEDS),
                        help="one workload (default: all five, in order)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed of the first run (default: the "
                             "workload's own)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload (seeds S, S+1, ...)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="per-layer metrics from a traced run")
    parser.add_argument("--out", metavar="BENCH_<label>.json",
                        help="write runs, medians, quartiles and the host "
                             "fingerprint here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, seconds in total")
    parser.add_argument("--record", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload is not None:
        names = [args.workload]
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else float(bench["run_seconds"])
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[group]}

    report = {}
    for name in names:
        base = DEFAULT_SEEDS[name] if args.seed is None else args.seed
        runs = []
        for r in range(args.runs):
            try:
                result = run_child(name, base + r, seconds, args.trace,
                                   args.smoke, args.record, units)
            except RunError as exc:
                print(f"run.py: {exc}", file=sys.stderr)
                return 1
            runs.append(result)
            print(f"[{name} seed={result['seed']} run {r + 1}/{args.runs}] "
                  f"correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:<28} {m['value']:.6g} {m['unit']}")
        report[name] = {"runs": runs, "summary": summarize(runs)}

    if args.out:
        doc = {"label": Path(args.out).stem.replace("BENCH_", "", 1),
               "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
               "host": host_fingerprint(), "seconds": seconds,
               "trace": args.trace, "smoke": args.smoke,
               "workloads": report}
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

    all_runs = [r for entry in report.values() for r in entry["runs"]]
    metrics = {}
    for name, entry in report.items():
        for metric, s in entry["summary"].items():
            key = metric if len(report) == 1 else f"{name}/{metric}"
            metrics[key] = {"value": s["median"], "unit": s["unit"]}
    print(json.dumps({"correct": all(r["correct"] for r in all_runs),
                      "attempted": sum(r["attempted"] for r in all_runs),
                      "failed": sum(r["failed"] for r in all_runs),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
