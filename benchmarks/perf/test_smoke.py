"""Smoke test of the perf benchmark: ``python -m pytest benchmarks/perf -q``.

Runs every workload at smoke size through ``run.py``, untraced and
traced, and checks that each run emits every metric ``BENCHMARK.json``
names, with its unit, and that the oracle passes.  Also checks the
oracle itself: the patrol digest is storage-neutral, a tampered
reference is caught, and the benchmark fails outright where the program
is missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/perf/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace,runs", [(0, 2), (1, 1)])
def test_every_metric_is_emitted_with_its_unit(trace, runs, tmp_path):
    out = tmp_path / "BENCH_smoke.json"
    proc = run_bench("--smoke", "--trace", str(trace), "--runs", str(runs),
                     "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0, proc.stderr
    group = BENCH["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    doc = json.loads(out.read_text())
    assert list(doc["workloads"]) == [w["name"] for w in BENCH["workloads"]]
    for name, entry in doc["workloads"].items():
        assert len(entry["runs"]) == runs
        for run in entry["runs"]:
            assert run["correct"] and run["attempted"] >= 1, run["failures"]
            assert {m: v["unit"] for m, v in run["metrics"].items()} == units
            if not trace:
                assert all(v["value"] > 0 for v in run["metrics"].values())
        for s in entry["summary"].values():
            assert s["q1"] <= s["median"] <= s["q3"]


def test_patrol_digest_is_the_same_on_every_storage_tier():
    size = workloads.PATROL_SIZES[True]
    digests = set()
    for storage in ("numpy", "columnar", "schema"):
        inst = workloads.build_patrol(21, size, True, storage)
        inst.scheduler.run(3 * size.block)
        digests.add(workloads.register_digest(inst.network))
    assert len(digests) == 1


def test_oracle_counts_every_reference_mismatch(tmp_path, monkeypatch):
    ctx = workloads.Context(workload="matrix", seed=0, seconds=0.0,
                            smoke=True, scratch=tmp_path)
    specs = workloads.matrix_specs(ctx.seed, ctx.smoke)
    reps = [workloads._run_rep(specs, 1, None) for _ in range(2)]
    reference = workloads._reference_path(ctx)
    lines = reference.read_text().splitlines()
    tampered = json.loads(lines[3])
    tampered["settle_rounds"] += 1
    lines[3] = json.dumps(tampered, sort_keys=True)
    (tmp_path / reference.name).write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(workloads, "REFERENCE_DIR", tmp_path)
    out = workloads.Outcome()
    workloads.check_campaign(ctx, reps, out)
    assert out.ops == 2 * len(specs)
    assert len(out.failures) == 2, out.failures


def test_fails_where_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "matrix", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
