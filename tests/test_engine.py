"""Unit tests for the campaign engine: specs, grids, seed derivation,
registries, the runner's error containment, and result aggregation."""

from dataclasses import replace

import pytest

from repro.engine import (Axis, CampaignRunner, ScenarioSpec, axis,
                          derive_seed, grid, register_topology,
                          run_campaign, run_scenario, smoke_campaign,
                          spec_is_satisfiable, TOPOLOGIES)
from repro.engine.scenarios import _graph_for
from repro.graphs.generators import ring_graph
from repro.sim import (AsynchronousScheduler, ColumnStore,
                       SynchronousScheduler)
from repro.verification import make_network
from repro.verification.verifier import MstVerifierProtocol


class TestSpec:
    def test_axis_is_hashable_and_ordered(self):
        a = axis("random", n=10, extra=6)
        b = axis("random", extra=6, n=10)
        assert a == b and hash(a) == hash(b)
        assert str(a) == "random(extra=6,n=10)"

    def test_seed_derivation_is_stable(self):
        # pinned value: the derivation must never drift between releases,
        # or every recorded campaign stops being reproducible
        assert derive_seed(0, "x") == derive_seed(0, "x")
        assert derive_seed(0, "x") != derive_seed(0, "y")
        assert derive_seed(0, "x") != derive_seed(1, "x")
        assert derive_seed(7, "a", "b") == 313621606696127404

    def test_spec_role_seeds_differ(self):
        spec = ScenarioSpec(topology=axis("path", n=8), seed=3)
        assert spec.derived_seed("topology") != spec.derived_seed("fault")

    def test_grid_expansion_and_seeding(self):
        specs = grid(
            topologies=[axis("path", n=8), axis("ring", n=8)],
            faults=[axis("none"), axis("corrupt")],
            schedules=[axis("sync")],
            seed=5)
        assert len(specs) == 4
        assert len({s.seed for s in specs}) == 4
        # seeds key off the scenario identity, not its grid position:
        # re-expanding with more axis values keeps existing seeds
        wider = grid(
            topologies=[axis("path", n=8), axis("ring", n=8),
                        axis("star", n=8)],
            faults=[axis("none"), axis("corrupt")],
            schedules=[axis("sync")],
            seed=5)
        by_key = {s.key: s.seed for s in wider}
        for s in specs:
            assert by_key[s.key] == s.seed

    def test_topology_seed_pairs_instances(self):
        """Paired comparisons (E6b): specs differing only in protocol
        share one explicit topology_seed and hence one graph instance."""
        from repro.engine import graph_for, memory_campaign
        specs = memory_campaign([16], seed=5)
        assert len(specs) == 2
        assert specs[0].seed != specs[1].seed
        assert graph_for(specs[0]) is graph_for(specs[1])

    def test_satisfiability_filter(self):
        ok = ScenarioSpec(topology=axis("random", n=10),
                          fault=axis("label_swap"))
        tree = ScenarioSpec(topology=axis("star", n=10),
                            fault=axis("label_swap"))
        assert spec_is_satisfiable(ok)
        assert not spec_is_satisfiable(tree)


class TestRegistries:
    def test_register_custom_topology(self):
        name = "ring_doubled_for_test"
        register_topology(name, lambda seed, n=6: ring_graph(2 * n,
                                                             seed=seed))
        try:
            spec = ScenarioSpec(topology=axis(name, n=5),
                                fault=axis("corrupt", count=1),
                                completeness_rounds=50, max_rounds=2000)
            result = run_scenario(spec)
            assert result.n == 10
            assert result.ok, result.violation
        finally:
            TOPOLOGIES.pop(name)
            _graph_for.cache_clear()

    def test_unknown_kind_raises(self):
        from repro.engine import ScenarioError
        with pytest.raises(ScenarioError):
            run_scenario(ScenarioSpec(topology=axis("klein_bottle")))


class TestRunner:
    def test_errors_are_contained_per_scenario(self):
        specs = [
            ScenarioSpec(topology=axis("path", n=6),
                         completeness_rounds=40),
            ScenarioSpec(topology=axis("no_such_family")),
        ]
        result = run_campaign(specs, workers=1)
        assert len(result) == 2
        assert result[0].ok
        assert result[1].error is not None
        assert len(result.errors()) == 1
        assert len(result.violations()) == 1

    def test_parallel_matches_sequential(self):
        specs = smoke_campaign(seed=3)
        seq = CampaignRunner(workers=1).run(specs)
        par = CampaignRunner(workers=2).run(specs)
        assert len(seq) == len(par)
        for a, b in zip(seq, par):
            assert a.spec == b.spec
            assert a.detected == b.detected
            assert a.rounds_to_detection == b.rounds_to_detection
            assert a.max_memory_bits == b.max_memory_bits

    def test_aggregation_and_summary(self):
        result = run_campaign(smoke_campaign(seed=1), workers=1)
        assert not result.violations(), result.summary()
        groups = result.by("fault")
        assert set(groups) == {"none", "corrupt(count=1,fraction=0.6)",
                               "label_swap"}
        text = result.summary()
        assert "scenarios" in text and "violation" in text
        # cells naming no storage ran on the default tier, not on dict
        assert "\nstorage tiers: columnar, numpy" in text
        rows = result.rows("n", "detected")
        assert len(rows) == len(result)


class TestScenarioSemantics:
    def test_completeness_scenario_runs_full_budget(self):
        res = run_scenario(ScenarioSpec(topology=axis("path", n=6),
                                        completeness_rounds=64))
        assert not res.detected
        assert res.rounds_run == 64
        assert not res.expected_detection
        assert res.ok

    def test_injection_scenario_reports_distance(self):
        res = run_scenario(ScenarioSpec(
            topology=axis("random", n=12, extra=8),
            fault=axis("scramble", count=1), seed=2, max_rounds=4000))
        assert res.ok, res.violation
        assert res.detected and res.rounds_to_detection is not None
        assert res.faulty_nodes
        assert res.detection_distance is not None

    def test_premature_alarm_is_a_completeness_violation(self):
        """A protocol that alarms during the settle phase must be charged
        to completeness, not silently treated as a detection."""
        from repro.engine.scenarios import ScenarioResult
        r = ScenarioResult(spec=ScenarioSpec(topology=axis("path", n=4)),
                           expected_detection=True, detected=True,
                           premature_alarm=True)
        assert r.violation == "completeness"


class TestCampaignPersistence:
    def test_dump_jsonl_round_trips(self, tmp_path):
        import json

        from repro.engine import grid, run_campaign

        specs = grid(topologies=[axis("random", n=10, extra=6)],
                     faults=[axis("none"), axis("corrupt", count=1)],
                     schedules=[axis("sync")], seed=5,
                     completeness_rounds=40, max_rounds=4000)
        result = run_campaign(specs, workers=1)
        out = tmp_path / "results.jsonl"
        written = result.dump_jsonl(str(out))
        assert written == len(specs)
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == len(specs)
        by_key = {(r["key"], r["seed"]) for r in records}
        assert by_key == {(s.key, s.seed) for s in specs}
        for rec, res in zip(records, result):
            assert rec["detected"] == res.detected
            assert rec["rounds_run"] == res.rounds_run
            assert rec["max_memory_bits"] == res.max_memory_bits
            assert rec["violation"] == res.violation

    def test_cli_out_flag_writes_jsonl(self, tmp_path, monkeypatch):
        import json

        from repro.engine.__main__ import main

        out = tmp_path / "smoke.jsonl"
        code = main(["--workers", "1", "--quiet", "--out", str(out)])
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records and all("key" in r and "wall_time" in r
                               for r in records)


class TestStorageAxis:
    def test_storage_parameter_accepted_and_semantic_seed_stable(self):
        """storage/fast_path are implementation parameters: they neither
        error out nor reshuffle the derived seeds."""
        base = ScenarioSpec(topology=axis("random", n=10, extra=6),
                            fault=axis("corrupt", count=1),
                            schedule=axis("sync"), seed=9, max_rounds=4000)
        dict_spec = ScenarioSpec(topology=base.topology, fault=base.fault,
                                 schedule=axis("sync", storage="dict"),
                                 protocol=base.protocol, seed=9,
                                 max_rounds=4000)
        assert base.derived_seed("topology") == \
            dict_spec.derived_seed("topology")
        assert base.semantic_key == dict_spec.semantic_key
        assert base.key != dict_spec.key
        assert run_scenario(dict_spec).ok

    def test_unknown_storage_rejected(self):
        import pytest

        from repro.engine import ScenarioError

        with pytest.raises(ScenarioError, match="storage"):
            run_scenario(ScenarioSpec(
                topology=axis("path", n=6),
                schedule=axis("sync", storage="quantum"),
                completeness_rounds=8))
        net = make_network(ring_graph(6))
        for scheduler in (SynchronousScheduler, AsynchronousScheduler):
            with pytest.raises(ValueError, match="storage"):
                scheduler(net, MstVerifierProtocol(), storage="quantum")

    @pytest.mark.parametrize("schedule", ["sync", "permutation"])
    def test_schema_alias_runs_the_default_storage(self, schedule,
                                                   monkeypatch):
        """The retired ``storage="schema"`` is an alias of the default
        columnar backend on both schedulers and through a spec: one
        DeprecationWarning per process, and the same semantic key,
        seeds and record as a spec that names no storage."""
        from repro.engine import scenario_record
        from repro.sim import schedulers

        monkeypatch.setattr(schedulers, "_alias_warned", False)
        base = ScenarioSpec(topology=axis("random", n=10, extra=6),
                            fault=axis("corrupt", count=1),
                            schedule=axis(schedule), seed=9,
                            max_rounds=4000)
        alias = replace(base, schedule=axis(schedule, storage="schema"))
        assert alias.semantic_key == base.semantic_key
        for role in ("topology", "fault", "daemon"):
            assert alias.derived_seed(role) == base.derived_seed(role)
        scheduler = SynchronousScheduler if schedule == "sync" \
            else AsynchronousScheduler
        with pytest.warns(DeprecationWarning, match="schema") as caught:
            got = scenario_record(run_scenario(alias))
            net = make_network(ring_graph(6))
            scheduler(net, MstVerifierProtocol(), storage="schema")
        assert len(caught) == 1
        assert type(net.columns) is ColumnStore
        want = scenario_record(run_scenario(base))
        for rec in (got, want):
            for field in ("key", "schedule", "wall_time"):
                rec.pop(field)
        assert got == want


class TestStructuredErrors:
    def test_error_result_carries_structured_cause(self):
        """Satellite: error_type + a bounded traceback tail, not just
        the last traceback line."""
        specs = [ScenarioSpec(topology=axis("no_such_family"))]
        result = run_campaign(specs, workers=1)
        r = result[0]
        assert r.status == "error"
        assert r.error_type == "ScenarioError"
        assert r.attempts == 1
        assert r.error_trace and len(r.error_trace) <= 8
        assert any("ScenarioError" in line for line in r.error_trace)
        from repro.engine import scenario_record
        rec = scenario_record(r)
        assert rec["status"] == "error"
        assert rec["error_type"] == "ScenarioError"
        assert rec["error_trace"] == list(r.error_trace)

    def test_ok_result_has_clean_status_fields(self):
        res = run_scenario(ScenarioSpec(topology=axis("path", n=6),
                                        completeness_rounds=16))
        assert res.status == "ok"
        assert res.error_type is None and res.error_trace == ()


class TestSpawnSafety:
    def test_spawn_with_runtime_axis_fails_fast(self):
        """Satellite: spawn + runtime-registered axes used to die inside
        the workers with an opaque KeyError; now the runner refuses up
        front, naming the axis and the workarounds."""
        import multiprocessing

        from repro.engine import ScenarioError
        from repro.engine.scenarios import _graph_for

        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("no spawn start method on this platform")
        name = "runtime_only_topology"
        register_topology(name, lambda seed, n=6: ring_graph(n,
                                                             seed=seed))
        try:
            specs = [ScenarioSpec(topology=axis(name, n=5), seed=s,
                                  completeness_rounds=8)
                     for s in range(3)]
            runner = CampaignRunner(workers=2, mp_context="spawn")
            with pytest.raises(ScenarioError) as info:
                runner.run(specs)
            message = str(info.value)
            assert name in message and "spawn" in message
            assert "worker_init" in message and "fork" in message
            # inline execution stays available as the workaround
            result = CampaignRunner(workers=1).run(specs)
            assert all(r.ok for r in result)
        finally:
            TOPOLOGIES.pop(name)
            _graph_for.cache_clear()

    def test_builtin_axes_pass_spawn_check(self):
        from repro.engine import runtime_registered_axes
        assert runtime_registered_axes(smoke_campaign(seed=0)) == {}
