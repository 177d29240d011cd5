"""Fault-injection subsystem tests (:mod:`repro.faults`).

Covers the plan schema, the deterministic injector, the end-to-end
resilience campaign (zero silent corruptions, cross-backend and rerun
bit-identity), the chaos-pool runner degradation, an ECC single/double-bit
sweep over logical ops on both backends, eager backend validation, and
which seed ``repro faults --plan`` runs.
"""

import json
import random
from dataclasses import replace

import pytest

from repro.api import (
    BACKENDS,
    ComputeCacheMachine,
    ConfigError,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    PointRunner,
    RunnerChaos,
    cc_ops,
    default_plan,
    fault_plan_from_json,
    fault_plan_to_json,
    run_campaign,
    save_fault_plan,
    small_test_machine,
)
from repro.bench.points import selftest_point
from repro.cli import main


class TestFaultPlan:
    def test_default_plan_round_trips_through_json(self):
        plan = default_plan(7)
        assert fault_plan_from_json(fault_plan_to_json(plan)) == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultSpec(kind="sram.meltdown")

    def test_bad_probability_rejected(self):
        with pytest.raises(FaultPlanError, match="probability"):
            FaultSpec(kind="sram.bitflip", probability=1.5)

    def test_duplicate_kind_rejected(self):
        spec = FaultSpec(kind="sram.bitflip")
        with pytest.raises(FaultPlanError, match="duplicate"):
            FaultPlan(seed=0, specs=(spec, spec))

    def test_from_dict_rejects_wrong_schema(self):
        with pytest.raises(FaultPlanError, match="schema"):
            FaultPlan.from_dict({"schema": "bogus/9", "seed": 0, "specs": []})

    def test_plan_error_is_a_config_error(self):
        assert issubclass(FaultPlanError, ConfigError)


class TestBackendValidation:
    def test_unknown_backend_rejected_eagerly(self):
        with pytest.raises(ConfigError, match="bitexact"):
            ComputeCacheMachine(small_test_machine(), backend="gpu")

    def test_known_backends_accepted(self):
        for backend in BACKENDS:
            m = ComputeCacheMachine(small_test_machine(), backend=backend)
            assert m.config.backend == backend


class TestInjectorDeterminism:
    def _strikes(self, plan):
        m = ComputeCacheMachine(small_test_machine(), trace_events=True)
        injector = FaultInjector(m, plan)
        injector.install()
        a, b = m.arena.alloc_colocated(1024, 2)
        rng = random.Random("determinism")
        m.load(a, rng.randbytes(1024))
        m.load(b, rng.randbytes(1024))
        m.warm_l3(a, 1024)
        m.warm_l3(b, 1024)
        injector.pulse()
        return [
            (e.addr, e.unit) for e in m.tracer.snapshot()
            if e.kind == "fault.inject"
        ], dict(injector.injected), dict(injector.recovered)

    def test_same_plan_same_strikes(self):
        plan = FaultPlan(seed=3, specs=(
            FaultSpec(kind="sram.bitflip", probability=0.7, max_injections=8),
        ))
        assert self._strikes(plan) == self._strikes(plan)

    def test_different_seed_different_strikes(self):
        strikes = [
            self._strikes(FaultPlan(seed=seed, specs=(
                FaultSpec(kind="sram.bitflip", probability=0.7,
                          max_injections=8),
            )))[0]
            for seed in (3, 4)
        ]
        assert strikes[0] != strikes[1]


class TestEccSweep:
    """Single-bit strikes are corrected in place, double-bit strikes are
    detected and refetched; either way cc_and / cc_xor results stay
    bit-exact on both backends."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", ["sram.bitflip", "sram.double-bitflip"])
    def test_logical_ops_survive_strikes(self, backend, kind):
        plan = FaultPlan(seed=11, specs=(
            FaultSpec(kind=kind, probability=1.0, max_injections=6),
        ))
        m = ComputeCacheMachine(small_test_machine(), backend=backend,
                                trace_events=True)
        injector = FaultInjector(m, plan)
        injector.install()
        a, b, c = m.arena.alloc_colocated(1024, 3)
        rng = random.Random("ecc-sweep")
        da, db = rng.randbytes(1024), rng.randbytes(1024)
        m.load(a, da)
        m.load(b, db)
        m.warm_l3(a, 1024)
        m.warm_l3(b, 1024)
        injector.pulse()
        m.cc(cc_ops.cc_and(a, b, c, 1024))
        assert m.peek(c, 1024) == bytes(x & y for x, y in zip(da, db))
        injector.pulse()
        m.cc(cc_ops.cc_xor(a, b, c, 1024))
        assert m.peek(c, 1024) == bytes(x ^ y for x, y in zip(da, db))
        assert sum(injector.injected.values()) > 0
        if kind == "sram.bitflip":
            assert injector.recovered.get("corrected", 0) > 0
        else:
            assert injector.recovered.get("refetched", 0) > 0
        assert not injector.surfaced


class TestChaosRunner:
    def test_injected_pool_faults_degrade_to_serial(self):
        plan = FaultPlan(seed=2, specs=(
            FaultSpec(kind="runner.timeout", probability=1.0,
                      max_injections=2),
            FaultSpec(kind="runner.crash", probability=1.0,
                      max_injections=1),
        ))
        chaos = RunnerChaos(plan)
        runner = PointRunner(jobs=2, use_cache=False, timeout_s=30.0,
                             retries=1)
        chaos.install(runner)
        from repro.bench.runner import Point

        points = [Point("selftest", {"value": v}) for v in range(6)]
        results = runner.run(points)
        assert results == [selftest_point(value=v) for v in range(6)]
        assert runner.stats.serial_fallbacks > 0

    def test_chaos_draw_respects_caps(self):
        plan = FaultPlan(seed=2, specs=(
            FaultSpec(kind="runner.crash", probability=1.0,
                      max_injections=1),
        ))
        chaos = RunnerChaos(plan)
        modes = [chaos.draw() for _ in range(10)]
        assert modes.count("crash") == 1


class TestCampaign:
    @pytest.fixture(scope="class")
    def reports(self):
        plan = default_plan(5)
        return {b: run_campaign(plan, backend=b) for b in BACKENDS}

    def test_zero_silent_corruptions(self, reports):
        for report in reports.values():
            assert report.silent == 0

    def test_every_kind_injected(self, reports):
        for report in reports.values():
            assert all(count > 0 for count in report.injected.values())
            assert set(report.injected) == {s.kind for s in default_plan(5).specs}

    def test_cross_backend_bit_identity(self, reports):
        docs = [report.to_dict() for report in reports.values()]
        for doc in docs:
            doc.pop("backend")
        assert docs[0] == docs[1]

    def test_rerun_bit_identity(self, reports):
        again = run_campaign(default_plan(5), backend=BACKENDS[0])
        assert again.to_dict() == reports[BACKENDS[0]].to_dict()

    def test_report_format_mentions_silent(self, reports):
        text = reports[BACKENDS[0]].format()
        assert "silent corruptions" in text
        assert "image digest" in text

    def test_golden_run_injects_nothing(self):
        quiet = replace(default_plan(0), specs=())
        report = run_campaign(quiet, backend=BACKENDS[0],
                              include_runner=False)
        assert report.total_injected == 0
        assert report.silent == 0


class TestCLISeed:
    @pytest.mark.parametrize("seed_args, expected", [([], 5), (["--seed", "7"], 7)])
    def test_plan_seed_kept_unless_overridden(self, tmp_path, seed_args, expected):
        """``repro faults --plan`` runs the plan's own seed; ``--seed``
        replaces it only when given."""
        plan = tmp_path / "plan.json"
        report = tmp_path / "report.json"
        save_fault_plan(default_plan(5), plan)
        assert main(["faults", "--plan", str(plan), "--backend", "packed",
                     "--report", str(report), *seed_args]) == 0
        [doc] = json.loads(report.read_text(encoding="utf-8"))
        assert doc["seed"] == expected
