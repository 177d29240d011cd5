"""Self-tests of the host benchmark at the tiny size.

Run from the repository root::

    python3 -m pytest hostbench -q

They check that the failure accounting catches what it must (a corrupted
reference, a perturbed recorded counter, a raising unit), that a clean
run reports zero failures, and that the layer tracer installs, measures
and uninstalls cleanly.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import run

run.bootstrap()

import layers  # noqa: E402
import workloads  # noqa: E402
from repro import api  # noqa: E402


def tiny(workload: str, seed: int = 3):
    return workloads.build(workload, seed, size="tiny")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_clean_run_reports_zero_failures(workload):
    units, _ = tiny(workload)
    bench = run.Bench(units)
    first, second = bench.run_pass(), bench.run_pass()
    assert bench.failures == []
    assert bench.attempted == 2 * len(units)
    assert first.cycles == second.cycles > 0
    assert first.instructions == second.instructions > 0
    assert first.totals == second.totals


@pytest.mark.parametrize("workload, unit", [
    ("cc-apps", "wordcount"),
    ("cc-apps", "micro"),
    ("scalar-apps", "crc32"),
    ("numa-stream", "copy-scalar"),
])
def test_corrupted_reference_fails_the_unit(workload, unit):
    units, refs = tiny(workload)
    ref = refs[unit]
    if isinstance(ref, dict) and "inplace" in ref:
        refs[unit] = {**ref, "nearplace": {**ref["nearplace"], "search": 1}}
    elif isinstance(ref, dict):
        refs[unit] = {**ref, "zzz": 1}
    else:
        refs[unit] = ref + 64
    bench = run.Bench(units)
    bench.run_pass()
    assert len(bench.failures) == 1
    assert bench.failures[0].startswith(f"{unit}: Mismatch")


@pytest.mark.parametrize("counter, bump", [
    ("instructions", lambda v: v + 1),
    ("cycles", lambda v: v * (1 + 1e-6)),
    ("stats.levels.L1.hits", lambda v: v - 1),
])
def test_perturbed_pinned_counter_fails_the_unit(counter, bump):
    units, _ = tiny("scalar-apps")
    units = units[:2]
    recording = run.Bench(units)
    recording.run_pass()
    pinned = json.loads(json.dumps(recording.first))   # the file's round trip
    clean = run.Bench(units, pinned)
    clean.run_pass()
    assert clean.failures == []
    pinned[units[1].name][counter] = bump(pinned[units[1].name][counter])
    bench = run.Bench(units, pinned)
    bench.run_pass()
    assert [f.split(":")[0] for f in bench.failures] == [units[1].name]
    assert counter in bench.failures[0]


def test_unpinned_unit_fails_at_the_default_seed():
    units, _ = tiny("scalar-apps")
    bench = run.Bench(units[:1], pinned={})
    bench.run_pass()
    assert "no pinned counters" in bench.failures[0]


def test_raising_unit_fails_and_the_rest_still_run():
    units, _ = tiny("cc-apps")

    def boom(machine):
        raise RuntimeError("unit crashed")
    units = [dataclasses.replace(units[0], run=boom)] + units[1:3]
    bench = run.Bench(units)
    result = bench.run_pass()
    assert bench.attempted == 3
    assert bench.failures == [f"{units[0].name}: RuntimeError('unit crashed')"]
    assert result.instructions > 0


def test_counters_that_drift_between_passes_fail():
    units, _ = tiny("scalar-apps")
    bench = run.Bench(units[:1])
    bench.run_pass()
    bench.first[units[0].name] = {**bench.first[units[0].name], "cycles": -1.0}
    bench.run_pass()
    assert "differ from the first pass" in bench.failures[0]


def traced_pass(workload):
    units, _ = tiny(workload)
    bench = run.Bench(units)
    base = bench.run_pass()
    with layers.LayerTracer() as tracer:
        result = bench.run_pass(tracer)
        result.layers = tracer.self_times()
        result.sim = dict(tracer.sim)
    assert bench.failures == []
    return base, result, tracer


def test_traced_layers_separate_as_predicted():
    original = api.ComputeCacheMachine.cc
    metrics = {}
    for workload in workloads.WORKLOADS:
        base, result, tracer = traced_pass(workload)
        assert tracer.warnings == []
        # Self times add up to the root spans, which cover the traced time.
        assert result.layers["self_ns"].sum() == pytest.approx(
            result.layers["root_ns"], rel=1e-9)
        assert 0.9 < run.trace_coverage([result]) <= 1.0
        assert (result.layers["self_ns"] >= 0).all()
        metrics[workload] = run.per_layer(base, [result])
    assert api.ComputeCacheMachine.cc is original      # wrappers removed
    cc, scalar, stream = (metrics[w] for w in workloads.WORKLOADS)
    assert scalar["core.controller.calls"] == 0
    assert cc["events.calls"] == scalar["events.calls"] == 0
    assert stream["events.calls"] > 0
    assert stream["sim.topo.inter_flit_hops"] > 0
    assert cc["sim.topo.inter_flit_hops"] == scalar["sim.topo.inter_flit_hops"] == 0
    assert cc["core.nearplace.calls"] > 0
    assert cc["kernels.calls"] > 0 and cc["core.stream.calls"] > 0
    assert scalar["cpu.calls"] > 0 and scalar["cache.calls"] > 0
    for values in metrics.values():
        assert [name for name, _, _ in run.per_layer_spec()] == list(values)


def test_missing_entry_point_is_reported_not_fatal(monkeypatch, capsys):
    broken = layers.ENTRY_POINTS + (
        ("events", lambda m: api.EventTracer, ("no_such_method",)),
        ("sram", lambda m: m.no_such_attribute, ("read_block",)),
    )
    monkeypatch.setattr(layers, "ENTRY_POINTS", broken)
    units, _ = tiny("scalar-apps")
    with layers.LayerTracer() as tracer:
        run.Bench(units[:1]).run_pass(tracer)
    assert len(tracer.warnings) == 2
    assert "no_such_method" in capsys.readouterr().err


def test_benchmark_json_names_every_metric():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        doc = json.load(handle)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        run.per_layer_spec()
