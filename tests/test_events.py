"""Event-tracing subsystem tests (repro.events).

Covers the ring-buffer tracer itself, the cycle-attribution invariant
(phase spans sum to machine cycles), agreement between the event profiler
and ``collect_stats``, the Chrome-trace exporter, the ``repro profile``
CLI, and the near-zero cost of disabled tracing.
"""

from __future__ import annotations

import inspect
import json
import math
import time
from collections import Counter

import pytest

from repro import ComputeCacheMachine, cc_ops
from repro.events import (
    CC_PHASES,
    MACHINE_PHASES,
    EventTracer,
    build_profile,
    chrome_trace,
    format_profile,
    profile_machine,
    profile_trace,
    write_chrome_trace,
)
from repro.events.tracer import EVENT_FIELDS
from repro.params import small_test_machine
from repro.stats import collect_stats
from repro.trace import run_trace

PROFILE_TRACE = """
init 0x0000, repeat:0xa5*4096
init 0x1000, repeat:0x0f*4096
init 0x2000, zeros:4096
init 0x4000, bytes:deadbeefcafef00d
load  0x4000, 8
load  0x4000, 8, dependent
simd_load 0x0000, 32
scalar
branch
store 0x4040, bytes:0011223344556677
simd_store 0x4080, repeat:0x5a*64
cc_and 0x0000, 0x1000, 0x2000, 4096
cc_cmp 0x0000, 0x1000, 512
fence
"""


@pytest.fixture
def traced_machine(small_config):
    return ComputeCacheMachine(small_config, trace_events=True)


class TestEventTracer:
    def test_disabled_by_default(self, machine):
        assert machine.tracer is None
        assert machine.hierarchy.tracer is None
        assert machine.controllers[0].tracer is None
        assert machine.cores[0].tracer is None

    def test_enabled_machine_shares_one_tracer(self, traced_machine):
        m = traced_machine
        assert m.tracer is not None
        assert m.controllers[0].tracer is m.tracer
        assert m.cores[0].tracer is m.tracer
        assert m.hierarchy.l1[0].tracer is m.tracer
        assert m.hierarchy.l3[0].tracer is m.tracer
        assert m.hierarchy.directory[0].tracer is m.tracer

    def test_emit_and_sequence(self):
        tracer = EventTracer(capacity=16)
        tracer.emit("cache.lookup", level="L1-D", outcome="hit")
        tracer.emit("cache.lookup", level="L1-D", outcome="miss")
        events = tracer.snapshot()
        assert [e.seq for e in events] == [0, 1]
        assert events[0].outcome == "hit" and events[1].outcome == "miss"
        assert tracer.dropped == 0

    def test_ring_overflow_counts_dropped(self):
        tracer = EventTracer(capacity=4)
        for i in range(10):
            tracer.emit("cache.lookup", addr=i)
        assert len(tracer) == 4
        assert tracer.total_emitted == 10
        assert tracer.dropped == 6
        assert [e.addr for e in tracer.snapshot()] == [6, 7, 8, 9]
        assert [e.seq for e in tracer.snapshot()] == [6, 7, 8, 9]
        assert [e.seq for e in tracer.by_kind("cache.lookup")] == [6, 7, 8, 9]

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            EventTracer(capacity=0)

    def test_by_kind_and_clear(self):
        tracer = EventTracer(capacity=8)
        tracer.emit("cache.lookup")
        tracer.emit("dir.grant")
        assert len(tracer.by_kind("dir.grant")) == 1
        tracer.clear()
        assert len(tracer) == 0
        tracer.emit("dir.grant")
        assert [e.seq for e in tracer] == [0]

    def test_misspelt_field_raises(self):
        """``emit`` takes the :class:`Event` fields as keywords, in order,
        and rejects any other name without recording."""
        params = inspect.signature(EventTracer.emit).parameters
        assert tuple(params)[1:] == EVENT_FIELDS[1:]
        tracer = EventTracer(capacity=4)
        with pytest.raises(TypeError):
            tracer.emit("cache.lookup", bogus=1)
        assert len(tracer) == 0 and tracer.total_emitted == 0

    def test_config_capacity_validated(self):
        from repro.errors import ConfigError
        from repro.params import MachineConfig

        with pytest.raises(ConfigError):
            MachineConfig(event_buffer_capacity=0)


class TestAttributionInvariant:
    def test_machine_phases_sum_to_cycles(self, small_config):
        m = ComputeCacheMachine(small_config, trace_events=True)
        result = run_trace(PROFILE_TRACE, m)
        profile = profile_machine(m, total_cycles=result.cycles)
        assert profile.validate(result.cycles)
        assert math.isclose(profile.attributed_cycles, result.cycles,
                            rel_tol=1e-9, abs_tol=1e-6)
        # every phase key is a known machine phase
        assert set(profile.machine_phases) <= set(MACHINE_PHASES)

    def test_cc_attr_sums_to_instruction_cycles(self, small_config):
        m = ComputeCacheMachine(small_config, trace_events=True)
        run_trace(PROFILE_TRACE, m)
        profile = profile_machine(m)
        assert profile.cc_instructions, "trace contains CC instructions"
        assert set(profile.cc_phases) <= set(CC_PHASES)
        for row in profile.cc_instructions:
            assert math.isclose(sum(row.phases.values()), row.cycles,
                                rel_tol=1e-9, abs_tol=1e-6)
        assert math.isclose(sum(profile.cc_phases.values()),
                            sum(r.cycles for r in profile.cc_instructions),
                            rel_tol=1e-9, abs_tol=1e-6)

    def test_truncated_stream_refuses_to_validate(self, small_config):
        from dataclasses import replace

        config = replace(small_config, event_buffer_capacity=8)
        m = ComputeCacheMachine(config, trace_events=True)
        result = run_trace(PROFILE_TRACE, m)
        assert m.tracer.dropped > 0
        profile = profile_machine(m, total_cycles=result.cycles)
        assert not profile.validate(result.cycles)

    def test_profile_trace_helper(self):
        profile, result, machine = profile_trace(
            PROFILE_TRACE, machine=ComputeCacheMachine(
                small_test_machine(), trace_events=True
            ),
        )
        assert profile.validate(result.cycles)
        assert machine.tracer is not None

    def test_profile_machine_requires_tracer(self, machine):
        with pytest.raises(ValueError):
            profile_machine(machine)


class TestProfilerStatsAgreement:
    """The event-derived profile and collect_stats never disagree."""

    def test_counters_match(self, small_config):
        m = ComputeCacheMachine(small_config, trace_events=True)
        run_trace(PROFILE_TRACE, m)
        profile = profile_machine(m)
        snap = collect_stats(m)
        assert profile.block_op_outcomes.get("in-place", 0) == snap.cc_inplace_ops
        assert profile.block_op_outcomes.get("near-place", 0) == snap.cc_nearplace_ops
        assert profile.block_op_outcomes.get("risc-fallback", 0) == snap.cc_risc_ops
        assert profile.pin_retries == snap.cc_pin_retries
        assert profile.key_replications == snap.cc_key_replications
        assert profile.fallback_reasons == snap.cc_fallback_reasons
        assert profile.level_compute_cycles == snap.cc_level_compute_cycles
        for level, cycles in profile.level_compute_cycles.items():
            assert snap.levels[level].cc_compute_cycles == cycles

    def test_cache_event_counts_match_stats(self, small_config):
        m = ComputeCacheMachine(small_config, trace_events=True)
        run_trace(PROFILE_TRACE, m)
        profile = profile_machine(m)
        snap = collect_stats(m)
        # fills and writebacks are one event per counted occurrence
        for prof_level, stats_level in (("L1-D", "L1"), ("L2", "L2"),
                                        ("L3-slice", "L3")):
            counts = profile.cache_counts.get(prof_level, {})
            level = snap.levels[stats_level]
            assert counts.get("fills", 0) == level.fills
            assert counts.get("writebacks", 0) == level.writebacks
            assert counts.get("htree_transfers", 0) == level.htree_transfers
            assert counts.get("htree_commands", 0) == level.htree_commands

    @pytest.mark.parametrize("backend", ["bitexact", "packed"])
    def test_htree_transfers_are_reads_plus_writes(self, small_config, backend):
        """A block crosses a level's H-tree exactly when the level reads or
        writes it conventionally: per level, the stats' transfers, its
        reads plus writes and the ``htree.transfer`` events agree."""
        m = ComputeCacheMachine(small_config, backend=backend, trace_events=True)
        run_trace(PROFILE_TRACE, m)
        events = Counter(ev.level for ev in m.tracer if ev.kind == "htree.transfer")
        snap = collect_stats(m)
        for stats_level, event_level in (("L1", "L1-D"), ("L2", "L2"), ("L3", "L3-slice")):
            level = snap.levels[stats_level]
            assert level.htree_transfers == level.reads + level.writes
            assert level.htree_transfers == events[event_level]
            assert level.htree_commands == 0
        assert sum(events.values()) > 0

    def test_format_outputs_render(self, small_config):
        m = ComputeCacheMachine(small_config, trace_events=True)
        result = run_trace(PROFILE_TRACE, m)
        profile = profile_machine(m, total_cycles=result.cycles)
        text = format_profile(profile)
        assert "[attribution OK]" in text
        assert "=== CC block operations ===" in text
        # no H-tree command count: nothing emits ``htree.command``
        htree = [line for line in text.splitlines() if "H-tree" in line and ":" in line]
        assert htree and not any("commands" in line for line in htree)
        from repro.stats import format_stats
        assert "compute cycles" in format_stats(collect_stats(m))


class TestChromeTrace:
    def test_export_structure(self, small_config, tmp_path):
        m = ComputeCacheMachine(small_config, trace_events=True)
        run_trace(PROFILE_TRACE, m)
        doc = chrome_trace(m.tracer.snapshot())
        events = doc["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert slices and meta
        for e in slices:
            assert e["ts"] >= 0 and e["dur"] >= 0
            assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
            assert e["name"]
        # issue slots and CC occupancy both present
        names = {e["name"] for e in slices}
        assert "issue" in {n.split(":", 1)[0] for n in names}
        out = tmp_path / "trace.json"
        write_chrome_trace(m.tracer.snapshot(), str(out))
        loaded = json.loads(out.read_text())
        assert loaded["traceEvents"] == json.loads(json.dumps(events))

    def test_empty_stream_exports(self):
        doc = chrome_trace([])
        assert doc["traceEvents"] == []


class TestProfileCli:
    def test_profile_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "chrome.json"
        rc = main(["profile", "examples/profile_demo.trace",
                   "--machine", "small", "--chrome-trace", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "[attribution OK]" in text
        assert "Per-instruction CC attribution" in text
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]

    def test_profile_both_backends_agree(self, capsys):
        from repro.cli import main

        outputs = []
        for backend in ("bitexact", "packed"):
            rc = main(["profile", "examples/profile_demo.trace",
                       "--machine", "small", "--backend", backend])
            assert rc == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestDisabledOverhead:
    def test_tracing_disabled_overhead_small(self, small_config):
        """Tracing off must stay within noise of the instrumentation's
        architectural floor on a 16 KB xor.

        With ``trace_events=False`` every component holds ``tracer=None``,
        so the hot paths pay exactly one ``is not None`` check per hook -
        the <2% overhead target is architectural.  At wall-clock level we
        compare against tracing on, which additionally pays every
        ``emit()`` call and row: off must not be slower than on, modulo
        generous CI scheduling noise."""
        size = 16 * 1024

        def run_once(trace_events):
            m = ComputeCacheMachine(small_config, trace_events=trace_events)
            a, b, c = m.arena.alloc_colocated(size, 3)
            m.load(a, b"\xa5" * size)
            m.load(b, b"\x0f" * size)
            start = time.perf_counter()
            m.cc(cc_ops.cc_xor(a, b, c, size))
            return time.perf_counter() - start

        run_once(False)  # warm caches before timing
        disabled, traced = [], []
        for _ in range(5):  # interleave A/B to cancel drift
            disabled.append(run_once(False))
            traced.append(run_once(True))
        median_disabled = sorted(disabled)[2]
        median_traced = sorted(traced)[2]
        assert median_disabled <= median_traced * 1.25, (
            f"tracing-disabled run ({median_disabled * 1e3:.2f} ms) slower "
            f"than traced run ({median_traced * 1e3:.2f} ms)"
        )

    def test_no_events_emitted_when_disabled(self, machine):
        a, b, c = machine.arena.alloc_colocated(4096, 3)
        machine.load(a, b"\xa5" * 4096)
        machine.load(b, b"\x0f" * 4096)
        machine.cc(cc_ops.cc_xor(a, b, c, 4096))
        assert machine.tracer is None  # nothing attached anywhere
