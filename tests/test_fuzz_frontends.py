"""Fuzzing the text frontends, config documents and the ECC repair path.

The assembler and trace parser accept untrusted text: any input must
either parse or raise :class:`ISAError` - never crash with anything else.
A config document is untrusted too: it must load into a machine that runs,
or fail with a :class:`ReproError`; so is a fault plan, which must load
into a plan whose campaign runs, or fail with a :class:`FaultPlanError`.
The ECC path must repair a strike at *any* bit position of any block.
"""

import copy
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ComputeCacheMachine
from repro.asm import parse
from repro.config_io import config_from_dict, config_to_dict
from repro.core.scrub import ScrubService
from repro.errors import FaultPlanError, ISAError, ReproError
from repro.faults import FaultPlan, default_plan, run_campaign
from repro.params import multi_cluster, small_test_machine
from repro.trace import TraceReader, run_trace


class TestAssemblerFuzz:
    @given(st.text(max_size=80))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_text_never_crashes(self, text):
        try:
            parse(text)
        except ISAError:
            pass  # the only acceptable failure mode

    @given(st.text(alphabet="cc_andorxbuzsearch0123456789x, #", max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_near_miss_mnemonics(self, text):
        try:
            parse(text)
        except ISAError:
            pass

    @given(st.integers(-(2**40), 2**40), st.integers(-(2**20), 2**20))
    @settings(max_examples=80, deadline=None)
    def test_numeric_extremes(self, addr, size):
        try:
            instr = parse(f"cc_buz {addr}, {size}")
        except ISAError:
            return
        # If it parsed, the ISA validated it: in-range and aligned.
        assert instr.src1 >= 0 and instr.src1 % 64 == 0
        assert 0 < instr.size <= 16 * 1024


class TestTraceFuzz:
    @given(st.lists(st.text(max_size=50), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_traces_never_crash_parser(self, lines):
        reader = TraceReader()
        for i, line in enumerate(lines):
            try:
                reader.feed_line(line, i)
            except ISAError:
                pass

    @given(st.lists(
        st.sampled_from(["scalar", "branch", "fence",
                         "load 0x0, 8", "store 0x40, zeros:8",
                         "cc_buz 0x0, 64", "cc_copy 0x0, 0x1000, 64"]),
        min_size=1, max_size=12,
    ))
    @settings(max_examples=40, deadline=None)
    def test_valid_event_sequences_execute(self, events):
        trace = "init 0x0, zeros:4096\ninit 0x1000, zeros:4096\n" + "\n".join(events)
        m = ComputeCacheMachine(small_test_machine())
        result = run_trace(trace, m)
        assert result.instructions == len(events)
        assert result.cycles >= len(events)


CONFIG_DOCS = (config_to_dict(small_test_machine()),
               config_to_dict(multi_cluster(2, 2)))
"""A flat machine's document and one carrying a ``topology`` section."""
SCALAR_FIELDS = [
    (doc, section, name)
    for doc, config in enumerate(CONFIG_DOCS)
    for section, fields in [(None, config), *config.items()] if isinstance(fields, dict)
    for name, value in fields.items()
    if name != "schema" and isinstance(value, (int, float, str))
]
"""``(document, section, field)`` of every number and string, ``backend``
included."""
CONFIG_TRACE = """init 0x0, zeros:4096
init 0x1000, repeat:0xff*4096
load 0x0, 8
store 0x40, zeros:8
cc_or 0x0, 0x1000, 0x2000, 4096
fence"""
# Any JSON scalar, with numbers kept small enough that the machine fits
# in memory and its energy sums stay finite.
JSON_SCALARS = (st.none() | st.booleans() | st.text(max_size=4)
                | st.integers(-1024, 1024) | st.floats(-1e9, 1e9)
                | st.sampled_from([math.nan, math.inf, -math.inf]))


class TestConfigFuzz:
    @given(st.sampled_from(SCALAR_FIELDS), JSON_SCALARS)
    @settings(max_examples=300, deadline=None)
    def test_one_changed_value_runs_or_fails_cleanly(self, field, value):
        """A document with one number or string replaced by any JSON
        scalar either runs a trace to finite, non-negative totals or fails
        with a ReproError; never with another exception or a NaN."""
        index, section, name = field
        doc = copy.deepcopy(CONFIG_DOCS[index])
        (doc[section] if section else doc)[name] = value
        try:
            result = run_trace(CONFIG_TRACE, ComputeCacheMachine(config_from_dict(doc)))
        except ReproError:
            return
        assert result.cycles > 0
        assert math.isfinite(result.dynamic_nj) and result.dynamic_nj >= 0


PLAN_DOC = default_plan(5).to_dict()
PLAN_FIELDS = [(name,) for name in PLAN_DOC] + [
    ("faults", i, name)
    for i, entry in enumerate(PLAN_DOC["faults"]) for name in entry
] + [
    ("faults", i, "params", name)
    for i, entry in enumerate(PLAN_DOC["faults"]) for name in entry["params"]
]


class TestFaultPlanFuzz:
    @given(st.sampled_from(PLAN_FIELDS),
           JSON_SCALARS | st.just({}) | st.just([]))
    @settings(max_examples=40, deadline=None)
    def test_one_changed_value_runs_or_fails_cleanly(self, path, value):
        """The default plan with one value (seed, schema, or any field of
        a fault entry or of its params) replaced either loads into a plan
        whose campaign runs with no silent corruption, or fails with a
        FaultPlanError."""
        doc = copy.deepcopy(PLAN_DOC)
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        try:
            plan = FaultPlan.from_dict(doc)
        except FaultPlanError:
            return
        # Without its ``runner.*`` faults the plan skips the sweep-runner
        # phase, which this test does not vary.
        plan = replace(plan, specs=tuple(s for s in plan.specs
                                         if not s.kind.startswith("runner.")))
        assert run_campaign(plan).silent == 0


class TestECCStrikeSweep:
    @given(st.integers(0, 511 * 8 - 1))
    @settings(max_examples=60, deadline=None)
    def test_any_single_bit_strike_repaired(self, bit):
        """Every bit position of an 8-block region: strike -> scrub ->
        identical data."""
        m = ComputeCacheMachine(small_test_machine())
        addr = m.arena.alloc_page_aligned(512)
        rng = np.random.default_rng(bit)
        m.load(addr, rng.integers(0, 256, 512, dtype=np.uint8).tobytes())
        m.warm_l3(addr, 512)
        level = m.hierarchy.l3[m.hierarchy.home_slice(addr, 0)]
        service = ScrubService(level)
        service.protect_resident()
        block = addr + (bit // 512) * 64
        before = level.peek_block(block)
        service.inject_strike(block, bit=bit % 512)
        report = service.scrub_pass()
        assert report.corrections == 1
        assert level.peek_block(block) == before
