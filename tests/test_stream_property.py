"""The stream scheduler is observationally invisible (repro.core.stream).

Differential harness: the same CC instruction sequence is executed on two
fresh, identically-seeded machines — one instruction at a time through
``ComputeCacheMachine.cc`` versus batched through
``ComputeCacheMachine.cc_stream`` — and *everything* observable must be
bit-identical: per-instruction ``CCResult`` fields, architectural memory,
the energy ledger, controller statistics (modulo decode-memo hit
counters, which only count uncounted probes), and the full event stream.
The hypothesis case mixes fusable and non-fusable opcodes, page-spanning
and misaligned operands, data-dependent reuse of the same slots, and
cold/L3/private warming, so both the fused path and every fallback to
the sequential path are exercised.
"""

import random
from dataclasses import asdict, astuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ComputeCacheMachine, cc_ops
from repro.core.stream import CCInstructionStream, CCOccupancyTimeline
from repro.params import BLOCK_SIZE, PAGE_SIZE, sandybridge_8core, small_test_machine

SLOTS = 4
SLOT_BYTES = 2 * PAGE_SIZE
SLOT_BLOCKS = SLOT_BYTES // BLOCK_SIZE

#: Stats fields that may legitimately differ: they count hits in the
#: decode memos, and the stream performs extra (uncounted, invisible)
#: level/hazard probes while sizing fusion groups.
MEMO_STATS = ("level_memo_hits", "hazard_memo_hits")

OPS = ["and", "or", "xor", "copy", "not", "buz", "cmp", "search",
       "add", "mul", "reduce"]


def build_instr(op, a, b, c, size):
    if op == "and":
        return cc_ops.cc_and(a, b, c, size)
    if op == "or":
        return cc_ops.cc_or(a, b, c, size)
    if op == "xor":
        return cc_ops.cc_xor(a, b, c, size)
    if op == "copy":
        return cc_ops.cc_copy(a, c, size)
    if op == "not":
        return cc_ops.cc_not(a, c, size)
    if op == "buz":
        return cc_ops.cc_buz(c, size)
    if op == "cmp":
        return cc_ops.cc_cmp(a, b, size)
    if op == "search":
        return cc_ops.cc_search(a, b, size)  # b is the 64-byte key block
    if op == "add":
        return cc_ops.cc_add(a, b, c, size, elem_bits=8)
    if op == "mul":
        return cc_ops.cc_mul(a, b, c, size, elem_bits=16)
    if op == "reduce":
        return cc_ops.cc_reduce(a, size, elem_bits=32)
    raise AssertionError(op)


def fresh_machine(warm):
    """A machine with SLOTS page-aligned slots of identical random data,
    each warmed per ``warm`` ("cold" | "l3" | "touch")."""
    m = ComputeCacheMachine(small_test_machine(), trace_events=True)
    rng = random.Random(0xBEEF)
    slots = [m.arena.alloc_page_aligned(SLOT_BYTES) for _ in range(SLOTS)]
    for slot in slots:
        m.load(slot, rng.randbytes(SLOT_BYTES))
    for slot, how in zip(slots, warm):
        if how == "l3":
            m.warm_l3(slot, SLOT_BYTES)
        elif how == "touch":
            m.touch_range(slot, SLOT_BYTES)
    return m, slots


def materialize(specs, slots):
    instrs = []
    for op, sa, sb, sc, offs, blocks in specs:
        size = blocks * BLOCK_SIZE
        off_a, off_b, off_c = (min(o, SLOT_BLOCKS - blocks) * BLOCK_SIZE
                               for o in offs)
        instrs.append(build_instr(
            op, slots[sa] + off_a,
            slots[sb] if op == "search" else slots[sb] + off_b,
            slots[sc] + off_c, size))
    return instrs


def assert_identical(m_seq, m_str, res_seq, res_str, slots):
    assert len(res_seq) == len(res_str)
    for ra, rb in zip(res_seq, res_str):
        assert astuple(ra) == astuple(rb)
    for slot in slots:
        assert m_seq.peek(slot, SLOT_BYTES) == m_str.peek(slot, SLOT_BYTES)
    assert dict(m_seq.ledger.pj) == dict(m_str.ledger.pj)
    stats_seq = asdict(m_seq.controllers[0].stats)
    stats_str = asdict(m_str.controllers[0].stats)
    for key in MEMO_STATS:
        stats_seq.pop(key)
        stats_str.pop(key)
    assert stats_seq == stats_str
    events_seq = [astuple(e) for e in m_seq.tracer.events]
    events_str = [astuple(e) for e in m_str.tracer.events]
    assert events_seq == events_str


def run_differential(specs, warm, window, **execute_kwargs):
    m_seq, slots = fresh_machine(warm)
    m_str, slots_str = fresh_machine(warm)
    assert slots == slots_str  # deterministic arena
    instrs = materialize(specs, slots)
    res_seq = [m_seq.cc(instr, **execute_kwargs) for instr in instrs]
    out = m_str.cc_stream(instrs, window=window, **execute_kwargs)
    assert_identical(m_seq, m_str, res_seq, out.results, slots)
    return m_seq, m_str, out


class TestStreamEquivalence:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(OPS),
                st.integers(0, SLOTS - 1),
                st.integers(0, SLOTS - 1),
                st.integers(0, SLOTS - 1),
                st.tuples(*(st.integers(0, SLOT_BLOCKS - 1),) * 3),
                st.integers(1, 8),
            ),
            min_size=1, max_size=10,
        ),
        st.lists(st.sampled_from(["cold", "l3", "touch"]),
                 min_size=SLOTS, max_size=SLOTS),
        st.integers(2, 8),
    )
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def test_stream_is_bit_identical_to_sequential(self, specs, warm, window):
        run_differential(specs, warm, window)

    def test_force_nearplace_falls_back_and_matches(self):
        specs = [("xor", 0, 1, 2, (0, 0, 0), 4),
                 ("and", 1, 2, 3, (8, 8, 8), 4)]
        _, _, out = run_differential(specs, ["l3"] * SLOTS, 8,
                                     force_nearplace=True)
        assert out.fused_instructions == 0

    def test_contention_pin_loss_matches(self):
        """With a contention hook installed the stream must disable fusion
        and still reproduce the sequential retry path exactly."""
        m_seq, slots = fresh_machine(["l3"] * SLOTS)
        m_str, _ = fresh_machine(["l3"] * SLOTS)

        def make_hook():
            steals = [0]

            def hook(addr):
                steals[0] += 1
                return steals[0] <= 2  # first two pin checks are stolen

            return hook

        m_seq.controllers[0].contention_hook = make_hook()
        m_str.controllers[0].contention_hook = make_hook()
        instrs = materialize([("xor", 0, 1, 2, (0, 0, 0), 4),
                              ("copy", 1, 0, 3, (4, 4, 4), 2)], slots)
        res_seq = [m_seq.cc(instr) for instr in instrs]
        out = m_str.cc_stream(instrs)
        assert out.fused_instructions == 0
        assert m_seq.controllers[0].stats.pin_retries > 0
        assert_identical(m_seq, m_str, res_seq, out.results, slots)


class TestStreamLayoutTracking:
    def test_fused_copy_reverts_bit_serial_layout(self):
        """A fused ``cc_copy`` into a ``cc_add`` destination reverts those
        blocks to row-major exactly as a one-at-a-time copy does, so the
        next ``cc_add`` reading them pays the transpose again."""

        def run(fuse):
            m = ComputeCacheMachine(sandybridge_8core())
            rng = random.Random(5)
            a, b, c, e, f, g, h = m.arena.alloc_colocated(PAGE_SIZE, 7)
            for addr in (a, b, c, e, f, g, h):
                m.load(addr, rng.randbytes(PAGE_SIZE))
                m.warm_l3(addr, PAGE_SIZE)
            m.cc(cc_ops.cc_add(a, b, c, PAGE_SIZE))
            copies = [cc_ops.cc_copy(e, c, PAGE_SIZE),
                      cc_ops.cc_copy(f, g, PAGE_SIZE)]
            if fuse:
                assert m.cc_stream(copies).fused_instructions == 2
            else:
                for instr in copies:
                    m.cc(instr)
            return m, m.cc(cc_ops.cc_add(c, a, h, PAGE_SIZE)), h

        m_seq, res_seq, h = run(fuse=False)
        m_str, res_str, _ = run(fuse=True)
        assert res_seq.cycles == 161
        assert m_seq.controllers[0].stats.transpose_blocks == 192
        assert astuple(res_str) == astuple(res_seq)
        stats_seq, stats_str = (asdict(m.controllers[0].stats)
                                for m in (m_seq, m_str))
        for key in MEMO_STATS:
            stats_seq.pop(key)
            stats_str.pop(key)
        assert stats_str == stats_seq
        assert dict(m_str.ledger.pj) == dict(m_seq.ledger.pj)
        assert m_str.peek(h, PAGE_SIZE) == m_seq.peek(h, PAGE_SIZE)


class TestStreamFusion:
    def _disjoint_stream(self, n, size=512, op="xor"):
        m = ComputeCacheMachine(small_test_machine(), trace_events=True)
        rng = random.Random(7)
        instrs = []
        for _ in range(n):
            a, b, c = m.arena.alloc_colocated(size, 3)
            m.load(a, rng.randbytes(size))
            m.load(b, rng.randbytes(size))
            instrs.append(build_instr(op, a, b, c, size))
            for addr in (a, b, c):
                m.warm_l3(addr, size)
        return m, instrs

    def test_disjoint_stream_fuses(self):
        m, instrs = self._disjoint_stream(4)
        out = m.cc_stream(instrs)
        assert out.fused_instructions == 4
        assert out.fused_groups == 1
        assert out.kernel_calls >= 1
        assert out.fused_fraction == 1.0
        assert out.instructions == 4
        assert out.simulated_bytes == 4 * 512

    def test_window_bounds_group_size(self):
        m, instrs = self._disjoint_stream(4)
        out = m.cc_stream(instrs, window=2)
        assert out.fused_instructions == 4
        assert out.fused_groups == 2

    def test_window_one_disables_fusion(self):
        m, instrs = self._disjoint_stream(3)
        out = m.cc_stream(instrs, window=1)
        assert out.fused_instructions == 0
        assert out.instructions == 3

    def test_single_instruction_not_fused(self):
        m, instrs = self._disjoint_stream(1)
        out = m.cc_stream(instrs)
        assert out.fused_instructions == 0

    def test_non_fusable_opcode_falls_back(self):
        m = ComputeCacheMachine(small_test_machine())
        size = 512
        data, key, _ = m.arena.alloc_colocated(size, 3)
        m.load(data, b"\x11" * size)
        m.load(key, b"\x11" * 64)
        m.warm_l3(data, size)
        m.warm_l3(key, 64)
        out = m.cc_stream([cc_ops.cc_search(data, key, size)] * 2)
        assert out.fused_instructions == 0
        assert out.instructions == 2

    def test_dependent_instructions_do_not_fuse_together(self):
        """c = a^b then d = c^a share blocks: they may not share a group."""
        m = ComputeCacheMachine(small_test_machine())
        size = 512
        a, b, c, d = m.arena.alloc_colocated(size, 4)
        rng = random.Random(9)
        m.load(a, rng.randbytes(size))
        m.load(b, rng.randbytes(size))
        for addr in (a, b, c, d):
            m.warm_l3(addr, size)
        out = m.cc_stream([cc_ops.cc_xor(a, b, c, size),
                           cc_ops.cc_xor(c, a, d, size)])
        assert out.fused_groups == 0
        from repro.bitops import bytes_xor
        pa, pb = m.peek(a, size), m.peek(b, size)
        assert m.peek(c, size) == bytes_xor(pa, pb)
        assert m.peek(d, size) == bytes_xor(bytes_xor(pa, pb), pa)

    def test_overlap_model(self):
        m, instrs = self._disjoint_stream(6)
        out = m.cc_stream(instrs)
        assert 0.0 < out.overlapped_cycles <= out.serial_cycles
        assert out.overlap_speedup >= 1.0
        assert out.serial_cycles == sum(r.cycles for r in out.results)

    def test_window_clamped_to_instruction_table(self):
        m = ComputeCacheMachine(small_test_machine())
        stream = CCInstructionStream(m.controllers[0], window=64)
        assert stream.window == m.controllers[0].instruction_table.capacity


class TestSpeedBench:
    def test_run_speed_document_and_contracts(self):
        from repro.bench.speed import SPEED_SCHEMA, SpeedConfig, run_speed, \
            summarize

        cfg = SpeedConfig(kernel="xor", size=512, instructions=4, passes=1,
                          backends=("packed",))
        doc = run_speed(cfg)
        assert doc["schema"] == SPEED_SCHEMA
        assert "provenance" in doc
        packed = doc["backends"]["packed"]
        assert packed["bit_identical"] is True
        assert packed["stream"]["instructions"] == 4
        assert packed["stream"]["simulated_bytes_per_s"] == \
            packed["stream"]["instructions_per_s"] * 512
        assert doc["contract"]["passed"] is True
        assert "speed: kernel=xor" in summarize(doc)

        # An unreachable min-speedup contract must fail the document.
        failing = run_speed(SpeedConfig(kernel="xor", size=512,
                                        instructions=4, passes=1,
                                        backends=("packed",),
                                        min_speedup=1e9))
        assert failing["contract"]["passed"] is False
        assert failing["contract"]["failures"]

    def test_baseline_regression_contract(self):
        from repro.bench.speed import SpeedConfig, run_speed

        base = {"backends": {"packed": {"stream":
                                        {"instructions_per_s": 1e12}}}}
        doc = run_speed(SpeedConfig(kernel="copy", size=512, instructions=2,
                                    passes=1, backends=("packed",),
                                    baseline=base, tolerance=0.2))
        assert doc["contract"]["passed"] is False
        assert any("below the committed baseline" in f
                   for f in doc["contract"]["failures"])

    def test_unknown_kernel_rejected(self):
        import pytest

        from repro.bench.speed import SpeedConfig, run_speed
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="unknown speed kernel"):
            run_speed(SpeedConfig(kernel="nope"))


class TestOccupancyTimeline:
    def test_issue_serializes_occupancy(self):
        tl = CCOccupancyTimeline()
        assert tl.issue(0.0, 10.0, 100.0) == 0.0
        # Second instruction queues behind the first's occupancy, not its
        # full completion.
        assert tl.issue(0.0, 10.0, 50.0) == 10.0
        assert tl.busy_until == 20.0
        assert tl.drain_target == 100.0

    def test_min_occupancy_is_one_cycle(self):
        tl = CCOccupancyTimeline()
        tl.issue(0.0, 0.0, 0.0)
        assert tl.busy_until == 1.0

    def test_issue_after_idle_starts_at_now(self):
        tl = CCOccupancyTimeline()
        tl.issue(0.0, 5.0, 5.0)
        assert tl.issue(42.0, 5.0, 5.0) == 42.0
        assert tl.drain_target == 47.0
