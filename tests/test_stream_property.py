"""The stream is observationally invisible (repro.core.stream).

Differential harness: the same CC instruction sequence is executed on two
fresh, identically-seeded machines — one instruction at a time through
``ComputeCacheMachine.cc`` versus as one ``ComputeCacheMachine.cc_stream``
— and *everything* observable must be bit-identical: per-instruction
``CCResult`` fields, architectural memory, the energy ledger, every
controller statistic, and the full event stream.  The hypothesis case
mixes every opcode family, page-spanning and misaligned operands,
data-dependent reuse of the same slots, and cold/L3/private warming.
"""

import random
from dataclasses import asdict, astuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ComputeCacheMachine, cc_ops
from repro.core.stream import CCOccupancyTimeline
from repro.params import BLOCK_SIZE, PAGE_SIZE, sandybridge_8core, small_test_machine

SLOTS = 4
SLOT_BYTES = 2 * PAGE_SIZE
SLOT_BLOCKS = SLOT_BYTES // BLOCK_SIZE

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
    assert asdict(m_seq.controllers[0].stats) == asdict(m_str.controllers[0].stats)
    events_seq = [astuple(e) for e in m_seq.tracer.snapshot()]
    events_str = [astuple(e) for e in m_str.tracer.snapshot()]
    assert events_seq == events_str


def run_differential(specs, warm, **execute_kwargs):
    m_seq, slots = fresh_machine(warm)
    m_str, slots_str = fresh_machine(warm)
    assert slots == slots_str  # deterministic arena
    instrs = materialize(specs, slots)
    res_seq = [m_seq.cc(instr, **execute_kwargs) for instr in instrs]
    out = m_str.cc_stream(instrs, **execute_kwargs)
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
    )
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def test_stream_is_bit_identical_to_sequential(self, specs, warm):
        run_differential(specs, warm)

    def test_force_nearplace_falls_back_and_matches(self):
        specs = [("xor", 0, 1, 2, (0, 0, 0), 4),
                 ("and", 1, 2, 3, (8, 8, 8), 4)]
        run_differential(specs, ["l3"] * SLOTS, force_nearplace=True)

    def test_contention_pin_loss_matches(self):
        """With a contention hook installed the stream reproduces the
        sequential retry path exactly."""
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
        assert m_seq.controllers[0].stats.pin_retries > 0
        assert_identical(m_seq, m_str, res_seq, out.results, slots)


class TestStreamLayoutTracking:
    def test_fused_copy_reverts_bit_serial_layout(self):
        """A streamed ``cc_copy`` into a ``cc_add`` destination reverts
        those blocks to row-major exactly as a copy issued through ``cc``
        does, so the next ``cc_add`` reading them pays the transpose
        again."""

        def run(stream):
            m = ComputeCacheMachine(sandybridge_8core())
            rng = random.Random(5)
            a, b, c, e, f, g, h = m.arena.alloc_colocated(PAGE_SIZE, 7)
            for addr in (a, b, c, e, f, g, h):
                m.load(addr, rng.randbytes(PAGE_SIZE))
                m.warm_l3(addr, PAGE_SIZE)
            m.cc(cc_ops.cc_add(a, b, c, PAGE_SIZE))
            copies = [cc_ops.cc_copy(e, c, PAGE_SIZE),
                      cc_ops.cc_copy(f, g, PAGE_SIZE)]
            if stream:
                m.cc_stream(copies)
            else:
                for instr in copies:
                    m.cc(instr)
            return m, m.cc(cc_ops.cc_add(c, a, h, PAGE_SIZE)), h

        m_seq, res_seq, h = run(stream=False)
        m_str, res_str, _ = run(stream=True)
        assert res_seq.cycles == 161
        assert m_seq.controllers[0].stats.transpose_blocks == 192
        assert astuple(res_str) == astuple(res_seq)
        assert asdict(m_str.controllers[0].stats) == asdict(m_seq.controllers[0].stats)
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
        assert out.instructions == 4

    def test_dependent_instructions_do_not_fuse_together(self):
        """d = c^a reads the c = a^b issued just before it in the stream."""
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
        assert out.instructions == 2
        from repro.bitops import bytes_xor
        pa, pb = m.peek(a, size), m.peek(b, size)
        assert m.peek(c, size) == bytes_xor(pa, pb)
        assert m.peek(d, size) == bytes_xor(bytes_xor(pa, pb), pa)

    def test_overlap_model(self):
        m, instrs = self._disjoint_stream(6)
        out = m.cc_stream(instrs)
        assert 0.0 < out.overlapped_cycles <= out.serial_cycles
        assert out.serial_cycles == sum(r.cycles for r in out.results)


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
