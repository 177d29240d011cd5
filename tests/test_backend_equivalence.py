"""Differential equivalence of the packed and bit-exact backends.

The packed fast-path backend must be *observationally identical* to the
bit-exact circuit model: same data, same CC-R result masks, same cycle
counts, same per-sub-array statistics, and same energy - on any
instruction stream.  Three layers of evidence:

1. a seeded random-stream harness driving full machine pairs through
   identical CC instruction sequences (the headline differential test);
2. Hypothesis properties running every CC opcode on both backends with
   random payloads, odd (non-power-of-two) block counts, misaligned
   (block- but not page-aligned) starts, and page-spanning ranges;
3. every sub-array operation, batched, on one sub-array of each backend
   (including ``nor``, which no CC opcode issues), and spread over the
   partitions of one cache level as one ``op_groups`` call.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.sram.subarray as subarray_module
from repro import ComputeCacheMachine, cc_ops
from repro.cache.geometry import CacheGeometry
from repro.core.isa import CLMUL_LANES, CMP_MAX_BYTES, SEARCH_MAX_BYTES
from repro.core.nearplace import block_result
from repro.core.operation_table import BlockOperand, BlockOperation
from repro.errors import ConfigError, ISAError
from repro.params import (
    BACKENDS,
    BLOCK_SIZE,
    PAGE_SIZE,
    MachineConfig,
    sandybridge_8core,
    small_test_machine,
)
from repro.sram import SUBARRAYS

REGION = 2 * PAGE_SIZE  # big enough that offsets can span a page boundary


def machine_pair(trace_events=False):
    """Two machines with identical configs and arena layouts, differing
    only in execution backend."""
    return {be: ComputeCacheMachine(small_test_machine(), backend=be,
                                    trace_events=trace_events)
            for be in BACKENDS}


def stats_snapshot(m):
    """Flat comparable view of every sub-array's statistics."""
    snap = []
    h = m.hierarchy
    for level in (*h.l1, *h.l2, *h.l3):
        for sub in level.geometry.subarrays:
            s = sub.stats
            snap.append((level.name, s.reads, s.writes, dict(s.compute_ops)))
    return snap


def outcome(m, res, dest=None, size=0):
    """Everything observable about one executed instruction."""
    data = m.peek(dest, size) if dest is not None else b""
    return (res.result, res.result_bytes, res.cycles, res.pieces,
            res.level, res.inplace_ops, res.nearplace_ops, res.risc_ops,
            data)


def build_plan(seed, steps=50):
    """A backend-independent random instruction plan (relative offsets)."""
    rng = np.random.default_rng(seed)
    plan = []
    for _ in range(steps):
        kind = ["and", "or", "xor", "not", "copy", "buz", "cmp", "search",
                "clmul", "write", "add", "mul", "reduce"][int(rng.integers(0, 13))]
        # Block-aligned offsets into a two-page region: often misaligned
        # relative to the page, sometimes spanning the page boundary.
        off = int(rng.integers(0, PAGE_SIZE // BLOCK_SIZE)) * BLOCK_SIZE
        max_blocks = (REGION - off) // BLOCK_SIZE
        blocks = int(rng.integers(1, min(max_blocks, 24) + 1))
        size = blocks * BLOCK_SIZE
        if kind == "cmp":
            size = min(size, CMP_MAX_BYTES)
        elif kind == "search":
            size = min(size, SEARCH_MAX_BYTES)
        elif kind == "mul":
            # Bit-serial multiply is the slowest bit-exact op; keep the
            # random-stream harness inside the tier-1 time budget.
            size = min(size, 4 * BLOCK_SIZE)
        plan.append({
            "kind": kind,
            "off": off,
            "size": size,
            "lane_bits": int(rng.choice(CLMUL_LANES)),
            "elem_bits": int(rng.choice([8, 16, 32])),
            "data": rng.integers(0, 256, 512, dtype=np.uint8).tobytes(),
        })
    return plan


def run_plan(m, plan):
    """Execute a plan on one machine; returns (outcomes, buffer bases)."""
    a, b, c = m.arena.alloc_colocated(REGION, 3)
    key = m.arena.alloc_page_aligned(BLOCK_SIZE)
    rng = np.random.default_rng(99)  # same payload stream for both machines
    m.load(a, rng.integers(0, 256, REGION, dtype=np.uint8).tobytes())
    m.load(b, rng.integers(0, 256, REGION, dtype=np.uint8).tobytes())
    m.load(key, rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8).tobytes())
    outcomes = []
    for step in plan:
        kind, off, size = step["kind"], step["off"], step["size"]
        sa, sb, sc = a + off, b + off, c + off
        if kind == "write":
            m.write(sa, step["data"][:BLOCK_SIZE])
            outcomes.append(("write", m.peek(sa, BLOCK_SIZE)))
            continue
        instr = {
            "and": lambda: cc_ops.cc_and(sa, sb, sc, size),
            "or": lambda: cc_ops.cc_or(sa, sb, sc, size),
            "xor": lambda: cc_ops.cc_xor(sa, sb, sc, size),
            "not": lambda: cc_ops.cc_not(sa, sc, size),
            "copy": lambda: cc_ops.cc_copy(sa, sc, size),
            "buz": lambda: cc_ops.cc_buz(sc, size),
            "cmp": lambda: cc_ops.cc_cmp(sa, sb, size),
            "search": lambda: cc_ops.cc_search(sa, key, size),
            "clmul": lambda: cc_ops.cc_clmul(sa, sb, sc, size,
                                             lane_bits=step["lane_bits"]),
            "add": lambda: cc_ops.cc_add(sa, sb, sc, size,
                                         elem_bits=step["elem_bits"]),
            "mul": lambda: cc_ops.cc_mul(sa, sb, sc, size,
                                         elem_bits=step["elem_bits"]),
            "reduce": lambda: cc_ops.cc_reduce(sa, size,
                                               elem_bits=step["elem_bits"]),
        }[kind]()
        res = m.cc(instr)
        dest = None if kind in ("cmp", "search", "reduce") else sc
        outcomes.append(outcome(m, res, dest, size))
    return outcomes, (a, b, c)


class TestDifferentialStream:
    """The headline harness: identical random streams, bit-exact agreement."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_streams_agree(self, seed):
        plan = build_plan(seed)
        machines = machine_pair()
        results = {be: run_plan(m, plan)[0] for be, m in machines.items()}
        for i, (bo, po) in enumerate(zip(results["bitexact"],
                                         results["packed"])):
            assert bo == po, f"seed {seed}: backends diverge at step {i}"
        assert (stats_snapshot(machines["bitexact"])
                == stats_snapshot(machines["packed"]))
        assert (machines["bitexact"].ledger.pj
                == machines["packed"].ledger.pj)

    def test_final_memory_images_agree(self):
        plan = build_plan(7, steps=30)
        machines = machine_pair()
        images = {}
        for be, m in machines.items():
            _, bufs = run_plan(m, plan)
            images[be] = b"".join(m.peek(base, REGION) for base in bufs)
        assert images["bitexact"] == images["packed"]

    @pytest.mark.parametrize("seed", [0, 3])
    def test_event_streams_agree(self, seed):
        """Event tracing is backend-invariant: the same random plan must
        produce bit-identical event streams (every field, including cycle
        stamps and spans - simulated time only, never wall-clock)."""
        plan = build_plan(seed)
        machines = machine_pair(trace_events=True)
        for m in machines.values():
            run_plan(m, plan)
        ev = {be: m.tracer.snapshot() for be, m in machines.items()}
        assert len(ev["bitexact"]) == len(ev["packed"]) > 0
        for i, (be_ev, pk_ev) in enumerate(zip(ev["bitexact"],
                                               ev["packed"])):
            assert be_ev == pk_ev, f"seed {seed}: event {i} diverges"
        assert (machines["bitexact"].tracer.dropped
                == machines["packed"].tracer.dropped)


# -- Hypothesis per-opcode properties -----------------------------------------

# Fresh machine pairs per example are the dominant cost; cap examples so
# the property battery stays inside the tier-1 budget.
PROP_SETTINGS = settings(max_examples=15, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])

offsets_st = st.integers(0, PAGE_SIZE // BLOCK_SIZE - 1).map(
    lambda blk: blk * BLOCK_SIZE)
blocks_st = st.integers(1, 9)  # odd counts (3, 5, 7...) included
payload_st = st.integers(0, 2**32 - 1)  # seed for payloads


def _payload(seed, n):
    return np.random.default_rng(seed).integers(
        0, 256, n, dtype=np.uint8).tobytes()


def _pair_with_data(seed):
    machines = machine_pair()
    layout = {}
    for be, m in machines.items():
        a, b, c = m.arena.alloc_colocated(REGION, 3)
        key = m.arena.alloc_page_aligned(BLOCK_SIZE)
        m.load(a, _payload(seed, REGION))
        m.load(b, _payload(seed + 1, REGION))
        m.load(key, _payload(seed, REGION)[:BLOCK_SIZE])
        layout[be] = (a, b, c, key)
    assert layout["bitexact"] == layout["packed"]
    return machines, layout


class TestOpcodeProperties:
    @PROP_SETTINGS
    @given(op=st.sampled_from(["and", "or", "xor", "not", "copy", "buz"]),
           off=offsets_st, blocks=blocks_st, seed=payload_st)
    def test_logical_ops(self, op, off, blocks, seed):
        size = blocks * BLOCK_SIZE
        machines, layout = _pair_with_data(seed)
        out = {}
        for be, m in machines.items():
            a, b, c, _ = layout[be]
            instr = {
                "and": lambda: cc_ops.cc_and(a + off, b + off, c + off, size),
                "or": lambda: cc_ops.cc_or(a + off, b + off, c + off, size),
                "xor": lambda: cc_ops.cc_xor(a + off, b + off, c + off, size),
                "not": lambda: cc_ops.cc_not(a + off, c + off, size),
                "copy": lambda: cc_ops.cc_copy(a + off, c + off, size),
                "buz": lambda: cc_ops.cc_buz(c + off, size),
            }[op]()
            res = m.cc(instr)
            out[be] = outcome(m, res, c + off, size)
        assert out["bitexact"] == out["packed"]

    @PROP_SETTINGS
    @given(off=offsets_st, blocks=st.integers(1, 8), seed=payload_st,
           equal_prefix=st.integers(0, 8))
    def test_cmp(self, off, blocks, seed, equal_prefix):
        size = min(blocks * BLOCK_SIZE, CMP_MAX_BYTES)
        machines, layout = _pair_with_data(seed)
        out = {}
        for be, m in machines.items():
            a, b, c, _ = layout[be]
            if equal_prefix:  # force some equal words so the mask is mixed
                m.cc(cc_ops.cc_copy(a + off, b + off,
                                    min(equal_prefix * BLOCK_SIZE,
                                        REGION - off)))
            res = m.cc(cc_ops.cc_cmp(a + off, b + off, size))
            out[be] = outcome(m, res)
        assert out["bitexact"] == out["packed"]

    @PROP_SETTINGS
    @given(off=offsets_st, blocks=st.integers(1, 16), seed=payload_st,
           plant=st.booleans())
    def test_search(self, off, blocks, seed, plant):
        size = min(blocks * BLOCK_SIZE, SEARCH_MAX_BYTES)
        machines, layout = _pair_with_data(seed)
        out = {}
        for be, m in machines.items():
            a, b, c, key = layout[be]
            if plant:  # guarantee at least one hit
                m.cc(cc_ops.cc_copy(key, a + off, BLOCK_SIZE))
            res = m.cc(cc_ops.cc_search(a + off, key, size))
            out[be] = outcome(m, res)
        assert out["bitexact"] == out["packed"]

    @PROP_SETTINGS
    @given(off=offsets_st, blocks=blocks_st, seed=payload_st,
           lane_bits=st.sampled_from(CLMUL_LANES))
    def test_clmul(self, off, blocks, seed, lane_bits):
        size = blocks * BLOCK_SIZE
        machines, layout = _pair_with_data(seed)
        out = {}
        for be, m in machines.items():
            a, b, c, _ = layout[be]
            res = m.cc(cc_ops.cc_clmul(a + off, b + off, c + off, size,
                                       lane_bits=lane_bits))
            out[be] = outcome(m, res)
        assert out["bitexact"] == out["packed"]

    @PROP_SETTINGS
    @given(blocks=st.integers(1, 16), seed=payload_st)
    def test_page_spanning(self, blocks, seed):
        """Operands starting one block before a page boundary must split
        into pieces and still agree across backends."""
        off = PAGE_SIZE - BLOCK_SIZE
        size = blocks * BLOCK_SIZE
        machines, layout = _pair_with_data(seed)
        out = {}
        for be, m in machines.items():
            a, b, c, _ = layout[be]
            res = m.cc(cc_ops.cc_xor(a + off, b + off, c + off, size))
            if blocks > 1:
                assert res.pieces >= 2
            out[be] = outcome(m, res, c + off, size)
        assert out["bitexact"] == out["packed"]


class TestArithProperties:
    """Bit-serial arithmetic agrees across backends AND with numpy's
    fixed-width unsigned integer semantics (wrap-around modulo 2^w)."""

    @PROP_SETTINGS
    @given(op=st.sampled_from(["add", "mul"]), off=offsets_st,
           blocks=st.integers(1, 4), seed=payload_st,
           elem_bits=st.sampled_from([8, 16, 32]))
    def test_add_mul_match_numpy(self, op, off, blocks, seed, elem_bits):
        size = blocks * BLOCK_SIZE
        machines, layout = _pair_with_data(seed)
        out = {}
        for be, m in machines.items():
            a, b, c, _ = layout[be]
            instr = (cc_ops.cc_add if op == "add" else cc_ops.cc_mul)(
                a + off, b + off, c + off, size, elem_bits=elem_bits)
            out[be] = outcome(m, m.cc(instr), c + off, size)
        assert out["bitexact"] == out["packed"]
        dt = np.dtype(f"<u{elem_bits // 8}")
        ea = np.frombuffer(_payload(seed, REGION)[off:off + size], dtype=dt)
        eb = np.frombuffer(_payload(seed + 1, REGION)[off:off + size], dtype=dt)
        expect = (ea + eb) if op == "add" else (ea * eb)  # wraps mod 2^w
        assert out["packed"][-1] == expect.tobytes()

    @PROP_SETTINGS
    @given(off=offsets_st, blocks=st.integers(1, 9), seed=payload_st,
           elem_bits=st.sampled_from([8, 16, 32]))
    def test_reduce_matches_numpy(self, off, blocks, seed, elem_bits):
        size = blocks * BLOCK_SIZE
        machines, layout = _pair_with_data(seed)
        out = {}
        for be, m in machines.items():
            a, b, c, _ = layout[be]
            res = m.cc(cc_ops.cc_reduce(a + off, size, elem_bits=elem_bits))
            out[be] = outcome(m, res)
        assert out["bitexact"] == out["packed"]
        dt = np.dtype(f"<u{elem_bits // 8}")
        ea = np.frombuffer(_payload(seed, REGION)[off:off + size], dtype=dt)
        expect = int(ea.astype(np.uint64).sum(dtype=np.uint64))
        assert out["packed"][0] == expect % (1 << 64)


# -- the sub-array layer --------------------------------------------------------

SOURCE_ROWS = 16
SUB_ROWS = SOURCE_ROWS + 8  # eight destination rows: one per tuple of a batch

SUBARRAY_CASES = (
    [(op, {}) for op in ("and", "or", "nor", "xor", "not", "copy", "buz",
                         "cmp", "search")]
    + [("clmul", {"lane_bits": lanes}) for lanes in CLMUL_LANES]
    + [(op, {"elem_bits": bits}) for op in ("add", "mul", "reduce")
       for bits in (8, 16, 32)]
)


def _row_image(rng):
    """Sub-array contents in which each 8-byte word of a row is one of two
    values, so word compares come out mixed."""
    pool = rng.integers(0, 256, (2, BLOCK_SIZE), dtype=np.uint8)
    pick = rng.integers(0, 2, (SUB_ROWS, BLOCK_SIZE // 8)).repeat(8, axis=1)
    return np.where(pick == 0, pool[0], pool[1])


def _row_tuples(op, n, rng):
    """``(rows_a, rows_b, rows_dest)`` of ``n`` tuples, in the shape the
    in-place executor issues ``op`` (see ``repro.core.inplace.operand_rows``)."""
    a = [int(r) for r in rng.integers(0, SOURCE_ROWS, n)]
    b = [int(r) for r in rng.integers(0, SOURCE_ROWS, n)]
    dest = [int(r) for r in rng.permutation(np.arange(SOURCE_ROWS, SUB_ROWS))[:n]]
    if op == "buz":
        return dest, None, dest
    if op in ("not", "copy"):
        return a, None, dest
    if op in ("cmp", "search", "clmul"):
        return a, b, None
    if op == "reduce":
        return a, None, None
    return a, b, dest


class TestSubarrayBackends:
    @pytest.mark.parametrize("op, widths", SUBARRAY_CASES,
                             ids=[op + "".join(f"-{v}" for v in w.values())
                                  for op, w in SUBARRAY_CASES])
    def test_batches_agree(self, op, widths):
        """Batches of 1 to 8 row tuples: equal results, rows and stats."""
        rng = np.random.default_rng(len(op) * 1000 + sum(widths.values()))
        subs = {be: SUBARRAYS[be](SUB_ROWS, BLOCK_SIZE * 8) for be in BACKENDS}
        for sub in subs.values():
            for row, data in enumerate(_row_image(np.random.default_rng(5))):
                sub.write_block(row, data.tobytes())
        for n in range(1, 9):
            rows = _row_tuples(op, n, rng)
            results = {be: sub.op_batch(op, *rows, **widths)
                       for be, sub in subs.items()}
            assert results["bitexact"] == results["packed"], f"batch of {n}"
            images = {be: [sub.peek_block(r) for r in range(SUB_ROWS)]
                      for be, sub in subs.items()}
            assert images["bitexact"] == images["packed"], f"batch of {n}"
        assert subs["bitexact"].stats == subs["packed"].stats
        assert subs["packed"].stats.compute_ops == {op: 36}

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("op, widths", [
        ("add", {}), ("mul", {}), ("reduce", {}), ("add", {"elem_bits": 12}),
        ("clmul", {}), ("clmul", {"lane_bits": 32}), ("nand", {}),
    ], ids=["add", "mul", "reduce", "add-12", "clmul", "clmul-32", "nand"])
    def test_bad_arguments_rejected(self, backend, op, widths):
        """One argument check for every place a block op runs: a missing
        or unsupported element or lane width, or an unknown op, raises
        ``ISAError`` on either backend before a row or a statistic
        changes, and at the near-place unit and the RISC fallback."""
        sub = SUBARRAYS[backend](SUB_ROWS, BLOCK_SIZE * 8)
        image = _row_image(np.random.default_rng(5))
        for row, data in enumerate(image):
            sub.write_block(row, data.tobytes())
        before = [sub.peek_block(r) for r in range(SUB_ROWS)], copy.deepcopy(sub.stats)
        rows = _row_tuples(op, 3, np.random.default_rng(1))
        with pytest.raises(ISAError):
            sub.op_batch(op, *rows, **widths)
        assert ([sub.peek_block(r) for r in range(SUB_ROWS)], sub.stats) == before
        near = BlockOperation(0, op, [BlockOperand(0, False), BlockOperand(64, False)],
                              **widths)
        with pytest.raises(ISAError):
            block_result(near, [image[0].tobytes(), image[1].tobytes()])

    @pytest.mark.parametrize("op, widths", SUBARRAY_CASES,
                             ids=[op + "".join(f"-{v}" for v in w.values())
                                  for op, w in SUBARRAY_CASES])
    def test_one_call_over_partitions_matches_op_batch_each(self, op, widths):
        """Batches spread over four partitions of one cache level, in no
        particular partition order: one ``op_groups`` call gives the
        results, row images and per-sub-array statistics of one
        ``op_batch`` per partition, on both backends alike."""
        config = small_test_machine().l2
        partitions = (5, 0, 6, 3)
        seen = {}
        for be in BACKENDS:
            rng = np.random.default_rng(len(op) * 1000 + sum(widths.values()))
            one, each = (CacheGeometry(config, be).subarrays for _ in range(2))
            for subs in (one, each):
                for part in partitions:
                    image = _row_image(np.random.default_rng(part))
                    for row, data in enumerate(image):
                        subs[part].write_block(row, data.tobytes())
            results = []
            for n in range(1, 5):
                batches = [(part, _row_tuples(op, n + i % 2, rng))
                           for i, part in enumerate(partitions)]
                got = type(one[0]).op_groups(
                    op, [(one[part], *rows) for part, rows in batches], **widths)
                want = [result for part, rows in batches
                        for result in each[part].op_batch(op, *rows, **widths)]
                assert got == want, f"round {n}"
                results += got
            images = [[subs[part].peek_block(row) for part in partitions
                       for row in range(SUB_ROWS)] for subs in (one, each)]
            assert images[0] == images[1]
            stats = [[sub.stats for sub in subs] for subs in (one, each)]
            assert stats[0] == stats[1]
            seen[be] = results, images[0], stats[0]
        assert seen["bitexact"] == seen["packed"]


class TestKernelCalls:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batched_search_is_one_kernel_call_per_piece(self, backend, monkeypatch):
        """A batched 4 KB in-place ``cc_search`` at L3 of the Table IV
        machine puts each of its 64 blocks in its own partition.  The
        packed backend runs them as one kernel call; the bit-exact one
        as one ``op_batch`` per partition."""
        m = ComputeCacheMachine(sandybridge_8core(), backend=backend, trace_events=True)
        data, key = m.arena.alloc_page_aligned(PAGE_SIZE), m.arena.alloc_page_aligned(PAGE_SIZE)
        rng = np.random.default_rng(11)
        m.load(data, rng.integers(0, 256, PAGE_SIZE, dtype=np.uint8).tobytes())
        m.load(key, m.peek(data + 5 * BLOCK_SIZE, BLOCK_SIZE))
        m.warm_l3(data, PAGE_SIZE)
        m.warm_l3(key, BLOCK_SIZE)
        calls = {"kernel": 0, "op_batch": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(subarray_module, "block_op",
                            counted("kernel", subarray_module.block_op))
        sub_class = SUBARRAYS[backend]
        monkeypatch.setattr(sub_class, "op_batch", counted("op_batch", sub_class.op_batch))
        res = m.cc(cc_ops.cc_search(data, key, PAGE_SIZE))
        assert (res.level, res.inplace_ops, res.result) == ("L3", 64, 1 << 5)
        assert [e.outcome for e in m.tracer.by_kind("cc.dispatch")] == ["batched"]
        if backend == "packed":
            assert calls == {"kernel": 1, "op_batch": 0}
        else:
            assert calls == {"kernel": 0, "op_batch": 64}


class TestBackendSelection:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_geometry_builds_the_backends_subarray(self, backend):
        m = ComputeCacheMachine(small_test_machine(), backend=backend)
        h = m.hierarchy
        for level in (*h.l1, *h.l2, *h.l3):
            assert {type(sub) for sub in level.geometry.subarrays} == {SUBARRAYS[backend]}

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="nope"):
            MachineConfig(backend="nope")
        with pytest.raises(ConfigError, match="nope"):
            ComputeCacheMachine(small_test_machine(), backend="nope")
