"""Property test: in-place, near-place, and RISC-fallback execution are
architecturally indistinguishable (same data, same result masks)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import ComputeCacheMachine, cc_ops
from repro.core.isa import CLMUL_LANES
from repro.params import BACKENDS, BLOCK_SIZE, small_test_machine

CASES = (
    [(op, {}) for op in ("and", "or", "xor", "copy", "not", "buz", "cmp", "search")]
    + [(op, {"lane_bits": lanes}) for op in ("clmul", "clmul-bcast")
       for lanes in CLMUL_LANES]
    + [(op, {"elem_bits": bits}) for op in ("add", "mul", "reduce") for bits in (8, 16, 32)]
)
"""Every opcode: clmul in each lane width, plain and with a broadcast
second operand, and the arithmetic tier in each element width."""


def build_instr(op, a, b, c, key, size, widths):
    build = {
        "and": lambda: cc_ops.cc_and(a, b, c, size),
        "or": lambda: cc_ops.cc_or(a, b, c, size),
        "xor": lambda: cc_ops.cc_xor(a, b, c, size),
        "copy": lambda: cc_ops.cc_copy(a, c, size),
        "not": lambda: cc_ops.cc_not(a, c, size),
        "buz": lambda: cc_ops.cc_buz(c, size),
        "cmp": lambda: cc_ops.cc_cmp(a, b, size),
        "search": lambda: cc_ops.cc_search(a, key, size),
        "clmul": lambda: cc_ops.cc_clmul(a, b, c, size, **widths),
        "clmul-bcast": lambda: cc_ops.cc_clmul_bcast(a, key, c, size, **widths),
        "add": lambda: cc_ops.cc_add(a, b, c, size, **widths),
        "mul": lambda: cc_ops.cc_mul(a, b, c, size, **widths),
        "reduce": lambda: cc_ops.cc_reduce(a, size, **widths),
    }
    return build[op]()


def run_one(op, da, db, mode, backend="packed", widths=None, dk=None):
    m = ComputeCacheMachine(small_test_machine(), backend=backend)
    a, b, c = m.arena.alloc_colocated(len(da), 3)
    key = m.arena.alloc_page_aligned(BLOCK_SIZE)
    m.load(a, da)
    m.load(b, db)
    m.load(c, b"\xA5" * len(da))
    m.load(key, dk if dk is not None else db[:BLOCK_SIZE])
    kwargs = {}
    if mode == "nearplace":
        kwargs["force_nearplace"] = True
    controller = m.controllers[0]
    if mode == "risc":
        controller.contention_hook = lambda addr: True
    res = m.cc(build_instr(op, a, b, c, key, len(da), widths or {}), **kwargs)
    return m.peek(c, len(da)), res.result, res


def every_case_on_both_backends(test):
    """Besides the drawn examples, run each case once on each backend."""
    for i, case in enumerate(CASES):
        for backend in BACKENDS:
            test = example(case, backend, 1 + i % 4, bytes(range(64)),
                           bytes(range(64, 128)), i % 2 == 0)(test)
    return test


@every_case_on_both_backends
@given(
    st.sampled_from(CASES),
    st.sampled_from(BACKENDS),
    st.integers(1, 4),
    st.binary(min_size=64, max_size=64),
    st.binary(min_size=64, max_size=64),
    st.booleans(),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_execution_modes_agree(case, backend, blocks, seed_a, seed_b, key_hits):
    """In place, forced near-place and RISC fallback leave the same bytes
    and return the same result and result bytes, for every opcode."""
    op, widths = case
    size = blocks * 64
    da = (seed_a * blocks)[:size]
    db = (seed_b * blocks)[:size]
    dk = seed_a if key_hits else seed_b
    runs = {mode: run_one(op, da, db, mode, backend, widths, dk)
            for mode in ("inplace", "nearplace", "risc")}
    data_in, mask_in, res_in = runs["inplace"]
    data_near, mask_near, res_near = runs["nearplace"]
    data_risc, mask_risc, res_risc = runs["risc"]
    assert data_in == data_near == data_risc
    assert mask_in == mask_near == mask_risc
    assert res_in.result_bytes == res_near.result_bytes == res_risc.result_bytes
    assert res_in.inplace_ops == blocks
    assert res_near.nearplace_ops == blocks
    assert res_risc.risc_ops == blocks


@given(st.sampled_from(["and", "or", "xor", "copy", "not", "buz"]),
       st.binary(min_size=128, max_size=128),
       st.binary(min_size=128, max_size=128))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_result_matches_numpy_reference(op, da, db):
    na = np.frombuffer(da, dtype=np.uint8)
    nb = np.frombuffer(db, dtype=np.uint8)
    expected = {
        "and": (na & nb).tobytes(),
        "or": (na | nb).tobytes(),
        "xor": (na ^ nb).tobytes(),
        "copy": da,
        "not": (~na).astype(np.uint8).tobytes(),
        "buz": bytes(128),
    }[op]
    data, _, _ = run_one(op, da, db, "inplace")
    assert data == expected


@pytest.mark.parametrize("mode", ["inplace", "nearplace"])
def test_timing_orderings(mode):
    """In-place is faster than near-place per the 14 vs 22-cycle latency
    and the parallel-vs-serial issue model (Section IV-J)."""
    m = ComputeCacheMachine(small_test_machine())
    a, b, c = m.arena.alloc_colocated(512, 3)
    m.load(a, bytes(512))
    m.load(b, bytes(512))
    m.warm_l3(a, 512)
    m.warm_l3(b, 512)
    m.warm_l3(c, 512)
    res_in = m.cc(cc_ops.cc_and(a, b, c, 512))
    res_near = m.cc(cc_ops.cc_and(a, b, c, 512), force_nearplace=True)
    assert res_in.compute_cycles < res_near.compute_cycles


@pytest.mark.parametrize("op", ["xor", "cmp", "not"])
def test_executor_single_op_is_a_one_item_batch(op, make_bytes):
    """``InPlaceExecutor.execute`` runs one op as a batch of one: the
    destination bytes and result bits match the near-place semantics,
    and the op is charged and counted.  Ops whose operands span
    partitions are refused."""
    from repro.core.nearplace import block_result
    from repro.core.operation_table import BlockOperand, BlockOperation
    from repro.errors import OperandLocalityError

    m = ComputeCacheMachine(small_test_machine())
    a, b, c = m.arena.alloc_colocated(64, 3)
    da, db = make_bytes(64), make_bytes(64)
    m.load(a, da)
    m.load(b, db)
    for addr in (a, b, c):
        m.warm_l3(addr, 64)
    level = m.hierarchy.level_cache("L3", 0, a)
    srcs = [a] if op == "not" else [a, b]
    operands = [BlockOperand(addr, is_dest=False) for addr in srcs]
    if op != "cmp":
        operands.append(BlockOperand(c, is_dest=True))
    block = BlockOperation(instr_id=0, subarray_op=op, operands=operands)
    executor = m.controllers[0].inplace
    energy = m.ledger.total()
    executor.execute(level, block)
    near = BlockOperation(instr_id=0, subarray_op=op, operands=operands)
    data = block_result(near, [da, db][:len(srcs)])
    assert (block.result_bits, block.result_bit_count) == (
        near.result_bits, near.result_bit_count)
    if data is not None:
        assert level.read_block(c, charge=False) == data
    assert block.outcome == "in-place" and level.stats.cc_inplace_ops == 1
    assert m.ledger.total() > energy

    misaligned = BlockOperation(
        instr_id=0, subarray_op="xor",
        operands=[BlockOperand(a, is_dest=False),
                  BlockOperand(b + 64, is_dest=False),
                  BlockOperand(c, is_dest=True)])
    with pytest.raises(OperandLocalityError):
        executor.execute(level, misaligned)
