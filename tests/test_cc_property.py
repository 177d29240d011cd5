"""Property-based testing of the full CC stack.

Random operand layouts (offsets, sizes, page positions, cache residency)
and random operation sequences are checked against a flat numpy reference,
regardless of which path (in-place / near-place / split pieces) the
controller chose.  Also: algebraic identities computed *entirely* with CC
instructions, and random multi-core interleavings of CC ops and stores.
"""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import ComputeCacheMachine, cc_ops
from repro.params import BLOCK_SIZE, PAGE_SIZE, small_test_machine


def np_u8(data: bytes) -> np.ndarray:
    return np.frombuffer(data, dtype=np.uint8)


@st.composite
def layouts(draw):
    """Random operand layouts: aligned or deliberately offset."""
    blocks = draw(st.integers(1, 8))
    size = blocks * BLOCK_SIZE
    colocated = draw(st.booleans())
    a_off = draw(st.integers(0, 15)) * BLOCK_SIZE
    if colocated:
        b_off, c_off = a_off, a_off
    else:
        b_off = draw(st.integers(0, 15)) * BLOCK_SIZE
        c_off = draw(st.integers(0, 15)) * BLOCK_SIZE
    warm = draw(st.sampled_from(["none", "l1", "l3"]))
    return size, a_off, b_off, c_off, warm


@given(
    layouts(),
    st.sampled_from(["and", "or", "xor", "copy"]),
    st.binary(min_size=BLOCK_SIZE, max_size=BLOCK_SIZE),
    st.binary(min_size=BLOCK_SIZE, max_size=BLOCK_SIZE),
)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_cc_correct_for_any_layout(layout, op, seed_a, seed_b):
    """Whatever the layout (co-located or not, resident or not), the
    architectural result equals the numpy reference."""
    size, a_off, b_off, c_off, warm = layout
    m = ComputeCacheMachine(small_test_machine())
    pages = 16 * PAGE_SIZE
    a = m.arena.alloc(pages) + a_off
    b = m.arena.alloc(pages, align=PAGE_SIZE) + b_off
    c = m.arena.alloc(pages, align=PAGE_SIZE) + c_off
    da = (seed_a * ((size // BLOCK_SIZE) + 1))[:size]
    db = (seed_b * ((size // BLOCK_SIZE) + 1))[:size]
    m.load(a, da)
    m.load(b, db)
    if warm == "l1":
        for addr in (a, b):
            m.touch_range(addr, size)
    elif warm == "l3":
        for addr in (a, b):
            m.warm_l3(addr, size)

    if op == "copy":
        instr = cc_ops.cc_copy(a, c, size)
        expected = da
    elif op == "and":
        instr = cc_ops.cc_and(a, b, c, size)
        expected = (np_u8(da) & np_u8(db)).tobytes()
    elif op == "or":
        instr = cc_ops.cc_or(a, b, c, size)
        expected = (np_u8(da) | np_u8(db)).tobytes()
    else:
        instr = cc_ops.cc_xor(a, b, c, size)
        expected = (np_u8(da) ^ np_u8(db)).tobytes()

    res = m.cc(instr)
    assert m.peek(c, size) == expected
    assert m.peek(a, size) == da  # sources intact
    if op != "copy":
        assert m.peek(b, size) == db
    # Accounting sanity: every block op landed somewhere.
    assert res.inplace_ops + res.nearplace_ops + res.risc_ops == size // BLOCK_SIZE
    m.hierarchy.check_inclusion()
    m.hierarchy.check_single_writer()


@given(st.binary(min_size=256, max_size=256), st.binary(min_size=256, max_size=256))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_de_morgan_entirely_in_cache(da, db):
    """~(a | b) == ~a & ~b, computed with CC instructions only."""
    m = ComputeCacheMachine(small_test_machine())
    size = 256
    a, b, t1, t2, t3, lhs, rhs = m.arena.alloc_colocated(size, 7)
    m.load(a, da)
    m.load(b, db)
    m.cc(cc_ops.cc_or(a, b, t1, size))
    m.cc(cc_ops.cc_not(t1, lhs, size))       # ~(a | b)
    m.cc(cc_ops.cc_not(a, t2, size))
    m.cc(cc_ops.cc_not(b, t3, size))
    m.cc(cc_ops.cc_and(t2, t3, rhs, size))   # ~a & ~b
    assert m.peek(lhs, size) == m.peek(rhs, size)
    mask = m.cc(cc_ops.cc_cmp(lhs, rhs, size)).result
    assert mask == (1 << (size // 8)) - 1    # cc_cmp agrees


@given(st.binary(min_size=128, max_size=128))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_xor_involution_in_cache(data):
    """(a ^ b) ^ b == a via two cc_xor into fresh destinations."""
    m = ComputeCacheMachine(small_test_machine())
    size = 128
    a, b, t, out = m.arena.alloc_colocated(size, 4)
    m.load(a, data)
    m.load(b, bytes(reversed(data)))
    m.cc(cc_ops.cc_xor(a, b, t, size))
    m.cc(cc_ops.cc_xor(t, b, out, size))
    assert m.peek(out, size) == data


@st.composite
def mixed_ops(draw):
    n = draw(st.integers(2, 12))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(["store", "cc_copy", "cc_xor", "read"]))
        core = draw(st.integers(0, 1))
        buf = draw(st.integers(0, 2))
        value = draw(st.integers(0, 255))
        ops.append((kind, core, buf, value))
    return ops


@given(mixed_ops())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_multicore_cc_store_interleavings(ops):
    """Random interleavings of stores, reads, and CC ops from two cores
    stay coherent with a flat reference model."""
    size = 128
    m = ComputeCacheMachine(small_test_machine())
    bufs = m.arena.alloc_colocated(size, 4)
    reference = [bytearray(size) for _ in range(4)]
    for i, buf in enumerate(bufs):
        seed = bytes([i * 17 + 1]) * size
        m.load(buf, seed)
        reference[i][:] = seed

    for kind, core, buf, value in ops:
        if kind == "store":
            m.write(bufs[buf], bytes([value]) * 8, core=core)
            reference[buf][:8] = bytes([value]) * 8
        elif kind == "cc_copy":
            m.cc(cc_ops.cc_copy(bufs[buf], bufs[3], size), core=core)
            reference[3][:] = reference[buf]
        elif kind == "cc_xor":
            m.cc(cc_ops.cc_xor(bufs[0], bufs[1], bufs[2], size), core=core)
            reference[2][:] = bytes(
                x ^ y for x, y in zip(reference[0], reference[1])
            )
        else:
            out = m.read(bufs[buf], size, core=core)
            assert out == bytes(reference[buf])

    for i, buf in enumerate(bufs):
        assert m.peek(buf, size) == bytes(reference[i]), f"buffer {i}"
    m.hierarchy.check_inclusion()
    m.hierarchy.check_single_writer()


SPANNING_OPS = ["copy", "not", "and", "or", "xor", "cmp", "search",
                "clmul", "clmul-bcast", "add", "mul", "reduce"]
ELEM_DTYPES = {8: "<u1", 16: "<u2", 32: "<u4"}


def np_clmul(a: np.ndarray, b: np.ndarray, lane_bits: int) -> bytes:
    """Per-lane parity of popcount(a & b), lane 0 in bit 0 of byte 0."""
    parity = np.unpackbits(a & b).reshape(-1, lane_bits).sum(axis=1) & 1
    return np.packbits(parity.astype(np.uint8), bitorder="little").tobytes()


def mask_of(flags) -> int:
    return sum(1 << i for i, flag in enumerate(flags) if flag)


@given(
    st.integers(1, 6),
    st.integers(0, 5),
    st.sampled_from(SPANNING_OPS),
    st.sampled_from([64, 128, 256]),
    st.sampled_from(sorted(ELEM_DTYPES)),
    st.sampled_from(["packed", "bitexact"]),
    st.integers(0, 2**32 - 1),
)
# 5 blocks, 3 before the boundary: the first piece's clmul bits end
# mid-byte in 128- and 256-bit lanes.
@example(3, 1, "clmul", 128, 8, "packed", 0)
@example(3, 1, "clmul-bcast", 256, 8, "bitexact", 1)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_page_spanning_operands_exact(blocks_before_boundary, extra_blocks, op,
                                      lane_bits, elem_bits, backend, seed):
    """Operands straddling page boundaries split and still compute exactly:
    memory, ``result`` and ``result_bytes`` match numpy for every opcode,
    including clmul results whose pieces end mid-byte."""
    m = ComputeCacheMachine(small_test_machine(), backend=backend)
    blocks = blocks_before_boundary + extra_blocks + 1
    if op == "cmp":
        blocks = min(blocks, 8)  # the 64-bit result register
    size = blocks * BLOCK_SIZE
    offset = PAGE_SIZE - blocks_before_boundary * BLOCK_SIZE
    a, b, c, key = (m.arena.alloc(4 * PAGE_SIZE, align=PAGE_SIZE) + offset
                    for _ in range(4))
    rng = np.random.default_rng(seed)
    da = rng.integers(0, 256, size, dtype=np.uint8)
    db = rng.integers(0, 256, size, dtype=np.uint8)
    same = rng.random(size // 8) < 0.5  # equal words for cmp to find
    db.reshape(-1, 8)[same] = da.reshape(-1, 8)[same]
    dk = da[:BLOCK_SIZE].copy() if rng.random() < 0.5 else db[:BLOCK_SIZE].copy()
    m.load(a, da.tobytes())
    m.load(b, db.tobytes())
    m.load(key, dk.tobytes())

    dt = ELEM_DTYPES[elem_bits]
    dest_bytes = result = result_bytes = None
    if op == "copy":
        instr, dest_bytes = cc_ops.cc_copy(a, c, size), da
    elif op == "not":
        instr, dest_bytes = cc_ops.cc_not(a, c, size), ~da
    elif op in ("and", "or", "xor"):
        instr = getattr(cc_ops, f"cc_{op}")(a, b, c, size)
        dest_bytes = {"and": da & db, "or": da | db, "xor": da ^ db}[op]
    elif op == "cmp":
        instr = cc_ops.cc_cmp(a, b, size)
        result = mask_of((da.reshape(-1, 8) == db.reshape(-1, 8)).all(axis=1))
    elif op == "search":
        instr = cc_ops.cc_search(a, key, size)
        result = mask_of((da.reshape(-1, BLOCK_SIZE) == dk).all(axis=1))
    elif op == "clmul":
        instr = cc_ops.cc_clmul(a, b, c, size, lane_bits=lane_bits)
        result_bytes = np_clmul(da, db, lane_bits)
    elif op == "clmul-bcast":
        instr = cc_ops.cc_clmul_bcast(a, key, c, size, lane_bits=lane_bits)
        result_bytes = np_clmul(da, np.tile(dk, blocks), lane_bits)
    elif op in ("add", "mul"):
        instr = getattr(cc_ops, f"cc_{op}")(a, b, c, size, elem_bits=elem_bits)
        x, y = da.view(dt), db.view(dt)
        dest_bytes = (x + y if op == "add" else x * y).view(np.uint8)
    else:
        instr = cc_ops.cc_reduce(a, size, elem_bits=elem_bits)
        result = int(da.view(dt).astype(np.uint64).sum()) & ((1 << 64) - 1)

    res = m.cc(instr)
    assert res.pieces >= 2
    if dest_bytes is not None:
        assert m.peek(c, size) == dest_bytes.tobytes()
    if result_bytes is not None:
        assert res.result_bytes == result_bytes
        assert m.peek(c, len(result_bytes)) == result_bytes
    assert res.result == (result or 0)
    assert m.peek(a, size) == da.tobytes()  # sources intact
