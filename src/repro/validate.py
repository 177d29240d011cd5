"""End-to-end self-check: ``python -m repro validate``.

A fast battery (a few seconds) that exercises every layer and prints a
PASS/FAIL line per check - the thing to run after touching the model to
know nothing fundamental broke, without waiting for the full test suite.

Checks:

1. every CC opcode computes bit-exactly against numpy on random data;
2. in-place, near-place, and RISC-fallback paths agree;
3. page-spanning operands split and still compute exactly;
4. a multi-core read/write/CC interleaving stays coherent (+ inclusion,
   single-writer, directory invariants);
5. ECC corrects injected single-bit strikes end-to-end through scrubbing;
6. the energy calibration anchors (Table V constants, Fig 3 proportion
   regime, in-place < conventional) hold;
7. the packed and bit-exact execution backends agree bit-for-bit (data,
   result masks, sub-array statistics, energy) on a random CC stream.

``run_validation(backend=...)`` runs the whole battery under a chosen
execution backend (the differential check always exercises both).
"""

from __future__ import annotations

import traceback
from collections.abc import Callable

import numpy as np

from . import ComputeCacheMachine, cc_ops
from .params import small_test_machine

_BACKEND: str | None = None
"""Backend override for the battery's machines (None = config default)."""


def _machine() -> ComputeCacheMachine:
    return ComputeCacheMachine(small_test_machine(), backend=_BACKEND)


def _rand(rng, n: int) -> bytes:
    return rng.integers(0, 256, n, dtype=np.uint8).tobytes()


def check_functional_exactness() -> None:
    rng = np.random.default_rng(1)
    m = _machine()
    a, b, c = m.arena.alloc_colocated(512, 3)
    da, db = _rand(rng, 512), _rand(rng, 512)
    m.load(a, da)
    m.load(b, db)
    na, nb = np.frombuffer(da, np.uint8), np.frombuffer(db, np.uint8)
    m.cc(cc_ops.cc_and(a, b, c, 512))
    assert m.peek(c, 512) == (na & nb).tobytes()
    m.cc(cc_ops.cc_or(a, b, c, 512))
    assert m.peek(c, 512) == (na | nb).tobytes()
    m.cc(cc_ops.cc_xor(a, b, c, 512))
    assert m.peek(c, 512) == (na ^ nb).tobytes()
    m.cc(cc_ops.cc_not(a, c, 512))
    assert m.peek(c, 512) == (~na).astype(np.uint8).tobytes()
    m.cc(cc_ops.cc_copy(a, c, 512))
    assert m.peek(c, 512) == da
    m.cc(cc_ops.cc_buz(c, 512))
    assert m.peek(c, 512) == bytes(512)
    mask = m.cc(cc_ops.cc_cmp(a, a, 512)).result
    assert mask == 2**64 - 1
    key = m.arena.alloc_page_aligned(64)
    m.load(key, da[64:128])
    assert m.cc(cc_ops.cc_search(a, key, 512)).result & 0b10
    d = m.arena.alloc_page_aligned(64)
    res = m.cc(cc_ops.cc_clmul(a, b, d, 512, lane_bits=64))
    lane0 = bin(int.from_bytes(da[:8], "little")
                & int.from_bytes(db[:8], "little")).count("1") & 1
    assert (res.result_bytes[0] & 1) == lane0


def check_execution_paths_agree() -> None:
    rng = np.random.default_rng(2)
    da, db = _rand(rng, 256), _rand(rng, 256)
    outputs = []
    for mode in ("inplace", "nearplace", "risc"):
        m = _machine()
        a, b, c = m.arena.alloc_colocated(256, 3)
        m.load(a, da)
        m.load(b, db)
        if mode == "risc":
            m.controllers[0].contention_hook = lambda addr: True
        m.cc(cc_ops.cc_xor(a, b, c, 256),
             force_nearplace=(mode == "nearplace"))
        outputs.append(m.peek(c, 256))
    assert outputs[0] == outputs[1] == outputs[2]


def check_page_spanning() -> None:
    rng = np.random.default_rng(3)
    m = _machine()
    region = m.arena.alloc(16384, align=4096)
    dest = m.arena.alloc(16384, align=4096)
    a = region + 4096 - 128
    c = dest + 4096 - 128
    data = _rand(rng, 512)
    m.load(a, data)
    res = m.cc(cc_ops.cc_copy(a, c, 512))
    assert res.pieces == 2
    assert m.peek(c, 512) == data


def check_multicore_coherence() -> None:
    rng = np.random.default_rng(4)
    m = _machine()
    bufs = m.arena.alloc_colocated(256, 3)
    ref = [bytearray(_rand(rng, 256)) for _ in range(3)]
    for buf, data in zip(bufs, ref):
        m.load(buf, bytes(data))
    for i in range(40):
        core = i % 2
        choice = int(rng.integers(0, 3))
        if choice == 0:
            v = int(rng.integers(0, 256))
            m.write(bufs[i % 3], bytes([v]) * 16, core=core)
            ref[i % 3][:16] = bytes([v]) * 16
        elif choice == 1:
            assert m.read(bufs[i % 3], 256, core=core) == bytes(ref[i % 3])
        else:
            m.cc(cc_ops.cc_copy(bufs[0], bufs[2], 256), core=core)
            ref[2][:] = ref[0]
    for buf, data in zip(bufs, ref):
        assert m.peek(buf, 256) == bytes(data)
    m.hierarchy.check_inclusion()
    m.hierarchy.check_single_writer()


def check_ecc_scrubbing() -> None:
    from .core.scrub import ScrubService

    rng = np.random.default_rng(5)
    m = _machine()
    addr = m.arena.alloc_page_aligned(512)
    m.load(addr, _rand(rng, 512))
    m.warm_l3(addr, 512)
    level = m.hierarchy.l3[m.hierarchy.home_slice(addr, 0)]
    service = ScrubService(level)
    service.protect_resident()
    before = level.peek_block(addr)
    service.inject_strike(addr, bit=77)
    report = service.scrub_pass()
    assert report.corrections == 1
    assert level.peek_block(addr) == before


def check_energy_anchors() -> None:
    from .energy.tables import cc_op_energy, read_energy, write_energy

    for level in ("L1-D", "L2", "L3-slice"):
        assert cc_op_energy(level, "cmp") < read_energy(level)
        assert cc_op_energy(level, "copy") < read_energy(level) + write_energy(level)
    from .bench.microbench import run_kernel

    scalar = run_kernel("compare", "scalar", size=1024,
                        machine_config=small_test_machine())
    frac = scalar.dynamic.core() / scalar.dynamic.total()
    assert 0.5 < frac < 0.9, f"scalar core fraction {frac:.2f} out of regime"


def _stats_snapshot(m: ComputeCacheMachine) -> list[tuple]:
    """Flat, comparable view of every sub-array's statistics."""
    snap = []
    h = m.hierarchy
    for level in (*h.l1, *h.l2, *h.l3):
        for sub in level.geometry.subarrays:
            s = sub.stats
            snap.append((level.name, s.reads, s.writes, dict(s.compute_ops)))
    return snap


def check_backend_equivalence() -> None:
    """Identical random CC streams through both backends must agree
    bit-for-bit: data, result masks, latencies, per-sub-array statistics,
    and the machine energy ledger."""
    rng = np.random.default_rng(6)
    machines = {}
    layouts = {}
    for be in ("bitexact", "packed"):
        m = ComputeCacheMachine(small_test_machine(), backend=be)
        a, b, c = m.arena.alloc_colocated(512, 3)
        key = m.arena.alloc_page_aligned(64)
        machines[be] = m
        layouts[be] = (a, b, c, key)
    # Same random payloads and instruction choices for both machines.
    payloads = [(_rand(rng, 512), _rand(rng, 512), _rand(rng, 64))
                for _ in range(4)]
    choices = rng.integers(0, 9, 40)
    sizes = rng.choice([64, 128, 256, 448, 512], 40)
    for be, m in machines.items():
        a, b, c, key = layouts[be]
        outcomes = []
        for i, (choice, size) in enumerate(zip(choices, sizes)):
            da, db, dk = payloads[i % len(payloads)]
            if i == 0:
                m.load(a, da)
                m.load(b, db)
                m.load(key, dk)
            elif i % len(payloads) == 0:
                m.write(a, da)
                m.write(b, db)
                m.write(key, dk)
            size = int(size)
            instr = [
                cc_ops.cc_and(a, b, c, size),
                cc_ops.cc_or(a, b, c, size),
                cc_ops.cc_xor(a, b, c, size),
                cc_ops.cc_not(a, c, size),
                cc_ops.cc_copy(a, c, size),
                cc_ops.cc_buz(c, size),
                cc_ops.cc_cmp(a, b, size),
                cc_ops.cc_search(a, key, size),
                cc_ops.cc_clmul(a, b, c, size, lane_bits=64),
            ][int(choice)]
            res = m.cc(instr)
            outcomes.append((res.result, res.result_bytes, res.cycles,
                             m.peek(c, 512)))
        layouts[be] = (a, b, c, key, outcomes)
    bit_out = layouts["bitexact"][4]
    pk_out = layouts["packed"][4]
    for i, (bo, po) in enumerate(zip(bit_out, pk_out)):
        assert bo == po, f"backends diverge at instruction {i}"
    assert (_stats_snapshot(machines["bitexact"])
            == _stats_snapshot(machines["packed"])), "sub-array stats diverge"
    assert machines["bitexact"].ledger.pj == machines["packed"].ledger.pj, \
        "energy ledgers diverge"


CHECKS: list[tuple[str, Callable[[], None]]] = [
    ("functional exactness (all opcodes vs numpy)", check_functional_exactness),
    ("in-place / near-place / RISC agreement", check_execution_paths_agree),
    ("page-span split correctness", check_page_spanning),
    ("multi-core coherence interleaving", check_multicore_coherence),
    ("ECC strike -> scrub -> repair", check_ecc_scrubbing),
    ("energy calibration anchors", check_energy_anchors),
    ("backend equivalence (packed vs bit-exact)", check_backend_equivalence),
]


def run_validation(verbose: bool = True, backend: str | None = None) -> bool:
    """Run every check; returns True iff all passed.

    ``backend`` forces the battery's machines onto one execution backend
    (``"packed"`` or ``"bitexact"``); the differential backend-equivalence
    check always builds both regardless.
    """
    global _BACKEND
    _BACKEND = backend
    all_ok = True
    for name, check in CHECKS:
        try:
            check()
            status = "PASS"
        except Exception:
            status = "FAIL"
            all_ok = False
            if verbose:
                traceback.print_exc()
        if verbose:
            print(f"[{status}] {name}")
    if verbose:
        print("validation:", "OK" if all_ok else "FAILED")
    return all_ok
