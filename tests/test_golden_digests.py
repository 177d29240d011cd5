"""Behaviour digests of the CC dispatch paths and the core issue loop
(``benchmarks/golden_digests.json``).

``cc_dispatch``: a fixed mix of CC instructions is run one at a time through
``ComputeCacheMachine.cc`` with event tracing on.  The mix reaches every
dispatch outcome of the block-op pipeline: batched in place, the
``data-hazard`` and ``forced-nearplace`` per-op dispatch, locality-miss
near-place, pin-loss and fetch-timeout RISC fallback, page splits, search
key replication, broadcast ``clmul``, and the transposing arithmetic tier.
Each case is hashed per observable: the ``CCResult`` fields, the final
bytes of every buffer it touched, the energy ledger, the controller,
cache-level and sub-array statistics, and the event stream.  Floats are
hashed by ``repr``, so a change in the order of float accumulation shows.

``core_run``: instruction streams run through ``ComputeCacheMachine.run``
(``CoreModel.run``) and one ``MulticoreRunner``, again with event tracing
on.  The mix reaches L1 read and write hits, the S->M upgrade through the
directory, L2 hits and the L2 upgrade-miss, L3 hits, memory misses, dirty
evictions from every level down to memory, every load annotation and store
form, CC instructions overlapping scalar work, and both fence stalls.  Each
case is hashed per observable: the ``RunResult``s (with every loaded
value), the final bytes, the ledger, ``collect_stats``, the per-cache
statistics and the event stream.

``microbench``: the returns of the Figure 3, 7, 8(a) and 8(b) suites of
:mod:`repro.bench.microbench` at 1 KB operands, each hashed whole: every
cycle count and energy ledger of each (kernel, configuration) cell,
in-place against near-place included.

``faults``: the documents the fault campaigns return, each hashed whole:
``run_campaign(default_plan(seed)).to_dict()`` for seeds 0 and 5 (without
its ``backend`` field) and ``run_crypto_campaign`` for each crypto kernel.
Every injection and recovery count, silent-corruption count and image
digest is in them; the event stream is not, so a change in when a sweep
emits its ``fault.recover`` and ``dir.drop`` events does not show.

Both backends must reproduce the same committed digests.  After a
deliberate model change, regenerate the file with
``python tests/test_golden_digests.py`` and say why in CHANGES.md.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import random
from collections import deque
from pathlib import Path

import pytest

from repro import ComputeCacheMachine, cc_ops
from repro.apps.crypto import CRYPTO_KERNELS
from repro.bench import microbench
from repro.api import (
    BLOCK_SIZE,
    PAGE_SIZE,
    Instr,
    InstrKind,
    MulticoreRunner,
    Program,
    collect_stats,
    default_plan,
    run_campaign,
    run_crypto_campaign,
    small_test_machine,
)

GOLDEN = Path(__file__).resolve().parents[1] / "benchmarks" / "golden_digests.json"
BACKENDS = ("packed", "bitexact")
ALL_SUBOPS = ("and", "or", "xor", "not", "copy", "buz", "cmp", "search",
              "clmul", "add", "mul", "reduce")


def _canon(value):
    """A JSON-safe, order-stable form of ``value`` (floats by ``repr``)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _canon(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return sorted([repr(k), _canon(v)] for k, v in value.items())
    if isinstance(value, (list, tuple, deque)):
        return [_canon(v) for v in value]
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (bytes, bytearray)):
        return value.hex()
    if isinstance(value, enum.Enum):
        return value.value
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return repr(value)


def _sha(value) -> str:
    text = json.dumps(_canon(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Case:
    """One scenario: a fresh small machine plus the results it produced."""

    def __init__(self, backend: str, seed: int, trace_events: bool = True) -> None:
        self.m = ComputeCacheMachine(small_test_machine(), backend=backend,
                                     trace_events=trace_events)
        self.rng = random.Random(seed)
        self.buffers: list[tuple[int, int]] = []
        self.results = []

    def buffer(self, size: int, count: int = 1, fill: bool = True) -> list[int]:
        addrs = self.m.arena.alloc_colocated(size, count)
        for addr in addrs:
            if fill:
                self.m.load(addr, self.rng.randbytes(size))
            self.buffers.append((addr, size))
        return addrs

    def cc(self, instr, **kwargs):
        res = self.m.cc(instr, **kwargs)
        self.results.append(res)
        return res

    def digests(self) -> dict[str, str]:
        m = self.m
        h = m.hierarchy
        caches = [*h.l1, *h.l2, *h.l3]
        return {
            "results": _sha(self.results),
            "memory": _sha([m.peek(addr, size) for addr, size in self.buffers]),
            "ledger": _sha(m.ledger.pj),
            "controller": _sha([c.stats for c in m.controllers]),
            "caches": _sha([c.stats for c in caches]),
            "subarrays": _sha([[(s.stats.reads, s.stats.writes, s.stats.compute_ops)
                                for s in c.geometry.subarrays] for c in caches]),
            "events": _sha(m.tracer.snapshot()),
        }


def _every_subop(case: Case, a: int, b: int, c: int, key: int, size: int,
                 **kwargs) -> None:
    """One instruction per sub-array operation over colocated buffers."""
    small = min(size, 8 * BLOCK_SIZE)  # a cmp result fills 8 bits per block
    for instr in (
        cc_ops.cc_and(a, b, c, size), cc_ops.cc_or(a, b, c, size),
        cc_ops.cc_xor(a, b, c, size), cc_ops.cc_not(a, c, size),
        cc_ops.cc_copy(b, c, size), cc_ops.cc_buz(c, size),
        cc_ops.cc_cmp(a, b, small), cc_ops.cc_search(a, key, size),
        cc_ops.cc_clmul(a, b, c, small, lane_bits=64),
        cc_ops.cc_add(a, b, c, size, elem_bits=8),
        cc_ops.cc_mul(a, b, c, size, elem_bits=16),
        cc_ops.cc_reduce(a, size, elem_bits=32),
    ):
        case.cc(instr, **kwargs)


def case_batched_inplace(case: Case) -> None:
    a, b, c, d = case.buffer(2048, 4)
    case.m.warm_l3(a, 2048)
    case.m.warm_l3(b, 2048)
    case.cc(cc_ops.cc_xor(a, b, c, 2048))
    case.cc(cc_ops.cc_and(a, c, d, 2048))
    case.cc(cc_ops.cc_cmp(a, d, 512))
    case.cc(cc_ops.cc_not(d, d, 1024))
    case.cc(cc_ops.cc_buz(c, 1024))
    # Private-cache compute levels: everything touched lands in L1/L2.
    case.m.touch_range(a, 512)
    case.m.touch_range(b, 512)
    case.m.touch_range(c, 512)
    case.cc(cc_ops.cc_or(a, b, c, 512))
    case.cc(cc_ops.cc_copy(c, a, 512))
    case.cc(cc_ops.cc_cmp(a, c, 512))
    # Three 2 KB operands overflow the 4 KB L1 but fit the L2.
    for addr in (a, b, d):
        case.m.touch_range(addr, 2048)
    case.cc(cc_ops.cc_xor(a, b, d, 2048))


def case_data_hazard(case: Case) -> None:
    (a,) = case.buffer(PAGE_SIZE)
    b, c = case.buffer(2048, 2)
    case.cc(cc_ops.cc_copy(a, a + 64, 2048))
    case.cc(cc_ops.cc_xor(a, b, a + 128, 1024))
    case.cc(cc_ops.cc_add(a + 64, b, a, 1024, elem_bits=8))
    case.cc(cc_ops.cc_not(c, c + 192, 512))
    # In place at L1 (operands 256 bytes apart share a partition there):
    # later block ops read what earlier ones wrote.
    case.m.touch_range(c, 2048)
    case.cc(cc_ops.cc_copy(c, c + 256, 1536))
    case.cc(cc_ops.cc_xor(c + 512, c, c + 256, 1024))


def case_forced_nearplace(case: Case) -> None:
    a, b, c, key = case.buffer(1024, 4)
    case.m.warm_l3(a, 1024)
    _every_subop(case, a, b, c, key, 1024, force_nearplace=True)
    case.cc(cc_ops.cc_xor(a, b, c, 512), force_nearplace=True, force_level="L3")


def case_locality_miss(case: Case) -> None:
    a, b, c = case.buffer(PAGE_SIZE, 3)
    # Block-misaligned source: block i of b + 64 sits in another partition.
    case.cc(cc_ops.cc_xor(a, b + 64, c, 1024))
    case.cc(cc_ops.cc_cmp(a + 128, b, 512))
    case.cc(cc_ops.cc_add(a, b + 192, c, 1024, elem_bits=8))
    # Operands homed on different L3 slices never share a partition.
    d, e = case.buffer(1024, 2)
    case.m.place_page(e, 1)
    case.cc(cc_ops.cc_and(d, e, c, 1024))


def case_pin_loss(case: Case) -> None:
    a, b, c, key = case.buffer(1024, 4)
    case.m.warm_l3(b, 1024)
    stolen_once = set()

    def hook(addr: int) -> bool:
        if (addr - a) % (4 * BLOCK_SIZE) == 0:
            return True  # lost on every attempt: RISC fallback
        if (addr - b) % (4 * BLOCK_SIZE) == BLOCK_SIZE and addr not in stolen_once:
            stolen_once.add(addr)
            return True  # lost once, pinned on the retry
        return False

    case.m.controllers[0].contention_hook = hook
    _every_subop(case, a, b, c, key, 1024)


def case_fetch_timeout(case: Case) -> None:
    a, b, c, key = case.buffer(1024, 4)
    timeouts = iter([True, True, True, False] * 8)

    def hook(addr: int) -> bool:
        return next(timeouts, False)

    case.m.controllers[0].fetch_fault_hook = hook
    case.cc(cc_ops.cc_xor(a, b, c, 1024))
    case.cc(cc_ops.cc_search(a, key, 1024))
    case.cc(cc_ops.cc_reduce(b, 1024, elem_bits=8))


def case_page_split(case: Case) -> None:
    a, b, c = case.buffer(2 * PAGE_SIZE, 3)
    head = PAGE_SIZE - 512
    # The first piece computes at L1, the second at L3: level "mixed".
    for addr in (a, b, c):
        case.m.touch_range(addr + head, 512)
    case.cc(cc_ops.cc_xor(a + head, b + head, c + head, 1024))
    half = PAGE_SIZE // 2
    case.cc(cc_ops.cc_xor(a + half, b + half, c + half, PAGE_SIZE))
    case.cc(cc_ops.cc_cmp(a + PAGE_SIZE - 256, b + PAGE_SIZE - 256, 512))
    case.cc(cc_ops.cc_reduce(a + PAGE_SIZE - 1024, 2048, elem_bits=16))
    (d,) = case.buffer(256)
    case.cc(cc_ops.cc_clmul(a + PAGE_SIZE - 256, b + PAGE_SIZE - 256, d, 512,
                            lane_bits=64))


def case_search(case: Case) -> None:
    data, key = case.buffer(2048, 2, fill=False)
    blocks = [case.rng.randbytes(BLOCK_SIZE) for _ in range(4)]
    case.m.load(data, b"".join(blocks[i % 4] for i in range(32)))
    case.m.load(key, blocks[1])
    case.cc(cc_ops.cc_search(data, key, 2048))
    case.cc(cc_ops.cc_search(data, key, 2048))
    case.m.touch_range(data, 512)
    case.m.touch_range(key, BLOCK_SIZE)
    case.cc(cc_ops.cc_search(data, key, 512))


def case_clmul_broadcast(case: Case) -> None:
    a, row, d = case.buffer(2048, 3)
    case.cc(cc_ops.cc_clmul_bcast(a, row, d, 2048, lane_bits=256))
    case.cc(cc_ops.cc_clmul_bcast(a, row, d, 2048, lane_bits=256))
    case.cc(cc_ops.cc_clmul(a, row, d, 512, lane_bits=128))


def case_arith_transpose(case: Case) -> None:
    a, b, c, d, e = case.buffer(1024, 5)
    case.cc(cc_ops.cc_add(a, b, c, 1024, elem_bits=8))
    case.cc(cc_ops.cc_mul(a, b, d, 1024, elem_bits=16))
    case.cc(cc_ops.cc_add(c, d, e, 1024, elem_bits=8))  # bit-serial sources
    case.cc(cc_ops.cc_copy(a, c, 1024))  # back to row-major
    case.cc(cc_ops.cc_mul(c, e, d, 1024, elem_bits=32))


def case_reduce(case: Case) -> None:
    a, b = case.buffer(2048, 2)
    for bits in (8, 16, 32):
        case.cc(cc_ops.cc_reduce(a, 2048, elem_bits=bits))
    case.cc(cc_ops.cc_add(a, b, b, 2048, elem_bits=8))
    case.cc(cc_ops.cc_reduce(b, 2048, elem_bits=8))


CASES = {
    "batched-inplace": case_batched_inplace,
    "data-hazard": case_data_hazard,
    "forced-nearplace": case_forced_nearplace,
    "locality-miss": case_locality_miss,
    "pin-loss": case_pin_loss,
    "fetch-timeout": case_fetch_timeout,
    "page-split": case_page_split,
    "search": case_search,
    "clmul-broadcast": case_clmul_broadcast,
    "arith-transpose": case_arith_transpose,
    "reduce": case_reduce,
}


def run_case(name: str, backend: str) -> Case:
    case = Case(backend, seed=sorted(CASES).index(name))
    CASES[name](case)
    return case


def compute_digests(backend: str) -> dict[str, dict[str, str]]:
    return {name: run_case(name, backend).digests() for name in CASES}


def compute_core_digests(backend: str) -> dict[str, dict[str, str]]:
    return {name: run_core_case(name, backend).digests() for name in CORE_CASES}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())["cc_dispatch"]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_cc_dispatch_digest(golden, name, backend):
    assert run_case(name, backend).digests() == golden[name]


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


def test_mix_reaches_every_outcome():
    """The mix stays meaningful: every dispatch outcome and reason, every
    block-op outcome and fallback reason, and every sub-array operation
    in each execution mode is reached somewhere."""
    dispatch, block_ops, risc_subops, near_subops = set(), set(), set(), set()
    retried, levels = set(), set()
    for name in CASES:
        case = run_case(name, "packed")
        levels.update(res.level for res in case.results)
        events = case.m.tracer.snapshot()
        opcode_of = {}
        for ev in events:
            if ev.kind == "cc.dispatch":
                dispatch.add((ev.outcome, ev.reason))
                opcode_of[ev.instr_id] = ev.opcode
            elif ev.kind == "cc.block_op":
                block_ops.add((ev.outcome, ev.reason))
                if ev.outcome == "risc-fallback":
                    risc_subops.add(ev.opcode)
            elif ev.kind == "nearplace.op":
                near_subops.add(ev.opcode)
            elif ev.kind == "fault.recover":
                retried.add(ev.outcome)
    assert dispatch >= {("batched", None), ("sequential", "data-hazard"),
                        ("sequential", "forced-nearplace")}
    assert block_ops >= {("in-place", None), ("near-place", "forced"),
                         ("near-place", "locality-miss"),
                         ("risc-fallback", "pin-loss")}
    assert retried == {"retried", "degraded-risc"}
    assert levels == {"L1", "L2", "L3", "mixed"}
    assert {f"cc_{s}" for s in ALL_SUBOPS} <= risc_subops
    assert set(ALL_SUBOPS) <= near_subops


# -- the core issue loop ---------------------------------------------------------------


class CoreCase(Case):
    """A core-model scenario: programs run on a fresh small machine whose
    cores keep every loaded value."""

    def __init__(self, backend: str, seed: int, trace_events: bool = True) -> None:
        super().__init__(backend, seed, trace_events)
        for core in self.m.cores:
            core.keep_load_data = True

    def run(self, instrs: list, core: int = 0) -> None:
        program = Program(f"p{len(self.results)}", list(instrs))
        self.results.append(self.m.run(program, core=core))

    def observables(self) -> dict:
        """Everything the core loop can change, tracer aside."""
        m = self.m
        h = m.hierarchy
        return {
            "results": self.results,
            "memory": [m.peek(addr, size) for addr, size in self.buffers],
            "ledger": m.ledger.pj,
            "stats": collect_stats(m),
            "caches": [[c.stats, c.tag_stats] for c in (*h.l1, *h.l2, *h.l3)],
        }

    def digests(self) -> dict[str, str]:
        out = {name: _sha(value) for name, value in self.observables().items()}
        out["events"] = _sha(self.m.tracer.snapshot())
        return out


# Bytes between blocks that share a set in the small machine's caches.
L1_SET_STRIDE = 1024  # 16 sets
L2_SET_STRIDE = 4096  # 64 sets
L3_SET_STRIDE = 8192  # 128 sets per slice


def core_private_hits(case: CoreCase) -> None:
    (a,) = case.buffer(2 * PAGE_SIZE)
    case.run([
        Instr.load(a), Instr.load(a), Instr.load(a + 8, 8),
        Instr.simd_load(a + 48, 32),  # unaligned: spans two blocks
        Instr.simd_load(a + 48, 32),
        Instr.scalar(), Instr.branch(), Instr.simd_op(),
        Instr.store(a, bytes(range(8))),  # write hit on E
        Instr.store(a + 8, case.rng.randbytes(8)),  # write hit on M
        Instr.store(a + 60, case.rng.randbytes(8)),  # spans two blocks
        Instr.load(a, 16), Instr.load(a + 56, 16),
    ])
    # Four more lines in a's L1 set push it out of the L1 but not the L2.
    conflicts = [Instr.load(a + k * L1_SET_STRIDE) for k in range(1, 5)]
    case.run(conflicts + [Instr.store(a + 32, case.rng.randbytes(8))]  # L2 write hit
             + conflicts + [Instr.load(a + 32, 8)])  # L2 read hit on a dirty line


def core_shared_upgrade(case: CoreCase) -> None:
    (b,) = case.buffer(3 * PAGE_SIZE)
    conflicts = [b + k * L1_SET_STRIDE for k in range(1, 9)]
    case.run([Instr.load(b)], core=1)
    case.run([Instr.load(b), Instr.load(b + 8)], core=0)  # both SHARED
    case.run([Instr.store(b, case.rng.randbytes(8))], core=0)  # S -> M upgrade
    case.run([Instr.load(b + 8)], core=1)  # L3 hit, dirty owner recall
    # Push b out of core 0's L1 only (its L2 set is another one).
    case.run([Instr.load(x) for x in conflicts[:4]] + [Instr.load(b, 16)])  # L2 hit
    case.run([Instr.load(x) for x in conflicts[4:]]
             + [Instr.store(b + 16, case.rng.randbytes(16))])  # L2 upgrade-miss
    case.run([Instr.load(b, 32)], core=1)


def core_l3_and_memory(case: CoreCase) -> None:
    c, d = case.buffer(1024, 2)
    case.m.warm_l3(d, 512)
    case.run([
        Instr.load(d), Instr.load(d + 64, dependent=True),  # L3 hits
        Instr.load(c, dependent=True),  # memory miss, fully exposed
        Instr.load(c + 64, streaming=True),  # prefetched: no stall
        Instr.load(c + 128), Instr.load(c + 192), Instr.simd_load(d + 128, 64),
        Instr.fence(),  # exposes the overlapped misses
        Instr.load(c + 256),  # overlapped until the end of the program
        Instr.load(d + 256, 8, streaming=True),
        Instr.load(c + 320, dependent=True, streaming=True),  # no stall
    ])


def core_dirty_evictions(case: CoreCase) -> None:
    (e,) = case.buffer(10 * L3_SET_STRIDE)
    x = e + 64
    # x leaves the L1 dirty (four more lines in its L1 set), then leaves the
    # L2 dirty (four more in its L2 set); ten lines in one L3 set overflow
    # the L3 set and reach memory.
    case.run([Instr.store(x, case.rng.randbytes(32))]
             + [Instr.store(x + k * L1_SET_STRIDE, case.rng.randbytes(8))
                for k in (1, 2, 3, 5)]
             + [Instr.load(x + k * L2_SET_STRIDE) for k in range(1, 5)])
    same_l3_set = [e + k * L3_SET_STRIDE for k in range(10)]
    case.run([Instr.store(y, case.rng.randbytes(64)) for y in same_l3_set])
    case.run([Instr.store_copy(y + 128, y, 64) for y in same_l3_set])
    case.run([Instr.load(y, 64) for y in [x, *same_l3_set]])


def core_store_kinds(case: CoreCase) -> None:
    src1, src2, dst = case.buffer(512, 3)
    case.run([
        Instr.simd_load(src1, 64), Instr.simd_load(src2 + 32, 64),
        Instr.simd_store_op(dst, src1, src2, "and"),
        Instr.simd_store_op(dst + 32, src1 + 8, src2, "or"),
        Instr.simd_store_op(dst + 240, src1 + 16, src2 + 40, "xor"),  # two blocks
        Instr.simd_store_copy(dst + 96, src1),
        Instr.simd_store(dst + 128, case.rng.randbytes(32)),
        Instr.store_copy(dst + 160, src2, 8),
        Instr.store(dst + 168, case.rng.randbytes(8)),
        Instr.simd_load(dst, 64), Instr.load(dst + 248, 16),
    ])


def core_cc_overlap(case: CoreCase) -> None:
    a, b, c = case.buffer(512, 3)
    case.m.warm_l3(a, 512)
    case.m.warm_l3(b, 512)
    case.run([Instr.cc_op(cc_ops.cc_xor(a, b, c, 512))]
             + [Instr.scalar(), Instr.simd_op(), Instr.branch()] * 30
             + [Instr.load(a + 1024), Instr.fence(),  # hidden CC, MLP stall
                Instr.cc_op(cc_ops.cc_and(a, b, c, 512)),
                Instr.cc_op(cc_ops.cc_copy(c, a, 256)),
                Instr.load(b + 2048),
                Instr.fence(),  # MLP stall, then the CC drain
                Instr.load(c, 64),
                Instr.cc_op(cc_ops.cc_not(a, c, 512))])  # drained at the end


def core_multicore(case: CoreCase) -> None:
    x, y = case.buffer(1024, 2)
    p0 = ([Instr.store(x + 64 * i, case.rng.randbytes(16)) for i in range(8)]
          + [Instr.load(y + 64 * i) for i in range(8)] + [Instr.fence()])
    p1 = ([Instr.load(x + 64 * i, 16) for i in range(8)]
          + [Instr.store_copy(y + 64 * i, x + 64 * i, 16) for i in range(8)]
          + [Instr.fence()])
    runner = MulticoreRunner(case.m, chunk=4)
    case.results.append(runner.run({0: Program("p0", p0), 1: Program("p1", p1)}))


CORE_CASES = {
    "private-hits": core_private_hits,
    "shared-upgrade": core_shared_upgrade,
    "l3-and-memory": core_l3_and_memory,
    "dirty-evictions": core_dirty_evictions,
    "store-kinds": core_store_kinds,
    "cc-overlap": core_cc_overlap,
    "multicore": core_multicore,
}


def run_core_case(name: str, backend: str, trace_events: bool = True) -> CoreCase:
    case = CoreCase(backend, seed=sorted(CORE_CASES).index(name),
                    trace_events=trace_events)
    CORE_CASES[name](case)
    return case


@pytest.fixture(scope="module")
def golden_core() -> dict:
    return json.loads(GOLDEN.read_text())["core_run"]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(CORE_CASES))
def test_core_run_digest(golden_core, name, backend):
    assert run_core_case(name, backend).digests() == golden_core[name]


def test_golden_file_covers_every_core_case(golden_core):
    assert sorted(golden_core) == sorted(CORE_CASES)


@pytest.mark.parametrize("name", sorted(CORE_CASES))
def test_core_run_same_without_tracer(name):
    """The tracer observes the core loop; it never steers it."""
    traced = run_core_case(name, "packed").observables()
    untraced = run_core_case(name, "packed", trace_events=False).observables()
    assert _canon(untraced) == _canon(traced)


def test_core_mix_reaches_every_path():
    """Every access outcome of ``access_block``, every instruction form and
    every stall the core loop charges is reached somewhere in the mix."""
    accesses, phases, instrs = set(), set(), []
    writebacks = {"L1": 0, "L2": 0, "L3": 0}
    memory_writes = l3_reads = multicore = 0

    for name in CORE_CASES:
        case = CoreCase("packed", seed=sorted(CORE_CASES).index(name))
        h = case.m.hierarchy
        access = h.access_block

        def spy(core, addr, for_write, access=access, h=h):
            before = (h.l1[core].state_of(addr).name, h.l2[core].state_of(addr).name)
            res = access(core, addr, for_write)
            accesses.add((for_write, *before, res.hit_level))
            return res

        h.access_block = spy
        run = case.m.run

        def record(program, core=0, run=run):
            instrs.extend(program)
            return run(program, core=core)

        case.m.run = record
        CORE_CASES[name](case)
        multicore += any(hasattr(r, "per_core") for r in case.results)
        phases.update(ev.phase for ev in case.m.tracer.by_kind("core.phase"))
        stats = collect_stats(case.m)
        for level, snap in stats.levels.items():
            writebacks[level] += snap.writebacks
        l3_reads += stats.levels["L3"].reads  # L3 hits and recalls
        memory_writes += stats.memory_writes

    hits = {(w, l1, hit) for w, l1, _l2, hit in accesses}
    assert {(False, "SHARED", "L1"), (False, "EXCLUSIVE", "L1"),
            (True, "EXCLUSIVE", "L1"), (True, "MODIFIED", "L1"),
            (True, "SHARED", "L3"),  # the upgrade through the directory
            (False, "INVALID", "L2"), (True, "INVALID", "L2"),
            (False, "INVALID", "L3"),
            (True, "INVALID", "L3")} <= hits
    assert (True, "INVALID", "SHARED", "L3") in accesses  # L2 upgrade-miss
    assert l3_reads and memory_writes and all(writebacks.values())
    assert phases == {"issue", "load-stall", "mlp-stall", "cc-drain"}
    assert {i.kind for i in instrs} == set(InstrKind)
    assert {i.alu for i in instrs} == {None, "and", "or", "xor"}
    assert any(i.kind is InstrKind.STORE and i.data is None for i in instrs)
    assert any(i.kind is InstrKind.LOAD and i.dependent for i in instrs)
    assert any(i.kind is InstrKind.LOAD and i.streaming for i in instrs)
    assert any(i.kind is InstrKind.SIMD_LOAD and i.addr % BLOCK_SIZE + i.size > BLOCK_SIZE
               for i in instrs)
    assert multicore


# -- the micro-benchmark suites ------------------------------------------------------------

MICROBENCH = {
    "fig3": microbench.figure3_energy_proportions,
    "fig7": microbench.figure7,
    "fig8a": microbench.figure8a_inplace_vs_nearplace,
    "fig8b": microbench.figure8b_levels,
}
MICROBENCH_SIZE = 1024


def microbench_digest(name: str, backend: str) -> str:
    return _sha(MICROBENCH[name](size=MICROBENCH_SIZE, backend=backend))


def compute_microbench_digests(backend: str) -> dict[str, str]:
    return {name: microbench_digest(name, backend) for name in MICROBENCH}


@pytest.fixture(scope="module")
def golden_microbench() -> dict:
    return json.loads(GOLDEN.read_text())["microbench"]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(MICROBENCH))
def test_microbench_digest(golden_microbench, name, backend):
    assert microbench_digest(name, backend) == golden_microbench[name]


def test_golden_file_covers_every_microbench_suite(golden_microbench):
    assert sorted(golden_microbench) == sorted(MICROBENCH)


# -- the fault campaigns --------------------------------------------------------------


def _campaign_doc(seed: int, backend: str) -> dict:
    doc = run_campaign(default_plan(seed), backend=backend).to_dict()
    del doc["backend"]
    return doc


FAULTS = {
    **{f"campaign-seed{seed}": functools.partial(_campaign_doc, seed)
       for seed in (0, 5)},
    **{f"crypto-{kernel}": functools.partial(run_crypto_campaign, kernel)
       for kernel in CRYPTO_KERNELS},
}


def fault_digest(name: str, backend: str) -> str:
    return _sha(FAULTS[name](backend=backend))


def compute_fault_digests(backend: str) -> dict[str, str]:
    return {name: fault_digest(name, backend) for name in FAULTS}


@pytest.fixture(scope="module")
def golden_faults() -> dict:
    return json.loads(GOLDEN.read_text())["faults"]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(FAULTS))
def test_fault_campaign_digest(golden_faults, name, backend):
    assert fault_digest(name, backend) == golden_faults[name]


def test_golden_file_covers_every_fault_campaign(golden_faults):
    assert sorted(golden_faults) == sorted(FAULTS)


def main() -> None:
    """Regenerate the golden file (both backends must agree)."""
    doc = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for section, compute in (("cc_dispatch", compute_digests),
                             ("core_run", compute_core_digests),
                             ("microbench", compute_microbench_digests),
                             ("faults", compute_fault_digests)):
        digests = {backend: compute(backend) for backend in BACKENDS}
        if digests["packed"] != digests["bitexact"]:
            raise SystemExit(f"packed and bitexact {section} digests differ; not writing")
        doc[section] = digests["packed"]
        print(f"{len(digests['packed'])} {section} digests")
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
