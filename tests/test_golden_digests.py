"""Behaviour digests of the CC dispatch paths (``benchmarks/golden_digests.json``).

A fixed mix of CC instructions is run one at a time through
``ComputeCacheMachine.cc`` with event tracing on.  The mix reaches every
dispatch outcome of the block-op pipeline: batched in place, the
``data-hazard`` and ``forced-nearplace`` per-op dispatch, locality-miss
near-place, pin-loss and fetch-timeout RISC fallback, page splits, search
key replication, broadcast ``clmul``, and the transposing arithmetic tier.
Each case is hashed per observable: the ``CCResult`` fields, the final
bytes of every buffer it touched, the energy ledger, the controller,
cache-level and sub-array statistics, and the event stream.  Floats are
hashed by ``repr``, so a change in the order of float accumulation shows.

Both backends must reproduce the same committed digests.  After a
deliberate model change, regenerate the file with
``python tests/test_golden_digests.py`` and say why in CHANGES.md.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import random
from collections import deque
from pathlib import Path

import pytest

from repro import ComputeCacheMachine, cc_ops
from repro.api import BLOCK_SIZE, PAGE_SIZE, small_test_machine

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

    def __init__(self, backend: str, seed: int) -> None:
        self.m = ComputeCacheMachine(small_test_machine(), backend=backend,
                                     trace_events=True)
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
            "subarrays": _sha([[s.stats for s in c.geometry.subarrays] for c in caches]),
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


def main() -> None:
    """Regenerate the golden file (both backends must agree)."""
    digests = {backend: compute_digests(backend) for backend in BACKENDS}
    if digests["packed"] != digests["bitexact"]:
        raise SystemExit("packed and bitexact digests differ; not writing")
    doc = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    doc["cc_dispatch"] = digests["packed"]
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests['packed'])} cc_dispatch digests to {GOLDEN}")


if __name__ == "__main__":
    main()
