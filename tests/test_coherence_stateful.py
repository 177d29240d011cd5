"""Stateful (model-based) coherence testing with hypothesis.

A RuleBasedStateMachine drives the real hierarchy with an arbitrary
interleaving of per-core reads, writes, CC copies, CC zeroing, evict-
pressure bursts, and CC-prepare calls, against a flat reference model.
Invariants checked continuously: read values, coherent_peek values,
inclusion, SWMR, and directory consistency.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import ComputeCacheMachine, cc_ops
from repro.params import BLOCK_SIZE, small_test_machine

N_BUFFERS = 4
BUF_BLOCKS = 4
BUF_BYTES = BUF_BLOCKS * 64

cores = st.integers(0, 1)
buffers = st.integers(0, N_BUFFERS - 1)
values = st.integers(0, 255)
offsets = st.integers(0, BUF_BLOCKS - 1)


class CoherenceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.m = ComputeCacheMachine(small_test_machine())
        self.bufs = self.m.arena.alloc_colocated(BUF_BYTES, N_BUFFERS)
        self.ref = [bytearray(BUF_BYTES) for _ in range(N_BUFFERS)]
        for i, addr in enumerate(self.bufs):
            seed = bytes([i * 31 + 5]) * BUF_BYTES
            self.m.load(addr, seed)
            self.ref[i][:] = seed
        self.pressure_cursor = self.m.arena.alloc(64 * 1024)

    # -- actions -------------------------------------------------------------

    @rule(core=cores, buf=buffers, block=offsets, value=values)
    def write_block(self, core, buf, block, value):
        data = bytes([value]) * 64
        self.m.write(self.bufs[buf] + block * 64, data, core=core)
        self.ref[buf][block * 64 : (block + 1) * 64] = data

    @rule(core=cores, buf=buffers, block=offsets)
    def read_block(self, core, buf, block):
        out = self.m.read(self.bufs[buf] + block * 64, 64, core=core)
        assert out == bytes(self.ref[buf][block * 64 : (block + 1) * 64])

    @rule(core=cores, src=buffers, dst=buffers)
    def cc_copy(self, core, src, dst):
        if src == dst:
            return
        self.m.cc(cc_ops.cc_copy(self.bufs[src], self.bufs[dst], BUF_BYTES),
                  core=core)
        self.ref[dst][:] = self.ref[src]

    @rule(core=cores, buf=buffers)
    def cc_buz(self, core, buf):
        self.m.cc(cc_ops.cc_buz(self.bufs[buf], BUF_BYTES), core=core)
        self.ref[buf][:] = bytes(BUF_BYTES)

    @rule(core=cores, a=buffers, b=buffers, dst=buffers)
    def cc_xor(self, core, a, b, dst):
        if a == b or a == dst or b == dst:
            return
        self.m.cc(cc_ops.cc_xor(self.bufs[a], self.bufs[b], self.bufs[dst],
                                BUF_BYTES), core=core)
        self.ref[dst][:] = bytes(
            x ^ y for x, y in zip(self.ref[a], self.ref[b])
        )

    @rule(core=cores)
    def eviction_pressure(self, core):
        """Touch conflicting lines to force evictions through the stack."""
        l1 = self.m.config.l1d
        stride = l1.sets * BLOCK_SIZE
        for i in range(l1.ways + 1):
            addr = self.pressure_cursor + i * stride
            if addr + 64 <= self.m.config.memory_size:
                self.m.read(addr, 8, core=core)

    @rule(core=cores, buf=buffers, is_dest=st.booleans())
    def cc_prepare_l3(self, core, buf, is_dest):
        """Exercise the controller's operand staging directly."""
        addr = self.bufs[buf]
        self.m.hierarchy.cc_prepare(core, "L3", addr, is_dest=is_dest)
        if is_dest:
            # MODIFIED at L3 with no stale private copies - but the data is
            # still the architectural value.
            assert self.m.peek(addr, 64) == bytes(self.ref[buf][:64])
        self.m.hierarchy.cc_release(core, "L3", addr)

    # -- invariants -------------------------------------------------------------

    @invariant()
    def peek_matches_reference(self):
        for i, addr in enumerate(self.bufs):
            assert self.m.peek(addr, BUF_BYTES) == bytes(self.ref[i]), f"buf {i}"

    @invariant()
    def protocol_invariants(self):
        self.m.hierarchy.check_inclusion()
        self.m.hierarchy.check_single_writer()
        for directory in self.m.hierarchy.directory:
            directory.check_all()


CoherenceMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=18, deadline=None,
)
TestCoherenceStateful = CoherenceMachine.TestCase


def test_long_deterministic_soak():
    """A fixed long interleaving as a cheap regression soak."""
    rng = np.random.default_rng(0xFEED)
    machine = CoherenceMachine()
    actions = [
        machine.write_block, machine.read_block, machine.cc_copy,
        machine.cc_buz, machine.cc_xor, machine.eviction_pressure,
    ]
    for _ in range(150):
        action = actions[int(rng.integers(0, len(actions)))]
        name = action.__name__
        if name == "write_block":
            action(int(rng.integers(0, 2)), int(rng.integers(0, N_BUFFERS)),
                   int(rng.integers(0, BUF_BLOCKS)), int(rng.integers(0, 256)))
        elif name == "read_block":
            action(int(rng.integers(0, 2)), int(rng.integers(0, N_BUFFERS)),
                   int(rng.integers(0, BUF_BLOCKS)))
        elif name in ("cc_copy",):
            action(int(rng.integers(0, 2)), int(rng.integers(0, N_BUFFERS)),
                   int(rng.integers(0, N_BUFFERS)))
        elif name == "cc_buz":
            action(int(rng.integers(0, 2)), int(rng.integers(0, N_BUFFERS)))
        elif name == "cc_xor":
            action(int(rng.integers(0, 2)), int(rng.integers(0, N_BUFFERS)),
                   int(rng.integers(0, N_BUFFERS)), int(rng.integers(0, N_BUFFERS)))
        else:
            action(int(rng.integers(0, 2)))
        machine.peek_matches_reference()
    machine.protocol_invariants()
