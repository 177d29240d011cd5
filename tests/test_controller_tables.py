"""Instruction / operation / key table tests (Section IV-D)."""

import pytest

from repro.core.instruction_table import InstructionTable
from repro.core.isa import cc_cmp, cc_copy
from repro.core.key_table import KeyTable
from repro.core.operation_table import (
    BlockOperand,
    BlockOperation,
    OperationTable,
    OpStatus,
)
from repro.errors import ReproError


class TestInstructionTable:
    def test_allocate_complete_retire(self):
        table = InstructionTable(capacity=2)
        entry = table.allocate(cc_copy(0, 0x1000, 128), total_ops=2)
        assert entry.generate_next() == 0
        assert entry.generate_next() == 1
        with pytest.raises(ReproError):
            entry.generate_next()
        entry.complete_op()
        assert not entry.done
        entry.complete_op()
        assert entry.done
        table.retire(entry.instr_id)
        assert len(table) == 0

    def test_capacity_enforced(self):
        table = InstructionTable(capacity=1)
        table.allocate(cc_copy(0, 0x1000, 64), total_ops=1)
        with pytest.raises(ReproError):
            table.allocate(cc_copy(0, 0x2000, 64), total_ops=1)

    def test_result_bits_pack_little_endian(self):
        table = InstructionTable()
        entry = table.allocate(cc_cmp(0, 0x1000, 128), total_ops=2)
        entry.complete_op(0xAB, 8)
        entry.complete_op(0xCD, 8)
        assert entry.result_mask == 0xCDAB

    def test_result_overflow_rejected(self):
        table = InstructionTable()
        entry = table.allocate(cc_cmp(0, 0x1000, 512), total_ops=8)
        for _ in range(8):
            entry.complete_op(0xFF, 8)
        assert entry.result_mask == 2**64 - 1
        with pytest.raises(ReproError):
            entry.complete_op(0x1, 8)

    def test_retire_incomplete_rejected(self):
        table = InstructionTable()
        entry = table.allocate(cc_copy(0, 0x1000, 128), total_ops=2)
        with pytest.raises(ReproError):
            table.retire(entry.instr_id)


class TestOperationTable:
    def _op(self, instr_id=0, op_index=0):
        return BlockOperation(
            instr_id=instr_id,
            op_index=op_index,
            subarray_op="and",
            operands=[
                BlockOperand(0x0, is_dest=False),
                BlockOperand(0x1000, is_dest=False),
                BlockOperand(0x2000, is_dest=True),
            ],
        )

    def test_lifecycle(self):
        table = OperationTable(capacity=4)
        op = table.allocate(self._op())
        assert op.status is OpStatus.WAITING
        op.status = OpStatus.DONE
        table.retire(0, 0)
        assert len(table) == 0

    def test_operand_views(self):
        op = self._op()
        assert len(op.source_operands) == 2
        assert op.dest_operand is not None and op.dest_operand.addr == 0x2000
        assert op.addresses == [0x0, 0x1000, 0x2000]

    def test_duplicate_rejected(self):
        table = OperationTable()
        table.allocate(self._op())
        with pytest.raises(ReproError):
            table.allocate(self._op())

    def test_capacity(self):
        table = OperationTable(capacity=1)
        table.allocate(self._op(op_index=0))
        with pytest.raises(ReproError):
            table.allocate(self._op(op_index=1))

    def test_retire_unfinished_rejected(self):
        table = OperationTable()
        table.allocate(self._op())
        with pytest.raises(ReproError):
            table.retire(0, 0)


class TestKeyTable:
    def test_replication_once_per_partition(self):
        """The point of the key table: no redundant key writes (VI-D)."""
        kt = KeyTable()
        assert kt.needs_replication(0, 0x100, "L3", 5)
        assert not kt.needs_replication(0, 0x100, "L3", 5)
        assert kt.needs_replication(0, 0x100, "L3", 6)
        assert kt.total_replications == 2
        assert kt.replications_avoided == 1

    def test_levels_tracked_separately(self):
        kt = KeyTable()
        assert kt.needs_replication(0, 0x100, "L1", 0)
        assert kt.needs_replication(0, 0x100, "L3", 0)

    def test_release_forgets(self):
        kt = KeyTable()
        kt.needs_replication(0, 0x100, "L3", 5)
        kt.release(0)
        assert kt.needs_replication(0, 0x100, "L3", 5)

    def test_instructions_independent(self):
        kt = KeyTable()
        kt.needs_replication(0, 0x100, "L3", 5)
        assert kt.needs_replication(1, 0x100, "L3", 5)

    def test_capacity_eviction(self):
        kt = KeyTable(capacity=1)
        kt.needs_replication(0, 0x100, "L3", 5)
        kt.needs_replication(1, 0x200, "L3", 5)  # evicts instr 0
        assert kt.needs_replication(0, 0x100, "L3", 5)  # must re-replicate

    def test_partitions_of(self):
        kt = KeyTable()
        kt.needs_replication(0, 0x100, "L3", 5)
        kt.needs_replication(0, 0x100, "L3", 9)
        assert kt.partitions_of(0) == {("L3", 5), ("L3", 9)}
