"""In-place execution of simple vector operations in cache sub-arrays.

Block operations reach the executor located: each
:class:`~repro.core.operation_table.BlockOperation` comes with the
``(row_a, row_b, row_dest)`` its operands occupy at the compute level
(:func:`operand_rows`).  :meth:`InPlaceExecutor.account_batch` charges the
Table V energy and emits the ``subarray.op`` events of one partition's
ops; :meth:`InPlaceExecutor.kernel_batch` runs the bit-line operations of
any number of partitions' ops as one ``op_groups`` call of their
sub-array class (one kernel call for a whole page-local piece under the
packed backend, one ``op_batch`` per sub-array under bit-exact) and
leaves any result bits (for CC-R operations) on each op, by the same
rule as near-place (``BlockOperation.take_result``).  A single op is a
one-item batch.

In-place execution requires all operands in the same block partition;
:meth:`InPlaceExecutor.execute` asserts this (the controller only routes
locality-satisfying operations here) and raises
:class:`OperandLocalityError` otherwise.
"""

from __future__ import annotations

from ..cache.cache import CacheLevel
from ..energy.mcpat import charge_cc_arith, charge_cc_op
from ..errors import ISAError, OperandLocalityError
from ..kernels.packed import ARITH_OPS
from ..params import BLOCK_SIZE
from ..sram.timing import arith_steps
from .operation_table import BlockOperation


def row_slots(subop: str, dests: list[bool]) -> tuple[int, int, int]:
    """Where a block op's kernel finds its ``(row_a, row_b, row_dest)``,
    given which of its operands are destinations: each slot indexes the
    operands' rows followed by the partition's key row (index
    ``len(dests)``) and ``None`` (index ``len(dests) + 1``, an unused
    slot).  ``search`` and broadcast ``clmul`` read their second operand
    from the key row.  The slots depend only on the opcode and operand
    roles, so every block op of an instruction shares them."""
    key, unused = len(dests), len(dests) + 1
    sources = [i for i, is_dest in enumerate(dests) if not is_dest]
    dest = next((i for i, is_dest in enumerate(dests) if is_dest), unused)
    if subop == "buz":
        return dest, unused, dest
    if len(sources) > 1:
        return sources[0], sources[1], dest
    if subop in ("search", "clmul"):
        return sources[0], key, unused
    return sources[0], unused, dest


def operand_rows(op: BlockOperation, rows: list[int], key_row: int) -> tuple:
    """The ``(row_a, row_b, row_dest)`` a block op's kernel reads and
    writes, from the rows its operands occupy (``rows`` parallels
    ``op.operands``); unused slots are ``None`` (see :func:`row_slots`)."""
    slots = row_slots(op.subarray_op, [o.is_dest for o in op.operands])
    rows = [*rows, key_row, None]
    return tuple(rows[i] for i in slots)


class InPlaceExecutor:
    """Issues bit-line compute operations into a cache level's sub-arrays."""

    def __init__(self, inplace_latency: int = 14) -> None:
        self.inplace_latency = inplace_latency

    def op_latency(self, subop: str, elem_bits: int | None = None) -> int:
        """Latency of one in-place block op.

        The single-step ops take the fixed ``inplace_latency``; the
        bit-serial arithmetic ops add one cycle per bit-serial step on top
        of the same decode/sequencing overhead."""
        if subop in ARITH_OPS:
            if elem_bits is None:
                raise ISAError(f"{subop} needs an element width")
            n_elems = (BLOCK_SIZE * 8) // elem_bits
            return self.inplace_latency + arith_steps(subop, elem_bits, n_elems)
        return self.inplace_latency

    def _charge(self, level: CacheLevel, subop: str,
                elem_bits: int | None) -> None:
        """Table-V ledger charge for one in-place block op (step-scaled
        for the arithmetic tier)."""
        if subop in ARITH_OPS:
            charge_cc_arith(level.ledger, level.name, subop, elem_bits,
                            (BLOCK_SIZE * 8) // elem_bits)
            return
        # Search's Table V energy (cmp + key write) is charged in two
        # parts: the compare here, the key-replication write by the
        # controller once per partition of a piece (amortized across
        # blocks sharing a partition).
        charge_cc_op(level.ledger, level.name,
                     "cmp" if subop == "search" else subop)

    def execute(self, level: CacheLevel, op: BlockOperation) -> None:
        """Run one simple vector operation in place: a one-item batch."""
        addrs = op.addresses
        partitions = {level.geometry.partition_of(a) for a in addrs}
        if len(partitions) != 1:
            raise OperandLocalityError(
                f"in-place {op.subarray_op} operands {['%#x' % a for a in addrs]} span "
                f"partitions {sorted(partitions)} of {level.name}"
            )
        locs = [level.locate(a) for a in addrs]
        rows = operand_rows(op, [row for _, row in locs], level.geometry.key_row)
        self.execute_batch(level, [(locs[0][0], partitions.pop(), [(op, rows)])])

    def execute_batch(self, level: CacheLevel, groups: list[tuple]) -> None:
        """Run located simple vector operations of one cache level at once.

        ``groups`` holds one ``(subarray, partition, items)`` per target
        sub-array; ``items`` pairs each :class:`BlockOperation` with its
        located ``(row_a, row_b, row_dest)`` triple (see
        :func:`operand_rows`).  Each group is accounted in turn
        (:meth:`account_batch`), then one :meth:`kernel_batch` call runs
        them all.
        """
        for _subarray, partition, items in groups:
            self.account_batch(level, partition, items)
        self.kernel_batch([(subarray, items) for subarray, _, items in groups])

    def account_batch(self, level: CacheLevel, partition: int,
                      items: list[tuple[BlockOperation, tuple]]) -> None:
        """Table-V charges, level stats, and ``subarray.op`` events for one
        partition's located ops, without running the kernel (the *account*
        stage of :meth:`execute_batch`)."""
        if not items:
            return
        subop = items[0][0].subarray_op
        span = float(self.op_latency(subop, items[0][0].elem_bits))
        for op, _rows in items:
            op.partition = partition
            op.outcome = "in-place"
            self._charge(level, subop, op.elem_bits)
            level.stats.cc_inplace_ops += 1
            if level.tracer is not None:
                level.tracer.emit(
                    "subarray.op", level=level.name, unit=level.unit,
                    opcode=subop, partition=partition,
                    addr=op.operands[0].addr, instr_id=op.instr_id,
                    span=span,
                )

    def kernel_batch(self, groups: list[tuple[object, list[tuple[BlockOperation, tuple]]]]) -> None:
        """The *kernel* stage: run the located ops of one or more
        sub-arrays, given as ``(sub-array, items)`` groups, through one
        ``op_groups`` call of their sub-array class, and give each op its
        result bits (:meth:`BlockOperation.take_result`).  The class
        decides how the groups run: one gather, kernel and scatter over
        the level's shared block for :class:`~repro.sram.PackedSubarray`,
        one ``op_batch`` per sub-array for the bit-exact
        :class:`~repro.sram.ComputeSubarray`.

        Sub-array statistics are counted in item order within each
        sub-array, so items must keep the order in which their ops were
        staged.
        """
        groups = [(subarray, items) for subarray, items in groups if items]
        if not groups:
            return
        first, (_row_a, row_b, row_dest) = groups[0][1][0]
        results = type(groups[0][0]).op_groups(
            first.subarray_op,
            [(subarray, [rows[0] for _, rows in items],
              [rows[1] for _, rows in items] if row_b is not None else None,
              [rows[2] for _, rows in items] if row_dest is not None else None)
             for subarray, items in groups],
            lane_bits=first.lane_bits, elem_bits=first.elem_bits,
        )
        ops = (op for _, items in groups for op, _rows in items)
        for op, result in zip(ops, results):
            op.take_result(result)
