"""The compute-capable SRAM sub-array (Sections II-B and IV-B).

A :class:`ComputeSubarray` composes the raw bit-cell array, the added dual
row decoder, and the reconfigurable sense amplifiers into the unit the CC
controller talks to.  Every row holds one cache block; all rows share
bit-lines, so any two rows of the same sub-array are in the same *block
partition* and can be operated on in place.

Supported in-place operations (all bit-exact):

=============  =====================================================
``read``       conventional differential read of one row
``write``      conventional write of one row
``and``        BL sensing over two activated rows
``nor``        BLB sensing over two activated rows
``or``         complement of ``nor``
``xor``        NOR of BL and BLB sense results
``not``        complement read driven to a destination row
``copy``       sense a row, feed the latch back onto the bit-lines
``buz``        reset the data latch, write zeros
``cmp``        per-word wired-NOR of the XOR result -> equality mask
``search``     ``cmp`` against a key previously written to a row
``clmul``      AND of two rows, XOR-reduction tree per lane
``add``        bit-serial element-wise addition (Neural Cache tier)
``mul``        bit-serial element-wise multiplication
``reduce``     bit-serial element-sum into a 64-bit accumulator
=============  =====================================================

Execution backends
------------------

The backend is chosen once per machine (``MachineConfig.backend``), when
the cache geometry builds its sub-arrays from :data:`SUBARRAYS`:

* ``"bitexact"`` - :class:`ComputeSubarray`, the circuit model above:
  bytes expand to per-bit bool arrays, word-lines activate, sense amps
  resolve rails.  It is the oracle for the fast path and the only one with
  circuit diagnostics (sense-amp reconfiguration and decoder counts).
* ``"packed"`` - :class:`PackedSubarray`, vectorized numpy kernels over
  packed ``uint8`` rows (:mod:`repro.kernels`); no bit unpacking anywhere.
  Proven bit-exact against the circuit model by the differential-equivalence
  harness.

Both check their arguments with one
:func:`~repro.kernels.packed.check_block_op` and count operations in the
same :class:`SubarrayStats`, so results and statistics are
backend-invariant.  What an operation costs is not a sub-array's concern:
the controller charges each in-place op its Table V energy
(:mod:`repro.energy.mcpat`) and its in-place latency.  Circuit-level
experiments (write disturb, activation limits, 8T cells) use
:class:`~repro.sram.bitcell.BitCellArray` directly.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field

import numpy as np

from ..bitops import bits_to_bytes, bytes_to_bits, word_equality_mask, xor_reduce_lanes
from ..errors import AddressError
from ..kernels import PackedCellArray, block_op, check_block_op, pack_flags
from .bitcell import BitCellArray
from .decoder import DualRowDecoder
from .sense_amp import SenseAmpColumn, SenseMode


class SubarrayOp:
    """String constants naming sub-array operations."""

    READ = "read"
    WRITE = "write"
    AND = "and"
    OR = "or"
    NOR = "nor"
    XOR = "xor"
    NOT = "not"
    COPY = "copy"
    BUZ = "buz"
    CMP = "cmp"
    SEARCH = "search"
    CLMUL = "clmul"
    ADD = "add"
    MUL = "mul"
    REDUCE = "reduce"

    LOGICAL = frozenset({AND, OR, NOR, XOR})
    ARITH = frozenset({ADD, MUL, REDUCE})
    ALL = frozenset(
        {READ, WRITE, AND, OR, NOR, XOR, NOT, COPY, BUZ, CMP, SEARCH, CLMUL,
         ADD, MUL, REDUCE}
    )


@dataclass
class SubarrayStats:
    """Operation counts of one sub-array."""

    reads: int = 0
    writes: int = 0
    compute_ops: dict[str, int] = field(default_factory=dict)

    def record(self, op: str) -> None:
        if op == SubarrayOp.READ:
            self.reads += 1
        elif op == SubarrayOp.WRITE:
            self.writes += 1
        else:
            self.compute_ops[op] = self.compute_ops.get(op, 0) + 1

    @property
    def total_compute_ops(self) -> int:
        return sum(self.compute_ops.values())


class _Subarray:
    """What both backends share: shape and statistics."""

    def __init__(self, rows: int, cols: int) -> None:
        if cols % 8:
            raise AddressError(f"sub-array width {cols} is not a whole number of bytes")
        self.rows = rows
        self.cols = cols
        self.stats = SubarrayStats()

    @classmethod
    def level(cls, count: int, rows: int, cols: int) -> list:
        """The ``count`` sub-arrays (block partitions) of one cache level."""
        return [cls(rows, cols) for _ in range(count)]

    @classmethod
    def op_groups(cls, op: str, groups: list[tuple], lane_bits: int | None = None,
                  elem_bits: int | None = None) -> list:
        """``op_batch`` over the row tuples of several sub-arrays at once.

        ``groups`` holds one ``(sub-array, rows_a, rows_b, rows_dest)``
        per sub-array; the results of all groups come back as one list,
        in group order.  This is one ``op_batch`` call per group, the
        circuit path; :meth:`PackedSubarray.op_groups` runs the groups of
        one cache level as one kernel call.  Either way every sub-array
        ends with the statistics of its own ``op_batch``.
        """
        results: list = []
        for sub, rows_a, rows_b, rows_dest in groups:
            results += sub.op_batch(op, rows_a, rows_b, rows_dest, lane_bits, elem_bits)
        return results


class ComputeSubarray(_Subarray):
    """One sub-array as a circuit: ``rows`` cache blocks sharing ``cols``
    bit-lines, a dual row decoder and reconfigurable sense amps."""

    def __init__(self, rows: int, cols: int) -> None:
        super().__init__(rows, cols)
        self.cells = BitCellArray(rows, cols)
        self.decoder = DualRowDecoder(rows)
        self.sense = SenseAmpColumn(cols)

    # -- conventional access ------------------------------------------------

    def read_block(self, row: int) -> bytes:
        """Conventional differential read of one row (one cache block)."""
        wl = self.decoder.decode(row)
        self.sense.configure(SenseMode.DIFFERENTIAL)
        bl, blb = self.cells.activate(wl)
        bits = self.sense.sense_differential(bl, blb)
        self.stats.record(SubarrayOp.READ)
        return bits_to_bytes(bits)

    def write_block(self, row: int, data: bytes) -> None:
        """Conventional write of one row."""
        if len(data) * 8 != self.cols:
            raise AddressError(
                f"block of {len(data)} bytes does not fill a {self.cols}-bit row"
            )
        bits = bytes_to_bits(data)
        self.decoder.decode(row)
        self.cells.write_row(row, bits)
        self.stats.record(SubarrayOp.WRITE)

    def peek_block(self, row: int) -> bytes:
        """One row's bytes without stats or energy (verification backdoor)."""
        return bits_to_bytes(self.cells.read_row(row))

    # -- in-place compute ---------------------------------------------------

    def _compute_sense(self, row_a: int, row_b: int) -> tuple[np.ndarray, np.ndarray]:
        """Dual activation with single-ended sensing; returns (AND, NOR)."""
        wl = self.decoder.decode(row_a, row_b)
        self.sense.configure(SenseMode.SINGLE_ENDED)
        bl, blb = self.cells.activate(wl)
        return self.sense.sense_single_ended(bl, blb)

    def op_and(self, row_a: int, row_b: int, dest: int | None = None) -> bytes:
        """In-place AND of two rows; optionally written back to ``dest``."""
        and_bits, _ = self._compute_sense(row_a, row_b)
        self.stats.record(SubarrayOp.AND)
        return self._finish(and_bits, dest)

    def op_nor(self, row_a: int, row_b: int, dest: int | None = None) -> bytes:
        """In-place NOR of two rows (sensed on bit-line-bar)."""
        _, nor_bits = self._compute_sense(row_a, row_b)
        self.stats.record(SubarrayOp.NOR)
        return self._finish(nor_bits, dest)

    def op_or(self, row_a: int, row_b: int, dest: int | None = None) -> bytes:
        """In-place OR: complement of the NOR sense result."""
        _, nor_bits = self._compute_sense(row_a, row_b)
        self.stats.record(SubarrayOp.OR)
        return self._finish(~nor_bits, dest)

    def op_xor(self, row_a: int, row_b: int, dest: int | None = None) -> bytes:
        """In-place XOR: NOR of the BL (AND) and BLB (NOR) sense results."""
        and_bits, nor_bits = self._compute_sense(row_a, row_b)
        xor_bits = ~(and_bits | nor_bits)
        self.stats.record(SubarrayOp.XOR)
        return self._finish(xor_bits, dest)

    def op_not(self, row: int, dest: int | None = None) -> bytes:
        """Complement of one row, via BLB sensing of a single activation."""
        wl = self.decoder.decode(row)
        self.sense.configure(SenseMode.SINGLE_ENDED)
        bl, blb = self.cells.activate(wl)
        _, not_bits = self.sense.sense_single_ended(bl, blb)
        self.stats.record(SubarrayOp.NOT)
        return self._finish(not_bits, dest)

    def op_copy(self, src: int, dest: int) -> bytes:
        """In-place copy via the sense-amp feedback path (Figure 4).

        The source row is sensed, the latched value is driven back onto the
        bit-lines, and the destination word-line is write-enabled.  The data
        never leaves the sub-array.
        """
        wl = self.decoder.decode(src)
        self.sense.configure(SenseMode.DIFFERENTIAL)
        bl, blb = self.cells.activate(wl)
        self.sense.sense_differential(bl, blb)
        bits = self.sense.drive_back()
        self.cells.write_row(dest, bits)
        self.stats.record(SubarrayOp.COPY)
        return bits_to_bytes(bits)

    def op_buz(self, dest: int) -> None:
        """In-place zeroing: reset the data latch, then write (cc_buz)."""
        self.sense.reset_latch()
        bits = self.sense.drive_back()
        self.decoder.decode(dest)
        self.cells.write_row(dest, bits)
        self.stats.record(SubarrayOp.BUZ)

    def op_cmp(self, row_a: int, row_b: int, word_bits: int = 64) -> int:
        """Word-granular equality of two rows.

        The per-bit XOR results are combined per word with a wired-NOR;
        returns a mask with bit *i* set iff word *i* of the two rows match.
        """
        and_bits, nor_bits = self._compute_sense(row_a, row_b)
        xor_bits = ~(and_bits | nor_bits)
        self.stats.record(SubarrayOp.CMP)
        return word_equality_mask(xor_bits, word_bits)

    def op_search(self, data_row: int, key_row: int, key_bytes: int = 64) -> int:
        """Compare a data row against a replicated key row (cc_search).

        The key occupies ``key_bytes`` (the paper fixes 64); equality is
        reported at key granularity: bit *i* of the result is set iff the
        *i*-th key-sized chunk of the data row equals the key.
        """
        and_bits, nor_bits = self._compute_sense(data_row, key_row)
        xor_bits = ~(and_bits | nor_bits)
        self.stats.record(SubarrayOp.SEARCH)
        return word_equality_mask(xor_bits, key_bytes * 8)

    # -- bit-serial arithmetic (Neural Cache tier) ----------------------------

    def _row_bit_planes(self, row: int, elem_bits: int) -> np.ndarray:
        """Row contents as ``(n_elems, elem_bits)`` bit planes, LSB first.

        This is the transposed (bit-serial) view the Neural Cache circuits
        operate on: column *k* is bit-plane *k* of every element.  Elements
        are little-endian within the row (element 0 lowest-addressed).
        """
        raw = np.frombuffer(bits_to_bytes(self.cells.read_row(row)), dtype=np.uint8)
        return (
            np.unpackbits(raw, bitorder="little").astype(bool).reshape(-1, elem_bits)
        )

    @staticmethod
    def _planes_to_bits(planes: np.ndarray) -> np.ndarray:
        """Bit planes back to the row's MSB-first bit layout."""
        raw = np.packbits(planes.astype(np.uint8).ravel(), bitorder="little")
        return np.unpackbits(raw).astype(bool)

    @staticmethod
    def _serial_add_planes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The bit-serial full-adder loop: one pass per bit plane.

        Each step computes sum and carry planes exactly as the bit-line
        logic does (``s = a ^ b ^ c``, ``c' = ab + c(a ^ b)``); the final
        carry is dropped (wraparound modulo ``2^w``).
        """
        out = np.zeros_like(a)
        carry = np.zeros(a.shape[0], dtype=bool)
        for k in range(a.shape[1]):
            ak, bk = a[:, k], b[:, k]
            axb = ak ^ bk
            out[:, k] = axb ^ carry
            carry = (ak & bk) | (carry & axb)
        return out

    @classmethod
    def _serial_mul_planes(cls, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Bit-serial shift-and-add multiplication over bit planes.

        Partial product *k* is ``a`` shifted up *k* planes, predicated on
        bit plane *k* of ``b``, accumulated with the full-adder loop; all
        shifts and sums truncate at ``w`` planes (modulo ``2^w``).
        """
        acc = np.zeros_like(a)
        w = a.shape[1]
        for k in range(w):
            pp = np.zeros_like(a)
            pp[:, k:] = a[:, : w - k]
            pp &= b[:, k][:, None]
            acc = cls._serial_add_planes(acc, pp)
        return acc

    def op_add(self, row_a: int, row_b: int, dest: int | None = None,
               elem_bits: int = 8) -> bytes:
        """Element-wise bit-serial addition of two rows (cc_add)."""
        check_block_op(SubarrayOp.ADD, self.cols, True, elem_bits=elem_bits)
        a = self._row_bit_planes(row_a, elem_bits)
        b = self._row_bit_planes(row_b, elem_bits)
        out = self._serial_add_planes(a, b)
        self.stats.record(SubarrayOp.ADD)
        return self._finish(self._planes_to_bits(out), dest)

    def op_mul(self, row_a: int, row_b: int, dest: int | None = None,
               elem_bits: int = 8) -> bytes:
        """Element-wise bit-serial multiplication of two rows (cc_mul)."""
        check_block_op(SubarrayOp.MUL, self.cols, True, elem_bits=elem_bits)
        a = self._row_bit_planes(row_a, elem_bits)
        b = self._row_bit_planes(row_b, elem_bits)
        out = self._serial_mul_planes(a, b)
        self.stats.record(SubarrayOp.MUL)
        return self._finish(self._planes_to_bits(out), dest)

    def op_reduce(self, row: int, elem_bits: int = 8) -> int:
        """Sum the row's elements modulo ``2^64`` (cc_reduce).

        Bit-exact reference: accumulate per bit plane
        (``sum_i e_i = sum_k 2^k * popcount(plane k)``), which is exactly
        what the log-depth reduction tree computes.
        """
        check_block_op(SubarrayOp.REDUCE, self.cols, False, elem_bits=elem_bits)
        planes = self._row_bit_planes(row, elem_bits)
        total = 0
        for k in range(elem_bits):
            total += int(planes[:, k].sum()) << k
        self.stats.record(SubarrayOp.REDUCE)
        return total & 0xFFFFFFFFFFFFFFFF

    def op_clmul(self, row_a: int, row_b: int, lane_bits: int) -> bytes:
        """Carry-less multiply: AND of two rows + XOR-reduction per lane.

        Each ``lane_bits``-wide lane reduces to a single parity bit
        (Table II: ``c_i = XOR_j (a[j] & b[j])``); the result is returned
        as packed bytes, one bit per lane, zero-padded to a whole byte.
        """
        check_block_op(SubarrayOp.CLMUL, self.cols, True, lane_bits=lane_bits)
        and_bits, _ = self._compute_sense(row_a, row_b)
        lanes = xor_reduce_lanes(and_bits, lane_bits)
        self.stats.record(SubarrayOp.CLMUL)
        mask = int(pack_flags(lanes)[0])
        return mask.to_bytes((lanes.size + 7) // 8, "little")

    # -- batched compute ----------------------------------------------------

    def op_batch(
        self,
        op: str,
        rows_a: list[int],
        rows_b: list[int] | None = None,
        rows_dest: list[int] | None = None,
        lane_bits: int | None = None,
        elem_bits: int | None = None,
    ) -> list:
        """Issue one operation over many row tuples of this sub-array, one
        tuple at a time through the per-row circuit operations
        (:meth:`PackedSubarray.op_batch` makes the batch one kernel call).
        Either way the :class:`SubarrayStats` equal those of issuing the
        rows one at a time.  A batch with rows first passes
        :func:`~repro.kernels.packed.check_block_op`.

        Returns a list with one entry per row tuple: result ``bytes`` for
        data-producing ops, ``int`` masks for ``cmp`` (one bit per word)
        and ``search`` (one bit per 64-byte key), packed ``bytes`` for
        ``clmul``, ``int`` partial sums for ``reduce``, and ``None`` for
        ``buz``.
        """
        if rows_a:
            check_block_op(op, self.cols, rows_b is not None, lane_bits, elem_bits)
        return [self._one_op(op, i, rows_a, rows_b, rows_dest, lane_bits, elem_bits)
                for i in range(len(rows_a))]

    def _one_op(self, op: str, i: int, rows_a, rows_b, rows_dest,
                lane_bits: int | None, elem_bits: int | None):
        """One batch element via the per-row entry points (circuit path)."""
        a = rows_a[i]
        b = rows_b[i] if rows_b is not None else None
        dest = rows_dest[i] if rows_dest is not None else None
        if op in (SubarrayOp.AND, SubarrayOp.OR, SubarrayOp.NOR, SubarrayOp.XOR):
            method = {SubarrayOp.AND: self.op_and, SubarrayOp.OR: self.op_or,
                      SubarrayOp.NOR: self.op_nor, SubarrayOp.XOR: self.op_xor}[op]
            return method(a, b, dest=dest)
        if op == SubarrayOp.NOT:
            return self.op_not(a, dest=dest)
        if op == SubarrayOp.COPY:
            return self.op_copy(a, dest)
        if op == SubarrayOp.BUZ:
            return self.op_buz(dest if dest is not None else a)
        if op == SubarrayOp.CMP:
            return self.op_cmp(a, b)
        if op == SubarrayOp.SEARCH:
            return self.op_search(a, b)
        if op == SubarrayOp.CLMUL:
            return self.op_clmul(a, b, lane_bits)
        if op == SubarrayOp.ADD:
            return self.op_add(a, b, dest=dest, elem_bits=elem_bits)
        if op == SubarrayOp.MUL:
            return self.op_mul(a, b, dest=dest, elem_bits=elem_bits)
        return self.op_reduce(a, elem_bits=elem_bits)

    # -- helpers ------------------------------------------------------------

    def _finish(self, bits: np.ndarray, dest: int | None) -> bytes:
        """Optionally write a compute result back to a destination row."""
        if dest is not None:
            self.sense.latch_value(bits)
            self.cells.write_row(dest, self.sense.drive_back())
        return bits_to_bytes(bits)


class PackedSubarray(_Subarray, PackedCellArray):
    """The fast path: packed rows whose every batch is one
    :func:`~repro.kernels.packed.block_op` call (gather packed rows,
    compute, scatter), with the circuit's results and statistics.

    The sub-arrays of one cache level (:meth:`level`) keep their rows in
    one shared ``(partitions, rows, cols // 8)`` uint8 ``block``, each
    storing into the view ``block[index]``, so :meth:`op_groups` runs a
    batch spread over many partitions as one gather, kernel and scatter.
    A sub-array built on its own has a one-partition block.
    """

    def __init__(self, rows: int, cols: int, block: np.ndarray | None = None,
                 index: int = 0) -> None:
        _Subarray.__init__(self, rows, cols)
        if block is None:
            PackedCellArray.__init__(self, rows, cols)
            block = self.data[None]
        else:
            PackedCellArray.__init__(self, rows, cols, block[index])
        self.block = block
        self.index = index

    @classmethod
    def level(cls, count: int, rows: int, cols: int) -> list:
        """The ``count`` sub-arrays of one cache level, on one shared block.

        The block is an anonymous memory map: its pages read as zero and
        take memory only once written, so the rows a run never fills cost
        neither set-up time nor memory (a Table IV L3 slice is 2 MB).
        """
        shape = (count, rows, cols // 8)
        block = np.frombuffer(mmap.mmap(-1, count * rows * (cols // 8)),
                              dtype=np.uint8).reshape(shape)
        return [cls(rows, cols, block=block, index=i) for i in range(count)]

    def read_block(self, row: int) -> bytes:
        """Conventional read of one row (one cache block)."""
        data = self.read_row_bytes(row)
        self.stats.record(SubarrayOp.READ)
        return data

    def write_block(self, row: int, data: bytes) -> None:
        """Conventional write of one row."""
        if len(data) * 8 != self.cols:
            raise AddressError(
                f"block of {len(data)} bytes does not fill a {self.cols}-bit row"
            )
        self.write_row_bytes(row, data)
        self.stats.record(SubarrayOp.WRITE)

    def peek_block(self, row: int) -> bytes:
        """One row's bytes without stats or energy (verification backdoor)."""
        return self.read_row_bytes(row)

    def op_batch(
        self,
        op: str,
        rows_a: list[int],
        rows_b: list[int] | None = None,
        rows_dest: list[int] | None = None,
        lane_bits: int | None = None,
        elem_bits: int | None = None,
    ) -> list:
        """:meth:`ComputeSubarray.op_batch` as one kernel call: the
        one-partition case of :meth:`op_groups`."""
        return self.op_groups(op, [(self, rows_a, rows_b, rows_dest)], lane_bits, elem_bits)

    @classmethod
    def op_groups(cls, op: str, groups: list[tuple], lane_bits: int | None = None,
                  elem_bits: int | None = None) -> list:
        """:meth:`_Subarray.op_groups` as one gather, one kernel call and
        one scatter over the level's shared block (groups from sub-arrays
        of different blocks fall back to one call per group)."""
        if not groups:
            return []
        block = groups[0][0].block
        if any(sub.block is not block for sub, *_ in groups):
            return super().op_groups(op, groups, lane_bits, elem_bits)
        has_b, has_dest = groups[0][2] is not None, groups[0][3] is not None
        parts: list[int] = []
        rows_a: list[int] = []
        rows_b: list[int] = []
        rows_dest: list[int] = []
        for sub, a, b, dest in groups:
            parts += [sub.index] * len(a)
            rows_a += a
            if has_b:
                rows_b += b
            if has_dest:
                rows_dest += dest
        if not rows_a:
            return []
        n_rows = block.shape[1]
        for rows in (rows_a, rows_b, rows_dest):
            if rows and not (min(rows) >= 0 and max(rows) < n_rows):
                bad = next(r for r in rows if not 0 <= r < n_rows)
                raise AddressError(f"row {bad} outside array of {n_rows} rows")

        where = np.array(parts, dtype=np.intp)
        a = block[where, np.array(rows_a, dtype=np.intp)]
        b = block[where, np.array(rows_b, dtype=np.intp)] if has_b else None
        out, results = block_op(op, a, b, lane_bits, elem_bits)
        if out is not None and has_dest:
            block[where, np.array(rows_dest, dtype=np.intp)] = out
        for sub, rows, _rows_b, _rows_dest in groups:
            for _ in rows:
                sub.stats.record(op)
        return results


SUBARRAYS = {"bitexact": ComputeSubarray, "packed": PackedSubarray}
"""The sub-array class of each execution backend (``MachineConfig.backend``)."""
