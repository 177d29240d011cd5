"""Bit-accurate model of compute-capable SRAM sub-arrays (Sections II-B, IV-B).

The sub-array is the physical substrate of Compute Caches: a grid of 6T
bit-cells whose rows are word-lines and whose columns share bit-line pairs.
Activating two word-lines at once and sensing the shared bit-lines computes
AND (bit-line) and NOR (bit-line-bar) of the stored rows; the paper extends
the circuit with XOR (NOR of BL and BLB sense results), in-place copy and
zeroing (feeding the sense amps back onto the bit-lines), word-granular
compare/search (wired-NOR of XOR), and carry-less multiply (AND followed by
an XOR-reduction tree).

Public surface:

* :class:`~repro.sram.bitcell.BitCellArray` - raw storage with multi-row
  activation physics and optional disturb fault-injection.
* :class:`~repro.sram.decoder.DualRowDecoder` - the added second decoder.
* :class:`~repro.sram.sense_amp.SenseAmpColumn` - differential sensing that
  reconfigures into two single-ended amps during compute.
* :class:`~repro.sram.subarray.ComputeSubarray` - the full sub-array as a
  circuit, with read/write/compute entry points and per-operation counts;
  the oracle for everything else that computes a block operation.
* :class:`~repro.sram.subarray.PackedSubarray` - the ``packed`` fast path:
  the same block access and batched compute over packed bytes, run by the
  :func:`repro.kernels.block_op` kernel that the near-place unit and the
  RISC fallback also run, bit-exact against the circuit.
  :data:`~repro.sram.subarray.SUBARRAYS` maps each backend name to its
  class.
* :mod:`~repro.sram.timing` - the Section VI-C delay/energy multipliers
  and the bit-serial step counts of the arithmetic tier.  A sub-array
  keeps no cost of its own: an in-place op's energy is its Table V charge.
"""

from .bitcell import BitCellArray, CellType
from .decoder import DualRowDecoder
from .sense_amp import SenseAmpColumn, SenseMode
from .subarray import SUBARRAYS, ComputeSubarray, PackedSubarray, SubarrayOp, SubarrayStats

__all__ = [
    "BitCellArray",
    "CellType",
    "DualRowDecoder",
    "SenseAmpColumn",
    "SenseMode",
    "ComputeSubarray",
    "PackedSubarray",
    "SUBARRAYS",
    "SubarrayOp",
    "SubarrayStats",
]
