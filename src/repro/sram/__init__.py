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
* :class:`~repro.sram.subarray.ComputeSubarray` - the full sub-array with
  read/write/compute entry points and per-operation stats.
* :class:`~repro.sram.timing.SubarrayTiming` - delay/energy multipliers
  (Section VI-C).
"""

from .bitcell import BitCellArray, CellType
from .column_mux import ColumnMuxLayout
from .decoder import DualRowDecoder
from .sense_amp import SenseAmpColumn, SenseMode
from .subarray import ComputeSubarray, SubarrayOp, SubarrayStats
from .timing import SubarrayTiming

__all__ = [
    "BitCellArray",
    "CellType",
    "ColumnMuxLayout",
    "DualRowDecoder",
    "SenseAmpColumn",
    "SenseMode",
    "ComputeSubarray",
    "SubarrayOp",
    "SubarrayStats",
    "SubarrayTiming",
]
