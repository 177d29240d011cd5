"""Exception hierarchy for the Compute Caches reproduction.

Every error raised by the library derives from :class:`ReproError` so
applications can catch library failures with a single ``except`` clause.
The sub-classes mirror the architectural failure modes the paper discusses:
operand-locality violations, multi-row activation limits, page-spanning
operands (which raise a pipeline exception in hardware), pinned-line
conflicts, and ECC mismatches.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigError(ReproError):
    """A machine/cache configuration is internally inconsistent."""


class AddressError(ReproError):
    """An address is out of range or mis-aligned for the requested access."""


class OperandLocalityError(ReproError):
    """Two operands do not share a block partition (Section IV-C).

    In-place bit-line computation requires both operands to be stored in
    rows of the same sub-array that share bit-lines.  The controller
    normally falls back to near-place computation instead of raising; this
    error surfaces when the caller explicitly requested in-place execution.
    """


class ActivationLimitError(ReproError):
    """More word-lines were activated than the circuit tolerates.

    Jeloka et al. demonstrated no data corruption with up to 64
    simultaneously-activated word-lines; the bit-cell array model enforces
    a configurable cap (``BitCellArray(max_activated=)``) and raises this
    error beyond it.
    """


class DataCorruptionError(ReproError):
    """Multi-row activation corrupted bit-cells.

    Only raised by a :class:`~repro.sram.bitcell.BitCellArray` built with
    ``wordline_underdrive=False`` (fault-injection mode) - the paper's
    circuit lowers the word-line voltage to bias against writes, which
    prevents this failure, and every cache sub-array keeps it lowered.
    """


class PinnedLineError(ReproError):
    """A cache line needed by a CC operation could not be pinned."""


class CoherenceError(ReproError):
    """Internal coherence-protocol invariant violation (a bug, not a race)."""


class ECCError(ReproError):
    """An uncorrectable error was detected by the ECC machinery."""


class ISAError(ReproError):
    """A CC instruction is malformed (bad opcode, size, or alignment)."""


class RunnerError(ReproError):
    """A benchmark simulation point failed inside the sweep runner."""


class FaultPlanError(ConfigError):
    """A fault-injection plan is malformed (unknown kind, bad probability)."""
