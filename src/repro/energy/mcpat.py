"""Static + dynamic power roll-up (McPAT-substitute).

McPAT gives the paper per-structure dynamic energies (consumed via
:mod:`repro.energy.tables`) and leakage power.  This module supplies the
leakage side: total energy = dynamic (from the ledger) + static power x
execution time.  Static power is split into a core and an uncore component
so the ``core-static`` / ``uncore-static`` bars of Figures 7(c), 8(a) and 11
can be reproduced.  Reduced execution time is the lever by which Compute
Caches reduce static energy (Section VI-D).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..kernels.packed import ARITH_ELEM_BITS, ARITH_OPS
from ..params import BLOCK_SIZE, CoreConfig, MachineConfig
from .accounting import Component, EnergyLedger
from .tables import (
    _OP_COLUMN,
    CACHE_ACCESS_ENERGY_PJ,
    CACHE_IC_ENERGY_PJ,
    cc_arith_energy,
    cc_op_energy,
    read_energy,
    transpose_energy,
    write_energy,
)


@dataclass(frozen=True)
class TotalEnergy:
    """The four bars of a Figure 7(c)-style stacked total-energy plot (nJ)."""

    core_dynamic: float
    uncore_dynamic: float
    core_static: float
    uncore_static: float

    @property
    def total(self) -> float:
        return (
            self.core_dynamic + self.uncore_dynamic + self.core_static + self.uncore_static
        )



class PowerModel:
    """Combines an :class:`EnergyLedger` with leakage power over time."""

    def __init__(self, config: MachineConfig, active_cores: int = 1) -> None:
        self.config = config
        self.active_cores = active_cores

    def _seconds(self, cycles: float, core: CoreConfig) -> float:
        return cycles * core.cycle_ns * 1e-9

    def total_energy(self, ledger: EnergyLedger, cycles: float) -> TotalEnergy:
        """Roll up a run's dynamic ledger and cycle count into total energy (nJ)."""
        core = self.config.core
        seconds = self._seconds(cycles, core)
        core_static_nj = core.static_power_core_mw * 1e-3 * self.active_cores * seconds * 1e9
        uncore_static_nj = self.config.static_power_uncore_mw * 1e-3 * seconds * 1e9
        core_dynamic_nj = ledger.core() / 1000.0
        uncore_dynamic_nj = (ledger.total() - ledger.core()) / 1000.0
        return TotalEnergy(
            core_dynamic=core_dynamic_nj,
            uncore_dynamic=uncore_dynamic_nj,
            core_static=core_static_nj,
            uncore_static=uncore_static_nj,
        )



# Every per-event charge is a constant of the published tables, built
# here once per cache level (and op): the ledger receives the same floats,
# in the same order, as computing each charge on every event.  The tables
# are built at import so that no long-lived object is allocated in the
# middle of a run, where it would pin memory the run frees.


def _conventional(level_name: str, total: float) -> tuple[str, float, str, float]:
    """``(access component, pJ, ic component, pJ)`` of one conventional
    64-byte access of ``total`` pJ, split in the Table I access/H-tree
    proportion."""
    access_c, ic_c = Component.for_level(level_name)
    ic = CACHE_IC_ENERGY_PJ[level_name]
    array = CACHE_ACCESS_ENERGY_PJ[level_name]
    scale = total / (ic + array)
    return access_c, array * scale, ic_c, ic * scale


def _cc_op(level_name: str, op: str) -> tuple[str, float]:
    return (Component.for_level(level_name)[0],
            cc_op_energy(level_name, op))


def _cc_arith(level_name: str, op: str, elem_bits: int,
              n_elems: int | None) -> tuple[str, float]:
    return (Component.for_level(level_name)[0],
            cc_arith_energy(level_name, op, elem_bits, n_elems))


_READ = {name: _conventional(name, read_energy(name))
         for name in Component.LEVELS}
_WRITE = {name: _conventional(name, write_energy(name))
          for name in Component.LEVELS}
_TRANSPOSE = {name: (Component.for_level(name)[0],
                     transpose_energy(name))
              for name in Component.LEVELS}
_KEY_BROADCAST = {name: (Component.for_level(name)[1],
                         2.0 * CACHE_IC_ENERGY_PJ[name])
                  for name in Component.LEVELS}
_KEY_ROW_WRITE = {name: (Component.for_level(name)[0],
                         write_energy(name)
                         - CACHE_IC_ENERGY_PJ[name])
                  for name in Component.LEVELS}
_CC_OP = {(name, op): _cc_op(name, op)
          for name in Component.LEVELS for op in _OP_COLUMN}
# The element widths the ISA accepts, at the element count of one block;
# any other call is computed on the spot.
_CC_ARITH = {(name, op, bits, BLOCK_SIZE * 8 // bits):
             _cc_arith(name, op, bits, BLOCK_SIZE * 8 // bits)
             for name in Component.LEVELS for op in ARITH_OPS
             for bits in ARITH_ELEM_BITS}


def charge_cache_read(ledger: EnergyLedger, level_name: str) -> None:
    """Charge one conventional 64-byte read at ``level_name`` to a ledger,
    split into access and H-tree components per Table I proportions."""
    access_c, access_pj, ic_c, ic_pj = _READ[level_name]
    ledger.add(access_c, access_pj)
    ledger.add(ic_c, ic_pj)


def charge_cache_write(ledger: EnergyLedger, level_name: str) -> None:
    """Charge one conventional 64-byte write, split like a read.

    Table I only reports the read split; writes use the same ic/access
    proportion applied to the Table V write energy.
    """
    access_c, access_pj, ic_c, ic_pj = _WRITE[level_name]
    ledger.add(access_c, access_pj)
    ledger.add(ic_c, ic_pj)


def charge_cc_op(ledger: EnergyLedger, level_name: str, op: str) -> None:
    """Charge one in-place CC block operation.

    In-place operations never traverse the H-tree, so the whole Table V
    energy lands on the ``*-access`` component.
    """
    ledger.add(*(_CC_OP.get((level_name, op)) or _cc_op(level_name, op)))


def charge_cc_arith(ledger: EnergyLedger, level_name: str, op: str,
                    elem_bits: int, n_elems: int | None = None) -> None:
    """Charge one in-place bit-serial arithmetic block operation.

    Like :func:`charge_cc_op` the energy never traverses the H-tree, but
    it scales with the bit-serial step count (Table V logic energy per
    step, see :func:`repro.energy.tables.cc_arith_energy`).
    """
    ledger.add(*(_CC_ARITH.get((level_name, op, elem_bits, n_elems))
                 or _cc_arith(level_name, op, elem_bits, n_elems)))


def charge_transpose(ledger: EnergyLedger, level_name: str, blocks: int) -> None:
    """Charge ``blocks`` row-major <-> bit-serial layout conversions.

    Each conversion is one data-array read plus one write through the
    sub-array-periphery transpose unit (no H-tree component)."""
    if blocks <= 0:
        return
    access_c, pj = _TRANSPOSE[level_name]
    ledger.add(access_c, blocks * pj)


def charge_key_broadcast(ledger: EnergyLedger, level_name: str) -> None:
    """One H-tree broadcast of a 64-byte key to all target sub-arrays.

    The H-tree is a fanout tree: driving the key onto it once reaches every
    leaf, so a multi-partition key replication pays the wire energy once
    (charged at 2x the single-path Table I value to cover the fully-
    switched tree) plus a per-partition array write
    (:func:`charge_key_row_write`).
    """
    ledger.add(*_KEY_BROADCAST[level_name])


def charge_key_row_write(ledger: EnergyLedger, level_name: str) -> None:
    """The data-array portion of one key-row write (no H-tree component -
    that is paid once by :func:`charge_key_broadcast`)."""
    ledger.add(*_KEY_ROW_WRITE[level_name])

