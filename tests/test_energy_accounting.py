"""Energy ledger, power model, and charge-function tests."""

import pytest

from repro.energy.accounting import Component, EnergyLedger
from repro.energy.mcpat import (
    PowerModel,
    charge_cache_read,
    charge_cache_write,
    charge_cc_arith,
    charge_cc_op,
    charge_key_broadcast,
    charge_key_row_write,
    charge_transpose,
)
from repro.energy.tables import (
    CACHE_ACCESS_ENERGY_PJ,
    CACHE_IC_ENERGY_PJ,
    cc_arith_energy,
    cc_op_energy,
    read_energy,
    transpose_energy,
    write_energy,
)
from repro.errors import ConfigError, ISAError
from repro.params import sandybridge_8core

LEVEL_NAMES = ("L1-D", "L2", "L3-slice")


class TestLedger:
    def test_add_and_total(self):
        ledger = EnergyLedger()
        ledger.add(Component.CORE, 100.0)
        ledger.add(Component.CORE, 50.0)
        ledger.add(Component.L3_IC, 25.0)
        assert ledger.total() == 175.0
        assert ledger.core() == 150.0
        assert ledger.total_nj() == pytest.approx(0.175)

    def test_groupings(self):
        ledger = EnergyLedger()
        ledger.add(Component.L1_ACCESS, 1.0)
        ledger.add(Component.L2_ACCESS, 2.0)
        ledger.add(Component.L3_IC, 4.0)
        ledger.add(Component.NOC, 8.0)
        assert ledger.cache_access() == 3.0
        assert ledger.cache_ic() == 4.0
        assert ledger.noc() == 8.0
        assert ledger.data_movement() == 15.0
        assert ledger.breakdown() == {
            "core": 0.0, "cache-access": 3.0, "cache-ic": 4.0, "noc": 8.0
        }

    def test_diff(self):
        a, b = EnergyLedger(), EnergyLedger()
        a.add(Component.CORE, 10.0)
        b.add(Component.CORE, 25.0)
        b.add(Component.NOC, 5.0)
        diff = a.diff(b)
        assert diff[Component.CORE] == 15.0
        assert diff[Component.NOC] == 5.0

    def test_copy_is_independent(self):
        a = EnergyLedger()
        a.add(Component.CORE, 1.0)
        b = a.copy()
        b.add(Component.CORE, 1.0)
        assert a.core() == 1.0 and b.core() == 2.0

    def test_component_for_level(self):
        assert Component.for_level("L1-D") == ("l1-access", "l1-ic")
        assert Component.for_level("L3-slice") == ("l3-access", "l3-ic")
        with pytest.raises(KeyError):
            Component.for_level("L4")


class TestTables:
    def test_read_write_lookups(self):
        assert read_energy("L3-slice") == 2452.0
        assert write_energy("L1-D") == 375.0
        with pytest.raises(ConfigError):
            read_energy("L9")

    def test_cc_op_column_mapping(self):
        assert cc_op_energy("L3-slice", "buz") == cc_op_energy("L3-slice", "copy")
        assert cc_op_energy("L2", "xor") == cc_op_energy("L2", "or")
        assert cc_op_energy("L1-D", "clmul") == cc_op_energy("L1-D", "cmp")
        with pytest.raises(ISAError):
            cc_op_energy("L2", "div")

    def test_htree_fraction(self):
        """Table I: the H-tree is 1985 of a 2452 pJ L3-slice read."""
        ic, access = CACHE_IC_ENERGY_PJ["L3-slice"], CACHE_ACCESS_ENERGY_PJ["L3-slice"]
        assert ic / (ic + access) == pytest.approx(1985 / 2452)


class TestChargeFunctions:
    def test_read_split_sums_to_table5(self):
        ledger = EnergyLedger()
        charge_cache_read(ledger, "L2")
        assert ledger.total() == pytest.approx(read_energy("L2"))
        assert ledger.get(Component.L2_IC) > ledger.get(Component.L2_ACCESS)

    def test_write_split_sums_to_table5(self):
        ledger = EnergyLedger()
        charge_cache_write(ledger, "L3-slice")
        assert ledger.total() == pytest.approx(write_energy("L3-slice"))

    def test_cc_op_has_no_ic_component(self):
        """In-place ops never traverse the H-tree."""
        ledger = EnergyLedger()
        charge_cc_op(ledger, "L3-slice", "and")
        assert ledger.cache_ic() == 0.0
        assert ledger.total() == pytest.approx(cc_op_energy("L3-slice", "and"))

    def test_key_broadcast_plus_row_writes(self):
        """Broadcast wire energy once + array-only writes per partition is
        cheaper than N full writes but costlier than one."""
        ledger = EnergyLedger()
        charge_key_broadcast(ledger, "L3-slice")
        for _ in range(16):
            charge_key_row_write(ledger, "L3-slice")
        total = ledger.total()
        assert write_energy("L3-slice") < total < 16 * write_energy("L3-slice")
        assert ledger.get(Component.L3_IC) == pytest.approx(
            2 * CACHE_IC_ENERGY_PJ["L3-slice"]
        )


class TestChargesMatchTheFormula:
    """Every charge leaves exactly (``==``) the ledger of the formula it
    stands for, written out here from the published tables, on the first
    call and on repeated calls."""

    def _conventional(self, ledger, level_name: str, total: float) -> None:
        access_c, ic_c = Component.for_level(level_name)
        ic = CACHE_IC_ENERGY_PJ[level_name]
        array = CACHE_ACCESS_ENERGY_PJ[level_name]
        scale = total / (ic + array)
        ledger.add(access_c, array * scale)
        ledger.add(ic_c, ic * scale)

    def _check(self, charge, formula) -> None:
        got, want = EnergyLedger(), EnergyLedger()
        for _ in range(3):
            charge(got)
            formula(want)
        assert got.pj == want.pj

    @pytest.mark.parametrize("level", LEVEL_NAMES)
    def test_conventional_access(self, level):
        self._check(lambda l: charge_cache_read(l, level),
                    lambda l: self._conventional(l, level, read_energy(level)))
        self._check(lambda l: charge_cache_write(l, level),
                    lambda l: self._conventional(l, level, write_energy(level)))

    @pytest.mark.parametrize("level", LEVEL_NAMES)
    def test_inplace_ops(self, level):
        access_c, ic_c = Component.for_level(level)
        for op in ("and", "or", "xor", "not", "copy", "buz", "cmp", "search",
                   "clmul"):
            self._check(lambda l: charge_cc_op(l, level, op),
                        lambda l: l.add(access_c, cc_op_energy(level, op)))
        for op, bits, n in [(op, bits, 512 // bits) for op in ("add", "mul", "reduce")
                            for bits in (8, 16, 32)] + [("add", 4, None),
                                                        ("mul", 16, None),
                                                        ("reduce", 8, 32)]:
            self._check(
                lambda l: charge_cc_arith(l, level, op, bits, n),
                lambda l: l.add(access_c, cc_arith_energy(level, op, bits, n)))
        for blocks in (0, 1, 7):
            def transpose(ledger, blocks=blocks):
                if blocks > 0:
                    ledger.add(access_c, blocks * transpose_energy(level))
            self._check(lambda l: charge_transpose(l, level, blocks), transpose)
        self._check(lambda l: charge_key_broadcast(l, level),
                    lambda l: l.add(ic_c, 2.0 * CACHE_IC_ENERGY_PJ[level]))
        self._check(lambda l: charge_key_row_write(l, level),
                    lambda l: l.add(access_c,
                                    write_energy(level) - CACHE_IC_ENERGY_PJ[level]))

    def test_unknown_ops_raise(self):
        ledger = EnergyLedger()
        for _ in range(2):
            with pytest.raises(ISAError):
                charge_cc_op(ledger, "L2", "div")
            with pytest.raises(ISAError):
                charge_cc_arith(ledger, "L2", "div", 8, 64)
        assert ledger.pj == {}


class TestPowerModel:
    def test_static_scales_with_time(self):
        cfg = sandybridge_8core()
        model = PowerModel(cfg, active_cores=1)
        ledger = EnergyLedger()
        short = model.total_energy(ledger, cycles=1000)
        long = model.total_energy(ledger, cycles=2000)
        assert long.core_static == pytest.approx(2 * short.core_static)
        assert long.uncore_static == pytest.approx(2 * short.uncore_static)

    def test_active_cores_scale_core_static(self):
        cfg = sandybridge_8core()
        one = PowerModel(cfg, active_cores=1).total_energy(EnergyLedger(), 1000)
        eight = PowerModel(cfg, active_cores=8).total_energy(EnergyLedger(), 1000)
        assert eight.core_static == pytest.approx(8 * one.core_static)
        assert eight.uncore_static == pytest.approx(one.uncore_static)

    def test_dynamic_split(self):
        cfg = sandybridge_8core()
        ledger = EnergyLedger()
        ledger.add(Component.CORE, 5000.0)
        ledger.add(Component.L3_ACCESS, 3000.0)
        total = PowerModel(cfg).total_energy(ledger, 0)
        assert total.core_dynamic == pytest.approx(5.0)
        assert total.uncore_dynamic == pytest.approx(3.0)

    def test_static_power_watts(self):
        """Leakage of 450 mW per active core plus 1.4 W of uncore."""
        cfg = sandybridge_8core()
        total = PowerModel(cfg, active_cores=2).total_energy(EnergyLedger(), 10**6)
        seconds = 10**6 * cfg.core.cycle_ns * 1e-9
        assert total.core_static + total.uncore_static == pytest.approx(
            (2 * 450 + 1400) / 1000 * seconds * 1e9)
