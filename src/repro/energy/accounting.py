"""Component-wise dynamic-energy accounting.

The paper's energy figures break dynamic energy into four components:
``core`` (instruction processing), ``cache-access`` (data arrays),
``cache-ic`` (in-cache H-tree interconnect), and ``noc`` (ring).  The
per-level split (``l1-access``, ``l2-ic``, ...) is additionally needed for
Figure 8(b).  :class:`EnergyLedger` accumulates pJ per component and offers
the groupings used by each figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class Component:
    """Canonical component names used across the library."""

    CORE = "core"
    L1_ACCESS = "l1-access"
    L1_IC = "l1-ic"
    L2_ACCESS = "l2-access"
    L2_IC = "l2-ic"
    L3_ACCESS = "l3-access"
    L3_IC = "l3-ic"
    NOC = "noc"
    MEMORY = "memory"

    ACCESS = (L1_ACCESS, L2_ACCESS, L3_ACCESS)
    IC = (L1_IC, L2_IC, L3_IC)
    ALL = (CORE, L1_ACCESS, L1_IC, L2_ACCESS, L2_IC, L3_ACCESS, L3_IC, NOC, MEMORY)

    _BY_LEVEL = {
        "L1-D": (L1_ACCESS, L1_IC),
        "L2": (L2_ACCESS, L2_IC),
        "L3-slice": (L3_ACCESS, L3_IC),
    }
    LEVELS = tuple(_BY_LEVEL)
    """The cache levels' names, L1 first: each level of a machine is named
    by its position in the hierarchy."""

    @classmethod
    def for_level(cls, level_name: str) -> tuple[str, str]:
        """``(access, ic)`` component names for a cache level."""
        return cls._BY_LEVEL[level_name]


@dataclass
class EnergyLedger:
    """Accumulates dynamic energy (pJ) per component."""

    pj: dict[str, float] = field(default_factory=dict)

    def add(self, component: str, picojoules: float) -> None:
        """Charge ``picojoules`` to ``component``."""
        self.pj[component] = self.pj.get(component, 0.0) + picojoules

    def get(self, component: str) -> float:
        return self.pj.get(component, 0.0)

    def total(self) -> float:
        """Total dynamic energy in pJ."""
        return sum(self.pj.values())

    def total_nj(self) -> float:
        return self.total() / 1000.0

    # -- groupings used by the paper's figures -------------------------------

    def core(self) -> float:
        return self.get(Component.CORE)

    def cache_access(self) -> float:
        """Figure 7(b) ``cache-access`` bar segment."""
        return sum(self.get(c) for c in Component.ACCESS)

    def cache_ic(self) -> float:
        """Figure 7(b) ``cache-ic`` bar segment."""
        return sum(self.get(c) for c in Component.IC)

    def noc(self) -> float:
        return self.get(Component.NOC)

    def data_movement(self) -> float:
        """Everything except the core component (Section VI-D definition)."""
        return self.total() - self.core()

    def breakdown(self) -> dict[str, float]:
        """Figure 7(b)-style four-way breakdown, in pJ."""
        return {
            "core": self.core(),
            "cache-access": self.cache_access(),
            "cache-ic": self.cache_ic(),
            "noc": self.noc(),
        }

    # -- arithmetic -----------------------------------------------------------

    def copy(self) -> "EnergyLedger":
        return EnergyLedger(dict(self.pj))

    def diff(self, other: "EnergyLedger") -> dict[str, float]:
        """Per-component savings of ``self`` relative to ``other``
        (positive values mean ``other`` spends more)."""
        keys = set(self.pj) | set(other.pj)
        return {k: other.get(k) - self.get(k) for k in sorted(keys)}

