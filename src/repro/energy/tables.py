"""Published energy constants from the paper (Tables I and V).

All values are picojoules per 64-byte cache block.  ``L3`` refers to one
2 MB NUCA slice.

Table I (energy per read access, split into the H-tree interconnect inside
the cache and the data-array access itself)::

    cache     cache-ic (h-tree)   cache-access
    L1-D      179 pJ              116 pJ
    L2        675 pJ              127 pJ
    L3-slice  1985 pJ             467 pJ

Table V (energy per cache-block operation)::

    cache  write  read  cmp   copy  search  not   logic
    L3     2852   2452  840   1340  3692    1340  1672
    L2     1154   802   242   608   1396    608   704
    L1     375    295   186   324   561     324   387

The CC-operation energies avoid the H-tree transfer entirely (the dominant
read-energy term for large caches), which is where most of the in-place
advantage comes from.  ``search`` includes one key-replication write
(3692 = 840 cmp + 2852 write for L3), amortized over large searches.
"""

from __future__ import annotations

from ..errors import ConfigError, ISAError

L1 = "L1-D"
L2 = "L2"
L3 = "L3-slice"

LEVELS = (L1, L2, L3)

CACHE_IC_ENERGY_PJ: dict[str, float] = {L1: 179.0, L2: 675.0, L3: 1985.0}
"""Table I: H-tree interconnect energy per read access."""

CACHE_ACCESS_ENERGY_PJ: dict[str, float] = {L1: 116.0, L2: 127.0, L3: 467.0}
"""Table I: data-array access energy per read access."""

CC_OP_ENERGY_PJ: dict[str, dict[str, float]] = {
    L3: {
        "write": 2852.0,
        "read": 2452.0,
        "cmp": 840.0,
        "copy": 1340.0,
        "search": 3692.0,
        "not": 1340.0,
        "logic": 1672.0,
    },
    L2: {
        "write": 1154.0,
        "read": 802.0,
        "cmp": 242.0,
        "copy": 608.0,
        "search": 1396.0,
        "not": 608.0,
        "logic": 704.0,
    },
    L1: {
        "write": 375.0,
        "read": 295.0,
        "cmp": 186.0,
        "copy": 324.0,
        "search": 561.0,
        "not": 324.0,
        "logic": 387.0,
    },
}
"""Table V: per-64-byte-block energy of cache and CC operations."""

_OP_COLUMN = {
    "read": "read",
    "write": "write",
    "cmp": "cmp",
    "search": "search",
    "copy": "copy",
    "buz": "copy",
    "not": "not",
    "and": "logic",
    "or": "logic",
    "xor": "logic",
    "clmul": "cmp",
    "add": "logic",
    "mul": "logic",
    "reduce": "logic",
}
"""Maps sub-array op names onto Table V columns.  ``buz`` shares the copy
column (same write-only data path); ``clmul`` shares the cmp column (same
1.5x energy class per Section VI-C).  The bit-serial arithmetic ops
(``add``/``mul``/``reduce``) charge the logic column *per bit-serial step*
— use :func:`cc_arith_energy`, which scales by the step count, rather than
:func:`cc_op_energy` directly."""


def _level_table(level: str) -> dict[str, float]:
    try:
        return CC_OP_ENERGY_PJ[level]
    except KeyError:
        raise ConfigError(f"no energy table for cache level {level!r}") from None


def read_energy(level: str) -> float:
    """Energy of one conventional 64-byte read at ``level`` (pJ)."""
    return _level_table(level)["read"]


def write_energy(level: str) -> float:
    """Energy of one conventional 64-byte write at ``level`` (pJ)."""
    return _level_table(level)["write"]


def cc_op_energy(level: str, op: str) -> float:
    """Energy of one CC block operation ``op`` at ``level`` (pJ)."""
    table = _level_table(level)
    try:
        return table[_OP_COLUMN[op]]
    except KeyError:
        raise ISAError(f"unknown CC operation {op!r}") from None


def cc_arith_energy(level: str, op: str, elem_bits: int,
                    n_elems: int | None = None) -> float:
    """Energy of one bit-serial arithmetic block operation (pJ).

    Each bit-serial step is a dual-row activation of the same circuit
    class as the logical ops, so the per-op energy is the Table V logic
    energy scaled by the step count (:func:`repro.sram.timing.arith_steps`).
    ``n_elems`` (elements per block) is required for ``reduce``.
    """
    from ..sram.timing import arith_steps

    return arith_steps(op, elem_bits, n_elems) * cc_op_energy(level, op)


def transpose_energy(level: str) -> float:
    """Energy of converting one block between row-major and bit-serial
    layout (pJ).

    The transpose unit sits at the sub-array periphery (Neural Cache
    Section 5): one data-array read plus one data-array write, with no
    H-tree traversal — the Table V read/write energies minus their
    Table I interconnect shares.
    """
    ic = CACHE_IC_ENERGY_PJ[level]
    table = _level_table(level)
    return max(table["read"] - ic, 0.0) + max(table["write"] - ic, 0.0)
