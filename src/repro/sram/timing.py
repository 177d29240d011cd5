"""Delay and energy annotations for compute sub-arrays (Section VI-C).

The paper's SPICE results on a 28 nm process give, relative to a single
sub-array access:

* delay: ``and``/``or``/``xor`` in-place operations take 3x a normal
  access; all other CC operations take 2x;
* energy: ``cmp``/``search``/``clmul`` cost 1.5x, ``copy``/``buz``/``not``
  cost 2x, and the remaining (``and``/``or``/``xor``) cost 2.5x a baseline
  sub-array access;
* area: +8% for a 512x512 sub-array (second decoder, single-ended sense
  reconfiguration, XOR-reduction tree).

The multiplier tables are the paper's relative circuit data, which the
generated ISA reference (``docs/isa.md``) and the Section VI-C benchmark
read.  What a simulated in-place op costs comes from elsewhere: its
absolute per-block energy is Table V (:mod:`repro.energy.tables`), its
latency the controller's in-place latency, and :func:`arith_steps` scales
both for the bit-serial arithmetic tier.
"""

from __future__ import annotations

from ..errors import ISAError

DELAY_MULTIPLIER = {
    "and": 3.0,
    "or": 3.0,
    "xor": 3.0,
    "not": 2.0,
    "copy": 2.0,
    "buz": 2.0,
    "cmp": 2.0,
    "search": 2.0,
    "clmul": 2.0,
    "read": 1.0,
    "write": 1.0,
    # Bit-serial arithmetic (Neural Cache): the multipliers are *per step*
    # (one bit-plane operation = a dual-row activation plus a write-back,
    # the same circuit class as the logical ops); the per-op cost is the
    # multiplier scaled by arith_steps().
    "add": 3.0,
    "mul": 3.0,
    "reduce": 3.0,
}

ENERGY_MULTIPLIER = {
    "cmp": 1.5,
    "search": 1.5,
    "clmul": 1.5,
    "copy": 2.0,
    "buz": 2.0,
    "not": 2.0,
    "and": 2.5,
    "or": 2.5,
    "xor": 2.5,
    "read": 1.0,
    "write": 1.0,
    # Per bit-serial step (see DELAY_MULTIPLIER).
    "add": 2.5,
    "mul": 2.5,
    "reduce": 2.5,
}

def arith_steps(op: str, elem_bits: int, n_elems: int | None = None) -> int:
    """Bit-serial step count of one arithmetic block operation.

    Follows the Neural Cache circuit model (arXiv 1805.03718, Section 4)
    over transposed ``elem_bits``-wide operands:

    * ``add``    — one full-adder pass per bit plane plus carry
      initialization: ``w + 1`` steps;
    * ``mul``    — shift-and-add over ``w`` predicated partial products:
      ``w^2 + 5w - 2`` steps;
    * ``reduce`` — a log-depth adder tree over ``n_elems`` elements whose
      operand width grows one bit per tree level:
      ``sum over levels L of (w + L + 1)`` steps.

    ``n_elems`` is required for ``reduce`` (elements per block row).
    """
    w = elem_bits
    if op == "add":
        return w + 1
    if op == "mul":
        return w * w + 5 * w - 2
    if op == "reduce":
        if not n_elems or n_elems < 1:
            raise ISAError("reduce step count needs the element count")
        levels = max(1, (n_elems - 1).bit_length())
        return sum(w + lvl + 1 for lvl in range(1, levels + 1))
    raise ISAError(f"unknown arithmetic sub-array operation {op!r}")

