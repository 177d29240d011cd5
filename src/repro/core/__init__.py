"""The Compute Cache architecture - the paper's primary contribution.

This package implements everything Section IV describes on top of the
:mod:`repro.cache` and :mod:`repro.sram` substrates:

* the CC ISA (Table II) with its operand-size and alignment rules;
* the CC controller, whose instruction, operation and key tables (Section
  IV-D) are fields of the page-local piece in flight (their capacities are
  not modelled: one piece of at most 64 block ops is in flight per
  controller), level selection and operand fetching (IV-E), pinning with
  coherence-driven release and RISC fallback (IV-E/IV-F);
* in-place execution in sub-arrays and the near-place logic unit (IV-J);
* page-span exception splitting (IV-D);
* RMO fence semantics (IV-G);
* ECC (IV-I): a real SECDED Hamming(72, 64) code whose linearity enables
  the XOR-check scheme for logical ops (:mod:`~repro.core.ecc`), and the
  idle-cycle scrub sweep the paper prefers (:mod:`~repro.core.scrub`).
  The copy, zero and compare schemes are not modelled.
"""

from .controller import CCResult, ComputeCacheController
from .isa import CCInstruction, Opcode

__all__ = [
    "CCResult",
    "ComputeCacheController",
    "CCInstruction",
    "Opcode",
]
