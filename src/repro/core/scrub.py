"""Idle-cycle ECC scrubbing of one cache level (Section IV-I).

Section IV-I's preferred ECC policy for in-place logical operations is
idle-cycle scrubbing.  :class:`ScrubService` attaches to a
:class:`~repro.cache.cache.CacheLevel` and keeps the level's ECC
side-band, one SECDED check byte per word (:mod:`repro.core.ecc`):

* :meth:`protect_resident` (re)computes the side-band for every resident
  block (what a hardware fill path would do incrementally);
* :meth:`scrub_pass` sweeps the level during idle cycles, checking every
  protected resident block, writing back single-bit corrections and
  listing the blocks with an uncorrectable (double-bit) error;
* :meth:`inject_strike` flips a bit in a resident block *in the physical
  sub-array* - a particle-strike fault injection the next scrub pass must
  catch.

Scrub cost is accounted as conventional reads (and writes for
corrections), so a long-running simulation can price the policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cache.cache import CacheLevel
from ..errors import ECCError
from .ecc import check_block, encode_block


@dataclass
class ScrubReport:
    """Result of one scrub pass."""

    blocks_checked: int = 0
    corrections: int = 0
    corrected_addrs: list[int] = field(default_factory=list)
    uncorrectable: list[int] = field(default_factory=list)


class ScrubService:
    """Idle-cycle ECC scrubbing for one cache level."""

    def __init__(self, level: CacheLevel) -> None:
        self.level = level
        self._ecc: dict[int, bytes] = {}

    def protect_resident(self) -> int:
        """Compute/refresh the ECC side-band for all resident blocks."""
        count = 0
        for addr in self.level.resident_addresses():
            self._ecc[addr] = encode_block(self.level.peek_block(addr))
            count += 1
        return count

    def inject_strike(self, addr: int, bit: int) -> None:
        """Flip one bit of a resident block in the physical sub-array."""
        data = bytearray(self.level.peek_block(addr))
        data[bit // 8] ^= 1 << (bit % 8)
        sub, row = self.level.locate(addr)
        sub.write_block(row, bytes(data))

    def scrub_pass(self) -> ScrubReport:
        """Sweep every protected resident block; correct what flipped.

        Reads charge conventional access energy (the sweep is real cache
        traffic, just scheduled into idle cycles); corrections write back.
        A block with an uncorrectable error is left as it is and listed in
        :attr:`ScrubReport.uncorrectable`; the sweep goes on to the next.
        """
        report = ScrubReport()
        for addr in self.level.resident_addresses():
            ecc = self._ecc.get(addr)
            if ecc is None:
                continue  # block filled since the last protect pass
            data = self.level.read_block(addr)
            report.blocks_checked += 1
            try:
                corrected = check_block(data, ecc)
            except ECCError:
                report.uncorrectable.append(addr)
                continue
            if corrected != data:
                self.level.write_block(addr, corrected, dirty=True)
                report.corrections += 1
                report.corrected_addrs.append(addr)
        return report
