"""Cache scrubbing service: wiring the ECC scrubber to live cache levels.

Section IV-I's preferred ECC policy for in-place logical operations is
idle-cycle scrubbing.  :class:`ScrubService` attaches to a
:class:`~repro.cache.cache.CacheLevel`:

* :meth:`protect_resident` (re)computes the ECC side-band for every
  resident block (what a hardware fill path would do incrementally);
* :meth:`scrub_pass` sweeps the level during idle cycles, re-checking
  every protected resident block and writing back corrections;
* :meth:`inject_strike` flips a bit in a resident block *in the physical
  sub-array* - a particle-strike fault injection the next scrub pass must
  catch and repair.

Scrub cost is accounted as conventional reads (and writes for
corrections), so a long-running simulation can price the policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cache.cache import CacheLevel
from .ecc import CacheScrubber, EccCodec, EccPolicy


@dataclass
class ScrubReport:
    """Result of one scrub pass."""

    blocks_checked: int = 0
    corrections: int = 0
    corrected_addrs: list[int] = field(default_factory=list)


class ScrubService:
    """Idle-cycle ECC scrubbing for one cache level."""

    def __init__(self, level: CacheLevel) -> None:
        self.level = level
        self.codec = EccCodec(EccPolicy.SCRUB)
        self.scrubber = CacheScrubber(self.codec)
        self.strikes_injected = 0

    def protect_resident(self) -> int:
        """Compute/refresh the ECC side-band for all resident blocks."""
        count = 0
        for addr in self.level.resident_addresses():
            self.scrubber.protect(addr, self.level.peek_block(addr))
            count += 1
        return count

    def protect_block(self, addr: int) -> None:
        """Refresh one block's side-band (a write/fill hook)."""
        self.scrubber.protect(addr, self.level.peek_block(addr))

    def inject_strike(self, addr: int, bit: int) -> None:
        """Flip one bit of a resident block in the physical sub-array."""
        data = bytearray(self.level.peek_block(addr))
        data[bit // 8] ^= 1 << (bit % 8)
        sub, row = self.level.locate(addr)
        sub.write_block(row, bytes(data))
        self.strikes_injected += 1

    def scrub_pass(self) -> ScrubReport:
        """Sweep every protected resident block; correct what flipped.

        Reads charge conventional access energy (the sweep is real cache
        traffic, just scheduled into idle cycles); corrections write back.
        """
        report = ScrubReport()
        for addr in self.level.resident_addresses():
            try:
                ecc = self.scrubber.ecc_of(addr)
            except Exception:
                continue  # block filled since the last protect pass
            data = self.level.read_block(addr)
            report.blocks_checked += 1
            corrected = self.codec.check_block(data, ecc)
            if corrected != data:
                self.level.write_block(addr, corrected, dirty=True)
                report.corrections += 1
                report.corrected_addrs.append(addr)
        return report
