"""Page-aware memory allocation for operand locality (Section IV-C).

Operand locality requires the low ``min_locality_bits`` (at most 12, one
page) address bits of co-operands to match.  The paper's rule for software:
*place operands page-aligned (same page offset)*.  :class:`Arena` is the
dynamic-memory-allocator extension the paper anticipates - it hands out:

* ordinary allocations (``alloc``),
* page-aligned allocations (``alloc_page_aligned``), and
* *co-located groups* (``alloc_colocated``): N buffers that share a page
  offset, each in its own page range, so every corresponding block pair
  lands in the same block partition at every cache level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import AddressError
from .params import BLOCK_SIZE, PAGE_SIZE


@dataclass
class Arena:
    """Bump allocator over the machine's physical memory."""

    size: int
    base: int = 0
    _cursor: int = field(init=False)

    def __post_init__(self) -> None:
        if self.base % BLOCK_SIZE:
            raise AddressError("arena base must be block-aligned")
        self._cursor = self.base

    def _bump(self, to: int) -> None:
        if to > self.base + self.size:
            raise AddressError(
                f"arena exhausted: need {to - self.base} of {self.size} bytes"
            )
        self._cursor = to

    def alloc(self, nbytes: int, align: int = BLOCK_SIZE) -> int:
        """Allocate ``nbytes`` at the given alignment."""
        if nbytes <= 0:
            raise AddressError("allocation size must be positive")
        if align & (align - 1):
            raise AddressError(f"alignment {align} is not a power of two")
        addr = (self._cursor + align - 1) & ~(align - 1)
        self._bump(addr + nbytes)
        return addr

    def alloc_page_aligned(self, nbytes: int) -> int:
        """Allocate at a page boundary - offset 0, the simplest way to
        satisfy operand locality for all cache levels at once."""
        return self.alloc(nbytes, align=PAGE_SIZE)

    def alloc_colocated(self, nbytes: int, count: int) -> list[int]:
        """Allocate ``count`` buffers sharing a page offset.

        Each buffer starts a whole number of pages after the first, so
        every pair of corresponding cache blocks has equal low-12 address
        bits - operand locality holds at L1, L2, and L3 (Table III).
        """
        if count <= 0:
            raise AddressError("co-located group needs at least one buffer")
        pages_each = (nbytes + PAGE_SIZE - 1) // PAGE_SIZE
        first = self.alloc_page_aligned(pages_each * PAGE_SIZE)
        addrs = [first]
        for _ in range(count - 1):
            addrs.append(self.alloc_page_aligned(pages_each * PAGE_SIZE))
        return addrs

    def alloc_superpage(self, superpage_bytes: int = 2 * 1024 * 1024) -> "SuperpageArena":
        """Reserve a superpage and return an allocator for it.

        Section IV-C: "For super-pages that are larger than 4KB, operands
        can be placed within a page while ensuring 12-bit address
        alignment."  The returned sub-arena's ``alloc_colocated`` places
        co-operands at 4 KB strides *inside* the superpage.
        """
        if superpage_bytes % PAGE_SIZE:
            raise AddressError("superpage size must be a multiple of 4 KB")
        base = self.alloc(superpage_bytes, align=PAGE_SIZE)
        return SuperpageArena(size=superpage_bytes, base=base)


class SuperpageArena(Arena):
    """Allocator inside one superpage: co-located groups stay within it.

    Identical address-alignment guarantees as :class:`Arena` (every
    co-operand pair matches in its low 12 bits) without needing separate
    OS pages - the layout superpage-backed software uses.
    """

    def alloc_colocated(self, nbytes: int, count: int) -> list[int]:
        addrs = super().alloc_colocated(nbytes, count)
        if addrs[-1] + nbytes > self.base + self.size:
            raise AddressError(
                f"co-located group of {count} x {nbytes} B does not fit the "
                f"{self.size}-byte superpage"
            )
        return addrs
