"""Page-span exception handling (Section IV-D).

"If the address range of any operand of a CC instruction spans multiple
pages, it raises a pipeline exception.  The exception handler splits the
instruction into multiple CC operations such that each of its operands are
within a page."

:func:`split_by_pages` is that handler: it cuts the instruction at every
vector operand's page-crossing offsets so each fragment's operands each
stay inside one page.  The search key is a single block-aligned 64-byte
block, so it never crosses a page and never forces a cut.
"""

from __future__ import annotations

from ..params import PAGE_SIZE
from .isa import CCInstruction


def _crossing_offsets(addr: int, size: int) -> set[int]:
    """Byte offsets (relative to the operand start) where pages change."""
    offsets = set()
    first_boundary = (addr // PAGE_SIZE + 1) * PAGE_SIZE
    boundary = first_boundary
    while boundary < addr + size:
        offsets.add(boundary - addr)
        boundary += PAGE_SIZE
    return offsets


def split_by_pages(instr: CCInstruction) -> list[CCInstruction]:
    """Split a CC instruction so no vector operand crosses a page boundary."""
    if not instr.spans_page_boundary():
        return [instr]
    cuts: set[int] = set()
    for _, base, length in instr.vector_ranges():
        cuts |= _crossing_offsets(base, length)
    pieces: list[CCInstruction] = []
    remaining = instr
    consumed = 0
    for cut in sorted(cuts):
        head, remaining = remaining.split_at(cut - consumed)
        pieces.append(head)
        consumed = cut
    pieces.append(remaining)
    return pieces
