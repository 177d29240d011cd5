"""Cache-block metadata: MESI states."""

from __future__ import annotations

import enum


class MESIState(enum.Enum):
    """Block states of the directory-based MESI protocol (Table IV)."""

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"

    @property
    def writable(self) -> bool:
        return self in (MESIState.MODIFIED, MESIState.EXCLUSIVE)

    @property
    def dirty(self) -> bool:
        return self is MESIState.MODIFIED

