"""Coherence directory for one L3 NUCA slice (Table IV: directory MESI).

Each L3 slice is the home node for the blocks that map to it and tracks,
per block, which cores' private hierarchies hold a copy (``sharers``) and
which single core, if any, holds it exclusively/modified (``owner``).

Invariant: ``owner is not None`` implies ``sharers == {owner}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CoherenceError


@dataclass
class DirectoryEntry:
    sharers: set[int] = field(default_factory=set)
    owner: int | None = None

    def check(self) -> None:
        if self.owner is not None and self.sharers != {self.owner}:
            raise CoherenceError(
                f"directory invariant broken: owner={self.owner} sharers={self.sharers}"
            )


class Directory:
    """Sharer/owner tracking for the blocks homed at one slice."""

    def __init__(self, slice_id: int = 0, tracer=None) -> None:
        self._entries: dict[int, DirectoryEntry] = {}
        self.slice_id = slice_id
        self.tracer = tracer
        self.redundant_revokes = 0
        """Revocations of a copy the core no longer held.  Duplicated
        forwarded requests (:mod:`repro.faults` directory faults) land
        here; the protocol treats them as idempotent no-ops."""

    def entry(self, block_addr: int) -> DirectoryEntry:
        return self._entries.setdefault(block_addr, DirectoryEntry())

    def peek(self, block_addr: int) -> DirectoryEntry | None:
        return self._entries.get(block_addr)

    def set_owner(self, block_addr: int, core: int) -> None:
        e = self.entry(block_addr)
        e.sharers = {core}
        e.owner = core
        if self.tracer is not None:
            self.tracer.emit("dir.grant", core=core, unit=self.slice_id,
                             addr=block_addr, outcome="owner")

    def clear_owner(self, block_addr: int) -> None:
        e = self.entry(block_addr)
        e.owner = None

    def remove_sharer(self, block_addr: int, core: int) -> bool:
        """Revoke ``core``'s copy; returns False for an idempotent no-op
        (the core held no copy — e.g. a duplicated forwarded request)."""
        e = self._entries.get(block_addr)
        if e is None or core not in e.sharers:
            self.redundant_revokes += 1
            if self.tracer is not None:
                self.tracer.emit("dir.revoke", core=core, unit=self.slice_id,
                                 addr=block_addr, reason="redundant")
            return False
        e.sharers.discard(core)
        if e.owner == core:
            e.owner = None
        if self.tracer is not None:
            self.tracer.emit("dir.revoke", core=core, unit=self.slice_id,
                             addr=block_addr)
        if not e.sharers:
            del self._entries[block_addr]
        return True

    def drop(self, block_addr: int) -> None:
        if self._entries.pop(block_addr, None) is not None \
                and self.tracer is not None:
            self.tracer.emit("dir.drop", unit=self.slice_id, addr=block_addr)

    def check_all(self) -> None:
        for entry in self._entries.values():
            entry.check()
