"""H-tree in-cache interconnect model.

Within a cache, data moves between the sub-arrays and the cache controller
over an H-tree.  For large caches this wire transfer dominates read energy
(Table I: ~80% of a 2 MB L3-slice read).  In-place CC operations skip the
H-tree entirely; near-place operations and all conventional accesses pay it.

The address/command bus of the H-tree is *not* replicated (Section IV-D),
which serializes CC block-command delivery - the model exposes this as a
per-cycle command issue budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class HTree:
    """Energy/latency bookkeeping for one cache level's internal interconnect."""

    level_name: str
    commands_per_cycle: int = 1
    data_transfers: int = 0
    commands_issued: int = 0
    """Stays 0: CC block commands are timed by :meth:`command_issue_cycles`
    rather than counted one by one."""
    tracer: object = field(default=None, repr=False, compare=False)
    unit: int = field(default=0, repr=False, compare=False)

    def record_transfer(self) -> None:
        """Account one block transfer (its energy is charged with the
        access, see :mod:`repro.energy.mcpat`)."""
        self.data_transfers += 1
        if self.tracer is not None:
            self.tracer.emit("htree.transfer", level=self.level_name,
                             unit=self.unit)

    def command_issue_cycles(self, n_commands: int) -> int:
        """Cycles to stream ``n_commands`` block-ops down the shared bus."""
        return (n_commands + self.commands_per_cycle - 1) // self.commands_per_cycle
