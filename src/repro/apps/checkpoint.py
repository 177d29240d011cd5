"""In-memory copy-on-write checkpointing (Sections V and VI-B).

The OS checkpoints application state at a fixed instruction interval: the
first store to a page within an interval copies the page (4 KB) to a
shadow region before the write proceeds.  Three page-copy engines are
compared:

* ``Base``     - scalar 8-byte copy loop;
* ``Base_32``  - 32-byte SIMD copy loop (the paper's SIMD baseline);
* ``CC_L3``    - one ``cc_copy`` instruction per page.  Checkpoint copies
  are page-to-page, hence *always* page-aligned: operand locality is
  perfect by construction, the copy runs in the L3 Compute Cache, avoids
  polluting L1/L2, and the destination fetch is skipped because the page
  is fully overwritten.

The application itself is synthesized from a
:class:`~repro.apps.splash.SplashProfile`: each interval costs
``100k x CPI`` cycles and dirties the profile's page count; the page copies
then *execute for real* on the machine, and the measured overhead is
``(cycles_with_checkpointing - cycles_without) / cycles_without`` -
Figure 10's y-axis.  Figure 11's total energy adds the application's own
dynamic energy (instructions x EPI) and leakage over the run time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.isa import cc_copy
from ..cpu.program import Program
from ..cpu.simd import scalar_copy, simd_copy
from ..energy.accounting import Component, EnergyLedger
from ..machine import ComputeCacheMachine
from ..params import PAGE_SIZE
from .common import fresh_machine
from .splash import CHECKPOINT_INTERVAL_INSTRS, SplashProfile

VARIANTS = ("none", "base", "base32", "cc")


@dataclass
class CheckpointRun:
    """Raw measurements of one (profile, variant) run."""

    profile: SplashProfile
    variant: str
    app_cycles: float
    copy_cycles: float
    app_instructions: int
    copy_instructions: int
    energy: EnergyLedger
    pages_copied: int

    @property
    def total_cycles(self) -> float:
        return self.app_cycles + self.copy_cycles

    @property
    def overhead(self) -> float:
        """Fractional slowdown vs the same run without checkpointing."""
        return self.copy_cycles / self.app_cycles


def _copy_page(m: ComputeCacheMachine, variant: str, src: int, dst: int) -> tuple[float, int]:
    """Copy one page with the chosen engine; returns (cycles, instructions)."""
    if variant == "base":
        res = m.run(scalar_copy(src, dst, PAGE_SIZE))
    elif variant == "base32":
        res = m.run(simd_copy(src, dst, PAGE_SIZE))
    elif variant == "cc":
        from ..cpu.program import Instr

        res = m.run(Program("cc-copy", [Instr.cc_op(cc_copy(src, dst, PAGE_SIZE))]))
    else:
        raise ValueError(f"unknown copy engine {variant!r}")
    return res.cycles, res.instructions


def run_checkpoint(prof: SplashProfile, variant: str,
                   machine: ComputeCacheMachine | None = None,
                   seed: int = 7) -> CheckpointRun:
    """Run ``prof.intervals`` checkpoint intervals with one engine.

    The synthetic application touches a working set of pages; per interval
    the profile's number of dirty pages is drawn (without replacement) and,
    for every variant except ``none``, copied to the shadow region before
    being dirtied by application stores.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    m = machine or fresh_machine()
    rng = np.random.default_rng(seed)
    working_pages = max(prof.dirty_pages_per_interval * 2, 8)
    work_base = m.arena.alloc_page_aligned(working_pages * PAGE_SIZE)
    shadow_base = m.arena.alloc_page_aligned(working_pages * PAGE_SIZE)
    for p in range(working_pages):
        m.load(work_base + p * PAGE_SIZE,
               rng.integers(0, 256, PAGE_SIZE, dtype=np.uint8).tobytes())

    snap = m.snapshot_energy()
    app_cycles = 0.0
    copy_cycles = 0.0
    app_instructions = 0
    copy_instructions = 0
    pages_copied = 0

    for _ in range(prof.intervals):
        # The application interval itself (modeled: CPI x instructions; its
        # stores are what dirty the pages below).
        app_cycles += prof.interval_cycles
        app_instructions += CHECKPOINT_INTERVAL_INSTRS
        m.ledger.add(Component.CORE,
                     CHECKPOINT_INTERVAL_INSTRS * m.config.core.epi_scalar)

        dirty = rng.choice(working_pages, size=prof.dirty_pages_per_interval,
                           replace=False)
        for p in sorted(int(x) for x in dirty):
            src = work_base + p * PAGE_SIZE
            dst = shadow_base + p * PAGE_SIZE
            # The page was just written by the app: it is cache-resident.
            m.touch_range(src, PAGE_SIZE, for_write=True)
            if variant == "none":
                continue
            cycles, instrs = _copy_page(m, variant, src, dst)
            copy_cycles += cycles
            copy_instructions += instrs
            pages_copied += 1
            assert m.peek(dst, PAGE_SIZE) == m.peek(src, PAGE_SIZE)

    return CheckpointRun(
        profile=prof, variant=variant, app_cycles=app_cycles,
        copy_cycles=copy_cycles, app_instructions=app_instructions,
        copy_instructions=copy_instructions, energy=m.energy_since(snap),
        pages_copied=pages_copied,
    )
