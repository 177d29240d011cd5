"""Synthetic SPLASH-2 workload profiles for the checkpointing study.

The paper checkpoints six SPLASH-2 benchmarks at a 100,000-instruction
interval (Section VI-B).  Checkpoint overhead is governed by one quantity
per benchmark: how many distinct pages its stores dirty per interval (each
first write to a page in an interval triggers a copy-on-write page copy).

We cannot ship SPLASH-2, so each benchmark is replaced by a profile - a
seeded synthetic instruction mix with the benchmark's approximate CPI and
dirty-page rate.  The rates below were chosen so the *baseline* overhead
landscape matches Figure 10's shape: ``radix`` (a permutation over a large
key array) dirties by far the most pages and tops the chart near the
paper's 68% worst case, ``fmm``/``raytrace`` write sparsely, and the rest
sit in between.  What the experiment then measures - the Base/Base_32/CC
overhead *ratios* - comes entirely from the machine model, not from these
constants.
"""

from __future__ import annotations

from dataclasses import dataclass

CHECKPOINT_INTERVAL_INSTRS = 100_000
"""The paper's checkpointing interval (application instructions)."""


@dataclass(frozen=True)
class SplashProfile:
    """One benchmark's checkpoint-relevant behaviour."""

    name: str
    dirty_pages_per_interval: int
    cpi: float
    store_fraction: float
    intervals: int = 4

    @property
    def interval_cycles(self) -> float:
        return CHECKPOINT_INTERVAL_INSTRS * self.cpi


PROFILES: dict[str, SplashProfile] = {
    "fmm": SplashProfile("fmm", dirty_pages_per_interval=5, cpi=1.15,
                         store_fraction=0.09),
    "radix": SplashProfile("radix", dirty_pages_per_interval=20, cpi=1.05,
                           store_fraction=0.17),
    "cholesky": SplashProfile("cholesky", dirty_pages_per_interval=19, cpi=1.25,
                              store_fraction=0.12),
    "barnes": SplashProfile("barnes", dirty_pages_per_interval=14, cpi=1.20,
                            store_fraction=0.11),
    "raytrace": SplashProfile("raytrace", dirty_pages_per_interval=8, cpi=1.30,
                              store_fraction=0.08),
    "radiosity": SplashProfile("radiosity", dirty_pages_per_interval=16, cpi=1.22,
                               store_fraction=0.10),
}

BENCHMARKS = tuple(PROFILES)
