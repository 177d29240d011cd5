"""Deterministic fault injection and resilience campaigns.

The paper's architecture is full of degradation paths — SECDED-corrected
bit-line upsets (Section IV-I), controller RISC fallback after
``pin_retry_limit`` failed pinning attempts (Section IV-E), coherence-
forwarded lock releases (Section IV-F) — and this subsystem stresses all
of them, end to end:

* :class:`FaultPlan` / :class:`FaultSpec` — the seed-driven, JSON-round-
  trippable schedule of faults (see :mod:`repro.config_io` for file I/O);
* :class:`FaultInjector` — installs the simulator's fault hooks and
  drives SRAM particle strikes plus the ECC recovery scrub;
* :func:`recoveries` — a traced run's recovery actions by outcome;
* :class:`RunnerChaos` — injected sweep-runner worker timeouts/crashes;
* :func:`run_campaign` — golden-vs-faulty differential audit producing a
  :class:`ResilienceReport` (``repro faults`` on the command line).

Every injection emits a ``fault.inject`` event and every recovery a
``fault.recover`` event through :mod:`repro.events`; those events are the
one record of recoveries, so fault injection needs a machine built with
``trace_events=True``.
"""

from .campaign import ResilienceReport, run_campaign, run_workload
from .chaos import ChaosPool, RunnerChaos
from .injector import FaultInjector, recoveries
from .plan import FAULT_KINDS, FaultPlan, FaultSpec, default_plan

__all__ = [
    "FAULT_KINDS",
    "ChaosPool",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "ResilienceReport",
    "RunnerChaos",
    "default_plan",
    "recoveries",
    "run_campaign",
    "run_workload",
]
