"""Fault campaigns: golden-vs-faulty runs and the resilience report.

A campaign executes a fixed, deterministic CC workload twice on a
test-sized machine — once fault-free (the *golden* run) and once under a
:class:`~repro.faults.plan.FaultPlan` — then audits every architectural
output: final memory images of every operand region (via the coherent
``peek`` path) and every instruction's result value.  Any divergence is
a **silent corruption**; the acceptance bar for the modeled recovery
machinery (SECDED scrub, pin-retry → RISC fallback, idempotent
directory forwarding, runner serial fallback) is that the count is zero.

The workload, the fault schedule, and therefore the whole
:class:`ResilienceReport` are deterministic functions of the plan — the
same campaign is bit-identical across the ``packed`` and ``bitexact``
backends and across reruns (``repro faults --backend both`` verifies
this by comparing report digests).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from ..core.isa import (
    cc_and,
    cc_cmp,
    cc_copy,
    cc_not,
    cc_or,
    cc_search,
    cc_xor,
)
from ..machine import ComputeCacheMachine
from ..params import small_test_machine
from .chaos import RunnerChaos
from .injector import FaultInjector, recoveries
from .plan import FaultPlan, default_plan

_REGION = 4096


@dataclass
class ResilienceReport:
    """What happened to every injected fault."""

    seed: int
    backend: str
    injected: dict[str, int] = field(default_factory=dict)
    corrected: int = 0
    refetched: int = 0
    retried: int = 0
    degraded_risc: int = 0
    absorbed: int = 0
    surfaced: int = 0
    degraded_serial: int = 0
    runner_timeouts: int = 0
    runner_retries: int = 0
    silent: int = 0
    image_digest: str = ""

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    @property
    def detected(self) -> int:
        """ECC-detected upsets (corrected, refetched, or surfaced)."""
        return self.corrected + self.refetched + self.surfaced

    def to_dict(self) -> dict:
        return {
            "schema": "repro.resilience-report/1",
            "seed": self.seed,
            "backend": self.backend,
            "injected": {k: self.injected[k] for k in sorted(self.injected)},
            "total_injected": self.total_injected,
            "detected": self.detected,
            "corrected": self.corrected,
            "refetched": self.refetched,
            "retried": self.retried,
            "degraded_risc": self.degraded_risc,
            "absorbed": self.absorbed,
            "surfaced": self.surfaced,
            "degraded_serial": self.degraded_serial,
            "runner_timeouts": self.runner_timeouts,
            "runner_retries": self.runner_retries,
            "silent": self.silent,
            "image_digest": self.image_digest,
        }

    def format(self) -> str:
        lines = [
            f"resilience report (seed={self.seed}, backend={self.backend})",
            "  injected:",
        ]
        for kind in sorted(self.injected):
            lines.append(f"    {kind:<26} {self.injected[kind]}")
        lines += [
            f"  total injected            {self.total_injected}",
            f"  ECC detected              {self.detected}",
            f"    corrected (SECDED)      {self.corrected}",
            f"    refetched (invalidate)  {self.refetched}",
            f"    surfaced (uncorrectable){self.surfaced:>2}",
            f"  retried (pin/fetch)       {self.retried}",
            f"  degraded to RISC          {self.degraded_risc}",
            f"  absorbed (directory)      {self.absorbed}",
            f"  degraded to serial        {self.degraded_serial}"
            f" (timeouts={self.runner_timeouts}, retries={self.runner_retries})",
            f"  silent corruptions        {self.silent}",
            f"  image digest              {self.image_digest[:16]}…",
        ]
        return "\n".join(lines)


@dataclass
class WorkloadRun:
    """Architectural outputs of one workload execution."""

    machine: ComputeCacheMachine
    injector: FaultInjector | None
    images: dict[str, bytes]
    op_results: list[tuple[str, object, str]]


def _workload_ops(a: int, b: int, c: int):
    """The campaign's CC instruction mix (labels are stable identifiers)."""
    return [
        ("and", cc_and(a, b, c, _REGION)),
        ("xor", cc_xor(a, b, c, _REGION)),
        ("cmp", cc_cmp(a, b, 512)),
        ("or", cc_or(a, b, c, _REGION)),
        ("not", cc_not(a, c, _REGION)),
        ("search", cc_search(a, b, 512)),
        ("copy", cc_copy(b, c, _REGION)),
    ]


def run_workload(plan: FaultPlan, backend: str | None = None,
                 inject: bool = True) -> WorkloadRun:
    """Execute the campaign workload, with or without fault injection.

    The instruction stream, data, and cross-core sharing pattern are
    identical either way; only the injector differs — so the golden and
    faulty runs are directly comparable.
    """
    m = ComputeCacheMachine(small_test_machine(), backend=backend,
                            trace_events=True)
    injector = None
    if inject:
        injector = FaultInjector(m, plan)
        injector.install()
    rng = random.Random(f"{plan.seed}:data")
    a, b, c = m.arena.alloc_colocated(_REGION, 3)
    m.load(a, rng.randbytes(_REGION))
    m.load(b, rng.randbytes(_REGION))
    m.warm_l3(a, _REGION)
    m.warm_l3(b, _REGION)

    op_results: list[tuple[str, object, str]] = []
    for step, (label, instr) in enumerate(_workload_ops(a, b, c)):
        # Give the directory something to forward: core 1 takes private
        # copies of part of a source region before each CC instruction.
        m.read(a + (step % 4) * 1024, 256, core=1)
        if injector is not None:
            injector.pulse()
        res = m.cc(instr)
        digest = hashlib.sha256(res.result_bytes or b"").hexdigest()
        op_results.append((label, res.result, digest))
    if injector is not None:
        injector.pulse()  # final scrub: no strike may outlive the campaign

    images = {
        "a": m.peek(a, _REGION),
        "b": m.peek(b, _REGION),
        "c": m.peek(c, _REGION),
    }
    m.hierarchy.check_inclusion()
    m.hierarchy.check_single_writer()
    return WorkloadRun(machine=m, injector=injector, images=images,
                       op_results=op_results)


def _runner_phase(plan: FaultPlan):
    """Chaos-injected sweep-runner batch; returns (chaos, stats, silent)."""
    from ..bench.runner import Point, PointRunner

    chaos = RunnerChaos(plan)
    runner = PointRunner(jobs=2, use_cache=False, timeout_s=30.0, retries=1)
    chaos.install(runner)
    values = list(range(8))
    docs = runner.run([
        Point("selftest", {"value": v}, label=f"chaos:{v}") for v in values
    ])
    expected = [{"value": v, "doubled": 2 * v} for v in values]
    silent = sum(1 for doc, want in zip(docs, expected) if doc != want)
    return chaos, runner.stats, silent


def run_campaign(plan: FaultPlan | None = None, backend: str | None = None,
                 include_runner: bool = True) -> ResilienceReport:
    """Run one full fault campaign and audit it against a golden run."""
    plan = plan if plan is not None else default_plan()
    golden = run_workload(plan, backend=backend, inject=False)
    faulty = run_workload(plan, backend=backend, inject=True)

    silent = 0
    for name in golden.images:
        if golden.images[name] != faulty.images[name]:
            silent += 1
    for gold, got in zip(golden.op_results, faulty.op_results):
        if gold != got:
            silent += 1

    hasher = hashlib.sha256()
    for name in sorted(faulty.images):
        hasher.update(name.encode())
        hasher.update(faulty.images[name])
    for label, result, digest in faulty.op_results:
        hasher.update(f"{label}:{result}:{digest}".encode())

    recovered = recoveries(faulty.machine.tracer)
    report = ResilienceReport(
        seed=plan.seed,
        backend=faulty.machine.config.backend,
        injected=dict(faulty.injector.injected),
        corrected=recovered["corrected"],
        refetched=recovered["refetched"],
        retried=recovered["retried"],
        degraded_risc=recovered["degraded-risc"],
        absorbed=recovered["absorbed"],
        surfaced=recovered["surfaced"],
        silent=silent,
    )

    if include_runner and plan.kinds() & {"runner.timeout", "runner.crash"}:
        chaos, stats, runner_silent = _runner_phase(plan)
        report.injected.update(chaos.injected)
        report.degraded_serial = stats.serial_fallbacks
        report.runner_timeouts = stats.timeouts
        report.runner_retries = stats.retries
        report.silent += runner_silent

    hasher.update(repr(sorted(report.injected.items())).encode())
    report.image_digest = hasher.hexdigest()
    return report
