"""Simulation-as-a-service: the job layer behind ``repro serve``.

Lifts the sweep runner (:mod:`repro.bench.runner`) into a long-lived
asyncio service: an HTTP/JSON front end accepting simulation jobs, a
persistent priority queue with content-hash dedup against the shared
``.repro-cache/``, per-job timeout/retry and backpressure, streaming
progress through the event tracer, and graceful drain.  The matching
load generator (``repro loadgen``) measures the service's latency
contract and writes ``BENCH_serve.json``.

Layout:

* :mod:`repro.serve.jobs`     — job model, scheduling order, queue, journal;
* :mod:`repro.serve.service`  — the asyncio :class:`JobService`;
* :mod:`repro.serve.web`      — stdlib HTTP/1.1 front end + background server;
* :mod:`repro.serve.loadgen`  — the load generator and its bench document.

Import the public names from :mod:`repro.api`; the deep paths here are
internal like every other subsystem module.
"""

from __future__ import annotations

from .jobs import Job, JobJournal, JobQueue, can_coalesce, schedule_key
from .loadgen import LoadgenConfig, run_loadgen
from .service import JobService, ServiceStats
from .web import BackgroundServer, ReproServer

__all__ = [
    "Job",
    "JobJournal",
    "JobQueue",
    "JobService",
    "ServiceStats",
    "ReproServer",
    "BackgroundServer",
    "LoadgenConfig",
    "run_loadgen",
    "can_coalesce",
    "schedule_key",
]
