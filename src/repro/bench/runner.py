"""Parallel sweep/figure execution engine with an on-disk result cache.

Every exhibit of the paper's evaluation (Figures 7–11, the design-space
sweeps) is a grid of independent simulation points, so the bench layer
submits :class:`Point` descriptors here instead of looping inline.  The
runner

* fans points out over a **process pool** (``jobs`` workers; Figure 9's
  four applications or Figure 10's six SPLASH profiles run concurrently),
* keys every point by a **deterministic content hash** of
  ``(point function, kwargs — including the machine-config document —,
  execution backend, code version)`` and serves unchanged points from a
  JSON-per-point **result cache** (``.repro-cache/`` by default) instead
  of re-simulating,
* applies a **per-point timeout with bounded retry**, and after the
  retries are exhausted (or whenever a pool cannot be created at all)
  **degrades gracefully to serial in-process execution**, and
* reports progress and failures through a
  :class:`repro.events.EventTracer` (``runner.point`` / ``runner.batch``
  events carrying wall-clock spans), so sweep wall-clock can be
  attributed the same way ``repro profile`` attributes simulated cycles.

Determinism contract: point functions are pure functions of their kwargs
(all workload seeds are fixed — see
:data:`repro.bench.points.WORKLOAD_SEEDS`), and every result is
canonicalized through a JSON round trip before it is returned *or*
cached.  Parallel, serial, and cache-served runs of the same tree are
therefore bit-identical — ``tests/test_runner.py`` pins this.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..errors import RunnerError
from ..events import EventTracer

CACHE_SCHEMA = "repro.point-result/2"

_CODE_FINGERPRINT: str | None = None


def code_fingerprint() -> str:
    """Content hash of every ``repro`` source file (cached per process).

    Editing any module under ``src/repro/`` changes the fingerprint and
    therefore invalidates every cached point — results can never be
    served from a cache written by different simulator code.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _CODE_FINGERPRINT = digest.hexdigest()[:20]
    return _CODE_FINGERPRINT


def git_revision() -> str | None:
    """``HEAD`` commit of the source checkout (``-dirty`` suffixed when
    the tree has local modifications); ``None`` outside a git checkout."""
    import repro

    cwd = Path(repro.__file__).resolve().parent
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=cwd, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    return f"{rev}-dirty" if status else rev


def default_backend() -> str:
    """The execution backend points run on when their kwargs carry no
    machine-config document (the :class:`~repro.params.MachineConfig`
    default)."""
    from ..params import sandybridge_8core

    return sandybridge_8core().backend


@dataclass(frozen=True)
class Point:
    """One simulation point: a registered point-function name plus its
    JSON-serializable kwargs (see :mod:`repro.bench.points`)."""

    fn: str
    kwargs: dict[str, Any] = field(default_factory=dict)
    label: str = ""

    def describe(self) -> str:
        return self.label or f"{self.fn}({self.kwargs})"


def point_key(fn: str, kwargs: dict[str, Any], backend: str,
              code_version: str) -> str:
    """Deterministic cache key of one point: sha-256 over the canonical
    JSON of (function name, kwargs, backend, code version)."""
    from ..config_io import canonical_json

    payload = canonical_json({
        "schema": CACHE_SCHEMA,
        "fn": fn,
        "kwargs": kwargs,
        "backend": backend,
        "code_version": code_version,
    })
    return hashlib.sha256(payload.encode()).hexdigest()


def _canonical(result: Any) -> Any:
    """Round-trip a result through canonical JSON so fresh (serial or
    parallel) and cache-served results are the same object graph:
    sorted dict ordering everywhere, floats exactly preserved."""
    return json.loads(json.dumps(result, sort_keys=True, default=float))


def result_digest(result: Any) -> str:
    """Integrity hash of a (canonicalized) point result — stored in the
    cache envelope and re-verified on every load, so a torn write or
    bit-rotted file that still parses as JSON can never be served."""
    from ..config_io import canonical_json

    return hashlib.sha256(canonical_json(result).encode()).hexdigest()


def _execute_point(fn_name: str, kwargs: dict[str, Any]) -> Any:
    """Worker-side entry: resolve the registry name and run the point.
    Module-level so it pickles under every multiprocessing start method."""
    from .points import POINT_FUNCTIONS

    try:
        fn = POINT_FUNCTIONS[fn_name]
    except KeyError:
        raise RunnerError(f"unknown point function {fn_name!r}") from None
    return fn(**kwargs)


class ResultCache:
    """JSON-per-point on-disk result cache.

    One ``<key>.json`` envelope per point under ``directory``.  A load is
    served only when the envelope parses, carries the current schema, its
    ``result_sha256`` integrity digest matches the stored result, and —
    when the caller states them — its provenance fields (``fn``,
    ``backend``, ``code_version``) match the requesting point.  Anything
    else (truncated or torn files, invalid UTF-8, bit rot, envelopes
    copied between trees) is a **miss** that the next store overwrites —
    never an error, never served.
    """

    def __init__(self, directory: str | os.PathLike = ".repro-cache") -> None:
        self.directory = Path(directory)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def load(self, key: str, fn: str | None = None, backend: str | None = None,
             code_version: str | None = None) -> Any | None:
        """The cached result for ``key``, or ``None`` on a miss.

        ``fn`` / ``backend`` / ``code_version``, when given, are checked
        against the envelope's provenance fields — a mismatched envelope
        (however it got there) is a miss, not a crash and not garbage.
        """
        try:
            envelope = json.loads(self._path(key).read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError):
            return None
        if not isinstance(envelope, dict) or envelope.get("schema") != CACHE_SCHEMA:
            return None
        if "result" not in envelope:
            return None
        for field_name, expected in (("fn", fn), ("backend", backend),
                                     ("code_version", code_version)):
            if expected is not None and envelope.get(field_name) != expected:
                return None
        try:
            if envelope.get("result_sha256") != result_digest(envelope["result"]):
                return None
        except (TypeError, ValueError, RecursionError):
            return None
        return envelope["result"]

    def store(self, key: str, point: Point, backend: str, code_version: str,
              result: Any) -> None:
        """Write the envelope atomically (tmp file + rename)."""
        envelope = {
            "schema": CACHE_SCHEMA,
            "fn": point.fn,
            "kwargs": point.kwargs,
            "backend": backend,
            "code_version": code_version,
            "result": result,
            "result_sha256": result_digest(result),
        }
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(envelope, sort_keys=True, indent=1),
                       encoding="utf-8")
        os.replace(tmp, path)


@dataclass
class RunnerStats:
    """Counters for one or more :meth:`PointRunner.run` batches."""

    points: int = 0
    cache_hits: int = 0
    deduplicated: int = 0
    computed: int = 0
    timeouts: int = 0
    retries: int = 0
    serial_fallbacks: int = 0
    failures: int = 0
    wall_s: float = 0.0
    jobs: int = 1

    def hit_rate(self) -> float:
        return self.cache_hits / self.points if self.points else 0.0

    def line(self) -> str:
        """One grep-friendly summary line (CI uploads this as an artifact
        and pins the warm-run hit rate)."""
        return (
            f"cache-stats: points={self.points} hits={self.cache_hits} "
            f"deduplicated={self.deduplicated} computed={self.computed} "
            f"timeouts={self.timeouts} retries={self.retries} "
            f"serial_fallbacks={self.serial_fallbacks} "
            f"failures={self.failures} "
            f"hit_rate={100.0 * self.hit_rate():.1f}% "
            f"jobs={self.jobs} wall_s={self.wall_s:.2f}"
        )


class PointRunner:
    """Fan simulation points out over workers, with cached results.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (the default) runs every point serially
        in-process — the no-multiprocessing code path, also used as the
        degradation target when a pool cannot be created.
    cache_dir / use_cache:
        Where the JSON-per-point result cache lives and whether to read
        or write it.  Library callers default to *no* caching so plain
        ``figure7()`` calls never touch the working directory; the CLI
        enables it (``--no-cache`` / ``--cache-dir`` flip these).
    timeout_s / retries:
        Per-point wall-clock timeout for pool execution and how many
        times a timed-out point is resubmitted before the runner falls
        back to running it serially in-process (where it cannot time
        out).  ``timeout_s=None`` disables timeouts.
    tracer:
        An :class:`~repro.events.EventTracer` receiving ``runner.point``
        and ``runner.batch`` events (a private one is created when not
        given; see :func:`runner_wall_profile`).
    backend:
        Overrides the backend component of cache keys; defaults to the
        machine-config default backend.
    """

    def __init__(self, jobs: int = 1, cache_dir: str | os.PathLike = ".repro-cache",
                 use_cache: bool = False, timeout_s: float | None = 600.0,
                 retries: int = 1, tracer: EventTracer | None = None,
                 backend: str | None = None) -> None:
        if jobs < 1:
            raise RunnerError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise RunnerError(f"retries must be >= 0, got {retries}")
        self.jobs = jobs
        self.cache = ResultCache(cache_dir)
        self.use_cache = use_cache
        self.timeout_s = timeout_s
        self.retries = retries
        self.tracer = tracer if tracer is not None else EventTracer(capacity=1 << 16)
        self.backend = backend
        self.stats = RunnerStats(jobs=jobs)

    # -- plumbing ---------------------------------------------------------------------

    def _emit(self, phase: str, point: Point, span: float = 0.0,
              outcome: str | None = None) -> None:
        self.tracer.emit("runner.point", phase=phase, span=span,
                         opcode=point.fn, reason=point.describe(),
                         outcome=outcome)

    def _key(self, point: Point) -> str:
        return point_key(point.fn, point.kwargs,
                         self.backend or default_backend(), code_fingerprint())

    @staticmethod
    def _make_pool(workers: int):
        """Pool factory — a seam for tests and for environments without
        ``multiprocessing`` (any exception here degrades to serial)."""
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=workers)

    def _run_serial(self, point: Point, phase: str = "computed") -> Any:
        start = time.perf_counter()
        try:
            result = _canonical(_execute_point(point.fn, point.kwargs))
        except Exception as exc:
            self.stats.failures += 1
            self._emit("failed", point, span=time.perf_counter() - start)
            raise RunnerError(
                f"simulation point {point.describe()} failed: {exc}") from exc
        self._emit(phase, point, span=time.perf_counter() - start,
                   outcome="serial")
        return result

    # -- execution --------------------------------------------------------------------

    def run(self, points: Sequence[Point]) -> list[Any]:
        """Execute ``points`` and return their results in input order.

        Cache hits are resolved first; the remaining points are
        deduplicated by key, executed (pool or serial), canonicalized,
        cached, and stitched back into input order.
        """
        batch_start = time.perf_counter()
        points = list(points)
        self.stats.points += len(points)
        keys = [self._key(p) for p in points]
        results: list[Any] = [None] * len(points)

        pending: list[int] = []
        owner_of_key: dict[str, int] = {}
        for i, (point, key) in enumerate(zip(points, keys)):
            if self.use_cache:
                cached = self.cache.load(
                    key, fn=point.fn, backend=self.backend or default_backend(),
                    code_version=code_fingerprint())
                if cached is not None:
                    results[i] = cached
                    self.stats.cache_hits += 1
                    self._emit("cache-hit", point, outcome="cache")
                    continue
            if key in owner_of_key:
                self.stats.deduplicated += 1
                continue
            owner_of_key[key] = i
            pending.append(i)

        if pending:
            self._run_pending(points, keys, results, pending)

        for i, key in enumerate(keys):
            if results[i] is None and key in owner_of_key:
                results[i] = results[owner_of_key[key]]

        self.stats.wall_s += time.perf_counter() - batch_start
        self.tracer.emit("runner.batch", phase="total",
                         span=time.perf_counter() - batch_start,
                         reason=f"{len(points)} points")
        return results

    def _run_pending(self, points: list[Point], keys: list[str],
                     results: list[Any], pending: list[int]) -> None:
        pool = None
        if self.jobs > 1 and pending:
            try:
                pool = self._make_pool(min(self.jobs, len(pending)))
            except Exception:
                self._emit("serial-fallback", points[pending[0]],
                           outcome="pool-unavailable")
        if pool is None:
            for i in pending:
                results[i] = self._run_serial(points[i])
                self.stats.computed += 1
                self._store(keys[i], points[i], results[i])
            return

        from concurrent.futures import BrokenExecutor
        from concurrent.futures import TimeoutError as FutureTimeout

        timed_out = False
        try:
            futures = {
                i: pool.submit(_execute_point, points[i].fn, points[i].kwargs)
                for i in pending
            }
            broken = False
            for i in pending:
                point = points[i]
                start = time.perf_counter()
                result = None
                if not broken:
                    attempts = 0
                    while True:
                        try:
                            result = _canonical(
                                futures[i].result(timeout=self.timeout_s))
                            self._emit("computed", point,
                                       span=time.perf_counter() - start,
                                       outcome="parallel")
                            break
                        except FutureTimeout:
                            timed_out = True
                            self.stats.timeouts += 1
                            futures[i].cancel()
                            self._emit("timeout", point,
                                       span=time.perf_counter() - start)
                            if attempts < self.retries:
                                attempts += 1
                                self.stats.retries += 1
                                futures[i] = pool.submit(
                                    _execute_point, point.fn, point.kwargs)
                                self._emit("retry", point)
                                continue
                            break
                        except BrokenExecutor:
                            broken = True
                            break
                        except RunnerError:
                            raise
                        except Exception as exc:
                            self.stats.failures += 1
                            self._emit("failed", point,
                                       span=time.perf_counter() - start)
                            raise RunnerError(
                                f"simulation point {point.describe()} "
                                f"failed: {exc}") from exc
                if result is None:
                    # Timed out past the retry budget, or the pool died:
                    # run this point serially in-process.
                    self.stats.serial_fallbacks += 1
                    result = self._run_serial(point, phase="serial-fallback")
                results[i] = result
                self.stats.computed += 1
                self._store(keys[i], point, result)
        finally:
            # A running call cannot be cancelled, and the interpreter's exit
            # joins every worker: stop those of a timed-out point (listed
            # first, as shutdown drops the pool's table of them).
            stuck = []
            if timed_out:
                stuck = list((getattr(pool, "_processes", None) or {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            for worker in stuck:
                worker.terminate()

    def _store(self, key: str, point: Point, result: Any) -> None:
        if self.use_cache:
            self.cache.store(key, point, self.backend or default_backend(),
                             code_fingerprint(), result)


# -- wall-clock attribution ----------------------------------------------------------


def runner_wall_profile(tracer: EventTracer) -> dict[str, dict[str, float]]:
    """Fold a runner's event stream into per-phase wall-clock totals —
    the sweep-level analogue of the cycle-attribution profile
    ``repro profile`` builds from simulation events."""
    profile: dict[str, dict[str, float]] = {}
    for event in tracer.by_kind("runner.point"):
        row = profile.setdefault(event.phase or "?",
                                 {"count": 0.0, "seconds": 0.0})
        row["count"] += 1
        row["seconds"] += event.span
    return profile


def format_runner_profile(tracer: EventTracer) -> str:
    """Human-readable :func:`runner_wall_profile` table."""
    profile = runner_wall_profile(tracer)
    if not profile:
        return "runner: no points executed"
    width = max(len(phase) for phase in profile)
    lines = ["runner wall-clock attribution:"]
    for phase, row in sorted(profile.items(),
                             key=lambda kv: -kv[1]["seconds"]):
        lines.append(f"  {phase.ljust(width)}  {int(row['count']):4d} pts  "
                     f"{row['seconds']:8.2f} s")
    return "\n".join(lines)
