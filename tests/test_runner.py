"""Tests of the parallel sweep/figure execution engine (repro.bench.runner):
cache hit/miss semantics, timeout -> retry -> serial-fallback, degraded
(pool-less) execution, and parallel-vs-serial determinism."""

import json
import os
import subprocess
import sys
import time
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest

import repro
from repro.bench import runner as runner_mod
from repro.bench.microbench import figure7, kernel_point_spec
from repro.bench.runner import (
    Point,
    PointRunner,
    ResultCache,
    code_fingerprint,
    format_runner_profile,
    point_key,
    runner_wall_profile,
)
from repro.config_io import (
    config_digest,
    config_from_dict,
    config_from_json,
    config_to_dict,
    config_to_json,
)
from repro.errors import RunnerError
from repro.params import BLOCK_SIZE, TopologyConfig, sandybridge_8core, small_test_machine

SMALL = lambda: config_to_dict(small_test_machine())  # noqa: E731

DIGEST_BASE = replace(sandybridge_8core(), topology=TopologyConfig(clusters=2))
"""A machine whose document carries every section (``topology`` only
appears when it is not the default)."""
NOT_SERIALIZED = {"trace_events", "event_buffer_capacity"}
CHANGED = {
    # a legal value different from DIGEST_BASE's, per leaf field
    "backend": "bitexact", "cores": 4, "l3_slices": 4, "memory_size": 1 << 27,
    "static_power_uncore_mw": 1500.0,
    "frequency_ghz": 3.0, "epi_scalar": 900.0, "epi_simd": 1100.0,
    "epi_cc": 1200.0, "static_power_core_mw": 500.0,
    "size": 1 << 23, "ways": 4, "banks": 4, "bps_per_bank": 1,
    "hit_latency": 40,
    "hop_latency": 4, "link_width_bits": 128, "stops": 4,
    "energy_per_hop_per_flit": 60.0,
    "latency": 200, "energy_per_block": 16000.0,
    "inplace_latency": 15, "nearplace_latency": 23, "transpose_latency": 40,
    "pin_retry_limit": 3, "commands_per_cycle": 2,
    "clusters": 4, "inter_hop_latency": 30, "inter_link_width_bits": 128,
    "inter_energy_per_hop_per_flit": 300.0, "slice_interleave": "page",
}


def _leaf_fields(config) -> list[str]:
    """``name`` or ``section.name`` of every field a config document
    carries, taken from the dataclasses themselves."""
    out = []
    for f in fields(config):
        if f.name in NOT_SERIALIZED:
            continue
        value = getattr(config, f.name)
        if is_dataclass(value):
            out += [f"{f.name}.{g.name}" for g in fields(value)]
        else:
            out.append(f.name)
    return out


def _with_leaf(config, path: str):
    """``config`` with one leaf field set to its ``CHANGED`` value; the L3
    slice count and the ring's stop count change together (one stop per
    slice)."""
    section, _, name = path.rpartition(".")
    top = {}
    if section:
        top[section] = replace(getattr(config, section), **{name: CHANGED[name]})
    else:
        top[name] = CHANGED[name]
    if path in ("l3_slices", "ring.stops"):
        top["l3_slices"] = CHANGED["l3_slices"]
        top["ring"] = replace(config.ring, stops=CHANGED["stops"])
    return replace(config, **top)


def small_kernel_point(kernel="copy", config="cc", size=512):
    return kernel_point_spec(kernel, config, size, machine=SMALL())


class TestCacheKeys:
    def test_key_is_deterministic_and_sensitive(self):
        key = point_key("kernel", {"kernel": "copy"}, "packed", "abc")
        assert key == point_key("kernel", {"kernel": "copy"}, "packed", "abc")
        assert key != point_key("kernel", {"kernel": "cmp"}, "packed", "abc")
        assert key != point_key("kernel", {"kernel": "copy"}, "bitexact", "abc")
        assert key != point_key("kernel", {"kernel": "copy"}, "packed", "xyz")
        assert key != point_key("app", {"kernel": "copy"}, "packed", "abc")

    def test_key_ignores_kwarg_ordering(self):
        assert point_key("f", {"a": 1, "b": 2}, "packed", "v") == \
            point_key("f", {"b": 2, "a": 1}, "packed", "v")

    def test_code_fingerprint_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 20

    def test_config_digest_covers_backend_and_geometry(self):
        base = sandybridge_8core()
        assert config_digest(base) == config_digest(sandybridge_8core())
        assert config_digest(base) != config_digest(replace(base, cores=4))
        assert config_digest(base) != \
            config_digest(replace(base, backend="bitexact"))
        # Observability settings must NOT change the digest.
        assert config_digest(base) == \
            config_digest(replace(base, trace_events=True))
        assert config_digest(base) == \
            config_digest(replace(base, event_buffer_capacity=1 << 10))

    @pytest.mark.parametrize("path", _leaf_fields(DIGEST_BASE))
    def test_config_digest_covers_every_field(self, path):
        """Changing any serialized field changes the digest and survives a
        JSON round trip (a field the document dropped would do neither)."""
        changed = _with_leaf(DIGEST_BASE, path)
        assert config_digest(changed) != config_digest(DIGEST_BASE)
        assert config_from_json(config_to_json(changed)) == changed

    def test_only_block_size_is_fixed(self):
        """The block size is the constant ``BLOCK_SIZE``, not a field of a
        level, so every serialized field has a value to change."""
        with pytest.raises(TypeError, match="block_size"):
            replace(DIGEST_BASE.l1d, block_size=128)
        assert DIGEST_BASE.l1d.blocks * BLOCK_SIZE == DIGEST_BASE.l1d.size

    def test_config_roundtrip_preserves_backend(self):
        from dataclasses import replace

        cfg = replace(small_test_machine(), backend="bitexact")
        doc = config_to_dict(cfg)
        assert doc["backend"] == "bitexact"
        assert config_from_dict(doc).backend == "bitexact"


class TestCacheHitMiss:
    def test_second_run_hits_config_change_misses(self, tmp_path):
        r1 = PointRunner(cache_dir=tmp_path, use_cache=True)
        [first] = r1.run([small_kernel_point()])
        assert r1.stats.computed == 1 and r1.stats.cache_hits == 0

        r2 = PointRunner(cache_dir=tmp_path, use_cache=True)
        [second] = r2.run([small_kernel_point()])
        assert r2.stats.cache_hits == 1 and r2.stats.computed == 0
        assert second == first

        # Changing the machine config (or any kwarg) is a miss.
        doc = SMALL()
        doc["cc"]["inplace_latency"] += 1
        r3 = PointRunner(cache_dir=tmp_path, use_cache=True)
        r3.run([kernel_point_spec("copy", "cc", 512, machine=doc)])
        assert r3.stats.cache_hits == 0 and r3.stats.computed == 1

    def test_code_version_change_invalidates(self, tmp_path, monkeypatch):
        r1 = PointRunner(cache_dir=tmp_path, use_cache=True)
        r1.run([small_kernel_point()])
        monkeypatch.setattr(runner_mod, "_CODE_FINGERPRINT", "deadbeef")
        r2 = PointRunner(cache_dir=tmp_path, use_cache=True)
        r2.run([small_kernel_point()])
        assert r2.stats.cache_hits == 0 and r2.stats.computed == 1

    def test_corrupt_cache_file_is_a_miss(self, tmp_path):
        r1 = PointRunner(cache_dir=tmp_path, use_cache=True)
        [result] = r1.run([small_kernel_point()])
        entries = list(tmp_path.glob("*.json"))
        assert len(entries) == 1
        entries[0].write_text("{not json", encoding="utf-8")
        r2 = PointRunner(cache_dir=tmp_path, use_cache=True)
        [again] = r2.run([small_kernel_point()])
        assert r2.stats.cache_hits == 0 and r2.stats.computed == 1
        assert again == result

    def test_cache_envelope_carries_provenance(self, tmp_path):
        runner = PointRunner(cache_dir=tmp_path, use_cache=True)
        runner.run([small_kernel_point()])
        envelope = json.loads(next(tmp_path.glob("*.json")).read_text())
        assert envelope["schema"] == "repro.point-result/2"
        assert envelope["fn"] == "kernel"
        assert envelope["backend"] == "packed"
        assert envelope["code_version"] == code_fingerprint()
        assert envelope["result_sha256"] == runner_mod.result_digest(
            envelope["result"])

    def test_no_cache_never_touches_disk(self, tmp_path):
        runner = PointRunner(cache_dir=tmp_path / "cache", use_cache=False)
        runner.run([small_kernel_point()])
        assert not (tmp_path / "cache").exists()

    def test_within_batch_deduplication(self):
        runner = PointRunner()
        a, b = runner.run([small_kernel_point(), small_kernel_point()])
        assert a == b
        assert runner.stats.computed == 1
        assert runner.stats.deduplicated == 1


class TestDeterminism:
    def test_parallel_results_bit_identical_to_serial(self):
        points = [small_kernel_point(k, c)
                  for k in ("copy", "compare", "search", "logical")
                  for c in ("base32", "cc")]
        serial = PointRunner(jobs=1).run(points)
        parallel = PointRunner(jobs=4).run(points)
        assert json.dumps(serial, sort_keys=True) == \
            json.dumps(parallel, sort_keys=True)

    def test_cached_results_bit_identical_to_fresh(self, tmp_path):
        points = [small_kernel_point("copy"), small_kernel_point("search")]
        fresh = PointRunner(cache_dir=tmp_path, use_cache=True).run(points)
        cached = PointRunner(cache_dir=tmp_path, use_cache=True).run(points)
        assert json.dumps(fresh, sort_keys=True) == \
            json.dumps(cached, sort_keys=True)

    def test_figure7_parallel_matches_serial(self):
        serial = figure7(size=512, runner=PointRunner(jobs=1))
        parallel = figure7(size=512, runner=PointRunner(jobs=2))
        for kernel, pair in serial.items():
            for config, meas in pair.items():
                other = parallel[kernel][config]
                assert other == meas


class TestFailureHandling:
    def test_timeout_retry_then_serial_fallback(self):
        runner = PointRunner(jobs=2, timeout_s=0.2, retries=1)
        point = Point("selftest", {"value": 7, "sleep_in_worker_s": 30.0},
                      label="sleepy")
        [result] = runner.run([point])
        assert result == {"doubled": 14, "value": 7}
        assert runner.stats.timeouts == 2          # initial + one retry
        assert runner.stats.retries == 1
        assert runner.stats.serial_fallbacks == 1
        phases = [e.phase for e in runner.tracer.by_kind("runner.point")]
        assert phases == ["timeout", "retry", "timeout", "serial-fallback"]

    def test_timed_out_worker_does_not_hold_the_process_open(self):
        """A timed-out point's worker sleeps on after ``run`` returns; the
        runner stops it, so the process exits as soon as it is done."""
        code = (
            "from repro.bench.runner import Point, PointRunner\n"
            "runner = PointRunner(jobs=2, timeout_s=0.3, retries=0)\n"
            "[result] = runner.run([Point('selftest', {'value': 7,"
            " 'sleep_in_worker_s': 30.0})])\n"
            "print(result['doubled'], runner.stats.serial_fallbacks)\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=60)
        elapsed = time.monotonic() - start
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["14", "1"]
        assert elapsed < 10, f"process exited after {elapsed:.1f} s"

    def test_pool_unavailable_degrades_to_serial(self, monkeypatch):
        def broken_pool(workers):
            raise OSError("no multiprocessing here")

        monkeypatch.setattr(PointRunner, "_make_pool",
                            staticmethod(broken_pool))
        runner = PointRunner(jobs=4)
        results = runner.run([Point("selftest", {"value": v})
                              for v in (1, 2, 3)])
        assert [r["doubled"] for r in results] == [2, 4, 6]
        assert runner.stats.computed == 3
        assert any(e.outcome == "pool-unavailable"
                   for e in runner.tracer.by_kind("runner.point"))

    def test_point_failure_raises_runner_error(self):
        runner = PointRunner()
        with pytest.raises(RunnerError, match="selftest"):
            runner.run([Point("selftest", {"fail": True})])
        assert runner.stats.failures == 1

    def test_point_failure_in_pool_raises_runner_error(self):
        runner = PointRunner(jobs=2)
        with pytest.raises(RunnerError):
            runner.run([Point("selftest", {"fail": True}),
                        Point("selftest", {"value": 1})])

    def test_unknown_point_function(self):
        with pytest.raises(RunnerError, match="unknown point function"):
            PointRunner().run([Point("no-such-fn", {})])

    def test_invalid_construction(self):
        with pytest.raises(RunnerError):
            PointRunner(jobs=0)
        with pytest.raises(RunnerError):
            PointRunner(retries=-1)


class TestReporting:
    def test_stats_line_is_parseable(self):
        runner = PointRunner()
        runner.run([Point("selftest", {"value": 1})])
        line = runner.stats.line()
        assert line.startswith("cache-stats: ")
        fields = dict(part.split("=") for part in line.split()[1:])
        assert fields["points"] == "1"
        assert fields["computed"] == "1"
        assert fields["hit_rate"] == "0.0%"

    def test_wall_profile_folds_events(self, tmp_path):
        runner = PointRunner(cache_dir=tmp_path, use_cache=True)
        runner.run([Point("selftest", {"value": 1})])
        runner.run([Point("selftest", {"value": 1})])
        profile = runner_wall_profile(runner.tracer)
        assert profile["computed"]["count"] == 1
        assert profile["cache-hit"]["count"] == 1
        text = format_runner_profile(runner.tracer)
        assert "computed" in text and "cache-hit" in text

    def test_batch_event_emitted(self):
        runner = PointRunner()
        runner.run([Point("selftest", {"value": 1})])
        batches = runner.tracer.by_kind("runner.batch")
        assert len(batches) == 1 and batches[0].reason == "1 points"


class TestResultCacheUnit:
    def test_load_missing_is_none(self, tmp_path):
        assert ResultCache(tmp_path).load("0" * 64) is None

    def test_store_then_load(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = Point("selftest", {"value": 3})
        cache.store("k" * 64, point, "packed", "v1", {"value": 3})
        assert cache.load("k" * 64) == {"value": 3}

    def test_schema_mismatch_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / ("s" * 64 + ".json")).write_text(
            json.dumps({"schema": "other/1", "result": 1}))
        assert cache.load("s" * 64) is None


class TestResultCacheCorruption:
    """The miss-don't-crash, never-serve-garbage contract: any damaged,
    torn, or foreign envelope must read as a cache miss, after which a
    recompute overwrites it with a good one."""

    KEY = "c" * 64

    def stored(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(self.KEY, Point("selftest", {"value": 3}),
                    "packed", "v1", {"value": 3, "doubled": 6})
        return cache, tmp_path / (self.KEY + ".json")

    def test_truncated_envelope_is_miss(self, tmp_path):
        cache, path = self.stored(tmp_path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        assert cache.load(self.KEY) is None

    def test_invalid_utf8_is_miss(self, tmp_path):
        cache, path = self.stored(tmp_path)
        path.write_bytes(b"\xff\xfe garbage \x00" * 16)
        assert cache.load(self.KEY) is None

    def test_bitrotted_result_fails_integrity_digest(self, tmp_path):
        # The envelope still parses and carries the right schema and
        # provenance — only the result payload changed.  Before the
        # result_sha256 digest this was served as truth.
        cache, path = self.stored(tmp_path)
        envelope = json.loads(path.read_text(encoding="utf-8"))
        envelope["result"]["doubled"] = 7777
        path.write_text(json.dumps(envelope), encoding="utf-8")
        assert cache.load(self.KEY) is None

    def test_non_dict_envelope_is_miss(self, tmp_path):
        cache, path = self.stored(tmp_path)
        path.write_text(json.dumps(["not", "an", "envelope"]))
        assert cache.load(self.KEY) is None

    def test_missing_result_field_is_miss(self, tmp_path):
        cache, path = self.stored(tmp_path)
        envelope = json.loads(path.read_text(encoding="utf-8"))
        del envelope["result"]
        path.write_text(json.dumps(envelope), encoding="utf-8")
        assert cache.load(self.KEY) is None

    def test_provenance_mismatch_is_miss(self, tmp_path):
        cache, _path = self.stored(tmp_path)
        assert cache.load(self.KEY, fn="selftest", backend="packed",
                          code_version="v1") is not None
        assert cache.load(self.KEY, fn="kernel") is None
        assert cache.load(self.KEY, backend="bitexact") is None
        assert cache.load(self.KEY, code_version="v2") is None

    def test_legacy_schema_envelope_is_miss(self, tmp_path):
        cache, path = self.stored(tmp_path)
        envelope = json.loads(path.read_text(encoding="utf-8"))
        envelope["schema"] = "repro.point-result/1"
        del envelope["result_sha256"]
        path.write_text(json.dumps(envelope), encoding="utf-8")
        assert cache.load(self.KEY) is None

    def test_runner_recomputes_over_corruption(self, tmp_path):
        """End to end: a corrupted entry is recomputed and the repaired
        envelope serves subsequent runs bit-identically."""
        [fresh] = PointRunner(cache_dir=tmp_path, use_cache=True).run(
            [small_kernel_point()])
        [path] = tmp_path.glob("*.json")
        envelope = json.loads(path.read_text(encoding="utf-8"))
        envelope["result"]["cycles"] = -1  # plausible-looking garbage
        path.write_text(json.dumps(envelope), encoding="utf-8")

        repair = PointRunner(cache_dir=tmp_path, use_cache=True)
        [recomputed] = repair.run([small_kernel_point()])
        assert repair.stats.cache_hits == 0 and repair.stats.computed == 1
        assert recomputed == fresh

        warm = PointRunner(cache_dir=tmp_path, use_cache=True)
        [served] = warm.run([small_kernel_point()])
        assert warm.stats.cache_hits == 1
        assert json.dumps(served, sort_keys=True) == \
            json.dumps(fresh, sort_keys=True)


class TestChaosFallbackCoverage:
    """PointRunner timeout and serial-fallback paths under RunnerChaos
    (injected worker crashes/timeouts through the pool seam)."""

    def chaos(self, kind, max_injections=0, seed=3):
        """A chaos injector always firing ``kind`` (0 = uncapped)."""
        from repro.faults import FaultPlan, FaultSpec, RunnerChaos

        return RunnerChaos(FaultPlan(seed=seed, specs=(
            FaultSpec(kind=kind, probability=1.0,
                      max_injections=max_injections),)))

    def test_crash_chaos_every_point_survives_via_serial_fallback(self):
        runner = PointRunner(jobs=2, use_cache=False, timeout_s=30.0,
                             retries=0)
        self.chaos("runner.crash").install(runner)
        points = [Point("selftest", {"value": v}) for v in range(4)]
        results = runner.run(points)
        assert [r["doubled"] for r in results] == [0, 2, 4, 6]
        assert runner.stats.serial_fallbacks == 4
        assert runner.stats.computed == 4
        phases = [e.phase for e in runner.tracer.by_kind("runner.point")]
        assert phases.count("serial-fallback") == 4

    def test_timeout_chaos_exercises_retry_then_fallback(self):
        runner = PointRunner(jobs=2, use_cache=False, timeout_s=0.2,
                             retries=1)
        self.chaos("runner.timeout").install(runner)
        points = [Point("selftest", {"value": v}) for v in (5, 6)]
        results = runner.run(points)
        assert [r["doubled"] for r in results] == [10, 12]
        # Every attempt times out, so each point burns its full retry
        # budget (initial + 1 retry) before the serial fallback runs it.
        assert runner.stats.timeouts == 4
        assert runner.stats.retries == 2
        assert runner.stats.serial_fallbacks == 2
        phases = [e.phase for e in runner.tracer.by_kind("runner.point")]
        assert phases.count("timeout") == 4
        assert phases.count("serial-fallback") == 2

    def test_chaos_results_bit_identical_to_chaos_free(self):
        points = [small_kernel_point(k) for k in ("copy", "search")]
        clean = PointRunner(jobs=2, use_cache=False).run(points)
        chaotic_runner = PointRunner(jobs=2, use_cache=False,
                                     timeout_s=30.0, retries=1)
        self.chaos("runner.crash").install(chaotic_runner)
        chaotic = chaotic_runner.run(points)
        assert json.dumps(clean, sort_keys=True) == \
            json.dumps(chaotic, sort_keys=True)
        assert chaotic_runner.stats.serial_fallbacks > 0

    def test_capped_chaos_recovers_pool_execution(self):
        # One injected crash, then the pool behaves: only the first
        # affected batch falls back, later batches use the pool again.
        runner = PointRunner(jobs=2, use_cache=False, timeout_s=30.0,
                             retries=0)
        self.chaos("runner.crash", max_injections=1).install(runner)
        first = runner.run([Point("selftest", {"value": 1})])
        fallbacks_after_first = runner.stats.serial_fallbacks
        second = runner.run([Point("selftest", {"value": 2})])
        assert first[0]["doubled"] == 2 and second[0]["doubled"] == 4
        assert runner.stats.serial_fallbacks == fallbacks_after_first
