"""Multi-core interleaved execution tests."""

import numpy as np
import pytest

from repro import ComputeCacheMachine, cc_ops
from repro.cpu.multicore import MulticoreResult, MulticoreRunner
from repro.cpu.program import Instr, Program
from repro.cpu.simd import simd_or
from repro.errors import ReproError
from repro.params import multi_cluster, small_test_machine


@pytest.fixture
def m():
    return ComputeCacheMachine(small_test_machine())


class TestMulticoreRunner:
    def test_parallel_or_kernels(self, m, make_bytes):
        """Each core ORs its own buffers; both results exact, makespan ~ one
        core's time (disjoint data, little contention)."""
        runner = MulticoreRunner(m, chunk=16)
        programs, expected = {}, {}
        for core in range(2):
            a, b, c = m.arena.alloc_colocated(256, 3)
            da, db = make_bytes(256), make_bytes(256)
            m.load(a, da)
            m.load(b, db)
            programs[core] = simd_or(a, b, c, 256)
            expected[core] = (
                c, (np.frombuffer(da, np.uint8) | np.frombuffer(db, np.uint8)).tobytes()
            )
        result = runner.run(programs)
        for core, (c, exp) in expected.items():
            assert m.peek(c, 256) == exp
        assert result.makespan >= max(r.cycles for r in result.per_core.values())
        assert result.total_instructions == sum(len(p) for p in programs.values())

    def test_cc_programs_in_parallel(self, m, make_bytes):
        runner = MulticoreRunner(m, chunk=4)
        programs = {}
        checks = []
        for core in range(2):
            a, c = m.arena.alloc_colocated(256, 2)
            data = make_bytes(256)
            m.load(a, data)
            programs[core] = Program(f"cc{core}",
                                     [Instr.cc_op(cc_ops.cc_copy(a, c, 256))])
            checks.append((c, data))
        runner.run(programs)
        for c, data in checks:
            assert m.peek(c, 256) == data
        m.hierarchy.check_inclusion()
        m.hierarchy.check_single_writer()

    def test_shared_data_contention(self, m, make_bytes):
        """Both cores hammer the same buffer: interleaving exercises the
        coherence protocol, and the final value is one core's last write."""
        addr = m.arena.alloc_page_aligned(64)
        m.load(addr, make_bytes(64))
        programs = {
            0: Program("w0", [Instr.store(addr, b"\xAA" * 8)] * 8),
            1: Program("w1", [Instr.store(addr, b"\xBB" * 8)] * 8),
        }
        MulticoreRunner(m, chunk=2).run(programs)
        assert m.peek(addr, 8) in (b"\xAA" * 8, b"\xBB" * 8)
        m.hierarchy.check_single_writer()

    def test_makespan_is_slowest_core(self, m):
        fast = Program("fast", [Instr.scalar()] * 4)
        slow = Program("slow", [Instr.scalar()] * 400)
        result = MulticoreRunner(m, chunk=8).run({0: fast, 1: slow})
        assert result.makespan == result.per_core[1].cycles
        assert result.per_core[0].cycles < result.per_core[1].cycles
        assert result.aggregate_ipc > 0

    def test_validation(self, m):
        with pytest.raises(ReproError):
            MulticoreRunner(m, chunk=0)
        with pytest.raises(ReproError):
            MulticoreRunner(m).run({7: Program("x", [Instr.scalar()])})

    def test_empty_program_terminates(self, m):
        result = MulticoreRunner(m).run({0: Program("empty", [])})
        assert result.per_core[0].instructions == 0


class TestDegenerateAggregates:
    """Empty and zero-cycle parallel sections must not divide by zero."""

    def test_no_programs(self, m):
        result = MulticoreRunner(m).run({})
        assert result.makespan == 0.0
        assert result.total_instructions == 0
        assert result.aggregate_ipc == 0.0

    def test_all_empty_programs(self, m):
        result = MulticoreRunner(m).run({0: Program("e0", []),
                                         1: Program("e1", [])})
        assert result.makespan == 0.0
        assert result.aggregate_ipc == 0.0

    def test_empty_result_object(self):
        result = MulticoreResult(per_core={})
        assert result.makespan == 0.0
        assert result.aggregate_ipc == 0.0
        assert result.cluster_makespans(2, 2) == {0: 0.0, 1: 0.0}


class TestClusterMakespans:
    def test_per_cluster_view(self):
        m = ComputeCacheMachine(multi_cluster(2, 2))
        fast = Program("fast", [Instr.scalar()] * 4)
        slow = Program("slow", [Instr.scalar()] * 400)
        result = MulticoreRunner(m, chunk=8).run({
            0: Program("f0", list(fast)), 1: Program("f1", list(fast)),
            2: Program("s2", list(slow)), 3: Program("s3", list(slow)),
        })
        spans = result.cluster_makespans(2, 2)
        assert spans[0] == max(result.per_core[0].cycles,
                               result.per_core[1].cycles)
        assert spans[1] == max(result.per_core[2].cycles,
                               result.per_core[3].cycles)
        assert max(spans.values()) == result.makespan
        assert spans[0] < spans[1]

    def test_idle_cluster_reports_zero(self):
        m = ComputeCacheMachine(multi_cluster(2, 2))
        result = MulticoreRunner(m).run({0: Program("p", [Instr.scalar()])})
        spans = result.cluster_makespans(2, 2)
        assert spans[1] == 0.0
        assert spans[0] > 0.0


class TestMulticoreRunnerChaos:
    """Multi-cluster streambw points through a chaos-injected sweep
    runner: worker timeouts and a pool crash must never corrupt results
    (the PR 4 zero-silent-corruption audit, on the PR 9 topology)."""

    def _specs(self):
        from repro.bench.runner import Point

        cells = [("copy", "scalar"), ("copy", "cc"),
                 ("add", "scalar"), ("add", "cc")]
        return [Point("streambw", {
            "kernel": kernel, "variant": variant, "clusters": 2,
            "cores_per_cluster": 2, "words": 128, "placement": "hub",
        }, label=f"chaos:{kernel}/{variant}") for kernel, variant in cells]

    def test_zero_silent_corruption_under_worker_faults(self):
        from repro.bench.runner import PointRunner
        from repro.faults import FaultPlan, FaultSpec, RunnerChaos

        golden = PointRunner(use_cache=False).run(self._specs())
        assert all(doc["verified"] for doc in golden)

        plan = FaultPlan(seed=9, specs=(
            FaultSpec("runner.timeout", probability=1.0, max_injections=2),
            FaultSpec("runner.crash", probability=1.0, max_injections=1),
        ))
        runner = PointRunner(jobs=2, use_cache=False, timeout_s=30.0,
                             retries=1)
        chaos = RunnerChaos(plan)
        chaos.install(runner)
        docs = runner.run(self._specs())

        assert sum(chaos.injected.values()) == 3  # faults actually fired
        silent = sum(1 for doc, want in zip(docs, golden) if doc != want)
        assert silent == 0
        assert runner.stats.failures == 0
