"""Assembler, disassembler, and trace-frontend tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ComputeCacheMachine
from repro.asm import assemble, format_instruction, parse
from repro.core.isa import Opcode, cc_and, cc_buz, cc_clmul_bcast, cc_search
from repro.errors import ISAError
from repro.params import small_test_machine
from repro.trace import TraceReader, run_trace


class TestAssembler:
    def test_parse_three_operand(self):
        instr = parse("cc_and 0x1000, 0x2000, 0x3000, 4096")
        assert instr.opcode is Opcode.AND
        assert (instr.src1, instr.src2, instr.dest, instr.size) == (
            0x1000, 0x2000, 0x3000, 4096
        )

    def test_parse_buz_and_copy(self):
        buz = parse("cc_buz 0x40, 128")
        assert buz.opcode is Opcode.BUZ and buz.size == 128
        copy = parse("cc_copy 0x0, 0x1000, 256")
        assert copy.opcode is Opcode.COPY and copy.dest == 0x1000

    def test_parse_clmul_variants(self):
        plain = parse("cc_clmul128 0x0, 0x1000, 0x2000, 512")
        assert plain.lane_bits == 128 and not plain.broadcast_src2
        bcast = parse("cc_clmul256.bcast 0x0, 0x1000, 0x2000, 512")
        assert bcast.lane_bits == 256 and bcast.broadcast_src2

    def test_decimal_and_comments(self):
        instr = parse("cc_cmp 64, 128, 64  # compare one block")
        assert instr.src1 == 64 and instr.size == 64

    def test_errors(self):
        for bad in (
            "cc_frob 0x0, 64",
            "cc_and 0x0, 0x40",          # wrong arity
            "cc_buz",                     # no operands
            "cc_and 0x0, zz, 0x80, 64",   # bad number
            "cc_copy.bcast 0x0, 0x40, 64",
            "cc_clmulXY 0x0, 0x40, 0x80, 64",
        ):
            with pytest.raises(ISAError):
                parse(bad)

    def test_validation_applies(self):
        with pytest.raises(ISAError):
            parse("cc_cmp 0x0, 0x1000, 1024")  # over the cmp limit

    @given(st.sampled_from([
        cc_and(0x1000, 0x2000, 0x3000, 256),
        cc_buz(0x40, 128),
        cc_search(0x0, 0x1000, 512),
        cc_clmul_bcast(0x0, 0x1000, 0x2000, 512, lane_bits=128),
    ]))
    @settings(max_examples=8, deadline=None)
    def test_round_trip(self, instr):
        assert parse(format_instruction(instr)) == instr

    def test_assemble_listing(self):
        listing = """
        # two ops
        cc_buz 0x0, 64
        cc_copy 0x0, 0x1000, 64
        """
        instrs = assemble(listing)
        assert [i.opcode for i in instrs] == [Opcode.BUZ, Opcode.COPY]

    def test_assemble_reports_line(self):
        with pytest.raises(ISAError) as exc:
            assemble("cc_buz 0x0, 64\ncc_frob 1, 2")
        assert "line 2" in str(exc.value)


class TestTraceFrontend:
    def test_data_specs(self):
        reader = TraceReader()
        reader.feed_line("init 0x0, zeros:16")
        reader.feed_line("init 0x10, repeat:0xAB*4")
        reader.feed_line("init 0x20, bytes:deadbeef")
        assert reader.inits == [
            (0, bytes(16)), (16, b"\xAB" * 4), (32, b"\xde\xad\xbe\xef")
        ]

    def test_full_trace_runs_and_computes(self):
        trace = """
        init 0x0,    repeat:0xf0*4096
        init 0x1000, repeat:0x0f*4096
        cc_or 0x0, 0x1000, 0x2000, 4096
        load 0x2000, 8
        fence
        """
        m = ComputeCacheMachine(small_test_machine())
        result = run_trace(trace, m)
        assert result.cc_instructions == 1
        assert result.cycles > 0
        assert m.peek(0x2000, 4096) == b"\xff" * 4096

    def test_load_flags(self):
        reader = TraceReader()
        reader.feed_line("load 0x0, 8, dependent")
        reader.feed_line("load 0x40, 64, streaming")
        instrs = reader.program.instructions
        assert instrs[0].dependent and not instrs[0].streaming
        assert instrs[1].streaming and instrs[1].size == 64

    def test_store_and_simd_events(self):
        trace = """
        store 0x0, bytes:0102030405060708
        simd_store 0x40, zeros:32
        simd_load 0x40
        scalar
        branch
        """
        m = ComputeCacheMachine(small_test_machine())
        result = run_trace(trace, m)
        assert result.instructions == 5
        assert m.peek(0x0, 8) == bytes(range(1, 9))

    def test_bad_lines_report_position(self):
        for bad in ("wibble 0x0", "load 0x1000, -8", "simd_load 0x2000, -32",
                    "load 0x0, 0", "simd_load 0x40, 0", "store 0x40, zeros:0",
                    "simd_store 0x80, bytes:", "store 0x0, repeat:0x1*0"):
            with pytest.raises(ISAError) as exc:
                run_trace(f"scalar\n{bad}", ComputeCacheMachine(small_test_machine()))
            assert "line 2" in str(exc.value)

    def test_trace_file(self, tmp_path):
        from repro.trace import run_trace_file

        path = tmp_path / "t.trace"
        path.write_text("init 0x0, zeros:64\nload 0x0, 8\n")
        result = run_trace_file(str(path), ComputeCacheMachine(small_test_machine()))
        assert result.instructions == 1


class TestZeroingApp:
    def test_variants_zero_everything(self):
        from repro.apps.zeroing import make_allocation_trace, run_zeroing

        workload = make_allocation_trace(seed=1, n_regions=6, max_blocks=8)
        for variant in ("base", "base32", "cc"):
            m = ComputeCacheMachine(small_test_machine())
            res = run_zeroing(workload, variant, m)
            assert res.output == 6  # verified zero inside the app

    def test_cc_cheaper_on_both_axes(self):
        from repro.apps.zeroing import make_allocation_trace, run_zeroing

        workload = make_allocation_trace(seed=2, n_regions=4, max_blocks=16)
        m1 = ComputeCacheMachine(small_test_machine())
        base = run_zeroing(workload, "base32", m1)
        m2 = ComputeCacheMachine(small_test_machine())
        cc = run_zeroing(workload, "cc", m2)
        assert cc.cycles < base.cycles
        assert cc.energy.total() < base.energy.total()
        assert cc.instructions < base.instructions / 10

    def test_bad_variant(self):
        from repro.apps.zeroing import make_allocation_trace, run_zeroing

        with pytest.raises(ValueError):
            run_zeroing(make_allocation_trace(3, n_regions=1), "gpu")


class TestVectorCompiler:
    def test_compile_and_run_elementwise(self, make_bytes):
        from repro.compiler import compile_and_run

        m = ComputeCacheMachine(small_test_machine())
        da, db = make_bytes(2048), make_bytes(2048)
        plan = compile_and_run(m, Opcode.XOR, {"a": da, "b": db})
        assert plan.locality_satisfied
        expected = (np.frombuffer(da, np.uint8) ^ np.frombuffer(db, np.uint8)).tobytes()
        assert m.peek(plan.arrays["dest"].addr, 2048) == expected

    def test_tiles_respect_limits(self):
        from repro.compiler import ArrayRef, VectorCompiler

        comp = VectorCompiler(small_test_machine())
        a = ArrayRef("a", 0x0, 8192)
        b = ArrayRef("b", 0x4000, 8192)
        plan = comp.compile_elementwise(Opcode.CMP, a, b, None)
        assert all(i.size <= 512 for i in plan.instructions)
        assert sum(i.size for i in plan.instructions) == 8192

    def test_tiles_never_span_pages(self):
        from repro.compiler import ArrayRef, VectorCompiler

        comp = VectorCompiler(small_test_machine())
        # Deliberately offset base: tiles must shrink at the page boundary.
        a = ArrayRef("a", 0xF80, 4096)
        dest = ArrayRef("d", 0x4F80, 4096)
        plan = comp.compile_elementwise(Opcode.COPY, a, None, dest)
        for instr in plan.instructions:
            assert not instr.spans_page_boundary()

    def test_locality_diagnostics(self):
        from repro.compiler import ArrayRef, VectorCompiler

        comp = VectorCompiler(small_test_machine())
        a = ArrayRef("a", 0x0, 128)
        b = ArrayRef("b", 0x4040, 128)  # different page offset
        dest = ArrayRef("d", 0x8000, 128)
        plan = comp.compile_elementwise(Opcode.AND, a, b, dest)
        assert not plan.locality_satisfied
        assert plan.diagnostics
        assert "WARNING" in plan.listing()

    def test_misplaced_arrays_still_correct(self, make_bytes):
        """Locality failure degrades to near-place, never to wrong data."""
        from repro.compiler import ArrayRef, VectorCompiler

        m = ComputeCacheMachine(small_test_machine())
        da, db = make_bytes(128), make_bytes(128)
        m.load(0x0, da)
        m.load(0x4040, db)
        comp = VectorCompiler(m.config)
        plan = comp.compile_elementwise(
            Opcode.AND,
            ArrayRef("a", 0x0, 128), ArrayRef("b", 0x4040, 128),
            ArrayRef("d", 0x8000, 128),
        )
        results = plan.run(m)
        assert any(r.nearplace_ops for r in results)
        expected = (np.frombuffer(da, np.uint8) & np.frombuffer(db, np.uint8)).tobytes()
        assert m.peek(0x8000, 128) == expected

    def test_size_mismatch_rejected(self):
        from repro.compiler import ArrayRef, VectorCompiler

        comp = VectorCompiler(small_test_machine())
        with pytest.raises(ISAError):
            comp.compile_elementwise(
                Opcode.AND,
                ArrayRef("a", 0x0, 128), ArrayRef("b", 0x1000, 256),
                ArrayRef("d", 0x2000, 128),
            )
