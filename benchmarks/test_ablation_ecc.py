"""Ablation: ECC strategies for in-place logical operations (Section IV-I).

Compares the XOR-readout check (extra transfers to the ECC logic unit on
*every* logical operation) against idle-cycle scrubbing (amortized over the
soft-error rate of 0.7-7 errors/year).  The paper prefers scrubbing; this
bench quantifies why.
"""

import numpy as np

from repro.bitops import bytes_xor
from repro.core.ecc import check_block, encode_block, xor_check
from repro.energy.tables import read_energy, write_energy

OPS_PER_SECOND = 1e6  # a modest CC workload
SOFT_ERRORS_PER_YEAR = 7  # the paper's upper bound
SECONDS_PER_YEAR = 3600 * 24 * 365


def xor_check_energy_per_op() -> float:
    """The XOR scheme reads the xor result out to the ECC unit and writes
    the result's ECC back: ~1 extra read + 1 extra write per logical op."""
    return read_energy("L3-slice") + write_energy("L3-slice")


def scrub_energy_per_op(scrub_interval_s: float = 60.0,
                        blocks_scrubbed: int = 32768) -> float:
    """Scrubbing reads every protected block once per interval; amortized
    per CC operation it is orders of magnitude cheaper."""
    scrub_energy = blocks_scrubbed * read_energy("L3-slice")
    ops_per_interval = OPS_PER_SECOND * scrub_interval_s
    return scrub_energy / ops_per_interval


def test_scrubbing_beats_xor_check(benchmark):
    def measure():
        return xor_check_energy_per_op(), scrub_energy_per_op()

    xor_cost, scrub_cost = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert scrub_cost < xor_cost / 100
    benchmark.extra_info["xor_pj_per_op"] = round(xor_cost, 1)
    benchmark.extra_info["scrub_pj_per_op"] = round(scrub_cost, 3)


def test_both_schemes_catch_injected_errors(benchmark):
    """Functional ablation: each scheme must detect a single-bit flip in a
    logical operand; scrubbing must also *correct* it."""
    rng = np.random.default_rng(99)

    def run():
        detections = 0
        for _ in range(20):
            a = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
            b = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
            ea, eb = encode_block(a), encode_block(b)
            struck = bytearray(a)
            struck[rng.integers(0, 64)] ^= 1 << rng.integers(0, 8)
            struck = bytes(struck)
            if struck == a:
                continue
            try:
                xor_check(bytes_xor(struck, b), ea, eb)
            except Exception:
                detections += 1
        corrected = 0
        for _ in range(20):
            data = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
            ecc = encode_block(data)
            struck = bytearray(data)
            struck[3] ^= 0x10
            if check_block(bytes(struck), ecc) == data:
                corrected += 1
        return detections, corrected

    detections, corrected = benchmark.pedantic(run, rounds=1, iterations=1)
    assert detections == 20
    assert corrected == 20


def test_soft_error_rate_makes_scrubbing_sufficient(benchmark):
    """At 0.7-7 errors/year, the expected errors between minute-granularity
    scrubs is vanishingly small - the paper's argument for scrubbing."""
    expected_errors_per_scrub = benchmark.pedantic(
        lambda: SOFT_ERRORS_PER_YEAR * (60.0 / SECONDS_PER_YEAR),
        rounds=1, iterations=1,
    )
    assert expected_errors_per_scrub < 1e-4
