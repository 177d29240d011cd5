"""Area-overhead reproduction: the paper's 8% claim (Section VI-C).

"The area overhead is 8% for a sub-array of size 512 x 512" - reproduced
from a bit-cell-equivalent head-count of the added structures (second
decoder, single-ended sensing, XOR-reduction tree, copy control).
"""

from repro.bench.report import render_table
from repro.sram.area import cache_area_overhead, subarray_area, tree_depth

PAPER_AREA_OVERHEAD = 0.08
"""Section VI-C: "The area overhead is 8% for a sub-array of size 512 x 512"."""


def test_512x512_overhead_is_8_percent(benchmark):
    area = benchmark.pedantic(subarray_area, args=(512, 512),
                              rounds=1, iterations=1)
    rows = [{"structure": k, "bit-cell units": v}
            for k, v in area.breakdown().items()]
    print("\n" + render_table(rows, "512x512 compute sub-array area"))
    print(f"compute overhead: {area.overhead_fraction:.1%} (paper: 8%)")
    assert 0.06 < area.overhead_fraction < 0.10


def test_overhead_grows_for_smaller_subarrays(benchmark):
    """The optimal L2 sub-array (128x512, footnote 2) pays relatively more
    periphery - why density-critical caches want large sub-arrays."""

    def sweep():
        return {rows: subarray_area(rows, 512).overhead_fraction
                for rows in (512, 256, 128)}

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert result[128] > result[256] > result[512]


def test_whole_cache_overhead_matches_paper(benchmark):
    """The paper's 8% area overhead is consistent with the structural
    model for the L3's 512x512 sub-arrays."""
    overhead = benchmark.pedantic(cache_area_overhead, args=(512, 512, 64),
                                  rounds=1, iterations=1)
    assert abs(overhead - PAPER_AREA_OVERHEAD) < 0.02


def test_reduction_tree_depth(benchmark):
    """clmul's XOR tree is log-depth: 6/7/8 XOR levels for 64/128/256-bit
    lanes - why the operation fits in the 2x access-delay budget."""
    depths = benchmark.pedantic(
        lambda: {lane: tree_depth(512, lane) for lane in (64, 128, 256)},
        rounds=1, iterations=1,
    )
    assert depths == {64: 6, 128: 7, 256: 8}
