"""Table V: per-block energy of CC operations + Section VI-C delay model.

Shape: every in-place CC operation costs less than the read(s)+write a
baseline would need for the same effect, at every cache level; and the
relative delay/energy multipliers follow Section VI-C (logic 3x delay,
cmp/search/clmul 1.5x energy, copy/buz/not 2x, logic 2.5x).
"""

from repro.bench.microbench import table5_rows
from repro.bench.report import render_table
from repro.sram.timing import DELAY_MULTIPLIER, ENERGY_MULTIPLIER


def test_table5(benchmark):
    rows = benchmark.pedantic(table5_rows, rounds=1, iterations=1)
    print("\n" + render_table(rows, "Table V: cache energy (pJ) per 64-byte block"))

    by_cache = {r["cache"]: r for r in rows}
    l3 = by_cache["L3-slice"]
    assert (l3["write"], l3["read"]) == (2852.0, 2452.0)
    assert (l3["cmp"], l3["copy"], l3["search"]) == (840.0, 1340.0, 3692.0)
    l1 = by_cache["L1-D"]
    assert (l1["write"], l1["read"], l1["logic"]) == (375.0, 295.0, 387.0)

    for row in rows:
        # An in-place compare is cheaper than even one conventional read.
        assert row["cmp"] < row["read"]
        # Copy beats the read+write it replaces.
        assert row["copy"] < row["read"] + row["write"]
        # Logic ops beat the two reads + one write they replace.
        assert row["logic"] < 2 * row["read"] + row["write"]
        # Search = compare + one key-replication write (amortizable).
        assert row["search"] == row["cmp"] + row["write"]
    benchmark.extra_info["rows"] = rows


def test_section6c_delay_energy_multipliers(benchmark):
    def check():
        return {"delay": dict(DELAY_MULTIPLIER), "energy": dict(ENERGY_MULTIPLIER)}

    result = benchmark.pedantic(check, rounds=1, iterations=1)
    # "A and/or/xor 64-byte in-place operation is 3x longer ... rest 2x."
    for op in ("and", "or", "xor"):
        assert result["delay"][op] == 3.0
    for op in ("copy", "buz", "cmp", "search", "clmul", "not"):
        assert result["delay"][op] == 2.0
    # "cmp/search/clmul are 1.5x, copy/buz/not are 2x, the rest 2.5x."
    for op in ("cmp", "search", "clmul"):
        assert result["energy"][op] == 1.5
    for op in ("copy", "buz", "not"):
        assert result["energy"][op] == 2.0
    for op in ("and", "or", "xor"):
        assert result["energy"][op] == 2.5
