"""Ablation: search key-replication amortization (Section VI-D).

"Writes incurred due to key replication limit efficacy of search ... As
data size to be searched increases, key replication overheads will get
amortized."  This bench sweeps the searched-data size and shows the
energy-per-byte of CC search falling toward the pure-compare floor, and
each instruction writing its key once per partition it touches.
"""

from repro import ComputeCacheMachine, cc_ops
from repro.params import sandybridge_8core


def search_energy_per_byte(size: int) -> tuple[float, int]:
    m = ComputeCacheMachine(sandybridge_8core())
    data, key = m.arena.alloc_colocated(max(size, 4096), 2)
    m.load(data, b"\xAB" * size)
    m.load(key, b"\xCD" * 64)
    m.warm_l3(data, size)
    m.warm_l3(key, 64)
    snap = m.snapshot_energy()
    m.cc(cc_ops.cc_search(data, key, size))
    return (
        m.energy_since(snap).total() / size,
        m.controllers[0].stats.key_replications,
    )


def test_key_replication_amortizes_with_size(benchmark):
    def sweep():
        return {size: search_energy_per_byte(size) for size in (512, 1024, 2048, 4096)}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    per_byte = {size: e for size, (e, _) in results.items()}
    # Larger searches cost less energy per byte (amortized key writes).
    assert per_byte[4096] < per_byte[512]
    assert per_byte[4096] < per_byte[1024]
    benchmark.extra_info["pj_per_byte"] = {s: round(e, 2) for s, e in per_byte.items()}


def test_key_table_caps_replications(benchmark):
    """Replications never exceed the number of distinct partitions the
    data occupies (64 for an L3 slice), regardless of data size."""

    def run():
        _, replications = search_energy_per_byte(4096)
        return replications

    replications = benchmark.pedantic(run, rounds=1, iterations=1)
    cfg = sandybridge_8core().l3_slice
    assert replications <= cfg.num_partitions
    assert replications == 4096 // 64  # one partition per block here


def test_repeated_search_same_instruction_free(benchmark):
    """Within one instruction each partition's key row is written once; a
    second instruction must re-replicate - the paper's per-instruction
    key-table granularity."""

    def run():
        m = ComputeCacheMachine(sandybridge_8core())
        data, key = m.arena.alloc_colocated(4096, 2)
        m.load(data, b"\x11" * 4096)
        m.load(key, b"\x22" * 64)
        m.cc(cc_ops.cc_search(data, key, 4096))
        first = m.controllers[0].stats.key_replications
        m.cc(cc_ops.cc_search(data, key, 4096))
        second = m.controllers[0].stats.key_replications - first
        return first, second, m.controllers[0].stats

    first, second, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    assert first == second  # a new instruction re-replicates
    # Every in-place search op wrote its own partition's key row.
    assert stats.key_replications == stats.block_ops_inplace
