#!/usr/bin/env python3
"""Building custom machines: geometry what-ifs and config round-trips.

Shows how to (1) define a non-default cache geometry, (2) see how the
operand-locality constraint and compute parallelism change with it,
(3) persist the configuration for reproducible experiments.

Run:  python examples/custom_machine.py
"""

import numpy as np

from repro.api import (
    CacheLevelConfig,
    ComputeCacheMachine,
    MachineConfig,
    RingConfig,
    cc_ops,
    config_from_json,
    config_to_json,
    sandybridge_8core,
)


def build_big_llc() -> MachineConfig:
    """A 4 MB slice with 32 banks: twice the partitions, wider parallelism,
    and a 13-bit locality constraint (needs 8 KB-aligned co-operands!)."""
    base = sandybridge_8core()
    return MachineConfig(
        cores=base.cores,
        l1d=base.l1d, l2=base.l2,
        l3_slice=CacheLevelConfig(
            size=4 * 1024 * 1024, ways=16,
            banks=32, bps_per_bank=4, hit_latency=13,
        ),
        l3_slices=8,
        ring=RingConfig(stops=8),
        memory_size=base.memory_size,
    )


def main() -> None:
    default = sandybridge_8core()
    big = build_big_llc()

    print("=== Geometry comparison ===")
    for name, cfg in (("Table IV", default), ("big-LLC what-if", big)):
        l3 = cfg.l3_slice
        print(f"{name:16s}: {l3.size // (1 << 20)} MB slice, "
              f"{l3.banks} banks x {l3.bps_per_bank} BP = "
              f"{l3.num_partitions} partitions, "
              f"min locality bits = {l3.min_locality_bits}")
    print("\nNote the portability rule (Section IV-C): a binary compiled "
          "for 12-bit alignment\nwould need recompilation for the 13-bit "
          "what-if machine.\n")

    print("=== Same 4 KB kernel on both machines ===")
    rng = np.random.default_rng(6)
    for name, cfg in (("Table IV", default), ("big-LLC what-if", big)):
        m = ComputeCacheMachine(cfg)
        align = 1 << cfg.l3_slice.min_locality_bits
        a = m.arena.alloc(4096, align=align)
        b = m.arena.alloc(4096, align=align)
        c = m.arena.alloc(4096, align=align)
        m.load(a, rng.integers(0, 256, 4096, dtype=np.uint8).tobytes())
        m.load(b, rng.integers(0, 256, 4096, dtype=np.uint8).tobytes())
        m.warm_l3(a, 4096)
        m.warm_l3(b, 4096)
        m.warm_l3(c, 4096)
        res = m.cc(cc_ops.cc_and(a, b, c, 4096))
        print(f"{name:16s}: {res.inplace_ops} in-place ops, "
              f"compute makespan {res.compute_cycles:.0f} cycles "
              f"(in-place: {res.used_inplace})")

    print("\n=== Config round trip ===")
    doc = config_to_json(big)
    rebuilt = config_from_json(doc)
    print(f"serialized {len(doc)} bytes of JSON; "
          f"round-trip equal: {rebuilt == big}")


if __name__ == "__main__":
    main()
