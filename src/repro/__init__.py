"""repro - a reproduction of "Compute Caches" (Aga et al., HPCA 2017).

Compute Caches re-purpose SRAM cache sub-arrays into very wide vector
compute units via bit-line computing: activating two word-lines at once and
sensing the shared bit-lines computes AND/NOR (and, with the paper's
extensions, XOR, copy, zero, compare, search, and carry-less multiply) over
the stored rows - in place, with no data movement over the cache H-tree,
the on-chip network, or into the core.

Quick start::

    from repro import ComputeCacheMachine
    from repro.core import isa

    m = ComputeCacheMachine()
    a, b, c = m.arena.alloc_colocated(4096, 3)     # operand locality by construction
    m.load(a, bytes(4096))
    m.load(b, b"\\xff" * 4096)
    res = m.cc(isa.cc_or(a, b, c, 4096))           # one instruction, 64 block ops
    assert res.used_inplace
    assert m.peek(c, 4096) == b"\\xff" * 4096

Package layout:

* :mod:`repro.sram`   - bit-accurate compute sub-arrays (the circuit layer);
* :mod:`repro.cache`  - geometry, coherence, interconnects (the substrate);
* :mod:`repro.core`   - CC ISA, controllers, in/near-place execution, ECC;
* :mod:`repro.cpu`    - scalar/SIMD baseline core models;
* :mod:`repro.energy` - Table I/V energies and the McPAT-substitute;
* :mod:`repro.apps`   - the paper's five applications, baseline + CC;
* :mod:`repro.bench`  - harnesses regenerating every table and figure.
"""

from .alloc import Arena, SuperpageArena
from .core import isa as cc_ops
from .core.controller import CCResult, ComputeCacheController
from .core.isa import CCInstruction, Opcode
from .errors import ReproError
from .machine import ComputeCacheMachine
from .params import MachineConfig, sandybridge_8core, small_test_machine

__version__ = "16.0.0"

__all__ = [
    "Arena",
    "SuperpageArena",
    "api",
    "cc_ops",
    "CCResult",
    "ComputeCacheController",
    "CCInstruction",
    "FaultPlan",
    "Opcode",
    "ReproError",
    "ComputeCacheMachine",
    "MachineConfig",
    "sandybridge_8core",
    "small_test_machine",
]


def __getattr__(name: str):
    # Lazy so that ``import repro`` stays light: the façade pulls in the
    # bench runner, the fault subsystem, and the application suite.
    if name == "api":
        import importlib

        return importlib.import_module(".api", __name__)
    if name == "faults":
        import importlib

        return importlib.import_module(".faults", __name__)
    if name == "FaultPlan":
        from .faults.plan import FaultPlan

        return FaultPlan
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
