"""The :mod:`repro.api` stability façade.

``repro.api`` is the supported import surface: every symbol the docs and
examples use must be importable from it, the deep module paths of those
symbols stay importable without warnings, and the façade itself (plus
the ``repro`` top-level convenience names) must import warning-free.
"""

import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
import repro.api


#: Symbols the docs (README.md, docs/*.md) and examples/*.py import —
#: the façade contract: every one must be importable from ``repro.api``.
DOCS_AND_EXAMPLES_SYMBOLS = [
    "ComputeCacheMachine", "cc_ops", "MachineConfig", "sandybridge_8core",
    "small_test_machine", "collect_stats", "format_stats", "ScrubService",
    "DataCorruptionError", "BitCellArray", "CellType", "ArrayRef",
    "VectorCompiler", "compile_and_run", "format_instruction", "parse",
    "Opcode", "run_trace", "profile_trace", "format_profile",
    "write_chrome_trace", "config_from_json", "config_to_json",
    "fresh_machine", "run_checkpoint", "PROFILES", "SplashProfile",
    "bitmap_db", "bmm", "stringmatch", "textgen", "wordcount",
    "PointRunner", "Point", "FaultPlan", "default_plan", "run_campaign",
]


class TestFacadeSurface:
    def test_every_all_symbol_resolves(self):
        for name in repro.api.__all__:
            assert getattr(repro.api, name) is not None, name

    def test_all_is_explicit_and_sorted_unique(self):
        assert len(repro.api.__all__) == len(set(repro.api.__all__))

    def test_docs_and_examples_symbols_present(self):
        missing = [n for n in DOCS_AND_EXAMPLES_SYMBOLS
                   if n not in repro.api.__all__]
        assert not missing

    def test_toplevel_lazy_names(self):
        assert repro.FaultPlan is repro.api.FaultPlan
        assert repro.api.ComputeCacheMachine is repro.ComputeCacheMachine
        with pytest.raises(AttributeError):
            repro.definitely_not_an_attribute

    def test_version_strings_agree(self):
        """``pyproject.toml``, ``setup.py`` (kept for installers too old to
        read ``[project]``) and ``repro.__version__`` name one version."""
        root = Path(__file__).resolve().parents[1]
        versions = {
            name: re.search(r'^\s*version\s*=\s*"([^"]+)"',
                            (root / name).read_text(), re.M).group(1)
            for name in ("pyproject.toml", "setup.py")
        }
        assert versions == {"pyproject.toml": repro.__version__,
                            "setup.py": repro.__version__}


class TestDeprecationShims:
    """The deep module paths that 1.x shimmed with a DeprecationWarning;
    since 2.0.0 they import silently."""

    @pytest.mark.parametrize("module_name,symbol", [
        ("repro.params", "MachineConfig"),
        ("repro.machine", "ComputeCacheMachine"),
        ("repro.stats", "collect_stats"),
        ("repro.events", "EventTracer"),
        ("repro.errors", "ECCError"),
        ("repro.config_io", "load_config"),
        ("repro.core.scrub", "ScrubService"),
        ("repro.cpu.program", "Program"),
        ("repro.bench.runner", "PointRunner"),
        ("repro.sram", "BitCellArray"),
        ("repro.apps.common", "fresh_machine"),
        ("repro.apps.splash", "PROFILES"),
        ("repro.asm", "parse"),
        ("repro.compiler", "compile_and_run"),
        ("repro.trace", "run_trace"),
    ])
    def test_deep_access_warns_and_still_works(self, module_name, symbol):
        """No longer warns: each deep access is silent and returns the
        very object :mod:`repro.api` exports."""
        import importlib

        module = importlib.import_module(module_name)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = getattr(module, symbol)
        assert value is getattr(repro.api, symbol)
        assert not caught

    def test_internal_imports_do_not_warn(self):
        """The façade and the top-level names import cleanly even when
        every DeprecationWarning is an error."""
        code = (
            "import warnings\n"
            "warnings.simplefilter('error', DeprecationWarning)\n"
            "import repro.api\n"
            "from repro import ComputeCacheMachine, cc_ops\n"
            "from repro.api import MachineConfig, run_campaign\n"
            "print('clean')\n"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "clean" in proc.stdout
