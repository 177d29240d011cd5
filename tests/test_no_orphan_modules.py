"""Every module under ``src/repro`` is imported by the program itself or by
a benchmark, a host benchmark, an example or a checked docs block.

A module that only its own tests import feeds no simulated number, suite
or command; it belongs in the tests (as the evidence it is) or nowhere.
Packages and the entry points (``repro.api``, ``repro.cli``,
``repro.__main__``) are what users import, so they need no importer.
Program code is what :mod:`tests.program_index` indexes, the same code
``test_no_orphan_definitions.py`` checks each definition against.
"""

import pytest

from .program_index import API, ProgramIndex, plant

ENTRY_POINTS = {API, "repro.cli", "repro.__main__"}


def orphan_modules(index: ProgramIndex) -> list[str]:
    """The modules under ``src/repro`` that no program code imports."""
    reached = {index.defining_module(module, imported)
               for source in index.sources if not source.reexports
               for module, imported, _ in source.imports()}
    return sorted(set(index.modules) - index.packages - ENTRY_POINTS - reached)


def test_every_module_has_an_importer():
    orphans = orphan_modules(ProgramIndex())
    assert not orphans, f"modules that nothing outside tests imports: {orphans}"


# -- one rule per planted tree -----------------------------------------------------

_BASE = {
    "src/repro/__init__.py": "",
    "src/repro/api.py": "__all__ = []\n",
    "src/repro/mod.py": "def target():\n    return 1\n",
}

RULES = {
    "imported-by-a-benchmark": ({"benchmarks/b.py": "from repro import mod\n"}, []),
    "imported-by-a-docs-block": ({"docs/api.md": "```python\nimport repro.mod\n```\n"}, []),
    "relative-import-in-src": ({"src/repro/user.py": "from .mod import target\n",
                                "examples/e.py": "import repro.user\n"}, []),
    "through-a-package-re-export": ({"src/repro/__init__.py": "from .mod import target\n",
                                     "hostbench/h.py": "from repro import target\n"}, []),
    "re-export-alone": ({"src/repro/__init__.py": "from .mod import target\n"},
                        ["repro.mod"]),
    "imported-by-tests-only": ({"tests/test_mod.py": "import repro.mod\n"}, ["repro.mod"]),
}


@pytest.mark.parametrize("case", RULES)
def test_planted_rule(tmp_path, case):
    """``repro.mod`` is reached, or not, by the one import the case names."""
    files, orphans = RULES[case]
    assert orphan_modules(plant(tmp_path, {**_BASE, **files})) == orphans
