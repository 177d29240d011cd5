"""Program code uses every function, method, property and class defined
under ``src/repro``.

``test_no_orphan_modules.py`` checks whole modules; this guard checks
each definition.  A definition is flagged when no program code (see
:mod:`tests.program_index`) uses its name outside the definition's own
body; a use inside a flagged definition does not count, so what only
flagged definitions use is flagged too.  Dunders, the names
``repro.api.__all__`` lists and ``@point_function`` registrations are
entry points.

A flagged definition is deleted, moved into the test that uses it, or
listed in :data:`ALLOWLIST` with one of two reasons the guard checks:

* ``"taught in docs/<page>.md"``: the page shows the name;
* ``"reference that `tests/<file>::<test>` compares program code
  against"``: that test exists and uses the name.

An entry whose definition is gone, or no longer flagged, fails the guard.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from .program_index import ProgramIndex, plant, unused_definitions

ALLOWLIST = {
    "repro.alloc:Arena.alloc_superpage": "taught in docs/isa.md",
    "repro.apps.packet_filter:reference_classify":
        "reference that `tests/test_apps_os_packet.py::TestPacketFilter::"
        "test_cc_matches_reference` compares program code against",
    "repro.apps.stringmatch:encrypt_slot":
        "reference that `tests/test_apps_text.py::TestStringMatch::"
        "test_batched_cipher_matches_the_per_word_loop` compares program code against",
}

_TAUGHT = re.compile(r"taught in (docs/[\w-]+\.md)")
_REFERENCE = re.compile(r"reference that `(tests/[\w/]+\.py)::([\w:]+)` "
                        r"compares program code against")


def _key(definition) -> str:
    return f"{definition.module}:{definition.qualname}"


def _test_uses(path: Path, test_id: str, name: str) -> bool:
    """Whether the test ``test_id`` (``Class::method`` or ``function``) of
    the file at ``path`` exists and uses ``name``."""
    if not path.exists():
        return False
    scope: list[ast.stmt] = ast.parse(path.read_text(encoding="utf-8")).body
    node = None
    for part in test_id.split("::"):
        node = next((n for n in scope if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                     and n.name == part), None)
        if node is None:
            return False
        scope = node.body
    return any((isinstance(n, ast.Name) and n.id == name)
               or (isinstance(n, ast.Attribute) and n.attr == name)
               for n in ast.walk(node))


def allowlist_errors(index: ProgramIndex, flagged, allowlist: dict[str, str]) -> list[str]:
    """Every allowlist entry that is stale or whose reason does not hold."""
    defined = {_key(d): d for d in index.definitions}
    flagged_keys = {_key(d) for d in flagged}
    errors = []
    for key, reason in allowlist.items():
        definition = defined.get(key)
        if definition is None:
            errors.append(f"{key}: allowlisted but no longer defined")
            continue
        if key not in flagged_keys:
            errors.append(f"{key}: allowlisted but program code uses it")
        name = definition.name
        if match := _TAUGHT.fullmatch(reason):
            page = index.repo / match.group(1)
            if not (page.exists() and re.search(rf"\b{name}\b",
                                                page.read_text(encoding="utf-8"))):
                errors.append(f"{key}: {match.group(1)} does not show {name}")
        elif match := _REFERENCE.fullmatch(reason):
            if not _test_uses(index.repo / match.group(1), match.group(2), name):
                errors.append(f"{key}: {match.group(1)}::{match.group(2)} "
                              f"does not exist or does not use {name}")
        else:
            errors.append(f"{key}: reason {reason!r} is neither a docs page "
                          f"that teaches it nor a test that compares against it")
    return errors


def test_every_definition_is_used():
    index = ProgramIndex()
    flagged = unused_definitions(index)
    unused = [f"{_key(d)} ({d.lines} lines)" for d in flagged if _key(d) not in ALLOWLIST]
    assert not unused, f"definitions that no program code uses: {unused}"
    assert not allowlist_errors(index, flagged, ALLOWLIST)


# -- the guard on a planted tree ---------------------------------------------------


def _plant(root: Path) -> ProgramIndex:
    """A program whose benchmark calls ``live`` only; the module's
    docstring and ``__all__`` name ``planted``, which uses nothing."""
    files = {
        "src/repro/__init__.py": "",
        "src/repro/api.py": "from .mod import Public\n__all__ = ['Public']\n",
        "src/repro/mod.py": (
            '"""planted"""\n'
            "__all__ = ['planted', 'only_planted_uses_me']\n"
            "\n"
            "class Public:\n"
            "    def __repr__(self):\n"
            "        return 'p'\n"
            "\n"
            "def live():\n"
            "    return helper()\n"
            "\n"
            "def helper():\n"
            "    return 1\n"
            "\n"
            "def planted():\n"
            "    return only_planted_uses_me() + planted()\n"
            "\n"
            "def only_planted_uses_me():\n"
            "    return 2\n"
        ),
        "benchmarks/bench.py": "from repro.mod import live\nlive()\n",
        "docs/page.md": "Call `planted()` to plant.\n",
        "tests/test_mod.py": "def test_planted():\n    assert planted() > only_planted_uses_me()\n",
    }
    return plant(root, files)


def test_planted_unused_definition_is_flagged(tmp_path):
    index = _plant(tmp_path)
    flagged = sorted(_key(d) for d in unused_definitions(index))
    assert flagged == ["repro.mod:only_planted_uses_me", "repro.mod:planted"]


def test_allowlist_reasons_are_checked(tmp_path):
    index = _plant(tmp_path)
    flagged = unused_definitions(index)
    assert not allowlist_errors(index, flagged, {
        "repro.mod:planted": "taught in docs/page.md",
        "repro.mod:only_planted_uses_me":
            "reference that `tests/test_mod.py::test_planted` compares program code against",
    })
    errors = allowlist_errors(index, flagged, {
        "repro.mod:live": "taught in docs/page.md",
        "repro.mod:gone": "taught in docs/page.md",
        "repro.mod:only_planted_uses_me": "taught in docs/page.md",
        "repro.mod:planted": "reference that `tests/test_mod.py::test_other` "
                             "compares program code against",
    })
    assert errors == [
        "repro.mod:live: allowlisted but program code uses it",
        "repro.mod:live: docs/page.md does not show live",
        "repro.mod:gone: allowlisted but no longer defined",
        "repro.mod:only_planted_uses_me: docs/page.md does not show only_planted_uses_me",
        "repro.mod:planted: tests/test_mod.py::test_other does not exist or does not use planted",
    ]


# -- one rule per planted tree -----------------------------------------------------

_BASE = {
    "src/repro/__init__.py": "",
    "src/repro/api.py": "__all__ = []\n",
    "src/repro/mod.py": "def target():\n    return 1\n",
}

_TARGET = ["repro.mod:target"]

_PROPERTY = ("def target():\n    return 1\n\n\nclass Box:\n    @property\n"
             "    def size(self):\n        return target()\n\n"
             "    @size.setter\n    def size(self, value):\n        pass\n")

RULES = {
    # a use in program code keeps ``target``
    "name": ({"benchmarks/b.py": "print(target)\n"}, []),
    "attribute": ({"examples/e.py": "import repro.mod\nrepro.mod.target()\n"}, []),
    "imported-name": ({"hostbench/h.py": "from repro.mod import target as run\n"}, []),
    "identifier-string": ({"hostbench/h.py": "run = getattr(mod, 'target')\n"}, []),
    "dotted-string": ({"hostbench/h.py": "ENTRY_POINTS = ('repro.mod.target',)\n"}, []),
    "colon-path-string": ({"hostbench/h.py": "ENTRY_POINTS = ('repro.mod:target',)\n"}, []),
    "import-in-src": ({"src/repro/user.py": "from .mod import target\n"}, []),
    "docs-block": ({"docs/api.md": "```python\nfrom repro.mod import target\n```\n"}, []),
    # what is not a use
    "skipped-docs-block": ({"docs/api.md": "<!-- docs-check: skip -->\n```python\n"
                                           "from repro.mod import target\n```\n"}, _TARGET),
    "docs-prose": ({"docs/api.md": "Call `target()` for one.\n"}, _TARGET),
    "docstring": ({"src/repro/user.py": '"""target"""\n'}, _TARGET),
    "prose-string": ({"hostbench/h.py": "print('call target for one')\n"}, _TARGET),
    "__all__": ({"src/repro/user.py": "__all__ = ['target']\n"}, _TARGET),
    "__all__-extended": ({"src/repro/user.py": "__all__ = []\n__all__ += ['target']\n"},
                         _TARGET),
    "package-re-export": ({"src/repro/__init__.py": "from .mod import target\n"}, _TARGET),
    "api-import-outside-__all__": ({"src/repro/api.py": "from .mod import target\n"
                                                        "__all__ = []\n"}, _TARGET),
    "tests-only": ({"tests/test_mod.py": "from repro.mod import target\n\n\n"
                                         "def test_target():\n    assert target() == 1\n"},
                   _TARGET),
    "own-body-only": ({"src/repro/mod.py": "def target(n):\n"
                                           "    return target(n - 1) if n else 0\n"}, _TARGET),
    # entry points, and the definitions a use sits in
    "listed-in-api-__all__": ({"src/repro/api.py": "from .mod import target\n"
                                                   "__all__ = ['target']\n"}, []),
    "point-function": ({"src/repro/mod.py": "from .points import point_function\n\n\n"
                                            "@point_function('one')\ndef target():\n"
                                            "    return 1\n"}, []),
    "dunder-body": ({"src/repro/mod.py": "def target():\n    return 1\n\n\nclass Box:\n"
                                         "    def __len__(self):\n        return target()\n",
                     "benchmarks/b.py": "len(Box())\n"}, []),
    "live-caller": ({"src/repro/mod.py": "def target():\n    return 1\n\n\n"
                                         "def caller():\n    return target()\n",
                     "benchmarks/b.py": "caller()\n"}, []),
    "nested-in-a-flagged-class": ({"src/repro/mod.py": "def target():\n    return 1\n\n\n"
                                                       "class Unused:\n    def method(self):\n"
                                                       "        return target()\n"},
                                  ["repro.mod:Unused", "repro.mod:target"]),
    "property-setter-is-not-a-use": ({"src/repro/mod.py": _PROPERTY,
                                      "benchmarks/b.py": "Box()\n"},
                                     ["repro.mod:Box.size", "repro.mod:target"]),
    "property-read": ({"src/repro/mod.py": _PROPERTY,
                       "benchmarks/b.py": "print(Box().size)\n"}, []),
}


@pytest.mark.parametrize("case", RULES)
def test_planted_rule(tmp_path, case):
    """Each rule of the module docstring, on a tree where ``target`` has
    just the one use (or non-use) the case names."""
    files, flagged = RULES[case]
    index = plant(tmp_path, {**_BASE, **files})
    assert sorted(_key(d) for d in unused_definitions(index)) == flagged
