"""Program code reads every attribute that code under ``src/repro`` stores
on ``self``.

An attribute that is only ever written is state nothing depends on: a
counter no report shows, a model no method consults.  It costs a store on
every update and misleads the reader about what the simulation tracks.
The guard flags each ``self.<name>`` store whose name no program code (see
:mod:`tests.program_index`) reads, by attribute load or by an identifier
string; the tests are not program code, so a counter only a test asserts
is flagged too.  A name rule cannot see an attribute whose name a live
attribute shares (``OperandRegisters.loads`` hid behind ``RunResult.loads``).
"""

from __future__ import annotations

import pytest

from .program_index import ProgramIndex, plant, write_only_attributes


def test_every_stored_attribute_is_read():
    unread = write_only_attributes(ProgramIndex())
    assert not unread, f"attributes that no program code reads: {unread}"


# -- one rule per planted tree -----------------------------------------------------

_BOX = "class Box:\n    def __init__(self):\n        self.target = 0\n"

_BASE = {
    "src/repro/__init__.py": "",
    "src/repro/api.py": "__all__ = []\n",
    "src/repro/mod.py": _BOX,
    "benchmarks/b.py": "from repro.mod import Box\nbox = Box()\n",
}

_TARGET = ["repro.mod:Box.target"]

RULES = {
    # a read in program code keeps ``Box.target``
    "attribute-load": ({"examples/e.py": "from repro.mod import Box\nprint(Box().target)\n"},
                       []),
    "load-in-src": ({"src/repro/mod.py": _BOX + "\n    def size(self):\n"
                                                "        return self.target\n",
                     "benchmarks/b.py": "from repro.mod import Box\nBox().size()\n"}, []),
    "identifier-string": ({"hostbench/h.py": "read = getattr(box, 'target')\n"}, []),
    "dotted-string": ({"hostbench/h.py": "KEYS = ('stats.target',)\n"}, []),
    "docs-block": ({"docs/api.md": "```python\nfrom repro.mod import Box\n"
                                   "print(Box().target)\n```\n"}, []),
    # what is not a read
    "store-only": ({}, _TARGET),
    "augmented-store": ({"src/repro/mod.py": _BOX + "\n    def bump(self):\n"
                                                    "        self.target += 1\n",
                         "benchmarks/b.py": "from repro.mod import Box\nBox().bump()\n"},
                        _TARGET),
    "annotated-store": ({"src/repro/mod.py": "class Box:\n    def __init__(self):\n"
                                             "        self.target: int = 0\n"}, _TARGET),
    "store-from-outside": ({"benchmarks/b.py": "from repro.mod import Box\nbox = Box()\n"
                                               "box.target = 2\n"}, _TARGET),
    "delete": ({"src/repro/mod.py": _BOX + "\n    def drop(self):\n"
                                           "        del self.target\n",
                "benchmarks/b.py": "from repro.mod import Box\nBox().drop()\n"}, _TARGET),
    "bare-name": ({"benchmarks/b.py": "from repro.mod import Box\ntarget = Box()\n"
                                      "print(target)\n"}, _TARGET),
    "tests-only": ({"tests/test_mod.py": "from repro.mod import Box\n\n\n"
                                         "def test_box():\n    assert Box().target == 0\n"},
                   _TARGET),
    "docstring": ({"src/repro/user.py": '"""target"""\n'}, _TARGET),
    "prose-string": ({"hostbench/h.py": "print('read target')\n"}, _TARGET),
    "load-in-a-flagged-definition": ({"src/repro/user.py": "def unused(box):\n"
                                                           "    return box.target\n"},
                                     _TARGET),
    # which stores are checked
    "store-in-a-flagged-class": ({"benchmarks/b.py": "print(1)\n"}, []),
    "store-on-another-object": ({"src/repro/mod.py": "class Box:\n    pass\n\n\n"
                                                     "def reset(box):\n"
                                                     "    box.target = 0\n",
                                 "benchmarks/b.py": "from repro.mod import Box, reset\n"
                                                    "reset(Box())\n"}, []),
}


@pytest.mark.parametrize("case", RULES)
def test_planted_rule(tmp_path, case):
    """Each rule of :func:`~tests.program_index.write_only_attributes`, on
    a tree where ``Box.target`` has just the one read (or non-read) the
    case names."""
    files, flagged = RULES[case]
    assert write_only_attributes(plant(tmp_path, {**_BASE, **files})) == flagged
