"""Every module under ``src/repro`` is imported by the program itself or by
a benchmark, a host benchmark or an example.

A module that only its own tests import feeds no simulated number, suite
or command; it belongs in the tests (as the evidence it is) or nowhere.
Packages and the entry points (``repro.api``, ``repro.cli``,
``repro.__main__``) are what users import, so they need no importer.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
ENTRY_POINTS = {"repro.api", "repro.cli", "repro.__main__"}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_module_name(path): path for path in SRC.glob("repro/**/*.py")}
PACKAGES = {name for name, path in MODULES.items() if path.name == "__init__.py"}


def _imports(path: Path, module: str = "") -> list[tuple[str, str | None, str]]:
    """``(module, imported name or None, bound name)`` of every import in
    a file; relative imports resolve against ``module``, the file's own."""
    package = module if module in PACKAGES else module.rpartition(".")[0]
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out += [(alias.name, None, alias.asname or alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            out += [(base, alias.name, alias.asname or alias.name) for alias in node.names]
    return out


def _defining_module(module: str, name: str | None) -> str:
    """The module that defines what ``from module import name`` binds,
    following the re-exports of packages and of ``repro.api``."""
    if name is None or f"{module}.{name}" in MODULES:
        return module if name is None else f"{module}.{name}"
    if module in PACKAGES or module == "repro.api":
        for source, imported, bound in _imports(MODULES[module], module):
            if bound == name and imported is not None:
                return _defining_module(source, imported)
    return module


def test_every_module_has_an_importer():
    sources = [(path, name) for name, path in MODULES.items()
               if name not in PACKAGES and name != "repro.api"]
    sources += [(path, "") for top in ("benchmarks", "hostbench", "examples")
                for path in (REPO / top).rglob("*.py")]
    reached = {_defining_module(module, imported)
               for path, name in sources
               for module, imported, _ in _imports(path, name)}
    orphans = sorted(set(MODULES) - PACKAGES - ENTRY_POINTS - reached)
    assert not orphans, f"modules that nothing outside tests imports: {orphans}"
