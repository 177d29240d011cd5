"""One AST index of the program's own code, shared by the tier-1 guards
that check it reaches every module (``test_no_orphan_modules.py``), every
definition (``test_no_orphan_definitions.py``) and reads every stored
attribute (``test_no_write_only_attributes.py``) under ``src/repro``.

Program code is ``src/repro``, ``benchmarks/``, ``hostbench/``,
``examples/`` and the python blocks that ``repro docscheck`` runs; the
tests are not program code.  A *use* of a name is a name, an attribute,
an imported name, or a string constant that is an identifier or a
dotted/colon path of identifiers.  Docstrings, prose strings and
``__all__`` lists use nothing, and neither do the imports of a package or
of ``repro.api``, which only re-export.
"""

from __future__ import annotations

import ast
import re
import textwrap
from dataclasses import dataclass, field
from pathlib import Path

from repro.docscheck import DOC_FILES, _runnable, extract_examples

REPO = Path(__file__).resolve().parents[1]
PROGRAM_DIRS = ("benchmarks", "hostbench", "examples")
API = "repro.api"

_PATH_OF_IDENTIFIERS = re.compile(r"[A-Za-z_]\w*(?:[.:][A-Za-z_]\w*)*")


@dataclass(frozen=True)
class Definition:
    """A function, method, property or class defined under ``src/repro``."""

    module: str
    qualname: str
    node: ast.AST = field(compare=False, repr=False)

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def lines(self) -> int:
        start = min([self.node.lineno] + [d.lineno for d in self.node.decorator_list])
        return self.node.end_lineno - start + 1


@dataclass(frozen=True)
class Use:
    """One use of ``name``; ``within`` are the definitions it sits in.
    ``kind`` says how: ``name`` (a name or an imported name), ``string``,
    ``attribute`` (a load), ``store`` (an attribute assigned or deleted)
    or ``self-store`` (the same on ``self``)."""

    name: str
    within: tuple[Definition, ...]
    kind: str = "name"


@dataclass
class Source:
    """One parsed file (or docs block) of program code."""

    tree: ast.Module
    module: str = ""      # the dotted module name, for files under src/repro
    package: bool = False

    @property
    def reexports(self) -> bool:
        return self.package or self.module == API

    def imports(self) -> list[tuple[str, str | None, str]]:
        """``(module, imported name or None, bound name)`` of every import;
        relative imports resolve against the file's own module."""
        package = self.module if self.package else self.module.rpartition(".")[0]
        out = []
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                out += [(alias.name, None, alias.asname or alias.name)
                        for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    anchor = package.rsplit(".", node.level - 1)[0]
                    base = f"{anchor}.{base}" if base else anchor
                out += [(base, alias.name, alias.asname or alias.name)
                        for alias in node.names]
        return out


class ProgramIndex:
    """Every program source, parsed once."""

    def __init__(self, repo: Path = REPO):
        self.repo = repo
        src = repo / "src"
        self.modules: dict[str, Source] = {}
        for path in sorted(src.glob("repro/**/*.py")):
            parts = path.relative_to(src).with_suffix("").parts
            package = parts[-1] == "__init__"
            name = ".".join(parts[:-1] if package else parts)
            self.modules[name] = Source(_parse(path), name, package)
        self.others = [Source(_parse(path)) for top in PROGRAM_DIRS
                       for path in sorted((repo / top).rglob("*.py"))]
        self.others += [
            Source(ast.parse(textwrap.dedent(example.code)))
            for doc in DOC_FILES if (repo / doc).exists()
            for example in extract_examples(repo / doc)
            if example.lang == "python" and _runnable(example) and not example.skip]
        self.definitions = self._definitions()

    @property
    def packages(self) -> set[str]:
        return {name for name, source in self.modules.items() if source.package}

    @property
    def sources(self) -> list[Source]:
        return [*self.modules.values(), *self.others]

    def defining_module(self, module: str, name: str | None) -> str:
        """The module that defines what ``from module import name`` binds,
        following the re-exports of packages and of ``repro.api``."""
        if name is None or f"{module}.{name}" in self.modules:
            return module if name is None else f"{module}.{name}"
        source = self.modules.get(module)
        if source is not None and source.reexports:
            for origin, imported, bound in source.imports():
                if bound == name and imported is not None:
                    return self.defining_module(origin, imported)
        return module

    def _definitions(self) -> list[Definition]:
        """Every function, method, property and class under ``src/repro``."""
        found = []
        for module, source in self.modules.items():
            def visit(node, prefix):
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                          ast.ClassDef)):
                        qualname = f"{prefix}{child.name}"
                        found.append(Definition(module, qualname, child))
                        visit(child, f"{qualname}.")
                    else:
                        visit(child, prefix)
            visit(source.tree, "")
        return found

    def uses(self) -> list[Use]:
        """Every use of a name in program code."""
        by_node = {id(d.node): d for d in self.definitions}
        out: list[Use] = []
        for source in self.sources:
            _UseCollector(by_node, source.reexports, out).visit(source.tree)
        return out


def plant(root: Path, files: dict[str, str]) -> ProgramIndex:
    """The index of a tree of ``files`` (path to text) written under
    ``root``: how the guards test their own rules."""
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text, encoding="utf-8")
    return ProgramIndex(root)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


class _UseCollector(ast.NodeVisitor):
    def __init__(self, definitions: dict[int, Definition], reexports: bool,
                 out: list[Use]):
        self.definitions = definitions
        self.reexports = reexports
        self.out = out
        self.within: tuple[Definition, ...] = ()

    def use(self, name: str, kind: str = "name") -> None:
        self.out.append(Use(name, self.within, kind))

    def visit_Name(self, node):
        self.use(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            kind = "attribute"
        elif isinstance(node.value, ast.Name) and node.value.id == "self":
            kind = "self-store"
        else:
            kind = "store"
        self.use(node.attr, kind)
        self.visit(node.value)

    def visit_alias(self, node):
        if not self.reexports:
            for part in node.name.split("."):
                self.use(part)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and _PATH_OF_IDENTIFIERS.fullmatch(node.value):
            for part in re.split(r"[.:]", node.value):
                self.use(part, "string")

    def visit_Expr(self, node):
        if not (isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)):
            self.visit(node.value)          # a bare string is a docstring

    def visit_Assign(self, node):
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        if not (isinstance(node.target, ast.Name) and node.target.id == "__all__"):
            self.generic_visit(node)

    def _visit_definition(self, node):
        for name, value in ast.iter_fields(node):
            if name in ("body", "name"):
                continue
            if name == "decorator_list":
                # ``@x.setter`` on a def named ``x`` names the property itself
                value = [d for d in value
                         if not (isinstance(d, ast.Attribute)
                                 and isinstance(d.value, ast.Name)
                                 and d.value.id == node.name)]
            for item in value if isinstance(value, list) else [value]:
                if isinstance(item, ast.AST):
                    self.visit(item)
        outer = self.within
        definition = self.definitions.get(id(node))
        if definition is not None:
            self.within = outer + (definition,)
        for statement in node.body:
            self.visit(statement)
        self.within = outer

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _visit_definition


def entry_point(definition: Definition, public: set[str]) -> bool:
    """Dunders, ``repro.api.__all__`` and ``@point_function`` registrations."""
    name = definition.name
    if name.startswith("__") and name.endswith("__"):
        return True
    if "." not in definition.qualname and name in public:
        return True
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "point_function" for d in definition.node.decorator_list)


def public_names(index: ProgramIndex) -> set[str]:
    """The names ``repro.api.__all__`` lists."""
    for node in index.modules[API].tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_definitions(index: ProgramIndex) -> list[Definition]:
    """Definitions whose name no program code uses, outside their own body
    and outside the bodies of other unused definitions (to a fixpoint)."""
    public = public_names(index)
    candidates = [d for d in index.definitions if not entry_point(d, public)]
    uses = index.uses()
    flagged: set[Definition] = set()
    while True:
        live = {}
        for use in uses:
            if not flagged.intersection(use.within):
                live.setdefault(use.name, []).append(use.within)
        newly = {d for d in candidates if d not in flagged and not any(
            d not in within for within in live.get(d.name, ()))}
        if not newly:
            break
        flagged |= newly
    # a definition inside a flagged one goes with it
    return sorted((d for d in flagged if not any(
                      o.module == d.module and d.qualname.startswith(o.qualname + ".")
                      for o in flagged)),
                  key=lambda d: (d.module, d.node.lineno))


def write_only_attributes(index: ProgramIndex) -> list[str]:
    """``module:Class.name`` of each ``self.<name>`` store under
    ``src/repro`` whose name no program code reads.  A read is an attribute
    load or an identifier string (``getattr`` names, hostbench's dotted
    counter keys); a bare name is another variable, and a store, augmented
    or not, reads nothing.  Uses inside the definitions
    :func:`unused_definitions` flags count for nothing: their stores are
    that guard's to report, and their reads keep nothing alive."""
    flagged = set(unused_definitions(index))
    live = [use for use in index.uses() if not flagged.intersection(use.within)]
    read = {use.name for use in live if use.kind in ("attribute", "string")}
    found = set()
    for use in live:
        classes = [d for d in use.within if isinstance(d.node, ast.ClassDef)]
        if use.kind == "self-store" and classes and use.name not in read:
            found.add(f"{classes[-1].module}:{classes[-1].qualname}.{use.name}")
    return sorted(found)
