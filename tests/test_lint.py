"""Stdlib-only lint: no unused imports in ``src/``, ``tests/`` or ``benchmarks/``.

A subset of ``ruff check``'s F401, built on :mod:`ast` so it runs
wherever the test suite runs.  An imported name counts as used when it
is read anywhere in the module (annotations included), listed in
``__all__``, named inside a string annotation, re-exported with a
redundant alias (``import x as x``), or its import line carries a
``# noqa`` comment.  Imports under ``if TYPE_CHECKING:`` follow the same
rule: they exist for annotations, so an annotation use is a use.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LINTED = ("src", "tests", "benchmarks")


def _python_files() -> list[Path]:
    files: list[Path] = []
    for top in LINTED:
        files.extend(sorted((ROOT / top).rglob("*.py")))
    return files


def _names_in_expression(source: str) -> set[str]:
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError:
        return set()
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs
            every += [a for a in (args.vararg, args.kwarg) if a is not None]
            yield from (a.annotation for a in every if a.annotation is not None)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.AST) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # String annotations, whole ("Topology") or nested (list["Topology"]).
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names_in_expression(node.value)
    # __all__ = [...] / (...) re-exports.
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                for item in ast.walk(node.value):
                    if isinstance(item, ast.Constant) and isinstance(item.value, str):
                        used.add(item.value)
    return used


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` for every import binding the module never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree)
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            if alias.asname is not None and alias.asname == alias.name.split(".")[-1]:
                continue  # explicit re-export: import x as x
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                problems.append((node.lineno, alias.asname or alias.name))
    return problems


class TestUnusedImportScanner:
    """The scanner itself, on small sources."""

    def test_flags_an_unused_import(self):
        assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == [
            (1, "os")
        ]

    def test_attribute_and_dotted_uses(self):
        source = "import os.path\nfrom a import b as c\nos.path.join(c.x)\n"
        assert unused_imports(source) == []

    def test_dunder_all_counts_as_use(self):
        source = "from m import f, g\n__all__ = ['f']\n"
        assert unused_imports(source) == [(1, "g")]

    def test_type_checking_and_string_annotations(self):
        source = (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from m import A, B, C\n"
            "def f(x: 'A') -> list['B']:\n"
            "    return []\n"
        )
        assert unused_imports(source) == [(3, "C")]

    def test_future_noqa_and_redundant_alias_are_exempt(self):
        source = (
            "from __future__ import annotations\n"
            "import os  # noqa: F401\n"
            "from m import x as x\n"
        )
        assert unused_imports(source) == []


@pytest.mark.parametrize(
    "path", _python_files(), ids=lambda p: str(p.relative_to(ROOT))
)
def test_no_unused_imports(path):
    problems = unused_imports(path.read_text(encoding="utf-8"))
    assert not problems, [f"{path.relative_to(ROOT)}:{line}: {name}" for line, name in problems]
