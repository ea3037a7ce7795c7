"""No module imports a name it never uses, README names no missing one and
holds no measured figure, every public name of the package has a reader, and
every private one is read inside the package.

CI enforces the first with ``python -m pyflakes src tests``; this test applies
the same unused-import rule with the standard library alone, so it runs
wherever the tier-1 tests run.  The public-surface and private-name rules are
stdlib-only too.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names that an import in ``source`` binds and no other line references.

    A name counts as referenced where it is read or written as a bare name
    (an attribute chain starts with one) or listed in ``__all__``.
    ``from __future__`` imports are compiler directives and bind nothing.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used |= {item.value for item in ast.walk(node.value) if isinstance(item, ast.Constant)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_rule_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport sys\nimport numpy as np\n"
        "from json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "sys.exit(os.path.sep)\n"
    )
    assert unused_imports(source) == ["np (line 4)", "dumps (line 5)"]


def test_modules_are_found():
    names = {path.name for path in MODULES}
    assert {"cli.py", "theories.py", "test_imports.py", "closed_forms.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


#: ``from impactseries.<module> import <names>`` as README writes it.
README_IMPORT = re.compile(r"from (impactseries\.\w+) import (\w+(?:, \w+)*)")


def test_readme_imports_resolve():
    lines = README_IMPORT.findall((ROOT / "README.md").read_text(encoding="utf-8"))
    assert lines, "README names no import line"
    missing = [
        f"{module}.{name}"
        for module, names in lines
        for name in names.split(", ")
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


#: A measured figure: a number of megabytes or milliseconds.
MEASURED_FIGURE = re.compile(r"\d[\d.,]*\s*(?:MB|ms)\b|milliseconds")


def test_the_rule_finds_a_measured_figure():
    text = "peaks at about 65 MB, adds 20 to 30\nmilliseconds, 0.6 ms; 512 KB, 2**32 points"
    assert MEASURED_FIGURE.findall(text) == ["65 MB", "milliseconds", "0.6 ms"]


def test_readme_holds_no_measured_figure():
    # a measured figure goes stale with each memory or speed change; CHANGES.md
    # records each one with its method
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert MEASURED_FIGURE.findall(readme) == []


PACKAGE = sorted((ROOT / "src" / "impactseries").glob("*.py"))

#: A README code span: a fenced block or an inline span, which may wrap a line.
CODE_SPAN = re.compile(r"```.*?```|`[^`]+`", re.DOTALL)


def defined_names(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """Each module-level ``def``, ``class`` and assigned name of ``tree``, with
    the statement that defines it."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [(n.id, node) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def public_names(source: str) -> list[str]:
    """The public module-level ``def``, ``class`` and assigned names of ``source``."""
    return [name for name, _ in defined_names(ast.parse(source)) if not name.startswith("_")]


def referenced_names(tree: ast.AST) -> set[str]:
    """Every name ``tree`` reads, imports or reaches as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def readerless_names(modules: dict[str, str], readme: str, harness: str) -> list[str]:
    """``module.name`` for each public name of ``modules`` (module name to
    source) that no other module references, no README code span names and
    the ``harness`` text (the benchmark scripts and the project metadata)
    does not name."""
    documented = {word for span in CODE_SPAN.findall(readme) for word in re.findall(r"\w+", span)}
    named = documented | set(re.findall(r"\w+", harness))
    readers = {module: referenced_names(ast.parse(source)) for module, source in modules.items()}
    return [
        f"{module}.{name}"
        for module, source in modules.items()
        for name in public_names(source)
        if name not in named
        and not any(name in refs for other, refs in readers.items() if other != module)
    ]


def test_the_rule_finds_a_public_name_without_a_reader():
    modules = {
        "a": "import b\nLIMIT, _HIDDEN = 1, 2\nclass Box: pass\ndef lonely(): pass\n"
             "def _helper(): pass\ndef shown(): pass\ndef timed(): pass\n",
        "b": "from a import Box\nimport a\nVALUE: int = a.LIMIT\n",
    }
    readme = "Call `a.shown()`.\n```\nb.VALUE\n```\nlonely, outside a span\n"
    assert readerless_names(modules, readme, "spans = ['a.timed']") == ["a.lonely"]


def test_every_public_name_has_a_reader():
    # a public name is used by another module, named in a README code span,
    # or named by the benchmark scripts or pyproject.toml; else it is private
    modules = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    harness = "\n".join(
        path.read_text(encoding="utf-8")
        for path in [*sorted((ROOT / "bench").glob("*.py")), ROOT / "pyproject.toml"]
    )
    assert readerless_names(modules, readme, harness) == []


def unread_private_names(modules: dict[str, str]) -> list[str]:
    """``module.name`` for each private, non-dunder name that a module of
    ``modules`` (module name to source) defines at module level and that no
    statement of ``modules`` references, apart from the one defining it."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    statements = [(node, referenced_names(node)) for tree in trees.values() for node in tree.body]
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, definition in defined_names(tree)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in refs for node, refs in statements if node is not definition)
    ]


def test_the_rule_finds_a_private_name_without_a_reader():
    modules = {
        "a": "__all__ = ['run']\n_LIMIT, _SPARE = 1, 2\nclass _Box: pass\n"
             "def _recurse(n): return _recurse(n - 1)\ndef _used(): return _LIMIT\n"
             "def run():\n    global _SPARE\n    _SPARE = 3\n    return _Box()\n",
        "b": "from a import _used\nimport a\nVALUE = _used() + a._table()\n",
        "c": "def _table(): pass\n",
    }
    assert unread_private_names(modules) == ["a._SPARE", "a._recurse"]


def test_every_private_name_has_a_reader():
    # tests, README and the benchmark scripts do not count: a private name
    # that only they read is dead code in the package
    modules = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert unread_private_names(modules) == []
