"""No module imports a name it never uses.

CI enforces this with ``python -m pyflakes src tests``; this test applies the
same unused-import rule with the standard library alone, so it runs wherever
the tier-1 tests run.
"""

import ast
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
