import ast
from pathlib import Path

import pytest

import bloomretrieval

MODULES = sorted(
    p for p in Path(bloomretrieval.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def test_every_export_resolves():
    for name in bloomretrieval.__all__:
        getattr(bloomretrieval, name)
    namespace = {}
    exec("from bloomretrieval import *", namespace)
    assert set(bloomretrieval.__all__) <= set(namespace)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    # `__init__.py` is left out: it imports names only to re-export them
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
