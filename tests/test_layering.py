"""The package's modules reach each other only through public names."""

import ast
from pathlib import Path

import wittcoh

PACKAGE = Path(wittcoh.__file__).parent


def private_imports(path):
    """(module, name) for each underscore name imported from another wittcoh module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "wittcoh"
        if internal:
            found += [(node.module, a.name) for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_from_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    offenders = {p.name: private_imports(p) for p in modules}
    assert {name: got for name, got in offenders.items() if got} == {}


def test_the_guard_sees_a_private_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .linalg import SparseMatrix, _eliminate\nfrom fractions import _gcd\n")
    assert private_imports(probe) == [("linalg", "_eliminate")]
