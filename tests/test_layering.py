"""The package's modules reach each other only through public names, and stay exact."""

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


def _is_fraction_call(node):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Fraction"


def inexact_arithmetic(path):
    """(line, what) for each float literal, float() call, and true division
    with no Fraction(...) operand, which would make a float of two ints."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, "float literal"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append((node.lineno, "float call"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            operands = (node.left, node.right) if isinstance(node, ast.BinOp) else (node.target, node.value)
            if not any(_is_fraction_call(x) for x in operands):
                found.append((node.lineno, "division"))
    return sorted(found)


def test_no_float_and_every_division_has_a_fraction_operand():
    offenders = {p.name: inexact_arithmetic(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: got for name, got in offenders.items() if got} == {}


def test_the_exactness_guard_sees_floats_and_int_division(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("x = 0.5\ny = float(n)\nz = a / b\nw = Fraction(1) / b + a // b\n"
                     "u = (a - b) / Fraction(c)\nv /= 2\nv /= Fraction(2)\n")
    assert inexact_arithmetic(probe) == [
        (1, "float literal"), (2, "float call"), (3, "division"), (6, "division")]


def _called_name(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def callers_of(path, name):
    """Sorted names of the functions that call `name(...)` or `.name(...)`; '<module>'
    for top-level calls."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owner = {}
    for node in ast.walk(tree):  # breadth first, so an inner function overwrites its outer one
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((id(sub), node.name) for sub in ast.walk(node))
    return sorted({owner.get(id(node), "<module>") for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and _called_name(node) == name})


def test_read_document_is_the_only_reader_of_document_lines():
    offenders = {p.name: callers_of(p, "splitlines") for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: got for name, got in offenders.items() if got} == {"algebra.py": ["read_document"]}


def test_the_line_reader_guard_sees_every_caller(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("rows = TEXT.splitlines()\n\ndef outer(text):\n"
                     "    def inner():\n        return text.splitlines()\n    return inner\n\n"
                     "def other(text):\n    return text.split()\n")
    assert callers_of(probe, "splitlines") == ["<module>", "inner"]


def test_delta_matrix_is_built_only_by_its_readers():
    offenders = {p.name: callers_of(p, "delta_matrix") for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: got for name, got in offenders.items() if got} == {
        "cochains.py": ["differential", "omitted_count"],
        "cohomology.py": ["cocycle_matrix", "cohomology_dim", "comparison_tuples"]}


def test_the_caller_guard_sees_plain_calls(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f(m):\n    return delta_matrix(m)\n\n"
                     "def g(m):\n    return cochains.delta_matrix(m)\n\n"
                     "def h(m):\n    return delta_matrix\n")
    assert callers_of(probe, "delta_matrix") == ["f", "g"]


def builtin_makers(path):
    """Lines that name make_witt or make_virasoro, in code or in an import."""
    makers = {"make_witt", "make_virasoro"}
    return sorted({node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                   if (isinstance(node, ast.Name) and node.id in makers)
                   or (isinstance(node, ast.Attribute) and node.attr in makers)
                   or (isinstance(node, ast.alias) and node.name in makers)})


def test_builtin_algebras_are_reached_through_builtin():
    # algebra.py defines them; the package's public-name table only spells their names
    offenders = {p.name: builtin_makers(p) for p in sorted(PACKAGE.glob("*.py"))
                 if p.name != "algebra.py"}
    assert {name: got for name, got in offenders.items() if got} == {}


def test_the_builtin_guard_sees_every_reference(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .algebra import BUILTIN, make_witt\nw = algebra.make_virasoro()\n"
                     "v = BUILTIN['witt']()\nmake_witt_like = 1\n")
    assert builtin_makers(probe) == [1, 2]
