"""Cold start: `import wittcoh` loads no layer, and each CLI subcommand loads only
the layers it uses.  The public names resolve lazily to their home modules."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wittcoh
from wittcoh.algebra import Window, dump_algebra, make_witt

SRC = str(Path(wittcoh.__file__).parent.parent)

# every public name of the package, by home module
PUBLIC = {
    "linalg": ["LinearSolution", "SparseMatrix", "solve"],
    "algebra": ["CENTRAL", "GradedLieAlgebra", "Window", "check_jacobi", "dump_algebra",
                "load_algebra", "make_virasoro", "make_witt"],
    "cochains": ["ADJOINT", "TRIVIAL", "Cochain", "MixedCochain", "differential",
                 "weight_components"],
    "cohomology": ["CohomologyReport", "coboundary_primitive", "cohomology_dim",
                   "normalize_weight_zero", "reduce_to_weight_zero", "stability_scan"],
    "replay": ["RelationSet", "run_replay"],
    "deformation": ["DefectReport", "DeformedBracket", "Equivalence", "conjugate",
                    "jacobi_defect", "parse_deformation",
                    "render_deformation", "trivialize"],
}

PROBE = """\
import sys
{body}
print(" ".join(sorted(m for m in sys.modules if m.startswith("wittcoh"))))
"""


def loaded_after(body):
    """Short names of the wittcoh modules a fresh interpreter holds after `body`."""
    path = [SRC, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    done = subprocess.run([sys.executable, "-c", PROBE.format(body=body)], env=env,
                          capture_output=True, text=True, check=True)
    last = done.stdout.splitlines()[-1]
    return {m.partition(".")[2] or m for m in last.split()}


def loaded_by(*argv):
    body = f"from wittcoh.cli import main\nassert main({list(argv)!r}) == 0"
    return loaded_after(body)


def test_import_wittcoh_loads_no_layer():
    assert loaded_after("import wittcoh") == {"wittcoh"}


def test_jacobi_loads_only_the_algebra():
    assert loaded_by("jacobi", "--algebra", "virasoro", "--window=-4:4") == {
        "wittcoh", "cli", "algebra", "errors"}


def test_replay_loads_no_cochain_layer():
    assert loaded_by("replay", "--K", "8") == {"wittcoh", "cli", "algebra", "errors",
                                               "linalg", "replay"}


@pytest.mark.parametrize("argv", [
    ("cohomology", "--window=-6:6", "--margin", "2", "--expect", "0"),
    ("central-extension", "--window=-6:6", "--margin", "2", "--expect", "1"),
])
def test_cohomology_loads_neither_replay_nor_deformation(argv):
    assert loaded_by(*argv) == {"wittcoh", "cli", "algebra", "errors", "linalg",
                                "cochains", "cohomology"}


def test_cohomology_of_a_loaded_table_loads_deformation_for_its_jacobi_check(tmp_path):
    table = tmp_path / "witt.alg"
    table.write_text(dump_algebra(make_witt(), Window(-6, 6)))
    assert loaded_by("cohomology", "--algebra", str(table), "--window=-6:6", "--margin", "2",
                     "--expect", "0") == {"wittcoh", "cli", "algebra", "errors", "linalg",
                                          "cochains", "cohomology", "deformation"}


def test_deform_does_not_load_replay(tmp_path):
    doc = tmp_path / "doc.txt"
    doc.write_text("algebra: witt\norder: 1\nwindow: -8:8\nlayer: 1\n")
    assert loaded_by("deform", "--file", str(doc), "--expect", "trivial") == {
        "wittcoh", "cli", "algebra", "errors", "linalg", "cochains", "cohomology",
        "deformation"}


def test_public_names_are_unchanged():
    assert wittcoh.__all__ == [name for names in PUBLIC.values() for name in names]
    assert wittcoh.__version__ == "0.1.0"


def test_each_public_name_is_its_home_modules_attribute():
    for home, names in PUBLIC.items():
        module = importlib.import_module(f"wittcoh.{home}")
        for name in names:
            assert getattr(wittcoh, name) is getattr(module, name), name


def test_public_names_follow_a_patched_home(monkeypatch):
    import wittcoh.cohomology

    sentinel = object()
    monkeypatch.setattr(wittcoh.cohomology, "cohomology_dim", sentinel)
    assert wittcoh.cohomology_dim is sentinel


def test_dir_and_star_import_list_every_public_name():
    assert set(wittcoh.__all__) <= set(dir(wittcoh))
    namespace = {}
    exec("from wittcoh import *", namespace)
    assert set(wittcoh.__all__) <= set(namespace)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        wittcoh.frobnicate
    assert not hasattr(wittcoh, "Element")
