import json
from itertools import product
from pathlib import Path

import pytest

from wittcoh import replay
from wittcoh.cli import emit_report, main
from wittcoh.cochains import ADJOINT, Cochain, MixedCochain, differential
from wittcoh.cohomology import central_extension_dim, cohomology_by_elimination
from wittcoh.algebra import Window, dump_algebra, load_algebra, make_witt
from wittcoh.deformation import DeformedBracket, render_deformation
from wittcoh.errors import ConfigError

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cohomology_expect_met(capsys):
    code, out, _ = run(capsys, "cohomology", "--algebra", "witt", "--degree", "2",
                       "--weight", "0", "--window=-12:12", "--margin", "4", "--expect", "0")
    assert code == 0
    assert "dim_stable: 0" in out


def test_cohomology_weight_three_expect_met(capsys):
    code, out, _ = run(capsys, "cohomology", "--algebra", "witt", "--degree", "2",
                       "--weight", "3", "--window=-12:12", "--margin", "4", "--expect", "0")
    assert code == 0


def test_central_extension_expect_met(capsys):
    code, out, _ = run(capsys, "central-extension", "--window=-10:10", "--expect", "1")
    assert code == 0
    assert "dim_stable: 1" in out


def test_replay_expect_met(capsys):
    code, out, _ = run(capsys, "replay", "--K", "12", "--expect", "0")
    assert code == 0
    assert "all a_k = 0" in out


def test_mutated_expectation_fails(capsys):
    code, _, err = run(capsys, "cohomology", "--algebra", "witt", "--degree", "2",
                       "--weight", "0", "--window=-12:12", "--margin", "4", "--expect", "1")
    assert code == 1
    assert "expectation failed" in err
    code, _, _ = run(capsys, "central-extension", "--window=-10:10", "--expect", "0")
    assert code == 1
    code, _, _ = run(capsys, "replay", "--K", "12", "--expect", "2")
    assert code == 1


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "cohomology", "--window=3:12")[0] == 2       # does not straddle 0
    assert run(capsys, "cohomology", "--window=-3:3", "--margin", "4")[0] == 2
    assert run(capsys, "cohomology", "--algebra", "/nonexistent/file")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


def test_stabilize_windows_must_straddle_zero(capsys):
    code, _, err = run(capsys, "cohomology", "--stabilize=1:12", "--margin", "2")
    assert code == 2
    assert "straddle" in err


def test_stabilize_ignores_the_window_option(capsys):
    code, out, _ = run(capsys, "cohomology", "--stabilize=-8:8", "--window=3:12", "--expect", "0")
    assert code == 0
    assert "stabilization: [-8,8] -> 0" in out


def test_empty_stabilize_list_exits_two(capsys):
    # an empty --stabilize= must not fall back to --window
    code, out, err = run(capsys, "cohomology", "--stabilize=", "--window=-8:8", "--expect", "0")
    assert (code, out) == (2, "")
    assert "bad window ''" in err


@pytest.mark.parametrize("extra", [[], ["--inject-relation", "3=0"]], ids=["plain", "injected"])
@pytest.mark.parametrize("buffer", ["20", "-3", "13"])
def test_replay_buffer_outside_the_table_exits_two(capsys, buffer, extra):
    # K - buffer < 0 certifies nothing, and buffer < 0 reaches past |k| <= K
    code, out, err = run(capsys, "replay", "--K", "12", f"--buffer={buffer}", "--expect", "0",
                         *extra)
    assert (code, out) == (2, "")
    assert err == f"error: buffer must satisfy 0 <= buffer <= K = 12, got {buffer}\n"


def test_replay_buffer_bounds_are_inclusive(capsys):
    for buffer in ("0", "12"):
        assert run(capsys, "replay", "--K", "12", "--buffer", buffer)[0] == 0


def test_replay_buffer_is_checked_before_the_replay_runs(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(replay, "run_replay", lambda **kwargs: calls.append(kwargs))
    code, out, err = run(capsys, "replay", "--K", "30", "--buffer", "40")
    assert (code, out, calls) == (2, "", [])
    assert err == "error: buffer must satisfy 0 <= buffer <= K = 30, got 40\n"


def test_unknown_flag_exits_two(capsys):
    assert main(["cohomology", "--frobnicate"]) == 2


def test_contradiction_exits_three(capsys):
    code, _, err = run(capsys, "replay", "--K", "12", "--inject-relation", "3=1")
    assert code == 3
    assert "contradiction" in err


def test_contradiction_names_the_relation_and_its_constant(capsys):
    code, out, err = run(capsys, "replay", "--K", "10", "--inject-relation", "3=1")
    assert (code, out) == (3, "")
    assert err == "contradiction: relation injected[a_3=1] [Diag] reduces to -1 = 0\n"


@pytest.mark.parametrize("relation", ["3=1/0", "x=1", "5"])
def test_malformed_injected_relation_exits_two(capsys, relation):
    code, _, err = run(capsys, "replay", "--K", "8", "--inject-relation", relation)
    assert code == 2
    assert "--inject-relation" in err and relation in err
    assert len(err.splitlines()) == 1


def test_injected_relation_beyond_the_table_exits_two(capsys):
    # a_40 appears in no relation at K = 12, so the audit could never fail
    code, out, err = run(capsys, "replay", "--K", "12", "--inject-relation", "40=1/2")
    assert (code, out) == (2, "")
    assert "a_40" in err and "|k| <= K = 12" in err
    assert run(capsys, "replay", "--K", "12", "--inject-relation=-12=0")[0] == 0


@pytest.mark.parametrize("K, k, v", [("12", "11", "1"), ("12", "12", "1"), ("20", "19", "0")])
def test_injected_unknown_that_no_relation_reads_exits_two(capsys, K, k, v):
    # a_k lies in the table, yet no relation reads it, so the audit could never fail
    code, out, err = run(capsys, "replay", "--K", K, "--inject-relation", f"{k}={v}")
    assert (code, out) == (2, "")
    assert err == f"error: --inject-relation: no relation reads a_{k} at K = {K}\n"
    # a_-k sits as far out, but a relation reads it
    code, out, err = run(capsys, "replay", "--K", K, f"--inject-relation=-{k}=1")
    assert (code, out) == (3, "")
    assert err == f"contradiction: relation injected[a_-{k}=1] [Diag] reduces to -1 = 0\n"


@pytest.mark.parametrize("k", ["-2", "1", "2"])
def test_injecting_a_nonzero_fixed_unknown_is_a_contradiction(capsys, k):
    # the paper fixes a_-2 = a_1 = a_2 = 0: they appear in no relation, yet the table holds them
    code, out, err = run(capsys, "replay", "--K", "12", f"--inject-relation={k}=1")
    assert (code, out) == (3, "")
    assert err == f"contradiction: relation injected[a_{k}=1] [Diag] reduces to -1 = 0\n"
    assert run(capsys, "replay", "--K", "12", f"--inject-relation={k}=0")[0] == 0


def test_a_negative_injected_key_needs_the_equals_form(capsys, monkeypatch):
    # argparse reads a bare -2=1 as a flag, so the help says to write --inject-relation=-2=1
    code, out, err = run(capsys, "replay", "--K", "12", "--inject-relation", "-2=1")
    assert (code, out) == (2, "")
    assert "expected one argument" in err
    monkeypatch.setenv("COLUMNS", "200")  # help lines wrap at hyphens on a narrow terminal
    code, out, _ = run(capsys, "replay", "--help")
    assert code == 0 and "--inject-relation=-2=1" in out


CENTRAL_REFUSAL = ("error: differential needs bracket values inside the indexed span; "
                   "central targets are not supported as cochain arguments\n")


def test_virasoro_cohomology_is_rejected_for_its_central_targets(capsys):
    assert run(capsys, "cohomology", "--algebra", "virasoro", "--window=-6:6",
               "--margin", "2") == (2, "", CENTRAL_REFUSAL)
    # trivial coefficients at d != 0: delta_2 reads [e_{-n}, e_n], whose value holds c
    assert run(capsys, "cohomology", "--algebra", "virasoro", "--degree", "2", "--weight", "3",
               "--coefficients", "trivial", "--window=-8:8", "--margin", "3") == (
        2, "", CENTRAL_REFUSAL)


def test_virasoro_adjoint_degree_zero_is_refused(capsys):
    # H^0_0(Vir; Vir) is the center, spanned by c, which adjoint cochains cannot see
    args = ("cohomology", "--algebra", "virasoro", "--degree", "0", "--weight", "0",
            "--margin", "2", "--expect", "0")
    assert run(capsys, *args, "--window=-8:8") == (2, "", CENTRAL_REFUSAL)
    # the window is checked first, so a bad window keeps its own message
    assert run(capsys, *args, "--window=1:8") == (
        2, "", "error: window [1,8] must straddle zero (lo < 0 < hi)\n")


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unwritable_output_exits_two(capsys, tmp_path, where):
    path = tmp_path if where == "directory" else tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, "jacobi", "--window=-4:4", "--output", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write output file {str(path)!r}: ")


def _unreachable(**kwargs):
    raise AssertionError("the replay ran")


def test_unwritable_output_is_refused_before_the_replay_runs(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(replay, "run_replay", _unreachable)
    path = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, "replay", "--K", "30", "--output", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write output file {str(path)!r}: ")


def test_a_run_that_fails_after_the_output_check_leaves_no_file(capsys, tmp_path, monkeypatch):
    def refuse(**kwargs):
        raise ConfigError("refused")

    monkeypatch.setattr(replay, "run_replay", refuse)
    new, old = tmp_path / "new.txt", tmp_path / "old.txt"
    old.write_text("kept\n")
    for path in (new, old):
        assert run(capsys, "replay", "--output", str(path)) == (2, "", "error: refused\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.txt"]
    assert old.read_text() == "kept\n"


@pytest.mark.parametrize("coeffs", ["adjoint", "trivial"])
def test_ungraded_bracket_cohomology_exits_two(capsys, tmp_path, coeffs):
    alg = tmp_path / "skew.alg"
    alg.write_text("name: skew\ngraded: no\ncentral: no\n-1 2 -> 2:1\n1 2 -> 3:1\n")
    code, out, err = run(capsys, "cohomology", "--algebra", str(alg), "--degree", "2",
                         "--weight", "-1", "--window=-6:6", "--margin", "2",
                         "--coefficients", coeffs)
    assert (code, out) == (2, "")
    assert err.startswith("error: bracket is not graded: [e_")


def test_cohomology_refuses_a_loaded_bracket_that_is_not_a_lie_bracket(capsys, tmp_path):
    # a Witt table cut off at the window passes; one changed constant does not
    text = dump_algebra(make_witt(), Window(-8, 8))
    good, bad = tmp_path / "witt.alg", tmp_path / "perturbed.alg"
    good.write_text(text)
    bad.write_text(text.replace("\n1 2 -> 3:1\n", "\n1 2 -> 3:2\n"))
    args = ("cohomology", "--degree", "2", "--weight", "1", "--window=-8:8", "--margin", "2",
            "--format", "json", "--algebra")
    assert run(capsys, *args, str(good)) == run(capsys, *args, "witt")
    code, out, err = run(capsys, *args, str(bad))
    assert (code, out) == (2, "")
    assert err == "error: witt fails the Jacobi identity at (-8, 1, 2)\n"


def witt_cut_off(h: int) -> str:
    """The Witt table on [-h,h] listing only the pairs whose bracket stays in [-h,h]."""
    return "\n".join(["name: witt", "graded: yes", "central: no"] + [
        f"{i} {j} -> {i + j}:{j - i}" for i in range(-h, h + 1) for j in range(i + 1, h + 1)
        if -h <= i + j <= h]) + "\n"


def test_cohomology_refuses_a_table_cut_off_at_the_window(capsys, tmp_path):
    # every triple of degree sums in [-8,8] is clean, yet delta reads [e_-8, e_-7] as 0
    cut = tmp_path / "trunc8.alg"
    cut.write_text(witt_cut_off(8))
    code, out, err = run(capsys, "cohomology", "--algebra", str(cut), "--degree", "2",
                         "--weight=-2", "--window=-8:8", "--margin", "4")
    assert (code, out) == (2, "")
    assert err == "error: witt fails the Jacobi identity at (-8, -7, 7)\n"


def test_stabilize_checks_every_window_of_a_loaded_table(capsys, tmp_path):
    dumped = tmp_path / "witt6.alg"
    dumped.write_text(dump_algebra(make_witt(), Window(-6, 6)))
    args = ("cohomology", "--algebra", str(dumped), "--weight", "1", "--margin", "2")
    assert run(capsys, *args, "--stabilize=-6:6")[0] == 0
    code, out, err = run(capsys, *args, "--stabilize=-6:6,-8:8")
    assert (code, out) == (2, "")
    assert err == "error: witt fails the Jacobi identity at (-6, -2, 0)\n"


def test_loaded_tables_the_guard_accepts_agree_with_the_elimination(capsys, tmp_path):
    tables = {f"dump{h}": dump_algebra(make_witt(), Window(-h, h)) for h in (6, 8, 10)}
    tables.update({f"cut{h}": witt_cut_off(h) for h in (6, 8)})
    accepted = set()
    for name, text in tables.items():
        path = tmp_path / f"{name}.alg"
        path.write_text(text)
        alg = load_algebra(text)
        for h, q, d in product((6, 8), (1, 2), range(-3, 4)):
            code, out, err = run(capsys, "cohomology", "--algebra", str(path), "--degree", str(q),
                                 f"--weight={d}", f"--window=-{h}:{h}", "--margin", "2",
                                 "--format", "json")
            if code:
                assert (code, out) == (2, "") and "fails the Jacobi identity" in err
                continue
            accepted.add((name, h))
            got = json.loads(out)
            want = cohomology_by_elimination(alg, q, d, Window(-h, h), 2)
            assert (got["dim_cocycles"], got["dim_stable"], got["omitted_triples"]) == (
                want.dim_cocycles, want.dim_stable, want.omitted_triples), (name, h, q, d)
    # a dump is a Lie bracket on every window inside it; a cut-off table on none
    assert accepted == {("dump6", 6), ("dump8", 6), ("dump8", 8), ("dump10", 6), ("dump10", 8)}


def test_jacobi_clean_and_corrupt(capsys, tmp_path):
    assert run(capsys, "jacobi", "--algebra", "witt", "--window=-8:8")[0] == 0
    assert run(capsys, "jacobi", "--algebra", "virasoro", "--window=-8:8")[0] == 0
    bad = tmp_path / "bad.alg"
    # [e0,e1] = e1 and [e1,e2] = e3 is not a Lie bracket on [0,3]
    bad.write_text("name: broken\ngraded: no\ncentral: no\n0 1 -> 1:1\n1 2 -> 3:1\n0 2 -> 2:1\n")
    code, out, _ = run(capsys, "jacobi", "--algebra", str(bad), "--window=0:3")
    assert code == 1
    assert "defect" in out


def test_replay_golden_table(capsys):
    code, out, _ = run(capsys, "replay", "--K", "12", "--emit-table")
    assert code == 0
    golden = (GOLDEN / "replay_table.md").read_text()
    assert golden in out


def test_replay_golden_log(capsys):
    code, out, _ = run(capsys, "replay", "--K", "12", "--emit-log")
    assert code == 0
    golden = (GOLDEN / "derivation_log.txt").read_text()
    assert golden in out


def test_deform_trivial_and_defective(capsys, tmp_path):
    doc = tmp_path / "d.txt"
    doc.write_text(
        "algebra: witt\norder: 1\nwindow: -8:8\nlayer: 1\n"
        "(-2,3) -> 1:5, 2:1\n(1,2) -> 3:-2, 4:1\n"
    )
    # that layer is not a cocycle, so the deformation is defective
    code, out, _ = run(capsys, "deform", "--file", str(doc), "--expect", "trivial")
    assert code == 1
    # a genuine coboundary layer trivializes
    from random import Random

    from wittcoh.algebra import make_witt
    from wittcoh.cochains import MixedCochain, differential
    from wittcoh.deformation import DeformedBracket, render_deformation

    import sys
    sys.path.insert(0, str(Path(__file__).parent))
    from helpers import random_cochain

    rng = Random(12)
    w = Window(-10, 10)
    b = random_cochain(rng, 1, 0, w, fill=0.4)
    mu1 = MixedCochain.from_cochain(differential(make_witt(), b))
    d = DeformedBracket(1, make_witt(), w, (mu1,))
    good = tmp_path / "good.txt"
    good.write_text(render_deformation(d))
    code, out, _ = run(capsys, "deform", "--file", str(good), "--margin", "3",
                       "--expect", "trivial")
    assert code == 0
    assert "trivialized" in out


def test_emit_report_determinism_and_roundtrip():
    report = central_extension_dim(Window(-8, 8), 3)
    a = emit_report(report, "json")
    b = emit_report(report, "json")
    assert a == b
    assert json.loads(a) == report.to_json_dict()


def test_emit_report_csv_one_row_per_window():
    from wittcoh.algebra import make_witt
    from wittcoh.cohomology import stability_scan

    report = stability_scan(make_witt(), 2, 0,
                            [Window(-8, 8), Window(-10, 10)], 3)
    csv = emit_report(report, "csv")
    lines = csv.strip().splitlines()
    assert lines[0] == "window,dim_stable"
    assert lines[1:] == ["-8:8,0", "-10:10,0"]


def test_no_floats_in_output(capsys):
    for argv in (
        ["central-extension", "--window=-8:8", "--margin", "3", "--format", "json"],
        ["replay", "--K", "12", "--emit-table"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        import re

        assert not re.search(r"\d+\.\d+", out)


def test_output_dir_env_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("WITTCOH_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run(capsys, "jacobi", "--algebra", "witt", "--window=-4:4",
                       "--output", "report.txt")
    assert code == 0
    assert (tmp_path / "report.txt").read_text().startswith("jacobi[witt")


def test_deform_obstructed_custom_algebra(capsys, tmp_path):
    alg = tmp_path / "abelian.alg"
    alg.write_text("name: abelian-plane\ngraded: yes\ncentral: no\n")
    doc = tmp_path / "nonabelian.txt"
    doc.write_text(
        "algebra: abelian-plane\norder: 1\nwindow: 0:1\nlayer: 1\n(0,1) -> 1:1\n"
    )
    code, out, _ = run(capsys, "deform", "--file", str(doc), "--algebra-file", str(alg),
                       "--margin", "0", "--expect", "obstructed")
    assert code == 0
    assert "obstructed at order 1" in out
    code, _, _ = run(capsys, "deform", "--file", str(doc), "--algebra-file", str(alg),
                     "--margin", "0", "--expect", "trivial")
    assert code == 1
    # a layer whose weight exceeds the margin is a configuration error
    heavy = tmp_path / "heavy.txt"
    heavy.write_text("algebra: abelian-plane\norder: 1\nwindow: 0:4\nlayer: 1\n(0,1) -> 4:1\n")
    code, _, err = run(capsys, "deform", "--file", str(heavy), "--algebra-file", str(alg),
                       "--margin", "2")
    assert code == 2
    assert "weight 3 component" in err


W8 = Window(-8, 8)
DEFORM_DOCS = {
    # the coboundary of e_1 -> e_1
    "trivial": render_deformation(DeformedBracket(1, make_witt(), W8, (MixedCochain.from_cochain(
        differential(make_witt(), Cochain(1, 0, W8, ADJOINT, {(1,): 1}))),))),
    "obstructed": "algebra: abelian-plane\norder: 1\nwindow: 0:1\nlayer: 1\n(0,1) -> 1:1\n",
    "defective": "algebra: witt\norder: 1\nwindow: -8:8\nlayer: 1\n(1,2) -> 3:1\n",
}


@pytest.mark.parametrize("outcome", sorted(DEFORM_DOCS))
def test_deform_runs_the_jacobi_check_once(capsys, tmp_path, monkeypatch, outcome):
    import wittcoh.deformation as deformation

    calls = []
    real = deformation._jacobi  # behind jacobi_defect and trivialize's own check

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(deformation, "_jacobi", counting)
    alg = tmp_path / "abelian.alg"
    alg.write_text("name: abelian-plane\ngraded: yes\ncentral: no\n")
    doc = tmp_path / "doc.txt"
    doc.write_text(DEFORM_DOCS[outcome])
    extra = ["--algebra-file", str(alg), "--margin", "0"] if outcome == "obstructed" else []
    code, out, _ = run(capsys, "deform", "--file", str(doc), *extra)
    assert len(calls) == 1
    assert code == (0 if outcome == "trivial" else 1)
    assert out.startswith("jacobi defects on ")
    assert {"trivial": "trivialized:", "obstructed": "obstructed at order 1",
            "defective": "order 1: defect at"}[outcome] in out


def test_deform_margin_with_no_core_exits_two(capsys, tmp_path):
    doc = tmp_path / "doc.txt"
    doc.write_text(DEFORM_DOCS["trivial"])
    code, out, err = run(capsys, "deform", "--file", str(doc), "--margin", "9")
    assert (code, out) == (2, "")
    assert err.startswith("error: margin 9 leaves no core of the window [-8,8]")


def test_deform_algebra_file_name_mismatch(capsys, tmp_path):
    alg = tmp_path / "abelian.alg"
    alg.write_text("name: abelian-plane\ngraded: yes\ncentral: no\n")
    doc = tmp_path / "doc.txt"
    doc.write_text("algebra: other-name\norder: 1\nwindow: 0:1\nlayer: 1\n(0,1) -> 1:1\n")
    code, _, err = run(capsys, "deform", "--file", str(doc), "--algebra-file", str(alg))
    assert code == 2
    assert "error:" in err


def test_markdown_and_stabilize_formats(capsys):
    code, out, _ = run(capsys, "cohomology", "--window=-8:8", "--margin", "3",
                       "--stabilize=-8:8,-10:10", "--format", "markdown")
    assert code == 0
    assert "| dim_stable | 0 |" in out
