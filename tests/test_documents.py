"""The one document grammar, checked through both parsers that read it."""

import pytest

from wittcoh.algebra import Window, dump_algebra, load_algebra
from wittcoh.deformation import parse_deformation, render_deformation
from wittcoh.errors import FormatError

# (parser, renderer, a valid document whose last line is its only record,
#  that record's left side); each record carries the coefficient 1/2
FORMATS = {
    "algebra": (load_algebra, lambda alg: dump_algebra(alg, Window(-2, 2)),
                "name: x\ngraded: yes\ncentral: no\n-1 1 -> 0:1/2\n", "-1 1"),
    "deformation": (parse_deformation, render_deformation,
                    "algebra: witt\norder: 1\nwindow: -4:4\nlayer: 1\n(-1,1) -> 0:1/2\n",
                    "(-1,1)"),
}


def variant(case, text, lhs):
    """(mutated document, expected FormatError pattern) for one grammar case."""
    lines = text.splitlines()
    first_key = lines[0].partition(":")[0]
    record = len(lines)
    if case == "unknown header":
        return "colour: red\n" + text, r"^line 1: unrecognized line 'colour: red'$"
    if case == "duplicate header":
        return text + lines[0] + "\n", rf"^line {record + 1}: duplicate header '{first_key}'$"
    if case == "missing header":
        return "\n".join(lines[1:]) + "\n", rf"^missing header line '{first_key}'$"
    if case == "bad rational":
        return text.replace("1/2", "1/0"), rf"^line {record}: bad rational '1/0'$"
    if case == "malformed left side":
        return text.replace(lhs + " ->", "x ->"), rf"^line {record}: "
    assert case == "comments and blank lines"
    noise = "# a comment -> not a record\n\n   \n  # indented comment\n"
    return noise + "".join(f"  {line}\n{noise}" for line in lines), None


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("case", ["unknown header", "duplicate header", "missing header",
                                  "bad rational", "malformed left side",
                                  "comments and blank lines"])
def test_every_format_reads_one_line_grammar(fmt, case):
    parse, render, text, lhs = FORMATS[fmt]
    doc, error = variant(case, text, lhs)
    if error is None:
        assert render(parse(doc)) == render(parse(text))
        return
    with pytest.raises(FormatError, match=error):
        parse(doc)
