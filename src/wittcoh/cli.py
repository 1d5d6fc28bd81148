"""Command line front end.

Subcommands:

    cohomology         windowed H^q_d with stable-dimension filtering
    central-extension  H^2 with trivial coefficients in weight 0
    replay             the symbolic diagonal-recurrence replay
    jacobi             Jacobi certification of a bracket on a window
    deform             defect report / trivialization of a deformation document

Each handler imports the layers it uses when it runs, so a short run does not
pay for loading the others.

Exit codes: 0 success (and expectation met when --expect is given),
1 verification mismatch, 2 usage or configuration error, 3 internal
contradiction.  Every number in the output is an exact rational rendered as
p/q; nothing is ever printed through floating point.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import BUILTIN, check_jacobi, load_algebra, parse_rational, parse_window
from .errors import BoundaryError, ConfigError, ContradictionError, FormatError, NotACocycleError

OUTPUT_DIR_ENV = "WITTCOH_OUTPUT_DIR"


def _read(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path!r}: {exc}") from None


def _resolve_algebra(selector: str):
    if selector in BUILTIN:
        return BUILTIN[selector]()
    return load_algebra(_read(selector, "algebra"))


def emit_report(report, fmt: str) -> str:
    """Deterministic serialization of a `cohomology.CohomologyReport`."""
    if fmt == "json":
        return json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        lines = ["window,dim_stable"]
        for window, dim in report.stabilization:
            lines.append(f"{window.lo}:{window.hi},{dim}")
        return "\n".join(lines) + "\n"
    fields = [("algebra", report.algebra), ("coefficients", report.coeffs),
              ("degree", report.degree), ("weight", report.weight), ("window", report.window),
              ("margin", report.margin), ("dim_cocycles", report.dim_cocycles),
              ("dim_coboundaries", report.dim_coboundaries), ("dim_stable", report.dim_stable),
              ("omitted_triples", report.omitted_triples)]
    if fmt == "markdown":
        lines = ["| field | value |", "|---|---|"] + [f"| {k} | {v} |" for k, v in fields]
        return "\n".join(lines) + "\n"
    if fmt == "text":
        lines = [f"{k}: {v}" for k, v in fields] + ["stabilization: " + "; ".join(
            f"{w} -> {n}" for w, n in report.stabilization)]
        for rep in report.representatives:
            lines.append("representative:")
            for t in sorted(rep.entries):
                lines.append(f"  {t} -> {rep.entries[t]}")
        return "\n".join(lines) + "\n"
    raise ConfigError(f"unsupported format {fmt!r}")


def _output_file(path: str | None) -> str | None:
    """The file an --output value names, under $WITTCOH_OUTPUT_DIR when that is set and
    the value is relative; None for standard output."""
    if path is None or path == "-":
        return None
    outdir = os.environ.get(OUTPUT_DIR_ENV)
    return os.path.join(outdir, path) if outdir and not os.path.isabs(path) else path


def _write(text: str, path: str | None, mode: str = "w"):
    target = _output_file(path)
    if target is None:
        sys.stdout.write(text)
        return
    try:
        with open(target, mode, encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {target!r}: {exc}") from None


def _check_output(path: str | None):
    """Refuse an --output file that cannot be written before any work is done.  The file
    is opened for appending, which truncates nothing, and removed again if that made it,
    so a run that fails later leaves no file behind."""
    target = _output_file(path)
    if target is not None:
        made = not os.path.lexists(target)
        _write("", path, mode="a")
        if made:
            os.remove(target)


def _expect(what: str, got: int, want: int | None) -> int:
    """The exit code of an --expect check: 1, with a note on stderr, when `want`
    is given and differs from `got`; 0 otherwise."""
    if want is None or got == want:
        return 0
    print(f"expectation failed: {what} = {got}, expected {want}", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wittcoh",
        description="Exact windowed Lie-algebra cohomology and rigidity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    coh = sub.add_parser("cohomology", help="windowed H^q_d report")
    coh.add_argument("--algebra", default="witt",
                     help="witt, virasoro, or a structure-constants file")
    coh.add_argument("--degree", type=int, default=2)
    coh.add_argument("--weight", type=int, default=0)
    coh.add_argument("--window", default="-12:12", help="lo:hi (use --window=-12:12)")
    coh.add_argument("--margin", type=int, default=4)
    coh.add_argument("--coefficients", choices=("adjoint", "trivial"), default="adjoint")
    coh.add_argument("--stabilize", default=None,
                     help="comma-separated windows, e.g. -8:8,-10:10,-12:12")
    coh.add_argument("--expect", type=int, default=None,
                     help="exit 0 iff dim_stable equals this value")
    coh.add_argument("--format", default="text", choices=("json", "csv", "markdown", "text"))
    coh.add_argument("--output", default=None)

    cen = sub.add_parser("central-extension", help="H^2 with trivial coefficients")
    cen.add_argument("--window", default="-10:10")
    cen.add_argument("--margin", type=int, default=3)
    cen.add_argument("--expect", type=int, default=None)
    cen.add_argument("--format", default="text", choices=("json", "csv", "markdown", "text"))
    cen.add_argument("--output", default=None)

    rep = sub.add_parser("replay", help="symbolic diagonal-recurrence replay")
    rep.add_argument("--K", type=int, default=12, help="table window half-width")
    rep.add_argument("--buffer", type=int, default=3,
                     help="solve unknowns a_k for |k| <= K - buffer")
    rep.add_argument("--emit-table", action="store_true",
                     help="print the markdown fact table (pre-recurrence stage)")
    rep.add_argument("--emit-log", action="store_true", help="print the derivation log")
    rep.add_argument("--expect", type=int, default=None,
                     help="exit 0 iff the solution-space dimension equals this")
    rep.add_argument("--inject-relation", default=None, metavar="K=V",
                     help="audit: add the fake relation a_K = V, for an a_K a relation reads or a "
                     "fixed a_-2 = a_1 = a_2 = 0; write a negative K as --inject-relation=-2=1")
    rep.add_argument("--output", default=None)

    jac = sub.add_parser("jacobi", help="Jacobi certification on a window")
    jac.add_argument("--algebra", default="witt")
    jac.add_argument("--window", default="-15:15")
    jac.add_argument("--output", default=None)

    dfm = sub.add_parser("deform", help="defect report and trivialization verdict")
    dfm.add_argument("--file", required=True, help="deformation document")
    dfm.add_argument("--margin", type=int, default=4)
    dfm.add_argument("--algebra-file", default=None,
                     help="structure-constants file resolving the document's algebra name")
    dfm.add_argument("--expect", choices=("trivial", "obstructed"), default=None)
    dfm.add_argument("--output", default=None)

    return parser


def _cmd_cohomology(args) -> int:
    from .cohomology import stability_scan

    alg = _resolve_algebra(args.algebra)
    texts = [args.window] if args.stabilize is None else args.stabilize.split(",")
    report = stability_scan(alg, args.degree, args.weight, [parse_window(w) for w in texts],
                            args.margin, coeffs=args.coefficients)
    if args.algebra not in BUILTIN:
        # every count assumes delta o delta = 0 on the brackets the window's delta reads:
        # order 0 of jacobi_defect, the check trivialize runs, on each window
        from .deformation import DeformedBracket, jacobi_defect

        for window, _ in report.stabilization:
            order0 = jacobi_defect(DeformedBracket.trivial(alg, window, 0), window).orders[0]
            if not order0.clean:
                raise ConfigError(f"{alg.name} fails the Jacobi identity at {order0.triple}")
    _write(emit_report(report, args.format), args.output)
    return _expect("dim_stable", report.dim_stable, args.expect)


def _cmd_central(args) -> int:
    from .cohomology import central_extension_dim

    report = central_extension_dim(parse_window(args.window), args.margin)
    _write(emit_report(report, args.format), args.output)
    return _expect("dim_stable", report.dim_stable, args.expect)


def _parse_injection(text: str):
    """'K=V' as (label, k, v) with k an int and v a rational; ConfigError otherwise."""
    key, sep, value = (part.strip() for part in text.partition("="))
    try:
        if sep:
            return f"injected[a_{key}={value}]", int(key), parse_rational(value)
    except (ValueError, FormatError):
        pass
    raise ConfigError("--inject-relation wants K=V with an integer K and a rational V, "
                      f"got {text!r}")


def _cmd_replay(args) -> int:
    from .replay import SymbolicValue, check_buffer, final_solve, run_replay

    injected = _parse_injection(args.inject_relation) if args.inject_relation else None
    if injected and abs(injected[1]) > args.K:
        raise ConfigError(f"--inject-relation names a_{injected[1]}, but the table's "
                          f"unknowns are a_k with |k| <= K = {args.K}")
    check_buffer(args.K, args.buffer)
    result = run_replay(K=args.K, buffer=args.buffer)
    verdict = result.verdict
    if injected:
        label, k, v = injected
        rels = result.relations
        # c_{2,k} is a_k, and the table holds the fixed a_-2 = a_1 = a_2 = 0
        a_k = result.table.value(2, k)
        if not a_k.is_zero and all(k not in dict(r.form.coeffs) for r in rels.relations):
            raise ConfigError(f"--inject-relation: no relation reads a_{k} at K = {args.K}")
        rels.add(label, "Diag", a_k - SymbolicValue.constant(v))
        verdict = final_solve(result.table, rels, buffer=args.buffer)
    chunks = []
    if args.emit_table:
        chunks.append(result.section5_table)
    if args.emit_log:
        chunks.append(result.table.log_text())
    chunks.append(json.dumps(verdict.to_json_dict(), sort_keys=True, indent=2) + "\n")
    chunks.append(str(verdict) + "\n")
    _write("\n".join(chunks), args.output)
    return _expect("dimension", verdict.dimension, args.expect)


def _cmd_jacobi(args) -> int:
    alg = _resolve_algebra(args.algebra)
    window = parse_window(args.window)
    report = check_jacobi(alg, window)
    _write(str(report) + "\n", args.output)
    return 0 if report.is_clean else 1


def _cmd_deform(args) -> int:
    from .deformation import parse_deformation, trivialize

    doc = _read(args.file, "deformation")
    loader = None
    if args.algebra_file:
        custom = _resolve_algebra(args.algebra_file)

        def loader(name):
            if name != custom.name:
                raise FormatError(
                    f"document names algebra {name!r} but {args.algebra_file} "
                    f"defines {custom.name!r}")
            return custom

    d = parse_deformation(doc, algebra_loader=loader)
    try:
        result = trivialize(d, d.window, args.margin)
        lines = [str(result.report), str(result)]
        outcome = "trivial" if result.trivialized else "obstructed"
    except NotACocycleError as exc:  # trivialize's Jacobi check found a defect
        lines = [str(exc.report)]
        outcome = "defective"
    _write("\n".join(lines) + "\n", args.output)
    if args.expect is not None:
        return 0 if outcome == args.expect else 1
    return 0 if outcome == "trivial" else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    handlers = {
        "cohomology": _cmd_cohomology,
        "central-extension": _cmd_central,
        "replay": _cmd_replay,
        "jacobi": _cmd_jacobi,
        "deform": _cmd_deform,
    }
    try:
        _check_output(args.output)
        return handlers[args.command](args)
    except (ConfigError, FormatError, BoundaryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ContradictionError as exc:
        print(f"contradiction: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
