"""Command-line front end.

Five subcommands: ``transform`` applies a matrix to a sequence, ``check-class``
runs the mapping-class engine, ``dual`` probes generalized dual membership,
``regularity`` evaluates the limit-preservation triple, and ``basis`` prints a
column of the inverse triangle (a domain basis element) with a cross-check
against the generic inversion route.

Exit codes: 0 satisfied / success, 1 violated, 2 inconclusive, 3 usage or
computation errors.  Output is deterministic for a fixed command line: JSON is
emitted with sorted keys and no environment-dependent fields.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import __version__
from .conditions import DEFAULT_CLASS_N, CLASS_TOL, check_class, regularity_report
from .domains import basis_element
from .duality import dual_membership
from .errors import SeqspaceError, TruncationError
from .matrices import InverseTriangle, apply, inverse_of, invert_triangle, \
    matrix_from_spec
from .sequences import check_tol, make_sequence
from .verdicts import EXIT_CODES, Verdict


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the verdict codes claim 0..2, so
    usage errors are remapped to 3."""

    def error(self, message):
        self.exit(3, f"{self.prog}: error: {message}\n")


def _scalar_text(v, at: int) -> str:
    """The value at index ``at``: a Fraction reads "3/2", or plain "10"
    when its denominator is 1."""
    if isinstance(v, float):
        return repr(v)
    try:
        return str(v)
    except ValueError:      # past Python's digit limit for integer strings
        raise SeqspaceError(f"the exact value at index {at} has too many "
                            "digits to print; use --mode float") from None


def _scalar_json(v, at: int):
    if isinstance(v, float):
        return v
    text = _scalar_text(v, at)      # refuses a value past the digit limit
    return v if isinstance(v, int) else text


def _tolerance(text: str) -> float:
    """A finite, positive tolerance."""
    try:
        value = float(text)
        check_tol(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid tolerance {text!r}") from None
    except TruncationError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    return value


def build_parser() -> _Parser:
    p = _Parser(prog="seqspace",
                description="Sequence-space matrix domains: transforms, "
                            "mapping classes, duals, and bases.")
    p.add_argument("--version", action="version",
                   version=f"seqspace {__version__}")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    t = sub.add_parser("transform", help="apply a matrix to a sequence")
    t.add_argument("--matrix", required=True)
    t.add_argument("--seq", required=True)
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--mode", choices=("exact", "float"), default="exact")
    t.add_argument("--json", action="store_true")

    c = sub.add_parser("check-class",
                       help="decide whether a matrix maps one space into another")
    c.add_argument("--matrix", required=True)
    c.add_argument("--from", dest="from_space", required=True)
    c.add_argument("--to", dest="to_space", required=True)
    c.add_argument("--n", type=int, default=DEFAULT_CLASS_N)
    c.add_argument("--tol", type=_tolerance, default=CLASS_TOL)
    c.add_argument("--window", type=int, default=None)
    c.add_argument("--route", choices=("conditions", "oracle", "both"),
                   default="conditions")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--json", action="store_true")

    d = sub.add_parser("dual",
                       help="probe beta/gamma dual membership for a matrix domain")
    d.add_argument("--space", required=True)
    d.add_argument("--a", dest="a", required=True,
                   help="the scalar sequence paired against the domain")
    d.add_argument("--kind", choices=("beta", "gamma"), default="beta")
    d.add_argument("--n", type=int, default=None)
    d.add_argument("--tol", type=_tolerance, default=None)
    d.add_argument("--window", type=int, default=None)
    d.add_argument("--json", action="store_true")

    r = sub.add_parser("regularity",
                       help="evaluate the limit-preservation conditions")
    r.add_argument("--matrix", required=True)
    r.add_argument("--n", type=int, default=2000)
    r.add_argument("--tol", type=_tolerance, default=CLASS_TOL)
    r.add_argument("--window", type=int, default=None)
    r.add_argument("--json", action="store_true")

    b = sub.add_parser("basis",
                       help="print a domain basis element (inverse column)")
    b.add_argument("--matrix", required=True)
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--upto", type=int, default=None)
    b.add_argument("--json", action="store_true")
    return p


def _emit(payload: dict, as_json: bool, text_lines) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _run_transform(args) -> Optional[Verdict]:
    a = matrix_from_spec(args.matrix)
    x = make_sequence(args.seq)
    fv = apply(a, x, args.n, mode=args.mode)
    entries = fv.entries.tolist() if args.mode == "float" else fv.entries
    payload = {
        "command": "transform",
        "version": __version__,
        "matrix": a.describe(),
        "sequence": x.label,
        "n": args.n,
        "mode": args.mode,
        "values": [_scalar_json(v, k) for k, v in enumerate(entries, 1)],
    }
    lines = [f"{k}\t{_scalar_text(v, k)}" for k, v in enumerate(entries, 1)]
    if fv.overflow:
        payload["overflow_at"] = fv.overflow_index
        lines.append(f"# overflow at index {fv.overflow_index}")
    _emit(payload, args.json, lines)
    return None


def _run_check_class(args) -> Optional[Verdict]:
    report = check_class(args.matrix, args.from_space, args.to_space,
                         n=args.n, tol=args.tol, window=args.window,
                         route=args.route, seed=args.seed)
    payload = {"command": "check-class", "version": __version__}
    payload.update(report.to_dict())
    lines = [f"({report.from_space} : {report.to_space}) for "
             f"{payload['matrix']['name']}: {report.verdict}"]
    for rep in report.condition_reports:
        lines.append(f"  {rep.condition}: {rep.verdict} — {rep.note}")
    if report.row_pairing is not None:
        lines.append(f"  row-pairing: {report.row_pairing['verdict']}")
    if report.oracle is not None:
        lines.append(f"  oracle: {report.oracle.verdict} "
                     f"({report.oracle.decisive} decisive samples)")
        agree = report.routes_agree()
        if agree is not None:
            lines.append(f"  routes agree: {'yes' if agree else 'NO'}")
    _emit(payload, args.json, lines)
    return report.verdict


def _run_dual(args) -> Optional[Verdict]:
    report = dual_membership(args.a, args.space, kind=args.kind,
                             n=args.n, tol=args.tol, window=args.window)
    payload = {"command": "dual", "version": __version__}
    payload.update(report.to_dict())
    lines = [f"{args.kind}-dual of {report.space} for a = {args.a}: "
             f"{report.verdict}",
             f"  {report.note}"]
    _emit(payload, args.json, lines)
    return report.verdict


def _run_regularity(args) -> Optional[Verdict]:
    report = regularity_report(args.matrix, n=args.n, tol=args.tol,
                               window=args.window)
    payload = {"command": "regularity", "version": __version__,
               "matrix": matrix_from_spec(args.matrix).describe()}
    payload.update(report.to_dict())
    lines = [f"regularity of {payload['matrix']['name']}: {report.verdict}",
             f"  bounded-rows: {report.bounded_rows.verdict} "
             f"(sup observed {report.bounded_rows.observed})",
             f"  null-columns: {report.null_columns.verdict}",
             f"  row-sums -> 1: {report.row_sum_verdict} "
             f"(limit {report.row_sum_limit})"]
    _emit(payload, args.json, lines)
    return report.verdict


def _run_basis(args) -> Optional[Verdict]:
    a = matrix_from_spec(args.matrix)
    element = basis_element(a, args.k, upto=args.upto)
    closed = inverse_of(a)
    generic = (closed if isinstance(closed, InverseTriangle)
               else invert_triangle(a))
    delta = 0.0
    for row in element:
        diff = closed.entry(row, args.k) - generic.entry(row, args.k)
        delta = max(delta, abs(float(diff)))
    payload = {
        "command": "basis",
        "version": __version__,
        "matrix": a.describe(),
        "k": args.k,
        "entries": {str(r): _scalar_json(v, r)
                    for r, v in sorted(element.items())},
        "route_delta": delta,
        "closed_form_route": not isinstance(closed, InverseTriangle),
    }
    lines = [f"basis element {args.k} of the {a.name} domain:"]
    lines += [f"  row {r}: {_scalar_text(v, r)}"
              for r, v in sorted(element.items())]
    lines.append(f"  route delta vs generic inversion: {delta!r}")
    _emit(payload, args.json, lines)
    return None


_RUNNERS = {
    "transform": _run_transform,
    "check-class": _run_check_class,
    "dual": _run_dual,
    "regularity": _run_regularity,
    "basis": _run_basis,
}


_parser: Optional[_Parser] = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:  # built on first use, then kept for the process
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        verdict = _RUNNERS[args.command](args)
    except (SeqspaceError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # Exit codes 0..2 are verdicts, so a failure the package did not
        # anticipate must still leave with 3, not a traceback's 1.
        text = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {text}", file=sys.stderr)
        return 3
    if verdict is None:
        return 0
    return EXIT_CODES[verdict]


if __name__ == "__main__":
    sys.exit(main())
