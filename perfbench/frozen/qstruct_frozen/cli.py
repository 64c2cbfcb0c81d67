"""Command line front end: generate, fit, classify, verify.

All JSON the tool emits is canonical (sorted keys, rational strings, no
floats), so identical inputs produce byte-identical outputs. Timing goes to
stderr only, keeping the reports deterministic. The environment variable
QSTRUCT_NMAX caps every -N argument.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from qstruct_frozen import __version__
from qstruct_frozen.characterize import (
    DegenerateR1,
    PearsonViolated,
    RecurrenceViolated,
    aux_sequences,
    classify,
    pearson_check,
    pearson_data,
    verify_difference_system,
)
from qstruct_frozen.families import (
    FamilySpec,
    IrregularParameters,
    generate_ops,
    ops_to_json,
    ttrr_from_json,
    ttrr_to_json,
)
from qstruct_frozen.report import Check, Report
from qstruct_frozen.scalar import QContext, parse_rational
from qstruct_frozen.structure import (
    ExpansionMismatch,
    ResidualNonzero,
    fit_structure,
    five_term,
    verify_structure,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_NOT_CHARACTERIZED = 3

CHECK_NAMES = ("all", "structure", "system", "pearson", "five-term")


def _dump(payload, out_path: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _capped_n(requested: int) -> int:
    cap = os.environ.get("QSTRUCT_NMAX")
    if cap:
        return min(requested, int(cap))
    return requested


def _load_ttrr(path: str):
    with open(path) as fh:
        data = json.load(fh)
    return ttrr_from_json(data), data


def _family_spec(args) -> FamilySpec:
    params = []
    if args.family == "alsalam-chihara":
        if args.c is None or args.d is None:
            raise ValueError("alsalam-chihara requires --c and --d")
        params = [("c", parse_rational(args.c)), ("d", parse_rational(args.d))]
    elif args.family == "continuous-q-jacobi":
        if args.p_a is None or args.p_b is None:
            raise ValueError("continuous-q-jacobi requires --p-a and --p-b")
        params = [("p_a", parse_rational(args.p_a)), ("p_b", parse_rational(args.p_b))]
    return FamilySpec(family=args.family, params=tuple(params), base=args.base)


def cmd_generate(args) -> int:
    N = _capped_n(args.N)
    try:
        if N < 1:
            raise ValueError("generation horizon must be at least 1")
        ctx = QContext(parse_rational(args.q_quarter))
        spec = _family_spec(args)
        # the regularity scan covers exactly the materialized range 1..N
        ttrr = spec.to_ttrr(ctx, n_max=N)
        ttrr.b_list(N)
        ttrr.c_list(N)
    except (IrregularParameters, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    _dump(ttrr_to_json(ctx, ttrr, N), args.out)
    if args.ops_out:
        ops = generate_ops(ttrr, N)
        _dump(ops_to_json(ctx, ops), args.ops_out)
    return EXIT_OK


def cmd_fit(args) -> int:
    try:
        (ctx, ttrr), _ = _load_ttrr(args.ttrr)
    except (OSError, ValueError, KeyError, IrregularParameters) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    N = min(_capped_n(args.N), ttrr.n_max)
    if N < 3:
        print("error: need a recurrence materialized to at least n = 3", file=sys.stderr)
        return EXIT_BAD_INPUT
    ops = generate_ops(ttrr, N)
    degrees = (0, 1, 2) if args.deg_pi == "auto" else (int(args.deg_pi),)
    attempts = {}
    for d in degrees:
        fit = fit_structure(ctx, ops, d, N)
        attempts[str(d)] = fit.to_json()["status"]
        if fit.is_exact:
            print(f"deg pi = {d}: pi = {fit.pi}", file=sys.stderr)
            _dump(fit.to_json(), args.out)
            return EXIT_OK
    if args.deg_pi == "auto":
        _dump({"error": "no-exact-fit", "attempts": attempts}, args.out)
    else:
        _dump(fit.to_json(), args.out)
    return EXIT_CHECK_FAILED


def cmd_classify(args) -> int:
    try:
        (ctx, ttrr), _ = _load_ttrr(args.ttrr)
    except (OSError, ValueError, KeyError, IrregularParameters) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    N = min(_capped_n(args.N), ttrr.n_max)
    if N < 6:
        print("error: classification needs n_max >= 6", file=sys.stderr)
        return EXIT_BAD_INPUT
    result = classify(ctx, ttrr, N)
    _dump(result.to_json(), args.out)
    return EXIT_OK if result.characterized else EXIT_NOT_CHARACTERIZED


def _verify_checks(ctx, ttrr, N: int, which: str) -> Report:
    ops = generate_ops(ttrr, min(N + 2, ttrr.n_max))
    report = Report()
    fit = None
    for d in (0, 1, 2):
        candidate = fit_structure(ctx, ops, d, N)
        if candidate.is_exact:
            fit = candidate
            break
    if fit is None:
        return Report(
            (Check("structure", None, False, "no exact fit for deg pi in {0, 1, 2}"),)
        )
    wants = lambda name: which in ("all", name)
    if wants("structure"):
        try:
            report = report.merged(verify_structure(ctx, ops, fit))
        except ResidualNonzero as exc:
            report = report.merged(
                Report((Check("structure-residual", exc.n, False, str(exc.residual)),))
            )
    if wants("system"):
        try:
            aux = aux_sequences(ctx, ttrr, fit)
            report = report.merged(verify_difference_system(ctx, ttrr, fit, aux))
        except RecurrenceViolated as exc:
            report = report.merged(Report((Check("system:aux", exc.n, False, str(exc)),)))
    if wants("pearson"):
        order = min(N, ttrr.n_max - 2)
        try:
            pd = pearson_data(ctx, ttrr, fit)
            report = report.merged(pearson_check(ctx, ttrr, pd, order))
        except (DegenerateR1, PearsonViolated) as exc:
            n = exc.n if isinstance(exc, PearsonViolated) else None
            report = report.merged(Report((Check("pearson", n, False, str(exc)),)))
    if wants("five-term"):
        try:
            ft = five_term(ctx, ops, fit)
            report = report.merged(
                Report(
                    tuple(
                        Check("five-term", n, True) for n in range(ft.horizon + 1)
                    )
                )
            )
        except ExpansionMismatch as exc:
            report = report.merged(Report((Check("five-term", exc.n, False, str(exc)),)))
    return report.sorted()


def cmd_verify(args) -> int:
    try:
        (ctx, ttrr), echo = _load_ttrr(args.ttrr)
    except (OSError, ValueError, KeyError, IrregularParameters) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    N = min(_capped_n(args.N), ttrr.n_max - 2)
    if N < 3:
        print(
            "error: recurrence must be materialized to at least n = 5 for verification",
            file=sys.stderr,
        )
        return EXIT_BAD_INPUT
    started = time.monotonic()
    report = _verify_checks(ctx, ttrr, N, args.checks)
    payload = {
        "checks": report.to_json(),
        "input": echo,
        "ok": report.ok,
        "version": __version__,
    }
    _dump(payload, args.out)
    elapsed = time.monotonic() - started
    print(f"verify: {len(report.checks)} checks in {elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qstruct",
        description="Exact structure-relation toolkit for q-orthogonal polynomials",
    )
    parser.add_argument("--version", action="version", version=f"qstruct {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a family recurrence as JSON")
    gen.add_argument(
        "--family",
        required=True,
        choices=("q-hermite", "alsalam-chihara", "chebyshev-t", "continuous-q-jacobi"),
    )
    gen.add_argument("--q-quarter", default="1/2", help="q**(1/4) as a rational string")
    gen.add_argument("--c", help="Al-Salam-Chihara parameter c")
    gen.add_argument("--d", help="Al-Salam-Chihara parameter d")
    gen.add_argument("--p-a", help="continuous q-Jacobi parameter q**(a/2)")
    gen.add_argument("--p-b", help="continuous q-Jacobi parameter q**(b/2)")
    gen.add_argument("--base", default="q", choices=("q", "q-inverse"))
    gen.add_argument("-N", type=int, default=12, help="materialization horizon")
    gen.add_argument("--out", help="TTRR JSON path (stdout when omitted)")
    gen.add_argument("--ops-out", help="optional OPS table JSON path")
    gen.set_defaults(fn=cmd_generate)

    fit = sub.add_parser("fit", help="fit the structure relation to a recurrence")
    fit.add_argument("ttrr", help="TTRR JSON path")
    fit.add_argument("--deg-pi", default="auto", choices=("0", "1", "2", "auto"))
    fit.add_argument("-N", type=int, default=10)
    fit.add_argument("--out")
    fit.set_defaults(fn=cmd_fit)

    cls = sub.add_parser("classify", help="classify a recurrence into a family")
    cls.add_argument("ttrr")
    cls.add_argument("-N", type=int, default=10)
    cls.add_argument("--out")
    cls.set_defaults(fn=cmd_classify)

    ver = sub.add_parser("verify", help="run verification checks, emit a report")
    ver.add_argument("ttrr")
    ver.add_argument("-N", type=int, default=10)
    ver.add_argument("--checks", default="all", choices=CHECK_NAMES)
    ver.add_argument("--out")
    ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
