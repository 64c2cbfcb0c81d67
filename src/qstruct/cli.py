"""Command line front end: generate, fit, classify, verify.

All JSON the tool emits is canonical (sorted keys, rational strings, no
floats), so identical inputs produce byte-identical outputs. Timing goes to
stderr only, keeping the reports deterministic. The environment variable
QSTRUCT_NMAX caps every -N argument.

Each command imports the layers it runs when it runs: `generate` loads the
operator and family layers only, `fit` adds `structure`, and `classify` and
`verify` add `characterize`, which loads `structure` and `report`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from functools import cache

from qstruct import __version__
from qstruct.families import (
    FamilySpec,
    generate_ops,
    ops_to_json,
    ttrr_from_json,
    ttrr_to_json,
)
from qstruct.scalar import QContext, parse_rational

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_NOT_CHARACTERIZED = 3

CHECK_NAMES = ("all", "structure", "system", "pearson", "five-term")


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(payload, out_path: str | None) -> None:
    _write(json.dumps(payload, sort_keys=True, indent=2) + "\n", out_path)


# One row of verify's "checks" array, laid out as json.dumps(sort_keys=True,
# indent=2) lays out a Check's to_json() at that depth.
_CHECK_ROW = '    {\n      "n": %s,\n      "name": %s,\n      "passed": %s,\n      "witness": %s\n    }'


def _verify_text(checks, rest: dict) -> str:
    """json.dumps(payload, sort_keys=True, indent=2) + "\\n" for the payload
    {"checks": [c.to_json() for c in checks], **rest}, where rest is not
    empty and its keys sort after "checks". With an indent, json.dumps
    runs its pure-Python encoder, so each check is written from one row
    template instead: n is an int or None, passed a bool, and the strings
    go through the escaper json.dumps uses. The rest goes through
    json.dumps."""
    escape = json.encoder.encode_basestring_ascii
    rows = ",\n".join(
        [
            _CHECK_ROW
            % (
                "null" if c.n is None else int.__repr__(c.n),
                escape(c.name),
                "true" if c.passed else "false",
                escape(c.witness),
            )
            for c in checks
        ]
    )
    head = '{\n  "checks": [\n' + rows + "\n  ]," if rows else '{\n  "checks": [],'
    return head + json.dumps(rest, sort_keys=True, indent=2)[1:] + "\n"


def _capped_n(requested: int) -> int:
    cap = os.environ.get("QSTRUCT_NMAX")
    if not cap:
        return requested
    try:
        return min(requested, int(cap))
    except ValueError:
        raise ValueError(f"QSTRUCT_NMAX must be an integer, got {cap!r}") from None


def _load_ttrr(path: str):
    """Read and schema-check a TTRR document: an object with a rational
    string q_quarter and lists of rational strings B and C. NaN, Infinity
    and numbers past the float range are refused: `verify` echoes the
    document, and json.dumps would write them back as invalid JSON. A JSON
    decode error names the file, and so does an integer past the
    interpreter's digit limit, reported as such, not with the int parser's
    advice."""

    def refuse(token):
        raise ValueError(f"{path}: {token} is not a finite JSON number")

    def finite(token):
        value = float(token)
        return value if math.isfinite(value) else refuse(token)

    def integer(token):
        try:
            return int(token)
        except ValueError:  # a JSON integer token fails only the digit limit
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"{path}: a number has more than {limit} digits") from None

    with open(path) as fh:
        try:
            data = json.load(fh, parse_constant=refuse, parse_float=finite, parse_int=integer)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    if not isinstance(data.get("q_quarter"), str):
        raise ValueError(f'{path}: "q_quarter" must be a rational string')
    for key in ("B", "C"):
        values = data.get(key)
        if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
            raise ValueError(f'{path}: "{key}" must be a list of rational strings')
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
    if N < 1:
        raise ValueError("generation horizon must be at least 1")
    ctx = QContext(parse_rational(args.q_quarter))
    ttrr = _family_spec(args).to_ttrr(ctx, n_max=N)
    _dump(ttrr_to_json(ctx, ttrr, N), args.out)
    if args.ops_out:
        ops = generate_ops(ttrr, N)
        _dump(ops_to_json(ctx, ops), args.ops_out)
    return EXIT_OK


def cmd_fit(args) -> int:
    from qstruct.structure import fit_auto, fit_structure

    (ctx, ttrr), _ = _load_ttrr(args.ttrr)
    N = min(_capped_n(args.N), ttrr.n_max)
    if args.deg_pi == "auto":
        fits = fit_auto(ctx, ttrr, N)
    else:
        fits = [fit_structure(ctx, ttrr, int(args.deg_pi), N)]
    fit = fits[-1]
    if fit.is_exact:
        print(f"deg pi = {fit.pi.degree}: pi = {fit.pi}", file=sys.stderr)
        _dump(fit.to_json(), args.out)
        return EXIT_OK
    if args.deg_pi == "auto":
        attempts = {str(d): f.to_json()["status"] for d, f in enumerate(fits)}
        _dump({"error": "no-exact-fit", "attempts": attempts}, args.out)
    else:
        _dump(fit.to_json(), args.out)
    return EXIT_CHECK_FAILED


def cmd_classify(args) -> int:
    from qstruct.characterize import classify

    (ctx, ttrr), _ = _load_ttrr(args.ttrr)
    N = min(_capped_n(args.N), ttrr.n_max)
    result = classify(ctx, ttrr, N)
    _dump(result.to_json(), args.out)
    return EXIT_OK if result.characterized else EXIT_NOT_CHARACTERIZED


def _verify_checks(ctx, ttrr, N: int, which: str):
    """The report of `verify` for checks `which` (one of CHECK_NAMES), its
    checks sorted as `verify` writes them."""
    from qstruct.characterize import (
        RecurrenceViolated,
        aux_sequences,
        pearson_check,
        pearson_data,
        verify_difference_system,
    )
    from qstruct.report import Check, Report
    from qstruct.structure import fit_auto, five_term, verify_structure

    report = Report()
    fit = fit_auto(ctx, ttrr, N)[-1]
    if not fit.is_exact:
        return Report(
            (Check("structure", None, False, "no exact fit for deg pi in {0, 1, 2}"),)
        )
    wants = lambda name: which in ("all", name)
    if which in ("all", "structure", "five-term"):
        ops = generate_ops(ttrr, min(N + 1, ttrr.n_max))  # the five-term check reads P_{N+1}
    if wants("structure"):
        report = report.merged(verify_structure(ctx, ops, fit))
    if wants("system"):
        try:
            aux = aux_sequences(ctx, ttrr, fit)
            report = report.merged(verify_difference_system(ctx, ttrr, fit, aux))
        except RecurrenceViolated as exc:
            report = report.merged(Report((Check("system:aux", exc.n, False, str(exc)),)))
    if wants("pearson"):
        pd = pearson_data(ctx, ttrr, fit)  # an exact fit never raises DegenerateR1
        report = report.merged(pearson_check(ctx, ttrr, pd, min(N, ttrr.n_max - 2)))
    if wants("five-term"):
        report = report.merged(five_term(ctx, ops, fit).report)
    return report.sorted()


def cmd_verify(args) -> int:
    (ctx, ttrr), echo = _load_ttrr(args.ttrr)
    N = min(_capped_n(args.N), ttrr.n_max - 2)
    started = time.monotonic()
    report = _verify_checks(ctx, ttrr, N, args.checks)
    rest = {"input": echo, "ok": report.ok, "version": __version__}
    _write(_verify_text(report.checks, rest), args.out)
    elapsed = time.monotonic() - started
    print(f"verify: {len(report.checks)} checks in {elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing leaves it
    unchanged, so every call of `main` shares it."""
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


# generate's options that take a rational string, which may be negative
_RATIONAL_OPTIONS = frozenset(("--c", "--d", "--p-a", "--p-b", "--q-quarter"))


def _bind_negative_rationals(argv: list[str]) -> list[str]:
    """argv with `generate`'s `OPTION VALUE`, for a rational OPTION and a
    VALUE that starts with "-" and that `parse_rational` accepts, as the
    one token `OPTION=VALUE`: argparse reads "-1/3" alone as an option,
    and the = form the same way on every Python. Other commands, tokens
    after "--" and other values are left as they are, so every other
    input keeps its output and exit code."""
    if argv[:1] != ["generate"]:
        return argv
    out = argv[:1]
    for token in argv[1:]:
        if out[-1] in _RATIONAL_OPTIONS and token.startswith("-") and "--" not in out:
            try:
                parse_rational(token)
            except ValueError:
                pass
            else:
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_bind_negative_rationals(argv))
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        # unreadable or malformed input, invalid or irregular parameters
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
