"""List the statements of src/qstruct/ that the test suite never runs.

    python tools/unreached.py

Runs the whole test suite, `tests/`, quietly in this process under a
line tracer built on `sys.settrace` and `threading.settrace`, so threads the
tests start are traced too; child processes are not. A statement counts as
executable when the compiled module holds bytecode on one of its lines,
and as run when any of those lines raised a line event. Every executable
statement that never ran is printed as

    path:line  scope  key

and the statements listed in ALLOWLIST below are subtracted first. The
exit code is 1 when a statement off the allowlist never ran, or when an
allowlist entry matches no unrun statement (it is stale); 2 when the
tests fail; otherwise 0. An allowlist entry names the file, the enclosing
scope and the statement's first source line, so it survives edits that
move the line.

The tracer costs about three times the suite's own time.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "qstruct")

_EXACT_FIT = "callers pass exact fits; the precondition guards a hand-built fit"
_DEG_1 = "open: needs every exact deg-1 fit to be Al-Salam-Chihara with c/d = q**(+-1/2)"

# (file, scope, key of the statement; see `executable_statements`): why no
# test runs it
ALLOWLIST = {
    ("characterize.py", "_aux", 'raise ValueError("aux_sequences requires an exact fit")'):
        _EXACT_FIT,
    ("characterize.py", "pearson_data", 'raise ValueError("pearson_data requires an exact fit")'):
        _EXACT_FIT,
    (
        "characterize.py",
        "verify_difference_system",
        'raise ValueError("verify_difference_system requires an exact fit")',
    ): _EXACT_FIT,
    (
        "characterize.py",
        "recover_asc_params",
        'raise ValueError("recover_asc_params requires an exact fit")',
    ): _EXACT_FIT,
    (
        "characterize.py",
        "recover_qjacobi_params",
        'raise ValueError("recover_qjacobi_params requires an exact fit")',
    ): _EXACT_FIT,
    (
        "structure.py",
        "verify_structure",
        'raise ValueError("verify_structure requires an exact fit")',
    ): _EXACT_FIT,
    ("structure.py", "five_term", 'raise ValueError("five_term requires an exact fit")'):
        _EXACT_FIT,
    ("characterize.py", "classify", 'return not_characterized("pearson", failures[0].witness)'):
        "open: no input is known to fail Pearson after an exact fit (ROADMAP item 5)",
    # the rest are open, ROADMAP item 4
    (
        "characterize.py",
        "recover_asc_params",
        'raise ConstraintViolated("c d = 0 degenerates to the q-Hermite case")',
    ): _DEG_1,
    (
        "characterize.py",
        "classify",
        'return not_characterized("k1k2-nonzero", "uniqueness predicate fails")',
    ): _DEG_1,
    ("characterize.py", "classify", "continue#2"):
        "open: the Al-Salam-Chihara IrregularParameters skip; " + _DEG_1[6:],
    ("characterize.py", "recover_qjacobi_params", "raise ConstraintViolated("):
        "open: the b_hat closed form, which identities 1..3 alone do not imply",
}


def executable_statements(path: str) -> dict[int, tuple[int, str, str]]:
    """line -> (first line, scope, key) of the innermost statement holding
    that line, for every line of path with bytecode. The scope is the
    dotted name of the enclosing classes and functions, and the key the
    statement's first source line, stripped, with "#k" appended for the
    k-th statement of that scope with the same first line, k >= 2."""
    with open(path) as fh:
        source = fh.read()
    lines = source.splitlines()
    owner: dict[int, tuple[int, str, str]] = {}
    seen: dict[tuple[str, str], int] = {}

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            if isinstance(child, ast.stmt):
                # a compound statement owns its header and decorators; its
                # body's statements claim their own lines below
                text = lines[child.lineno - 1].strip()
                k = seen[scope, text] = seen.get((scope, text), 0) + 1
                stmt = (child.lineno, scope, text if k == 1 else f"{text}#{k}")
                decorators = getattr(child, "decorator_list", ())
                first = min([child.lineno] + [d.lineno for d in decorators])
                for line in range(first, child.end_lineno + 1):
                    owner[line] = stmt
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    with_code: set[int] = set()
    stack = [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        with_code.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return {line: owner[line] for line in with_code if line in owner}


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest in this process under the line tracer; the exit code and
    the lines of each package file that raised a line event."""
    seen: dict[str, set[int]] = {}
    prefix = PACKAGE + os.sep

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits = seen.setdefault(filename, set())

        def line(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return line

        return line

    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), seen


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    if "qstruct" in sys.modules:
        raise SystemExit("qstruct was imported before the tracer started")
    code, seen = run_traced(["-q", "-p", "no:cacheprovider", "tests"])
    if code != 0:
        print(f"the tests failed (pytest exit code {code})", file=sys.stderr)
        return 2
    unrun = set()
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        hits = seen.get(path, set())
        stmts = executable_statements(path)
        ran = {stmts[line] for line in hits if line in stmts}
        unrun |= {(name, *stmt) for stmt in set(stmts.values()) - ran}
    allowed = {(name, scope, key) for name, _, scope, key in unrun} & set(ALLOWLIST)
    stale = set(ALLOWLIST) - allowed
    flagged = sorted(s for s in unrun if (s[0], s[2], s[3]) not in ALLOWLIST)
    for name, line, scope, key in flagged:
        print(f"src/qstruct/{name}:{line}  {scope}  {key}")
    for name, scope, key in sorted(stale):
        print(f"stale allowlist entry: src/qstruct/{name}  {scope}  {key}")
    print(
        f"{len(flagged)} statements never run off the allowlist, "
        f"{len(allowed)} on it, {len(stale)} stale entries",
        file=sys.stderr,
    )
    return 1 if flagged or stale else 0


if __name__ == "__main__":
    sys.exit(main())
