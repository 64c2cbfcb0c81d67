"""Run the test suite against a fixed list of mutants of src/qstruct/.

    python tools/mutants.py

Each mutant changes one thing in one function: the integer kernels
`poly.int_three_term`, `awops._image` and `structure._pin` get every
mutant of the kinds below, each return or raise that a test pins gets
one mutant of its own (MUTANTS_OF_PINNED), and so does each offset of the
fit's windows (MUTANTS_OF_WINDOWS) and each bound, index, term and
reduction of the moments' recursion (MUTANTS_OF_MOMENTS):

- each `lcm(x, y)` or `gcd(x, y)` replaced by x, by y, and by x * y or 1;
- each sign flipped: a binary + or - swapped for the other, a unary minus
  dropped;
- each index and slice offset shifted by one: a subscript index i read as
  i + 1, each given slice bound likewise, each name zipped as a coefficient
  stream read as (0, *name), and a tuple `(0, *xs)` read as xs.

The script copies what the test suite reads (COPIED) into a temporary
directory and runs the suite there once unmutated; then for each mutant it
writes the mutant there and runs `python -m pytest -x -q tests` in it, and
the mutant is killed when that run fails or times out. The suite's
`tests/test_mutants.py`, which builds every mutant without running the
suite, is left out of these runs. It prints one
line per mutant and exits 1 when a mutant off EQUIVALENT and UNPROVEN
survives. The mutants in EQUIVALENT compute what the original computes,
each for the reason given there, so no test can kill them; those in
UNPROVEN survive every input known but have no such proof, so the code
keeps the original. Both run anyway, and a kill there is reported. Each
surviving mutant costs one full run of the suite.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 900

# what the test suite reads: the package, the tests, the README's examples
# and the benchmark's frozen copy
COPIED = ("src", "tests", "README.md", "pyproject.toml", os.path.join("perfbench", "frozen"))

KERNELS = (("poly.py", "int_three_term"), ("awops.py", "_image"), ("structure.py", "_pin"))

# (file, function, the statement's source line, stripped, its replacement):
# one mutant per return or raise that a test pins
MUTANTS_OF_PINNED = (
    (
        "characterize.py",
        "recover_qjacobi_params",
        "raise IrrationalRoots(diff, -prod, disc)",
        "raise IrrationalRoots(diff, prod, disc)",
    ),
    ("characterize.py", "recover_qjacobi_params", "if not denom_ab:", "if denom_ab is None:"),
    (
        "structure.py",
        "StructureFit.to_json",
        'status = {"degenerateC": self.failure_n}',
        'status = {"noSolution": self.failure_n}',
    ),
    (
        "structure.py",
        "five_term",
        'raise ValueError("OPS table too short for any five-term index")',
        'raise ValueError("OPS table too short")',
    ),
    (
        "cli.py",
        "_load_ttrr",
        """raise ValueError(f'{path}: "q_quarter" must be a rational string')""",
        """raise ValueError(f'{path}: "q_quarter" must be a string')""",
    ),
    (
        "cli.py",
        "_family_spec",
        'raise ValueError("continuous-q-jacobi requires --p-a and --p-b")',
        'raise ValueError("continuous-q-jacobi requires --p-a")',
    ),
    ("cli.py", "", "sys.exit(main())", "main()"),
    ("families.py", "FamilySpec.param", "raise KeyError(name)", "raise KeyError(self.family)"),
    (
        "families.py",
        "FamilySpec.to_ttrr",
        'raise ValueError(f"unknown family {self.family!r}")',
        "return None",
    ),
    ("families.py", "OPSTable.expand", "return []", "return [Fraction(0)]"),
    (
        "families.py",
        "OPSTable.expand",
        'raise ValueError(f"table only reaches degree {self.n_max}, need {deg}")',
        'raise ValueError(f"table only reaches degree {deg}")',
    ),
    (
        "families.py",
        "MomentVector.ratio",
        'raise ValueError(f"moments known to order {len(self.nums) - 1}, need {len(nums) - 1}")',
        'raise ValueError(f"moments known to order {len(self.nums)}, need {len(nums)}")',
    ),
    ("scalar.py", "Frozen.__eq__", "return NotImplemented", "return False"),
    (
        "poly.py",
        "Poly.__repr__",
        'return f"Poly({self.coeffs!r})"',
        'return f"Poly({self.nums!r})"',
    ),
)

# (file, function, line, replacement) as above: the offsets of the fit's
# windows, and the residual window cut to one, two and three coefficients
MUTANTS_OF_WINDOWS = (
    (  # the P-window shift: P_{n-1} placed one entry under P_{n+1}, not two
        "structure.py",
        "_windows",
        "q = (0, 0, *qw[: _WINDOW - 2]), qd",
        "q = (0, *qw[: _WINDOW - 2]), qd",
    ),
    (  # the image parity start: row k - i read at the other parity
        "structure.py",
        "_windows",
        "for j in range(i, min(_WINDOW, k), 2):",
        "for j in range(i + 1, min(_WINDOW, k), 2):",
    ),
    (  # the residual's P_{n-1} read one entry lower
        "structure.py",
        "_residual",
        "for v, u, w, z in zip(lhs[3:], pw[3:], pw[2:], qw[1:])",
        "for v, u, w, z in zip(lhs[3:], pw[3:], pw[2:], qw[2:])",
    ),
    ("structure.py", "_fit", "if any(r):", "if any(r[:1]):"),
    ("structure.py", "_fit", "if any(r):", "if any(r[:2]):"),
    ("structure.py", "_fit", "if any(r):", "if any(r[:3]):"),
)

# (file, function, line, replacement) as above: the moments' coordinate
# window narrowed and widened by one, the C index shifted by one, the B term
# dropped and the reduction skipped
MUTANTS_OF_MOMENTS = (
    (
        "families.py",
        "moments",
        "for j in range(min(l + 1, N - l - 1) + 1):",
        "for j in range(min(l + 1, N - l - 1)):",
    ),
    (
        "families.py",
        "moments",
        "for j in range(min(l + 1, N - l - 1) + 1):",
        "for j in range(min(l + 1, N - l) + 1):",
    ),
    (
        "families.py",
        "moments",
        "(en, ed), (cn, cd) = e[j + 1], c[j]",
        "(en, ed), (cn, cd) = e[j + 1], c[j + 1]",
    ),
    ("families.py", "moments", "n, d = _join(n, d, bn * en, bd * ed)", "pass"),
    ("families.py", "moments", "nxt.append((n // g, d // g))", "nxt.append((n, d))"),
)

_COMMON_MULTIPLE = "any common multiple keeps every value exact and every output the same"

# mutant name: why it computes what the original computes
EQUIVALENT = {
    "poly.py int_three_term: lcm(a.denominator, b.denominator) -> a.denominator * b.denominator":
        _COMMON_MULTIPLE,
    "poly.py int_three_term: lcm(rhs_den, c_den) -> rhs_den * c_den": _COMMON_MULTIPLE,
    "poly.py int_three_term: gcd(rhs_den, den) -> 1": _COMMON_MULTIPLE,
    "awops.py _image: k - drop: sign -> +": "(k + drop) % 2 == (k - drop) % 2",
    "awops.py _image: out[j:k - drop + 1:2]: upper + 1":
        "j has the parity of k - drop, so the step-2 slice gains no index",
    "families.py moments: for j in range(min(l + 1, N - l - 1) + 1):"
    " -> for j in range(min(l + 1, N - l) + 1):": (
        "the wider window also keeps e_{N-l+1}^(l), whose terms lie in the widened window too,"
        " so every value stays exact, and a step lowers j by at most one, so it reaches no mu_k"
        " with k <= N"
    ),
}

# mutant name: why it survives though no proof shows it equivalent
UNPROVEN = {
    "structure.py _fit: if any(r): -> if any(r[:3]):": (
        "no input known has a residual whose coefficients of x**(n-2) .. x**(n-4) vanish and"
        " that of x**(n-5) does not, once identities 1..n-1 hold; the lemma in the structure"
        " docstring needs all four"
    ),
}


def _sites(func: ast.FunctionDef):
    """(index, description, mutate) for every mutation site of func: the
    site is the index-th node of ast.walk(func), and mutate(node) returns
    its replacement."""
    annotations = {
        id(n)
        for a in (func.returns, *(arg.annotation for arg in func.args.args))
        if a is not None
        for n in ast.walk(a)
    }
    for index, node in enumerate(ast.walk(func)):
        if id(node) in annotations:
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("zip", "zip_longest"):
                for arg in node.args:
                    if isinstance(arg, ast.Name):
                        text = f"{arg.id} in {node.func.id} -> (0, *{arg.id})"
                        yield index, text, _shift_arg(arg.id)
            if node.func.id in ("lcm", "gcd") and len(node.args) == 2:
                x, y = (ast.unparse(a) for a in node.args)
                for keep in (0, 1):
                    yield index, f"{ast.unparse(node)} -> {(x, y)[keep]}", _keep_arg(keep)
                if node.func.id == "lcm":
                    yield index, f"{ast.unparse(node)} -> {x} * {y}", _product
                else:
                    yield index, f"{ast.unparse(node)} -> 1", _one
        elif isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            flipped = "-" if isinstance(node.op, ast.Add) else "+"
            yield index, f"{ast.unparse(node)}: sign -> {flipped}", _flip
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            yield index, f"{ast.unparse(node)} -> {ast.unparse(node.operand)}", _unary
        elif isinstance(node, ast.Subscript):
            if isinstance(node.slice, ast.Slice):
                for bound in ("lower", "upper"):
                    if getattr(node.slice, bound) is not None:
                        yield index, f"{ast.unparse(node)}: {bound} + 1", _shift_bound(bound)
            else:
                yield index, f"{ast.unparse(node)}: index + 1", _shift_index
        elif isinstance(node, ast.Tuple) and len(node.elts) == 2:
            head, rest = node.elts
            if isinstance(head, ast.Constant) and head.value == 0 and isinstance(rest, ast.Starred):
                yield index, f"{ast.unparse(node)} -> {ast.unparse(rest.value)}", _unshift


def _keep_arg(keep):
    def mutate(node):
        return node.args[keep]

    return mutate


def _product(node):
    return ast.BinOp(node.args[0], ast.Mult(), node.args[1])


def _one(node):
    return ast.Constant(1)


def _flip(node):
    node.op = ast.Sub() if isinstance(node.op, ast.Add) else ast.Add()
    return node


def _unary(node):
    return node.operand


def _plus_one(expr):
    return ast.BinOp(expr, ast.Add(), ast.Constant(1))


def _shift_bound(bound):
    def mutate(node):
        setattr(node.slice, bound, _plus_one(getattr(node.slice, bound)))
        return node

    return mutate


def _shift_index(node):
    node.slice = _plus_one(node.slice)
    return node


def _shift_arg(name):
    def mutate(node):
        node.args = [
            ast.Tuple([ast.Constant(0), ast.Starred(a, ast.Load())], ast.Load())
            if isinstance(a, ast.Name) and a.id == name
            else a
            for a in node.args
        ]
        return node

    return mutate


def _unshift(node):
    return node.elts[1].value


class _Replace(ast.NodeTransformer):
    def __init__(self, index: int, mutate):
        self.target, self.mutate = index, mutate

    def run(self, func: ast.FunctionDef) -> ast.FunctionDef:
        self.nodes = {id(n): i for i, n in enumerate(ast.walk(func))}
        return ast.fix_missing_locations(self.visit(func))

    def generic_visit(self, node):
        if self.nodes.get(id(node)) == self.target:
            return self.mutate(node)
        return super().generic_visit(node)


def kernel_mutants():
    """(name, file, mutated source) for every site of the kernels."""
    for name, function in KERNELS:
        path = os.path.join(ROOT, "src", "qstruct", name)
        with open(path) as fh:
            source = fh.read()
        lines = source.splitlines(keepends=True)
        for func in ast.parse(source).body:
            if isinstance(func, ast.FunctionDef) and func.name == function:
                break
        else:
            raise SystemExit(f"{name} has no top-level function {function}")
        seen: dict[str, int] = {}
        for index, text, mutate in _sites(func):
            k = seen[text] = seen.get(text, 0) + 1
            fresh = next(f for f in ast.parse(source).body if getattr(f, "name", "") == function)
            mutated = ast.unparse(_Replace(index, mutate).run(fresh)) + "\n"
            new = "".join(lines[: func.lineno - 1]) + mutated + "".join(lines[func.end_lineno :])
            yield f"{name} {function}: {text}{f' #{k}' if k > 1 else ''}", name, new


def _span(tree: ast.Module, qualname: str) -> tuple[int, int]:
    """The first and last line of the function qualname, dotted through its
    classes; the whole module for ""."""
    if not qualname:
        return 1, tree.body[-1].end_lineno
    scope = tree
    for part in qualname.split("."):
        kinds = (ast.FunctionDef, ast.ClassDef)
        found = [node for node in scope.body if isinstance(node, kinds) and node.name == part]
        if not found:
            raise SystemExit(f"no function {qualname}")
        scope = found[0]
    return scope.lineno, scope.end_lineno


def line_mutants():
    """(name, file, mutated source) for MUTANTS_OF_PINNED,
    MUTANTS_OF_WINDOWS and MUTANTS_OF_MOMENTS."""
    for name, qualname, line, replacement in (
        MUTANTS_OF_PINNED + MUTANTS_OF_WINDOWS + MUTANTS_OF_MOMENTS
    ):
        path = os.path.join(ROOT, "src", "qstruct", name)
        with open(path) as fh:
            source = fh.read()
        lines = source.splitlines(keepends=True)
        first, last = _span(ast.parse(source), qualname)
        hits = [i for i in range(first - 1, last) if lines[i].strip() == line]
        if len(hits) != 1:
            raise SystemExit(f"{name} {qualname}: {line!r} occurs {len(hits)} times, not once")
        i = hits[0]
        indent = lines[i][: len(lines[i]) - len(lines[i].lstrip())]
        lines[i] = indent + replacement + "\n"
        yield f"{name} {qualname or '<module>'}: {line} -> {replacement}", name, "".join(lines)


def run_suite(work: str) -> bool:
    """Whether the test suite passes in work. The test of this script's
    anchors is left out: it reads the script, which is not copied."""
    env = dict(os.environ, PYTHONPATH=os.path.join(work, "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"]
    argv += ["--ignore", os.path.join("tests", "test_mutants.py")]
    try:
        done = subprocess.run(argv, cwd=work, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main() -> int:
    mutants = [*kernel_mutants(), *line_mutants()]
    survivors = []
    with tempfile.TemporaryDirectory() as work:
        for part in COPIED:
            source, target = os.path.join(ROOT, part), os.path.join(work, part)
            if os.path.isdir(source):
                ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
                shutil.copytree(source, target, ignore=ignore)
            else:
                shutil.copy(source, target)
        if not run_suite(work):
            raise SystemExit("the test suite fails on the unmutated copy")
        for name, module, source in mutants:
            target = os.path.join(work, "src", "qstruct", module)
            with open(os.path.join(ROOT, "src", "qstruct", module)) as fh:
                original = fh.read()
            with open(target, "w") as fh:
                fh.write(source)
            try:
                killed = not run_suite(work)
            finally:
                with open(target, "w") as fh:
                    fh.write(original)
            listed = " (equivalent)" if name in EQUIVALENT else ""
            listed = " (unproven)" if name in UNPROVEN else listed
            print(f"{'killed' if killed else 'survived'}{listed}: {name}", flush=True)
            if not killed and not listed:
                survivors.append(name)
    print(
        f"{len(mutants)} mutants, {len(survivors)} survivors off EQUIVALENT and UNPROVEN",
        file=sys.stderr,
    )
    for name in survivors:
        print(f"survivor: {name}", file=sys.stderr)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
