"""Fitting and verifying the first-order structure relation

    pi(x) * D_q P_n = (a_n x + b_n) P_n + c_n P_{n-1},   n = 0, 1, 2, ...

for a monic OPS table, with pi monic of degree 0, 1, or 2. Everything is an
exact rational linear-algebra problem: pi enters the identity linearly, and
with pi fixed each n contributes a small independent system for
(a_n, b_n, c_n). The fitter first solves the identities for n = 1..3
jointly to pin pi (joining further blocks only in the rare case those leave
pi underdetermined), then extends index by index, reporting the first n
whose system is inconsistent when no fit exists.

Normalizing pi monic removes the scale freedom of the relation: any valid
(pi, a, b, c) stays valid under simultaneous scaling by a nonzero rational,
which `verify_structure` accepts happily since it only checks residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from qstruct_frozen.awops import dq_apply, sq_apply
from qstruct_frozen.families import OPSTable
from qstruct_frozen.poly import Poly, poly_to_json
from qstruct_frozen.report import Check, Report
from qstruct_frozen.scalar import QContext, format_rational

__all__ = [
    "STATUS_EXACT",
    "STATUS_NO_SOLUTION",
    "STATUS_DEGENERATE_C",
    "StructureFit",
    "FiveTermExpansion",
    "ResidualNonzero",
    "ExpansionMismatch",
    "fit_structure",
    "verify_structure",
    "structure_residual",
    "five_term",
]

STATUS_EXACT = "exact"
STATUS_NO_SOLUTION = "no-solution"
STATUS_DEGENERATE_C = "degenerate-c"


class ResidualNonzero(Exception):
    """A claimed-exact fit fails re-verification at index n."""

    def __init__(self, n: int, residual: Poly):
        self.n = n
        self.residual = residual
        super().__init__(f"structure residual nonzero at n = {n}: {residual}")


class ExpansionMismatch(Exception):
    """Five-term formula coefficients disagree with the direct expansion.
    Signals an implementation error; never expected for an exact fit."""

    def __init__(self, n: int, k: int):
        self.n = n
        self.k = k
        super().__init__(f"five-term mismatch at n = {n}, basis index k = {k}")


@dataclass(frozen=True)
class StructureFit:
    """Fitted structure data. pi is monic of the requested degree when the
    status is exact; a, b, c are indexed 0..horizon with a_0 = b_0 = c_0 = 0.
    On failure the sequences hold whatever indices were solved before the
    first inconsistency (failure_n), and pi is the zero polynomial if it was
    never pinned."""

    pi: Poly
    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]
    c: tuple[Fraction, ...]
    status: str
    failure_n: int | None
    horizon: int

    @property
    def is_exact(self) -> bool:
        return self.status == STATUS_EXACT

    def to_json(self) -> dict:
        if self.status == STATUS_EXACT:
            status = "exact"
        elif self.status == STATUS_NO_SOLUTION:
            status = {"noSolution": self.failure_n}
        else:
            status = {"degenerateC": self.failure_n}
        return {
            "pi": poly_to_json(self.pi),
            "a": [format_rational(v) for v in self.a],
            "b": [format_rational(v) for v in self.b],
            "c": [format_rational(v) for v in self.c],
            "status": status,
        }


@dataclass(frozen=True)
class FiveTermExpansion:
    """Coefficients of pi * S_q P_n over P_{n+2} .. P_{n-2}:

        pi S_q P_n = r1_n P_{n+2} + r2_n P_{n+1} + r3_n P_n
                     + r4_n P_{n-1} + r5_n P_{n-2},

    together with the derived sequences g_n = b_n + a_n B_n and
    s_n = c_n + a_n C_n. Each rX tuple is indexed by n up to the horizon."""

    r1: tuple[Fraction, ...]
    r2: tuple[Fraction, ...]
    r3: tuple[Fraction, ...]
    r4: tuple[Fraction, ...]
    r5: tuple[Fraction, ...]
    g: tuple[Fraction, ...]
    s: tuple[Fraction, ...]
    horizon: int


def _solve(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Gauss-Jordan elimination over Fractions.

    Returns (consistent, x, determined): x is a particular solution with all
    free variables at zero, and determined[j] is True exactly when x[j] is
    pinned by the system (pivot column whose row has no free-column support).
    """
    ncols = len(rows[0]) if rows else 0
    m = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][col]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append((r, col))
        r += 1
        if r == len(m):
            break
    for i in range(r, len(m)):
        if m[i][ncols] != 0:
            return False, None, None
    pivot_cols = {c for _, c in pivots}
    free_cols = [j for j in range(ncols) if j not in pivot_cols]
    x = [Fraction(0)] * ncols
    determined = [False] * ncols
    for row, col in pivots:
        x[col] = m[row][ncols]
        determined[col] = all(m[row][j] == 0 for j in free_cols)
    return True, x, determined


def _partial_fit(pi: Poly, a, b, c, failure_n: int, N: int) -> StructureFit:
    return StructureFit(
        pi=pi,
        a=tuple(a),
        b=tuple(b),
        c=tuple(c),
        status=STATUS_NO_SOLUTION,
        failure_n=failure_n,
        horizon=N,
    )


def fit_structure(ctx: QContext, ops: OPSTable, deg_pi: int, N: int) -> StructureFit:
    """Fit monic pi of degree deg_pi and sequences (a_n, b_n, c_n) over
    n = 1..N (index 0 entries are forced to zero by the n = 0 identity).

    The returned status is exact only when every identity holds as a
    polynomial equation; a vanishing c_n with 1 <= n <= N downgrades it to
    degenerate-c since every classification branch requires c_n != 0.
    """
    if deg_pi not in (0, 1, 2):
        raise ValueError("deg_pi must be 0, 1, or 2")
    if N < 3:
        raise ValueError("fit horizon must be at least 3")
    if ops.degree < N:
        raise ValueError(f"OPS table reaches degree {ops.degree}, need {N}")

    P = ops.polys
    dq = [dq_apply(ctx, P[n]) for n in range(N + 1)]
    d = deg_pi

    def block_rows(n: int, ncols: int, base: int):
        """Coefficient-wise equations of identity n over the joint unknowns.
        Column j < d is the pi coefficient p_j; columns base..base+2 are
        (a_n, b_n, c_n). The monic part x**d * D_q P_n goes to the rhs."""
        dn = dq[n]
        rows, rhs = [], []
        for i in range(max(d + n - 1, n + 1) + 1):
            row = [Fraction(0)] * ncols
            for j in range(d):
                row[j] = dn.coeff(i - j)  # x**j * D_q P_n
            row[base] = -P[n].coeff(i - 1)  # x * P_n
            row[base + 1] = -P[n].coeff(i)
            row[base + 2] = -P[n - 1].coeff(i)
            rows.append(row)
            rhs.append(-dn.coeff(i - d))
        return rows, rhs

    # Joint phase: pin pi from the smallest consistent block range (n = 1..3
    # suffices for every regular input; more blocks join only if pi stays
    # underdetermined).
    solution = None
    pin_m = None
    for m in range(1, N + 1):
        ncols = d + 3 * m
        rows, rhs = [], []
        for n in range(1, m + 1):
            r, h = block_rows(n, ncols, d + 3 * (n - 1))
            rows.extend(r)
            rhs.extend(h)
        consistent, x, determined = _solve(rows, rhs)
        if not consistent:
            return _partial_fit(Poly.zero(), (), (), (), m, N)
        solution, pin_m = x, m
        if m >= 3 and all(determined[:d]):
            break

    pi = Poly(tuple(solution[:d]) + (Fraction(1),)) if d else Poly.one()
    zero = Fraction(0)
    a = [zero] * (N + 1)
    b = [zero] * (N + 1)
    c = [zero] * (N + 1)
    for n in range(1, pin_m + 1):
        base = d + 3 * (n - 1)
        a[n], b[n], c[n] = solution[base], solution[base + 1], solution[base + 2]

    # Extension phase: pi is fixed, each n is an independent 3-unknown solve
    # whose inconsistency certifies a nonzero residual at that index.
    for n in range(pin_m + 1, N + 1):
        lhs = pi * dq[n]
        rows, rhs = [], []
        top = max(d + n - 1, n + 1)
        for i in range(top + 1):
            rows.append([P[n].coeff(i - 1), P[n].coeff(i), P[n - 1].coeff(i)])
            rhs.append(lhs.coeff(i))
        consistent, x, _ = _solve(rows, rhs)
        if not consistent:
            return _partial_fit(pi, a[:n], b[:n], c[:n], n, N)
        a[n], b[n], c[n] = x

    for n in range(1, N + 1):
        if c[n] == 0:
            return StructureFit(
                pi=pi,
                a=tuple(a),
                b=tuple(b),
                c=tuple(c),
                status=STATUS_DEGENERATE_C,
                failure_n=n,
                horizon=N,
            )
    return StructureFit(
        pi=pi,
        a=tuple(a),
        b=tuple(b),
        c=tuple(c),
        status=STATUS_EXACT,
        failure_n=None,
        horizon=N,
    )


def structure_residual(
    ctx: QContext, ops: OPSTable, pi: Poly, a_n, b_n, c_n, n: int
) -> Poly:
    """pi * D_q P_n - (a_n x + b_n) P_n - c_n P_{n-1}, as a full polynomial."""
    p_n = ops.polys[n]
    p_prev = ops.polys[n - 1] if n >= 1 else Poly.zero()
    return pi * dq_apply(ctx, p_n) - Poly((b_n, a_n)) * p_n - c_n * p_prev


def verify_structure(ctx: QContext, ops: OPSTable, fit: StructureFit) -> Report:
    """Recompute every residual of an exact fit and demand the zero
    polynomial. Raises ResidualNonzero at the first offender."""
    if not fit.is_exact:
        raise ValueError("verify_structure requires an exact fit")
    checks = []
    for n in range(fit.horizon + 1):
        res = structure_residual(ctx, ops, fit.pi, fit.a[n], fit.b[n], fit.c[n], n)
        if res:
            raise ResidualNonzero(n, res)
        checks.append(Check("structure-residual", n, True))
    return Report(tuple(checks))


def five_term(ctx: QContext, ops: OPSTable, fit: StructureFit) -> FiveTermExpansion:
    """Expansion of pi * S_q P_n over P_{n+2}..P_{n-2}, computed two ways.

    The closed coefficients

        r1_n = a_{n+1} - alpha a_n
        r2_n = g_{n+1} - alpha g_n + a_n (B_n - alpha B_{n+1})
        r3_n = s_{n+1} - alpha s_n + g_n (1 - alpha) B_n
               + a_{n-1} C_n - alpha a_n C_{n+1}
        r4_n = (g_{n-1} - alpha g_n) C_n + s_n (B_n - alpha B_{n-1})
        r5_n = C_n s_{n-1} - alpha C_{n-1} s_n

    are checked against the direct expansion of pi * S_q P_n in the monic
    P basis; any disagreement raises ExpansionMismatch. Sequences with
    negative index are zero, matching C_0 = 0 and a_0 = b_0 = c_0 = 0.
    """
    if not fit.is_exact:
        raise ValueError("five_term requires an exact fit")
    N = fit.horizon
    alpha = ctx.alpha
    ttrr = ops.ttrr
    zero = Fraction(0)

    def a(n):
        return fit.a[n] if n >= 0 else zero

    def b(n):
        return fit.b[n] if n >= 0 else zero

    def c(n):
        return fit.c[n] if n >= 0 else zero

    def B(n):
        return ttrr.B(n) if n >= 0 else zero

    def C(n):
        return ttrr.C(n) if n >= 1 else zero

    def g(n):
        return b(n) + a(n) * B(n) if n >= 0 else zero

    def s(n):
        return c(n) + a(n) * C(n) if n >= 0 else zero

    horizon = min(N - 1, ops.degree - 2)
    if horizon < 0:
        raise ValueError("OPS table too short for any five-term index")
    r1, r2, r3, r4, r5 = [], [], [], [], []
    for n in range(horizon + 1):
        v1 = a(n + 1) - alpha * a(n)
        v2 = g(n + 1) - alpha * g(n) + a(n) * (B(n) - alpha * B(n + 1))
        v3 = (
            s(n + 1)
            - alpha * s(n)
            + g(n) * (1 - alpha) * B(n)
            + a(n - 1) * C(n)
            - alpha * a(n) * C(n + 1)
        )
        v4 = (g(n - 1) - alpha * g(n)) * C(n) + s(n) * (B(n) - alpha * B(n - 1))
        v5 = C(n) * s(n - 1) - alpha * C(n - 1) * s(n)

        formula = [zero] * (n + 3)
        formula[n + 2] = v1
        formula[n + 1] = v2
        formula[n] = v3
        if n >= 1:
            formula[n - 1] = v4
        if n >= 2:
            formula[n - 2] = v5
        expanded = ops.expand(fit.pi * sq_apply(ctx, ops.polys[n]))
        expanded += [zero] * (n + 3 - len(expanded))
        for k in range(n + 3):
            if formula[k] != expanded[k]:
                raise ExpansionMismatch(n, k)
        # Indices below n-2 must vanish, and the formula coefficients for
        # out-of-range P_{n-1}, P_{n-2} must agree with the convention.
        if n == 0 and (v4 != 0 or v5 != 0):
            raise ExpansionMismatch(n, -1)
        if n == 1 and v5 != 0:
            raise ExpansionMismatch(n, -1)
        r1.append(v1)
        r2.append(v2)
        r3.append(v3)
        r4.append(v4)
        r5.append(v5)

    return FiveTermExpansion(
        r1=tuple(r1),
        r2=tuple(r2),
        r3=tuple(r3),
        r4=tuple(r4),
        r5=tuple(r5),
        g=tuple(g(n) for n in range(N + 1)),
        s=tuple(s(n) for n in range(N + 1)),
        horizon=horizon,
    )
