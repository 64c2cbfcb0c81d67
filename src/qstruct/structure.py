"""Fitting and verifying the first-order structure relation

    pi(x) * D_q P_n = (a_n x + b_n) P_n + c_n P_{n-1},   n = 0, 1, 2, ...

for a monic OPS table, with pi monic of degree 0, 1, or 2. Every identity
is decided by one integer residual (`_identity_residual`). Its lhs
pi * D_q P_n is one unnormalized integer convolution (`int_product`);
P_n and P_{n-1} are monic, so the coefficients of x**(n+1), x**n and
x**(n-1) of the lhs give a_n, b_n and c_n by back-substitution
(`_coefficients`); and lhs - (a_n x + b_n) P_n - c_n P_{n-1} is formed as
integer numerators over one denominator, cross-multiplied over the lcm of
the term denominators with no gcd over the coefficients (`_residual`,
which `five_term` uses too). Identity n holds exactly when every numerator
is zero. That residual is linear in pi and has degree at most n - 2. The
fitter pins pi on the residual coefficients of identities 2 and 3, at most
three equations in the d lower coefficients of pi. Identity 2 is one
equation, inconsistent exactly when all of its coefficients vanish and its
rhs does not: then the fit fails at 2 with pi zero. Otherwise one
elimination over the equations of 2..3 solves them, or the fit fails at 3
with pi zero, when a leftover equation has a nonzero rhs or a column has
no pivot (by the proof below, a consistent system has no free column).
Identity 1 leaves no residual coefficient, so these equations are
consistent exactly when the identities n = 1..3 hold together for some
(a_n, b_n, c_n), and their solution is the pi shown unique below. With pi
fixed, the fitter decides each index in turn by its residual; the first
index that fails is the reported failure index. `verify_structure`
decides each index by the same residual and normalizes it only for a
failing one, as its witness; `structure_residual` returns it normalized.
`fit_structure` fits one degree; `fit_auto` tries 0, 1, 2 in order and
stops at the first exact fit, computing each residual of x**j * D_q P_n
(j <= 2, n = 2, 3) that the pins read once for all three attempts. The fits,
`verify_structure` and `structure_residual` read P_n and D_q P_n from the
OPS table, which builds each of them the first time it is read and keeps it
(`OPSTable.dq`). So the degree attempts and a later verify on the same
table share one set of images. A fit grows the context's operator rows to
degree 3 for its pin and to the horizon only once pi pins, so a recurrence
whose fits all fail at n = 3 pays for P_0..P_3, D_q P_0..D_q P_3 and the
rows to degree 3 only, whatever the horizon.

Why n = 1..3 always pins pi. The table comes from a recurrence
P_{n+1} = (x - B_n) P_n - C_n P_{n-1} with every C_n != 0, and
D_q P_n = gamma_n x**(n-1) + ... with gamma_n != 0 for n >= 1.

* D_q P_1 = 1, so identity 1 reads pi = (a_1 x + b_1)(x - B_0) + c_1,
  which division by x - B_0 solves for every pi of degree <= 2: n = 1
  never fails.
* Suppose two monic pi, pi' of degree d both satisfy n = 1..3. Their
  difference delta != 0 has degree < d <= 2, and by linearity
  delta * D_q P_n lies in span{P_n, P_{n-1}} for n = 1..3 (its degree is
  at most n).
  - deg delta = 0 gives D_q P_n = gamma_n P_{n-1}. Then pi * D_q P_n has
    the P_{n-2} component gamma_2 C_1 for d = 1, n = 2, or the P_{n-3}
    component gamma_3 C_2 C_1 for d = 2, n = 3; identity n allows neither.
  - deg delta = 1 (so d = 2) gives (x + s) D_q P_n = gamma_n P_n
    + c'_n P_{n-1}. Write pi = (x + s)(x + r) + k; then
    pi * D_q P_n = (x + r)(gamma_n P_n + c'_n P_{n-1}) + k D_q P_n.
    The first term lies in span{P_{n+1}, ..., P_{n-2}}. If k != 0, this
    leaves D_q P_3 = gamma_3 P_2 + mu P_1, and in (x + s) D_q P_3
    = gamma_3 P_3 + c'_3 P_2 the P_0 component forces mu = 0, after
    which the P_1 component reads gamma_3 C_2 = 0. If k = 0,
    the P_{n-2} component c'_n C_{n-1} must vanish, so c'_2 = c'_3 = 0:
    P_2 and P_3 share the root -s, and the recurrence carries it down to
    P_1 and then to P_0 = 1.

  Each case contradicts C_n != 0 or gamma_n != 0. So a consistent n = 1..3
system fixes pi, and with it every (a_n, b_n, c_n): it has no free column,
and no further identity needs to join it.

The checks of an exact fit, `verify_structure` and the report of
`five_term`, return one Check per index, failures included, with the
offending residual or basis index as witness; only their preconditions
raise.

Normalizing pi monic removes the scale freedom of the relation: any valid
(pi, a, b, c) stays valid under simultaneous scaling by a nonzero rational,
which `verify_structure` accepts happily since it only checks residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

from qstruct.awops import operator_rows, sq_apply
from qstruct.families import OPSTable
from qstruct.poly import Poly, int_product, poly_to_json
from qstruct.report import Check, Report
from qstruct.scalar import QContext, Ratio, format_rational

__all__ = [
    "STATUS_EXACT",
    "STATUS_NO_SOLUTION",
    "STATUS_DEGENERATE_C",
    "StructureFit",
    "FiveTermExpansion",
    "fit_structure",
    "fit_auto",
    "verify_structure",
    "structure_residual",
    "five_term",
]

STATUS_EXACT = "exact"
STATUS_NO_SOLUTION = "no-solution"
STATUS_DEGENERATE_C = "degenerate-c"


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
    s_n = c_n + a_n C_n. Each rX tuple is indexed by n up to the horizon.
    report holds one five-term check per n: it fails when the closed
    coefficients disagree with the direct expansion of pi S_q P_n, which
    signals an implementation error and is never expected for an exact
    fit."""

    r1: tuple[Fraction, ...]
    r2: tuple[Fraction, ...]
    r3: tuple[Fraction, ...]
    r4: tuple[Fraction, ...]
    r5: tuple[Fraction, ...]
    g: tuple[Fraction, ...]
    s: tuple[Fraction, ...]
    horizon: int
    report: Report


def _pin(rows: list[list[Fraction]]) -> list[Fraction] | None:
    """The solution of the pin equations, augmented rows (coefficients, then
    the rhs) in the d <= 2 lower coefficients of pi, or None when they are
    inconsistent: when a leftover row has a nonzero rhs, or when a column
    has no pivot, since consistent pin equations have no free column (see
    the module docstring)."""
    width, solved = len(rows[0]) - 1, []
    for col in range(width):
        pivot = next((row for row in rows if row[col]), None)
        if pivot is None:
            return None
        rows = [row for row in rows if row is not pivot]
        pivot = [v / pivot[col] for v in pivot]
        rows = [[v - row[col] * w for v, w in zip(row, pivot)] for row in rows]
        solved = [[v - row[col] * w for v, w in zip(row, pivot)] for row in solved] + [pivot]
    return None if any(row[width] for row in rows) else [row[width] for row in solved]


def _check_horizon(ops: OPSTable, N: int) -> None:
    """Reject a horizon the fit cannot run to, before any work. The
    context's operator rows are grown by `_fit`, only as far as it reads."""
    if N < 3:
        raise ValueError(f"fit horizon must be at least 3, got N = {N}")
    if ops.degree < N:
        raise ValueError(f"OPS table reaches degree {ops.degree}, need {N}")


def fit_structure(ctx: QContext, ops: OPSTable, deg_pi: int, N: int) -> StructureFit:
    """Fit monic pi of degree deg_pi and sequences (a_n, b_n, c_n) over
    n = 1..N (index 0 entries are forced to zero by the n = 0 identity).

    The returned status is exact only when every identity holds as a
    polynomial equation; a vanishing c_n with 1 <= n <= N downgrades it to
    degenerate-c since every classification branch requires c_n != 0.
    """
    if deg_pi not in (0, 1, 2):
        raise ValueError("deg_pi must be 0, 1, or 2")
    _check_horizon(ops, N)
    return _fit(ctx, ops, deg_pi, N, {})


def fit_auto(ctx: QContext, ops: OPSTable, N: int) -> list[StructureFit]:
    """The fits for deg pi = 0, 1, 2 in order, up to and including the first
    exact one. Each entry equals fit_structure(ctx, ops, d, N); the attempts
    share the table's D_q P_n images and the pin residuals."""
    _check_horizon(ops, N)
    residuals: dict[int, list] = {}
    fits = []
    for d in (0, 1, 2):
        fits.append(_fit(ctx, ops, d, N, residuals))
        if fits[-1].is_exact:
            break
    return fits


def _pin_rows(ctx: QContext, P: OPSTable, d: int, n: int, residuals: dict[int, list]):
    """Augmented rows for `_pin`, one per coefficient of x**0 .. x**(n-2),
    saying that the residual of identity n with lhs pi * D_q P_n vanishes;
    the unknowns are pi's lower coefficients p_0..p_{d-1}, and the monic
    part goes to the rhs, so identity 2 gives one row and identity 3 two.
    residuals[n] holds the coefficients x**0 .. x**(n-2) of the residuals
    of x**j * D_q P_n computed so far, j = 0, 1, ...; it is extended to
    j = d, so the degree attempts of one problem compute each (j, n) once."""
    res, image = residuals.setdefault(n, []), P.dq(ctx, n)
    for j in range(len(res), d + 1):
        nums, den = [0] * j + list(image.nums), image.den
        r, r_den = _identity_residual(nums, den, P, *_coefficients(nums, den, P[n], n), n)
        res.append([Fraction(v, r_den) for v in r[: n - 1]])
    return [[r[i] for r in res[:d]] + [-res[d][i]] for i in range(n - 1)]


def _fit(
    ctx: QContext, P: OPSTable, d: int, N: int, residuals: dict[int, list]
) -> StructureFit:
    """fit_structure for degree d, reading P_n and D_q P_n from the table
    in increasing n and the pin residuals from residuals (see `_pin_rows`).
    The row of identity 2 alone decides failure at 2; D_q P_3 is read only
    past it, and one `_pin` over the rows of 2..3 pins pi or fails at 3.
    The context's operator rows grow in one step to degree 3 for the pin
    and in one more to N once pi pins."""
    operator_rows(ctx, 3)
    rows = _pin_rows(ctx, P, d, 2, residuals)
    *coeffs, rhs = rows[0]
    if rhs and not any(coeffs):
        return StructureFit(Poly.zero(), (), (), (), STATUS_NO_SOLUTION, 2, N)
    solution = _pin(rows + _pin_rows(ctx, P, d, 3, residuals))
    if solution is None:
        return StructureFit(Poly.zero(), (), (), (), STATUS_NO_SOLUTION, 3, N)
    pi = Poly(tuple(solution) + (Fraction(1),))

    operator_rows(ctx, N)
    a, b, c = [Fraction(0)], [Fraction(0)], [Fraction(0)]
    for n in range(1, N + 1):
        nums, den = int_product(pi, P.dq(ctx, n))
        a_n, b_n, c_n = _coefficients(nums, den, P[n], n)
        if any(_identity_residual(nums, den, P, a_n, b_n, c_n, n)[0]):
            return StructureFit(pi, tuple(a), tuple(b), tuple(c), STATUS_NO_SOLUTION, n, N)
        a.append(a_n)
        b.append(b_n)
        c.append(c_n)

    zero_c = next((n for n in range(1, N + 1) if c[n] == 0), None)
    status = STATUS_EXACT if zero_c is None else STATUS_DEGENERATE_C
    return StructureFit(pi, tuple(a), tuple(b), tuple(c), status, zero_c, N)


def _coefficients(nums: list[int], den: int, p: Poly, n: int):
    """(a_n, b_n, c_n) for lhs = sum(nums[k] x**k) / den, n >= 1, such
    that lhs - (a_n x + b_n) P_n - c_n P_{n-1} has degree at most n - 2:
    P_n = p and P_{n-1} are monic, so the coefficients of x**(n+1), x**n
    and x**(n-1) of lhs give a_n, b_n and c_n by back-substitution, done
    on integers and normalized once per coefficient."""
    top = [*nums[n - 1 : n + 2]]
    lhs_c, lhs_b, lhs_a = top + [0] * (3 - len(top))
    pd, p1 = p.den, p.nums[n - 1]  # p.nums[n] == pd, as p is monic
    p2 = p.nums[n - 2] if n >= 2 else 0
    b_num = lhs_b * pd - lhs_a * p1  # b_n = b_num / (den pd)
    c_num = (lhs_c * pd - lhs_a * p2) * pd - b_num * p1  # c_n = c_num / (den pd**2)
    return Fraction(lhs_a, den), Fraction(b_num, den * pd), Fraction(c_num, den * pd * pd)


def _residual(nums: list[int], den: int, terms) -> tuple[list[int], int]:
    """sum(nums[k] x**k) / den, den > 0, minus the sum of v * x**s * p over
    the (v, s, p) in terms (a Fraction, a shift and a Poly), as integer
    numerators over a positive denominator, not normalized: the terms are
    summed as one integer vector over the lcm of their denominators, and
    the two sides are cross-multiplied, so neither needs a gcd over its
    coefficients. The residual is zero exactly when every numerator is."""
    terms = [(v, s, p) for v, s, p in terms if v]
    common = lcm(*(v.denominator * p.den for v, _, p in terms))
    out = [0] * max((s + len(p.nums) for _, s, p in terms), default=0)
    for v, s, p in terms:
        m = v.numerator * (common // (v.denominator * p.den))
        out[s : s + len(p.nums)] = [o + m * x for o, x in zip(out[s:], p.nums)]
    g = gcd(common, den)
    left, right = common // g, den // g
    return [x * left - y * right for x, y in zip_longest(nums, out, fillvalue=0)], den * left


def _identity_residual(nums: list[int], den: int, P: OPSTable, a_n, b_n, c_n, n: int):
    """The residual of identity n, lhs - (a_n x + b_n) P_n - c_n P_{n-1}
    with lhs = sum(nums[k] x**k) / den (no P_{-1} term at n = 0), by
    `_residual`."""
    p = P[n]
    terms = [(a_n, 1, p), (b_n, 0, p)]
    return _residual(nums, den, terms + [(c_n, 0, P[n - 1])] if n else terms)


def structure_residual(
    ctx: QContext, ops: OPSTable, pi: Poly, a_n, b_n, c_n, n: int
) -> Poly:
    """pi * D_q P_n - (a_n x + b_n) P_n - c_n P_{n-1}, as a full polynomial."""
    nums, den = int_product(pi, ops.dq(ctx, n))
    return Poly.from_ints(*_identity_residual(nums, den, ops, a_n, b_n, c_n, n))


def verify_structure(ctx: QContext, ops: OPSTable, fit: StructureFit) -> Report:
    """Check every identity of an exact fit again. The report holds one
    structure-residual check per n = 0..horizon, decided by the fit's own
    integer residual; a failing check carries that residual, normalized,
    as its witness. The images D_q P_n are read from ops, so a verify on
    the table the fit was made on reuses the fit's images."""
    if not fit.is_exact:
        raise ValueError("verify_structure requires an exact fit")
    checks = []
    for n in range(fit.horizon + 1):
        nums, den = int_product(fit.pi, ops.dq(ctx, n))
        res, res_den = _identity_residual(nums, den, ops, fit.a[n], fit.b[n], fit.c[n], n)
        holds = not any(res)
        witness = "" if holds else str(Poly.from_ints(res, res_den))
        checks.append(Check("structure-residual", n, holds, witness))
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

    are checked against pi * S_q P_n, one five-term check per n in the
    returned report. Each coefficient is formed as an unreduced `Ratio`
    and normalized once; the check compares r1_n P_{n+2} + ... + r5_n
    P_{n-2} with pi * S_q P_n on integers (`_residual`), and only a
    failing one expands pi * S_q P_n in the monic P basis. A failing
    check's witness names the first basis index k where that expansion
    disagrees, or k = -1 when the coefficient of an out-of-range P_{n-1}
    or P_{n-2} is nonzero. Sequences with negative index are zero,
    matching C_0 = 0 and a_0 = b_0 = c_0 = 0.
    """
    if not fit.is_exact:
        raise ValueError("five_term requires an exact fit")
    N = fit.horizon
    ttrr = ops.ttrr
    zero = Fraction(0)
    g_seq = tuple(fit.b[n] + fit.a[n] * ttrr.b[n] for n in range(N + 1))
    s_seq = tuple(fit.c[n] + fit.a[n] * c_n for n, c_n in enumerate((zero,) + ttrr.c[:N]))
    horizon = min(N - 1, ops.degree - 2)
    if horizon < 0:
        raise ValueError("OPS table too short for any five-term index")
    # each sequence as Ratios from index -1 on (x[n + 1] is x_n), and the
    # products with alpha that two coefficients read
    of, nil = Ratio.of, Ratio(0)
    alpha = of(ctx.alpha)
    one_minus_alpha = Ratio(1) - alpha
    a = [nil] + [of(v) for v in fit.a]
    g = [nil] + [of(v) for v in g_seq]
    s = [nil] + [of(v) for v in s_seq]
    B = [nil] + [of(v) for v in ttrr.b[: N + 1]]
    C = [nil, nil] + [of(v) for v in ttrr.c[:N]]
    alpha_a = [alpha * v for v in a]
    alpha_g = [alpha * v for v in g]
    alpha_B = [alpha * v for v in B]
    r1, r2, r3, r4, r5, checks = [], [], [], [], [], []
    for n in range(horizon + 1):
        am1, a0, a1 = a[n : n + 3]
        gm1, g0, g1 = g[n : n + 3]
        sm1, s0, s1 = s[n : n + 3]
        Cm1, C0, C1 = C[n : n + 3]
        B0 = B[n + 1]
        alpha_a0, alpha_g0 = alpha_a[n + 1], alpha_g[n + 1]
        v1 = (a1 - alpha_a0).fraction()
        v2 = (g1 - alpha_g0 + a0 * (B0 - alpha_B[n + 2])).fraction()
        v3 = (
            s1 - alpha * s0 + g0 * one_minus_alpha * B0 + am1 * C0 - alpha_a0 * C1
        ).fraction()
        v4 = ((gm1 - alpha_g0) * C0 + s0 * (B0 - alpha_B[n])).fraction()
        v5 = (C0 * sm1 - alpha * Cm1 * s0).fraction()

        formula = [(v5, n - 2), (v4, n - 1), (v3, n), (v2, n + 1), (v1, n + 2)][max(2 - n, 0) :]
        nums, den = int_product(fit.pi, sq_apply(ctx, ops[n]))
        k = None
        if any(_residual(nums, den, [(v, 0, ops[j]) for v, j in formula if v])[0]):
            # the first basis index where the expansion of pi * S_q P_n disagrees
            expanded = ops.expand(Poly.from_ints(nums, den))
            expanded += [zero] * (n + 3 - len(expanded))
            coeffs = [zero] * max(n - 2, 0) + [v for v, _ in formula]
            k = next(k for k in range(n + 3) if coeffs[k] != expanded[k])
        elif (n == 0 and v4 != 0) or (n < 2 and v5 != 0):
            k = -1  # a nonzero coefficient of an out-of-range P_{n-1} or P_{n-2}
        witness = "" if k is None else f"five-term mismatch at n = {n}, basis index k = {k}"
        checks.append(Check("five-term", n, k is None, witness))
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
        g=g_seq,
        s=s_seq,
        horizon=horizon,
        report=Report(tuple(checks)),
    )
