"""Fitting and verifying the first-order structure relation

    pi(x) * D_q P_n = (a_n x + b_n) P_n + c_n P_{n-1},   n = 0, 1, 2, ...

for the monic OPS of a three-term recurrence, with pi monic of degree 0, 1,
or 2. P_n and P_{n-1} are monic, so the coefficients of x**(n+1), x**n and
x**(n-1) of the lhs pi * D_q P_n give a_n, b_n and c_n by
back-substitution, and identity n holds exactly when the residual
R_n = lhs - (a_n x + b_n) P_n - c_n P_{n-1},
of degree at most n - 2 and linear in pi, vanishes.

The fit reads windows (`_windows`): the top seven coefficients of P_n, of
x**n .. x**(n-6), and of D_q P_n, of x**(n-1) .. x**(n-7), each as integer
numerators over a denominator of its own. Read in y = 1/x, the window of
P_n is the series x**-n P_n cut after y**6, and the recurrence reads
P_{n+1} = (1 - B_n y) P_n - C_n y**2 P_{n-1}: one step of
`poly.int_three_term` with y in the place of x, normalized once. Entry j of
D_q P_n's window sums P_n's entries i <= j of the parity of j against the
top entries of the context's operator rows D_q x**(n-i), which
have degree n - i - 1 and its parity. pi times that window gives the lhs
coefficients of x**(n+1) .. x**(n-5); `_residual` back-substitutes a_n, b_n,
c_n from the first three and forms R_n's coefficients of x**(n-2) ..
x**(n-5) from the rest, as integer numerators over one denominator.
Entries of negative degree are zero throughout, so at n <= 6 a window is
the whole polynomial. So each index costs a fixed number of integer
operations, whatever n, and a gcd is taken only for what is kept: a
window of P_n, and a_n, b_n, c_n and pi once they hold.

Lemma: identity n holds exactly when R_n's coefficients of x**(n-2) ..
x**(n-5), those of degree >= 0, all vanish, once identities 1..n-1 hold.
Write L_k = pi D_q P_k and M_k = pi S_q P_k, with L_{-1} = M_{-1} = 0 and
C_0 = 0. The product rules of `awops` at f = P_k, with
x P_k = P_{k+1} + B_k P_k + C_k P_{k-1}, give

    L_{k+1} = M_k + (alpha x - B_k) L_k - C_k L_{k-1},
    M_{k+1} = (alpha x - B_k) M_k - C_k M_{k-1} + (alpha**2 - 1)(x**2 - 1) L_k.

Write <i..j> for span{P_i, ..., P_j}, with P_k = 0 for k < 0; x maps <i..j>
into <i-1..j+1>. Identity k says L_k lies in <k-1..k+1>, and identity 0
always holds (L_0 = 0). If identities 1..n-1 hold, then for k <= n-2 the
first rule gives M_k = L_{k+1} - (alpha x - B_k) L_k + C_k L_{k-1} in
<k-2..k+2>. The second rule at k = n-2 then puts M_{n-1} in <n-5..n+1>,
and the first at k = n-1 puts L_n there too, and with it R_n. As
deg R_n <= n - 2, R_n lies in <n-5..n-2>, and since each P_k is monic of
degree k, its coordinates there follow from its coefficients of x**(n-2)
.. x**(n-5) by a unitriangular solve: R_n = 0 exactly when those vanish.
The proof uses neither c_n != 0 nor deg pi = 2. The fit decides the
indices in increasing order and stops at the first that fails, so the
hypothesis holds whenever it decides one.

The fitter pins pi on the residual coefficients of identities 2 and 3, at
most three equations in the d lower coefficients of pi, each identity's
numerators scaled to integer rows; at n <= 3 the windows are the whole
polynomials, so these are all of R_2's and R_3's coefficients. Identity 2
is one equation, inconsistent exactly when all of its coefficients vanish
and its rhs does not: then the fit fails at 2 with pi zero. Otherwise one
fraction-free elimination over the equations of 2..3 solves them (`_pin`),
or the fit fails at 3 with pi zero, when a leftover equation has a nonzero
rhs or a column has no pivot (by the proof below, a consistent system has
no free column). Identity 1 leaves no residual coefficient, so these
equations are consistent exactly when the identities n = 1..3 hold
together for some (a_n, b_n, c_n), and their solution is the pi shown
unique below. With pi fixed, the fitter decides each index in turn by the
lemma; the first index that fails is the reported failure index.
`fit_structure` fits one degree; `fit_auto` tries 0, 1, 2 in order and
stops at the first exact fit, and its attempts share the windows and the
residuals of x**j * D_q P_n (j <= 2, n = 2, 3) that the pins read. A fit
takes the recurrence (a `TTRRSpec`; an OPS table is one) and builds no P_n
and no D_q P_n image, only windows. It grows the context's operator rows
to degree 3 for its pin and to the horizon only once pi pins, so a
recurrence whose fits all fail at n = 3 pays for the windows to 3 and the
rows to degree 3 only, whatever the horizon.

`verify_structure` decides every index again from the whole power-basis
residual: the lhs is one integer convolution of pi with the table's
unnormalized image D_q P_n (`_times`), and R_n one `int_three_term` step,
normalized only for a failing index, as its witness. It reads P_n from the
OPS table, which holds them from its construction, and D_q P_n from the
table's store for the context, which builds each image the first time it
is read and keeps it (`OPSTable.dq`), so it checks the windows and the
lemma rather than repeating them. `five_term` reads the same images: the
direct side of its check, pi * S_q P_n, follows from them by the product
rule D_q(x f) = S_q f + alpha x D_q f and the recurrence, as one more
three-term step, so no S_q image of a P_n is formed.

Why n = 1..3 always pins pi. The OPS comes from a recurrence
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

from fractions import Fraction
from math import gcd, lcm

from qstruct.awops import operator_rows
from qstruct.families import OPSTable, TTRRSpec
from qstruct.poly import Poly, int_convolution, int_three_term, poly_to_json
from qstruct.report import Check, Report
from qstruct.scalar import Frozen, QContext, Ratio, format_rational

__all__ = [
    "STATUS_EXACT",
    "STATUS_NO_SOLUTION",
    "STATUS_DEGENERATE_C",
    "StructureFit",
    "FiveTermExpansion",
    "fit_structure",
    "fit_auto",
    "verify_structure",
    "five_term",
]

STATUS_EXACT = "exact"
STATUS_NO_SOLUTION = "no-solution"
STATUS_DEGENERATE_C = "degenerate-c"

# The fit's windows hold the top seven coefficients of P_n and of D_q P_n:
# the three that give a_n, b_n, c_n and the four of the lemma in the module
# docstring (its proof fixes the size)
_WINDOW = 7


class StructureFit(Frozen):
    """Fitted structure data. pi is monic of the requested degree when the
    status is exact; a, b, c are indexed 0..horizon with a_0 = b_0 = c_0 = 0.
    On failure the sequences hold whatever indices were solved before the
    first inconsistency (failure_n), and pi is the zero polynomial if it was
    never pinned."""

    __slots__ = ("pi", "a", "b", "c", "status", "failure_n", "horizon")

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


class FiveTermExpansion(Frozen):
    """Coefficients of pi * S_q P_n over P_{n+2} .. P_{n-2}:

        pi S_q P_n = r1_n P_{n+2} + r2_n P_{n+1} + r3_n P_n
                     + r4_n P_{n-1} + r5_n P_{n-2},

    together with the derived sequences g_n = b_n + a_n B_n and
    s_n = c_n + a_n C_n. Each rX tuple is indexed by n up to the horizon.
    report holds one five-term check per n: it fails when the closed
    coefficients disagree with the direct expansion of pi S_q P_n, which
    signals an implementation error and is never expected for an exact
    fit."""

    __slots__ = ("r1", "r2", "r3", "r4", "r5", "g", "s", "horizon", "report")


def _pin(rows: list[list[int]]) -> list[Fraction] | None:
    """The solution of the pin equations, integer augmented rows
    (coefficients, then the rhs) in the d <= 2 lower coefficients of pi, or
    None when they are inconsistent: when a leftover row has a nonzero rhs,
    or when a column has no pivot, since consistent pin equations have no
    free column (see the module docstring). The elimination is
    fraction-free: each step replaces a row by pivot[col] * row
    - row[col] * pivot, an integer row with the same solutions, and only
    the solution is divided out, one `Fraction` per coefficient of pi."""
    width, solved = len(rows[0]) - 1, []
    for col in range(width):
        pivot = next((row for row in rows if row[col]), None)
        if pivot is None:
            return None
        rows = [row for row in rows if row is not pivot]
        p = pivot[col]
        rows = [[p * v - row[col] * w for v, w in zip(row, pivot)] for row in rows]
        solved = [[p * v - row[col] * w for v, w in zip(row, pivot)] for row in solved] + [pivot]
    if any(row[width] for row in rows):
        return None
    return [Fraction(row[width], row[col]) for col, row in enumerate(solved)]


def _check_horizon(ttrr: TTRRSpec, N: int) -> None:
    """Reject a horizon the fit cannot run to, before any work. The
    context's operator rows are grown by `_fit`, only as far as it reads."""
    if N < 3:
        raise ValueError(f"fit horizon must be at least 3, got N = {N}")
    if N > ttrr.n_max:
        raise IndexError(f"N = {N} exceeds materialized horizon {ttrr.n_max}")


def fit_structure(ctx: QContext, ttrr: TTRRSpec, deg_pi: int, N: int) -> StructureFit:
    """Fit monic pi of degree deg_pi and sequences (a_n, b_n, c_n) over
    n = 1..N (index 0 entries are forced to zero by the n = 0 identity).

    The returned status is exact only when every identity holds as a
    polynomial equation; a vanishing c_n with 1 <= n <= N downgrades it to
    degenerate-c since every classification branch requires c_n != 0.
    """
    if deg_pi not in (0, 1, 2):
        raise ValueError("deg_pi must be 0, 1, or 2")
    _check_horizon(ttrr, N)
    return _fit(ctx, ttrr, deg_pi, N, [], {})


def fit_auto(ctx: QContext, ttrr: TTRRSpec, N: int) -> list[StructureFit]:
    """The fits for deg pi = 0, 1, 2 in order, up to and including the first
    exact one. Each entry equals fit_structure(ctx, ttrr, d, N); the attempts
    share the windows and the pin residuals."""
    _check_horizon(ttrr, N)
    windows: list = []
    residuals: dict[int, list] = {}
    fits = []
    for d in (0, 1, 2):
        fits.append(_fit(ctx, ttrr, d, N, windows, residuals))
        if fits[-1].is_exact:
            break
    return fits


def _windows(rows: tuple, ttrr: TTRRSpec, windows: list, n: int) -> list:
    """windows extended through index n and returned, reading the D rows
    of the context's operator rows, which reach degree n: windows[k] is the
    pair (P_k, D_q P_k) of windows (see the module docstring), each a list
    of _WINDOW integer numerators, from the top coefficient down, over a
    positive denominator; D_q P_0 = 0 is None. P_k's window is in normal
    form, and its first numerator is its denominator, as P_k is monic.
    D_q P_k's is not normalized: entry j, the coefficient of x**(k-1-j),
    sums P_k's entry i times the x**(k-1-j) entry of the operator row
    D_q x**(k-i), for i <= j of the parity of j, over the denominator of
    row k times that of P_k's window."""
    if not windows:
        windows.append((([1] + [0] * (_WINDOW - 1), 1), None))
    b, c = ttrr.b, ttrr.c
    for k in range(len(windows), n + 1):
        # P_k = (1 - B_{k-1} y) P_{k-1} - C_{k-1} y**2 P_{k-2} in y = 1/x
        q, c_k = None, 0
        if k > 1:
            (qw, qd), c_k = windows[k - 2][0], c[k - 2]
            q = (0, 0, *qw[: _WINDOW - 2]), qd
        nums, den = int_three_term(((), 1), windows[k - 1][0], q, b[k - 1], -1, c_k)
        g = gcd(*nums[:_WINDOW])  # nums[0] is den, as P_k is monic
        pw, pd = [v // g for v in nums[:_WINDOW]], den // g
        # row k - i holds x**(k-i-1), x**(k-i-3), ... over row_den, which divides top
        top, image = rows[k][1], [0] * _WINDOW
        for i in range(min(_WINDOW, k)):
            row, row_den = rows[k - i]
            m = pw[i] * (top // row_den)
            if m:
                for j in range(i, min(_WINDOW, k), 2):
                    image[j] += m * row[k - 1 - j]
        windows.append(((pw, pd), (image, top * pd)))
    return windows


def _residual(lhs: list[int], den: int, p: tuple, q: tuple):
    """The numerators of a_n, b_n, c_n over den, den pd and den pd**2, and
    the residual's coefficients of x**(n-2) .. x**(n-5) as numerators over
    den pd**2 qd, for the window lhs of pi * D_q P_n (its coefficients of
    x**(n+1) .. x**(n-5) over den) and the windows p = (pw, pd) of P_n and
    q = (qw, qd) of P_{n-1}. P_n and P_{n-1} are monic, so lhs[0..2], the
    coefficients of x**(n+1), x**n and x**(n-1), give a_n, b_n and c_n by
    back-substitution. In y = 1/x the residual
    lhs - (a_n x + b_n) P_n - c_n P_{n-1} reads
    lhs - (a_n + b_n y) P_n - c_n y**2 P_{n-1}, so its entry j (of
    x**(n+1-j)) reads entries j of lhs and P_n, j - 1 of P_n and j - 2 of
    P_{n-1}; it vanishes for j <= 2 by construction, and this forms
    j = 3..6, all on integers with no gcd."""
    lhs_a, lhs_b, lhs_c = lhs[:3]
    (pw, pd), (qw, qd) = p, q
    b_num = lhs_b * pd - lhs_a * pw[1]
    c_num = (lhs_c * pd - lhs_a * pw[2]) * pd - b_num * pw[1]
    scale, a_pd, b_qd = pd * pd * qd, lhs_a * pd * qd, b_num * qd
    res = [
        v * scale - a_pd * u - b_qd * w - c_num * z
        for v, u, w, z in zip(lhs[3:], pw[3:], pw[2:], qw[1:])
    ]
    return (lhs_a, b_num, c_num), (res, den * scale)


def _pin_rows(windows: list, d: int, n: int, residuals: dict[int, list]):
    """Integer augmented rows for `_pin`, one per coefficient of x**0 ..
    x**(n-2), saying that the residual of identity n with lhs pi * D_q P_n
    vanishes; the unknowns are pi's lower coefficients p_0..p_{d-1}, and
    the monic part goes to the rhs, so identity 2 gives one row and
    identity 3 two. windows reaches index n, and at n <= 3 its windows are
    the whole polynomials. residuals[n] holds the residuals of
    x**j * D_q P_n computed so far, j = 0, 1, ..., each as its numerators of
    x**0 .. x**(n-2) over its denominator; it is extended to j = d, so the
    degree attempts of one problem compute each (j, n) once. The rows of
    identity n are those numerators scaled to the lcm of the d + 1
    denominators."""
    res = residuals.setdefault(n, [])
    if len(res) <= d:
        (p, (image, den)), q = windows[n], windows[n - 1][0]
        for j in range(len(res), d + 1):
            # x**j D_q P_n, from x**(n+1) down
            _, (r, r_den) = _residual(([0] * (2 - j) + image)[:_WINDOW], den, p, q)
            res.append((r[n - 2 :: -1], r_den))
    common = lcm(*(den for _, den in res[: d + 1]))
    cols = [[v * (common // den) for v in r] for r, den in res[: d + 1]]
    return [[col[i] for col in cols[:d]] + [-cols[d][i]] for i in range(n - 1)]


def _fit(
    ctx: QContext, ttrr: TTRRSpec, d: int, N: int, windows: list, residuals: dict[int, list]
) -> StructureFit:
    """fit_structure for degree d, reading the windows in increasing n and
    the pin residuals from residuals (see `_pin_rows`). The row of
    identity 2 alone decides failure at 2; one `_pin` over the rows of 2..3
    pins pi or fails at 3. Identity n is then decided by the residual's
    coefficients of x**(n-2) .. x**(n-5), which the lemma of the module
    docstring shows to be enough once identities 1..n-1 hold. The
    context's operator rows grow in one step to degree 3 for the pin and in
    one more to N once pi pins."""
    _windows(operator_rows(ctx, 3)[0], ttrr, windows, 3)
    rows = _pin_rows(windows, d, 2, residuals)
    *coeffs, rhs = rows[0]
    if rhs and not any(coeffs):
        return StructureFit(Poly.zero(), (), (), (), STATUS_NO_SOLUTION, 2, N)
    solution = _pin(rows + _pin_rows(windows, d, 3, residuals))
    if solution is None:
        return StructureFit(Poly.zero(), (), (), (), STATUS_NO_SOLUTION, 3, N)
    pi = Poly(tuple(solution) + (Fraction(1),))

    d_rows = operator_rows(ctx, N)[0]
    pi_y = [0] * (2 - d) + list(reversed(pi.nums))  # x**-2 pi in y = 1/x
    a, b, c = [Fraction(0)], [Fraction(0)], [Fraction(0)]
    for n in range(1, N + 1):
        (p, (image, den)), q = _windows(d_rows, ttrr, windows, n)[n], windows[n - 1][0]
        lhs, den = int_convolution(pi_y, image)[:_WINDOW], pi.den * den
        (a_num, b_num, c_num), (r, _) = _residual(lhs, den, p, q)
        if any(r):
            return StructureFit(pi, tuple(a), tuple(b), tuple(c), STATUS_NO_SOLUTION, n, N)
        a.append(Fraction(a_num, den))
        b.append(Fraction(b_num, den * p[1]))
        c.append(Fraction(c_num, den * p[1] ** 2))

    zero_c = next((n for n in range(1, N + 1) if c[n] == 0), None)
    status = STATUS_EXACT if zero_c is None else STATUS_DEGENERATE_C
    return StructureFit(pi, tuple(a), tuple(b), tuple(c), status, zero_c, N)


def verify_structure(ctx: QContext, ops: OPSTable, fit: StructureFit) -> Report:
    """Check every identity of an exact fit again. The report holds one
    structure-residual check per n = 0..horizon, decided by the whole
    power-basis residual, every coefficient of it, where the fit read
    windows; a failing check carries that residual, normalized, as its
    witness. The images D_q P_n are read from ops, which builds and keeps
    them, so `five_term` on the same table reuses them."""
    if not fit.is_exact:
        raise ValueError("verify_structure requires an exact fit")
    checks, P = [], [((), 1)] + [(p.nums, p.den) for p in ops.polys]  # P[n] is P_{n-1}
    for n in range(fit.horizon + 1):
        lhs = _times(fit.pi, ops.dq(ctx, n))
        res, res_den = int_three_term(lhs, P[n + 1], P[n], fit.a[n], fit.b[n], fit.c[n])
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
    returned report. That direct side follows from the product rule
    D_q(x f) = S_q f + alpha x D_q f at f = P_n and the recurrence
    x P_n = P_{n+1} + B_n P_n + C_n P_{n-1}:

        pi S_q P_n = L_{n+1} - (alpha x - B_n) L_n - (-C_n) L_{n-1},

    one `int_three_term` step over L_k = pi * D_q P_k (`_times`) and
    L_{-1} = 0, from the images D_q P_k, k <= horizon + 1 <= N, that the
    table holds (`verify_structure` on the same table builds them) or
    builds when they are read here. Each coefficient is
    formed as an unreduced `Ratio` and normalized once. The check subtracts
    r1_n P_{n+2} + r2_n P_{n+1}, then r3_n P_n + r4_n P_{n-1}, then
    r5_n P_{n-2} from pi * S_q P_n by three more steps with a = 0, all on
    integers, and only a nonzero residual is normalized and expanded in
    the monic P basis. A failing check's witness names the first basis
    index k where the expansion of pi * S_q P_n disagrees, the residual's
    first nonzero coordinate (expansion is linear), or k = -1 when the
    coefficient of an out-of-range P_{n-1} or P_{n-2} is nonzero.
    Sequences with negative index are zero, matching C_0 = 0 and
    a_0 = b_0 = c_0 = 0; g and s run to the fit's horizon, or to the
    table's degree where that is lower.
    """
    if not fit.is_exact:
        raise ValueError("five_term requires an exact fit")
    N = fit.horizon
    c_seq = (Fraction(0),) + ops.c[:N]  # C_0..C_N
    g_seq = tuple(fit.b[n] + fit.a[n] * b_n for n, b_n in enumerate(ops.b[: N + 1]))
    s_seq = tuple(fit.c[n] + fit.a[n] * c_n for n, c_n in enumerate(c_seq))
    horizon = min(N - 1, ops.n_max - 2)
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
    B = [nil] + [of(v) for v in ops.b[: N + 1]]
    C = [nil, nil] + [of(v) for v in ops.c[:N]]
    alpha_a = [alpha * v for v in a]
    alpha_g = [alpha * v for v in g]
    alpha_B = [alpha * v for v in B]
    # P_{n-2}..P_{n+2} and L_{n-1}..L_{n+1} as (nums, den) from index -2 and
    # -1 on, with P_{-2} = P_{-1} = L_{-1} = 0
    P = [((), 1), ((), 1)] + [(p.nums, p.den) for p in ops.polys[: horizon + 3]]
    L = [((), 1), _times(fit.pi, ops.dq(ctx, 0))]
    r1, r2, r3, r4, r5, checks = [], [], [], [], [], []
    for n in range(horizon + 1):
        L.append(_times(fit.pi, ops.dq(ctx, n + 1)))
        sq = int_three_term(L[n + 2], L[n + 1], L[n], ctx.alpha, -ops.b[n], -c_seq[n])
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

        k = None
        res = int_three_term(sq, P[n + 4], P[n + 3], 0, v1, v2)
        res = int_three_term(res, P[n + 2], P[n + 1], 0, v3, v4)
        res, res_den = int_three_term(res, P[n], None, 0, v5, 0)
        if any(res):
            # the first basis index where pi * S_q P_n and the formula differ
            k = next(k for k, v in enumerate(ops.expand(Poly.from_ints(res, res_den))) if v)
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


def _times(pi: Poly, image: tuple[list[int], int]) -> tuple[list[int], int]:
    """pi times an image (nums, den) of the table, as integer numerators
    over pi.den * den, not normalized."""
    nums, den = image
    return int_convolution(pi.nums, nums), pi.den * den
