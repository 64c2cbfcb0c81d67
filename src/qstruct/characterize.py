"""Classification of three-term recurrences against the structure relation.

Given an exact structure fit, the machinery here derives the auxiliary
sequences t_n = c_n / C_n and r_n = t_n + a_n - a_{n-1} (both geometric-pair
combinations k1 q**(n/2) + k2 q**(-n/2)), the Pearson data (frak_a, frak_b,
phi, psi) witnessing that the orthogonality functional is x-classical, the
difference-equation system every solution must satisfy, the lemma-level
predicates that drive uniqueness, and finally parameter recovery for the
four families:

  deg pi = 0 -> Rogers q-Hermite,
  deg pi = 1 -> Al-Salam-Chihara with c/d = q**(1/2) or q**(-1/2),
  deg pi = 2 -> Chebyshev of the first kind, or continuous q-Jacobi.

Each family also occurs in a q -> 1/q parameterization; the classifier
detects those by re-deriving parameters under the mirrored reading (where
q**(n/2) and q**(-n/2) swap roles, so k1 <-> k2 and a_hat <-> b_hat). A
q-Hermite or Al-Salam-Chihara candidate is regenerated with inverted powers
and compared with the input; continuous q-Jacobi parameters are checked
against the family's closed forms instead, which fix every coefficient to
the horizon but B_N, and B_N is checked on its own (see
`recover_qjacobi_params`). `classify` is a total function: every failure
mode is recorded as data in the predicate ledger rather than raised.
"""

from __future__ import annotations

import math
from fractions import Fraction

from qstruct.awops import operator_rows
from qstruct.families import (
    IrregularParameters,
    TTRRSpec,
    cq_jacobi_powers,
    cq_jacobi_scan,
    cq_jacobi_terms,
    moments,
    ttrr_alsalam_chihara,
    ttrr_chebyshev_t,
    ttrr_equal,
    ttrr_qhermite,
)
from qstruct.poly import Poly
from qstruct.report import Check, Report
from qstruct.scalar import Frozen, QContext, Ratio, format_rational
from qstruct.structure import StructureFit, fit_auto

__all__ = [
    "RecurrenceViolated",
    "DegenerateR1",
    "ConstraintViolated",
    "IrrationalRoots",
    "AuxSequences",
    "PearsonData",
    "PredicateRecord",
    "Classification",
    "aux_sequences",
    "pearson_data",
    "pearson_check",
    "verify_difference_system",
    "lemma_predicates",
    "recover_asc_params",
    "recover_qjacobi_params",
    "classify",
    "FAMILY_QHERMITE",
    "FAMILY_ASC",
    "FAMILY_CHEBYSHEV_T",
    "FAMILY_CQ_JACOBI",
    "FAMILY_NOT_CHARACTERIZED",
]

FAMILY_QHERMITE = "q-hermite"
FAMILY_ASC = "alsalam-chihara"
FAMILY_CHEBYSHEV_T = "chebyshev-t"
FAMILY_CQ_JACOBI = "continuous-q-jacobi"
FAMILY_NOT_CHARACTERIZED = "not-characterized"

BASE_Q = "q"
BASE_Q_INVERSE = "q-inverse"


class RecurrenceViolated(Exception):
    """t_n fails its two-geometric-terms closed form at index n."""

    def __init__(self, n: int, detail: str = ""):
        self.n = n
        super().__init__(f"auxiliary sequence violates its recurrence at n = {n} {detail}".rstrip())


class DegenerateR1(Exception):
    """a_1 C_1 + c_1 = 0, which no exact fit has (see `pearson_data`)."""


class ConstraintViolated(Exception):
    """Recovered parameters do not satisfy the family's defining constraint."""


class IrrationalRoots(Exception):
    """A recovery quadratic does not split over the rationals; the message
    names its sum, product and discriminant."""

    def __init__(self, sum_: Fraction, product: Fraction, discriminant: Fraction):
        super().__init__(
            f"quadratic with sum {format_rational(sum_)}, product "
            f"{format_rational(product)} has non-square discriminant "
            f"{format_rational(discriminant)}"
        )


class AuxSequences(Frozen):
    """t_n = c_n / C_n and r_n = t_n + a_n - a_{n-1} with their geometric-pair
    data. Index 0 entries follow the compatibility conventions t_0 = k1 + k2
    and r_0 = a_hat + b_hat. `aux_sequences` fills t and r to the fit
    horizon; inside `classify` they stop at index 1 (`_aux`)."""

    __slots__ = ("t", "k1", "k2", "r", "a_hat", "b_hat")


class PearsonData(Frozen):
    """Data of the x-classical (Pearson-type) equation D_q(phi u) = S_q(psi u):
    psi(X) = X - B_0 and phi(X) = (frak_a X - frak_b)(X - B_0) - (frak_a + alpha) C_1."""

    __slots__ = ("frak_a", "frak_b", "phi", "psi")


class PredicateRecord(Frozen):
    """One ledger entry: whether a predicate holds, and its witness."""

    __slots__ = ("holds", "witness")

    def to_json(self) -> dict:
        return {"holds": self.holds, "witness": dict(sorted(self.witness.items()))}


class Classification(Frozen):
    """The family a recurrence was classified into, with its parameters,
    base, predicate ledger and fit."""

    __slots__ = ("family", "params", "base", "predicates", "fit")

    @property
    def characterized(self) -> bool:
        return self.family != FAMILY_NOT_CHARACTERIZED

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "params": {k: format_rational(v) for k, v in sorted(self.params.items())},
            "base": self.base,
            "predicates": {k: self.predicates[k].to_json() for k in sorted(self.predicates)},
            "fit": self.fit.to_json() if self.fit is not None else None,
        }


def _sqrt_exact(x: Fraction) -> Fraction | None:
    """Rational square root of x >= 0, or None when x is not a perfect
    square. x is never negative: `recover_qjacobi_params` passes prod, which
    it has checked to be > 0, in its symmetric branch and
    diff**2 + 4 prod > 0 in the other, and the test oracles pass it family
    data, which is never negative."""
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def aux_sequences(ctx: QContext, ttrr: TTRRSpec, fit: StructureFit) -> AuxSequences:
    """Derive (k1, k2, a_hat, b_hat) and materialize t_n, r_n to the fit
    horizon, verifying the closed form (`_aux`)."""
    return _aux(ctx, ttrr, fit, fit.horizon)


def _aux(ctx: QContext, ttrr: TTRRSpec, fit: StructureFit, upto: int) -> AuxSequences:
    """`aux_sequences` with t_n and r_n materialized for n <= upto only;
    `classify` passes upto = 1, as `lemma_predicates` reads t_1 and
    `recover_qjacobi_params` r_1 and neither reads further. The closed form

        t_n = k1 q**(n/2) + k2 q**(-n/2)

    exactly at every index (RecurrenceViolated on the first failure; t_n
    solves x_{n+2} - 2 alpha x_{n+1} + x_n = 0, so matching the closed form
    is equivalent to satisfying that recurrence).

    a_hat and b_hat are k1 + u a_1 (1 - q**(-1/2)) and
    k2 - u a_1 (1 - q**(1/2)), and r_n = a_hat q**(n/2) + b_hat q**(-n/2)
    follows wherever t_n meets its closed form, so it needs no test of its
    own. The coefficient of x**(n+1) in pi D_q P_n is a_n, so a fit gives
    a_n = 0 for deg pi <= 1 and a_n = gamma_n (a_1 = 1, a_0 = gamma_0 = 0)
    for monic pi of degree 2. With u = 1/(q**(1/2) - q**(-1/2)),

        gamma_n - gamma_{n-1} = u (1 - q**(-1/2)) q**(n/2)
                                - u (1 - q**(1/2)) q**(-n/2),

    so in both cases r_n - t_n = a_n - a_{n-1}
    = (a_hat - k1) q**(n/2) + (b_hat - k2) q**(-n/2) at every n >= 1; for
    deg pi <= 1 the factor a_1 = 0 collapses r_n to t_n.

    The closed form is checked on integers. With q**(1/2) = sn/sd and
    k1 = k1n/k1d, k2 = k2n/k2d in lowest terms,

        k1 q**(n/2) + k2 q**(-n/2)
            = (k1n k2d sn**(2n) + k2n k1d sd**(2n)) / (k1d k2d (sn sd)**n),

    and t_n = (num c_n den C_n) / (den c_n num C_n); the two are compared by
    cross-multiplying, with the three powers carried as running products,
    at every n to the horizon, whatever upto is.
    """
    if not fit.is_exact:
        raise ValueError("aux_sequences requires an exact fit")
    N = fit.horizon
    c1, c2 = fit.c[1], fit.c[2]
    C1, C2 = ttrr.C(1), ttrr.C(2)
    q = ctx.q
    qh_plus = ctx.q_half  # q**(1/2)
    qh_minus = 1 / qh_plus  # q**(-1/2)
    k1 = (c2 * C1 - qh_minus * c1 * C2) / ((q - 1) * C1 * C2)
    k2 = (c2 * C1 - qh_plus * c1 * C2) / ((1 / q - 1) * C1 * C2)

    a1 = fit.a[1]
    u = ctx.u
    a_hat = k1 + u * a1 * (1 - qh_minus)
    b_hat = k2 - u * a1 * (1 - qh_plus)

    sn, sd = qh_plus.numerator, qh_plus.denominator
    sn2, sd2, snsd = sn * sn, sd * sd, sn * sd
    k1n, k1d, k2n, k2d = k1.numerator, k1.denominator, k2.numerator, k2.denominator
    # the closed form at n = 0 over its denominator, then advanced by one n per step
    plus, minus, den = k1n * k2d, k2n * k1d, k1d * k2d
    t = [k1 + k2]
    r = [a_hat + b_hat]
    a, c = fit.a, fit.c
    for n in range(1, N + 1):
        plus *= sn2
        minus *= sd2
        den *= snsd
        cn, Cn = c[n], ttrr.C(n)
        if cn.numerator * Cn.denominator * den != cn.denominator * Cn.numerator * (plus + minus):
            raise RecurrenceViolated(n, "(t)")
        if n <= upto:
            tn = cn / Cn
            t.append(tn)
            r.append(tn + a[n] - a[n - 1])
    return AuxSequences(tuple(t), k1, k2, tuple(r), a_hat, b_hat)


def pearson_data(ctx: QContext, ttrr: TTRRSpec, fit: StructureFit) -> PearsonData:
    """Pearson pair (phi, psi) of the orthogonality functional, from the
    initial fit and recurrence coefficients.

    DegenerateR1 (a_1 C_1 + c_1 = 0) is raised only for a hand-built fit:
    no fit that `fit_structure` or `fit_auto` returns as exact has it, as
    an exact fit has c_n != 0 for 1 <= n <= N. For deg pi <= 1, a_1 = 0
    (pi D_q P_1 = pi has no x**2 term), so a_1 C_1 + c_1 = c_1 != 0. For
    monic pi of degree 2, a_n = gamma_n, so a_1 = 1 and a_2 = 2 alpha, and
    identity 1 reads pi = (x + b_1)(x - B_0) + c_1. Suppose c_1 = -C_1.
    With D_q P_2 = 2 alpha x - B_0 - B_1 and P_2(B_0) = -C_1, identity 2 at
    x = B_0 gives -C_1 D_q P_2(B_0) = -(a_2 B_0 + b_2) C_1, so
    b_2 = -B_0 - B_1; its x**2 coefficient gives
    b_2 = 2 alpha (b_1 + B_1) - B_0 - B_1. So b_1 = -B_1 (alpha > 1), and
    pi = (x - B_1)(x - B_0) - C_1 = P_2. Identity 2 then reads
    P_2 (D_q P_2 - a_2 x - b_2) = c_2 P_1, whose sides have degree >= 2
    and <= 1 unless both vanish, so c_2 = 0 and the fit is not exact."""
    if not fit.is_exact:
        raise ValueError("pearson_data requires an exact fit")
    a1, a2 = fit.a[1], fit.a[2]
    b1 = fit.b[1]
    c1, c2 = fit.c[1], fit.c[2]
    B0, B1 = ttrr.B(0), ttrr.B(1)
    C1, C2 = ttrr.C(1), ttrr.C(2)
    alpha = ctx.alpha
    r1_scale = a1 * C1 + c1
    if r1_scale == 0:
        raise DegenerateR1("a_1 C_1 + c_1 = 0; the functional cannot be regular")
    frak_a = (a2 * C2 + c2) * C1 / (r1_scale * C2) - alpha
    frak_b = -B0 + (frak_a + alpha) * B1 - (b1 + a1 * B1) * C1 / r1_scale
    psi = Poly((-B0, Fraction(1)))
    phi = Poly((-frak_b, frak_a)) * psi - (frak_a + alpha) * C1
    return PearsonData(frak_a, frak_b, phi, psi)


def pearson_check(ctx: QContext, ttrr: TTRRSpec, pd: PearsonData, N: int) -> Report:
    """Check -<u, phi D_q x**n> = <u, psi S_q x**n> for 0 <= n <= N, using
    exact moments to order N + 1, which `moments` computes from
    B_0..B_{N//2} and C_1..C_{(N+1)//2} alone, with no P_n; N + 1 > n_max
    raises IndexError. The monomial images are the context's
    operator rows, and each side is one dot product of a row with the
    moments of phi u or psi u. The report holds one pearson check per
    order; a failing one carries both sides as its witness.

    Order N + 1 is enough: deg phi <= 2 and deg D_q x**n = n - 1, and
    deg psi = 1 and deg S_q x**n = n, so at n <= N both products have
    degree at most N + 1, and <u, x**k> enters only for k <= N + 1.

    Each side stays an unreduced (numerator, denominator) pair, and the
    two are compared by cross-multiplying; only a failing order builds
    their `Fraction`s, for its witness."""
    fr = format_rational
    mom = moments(ttrr, N + 1)
    phi_u, psi_u = mom.weighted(pd.phi), mom.weighted(pd.psi)
    d_rows, s_rows = operator_rows(ctx, N)
    checks = []
    for n in range(N + 1):
        lhs_num, lhs_den = phi_u.ratio(*d_rows[n])
        rhs_num, rhs_den = psi_u.ratio(*s_rows[n])
        if -lhs_num * rhs_den != rhs_num * lhs_den:
            lhs, rhs = Fraction(-lhs_num, lhs_den), Fraction(rhs_num, rhs_den)
            witness = f"Pearson identity fails at n = {n}: {fr(lhs)} != {fr(rhs)}"
            checks.append(Check("pearson", n, False, witness))
        else:
            checks.append(Check("pearson", n, True, ""))
    return Report(tuple(checks))


# the equations of the difference system, in the order of Report.sorted
_SYSTEM_NAMES = (*(f"raw-{k}" for k in range(3, 8)), *(f"reduced-{k}" for k in range(1, 6)))


def verify_difference_system(
    ctx: QContext, ttrr: TTRRSpec, fit: StructureFit, aux: AuxSequences
) -> Report:
    """Evaluate the full difference-equation system tying (B_n, C_n) to the
    fitted sequences, exactly, for 2 <= n <= horizon - 3.

    Two layers are checked: the reduced system (five equations, named
    reduced-1 .. reduced-5) and the raw seven-term relations it was distilled
    from (raw-3 .. raw-7). Every residual is reported per equation and per
    index, failures included (nothing raises here).

    Every index the window of n reads lies in 0..horizon, so no sequence
    needs padding. The residuals are evaluated as unreduced `Ratio`s, and
    only a nonzero one is normalized, into the `Fraction` its witness
    prints; the terms that several equations share are formed once per n.
    """
    if not fit.is_exact:
        raise ValueError("verify_difference_system requires an exact fit")
    N = fit.horizon
    of = Ratio.of
    a, b, c = [of(v) for v in fit.a], [of(v) for v in fit.b], [of(v) for v in fit.c]
    B = [of(v) for v in ttrr.b[: N + 1]]
    C = [Ratio(0)] + [of(v) for v in ttrr.c[:N]]
    t, r = [of(v) for v in aux.t], [of(v) for v in aux.r]
    alpha = of(ctx.alpha)
    one = Ratio(1)
    two_alpha, one_minus_alpha = 2 * alpha, one - alpha
    one_minus_alpha2 = one - alpha * alpha  # 1 - alpha**2
    two_one_plus_alpha = 2 * (one + alpha)  # 2 (1 + alpha)
    one_minus_two_alpha = one - two_alpha
    quarter = Ratio(1, 4)
    B_sq = [v * v for v in B]  # B_n**2
    alpha_b = [alpha * v for v in b]  # alpha b_n
    C_quarter = [v - quarter for v in C]  # C_n - 1/4

    residuals = {name: [] for name in _SYSTEM_NAMES}
    for n in range(2, N - 2):
        # window: x0 = x_n, x1 = x_{n+1}, xm1 = x_{n-1}, ...
        am2, am1, a0, a1, a2 = a[n - 2 : n + 3]
        bm1, b0, b1, b2 = b[n - 1 : n + 3]
        cm1, c0, c1, c2 = c[n - 1 : n + 3]
        Bm1, B0, B1, B2 = B[n - 1 : n + 3]
        Cm1, C0, C1 = C[n - 1 : n + 2]
        tm2, tm1, t0, t1, t2 = t[n - 2 : n + 3]
        rm2, rm1, r0, r1, r2, r3 = r[n - 2 : n + 4]
        Bm1_sq, B0_sq, B1_sq = B_sq[n - 1 : n + 2]
        alpha_bm1, alpha_b0, alpha_b1 = alpha_b[n - 1 : n + 2]
        Cqm1, Cq0, Cq1 = C_quarter[n - 1 : n + 2]
        # differences of a that several equations read
        a1_a2, a0_am1, am1_am2 = a1 - a2, a0 - am1, am1 - am2
        a0_a2, a0_am2 = a0 - a2, a0 - am2
        two_a0_a2_am1 = a0_a2 + a0_am1  # 2 a_n - a_{n+2} - a_{n-1}
        two_a0_a1_am2 = a0_am2 + (a0 - a1)  # 2 a_n - a_{n+1} - a_{n-2}
        one_minus_alpha2_a0 = one_minus_alpha2 * a0
        two_one_minus_alpha_a0 = 2 * (one_minus_alpha * a0)
        # three terms that reduced-5 and raw-7 share
        cubic = 2 * one_minus_alpha * (a0 * B0 + b0) * B0_sq
        linear = (
            two_a0_a2_am1 * C1
            + two_a0_a1_am2 * C0
            + one_minus_two_alpha * (c0 + c1)
            - one_minus_alpha2_a0
        ) * B0
        b_terms = 2 * ((b0 - alpha_b1) * C1 + (b0 - alpha_bm1) * C0)

        residuals["reduced-1"].append(a2 - two_alpha * a1 + a0)
        residuals["reduced-2"].append(t2 - two_alpha * t1 + t0)
        residuals["reduced-3"].append(r3 * B2 - (r2 + r1) * B1 + r0 * B0)
        residuals["reduced-4"].append(
            r0 * (B0_sq - two_alpha * B0 * Bm1 + Bm1_sq)
            - (r1 + r2) * Cq1
            + two_one_plus_alpha * r0 * Cq0
            - (rm1 + rm2) * Cqm1
        )
        residuals["reduced-5"].append(
            one_minus_alpha2 * b0
            - cubic
            - (t1 + a1_a2) * B1 * C1
            - (t0 + am1_am2) * Bm1 * C0
            - linear
            - b_terms
        )
        residuals["raw-3"].append(a1_a2 * B1 + a0_am1 * B0 + b2 - 2 * alpha_b1 + b0)
        residuals["raw-4"].append(
            (a1_a2 - t2) * B1
            + (a0_am1 + t1 + t0) * B0
            - tm1 * Bm1
            + b1
            - 2 * alpha_b0
            + bm1
        )
        residuals["raw-5"].append(
            a1_a2 * B1_sq
            + two_one_minus_alpha_a0 * B0_sq
            + a0_am1 * B0 * B1
            + a0_a2 * C1
            + (b1 + b0 - 2 * alpha_b1) * B1
            + (b1 + b0 - 2 * alpha_b0) * B0
            + a0_am2 * C0
            + c2
            - two_alpha * c1
            + c0
            - one_minus_alpha2_a0
        )
        residuals["raw-6"].append(
            (two_one_minus_alpha_a0 + t0) * B0_sq
            + (t0 + am1_am2) * Bm1_sq
            + (b0 + bm1 - 2 * alpha_b0) * B0
            + (a0 - tm1 - t1 - a1) * B0 * Bm1
            + (bm1 + b0 - 2 * alpha_bm1) * Bm1
            + (a0_a2 - t2 - t1) * C1
            + (two_one_plus_alpha * t0 + a0_am2) * C0
            - (tm2 + tm1) * Cm1
            + c1
            - two_alpha * c0
            + cm1
            - one_minus_alpha2 * (t0 + a0)
        )
        residuals["raw-7"].append(
            cubic
            + linear
            + (c1 + a1_a2 * C1) * B1
            + (c0 + am1_am2 * C0) * Bm1
            + b_terms
            - one_minus_alpha2 * b0
        )
    checks = []
    for name in _SYSTEM_NAMES:
        for n, residual in enumerate(residuals[name], 2):
            passed = not residual.num
            witness = "" if passed else f"residual {format_rational(residual.fraction())}"
            checks.append(Check(f"system:{name}", n, passed, witness))
    return Report(tuple(checks))


def lemma_predicates(
    ctx: QContext, aux: AuxSequences, pd: PearsonData, deg_pi: int
) -> dict[str, PredicateRecord]:
    """Evaluate the uniqueness predicates appropriate to the pi degree.

    deg pi = 1: the product k1 k2 must vanish.
    deg pi = 2: a_hat, b_hat, (1 - 2 frak_a u), (1 + 2 frak_a u) must all be
    nonzero, and the degenerate Chebyshev data (C_1 = 1/2, frak_a = alpha,
    t_n = -2 gamma_n via k1 = -k2 = -2u) is recorded alongside.

    Every outcome lands in the ledger with witnesses; nothing raises.
    """
    fr = format_rational
    ledger: dict[str, PredicateRecord] = {}
    if deg_pi == 1:
        product = aux.k1 * aux.k2
        ledger["k1k2-zero"] = PredicateRecord(
            product == 0, {"k1": fr(aux.k1), "k2": fr(aux.k2), "product": fr(product)}
        )
    elif deg_pi == 2:
        u = ctx.u
        f_minus = 1 - 2 * pd.frak_a * u
        f_plus = 1 + 2 * pd.frak_a * u
        product = aux.a_hat * aux.b_hat * f_minus * f_plus
        ledger["regularity-product-nonzero"] = PredicateRecord(
            product != 0,
            {
                "a_hat": fr(aux.a_hat),
                "b_hat": fr(aux.b_hat),
                "one-minus-2au": fr(f_minus),
                "one-plus-2au": fr(f_plus),
            },
        )
        # Degenerate branch data: frak_a = alpha together with C_1 = 1/2.
        # C_1 is recoverable from phi(0) = frak_b B_0 - (frak_a + alpha) C_1
        # whenever frak_a != -alpha (B_0 = -psi(0)).
        witness = {"frak_a": fr(pd.frak_a), "alpha": fr(ctx.alpha)}
        # frak_a = -alpha leaves cheb False, as alpha > 1 gives -alpha != alpha.
        cheb = pd.frak_a == ctx.alpha
        if pd.frak_a + ctx.alpha != 0:
            B0 = -pd.psi.coeff(0)
            C1 = (pd.frak_b * B0 - pd.phi.coeff(0)) / (pd.frak_a + ctx.alpha)
            witness["C1"] = fr(C1)
            cheb = cheb and C1 == Fraction(1, 2)
        ledger["chebyshev-data"] = PredicateRecord(cheb, witness)
        minus_two_u = -2 * u
        k_pair = aux.k1 == minus_two_u and aux.k2 == 2 * u
        ledger["k-pair-is-minus-plus-2u"] = PredicateRecord(
            k_pair, {"k1": fr(aux.k1), "k2": fr(aux.k2), "minus-2u": fr(minus_two_u)}
        )
        # The same rule: aux_sequences has checked t_n = k1 q**(n/2)
        # + k2 q**(-n/2) at every n >= 1, with t_0 = k1 + k2, and
        # -2 gamma_n = -2u q**(n/2) + 2u q**(-n/2). So t_n = -2 gamma_n at
        # every n exactly when (k1 + 2u) q**(n/2) + (k2 - 2u) q**(-n/2)
        # vanishes at n = 0 and n = 1, which for q != 1 means k1 = -2u and
        # k2 = 2u.
        ledger["t-equals-minus-two-gamma"] = PredicateRecord(
            k_pair, {"t1": fr(aux.t[1]), "gamma1": "1"}
        )
    return ledger


def recover_asc_params(
    ctx: QContext, ttrr: TTRRSpec, fit: StructureFit, *, inverse: bool = False
) -> tuple[Fraction, Fraction]:
    """Al-Salam-Chihara parameters from B_0 and C_1:

        c + d = 2 B_0,        c d = 1 - 4 C_1 / (1 - q),

    (with q replaced by 1/q for the inverse-base reading). The pair must
    satisfy c**2 + d**2 = 2 alpha c d, equivalently c/d = q**(+-1/2);
    otherwise ConstraintViolated. Under that constraint the splitting
    quadratic always has a rational root, given in closed form below.
    Returned in ascending (numerator, denominator) order; compare as a set.
    """
    if not fit.is_exact:
        raise ValueError("recover_asc_params requires an exact fit")
    q = 1 / ctx.q if inverse else ctx.q
    sum_cd = 2 * ttrr.B(0)
    prod_cd = 1 - 4 * ttrr.C(1) / (1 - q)
    if prod_cd == 0:
        raise ConstraintViolated("c d = 0 degenerates to the q-Hermite case")
    # c**2 + d**2 = 2 alpha c d  <=>  (c + d)**2 = 2 (alpha + 1) c d
    if sum_cd**2 != 2 * (ctx.alpha + 1) * prod_cd:
        raise ConstraintViolated(
            f"(c+d)^2 = {format_rational(sum_cd ** 2)} but "
            f"2(alpha+1)cd = {format_rational(2 * (ctx.alpha + 1) * prod_cd)}"
        )
    # 2 (alpha + 1) = (t + 1/t)**2 with t = q**(1/4), so the discriminant
    # (c+d)**2 - 4 c d is ((c+d) (t - 1/t) / (t + 1/t))**2: a rational square.
    t2 = ctx.t**2
    root = sum_cd * (t2 - 1) / (t2 + 1)
    c = (sum_cd + root) / 2
    d = (sum_cd - root) / 2
    pair = sorted((c, d), key=lambda v: (v.numerator, v.denominator))
    return pair[0], pair[1]


def recover_qjacobi_params(
    ctx: QContext,
    ttrr: TTRRSpec,
    fit: StructureFit,
    aux: AuxSequences,
    pd: PearsonData,
    *,
    inverse: bool = False,
) -> tuple[Fraction, Fraction]:
    """Continuous q-Jacobi parameters (p_a, p_b) = (q**(a/2), q**(b/2)).

    -p_a and p_b are the roots of the recovery quadratic, so

        p_a - p_b = 2 r_1 B_0 q**(1/4) / (b_hat (1 + q**(1/2))),
        p_a p_b   = -a_hat / b_hat,

    and the positive root pair is unambiguous (no swap freedom: the two
    parameters enter the family asymmetrically). The symmetric case B_n = 0
    forces p_a = p_b = sqrt(-a_hat / b_hat). For the inverse-base reading
    the geometric roles swap: k1 <-> k2, a_hat <-> b_hat, u -> -u and
    t -> 1/t.

    Recovered parameters are cross-checked against the b_hat closed form
    u q**(1/2) (1 + q**(-(a+b+2)/2)), the fitted b_n and c_n closed forms
    (n = 1..N), the family's regularity to N (`cq_jacobi_scan`, the
    generator's own scan) and the closed form of B_N; any mismatch raises
    ConstraintViolated. These checks pass exactly when
    ttrr_cq_jacobi(ctx, p_a, p_b, inverse=inverse, n_max=N) is regular and
    equals the input to N, so the family is not regenerated. Proof, for aux
    and pd derived from this (ctx, ttrr, fit), as `classify` passes them;
    F is the family at (p_a, p_b), and x^F its value of x. The closed forms
    are those of F's own structure fit and b_hat, and recovery run on F
    gives back (p_a, p_b).

    1. C_1. The b_hat check and p_a p_b = -a_hat / b_hat give
       (a_hat, b_hat) = (a_hat^F, b_hat^F), hence (k1, k2) = (k1^F, k2^F)
       (a_1 = 1 for both), hence t_1 = k1 q**(1/2) + k2 q**(-1/2) = t_1^F
       and C_1 = c_1 / t_1 = C_1^F.
    2. B_0. If B_n = 0 to N, then p_a = p_b, and F is symmetric, so
       B_0^F = 0. Otherwise the first recovery formula holds for the input
       and for F with the same p_a - p_b, b_hat and
       r_1 = t_1 + 1 = r_1^F, which is nonzero (C_1 r_1 = a_1 C_1 + c_1,
       nonzero for an exact fit, see `pearson_data`); so B_0 = B_0^F.
    3. pi. Identity 1 reads pi = (a_1 x + b_1)(x - B_0) + c_1, so pi = pi^F.
    4. P_0..P_N. For fixed pi and (a_n, b_n, c_n), identity n fixes monic
       P_n given P_{n-1}: f -> pi D_q f - (a_n x + b_n) f sends x**k to
       (gamma_k - gamma_n) x**(k+1) + lower terms (a_n = gamma_n, monic
       pi of degree 2), and gamma_k = q**(-(k-1)/2) (1 + q + ... + q**(k-1))
       grows with k for 0 < q < 1, so the coefficients of x**n .. x**1 of
       the identity solve for those of P_n below x**n one at a time. Both
       fits are exact to N, so P_n = P_n^F for n <= N by induction from
       P_0 = 1, and P_{n+1} = (x - B_n) P_n - C_n P_{n-1} gives
       B_n = B_n^F and C_n = C_n^F for n < N.
    5. C_N. `aux_sequences` has checked t_N = k1 q**(N/2) + k2 q**(-N/2),
       which is t_N^F by step 1, so C_N = c_N / t_N = C_N^F.

    Only B_N is left: it first enters P_{N+1}, which neither the fit to N
    nor the Pearson check reads (the moments it needs stop at mu_{N+1},
    which reads B_0..B_{N//2} only; see `moments`). A B_N off its
    closed form keeps the witness "regenerated recurrence differs at B_N".
    Regularity is not implied: a factor of the generator's scan past N can
    vanish while every check to N passes (1 - q**(N+1) p_a**2 sits in y_N,
    so only C_{N+1} = 0), and the scan's message keeps the witness
    "recovered parameters are irregular: ...". Past the scan, the generator
    raises nothing: p_a, p_b > 0 (below), the scan covers every
    denominator, and no C_n vanishes.
    """
    if not fit.is_exact:
        raise ValueError("recover_qjacobi_params requires an exact fit")
    N = fit.horizon
    # Mirrored reading for the q -> 1/q branch.
    if inverse:
        tq = 1 / ctx.t
        u = -ctx.u
        a_hat, b_hat = aux.b_hat, aux.a_hat
    else:
        tq = ctx.t
        u = ctx.u
        a_hat, b_hat = aux.a_hat, aux.b_hat
    if a_hat == 0 or b_hat == 0:
        raise ConstraintViolated("a_hat and b_hat must both be nonzero")

    prod = -a_hat / b_hat  # q**((a+b)/2)
    if prod <= 0:
        raise ConstraintViolated("recovered q**((a+b)/2) is not positive")

    symmetric = all(ttrr.B(n) == 0 for n in range(N + 1))
    if symmetric:
        p = _sqrt_exact(prod)
        if p is None:
            raise IrrationalRoots(Fraction(0), prod, prod)
        p_a = p_b = p
    else:
        diff = 2 * aux.r[1] * ttrr.B(0) * tq / (b_hat * (1 + tq**2))
        disc = diff**2 + 4 * prod
        root = _sqrt_exact(disc)
        if root is None:
            raise IrrationalRoots(diff, -prod, disc)
        p_a = (root + diff) / 2
        p_b = (root - diff) / 2
    # Both are positive without a check: prod > 0, so p = sqrt(prod) > 0 in
    # the symmetric branch, and otherwise root**2 = diff**2 + 4 prod > diff**2
    # gives root > |diff|, so (root + diff)/2 > 0 and (root - diff)/2 > 0.

    # b_hat = u q**(1/2) (1 + q**(-(a+b+2)/2)); q**((a+b+2)/2) = prod * q
    expected_b_hat = u * tq**2 * (1 + 1 / (prod * tq**4))
    if b_hat != expected_b_hat:
        raise ConstraintViolated(
            f"b_hat = {format_rational(b_hat)} but the parameter closed form "
            f"gives {format_rational(expected_b_hat)}"
        )

    # Fitted b_n and c_n against their closed forms (with s = q**(1/2))
    #   b_n = (p_a - p_b) gamma_n (1 + q**n s (p_a p_b)**2) / (2 p_a p_b t (1 - q**n p_a p_b)),
    #   c_n = -(1 + 1/(p_a p_b s)) gamma_n (1 - q**n p_a**2) (1 - q**n p_b**2)
    #         (1 - q**n (p_a p_b)**2) / (4 (1 - q**n p_a p_b / s) (1 - q**n p_a p_b)**2),
    # compared on integers: q**n = Qn/Qd = num[n]/den[n] of `cq_jacobi_powers`, and
    # gamma_n = G_n / Ad**(n-1) with 2 alpha = An/Ad, by the recurrence
    # gamma_{n+1} = 2 alpha gamma_n - gamma_{n-1}, which reads
    # G_{n+1} = An G_n - Ad**2 G_{n-1}. Each factor 1 - q**n x with x = xn/xd
    # is (Qd xd - Qn xn) / (Qd xd), the Qd powers of each side cancel, and a
    # fitted value is compared with its closed form by cross-multiplying.
    s = tq**2  # q**(1/2) of the chosen base
    ab = p_a * p_b
    b_factor = (p_a - p_b) / (2 * ab * tq)
    c_factor = -(1 + 1 / (ab * s)) / 4
    (abn, abd), (absn, absd), (ppsn, ppsd), (aan, aad), (bbn, bbd), (ppn, ppd) = (
        (x.numerator, x.denominator)
        for x in (ab, ab / s, ab * ab * s, p_a * p_a, p_b * p_b, ab * ab)
    )
    two_alpha = 2 * ctx.alpha
    An, Ad = two_alpha.numerator, two_alpha.denominator
    Ad2 = Ad * Ad
    # the factors of the closed forms that do not depend on n
    b_num, b_den = b_factor.numerator * abd, b_factor.denominator * ppsd
    c_num = c_factor.numerator * absd * abd * abd
    c_den = c_factor.denominator * aad * bbd * ppd
    powers = num, den = cq_jacobi_powers(tq, N)
    G_prev, G, Gd = 0, 1, 1  # G_0, G_1 and Ad**0: gamma_1 = 1
    for n in range(1, N + 1):
        Qn, Qd = num[n], den[n]
        denom_ab = Qd * abd - Qn * abn  # 1 - q**(n+(a+b)/2)
        # it vanishes with r_n = b_hat q**(-n/2) (1 - q**n p_a p_b), which
        # is nonzero at n = 1 (C_1 r_1 = a_1 C_1 + c_1, see `pearson_data`)
        if not denom_ab:
            raise ConstraintViolated(f"degenerate denominator at n = {n}")
        denom_shift = Qd * absd - Qn * absn  # 1 - q**(n+(a+b-1)/2)
        if not denom_shift:
            raise ConstraintViolated(f"degenerate denominator at n = {n}")
        bn, cn = fit.b[n], fit.c[n]
        b_closed = b_num * G * (Qd * ppsd + Qn * ppsn)  # (1 + q**n s (p_a p_b)**2)
        if bn.numerator * b_den * Gd * denom_ab != bn.denominator * b_closed:
            raise ConstraintViolated(f"fitted b_{n} disagrees with the closed form")
        c_closed = (
            c_num * G * (Qd * aad - Qn * aan) * (Qd * bbd - Qn * bbn) * (Qd * ppd - Qn * ppn)
        )
        if cn.numerator * c_den * Gd * denom_shift * denom_ab**2 != cn.denominator * c_closed:
            raise ConstraintViolated(f"fitted c_{n} disagrees with the closed form")
        G_prev, G = G, An * G - Ad2 * G_prev
        Gd *= Ad

    # What the checks above leave open (see the docstring): the family's
    # regularity to N, and B_N.
    try:
        cq_jacobi_scan(powers, p_a, p_b, N)
    except IrregularParameters as exc:
        raise ConstraintViolated(f"recovered parameters are irregular: {exc}") from exc
    (((b_num, b_den), _, _),) = cq_jacobi_terms(tq, p_a, p_b, powers, range(N, N + 1))
    b_N = ttrr.B(N)
    if b_N.numerator * b_den != b_N.denominator * b_num:
        raise ConstraintViolated(f"regenerated recurrence differs at B_{N}")
    return p_a, p_b


def _record_fit(ledger, d: int, f: StructureFit) -> None:
    ledger[f"fit-deg-{d}"] = PredicateRecord(
        f.is_exact, {"status": f.status, "n": "" if f.failure_n is None else str(f.failure_n)}
    )


def classify(ctx: QContext, ttrr: TTRRSpec, N: int = 10) -> Classification:
    """End-to-end classification of a recurrence.

    Tries pi degrees 0, 1, 2 in order; on the first exact fit derives the
    auxiliary and Pearson data, evaluates the lemma predicates, and attempts
    parameter recovery for the matching family under the plain base first
    and the q -> 1/q parameterization second. Total: all failures become
    ledger entries on a NotCharacterized result.
    """
    if N < 6:
        raise ValueError(f"classification horizon must be at least 6, got N = {N}")
    ledger: dict[str, PredicateRecord] = {}
    fits = fit_auto(ctx, ttrr, N)  # N > n_max raises here
    for d, f in enumerate(fits):
        _record_fit(ledger, d, f)
    deg, fit = len(fits) - 1, fits[-1]
    if not fit.is_exact:
        return Classification(FAMILY_NOT_CHARACTERIZED, {}, None, ledger, fit)

    def not_characterized(reason: str, detail: str) -> Classification:
        ledger[reason] = PredicateRecord(False, {"detail": detail})
        return Classification(FAMILY_NOT_CHARACTERIZED, {}, None, ledger, fit)

    try:
        aux = _aux(ctx, ttrr, fit, 1)
    except RecurrenceViolated as exc:
        return not_characterized("aux-recurrence", str(exc))
    pd = pearson_data(ctx, ttrr, fit)  # an exact fit never raises DegenerateR1
    ledger.update(lemma_predicates(ctx, aux, pd, deg))
    failures = pearson_check(ctx, ttrr, pd, min(N, ttrr.n_max - 2)).failures()
    if failures:
        return not_characterized("pearson", failures[0].witness)
    ledger["pearson"] = PredicateRecord(True, {})

    def regen_matches(candidate: TTRRSpec, name: str) -> bool:
        mismatch = ttrr_equal(ttrr, candidate, N)
        ledger[f"regenerated-{name}"] = PredicateRecord(
            mismatch is None,
            {} if mismatch is None else {"first-mismatch": f"{mismatch[0]}_{mismatch[1]}"},
        )
        return mismatch is None

    # candidates are regenerated (and regularity-scanned) exactly over the
    # comparison window 0..N
    if deg == 0:
        for base, inverse in ((BASE_Q, False), (BASE_Q_INVERSE, True)):
            candidate = ttrr_qhermite(ctx, inverse=inverse, n_max=N)
            if regen_matches(candidate, f"q-hermite-{base}"):
                return Classification(FAMILY_QHERMITE, {}, base, ledger, fit)
        return not_characterized("q-hermite-regeneration", "no base matched")

    if deg == 1:
        if aux.k1 * aux.k2 != 0:
            return not_characterized("k1k2-nonzero", "uniqueness predicate fails")
        for base, inverse in ((BASE_Q, False), (BASE_Q_INVERSE, True)):
            try:
                c, d_param = recover_asc_params(ctx, ttrr, fit, inverse=inverse)
            except ConstraintViolated as exc:
                ledger[f"asc-constraint-{base}"] = PredicateRecord(False, {"detail": str(exc)})
                continue
            try:
                candidate = ttrr_alsalam_chihara(
                    ctx, c, d_param, inverse=inverse, n_max=N
                )
            except IrregularParameters:
                continue
            if regen_matches(candidate, f"asc-{base}"):
                return Classification(
                    FAMILY_ASC, {"c": c, "d": d_param}, base, ledger, fit
                )
        return not_characterized("asc-recovery", "no base matched")

    # deg == 2: Chebyshev first kind (recorded only on a match) or
    # continuous q-Jacobi
    if ttrr_equal(ttrr, ttrr_chebyshev_t(n_max=N), N) is None:
        ledger["regenerated-chebyshev-t"] = PredicateRecord(True, {})
        return Classification(FAMILY_CHEBYSHEV_T, {}, BASE_Q, ledger, fit)
    for base, inverse in ((BASE_Q, False), (BASE_Q_INVERSE, True)):
        try:
            p_a, p_b = recover_qjacobi_params(ctx, ttrr, fit, aux, pd, inverse=inverse)
        except (ConstraintViolated, IrrationalRoots) as exc:
            ledger[f"qjacobi-recovery-{base}"] = PredicateRecord(False, {"detail": str(exc)})
            continue
        ledger[f"regenerated-qjacobi-{base}"] = PredicateRecord(True, {})
        return Classification(
            FAMILY_CQ_JACOBI, {"p_a": p_a, "p_b": p_b}, base, ledger, fit
        )
    return not_characterized("qjacobi-recovery", "no base matched")

