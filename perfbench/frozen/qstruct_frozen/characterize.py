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
q**(n/2) and q**(-n/2) swap roles, so k1 <-> k2 and a_hat <-> b_hat) and
regenerating the family recurrence with inverted powers. `classify` is a
total function: every failure mode is recorded as data in the predicate
ledger rather than raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from qstruct_frozen.awops import dq_apply, sq_apply
from qstruct_frozen.families import (
    IrregularParameters,
    TTRRSpec,
    generate_ops,
    moments,
    ttrr_alsalam_chihara,
    ttrr_chebyshev_t,
    ttrr_cq_jacobi,
    ttrr_equal,
    ttrr_qhermite,
)
from qstruct_frozen.poly import Poly
from qstruct_frozen.report import Check, Report
from qstruct_frozen.scalar import QContext, format_rational, gamma_n, qpow
from qstruct_frozen.structure import StructureFit, fit_structure

__all__ = [
    "RecurrenceViolated",
    "DegenerateR1",
    "PearsonViolated",
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
    "FAMILY_ASC_SYMMETRIC",
    "FAMILY_CHEBYSHEV_T",
    "FAMILY_CQ_JACOBI",
    "FAMILY_NOT_CHARACTERIZED",
]

FAMILY_QHERMITE = "q-hermite"
FAMILY_ASC = "alsalam-chihara"
FAMILY_ASC_SYMMETRIC = "alsalam-chihara-symmetric"
FAMILY_CHEBYSHEV_T = "chebyshev-t"
FAMILY_CQ_JACOBI = "continuous-q-jacobi"
FAMILY_NOT_CHARACTERIZED = "not-characterized"

BASE_Q = "q"
BASE_Q_INVERSE = "q-inverse"


class RecurrenceViolated(Exception):
    """t_n or r_n fails its two-geometric-terms closed form at index n."""

    def __init__(self, n: int, detail: str = ""):
        self.n = n
        super().__init__(f"auxiliary sequence violates its recurrence at n = {n} {detail}".rstrip())


class DegenerateR1(Exception):
    """a_1 C_1 + c_1 = 0, impossible for a regular functional."""


class PearsonViolated(Exception):
    """The distributional Pearson identity fails at moment order n."""

    def __init__(self, n: int, lhs: Fraction, rhs: Fraction):
        self.n = n
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(
            f"Pearson identity fails at n = {n}: "
            f"{format_rational(lhs)} != {format_rational(rhs)}"
        )


class ConstraintViolated(Exception):
    """Recovered parameters do not satisfy the family's defining constraint."""


class IrrationalRoots(Exception):
    """A recovery quadratic does not split over the rationals; carries the
    symmetric functions so classification can still proceed on those."""

    def __init__(self, sum_: Fraction, product: Fraction, discriminant: Fraction):
        self.sum = sum_
        self.product = product
        self.discriminant = discriminant
        super().__init__(
            f"quadratic with sum {format_rational(sum_)}, product "
            f"{format_rational(product)} has non-square discriminant "
            f"{format_rational(discriminant)}"
        )


@dataclass(frozen=True)
class AuxSequences:
    """t_n = c_n / C_n and r_n = t_n + a_n - a_{n-1} with their geometric-pair
    data. Index 0 entries follow the compatibility conventions t_0 = k1 + k2
    and r_0 = a_hat + b_hat."""

    t: tuple[Fraction, ...]
    k1: Fraction
    k2: Fraction
    r: tuple[Fraction, ...]
    a_hat: Fraction
    b_hat: Fraction


@dataclass(frozen=True)
class PearsonData:
    """Data of the x-classical (Pearson-type) equation D_q(phi u) = S_q(psi u):
    psi(X) = X - B_0 and phi(X) = (frak_a X - frak_b)(X - B_0) - (frak_a + alpha) C_1."""

    frak_a: Fraction
    frak_b: Fraction
    phi: Poly
    psi: Poly


@dataclass
class PredicateRecord:
    holds: bool
    witness: dict[str, str] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"holds": self.holds, "witness": dict(sorted(self.witness.items()))}


PredicateLedger = dict


@dataclass
class Classification:
    family: str
    params: dict[str, Fraction]
    base: str | None
    predicates: dict[str, PredicateRecord]
    fit: StructureFit | None

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
    """Rational square root, or None when x is not a perfect square."""
    if x < 0:
        return None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def aux_sequences(ctx: QContext, ttrr: TTRRSpec, fit: StructureFit) -> AuxSequences:
    """Derive (k1, k2, a_hat, b_hat) and materialize t_n, r_n to the fit
    horizon, verifying the closed forms

        t_n = k1 q**(n/2) + k2 q**(-n/2),
        r_n = a_hat q**(n/2) + b_hat q**(-n/2)

    exactly at every index (RecurrenceViolated on the first failure; both
    sequences solve x_{n+2} - 2 alpha x_{n+1} + x_n = 0, so matching the
    closed form is equivalent to satisfying that recurrence).

    a_hat and b_hat are k1 + u a_1 (1 - q**(-1/2)) and
    k2 - u a_1 (1 - q**(1/2)); with a monic pi of degree 2 the fit forces
    a_1 = 1, recovering the familiar displayed form, while for lower degrees
    a_1 = 0 collapses r_n to t_n.
    """
    if not fit.is_exact:
        raise ValueError("aux_sequences requires an exact fit")
    N = fit.horizon
    c1, c2 = fit.c[1], fit.c[2]
    C1, C2 = ttrr.C(1), ttrr.C(2)
    q = ctx.q
    qh_plus = qpow(ctx, 2)  # q**(1/2)
    qh_minus = qpow(ctx, -2)  # q**(-1/2)
    k1 = (c2 * C1 - qh_minus * c1 * C2) / ((q - 1) * C1 * C2)
    k2 = (c2 * C1 - qh_plus * c1 * C2) / ((1 / q - 1) * C1 * C2)

    a1 = fit.a[1]
    u = ctx.u
    a_hat = k1 + u * a1 * (1 - qh_minus)
    b_hat = k2 - u * a1 * (1 - qh_plus)

    t = [k1 + k2]
    r = [a_hat + b_hat]
    for n in range(1, N + 1):
        tn = fit.c[n] / ttrr.C(n)
        if tn != k1 * qpow(ctx, 2 * n) + k2 * qpow(ctx, -2 * n):
            raise RecurrenceViolated(n, "(t)")
        rn = tn + fit.a[n] - fit.a[n - 1]
        if rn != a_hat * qpow(ctx, 2 * n) + b_hat * qpow(ctx, -2 * n):
            raise RecurrenceViolated(n, "(r)")
        t.append(tn)
        r.append(rn)
    return AuxSequences(t=tuple(t), k1=k1, k2=k2, r=tuple(r), a_hat=a_hat, b_hat=b_hat)


def pearson_data(ctx: QContext, ttrr: TTRRSpec, fit: StructureFit) -> PearsonData:
    """Pearson pair (phi, psi) of the orthogonality functional, from the
    initial fit and recurrence coefficients."""
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
    return PearsonData(frak_a=frak_a, frak_b=frak_b, phi=phi, psi=psi)


def pearson_check(ctx: QContext, ttrr: TTRRSpec, pd: PearsonData, N: int) -> Report:
    """Assert -<u, phi D_q x**n> = <u, psi S_q x**n> for 0 <= n <= N, using
    exact moments (needed to order N + 2). Raises PearsonViolated at the
    first failing order; the returned report lists every order checked."""
    mom = moments(ttrr, N + 2)
    checks = []
    for n in range(N + 1):
        xn = Poly.monomial(n)
        lhs = -mom.apply(pd.phi * dq_apply(ctx, xn))
        rhs = mom.apply(pd.psi * sq_apply(ctx, xn))
        if lhs != rhs:
            raise PearsonViolated(n, lhs, rhs)
        checks.append(Check("pearson", n, True))
    return Report(tuple(checks))


def verify_difference_system(
    ctx: QContext, ttrr: TTRRSpec, fit: StructureFit, aux: AuxSequences
) -> Report:
    """Evaluate the full difference-equation system tying (B_n, C_n) to the
    fitted sequences, exactly, for 2 <= n <= horizon - 3.

    Two layers are checked: the reduced system (five equations, named
    reduced-1 .. reduced-5) and the raw seven-term relations it was distilled
    from (raw-3 .. raw-7). Every residual is reported per equation and per
    index, failures included (nothing raises here).
    """
    if not fit.is_exact:
        raise ValueError("verify_difference_system requires an exact fit")
    N = fit.horizon
    alpha = ctx.alpha
    zero = Fraction(0)

    def a(n):
        return fit.a[n] if n >= 0 else zero

    def b(n):
        return fit.b[n] if n >= 0 else zero

    def c(n):
        return fit.c[n] if n >= 0 else zero

    def B(n):
        return ttrr.B(n)

    def C(n):
        return ttrr.C(n)

    def t(n):
        return aux.t[n]

    def r(n):
        return aux.r[n]

    quarter = Fraction(1, 4)

    def reduced_1(n):
        return a(n + 2) - 2 * alpha * a(n + 1) + a(n)

    def reduced_2(n):
        return t(n + 2) - 2 * alpha * t(n + 1) + t(n)

    def reduced_3(n):
        return r(n + 3) * B(n + 2) - (r(n + 2) + r(n + 1)) * B(n + 1) + r(n) * B(n)

    def reduced_4(n):
        lhs = r(n) * (B(n) ** 2 - 2 * alpha * B(n) * B(n - 1) + B(n - 1) ** 2)
        rhs = (
            (r(n + 1) + r(n + 2)) * (C(n + 1) - quarter)
            - 2 * (1 + alpha) * r(n) * (C(n) - quarter)
            + (r(n - 1) + r(n - 2)) * (C(n - 1) - quarter)
        )
        return lhs - rhs

    def reduced_5(n):
        rhs = (
            2 * (1 - alpha) * (a(n) * B(n) + b(n)) * B(n) ** 2
            + (t(n + 1) + a(n + 1) - a(n + 2)) * B(n + 1) * C(n + 1)
            + (t(n) + a(n - 1) - a(n - 2)) * B(n - 1) * C(n)
            + (
                (2 * a(n) - a(n + 2) - a(n - 1)) * C(n + 1)
                + (2 * a(n) - a(n + 1) - a(n - 2)) * C(n)
                + (1 - 2 * alpha) * (c(n) + c(n + 1))
                + (alpha**2 - 1) * a(n)
            )
            * B(n)
            + 2 * (b(n) - alpha * b(n + 1)) * C(n + 1)
            + 2 * (b(n) - alpha * b(n - 1)) * C(n)
        )
        return (1 - alpha**2) * b(n) - rhs

    def raw_3(n):
        return (
            (a(n + 1) - a(n + 2)) * B(n + 1)
            + (a(n) - a(n - 1)) * B(n)
            + b(n + 2)
            - 2 * alpha * b(n + 1)
            + b(n)
        )

    def raw_4(n):
        return (
            (a(n + 1) - a(n + 2) - t(n + 2)) * B(n + 1)
            + (a(n) - a(n - 1) + t(n + 1) + t(n)) * B(n)
            - t(n - 1) * B(n - 1)
            + b(n + 1)
            - 2 * alpha * b(n)
            + b(n - 1)
        )

    def raw_5(n):
        return (
            (a(n + 1) - a(n + 2)) * B(n + 1) ** 2
            + 2 * (1 - alpha) * a(n) * B(n) ** 2
            + (a(n) - a(n - 1)) * B(n) * B(n + 1)
            + (a(n) - a(n + 2)) * C(n + 1)
            + (b(n + 1) + b(n) - 2 * alpha * b(n + 1)) * B(n + 1)
            + (b(n + 1) + b(n) - 2 * alpha * b(n)) * B(n)
            + (a(n) - a(n - 2)) * C(n)
            + c(n + 2)
            - 2 * alpha * c(n + 1)
            + c(n)
            - (1 - alpha**2) * a(n)
        )

    def raw_6(n):
        return (
            (2 * (1 - alpha) * a(n) + t(n)) * B(n) ** 2
            + (t(n) + a(n - 1) - a(n - 2)) * B(n - 1) ** 2
            + (b(n) + b(n - 1) - 2 * alpha * b(n)) * B(n)
            + (a(n) - t(n - 1) - t(n + 1) - a(n + 1)) * B(n) * B(n - 1)
            + (b(n - 1) + b(n) - 2 * alpha * b(n - 1)) * B(n - 1)
            + (a(n) - a(n + 2) - t(n + 2) - t(n + 1)) * C(n + 1)
            + (2 * (1 + alpha) * t(n) + a(n) - a(n - 2)) * C(n)
            - (t(n - 2) + t(n - 1)) * C(n - 1)
            + c(n + 1)
            - 2 * alpha * c(n)
            + c(n - 1)
            - (1 - alpha**2) * (t(n) + a(n))
        )

    def raw_7(n):
        return (
            2 * (1 - alpha) * a(n) * B(n) ** 3
            + 2 * (1 - alpha) * b(n) * B(n) ** 2
            + (
                (2 * a(n) - a(n + 2) - a(n - 1)) * C(n + 1)
                + (2 * a(n) - a(n + 1) - a(n - 2)) * C(n)
                + c(n + 1)
                - 2 * alpha * c(n)
                + c(n)
                - 2 * alpha * c(n + 1)
                - (1 - alpha**2) * a(n)
            )
            * B(n)
            + (c(n + 1) + a(n + 1) * C(n + 1) - a(n + 2) * C(n + 1)) * B(n + 1)
            + (c(n) + a(n - 1) * C(n) - a(n - 2) * C(n)) * B(n - 1)
            + 2 * (b(n) - alpha * b(n + 1)) * C(n + 1)
            + 2 * (b(n) - alpha * b(n - 1)) * C(n)
            - (1 - alpha**2) * b(n)
        )

    equations = [
        ("reduced-1", reduced_1),
        ("reduced-2", reduced_2),
        ("reduced-3", reduced_3),
        ("reduced-4", reduced_4),
        ("reduced-5", reduced_5),
        ("raw-3", raw_3),
        ("raw-4", raw_4),
        ("raw-5", raw_5),
        ("raw-6", raw_6),
        ("raw-7", raw_7),
    ]
    checks = []
    for name, fn in equations:
        for n in range(2, N - 2):
            residual = fn(n)
            checks.append(
                Check(
                    f"system:{name}",
                    n,
                    residual == 0,
                    "" if residual == 0 else f"residual {format_rational(residual)}",
                )
            )
    return Report(tuple(checks)).sorted()


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
            holds=product == 0,
            witness={"k1": fr(aux.k1), "k2": fr(aux.k2), "product": fr(product)},
        )
    elif deg_pi == 2:
        u = ctx.u
        f_minus = 1 - 2 * pd.frak_a * u
        f_plus = 1 + 2 * pd.frak_a * u
        product = aux.a_hat * aux.b_hat * f_minus * f_plus
        ledger["regularity-product-nonzero"] = PredicateRecord(
            holds=product != 0,
            witness={
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
        cheb = pd.frak_a == ctx.alpha
        if pd.frak_a + ctx.alpha != 0:
            B0 = -pd.psi.coeff(0)
            C1 = (pd.frak_b * B0 - pd.phi.coeff(0)) / (pd.frak_a + ctx.alpha)
            witness["C1"] = fr(C1)
            cheb = cheb and C1 == Fraction(1, 2)
        else:
            cheb = False
        ledger["chebyshev-data"] = PredicateRecord(holds=cheb, witness=witness)
        minus_two_u = -2 * u
        ledger["k-pair-is-minus-plus-2u"] = PredicateRecord(
            holds=aux.k1 == minus_two_u and aux.k2 == 2 * u,
            witness={"k1": fr(aux.k1), "k2": fr(aux.k2), "minus-2u": fr(minus_two_u)},
        )
        two_gamma = all(
            aux.t[n] == -2 * gamma_n(ctx, n) for n in range(len(aux.t))
        )
        ledger["t-equals-minus-two-gamma"] = PredicateRecord(
            holds=two_gamma,
            witness={"t1": fr(aux.t[1]) if len(aux.t) > 1 else "", "gamma1": "1"},
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
    quadratic always has a rational root, so IrrationalRoots is defensive.
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
    disc = sum_cd**2 - 4 * prod_cd
    root = _sqrt_exact(disc)
    if root is None:
        raise IrrationalRoots(sum_cd, prod_cd, disc)
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
    u q**(1/2) (1 + q**(-(a+b+2)/2)), the fitted b_n and c_n closed forms,
    and full regeneration of the recurrence; any mismatch raises
    ConstraintViolated.
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
    if p_a <= 0 or p_b <= 0:
        raise ConstraintViolated("recovered parameters are not positive")

    # b_hat = u q**(1/2) (1 + q**(-(a+b+2)/2)); q**((a+b+2)/2) = prod * q
    expected_b_hat = u * tq**2 * (1 + 1 / (prod * tq**4))
    if b_hat != expected_b_hat:
        raise ConstraintViolated(
            f"b_hat = {format_rational(b_hat)} but the parameter closed form "
            f"gives {format_rational(expected_b_hat)}"
        )

    # Fitted b_n and c_n against their closed forms.
    for n in range(1, N + 1):
        qn = tq ** (4 * n)
        g = gamma_n(ctx, n)
        denom_ab = 1 - qn * p_a * p_b  # 1 - q**(n+(a+b)/2)
        if denom_ab == 0:
            raise ConstraintViolated(f"degenerate denominator at n = {n}")
        b_closed = (
            (p_a - p_b)
            * g
            * (1 + qn * (p_a * p_b) ** 2 * tq**2)
            / (2 * denom_ab)
            / (p_a * p_b * tq)
        )
        denom_shift = 1 - qn * p_a * p_b / tq**2  # 1 - q**(n+(a+b-1)/2)
        if denom_shift == 0:
            raise ConstraintViolated(f"degenerate denominator at n = {n}")
        c_closed = (
            -g
            * (1 - qn * p_a**2)
            * (1 - qn * p_b**2)
            * (1 - qn * (p_a * p_b) ** 2)
            * (1 + 1 / (p_a * p_b * tq**2))
            / (4 * denom_shift * denom_ab**2)
        )
        if fit.b[n] != b_closed:
            raise ConstraintViolated(f"fitted b_{n} disagrees with the closed form")
        if fit.c[n] != c_closed:
            raise ConstraintViolated(f"fitted c_{n} disagrees with the closed form")

    # Full regeneration must reproduce the input recurrence.
    try:
        regen = ttrr_cq_jacobi(ctx, p_a, p_b, inverse=inverse, n_max=N)
    except IrregularParameters as exc:
        raise ConstraintViolated(f"recovered parameters are irregular: {exc}") from exc
    mismatch = ttrr_equal(ttrr, regen, N)
    if mismatch is not None:
        kind, n = mismatch
        raise ConstraintViolated(f"regenerated recurrence differs at {kind}_{n}")
    return p_a, p_b


def _record_fit(ledger, d: int, f: StructureFit) -> None:
    ledger[f"fit-deg-{d}"] = PredicateRecord(
        holds=f.is_exact,
        witness={"status": f.status, "n": "" if f.failure_n is None else str(f.failure_n)},
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
        raise ValueError("classification horizon must be at least 6")
    if N > ttrr.n_max:
        raise IndexError(f"N = {N} exceeds materialized horizon {ttrr.n_max}")
    ledger: dict[str, PredicateRecord] = {}
    ops = generate_ops(ttrr, N)

    chosen: tuple[int, StructureFit] | None = None
    last_fit: StructureFit | None = None
    for d in (0, 1, 2):
        f = fit_structure(ctx, ops, d, N)
        _record_fit(ledger, d, f)
        last_fit = f
        if f.is_exact:
            chosen = (d, f)
            break
    if chosen is None:
        return Classification(FAMILY_NOT_CHARACTERIZED, {}, None, ledger, last_fit)
    deg, fit = chosen

    def not_characterized(reason: str, detail: str) -> Classification:
        ledger[reason] = PredicateRecord(holds=False, witness={"detail": detail})
        return Classification(FAMILY_NOT_CHARACTERIZED, {}, None, ledger, fit)

    try:
        aux = aux_sequences(ctx, ttrr, fit)
    except RecurrenceViolated as exc:
        return not_characterized("aux-recurrence", str(exc))
    try:
        pd = pearson_data(ctx, ttrr, fit)
    except DegenerateR1 as exc:
        return not_characterized("pearson-regularity", str(exc))
    ledger.update(lemma_predicates(ctx, aux, pd, deg))
    try:
        pearson_check(ctx, ttrr, pd, min(N, ttrr.n_max - 2))
        ledger["pearson"] = PredicateRecord(holds=True)
    except PearsonViolated as exc:
        ledger["pearson"] = PredicateRecord(holds=False, witness={"detail": str(exc)})
        return Classification(FAMILY_NOT_CHARACTERIZED, {}, None, ledger, fit)

    def regen_matches(candidate: TTRRSpec, name: str) -> bool:
        mismatch = ttrr_equal(ttrr, candidate, N)
        ledger[f"regenerated-{name}"] = PredicateRecord(
            holds=mismatch is None,
            witness={} if mismatch is None else {"first-mismatch": f"{mismatch[0]}_{mismatch[1]}"},
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
                ledger[f"asc-constraint-{base}"] = PredicateRecord(
                    holds=False, witness={"detail": str(exc)}
                )
                continue
            except IrrationalRoots as exc:
                # The constraint holds on the symmetric functions; regenerate
                # from those directly (the recurrence only needs c+d and cd).
                try:
                    candidate = _asc_from_symmetric(
                        ctx, exc.sum, exc.product, inverse=inverse, n_max=N
                    )
                except IrregularParameters:
                    continue
                if regen_matches(candidate, f"asc-symmetric-{base}"):
                    return Classification(
                        FAMILY_ASC_SYMMETRIC,
                        {"c_plus_d": exc.sum, "cd": exc.product},
                        base,
                        ledger,
                        fit,
                    )
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

    # deg == 2: Chebyshev first kind or continuous q-Jacobi
    all_b_zero = all(ttrr.B(n) == 0 for n in range(N + 1))
    cheb_c = ttrr.C(1) == Fraction(1, 2) and all(
        ttrr.C(n) == Fraction(1, 4) for n in range(2, N + 1)
    )
    if all_b_zero and cheb_c:
        candidate = ttrr_chebyshev_t(n_max=N)
        if regen_matches(candidate, "chebyshev-t"):
            return Classification(FAMILY_CHEBYSHEV_T, {}, BASE_Q, ledger, fit)
    for base, inverse in ((BASE_Q, False), (BASE_Q_INVERSE, True)):
        try:
            p_a, p_b = recover_qjacobi_params(ctx, ttrr, fit, aux, pd, inverse=inverse)
        except (ConstraintViolated, IrrationalRoots) as exc:
            ledger[f"qjacobi-recovery-{base}"] = PredicateRecord(
                holds=False, witness={"detail": str(exc)}
            )
            continue
        ledger[f"regenerated-qjacobi-{base}"] = PredicateRecord(holds=True)
        return Classification(
            FAMILY_CQ_JACOBI, {"p_a": p_a, "p_b": p_b}, base, ledger, fit
        )
    return not_characterized("qjacobi-recovery", "no base matched")


def _asc_from_symmetric(
    ctx: QContext, sum_cd: Fraction, prod_cd: Fraction, *, inverse: bool, n_max: int
) -> TTRRSpec:
    """Al-Salam-Chihara recurrence directly from c + d and c d (the
    coefficients only depend on the parameters through those)."""
    sign = -1 if inverse else 1

    def qq(k: int) -> Fraction:
        return qpow(ctx, sign * k)

    for n in range(1, n_max + 1):
        if 1 - prod_cd * qq(4 * (n - 1)) == 0:
            raise IrregularParameters(
                f"regularity factor (1 - c*d*q^(n-1)) vanishes at n = {n}"
            )
    return TTRRSpec(
        lambda n: sum_cd * qq(4 * n) / 2,
        lambda n: (1 - prod_cd * qq(4 * (n - 1))) * (1 - qq(4 * n)) / 4,
        n_max=n_max,
        label="alsalam-chihara-symmetric" + ("-qinv" if inverse else ""),
    )
