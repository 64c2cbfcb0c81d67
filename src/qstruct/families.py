"""Three-term recurrence generators, monic OPS tables, and moments.

A monic orthogonal polynomial sequence is encoded by its recurrence data

    x P_n = P_{n+1} + B_n P_n + C_n P_{n-1},    P_{-1} = 0,  C_n != 0,

wrapped in `TTRRSpec`. Generators are provided for the four families this
package classifies: Rogers q-Hermite, Al-Salam-Chihara, monic Chebyshev of
the first kind, and continuous q-Jacobi. Each generator also has a
q -> 1/q variant (pass inverse=True, or base="q-inverse" to `FamilySpec`),
realized by negating every quarter-power exponent rather than by rebuilding
the context, since q outside (0, 1) is not a valid context.

Continuous q-Jacobi parameters are passed as p_a = q**(a/2), p_b = q**(b/2)
so that every exponent the family formulas need stays rational: for example
q**(n+a+1) = q**n * p_a**2 * q and q**((2a+1)/4) = p_a * t.

The generators evaluate their closed forms on integers, q**m carried as
the running powers tn**(4m), td**(4m) of t = tn/td, and normalize each B_n
and C_n once, as one Fraction.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import mul

from qstruct.awops import dq_image
from qstruct.poly import Poly, int_three_term, poly_to_json
from qstruct.scalar import Frozen, QContext, as_fraction, format_rational, parse_rational

__all__ = [
    "DEFAULT_N_MAX",
    "IrregularParameters",
    "TTRRSpec",
    "OPSTable",
    "MomentVector",
    "FamilySpec",
    "ttrr_qhermite",
    "ttrr_alsalam_chihara",
    "ttrr_chebyshev_t",
    "ttrr_cq_jacobi",
    "cq_jacobi_powers",
    "cq_jacobi_scan",
    "cq_jacobi_terms",
    "generate_ops",
    "moments",
    "ttrr_equal",
    "ttrr_to_json",
    "ttrr_from_json",
    "ops_to_json",
]

DEFAULT_N_MAX = 32

_init = object.__setattr__


class IrregularParameters(ValueError):
    """Some C_n vanishes, so the recurrence does not define an OPS."""


class TTRRSpec(Frozen):
    """Recurrence coefficients of a monic OPS, tabulated up to the horizon.

    An immutable value with no laziness: b holds B_0..B_{n_max} and c holds
    C_1..C_{n_max}. B(n) is defined for 0 <= n <= n_max and C(n) for
    1 <= n <= n_max, with C(0) = 0 by convention; any other index raises
    IndexError. A vanishing C_n raises IrregularParameters on construction.
    """

    __slots__ = ("b", "c", "label")

    def __init__(self, b: tuple[Fraction, ...], c: tuple[Fraction, ...], label: str = "ttrr"):
        if len(b) != len(c) + 1:
            raise ValueError("need B_0..B_n and C_1..C_n for one horizon n")
        for n, value in enumerate(c, 1):
            if value == 0:
                raise IrregularParameters(f"C_{n} = 0 in {label}")
        _init(self, "b", b)
        _init(self, "c", c)
        _init(self, "label", label)

    @property
    def n_max(self) -> int:
        return len(self.c)

    def B(self, n: int) -> Fraction:
        if n < 0 or n > self.n_max:
            raise IndexError(f"B_{n} outside materialized horizon 0..{self.n_max}")
        return self.b[n]

    def C(self, n: int) -> Fraction:
        if n == 0:
            return Fraction(0)
        if n < 0 or n > self.n_max:
            raise IndexError(f"C_{n} outside materialized horizon 1..{self.n_max}")
        return self.c[n - 1]

    @classmethod
    def from_lists(
        cls, b_values: Sequence, c_values: Sequence, label: str = "explicit"
    ) -> "TTRRSpec":
        """Explicit recurrence: b_values holds B_0..B_n, c_values holds
        C_1..C_n; lists of any other lengths raise ValueError."""
        if not c_values:
            raise ValueError("need at least B_0, B_1 and C_1")
        return cls(
            tuple(as_fraction(v) for v in b_values),
            tuple(as_fraction(v) for v in c_values),
            label,
        )


def ttrr_qhermite(
    ctx: QContext, *, inverse: bool = False, n_max: int = DEFAULT_N_MAX
) -> TTRRSpec:
    """Rogers q-Hermite: B_n = 0 and C_n = (1 - q**n)/4, the c = d = 0
    special case of Al-Salam-Chihara. Regular for every n when 0 < q < 1.
    With q = Qn/Qd, C_n = (Qd**n - Qn**n) / (4 Qd**n)."""
    t = 1 / ctx.t if inverse else ctx.t  # q**(1/4) of the chosen base
    Qn, Qd = t.numerator**4, t.denominator**4
    cs, qn, qd = [], 1, 1
    for _ in range(n_max):
        qn *= Qn
        qd *= Qd
        cs.append(Fraction(qd - qn, 4 * qd))
    label = "q-hermite-qinv" if inverse else "q-hermite"
    return TTRRSpec((Fraction(0),) * (n_max + 1), tuple(cs), label)


def ttrr_alsalam_chihara(
    ctx: QContext, c, d, *, inverse: bool = False, n_max: int = DEFAULT_N_MAX
) -> TTRRSpec:
    """Al-Salam-Chihara: B_n = (c + d) q**n / 2 and
    C_n = (1 - c d q**(n-1)) (1 - q**n) / 4. With q = Qn/Qd, c d = pn/pd
    and (c + d)/2 = sn/sd, B_n = sn Qn**n / (sd Qd**n) and
    C_n = (pd Qd**(n-1) - pn Qn**(n-1)) (Qd**n - Qn**n) / (4 pd Qd**(2n-1))."""
    c, d = as_fraction(c), as_fraction(d)
    t = 1 / ctx.t if inverse else ctx.t
    Qn, Qd = t.numerator**4, t.denominator**4
    cd, half_sum = c * d, (c + d) / 2
    pn, pd = cd.numerator, cd.denominator
    sn, sd = half_sum.numerator, half_sum.denominator
    bs, cs = [half_sum], []
    qn, qd = 1, 1  # q**(n-1) = qn/qd on entering step n, q**n after it
    for n in range(1, n_max + 1):
        factor = pd * qd - pn * qn  # (1 - c d q**(n-1)) pd qd
        if not factor:
            raise IrregularParameters(
                f"regularity factor (1 - c*d*q^(n-1)) vanishes at n = {n}"
            )
        den = 4 * pd * qd
        qn *= Qn
        qd *= Qd
        bs.append(Fraction(sn * qn, sd * qd))
        cs.append(Fraction(factor * (qd - qn), den * qd))
    label = f"alsalam-chihara({format_rational(c)},{format_rational(d)})" + (
        "-qinv" if inverse else ""
    )
    return TTRRSpec(tuple(bs), tuple(cs), label)


def ttrr_chebyshev_t(*, n_max: int = DEFAULT_N_MAX) -> TTRRSpec:
    """Monic Chebyshev of the first kind: B_n = 0, C_1 = 1/2, C_n = 1/4 for
    n >= 2. No q enters, so the inverse-base variant is the same recurrence."""
    return TTRRSpec(
        (Fraction(0),) * (n_max + 1),
        tuple(Fraction(1, 2) if n == 1 else Fraction(1, 4) for n in range(1, n_max + 1)),
        "chebyshev-t",
    )


def ttrr_cq_jacobi(
    ctx: QContext, p_a, p_b, *, inverse: bool = False, n_max: int = DEFAULT_N_MAX
) -> TTRRSpec:
    """Continuous q-Jacobi with parameters given as p_a = q**(a/2),
    p_b = q**(b/2):

        B_n = (q**((2a+1)/4) + q**(-(2a+1)/4) - y_n - z_n) / 2,
        C_{n+1} = y_n z_{n+1} / 4,
        y_n = (1 - q**(n+1) p_a**2) e_{n+1} (1 + q**n t**2 p_a p_b)
              (1 + q**(n+1) p_a p_b) / (p_a t e_{2n+1} e_{2n+2}),
        z_n = p_a t (1 - q**n) (1 - q**n p_b**2) (1 + q**n p_a p_b)
              (1 + q**n t**2 p_a p_b) / (e_{2n} e_{2n+1}),

    with t = q**(1/4) and e_m = 1 - q**m p_a**2 p_b**2. The closed forms
    are evaluated on integers (`cq_jacobi_terms`, from the running powers
    of `cq_jacobi_powers`), and each B_n and C_n is normalized once, as one
    Fraction; `cq_jacobi_scan` decides regularity first.
    `recover_qjacobi_params` checks its parameters with the same three.

    Symmetric parameters (p_a = p_b) force B_n = 0 identically. Raises
    IrregularParameters naming the vanishing factor whenever the recurrence
    would degenerate over the materialized horizon.
    """
    p_a, p_b = as_fraction(p_a), as_fraction(p_b)
    if p_a <= 0 or p_b <= 0:
        raise ValueError("p_a and p_b must be positive (they are real powers of q)")
    t = 1 / ctx.t if inverse else ctx.t  # q**(1/4) of the chosen base
    powers = cq_jacobi_powers(t, n_max)
    cq_jacobi_scan(powers, p_a, p_b, n_max)
    terms = cq_jacobi_terms(t, p_a, p_b, powers, range(n_max + 1))
    label = f"cq-jacobi({format_rational(p_a)},{format_rational(p_b)})" + (
        "-qinv" if inverse else ""
    )
    return TTRRSpec(
        tuple(Fraction(*b) for b, _, _ in terms),
        tuple(
            Fraction(yn * zn, 4 * yd * zd)  # C_{n+1} = y_n z_{n+1} / 4
            for (_, (yn, yd), _), (_, _, (zn, zd)) in zip(terms, terms[1:])
        ),
        label,
    )


def cq_jacobi_powers(t: Fraction, n_max: int) -> tuple[list[int], list[int]]:
    """(num, den) with num[m] / den[m] = q**m for m = 0 .. 2 n_max + 4, the
    powers that the continuous q-Jacobi closed forms read to n_max: with
    t = tn/td in lowest terms, num[m] = tn**(4m) and den[m] = td**(4m),
    each an integer running product."""
    Qn, Qd = t.numerator**4, t.denominator**4
    num, den = [1], [1]
    for _ in range(2 * n_max + 4):
        num.append(num[-1] * Qn)
        den.append(den[-1] * Qd)
    return num, den


def cq_jacobi_scan(
    powers: tuple[list[int], list[int]], p_a: Fraction, p_b: Fraction, n_max: int
) -> None:
    """Raise IrregularParameters, naming the first vanishing factor, unless
    the continuous q-Jacobi recurrence is regular to n_max; powers are
    those of `cq_jacobi_powers`. A factor 1 - q**m x/y, x/y > 0, vanishes
    exactly when num[m] x = den[m] y, so each test is one cross-multiplied
    comparison of integers. e_0 = 1 - (p_a p_b)**2 vanishes only when
    p_a p_b = 1 (p_a p_b > 0). The scan of e_m, m = 1 .. 2 n_max + 4,
    named by the parity of m, covers every other e that `cq_jacobi_terms`
    reads, so e_{n+1}, the factor (1 - q^(n+a+b+1)) of y_n, needs no check
    of its own."""
    num, den = powers
    abn, abd = p_a.numerator * p_b.numerator, p_a.denominator * p_b.denominator
    if abn == abd:
        raise IrregularParameters("regularity factor (1 - q^((a+b)/2)) vanishes at n = 0")
    sn, sd = abn * abn, abd * abd  # (p_a p_b)**2 = sn/sd
    for m in range(1, 2 * n_max + 5):
        if num[m] * sn == den[m] * sd:
            text = "(1 - q^(2n+a+b+2))" if m % 2 == 0 else "(1 - q^(2n+a+b+1))"
            raise IrregularParameters(f"regularity factor {text} vanishes at n = {(m - 1) // 2}")
    roots = (
        (p_a.numerator**2, p_a.denominator**2, "(1 - q^(n+a+1))"),
        (p_b.numerator**2, p_b.denominator**2, "(1 - q^(n+b+1))"),
    )
    for n in range(0, n_max + 1):
        for xn, xd, text in roots:
            if num[n + 1] * xn == den[n + 1] * xd:
                raise IrregularParameters(f"regularity factor {text} vanishes at n = {n}")


def cq_jacobi_terms(
    t: Fraction,
    p_a: Fraction,
    p_b: Fraction,
    powers: tuple[list[int], list[int]],
    ns: range,
) -> list[tuple[tuple[int, int], tuple[int, int], tuple[int, int]]]:
    """(B_n, y_n, z_n) of `ttrr_cq_jacobi` for each n in ns, each as an
    unreduced integer pair (numerator, denominator), read from the powers
    of `cq_jacobi_powers` once `cq_jacobi_scan` has passed.

    With t = tn/td, p_a = an/ad, p_b = bn/bd, K = an ad tn td and
    q**m = Qn**m / Qd**m, each factor 1 - q**m x/y is (Qd**m y - Qn**m x)
    over Qd**m y, and the powers of Qd and of ad, bd cancel exactly:

        y_n = A_{n+1} E_{n+1} G_n F_{n+1} / (K E_{2n+1} E_{2n+2}),
        z_n = K H_n Bb_n F_n G_n / (E_{2n} E_{2n+1}),

    with E_m = Qd**m (ad bd)**2 - Qn**m (an bn)**2 (e_m),
    F_m = Qd**m ad bd + Qn**m an bn (1 + q**m p_a p_b),
    G_n = Qd**n td**2 ad bd + Qn**n tn**2 an bn (1 + q**n t**2 p_a p_b),
    A_m = Qd**m ad**2 - Qn**m an**2, Bb_m = Qd**m bd**2 - Qn**m bn**2 and
    H_m = Qd**m - Qn**m. B_n is taken over 2 K E_{2n} E_{2n+1} E_{2n+2},
    with p_a t + 1/(p_a t) = ((an tn)**2 + (ad td)**2) / K. A factor that
    several n read (E_m, F_m) is built once."""
    num, den = powers
    tn, td = t.numerator, t.denominator
    an, ad, bn, bd = p_a.numerator, p_a.denominator, p_b.numerator, p_b.denominator
    abn, abd = an * bn, ad * bd
    sn, sd, aan, aad, bbn, bbd = abn * abn, abd * abd, an * an, ad * ad, bn * bn, bd * bd
    gn, gd = tn * tn * abn, td * td * abd
    k = an * ad * tn * td
    kk, edge = k * k, (an * tn) ** 2 + (ad * td) ** 2
    e = cache(lambda m: den[m] * sd - num[m] * sn)
    f = cache(lambda m: den[m] * abd + num[m] * abn)
    out = []
    for n in ns:
        g = den[n] * gd + num[n] * gn
        e0, e1, e2 = e(2 * n), e(2 * n + 1), e(2 * n + 2)
        y = (den[n + 1] * aad - num[n + 1] * aan) * e(n + 1) * g * f(n + 1)
        z = (den[n] - num[n]) * (den[n] * bbd - num[n] * bbn) * f(n) * g
        e012 = e0 * e1 * e2
        b = (edge * e012 - y * e0 - kk * z * e2, 2 * k * e012)
        out.append((b, (y, k * e1 * e2), (k * z, e0 * e1)))
    return out


class FamilySpec(Frozen):
    """Declarative family selector, convertible to a TTRRSpec. base picks the
    plain parameterization ("q") or the q -> 1/q variant ("q-inverse")."""

    __slots__ = ("family", "params", "base")
    _defaults = ((), "q")

    def param(self, name: str) -> Fraction:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    def to_ttrr(self, ctx: QContext, n_max: int = DEFAULT_N_MAX) -> TTRRSpec:
        inverse = self.base == "q-inverse"
        if self.family == "q-hermite":
            return ttrr_qhermite(ctx, inverse=inverse, n_max=n_max)
        if self.family == "alsalam-chihara":
            return ttrr_alsalam_chihara(
                ctx, self.param("c"), self.param("d"), inverse=inverse, n_max=n_max
            )
        if self.family == "chebyshev-t":
            return ttrr_chebyshev_t(n_max=n_max)
        if self.family == "continuous-q-jacobi":
            return ttrr_cq_jacobi(
                ctx, self.param("p_a"), self.param("p_b"), inverse=inverse, n_max=n_max
            )
        raise ValueError(f"unknown family {self.family!r}")


class OPSTable(Frozen):
    """Monic P_0..P_degree of a TTRRSpec; each entry satisfies the recurrence
    exactly by construction. The degree is fixed when the table is built,
    and a degree beyond the TTRR's horizon raises IndexError.

    Entries are built on demand: reading P_n (``table[n]``) builds every
    missing P_k with k <= n by the recurrence of `generate_ops` and keeps
    them, and `polys` builds all of them. Each step is the one integer
    three-term step of `poly.int_three_term`, the step every structure
    residual takes, normalized once, with no `Poly` arithmetic. The
    images D_q P_n are kept the same way, one prefix per context (`dq`),
    so every identity of one problem reads one store of them. They are
    kept unnormalized, as the integer sums `awops.dq_image` returns: each
    reader multiplies an image by pi and decides on integers, so its gcd
    would be read by no one (only `dq_apply` and `sq_apply` normalize).
    A stored prefix is never changed: a longer one is built from a
    snapshot of the shorter one and stored with one assignment, so
    concurrent readers each hold a complete tuple, whichever of them
    stores last."""

    __slots__ = ("ttrr", "degree", "_built", "_images")

    def __init__(self, ttrr: TTRRSpec, degree: int):
        if degree > ttrr.n_max:
            raise IndexError(f"N = {degree} exceeds materialized horizon {ttrr.n_max}")
        _init(self, "ttrr", ttrr)
        _init(self, "degree", degree)
        _init(self, "_built", (Poly.one(),))
        _init(self, "_images", {})

    def __getitem__(self, n: int) -> Poly:
        """P_n for 0 <= n <= degree."""
        built = self._built
        return built[n] if 0 <= n < len(built) else self._grow(n)[n]

    @property
    def polys(self) -> tuple[Poly, ...]:
        """P_0..P_degree, all of them built."""
        built = self._built
        return built if len(built) > self.degree else self._grow(self.degree)

    def _grow(self, n: int) -> tuple[Poly, ...]:
        """The stored prefix extended through P_n:
        P_{k+1} = 0 - (-x + B_k) P_k - C_k P_{k-1} with P_{-1} = 0, each one
        `int_three_term` step normalized once."""
        if not 0 <= n <= self.degree:
            raise IndexError(f"P_{n} outside the table's degrees 0..{self.degree}")
        polys, b, c = list(self._built), self.ttrr.b, self.ttrr.c
        for k in range(len(polys) - 1, n):  # P_{k+1} from P_k and P_{k-1}
            p, prev = polys[k], polys[k - 1] if k else Poly.zero()
            c_k = c[k - 1] if k else 0
            step = int_three_term(((), 1), (p.nums, p.den), (prev.nums, prev.den), -1, b[k], c_k)
            polys.append(Poly.from_ints(*step))
        built = tuple(polys)
        _init(self, "_built", built)
        return built

    def dq(self, ctx: QContext, n: int) -> tuple[list[int], int]:
        """D_q P_n under ctx, for 0 <= n <= degree, as the pair (nums, den)
        of `dq_image`: integer numerators over a positive denominator, not
        normalized. Reading it builds every missing D_q P_k with k <= n (and
        the P_k they need) and keeps them."""
        images = self._images.get(ctx, ())
        if 0 <= n < len(images):
            return images[n]
        if not 0 <= n <= self.degree:
            raise IndexError(f"D_q P_{n} outside the table's degrees 0..{self.degree}")
        grown = images + tuple(dq_image(ctx, self[k]) for k in range(len(images), n + 1))
        self._images[ctx] = grown
        return grown[n]

    def expand(self, f: Poly) -> list[Fraction]:
        """Coefficients of f in the monic P_k basis, by back substitution:
        the leading term of the remainder is the next P_k component."""
        if not f:
            return []
        deg = f.degree
        if deg > self.degree:
            raise ValueError(f"table only reaches degree {self.degree}, need {deg}")
        out = [Fraction(0)] * (deg + 1)
        rem = f
        while rem:
            k, ck = rem.degree, rem.lead
            out[k] = ck
            rem = rem - ck * self[k]
        return out


def generate_ops(ttrr: TTRRSpec, N: int) -> OPSTable:
    """P_0 = 1, P_1 = x - B_0, P_{n+1} = (x - B_n) P_n - C_n P_{n-1}, as a
    table of degree N with every entry already built."""
    ops = OPSTable(ttrr, N)
    ops._grow(N)
    return ops


class MomentVector(Frozen):
    """Moments mu_n = <u, x**n> of the regular functional normalized by
    mu_0 = 1, where u annihilates every P_n with n >= 1, stored as integer
    numerators over one common denominator: mu_n = nums[n] / den.
    `moments` returns them with gcd(den, *nums) = 1."""

    __slots__ = ("nums", "den")

    def apply(self, f: Poly) -> Fraction:
        """<u, f>, exact."""
        return Fraction(*self.ratio(f.nums, f.den))

    def ratio(self, nums: Sequence[int], den: int) -> tuple[int, int]:
        """<u, f> for f = sum(nums[k] x**k) / den, den > 0, as an unreduced
        (numerator, denominator) pair with a positive denominator; no gcd
        is taken."""
        if len(nums) > len(self.nums):
            raise ValueError(f"moments known to order {len(self.nums) - 1}, need {len(nums) - 1}")
        return sum(map(mul, nums, self.nums)), den * self.den

    def weighted(self, w: Poly) -> "MomentVector":
        """The moments <u, w x**j> of the functional w u, for every j that
        the stored moments reach, so that weighted(w).apply(f) equals
        apply(w * f) without forming the product."""
        m = len(self.nums) - max(w.degree, 0)
        return MomentVector(
            tuple(sum(map(mul, w.nums, self.nums[j:])) for j in range(m)), w.den * self.den
        )


def moments(ttrr: TTRRSpec, N: int, *, ops: OPSTable | None = None) -> MomentVector:
    """mu_0..mu_N from <u, P_n> = 0 for n >= 1: P_n is monic, so
    mu_n = -sum_{k<n} [x**k]P_n mu_k, a triangular solve on the integer
    numerators of the OPS table. This forces <u, P_n> = 0 for n >= 1 and
    <u, P_n**2> = C_1...C_n. The moments stay over their least common
    denominator.

    ops, when given, is an OPS table of ttrr reaching degree N, whose
    entries are read (and built if missing) in place of a new table; a
    shorter one is a ValueError."""
    if ops is None:
        ops = OPSTable(ttrr, N)
    elif ops.degree < N:
        raise ValueError(f"OPS table reaches degree {ops.degree}, moments need {N}")
    nums, den = [1], 1  # mu_k = nums[k] / den
    for n in range(1, N + 1):
        p = ops[n]
        s = -sum(map(mul, p.nums[:-1], nums))  # mu_n = s / (p.den * den)
        g = gcd(s, p.den * den)
        mu_den = p.den * den // g
        common = lcm(den, mu_den)
        if common != den:
            nums = [v * (common // den) for v in nums]
        nums.append(s // g * (common // mu_den))
        den = common
    return MomentVector(tuple(nums), den)


def ttrr_equal(first: TTRRSpec, second: TTRRSpec, N: int) -> tuple[str, int] | None:
    """First mismatching coefficient between two recurrences up to index N,
    or None when they agree. Comparison is exact."""
    for n in range(N + 1):
        if first.B(n) != second.B(n):
            return ("B", n)
    for n in range(1, N + 1):
        if first.C(n) != second.C(n):
            return ("C", n)
    return None


def ttrr_to_json(ctx: QContext, ttrr: TTRRSpec, N: int) -> dict:
    return {
        "q_quarter": format_rational(ctx.t),
        "B": [format_rational(ttrr.B(n)) for n in range(N + 1)],
        "C": [format_rational(ttrr.C(n)) for n in range(1, N + 1)],
    }


def ttrr_from_json(data: dict) -> tuple[QContext, TTRRSpec]:
    ctx = QContext(parse_rational(data["q_quarter"]))
    bs = [parse_rational(s) for s in data["B"]]
    cs = [parse_rational(s) for s in data["C"]]
    return ctx, TTRRSpec.from_lists(bs, cs, label="loaded")


def ops_to_json(ctx: QContext, ops: OPSTable) -> dict:
    return {
        "q_quarter": format_rational(ctx.t),
        "polys": [poly_to_json(p) for p in ops.polys],
    }
