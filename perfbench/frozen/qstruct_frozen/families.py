"""Three-term recurrence generators, monic OPS tables, and moments.

A monic orthogonal polynomial sequence is encoded by its recurrence data

    x P_n = P_{n+1} + B_n P_n + C_n P_{n-1},    P_{-1} = 0,  C_n != 0,

wrapped in `TTRRSpec`. Generators are provided for the four families this
package classifies: Rogers q-Hermite, Al-Salam-Chihara, monic Chebyshev of
the first kind, and continuous q-Jacobi. Each generator also has a
q -> 1/q variant (pass inverse=True, or use `inverse_q_variant`), realized
by negating every quarter-power exponent rather than by rebuilding the
context, since q outside (0, 1) is not a valid context.

Continuous q-Jacobi parameters are passed as p_a = q**(a/2), p_b = q**(b/2)
so that every exponent the family formulas need stays rational: for example
q**(n+a+1) = q**n * p_a**2 * q and q**((2a+1)/4) = p_a * t.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence

from qstruct_frozen.poly import Poly, poly_to_json
from qstruct_frozen.scalar import QContext, as_fraction, format_rational, parse_rational, qpow

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
    "cq_jacobi_yz",
    "generate_ops",
    "moments",
    "inverse_q_variant",
    "ttrr_equal",
    "ttrr_to_json",
    "ttrr_from_json",
    "ops_to_json",
]

DEFAULT_N_MAX = 32


class IrregularParameters(ValueError):
    """Some C_n vanishes, so the recurrence does not define an OPS."""


class TTRRSpec:
    """Recurrence coefficients of a monic OPS, materialized on demand.

    B(n) is defined for n >= 0 and C(n) for n >= 1, with C(0) = 0 by
    convention. Values are memoized up to the horizon n_max; every access
    beyond materialization recomputes through the pure generator functions,
    so concurrent readers always observe the same values.
    """

    def __init__(
        self,
        b_fn: Callable[[int], Fraction],
        c_fn: Callable[[int], Fraction],
        n_max: int = DEFAULT_N_MAX,
        label: str = "ttrr",
    ):
        self._b_fn = b_fn
        self._c_fn = c_fn
        self._b_cache: dict[int, Fraction] = {}
        self._c_cache: dict[int, Fraction] = {}
        self.n_max = n_max
        self.label = label

    def B(self, n: int) -> Fraction:
        if n < 0 or n > self.n_max:
            raise IndexError(f"B_{n} outside materialized horizon 0..{self.n_max}")
        if n not in self._b_cache:
            self._b_cache[n] = as_fraction(self._b_fn(n))
        return self._b_cache[n]

    def C(self, n: int) -> Fraction:
        if n == 0:
            return Fraction(0)
        if n < 0 or n > self.n_max:
            raise IndexError(f"C_{n} outside materialized horizon 1..{self.n_max}")
        if n not in self._c_cache:
            value = as_fraction(self._c_fn(n))
            if value == 0:
                raise IrregularParameters(f"C_{n} = 0 in {self.label}")
            self._c_cache[n] = value
        return self._c_cache[n]

    def b_list(self, upto: int) -> list[Fraction]:
        return [self.B(n) for n in range(upto + 1)]

    def c_list(self, upto: int) -> list[Fraction]:
        return [self.C(n) for n in range(1, upto + 1)]

    @classmethod
    def from_lists(
        cls, b_values: Sequence, c_values: Sequence, label: str = "explicit"
    ) -> "TTRRSpec":
        """Explicit recurrence: b_values holds B_0.., c_values holds C_1..."""
        bs = [as_fraction(v) for v in b_values]
        cs = [as_fraction(v) for v in c_values]
        n_max = min(len(bs) - 1, len(cs))
        if n_max < 1:
            raise ValueError("need at least B_0, B_1 and C_1")
        spec = cls(lambda n: bs[n], lambda n: cs[n - 1], n_max=n_max, label=label)
        for n in range(1, n_max + 1):
            spec.C(n)  # raises IrregularParameters on a zero entry
        return spec

    def replaced(self, *, b_overrides=None, c_overrides=None, label=None) -> "TTRRSpec":
        """Copy with selected entries overridden; used for perturbation tests."""
        b_over = {k: as_fraction(v) for k, v in (b_overrides or {}).items()}
        c_over = {k: as_fraction(v) for k, v in (c_overrides or {}).items()}
        return TTRRSpec(
            lambda n: b_over[n] if n in b_over else self.B(n),
            lambda n: c_over[n] if n in c_over else self.C(n),
            n_max=self.n_max,
            label=label or f"{self.label}-perturbed",
        )


def _qq(ctx: QContext, inverse: bool) -> Callable[[int], Fraction]:
    """Quarter-power accessor: qq(k) = q**(k/4), or q**(-k/4) for the
    inverse-base variant."""
    sign = -1 if inverse else 1
    return lambda k: qpow(ctx, sign * k)


def ttrr_qhermite(
    ctx: QContext, *, inverse: bool = False, n_max: int = DEFAULT_N_MAX
) -> TTRRSpec:
    """Rogers q-Hermite: B_n = 0 and C_n = (1 - q**n)/4, the c = d = 0
    special case of Al-Salam-Chihara. Regular for every n when 0 < q < 1."""
    qq = _qq(ctx, inverse)
    label = "q-hermite-qinv" if inverse else "q-hermite"
    return TTRRSpec(
        lambda n: Fraction(0),
        lambda n: (1 - qq(4 * n)) / 4,
        n_max=n_max,
        label=label,
    )


def ttrr_alsalam_chihara(
    ctx: QContext, c, d, *, inverse: bool = False, n_max: int = DEFAULT_N_MAX
) -> TTRRSpec:
    """Al-Salam-Chihara: B_n = (c + d) q**n / 2 and
    C_n = (1 - c d q**(n-1)) (1 - q**n) / 4."""
    c, d = as_fraction(c), as_fraction(d)
    qq = _qq(ctx, inverse)
    for n in range(1, n_max + 1):
        if 1 - c * d * qq(4 * (n - 1)) == 0:
            raise IrregularParameters(
                f"regularity factor (1 - c*d*q^(n-1)) vanishes at n = {n}"
            )
    label = f"alsalam-chihara({format_rational(c)},{format_rational(d)})" + (
        "-qinv" if inverse else ""
    )
    return TTRRSpec(
        lambda n: (c + d) * qq(4 * n) / 2,
        lambda n: (1 - c * d * qq(4 * (n - 1))) * (1 - qq(4 * n)) / 4,
        n_max=n_max,
        label=label,
    )


def ttrr_chebyshev_t(*, n_max: int = DEFAULT_N_MAX) -> TTRRSpec:
    """Monic Chebyshev of the first kind: B_n = 0, C_1 = 1/2, C_n = 1/4 for
    n >= 2. No q enters, so the inverse-base variant is the same recurrence."""
    return TTRRSpec(
        lambda n: Fraction(0),
        lambda n: Fraction(1, 2) if n == 1 else Fraction(1, 4),
        n_max=n_max,
        label="chebyshev-t",
    )


def cq_jacobi_yz(
    ctx: QContext, p_a, p_b, n: int, *, inverse: bool = False
) -> tuple[Fraction, Fraction]:
    """The (y_n, z_n) building blocks of the continuous q-Jacobi recurrence.

    Exposed separately so tests can cross-check the assembled B_n and C_n
    against their product closed forms.
    """
    p_a, p_b = as_fraction(p_a), as_fraction(p_b)
    qq = _qq(ctx, inverse)
    pp = p_a * p_a * p_b * p_b  # q**(a+b)
    ab = p_a * p_b  # q**((a+b)/2)
    y_num = (
        (1 - qq(4 * n + 4) * p_a * p_a)
        * (1 - qq(4 * n + 4) * pp)
        * (1 + qq(4 * n + 2) * ab)
        * (1 + qq(4 * n + 4) * ab)
    )
    y_den = p_a * qq(1) * (1 - qq(8 * n + 4) * pp) * (1 - qq(8 * n + 8) * pp)
    z_num = (
        p_a
        * qq(1)
        * (1 - qq(4 * n))
        * (1 - qq(4 * n) * p_b * p_b)
        * (1 + qq(4 * n) * ab)
        * (1 + qq(4 * n + 2) * ab)
    )
    z_den = (1 - qq(8 * n) * pp) * (1 - qq(8 * n + 4) * pp)
    return y_num / y_den, z_num / z_den


def ttrr_cq_jacobi(
    ctx: QContext, p_a, p_b, *, inverse: bool = False, n_max: int = DEFAULT_N_MAX
) -> TTRRSpec:
    """Continuous q-Jacobi with parameters given as p_a = q**(a/2),
    p_b = q**(b/2):

        B_n = (q**((2a+1)/4) + q**(-(2a+1)/4) - y_n - z_n) / 2,
        C_{n+1} = y_n z_{n+1} / 4.

    Symmetric parameters (p_a = p_b) force B_n = 0 identically. Raises
    IrregularParameters naming the vanishing factor whenever the recurrence
    would degenerate over the materialized horizon.
    """
    p_a, p_b = as_fraction(p_a), as_fraction(p_b)
    if p_a <= 0 or p_b <= 0:
        raise ValueError("p_a and p_b must be positive (they are real powers of q)")
    qq = _qq(ctx, inverse)
    pp = p_a * p_a * p_b * p_b
    ab = p_a * p_b

    # Denominators of y_n, z_n never vanish twice; scan the horizon once.
    if ab == 1:
        raise IrregularParameters("regularity factor (1 - q^((a+b)/2)) vanishes at n = 0")
    for n in range(0, n_max + 2):
        for shift, text in ((0, "(1 - q^(2n+a+b))"), (4, "(1 - q^(2n+a+b+1))"), (8, "(1 - q^(2n+a+b+2))")):
            if 1 - qq(8 * n + shift) * pp == 0:
                raise IrregularParameters(f"regularity factor {text} vanishes at n = {n}")
    for n in range(0, n_max + 1):
        for factor, text in (
            (1 - qq(4 * n + 4) * p_a * p_a, "(1 - q^(n+a+1))"),
            (1 - qq(4 * n + 4) * p_b * p_b, "(1 - q^(n+b+1))"),
            (1 - qq(4 * n + 4) * pp, "(1 - q^(n+a+b+1))"),
        ):
            if factor == 0:
                raise IrregularParameters(f"regularity factor {text} vanishes at n = {n}")

    edge = p_a * qq(1) + 1 / (p_a * qq(1))  # q**((2a+1)/4) + q**(-(2a+1)/4)

    def b_fn(n: int) -> Fraction:
        y_n, z_n = cq_jacobi_yz(ctx, p_a, p_b, n, inverse=inverse)
        return (edge - y_n - z_n) / 2

    def c_fn(n: int) -> Fraction:
        y_prev, _ = cq_jacobi_yz(ctx, p_a, p_b, n - 1, inverse=inverse)
        _, z_n = cq_jacobi_yz(ctx, p_a, p_b, n, inverse=inverse)
        return y_prev * z_n / 4

    label = f"cq-jacobi({format_rational(p_a)},{format_rational(p_b)})" + (
        "-qinv" if inverse else ""
    )
    spec = TTRRSpec(b_fn, c_fn, n_max=n_max, label=label)
    for n in range(1, n_max + 1):
        spec.C(n)  # surfaces any residual C_n = 0 as IrregularParameters
    return spec


@dataclass(frozen=True)
class FamilySpec:
    """Declarative family selector, convertible to a TTRRSpec. base picks the
    plain parameterization ("q") or the q -> 1/q variant ("q-inverse")."""

    family: str
    params: tuple[tuple[str, Fraction], ...] = ()
    base: str = "q"

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

    def to_json(self) -> dict:
        out = {"family": self.family, "base": self.base}
        for key, value in self.params:
            out[key] = format_rational(value)
        return out


def inverse_q_variant(
    ctx: QContext, spec: FamilySpec, n_max: int = DEFAULT_N_MAX
) -> TTRRSpec:
    """The same family formulas with q replaced by 1/q. Coefficients can grow
    and turn negative; the recurrence stays formally regular as long as no
    C_n vanishes (checked by the generators)."""
    flipped = replace(spec, base="q-inverse" if spec.base == "q" else "q")
    return flipped.to_ttrr(ctx, n_max=n_max)


@dataclass(frozen=True)
class OPSTable:
    """Monic P_0..P_N generated from a TTRRSpec; each entry satisfies the
    recurrence exactly by construction."""

    ttrr: TTRRSpec
    polys: tuple[Poly, ...]

    @property
    def degree(self) -> int:
        return len(self.polys) - 1

    def expand(self, f: Poly) -> list[Fraction]:
        """Coefficients of f in the monic P_k basis, by back substitution."""
        if not f:
            return []
        deg = f.degree
        if deg > self.degree:
            raise ValueError(f"table only reaches degree {self.degree}, need {deg}")
        out = [Fraction(0)] * (deg + 1)
        rem = f
        for k in range(deg, -1, -1):
            ck = rem.coeff(k)
            out[k] = ck
            if ck:
                rem = rem - ck * self.polys[k]
        assert not rem
        return out


def generate_ops(ttrr: TTRRSpec, N: int) -> OPSTable:
    """P_0 = 1, P_1 = x - B_0, P_{n+1} = (x - B_n) P_n - C_n P_{n-1}."""
    if N > ttrr.n_max:
        raise IndexError(f"N = {N} exceeds materialized horizon {ttrr.n_max}")
    polys = [Poly.one()]
    if N >= 1:
        polys.append(Poly.x() - ttrr.B(0))
    for n in range(1, N):
        polys.append((Poly.x() - ttrr.B(n)) * polys[n] - ttrr.C(n) * polys[n - 1])
    return OPSTable(ttrr=ttrr, polys=tuple(polys))


@dataclass(frozen=True)
class MomentVector:
    """Moments mu_n = <u, x**n> of the regular functional normalized by
    mu_0 = 1, where u annihilates every P_n with n >= 1."""

    mu: tuple[Fraction, ...]

    def apply(self, f: Poly) -> Fraction:
        """<u, f>, exact."""
        if f.degree != float("-inf") and f.degree >= len(self.mu):
            raise ValueError(f"moments known to order {len(self.mu) - 1}, need {f.degree}")
        return sum((c * self.mu[k] for k, c in enumerate(f.coeffs)), Fraction(0))


def moments(ttrr: TTRRSpec, N: int) -> MomentVector:
    """Expand x**n in the P_k basis through the recurrence; mu_n is the P_0
    component. Forces <u, P_n> = 0 for n >= 1 and <u, P_n**2> = C_1...C_n."""
    if N > ttrr.n_max:
        raise IndexError(f"N = {N} exceeds materialized horizon {ttrr.n_max}")
    coords = [Fraction(1)]  # x**0 = P_0
    mus = [Fraction(1)]
    for _ in range(N):
        nxt = [Fraction(0)] * (len(coords) + 1)
        for k, dk in enumerate(coords):
            if dk == 0:
                continue
            nxt[k + 1] += dk
            nxt[k] += dk * ttrr.B(k)
            if k >= 1:
                nxt[k - 1] += dk * ttrr.C(k)
        coords = nxt
        mus.append(coords[0])
    return MomentVector(mu=tuple(mus))


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
        "B": [format_rational(v) for v in ttrr.b_list(N)],
        "C": [format_rational(v) for v in ttrr.c_list(N)],
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
