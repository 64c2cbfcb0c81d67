"""Dense univariate polynomial arithmetic over exact rationals.

Coefficients are stored in ascending power order with trailing zeros
stripped, so equality is structural and the representation is canonical.
The zero polynomial stores an empty tuple and reports degree -inf, which
keeps degree arithmetic total: deg(p*q) = deg p + deg q holds for every
pair over an exact field.

The Chebyshev-T conversions use the three-term ladder
x*T_k = (T_{k+1} + T_{k-1})/2 in both directions. The Askey-Wilson operators
have closed actions on T_k; `awops` applies them in the power basis, and the
test suite checks it against those T-basis actions through these conversions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from qstruct.scalar import as_fraction, format_rational, parse_rational

__all__ = [
    "NEG_INF",
    "Poly",
    "to_cheb",
    "from_cheb",
    "poly_to_json",
    "poly_from_json",
]

# Degree of the zero polynomial. Never -1: -inf makes deg(p*q) = deg p + deg q
# total, including zero factors.
NEG_INF = float("-inf")


@dataclass(frozen=True)
class Poly:
    """Immutable polynomial sum(coeffs[k] * x**k). Pure value semantics."""

    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        cs = [c if type(c) is Fraction else as_fraction(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((Fraction(1),))

    @classmethod
    def x(cls) -> "Poly":
        return cls((Fraction(0), Fraction(1)))

    @classmethod
    def monomial(cls, k: int, coeff=1) -> "Poly":
        """coeff * x**k"""
        if k < 0:
            raise ValueError("monomial power must be nonnegative")
        return cls((Fraction(0),) * k + (as_fraction(coeff),))

    @property
    def degree(self):
        """int for nonzero polynomials, -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def lead(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        """Coefficient of x**k; zero outside the stored range (any k)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(tuple(self.coeff(k) + other.coeff(k) for k in range(n)))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Poly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "Poly":
        other = _as_poly(other)
        if not self.coeffs or not other.coeffs:
            return Poly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(tuple(out))

    __rmul__ = __mul__

    def eval(self, x0) -> Fraction:
        """Exact evaluation by Horner's rule."""
        x0 = as_fraction(x0)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                body = format_rational(abs(c))
            else:
                mag = format_rational(abs(c))
                xs = "x" if k == 1 else f"x^{k}"
                body = xs if mag == "1" else f"{mag}*{xs}"
            sign = "-" if c < 0 else "+"
            terms.append((sign, body))
        first_sign, first_body = terms[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    return Poly((as_fraction(value),))


def _cheb_mul_x(c: list[Fraction]) -> list[Fraction]:
    # x*T_0 = T_1 and x*T_k = (T_{k+1} + T_{k-1})/2 for k >= 1
    if not c:
        return []
    out = [Fraction(0)] * (len(c) + 1)
    out[1] += c[0]
    for k in range(1, len(c)):
        out[k + 1] += c[k] / 2
        out[k - 1] += c[k] / 2
    return out


def to_cheb(p: Poly) -> list[Fraction]:
    """Chebyshev-T coefficients of p, index k multiplying T_k.

    Runs Horner's rule in the T basis; exact, O(deg**2). The result has
    exactly degree+1 entries (empty for the zero polynomial) and round-trips
    through `from_cheb`.
    """
    out: list[Fraction] = []
    for a in reversed(p.coeffs):
        out = _cheb_mul_x(out)
        if not out:
            out = [Fraction(0)]
        out[0] += a
    return out


def from_cheb(c: Sequence[Fraction]) -> Poly:
    """Power-basis polynomial sum(c[k] * T_k), by the upward T ladder."""
    acc = Poly.zero()
    t_prev, t_cur = Poly.one(), Poly.x()
    for k, ck in enumerate(c):
        tk = t_prev if k == 0 else t_cur
        if ck:
            acc = acc + as_fraction(ck) * tk
        if k >= 1:
            t_prev, t_cur = t_cur, 2 * Poly.x() * t_cur - t_prev
    return acc


def poly_to_json(p: Poly) -> list[str]:
    """Ascending-power list of rational strings."""
    return [format_rational(c) for c in p.coeffs]


def poly_from_json(data: Sequence[str]) -> Poly:
    return Poly(tuple(parse_rational(s) for s in data))
