"""Dense univariate polynomial arithmetic over exact rationals.

A `Poly` stores integer numerators over one positive common denominator,
the layout of FLINT's fmpq_poly: nums[k] / den is the coefficient of x**k.
It is kept in normal form,

    den > 0,   gcd(den, *nums) = 1,   no trailing zero numerator,

and the zero polynomial is ((), 1). Every rational polynomial has exactly
one normal form, so `==` compares (nums, den) structurally and stays an
exact test of equality. Arithmetic works on Python ints: a sum or product
is an integer addition or convolution followed by one multi-argument
`math.gcd` that restores the normal form, instead of a `Fraction` (with its
gcds) per coefficient operation. `coeff` and `coeffs` hand out `Fraction`s.

The zero polynomial reports degree -inf, which keeps degree arithmetic
total: deg(p*q) = deg p + deg q holds for every pair over an exact field.

The Chebyshev-T conversions use the three-term ladder
x*T_k = (T_{k+1} + T_{k-1})/2 in both directions. The Askey-Wilson operators
have closed actions on T_k; `awops` applies them in the power basis, and the
test suite checks it against those T-basis actions through these conversions.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

from qstruct.scalar import Frozen, as_fraction, format_rational

__all__ = [
    "NEG_INF",
    "Poly",
    "to_cheb",
    "from_cheb",
    "poly_to_json",
    "int_convolution",
    "int_three_term",
]

# Degree of the zero polynomial. Never -1: -inf makes deg(p*q) = deg p + deg q
# total, including zero factors.
NEG_INF = float("-inf")


class Poly(Frozen):
    """Immutable polynomial sum(nums[k] * x**k) / den in normal form (module
    docstring). Pure value semantics.

    Poly(coeffs) takes ints and Fractions in ascending power order;
    Poly.from_ints(nums, den) takes integer numerators over any nonzero
    denominator. Both normalize.
    """

    __slots__ = ("nums", "den")
    nums: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Sequence = ()) -> None:
        fs = [c if type(c) is Fraction else as_fraction(c) for c in coeffs]
        while fs and not fs[-1]:
            fs.pop()
        # coefficients in lowest terms over the lcm of their denominators
        # already have gcd(den, *nums) = 1
        den = lcm(*(f.denominator for f in fs))
        _init(self, "nums", tuple(f.numerator * (den // f.denominator) for f in fs))
        _init(self, "den", den)

    @classmethod
    def from_ints(cls, nums, den: int = 1) -> "Poly":
        """sum(nums[k] * x**k) / den for integers nums and den != 0."""
        nums = list(nums)
        while nums and not nums[-1]:
            nums.pop()
        if not nums:
            return _ZERO
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            return _make(tuple([v // g for v in nums]), den // g)
        return _make(tuple(nums), den)

    @classmethod
    def zero(cls) -> "Poly":
        return _ZERO

    @classmethod
    def one(cls) -> "Poly":
        return _make((1,), 1)

    @classmethod
    def x(cls) -> "Poly":
        return _make((0, 1), 1)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, ascending; built on each access."""
        den = self.den
        return tuple(Fraction(v, den) for v in self.nums)

    @property
    def degree(self):
        """int for nonzero polynomials, -inf for the zero polynomial."""
        return len(self.nums) - 1 if self.nums else NEG_INF

    @property
    def lead(self) -> Fraction:
        if not self.nums:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def coeff(self, k: int) -> Fraction:
        """Coefficient of x**k; zero outside the stored range (any k)."""
        if 0 <= k < len(self.nums):
            return Fraction(self.nums[k], self.den)
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __repr__(self) -> str:
        return f"Poly({self.coeffs!r})"

    def __add__(self, other) -> "Poly":
        return _lincomb(self, _as_poly(other), 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _make(tuple([-v for v in self.nums]), self.den)

    def __sub__(self, other) -> "Poly":
        return _lincomb(self, _as_poly(other), -1)

    def __rsub__(self, other) -> "Poly":
        return _lincomb(_as_poly(other), self, -1)

    def __mul__(self, other) -> "Poly":
        other = _as_poly(other)
        a, b = self.nums, other.nums
        if not a or not b:
            return _ZERO
        if len(a) > len(b):
            a, b = b, a
            self, other = other, self
        if len(a) == 1:
            return _scaled(other, a[0], self.den)
        return Poly.from_ints(int_convolution(a, b), self.den * other.den)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self.nums:
            return "0"
        cs = self.coeffs
        terms = []
        for k in range(len(cs) - 1, -1, -1):
            c = cs[k]
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


_init = object.__setattr__


def _make(nums: tuple[int, ...], den: int) -> Poly:
    """A Poly from data already in normal form."""
    p = object.__new__(Poly)
    _init(p, "nums", nums)
    _init(p, "den", den)
    return p


_ZERO = _make((), 1)


def _scaled(p: Poly, num: int, den: int) -> Poly:
    """p * num / den for a scalar num / den in lowest terms, den > 0. Both
    parts are in normal form, so gcd(num, p.den) and the gcd of den with
    the numerators of p are the only common factors left to cancel."""
    g, h = gcd(num, p.den), gcd(den, *p.nums)
    num = num // g
    return _make(tuple([v // h * num for v in p.nums]), p.den // g * (den // h))


def int_convolution(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The coefficients of (sum a[k] x**k) * (sum b[k] x**k), for callers
    that read an integer residual off a product (see `structure`). Its last
    entry is nonzero when those of a and b are, and it is empty when a or
    b is."""
    if len(a) > len(b):
        a, b = b, a
    # one shifted row of the longer factor at a time
    out = [0] * (len(a) + len(b) - 1) if a else []
    nb = len(b)
    for i, x in enumerate(a):
        if x:
            out[i : i + nb] = [o + x * y for o, y in zip(out[i : i + nb], b)]
    return out


def int_three_term(lhs, p, q, a, b, c) -> tuple[list[int], int]:
    """lhs - (a x + b) p - c q, where lhs, p and q are pairs (nums, den)
    standing for sum(nums[k] x**k) / den with den > 0, and a, b, c are ints
    or Fractions; q is not read when c is zero. This one step is the
    recurrence of the OPS table, every residual of the structure relation,
    pi S_q P_n from the D_q images, and the five-term check. The result is
    integer numerators over a positive denominator, not normalized: the rhs
    is taken over lcm(den a, den b) den p, joined with den c den q by one
    more lcm, and cross-multiplied with lhs, all in one pass with no gcd
    over the coefficients; an empty lhs is skipped, and the result is over
    that rhs denominator. It is zero exactly when every numerator is."""
    nums, den = lhs
    p_nums, p_den = p
    m = lcm(a.denominator, b.denominator)
    a = a.numerator * (m // a.denominator)
    b = b.numerator * (m // b.denominator)
    rhs_den, c_num, q_nums = m * p_den, 0, ()
    if c:
        q_nums, q_den = q
        c_den = c.denominator * q_den
        common = lcm(rhs_den, c_den)
        scale, c_num = common // rhs_den, c.numerator * (common // c_den)
        a, b, rhs_den = a * scale, b * scale, common
    if not nums:  # an empty lhs, as in the OPS step: nothing to scale
        streams = zip_longest((0, *p_nums), p_nums, q_nums, fillvalue=0)
        return [-a * u - b * v - c_num * w for u, v, w in streams], rhs_den
    g = gcd(rhs_den, den)
    left, right = rhs_den // g, den // g
    a, b, c_num = a * right, b * right, c_num * right
    out = [
        x * left - a * u - b * v - c_num * w
        for x, u, v, w in zip_longest(nums, (0, *p_nums), p_nums, q_nums, fillvalue=0)
    ]
    return out, den * left


def _lincomb(p: Poly, r: Poly, sign: int) -> Poly:
    """p + sign * r, over the lcm of the two denominators."""
    if not r.nums:
        return p
    g = gcd(p.den, r.den)
    sa, sb = r.den // g, sign * (p.den // g)
    out = [x * sa + y * sb for x, y in zip_longest(p.nums, r.nums, fillvalue=0)]
    return Poly.from_ints(out, p.den * sa)


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    value = as_fraction(value)
    return _make((value.numerator,), value.denominator) if value else _ZERO


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
