import random
from dataclasses import dataclass
from fractions import Fraction as F

import pytest

from qstruct.poly import NEG_INF, Poly, from_cheb, poly_to_json, to_cheb
from qstruct.scalar import as_fraction, format_rational, parse_rational


def monomial(k):
    """x**k as a Poly."""
    return Poly((F(0),) * k + (F(1),))


def evaluate(p, x0):
    """p(x0), exact, by Horner's rule over the coefficients of a Poly or a
    FractionPoly."""
    x0 = as_fraction(x0)
    acc = F(0)
    for c in reversed(p.coeffs):
        acc = acc * x0 + c
    return acc


@dataclass(frozen=True)
class FractionPoly:
    """Reference: the Fraction-tuple polynomial that Poly replaced, one
    Fraction per coefficient in ascending order with trailing zeros
    stripped. The property tests check Poly's arithmetic against it."""

    coeffs: tuple = ()

    def __post_init__(self):
        cs = [c if type(c) is F else as_fraction(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def coeff(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return F(0)

    def __add__(self, other):
        other = _as_reference(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return FractionPoly(tuple(self.coeff(k) + other.coeff(k) for k in range(n)))

    __radd__ = __add__

    def __neg__(self):
        return FractionPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-_as_reference(other))

    def __rsub__(self, other):
        return _as_reference(other) + (-self)

    def __mul__(self, other):
        other = _as_reference(other)
        if not self.coeffs or not other.coeffs:
            return FractionPoly(())
        out = [F(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FractionPoly(tuple(out))

    __rmul__ = __mul__

    def eval(self, x0):
        return evaluate(self, x0)

    def __str__(self):
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


def _as_reference(value):
    if isinstance(value, FractionPoly):
        return value
    return FractionPoly((as_fraction(value),))


def rand_poly(rng, max_deg, allow_zero=True):
    deg = rng.randint(-1 if allow_zero else 0, max_deg)
    if deg < 0:
        return Poly.zero()
    coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg)]
    coeffs.append(F(rng.randint(1, 9), rng.randint(1, 9)))  # nonzero lead
    return Poly(tuple(coeffs))


def test_canonical_form():
    assert Poly((F(1), F(0), F(0))).coeffs == (F(1),)
    assert Poly(()).coeffs == ()
    assert Poly((F(0),)) == Poly.zero()


def test_degree_marker():
    assert Poly.zero().degree == NEG_INF
    assert Poly.one().degree == 0
    assert Poly.x().degree == 1
    # -inf keeps degree arithmetic total
    assert Poly.zero().degree + 5 == NEG_INF


def test_ring_examples():
    x = Poly.x()
    assert (x - 1) * (x + 1) == Poly((F(-1), F(0), F(1)))
    assert evaluate((x - 1) * (x + 1), 1) == 0
    assert Poly.zero() * Poly((F(3), F(5))) == Poly.zero()


def test_eval_multiplicative():
    rng = random.Random(7)
    for _ in range(60):
        p, q = rand_poly(rng, 8), rand_poly(rng, 8)
        x0 = F(rng.randint(-9, 9), rng.randint(1, 9))
        assert evaluate(p * q, x0) == evaluate(p, x0) * evaluate(q, x0)


def test_degree_additive_for_nonzero():
    rng = random.Random(11)
    for _ in range(60):
        p = rand_poly(rng, 10, allow_zero=False)
        q = rand_poly(rng, 10, allow_zero=False)
        assert (p * q).degree == p.degree + q.degree


def test_to_cheb_examples():
    assert to_cheb(Poly.one()) == [F(1)]
    assert to_cheb(monomial(2)) == [F(1, 2), F(0), F(1, 2)]
    # T_3 = 4x^3 - 3x
    assert to_cheb(monomial(3)) == [F(0), F(3, 4), F(0), F(1, 4)]


def test_from_cheb_examples():
    assert from_cheb([F(1)]) == Poly.one()
    assert from_cheb([F(0), F(1)]) == Poly.x()
    assert from_cheb([F(1, 2), F(0), F(1, 2)]) == monomial(2)


def test_cheb_round_trip_random():
    rng = random.Random(13)
    for _ in range(40):
        p = rand_poly(rng, 40)
        c = to_cheb(p)
        assert from_cheb(c) == p
        if p:
            assert len(c) == p.degree + 1


def test_cheb_coeff_count_matches_degree():
    p = Poly((F(5), F(0), F(0), F(2)))
    assert len(to_cheb(p)) == 4
    assert to_cheb(Poly.zero()) == []


def test_lead_of_zero_raises():
    with pytest.raises(ValueError):
        Poly.zero().lead


def test_str_rendering():
    assert str(Poly((F(-1), F(0), F(1)))) == "x^2 - 1"
    assert str(Poly((F(1, 2), F(-3)))) == "-3*x + 1/2"
    assert str(Poly.zero()) == "0"


def test_json_round_trip():
    p = Poly((F(-1, 3), F(0), F(7, 2)))
    assert Poly(tuple(parse_rational(s) for s in poly_to_json(p))) == p
    assert poly_to_json(p) == ["-1/3", "0", "7/2"]


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        Poly((0.5,))


def test_only_non_fraction_coefficients_are_coerced():
    with pytest.raises(TypeError):
        Poly((F(1, 2), 0.5))  # a float behind a Fraction
    p = Poly((1, F(1, 2), -3))
    assert p.coeffs == (F(1), F(1, 2), F(-3))
    assert all(type(c) is F for c in p.coeffs)
    assert all(type(c) is F for c in (p * p + 2 * p).coeffs)


def test_normal_form():
    # integer numerators over one positive denominator, gcd 1, no trailing zero
    p = Poly((F(1, 2), F(-3, 4), F(0), F(5, 6), F(0)))
    assert (p.nums, p.den) == ((6, -9, 0, 10), 12)
    assert (Poly.zero().nums, Poly.zero().den) == ((), 1)
    assert (Poly((F(2), F(4))).nums, Poly((F(2), F(4))).den) == ((2, 4), 1)
    q = Poly.from_ints([4, -6, 0, 0], -8)
    assert (q.nums, q.den) == ((-2, 3), 4)
    assert Poly.from_ints([0, 0], 7) == Poly.zero()
    assert (p - p).nums == () and (p - p).den == 1
    assert (2 * Poly((F(1, 2),))).den == 1


def test_poly_is_immutable_and_hashable():
    p = Poly((F(1, 2), F(1)))
    with pytest.raises(AttributeError):
        p.den = 1
    with pytest.raises(AttributeError):
        p.nums = ()
    with pytest.raises(AttributeError):
        del p.den
    assert hash(p) == hash(Poly.from_ints([1, 2], 2))
    assert p != p.coeffs and p != 0
