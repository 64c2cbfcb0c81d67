from fractions import Fraction as F
from functools import cache
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qstruct.families import (
    FamilySpec,
    IrregularParameters,
    MomentVector,
    OPSTable,
    TTRRSpec,
    cq_jacobi_powers,
    cq_jacobi_scan,
    cq_jacobi_terms,
    generate_ops,
    moments,
    ttrr_alsalam_chihara,
    ttrr_chebyshev_t,
    ttrr_cq_jacobi,
    ttrr_equal,
    ttrr_from_json,
    ttrr_qhermite,
    ttrr_to_json,
)
from qstruct.poly import Poly
from qstruct.scalar import QContext, as_fraction, format_rational

CTX = QContext(F(1, 2))  # q = 1/16


def replaced(ttrr, *, b_overrides=None, c_overrides=None):
    """A copy of ttrr with selected B_n and C_n overridden, for perturbation
    tests. Overrides outside the horizon are ignored."""
    b_over = b_overrides or {}
    c_over = c_overrides or {}
    return TTRRSpec(
        tuple(as_fraction(b_over.get(n, v)) for n, v in enumerate(ttrr.b)),
        tuple(as_fraction(c_over.get(n, v)) for n, v in enumerate(ttrr.c, 1)),
        f"{ttrr.label}-perturbed",
    )


# The family generators as they were before they ran on integers: every
# coefficient built by Fraction arithmetic from running Fraction powers of q.
# They are the oracles of the integer generators, and the recovery oracle of
# test_characterize reads the continuous q-Jacobi helpers below.


def ttrr_qhermite_oracle(ctx, *, inverse=False, n_max=32):
    q = 1 / ctx.q if inverse else ctx.q
    label = "q-hermite-qinv" if inverse else "q-hermite"
    return TTRRSpec(
        (F(0),) * (n_max + 1), tuple((1 - q**n) / 4 for n in range(1, n_max + 1)), label
    )


def ttrr_alsalam_chihara_oracle(ctx, c, d, *, inverse=False, n_max=32):
    c, d = as_fraction(c), as_fraction(d)
    q = 1 / ctx.q if inverse else ctx.q
    cd, half_sum = c * d, (c + d) / 2
    bs, cs = [half_sum], []
    qn = F(1)  # q**(n-1) on entering step n, q**n after it
    for n in range(1, n_max + 1):
        factor = 1 - cd * qn
        if factor == 0:
            raise IrregularParameters(
                f"regularity factor (1 - c*d*q^(n-1)) vanishes at n = {n}"
            )
        qn *= q
        bs.append(half_sum * qn)
        cs.append(factor * (1 - qn) / 4)
    label = f"alsalam-chihara({format_rational(c)},{format_rational(d)})" + (
        "-qinv" if inverse else ""
    )
    return TTRRSpec(tuple(bs), tuple(cs), label)


def ttrr_cq_jacobi_oracle(ctx, p_a, p_b, *, inverse=False, n_max=32):
    p_a, p_b = as_fraction(p_a), as_fraction(p_b)
    if p_a <= 0 or p_b <= 0:
        raise ValueError("p_a and p_b must be positive (they are real powers of q)")
    t = 1 / ctx.t if inverse else ctx.t
    qm = cq_jacobi_powers_oracle(t, n_max)
    cq_jacobi_scan_oracle(qm, p_a, p_b, n_max)
    pt = p_a * t
    edge = pt + 1 / pt
    y, z = zip(*cq_jacobi_terms_oracle(t, p_a, p_b, qm, range(n_max + 1)))
    label = f"cq-jacobi({format_rational(p_a)},{format_rational(p_b)})" + (
        "-qinv" if inverse else ""
    )
    return TTRRSpec(
        tuple((edge - y_n - z_n) / 2 for y_n, z_n in zip(y, z)),
        tuple(y[n - 1] * z[n] / 4 for n in range(1, n_max + 1)),
        label,
    )


def cq_jacobi_powers_oracle(t, n_max):
    """q**m for m = 0 .. 2 n_max + 4, with q = t**4, as a running product."""
    q, qm = t**4, [F(1)]
    for _ in range(2 * n_max + 4):
        qm.append(qm[-1] * q)
    return qm


def cq_jacobi_scan_oracle(qm, p_a, p_b, n_max):
    """The regularity scan on Fractions: 1 - q**m c vanishes when q**m = 1/c."""
    ab = p_a * p_b
    if ab == 1:
        raise IrregularParameters("regularity factor (1 - q^((a+b)/2)) vanishes at n = 0")
    root = 1 / (ab * ab)
    for m in range(1, 2 * n_max + 5):
        if qm[m] == root:
            text = "(1 - q^(2n+a+b+2))" if m % 2 == 0 else "(1 - q^(2n+a+b+1))"
            raise IrregularParameters(f"regularity factor {text} vanishes at n = {(m - 1) // 2}")
    roots = ((1 / (p_a * p_a), "(1 - q^(n+a+1))"), (1 / (p_b * p_b), "(1 - q^(n+b+1))"))
    for n in range(0, n_max + 1):
        for power, text in roots:
            if qm[n + 1] == power:
                raise IrregularParameters(f"regularity factor {text} vanishes at n = {n}")


def cq_jacobi_terms_oracle(t, p_a, p_b, qm, ns):
    """(y_n, z_n) as Fractions, from the Fraction powers qm."""
    ab, aa, bb = p_a * p_b, p_a * p_a, p_b * p_b
    pp, abt, pt = ab * ab, ab * t * t, p_a * t
    e = cache(lambda m: 1 - qm[m] * pp)
    f = cache(lambda m: 1 + qm[m] * ab)
    out = []
    for n in ns:
        ft, e_odd = 1 + qm[n] * abt, e(2 * n + 1)
        y_n = (1 - qm[n + 1] * aa) * e(n + 1) * ft * f(n + 1) / (pt * e_odd * e(2 * n + 2))
        z_n = pt * (1 - qm[n]) * (1 - qm[n] * bb) * f(n) * ft / (e(2 * n) * e_odd)
        out.append((y_n, z_n))
    return out


def cq_jacobi_yz(ctx, p_a, p_b, n, *, inverse=False):
    """The (y_n, z_n) building blocks of the continuous q-Jacobi recurrence,
    each power of q**(1/4) taken afresh: the per-n oracle that the
    generator's shared powers and factors are checked against. p_a and p_b
    may be of any type that does field arithmetic with Fractions."""
    t = 1 / ctx.t if inverse else ctx.t  # q**(1/4) of the chosen base
    pp = p_a * p_a * p_b * p_b  # q**(a+b)
    ab = p_a * p_b  # q**((a+b)/2)
    y_num = (
        (1 - t ** (4 * n + 4) * p_a * p_a)
        * (1 - t ** (4 * n + 4) * pp)
        * (1 + t ** (4 * n + 2) * ab)
        * (1 + t ** (4 * n + 4) * ab)
    )
    y_den = p_a * t * (1 - t ** (8 * n + 4) * pp) * (1 - t ** (8 * n + 8) * pp)
    z_num = (
        p_a
        * t
        * (1 - t ** (4 * n))
        * (1 - t ** (4 * n) * p_b * p_b)
        * (1 + t ** (4 * n) * ab)
        * (1 + t ** (4 * n + 2) * ab)
    )
    z_den = (1 - t ** (8 * n) * pp) * (1 - t ** (8 * n + 4) * pp)
    return y_num / y_den, z_num / z_den


def test_qhermite_coefficients():
    t = ttrr_qhermite(CTX)
    assert t.B(5) == 0
    assert t.C(1) == F(15, 64)  # (1 - q)/4
    assert t.C(2) == F(255, 1024)  # (1 - q^2)/4


def test_asc_coefficients():
    t = ttrr_alsalam_chihara(CTX, F(1, 4), 1)
    assert t.B(0) == F(5, 8)
    assert t.C(1) == F(45, 256)  # (1 - cd)(1 - q)/4


def test_asc_specializes_to_qhermite():
    t0 = ttrr_alsalam_chihara(CTX, 0, 0)
    th = ttrr_qhermite(CTX)
    assert ttrr_equal(t0, th, 20) is None


def test_asc_regularity_failure_named():
    with pytest.raises(IrregularParameters, match="c\\*d\\*q"):
        ttrr_alsalam_chihara(CTX, 1, 1)


@pytest.mark.parametrize("inverse", [False, True], ids=["q", "q-inverse"])
@pytest.mark.parametrize(
    "t, c, d", [(F(1, 2), F(1, 4), 1), (F(2, 3), F(-3, 7), F(5, 2)), (F(1, 3), 0, F(9, 8))]
)
def test_asc_matches_its_per_n_closed_forms(t, c, d, inverse):
    ctx = QContext(t)
    q = 1 / ctx.q if inverse else ctx.q
    ttrr = ttrr_alsalam_chihara(ctx, c, d, inverse=inverse, n_max=32)
    assert ttrr.b == tuple((c + d) * q**n / 2 for n in range(33))
    assert ttrr.c == tuple((1 - c * d * q ** (n - 1)) * (1 - q**n) / 4 for n in range(1, 33))


@pytest.mark.parametrize("inverse", [False, True], ids=["q", "q-inverse"])
@pytest.mark.parametrize("n", [1, 2, 7, 32])
def test_asc_irregular_parameters_name_the_first_vanishing_factor(n, inverse):
    # c d = q**(1-n) makes 1 - c d q**(n-1) vanish at n and at no earlier index
    q = 1 / CTX.q if inverse else CTX.q
    with pytest.raises(IrregularParameters) as info:
        ttrr_alsalam_chihara(CTX, q ** (1 - n), 1, inverse=inverse, n_max=32)
    assert str(info.value) == f"regularity factor (1 - c*d*q^(n-1)) vanishes at n = {n}"
    assert ttrr_alsalam_chihara(CTX, q ** (1 - n), 1, inverse=inverse, n_max=n - 1).n_max == n - 1


def test_chebyshev_coefficients():
    t = ttrr_chebyshev_t()
    assert t.B(3) == 0
    assert t.C(1) == F(1, 2)
    assert t.C(7) == F(1, 4)


def test_cq_jacobi_symmetric_has_zero_b():
    t = ttrr_cq_jacobi(CTX, F(1, 4), F(1, 4))
    for n in range(12):
        assert t.B(n) == 0


def test_cq_jacobi_c1_closed_form():
    # (1-q)(1-q^{a+1})(1-q^{b+1})(1+q^{(a+b+1)/2}) /
    #   (4 (1-q^{(a+b+3)/2}) (1-q^{(a+b+2)/2})^2), evaluated independently
    t = ttrr_cq_jacobi(CTX, F(1, 4), F(1, 4))
    assert t.C(1) == F(325, 1364)

    def closed_c1(p_a, p_b):
        q, tq = CTX.q, CTX.t
        ab = p_a * p_b
        num = (1 - q) * (1 - q * p_a**2) * (1 - q * p_b**2) * (1 + ab * tq**2)
        den = 4 * (1 - ab * tq**6) * (1 - ab * tq**4) ** 2
        return num / den

    for p_a, p_b in [(F(1, 4), F(1, 4)), (F(1, 4), F(1, 16)), (F(1, 2), F(1, 4))]:
        assert ttrr_cq_jacobi(CTX, p_a, p_b).C(1) == closed_c1(p_a, p_b)


def test_cq_jacobi_b_product_form():
    # B_n also equals its fully factored closed form
    # q^{1/4}(1+q^{1/2})(1-q^{(a+b)/2})(q^{a/2}-q^{b/2}) q^n /
    #   (2 (1-q^{(2n+a+b)/2})(1-q^{(2n+a+b+2)/2}))
    p_a, p_b = F(1, 4), F(1, 16)
    t = ttrr_cq_jacobi(CTX, p_a, p_b)
    tq, q = CTX.t, CTX.q
    for n in range(8):
        qn = q**n
        expected = (
            tq
            * (1 + tq**2)
            * (1 - p_a * p_b)
            * (p_a - p_b)
            * qn
            / (2 * (1 - qn * p_a * p_b) * (1 - qn * p_a * p_b * q))
        )
        assert t.B(n) == expected


def test_cq_jacobi_c_product_form():
    p_a, p_b = F(1, 4), F(1, 16)
    t = ttrr_cq_jacobi(CTX, p_a, p_b)
    tq, q = CTX.t, CTX.q
    for n in range(7):
        qn = q**n
        num = (1 - q * qn) * (1 - qn * q * (p_a * p_b) ** 2) * (1 - qn * q * p_a**2) * (
            1 - qn * q * p_b**2
        )
        den = (
            4
            * (1 - qn * p_a * p_b * tq**2)
            * (1 - qn * p_a * p_b * tq**4) ** 2
            * (1 - qn * p_a * p_b * tq**6)
        )
        assert t.C(n + 1) == num / den


def test_cq_jacobi_index_consistency():
    # index consistency: the P_{n-1} coefficient y_{n-1} z_n / 4 must
    # equal C_n from the shifted C_{n+1} = y_n z_{n+1} / 4 form
    p_a, p_b = F(1, 4), F(1, 16)
    t = ttrr_cq_jacobi(CTX, p_a, p_b)
    for n in range(1, 8):
        y_prev, _ = cq_jacobi_yz(CTX, p_a, p_b, n - 1)
        _, z_n = cq_jacobi_yz(CTX, p_a, p_b, n)
        assert t.C(n) == y_prev * z_n / 4


def test_cq_jacobi_edge_exponent_regression():
    # symmetric pair q^{(2a+1)/4} + q^{-(2a+1)/4} is used for B_n; the
    # variant with q^{-(2a-1)/4} would differ by a factor q^{1/2} in one term
    p_a = F(1, 4)
    sym = p_a * CTX.t + 1 / (p_a * CTX.t)
    variant = p_a * CTX.t + CTX.t**2 / (p_a * CTX.t)
    assert sym != variant
    t = ttrr_cq_jacobi(CTX, p_a, F(1, 16))
    y0, z0 = cq_jacobi_yz(CTX, p_a, F(1, 16), 0)
    assert t.B(0) == (sym - y0 - z0) / 2


def test_cq_jacobi_regularity_errors():
    with pytest.raises(IrregularParameters, match="a\\+b"):
        ttrr_cq_jacobi(CTX, 2, F(1, 2))  # p_a p_b = 1
    with pytest.raises(ValueError):
        ttrr_cq_jacobi(CTX, F(-1, 4), F(1, 4))
    # inverse base with small parameters hits q^{-(...)} = 1 factors
    with pytest.raises(IrregularParameters):
        ttrr_cq_jacobi(CTX, F(1, 4), F(1, 16), inverse=True)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.fractions(min_value=F(1, 9), max_value=F(8, 9), max_denominator=9),
    st.fractions(min_value=-3, max_value=3, max_denominator=9).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=9).filter(bool),
    st.integers(1, 10),
)
def test_cq_jacobi_terms_are_invariant_under_the_reflection_of_the_parameters(t, p_a, p_b, n_max):
    # B_n and C_{n+1} = y_n z_{n+1} / 4 at (p_a, p_b) equal those at
    # (-p_b, -p_a); the scan is the same at both, and e_0 = 0 at p_a p_b = -1
    powers = cq_jacobi_powers(t, n_max)
    try:
        cq_jacobi_scan(powers, p_a, p_b, n_max)
    except IrregularParameters:
        assume(False)
    assume(p_a * p_b != -1)

    def recurrence(p_a, p_b):
        terms = cq_jacobi_terms(t, p_a, p_b, powers, range(n_max + 1))
        bs = [F(*b) for b, _, _ in terms]
        cs = [
            F(yn * zn, 4 * yd * zd)  # C_{n+1} = y_n z_{n+1} / 4
            for (_, (yn, yd), _), (_, _, (zn, zd)) in zip(terms, terms[1:])
        ]
        return bs, cs

    assert recurrence(p_a, p_b) == recurrence(-p_b, -p_a)


def test_family_spec_refuses_a_missing_parameter_and_an_unknown_family():
    with pytest.raises(KeyError) as info:
        FamilySpec("continuous-q-jacobi", (("p_a", F(1, 3)),)).to_ttrr(CTX)
    assert info.value.args == ("p_b",)
    with pytest.raises(ValueError, match="^unknown family 'jacobi'$"):
        FamilySpec("jacobi").to_ttrr(CTX)


def test_expand_and_ratio_refuse_degrees_past_what_they_hold():
    ttrr = ttrr_qhermite(CTX, n_max=3)
    ops = generate_ops(ttrr, 3)
    assert ops.expand(Poly.zero()) == []
    with pytest.raises(ValueError, match="^table only reaches degree 3, need 4$"):
        ops.expand(Poly((0, 0, 0, 0, 1)))
    with pytest.raises(ValueError, match="^moments known to order 3, need 4$"):
        moments(ttrr, 3).ratio([0, 0, 0, 0, 1], 1)


@st.composite
def cq_jacobi_points(draw):
    """(ctx, p_a, p_b, inverse, n_max); a parameter is either a small
    rational or a power of q**(1/4), where factors of the recurrence meet."""
    ctx = QContext(draw(st.fractions(min_value=F(1, 9), max_value=F(8, 9), max_denominator=9)))
    params = st.one_of(
        st.fractions(min_value=F(1, 9), max_value=3, max_denominator=9),
        st.integers(min_value=-12, max_value=12).map(lambda k: ctx.t**k),
    )
    return ctx, draw(params), draw(params), draw(st.booleans()), draw(st.integers(1, 12))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(cq_jacobi_points())
def test_cq_jacobi_matches_the_per_n_oracle(point):
    ctx, p_a, p_b, inverse, n_max = point
    try:
        ttrr = ttrr_cq_jacobi(ctx, p_a, p_b, inverse=inverse, n_max=n_max)
    except IrregularParameters:
        assume(False)
    t = 1 / ctx.t if inverse else ctx.t
    edge = p_a * t + 1 / (p_a * t)
    yz = [cq_jacobi_yz(ctx, p_a, p_b, n, inverse=inverse) for n in range(n_max + 1)]
    assert ttrr.b == tuple((edge - y_n - z_n) / 2 for y_n, z_n in yz)
    assert ttrr.c == tuple(yz[n - 1][0] * yz[n][1] / 4 for n in range(1, n_max + 1))


@st.composite
def generator_cases(draw):
    """(ctx, family, params, inverse, n_max) over contexts with denominators
    up to 29 and horizons up to 48; a parameter is a small rational or a
    power of q**(1/4), where factors of the recurrences vanish, and a
    continuous q-Jacobi parameter is now and then not positive."""
    ctx = QContext(draw(st.fractions(min_value=F(1, 29), max_value=F(28, 29), max_denominator=29)))
    powers = st.integers(min_value=-24, max_value=24).map(lambda k: ctx.t**k)
    small = st.fractions(min_value=-3, max_value=3, max_denominator=9)
    positive = st.fractions(min_value=F(1, 9), max_value=3, max_denominator=9)
    family = draw(st.sampled_from(["q-hermite", "alsalam-chihara", "continuous-q-jacobi"]))
    if family == "alsalam-chihara":
        d = draw(small | powers)
        vanishing = st.integers(-12, 12).map(lambda j: 1 / (d * ctx.t ** (4 * j)))
        c = draw(small | powers | powers.map(lambda p: -p) | (vanishing if d else small))
        params = (c, d)
    elif family == "continuous-q-jacobi":
        p_a = draw(st.sampled_from([F(0), F(-1, 3)]) if draw(st.integers(0, 9)) == 0 else positive | powers)
        params = (p_a, draw(positive | powers))
    else:
        params = ()
    n_max = draw(st.integers(1, 48) | st.integers(32, 48))
    return ctx, family, params, draw(st.booleans()), n_max


GENERATORS = {
    "q-hermite": (ttrr_qhermite, ttrr_qhermite_oracle),
    "alsalam-chihara": (ttrr_alsalam_chihara, ttrr_alsalam_chihara_oracle),
    "continuous-q-jacobi": (ttrr_cq_jacobi, ttrr_cq_jacobi_oracle),
}


def outcome(fn, *args, **kwargs):
    """fn's return value, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(generator_cases())
def test_integer_generators_match_their_fraction_oracles(case):
    # the same B, C and label (TTRRSpec equality), or the same exception
    # type and message, irregular points included
    ctx, family, params, inverse, n_max = case
    generator, oracle = GENERATORS[family]
    got = outcome(generator, ctx, *params, inverse=inverse, n_max=n_max)
    assert got == outcome(oracle, ctx, *params, inverse=inverse, n_max=n_max)
    if isinstance(got, TTRRSpec):
        assert all(type(v) is F for v in got.b + got.c)


IRREGULAR = [
    # (p_a, p_b, n_max, message) at t = 1/2; the q-inverse base takes the
    # reciprocal parameters, whose factors vanish at the same exponents
    (F(2), F(1, 2), 8, "(1 - q^((a+b)/2)) vanishes at n = 0"),
    (F(8), F(1, 2), 8, "(1 - q^(2n+a+b+1)) vanishes at n = 0"),
    (F(16), F(1), 8, "(1 - q^(2n+a+b+2)) vanishes at n = 0"),
    (F(4), F(16), 8, "(1 - q^(2n+a+b+1)) vanishes at n = 1"),
    (F(1024), F(1024), 3, "(1 - q^(2n+a+b+2)) vanishes at n = 4"),
    (F(16), F(1, 2), 8, "(1 - q^(n+a+1)) vanishes at n = 1"),
    (F(256), F(1, 3), 3, "(1 - q^(n+a+1)) vanishes at n = 3"),
    (F(1, 2), F(16), 8, "(1 - q^(n+b+1)) vanishes at n = 1"),
]


@pytest.mark.parametrize("inverse", [False, True], ids=["q", "q-inverse"])
@pytest.mark.parametrize("p_a, p_b, n_max, message", IRREGULAR)
def test_cq_jacobi_irregular_parameters_name_the_first_vanishing_factor(
    p_a, p_b, n_max, message, inverse
):
    if inverse:
        p_a, p_b = 1 / p_a, 1 / p_b
    with pytest.raises(IrregularParameters) as info:
        ttrr_cq_jacobi(CTX, p_a, p_b, inverse=inverse, n_max=n_max)
    assert str(info.value) == f"regularity factor {message}"


def test_cq_jacobi_regularity_scan_stops_at_the_horizon():
    # (1 - q^(2n+a+b+2)) vanishes at n = 4 and (1 - q^(n+a+1)) at n = 4,
    # both past what n_max = 2 reads
    for inverse, p in ((False, F(1024)), (True, F(1, 1024))):
        assert ttrr_cq_jacobi(CTX, p, p, inverse=inverse, n_max=2).n_max == 2


def test_generate_ops_first_entries():
    t = ttrr_alsalam_chihara(CTX, F(1, 4), 1)
    ops = generate_ops(t, 6)
    x = Poly.x()
    assert ops.polys[0] == Poly.one()
    assert ops.polys[1] == x - t.B(0)
    assert ops.polys[2] == (x - t.B(1)) * (x - t.B(0)) - t.C(1)


@pytest.mark.parametrize(
    "ttrr",
    [
        ttrr_qhermite(CTX),
        ttrr_alsalam_chihara(CTX, F(1, 4), 1),
        ttrr_chebyshev_t(),
        ttrr_cq_jacobi(CTX, F(1, 4), F(1, 16)),
    ],
)
def test_generate_ops_satisfies_recurrence(ttrr):
    N = 10
    ops = generate_ops(ttrr, N)
    x = Poly.x()
    for n in range(N):
        prev = ops.polys[n - 1] if n >= 1 else Poly.zero()
        residual = ops.polys[n + 1] - (x - ttrr.B(n)) * ops.polys[n] + ttrr.C(n) * prev
        assert residual == Poly.zero()
        assert ops.polys[n].degree == n
        assert ops.polys[n].lead == 1


def test_moment_anchors():
    t = ttrr_alsalam_chihara(CTX, F(1, 4), 1)
    mom = moments(t, 6)
    mu = [F(v, mom.den) for v in mom.nums]
    assert mu[0] == 1
    assert mu[1] == t.B(0)
    assert mu[2] == t.B(0) ** 2 + t.C(1)


@pytest.mark.parametrize(
    "ttrr",
    [
        ttrr_qhermite(CTX),
        ttrr_alsalam_chihara(CTX, F(1, 4), 1),
        ttrr_chebyshev_t(),
        ttrr_cq_jacobi(CTX, F(1, 4), F(1, 4)),
        ttrr_cq_jacobi(CTX, F(1, 4), F(1, 16)),
    ],
)
def test_orthogonality_via_moments(ttrr):
    N = 12
    ops = generate_ops(ttrr, N // 2)
    mom = moments(ttrr, N)
    for m in range(N // 2 + 1):
        for n in range(m + 1):
            inner = mom.apply(ops.polys[m] * ops.polys[n])
            if m != n:
                assert inner == 0
            else:
                expected = F(1)
                for k in range(1, n + 1):
                    expected *= ttrr.C(k)
                assert inner == expected


def test_inverse_qhermite_values():
    t = ttrr_qhermite(CTX, inverse=True)
    assert t.B(4) == 0
    assert t.C(1) == F(-15, 4)  # (1 - q^{-1})/4
    tn = ttrr_qhermite(CTX)
    assert ttrr_equal(t, tn, 8) == ("C", 1)


def test_inverse_q_variant_via_family_spec():
    t = FamilySpec("q-hermite", base="q-inverse").to_ttrr(CTX)
    assert t.C(1) == F(-15, 4)
    spec_asc = FamilySpec("alsalam-chihara", (("c", F(0)), ("d", F(0))), "q-inverse")
    t2 = spec_asc.to_ttrr(CTX)
    assert ttrr_equal(t, t2, 10) is None
    assert t2.B(3) == 0


def test_cq_jacobi_q_inversion_self_mirror():
    # the family is invariant under q -> 1/q with reciprocal parameters
    a = ttrr_cq_jacobi(CTX, 4, 16, inverse=True)
    b = ttrr_cq_jacobi(CTX, F(1, 4), F(1, 16))
    assert ttrr_equal(a, b, 16) is None


def test_cq_jacobi_quarter_parameters_give_second_kind_constants():
    # p_a = p_b = q^{1/4} collapses the family to B_n = 0, C_n = 1/4
    # (the monic second-kind Chebyshev recurrence), for every q
    for tq in (F(1, 2), F(2, 5)):
        ctx = QContext(tq)
        t = ttrr_cq_jacobi(ctx, ctx.t, ctx.t)
        assert all(t.B(n) == 0 for n in range(10))
        assert all(t.C(n) == F(1, 4) for n in range(1, 10))


def test_explicit_lists_and_regularity():
    t = TTRRSpec.from_lists([0, 0, 0, 0], [F(1, 2), F(1, 4), F(1, 4)], label="lists")
    assert t.C(1) == F(1, 2)
    assert t.n_max == 3
    with pytest.raises(IrregularParameters):
        TTRRSpec.from_lists([0, 0, 0], [F(1, 2), 0], label="bad")
    for b, c in (([0] * 5, [F(1, 2), F(1, 4)]), ([0, 0], [F(1, 2), F(1, 4)])):
        with pytest.raises(ValueError, match="one horizon"):
            TTRRSpec.from_lists(b, c, label="mismatched")
    with pytest.raises(ValueError, match="at least"):
        TTRRSpec.from_lists([0], [], label="empty")


def test_replaced_overrides():
    t = ttrr_chebyshev_t()
    p = replaced(t, c_overrides={2: F(1, 4) + F(1, 1000)})
    assert p.C(2) == F(1, 4) + F(1, 1000)
    assert p.C(3) == F(1, 4)
    assert p.B(5) == 0


def test_json_round_trip():
    t = ttrr_cq_jacobi(CTX, F(1, 4), F(1, 16))
    data = ttrr_to_json(CTX, t, 8)
    ctx2, t2 = ttrr_from_json(data)
    assert ctx2.t == CTX.t
    assert ttrr_equal(t, t2, 8) is None
    assert data["C"][0] == "109225/465124"  # C_1 as a canonical string


def test_horizon_guard():
    t = ttrr_qhermite(CTX, n_max=5)
    with pytest.raises(IndexError):
        t.C(6)
    with pytest.raises(IndexError):
        generate_ops(t, 7)
    with pytest.raises(IndexError):
        ttrr_to_json(CTX, t, 6)


def test_a_table_and_its_d_q_reads_refuse_indices_outside_its_degrees():
    # a degree outside the recurrence's horizon builds no table, and a
    # negative index must not read the last stored image
    ttrr = ttrr_chebyshev_t(n_max=10)
    for N in (-1, 11):
        with pytest.raises(IndexError, match=rf"^degree {N} outside materialized horizon 0\.\.10$"):
            OPSTable(ttrr, N)
    ops = OPSTable(ttrr, 10)
    for built in (0, 5):
        ops.dq(CTX, built)
        for n in (-1, -2, 11):
            with pytest.raises(IndexError):
                ops.dq(CTX, n)


def test_reading_d_q_past_the_tables_degree_builds_no_image():
    # D_q P_n with n past the degree is refused up front, naming D_q P_n,
    # with no D_q P_k built for the read and the stored prefix kept
    ops = OPSTable(ttrr_chebyshev_t(n_max=10), 8)
    ctx = QContext(F(3, 7))
    for n in (9, 11):
        with pytest.raises(IndexError, match=rf"^D_q P_{n} outside the table's degrees 0\.\.8$"):
            ops.dq(ctx, n)
    assert ctx not in ops._images
    ops.dq(ctx, 2)
    images = ops._images[ctx]
    with pytest.raises(IndexError, match=r"^D_q P_11 outside"):
        ops.dq(ctx, 11)
    assert ops._images[ctx] is images and len(images) == 3


def ops_oracle(ttrr, n):
    """P_0..P_n by `Poly` arithmetic, P_{k+1} = (x - B_k) P_k - C_k P_{k-1}:
    the reference for the table's one-vector integer step."""
    polys, x = [Poly.one()], Poly.x()
    for k in range(n):
        step = (x - ttrr.B(k)) * polys[k]
        polys.append(step - ttrr.C(k) * polys[k - 1] if k else step)
    return polys


def normal_forms(polys):
    return [(p.nums, p.den) for p in polys]


rationals = st.builds(F, st.integers(-60, 60), st.integers(1, 60))


@st.composite
def random_ttrrs(draw):
    """A random recurrence to a horizon of 1..24: B_k of either sign or
    zero, C_k nonzero of either sign."""
    n = draw(st.integers(1, 24))
    b = draw(st.lists(rationals, min_size=n + 1, max_size=n + 1))
    c = draw(st.lists(rationals.filter(bool), min_size=n, max_size=n))
    return TTRRSpec.from_lists(b, c, "random")


@settings(derandomize=True, max_examples=80, deadline=None)
@given(random_ttrrs(), st.lists(st.integers(0, 24), max_size=4))
def test_ops_tables_of_any_degree_match_the_poly_oracle(ttrr, degrees):
    # the integer step stores the same normal form as Poly arithmetic, and
    # a table of lower degree holds a prefix of the same entries
    N = ttrr.n_max
    expected = normal_forms(ops_oracle(ttrr, N))
    for n in (0, 1, *(min(k, N) for k in degrees), N):
        assert normal_forms(OPSTable(ttrr, n).polys) == expected[: n + 1]
    assert normal_forms(generate_ops(ttrr, N).polys) == expected


@pytest.mark.parametrize("base", ["q", "q-inverse"])
@pytest.mark.parametrize(
    "family, params",
    [
        ("q-hermite", ()),
        ("alsalam-chihara", (("c", F(1, 3)), ("d", F(-2, 5)))),
        ("chebyshev-t", ()),
        ("continuous-q-jacobi", (("p_a", F(1, 3)), ("p_b", F(2, 5)))),
    ],
)
def test_ops_table_matches_the_poly_oracle_on_family_points(family, params, base):
    for t in (F(1, 2), F(2, 3)):
        ttrr = FamilySpec(family, params, base).to_ttrr(QContext(t), n_max=32)
        assert normal_forms(generate_ops(ttrr, 32).polys) == normal_forms(ops_oracle(ttrr, 32))


def moments_oracle(ttrr, N):
    """The triangular solve that `moments` replaced: P_n is monic, so
    mu_n = -sum_{k<n} [x**k]P_n mu_k, on the integer numerators of the OPS
    table, over the least common denominator of mu_0..mu_n."""
    ops = OPSTable(ttrr, N)
    nums, den = [1], 1  # mu_k = nums[k] / den
    for n in range(1, N + 1):
        p = ops.polys[n]
        s = -sum(map(mul, p.nums[:-1], nums))  # mu_n = s / (p.den * den)
        g = gcd(s, p.den * den)
        mu_den = p.den * den // g
        common = lcm(den, mu_den)
        if common != den:
            nums = [v * (common // den) for v in nums]
        nums.append(s // g * (common // mu_den))
        den = common
    return MomentVector(tuple(nums), den)


def reference_moments(ttrr, N):
    """The Fraction recurrence: x**n expanded in the P_k basis through
    x P_k = P_{k+1} + B_k P_k + C_k P_{k-1}; mu_n is the P_0 component."""
    coords, mus = [F(1)], [F(1)]
    for _ in range(N):
        nxt = [F(0)] * (len(coords) + 1)
        for k, dk in enumerate(coords):
            nxt[k + 1] += dk
            nxt[k] += dk * ttrr.B(k)
            if k >= 1:
                nxt[k - 1] += dk * ttrr.C(k)
        coords = nxt
        mus.append(coords[0])
    return tuple(mus)


def assert_moments_match_both_oracles(ttrr, N):
    mom = moments(ttrr, N)
    assert mom == moments_oracle(ttrr, N)
    assert tuple(F(v, mom.den) for v in mom.nums) == reference_moments(ttrr, N)
    assert gcd(mom.den, *mom.nums) == 1 and mom.den > 0


@st.composite
def moment_ttrrs(draw):
    """(ttrr, N): a recurrence to a horizon of 1..24 whose B_k are signed
    rationals, all zero or signed integers, and whose C_k are nonzero of
    either sign, rational or integer alike; and 0 <= N <= n_max."""
    n = draw(st.integers(1, 24))
    kind = draw(st.sampled_from(["rational", "b-zero", "integer"]))
    values = st.integers(-9, 9) if kind == "integer" else rationals
    b = [0] * (n + 1) if kind == "b-zero" else draw(st.lists(values, min_size=n + 1, max_size=n + 1))
    c = draw(st.lists(values.filter(bool), min_size=n, max_size=n))
    return TTRRSpec.from_lists(b, c, "random"), draw(st.integers(0, n))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(moment_ttrrs())
def test_moments_match_the_table_solve_and_the_fraction_recurrence(case):
    assert_moments_match_both_oracles(*case)


# a point of each family that is regular in both bases at t = 1/2, 2/3, 1/3
FAMILY_PARAMS = {
    "q-hermite": (),
    "alsalam-chihara": (("c", F(1, 3)), ("d", F(-2, 5))),
    "chebyshev-t": (),
    "continuous-q-jacobi": (("p_a", F(1, 3)), ("p_b", F(2, 5))),
}


@settings(derandomize=True, max_examples=16, deadline=None)
@given(
    st.sampled_from(sorted(FAMILY_PARAMS)),
    st.sampled_from(["q", "q-inverse"]),
    st.sampled_from([F(1, 2), F(2, 3), F(1, 3)]),
    st.integers(0, 64),
)
def test_moments_match_the_table_solve_and_the_fraction_recurrence_on_families(
    family, base, t, N
):
    spec = FamilySpec(family, FAMILY_PARAMS[family], base)
    ttrr = spec.to_ttrr(QContext(t), n_max=max(N, 1))
    assert_moments_match_both_oracles(ttrr, N)


@pytest.mark.parametrize("base", ["q", "q-inverse"])
@pytest.mark.parametrize("family", FAMILY_PARAMS)
def test_moments_match_the_table_solve_and_the_fraction_recurrence_at_n_64(family, base):
    ttrr = FamilySpec(family, FAMILY_PARAMS[family], base).to_ttrr(CTX, n_max=64)
    assert_moments_match_both_oracles(ttrr, 64)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(moment_ttrrs())
def test_mu_n_reads_no_b_past_half_n_minus_1_and_no_c_past_half_n(case):
    # B_k with k > (N - 1) // 2 and C_k with k > N // 2 do not enter mu_0..mu_N
    ttrr, N = case
    mom = moments(ttrr, N)
    for k in range((N + 1) // 2, ttrr.n_max + 1):
        assert moments(replaced(ttrr, b_overrides={k: ttrr.B(k) + 1}), N) == mom
    for k in range(N // 2 + 1, ttrr.n_max + 1):
        assert moments(replaced(ttrr, c_overrides={k: -2 * ttrr.C(k)}), N) == mom


positives = st.fractions(min_value=F(1, 60), max_value=60, max_denominator=60)


@st.composite
def positive_ttrrs(draw):
    """(ttrr, N): a recurrence to a horizon of 1..24 whose B_k and C_k are
    all positive, and 1 <= N <= n_max."""
    n = draw(st.integers(1, 24))
    b = draw(st.lists(positives, min_size=n + 1, max_size=n + 1))
    c = draw(st.lists(positives, min_size=n, max_size=n))
    return TTRRSpec.from_lists(b, c, "positive"), draw(st.integers(1, n))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(positive_ttrrs())
def test_mu_n_reads_b_at_half_n_minus_1_and_c_at_half_n(case):
    # mu_N sums a weight over paths of N steps from level 0 back to 0 (up,
    # stay at j reading B_j, down from j reading C_j), a product of the
    # coefficients read, so with every B_k and C_k positive, raising one
    # that some path reads raises mu_N. B_{(N-1)//2} is read by the path
    # that climbs to level (N-1)//2, stays there for the one or two steps N
    # leaves and comes back, and C_{N//2} (N >= 2) by the one that climbs
    # to level N//2 and comes back
    ttrr, N = case

    def mu_n(recurrence):
        mom = moments(recurrence, N)
        return F(mom.nums[N], mom.den)

    top_b, top_c = (N - 1) // 2, N // 2
    assert mu_n(replaced(ttrr, b_overrides={top_b: ttrr.B(top_b) + 1})) > mu_n(ttrr)
    if top_c >= 1:
        assert mu_n(replaced(ttrr, c_overrides={top_c: ttrr.C(top_c) + 1})) > mu_n(ttrr)
