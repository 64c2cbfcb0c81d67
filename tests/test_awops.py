import gc
import random
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_poly import evaluate, monomial
from test_scalar import alpha_n, gamma_n

from qstruct import awops
from qstruct.awops import dq_apply, dq_image, operator_rows, sq_apply
from qstruct.characterize import classify
from qstruct.families import ttrr_cq_jacobi
from qstruct.poly import Poly, from_cheb, to_cheb
from qstruct.scalar import QContext, as_fraction

CTX = QContext(F(1, 2))
CTX_B = QContext(F(2, 3))


class DegenerateSamplePoint(ValueError):
    """The z-substitution denominator vanishes at the requested sample point."""


def _shift_points(ctx, z):
    """x-images of the two lattice shifts, ((w + 1/w)/2 for w = q**(+-1/2) z)."""
    w_up = ctx.q_half * z
    w_dn = z / ctx.q_half
    return (w_up + 1 / w_up) / 2, (w_dn + 1 / w_dn) / 2


def dq_oracle(ctx, f, sample_z):
    """Literal divided-difference quotient at x = (z + 1/z)/2.

    Independent brute-force route: no operator rows and no Chebyshev
    machinery are involved, so the value can be compared against
    eval(dq_apply(f), (z + 1/z)/2) as a genuine cross-check. The denominator
    vanishes exactly for z in {0, +1, -1}.
    """
    z = as_fraction(sample_z)
    if z == 0:
        raise DegenerateSamplePoint("z = 0 is not on the lattice")
    e_up, e_dn = _shift_points(ctx, z)
    den = e_up - e_dn
    if den == 0:
        raise DegenerateSamplePoint(f"substitution denominator vanishes at z = {z}")
    return (evaluate(f, e_up) - evaluate(f, e_dn)) / den


def sq_oracle(ctx, f, sample_z):
    """Literal shift average at x = (z + 1/z)/2; counterpart of `dq_oracle`."""
    z = as_fraction(sample_z)
    if z == 0:
        raise DegenerateSamplePoint("z = 0 is not on the lattice")
    e_up, e_dn = _shift_points(ctx, z)
    return (evaluate(f, e_up) + evaluate(f, e_dn)) / 2


def u2_poly(ctx):
    """u2(x) = (alpha**2 - 1)(x**2 - 1), the unique polynomial for which the
    averaging product rule S_q(f g) = S_q f S_q g + u2 D_q f D_q g holds."""
    s = ctx.alpha**2 - 1
    return Poly((-s, F(0), s))


def rows_oracle(ctx, n):
    """D_q x**k and S_q x**k for k = 0..n by `Poly` arithmetic from the
    g = x product rules, D_q(x f) = S_q f + alpha x D_q f and
    S_q(x f) = alpha x S_q f + u2 D_q f: the reference for the integer
    recurrence of `operator_rows`."""
    d_rows, s_rows = [Poly.zero()], [Poly.one()]
    alpha_x, u2 = Poly((F(0), ctx.alpha)), u2_poly(ctx)
    for k in range(n):
        d, s = d_rows[k], s_rows[k]
        d_rows.append(s + alpha_x * d)
        s_rows.append(alpha_x * s + u2 * d)
    return d_rows, s_rows


def t_basis_dq(ctx, f):
    """Reference D_q f through the closed T-basis action
    D_q T_k = gamma_k U*_{k-1}, U*_{k-1} = 2 T_{k-1} + 2 T_{k-3} + ... (T_0 once)."""
    c = to_cheb(f)
    if len(c) <= 1:
        return Poly.zero()
    out = [F(0)] * (len(c) - 1)
    for k in range(1, len(c)):
        g = c[k] * gamma_n(ctx, k)
        for j in range(k - 1, -1, -2):
            out[j] += g if j == 0 else 2 * g
    return from_cheb(out)


def t_basis_sq(ctx, f):
    """Reference S_q f through the closed T-basis action S_q T_k = alpha_k T_k."""
    return from_cheb([ck * alpha_n(ctx, k) for k, ck in enumerate(to_cheb(f))])


def rand_poly(rng, max_deg):
    deg = rng.randint(0, max_deg)
    coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg)]
    coeffs.append(F(rng.randint(1, 9), rng.randint(1, 9)))
    return Poly(tuple(coeffs))


def rand_sample_z(rng):
    while True:
        z = F(rng.randint(-40, 40), rng.randint(1, 17))
        if z not in (0, 1, -1):
            return z


def x_point(z):
    return (z + 1 / z) / 2


def test_dq_trivial_cases():
    assert dq_apply(CTX, Poly.one()) == Poly.zero()
    assert dq_apply(CTX, Poly.x()) == Poly.one()


def test_dq_x_squared_is_2_alpha_x():
    for ctx in (CTX, CTX_B):
        assert dq_apply(ctx, monomial(2)) == Poly((F(0), 2 * ctx.alpha))


def test_sq_low_degrees():
    assert sq_apply(CTX, Poly.one()) == Poly.one()
    assert sq_apply(CTX, Poly.x()) == Poly((F(0), CTX.alpha))
    # S_q x^2 = alpha_2 x^2 + (1 - alpha_2)/2, from S_q T_2 = alpha_2 T_2
    a2 = alpha_n(CTX, 2)
    assert sq_apply(CTX, monomial(2)) == Poly(((1 - a2) / 2, F(0), a2))


def test_dq_oracle_examples():
    assert dq_oracle(CTX, Poly.x(), 2) == 1
    assert dq_oracle(CTX, Poly.one(), 3) == 0
    # both routes of the same identity: D_q x^2 at x = 5/4
    assert dq_oracle(CTX, monomial(2), 2) == F(85, 16)
    assert evaluate(dq_apply(CTX, monomial(2)), x_point(F(2))) == F(85, 16)


def test_oracle_degenerate_points():
    for z in (0, 1, -1):
        with pytest.raises(DegenerateSamplePoint):
            dq_oracle(CTX, Poly.x(), z)
    with pytest.raises(DegenerateSamplePoint):
        sq_oracle(CTX, Poly.x(), 0)


def test_oracle_equivalence_random():
    rng = random.Random(23)
    for _ in range(60):
        f = rand_poly(rng, 18)
        z = rand_sample_z(rng)
        x0 = x_point(z)
        assert dq_oracle(CTX, f, z) == evaluate(dq_apply(CTX, f), x0)
        assert sq_oracle(CTX, f, z) == evaluate(sq_apply(CTX, f), x0)


def test_degree_and_leading_coefficient_contract():
    rng = random.Random(29)
    for _ in range(40):
        f = rand_poly(rng, 30)
        n = f.degree
        df = dq_apply(CTX, f)
        sf = sq_apply(CTX, f)
        assert sf.degree == n
        assert sf.lead == alpha_n(CTX, n) * f.lead
        if n == 0:
            assert df == Poly.zero()
        else:
            assert df.degree == n - 1
            assert df.lead == gamma_n(CTX, n) * f.lead


def test_linearity():
    rng = random.Random(31)
    for _ in range(30):
        f, g = rand_poly(rng, 12), rand_poly(rng, 12)
        lam = F(rng.randint(-5, 5), rng.randint(1, 5))
        assert dq_apply(CTX, lam * f + g) == lam * dq_apply(CTX, f) + dq_apply(CTX, g)
        assert sq_apply(CTX, lam * f + g) == lam * sq_apply(CTX, f) + sq_apply(CTX, g)


@pytest.mark.parametrize("ctx", [CTX, CTX_B])
def test_product_rules(ctx):
    rng = random.Random(37)
    u2 = u2_poly(ctx)
    for _ in range(40):
        f, g = rand_poly(rng, 10), rand_poly(rng, 10)
        assert dq_apply(ctx, f * g) == dq_apply(ctx, f) * sq_apply(ctx, g) + sq_apply(
            ctx, f
        ) * dq_apply(ctx, g)
        assert sq_apply(ctx, f * g) == sq_apply(ctx, f) * sq_apply(ctx, g) + u2 * dq_apply(
            ctx, f
        ) * dq_apply(ctx, g)


def test_product_rules_with_g_equal_x():
    # the multiply-by-x commutation identities are the g = x product rules
    rng = random.Random(41)
    x = Poly.x()
    u2 = u2_poly(CTX)
    for _ in range(25):
        f = rand_poly(rng, 12)
        assert dq_apply(CTX, x * f) == dq_apply(CTX, f) * sq_apply(CTX, x) + sq_apply(
            CTX, f
        ) * dq_apply(CTX, x)
        assert sq_apply(CTX, x * f) == sq_apply(CTX, f) * sq_apply(CTX, x) + u2 * dq_apply(
            CTX, f
        ) * dq_apply(CTX, x)


def test_rows_die_with_their_contexts():
    # the memo is per live context: classifying on fresh contexts and
    # dropping them must leave nothing behind, whatever t they had
    ts = [F(1, 4), F(2, 5), F(3, 5)]  # held by no other live context
    gc.collect()
    before = len(awops._ROWS)
    contexts = [QContext(ts[k % len(ts)]) for k in range(30)]
    for ctx in contexts:
        ttrr = ttrr_cq_jacobi(ctx, F(1, 4), F(1, 16), n_max=16)
        assert classify(ctx, ttrr, 16).family == "continuous-q-jacobi"
    assert len(awops._ROWS) == before + len(ts)  # equal live contexts share rows
    del contexts, ctx
    gc.collect()
    assert len(awops._ROWS) == before


def test_concurrent_growth_gives_single_threaded_images():
    # four threads grow one fresh context's rows at once, in different
    # degree orders; a reader must never see a partial or misaligned table.
    # Whether two growers overlap depends on scheduling, so take three rounds.
    rng = random.Random(43)
    t = F(5, 11)
    polys = [
        Poly(tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)) + (F(1),))
        for n in range(5, 41)
    ]
    reference = QContext(t)
    expected = [(dq_apply(reference, f), sq_apply(reference, f)) for f in polys]
    del reference

    def worker(ctx, start, order, seen):
        start.wait(timeout=60)
        for i in order:
            seen[i] = (dq_apply(ctx, polys[i]), sq_apply(ctx, polys[i]))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            gc.collect()
            ctx = QContext(t)
            assert ctx not in awops._ROWS
            orders = [list(range(len(polys))) for _ in range(4)]
            orders[1].reverse()
            rng.shuffle(orders[2])
            images = [{} for _ in orders]
            start = threading.Barrier(len(orders))
            threads = [
                threading.Thread(target=worker, args=(ctx, start, order, seen))
                for order, seen in zip(orders, images)
            ]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
            assert not any(th.is_alive() for th in threads)
            for seen in images:
                assert [seen.get(i) for i in range(len(polys))] == expected
            del ctx
    finally:
        sys.setswitchinterval(old_interval)


def normal_forms(rows):
    return [(p.nums, p.den) for p in rows]


def normalized(pairs):
    return normal_forms(Poly.from_ints(*pair) for pair in pairs)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    st.integers(2, 80).flatmap(lambda b: st.tuples(st.integers(1, b - 1), st.just(b))),
    st.integers(1, 30),
    st.lists(st.integers(0, 30), max_size=4),
)
def test_rows_match_the_poly_oracle_in_stages_and_in_one_step(ab, N, stages):
    # a table resumed from its stored vectors, in fixed or random stages,
    # holds D_q x**k over exactly ad**(k-1) (1 at k = 0) and S_q x**k over
    # exactly ad**k, as one grown at once does, and each pair normalizes
    # to the normal form of Poly arithmetic
    ctx = QContext(F(*ab))
    ad = ctx.alpha.denominator
    d_want, s_want = map(normal_forms, rows_oracle(ctx, max(3, N, *stages)))
    for reads in ((1, 2, 3, N), (*stages, N), (N,)):
        awops._ROWS.pop(ctx, None)  # grow from degree 0, even if an equal context holds rows
        for n in reads:
            d_rows, s_rows = operator_rows(ctx, n)
            assert len(d_rows) == len(s_rows) > n
            powers = [ad**k for k in range(len(s_rows))]
            assert [den for _, den in d_rows] == [1] + powers[:-1]
            assert [den for _, den in s_rows] == powers
            assert normalized(d_rows) == d_want[: len(d_rows)]
            assert normalized(s_rows) == s_want[: len(s_rows)]


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    # t = 2/3 gives alpha = 97/72, an ad with two prime factors
    st.just(F(2, 3)) | st.fractions(min_value=F(1, 13), max_value=F(12, 13), max_denominator=13),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=9), max_size=14),
    st.sampled_from([None, 0, 1]),
)
def test_images_are_the_rows_summed_with_poly_arithmetic(t, coeffs, parity):
    # D_q f and S_q f over the power of ad of the highest row read, for f
    # zero, constant, of one parity or of both: sum_k f_k row_k in Poly
    ctx = QContext(t)
    f = Poly(tuple(c if parity is None or k % 2 == parity else 0 for k, c in enumerate(coeffs)))
    deg = len(f.nums) - 1
    d_rows, s_rows = operator_rows(ctx, deg)
    s_image = awops._image(s_rows, f, 0)
    for (nums, den), rows, drop in ((dq_image(ctx, f), d_rows, 1), (s_image, s_rows, 0)):
        want = Poly.zero()
        for k, c in enumerate(f.coeffs):
            want = want + c * Poly.from_ints(*rows[k])
        assert den == (rows[deg][1] if deg >= drop else 1) * f.den
        assert Poly.from_ints(nums, den) == want
