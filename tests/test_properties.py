"""Bounded, derandomized property tests.

fit_auto shares one set of windows and pin residuals across its degree
attempts; fit_structure, which builds its own, is the reference. The
fit's windows are the top seven coefficients of P_n and of D_q P_n; the
table's P_n and dq_apply are the reference for them. The
Al-Salam-Chihara recovery takes its root in closed form; the rational
square root of the discriminant is the reference. D_q and S_q apply rows
memoized per context; the literal z-substitution quotients and the closed
Chebyshev-T actions are the references. fit_structure pins pi once and
back-substitutes each index; the Gauss-Jordan fitter it replaced is the
reference, and its n = 1..3 system must leave no free column. A fit
perturbed at one index must fail its structure and five-term reports
exactly where that index enters, and classify must return a
Classification for any regular recurrence.

five_term takes pi S_q P_n from the table's D_q P_n images by the product
rule; applying the S_q rows to each P_n is the reference, for the pi of
each degree's fit, a pi moved off it, and a drawn monic pi.

The fit's per-index step runs on unreduced integers. The table stores
each D_q P_n unnormalized, and dq_apply is the reference for its value;
the one-pass identity residual has the Poly residual as reference, with
the fit's (a_n, b_n, c_n), a moved b_n, a zero a_n and a zero c_n; the
fraction-free pin has the Fraction Gauss-Jordan elimination it replaced.

Poly stores integer numerators over one denominator; the Fraction-tuple
polynomial it replaced is the reference for its arithmetic. Exact fits are
also checked against the literal D_q quotient at sample points, which
shares no code with the operator rows, and against two symmetries of the
problem: reflection x -> -x, and the round trip through a family's
generator.

The CLI keeps its contract on mostly well-formed documents: each command
exits with one of its documented codes and never raises, exit 2 comes with
exactly one error: line, and stdout is the same on every run. `verify`
writes its checks from a row template; json.dumps of the whole payload is
the reference for its text.
"""

import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from io import StringIO
from math import gcd
from random import Random
from threading import Thread

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_awops import dq_oracle, sq_oracle, t_basis_dq, t_basis_sq
from test_families import reference_moments
from test_poly import FractionPoly, evaluate
from test_structure import (
    coefficients_oracle,
    pin_oracle,
    pin_rows,
    reference_fit,
    reference_joint_system,
    reference_solve,
    replace,
    residual_oracle,
    up_to_scale,
    vec,
)

from qstruct import cli, structure
from qstruct.awops import dq_apply, dq_image, operator_rows, sq_apply
from qstruct.characterize import (
    Classification,
    RecurrenceViolated,
    _sqrt_exact,
    aux_sequences,
    classify,
    recover_asc_params,
)
from qstruct.families import (
    FamilySpec,
    IrregularParameters,
    OPSTable,
    TTRRSpec,
    generate_ops,
    moments,
    ttrr_chebyshev_t,
    ttrr_equal,
    ttrr_to_json,
)
from qstruct.poly import Poly, int_three_term
from qstruct.report import Check
from qstruct.scalar import QContext, format_rational, parse_rational
from qstruct.structure import (
    fit_auto,
    fit_structure,
    five_term,
    verify_structure,
)

BOUNDED = settings(derandomize=True, max_examples=40, deadline=None)

small = st.fractions(min_value=-3, max_value=3, max_denominator=9)
positive = st.fractions(min_value=F(1, 9), max_value=3, max_denominator=9)
quarter_powers = st.fractions(min_value=F(1, 9), max_value=F(8, 9), max_denominator=9)
bases = st.sampled_from(["q", "q-inverse"])
polys = st.lists(small, min_size=1, max_size=7).map(lambda cs: Poly(tuple(cs)))
polys_up_to_40 = (
    st.integers(min_value=0, max_value=40)
    .flatmap(lambda d: st.lists(small, min_size=d + 1, max_size=d + 1))
    .map(lambda cs: Poly(tuple(cs)))
)
sample_zs = st.fractions(min_value=-5, max_value=5, max_denominator=9).filter(
    lambda z: z not in (0, 1, -1)
)


@st.composite
def random_ttrrs(draw, min_n=3, max_n=7):
    n_max = draw(st.integers(min_value=min_n, max_value=max_n))
    b = draw(st.lists(small, min_size=n_max + 1, max_size=n_max + 1))
    c = draw(st.lists(small.filter(bool), min_size=n_max, max_size=n_max))
    return QContext(draw(quarter_powers)), TTRRSpec.from_lists(b, c, label="random")


@st.composite
def family_ttrrs(draw, n_max=7):
    ctx = QContext(draw(quarter_powers))
    family = draw(
        st.sampled_from(["q-hermite", "alsalam-chihara", "chebyshev-t", "continuous-q-jacobi"])
    )
    params = ()
    if family == "alsalam-chihara":
        params = (("c", draw(small)), ("d", draw(small)))
    elif family == "continuous-q-jacobi":
        params = (("p_a", draw(positive)), ("p_b", draw(positive)))
    try:
        ttrr = FamilySpec(family, params, draw(bases)).to_ttrr(ctx, n_max=n_max)
    except IrregularParameters:
        assume(False)
    return ctx, ttrr


def assert_fit_auto_is_reference_prefix(ctx, ttrr):
    N = ttrr.n_max
    fits = fit_auto(ctx, ttrr, N)
    reference = [fit_structure(ctx, ttrr, d, N) for d in (0, 1, 2)]
    assert fits == reference[: len(fits)]
    exact = [f.is_exact for f in reference]
    assert len(fits) == (exact.index(True) + 1 if True in exact else 3)


@BOUNDED
@given(random_ttrrs())
def test_fit_auto_matches_fit_structure_on_random_ttrrs(case):
    assert_fit_auto_is_reference_prefix(*case)


@BOUNDED
@given(family_ttrrs())
def test_fit_auto_matches_fit_structure_on_family_points(case):
    assert_fit_auto_is_reference_prefix(*case)


@st.composite
def fit_cases(draw):
    """(ctx, ttrr, N): a regular TTRR with horizon N in 3..12, random, a
    family point, or a family point with one B_k or C_k shifted, 1 <= k <= N."""
    N = draw(st.integers(min_value=3, max_value=12))
    kind = draw(st.sampled_from(["random", "family", "perturbed"]))
    if kind == "random":
        ctx, ttrr = draw(random_ttrrs(min_n=N, max_n=N))
    else:
        ctx, ttrr = draw(family_ttrrs(n_max=N))
    if kind == "perturbed":
        k = draw(st.integers(min_value=1, max_value=N))
        b, c = list(ttrr.b), list(ttrr.c)
        seq, i = (b, k) if draw(st.booleans()) else (c, k - 1)
        seq[i] += draw(small.filter(bool))
        try:
            ttrr = TTRRSpec.from_lists(b, c, label="perturbed")
        except IrregularParameters:
            assume(False)
    return ctx, ttrr, N


@BOUNDED
@given(fit_cases())
def test_fit_structure_matches_the_gauss_jordan_reference(case):
    ctx, ttrr, N = case
    ops = generate_ops(ttrr, N)
    for d in (0, 1, 2):
        assert fit_structure(ctx, ttrr, d, N) == reference_fit(ctx, ops, d, N)


@BOUNDED
@given(fit_cases())
def test_consistent_pin_system_leaves_no_free_column(case):
    ctx, ttrr, _ = case
    ops = generate_ops(ttrr, 3)
    dq = [dq_apply(ctx, p) for p in ops.polys]
    for d in (0, 1, 2):
        consistent, _, determined = reference_solve(*reference_joint_system(ops, dq, d, 3))
        assert not consistent or all(determined)


@BOUNDED
@given(st.one_of(random_ttrrs(max_n=10), family_ttrrs(n_max=10)), st.data())
def test_a_table_is_its_recurrence_cut_to_its_degree(case, data):
    # so a fit takes a table wherever it takes the recurrence, as a caller
    # that builds one table for a fit and the checks after it passes it
    ctx, ttrr = case
    N = data.draw(st.integers(0, ttrr.n_max))
    table = generate_ops(ttrr, N)
    assert (table.n_max, table.label, len(table.polys)) == (N, ttrr.label, N + 1)
    assert (table.b, table.c) == (ttrr.b[: N + 1], ttrr.c[:N])
    for n in range(3, N + 1):
        assert fit_auto(ctx, table, n) == fit_auto(ctx, ttrr, n)
        for d in (0, 1, 2):
            assert fit_structure(ctx, table, d, n) == fit_structure(ctx, ttrr, d, n)
    if N >= 2:
        with pytest.raises(IndexError, match=f"^N = {N + 1} exceeds materialized horizon {N}$"):
            fit_auto(ctx, table, N + 1)
    for degree in (ttrr.n_max + 1, -1, -ttrr.n_max - 1):
        with pytest.raises(IndexError):
            generate_ops(ttrr, degree)


@BOUNDED
@given(random_ttrrs(max_n=12))
def test_threads_reading_one_fresh_table_see_the_single_threaded_images(case):
    # readers in opposite orders, with a switch interval short enough that
    # they interleave inside the growth step of the table's image prefix
    # (stored as the unnormalized pair of dq_image, so the pairs are
    # compared as they are)
    ctx, ttrr = case
    N = ttrr.n_max
    table = OPSTable(ttrr, N)
    expected = tuple(dq_image(ctx, p) for p in table.polys)
    seen = [None] * 4

    def read(i):
        order = range(N + 1) if i % 2 else range(N, -1, -1)
        seen[i] = {n: table.dq(ctx, n) for n in order}

    threads = [Thread(target=read, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for values in seen:
        assert tuple(values[n] for n in range(N + 1)) == expected
    assert tuple(table.dq(ctx, n) for n in range(N + 1)) == expected


@BOUNDED
@given(quarter_powers, small.filter(bool), st.sampled_from([2, -2]), bases)
def test_asc_closed_form_root_matches_discriminant_root(t, d, half_power, base):
    # c / d = q**(+-1/2), the constraint every Al-Salam-Chihara branch meets
    ctx = QContext(t)
    inverse = base == "q-inverse"
    c = d * t**half_power
    try:
        ttrr = FamilySpec("alsalam-chihara", (("c", c), ("d", d)), base).to_ttrr(ctx, n_max=4)
    except IrregularParameters:
        assume(False)
    fit = fit_structure(ctx, ttrr, 1, 4)
    assert fit.is_exact

    q = 1 / ctx.q if inverse else ctx.q
    sum_cd = 2 * ttrr.B(0)
    prod_cd = 1 - 4 * ttrr.C(1) / (1 - q)
    root = _sqrt_exact(sum_cd**2 - 4 * prod_cd)
    assert root is not None
    expected = sorted(
        ((sum_cd + root) / 2, (sum_cd - root) / 2), key=lambda v: (v.numerator, v.denominator)
    )
    recovered = recover_asc_params(ctx, ttrr, fit, inverse=inverse)
    assert list(recovered) == expected
    assert set(recovered) == {c, d}


@BOUNDED
@given(quarter_powers, polys, sample_zs)
def test_dq_and_sq_match_their_z_oracles(t, f, z):
    ctx = QContext(t)
    x0 = (z + 1 / z) / 2
    assert evaluate(dq_apply(ctx, f), x0) == dq_oracle(ctx, f, z)
    assert evaluate(sq_apply(ctx, f), x0) == sq_oracle(ctx, f, z)


@BOUNDED
@given(
    st.fractions(min_value=F(1, 29), max_value=F(28, 29), max_denominator=29),
    st.lists(polys_up_to_40, min_size=2, max_size=4),
)
def test_dq_and_sq_match_the_chebyshev_reference(t, fs):
    # descending degrees first build the rows in one go; ascending degrees
    # above them then grow the rows step by step
    ctx = QContext(t)
    fs = sorted(fs, key=lambda f: len(f.coeffs))
    half = len(fs) // 2
    for f in fs[:half][::-1] + fs[half:]:
        assert dq_apply(ctx, f) == t_basis_dq(ctx, f)
        assert sq_apply(ctx, f) == t_basis_sq(ctx, f)


@BOUNDED
@given(
    family_ttrrs(n_max=10),
    st.sampled_from(["a", "b", "c"]),
    st.integers(min_value=1, max_value=7),
    small.filter(bool),
)
def test_perturbed_fit_fails_exactly_where_the_index_enters(case, field, k, delta):
    # a_k, b_k, c_k enter the structure identity at n = k only, and the
    # five-term coefficients at n = k - 1, k, k + 1 (within the horizon)
    ctx, ttrr = case
    N = ttrr.n_max - 2
    ops = generate_ops(ttrr, ttrr.n_max)
    fit = fit_auto(ctx, ttrr, N)[-1]
    assume(fit.is_exact)  # Al-Salam-Chihara needs c/d = q**(+-1/2)
    values = list(getattr(fit, field))
    values[k] += delta
    broken = replace(fit, **{field: tuple(values)})

    structure = verify_structure(ctx, ops, broken)  # builds the images five_term reads
    assert verify_structure(ctx, OPSTable(ttrr, ttrr.n_max), broken) == structure
    assert len(structure.checks) == N + 1
    assert [check.n for check in structure.failures()] == [k]
    for check in structure.failures():
        n = check.n
        oracle = residual_oracle(ctx, ops, broken.pi, broken.a[n], broken.b[n], broken.c[n], n)
        assert check.witness == str(oracle)
    expansion = five_term(ctx, ops, broken)
    assert len(expansion.report.checks) == expansion.horizon + 1
    expected = [n for n in (k - 1, k, k + 1) if n <= expansion.horizon]
    assert [check.n for check in expansion.report.failures()] == expected
    assert all(check.witness for check in structure.failures() + expansion.report.failures())


@BOUNDED
@given(fit_cases(), st.lists(small, min_size=2, max_size=2))
def test_pi_sq_from_the_dq_images_matches_applying_the_s_rows(case, lower):
    # pi is each degree's fitted pi (zero where the fit never pinned it),
    # that pi with its lower coefficients moved by the drawn ones (a broken
    # fit), or the drawn monic pi itself
    ctx, ttrr, N = case
    ops = generate_ops(ttrr, N)
    for d in (0, 1, 2):
        moved = Poly(tuple(lower[:d]))
        fitted = fit_structure(ctx, ttrr, d, N).pi
        drawn = moved + Poly((F(0),) * d + (F(1),))
        for pi in [drawn] + ([fitted, fitted + moved] if fitted else []):
            # L_{k-1} = pi D_q P_{k-1} from k = 0 on, L_{-1} = 0
            L = [((), 1)] + [structure._times(pi, ops.dq(ctx, k)) for k in range(N + 1)]
            for n in range(N):
                c_n = ops.c[n - 1] if n else F(0)
                sq = int_three_term(L[n + 2], L[n + 1], L[n], ctx.alpha, -ops.b[n], -c_n)
                assert sq[1] > 0
                assert Poly.from_ints(*sq) == pi * sq_apply(ctx, ops.polys[n])


@BOUNDED
@given(fit_cases())
def test_windows_are_the_top_coefficients_of_p_n_and_d_q_p_n(case):
    # P_n's window holds the coefficients of x**n .. x**(n-6) in normal
    # form, D_q P_n's those of x**(n-1) .. x**(n-7); a negative power reads 0
    ctx, ttrr, N = case
    ops = generate_ops(ttrr, N)
    windows = structure._windows(operator_rows(ctx, N)[0], ttrr, [], N)
    assert len(windows) == N + 1 and windows[0][1] is None
    for n, ((pw, pd), image) in enumerate(windows):
        assert pd > 0 and pw[0] == pd and gcd(pd, *pw) == 1
        assert [F(v, pd) for v in pw] == [ops.polys[n].coeff(n - j) for j in range(7)]
        if n:
            nums, den = image
            assert den > 0
            dq = dq_apply(ctx, ops.polys[n])
            assert [F(v, den) for v in nums] == [dq.coeff(n - 1 - j) for j in range(7)]


@BOUNDED
@given(fit_cases())
def test_stored_images_normalize_to_dq_apply(case):
    ctx, ttrr, N = case
    table = OPSTable(ttrr, N)
    for n in range(N + 1):
        nums, den = table.dq(ctx, n)
        assert den > 0
        assert Poly.from_ints(nums, den) == dq_apply(ctx, table.polys[n])


def three_term_oracle(lhs, p, q, a, b, c):
    """lhs - (a x + b) p - c q in normalized Poly arithmetic."""
    return lhs - Poly((b, a)) * p - c * q


@BOUNDED
@given(fit_cases(), st.lists(small, min_size=3, max_size=3))
def test_one_pass_identity_residual_matches_the_poly_oracle(case, drawn):
    # for the pi of each degree's fit and a drawn monic pi, at every n: the
    # (a_n, b_n, c_n) that cancel the top three coefficients, that triple
    # with b_n moved, and with a_n or c_n set to zero (then with no P_{n-1});
    # and the step's other shapes: the OPS recurrence (empty lhs, a = -1)
    # and pi S_q P_n from L_k = pi D_q P_k (a = alpha, b = -B_n, c = -C_n)
    ctx, ttrr, N = case
    ops = generate_ops(ttrr, N)
    *lower, delta = drawn
    B, C = ops.b, (F(0),) + ops.c

    def P(k):
        return ops.polys[k] if k >= 0 else Poly.zero()

    for n in range(N):
        step = int_three_term(((), 1), vec(P(n)), vec(P(n - 1)), -1, B[n], C[n])
        assert step[1] > 0
        assert Poly.from_ints(*step) == three_term_oracle(0, P(n), P(n - 1), -1, B[n], C[n])
    for d in (0, 1, 2):
        fitted = fit_structure(ctx, ttrr, d, N).pi
        for pi in [Poly(tuple(lower[:d]) + (F(1),))] + ([fitted] if fitted else []):
            L = [((), 1)] + [structure._times(pi, ops.dq(ctx, k)) for k in range(N + 1)]
            for n in range(N + 1):
                lhs = L[n + 1]
                a_n, b_n, c_n = coefficients_oracle(*lhs, P(n), n) if n else (0, 0, 0)
                for abc in ((a_n, b_n, c_n), (a_n, b_n + delta, c_n), (0, b_n, c_n), (a_n, b_n, 0)):
                    abc = tuple(F(v) for v in abc)
                    res, res_den = int_three_term(lhs, vec(P(n)), vec(P(n - 1)), *abc)
                    assert res_den > 0
                    assert Poly.from_ints(res, res_den) == residual_oracle(ctx, ops, pi, *abc, n)
                res, res_den = int_three_term(lhs, vec(P(n)), None, F(a_n), F(b_n), 0)
                assert res_den > 0
                assert Poly.from_ints(res, res_den) == residual_oracle(ctx, ops, pi, a_n, b_n, 0, n)
                if n < N:
                    sq = int_three_term(L[n + 2], L[n + 1], L[n], ctx.alpha, -B[n], -C[n])
                    Lm1, L0, L1 = (Poly.from_ints(*v) for v in L[n : n + 3])
                    expected = three_term_oracle(L1, L0, Lm1, ctx.alpha, -B[n], -C[n])
                    assert sq[1] > 0
                    assert Poly.from_ints(*sq) == expected


@BOUNDED
@given(fit_cases())
def test_pin_rows_are_the_oracle_residual_rows_up_to_one_scale(case):
    # row i of identity n reads coefficient i of the residuals of x**j D_q P_n,
    # j < d, and minus that of x**d D_q P_n; one positive factor per identity
    ctx, ttrr, _ = case
    ops = generate_ops(ttrr, 3)
    for d in (0, 1, 2):
        for n in (2, 3):
            residuals = []
            for j in range(d + 1):
                monomial = Poly((F(0),) * j + (F(1),))
                nums, den = structure._times(monomial, ops.dq(ctx, n))
                abc = coefficients_oracle(nums, den, ops.polys[n], n)
                residuals.append(residual_oracle(ctx, ops, monomial, *abc, n))
            expected = [
                [r.coeff(i) for r in residuals[:d]] + [-residuals[d].coeff(i)] for i in range(n - 1)
            ]
            assert up_to_scale(pin_rows(ctx, ttrr, d, n), expected)


pin_entries = st.one_of(st.just(0), st.integers(-4, 4), st.integers(-(2**80), 2**80))


@BOUNDED
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda width: st.lists(
            st.lists(pin_entries, min_size=width, max_size=width), min_size=1, max_size=3
        )
    )
)
def test_fraction_free_pin_matches_the_fraction_oracle(rows):
    assert structure._pin([list(row) for row in rows]) == pin_oracle(rows)


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([[0, 0, 0]], None),  # all zero: both columns lack a pivot
        ([[0]], []),  # d = 0, a zero rhs
        ([[5]], None),  # d = 0, a nonzero rhs
        ([[2, 0, 4], [0, 0, 3]], None),  # no pivot in the second column
        ([[1, 2, 3], [2, 4, 7]], None),  # inconsistent after elimination
        ([[1, 2, 3], [2, 4, 6], [0, -3, 6]], [F(7), F(-2)]),  # a dependent row
        ([[0, -3, 6], [-2, 4, -7]], [F(-1, 2), F(-2)]),  # a negative pivot
    ],
)
def test_fraction_free_pin_on_fixed_systems(rows, expected):
    assert structure._pin(rows) == pin_oracle(rows) == expected


@BOUNDED
@given(random_ttrrs(min_n=6, max_n=10))
def test_classify_is_total_on_random_ttrrs(case):
    ctx, ttrr = case
    assert isinstance(classify(ctx, ttrr, ttrr.n_max), Classification)


wide = st.one_of(
    small,
    st.just(F(0)),
    st.builds(F, st.integers(-(2**400), 2**400), st.integers(1, 2**300)),
)
wide_coeffs = st.lists(wide, max_size=8).map(tuple)  # zero and trailing zeros included


@BOUNDED
@given(wide_coeffs, wide_coeffs, wide, wide)
def test_poly_matches_the_fraction_reference(cs, ds, c, x0):
    p, q = Poly(cs), Poly(ds)
    P, Q = FractionPoly(cs), FractionPoly(ds)

    def same(got, want):
        assert got.coeffs == want.coeffs
        assert all(type(v) is F for v in got.coeffs)
        assert got.degree == want.degree
        assert str(got) == str(want)
        assert got.den > 0 and gcd(got.den, *got.nums) == 1
        assert not got.nums or got.nums[-1] != 0

    for got, want in (
        (p, P),
        (p + q, P + Q),
        (p - q, P - Q),
        (p * q, P * Q),
        (-p, -P),
        (c * p, c * P),
        (p * c, P * c),
        (p + c, P + c),
        (c - p, c - P),
        (p - c, P - c),
        (p * p - 2 * p * q, P * P - 2 * P * Q),
    ):
        same(got, want)
    for k in range(-1, len(cs) + 2):
        assert p.coeff(k) == P.coeff(k) and type(p.coeff(k)) is F
    assert evaluate(p, x0) == P.eval(x0)
    assert (p == q) == (P == Q)
    assert (p + q) - q == p and Poly(cs + (F(0),)) == p
    assert hash(Poly(P.coeffs)) == hash(p)


def reflected(ttrr):
    """Q_n(x) = (-1)**n P_n(-x): B_n -> -B_n, C_n unchanged."""
    return TTRRSpec(tuple(-b for b in ttrr.b), ttrr.c, f"{ttrr.label}-reflected")


def reflected_fit(fit, d):
    sign = (-1) ** d
    return replace(
        fit,
        pi=Poly(tuple(sign * (-1) ** k * v for k, v in enumerate(fit.pi.coeffs))),
        a=tuple(sign * v for v in fit.a),
        b=tuple(-sign * v for v in fit.b),
        c=tuple(sign * v for v in fit.c),
    )


@BOUNDED
@given(family_ttrrs(n_max=10))
def test_reflection_covariance(case):
    """Reflection x -> -x maps the fit of P to the fit of Q.

    z -> -z commutes with both lattice shifts and sends x to -x, so
    D_q[f(-x)] = -(D_q f)(-x). Apply x -> -x to pi D_q P_n = (a_n x + b_n) P_n
    + c_n P_{n-1} and multiply by (-1)**(n+1): pi(-x) D_q Q_n =
    (a_n x - b_n) Q_n + c_n Q_{n-1}, and pi(-x) has leading coefficient
    (-1)**d, so the monic fit of Q is (-1)**d (pi(-x), a_n, -b_n, c_n).
    Classification keeps the family and base, swaps the q-Jacobi pair
    (p_a, p_b) and negates the Al-Salam-Chihara pair (c, d).
    """
    ctx, ttrr = case
    N = 10
    mirror = reflected(ttrr)
    fits = fit_auto(ctx, ttrr, N)
    assert fit_auto(ctx, mirror, N) == [
        reflected_fit(f, d) for d, f in enumerate(fits)
    ]

    result, result_r = classify(ctx, ttrr, N), classify(ctx, mirror, N)
    assert (result_r.family, result_r.base) == (result.family, result.base)
    params = result.params
    if result.family == "continuous-q-jacobi":
        assert result_r.params == {"p_a": params["p_b"], "p_b": params["p_a"]}
    elif result.family == "alsalam-chihara":
        assert set(result_r.params.values()) == {-params["c"], -params["d"]}
    else:
        assert result_r.params == params == {}


@st.composite
def family_points(draw, n_max=8):
    """A regular point of one of the four families in either base, with
    Al-Salam-Chihara on its characterized branch c / d = q**(+-1/2)."""
    ctx = QContext(draw(quarter_powers))
    family = draw(
        st.sampled_from(["q-hermite", "alsalam-chihara", "chebyshev-t", "continuous-q-jacobi"])
    )
    params = ()
    if family == "alsalam-chihara":
        d = draw(small.filter(bool))
        params = (("c", d * ctx.t ** draw(st.sampled_from([2, -2]))), ("d", d))
    elif family == "continuous-q-jacobi":
        params = (("p_a", draw(positive)), ("p_b", draw(positive)))
    try:
        ttrr = FamilySpec(family, params, draw(bases)).to_ttrr(ctx, n_max=n_max)
    except IrregularParameters:
        assume(False)
    return ctx, family, ttrr


@BOUNDED
@given(family_points())
def test_classify_round_trips_generated_families(case):
    # the reported triple must regenerate the input; it need not repeat the
    # generator's own parameters (q-Jacobi in base q-inverse reads as base q
    # with (1/p_a, 1/p_b)), and p_a = p_b = q**(-1/4) is Chebyshev-T
    ctx, family, ttrr = case
    N = ttrr.n_max
    result = classify(ctx, ttrr, N)
    is_chebyshev = ttrr_equal(ttrr, ttrr_chebyshev_t(n_max=N), N) is None
    assert result.family == ("chebyshev-t" if is_chebyshev else family)
    spec = FamilySpec(result.family, tuple(sorted(result.params.items())), result.base)
    assert ttrr_equal(ttrr, spec.to_ttrr(ctx, n_max=N), N) is None


@BOUNDED
@given(fit_cases(), sample_zs)
def test_exact_fits_hold_at_oracle_sample_points(case, z):
    # pi D_q P_n = (a_n x + b_n) P_n + c_n P_{n-1} at x = (z + 1/z)/2, with
    # D_q P_n from the literal quotient and every value from the reference
    # polynomial: nothing here touches the operator rows
    ctx, ttrr, N = case
    x0 = (z + 1 / z) / 2
    P = [FractionPoly(p.coeffs) for p in generate_ops(ttrr, N).polys]
    for fit in fit_auto(ctx, ttrr, N):
        if fit.is_exact:
            pi = FractionPoly(fit.pi.coeffs).eval(x0)
            for n in range(1, N + 1):
                lhs = pi * dq_oracle(ctx, P[n], z)
                rhs = (fit.a[n] * x0 + fit.b[n]) * P[n].eval(x0) + fit.c[n] * P[n - 1].eval(x0)
                assert lhs == rhs


@BOUNDED
@given(fit_cases())
def test_r_meets_its_closed_form_on_every_exact_fit(case):
    # r_n - t_n = a_n - a_{n-1} is (a_hat - k1) q**(n/2) + (b_hat - k2) q**(-n/2)
    # for every exact fit, so aux_sequences needs no check of r_n of its own
    ctx, ttrr, N = case
    fit = fit_auto(ctx, ttrr, N)[-1]
    assume(fit.is_exact)
    t, u, a1 = ctx.t, ctx.u, fit.a[1]
    for n in range(1, N + 1):
        step = u * a1 * (1 - t**-2) * t ** (2 * n) - u * a1 * (1 - t**2) * t ** (-2 * n)
        assert fit.a[n] - fit.a[n - 1] == step
    try:
        aux = aux_sequences(ctx, ttrr, fit)
    except RecurrenceViolated:
        return
    for n in range(N + 1):
        assert aux.r[n] == aux.a_hat * t ** (2 * n) + aux.b_hat * t ** (-2 * n)


@BOUNDED
@given(st.one_of(random_ttrrs(min_n=6, max_n=12), family_ttrrs(n_max=12)), polys, polys)
def test_moments_match_the_recurrence_and_weighting_matches_products(case, w, f):
    _, ttrr = case
    N = ttrr.n_max
    mom = moments(ttrr, N)
    assert tuple(F(v, mom.den) for v in mom.nums) == reference_moments(ttrr, N)
    assert gcd(mom.den, *mom.nums) == 1
    assume(w.degree + f.degree <= N)
    assert mom.weighted(w).apply(f) == mom.apply(w * f)


CLI_EXIT_CODES = {"fit": {0, 1, 2}, "classify": {0, 2, 3}, "verify": {0, 1, 2}}

MALFORMED = {
    "q_quarter outside (0, 1)": lambda doc: json.dumps({**doc, "q_quarter": "3/2"}),
    "zero denominator": lambda doc: json.dumps({**doc, "q_quarter": "1/0"}),
    "number for a string": lambda doc: json.dumps({**doc, "B": [0.5] + doc["B"][1:]}),
    "not a rational": lambda doc: json.dumps({**doc, "C": doc["C"][:-1] + ["one"]}),
    "vanishing C_n": lambda doc: json.dumps({**doc, "C": ["0"] + doc["C"][1:]}),
    "mismatched lengths": lambda doc: json.dumps({**doc, "B": doc["B"][:-1]}),
    "missing key": lambda doc: json.dumps({"B": doc["B"], "C": doc["C"]}),
    "top-level list": lambda doc: json.dumps([doc]),
    "truncated JSON": lambda doc: json.dumps(doc)[:-1],
    "nested past the recursion limit": lambda doc: "[" * 200_000 + "]" * 200_000,
}


@st.composite
def cli_documents(draw):
    """The text of a TTRR document, a random recurrence or a family point
    with horizon 5..12, with one malformed field about one draw in four."""
    ctx, ttrr = draw(st.one_of(random_ttrrs(min_n=5, max_n=12), family_ttrrs(n_max=12)))
    doc = ttrr_to_json(ctx, ttrr, ttrr.n_max)
    fault = draw(st.one_of(st.none(), st.none(), st.none(), st.sampled_from(sorted(MALFORMED))))
    return json.dumps(doc) if fault is None else MALFORMED[fault](doc)


# the parameter options of generate, per family
GENERATE_OPTIONS = {
    "q-hermite": (),
    "alsalam-chihara": (("--c", "c"), ("--d", "d")),
    "chebyshev-t": (),
    "continuous-q-jacobi": (("--p-a", "p_a"), ("--p-b", "p_b")),
}


def generate_run(seed):
    """(argv, the same argv in the OPTION=VALUE form, document or None) of
    one `generate` run drawn by a Random(seed): all four families, both
    bases, contexts with denominators up to 29 and horizons -1..20, with
    q**(1/4) and the parameters given as negative, zero, malformed and
    irregular (powers of q**(1/4)) strings, now and then missing. A value
    goes in its own token or in the OPTION=VALUE form, except that one that
    starts with "-" and is not a rational string would read as an option,
    so it takes the = form. The document is what ttrr_to_json makes from
    the library's generator, or None where the library refuses the input."""
    rng = Random(seed)
    now_and_then = lambda: rng.randrange(6) == 0
    t = F(rng.randrange(1, 29), 29) if rng.randrange(2) else F(1, rng.randrange(2, 29))
    t = rng.choice([t, F(rng.randrange(1, 9), 9), F(13, 29), F(2, 3), F(1, 2)])

    def value():
        if now_and_then():
            bad = ["0", "-0", "-2/6", "+1/3", " -1/3", "1/0", "-1/0", "1.5", "x", "", "--1"]
            return rng.choice(bad)
        if rng.randrange(2):
            magnitude = F(rng.randrange(1, 28), rng.randrange(1, 10))
        else:
            magnitude = t ** rng.randrange(-12, 13)
        return format_rational(-magnitude if rng.randrange(3) == 0 else magnitude)

    family = rng.choice(sorted(GENERATE_OPTIONS))
    N = rng.choice([0, -1]) if now_and_then() else rng.randrange(1, 21)
    options = [("--q-quarter", value() if now_and_then() else format_rational(t))]
    options += [(flag, value()) for flag, _ in GENERATE_OPTIONS[family] if not now_and_then()]
    base = rng.choice(["q", "q-inverse"])
    head = ["generate", "--family", family, "--base", base, "-N", str(N)]
    argv, joined = list(head), list(head)
    for flag, text in options:
        joined.append(f"{flag}={text}")
        try:
            parse_rational(text)
            own_token = True
        except ValueError:
            own_token = not text.startswith("-")
        argv += [flag, text] if own_token and not now_and_then() else [f"{flag}={text}"]
    given_values = dict(options)
    try:
        if N < 1:
            raise ValueError("N")
        ctx = QContext(parse_rational(given_values["--q-quarter"]))
        params = tuple(
            (name, parse_rational(given_values[flag])) for flag, name in GENERATE_OPTIONS[family]
        )
        spec = FamilySpec(family, params, base)
        doc = json.dumps(ttrr_to_json(ctx, spec.to_ttrr(ctx, n_max=N), N), sort_keys=True, indent=2)
    except (KeyError, ValueError):
        doc = None
    return argv, joined, None if doc is None else doc + "\n"


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process run; an exception that
    escapes main stands in for the exit code as its repr, so that a failing
    example neither keeps the frames of its traceback alive nor counts as a
    new failure wherever it was raised. An argparse exit is read as the
    exit code it carries."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = repr(exc)
    return code, out.getvalue(), err.getvalue()


def assert_one_error_line(err):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@BOUNDED
@given(
    cli_documents(),
    st.integers(min_value=6, max_value=12),
    st.sampled_from(["auto", "0", "1", "2"]),
    st.sampled_from(cli.CHECK_NAMES),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_cli_keeps_its_contract(text, N, deg_pi, checks, seed):
    # generate writes the library's document (exit 0) or one error line
    # (exit 2), the same with every value in the OPTION=VALUE form. Its run
    # is seeded by the whole example: hypothesis repeats a lone seed in
    # about half of the examples
    argv, joined, doc = generate_run(f"{seed} {N} {deg_pi} {checks} {text}")
    code, out, err = run_cli(argv)
    if doc is None:
        assert code == 2 and out == ""
        assert_one_error_line(err)
    else:
        assert (code, out) == (0, doc)
    assert run_cli(argv)[:2] == run_cli(joined)[:2] == (code, out)
    options = {"fit": ["--deg-pi", deg_pi], "classify": [], "verify": ["--checks", checks]}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ttrr.json")
        with open(path, "w") as fh:
            fh.write(text)
        for command, codes in CLI_EXIT_CODES.items():
            argv = [command, path, "-N", str(N)] + options[command]
            code, out, err = run_cli(argv)
            assert code in codes
            if code == 2:
                assert_one_error_line(err)
            assert run_cli(argv)[:2] == (code, out)


# text with the characters JSON escapes or that sit outside the BMP drawn
# often: quotes, backslashes, control characters, U+2028 and an emoji
json_text = st.text(
    st.characters() | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\U0001f600"])
)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | json_text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(json_text, inner, max_size=3),
    max_leaves=12,
)
checks = st.builds(
    Check,
    json_text,
    st.none() | st.integers() | st.integers(min_value=2**64, max_value=2**200),
    st.booleans(),
    json_text,
)


@BOUNDED
@given(
    st.lists(checks, max_size=6),
    st.dictionaries(json_text, json_values, max_size=4),
    st.booleans(),
    json_text,
)
def test_verify_text_equals_json_dumps_of_the_payload(rows, extra, ok, version):
    # the echoed input is a TTRR document with extra keys, nested values
    # and non-ASCII keys
    echo = {**extra, "B": ["1", "-1/2"], "C": ["3"], "q_quarter": "1/2"}
    rest = {"input": echo, "ok": ok, "version": version}
    payload = {"checks": [c.to_json() for c in rows], **rest}
    expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert cli._verify_text(rows, rest) == expected
