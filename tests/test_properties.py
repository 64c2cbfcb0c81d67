"""Bounded, derandomized property tests.

fit_auto shares one set of D_q P_n images across its degree attempts;
fit_structure, which computes its own images, is the reference. The
Al-Salam-Chihara recovery takes its root in closed form; the rational
square root of the discriminant is the reference. D_q and S_q apply rows
memoized per context; the literal z-substitution quotients and the closed
Chebyshev-T actions are the references. fit_structure pins pi once and
back-substitutes each index; the Gauss-Jordan fitter it replaced is the
reference, and its n = 1..3 system must leave no free column. A fit
perturbed at one index must fail its structure and five-term reports
exactly where that index enters, and classify must return a
Classification for any regular recurrence.
"""

from dataclasses import replace
from fractions import Fraction as F

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_awops import t_basis_dq, t_basis_sq
from test_structure import reference_fit, reference_joint_system, reference_solve

from qstruct import awops
from qstruct.awops import dq_apply, dq_oracle, sq_apply, sq_oracle
from qstruct.characterize import Classification, _sqrt_exact, classify, recover_asc_params
from qstruct.families import (
    FamilySpec,
    IrregularParameters,
    TTRRSpec,
    generate_ops,
)
from qstruct.poly import Poly
from qstruct.scalar import QContext
from qstruct.structure import fit_auto, fit_structure, five_term, verify_structure

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
    ops = generate_ops(ttrr, N)
    fits = fit_auto(ctx, ops, N)
    reference = [fit_structure(ctx, ops, d, N) for d in (0, 1, 2)]
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
    """A regular TTRR with horizon N in 3..12, as its OPS table: random, a
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
    return ctx, generate_ops(ttrr, N), N


@BOUNDED
@given(fit_cases())
def test_fit_structure_matches_the_gauss_jordan_reference(case):
    ctx, ops, N = case
    for d in (0, 1, 2):
        assert fit_structure(ctx, ops, d, N) == reference_fit(ctx, ops, d, N)


@BOUNDED
@given(fit_cases())
def test_consistent_pin_system_leaves_no_free_column(case):
    ctx, ops, _ = case
    dq = [dq_apply(ctx, p) for p in ops.polys[:4]]
    for d in (0, 1, 2):
        consistent, _, determined = reference_solve(*reference_joint_system(ops, dq, d, 3))
        assert not consistent or all(determined)


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
    fit = fit_structure(ctx, generate_ops(ttrr, 4), 1, 4)
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
    assert dq_apply(ctx, f).eval(x0) == dq_oracle(ctx, f, z)
    assert sq_apply(ctx, f).eval(x0) == sq_oracle(ctx, f, z)


@BOUNDED
@given(
    st.fractions(min_value=F(1, 29), max_value=F(28, 29), max_denominator=29),
    st.lists(polys_up_to_40, min_size=2, max_size=4),
)
def test_dq_and_sq_match_the_chebyshev_reference(t, fs):
    # descending degrees first build the rows in one go; ascending degrees
    # above them then grow the rows step by step
    ctx = QContext(t)
    assume(ctx not in awops._ROWS)
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
    fit = fit_auto(ctx, ops, N)[-1]
    assume(fit.is_exact)  # Al-Salam-Chihara needs c/d = q**(+-1/2)
    values = list(getattr(fit, field))
    values[k] += delta
    broken = replace(fit, **{field: tuple(values)})

    structure = verify_structure(ctx, ops, broken)
    assert len(structure.checks) == N + 1
    assert [check.n for check in structure.failures()] == [k]
    expansion = five_term(ctx, ops, broken)
    assert len(expansion.report.checks) == expansion.horizon + 1
    expected = [n for n in (k - 1, k, k + 1) if n <= expansion.horizon]
    assert [check.n for check in expansion.report.failures()] == expected
    assert all(check.witness for check in structure.failures() + expansion.report.failures())


@BOUNDED
@given(random_ttrrs(min_n=6, max_n=10))
def test_classify_is_total_on_random_ttrrs(case):
    ctx, ttrr = case
    assert isinstance(classify(ctx, ttrr, ttrr.n_max), Classification)
