"""Bounded, derandomized property tests.

fit_auto shares one set of D_q P_n images across its degree attempts;
fit_structure, which computes its own images, is the reference. The
Al-Salam-Chihara recovery takes its root in closed form; the rational
square root of the discriminant is the reference.
"""

from fractions import Fraction as F

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qstruct.characterize import _sqrt_exact, recover_asc_params
from qstruct.families import (
    FamilySpec,
    IrregularParameters,
    TTRRSpec,
    generate_ops,
)
from qstruct.scalar import QContext
from qstruct.structure import fit_auto, fit_structure

BOUNDED = settings(derandomize=True, max_examples=40, deadline=None)

small = st.fractions(min_value=-3, max_value=3, max_denominator=9)
positive = st.fractions(min_value=F(1, 9), max_value=3, max_denominator=9)
quarter_powers = st.fractions(min_value=F(1, 9), max_value=F(8, 9), max_denominator=9)
bases = st.sampled_from(["q", "q-inverse"])


@st.composite
def random_ttrrs(draw):
    n_max = draw(st.integers(min_value=3, max_value=7))
    b = draw(st.lists(small, min_size=n_max + 1, max_size=n_max + 1))
    c = draw(st.lists(small.filter(bool), min_size=n_max, max_size=n_max))
    return QContext(draw(quarter_powers)), TTRRSpec.from_lists(b, c, label="random")


@st.composite
def family_ttrrs(draw):
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
        ttrr = FamilySpec(family, params, draw(bases)).to_ttrr(ctx, n_max=7)
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
