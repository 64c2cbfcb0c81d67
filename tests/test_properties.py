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

Poly stores integer numerators over one denominator; the Fraction-tuple
polynomial it replaced is the reference for its arithmetic. Exact fits are
also checked against the literal D_q quotient at sample points, which
shares no code with the operator rows, and against two symmetries of the
problem: reflection x -> -x, and the round trip through a family's
generator.

The CLI keeps its contract on mostly well-formed documents: each command
exits with one of its documented codes and never raises, exit 2 comes with
exactly one error: line, and stdout is the same on every run.
"""

import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction as F
from io import StringIO
from math import gcd
from threading import Thread

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_awops import dq_oracle, sq_oracle, t_basis_dq, t_basis_sq
from test_poly import FractionPoly
from test_structure import (
    reference_fit,
    reference_joint_system,
    reference_solve,
    residual_oracle,
)

from qstruct import awops, cli
from qstruct.awops import dq_apply, sq_apply
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
from qstruct.poly import Poly
from qstruct.scalar import QContext
from qstruct.structure import (
    STATUS_NO_SOLUTION,
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
@given(random_ttrrs(max_n=12), st.randoms(use_true_random=False))
def test_lazy_table_read_in_any_order_matches_generate_ops(case, rnd):
    _, ttrr = case
    N = ttrr.n_max
    eager = generate_ops(ttrr, N).polys
    table = OPSTable(ttrr, N)
    order = list(range(N + 1))
    rnd.shuffle(order)
    assert [table[n] for n in order] == [eager[n] for n in order]
    assert table.polys == eager


@BOUNDED
@given(random_ttrrs(max_n=12), st.booleans())
def test_threads_reading_one_fresh_table_see_the_single_threaded_polynomials(case, images):
    # readers in opposite orders, with a switch interval short enough that
    # they interleave inside the table's growth step; they read P_n, or
    # D_q P_n, which also grows the table's image prefix
    ctx, ttrr = case
    N = ttrr.n_max
    eager = generate_ops(ttrr, N).polys
    table = OPSTable(ttrr, N)
    entry = (lambda n: table.dq(ctx, n)) if images else table.__getitem__
    expected = tuple(dq_apply(ctx, p) for p in eager) if images else eager
    seen = [None] * 4

    def read(i):
        order = range(N + 1) if i % 2 else range(N, -1, -1)
        seen[i] = {n: entry(n) for n in order}

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
    assert tuple(entry(n) for n in range(N + 1)) == expected
    assert table.polys == eager


@BOUNDED
@given(fit_cases())
def test_fit_auto_on_a_lazy_table_matches_fit_structure_on_an_eager_one(case):
    # equal fits have the same pi, failure_n, a/b/c prefixes, status and
    # horizon; the lazy table holds the images D_q P_0.. up to the last
    # index any fit read
    ctx, ops, N = case
    table = OPSTable(ops.ttrr, N)
    fits = fit_auto(ctx, table, N)
    reference = [fit_structure(ctx, ops, d, N) for d in (0, 1, 2)]
    assert fits == reference[: len(fits)]
    last = max(fit.failure_n if fit.status == STATUS_NO_SOLUTION else N for fit in fits)
    assert table._images[ctx] == tuple(dq_apply(ctx, p) for p in ops.polys[: last + 1])


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

    structure = verify_structure(ctx, ops, broken)  # the images the fit read
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
    assert p.eval(x0) == P.eval(x0)
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
    fits = fit_auto(ctx, generate_ops(ttrr, N), N)
    assert fit_auto(ctx, generate_ops(mirror, N), N) == [
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
    ctx, ops, N = case
    x0 = (z + 1 / z) / 2
    P = [FractionPoly(p.coeffs) for p in ops.polys]
    for fit in fit_auto(ctx, ops, N):
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
    ctx, ops, N = case
    fit = fit_auto(ctx, ops, N)[-1]
    assume(fit.is_exact)
    t, u, a1 = ctx.t, ctx.u, fit.a[1]
    for n in range(1, N + 1):
        step = u * a1 * (1 - t**-2) * t ** (2 * n) - u * a1 * (1 - t**2) * t ** (-2 * n)
        assert fit.a[n] - fit.a[n - 1] == step
    try:
        aux = aux_sequences(ctx, ops.ttrr, fit)
    except RecurrenceViolated:
        return
    for n in range(N + 1):
        assert aux.r[n] == aux.a_hat * t ** (2 * n) + aux.b_hat * t ** (-2 * n)


def reference_moments(ttrr, N):
    """The Fraction recurrence that moments replaced: x**n expanded in the
    P_k basis through x P_k = P_{k+1} + B_k P_k + C_k P_{k-1}; mu_n is the
    P_0 component."""
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


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process run; an exception that
    escapes main stands in for the exit code as its repr, so that a failing
    example neither keeps the frames of its traceback alive nor counts as a
    new failure wherever it was raised."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:
            code = repr(exc)
    return code, out.getvalue(), err.getvalue()


@BOUNDED
@given(
    cli_documents(),
    st.integers(min_value=6, max_value=12),
    st.sampled_from(["auto", "0", "1", "2"]),
    st.sampled_from(cli.CHECK_NAMES),
)
def test_cli_keeps_its_contract(text, N, deg_pi, checks):
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
                lines = err.splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: ")
            assert run_cli(argv)[:2] == (code, out)
