"""Acceptance suite: one test per criterion, exact (zero-tolerance) checks.

Fixed context unless stated otherwise: q**(1/4) = 1/2 (q = 1/16), horizon
N = 10. Each test prints a single pass/fail line; run with `pytest -s` to
see them as they complete.
"""

import functools
import random
from fractions import Fraction as F

import pytest
from test_awops import dq_oracle, sq_oracle, u2_poly
from test_families import replaced
from test_poly import evaluate, monomial
from test_scalar import gamma_n, qpow

from qstruct.awops import dq_apply, sq_apply
from qstruct.characterize import (
    FAMILY_ASC,
    FAMILY_CHEBYSHEV_T,
    FAMILY_CQ_JACOBI,
    FAMILY_NOT_CHARACTERIZED,
    FAMILY_QHERMITE,
    aux_sequences,
    classify,
    lemma_predicates,
    pearson_check,
    pearson_data,
    verify_difference_system,
)
from qstruct.cli import main as cli_main
from qstruct.families import (
    IrregularParameters,
    generate_ops,
    ttrr_alsalam_chihara,
    ttrr_chebyshev_t,
    ttrr_cq_jacobi,
    ttrr_equal,
    ttrr_qhermite,
)
from qstruct.poly import Poly
from qstruct.scalar import QContext
from qstruct.structure import (
    STATUS_NO_SOLUTION,
    fit_structure,
    five_term,
    verify_structure,
)

CTX = QContext(F(1, 2))
N = 10


def criterion(num, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {num} ({title}): FAIL")
                raise
            print(f"[acceptance] criterion {num} ({title}): PASS")

        return run

    return wrap


def rand_poly(rng, max_deg):
    deg = rng.randint(0, max_deg)
    coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg)]
    coeffs.append(F(rng.randint(1, 9), rng.randint(1, 9)))
    return Poly(tuple(coeffs))


def rand_z(rng):
    while True:
        z = F(rng.randint(-50, 50), rng.randint(1, 19))
        if z not in (0, 1, -1):
            return z


def family_fixtures():
    return [
        ("q-hermite", ttrr_qhermite(CTX), 0),
        ("alsalam-chihara", ttrr_alsalam_chihara(CTX, F(1, 4), 1), 1),
        ("chebyshev-t", ttrr_chebyshev_t(), 2),
        ("cq-jacobi", ttrr_cq_jacobi(CTX, F(1, 4), F(1, 16)), 2),
    ]


@criterion(1, "operator correctness")
def test_criterion_01_operator_correctness():
    rng = random.Random(101)
    for _ in range(100):
        f = rand_poly(rng, 20)
        for _ in range(5):
            z = rand_z(rng)
            x0 = (z + 1 / z) / 2
            assert dq_oracle(CTX, f, z) == evaluate(dq_apply(CTX, f), x0)
            assert sq_oracle(CTX, f, z) == evaluate(sq_apply(CTX, f), x0)
    assert dq_apply(CTX, monomial(2)) == Poly((F(0), 2 * CTX.alpha))


@criterion(2, "product rules")
def test_criterion_02_product_rules():
    rng = random.Random(202)
    u2 = u2_poly(CTX)
    for _ in range(100):
        f, g = rand_poly(rng, 10), rand_poly(rng, 10)
        dq_f, dq_g = dq_apply(CTX, f), dq_apply(CTX, g)
        sq_f, sq_g = sq_apply(CTX, f), sq_apply(CTX, g)
        assert dq_apply(CTX, f * g) == dq_f * sq_g + sq_f * dq_g
        assert sq_apply(CTX, f * g) == sq_f * sq_g + u2 * dq_f * dq_g


@criterion(3, "structure-relation reproduction")
def test_criterion_03_structure_reproduction():
    # q-Hermite: pi = 1, c_n = gamma_n
    fit = fit_structure(CTX, generate_ops(ttrr_qhermite(CTX), N), 0, N)
    assert fit.is_exact and fit.pi == Poly.one()
    assert all(fit.a[n] == 0 and fit.b[n] == 0 for n in range(N + 1))
    assert all(fit.c[n] == gamma_n(CTX, n) for n in range(N + 1))

    # Al-Salam-Chihara c = 1/4, d = 1 (c/d = q^{1/2}): pi = x - 1, c_1 = -3/8,
    # cross-derived from c_1 = B_0 - r with r = (c+d)(1+cd q^{-1/2})/(2cd(1+q^{-1/2}))
    c, d = F(1, 4), F(1)
    asc = ttrr_alsalam_chihara(CTX, c, d)
    fit = fit_structure(CTX, generate_ops(asc, N), 1, N)
    assert fit.is_exact
    qmh = qpow(CTX, -2)
    r = (c + d) * (1 + c * d * qmh) / (2 * c * d * (1 + qmh))
    assert fit.pi == Poly.x() - r == Poly((F(-1), F(1)))
    assert fit.c[1] == asc.B(0) - r == F(-3, 8)

    # Chebyshev-T: pi = x^2 - 1, a_n = gamma_n, b_n = 0, c_1 = -1, c_n = -gamma_n/2
    fit = fit_structure(CTX, generate_ops(ttrr_chebyshev_t(), N), 2, N)
    assert fit.is_exact and fit.pi == Poly((F(-1), F(0), F(1)))
    assert fit.c[1] == -1
    for n in range(N + 1):
        assert fit.a[n] == gamma_n(CTX, n) and fit.b[n] == 0
        if n >= 2:
            assert fit.c[n] == -gamma_n(CTX, n) / 2

    # continuous q-Jacobi, both parameter points: deg 2 exact with a_n = gamma_n
    for p_a, p_b in [(F(1, 4), F(1, 4)), (F(1, 4), F(1, 16))]:
        jac = ttrr_cq_jacobi(CTX, p_a, p_b)
        fit = fit_structure(CTX, generate_ops(jac, N), 2, N)
        assert fit.is_exact and fit.pi.degree == 2
        assert all(fit.a[n] == gamma_n(CTX, n) for n in range(N + 1))


@criterion(4, "exclusivity")
def test_criterion_04_exclusivity():
    # (c, d) = (1, 1) has cd = 1, so C_1 = 0: the recurrence is irregular and
    # rejected at construction (it defines no OPS at all)
    with pytest.raises(IrregularParameters):
        ttrr_alsalam_chihara(CTX, 1, 1)
    # the nearest regular off-family pair, c/d = 1/2 not in {q^{1/2}, q^{-1/2}}:
    # deg pi = 1 admits no solution
    off = ttrr_alsalam_chihara(CTX, 1, 2)
    fit = fit_structure(CTX, generate_ops(off, N), 1, N)
    assert fit.status == STATUS_NO_SOLUTION

    # q-Hermite rejects deg pi = 1 outright
    fit = fit_structure(CTX, generate_ops(ttrr_qhermite(CTX), N), 1, N)
    assert fit.status == STATUS_NO_SOLUTION

    # every family perturbed by 1/1000 in one coefficient drops out of the class
    for name, ttrr, _deg in family_fixtures():
        perturbed = replaced(ttrr, c_overrides={2: ttrr.C(2) + F(1, 1000)})
        assert classify(CTX, perturbed, N).family == FAMILY_NOT_CHARACTERIZED, name


@criterion(5, "difference-equation system")
def test_criterion_05_difference_system():
    q = CTX.q
    u = CTX.u
    for name, ttrr, deg in family_fixtures():
        fit = fit_structure(CTX, generate_ops(ttrr, N), deg, N)
        assert fit.is_exact, name
        aux = aux_sequences(CTX, ttrr, fit)
        report = verify_difference_system(CTX, ttrr, fit, aux)
        assert report.ok, (name, report.failures()[:3])
        covered = {c.n for c in report.checks}
        assert covered == set(range(2, 8)), name  # 2 <= n <= 7

        # k1, k2 recomputed from their defining quotients
        c1, c2 = fit.c[1], fit.c[2]
        C1, C2 = ttrr.C(1), ttrr.C(2)
        k1 = (c2 * C1 - qpow(CTX, -2) * c1 * C2) / ((q - 1) * C1 * C2)
        k2 = (c2 * C1 - qpow(CTX, 2) * c1 * C2) / ((1 / q - 1) * C1 * C2)
        assert (aux.k1, aux.k2) == (k1, k2), name
        a_hat = k1 + u * fit.a[1] * (1 - qpow(CTX, -2))
        b_hat = k2 - u * fit.a[1] * (1 - qpow(CTX, 2))
        if deg == 2:
            # with monic pi the fit pins a_1 = 1, the reference normalization
            assert fit.a[1] == 1, name
            assert a_hat == k1 + u * (1 - qpow(CTX, -2)), name
            assert b_hat == k2 - u * (1 - qpow(CTX, 2)), name
        for n in range(1, N + 1):
            assert aux.t[n] == k1 * qpow(CTX, 2 * n) + k2 * qpow(CTX, -2 * n), name
            assert aux.r[n] == a_hat * qpow(CTX, 2 * n) + b_hat * qpow(CTX, -2 * n), name


@criterion(6, "lemma predicates")
def test_criterion_06_lemma_predicates():
    # Chebyshev-T: the degenerate-data ledger (C_1 = 1/2, frak_a = alpha),
    # with t_n = -2 gamma_n and k1 = -k2 = -2u exactly
    cheb = ttrr_chebyshev_t()
    fit = fit_structure(CTX, generate_ops(cheb, N), 2, N)
    aux = aux_sequences(CTX, cheb, fit)
    pd = pearson_data(CTX, cheb, fit)
    ledger = lemma_predicates(CTX, aux, pd, 2)
    assert ledger["chebyshev-data"].holds
    assert ledger["chebyshev-data"].witness["C1"] == "1/2"
    assert pd.frak_a == CTX.alpha
    assert ledger["k-pair-is-minus-plus-2u"].holds
    assert aux.k1 == -2 * CTX.u and aux.k2 == 2 * CTX.u
    assert all(aux.t[n] == -2 * gamma_n(CTX, n) for n in range(N + 1))

    # Al-Salam-Chihara branch records k1 k2 = 0
    asc = ttrr_alsalam_chihara(CTX, F(1, 4), 1)
    fit = fit_structure(CTX, generate_ops(asc, N), 1, N)
    aux = aux_sequences(CTX, asc, fit)
    pd = pearson_data(CTX, asc, fit)
    ledger = lemma_predicates(CTX, aux, pd, 1)
    assert ledger["k1k2-zero"].holds

    # q-Jacobi records a_hat, b_hat, (1 +- 2 frak_a u) all nonzero
    jac = ttrr_cq_jacobi(CTX, F(1, 4), F(1, 16))
    fit = fit_structure(CTX, generate_ops(jac, N), 2, N)
    aux = aux_sequences(CTX, jac, fit)
    pd = pearson_data(CTX, jac, fit)
    ledger = lemma_predicates(CTX, aux, pd, 2)
    assert ledger["regularity-product-nonzero"].holds
    assert aux.a_hat * aux.b_hat != 0
    assert (1 - 2 * pd.frak_a * CTX.u) * (1 + 2 * pd.frak_a * CTX.u) != 0


@criterion(7, "Pearson equation")
def test_criterion_07_pearson():
    for name, ttrr, deg in family_fixtures():
        fit = fit_structure(CTX, generate_ops(ttrr, N), deg, N)
        pd = pearson_data(CTX, ttrr, fit)
        report = pearson_check(CTX, ttrr, pd, 10)  # one check per order 0..10
        assert report.ok and len(report.checks) == 11, name
    # q-Jacobi frak_a closed form -(1 + q^{a+b+2})/(2u(1 - q^{a+b+2}))
    for p_a, p_b in [(F(1, 4), F(1, 4)), (F(1, 4), F(1, 16))]:
        jac = ttrr_cq_jacobi(CTX, p_a, p_b)
        fit = fit_structure(CTX, generate_ops(jac, N), 2, N)
        pd = pearson_data(CTX, jac, fit)
        qab2 = (p_a * p_b) ** 2 * CTX.q**2
        assert pd.frak_a == -(1 + qab2) / (2 * CTX.u * (1 - qab2))


@criterion(8, "round-trip classification")
def test_criterion_08_round_trip_classification():
    ctx_b = QContext(F(1, 3))
    ctx_c = QContext(F(2, 3))
    points = [
        # (ctx, input recurrence, family, base, expected params)
        (CTX, ttrr_qhermite(CTX), FAMILY_QHERMITE, "q", {}),
        (ctx_b, ttrr_qhermite(ctx_b), FAMILY_QHERMITE, "q", {}),
        (ctx_c, ttrr_qhermite(ctx_c), FAMILY_QHERMITE, "q", {}),
        (CTX, ttrr_qhermite(CTX, inverse=True), FAMILY_QHERMITE, "q-inverse", {}),
        (CTX, ttrr_alsalam_chihara(CTX, F(1, 4), 1), FAMILY_ASC, "q", {F(1, 4), F(1)}),
        (CTX, ttrr_alsalam_chihara(CTX, F(1, 8), F(1, 2)), FAMILY_ASC, "q", {F(1, 8), F(1, 2)}),
        (CTX, ttrr_alsalam_chihara(CTX, F(3, 4), 3), FAMILY_ASC, "q", {F(3, 4), F(3)}),
        (ctx_b, ttrr_alsalam_chihara(ctx_b, F(1, 9), 1), FAMILY_ASC, "q", {F(1, 9), F(1)}),
        (
            CTX,
            ttrr_alsalam_chihara(CTX, F(1, 4), 1, inverse=True),
            FAMILY_ASC,
            "q-inverse",
            {F(1, 4), F(1)},
        ),
        (CTX, ttrr_chebyshev_t(), FAMILY_CHEBYSHEV_T, "q", {}),
        (ctx_b, ttrr_chebyshev_t(), FAMILY_CHEBYSHEV_T, "q", {}),
        (
            CTX,
            ttrr_cq_jacobi(CTX, F(1, 4), F(1, 4)),
            FAMILY_CQ_JACOBI,
            "q",
            {"p_a": F(1, 4), "p_b": F(1, 4)},
        ),
        (
            CTX,
            ttrr_cq_jacobi(CTX, F(1, 4), F(1, 16)),
            FAMILY_CQ_JACOBI,
            "q",
            {"p_a": F(1, 4), "p_b": F(1, 16)},
        ),
        (
            CTX,
            ttrr_cq_jacobi(CTX, F(1, 2), F(1, 4)),
            FAMILY_CQ_JACOBI,
            "q",
            {"p_a": F(1, 2), "p_b": F(1, 4)},
        ),
        (
            CTX,
            ttrr_cq_jacobi(CTX, F(1, 2), F(1, 8)),
            FAMILY_CQ_JACOBI,
            "q",
            {"p_a": F(1, 2), "p_b": F(1, 8)},
        ),
    ]
    assert len(points) >= 12
    assert any(base == "q-inverse" for _, _, _, base, _ in points)
    for ctx, ttrr, family, base, params in points:
        result = classify(ctx, ttrr, N)
        assert result.family == family
        assert result.base == base
        if isinstance(params, set):
            # the pair is defined only up to swap; compare as a set
            assert set(result.params.values()) == params
        else:
            assert result.params == params
        # regenerated recurrence equals the input for n <= 10
        if result.family == FAMILY_QHERMITE:
            regen = ttrr_qhermite(ctx, inverse=base == "q-inverse")
        elif result.family == FAMILY_ASC:
            regen = ttrr_alsalam_chihara(
                ctx,
                result.params["c"],
                result.params["d"],
                inverse=base == "q-inverse",
            )
        elif result.family == FAMILY_CHEBYSHEV_T:
            regen = ttrr_chebyshev_t()
        else:
            regen = ttrr_cq_jacobi(
                ctx,
                result.params["p_a"],
                result.params["p_b"],
                inverse=base == "q-inverse",
            )
        assert ttrr_equal(ttrr, regen, N) is None


@criterion(9, "five-term expansion")
def test_criterion_09_five_term():
    for name, ttrr, deg in family_fixtures():
        ops = generate_ops(ttrr, N)
        fit = fit_structure(CTX, ops, deg, N)
        expansion = five_term(CTX, ops, fit)  # one check per n, every basis index k
        assert expansion.report.ok, name
        assert expansion.horizon >= 8, name
        report = verify_structure(CTX, ops, fit)
        assert report.ok, name


@criterion(10, "CLI determinism")
def test_criterion_10_cli_determinism(tmp_path):
    corpus = [
        ("q-hermite", ["--family", "q-hermite"]),
        ("asc", ["--family", "alsalam-chihara", "--c", "1/4", "--d", "1"]),
        ("chebyshev", ["--family", "chebyshev-t"]),
        ("jacobi", ["--family", "continuous-q-jacobi", "--p-a", "1/4", "--p-b", "1/16"]),
    ]
    for name, args in corpus:
        src = tmp_path / f"{name}.json"
        code = cli_main(["generate", *args, "-N", "12", "--out", str(src)])
        assert code == 0
        for command in (["verify", str(src), "-N", "10"], ["classify", str(src)]):
            first = tmp_path / f"{name}-a.json"
            second = tmp_path / f"{name}-b.json"
            rc1 = cli_main(command + ["--out", str(first)])
            rc2 = cli_main(command + ["--out", str(second)])
            assert rc1 == rc2 == 0
            assert first.read_bytes() == second.read_bytes()
        regen = tmp_path / f"{name}-regen.json"
        assert cli_main(["generate", *args, "-N", "12", "--out", str(regen)]) == 0
        assert regen.read_bytes() == src.read_bytes()
