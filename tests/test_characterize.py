import json
import math
import sys
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_families import (
    cq_jacobi_powers_oracle,
    cq_jacobi_scan_oracle,
    cq_jacobi_terms_oracle,
    cq_jacobi_yz,
    replaced,
)
from test_scalar import gamma_n, qpow
from test_structure import exact_family_fits, padded, perturbed_entries, replace

from qstruct import awops
from qstruct.characterize import (
    FAMILY_ASC,
    FAMILY_CHEBYSHEV_T,
    FAMILY_CQ_JACOBI,
    FAMILY_NOT_CHARACTERIZED,
    FAMILY_QHERMITE,
    AuxSequences,
    ConstraintViolated,
    DegenerateR1,
    IrrationalRoots,
    RecurrenceViolated,
    _sqrt_exact,
    aux_sequences,
    classify,
    lemma_predicates,
    pearson_check,
    pearson_data,
    recover_asc_params,
    recover_qjacobi_params,
    verify_difference_system,
)
from qstruct.families import (
    FamilySpec,
    IrregularParameters,
    OPSTable,
    TTRRSpec,
    generate_ops,
    moments,
    ttrr_alsalam_chihara,
    ttrr_chebyshev_t,
    ttrr_cq_jacobi,
    ttrr_equal,
    ttrr_qhermite,
)
from qstruct.poly import Poly
from qstruct.report import Check, Report
from qstruct.scalar import QContext, format_rational
from qstruct.structure import fit_auto, fit_structure

CTX = QContext(F(1, 2))
N = 10


def fitted(ttrr, deg):
    ops = generate_ops(ttrr, N)
    fit = fit_structure(CTX, ops, deg, N)
    assert fit.is_exact
    return ops, fit


def test_aux_chebyshev_closed_forms():
    ttrr = ttrr_chebyshev_t()
    _, fit = fitted(ttrr, 2)
    aux = aux_sequences(CTX, ttrr, fit)
    u = CTX.u
    assert aux.k1 == -2 * u and aux.k2 == 2 * u
    for n in range(1, N + 1):
        assert aux.t[n] == -2 * gamma_n(CTX, n)
    assert aux.t[0] == aux.k1 + aux.k2 == 0
    assert aux.r[0] == aux.a_hat + aux.b_hat


def test_aux_qhermite_t_sequence():
    ttrr = ttrr_qhermite(CTX)
    _, fit = fitted(ttrr, 0)
    aux = aux_sequences(CTX, ttrr, fit)
    # t_n = c_n / C_n = 4 gamma_n / (1 - q^n) collapses to k2 q^{-n/2}
    assert aux.k1 == 0
    for n in range(1, N + 1):
        assert aux.t[n] == gamma_n(CTX, n) / ttrr.C(n)
        assert aux.t[n] == aux.k2 * qpow(CTX, -2 * n)
    # with a_n = 0 the r sequence equals the t sequence
    assert aux.r[1:] == aux.t[1:]
    assert aux.a_hat == aux.k1 and aux.b_hat == aux.k2


def test_aux_asc_k1k2_product():
    ttrr = ttrr_alsalam_chihara(CTX, F(1, 4), 1)
    _, fit = fitted(ttrr, 1)
    aux = aux_sequences(CTX, ttrr, fit)
    assert aux.k1 == 0  # the base-q branch
    assert aux.k2 == F(-8, 15)
    assert aux.k1 * aux.k2 == 0


def test_aux_geometric_pair_formulas():
    # k1, k2 computed from (c_1, c_2, C_1, C_2) reproduce every t_n
    for ttrr, deg in [
        (ttrr_cq_jacobi(CTX, F(1, 4), F(1, 16)), 2),
        (ttrr_cq_jacobi(CTX, F(1, 4), F(1, 4)), 2),
    ]:
        _, fit = fitted(ttrr, deg)
        aux = aux_sequences(CTX, ttrr, fit)
        c1, c2 = fit.c[1], fit.c[2]
        C1, C2 = ttrr.C(1), ttrr.C(2)
        q = CTX.q
        assert aux.k1 == (c2 * C1 - qpow(CTX, -2) * c1 * C2) / ((q - 1) * C1 * C2)
        assert aux.k2 == (c2 * C1 - qpow(CTX, 2) * c1 * C2) / ((1 / q - 1) * C1 * C2)
        assert aux.a_hat == aux.k1 + CTX.u * (1 - qpow(CTX, -2))
        assert aux.b_hat == aux.k2 - CTX.u * (1 - qpow(CTX, 2))
        for n in range(1, N + 1):
            assert aux.r[n] == aux.a_hat * qpow(CTX, 2 * n) + aux.b_hat * qpow(CTX, -2 * n)


def test_pearson_data_chebyshev():
    ttrr = ttrr_chebyshev_t()
    _, fit = fitted(ttrr, 2)
    pd = pearson_data(CTX, ttrr, fit)
    assert pd.frak_a == CTX.alpha
    assert pd.psi.coeffs == (F(0), F(1))  # psi = x - B_0 = x


def test_pearson_data_asc_k1_zero_branch():
    # when k1 = 0 (base-q branch), frak_a = -1/(2u) and frak_b = 0
    ttrr = ttrr_alsalam_chihara(CTX, F(1, 4), 1)
    _, fit = fitted(ttrr, 1)
    pd = pearson_data(CTX, ttrr, fit)
    assert pd.frak_a == -1 / (2 * CTX.u)
    assert pd.frak_b == 0


def test_pearson_data_qjacobi_closed_form():
    # frak_a = -(1 + q^{a+b+2}) / (2u (1 - q^{a+b+2}))
    for p_a, p_b in [(F(1, 4), F(1, 4)), (F(1, 4), F(1, 16))]:
        ttrr = ttrr_cq_jacobi(CTX, p_a, p_b)
        _, fit = fitted(ttrr, 2)
        pd = pearson_data(CTX, ttrr, fit)
        qab2 = (p_a * p_b) ** 2 * CTX.q**2
        assert pd.frak_a == -(1 + qab2) / (2 * CTX.u * (1 - qab2))


@pytest.mark.parametrize(
    "ttrr,deg",
    [
        (ttrr_qhermite(CTX), 0),
        (ttrr_alsalam_chihara(CTX, F(1, 4), 1), 1),
        (ttrr_chebyshev_t(), 2),
        (ttrr_cq_jacobi(CTX, F(1, 4), F(1, 4)), 2),
        (ttrr_cq_jacobi(CTX, F(1, 4), F(1, 16)), 2),
    ],
)
def test_pearson_check_all_families(ttrr, deg):
    _, fit = fitted(ttrr, deg)
    pd = pearson_data(CTX, ttrr, fit)
    report = pearson_check(CTX, ttrr, pd, 8)
    assert report.ok
    assert len(report.checks) == 9


def test_pearson_check_detects_wrong_phi():
    ttrr = ttrr_chebyshev_t()
    _, fit = fitted(ttrr, 2)
    pd = pearson_data(CTX, ttrr, fit)
    bad = replace(pd, phi=pd.phi + 1)
    report = pearson_check(CTX, ttrr, bad, 8)
    assert not report.ok and len(report.checks) == 9
    assert [check.n for check in report.failures()] == [1, 3, 5, 7]
    assert all(
        check.witness.startswith(f"Pearson identity fails at n = {check.n}: ")
        for check in report.failures()
    )


def test_pearson_check_reads_a_given_table_reaching_n_plus_1():
    # order 8 reads mu_0..mu_9: a table to P_9 is enough, one to P_8 is not
    ttrr = ttrr_cq_jacobi(CTX, F(1, 4), F(1, 16))
    _, fit = fitted(ttrr, 2)
    pd = pearson_data(CTX, ttrr, fit)
    table = OPSTable(ttrr, 9)
    assert pearson_check(CTX, ttrr, pd, 8, ops=table) == pearson_check(CTX, ttrr, pd, 8)
    assert moments(ttrr, 9, ops=table) == moments(ttrr, 9)
    with pytest.raises(ValueError, match="OPS table reaches degree 8, moments need 9"):
        pearson_check(CTX, ttrr, pd, 8, ops=OPSTable(ttrr, 8))


@pytest.mark.parametrize(
    "ttrr,deg",
    [
        (ttrr_qhermite(CTX), 0),
        (ttrr_alsalam_chihara(CTX, F(1, 4), 1), 1),
        (ttrr_chebyshev_t(), 2),
        (ttrr_cq_jacobi(CTX, F(1, 4), F(1, 16)), 2),
    ],
)
def test_difference_system_all_zero(ttrr, deg):
    _, fit = fitted(ttrr, deg)
    aux = aux_sequences(CTX, ttrr, fit)
    report = verify_difference_system(CTX, ttrr, fit, aux)
    assert report.ok
    names = {c.name for c in report.checks}
    assert names == {f"system:reduced-{k}" for k in range(1, 6)} | {
        f"system:raw-{k}" for k in range(3, 8)
    }
    assert {c.n for c in report.checks} == set(range(2, N - 2))


def test_difference_system_catches_perturbation():
    ttrr = ttrr_alsalam_chihara(CTX, F(1, 4), 1)
    _, fit = fitted(ttrr, 1)
    aux = aux_sequences(CTX, ttrr, fit)
    perturbed = replaced(ttrr, c_overrides={2: ttrr.C(2) + F(1, 1000)})
    report = verify_difference_system(CTX, perturbed, fit, aux)
    assert not report.ok
    assert len(report.failures()) > 0


def reference_difference_system(ctx, ttrr, fit, aux):
    """verify_difference_system with every equation a closure over padded
    Fraction sequences, evaluated and reduced term by term."""
    N = fit.horizon
    alpha = ctx.alpha
    a, b, c = padded(fit.a), padded(fit.b), padded(fit.c)
    B, C = padded(ttrr.b), padded((F(0),) + ttrr.c)
    t, r = padded(aux.t), padded(aux.r)
    quarter = F(1, 4)

    def reduced_1(n):
        return a(n + 2) - 2 * alpha * a(n + 1) + a(n)

    def reduced_2(n):
        return t(n + 2) - 2 * alpha * t(n + 1) + t(n)

    def reduced_3(n):
        return r(n + 3) * B(n + 2) - (r(n + 2) + r(n + 1)) * B(n + 1) + r(n) * B(n)

    def reduced_4(n):
        lhs = r(n) * (B(n) ** 2 - 2 * alpha * B(n) * B(n - 1) + B(n - 1) ** 2)
        rhs = (
            (r(n + 1) + r(n + 2)) * (C(n + 1) - quarter)
            - 2 * (1 + alpha) * r(n) * (C(n) - quarter)
            + (r(n - 1) + r(n - 2)) * (C(n - 1) - quarter)
        )
        return lhs - rhs

    def reduced_5(n):
        rhs = (
            2 * (1 - alpha) * (a(n) * B(n) + b(n)) * B(n) ** 2
            + (t(n + 1) + a(n + 1) - a(n + 2)) * B(n + 1) * C(n + 1)
            + (t(n) + a(n - 1) - a(n - 2)) * B(n - 1) * C(n)
            + (
                (2 * a(n) - a(n + 2) - a(n - 1)) * C(n + 1)
                + (2 * a(n) - a(n + 1) - a(n - 2)) * C(n)
                + (1 - 2 * alpha) * (c(n) + c(n + 1))
                + (alpha**2 - 1) * a(n)
            )
            * B(n)
            + 2 * (b(n) - alpha * b(n + 1)) * C(n + 1)
            + 2 * (b(n) - alpha * b(n - 1)) * C(n)
        )
        return (1 - alpha**2) * b(n) - rhs

    def raw_3(n):
        return (
            (a(n + 1) - a(n + 2)) * B(n + 1)
            + (a(n) - a(n - 1)) * B(n)
            + b(n + 2)
            - 2 * alpha * b(n + 1)
            + b(n)
        )

    def raw_4(n):
        return (
            (a(n + 1) - a(n + 2) - t(n + 2)) * B(n + 1)
            + (a(n) - a(n - 1) + t(n + 1) + t(n)) * B(n)
            - t(n - 1) * B(n - 1)
            + b(n + 1)
            - 2 * alpha * b(n)
            + b(n - 1)
        )

    def raw_5(n):
        return (
            (a(n + 1) - a(n + 2)) * B(n + 1) ** 2
            + 2 * (1 - alpha) * a(n) * B(n) ** 2
            + (a(n) - a(n - 1)) * B(n) * B(n + 1)
            + (a(n) - a(n + 2)) * C(n + 1)
            + (b(n + 1) + b(n) - 2 * alpha * b(n + 1)) * B(n + 1)
            + (b(n + 1) + b(n) - 2 * alpha * b(n)) * B(n)
            + (a(n) - a(n - 2)) * C(n)
            + c(n + 2)
            - 2 * alpha * c(n + 1)
            + c(n)
            - (1 - alpha**2) * a(n)
        )

    def raw_6(n):
        return (
            (2 * (1 - alpha) * a(n) + t(n)) * B(n) ** 2
            + (t(n) + a(n - 1) - a(n - 2)) * B(n - 1) ** 2
            + (b(n) + b(n - 1) - 2 * alpha * b(n)) * B(n)
            + (a(n) - t(n - 1) - t(n + 1) - a(n + 1)) * B(n) * B(n - 1)
            + (b(n - 1) + b(n) - 2 * alpha * b(n - 1)) * B(n - 1)
            + (a(n) - a(n + 2) - t(n + 2) - t(n + 1)) * C(n + 1)
            + (2 * (1 + alpha) * t(n) + a(n) - a(n - 2)) * C(n)
            - (t(n - 2) + t(n - 1)) * C(n - 1)
            + c(n + 1)
            - 2 * alpha * c(n)
            + c(n - 1)
            - (1 - alpha**2) * (t(n) + a(n))
        )

    def raw_7(n):
        return (
            2 * (1 - alpha) * a(n) * B(n) ** 3
            + 2 * (1 - alpha) * b(n) * B(n) ** 2
            + (
                (2 * a(n) - a(n + 2) - a(n - 1)) * C(n + 1)
                + (2 * a(n) - a(n + 1) - a(n - 2)) * C(n)
                + c(n + 1)
                - 2 * alpha * c(n)
                + c(n)
                - 2 * alpha * c(n + 1)
                - (1 - alpha**2) * a(n)
            )
            * B(n)
            + (c(n + 1) + a(n + 1) * C(n + 1) - a(n + 2) * C(n + 1)) * B(n + 1)
            + (c(n) + a(n - 1) * C(n) - a(n - 2) * C(n)) * B(n - 1)
            + 2 * (b(n) - alpha * b(n + 1)) * C(n + 1)
            + 2 * (b(n) - alpha * b(n - 1)) * C(n)
            - (1 - alpha**2) * b(n)
        )

    equations = [
        ("reduced-1", reduced_1),
        ("reduced-2", reduced_2),
        ("reduced-3", reduced_3),
        ("reduced-4", reduced_4),
        ("reduced-5", reduced_5),
        ("raw-3", raw_3),
        ("raw-4", raw_4),
        ("raw-5", raw_5),
        ("raw-6", raw_6),
        ("raw-7", raw_7),
    ]
    checks = []
    for name, fn in equations:
        for n in range(2, N - 2):
            residual = fn(n)
            checks.append(
                Check(
                    f"system:{name}",
                    n,
                    residual == 0,
                    "" if residual == 0 else f"residual {format_rational(residual)}",
                )
            )
    return Report(tuple(checks)).sorted()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(exact_family_fits(), perturbed_entries(["a", "b", "c", "t", "r", "B", "C"]))
def test_difference_system_matches_the_closure_oracle(case, entry):
    # one entry of the fit, the aux sequences or the recurrence moves, and
    # every check (name, n, passed, witness) equals the oracle's
    ctx, ttrr, _, fit = case
    aux = aux_sequences(ctx, ttrr, fit)
    field, k, delta = entry
    if field in ("B", "C"):
        try:
            moved = {k: getattr(ttrr, field)(k) + delta}
            ttrr = replaced(ttrr, **{f"{field.lower()}_overrides": moved})
        except (IndexError, IrregularParameters):
            assume(False)
    else:
        holder = aux if field in ("t", "r") else fit
        values = list(getattr(holder, field))
        assume(k < len(values))
        values[k] += delta
        if holder is aux:
            aux = replace(aux, **{field: tuple(values)})
        else:
            fit = replace(fit, **{field: tuple(values)})
    report = verify_difference_system(ctx, ttrr, fit, aux)
    assert report == reference_difference_system(ctx, ttrr, fit, aux)


def test_lemma_predicates_deg1():
    ttrr = ttrr_alsalam_chihara(CTX, F(1, 4), 1)
    _, fit = fitted(ttrr, 1)
    aux = aux_sequences(CTX, ttrr, fit)
    pd = pearson_data(CTX, ttrr, fit)
    ledger = lemma_predicates(CTX, aux, pd, 1)
    assert ledger["k1k2-zero"].holds
    assert ledger["k1k2-zero"].witness["k1"] == "0"


def test_lemma_predicates_chebyshev_branch():
    ttrr = ttrr_chebyshev_t()
    _, fit = fitted(ttrr, 2)
    aux = aux_sequences(CTX, ttrr, fit)
    pd = pearson_data(CTX, ttrr, fit)
    ledger = lemma_predicates(CTX, aux, pd, 2)
    assert ledger["regularity-product-nonzero"].holds
    assert ledger["chebyshev-data"].holds
    assert ledger["chebyshev-data"].witness["C1"] == "1/2"
    assert ledger["k-pair-is-minus-plus-2u"].holds
    assert ledger["t-equals-minus-two-gamma"].holds


def test_lemma_predicates_qjacobi_regularity():
    ttrr = ttrr_cq_jacobi(CTX, F(1, 4), F(1, 16))
    _, fit = fitted(ttrr, 2)
    aux = aux_sequences(CTX, ttrr, fit)
    pd = pearson_data(CTX, ttrr, fit)
    ledger = lemma_predicates(CTX, aux, pd, 2)
    assert ledger["regularity-product-nonzero"].holds
    assert not ledger["chebyshev-data"].holds
    assert not ledger["k-pair-is-minus-plus-2u"].holds


@pytest.mark.parametrize("t", [F(1, 2), F(2, 3)])
@pytest.mark.parametrize(
    "inverse, p_a, p_b",
    [
        (False, F(1, 4), F(1, 16)),
        (False, F(1, 3), F(2, 5)),
        (False, F(1, 4), F(1, 4)),
        (True, F(3), F(5, 2)),
        (True, F(4), F(4)),
        (None, None, None),  # Chebyshev-T
    ],
)
def test_t_equals_minus_two_gamma_is_the_k_pair_rule(t, inverse, p_a, p_b):
    # both predicates state k1 = -2u, k2 = 2u; the per-n rule is the reference
    ctx = QContext(t)
    if p_a is None:
        ttrr = ttrr_chebyshev_t()
    else:
        ttrr = ttrr_cq_jacobi(ctx, p_a, p_b, inverse=inverse)
    fit = fit_structure(ctx, generate_ops(ttrr, N), 2, N)
    assert fit.is_exact
    aux = aux_sequences(ctx, ttrr, fit)
    ledger = lemma_predicates(ctx, aux, pearson_data(ctx, ttrr, fit), 2)
    per_n = all(aux.t[n] == -2 * gamma_n(ctx, n) for n in range(N + 1))
    assert ledger["t-equals-minus-two-gamma"].holds == per_n
    assert ledger["k-pair-is-minus-plus-2u"].holds == per_n
    assert per_n == (p_a is None)
    assert ledger["t-equals-minus-two-gamma"].witness == {
        "t1": format_rational(aux.t[1]),
        "gamma1": "1",
    }


def test_recover_asc_params_round_trip():
    ttrr = ttrr_alsalam_chihara(CTX, F(1, 4), 1)
    _, fit = fitted(ttrr, 1)
    c, d = recover_asc_params(CTX, ttrr, fit)
    assert {c, d} == {F(1, 4), F(1)}
    # the defining constraint c^2 + d^2 = 2 alpha c d
    assert c**2 + d**2 == 2 * CTX.alpha * c * d


def test_recover_asc_constraint_violation():
    ttrr = ttrr_alsalam_chihara(CTX, F(1, 4), 1)
    _, fit = fitted(ttrr, 1)
    perturbed = replaced(ttrr, c_overrides={1: ttrr.C(1) + F(1, 1000)})
    with pytest.raises(ConstraintViolated):
        recover_asc_params(CTX, perturbed, fit)


def test_recover_qjacobi_asymmetric():
    p_a, p_b = F(1, 4), F(1, 16)
    ttrr = ttrr_cq_jacobi(CTX, p_a, p_b)
    _, fit = fitted(ttrr, 2)
    aux = aux_sequences(CTX, ttrr, fit)
    pd = pearson_data(CTX, ttrr, fit)
    got = recover_qjacobi_params(CTX, ttrr, fit, aux, pd)
    assert got == (p_a, p_b)  # ordered: the parameters enter asymmetrically
    # b_hat closed form u q^{1/2} (1 + q^{-(a+b+2)/2})
    assert aux.b_hat == CTX.u * CTX.q_half * (1 + 1 / (p_a * p_b * CTX.q))
    # product relation q^{(a+b)/2} = -a_hat/b_hat
    assert -aux.a_hat / aux.b_hat == p_a * p_b


@pytest.mark.parametrize("field", ["b", "c"])
@pytest.mark.parametrize("n", [1, 4, N - 1])
@pytest.mark.parametrize(
    "inverse, p_a, p_b",
    [(False, F(1, 3), F(2, 5)), (True, F(3), F(5, 2))],
    ids=["q", "q-inverse"],
)
def test_recover_qjacobi_names_the_first_fitted_coefficient_off_its_closed_form(
    inverse, p_a, p_b, n, field
):
    ttrr = ttrr_cq_jacobi(CTX, p_a, p_b, inverse=inverse)
    _, fit = fitted(ttrr, 2)
    aux = aux_sequences(CTX, ttrr, fit)
    pd = pearson_data(CTX, ttrr, fit)
    assert recover_qjacobi_params(CTX, ttrr, fit, aux, pd, inverse=inverse) == (p_a, p_b)
    values = list(getattr(fit, field))
    values[n] += F(1, 1000)
    values[n + 1] -= F(1, 1000)
    broken = replace(fit, **{field: tuple(values)})
    with pytest.raises(ConstraintViolated) as info:
        recover_qjacobi_params(CTX, ttrr, broken, aux, pd, inverse=inverse)
    assert str(info.value) == f"fitted {field}_{n} disagrees with the closed form"


def test_recover_qjacobi_symmetric():
    p = F(1, 4)
    ttrr = ttrr_cq_jacobi(CTX, p, p)
    _, fit = fitted(ttrr, 2)
    aux = aux_sequences(CTX, ttrr, fit)
    pd = pearson_data(CTX, ttrr, fit)
    assert recover_qjacobi_params(CTX, ttrr, fit, aux, pd) == (p, p)


def test_classify_round_trips():
    cases = [
        (ttrr_qhermite(CTX), FAMILY_QHERMITE, "q", {}),
        (ttrr_qhermite(CTX, inverse=True), FAMILY_QHERMITE, "q-inverse", {}),
        (
            ttrr_alsalam_chihara(CTX, F(1, 4), 1),
            FAMILY_ASC,
            "q",
            {F(1, 4), F(1)},
        ),
        (
            ttrr_alsalam_chihara(CTX, F(1, 4), 1, inverse=True),
            FAMILY_ASC,
            "q-inverse",
            {F(1, 4), F(1)},
        ),
        (ttrr_chebyshev_t(), FAMILY_CHEBYSHEV_T, "q", {}),
        (
            ttrr_cq_jacobi(CTX, F(1, 4), F(1, 4)),
            FAMILY_CQ_JACOBI,
            "q",
            {"p_a": F(1, 4), "p_b": F(1, 4)},
        ),
        (
            ttrr_cq_jacobi(CTX, F(1, 4), F(1, 16)),
            FAMILY_CQ_JACOBI,
            "q",
            {"p_a": F(1, 4), "p_b": F(1, 16)},
        ),
    ]
    for ttrr, family, base, params in cases:
        result = classify(CTX, ttrr, N)
        assert result.family == family
        assert result.base == base
        if isinstance(params, set):
            assert set(result.params.values()) == params
        else:
            assert result.params == params


def test_classify_regenerated_recurrence_equals_input():
    ttrr = ttrr_cq_jacobi(CTX, F(1, 2), F(1, 4))
    result = classify(CTX, ttrr, N)
    assert result.family == FAMILY_CQ_JACOBI
    regen = ttrr_cq_jacobi(CTX, result.params["p_a"], result.params["p_b"])
    assert ttrr_equal(ttrr, regen, N) is None


def test_classify_perturbed_is_not_characterized():
    base = ttrr_cq_jacobi(CTX, F(1, 4), F(1, 16))
    perturbed = replaced(base, c_overrides={2: base.C(2) + F(1, 1000)})
    result = classify(CTX, perturbed, N)
    assert result.family == FAMILY_NOT_CHARACTERIZED
    assert not result.characterized
    assert any(k.startswith("fit-deg") for k in result.predicates)


def test_a_classification_and_its_ledger_entries_are_immutable():
    result = classify(CTX, ttrr_cq_jacobi(CTX, F(1, 4), F(1, 16)), N)
    entry = result.predicates["pearson"]
    with pytest.raises(AttributeError):
        result.family = FAMILY_NOT_CHARACTERIZED
    with pytest.raises(AttributeError):
        entry.holds = False
    with pytest.raises(AttributeError):
        del entry.witness
    assert (result.family, entry.holds, entry.witness) == (FAMILY_CQ_JACOBI, True, {})


def test_classify_off_family_asc():
    result = classify(CTX, ttrr_alsalam_chihara(CTX, 1, 2), N)
    assert result.family == FAMILY_NOT_CHARACTERIZED


def test_classify_rejected_branch_recurrence():
    # B_n = 0, C_n = 1/4 for every n: a valid OPS. Observed outcome: it fits
    # deg pi = 2 exactly (pi = x^2 - alpha^2) and is the symmetric continuous
    # q-Jacobi with p_a = p_b = q^{1/4}; recorded here as a regression anchor.
    u_like = TTRRSpec.from_lists([0] * 33, [F(1, 4)] * 32, label="u-like")
    result = classify(CTX, u_like, N)
    assert result.family == FAMILY_CQ_JACOBI
    assert result.params == {"p_a": CTX.t, "p_b": CTX.t}
    assert result.fit.pi.coeff(0) == -CTX.alpha**2
    assert result.fit.c[1] == -CTX.alpha**2
    assert not result.predicates["fit-deg-0"].holds
    assert not result.predicates["fit-deg-1"].holds


def test_classify_reports_ledger_on_failure():
    pert = replaced(ttrr_chebyshev_t(), b_overrides={3: F(1, 1000)})
    result = classify(CTX, pert, N)
    assert result.family == FAMILY_NOT_CHARACTERIZED
    assert result.predicates  # carries the attempted-fit evidence


@pytest.mark.parametrize(
    "ttrr,deg",
    [
        (ttrr_qhermite(CTX, inverse=True), 0),
        (ttrr_alsalam_chihara(CTX, F(1, 4), 1, inverse=True), 1),
        (ttrr_cq_jacobi(CTX, 4, 16, inverse=True), 2),
    ],
)
def test_inverse_base_families_satisfy_all_layers(ttrr, deg):
    # the operators are invariant under q -> 1/q, so the q-inverse families
    # fit exactly and clear every verification layer too
    ops, fit = fitted(ttrr, deg)
    aux = aux_sequences(CTX, ttrr, fit)
    assert verify_difference_system(CTX, ttrr, fit, aux).ok
    pd = pearson_data(CTX, ttrr, fit)
    assert pearson_check(CTX, ttrr, pd, 8).ok
    if deg == 2:
        for n in range(1, N + 1):
            assert fit.a[n] == gamma_n(CTX, n)
    if deg == 1:
        for n in range(1, N + 1):
            assert fit.b[n] == gamma_n(CTX, n)


@pytest.mark.parametrize("tq", [F(1, 2), F(1, 3), F(3, 5)])
def test_classify_across_contexts(tq):
    ctx = QContext(tq)
    assert classify(ctx, ttrr_qhermite(ctx), N).family == FAMILY_QHERMITE
    assert classify(ctx, ttrr_chebyshev_t(), N).family == FAMILY_CHEBYSHEV_T
    q_half = tq**2
    asc = classify(ctx, ttrr_alsalam_chihara(ctx, q_half, 1), N)
    assert asc.family == FAMILY_ASC
    assert set(asc.params.values()) == {q_half, F(1)}
    jac = classify(ctx, ttrr_cq_jacobi(ctx, F(1, 3), F(1, 5)), N)
    assert jac.family == FAMILY_CQ_JACOBI
    assert jac.params == {"p_a": F(1, 3), "p_b": F(1, 5)}


def test_degenerate_r1_raised_on_constructed_fit():
    # force a_1 C_1 + c_1 = 0 through a hand-built fit object
    ttrr = ttrr_qhermite(CTX)
    _, fit = fitted(ttrr, 0)
    broken = replace(fit, c=(F(0), -fit.a[1] * ttrr.C(1)) + fit.c[2:])
    with pytest.raises(DegenerateR1):
        pearson_data(CTX, ttrr, broken)


def b_perturbed(ttrr, n, delta=F(1, 1000)):
    return replaced(ttrr, b_overrides={n: ttrr.B(n) + delta})


@pytest.mark.parametrize(
    "ttrr, n, detail",
    [
        # B_N first enters P_{N+1}, so the deg-2 fit stays exact and the
        # q-Jacobi recovery decides; for Chebyshev-T its closed-form check
        # at n = 1 fails before regeneration is reached
        (ttrr_chebyshev_t(n_max=8), 8, "degenerate denominator at n = 1"),
        (ttrr_cq_jacobi(CTX, F(1, 3), F(2, 5), n_max=10), 10, "regenerated recurrence differs at B_10"),
    ],
    ids=["chebyshev-t", "cq-jacobi"],
)
def test_recovery_ledger_on_b_n_perturbation(ttrr, n, detail):
    result = classify(CTX, b_perturbed(ttrr, n), n)
    assert result.family == FAMILY_NOT_CHARACTERIZED
    assert result.predicates["fit-deg-2"].holds
    for base in ("q", "q-inverse"):
        record = result.predicates[f"qjacobi-recovery-{base}"]
        assert not record.holds
        assert record.witness == {"detail": detail}
    assert "regenerated-chebyshev-t" not in result.predicates


@pytest.mark.parametrize(
    "ttrr, expected",
    [
        (
            ttrr_qhermite(CTX, n_max=N),
            (
                '{"base": null, "family": "not-characterized", "fit": {"a": ["0", "0", "0", "0", "0", '
                '"0", "0", "0", "0", "0", "0"], "b": ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0", '
                '"0"], "c": ["0", "1", "17/4", "273/16", "4369/64", "69905/256", "1118481/1024", '
                '"17895697/4096", "286331153/16384", "4581298449/65536", "73300775185/262144"], '
                '"pi": ["1"], "status": "exact"}, "params": {}, '
                '"predicates": {"fit-deg-0": {"holds": true, "witness": {"n": "", "status": "exact"}}, '
                '"pearson": {"holds": true, "witness": {}}, "q-hermite-regeneration": {"holds": false, '
                '"witness": {"detail": "no base matched"}}, "regenerated-q-hermite-q": {"holds": false, '
                '"witness": {"first-mismatch": "B_10"}}, '
                '"regenerated-q-hermite-q-inverse": {"holds": false, '
                '"witness": {"first-mismatch": "B_10"}}}}'
            ),
        ),
        (
            ttrr_alsalam_chihara(CTX, F(1, 8), F(1, 2), n_max=N),
            (
                '{"base": null, "family": "not-characterized", "fit": {"a": ["0", "0", "0", "0", "0", '
                '"0", "0", "0", "0", "0", "0"], "b": ["0", "1", "17/4", "273/16", "4369/64", '
                '"69905/256", "1118481/1024", "17895697/4096", "286331153/16384", "4581298449/65536", '
                '"73300775185/262144"], "c": ["0", "-15/16", "-4335/1024", "-1117935/65536", '
                '"-286322415/4194304", "-73300635375/268435456", "-18764996210415/17179869184", '
                '"-4803839566737135/1099511627776", "-1229782937674641135/70368744177664", '
                '"-314824432182147084015/4503599627370496", '
                '"-80595054640828676763375/288230376151711744"], "pi": ["-5/4", "1"], '
                '"status": "exact"}, "params": {}, '
                '"predicates": {"asc-constraint-q-inverse": {"holds": false, '
                '"witness": {"detail": "(c+d)^2 = 25/64 but 2(alpha+1)cd = 6775/1024"}}, '
                '"asc-recovery": {"holds": false, "witness": {"detail": "no base matched"}}, '
                '"fit-deg-0": {"holds": false, "witness": {"n": "2", "status": "no-solution"}}, '
                '"fit-deg-1": {"holds": true, "witness": {"n": "", "status": "exact"}}, '
                '"k1k2-zero": {"holds": true, "witness": {"k1": "0", "k2": "-16/15", "product": "0"}}, '
                '"pearson": {"holds": true, "witness": {}}, "regenerated-asc-q": {"holds": false, '
                '"witness": {"first-mismatch": "B_10"}}}}'
            ),
        ),
    ],
    ids=["q-hermite-regeneration", "asc-recovery"],
)
def test_classify_pins_the_regeneration_returns_on_b_n_perturbation(ttrr, expected):
    # B_N first enters P_{N+1}, so the fit to N stays exact and every check
    # before the regeneration passes; each candidate then differs at B_N
    result = classify(CTX, b_perturbed(ttrr, N), N)
    assert json.dumps(result.to_json(), sort_keys=True) == expected


def recover_by_regeneration(ctx, ttrr, fit, aux, *, inverse=False):
    """recover_qjacobi_params as it was while it regenerated the family: the
    same parameters and closed-form checks (with each power of q taken
    afresh), then the recurrence regenerated by ttrr_cq_jacobi to N and
    compared with the input coefficient by coefficient. Returns (outcome,
    regen): outcome is (p_a, p_b) or the message of the first failing check,
    and regen is the regenerated recurrence, or None when no regeneration
    was reached."""
    N = fit.horizon
    if inverse:
        tq, u, a_hat, b_hat = 1 / ctx.t, -ctx.u, aux.b_hat, aux.a_hat
    else:
        tq, u, a_hat, b_hat = ctx.t, ctx.u, aux.a_hat, aux.b_hat
    if a_hat == 0 or b_hat == 0:
        return "a_hat and b_hat must both be nonzero", None
    prod = -a_hat / b_hat
    if prod <= 0:
        return "recovered q**((a+b)/2) is not positive", None

    def square_root(x):
        rn, rd = math.isqrt(x.numerator), math.isqrt(x.denominator)
        return F(rn, rd) if x >= 0 and rn * rn == x.numerator and rd * rd == x.denominator else None

    if all(ttrr.B(n) == 0 for n in range(N + 1)):
        p = square_root(prod)
        if p is None:
            return str(IrrationalRoots(F(0), prod, prod)), None
        p_a = p_b = p
    else:
        diff = 2 * aux.r[1] * ttrr.B(0) * tq / (b_hat * (1 + tq**2))
        root = square_root(diff**2 + 4 * prod)
        if root is None:
            return str(IrrationalRoots(diff, -prod, diff**2 + 4 * prod)), None
        p_a, p_b = (root + diff) / 2, (root - diff) / 2
    expected_b_hat = u * tq**2 * (1 + 1 / (prod * tq**4))
    if b_hat != expected_b_hat:
        return (
            f"b_hat = {format_rational(b_hat)} but the parameter closed form "
            f"gives {format_rational(expected_b_hat)}"
        ), None
    q, s, ab = tq**4, tq**2, p_a * p_b
    for n in range(1, N + 1):
        g = gamma_n(ctx, n)
        denom_ab, denom_shift = 1 - q**n * ab, 1 - q**n * ab / s
        if denom_ab == 0 or denom_shift == 0:
            return f"degenerate denominator at n = {n}", None
        if fit.b[n] != (p_a - p_b) * g * (1 + q**n * s * ab**2) / (2 * ab * tq * denom_ab):
            return f"fitted b_{n} disagrees with the closed form", None
        c_n = (
            -(1 + 1 / (ab * s)) * g * (1 - q**n * p_a**2) * (1 - q**n * p_b**2) * (1 - q**n * ab**2)
            / (4 * denom_shift * denom_ab**2)
        )
        if fit.c[n] != c_n:
            return f"fitted c_{n} disagrees with the closed form", None
    try:
        regen = ttrr_cq_jacobi(ctx, p_a, p_b, inverse=inverse, n_max=N)
    except IrregularParameters as exc:
        return f"recovered parameters are irregular: {exc}", None
    mismatch = ttrr_equal(ttrr, regen, N)
    if mismatch is not None:
        return f"regenerated recurrence differs at {mismatch[0]}_{mismatch[1]}", regen
    return (p_a, p_b), regen


@st.composite
def cq_jacobi_inputs(draw):
    """(ctx, ttrr, N): a regular continuous q-Jacobi point in either base,
    symmetric or not, with at most one B_k or C_k moved. The moves are
    weighted to those that keep the fit to N exact: B_N and C_N, which
    first enter P_{N+1}, and entries past N."""
    ctx = QContext(draw(st.fractions(min_value=F(1, 9), max_value=F(8, 9), max_denominator=9)))
    positive = st.fractions(min_value=F(1, 9), max_value=3, max_denominator=9)
    p_a = draw(positive | st.sampled_from([ctx.t, 1 / ctx.t]))
    p_b = draw(st.just(p_a) | positive | st.sampled_from([ctx.t, 1 / ctx.t]))
    n_max = draw(st.integers(min_value=7, max_value=11))
    N = draw(st.sampled_from([n_max, n_max - 2]))
    spec = FamilySpec("continuous-q-jacobi", (("p_a", p_a), ("p_b", p_b)), draw(st.sampled_from(["q", "q-inverse"])))
    try:
        ttrr = spec.to_ttrr(ctx, n_max=n_max)
    except IrregularParameters:
        assume(False)
    kind, k = draw(
        st.tuples(st.just("B"), st.just(N) | st.integers(min_value=N, max_value=n_max))
        | st.tuples(st.just("C"), st.integers(min_value=N, max_value=n_max))
        | st.tuples(st.sampled_from("BC"), st.integers(min_value=1, max_value=n_max))
        | st.just(("B", 0))
    )
    delta = draw(st.sampled_from([F(0), F(1, 1000), F(-3), F(5, 7)]))
    b, c = list(ttrr.b), list(ttrr.c)
    if kind == "B":
        b[k] += delta
    else:
        c[k - 1] += delta
    try:
        return ctx, TTRRSpec.from_lists(b, c), N
    except IrregularParameters:
        assume(False)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(cq_jacobi_inputs())
def test_recovery_without_regeneration_matches_the_regenerating_oracle(case):
    # B_N is the only coefficient that the closed-form checks leave open: a
    # returned pair regenerates the input to N, and "differs at B_N" comes
    # exactly when the regeneration differs from the input at B_N alone
    ctx, ttrr, N = case
    fits = fit_auto(ctx, OPSTable(ttrr, N), N)
    assume(len(fits) == 3 and fits[-1].is_exact)
    fit = fits[-1]
    try:
        aux, pd = aux_sequences(ctx, ttrr, fit), pearson_data(ctx, ttrr, fit)
    except (RecurrenceViolated, DegenerateR1):
        assume(False)
    for inverse in (False, True):
        expected, regen = recover_by_regeneration(ctx, ttrr, fit, aux, inverse=inverse)
        try:
            got = recover_qjacobi_params(ctx, ttrr, fit, aux, pd, inverse=inverse)
        except (ConstraintViolated, IrrationalRoots) as exc:
            got = str(exc)
        assert got == expected
        if not isinstance(got, str):
            regenerated = ttrr_cq_jacobi(ctx, *got, inverse=inverse, n_max=N)
            assert ttrr_equal(ttrr, regenerated, N) is None
        differing = regen and [
            (kind, n)
            for kind, first, stop in (("B", 0, N + 1), ("C", 1, N + 1))
            for n in range(first, stop)
            if getattr(ttrr, kind)(n) != getattr(regen, kind)(n)
        ]
        assert (got == f"regenerated recurrence differs at B_{N}") == (differing == [("B", N)])


@pytest.mark.parametrize(
    "p_a, p_b, factor",
    [(F(4) ** 7, F(1, 3), "(1 - q^(n+a+1))"), (F(1, 3), F(4) ** 7, "(1 - q^(n+b+1))")],
    ids=["a", "b"],
)
def test_recovery_names_a_regularity_factor_that_vanishes_just_past_n(p_a, p_b, factor):
    # at q = 1/16, p = 4**7 = q**(-7/2) makes 1 - q**7 p**2 vanish: the
    # factor sits in y_6, so B_0..B_6 and C_1..C_6 are finite (C_7 would
    # be 0), every closed-form check to N = 6 passes, and only the family's
    # regularity scan to N rejects the pair
    n = 6
    result = classify(CTX, cq_jacobi_from_yz(p_a, p_b, n), n)
    assert result.family == FAMILY_NOT_CHARACTERIZED and result.predicates["fit-deg-2"].holds
    for base in ("q", "q-inverse"):
        assert result.predicates[f"qjacobi-recovery-{base}"].witness == {
            "detail": f"recovered parameters are irregular: regularity factor {factor} vanishes at n = {n}"
        }


def cq_jacobi_from_yz(p_a, p_b, n_max):
    """B_n = (p_a t + 1/(p_a t) - y_n - z_n)/2 and C_{n+1} = y_n z_{n+1}/4 at
    CTX, taken from the per-n oracle; unlike the generator it accepts any
    nonzero parameters."""
    t = CTX.t
    yz = [cq_jacobi_yz(CTX, p_a, p_b, n) for n in range(n_max + 1)]
    edge = p_a * t + 1 / (p_a * t)
    bs = [(edge - y - z) / 2 for y, z in yz]
    return TTRRSpec.from_lists(bs, [yz[n - 1][0] * yz[n][1] / 4 for n in range(1, n_max + 1)])


def cq_jacobi_symmetric(s, n_max):
    """Continuous q-Jacobi with p_a = p_b = p at CTX, written in s = p**2:
    B_n = 0, and in C_n = y_{n-1} z_n / 4 the factor p t of y_{n-1}'s
    denominator cancels the one of z_n's numerator, so p need not be
    rational."""
    t = CTX.t
    cs = []
    for n in range(1, n_max + 1):
        m = 4 * n
        y = (1 - t**m * s) * (1 - t**m * s * s) * (1 + t ** (m - 2) * s) * (1 + t**m * s)
        y /= (1 - t ** (2 * m - 4) * s * s) * (1 - t ** (2 * m) * s * s)
        z = (1 - t**m) * (1 - t**m * s) * (1 + t**m * s) * (1 + t ** (m + 2) * s)
        z /= (1 - t ** (2 * m) * s * s) * (1 - t ** (2 * m + 4) * s * s)
        cs.append(y * z / 4)
    return TTRRSpec.from_lists([F(0)] * (n_max + 1), cs)


@pytest.mark.parametrize("p", [F(1, 3), F(1, 4)])
def test_symmetric_helper_is_the_family_at_rational_p(p):
    ttrr = cq_jacobi_symmetric(p * p, N)
    assert ttrr_equal(ttrr, ttrr_cq_jacobi(CTX, p, p, n_max=N), N) is None
    result = classify(CTX, ttrr, N)
    assert (result.family, result.params, result.base) == (
        FAMILY_CQ_JACOBI,
        {"p_a": p, "p_b": p},
        "q",
    )


@pytest.mark.parametrize(
    "ttrr, details",
    [
        (
            cq_jacobi_from_yz(F(-1, 3), F(2, 5), N),
            ["recovered q**((a+b)/2) is not positive"] * 2,
        ),
        (
            cq_jacobi_symmetric(F(1, 3), N),
            [
                "quadratic with sum 0, product 1/3 has non-square discriminant 1/3",
                "quadratic with sum 0, product 3 has non-square discriminant 3",
            ],
        ),
    ],
    ids=["negative-p-a", "p-squared-one-third"],
)
def test_recovery_witnesses_of_family_members_with_parameters_outside_q_plus(ttrr, details):
    # both recurrences are continuous q-Jacobi (p_a = -1/3, p_b = 2/5; and
    # p_a = p_b = sqrt(1/3)) and fit exactly at deg pi = 2, but recovery
    # reads positive rational parameters only, so they are not characterized
    result = classify(CTX, ttrr, N)
    assert result.family == FAMILY_NOT_CHARACTERIZED
    assert result.predicates["fit-deg-2"].holds
    for base, detail in zip(("q", "q-inverse"), details):
        record = result.predicates[f"qjacobi-recovery-{base}"]
        assert not record.holds
        assert record.witness == {"detail": detail}


def test_chebyshev_t_recorded_exactly_when_input_matches_to_n():
    n_max, horizon = 9, 8
    cheb = ttrr_chebyshev_t(n_max=n_max)
    inputs = [cheb]
    inputs += [b_perturbed(cheb, k) for k in range(n_max + 1)]
    inputs += [replaced(cheb, c_overrides={k: cheb.C(k) + F(1, 1000)}) for k in range(1, n_max + 1)]
    matched = 0
    for ttrr in inputs:
        result = classify(CTX, ttrr, horizon)
        record = result.predicates.get("regenerated-chebyshev-t")
        if ttrr_equal(ttrr, cheb, horizon) is None:
            matched += 1
            assert result.family == FAMILY_CHEBYSHEV_T
            assert record is not None and record.to_json() == {"holds": True, "witness": {}}
        else:
            assert result.family != FAMILY_CHEBYSHEV_T
            assert record is None
    assert matched == 3  # unperturbed, B_9 and C_9 beyond the horizon


@pytest.fixture
def dq_calls(monkeypatch):
    """A list that grows by one entry per D_q image built: per awops.dq_image
    call (the OPS table's image build, which dq_apply also runs), through
    every qstruct module attribute bound to it."""
    calls, dq_image = [], awops.dq_image

    def counted(*args):
        calls.append(args)
        return dq_image(*args)

    for name, mod in list(sys.modules.items()):
        if name == "qstruct" or name.startswith("qstruct."):
            for attr, val in list(vars(mod).items()):
                if val is dq_image:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def last_index_read(result, n):
    """The highest index any fit of a classification read: a no-solution
    fit stops at its failure index, an exact one reads up to n."""
    return max(
        int(record.witness["n"] or n)
        for key, record in result.predicates.items()
        if key.startswith("fit-deg-")
    )


def test_classify_applies_d_q_only_as_far_as_the_fits_read(dq_calls):
    # the fits read D_q P_n in increasing n and stop at their failure index,
    # so a recurrence outside the class pays for D_q P_0..D_q P_3, not for
    # the whole horizon (21 images at N = 20 when they were built up front)
    n = 20
    rng = Random(20)
    ttrr = TTRRSpec.from_lists(
        [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)],
        [F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)],
    )
    last = last_index_read(classify(CTX, ttrr, n), n)
    assert last <= 3
    assert len(dq_calls) == last + 1

    jacobi = ttrr_cq_jacobi(CTX, F(1, 3), F(2, 5), n_max=n + 2)
    dq_calls.clear()
    result = classify(CTX, jacobi, n)
    assert result.family == FAMILY_CQ_JACOBI
    assert len(dq_calls) == n + 1  # an exact fit reads every index
    # B_k first enters P_{k+1}, so the fits read up to k + 1 at most (the
    # deg-2 fit stays exact for k = n); below k = 2 the pin at 3 reads more
    for k in range(2, n + 1):
        dq_calls.clear()
        last = last_index_read(classify(CTX, b_perturbed(jacobi, k), n), n)
        assert len(dq_calls) == last + 1 <= k + 2


def test_classify_checks_its_horizon_before_building_anything():
    ttrr = ttrr_cq_jacobi(CTX, F(1, 3), F(2, 5), n_max=8)
    with pytest.raises(IndexError, match="^N = 9 exceeds materialized horizon 8$"):
        classify(CTX, ttrr, 9)
    with pytest.raises(ValueError, match="at least 6, got N = 5"):
        classify(CTX, ttrr_cq_jacobi(CTX, F(1, 3), F(2, 5), n_max=4), 5)
    assert classify(CTX, ttrr, 8).family == FAMILY_CQ_JACOBI  # the table spans n_max


# ------------------------------------------------------------------ oracles
#
# The post-fit decisions as they were before they moved to integers: each
# step a Fraction operation, the closed forms evaluated as written and the
# Pearson moments taken to order N + 2.


def aux_oracle(ctx, ttrr, fit):
    """aux_sequences with the closed form as Fraction running products."""
    N = fit.horizon
    c1, c2 = fit.c[1], fit.c[2]
    C1, C2 = ttrr.C(1), ttrr.C(2)
    q, qh_plus = ctx.q, ctx.q_half
    qh_minus = 1 / qh_plus
    k1 = (c2 * C1 - qh_minus * c1 * C2) / ((q - 1) * C1 * C2)
    k2 = (c2 * C1 - qh_plus * c1 * C2) / ((1 / q - 1) * C1 * C2)
    a_hat = k1 + ctx.u * fit.a[1] * (1 - qh_minus)
    b_hat = k2 - ctx.u * fit.a[1] * (1 - qh_plus)
    t, r = [k1 + k2], [a_hat + b_hat]
    k1_term, k2_term = k1, k2
    for n in range(1, N + 1):
        tn = fit.c[n] / ttrr.C(n)
        k1_term *= qh_plus
        k2_term *= qh_minus
        if tn != k1_term + k2_term:
            raise RecurrenceViolated(n, "(t)")
        t.append(tn)
        r.append(tn + fit.a[n] - fit.a[n - 1])
    return AuxSequences(tuple(t), k1, k2, tuple(r), a_hat, b_hat)


def pearson_oracle(ctx, ttrr, pd, N):
    """pearson_check with Fraction sides and moments to order N + 2."""
    mom = moments(ttrr, N + 2)
    phi_u, psi_u = mom.weighted(pd.phi), mom.weighted(pd.psi)
    d_rows, s_rows = awops.operator_rows(ctx, N)
    checks = []
    for n in range(N + 1):
        lhs = -phi_u.apply(Poly.from_ints(*d_rows[n]))
        rhs = psi_u.apply(Poly.from_ints(*s_rows[n]))
        fails = lhs != rhs
        witness = (
            f"Pearson identity fails at n = {n}: {format_rational(lhs)} != {format_rational(rhs)}"
            if fails
            else ""
        )
        checks.append(Check("pearson", n, not fails, witness))
    return Report(tuple(checks))


def recover_qjacobi_oracle(ctx, ttrr, fit, aux, pd, *, inverse=False):
    """recover_qjacobi_params with the b_n and c_n closed forms in Fractions,
    q**n and gamma_n carried as Fraction running values, and the regularity
    scan and B_N read from the Fraction helpers of test_families."""
    N = fit.horizon
    if inverse:
        tq, u, a_hat, b_hat = 1 / ctx.t, -ctx.u, aux.b_hat, aux.a_hat
    else:
        tq, u, a_hat, b_hat = ctx.t, ctx.u, aux.a_hat, aux.b_hat
    if a_hat == 0 or b_hat == 0:
        raise ConstraintViolated("a_hat and b_hat must both be nonzero")
    prod = -a_hat / b_hat
    if prod <= 0:
        raise ConstraintViolated("recovered q**((a+b)/2) is not positive")
    if all(ttrr.B(n) == 0 for n in range(N + 1)):
        p = _sqrt_exact(prod)
        if p is None:
            raise IrrationalRoots(F(0), prod, prod)
        p_a = p_b = p
    else:
        diff = 2 * aux.r[1] * ttrr.B(0) * tq / (b_hat * (1 + tq**2))
        disc = diff**2 + 4 * prod
        root = _sqrt_exact(disc)
        if root is None:
            raise IrrationalRoots(diff, -prod, disc)
        p_a, p_b = (root + diff) / 2, (root - diff) / 2
    expected_b_hat = u * tq**2 * (1 + 1 / (prod * tq**4))
    if b_hat != expected_b_hat:
        raise ConstraintViolated(
            f"b_hat = {format_rational(b_hat)} but the parameter closed form "
            f"gives {format_rational(expected_b_hat)}"
        )
    q, s = tq**4, tq**2
    ab, aa, bb = p_a * p_b, p_a * p_a, p_b * p_b
    pp, pp_s, ab_s = ab * ab, ab * ab * s, ab / s
    b_factor = (p_a - p_b) / (2 * ab * tq)
    c_factor = -(1 + 1 / (ab * s)) / 4
    two_alpha = 2 * ctx.alpha
    qn, g_prev, g = F(1), F(-1), F(0)
    for n in range(1, N + 1):
        qn *= q
        g_prev, g = g, two_alpha * g - g_prev
        denom_ab = 1 - qn * ab
        if denom_ab == 0:
            raise ConstraintViolated(f"degenerate denominator at n = {n}")
        denom_shift = 1 - qn * ab_s
        if denom_shift == 0:
            raise ConstraintViolated(f"degenerate denominator at n = {n}")
        if fit.b[n] != b_factor * g * (1 + qn * pp_s) / denom_ab:
            raise ConstraintViolated(f"fitted b_{n} disagrees with the closed form")
        c_closed = c_factor * g * (1 - qn * aa) * (1 - qn * bb) * (1 - qn * pp)
        if fit.c[n] != c_closed / (denom_shift * denom_ab * denom_ab):
            raise ConstraintViolated(f"fitted c_{n} disagrees with the closed form")
    qm = cq_jacobi_powers_oracle(tq, N)
    try:
        cq_jacobi_scan_oracle(qm, p_a, p_b, N)
    except IrregularParameters as exc:
        raise ConstraintViolated(f"recovered parameters are irregular: {exc}") from exc
    ((y_N, z_N),) = cq_jacobi_terms_oracle(tq, p_a, p_b, qm, range(N, N + 1))
    pt = p_a * tq
    if ttrr.B(N) != (pt + 1 / pt - y_N - z_N) / 2:
        raise ConstraintViolated(f"regenerated recurrence differs at B_{N}")
    return p_a, p_b


def outcome(fn, *args, **kwargs):
    """fn's return value, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def post_fit_cases(draw):
    """(ctx, ttrr, fit, moved, order): an exact fit to N of a family point in
    either base, with at most one B_k or C_k of the input moved, `moved` the
    fit with at most one b_n or c_n moved, and order the Pearson order
    min(N, n_max - 2)."""
    ctx = QContext(draw(st.fractions(min_value=F(1, 9), max_value=F(8, 9), max_denominator=9)))
    family = draw(
        st.sampled_from(["q-hermite", "alsalam-chihara", "chebyshev-t", "continuous-q-jacobi"])
    )
    nonzero = st.fractions(min_value=-3, max_value=3, max_denominator=9).filter(bool)
    positive = st.fractions(min_value=F(1, 9), max_value=3, max_denominator=9)
    params = ()
    if family == "alsalam-chihara":
        d = draw(nonzero)
        params = (("c", draw(st.sampled_from([d * ctx.t**2, d / ctx.t**2]) | nonzero)), ("d", d))
    elif family == "continuous-q-jacobi":
        p_a = draw(positive | st.sampled_from([ctx.t, 1 / ctx.t]))
        params = (("p_a", p_a), ("p_b", draw(st.just(p_a) | positive)))
    n_max = draw(st.integers(min_value=7, max_value=11))
    N = draw(st.sampled_from([n_max, n_max - 1, n_max - 2]))
    spec = FamilySpec(family, params, draw(st.sampled_from(["q", "q-inverse"])))
    deltas = st.sampled_from([F(0), F(1, 1000), F(-3), F(5, 7)])
    try:
        ttrr = spec.to_ttrr(ctx, n_max=n_max)
        kind, k, delta = draw(st.sampled_from("BC")), draw(st.integers(1, n_max)), draw(deltas)
        b, c = list(ttrr.b), list(ttrr.c)
        if kind == "B":
            b[k] += delta
        else:
            c[k - 1] += delta
        ttrr = TTRRSpec.from_lists(b, c)
    except IrregularParameters:
        assume(False)
    fit = fit_auto(ctx, OPSTable(ttrr, N), N)[-1]
    assume(fit.is_exact)
    field, n, delta = draw(st.sampled_from("bc")), draw(st.integers(1, N)), draw(deltas)
    values = list(getattr(fit, field))
    values[n] += delta
    return ctx, ttrr, fit, replace(fit, **{field: tuple(values)}), min(N, n_max - 2)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(post_fit_cases())
def test_post_fit_decisions_match_their_fraction_oracles(case):
    # the same returns, or the same exception types and messages, for the
    # aux closed form, the Pearson orders and the continuous q-Jacobi
    # closed forms; the moved fit reaches each failing witness
    ctx, ttrr, fit, moved, order = case
    for f in (fit, moved):
        assert outcome(aux_sequences, ctx, ttrr, f) == outcome(aux_oracle, ctx, ttrr, f)
        pd = outcome(pearson_data, ctx, ttrr, f)
        if isinstance(pd, tuple):
            continue
        got = pearson_check(ctx, ttrr, pd, order)
        assert got == pearson_oracle(ctx, ttrr, pd, order)
        assert got == pearson_check(ctx, ttrr, pd, order, ops=OPSTable(ttrr, order + 1))
    aux, pd = outcome(aux_sequences, ctx, ttrr, fit), outcome(pearson_data, ctx, ttrr, fit)
    assume(not isinstance(aux, tuple) and not isinstance(pd, tuple))
    for f in (fit, moved):
        for inverse in (False, True):
            assert outcome(recover_qjacobi_params, ctx, ttrr, f, aux, pd, inverse=inverse) == (
                outcome(recover_qjacobi_oracle, ctx, ttrr, f, aux, pd, inverse=inverse)
            )


@st.composite
def qjacobi_recovery_cases(draw):
    """(ctx, ttrr, N): a continuous q-Jacobi point at horizon N over a
    context with denominator up to 29, in either base, with parameters
    drawn as small rationals and as powers of q**(1/4), and with B_N now
    and then moved, which only the closed form of B_N in the recovery
    reads."""
    ctx = QContext(draw(st.fractions(min_value=F(1, 29), max_value=F(28, 29), max_denominator=29)))
    params = st.fractions(min_value=F(1, 9), max_value=3, max_denominator=9) | st.integers(
        -8, 8
    ).map(lambda k: ctx.t**k)
    p_a = draw(params)
    p_b = draw(params | st.just(p_a))
    N = draw(st.integers(6, 9))
    try:
        ttrr = ttrr_cq_jacobi(ctx, p_a, p_b, inverse=draw(st.booleans()), n_max=N)
    except IrregularParameters:
        assume(False)
    b = list(ttrr.b)
    b[N] += draw(st.sampled_from([F(0), F(1, 1000), F(-2, 7)]))
    return ctx, TTRRSpec.from_lists(b, ttrr.c), N


@settings(derandomize=True, max_examples=40, deadline=None)
@given(qjacobi_recovery_cases())
def test_qjacobi_recovery_matches_its_oracle_over_wide_contexts(case):
    # the integer regularity scan and closed form of B_N against the
    # Fraction helpers, in both readings
    ctx, ttrr, N = case
    fit = fit_auto(ctx, OPSTable(ttrr, N), N)[-1]
    assert fit.is_exact
    aux, pd = aux_sequences(ctx, ttrr, fit), outcome(pearson_data, ctx, ttrr, fit)
    assume(not isinstance(pd, tuple))
    for inverse in (False, True):
        assert outcome(recover_qjacobi_params, ctx, ttrr, fit, aux, pd, inverse=inverse) == (
            outcome(recover_qjacobi_oracle, ctx, ttrr, fit, aux, pd, inverse=inverse)
        )
