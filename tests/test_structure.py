from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_poly import evaluate
from test_scalar import gamma_n, qpow

from qstruct.awops import dq_apply, sq_apply
from qstruct.families import (
    FamilySpec,
    IrregularParameters,
    OPSTable,
    TTRRSpec,
    generate_ops,
    ttrr_alsalam_chihara,
    ttrr_chebyshev_t,
    ttrr_cq_jacobi,
    ttrr_qhermite,
)
from qstruct.poly import Poly, int_three_term
from qstruct.scalar import QContext
from qstruct.report import Check, Report
from qstruct import structure
from qstruct.structure import (
    STATUS_DEGENERATE_C,
    STATUS_EXACT,
    STATUS_NO_SOLUTION,
    FiveTermExpansion,
    StructureFit,
    fit_auto,
    fit_structure,
    five_term,
    verify_structure,
)

CTX = QContext(F(1, 2))
N = 10


def replace(record, **changes):
    """A copy of a record (a fit, auxiliary sequences, Pearson data) with
    the named fields changed: its __init__ takes its slots, in order."""
    fields = {name: getattr(record, name) for name in type(record).__slots__}
    return type(record)(**{**fields, **changes})


def ops_for(ttrr):
    return generate_ops(ttrr, N)


def reference_solve(rows, rhs):
    """Reference Gauss-Jordan elimination over Fractions.

    Returns (consistent, x, determined): x is a particular solution with all
    free variables at zero, and determined[j] is True exactly when x[j] is
    pinned by the system (pivot column whose row has no free-column support).
    """
    ncols = len(rows[0]) if rows else 0
    m = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][col]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append((r, col))
        r += 1
        if r == len(m):
            break
    for i in range(r, len(m)):
        if m[i][ncols] != 0:
            return False, None, None
    pivot_cols = {c for _, c in pivots}
    free_cols = [j for j in range(ncols) if j not in pivot_cols]
    x = [F(0)] * ncols
    determined = [False] * ncols
    for row, col in pivots:
        x[col] = m[row][ncols]
        determined[col] = all(m[row][j] == 0 for j in free_cols)
    return True, x, determined


def reference_joint_system(ops, dq, d, m):
    """Coefficient-wise equations of the identities n = 1..m over the joint
    unknowns. Column j < d is the pi coefficient p_j; columns
    d + 3(n - 1) .. d + 3(n - 1) + 2 are (a_n, b_n, c_n). The monic part
    x**d * D_q P_n goes to the rhs."""
    P = ops.polys
    ncols = d + 3 * m
    rows, rhs = [], []
    for n in range(1, m + 1):
        base = d + 3 * (n - 1)
        dn = dq[n]
        for i in range(max(d + n - 1, n + 1) + 1):
            row = [F(0)] * ncols
            for j in range(d):
                row[j] = dn.coeff(i - j)  # x**j * D_q P_n
            row[base] = -P[n].coeff(i - 1)  # x * P_n
            row[base + 1] = -P[n].coeff(i)
            row[base + 2] = -P[n - 1].coeff(i)
            rows.append(row)
            rhs.append(-dn.coeff(i - d))
    return rows, rhs


def reference_fit(ctx, ops, d, n_fit):
    """Reference fit_structure: pin pi from the smallest consistent range
    n = 1..m (m >= 3) that determines it, then solve each further index
    by its own Gauss-Jordan system."""
    P = ops.polys
    dq = [dq_apply(ctx, p) for p in P[: n_fit + 1]]

    def partial(pi, a, b, c, failure_n):
        return StructureFit(pi, tuple(a), tuple(b), tuple(c), STATUS_NO_SOLUTION, failure_n, n_fit)

    solution = None
    pin_m = None
    for m in range(1, n_fit + 1):
        consistent, x, determined = reference_solve(*reference_joint_system(ops, dq, d, m))
        if not consistent:
            return partial(Poly.zero(), (), (), (), m)
        solution, pin_m = x, m
        if m >= 3 and all(determined[:d]):
            break

    pi = Poly(tuple(solution[:d]) + (F(1),)) if d else Poly.one()
    a = [F(0)] * (n_fit + 1)
    b = [F(0)] * (n_fit + 1)
    c = [F(0)] * (n_fit + 1)
    for n in range(1, pin_m + 1):
        base = d + 3 * (n - 1)
        a[n], b[n], c[n] = solution[base], solution[base + 1], solution[base + 2]

    for n in range(pin_m + 1, n_fit + 1):
        lhs = pi * dq[n]
        rows, rhs = [], []
        for i in range(max(d + n - 1, n + 1) + 1):
            rows.append([P[n].coeff(i - 1), P[n].coeff(i), P[n - 1].coeff(i)])
            rhs.append(lhs.coeff(i))
        consistent, x, _ = reference_solve(rows, rhs)
        if not consistent:
            return partial(pi, a[:n], b[:n], c[:n], n)
        a[n], b[n], c[n] = x

    zero_c = next((n for n in range(1, n_fit + 1) if c[n] == 0), None)
    status = STATUS_EXACT if zero_c is None else STATUS_DEGENERATE_C
    return StructureFit(pi, tuple(a), tuple(b), tuple(c), status, zero_c, n_fit)


def residual_oracle(ctx, ops, pi, a_n, b_n, c_n, n):
    """Reference structure residual pi * D_q P_n - (a_n x + b_n) P_n
    - c_n P_{n-1}, in normalized Poly arithmetic instead of the package's
    integer residual."""
    res = pi * dq_apply(ctx, ops[n]) - Poly((b_n, a_n)) * ops[n]
    return res - c_n * ops[n - 1] if n else res


def pin_oracle(rows):
    """Reference pin: Gauss-Jordan elimination over Fractions of the
    augmented rows (coefficients, then the rhs), a Fraction per entry.
    None when a column has no pivot or a leftover row has a nonzero rhs,
    else the solution, as the package's fraction-free `_pin` decides."""
    rows = [[F(v) for v in row] for row in rows]
    width, solved = len(rows[0]) - 1, []
    for col in range(width):
        pivot = next((row for row in rows if row[col]), None)
        if pivot is None:
            return None
        rows = [row for row in rows if row is not pivot]
        pivot = [v / pivot[col] for v in pivot]
        rows = [[v - row[col] * w for v, w in zip(row, pivot)] for row in rows]
        solved = [[v - row[col] * w for v, w in zip(row, pivot)] for row in solved] + [pivot]
    return None if any(row[width] for row in rows) else [row[width] for row in solved]


def vec(p):
    """A Poly as the (nums, den) pair that `int_three_term` reads."""
    return p.nums, p.den


def structure_residual(ctx, ops, pi, a_n, b_n, c_n, n):
    """pi * D_q P_n - (a_n x + b_n) P_n - c_n P_{n-1}, as a full polynomial,
    by the package's integer step."""
    lhs = structure._times(pi, ops.dq(ctx, n))
    prev = ops[n - 1] if n else Poly.zero()
    return Poly.from_ints(*int_three_term(lhs, vec(ops[n]), vec(prev), a_n, b_n, c_n))


def test_qhermite_fit_deg0():
    ops = ops_for(ttrr_qhermite(CTX))
    fit = fit_structure(CTX, ops, 0, N)
    assert fit.status == STATUS_EXACT
    assert fit.pi == Poly.one()
    for n in range(N + 1):
        assert fit.a[n] == 0
        assert fit.b[n] == 0
        assert fit.c[n] == gamma_n(CTX, n)


def test_asc_fit_deg1():
    # c = 1/4, d = 1 has c/d = q^{1/2}; the root of pi is
    # r = (c+d)(1 + c d q^{-1/2}) / (2 c d (1 + q^{-1/2})) and c_1 = B_0 - r
    c, d = F(1, 4), F(1)
    ttrr = ttrr_alsalam_chihara(CTX, c, d)
    ops = ops_for(ttrr)
    fit = fit_structure(CTX, ops, 1, N)
    assert fit.status == STATUS_EXACT
    qmh = qpow(CTX, -2)
    r = (c + d) * (1 + c * d * qmh) / (2 * c * d * (1 + qmh))
    assert r == 1
    assert fit.pi == Poly.x() - r
    assert fit.c[1] == ttrr.B(0) - r == F(-3, 8)
    # deg pi = 1 forces a_n = 0 and b_n = gamma_n
    for n in range(N + 1):
        assert fit.a[n] == 0
        assert fit.b[n] == gamma_n(CTX, n)


def test_chebyshev_fit_deg2():
    ops = ops_for(ttrr_chebyshev_t())
    fit = fit_structure(CTX, ops, 2, N)
    assert fit.status == STATUS_EXACT
    assert fit.pi == Poly((F(-1), F(0), F(1)))  # x^2 - 1
    assert fit.c[1] == -1
    for n in range(N + 1):
        assert fit.a[n] == gamma_n(CTX, n)
        assert fit.b[n] == 0
        if n >= 2:
            assert fit.c[n] == -gamma_n(CTX, n) / 2


@pytest.mark.parametrize("p_a,p_b", [(F(1, 4), F(1, 4)), (F(1, 4), F(1, 16))])
def test_cq_jacobi_fit_deg2(p_a, p_b):
    ops = ops_for(ttrr_cq_jacobi(CTX, p_a, p_b))
    fit = fit_structure(CTX, ops, 2, N)
    assert fit.status == STATUS_EXACT
    assert fit.pi.degree == 2
    for n in range(N + 1):
        assert fit.a[n] == gamma_n(CTX, n)


def test_qhermite_deg1_has_no_solution():
    ops = ops_for(ttrr_qhermite(CTX))
    fit = fit_structure(CTX, ops, 1, N)
    assert fit.status == STATUS_NO_SOLUTION
    assert fit.failure_n == 2


def test_off_family_asc_deg1_has_no_solution():
    # c/d = 1/2 is not q^{+-1/2} when q = 1/16
    ops = ops_for(ttrr_alsalam_chihara(CTX, 1, 2))
    fit = fit_structure(CTX, ops, 1, N)
    assert fit.status == STATUS_NO_SOLUTION
    assert fit.failure_n is not None


def test_wrong_degree_requests_fail():
    ops = ops_for(ttrr_chebyshev_t())
    assert fit_structure(CTX, ops, 0, N).status == STATUS_NO_SOLUTION
    assert fit_structure(CTX, ops, 1, N).status == STATUS_NO_SOLUTION
    ops_h = ops_for(ttrr_qhermite(CTX))
    assert fit_structure(CTX, ops_h, 2, N).status == STATUS_NO_SOLUTION


def up_to_scale(rows, expected):
    """Whether the integer rows equal the expected rows times one positive
    rational."""
    flat, ref = [v for row in rows for v in row], [v for row in expected for v in row]
    k = next((F(v) / w for v, w in zip(flat, ref) if w), 1)
    return all(type(v) is int for v in flat) and k > 0 and flat == [k * w for w in ref]


def test_each_pin_branch_fails_where_the_reference_fit_fails():
    # B_n = 0: for d = 1 the one row of identity 2 reads 0 = -17/16; for
    # d = 2 no row of identities 2..3 has p_0 and one reads 0 = -273/128;
    # d = 0 pins and fails at 4
    ttrr = TTRRSpec.from_lists([0] * 7, [F(1, 4), F(1, 2), 1, 1, 1, 1])
    ops = generate_ops(ttrr, 6)
    # the rows of one identity are integers, scaled by one positive factor
    assert up_to_scale(structure._pin_rows(CTX, ops, 1, 2, {}), [[0, F(-17, 16)]])
    assert up_to_scale(structure._pin_rows(CTX, ops, 2, 2, {}), [[0, F(17, 16), 0]])
    rows = structure._pin_rows(CTX, ops, 2, 3, {})
    assert up_to_scale(rows, [[0, 0, F(-273, 128)], [0, F(273, 32), 0]])
    fits = [fit_structure(CTX, ops, d, 6) for d in (0, 1, 2)]
    assert [(fit.status, fit.failure_n) for fit in fits] == [(STATUS_NO_SOLUTION, n) for n in (4, 2, 3)]
    assert fits == [reference_fit(CTX, ops, d, 6) for d in (0, 1, 2)]
    assert fit_auto(CTX, OPSTable(ttrr, 6), 6) == fits


def test_verify_structure_passes_and_detects_perturbation():
    ops = ops_for(ttrr_qhermite(CTX))
    fit = fit_structure(CTX, ops, 0, N)
    report = verify_structure(CTX, ops, fit)
    assert report.ok and len(report.checks) == N + 1

    broken_c = list(fit.c)
    broken_c[2] += F(1, 1000)
    broken = replace(fit, c=tuple(broken_c))
    report = verify_structure(CTX, ops, broken)
    assert len(report.checks) == N + 1
    assert [check.n for check in report.failures()] == [2]
    assert report.failures()[0].witness


def test_one_table_keeps_its_images_per_context():
    # the Chebyshev-T recurrence does not depend on q, so one table serves
    # two contexts; each keeps its own D_q P_n images, and a verify on the
    # table reads the images of its own context
    ops = OPSTable(ttrr_chebyshev_t(n_max=N), N)
    contexts = (QContext(F(1, 2)), QContext(F(2, 3)))
    fits = [fit_auto(ctx, ops, N)[-1] for ctx in contexts]
    assert all(fit.is_exact and fit.pi.degree == 2 for fit in fits)
    assert set(ops._images) == set(contexts)
    for ctx, fit in zip(contexts, fits):
        stored = tuple(Poly.from_ints(*image) for image in ops._images[ctx])
        assert stored == tuple(dq_apply(ctx, p) for p in generate_ops(ops.ttrr, N).polys)
        assert verify_structure(ctx, ops, fit).ok
    assert fits[0] != fits[1]
    assert not verify_structure(contexts[1], ops, fits[0]).ok


def test_scale_invariance_of_the_relation():
    # scaling (pi, a, b, c) by any nonzero rational preserves the identity
    ops = ops_for(ttrr_chebyshev_t())
    fit = fit_structure(CTX, ops, 2, N)
    lam = F(-7, 3)
    scaled = replace(
        fit,
        pi=lam * fit.pi,
        a=tuple(lam * v for v in fit.a),
        b=tuple(lam * v for v in fit.b),
        c=tuple(lam * v for v in fit.c),
    )
    assert verify_structure(CTX, ops, scaled).ok


def test_monic_normalization_is_unique():
    ops = ops_for(ttrr_cq_jacobi(CTX, F(1, 4), F(1, 16)))
    fit1 = fit_structure(CTX, ops, 2, N)
    fit2 = fit_structure(CTX, ops, 2, N)
    assert fit1 == fit2
    assert fit1.pi.lead == 1


def test_power_relations_deg1():
    # b_n = gamma_n and c_n = (b_n - b_{n-1}) sum_{j<n} B_j + pi(0) b_n
    ttrr = ttrr_alsalam_chihara(CTX, F(1, 4), 1)
    fit = fit_structure(CTX, ops_for(ttrr), 1, N)
    pi0 = fit.pi.coeff(0)
    for n in range(1, N + 1):
        s = sum((ttrr.B(j) for j in range(n)), F(0))
        assert fit.b[n] == gamma_n(CTX, n)
        assert fit.c[n] == (fit.b[n] - fit.b[n - 1]) * s + pi0 * fit.b[n]


@pytest.mark.parametrize(
    "ttrr",
    [
        ttrr_chebyshev_t(),
        ttrr_cq_jacobi(CTX, F(1, 4), F(1, 4)),
        ttrr_cq_jacobi(CTX, F(1, 4), F(1, 16)),
    ],
)
def test_power_relations_deg2(ttrr):
    # a_n = gamma_n and b_n = (a_n - a_{n-1}) sum_{j<n} B_j + pi'(0) a_n
    fit = fit_structure(CTX, ops_for(ttrr), 2, N)
    dpi0 = fit.pi.coeff(1)
    for n in range(1, N + 1):
        s = sum((ttrr.B(j) for j in range(n)), F(0))
        assert fit.a[n] == gamma_n(CTX, n)
        assert fit.b[n] == (fit.a[n] - fit.a[n - 1]) * s + dpi0 * fit.a[n]


def test_initial_data_identities_deg2():
    # with r, s the roots of pi: B_0 = b_1 + r + s and c_1 = (B_0-r)(B_0-s),
    # both expressible through the symmetric functions of pi
    for ttrr in (ttrr_chebyshev_t(), ttrr_cq_jacobi(CTX, F(1, 4), F(1, 16))):
        fit = fit_structure(CTX, ops_for(ttrr), 2, N)
        p1, p0 = fit.pi.coeff(1), fit.pi.coeff(0)
        B0, B1 = ttrr.B(0), ttrr.B(1)
        C1 = ttrr.C(1)
        alpha = CTX.alpha
        assert ttrr.B(0) == fit.b[1] - p1  # r + s = -p1
        assert fit.c[1] == evaluate(fit.pi, B0)  # (B0 - r)(B0 - s) = pi(B0)
        assert fit.b[2] == (2 * alpha - 1) * (B0 + B1) + 2 * alpha * p1
        assert p0 * (B0 + B1) == fit.c[2] * B0 - fit.b[2] * (B0 * B1 - C1)
        assert fit.c[2] == fit.b[2] * (B0 + B1) - 2 * alpha * (B0 * B1 - C1) - p1 * (
            B0 + B1
        ) + 2 * alpha * p0


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
def test_five_term_formula_matches_expansion(ttrr, deg):
    ops = ops_for(ttrr)
    fit = fit_structure(CTX, ops, deg, N)
    ft = five_term(CTX, ops, fit)
    assert ft.report.ok and len(ft.report.checks) == ft.horizon + 1
    assert ft.horizon >= 8
    # index conventions at the bottom edge
    assert ft.r4[0] == 0 and ft.r5[0] == 0 and ft.r5[1] == 0
    for n in range(ft.horizon + 1):
        assert ft.r1[n] == fit.a[n + 1] - CTX.alpha * fit.a[n]
        assert ft.g[n] == fit.b[n] + fit.a[n] * ttrr.B(n)
        assert ft.s[n] == fit.c[n] + fit.a[n] * ttrr.C(n)


def test_five_term_chebyshev_r1_example():
    ops = ops_for(ttrr_chebyshev_t())
    fit = fit_structure(CTX, ops, 2, N)
    ft = five_term(CTX, ops, fit)
    assert ft.r1[2] == gamma_n(CTX, 3) - CTX.alpha * gamma_n(CTX, 2)


def test_five_term_qhermite_r1_vanishes():
    ops = ops_for(ttrr_qhermite(CTX))
    fit = fit_structure(CTX, ops, 0, N)
    ft = five_term(CTX, ops, fit)
    assert all(v == 0 for v in ft.r1)


def constant_residual_recurrence(ctx, n_fail, n_max):
    """A recurrence on which pi = 1 fits identities 1..n_fail - 1 exactly
    and leaves at n_fail a nonzero residual whose only nonzero coefficient
    is that of x**0. For pi = 1, a_n = b_n = 0 and c_n = gamma_n, so the
    residual of identity k is D_q P_k - gamma_k P_{k-1}, of degree at most
    k - 2 and affine in (B_{k-1}, C_{k-1}). From k = 3 to n_fail those two
    are solved to cancel its two top coefficients; identity 2 has only its
    constant term, which does not read C_1 and fixes B_1. Later entries
    are arbitrary."""
    b, c = [F(1, 2)], [F(1)]  # B_0, C_1

    def residual(k, b_k, c_k):  # identity k with B_{k-1} = b_k and C_{k-1} = c_k
        spec = TTRRSpec.from_lists(b[: k - 1] + [b_k, 0], c[: k - 2] + [c_k, 1])
        ops = generate_ops(spec, k)
        return structure_residual(ctx, ops, Poly.one(), F(0), F(0), gamma_n(ctx, k), k)

    for k in range(2, n_fail + 1):
        r0, rb, rc = residual(k, 0, 1), residual(k, 1, 1), residual(k, 0, 2)
        # coefficient i of the residual reads u B_{k-1} + v C_{k-1} + w
        u1, v1, w1, u2, v2, w2 = (
            x
            for i in (k - 2, k - 3)
            for x in (rb.coeff(i) - r0.coeff(i), rc.coeff(i) - r0.coeff(i), 2 * r0.coeff(i) - rc.coeff(i))
        )
        if k == 2:
            b.append(-w1 / u1)
            continue
        det = u1 * v2 - u2 * v1
        b.append((w2 * v1 - w1 * v2) / det)
        c.append((u2 * w1 - u1 * w2) / det)
    b += [F(0)] * (n_max + 1 - len(b))
    c += [F(1)] * (n_max - len(c))
    return TTRRSpec.from_lists(b, c)


def test_a_residual_left_only_in_x0_fails_its_index():
    # the integer step compares every coefficient of the residual, the
    # constant term included: at n = 4 it is the only nonzero one
    n_fail = 4
    ops = generate_ops(constant_residual_recurrence(CTX, n_fail, N), N)
    args = [(Poly.one(), F(0), F(0), gamma_n(CTX, n), n) for n in range(1, N + 1)]
    residuals = [residual_oracle(CTX, ops, *arg) for arg in args]
    assert [structure_residual(CTX, ops, *arg) for arg in args] == residuals
    assert not any(residuals[: n_fail - 1])
    assert residuals[n_fail - 1].degree == 0

    fit = fit_structure(CTX, ops, 0, N)
    assert (fit.status, fit.failure_n) == (STATUS_NO_SOLUTION, n_fail)
    assert fit == reference_fit(CTX, ops, 0, N)
    hermite = fit_structure(CTX, ops_for(ttrr_qhermite(CTX)), 0, N)  # pi = 1, c_n = gamma_n
    assert hermite.is_exact and hermite.c == (0,) + tuple(gamma_n(CTX, n) for n in range(1, N + 1))
    first = verify_structure(CTX, ops, hermite).failures()[0]
    assert (first.n, first.witness) == (n_fail, str(residuals[n_fail - 1]))


def test_degenerate_c_status():
    # an artificial exact-fit family with c_1 = 0 would be flagged; build one
    # by bypassing the fitter: structure_residual must still be usable
    ops = ops_for(ttrr_qhermite(CTX))
    res = structure_residual(CTX, ops, Poly.one(), F(0), F(0), gamma_n(CTX, 3), 3)
    assert res == Poly.zero()
    res2 = structure_residual(CTX, ops, Poly.one(), F(0), F(0), gamma_n(CTX, 3) + 1, 3)
    assert res2 != Poly.zero()


def test_fit_rejects_bad_arguments():
    ops = ops_for(ttrr_qhermite(CTX))
    with pytest.raises(ValueError):
        fit_structure(CTX, ops, 3, N)
    with pytest.raises(ValueError):
        fit_structure(CTX, ops, 1, 2)
    with pytest.raises(ValueError):
        fit_structure(CTX, ops, 1, N + 5)


def padded(seq):
    """Accessor n -> seq[n] that reads zero at every negative n, the
    convention for sequences such as a_n, B_n or C_n (with C_0 = 0)."""
    zero = F(0)
    return lambda n: seq[n] if n >= 0 else zero


def reference_five_term(ctx, ops, fit):
    """five_term with the closed coefficients as Fraction closures and every
    index checked against the full expansion of pi * S_q P_n in the P basis
    (the first mismatching basis index k, or k = -1 for a nonzero
    coefficient of an out-of-range P_{n-1} or P_{n-2})."""
    N = fit.horizon
    alpha = ctx.alpha
    ttrr = ops.ttrr
    zero = F(0)
    a, B, C = padded(fit.a), padded(ttrr.b), padded((zero,) + ttrr.c)
    g_seq = tuple(fit.b[n] + fit.a[n] * B(n) for n in range(N + 1))
    s_seq = tuple(fit.c[n] + fit.a[n] * C(n) for n in range(N + 1))
    g, s = padded(g_seq), padded(s_seq)
    horizon = min(N - 1, ops.degree - 2)
    r1, r2, r3, r4, r5, checks = [], [], [], [], [], []
    for n in range(horizon + 1):
        v1 = a(n + 1) - alpha * a(n)
        v2 = g(n + 1) - alpha * g(n) + a(n) * (B(n) - alpha * B(n + 1))
        v3 = (
            s(n + 1)
            - alpha * s(n)
            + g(n) * (1 - alpha) * B(n)
            + a(n - 1) * C(n)
            - alpha * a(n) * C(n + 1)
        )
        v4 = (g(n - 1) - alpha * g(n)) * C(n) + s(n) * (B(n) - alpha * B(n - 1))
        v5 = C(n) * s(n - 1) - alpha * C(n - 1) * s(n)
        formula = [zero] * (n + 3)
        formula[n + 2], formula[n + 1], formula[n] = v1, v2, v3
        if n >= 1:
            formula[n - 1] = v4
        if n >= 2:
            formula[n - 2] = v5
        expanded = ops.expand(fit.pi * sq_apply(ctx, ops[n]))
        expanded += [zero] * (n + 3 - len(expanded))
        k = next((k for k in range(n + 3) if formula[k] != expanded[k]), None)
        if k is None and ((n == 0 and v4 != 0) or (n < 2 and v5 != 0)):
            k = -1
        witness = "" if k is None else f"five-term mismatch at n = {n}, basis index k = {k}"
        checks.append(Check("five-term", n, k is None, witness))
        for out, v in zip((r1, r2, r3, r4, r5), (v1, v2, v3, v4, v5)):
            out.append(v)
    return FiveTermExpansion(
        *map(tuple, (r1, r2, r3, r4, r5)), g_seq, s_seq, horizon, Report(tuple(checks))
    )


@st.composite
def exact_family_fits(draw):
    """(ctx, ttrr, ops, fit): an exact fit to N = n_max - 2 of a regular
    point of one of the four families, in either base, on a table of degree
    n_max. Al-Salam-Chihara points take c/d = q**(+-1/2), which fits."""
    ctx = QContext(draw(st.fractions(min_value=F(1, 9), max_value=F(8, 9), max_denominator=9)))
    family = draw(
        st.sampled_from(["q-hermite", "alsalam-chihara", "chebyshev-t", "continuous-q-jacobi"])
    )
    params = ()
    if family == "alsalam-chihara":
        d = draw(st.fractions(min_value=-3, max_value=3, max_denominator=9).filter(bool))
        params = (("c", d * ctx.t ** draw(st.sampled_from([2, -2]))), ("d", d))
    elif family == "continuous-q-jacobi":
        positive = st.fractions(min_value=F(1, 9), max_value=3, max_denominator=9)
        params = (("p_a", draw(positive)), ("p_b", draw(positive)))
    n_max = draw(st.integers(min_value=7, max_value=12))
    try:
        ttrr = FamilySpec(family, params, draw(st.sampled_from(["q", "q-inverse"]))).to_ttrr(
            ctx, n_max=n_max
        )
    except IrregularParameters:
        assume(False)
    ops = generate_ops(ttrr, n_max)
    fit = fit_auto(ctx, ops, n_max - 2)[-1]
    assume(fit.is_exact)
    return ctx, ttrr, ops, fit


def perturbed_entries(fields):
    """(field, k, delta): which entry to move, and by how much (delta = 0
    leaves the input as it was). Index 0 is drawn often: the conventions
    live there."""
    return st.tuples(
        st.sampled_from(fields),
        st.just(0) | st.integers(min_value=0, max_value=10),
        st.fractions(min_value=-3, max_value=3, max_denominator=9),
    )


@settings(derandomize=True, max_examples=60, deadline=None)
@given(exact_family_fits(), perturbed_entries(["a", "b", "c"]))
def test_five_term_matches_the_expansion_oracle_on_broken_fits(case, entry):
    # index 0 entries included: c_0 != 0 makes r5_1 nonzero while every
    # in-range coefficient of n = 1 still matches, the k = -1 convention
    ctx, _, ops, fit = case
    field, k, delta = entry
    values = list(getattr(fit, field))
    assume(k < len(values))
    values[k] += delta
    broken = replace(fit, **{field: tuple(values)})
    assert five_term(ctx, ops, broken) == reference_five_term(ctx, ops, broken)


def test_five_term_names_k_minus_one_for_an_out_of_range_coefficient():
    ttrr = ttrr_cq_jacobi(CTX, F(1, 4), F(1, 16))
    ops = ops_for(ttrr)
    fit = fit_structure(CTX, ops, 2, N - 2)
    broken = replace(fit, c=(F(1, 7),) + fit.c[1:])
    report = five_term(CTX, ops, broken).report
    assert report == reference_five_term(CTX, ops, broken).report
    assert [(c.n, c.witness) for c in report.failures()][:2] == [
        (0, "five-term mismatch at n = 0, basis index k = 0"),
        (1, "five-term mismatch at n = 1, basis index k = -1"),
    ]
