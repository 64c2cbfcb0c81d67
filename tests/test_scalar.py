import gc
import weakref
from fractions import Fraction as F

import pytest

from qstruct.report import Check, Report
from qstruct.scalar import (
    QContext,
    as_fraction,
    format_rational,
    parse_rational,
)

CTX = QContext(F(1, 2))  # q = 1/16


def qpow(ctx: QContext, k: int) -> F:
    """q**(k/4) as an exact rational, for any integer k (negative allowed)."""
    return ctx.t**k


def gamma_n(ctx: QContext, n: int) -> F:
    """q-bracket (q**(n/2) - q**(-n/2)) / (q**(1/2) - q**(-1/2)).

    gamma_0 = 0, gamma_1 = 1, and the sequence solves the recurrence
    x_{n+2} - 2*alpha*x_{n+1} + x_n = 0. It is the eigenfactor by which the
    divided-difference operator lowers a degree-n leading term.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    num = ctx.t ** (2 * n) - ctx.t ** (-2 * n)
    den = ctx.t**2 - ctx.t**-2
    return num / den


def alpha_n(ctx, n):
    """Reference (q**(n/2) + q**(-n/2)) / 2. alpha_0 = 1 and
    alpha_1 = ctx.alpha; S_q scales a degree-n leading term by this factor."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return (ctx.t ** (2 * n) + ctx.t ** (-2 * n)) / 2


def test_context_constants():
    assert CTX.q == F(1, 16)
    assert CTX.q_half == F(1, 4)
    assert CTX.alpha == F(17, 8)
    assert CTX.alpha > 1
    assert CTX.u * (CTX.q_half - 1 / CTX.q_half) == 1


@pytest.mark.parametrize("bad", [F(0), F(1), F(3, 2), F(-1, 2)])
def test_context_rejects_t_outside_unit_interval(bad):
    with pytest.raises(ValueError):
        QContext(bad)


def test_qpow_examples():
    assert qpow(CTX, 0) == 1
    assert qpow(CTX, 4) == F(1, 16)
    assert qpow(CTX, -2) == 4


def test_qpow_inverse_pairs():
    for k in range(-20, 21):
        assert qpow(CTX, k) * qpow(CTX, -k) == 1


def test_gamma_anchors():
    assert gamma_n(CTX, 0) == 0
    assert gamma_n(CTX, 1) == 1
    # (q^{1/2} + q^{-1/2}) for n = 2, by brute expansion
    assert gamma_n(CTX, 2) == F(17, 4)


def test_alpha_anchors():
    assert alpha_n(CTX, 0) == 1
    assert alpha_n(CTX, 1) == F(17, 8)
    assert alpha_n(CTX, 1) == CTX.alpha
    assert alpha_n(CTX, 2) == F(257, 32)


@pytest.mark.parametrize("ctx", [CTX, QContext(F(1, 3)), QContext(F(3, 4))])
def test_shared_three_term_recurrence(ctx):
    # gamma and alpha solve the same recurrence x_{n+2} = 2 alpha x_{n+1} - x_n
    for n in range(30):
        assert gamma_n(ctx, n + 2) == 2 * ctx.alpha * gamma_n(ctx, n + 1) - gamma_n(ctx, n)
        assert alpha_n(ctx, n + 2) == 2 * ctx.alpha * alpha_n(ctx, n + 1) - alpha_n(ctx, n)


def test_alpha_gamma_pythagorean_identity():
    # alpha_n^2 - 1 = gamma_n^2 (alpha^2 - 1), exact for n <= 50
    for ctx in (CTX, QContext(F(2, 3))):
        s = ctx.alpha**2 - 1
        for n in range(51):
            assert alpha_n(ctx, n) ** 2 - 1 == gamma_n(ctx, n) ** 2 * s


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        gamma_n(CTX, -1)
    with pytest.raises(ValueError):
        alpha_n(CTX, -3)


def test_rational_round_trip():
    for s in ["3/4", "-7/2", "5", "0", "-12"]:
        assert format_rational(parse_rational(s)) == s
    assert format_rational(F(6, 4)) == "3/2"


def test_floats_rejected():
    with pytest.raises(TypeError):
        as_fraction(0.5)
    with pytest.raises(TypeError):
        QContext(0.5)


def test_parse_rational_accepts_only_the_documented_grammar():
    # [+-]?[0-9]+(/[0-9]+)? after strip(); Fraction() alone would also take
    # exponents, decimals, underscores and non-ASCII digits
    for text, value in [(" -3/4\n", F(-3, 4)), ("+7", F(7)), ("007/010", F(7, 10))]:
        assert parse_rational(text) == value
    for text in ["1e-400", "0.5", "1.", "1_000", "١/٢", "½", "1/ 2", "/2", "1/", "1/2/3", "", "nan"]:
        with pytest.raises(ValueError, match="not a rational p/q string"):
            parse_rational(text)
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")


def test_as_fraction_reads_strings_by_the_rational_grammar():
    # library inputs (QContext, TTRRSpec.from_lists, the family generators)
    # coerce through as_fraction, so they take exactly the strings the CLI does
    assert as_fraction(" -3/4\n") == F(-3, 4)
    assert as_fraction(7) == F(7) and as_fraction(F(2, 6)) == F(1, 3)
    value = F(-3, 4)
    assert as_fraction(value) is value  # a Fraction is not rebuilt
    for text in ["1e-3", "1_0", "0.5", "١/٢"]:
        with pytest.raises(ValueError, match=f"not a rational p/q string: {text!r}"):
            as_fraction(text)
    with pytest.raises(ValueError, match="zero denominator"):
        as_fraction("1/0")
    with pytest.raises(ValueError, match="not a rational p/q string: '0.5'"):
        QContext("0.5")
    assert QContext("1/2") == CTX


def test_a_record_repr_names_its_public_fields():
    check = Check("pearson", 3, False, "Pearson identity fails at n = 3")
    text = "Check(name='pearson', n=3, passed=False, witness='Pearson identity fails at n = 3')"
    assert repr(check) == text
    assert repr(Report((check,))) == f"Report(checks=({text},))"
    assert repr(QContext(F(1, 2))) == "QContext(t=Fraction(1, 2))"  # no __weakref__


@pytest.mark.parametrize("t", [F(1, 2), F(2, 3), F(13, 29), F(28, 29)])
def test_the_derived_constants_are_their_powers_of_t(t):
    # computed once, at construction, and read back as stored
    ctx = QContext(t)
    assert (ctx.q, ctx.q_half) == (t**4, t**2)
    assert (ctx.alpha, ctx.u) == ((t**2 + t**-2) / 2, 1 / (t**2 - t**-2))
    assert all(type(v) is F for v in (ctx.q, ctx.q_half, ctx.alpha, ctx.u))
    assert ctx.alpha is ctx.alpha and ctx.u is ctx.u


def test_a_context_hashes_by_t_and_stays_immutable_and_weakly_referenceable():
    # the hash is taken once, at construction, and equal contexts hash equal
    for first, second in [(F(1, 2), "1/2"), (F(2, 6), F(1, 3)), (F(7, 23), "7/23")]:
        a, b = QContext(first), QContext(second)
        assert a == b and hash(a) == hash(b) == hash(a.t)
    ctx = QContext(F(2, 3))
    for name in ("t", "_hash", "_q", "_q_half", "_alpha", "_u"):
        with pytest.raises(AttributeError, match="QContext is immutable"):
            setattr(ctx, name, F(1, 3))
        with pytest.raises(AttributeError, match="QContext is immutable"):
            delattr(ctx, name)
    assert ctx.t == F(2, 3) and hash(ctx) == hash(F(2, 3))
    rows = weakref.WeakKeyDictionary({ctx: "rows"})
    assert rows[QContext("2/3")] == "rows"
    ref = weakref.ref(ctx)
    assert ref() is ctx
    del ctx
    gc.collect()
    assert ref() is None and len(rows) == 0
