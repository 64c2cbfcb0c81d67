"""Exact rational scalars and the q-context every derived constant comes from.

Every q-power used in this package is an integer power of t = q**(1/4), so a
single rational t in (0, 1) pins the whole arithmetic field. There is no
floating point anywhere: scalars are `fractions.Fraction` values and all
identities downstream are checked with exact equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Rational",
    "QContext",
    "qpow",
    "gamma_n",
    "alpha_n",
    "as_fraction",
    "parse_rational",
    "format_rational",
]

Rational = Fraction


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions, or "p/q" strings to Fraction. Floats are
    rejected: this package has no inexact mode."""
    if isinstance(value, float):
        raise TypeError("floating-point values are not accepted; use Fraction or a 'p/q' string")
    return Fraction(value)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or plain "p") into an exact rational."""
    return Fraction(text.strip())


def format_rational(x: Fraction) -> str:
    """Render a rational as "p/q", or just "p" when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class QContext:
    """Base-field data for a fixed q = t**4 with 0 < q < 1.

    t is the quarter power q**(1/4). Derived constants:

      alpha = (q**(1/2) + q**(-1/2)) / 2, always > 1,
      u     = 1 / (q**(1/2) - q**(-1/2)), negative for 0 < q < 1.

    alpha is pinned by the operator action D_q x**2 = 2*alpha*x, and u by
    u * (q**(1/2) - q**(-1/2)) = 1; both identities are asserted in the test
    suite. Values are immutable and all operations on them are pure, so a
    context can be shared freely across threads.
    """

    t: Fraction

    def __post_init__(self) -> None:
        t = as_fraction(self.t)
        if not 0 < t < 1:
            raise ValueError(f"q**(1/4) must lie in (0, 1), got {t}")
        object.__setattr__(self, "t", t)

    @property
    def q(self) -> Fraction:
        return self.t**4

    @property
    def q_half(self) -> Fraction:
        return self.t**2

    @property
    def alpha(self) -> Fraction:
        return (self.t**2 + self.t**-2) / 2

    @property
    def u(self) -> Fraction:
        return 1 / (self.t**2 - self.t**-2)


def qpow(ctx: QContext, k: int) -> Fraction:
    """q**(k/4) as an exact rational, for any integer k (negative allowed)."""
    return ctx.t**k


def gamma_n(ctx: QContext, n: int) -> Fraction:
    """q-bracket (q**(n/2) - q**(-n/2)) / (q**(1/2) - q**(-1/2)).

    gamma_0 = 0, gamma_1 = 1, and the sequence solves the same recurrence
    x_{n+2} - 2*alpha*x_{n+1} + x_n = 0 as alpha_n. It is the eigenfactor by
    which the divided-difference operator lowers a degree-n leading term.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    num = ctx.t ** (2 * n) - ctx.t ** (-2 * n)
    den = ctx.t**2 - ctx.t**-2
    return num / den


def alpha_n(ctx: QContext, n: int) -> Fraction:
    """(q**(n/2) + q**(-n/2)) / 2. alpha_0 = 1 and alpha_1 = ctx.alpha; the
    averaging operator scales a degree-n leading term by this factor."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return (ctx.t ** (2 * n) + ctx.t ** (-2 * n)) / 2
