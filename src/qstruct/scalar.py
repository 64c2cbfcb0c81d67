"""Exact rational scalars and the q-context every derived constant comes from.

Every q-power used in this package is an integer power of t = q**(1/4), so a
single rational t in (0, 1) pins the whole arithmetic field. There is no
floating point anywhere: scalars are `fractions.Fraction` values and all
identities downstream are checked with exact equality. `Ratio`, an
unreduced numerator/denominator pair, evaluates the residuals of the
verification checks without a gcd per operation.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

__all__ = [
    "QContext",
    "as_fraction",
    "parse_rational",
    "format_rational",
]

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions, or "p/q" strings to Fraction; strings follow
    the grammar of `parse_rational`, and a Fraction comes back unchanged.
    Floats are rejected: this package has no inexact mode."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("floating-point values are not accepted; use Fraction or a 'p/q' string")
    if isinstance(value, str):
        return parse_rational(value)
    return Fraction(value)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or plain "p") into an exact rational: after strip(), the
    text must match [+-]?[0-9]+(/[0-9]+)? in ASCII digits. Anything else
    (exponents, decimals, underscores, other digits), a zero denominator
    and a number past the interpreter's digit limit are ValueErrors."""
    m = _RATIONAL.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not a rational p/q string: {text!r}")
    try:
        return Fraction(int(m[1]), int(m[2] or 1))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    except ValueError:  # digits that fail int() exceed the interpreter's digit limit
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"a rational string has a number of more than {limit} digits") from None


def format_rational(x: Fraction) -> str:
    """Render a rational as "p/q", or just "p" when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class Frozen:
    """Base of the package's immutable records. A record is declared by its
    `__slots__`: its fields are the public slots (no leading `_`) along the
    MRO, base first. `__init__` binds them in that order, positionally or
    by keyword, and the last len(_defaults) of them are optional. Two
    records are equal when they are of the same class and all their fields
    are equal; a record is unhashable unless its class defines `__hash__`.
    A class that validates or builds its data defines its own `__init__`,
    setting its slots once through object.__setattr__. Any later assignment
    or deletion raises AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _setters: tuple = ()
    _defaults: tuple = ()

    def __init_subclass__(cls) -> None:
        slots = [n for c in reversed(cls.__mro__) for n in vars(c).get("__slots__", ())]
        cls._fields = tuple(n for n in slots if not n.startswith("_"))
        # each field's slot descriptor stores the value without a name lookup
        cls._setters = tuple(getattr(cls, n).__set__ for n in cls._fields)

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for put, value in zip(setters, args):
            put(self, value)

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """The field values of a call other than one positional value per
        field; a TypeError for what a signature would refuse."""
        cls, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls}() takes {len(fields)} arguments but {len(args)} were given")
        given = dict(zip(fields, args))
        for name in kwargs:
            if name not in fields:
                raise TypeError(f"{cls}() got an unexpected keyword argument {name!r}")
            if name in given:
                raise TypeError(f"{cls}() got multiple values for argument {name!r}")
        optional = fields[len(fields) - len(self._defaults) :]
        values = {**dict(zip(optional, self._defaults)), **given, **kwargs}
        missing = [name for name in fields if name not in values]
        if missing:
            raise TypeError(f"{cls}() missing required arguments: {', '.join(missing)}")
        return [values[name] for name in fields]

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        fields = self._fields
        return [getattr(self, n) for n in fields] == [getattr(other, n) for n in fields]

    def __repr__(self) -> str:
        """Class name and fields, so a failing comparison shows them;
        nothing in the package reads a repr."""
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({fields})"


class Ratio:
    """An unreduced rational num / den with den > 0, for residuals that are
    only ever tested against zero. A sum or product costs integer
    multiplications and no gcd: a product is num * num over den * den, and
    a sum over equal denominators adds the numerators. The value is zero
    exactly when num is, and `fraction` normalizes it (for a witness)."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        self.num, self.den = num, den

    @classmethod
    def of(cls, value: Fraction) -> "Ratio":
        return cls(value.numerator, value.denominator)

    def fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __add__(self, other: "Ratio") -> "Ratio":
        if self.den == other.den:
            return Ratio(self.num + other.num, self.den)
        return Ratio(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "Ratio") -> "Ratio":
        if self.den == other.den:
            return Ratio(self.num - other.num, self.den)
        return Ratio(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other) -> "Ratio":
        if type(other) is int:
            return Ratio(self.num * other, self.den)
        return Ratio(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__


class QContext(Frozen):
    """Base-field data for a fixed q = t**4 with 0 < q < 1.

    t is the quarter power q**(1/4). Derived constants:

      alpha = (q**(1/2) + q**(-1/2)) / 2, always > 1,
      u     = 1 / (q**(1/2) - q**(-1/2)), negative for 0 < q < 1.

    alpha is pinned by the operator action D_q x**2 = 2*alpha*x, and u by
    u * (q**(1/2) - q**(-1/2)) = 1; both identities are asserted in the test
    suite. Values are immutable and all operations on them are pure, so a
    context can be shared freely across threads. A context compares and
    hashes by t. It holds the operator rows that `awops` grows for it in
    `_rows`, unset until their first read, and they live exactly as long
    as the context. The hash of t and the derived constants are computed
    once, at construction, since an OPS table looks up its images by
    context on every read and the layers above read the constants many
    times per context.
    """

    __slots__ = ("t", "_hash", "_q", "_q_half", "_alpha", "_u", "_rows")

    def __init__(self, t: Fraction) -> None:
        t = as_fraction(t)
        if not 0 < t < 1:
            raise ValueError(f"q**(1/4) must lie in (0, 1), got {t}")
        s = t * t
        put = object.__setattr__
        put(self, "t", t)
        put(self, "_hash", hash(t))
        put(self, "_q", s * s)
        put(self, "_q_half", s)
        put(self, "_alpha", (s + 1 / s) / 2)
        put(self, "_u", 1 / (s - 1 / s))

    def __hash__(self) -> int:
        return self._hash

    @property
    def q(self) -> Fraction:
        return self._q

    @property
    def q_half(self) -> Fraction:
        return self._q_half

    @property
    def alpha(self) -> Fraction:
        return self._alpha

    @property
    def u(self) -> Fraction:
        return self._u

