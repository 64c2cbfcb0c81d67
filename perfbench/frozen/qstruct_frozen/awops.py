"""The Askey-Wilson divided-difference operator D_q and averaging operator S_q.

Both operators act on f through the symmetric substitution x = (z + 1/z)/2:
write bf(z) = f((z + 1/z)/2), then

    D_q f = (bf(q**(1/2) z) - bf(q**(-1/2) z)) / (be(q**(1/2) z) - be(q**(-1/2) z)),
    S_q f = (bf(q**(1/2) z) + bf(q**(-1/2) z)) / 2,

where e(x) = x. Since T_k((z + 1/z)/2) = (z**k + z**-k)/2, the substitution
z -> q**(1/2) z gives the closed actions

    S_q T_k = alpha_k T_k,
    D_q T_k = gamma_k * U*_{k-1},   U*_{k-1} = (z**k - z**-k)/(z - 1/z),

with U*_{k-1} the degree-(k-1) second-kind Chebyshev polynomial. The apply
functions below work through that T-basis route. The *_oracle functions
instead evaluate the defining quotient literally at a rational sample point
z; they share no code with the basis route and back every test of it.

All functions are pure; nothing here mutates its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from qstruct_frozen.poly import Poly, from_cheb, to_cheb
from qstruct_frozen.scalar import QContext, alpha_n, as_fraction, gamma_n

__all__ = [
    "DegenerateSamplePoint",
    "LatticePolys",
    "lattice_polys",
    "dq_apply",
    "sq_apply",
    "dq_oracle",
    "sq_oracle",
]


class DegenerateSamplePoint(ValueError):
    """The z-substitution denominator vanishes at the requested sample point."""


@dataclass(frozen=True)
class LatticePolys:
    """The companion polynomials of the quadratic lattice.

    u1(x) = (alpha**2 - 1) * x and u2(x) = (alpha**2 - 1) * (x**2 - 1) are the
    unique choices making the averaging product rule

        S_q(f*g) = S_q(f) S_q(g) + u2 * D_q(f) D_q(g)

    hold; the test suite validates that identity (and the D_q product rule)
    before anything downstream relies on operator algebra.
    """

    u1: Poly
    u2: Poly


def lattice_polys(ctx: QContext) -> LatticePolys:
    s = ctx.alpha**2 - 1
    return LatticePolys(
        u1=Poly((Fraction(0), s)),
        u2=Poly((-s, Fraction(0), s)),
    )


def dq_apply(ctx: QContext, f: Poly) -> Poly:
    """Askey-Wilson divided difference of f. Exact; degree drops by one and
    the leading coefficient picks up the factor gamma_{deg f}."""
    c = to_cheb(f)
    if len(c) <= 1:
        return Poly.zero()
    out = [Fraction(0)] * (len(c) - 1)
    for k in range(1, len(c)):
        g = c[k] * gamma_n(ctx, k)
        if g == 0:
            continue
        # U*_{k-1} in the T basis: coefficient 2 at k-1, k-3, ... (1 at T_0)
        j = k - 1
        while j >= 0:
            out[j] += g if j == 0 else 2 * g
            j -= 2
    return from_cheb(out)


def sq_apply(ctx: QContext, f: Poly) -> Poly:
    """Averaging operator: diagonal in the T basis, S_q T_k = alpha_k T_k.
    Degree is preserved; the leading coefficient is scaled by alpha_{deg f}."""
    c = to_cheb(f)
    return from_cheb([ck * alpha_n(ctx, k) for k, ck in enumerate(c)])


def _shift_points(ctx: QContext, z: Fraction) -> tuple[Fraction, Fraction]:
    """x-images of the two lattice shifts, ((w + 1/w)/2 for w = q**(+-1/2) z)."""
    w_up = ctx.q_half * z
    w_dn = z / ctx.q_half
    return (w_up + 1 / w_up) / 2, (w_dn + 1 / w_dn) / 2


def dq_oracle(ctx: QContext, f: Poly, sample_z) -> Fraction:
    """Literal divided-difference quotient at x = (z + 1/z)/2.

    Independent brute-force route: no Chebyshev machinery is involved, so the
    value can be compared against eval(dq_apply(f), (z + 1/z)/2) as a genuine
    cross-check. The denominator vanishes exactly for z in {0, +1, -1}.
    """
    z = as_fraction(sample_z)
    if z == 0:
        raise DegenerateSamplePoint("z = 0 is not on the lattice")
    e_up, e_dn = _shift_points(ctx, z)
    den = e_up - e_dn
    if den == 0:
        raise DegenerateSamplePoint(f"substitution denominator vanishes at z = {z}")
    return (f.eval(e_up) - f.eval(e_dn)) / den


def sq_oracle(ctx: QContext, f: Poly, sample_z) -> Fraction:
    """Literal shift average at x = (z + 1/z)/2; counterpart of `dq_oracle`."""
    z = as_fraction(sample_z)
    if z == 0:
        raise DegenerateSamplePoint("z = 0 is not on the lattice")
    e_up, e_dn = _shift_points(ctx, z)
    return (f.eval(e_up) + f.eval(e_dn)) / 2
