"""The Askey-Wilson divided-difference operator D_q and averaging operator S_q.

Both operators act on f through the symmetric substitution x = (z + 1/z)/2:
write bf(z) = f((z + 1/z)/2), then

    D_q f = (bf(q**(1/2) z) - bf(q**(-1/2) z)) / (be(q**(1/2) z) - be(q**(-1/2) z)),
    S_q f = (bf(q**(1/2) z) + bf(q**(-1/2) z)) / 2,

where e(x) = x. The apply functions are exact matrix-vector products against
the power-basis rows D_q x**k and S_q x**k, which come from the g = x
product rules,

    D_q(x f) = S_q f + alpha x D_q f,
    S_q(x f) = alpha x S_q f + (alpha**2 - 1)(x**2 - 1) D_q f,

starting from D_q 1 = 0 and S_q 1 = 1, run on integers. Write
alpha = an/ad in lowest terms and w = an**2 - ad**2, and carry the integer
vectors dt_k = ad**(k-1) D_q x**k and st_k = ad**k S_q x**k. Multiplying
the rules for f = x**k by ad**k gives

    dt_{k+1} = st_k + an x dt_k,
    st_{k+1} = an x st_k + w (x**2 - 1) dt_k,

with dt_0 = 0 and st_0 = 1: no division, so both stay integer vectors.
Each row is stored as that pair, D_q x**k as (dt_k, ad**(k-1)) (over 1 at
k = 0) and S_q x**k as (st_k, ad**k), with no gcd, and a table grows from
its last stored vectors. An image is summed as one integer vector over
the power of ad of the highest row it reads, which every lower row's
denominator divides.

The rows are stored on their context, so every call within one problem
shares them; they grow to the degree a call needs and live as long as the
context. `operator_rows` hands them out: they are the monomial images,
which the Pearson check reads directly. The D rows also give the images
D_q P_n that `verify` reads, and their top entries the windows of D_q P_n
that the fits read (see `structure`). The S rows serve the Pearson check
and `sq_apply` callers only: the five-term check takes pi S_q P_n from the
D_q P_n images by the product rule above (see `structure`).

Only `dq_apply` and `sq_apply` normalize an image. The OPS table stores
D_q P_n as `dq_image` returns it, with no gcd: every reader multiplies it
by pi and decides on integers, and at N = 24 the gcds would cost as much
as the row products while removing about 4 % of the bits.

The closed actions in the Chebyshev-T basis, S_q T_k = alpha_k T_k and
D_q T_k = gamma_k U*_{k-1} (Ismail, ch. 12), are the test suite's reference
for the rows. The tests also evaluate the defining quotients literally at
rational sample points z, sharing no code with either route.

All functions are pure; nothing here mutates its inputs, and the rows a
context keeps change no result.
"""

from __future__ import annotations

from qstruct.poly import Poly
from qstruct.scalar import QContext

__all__ = ["operator_rows", "dq_image", "dq_apply", "sq_apply"]

_DEGREE_0 = ((((), 1),), (((1,), 1),))  # D_q 1 = 0, S_q 1 = 1


def operator_rows(ctx: QContext, n: int) -> tuple[tuple, tuple]:
    """(D, S) with D[k] = D_q x**k and S[k] = S_q x**k for k = 0..n at least,
    from the rows stored on this context. Each row is a pair (nums, den),
    integer numerators over a power of ad, not normalized: D[k] is
    (dt_k, ad**(k-1)), over 1 at k = 0, and S[k] is (st_k, ad**k), built by
    the integer recurrence of the module docstring.

    A stored table is never changed: a longer one is built from a snapshot
    of the shorter one and stored on the context with one assignment, so
    concurrent callers each hold a complete table, whichever stores last.
    """
    table = getattr(ctx, "_rows", _DEGREE_0)
    if len(table[0]) > n:
        return table
    d_rows, s_rows = list(table[0]), list(table[1])
    alpha = ctx.alpha
    an, ad = alpha.numerator, alpha.denominator
    w = an * an - ad * ad
    # resume from the last stored vectors; D row k + 1 is over S row k's power
    (dt, _), (st, power) = d_rows[-1], s_rows[-1]
    for _ in range(len(d_rows) - 1, n):  # dt_{k+1}, st_{k+1} from dt_k, st_k
        dt, st = (
            tuple([s + an * d for s, d in zip(st, (0, *dt))]),
            tuple([an * s + w * (d2 - d) for s, d2, d in zip((0, *st), (0, 0, *dt), (*dt, 0, 0))]),
        )
        d_rows.append((dt, power))
        power *= ad
        s_rows.append((st, power))
    table = (tuple(d_rows), tuple(s_rows))
    object.__setattr__(ctx, "_rows", table)
    return table


def _image(rows: tuple, f: Poly, drop: int) -> tuple[list[int], int]:
    """sum_k f_k * rows[k] as integer numerators over the denominator of the
    highest row read times f.den, not normalized. Row k has degree k - drop
    and the parity of k - drop, so only every other entry of it is read."""
    cs = f.nums
    used = [k for k in range(drop, len(cs)) if cs[k]]
    den = rows[used[-1]][1] if used else 1
    out = [0] * (len(cs) - drop)
    for k in used:
        nums, row_den = rows[k]
        m = cs[k] * (den // row_den)
        j = (k - drop) % 2
        out[j : k - drop + 1 : 2] = [o + m * r for o, r in zip(out[j::2], nums[j::2])]
    return out, den * f.den


def dq_image(ctx: QContext, f: Poly) -> tuple[list[int], int]:
    """D_q f as integer numerators over a positive denominator, not
    normalized: the sum that `dq_apply` normalizes, for the OPS table's
    stored images (see the module docstring)."""
    return _image(operator_rows(ctx, len(f.nums) - 1)[0], f, 1)


def dq_apply(ctx: QContext, f: Poly) -> Poly:
    """Askey-Wilson divided difference of f. Exact; degree drops by one and
    the leading coefficient picks up the factor gamma_{deg f}. Computed as
    sum_k f_k D_q x**k over the context's rows."""
    return Poly.from_ints(*dq_image(ctx, f))


def sq_apply(ctx: QContext, f: Poly) -> Poly:
    """Averaging operator. Degree is preserved; the leading coefficient is
    scaled by alpha_{deg f}. Computed as sum_k f_k S_q x**k over the
    context's rows."""
    return Poly.from_ints(*_image(operator_rows(ctx, len(f.nums) - 1)[1], f, 0))
