"""The generalized transform of a function pair and its five-value certificate.

For a pair {f, g} the transform is

    F(a, b, c) = sum over x in GF(2^n) of (-1)^Tr(a*x + b*f(x) + c*g(x))

scanned over all a and all nonzero b, c.  One kernel, `transform_rows`,
computes every row (b, c) that a scan needs, one b against a batch of c,
in two steps (the one-table strata stack their sign rows into the same
transform):

* Signs by bit parity, one table at a time.  Tr(c*y) = parity(lambda(c) & y),
  where lambda(c) is the n-bit mask with bit j = Tr(c*alpha^j), so `_signs`
  builds the rows (-1)^Tr(c*h(x)) = 1 - 2 parity(lambda(c) & h(x)) of one
  table h straight into float32, with lambda computed once per coefficient,
  never per cell.  Since Tr(b*f + c*g) = Tr(b*f) + Tr(c*g), the sign row of
  (b, c) is the product of the b row of f and the c row of g.
* Walsh-Hadamard transform by matrix products.  The Sylvester matrix
  factors as H_(2^n) = H_(2^p) (x) H_(2^q), p = floor(n/2), q = n - p, so a
  row reshaped to X of shape (2^p, 2^q) transforms to H_p X H_q.  The
  products run in float32 and are exact: every partial sum is an integer of
  magnitude at most 2^n <= 2^17 < 2^24, so no summation order, blocking or
  thread count can round it (the bound is checked).  The products stay
  stacked, one (2^p, 2^q) matrix per row, rather than one 2-D product over
  the whole batch: a large threaded 2-D product was seen to stall for
  milliseconds in some processes, the stacked form was not.  The second
  product is written over the sign rows, so a row costs one float32
  temporary, not two.

The transform pairs x against the plain dot-product functional
parity(a & x) instead of Tr(a*x); since a -> Tr(a*.) runs over all linear
functionals exactly once, the two value multisets over a coincide up to a
permutation of the a index.  Everything certified here (value sets,
multisets, histograms) is permutation-invariant; per-index values always
come from the naive sum.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache
from math import gcd

import numpy as np

from .field import FieldCtx
from .functions import MonomialPair, power_exponent

# Bound on the rows x 2^n cells of one transform_rows batch in the scans:
# 256 rows at n = 13, 64 at n = 15.
_BATCH_CELLS = 1 << 21

# float32 holds every integer of magnitude <= 2^24 exactly, so a transform
# of +-1 rows at most this wide is exact in any summation order.
_F32_EXACT_WIDTH = 1 << 24


def allowed_values(n: int) -> set[int]:
    """The five-value set {0, +-2^((n+1)/2), +-2^((n+3)/2)} for odd n."""
    lo = 1 << ((n + 1) // 2)
    hi = 1 << ((n + 3) // 2)
    return {0, lo, -lo, hi, -hi}


def record(obj, **override) -> dict:
    """A dataclass's fields by name, in declaration order, with the values of
    override in place of theirs; shallow, so no list is copied."""
    return {f.name: override.get(f.name, getattr(obj, f.name)) for f in fields(obj)}


@dataclass
class SpectrumReport:
    """Histogram of transform values over all (a, b, c) with b, c nonzero."""

    histogram: dict[int, int]
    five_valued: bool
    witness: tuple[int, int, int] | None = None

    def to_json_dict(self) -> dict:
        return record(self, histogram=[[v, c] for v, c in sorted(self.histogram.items())],
                      witness=list(self.witness) if self.witness else None)


def transform_single(ctx: FieldCtx, pair: MonomialPair, a, b, c):
    """Direct O(2^n) evaluation of F(a, b, c).  The reference oracle.

    a, b and c broadcast against each other: int arguments give an int,
    array arguments an int64 array of F over the broadcast shape.
    """
    a, b, c = (np.asarray(v, dtype=np.int64)[..., None] for v in (a, b, c))
    xs = np.arange(ctx.order)
    masked = ctx.mul_array(a, xs) ^ ctx.mul_array(b, pair.f_np) ^ ctx.mul_array(c, pair.g_np)
    total = ctx.order - 2 * ctx.trace_table[masked].sum(axis=-1, dtype=np.int64)
    return int(total) if total.ndim == 0 else total


@cache
def _sylvester(k: int) -> np.ndarray:
    """The Sylvester Hadamard matrix H_(2^k), entry (i, j) = (-1)^parity(i & j),
    read-only since every caller shares it."""
    idx = np.arange(1 << k, dtype=np.uint32)
    h = 1 - 2 * (np.bitwise_count(idx[:, None] & idx) & 1).astype(np.float32)
    h.flags.writeable = False
    return h


def _walsh_hadamard(signs: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform of float32 +-1 rows along the last axis, as
    the stacked products H_p X H_q (see the module docstring).  The values
    are int16 up to width 2^13 and int32 above, as they reach +-width.  The
    second product is written over the rows, so signs is used up."""
    m, width = signs.shape
    if width > _F32_EXACT_WIDTH:
        raise ArithmeticError(f"rows of width {width} leave the exact float32 range")
    n = width.bit_length() - 1
    p = n // 2
    x = signs.reshape(m, 1 << p, 1 << (n - p))
    np.matmul(np.matmul(_sylvester(p), x), _sylvester(n - p), out=x)
    return x.reshape(m, width).astype(np.int16 if width < (1 << 15) else np.int32)


def _trace_masks(ctx: FieldCtx, cs) -> np.ndarray:
    """lambda(c) for each c: the n-bit mask with bit j = Tr(c*alpha^j), so
    Tr(c*y) = parity(lambda(c) & y)."""
    basis = 1 << np.arange(ctx.n)  # alpha^j
    traces = ctx.trace_table[ctx.mul_array(np.asarray(cs)[..., None], basis)]
    return (traces * basis).sum(axis=-1).astype(np.uint32)


def _signs(ctx: FieldCtx, h_np: np.ndarray, cs) -> np.ndarray:
    """(-1)^Tr(c*h(x)) in float32, one row per c in cs (a scalar c gives a
    single row of shape (2^n,)), as 1 - 2 parity(lambda(c) & h(x))."""
    parity = np.bitwise_count(_trace_masks(ctx, cs)[..., None] & h_np.astype(np.uint32))
    parity &= 1
    signs = parity.astype(np.float32)
    signs *= -2
    signs += 1
    return signs


def transform_rows(
    ctx: FieldCtx, f_np: np.ndarray, g_np: np.ndarray, b: int, cs
) -> np.ndarray:
    """Walsh-Hadamard rows of (-1)^Tr(b*f(x) + c*g(x)), one row per c in cs.

    Row i is the multiset of F(a, b, cs[i]) over a (see the module
    docstring).  Values are int16 up to n = 13 and int32 above, so widen
    before squaring.
    """
    signs = _signs(ctx, g_np, cs)
    signs *= _signs(ctx, f_np, b)
    return _walsh_hadamard(signs)


def spectrum_for_bc(ctx: FieldCtx, pair: MonomialPair, b: int, c: int) -> np.ndarray:
    """All 2^n transform values for fixed (b, c), via the transform kernel.

    As a multiset this equals {transform_single(a, b, c) : a in L}; the
    per-index correspondence is permuted (see module docstring).
    """
    return transform_rows(ctx, pair.f_np, pair.g_np, b, [c])[0]


def _value_counts(order: int, rows: np.ndarray) -> np.ndarray:
    """counts[i] is how often value 2*i - 2^n occurs in rows."""
    return np.bincount((rows.ravel().astype(np.int64) + order) >> 1, minlength=order + 1)


def _as_histogram(order: int, counts: np.ndarray) -> dict[int, int]:
    seen = np.flatnonzero(counts)
    return dict(zip((2 * seen - order).tolist(), counts[seen].tolist()))


def _batches(n: int, count: int):
    """range(count) in order, in slices of at most _BATCH_CELLS >> n rows."""
    step = max(1, _BATCH_CELLS >> n)
    for lo in range(0, count, step):
        yield slice(lo, min(lo + step, count))


def frobenius_orbits(ctx: FieldCtx, cs, bs=0) -> tuple[np.ndarray, np.ndarray]:
    """The least key b * 2^n + c over the Frobenius orbit {(b^(2^j), c^(2^j))}
    of each pair of bs and cs, and the orbit's size, n over the number of j
    in [0, n) that fix the pair; at b = 0, the cyclotomic coset of c."""
    b, c, fixed = np.asarray(bs), np.asarray(cs), 1
    key = low = b << ctx.n | c
    for _ in range(1, ctx.n):
        b, c = ctx.mul_array(b, b), ctx.mul_array(c, c)  # the images under x -> x^(2^j)
        image = b << ctx.n | c
        low, fixed = np.minimum(low, image), fixed + (image == key)
    return low, ctx.n // fixed


def frobenius_reps(ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray]:
    """The cyclotomic cosets of L*: each coset's least element, ascending,
    and its size.  b = 0 goes in as a scalar, so no array of zeros is
    squared."""
    cs = np.arange(1, ctx.order)
    leaders, sizes = frobenius_orbits(ctx, cs)
    return cs[leaders == cs], sizes[leaders == cs]


def fold_keys(ctx: FieldCtx, pair: MonomialPair, a, b, c) -> np.ndarray:
    """The key c' * 2^n + a' of the cell (a', 1, c') that x -> lambda*x,
    lambda = b^(-1/d1), and squaring fold each (a, b, c) onto: c' the coset
    leader of lambda^d2 * c and a' the least image of lambda * a under the
    powers of squaring that take lambda^d2 * c to c'."""
    N = ctx.group_order
    lam = ctx.pow_array(b, -pow(pair.d1, -1, N) % N)
    c_scaled = ctx.mul_array(c, ctx.pow_array(lam, pair.d2))
    return frobenius_orbits(ctx, ctx.mul_array(a, lam), c_scaled)[0]


def scaling_reps(ctx: FieldCtx, d: int | None) -> tuple[np.ndarray, int]:
    """The g^i, i < e = gcd(d, 2^n - 1), onto which x -> lambda*x folds the
    nonzero coefficients of the power map x^d, and the (2^n - 1)/e that each
    stands for; d = None (no power map) keeps every coefficient."""
    e = gcd(d, ctx.group_order) if d else ctx.group_order
    return ctx.pow_array(ctx.generator, np.arange(e)), ctx.group_order // e


def orbit_rows(ctx: FieldCtx, d1: int):
    """The rows (b, cs) that stand for every (b, c) in L* x L* when f is the
    power map x^d1 and g a power map too, each with weights: the number of
    (b, c) that each of its c stands for.

    The substitution x -> lambda*x gives F(a, b, c) = F(lambda*a,
    lambda^d1*b, lambda^d2*c), so every b row has the values of a row b of
    `scaling_reps(ctx, d1)`.  Squaring gives F(a, b, c) = F(a^2, b^2, c^2);
    b = 1 is fixed by it, so on that row one c per cyclotomic coset stands
    for the whole coset.  The rows b = g^i, i >= 1 (only when e > 1) keep
    every c.  Both maps turn the quadratic form of (b, c) into an
    equivalent one, so they keep the gold kernel dimension s as well.
    """
    bs, per_b = scaling_reps(ctx, d1)
    reps, sizes = frobenius_reps(ctx)
    yield 1, reps, sizes * per_b
    cs = np.arange(1, ctx.order)
    for b in bs[1:].tolist():
        yield b, cs, np.full_like(cs, per_b)


def _row_batches(ctx: FieldCtx, f_np, g_np, rows):
    """(b, cs, weights, transform rows) for each `_batches` slice of the
    rows (b, cs, weights), in order."""
    for b, cs, weights in rows:
        for part in _batches(ctx.n, cs.size):
            yield b, cs[part], weights[part], transform_rows(ctx, f_np, g_np, b, cs[part])


def _count_checked(counts: np.ndarray, b: int, w: np.ndarray, values: np.ndarray) -> None:
    """Add the value counts of the transform rows values, row i counted w[i]
    times, to counts, once every row's sum and Parseval are checked."""
    order = counts.size - 1
    if not (values.sum(axis=1, dtype=np.int64) == order).all():
        raise ArithmeticError(f"transform row sum != 2^n at b={b}")
    if not ((values.astype(np.int64) ** 2).sum(axis=1) == order * order).all():
        raise ArithmeticError(f"Parseval violated at b={b}")
    for size in np.unique(w).tolist():
        counts += size * _value_counts(order, values[w == size])


def _folded_counts(ctx: FieldCtx, f_np, g_np, rows) -> np.ndarray:
    """Value counts of the rows (b, cs, weights), the row (b, cs[i]) counted
    weights[i] times.  Every row's sum and Parseval are checked."""
    counts = np.zeros(ctx.order + 1, dtype=np.int64)
    for b, _, w, values in _row_batches(ctx, f_np, g_np, rows):
        _count_checked(counts, b, w, values)
    return counts


def _find_witness(ctx: FieldCtx, pair: MonomialPair) -> tuple[int, int, int]:
    """The first offending (a, b, c) on the rows of `orbit_rows`, the least a
    by the naive oracle.  When gcd(d1, 2^n - 1) = 1 it is the first in
    (b, c, a) order over every row: squaring keeps a row's values, so the
    least offending c on the row b = 1 is its coset's leader."""
    ok = list(allowed_values(ctx.n))
    for b, cs, _, values in _row_batches(ctx, pair.f_np, pair.g_np, orbit_rows(ctx, pair.d1)):
        for c in cs[~np.isin(values, ok).all(axis=1)].tolist():
            for a in range(ctx.order):
                if transform_single(ctx, pair, a, b, c) not in ok:
                    return (a, b, c)
    raise AssertionError("offending row vanished on rescan")  # pragma: no cover


def full_spectrum(ctx: FieldCtx, pair: MonomialPair) -> SpectrumReport:
    """Exhaustive transform histogram over b, c in L* and the five-value verdict.

    Only the rows of `orbit_rows` are computed, each value counted as often
    as its c's weight.  Row sums and Parseval are checked on every row
    computed.
    """
    order = ctx.order
    counts = _folded_counts(ctx, pair.f_np, pair.g_np, orbit_rows(ctx, pair.d1))
    histogram = _as_histogram(order, counts)
    if sum(histogram.values()) != order * ctx.group_order**2:  # pragma: no cover
        raise ArithmeticError("histogram mass mismatch")

    five = set(histogram) <= allowed_values(ctx.n)
    witness = None if five else _find_witness(ctx, pair)
    return SpectrumReport(histogram, five, witness)


def single_table_spectrum(ctx: FieldCtx, *tables: np.ndarray) -> dict[int, int]:
    """Histogram of sum_x (-1)^Tr(a*x + c*h(x)) over all a and all c != 0,
    summed over the tables h.

    Used for the dual-code strata where exactly one of the pair's functions
    has a zero coefficient.  When h is a power map x^d, x -> lambda*x gives
    F(a, 0, c) = F(lambda*a, 0, lambda^d*c), so only the rows c of
    `scaling_reps(ctx, d)` are computed, each counted for the coefficients
    it stands for; any other table keeps every row.  The rows of all the
    tables run as one stack, cut by `_batches`, and row sums and Parseval
    are checked on every row computed.
    """
    reps = [scaling_reps(ctx, power_exponent(ctx, h)) for h in tables]
    cs = np.concatenate([c for c, _ in reps])
    weights = np.concatenate([np.full_like(c, per_c) for c, per_c in reps])
    which = np.repeat(np.arange(len(tables)), [c.size for c, _ in reps])  # each row's table
    counts = np.zeros(ctx.order + 1, dtype=np.int64)
    for part in _batches(ctx.n, cs.size):
        signs = np.concatenate([_signs(ctx, h, cs[part][which[part] == i])
                                for i, h in enumerate(tables)])
        _count_checked(counts, 0, weights[part], _walsh_hadamard(signs))
    return _as_histogram(ctx.order, counts)
