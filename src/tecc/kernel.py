"""Kernels of the linearized maps that control squared transform values.

For a pair of Gold exponents {x^(2^i+1), x^(2^j+1)} (families gold2 and
gold3 are i = k and j = 2k, 3k) the squared transform at any a satisfies

    F(a, b, c)^2 = 2^n * sum over u in K of (-1)^Tr(Q(u)),
    Q(u) = a*u + b*u^(2^i+1) + c*u^(2^j+1),

where K is the kernel of the GF(2)-linear map

    L(u) = b*u^(2^i) + b^(2^-i)*u^(2^-i) + c*u^(2^j) + c^(2^-j)*u^(2^-j).

For the kasami5 pair the substitution x -> x^(2^k+1) (a permutation when
gcd(k, n) = 1) turns the transform into the same shape with

    Q(u) = a*u^(2^k+1) + b*u^(2^(3k)+1) + c*u^(2^(5k)+1)

and a six-term L(u) that involves a as well.  The character-sum dichotomy
forces |S0| - |S1| to be 0 or |K|, where S0/S1 split K by Tr(Q(u)), and the
companion form G(u) with G(u) + G(u)^(2^-k) = u*L(u) detects membership:
u is in K iff G(u) is 0 or 1, and in S0 iff G(u) = 0.

Everything here verifies those identities numerically via exact GF(2) linear
algebra; nothing is proven symbolically.  Both exhaustive scans read one
fold, the row b = 1 of `spectrum.orbit_rows` with one c per cyclotomic coset
of L*: x -> lambda*x, lambda = b^(-1/d1), takes (a, b, c) to (lambda*a, 1,
lambda^d2*c) and squaring c to its coset's leader, keeping F, s and (as
u -> mu*u, mu^(2^k+1) = lambda) the kasami5 |K|, |S0| and |S1|.  The gold
scan checks each (1, c), a staying out of L; the kasami5 scan checks every
cell (a, 1, c), a in L, since its L involves a.  Seeded samples check the
invariance rather than assume it.  The kasami5 scan evaluates L at every u,
to check |K| against the rank of L's columns, but Tr Q and G only on K,
where its checks read them.  It gathers L, the naive sum behind F, Q and G
from tables over the w-bit chunks of a coefficient (`_KasamiForms`).  Those
of L, Q and G change only the order in which a value's field products are
xored; those of the naive sum hold each term's trace bits, packed 8 points
a byte, which is exact as Tr is GF(2)-linear: the trace of
a*x + b*f(x) + c*g(x) is the xor of its three terms' traces.
On K, u*L(u) = 0, so the functional equation
reduces to G = G^(2^-k), i.e. G in GF(2) (gcd(k, n) = 1), which G in {0, 1}
requires.
Off K, test_g_form_functional_equation and test_g_form_flags_kernel_membership
pin the equation and G's membership test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import gf2, spectrum
from .field import FieldCtx
from .functions import FamilySpec, MonomialPair, family_exponents, gold_shift
from .spectrum import _batches, _row_batches, fold_keys, orbit_rows, record, transform_single

_ORACLE_SAMPLES = 64  # (a, b, c) each exhaustive scan cross-checks against its fold
KASAMI_EXHAUSTIVE_MAX_N = 9  # the kasami5 scan checks every triple up to this n by default


@dataclass
class LinearizedMap:
    """A GF(2)-linear field map sum_i coeff_i * u^(2^shift_i).

    Realized as an n x n GF(2) matrix whose column j holds the coordinates
    of the image of the basis element alpha^j.
    """

    ctx: FieldCtx
    terms: list[tuple[int, int]]
    cols: list[int] = field(init=False)

    def __post_init__(self) -> None:
        self.cols = [self.eval_formula(1 << j) for j in range(self.ctx.n)]

    def eval_formula(self, u: int) -> int:
        """Term-by-term field evaluation, independent of the matrix."""
        ctx = self.ctx
        acc = 0
        for coeff, shift in self.terms:
            acc ^= ctx.mul(coeff, ctx.frobenius(u, shift))
        return acc


def _gold_terms(frob, i: int, j: int, b, c) -> list:
    """The (coeff, shift) terms of the gold L(u) with shifts (i, j); frob is
    ctx.frobenius or, for coefficient arrays, ctx.frobenius_array."""
    return [(b, i), (frob(b, -i), -i), (c, j), (frob(c, -j), -j)]


def _kasami_terms(frob, k: int, a, b, c) -> list:
    """The (coeff, shift) terms of the kasami5 L(u), as in _gold_terms."""
    return [
        (a, k),
        (frob(a, -k), -k),
        (b, 3 * k),
        (frob(b, -3 * k), -3 * k),
        (c, 5 * k),
        (frob(c, -5 * k), -5 * k),
    ]


def _draw_triples(rng: random.Random, order: int, count: int) -> tuple[np.ndarray, ...]:
    """count (a, b, c) with a in L and b, c in L*, as three int64 arrays.

    Each value is the next little-endian 64-bit word of rng.randbytes taken
    mod 2^n or 2^n - 1 (a bias below 2^(n-64)).  Words are taken in order,
    so a draw split into chunks equals the same draw made in one call."""
    words = np.frombuffer(rng.randbytes(24 * count), dtype="<u8").reshape(count, 3)
    drawn = words % np.uint64([order, order - 1, order - 1]) + np.uint64([0, 1, 1])
    return tuple(drawn.T.astype(np.int64, order="C"))


def gold_map(ctx: FieldCtx, i: int, j: int, b: int, c: int) -> LinearizedMap:
    """The four-term L(u) for the pair {x^(2^i+1), x^(2^j+1)}."""
    if b == 0 and c == 0:
        raise ValueError("at least one of b, c must be nonzero")
    terms = _gold_terms(ctx.frobenius, i, j, b, c)
    return LinearizedMap(ctx, [(co, sh) for co, sh in terms if co])


def _eval_terms(ctx: FieldCtx, terms: list, us: np.ndarray) -> np.ndarray:
    """sum of coeff * u^(2^shift) over the terms, one row per coefficient:
    (batch,) coefficient arrays against the points us give (batch, len(us))."""
    out = 0
    for coeff, shift in terms:
        out = out ^ ctx.mul_array(np.asarray(coeff)[..., None], ctx.frobenius_array(us, shift))
    return out


_G_TERMS = (
    # (source coefficient index 0=a 1=b 2=c, coeff frobenius, u shift 1, u shift 2)
    (0, 0, 1, 0),
    (1, 0, 3, 0),
    (1, -1, 2, -1),
    (1, -2, 1, -2),
    (2, 0, 5, 0),
    (2, -1, 4, -1),
    (2, -2, 3, -2),
    (2, -3, 2, -3),
    (2, -4, 1, -4),
)


@dataclass
class KernelReport:
    """Kernel bookkeeping for one (a, b, c) triple of the kasami5 scan."""

    a: int
    b: int
    c: int
    s: int
    kernel: list[int]
    S0: int
    S1: int
    Fw: int
    consistent: bool

    def to_json_dict(self) -> dict:
        return record(self)


@dataclass
class GoldKernelSummary:
    """Kernel scan results over every (b, c) for a pair of Gold exponents;
    family and k are the pair's labels, None on an unlabelled pair."""

    family: str | None
    n: int
    k: int | None
    max_s: int
    s_counts: dict[int, int]
    pairs_checked: int
    all_consistent: bool
    failures: list[tuple[int, int]]

    def to_json_dict(self) -> dict:
        return record(self, s_counts={str(s): c for s, c in sorted(self.s_counts.items())},
                      failures=self.failures[:16])


def _gold_cols(ctx: FieldCtx, i: int, j: int, b, c) -> np.ndarray:
    """The columns L(alpha^m) of the gold map at every (b, c) of the broadcast
    coefficient arrays, one row of n per (b, c)."""
    return _eval_terms(ctx, _gold_terms(ctx.frobenius_array, i, j, b, c), 1 << np.arange(ctx.n))


def gold_kernel_scan(ctx: FieldCtx, pair: MonomialPair, seed: int = 0) -> GoldKernelSummary:
    """Scan every (b, c) in L* x L* for a pair {x^(2^i+1), x^(2^j+1)}, the
    shifts read from its exponents by `gold_shift`, through the rows
    `orbit_rows` folds them onto: b = 1 and one c per cyclotomic coset, each
    counted by the (b, c) it stands for.

    Each batch of `spectrum._row_batches` gives the representatives'
    transform rows, and one array GF(2) elimination their s = dim ker L.
    Every squared value must lie in {0, 2^(n+s)}, with s odd wherever
    F != 0: as n is odd, |F| in {0, m} on the row, m = 2^((n+s)/2) at odd
    s and 0 at even s, at the transform's own int16/int32 width.  Only the
    count of each s is kept; failing (1, c) come back in ascending c.

    Seeded samples (a, b, c) check the scan and its fold against the scalar
    oracles: F by the naive sum, and s = n - rank of L_(b,c) by Python-int
    elimination, which must equal the scan's s at the representative that
    `spectrum.fold_keys` folds (0, b, c) onto, the coset leader of
    c' = lambda^d2 * c, lambda = b^(-1/d1).  Their failures follow the scan's.
    """
    i, j = shifts = gold_shift(ctx, pair.d1), gold_shift(ctx, pair.d2)
    if None in shifts:  # L and the fold both assume Gold exponents
        raise ValueError(f"kernel scan expects Gold exponents 2^i + 1, got ({pair.d1}, {pair.d2})")
    n = ctx.n
    failures: list[tuple[int, int]] = []
    s_freq = np.zeros(n + 1, dtype=np.int64)  # number of (b, c) with each s
    s_of = np.full(ctx.order, -1)
    # orbit_rows yields the row b = 1 alone, since gcd(2^i + 1, 2^n - 1) = 1
    # for odd n, so s_of holds the s of every representative (1, c)
    for b, cs, weights, values in _row_batches(ctx, pair.f_np, pair.g_np, orbit_rows(ctx, pair.d1)):
        s = n - gf2.rank_array(_gold_cols(ctx, i, j, b, cs), n)
        np.abs(values, out=values)
        m = np.where(s % 2 == 1, 1 << ((n + s) // 2), 0).astype(values.dtype)
        ok = ((values == 0) | (values == m[:, None])).all(axis=1)
        failures += [(b, c) for c in cs[~ok].tolist()]
        np.add.at(s_freq, s, weights)
        s_of[cs] = s

    a, b, c = _draw_triples(random.Random(seed), ctx.order, _ORACLE_SAMPLES)
    folded = s_of[fold_keys(ctx, pair, 0, b, c) >> n]
    # a naive-sum cell holds about three int64 temporaries against a row
    # cell's 4 bytes, so its slices are 2^3 times shorter than the rows'
    fws = np.concatenate([transform_single(ctx, pair, a[p], b[p], c[p])
                          for p in _batches(n + 3, a.size)])
    for bi, ci, s_folded, fw in zip(b.tolist(), c.tolist(), folded.tolist(), fws.tolist()):
        s_scalar = n - gf2.row_reduce(gold_map(ctx, i, j, bi, ci).cols, n)[0]
        if s_scalar != s_folded or fw * fw not in (0, 1 << (n + s_scalar)):
            failures.append((bi, ci))
    s_values = np.flatnonzero(s_freq)
    return GoldKernelSummary(
        family=pair.family,
        n=n,
        k=pair.param,
        max_s=int(s_values[-1]),
        s_counts=dict(zip(s_values.tolist(), s_freq[s_values].tolist())),
        pairs_checked=int(s_freq.sum()),
        all_consistent=not failures,
        failures=failures,
    )


@dataclass
class KasamiKernelSummary:
    """Aggregate verdict of the kasami5 kernel scan."""

    n: int
    k: int
    triples_checked: int
    exhaustive: bool
    permutation_ok: bool
    substitution_ok: bool
    all_consistent: bool
    s0_sizes_nonzero_fw: set[int]
    max_s: int
    failures: list[tuple[int, int, int]]
    reports: list[KernelReport]

    def to_json_dict(self) -> dict:
        return record(self, s0_sizes_nonzero_fw=sorted(self.s0_sizes_nonzero_fw),
                      failures=self.failures[:16],
                      reports=[r.to_json_dict() for r in self.reports])


def _kasami_q_array(ctx: FieldCtx, k: int, a, b, c, us: np.ndarray) -> np.ndarray:
    """Q(u) at every point of us, with a, b, c scalars or arrays of its shape;
    the terms of a None coefficient are left out."""
    q = 0
    for coeff, shift in ((a, k), (b, 3 * k), (c, 5 * k)):
        if coeff is not None:
            q = q ^ ctx.mul_array(coeff, ctx.pow_array(us, (1 << shift % ctx.n) + 1))
    return q


def _kasami_g_array(ctx: FieldCtx, k: int, a, b, c, us: np.ndarray) -> np.ndarray:
    """G(u) at every point of us, with a, b, c (or None) as in _kasami_q_array."""
    g = 0
    for which, cf, s1, s2 in _G_TERMS:
        if (coeff := (a, b, c)[which]) is not None:
            uu = ctx.pow_array(us, (1 << s1 * k % ctx.n) + (1 << s2 * k % ctx.n))
            g = g ^ ctx.mul_array(ctx.frobenius_array(coeff, cf * k), uu)
    return g


_L, _Q, _G = range(3)  # the forms of the field-valued tables, in their order


class _KasamiForms:
    """L, the naive sum, Q and G of one kasami5 scan, for a batch of triples.

    Every term of L, of the exponent a*x + b*f(x) + c*g(x) of the naive sum,
    of Q and of G reads one of a, b and c (its slot) and is GF(2)-linear in
    it, so a form is the xor of its rows at its slots' w-bit chunks: a zero
    row, then chunk j's values v > 0 at rows v + j*(2^w - 1) of the slot's
    tables (w = n at n <= 7).  The naive sum's tables hold Tr of its terms.
    """

    def __init__(self, ctx: FieldCtx, pair: MonomialPair) -> None:
        n, k, every = ctx.n, pair.param, np.arange(ctx.order)
        for w in range(n, 0, -1):  # the widest chunk whose tables fit, else 1
            # the coefficient of each row: 0, then each chunk's nonzero values
            coeffs = np.concatenate([np.arange(j > 0, 1 << min(w, n - j)) << j for j in range(0, n, w)])
            if 9 * coeffs.size << n <= spectrum._BATCH_CELLS:
                break
        # the narrowest type that holds a field element
        tables = np.empty((3, 3, coeffs.size, ctx.order), np.min_scalar_type(ctx.order - 1))
        traces = np.empty((3, coeffs.size, ctx.order // 8), np.uint8)
        # a cell holds a few int64 temporaries, so slices 2^3 times shorter than a batch's
        for part in _batches(n + 3, coeffs.size):
            rows = coeffs[part]
            ell = _kasami_terms(ctx.frobenius_array, k, rows, rows, rows)
            for i, term in enumerate((every, pair.f_np, pair.g_np)):
                alone = [rows[:, None] if j == i else None for j in range(3)]
                tables[_L, i, part] = _eval_terms(ctx, ell[2 * i : 2 * i + 2], every)
                tables[_Q, i, part] = _kasami_q_array(ctx, k, *alone, every)
                tables[_G, i, part] = _kasami_g_array(ctx, k, *alone, every)
                traces[i, part] = np.packbits(
                    ctx.trace_table[ctx.mul_array(rows[:, None], term)], axis=1)
        # each form's slots stacked, so slot i's rows follow i * coeffs.size others
        self.tables, self.traces = tables.reshape(3, -1, ctx.order), traces.reshape(-1, ctx.order // 8)
        self.ctx, self.width, self.shifts = ctx, w, np.arange(0, n, w)[:, None]
        slots = np.arange(3)[:, None, None] * coeffs.size
        self.offsets = (slots + self.shifts // w * ((1 << w) - 1)).reshape(-1, 1)
        # L's rows and one gather, grown to the largest batch
        self.buffers = np.empty((2, 0, ctx.order), self.tables.dtype)

    def batch_rows(self, a, b, c) -> np.ndarray:
        """The rows of each slot's chunks in turn, one per triple of a, b, c."""
        rows = (np.stack([a, b, c])[:, None] >> self.shifts & (1 << self.width) - 1).reshape(-1, len(a))
        return np.add(rows, self.offsets, out=rows, where=rows != 0)

    def ell_rows(self, rows) -> np.ndarray:
        """L at every point, one row per triple of the `batch_rows` rows."""
        if rows.shape[1] > self.buffers.shape[1]:
            self.buffers = np.empty((2, rows.shape[1], self.ctx.order), self.tables.dtype)
        out, part = self.buffers[:, :rows.shape[1]]
        # mode="raise" would copy through a temporary; the rows are in range
        np.take(self.tables[_L], rows[0], axis=0, out=out, mode="wrap")
        for chunk in rows[1:]:
            np.take(self.tables[_L], chunk, axis=0, out=part, mode="wrap")
            out ^= part
        return out

    def transform(self, rows) -> np.ndarray:
        """F(a, b, c) by the naive sum, for each triple of the `batch_rows` rows."""
        ones = np.bitwise_xor.reduce(self.traces[rows], axis=0)
        return self.ctx.order - 2 * np.bitwise_count(ones).sum(axis=1, dtype=np.int64)

    def cells(self, form: int, cells) -> np.ndarray:
        """_Q or _G at the cells row << n | u of each `batch_rows` row."""
        return np.bitwise_xor.reduce(self.tables[form].reshape(-1)[cells], axis=0)


def _substitution_checks(ctx: FieldCtx, pair: MonomialPair,
                         rng: random.Random) -> tuple[bool, bool]:
    """(the substitution x -> x^(2^k+1) permutes L, summing the substituted
    Q over every x reproduces the naive sum from the pair's tables on 32
    drawn triples).  A function of its own, called before the tables are
    built, so that its values of Q are freed by then, and in the tables'
    `_batches(n + 3)` slices of triples, so that its peak stays under theirs."""
    order, k = ctx.order, pair.param
    sub = ctx.pow_array(np.arange(order), pow(2, k, ctx.group_order) + 1)
    permutation_ok = len(set(sub.tolist())) == order
    a, b, c = _draw_triples(rng, order, 32)
    substitution_ok = True
    for s in _batches(ctx.n + 3, 32):
        q = _kasami_q_array(ctx, k, a[s, None], b[s, None], c[s, None], np.arange(order))
        totals = order - 2 * ctx.trace_table[q].sum(axis=1, dtype=np.int64)
        substitution_ok &= bool((totals == transform_single(ctx, pair, a[s], b[s], c[s])).all())
    return permutation_ok, substitution_ok


def _check_kasami_chunk(forms: _KasamiForms, a, b, c):
    """Every per-triple identity check for a batch of (a, b, c) arrays, with
    Tr Q and G at the kernel cells (triple, u in K) only.

    Returns (s, the kernel elements of all triples in turn, |K|, S0 sizes,
    S1 sizes, Fw, consistent), one entry per triple but the second.
    """
    ctx = forms.ctx
    index = forms.batch_rows(a, b, c)
    lvals = forms.ell_rows(index)
    s = ctx.n - gf2.rank_array(lvals[:, 1 << np.arange(ctx.n)], ctx.n)
    # np.nonzero on the 2-D mask is several times slower than on its flat view
    zeros = np.flatnonzero(lvals == 0)
    rows, us = zeros >> ctx.n, zeros & (ctx.order - 1)
    size = np.bincount(rows, minlength=len(a))
    cells = np.take(index, rows, axis=1) << ctx.n | us
    tr_zero = ctx.trace_table[forms.cells(_Q, cells)] == 0
    s0 = np.bincount(rows[tr_zero], minlength=len(a))
    s1 = size - s0
    fw = forms.transform(index)
    g = forms.cells(_G, cells)

    ok = size == 1 << s
    ok &= fw * fw == ctx.order * (s0 - s1)
    ok &= (s0 - s1 == 0) | (s0 - s1 == size)
    ok &= (fw == 0) | ((s1 == 0) & ((s0 == 2) | (s0 == 8)))
    # G detects kernel membership and the S0 split.
    g_ok = ((g == 0) | (g == 1)) & ((g == 0) == tr_zero)
    ok &= np.bincount(rows[~g_ok], minlength=len(a)) == 0
    return s, us, size, s0, s1, fw, ok


def kasami_kernel_scan(
    ctx: FieldCtx,
    pair: MonomialPair,
    samples: int = 10_000,
    seed: int = 0,
    exhaustive: bool | None = None,
    keep_reports: int = 0,
) -> KasamiKernelSummary:
    """Verify the kasami5 kernel machinery on sampled or exhaustive triples.

    exhaustive=None picks exhaustive at n <= KASAMI_EXHAUSTIVE_MAX_N, and
    sampling above.  Exhaustive, it checks the cells (a, 1, c) of every a in
    L on the row b = 1 of `orbit_rows`, in (c, a) order, each weighted as
    its c, then the fold of its samples onto their cells.
    keep_reports bounds how many per-triple reports are retained (0 = none,
    negative = all).
    """
    if pair.family != "kasami5":
        raise ValueError("kasami kernel scan expects a kasami5 pair")
    k = pair.param
    n, order = ctx.n, ctx.order
    if exhaustive is None:
        exhaustive = n <= KASAMI_EXHAUSTIVE_MAX_N
    if exhaustive and (pair.d1, pair.d2) != family_exponents(FamilySpec("kasami5", k), n):
        raise ValueError(f"kernel scan expects the exponents of kasami5, got {pair.d1, pair.d2}")
    if exhaustive and n > 11:
        raise ValueError("the exhaustive kasami5 scan checks about 2^(2n)/n cells (a, c), 5M at"
                         f" n = 13 in about four minutes: n <= 11, got {n}")
    if not exhaustive and samples < 1:
        raise ValueError(f"a sampled scan needs samples >= 1, got {samples}")
    rng = random.Random(seed)
    permutation_ok, substitution_ok = _substitution_checks(ctx, pair, rng)
    forms = _KasamiForms(ctx, pair)

    if exhaustive:  # d1 is a unit mod 2^n - 1 at odd n: b = 1 is the one row
        _, cs, weights = next(orbit_rows(ctx, pair.d1))
    failures: list[tuple[int, int, int]] = []
    reports: list[KernelReport] = []
    s0_nonzero: set[int] = set()
    max_s = 0
    for part in _batches(n + 5, cs.size << n if exhaustive else samples):
        cell = np.arange(part.start, part.stop)
        a, b, c = ((cell & (order - 1), np.ones_like(cell), cs[cell >> n]) if exhaustive
                   else _draw_triples(rng, order, cell.size))
        s, kernels, size, s0, s1, fw, ok = _check_kasami_chunk(forms, a, b, c)
        keep = len(a) if keep_reports < 0 else min(len(a), keep_reports - len(reports))
        ends = np.cumsum(size[:keep]).tolist()
        for i, end in enumerate(ends):
            reports.append(KernelReport(
                int(a[i]), int(b[i]), int(c[i]), int(s[i]), kernels[end - size[i]:end].tolist(),
                int(s0[i]), int(s1[i]), int(fw[i]), bool(ok[i]),
            ))
        max_s = max(max_s, int(s.max()))
        s0_nonzero.update(s0[fw != 0].tolist())
        failures += [tuple(t) for t in np.stack([a, b, c], axis=1)[~ok].tolist()]

    if exhaustive:
        a, b, c = _draw_triples(rng, order, _ORACLE_SAMPLES)
        key = fold_keys(ctx, pair, a, b, c)
        s, _, *values, ok = _check_kasami_chunk(forms, a, b, c)
        r_s, _, *r_values, _ = _check_kasami_chunk(forms, key & (order - 1), np.ones_like(key),
                                                   key >> n)
        ok &= np.isin(key >> n, cs) & (np.stack([s, *values]) == np.stack([r_s, *r_values])).all(0)
        failures += [tuple(t) for t in np.stack([a, b, c], axis=1)[~ok].tolist()]
    return KasamiKernelSummary(
        n=n,
        k=k,
        triples_checked=int(weights.sum()) << n if exhaustive else samples,
        exhaustive=exhaustive,
        permutation_ok=permutation_ok,
        substitution_ok=substitution_ok,
        all_consistent=not failures,
        s0_sizes_nonzero_fw=s0_nonzero,
        max_s=max_s,
        failures=failures,
        reports=reports,
    )
