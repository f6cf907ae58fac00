"""Kernels of the linearized maps that control squared transform values.

For the quadratic-exponent pairs {x^(2^k+1), x^(2^(tk)+1)} (families gold2,
gold3 with t = 2, 3) the squared transform at any a satisfies

    F(a, b, c)^2 = 2^n * sum over u in K of (-1)^Tr(Q(u)),
    Q(u) = a*u + b*u^(2^k+1) + c*u^(2^(tk)+1),

where K is the kernel of the GF(2)-linear map

    L(u) = b*u^(2^k) + b^(2^-k)*u^(2^-k) + c*u^(2^(tk)) + c^(2^-tk)*u^(2^-tk).

For the kasami5 pair the substitution x -> x^(2^k+1) (a permutation when
gcd(k, n) = 1) turns the transform into the same shape with

    Q(u) = a*u^(2^k+1) + b*u^(2^(3k)+1) + c*u^(2^(5k)+1)

and a six-term L(u) that involves a as well.  The character-sum dichotomy
forces |S0| - |S1| to be 0 or |K|, where S0/S1 split K by Tr(Q(u)), and the
companion form G(u) with G(u) + G(u)^(2^-k) = u*L(u) detects membership:
u is in K iff G(u) is 0 or 1, and in S0 iff G(u) = 0.

Everything here verifies those identities numerically via exact GF(2) linear
algebra; nothing is proven symbolically.  The exhaustive scans check one
representative per orbit of squaring and of x -> lambda*x, which takes
(a, b, c) to (lambda*a, lambda^d1*b, lambda^d2*c) and keeps F, s and (as
u -> mu*u, mu^(2^k+1) = lambda) the kasami5 |K|, |S0| and |S1|: the gold scan
the rows of `spectrum.orbit_rows`, b = 1 and one c per cyclotomic coset of
L*, the kasami5 scan (1, b, c), one (b, c) per Frobenius orbit, and
(0, 1, c).  Seeded samples check the invariance rather than assume it.  The
kasami5 scan evaluates L at every u, to check |K| against the rank of L's
columns, but Tr Q and G only on K, where its checks read them.  On K,
u*L(u) = 0, so the functional equation reduces to G = G^(2^-k), i.e. G in
GF(2) (gcd(k, n) = 1), which G in {0, 1} requires.
Off K, test_g_form_functional_equation and test_g_form_flags_kernel_membership
pin the equation and G's membership test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import gf2
from .field import FieldCtx
from .functions import FamilySpec, MonomialPair, family_exponents
from .spectrum import _batches, _row_batches, coset_leaders, orbit_rows, transform_single

_ORACLE_SAMPLES = 64  # (a, b, c) each exhaustive scan cross-checks against its fold


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


def _gold_terms(frob, t: int, k: int, b, c) -> list:
    """The (coeff, shift) terms of the gold L(u); frob is ctx.frobenius or,
    for coefficient arrays, ctx.frobenius_array."""
    return [(b, k), (frob(b, -k), -k), (c, t * k), (frob(c, -t * k), -t * k)]


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


def gold_map(ctx: FieldCtx, t: int, k: int, b: int, c: int) -> LinearizedMap:
    """The four-term L(u) for the pair {x^(2^k+1), x^(2^(tk)+1)}."""
    if b == 0 and c == 0:
        raise ValueError("at least one of b, c must be nonzero")
    terms = _gold_terms(ctx.frobenius, t, k, b, c)
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
    kernel_elements: list[int]
    S0_size: int
    S1_size: int
    Fw: int
    consistent: bool

    def to_json_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "s": self.s,
            "kernel": self.kernel_elements,
            "S0": self.S0_size,
            "S1": self.S1_size,
            "Fw": self.Fw,
            "consistent": self.consistent,
        }


@dataclass
class GoldKernelSummary:
    """Kernel scan results over every (b, c) for a gold2/gold3 pair."""

    family: str
    n: int
    k: int
    pairs_checked: int
    max_s: int
    s_counts: dict[int, int]
    all_consistent: bool
    failures: list[tuple[int, int]]

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "k": self.k,
            "max_s": self.max_s,
            "s_counts": {str(s): c for s, c in sorted(self.s_counts.items())},
            "pairs_checked": self.pairs_checked,
            "all_consistent": self.all_consistent,
            "failures": self.failures[:16],
        }


def _gold_cols(ctx: FieldCtx, t: int, k: int, b, c) -> np.ndarray:
    """The columns L(alpha^j) of the gold map at every (b, c) of the broadcast
    coefficient arrays, one row of n per (b, c)."""
    return _eval_terms(ctx, _gold_terms(ctx.frobenius_array, t, k, b, c), 1 << np.arange(ctx.n))


def gold_kernel_scan(ctx: FieldCtx, pair: MonomialPair, seed: int = 0) -> GoldKernelSummary:
    """Scan every (b, c) in L* x L* for a gold2/gold3 pair through the rows
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
    elimination, which must equal the scan's s at the coset leader of
    c' = lambda^d2 * c, lambda = b^(-1/d1), the representative that (b, c)
    folds onto.  Their failures follow the scan's.
    """
    if pair.family not in ("gold2", "gold3"):
        raise ValueError(f"kernel scan expects a gold2 or gold3 pair, got {pair.family}")
    t = 2 if pair.family == "gold2" else 3
    k = pair.param
    if (pair.d1, pair.d2) != family_exponents(FamilySpec(pair.family, k), ctx.n):
        # L and the fold both assume these exponents
        raise ValueError(f"kernel scan expects the exponents of {pair.family} with k = {k}, "
                         f"got ({pair.d1}, {pair.d2})")
    n = ctx.n
    failures: list[tuple[int, int]] = []
    s_freq = np.zeros(n + 1, dtype=np.int64)  # number of (b, c) with each s
    s_of = np.full(ctx.order, -1)
    # orbit_rows yields the row b = 1 alone, since gcd(2^k + 1, 2^n - 1) = 1
    # for odd n, so s_of holds the s of every representative (1, c)
    for b, cs, weights, values in _row_batches(ctx, pair.f_np, pair.g_np, orbit_rows(ctx, pair.d1)):
        s = n - gf2.rank_array(_gold_cols(ctx, t, k, b, cs), n)
        np.abs(values, out=values)
        m = np.where(s % 2 == 1, 1 << ((n + s) // 2), 0).astype(values.dtype)
        ok = ((values == 0) | (values == m[:, None])).all(axis=1)
        failures += [(b, c) for c in cs[~ok].tolist()]
        np.add.at(s_freq, s, weights)
        s_of[cs] = s

    a, b, c = _draw_triples(random.Random(seed), ctx.order, _ORACLE_SAMPLES)
    lam = ctx.pow_array(b, -pow(pair.d1, -1, ctx.group_order) % ctx.group_order)
    folded = s_of[coset_leaders(ctx, ctx.mul_array(ctx.pow_array(lam, pair.d2), c))]
    # a naive-sum cell holds about three int64 temporaries against a row
    # cell's 4 bytes, so its slices are 2^3 times shorter than the rows'
    fws = np.concatenate([transform_single(ctx, pair, a[p], b[p], c[p])
                          for p in _batches(n + 3, a.size)])
    for bi, ci, s_folded, fw in zip(b.tolist(), c.tolist(), folded.tolist(), fws.tolist()):
        s_scalar = n - gf2.row_reduce(gold_map(ctx, t, k, bi, ci).cols, n)[0]
        if s_scalar != s_folded or fw * fw not in (0, 1 << (n + s_scalar)):
            failures.append((bi, ci))
    s_values = np.flatnonzero(s_freq)
    return GoldKernelSummary(
        family=pair.family,
        n=n,
        k=k,
        pairs_checked=int(s_freq.sum()),
        max_s=int(s_values[-1]),
        s_counts=dict(zip(s_values.tolist(), s_freq[s_values].tolist())),
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
        return {
            "n": self.n,
            "k": self.k,
            "triples_checked": self.triples_checked,
            "exhaustive": self.exhaustive,
            "permutation_ok": self.permutation_ok,
            "substitution_ok": self.substitution_ok,
            "all_consistent": self.all_consistent,
            "s0_sizes_nonzero_fw": sorted(self.s0_sizes_nonzero_fw),
            "max_s": self.max_s,
            "failures": self.failures[:16],
        }


def _kasami_q_array(ctx: FieldCtx, k: int, a, b, c, us: np.ndarray) -> np.ndarray:
    """Q(u) at every point of us, with a, b, c scalars or arrays of its shape."""
    q = 0
    for coeff, shift in ((a, k), (b, 3 * k), (c, 5 * k)):
        q = q ^ ctx.mul_array(coeff, ctx.pow_array(us, (1 << shift % ctx.n) + 1))
    return q


def _kasami_g_array(ctx: FieldCtx, k: int, a, b, c, us: np.ndarray) -> np.ndarray:
    """G(u) at every point of us, with a, b, c arrays of its shape."""
    g = 0
    for which, cf, s1, s2 in _G_TERMS:
        uu = ctx.pow_array(us, (1 << s1 * k % ctx.n) + (1 << s2 * k % ctx.n))
        g = g ^ ctx.mul_array(ctx.frobenius_array((a, b, c)[which], cf * k), uu)
    return g


def _check_kasami_chunk(ctx: FieldCtx, pair: MonomialPair, k: int, a, b, c):
    """Every per-triple identity check for a batch of (a, b, c) arrays, with
    Tr Q and G at the kernel cells (triple, u in K) only.

    Returns (s, the kernel elements of all triples in turn, |K|, S0 sizes,
    S1 sizes, Fw, consistent), one entry per triple but the second.
    """
    lvals = _eval_terms(ctx, _kasami_terms(ctx.frobenius_array, k, a, b, c), np.arange(ctx.order))
    s = ctx.n - gf2.rank_array(lvals[:, 1 << np.arange(ctx.n)], ctx.n)
    rows, us = np.nonzero(lvals == 0)
    size = np.bincount(rows, minlength=len(a))
    tr_zero = ctx.trace_table[_kasami_q_array(ctx, k, a[rows], b[rows], c[rows], us)] == 0
    s0 = np.bincount(rows[tr_zero], minlength=len(a))
    s1 = size - s0
    fw = transform_single(ctx, pair, a, b, c)
    g = _kasami_g_array(ctx, k, a[rows], b[rows], c[rows], us)

    ok = size == 1 << s
    ok &= fw * fw == ctx.order * (s0 - s1)
    ok &= (s0 - s1 == 0) | (s0 - s1 == size)
    ok &= (fw == 0) | ((s1 == 0) & ((s0 == 2) | (s0 == 8)))
    # G detects kernel membership and the S0 split.
    g_ok = ((g == 0) | (g == 1)) & ((g == 0) == tr_zero)
    ok &= np.bincount(rows[~g_ok], minlength=len(a)) == 0
    return s, us, size, s0, s1, fw, ok


def _kasami_reps(ctx: FieldCtx) -> tuple[np.ndarray, ...]:
    """The keys, a, b, c and weights of the triples that stand for every
    (a, b, c) in L x L* x L*, in ascending key b * 2^n + c: (0, 1, c) keyed
    c, then (1, b, c), each weighted 2^n - 1 scalings times its orbit."""
    n, mask = ctx.n, ctx.order - 1
    pairs = np.flatnonzero(np.arange(ctx.order << n) & mask)  # (b, c) in L x L*, as keys
    sizes = np.bincount(coset_leaders(ctx, pairs & mask, pairs >> n), minlength=ctx.order << n)
    keys = np.flatnonzero(sizes)
    a = (keys > mask).astype(np.int64)
    return keys, a, np.where(a == 1, keys >> n, 1), keys & mask, ctx.group_order * sizes[keys]


def kasami_kernel_scan(
    ctx: FieldCtx,
    pair: MonomialPair,
    samples: int = 10_000,
    seed: int = 0,
    exhaustive: bool | None = None,
    keep_reports: int = 0,
) -> KasamiKernelSummary:
    """Verify the kasami5 kernel machinery on sampled or exhaustive triples.

    exhaustive=None picks exhaustive at n <= 9, the triples of `_kasami_reps`
    and samples of their fold, and sampling above.
    keep_reports bounds how many per-triple reports are retained (0 = none,
    negative = all).
    """
    if pair.family != "kasami5":
        raise ValueError("kasami kernel scan expects a kasami5 pair")
    k = pair.param
    n, order, N = ctx.n, ctx.order, ctx.group_order
    if exhaustive is None:
        exhaustive = n <= 9
    if exhaustive and (pair.d1, pair.d2) != family_exponents(FamilySpec("kasami5", k), n):
        raise ValueError(f"kernel scan expects the exponents of kasami5, got {pair.d1, pair.d2}")
    if exhaustive and n > 11:
        raise ValueError(f"the exhaustive kasami5 scan keys 2^(2n) pairs (b, c): n <= 11, got {n}")
    if not exhaustive and samples < 1:
        raise ValueError(f"a sampled scan needs samples >= 1, got {samples}")
    rng = random.Random(seed)

    # The substitution x -> x^(2^k+1) must be a permutation of L.
    sub = ctx.pow_array(np.arange(order), pow(2, k, N) + 1)
    permutation_ok = len(set(sub.tolist())) == order

    # Summing the substituted form Q(x) over all x must reproduce the
    # transform computed from the original pair tables, on 32 drawn triples.
    a, b, c = _draw_triples(rng, order, 32)
    q = _kasami_q_array(ctx, k, a[:, None], b[:, None], c[:, None], np.arange(order))
    totals = order - 2 * ctx.trace_table[q].sum(axis=1, dtype=np.int64)
    substitution_ok = bool((totals == transform_single(ctx, pair, a, b, c)).all())

    if exhaustive:
        keys, *reps, weights = _kasami_reps(ctx)
    failures: list[tuple[int, int, int]] = []
    reports: list[KernelReport] = []
    s0_nonzero: set[int] = set()
    max_s = 0
    for part in _batches(n + 5, keys.size if exhaustive else samples):
        a, b, c = ((x[part] for x in reps) if exhaustive
                   else _draw_triples(rng, order, part.stop - part.start))
        s, kernels, size, s0, s1, fw, ok = _check_kasami_chunk(ctx, pair, k, a, b, c)
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
        lam = np.where(a, ctx.pow_array(a, N - 1), ctx.pow_array(b, -pow(pair.d1, -1, N) % N))
        bs = np.where(a, ctx.mul_array(b, ctx.pow_array(lam, pair.d1)), 0)
        key = coset_leaders(ctx, ctx.mul_array(c, ctx.pow_array(lam, pair.d2)), bs)
        rep = np.minimum(np.searchsorted(keys, key), keys.size - 1)
        s, _, *values, ok = _check_kasami_chunk(ctx, pair, k, a, b, c)
        r_s, _, *r_values, _ = _check_kasami_chunk(ctx, pair, k, *(x[rep] for x in reps))
        ok &= (keys[rep] == key) & (np.stack([s, *values]) == np.stack([r_s, *r_values])).all(0)
        failures += [tuple(t) for t in np.stack([a, b, c], axis=1)[~ok].tolist()]
    return KasamiKernelSummary(
        n=n,
        k=k,
        triples_checked=int(weights.sum()) if exhaustive else samples,
        exhaustive=exhaustive,
        permutation_ok=permutation_ok,
        substitution_ok=substitution_ok,
        all_consistent=not failures,
        s0_sizes_nonzero_fw=s0_nonzero,
        max_s=max_s,
        failures=failures,
        reports=reports,
    )
