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

Everything here verifies those identities numerically via exact GF(2)
linear algebra; nothing is proven symbolically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import gf2
from .field import FieldCtx
from .functions import MonomialPair
from .spectrum import transform_rows, transform_single

_CHUNK_CELLS = 1 << 16  # (triple, u) cells per kasami5 array batch
_ORACLE_SAMPLES = 64  # (a, b, c) the gold scan cross-checks with the scalar oracles


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

    def eval_matrix(self, u: int) -> int:
        """Matrix-vector product over GF(2)."""
        acc = 0
        j = 0
        while u:
            if u & 1:
                acc ^= self.cols[j]
            u >>= 1
            j += 1
        return acc

    def kernel_basis(self) -> list[int]:
        rows = gf2.transpose(self.cols, self.ctx.n)
        basis, _ = gf2.nullspace_basis(gf2.row_reduce(rows, self.ctx.n), self.ctx.n)
        return basis


def kernel_of(lmap: LinearizedMap) -> list[int]:
    """All 2^s kernel elements, sorted; always contains 0."""
    return gf2.span(lmap.kernel_basis())


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


def gold_map(ctx: FieldCtx, t: int, k: int, b: int, c: int) -> LinearizedMap:
    """The four-term L(u) for the pair {x^(2^k+1), x^(2^(tk)+1)}."""
    if b == 0 and c == 0:
        raise ValueError("at least one of b, c must be nonzero")
    terms = _gold_terms(ctx.frobenius, t, k, b, c)
    return LinearizedMap(ctx, [(co, sh) for co, sh in terms if co])


def kasami_map(ctx: FieldCtx, k: int, a: int, b: int, c: int) -> LinearizedMap:
    """The six-term L(u) for the substituted kasami5 transform."""
    if a == 0 and b == 0 and c == 0:
        raise ValueError("at least one of a, b, c must be nonzero")
    terms = _kasami_terms(ctx.frobenius, k, a, b, c)
    return LinearizedMap(ctx, [(co, sh) for co, sh in terms if co])


def _eval_terms(ctx: FieldCtx, terms: list, us: np.ndarray) -> np.ndarray:
    """sum of coeff * u^(2^shift) over the terms, one row per coefficient:
    (batch,) coefficient arrays against the points us give (batch, len(us))."""
    out = 0
    for coeff, shift in terms:
        out = out ^ ctx.mul_array(np.asarray(coeff)[..., None], ctx.frobenius_array(us, shift))
    return out


def kasami_quadratic(ctx: FieldCtx, k: int, a: int, b: int, c: int, u: int) -> int:
    """Q(u) = a*u^(2^k+1) + b*u^(2^(3k)+1) + c*u^(2^(5k)+1)."""
    out = 0
    for coeff, shift in ((a, k), (b, 3 * k), (c, 5 * k)):
        if coeff:
            out ^= ctx.mul(coeff, ctx.mul(ctx.frobenius(u, shift), u))
    return out


def gold_quadratic(ctx: FieldCtx, t: int, k: int, a: int, b: int, c: int, u: int) -> int:
    """Q(u) = a*u + b*u^(2^k+1) + c*u^(2^(tk)+1)."""
    out = ctx.mul(a, u)
    for coeff, shift in ((b, k), (c, t * k)):
        if coeff:
            out ^= ctx.mul(coeff, ctx.mul(ctx.frobenius(u, shift), u))
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


def kasami_g_form(ctx: FieldCtx, k: int, a: int, b: int, c: int, u: int) -> int:
    """The nine-term companion form G(u) with G(u) + G(u)^(2^-k) = u*L(u)."""
    coeffs = (a, b, c)
    out = 0
    for which, cf, s1, s2 in _G_TERMS:
        base = coeffs[which]
        if base == 0:
            continue
        coeff = ctx.frobenius(base, cf * k)
        out ^= ctx.mul(coeff, ctx.mul(ctx.frobenius(u, s1 * k), ctx.frobenius(u, s2 * k)))
    return out


def quadratic_pair_identity(ctx: FieldCtx, form, u: int, v: int) -> int:
    """(u+v)*(v*G(u) + u*G(v)) + u*v*G(u+v) for a quadratic form G.

    Zero whenever G vanishes on u, v and u+v; in general it equals the
    cross-term sum kasami_identity_residual for the kasami G.
    """
    gu, gv, guv = form(u), form(v), form(u ^ v)
    left = ctx.mul(u ^ v, ctx.mul(v, gu) ^ ctx.mul(u, gv))
    return left ^ ctx.mul(ctx.mul(u, v), guv)


def kasami_identity_residual(ctx: FieldCtx, k: int, a: int, b: int, c: int, u: int, v: int) -> int:
    """sum of coeff * (u^(2^s1) v + u v^(2^s1)) * (u^(2^s2) v + u v^(2^s2))
    over the mixed-shift terms of G.  Terms with s2 = 0 contribute nothing,
    which is why a drops out of the polarized equation."""
    coeffs = (a, b, c)
    out = 0
    for which, cf, s1, s2 in _G_TERMS:
        if s2 == 0:
            continue
        base = coeffs[which]
        if base == 0:
            continue
        coeff = ctx.frobenius(base, cf * k)
        f1 = ctx.mul(ctx.frobenius(u, s1 * k), v) ^ ctx.mul(u, ctx.frobenius(v, s1 * k))
        f2 = ctx.mul(ctx.frobenius(u, s2 * k), v) ^ ctx.mul(u, ctx.frobenius(v, s2 * k))
        out ^= ctx.mul(coeff, ctx.mul(f1, f2))
    return out


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
    """Exhaustive (b, c) kernel scan results for a gold2/gold3 pair."""

    family: str
    n: int
    k: int
    t: int
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


def gold_kernel_scan(
    ctx: FieldCtx,
    pair: MonomialPair,
    seed: int = 0,
) -> GoldKernelSummary:
    """Scan every (b, c) in L* x L* for a gold2/gold3 pair.

    For each b: builds the columns L(alpha^j) of the maps for every c at
    once, gets every s = dim ker L from one array Gaussian elimination, and
    checks, against the full transform value multiset over a, that every
    squared value lies in {0, 2^(n+s)} and that s is odd whenever a nonzero
    value occurs.  A random subsample is cross-checked with the naive sum and
    with the scalar kernel basis.
    """
    if pair.family not in ("gold2", "gold3"):
        raise ValueError(f"kernel scan expects a gold2 or gold3 pair, got {pair.family}")
    t = 2 if pair.family == "gold2" else 3
    k = pair.param
    n = ctx.n
    order = ctx.order

    failures: list[tuple[int, int]] = []
    cs = np.arange(1, order)
    basis = 1 << np.arange(n)
    s_all = np.empty((order - 1, order - 1), dtype=np.int64)  # s at (b, c)
    for b in range(1, order):
        cols = _eval_terms(ctx, _gold_terms(ctx.frobenius_array, t, k, b, cs), basis)
        s = n - gf2.rank_array(cols, n)
        s_all[b - 1] = s
        values = transform_rows(ctx, pair.f_np, pair.g_np, b, cs).astype(np.int64)
        sq = values ** 2
        ok = ((sq == 0) | (sq == 1 << (n + s)[:, None])).all(axis=1)
        ok &= ~((values != 0).any(axis=1) & (s % 2 == 0))
        failures += [(b, c) for c in cs[~ok].tolist()]
    rng = random.Random(seed)
    for _ in range(_ORACLE_SAMPLES):
        a = rng.randrange(order)
        b = rng.randrange(1, order)
        c = rng.randrange(1, order)
        s = len(gold_map(ctx, t, k, b, c).kernel_basis())
        fw = transform_single(ctx, pair, a, b, c)
        if s != s_all[b - 1, c - 1] or fw * fw not in (0, 1 << (n + s)):
            failures.append((b, c))
    s_values, s_freq = np.unique(s_all, return_counts=True)
    return GoldKernelSummary(
        family=pair.family,
        n=n,
        k=k,
        t=t,
        pairs_checked=s_all.size,
        max_s=int(s_all.max()),
        s_counts=dict(zip(s_values.tolist(), s_freq.tolist())),
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
    """Q(u) at every point of us, one row per (a, b, c) of the batch."""
    q = 0
    for coeff, shift in ((a, k), (b, 3 * k), (c, 5 * k)):
        uu = ctx.mul_array(ctx.frobenius_array(us, shift), us)
        q = q ^ ctx.mul_array(np.asarray(coeff)[..., None], uu)
    return q


def _kasami_g_array(ctx: FieldCtx, k: int, a, b, c, us: np.ndarray) -> np.ndarray:
    """G(u) at every point of us, one row per (a, b, c) of the batch."""
    coeffs = (a, b, c)
    g = 0
    for which, cf, s1, s2 in _G_TERMS:
        coeff = ctx.frobenius_array(coeffs[which], cf * k)
        uu = ctx.mul_array(ctx.frobenius_array(us, s1 * k), ctx.frobenius_array(us, s2 * k))
        g = g ^ ctx.mul_array(coeff[..., None], uu)
    return g


def _check_kasami_chunk(ctx: FieldCtx, pair: MonomialPair, k: int, a, b, c):
    """Every per-triple identity check for a batch of (a, b, c) arrays.

    Returns (s, kernel mask over u, S0 sizes, S1 sizes, Fw, consistent),
    one entry or row per triple.
    """
    us = np.arange(ctx.order)
    lvals = _eval_terms(ctx, _kasami_terms(ctx.frobenius_array, k, a, b, c), us)
    s = ctx.n - gf2.rank_array(lvals[:, 1 << np.arange(ctx.n)], ctx.n)
    in_kernel = lvals == 0
    size = in_kernel.sum(axis=1)
    tr_zero = ctx.trace_table[_kasami_q_array(ctx, k, a, b, c, us)] == 0
    s0 = (in_kernel & tr_zero).sum(axis=1)
    s1 = size - s0
    fw = transform_single(ctx, pair, a, b, c)
    g = _kasami_g_array(ctx, k, a, b, c, us)

    ok = size == 1 << s
    ok &= fw * fw == ctx.order * (s0 - s1)
    ok &= (s0 - s1 == 0) | (s0 - s1 == size)
    ok &= (fw == 0) | ((s1 == 0) & ((s0 == 2) | (s0 == 8)))
    # G detects kernel membership and the S0 split.
    g_ok = ((g == 0) | (g == 1)) & ((g == 0) == tr_zero)
    g_ok &= ctx.mul_array(us, lvals) == g ^ ctx.frobenius_array(g, -k)
    ok &= (g_ok | ~in_kernel).all(axis=1)
    return s, in_kernel, s0, s1, fw, ok


def _triple_chunks(order: int, exhaustive: bool, samples: int, rng: random.Random):
    """(a, b, c) arrays of at most _CHUNK_CELLS / 2^n triples: exhaustive in
    (b, c, a) order, or drawn from rng one triple at a time."""
    chunk = max(1, _CHUNK_CELLS // order)
    if exhaustive:
        total = order * (order - 1) ** 2
        for start in range(0, total, chunk):
            idx = np.arange(start, min(start + chunk, total))
            rest = idx // order
            yield idx % order, 1 + rest // (order - 1), 1 + rest % (order - 1)
    else:
        for start in range(0, samples, chunk):
            drawn = [
                (rng.randrange(order), rng.randrange(1, order), rng.randrange(1, order))
                for _ in range(min(chunk, samples - start))
            ]
            yield tuple(np.array(drawn, dtype=np.int64).T)


def kasami_kernel_scan(
    ctx: FieldCtx,
    pair: MonomialPair,
    samples: int = 10_000,
    seed: int = 0,
    exhaustive: bool | None = None,
    keep_reports: int = 0,
) -> KasamiKernelSummary:
    """Verify the kasami5 kernel machinery on sampled or exhaustive triples.

    exhaustive=None picks exhaustive (a, b, c) at n = 5 and sampling above.
    keep_reports bounds how many per-triple reports are retained (0 = none,
    negative = all).
    """
    if pair.family != "kasami5":
        raise ValueError("kasami kernel scan expects a kasami5 pair")
    k = pair.param
    order = ctx.order
    if exhaustive is None:
        exhaustive = ctx.n == 5
    if not exhaustive and samples < 1:
        raise ValueError(f"a sampled scan needs samples >= 1, got {samples}")
    rng = random.Random(seed)

    # The substitution x -> x^(2^k+1) must be a permutation of L.
    sub = [ctx.pow(x, (1 << k) + 1) for x in range(order)]
    permutation_ok = len(set(sub)) == order

    # Summing the substituted form Q(x) over all x must reproduce the
    # transform computed from the original pair tables.
    substitution_ok = True
    for _ in range(32):
        a = rng.randrange(order)
        b, c = rng.randrange(1, order), rng.randrange(1, order)
        q = _kasami_q_array(ctx, k, a, b, c, np.arange(order))
        total = order - 2 * int(ctx.trace_table[q].sum())
        if total != transform_single(ctx, pair, a, b, c):
            substitution_ok = False
            break

    failures: list[tuple[int, int, int]] = []
    reports: list[KernelReport] = []
    s0_nonzero: set[int] = set()
    max_s = 0
    checked = 0
    for a, b, c in _triple_chunks(order, exhaustive, samples, rng):
        s, in_kernel, s0, s1, fw, ok = _check_kasami_chunk(ctx, pair, k, a, b, c)
        keep = len(a) if keep_reports < 0 else min(len(a), keep_reports - len(reports))
        for i in range(keep):
            reports.append(KernelReport(
                int(a[i]), int(b[i]), int(c[i]), int(s[i]), np.flatnonzero(in_kernel[i]).tolist(),
                int(s0[i]), int(s1[i]), int(fw[i]), bool(ok[i]),
            ))
        checked += len(a)
        max_s = max(max_s, int(s.max()))
        s0_nonzero.update(s0[fw != 0].tolist())
        failures += [tuple(t) for t in np.stack([a, b, c], axis=1)[~ok].tolist()]
    return KasamiKernelSummary(
        n=ctx.n,
        k=k,
        triples_checked=checked,
        exhaustive=exhaustive,
        permutation_ok=permutation_ok,
        substitution_ok=substitution_ok,
        all_consistent=not failures,
        s0_sizes_nonzero_fw=s0_nonzero,
        max_s=max_s,
        failures=failures,
        reports=reports,
    )
