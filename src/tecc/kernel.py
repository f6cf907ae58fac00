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
        basis, _ = gf2.nullspace_basis(rows, self.ctx.n)
        return basis


def kernel_of(lmap: LinearizedMap) -> list[int]:
    """All 2^s kernel elements, sorted; always contains 0."""
    return gf2.span(lmap.kernel_basis())


def gold_map(ctx: FieldCtx, t: int, k: int, b: int, c: int) -> LinearizedMap:
    """The four-term L(u) for the pair {x^(2^k+1), x^(2^(tk)+1)}."""
    if b == 0 and c == 0:
        raise ValueError("at least one of b, c must be nonzero")
    terms = [
        (b, k),
        (ctx.frobenius(b, -k), -k),
        (c, t * k),
        (ctx.frobenius(c, -t * k), -t * k),
    ]
    return LinearizedMap(ctx, [(co, sh) for co, sh in terms if co])


def kasami_map(ctx: FieldCtx, k: int, a: int, b: int, c: int) -> LinearizedMap:
    """The six-term L(u) for the substituted kasami5 transform."""
    if a == 0 and b == 0 and c == 0:
        raise ValueError("at least one of a, b, c must be nonzero")
    terms = [
        (a, k),
        (ctx.frobenius(a, -k), -k),
        (b, 3 * k),
        (ctx.frobenius(b, -3 * k), -3 * k),
        (c, 5 * k),
        (ctx.frobenius(c, -5 * k), -5 * k),
    ]
    return LinearizedMap(ctx, [(co, sh) for co, sh in terms if co])


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
    oracle_samples: int = 64,
    seed: int = 0,
) -> GoldKernelSummary:
    """Scan every (b, c) in L* x L* for a gold2/gold3 pair.

    For each (b, c): extracts s = dim ker L by Gaussian elimination and
    checks, against the full FWHT value multiset over a, that every squared
    value lies in {0, 2^(n+s)} and that s is odd whenever a nonzero value
    occurs.  A random subsample is cross-checked with the naive sum.
    """
    if pair.family not in ("gold2", "gold3"):
        raise ValueError(f"kernel scan expects a gold2 or gold3 pair, got {pair.family}")
    t = 2 if pair.family == "gold2" else 3
    k = pair.param
    rng = random.Random(seed)
    order = ctx.order

    max_s = 0
    s_counts: dict[int, int] = {}
    failures: list[tuple[int, int]] = []
    checked = 0
    cs = np.arange(1, order)
    for b in range(1, order):
        rows = transform_rows(ctx, pair.f_np, pair.g_np, b, cs).astype(np.int64)
        for c, values in zip(cs.tolist(), rows):
            lmap = gold_map(ctx, t, k, b, c)
            s = len(lmap.kernel_basis())
            s_counts[s] = s_counts.get(s, 0) + 1
            max_s = max(max_s, s)
            sq = np.unique(values ** 2)
            ok = set(sq.tolist()) <= {0, 1 << (ctx.n + s)}
            if (values != 0).any() and s % 2 == 0:
                ok = False
            if not ok:
                failures.append((b, c))
            checked += 1
    if oracle_samples:
        for _ in range(oracle_samples):
            a = rng.randrange(order)
            b = rng.randrange(1, order)
            c = rng.randrange(1, order)
            lmap = gold_map(ctx, t, k, b, c)
            s = len(lmap.kernel_basis())
            fw = transform_single(ctx, pair, a, b, c)
            if fw * fw not in (0, 1 << (ctx.n + s)):
                failures.append((b, c))
    return GoldKernelSummary(
        family=pair.family,
        n=ctx.n,
        k=k,
        t=t,
        pairs_checked=checked,
        max_s=max_s,
        s_counts=s_counts,
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


def _check_kasami_triple(
    ctx: FieldCtx, pair: MonomialPair, k: int, a: int, b: int, c: int
) -> tuple[KernelReport, bool]:
    """Build one KernelReport and run every per-triple identity check."""
    lmap = kasami_map(ctx, k, a, b, c)
    kern = kernel_of(lmap)
    s = len(kern).bit_length() - 1
    s0 = sum(1 for u in kern if ctx.trace(kasami_quadratic(ctx, k, a, b, c, u)) == 0)
    s1 = len(kern) - s0
    fw = transform_single(ctx, pair, a, b, c)

    ok = fw * fw == ctx.order * (s0 - s1)
    ok &= (s0 - s1) in (0, len(kern))
    if fw != 0:
        ok &= s1 == 0 and s0 in (2, 8)
    # G detects kernel membership and the S0 split.
    for u in kern:
        g = kasami_g_form(ctx, k, a, b, c, u)
        ok &= g in (0, 1)
        ok &= (g == 0) == (ctx.trace(kasami_quadratic(ctx, k, a, b, c, u)) == 0)
        ok &= ctx.mul(u, lmap.eval_formula(u)) == g ^ ctx.frobenius(g, -k)
    report = KernelReport(a, b, c, s, kern, s0, s1, fw, ok)
    return report, ok


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
        total = 0
        for x in range(order):
            total += 1 - 2 * ctx.trace(kasami_quadratic(ctx, k, a, b, c, x))
        if total != transform_single(ctx, pair, a, b, c):
            substitution_ok = False
            break

    if exhaustive:
        triples = (
            (a, b, c)
            for b in range(1, order)
            for c in range(1, order)
            for a in range(order)
        )
        n_triples = order * (order - 1) ** 2
    else:
        triples = (
            (rng.randrange(order), rng.randrange(1, order), rng.randrange(1, order))
            for _ in range(samples)
        )
        n_triples = samples

    failures: list[tuple[int, int, int]] = []
    reports: list[KernelReport] = []
    s0_nonzero: set[int] = set()
    max_s = 0
    checked = 0
    for a, b, c in triples:
        report, ok = _check_kasami_triple(ctx, pair, k, a, b, c)
        checked += 1
        max_s = max(max_s, report.s)
        if report.Fw != 0:
            s0_nonzero.add(report.S0_size)
        if not ok:
            failures.append((a, b, c))
        if keep_reports < 0 or len(reports) < keep_reports:
            reports.append(report)
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
