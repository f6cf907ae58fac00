"""Shared cached builders: expensive artifacts are computed once per run,
and the scalar oracles that the batched library paths are checked against:
among them the scalar kernel forms (L, Q, G and the polarization identity)
that the kernel scans evaluate as arrays."""

import random
from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import comb, gcd

import numpy as np

from tecc import (
    DecodeResult,
    FamilySpec,
    MonomialPair,
    NonIntegralResult,
    ParityCheckMatrix,
    Syndrome,
    WeightDistribution,
    build_pair_index,
    build_parity_check,
    codeword_weight_distribution,
    dual_weights_from_spectrum,
    encode,
    full_spectrum,
    instantiate,
    macwilliams_transform,
    make_ctx,
    power_table,
    syndrome_of,
    systematic_generator,
)
from tecc.decoder import CollisionDetected
from tecc.functions import differential_counts
from tecc.gf2 import row_reduce, to_bits, to_int
from tecc.kernel import (
    _G_TERMS,
    _ORACLE_SAMPLES,
    GoldKernelSummary,
    KasamiKernelSummary,
    KernelReport,
    LinearizedMap,
    _check_kasami_chunk,
    _draw_triples,
    _kasami_terms,
    gold_map,
)
from tecc.spectrum import allowed_values, transform_rows, transform_single

FAMILIES = ("gold2", "gold3", "th", "kasami5")

# pass/fail lines from the acceptance suite; echoed in the terminal summary
ACCEPTANCE_LINES: list[str] = []


def spec_for(family: str, n: int) -> FamilySpec:
    """k = 1 for the gcd families, t = (n-1)/2 for th."""
    k = (n - 1) // 2 if family == "th" else 1
    return FamilySpec(family, k)


@lru_cache(maxsize=None)
def get_ctx(n: int):
    return make_ctx(n)


@lru_cache(maxsize=None)
def get_pair(family: str, n: int):
    return instantiate(spec_for(family, n), get_ctx(n))


@lru_cache(maxsize=None)
def get_report(family: str, n: int):
    return full_spectrum(get_ctx(n), get_pair(family, n))


@lru_cache(maxsize=None)
def get_H(family: str, n: int):
    return build_parity_check(get_ctx(n), get_pair(family, n))


@lru_cache(maxsize=None)
def get_generator(family: str, n: int):
    return systematic_generator(get_H(family, n))


@lru_cache(maxsize=None)
def get_generator_rows(family: str, n: int) -> list[int]:
    """The nullspace basis of H in systematic form, row i at message bit i."""
    H = get_H(family, n)
    return nullspace_basis(H.echelon, H.ncols)[0]


@lru_cache(maxsize=None)
def get_pair_index(family: str, n: int):
    return build_pair_index(get_ctx(n), get_pair(family, n))


@lru_cache(maxsize=None)
def get_dict_pair_index(family: str, n: int):
    return dict_pair_index(get_ctx(n), get_pair(family, n))


@lru_cache(maxsize=None)
def get_dual(family: str, n: int):
    ctx = get_ctx(n)
    return dual_weights_from_spectrum(ctx, get_pair(family, n), get_report(family, n), get_H(family, n))


@lru_cache(maxsize=None)
def get_code_dist(family: str, n: int):
    return macwilliams_transform(get_dual(family, n), 3 * n)


@lru_cache(maxsize=None)
def get_bruteforce_dist(family: str, n: int):
    return codeword_weight_distribution(get_ctx(n), get_pair(family, n))


def pair_with_g7(family: str):
    """The family's n = 5 f table paired with g = x^7, under the family label."""
    ctx = get_ctx(5)
    pair = get_pair(family, 5)
    return ctx, MonomialPair(5, pair.d1, 7, pair.f_table, power_table(ctx, 7), family, pair.param)


def gray_weight_distribution(ctx, pair) -> WeightDistribution:
    """codeword_weight_distribution by a Gray-code walk over the messages:
    consecutive messages differ in one unit message, so each codeword is
    the previous one xored with one unit encoding."""
    gen = systematic_generator(build_parity_check(ctx, pair))
    units = [encode(gen, 1 << i) for i in range(gen.dimension)]
    coeffs = [0] * (gen.length + 1)
    coeffs[0] = 1
    word = 0
    for m in range(1, 1 << gen.dimension):
        word ^= units[(m & -m).bit_length() - 1]
        coeffs[word.bit_count()] += 1
    return WeightDistribution(gen.length, coeffs)


def span(basis: list[int]) -> list[int]:
    """All 2^len(basis) GF(2) combinations of the basis vectors, sorted."""
    out = [0]
    for b in basis:
        out += [v ^ b for v in out]
    return sorted(out)


def eval_matrix(lmap: LinearizedMap, u: int) -> int:
    """The GF(2) matrix-vector product of lmap's columns with u."""
    acc = 0
    j = 0
    while u:
        if u & 1:
            acc ^= lmap.cols[j]
        u >>= 1
        j += 1
    return acc


def transpose(rows: list[int], ncols: int) -> list[int]:
    """Transpose a bit matrix given as row bitmasks."""
    out = []
    for c in range(ncols):
        v = 0
        for r, row in enumerate(rows):
            v |= ((row >> c) & 1) << r
        out.append(v)
    return out


def nullspace_basis(echelon: tuple[int, list[int], list[int]], ncols: int) -> tuple[list[int], list[int]]:
    """Basis of {x : M x = 0} from `row_reduce(M, ncols)`, plus the list of
    free (non-pivot) columns.

    Basis vector i has bit free_cols[i] set, so stacking them yields a
    systematic-form generator for the nullspace.
    """
    _, rref, pivots = echelon
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        v = 1 << fc
        for r, pc in enumerate(pivots):
            if (rref[r] >> fc) & 1:
                v |= 1 << pc
        basis.append(v)
    return basis, free_cols


def kernel_basis(lmap: LinearizedMap) -> list[int]:
    """A basis of lmap's kernel, from the nullspace of its matrix."""
    n = lmap.ctx.n
    return nullspace_basis(row_reduce(transpose(lmap.cols, n), n), n)[0]


def kernel_of(lmap: LinearizedMap) -> list[int]:
    """All 2^s kernel elements, sorted; always contains 0."""
    return span(kernel_basis(lmap))


def kasami_map(ctx, k: int, a: int, b: int, c: int) -> LinearizedMap:
    """The six-term L(u) for the substituted kasami5 transform."""
    if a == 0 and b == 0 and c == 0:
        raise ValueError("at least one of a, b, c must be nonzero")
    terms = _kasami_terms(ctx.frobenius, k, a, b, c)
    return LinearizedMap(ctx, [(co, sh) for co, sh in terms if co])


def kasami_quadratic(ctx, k: int, a: int, b: int, c: int, u: int) -> int:
    """Q(u) = a*u^(2^k+1) + b*u^(2^(3k)+1) + c*u^(2^(5k)+1)."""
    out = 0
    for coeff, shift in ((a, k), (b, 3 * k), (c, 5 * k)):
        if coeff:
            out ^= ctx.mul(coeff, ctx.mul(ctx.frobenius(u, shift), u))
    return out


def gold_quadratic(ctx, t: int, k: int, a: int, b: int, c: int, u: int) -> int:
    """Q(u) = a*u + b*u^(2^k+1) + c*u^(2^(tk)+1)."""
    out = ctx.mul(a, u)
    for coeff, shift in ((b, k), (c, t * k)):
        if coeff:
            out ^= ctx.mul(coeff, ctx.mul(ctx.frobenius(u, shift), u))
    return out


def kasami_g_form(ctx, k: int, a: int, b: int, c: int, u: int) -> int:
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


def quadratic_pair_identity(ctx, form, u: int, v: int) -> int:
    """(u+v)*(v*G(u) + u*G(v)) + u*v*G(u+v) for a quadratic form G.

    Zero whenever G vanishes on u, v and u+v; in general it equals the
    cross-term sum kasami_identity_residual for the kasami G.
    """
    gu, gv, guv = form(u), form(v), form(u ^ v)
    left = ctx.mul(u ^ v, ctx.mul(v, gu) ^ ctx.mul(u, gv))
    return left ^ ctx.mul(ctx.mul(u, v), guv)


def kasami_identity_residual(ctx, k: int, a: int, b: int, c: int, u: int, v: int) -> int:
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


def column_syndrome(pair, x: int) -> Syndrome:
    return Syndrome(x, pair.f_table[x], pair.g_table[x])


def extract_message(gen, word: int) -> int:
    """Read the message bits back off the systematic columns."""
    return to_int(to_bits(word, gen.length)[gen.message_cols])


def loop_field_tables(ctx) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """FieldCtx's exp and log arrays, built one _mul_raw step at a time,
    and the trace table summed from them: Tr(g^i) = sum over k of g^(i 2^k)."""
    N = ctx.group_order
    exp = np.zeros(4 * N + 1, dtype=np.int64)
    log = np.full(ctx.order, 2 * N, dtype=np.int64)
    v = 1
    for i in range(N):
        exp[i] = exp[i + N] = v
        log[v] = i
        v = ctx._mul_raw(v, ctx.generator)
    assert v == 1
    powers = np.arange(N)
    trace = np.zeros(ctx.order, dtype=np.int64)
    for _ in range(ctx.n):
        trace[exp[:N]] ^= exp[powers]
        powers = powers * 2 % N
    return exp, log, trace


def direct_spectrum(ctx, pair, b: int, c: int) -> np.ndarray:
    """Transform values for every a by direct summation over x (no FWHT).

    Index-faithful: entry a equals transform_single(ctx, pair, a, b, c).
    """
    xs = np.arange(ctx.order)
    masked = ctx.mul_array(b, pair.f_np) ^ ctx.mul_array(c, pair.g_np)
    ax = ctx.mul_array(xs[:, None], xs[None, :])
    signs = 1 - 2 * ctx.trace_table[ax ^ masked[None, :]].astype(np.int64)
    return signs.sum(axis=1)


def fwht_inplace(mat: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis by the radix-2
    butterfly, in place, exact ints."""
    size = mat.shape[-1]
    h = 1
    while h < size:
        view = mat.reshape(mat.shape[0], -1, 2, h)
        even = view[:, :, 0, :]
        odd = view[:, :, 1, :]
        diff = even - odd
        even += odd
        odd[:] = diff
        h <<= 1
    return mat


def gather_transform_rows(ctx, f_np, g_np, b: int, cs) -> np.ndarray:
    """transform_rows with the signs gathered from the trace table per cell
    and the butterfly transform."""
    cs = np.asarray(cs, dtype=np.int64)
    masked = ctx.mul_array(b, f_np) ^ ctx.mul_array(cs[:, None], g_np)
    acc = np.int16 if ctx.order < (1 << 15) else np.int32
    return fwht_inplace(1 - 2 * ctx.trace_table[masked].astype(acc))


def loop_transform(ctx, pair, a: int, b: int, c: int) -> int:
    """F(a, b, c) as a Python loop over x with scalar field arithmetic."""
    f = pair.f_table
    g = pair.g_table
    return sum(1 - 2 * int(ctx.trace_table[ctx.mul(a, x) ^ ctx.mul(b, f[x]) ^ ctx.mul(c, g[x])])
               for x in range(ctx.order))


def unreduced_histogram(ctx, pair) -> dict[int, int]:
    """The (a, b, c) value histogram over b, c in L*, one row batch per b,
    with no orbit reduction."""
    order = ctx.order
    cs = np.arange(1, order)
    counts = np.zeros(2 * order + 1, dtype=np.int64)
    for b in range(1, order):
        rows = transform_rows(ctx, pair.f_np, pair.g_np, b, cs)
        counts += np.bincount(rows.ravel().astype(np.int64) + order, minlength=2 * order + 1)
    return {v - order: int(cnt) for v, cnt in enumerate(counts) if cnt}


def unreduced_witness(ctx, pair) -> tuple[int, int, int]:
    """The first (a, b, c) in (b, c, a) order over L* x L* x L whose naive
    sum leaves the five-value set, one row batch per b, with no orbit
    reduction."""
    ok = allowed_values(ctx.n)
    cs = np.arange(1, ctx.order)
    for b in range(1, ctx.order):
        rows = transform_rows(ctx, pair.f_np, pair.g_np, b, cs)
        for c in cs[~np.isin(rows, list(ok)).all(axis=1)].tolist():
            for a in range(ctx.order):
                if transform_single(ctx, pair, a, b, c) not in ok:
                    return (a, b, c)
    raise AssertionError("every value is five-valued")


def reduced_histogram(ctx, pair) -> dict[int, int]:
    """The (a, b, c) value histogram over b, c in L* from the rows b = g^i,
    i < e = gcd(d1, 2^n - 1), each with every c, scaled by (2^n - 1)/e: the
    x -> lambda*x reduction without the squaring fold."""
    order = ctx.order
    e = gcd(pair.d1, ctx.group_order)
    cs = np.arange(1, order)
    counts = np.zeros(2 * order + 1, dtype=np.int64)
    for i in range(e):
        rows = transform_rows(ctx, pair.f_np, pair.g_np, ctx.pow(ctx.generator, i), cs)
        counts += np.bincount(rows.ravel().astype(np.int64) + order, minlength=2 * order + 1)
    return {v - order: int(cnt) * (ctx.group_order // e) for v, cnt in enumerate(counts) if cnt}


def dict_pair_index(ctx, pair) -> dict:
    """Syndrome -> unordered position pair (x, y), x < y, as a dict over all
    C(2^n - 1, 2) pairs; any collision raises CollisionDetected."""
    f = pair.f_table
    g = pair.g_table
    index = {}
    for x in range(1, ctx.order):
        fx, gx = f[x], g[x]
        for y in range(x + 1, ctx.order):
            s = Syndrome(x ^ y, fx ^ f[y], gx ^ g[y])
            if s in index:
                raise CollisionDetected(f"pairs {index[s]} and {(x, y)} share syndrome {s}")
            index[s] = (x, y)
    return index


def dict_decode(ctx, pair, H, index: dict, received: int):
    """decode with the dict index and one scalar probe per z for weight 3."""
    def corrected(positions):
        word = received
        for x in positions:
            word ^= 1 << (x - 1)
        return DecodeResult("corrected", frozenset(positions), word)

    syn = syndrome_of(H, received)
    if syn.is_zero():
        return DecodeResult("clean", frozenset(), received)
    x = syn.s1
    if x != 0 and pair.f_table[x] == syn.sf and pair.g_table[x] == syn.sg:
        return corrected((x,))
    hit = index.get(syn)
    if hit is not None:
        return corrected(hit)
    f = pair.f_table
    g = pair.g_table
    for z in range(1, ctx.order):
        hit = index.get(Syndrome(syn.s1 ^ z, syn.sf ^ f[z], syn.sg ^ g[z]))
        if hit is not None:
            return corrected((z, *hit))
    return DecodeResult("uncorrectable", frozenset(), None)


def exhaustive_is_apn(ctx, table) -> bool:
    """is_apn from the differential counts of every q != 0."""
    return all(int(differential_counts(ctx, table, q).max()) <= 2 for q in range(1, ctx.order))


def scalar_gold_kernel_scan(ctx, pair, seed: int = 0):
    """gold_kernel_scan with one gold_map and one elimination per (b, c)."""
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
            s = len(kernel_basis(gold_map(ctx, t, k, b, c)))
            s_counts[s] = s_counts.get(s, 0) + 1
            max_s = max(max_s, s)
            ok = set(np.unique(values ** 2).tolist()) <= {0, 1 << (ctx.n + s)}
            if (values != 0).any() and s % 2 == 0:
                ok = False
            if not ok:
                failures.append((b, c))
            checked += 1
    for a, b, c in zip(*(x.tolist() for x in _draw_triples(rng, order, _ORACLE_SAMPLES))):
        s = len(kernel_basis(gold_map(ctx, t, k, b, c)))
        fw = transform_single(ctx, pair, a, b, c)
        if fw * fw not in (0, 1 << (ctx.n + s)):
            failures.append((b, c))
    return GoldKernelSummary(pair.family, ctx.n, k, checked, max_s, s_counts,
                             not failures, failures)


def scalar_kasami_triple(ctx, pair, k: int, a: int, b: int, c: int):
    """One KernelReport and its consistency, by scalar field arithmetic."""
    lmap = kasami_map(ctx, k, a, b, c)
    kern = kernel_of(lmap)
    s = len(kern).bit_length() - 1
    s0 = sum(1 for u in kern if int(ctx.trace_table[kasami_quadratic(ctx, k, a, b, c, u)]) == 0)
    s1 = len(kern) - s0
    fw = transform_single(ctx, pair, a, b, c)

    ok = fw * fw == ctx.order * (s0 - s1)
    ok &= (s0 - s1) in (0, len(kern))
    if fw != 0:
        ok &= s1 == 0 and s0 in (2, 8)
    for u in kern:
        g = kasami_g_form(ctx, k, a, b, c, u)
        ok &= g in (0, 1)
        ok &= (g == 0) == (int(ctx.trace_table[kasami_quadratic(ctx, k, a, b, c, u)]) == 0)
        ok &= ctx.mul(u, lmap.eval_formula(u)) == g ^ ctx.frobenius(g, -k)
    return KernelReport(a, b, c, s, kern, s0, s1, fw, ok), ok


def _frobenius_orbit_min(ctx, *coeffs) -> tuple[int, ...]:
    """The least of the tuples (x^(2^j), y^(2^j), ...) over j < n."""
    return min(tuple(ctx.frobenius(x, j) for x in coeffs) for j in range(ctx.n))


def scalar_kasami_reps(ctx) -> list[tuple[int, int, int, int]]:
    """(a, b, c, weight) for the orbits of squaring and u -> mu*u on
    L x L* x L*, one Python tuple at a time: (0, 1, c) for each cyclotomic
    coset of L*, then (1, b, c) for each Frobenius orbit of L* x L*, each
    in ascending order and weighted 2^n - 1 times its orbit's size."""
    nonzero = range(1, ctx.order)
    cosets = Counter(_frobenius_orbit_min(ctx, c) for c in nonzero)
    orbits = Counter(_frobenius_orbit_min(ctx, b, c) for b in nonzero for c in nonzero)
    return ([(0, 1, c, ctx.group_order * w) for (c,), w in sorted(cosets.items())]
            + [(1, b, c, ctx.group_order * w) for (b, c), w in sorted(orbits.items())])


def scalar_kasami_fold(ctx, k: int, a: int, b: int, c: int) -> tuple[int, int, int]:
    """The representative of (a, b, c) in scalar_kasami_reps: the mu with
    mu^(2^k+1) = 1/a (at a = 0, mu^(2^3k+1) = 1/b), found by search, scales
    the triple to (1, b', c') or (0, 1, c'), then the orbit's least pair."""
    def scaled(coeff: int, mu: int, j: int) -> int:
        return ctx.mul(coeff, ctx.pow(mu, (1 << j * k % ctx.n) + 1))

    lead, j = (a, 1) if a else (b, 3)
    mu = next(m for m in range(1, ctx.order) if scaled(lead, m, j) == 1)
    if a:
        return (1, *_frobenius_orbit_min(ctx, scaled(b, mu, 3), scaled(c, mu, 5)))
    return (0, 1, *_frobenius_orbit_min(ctx, scaled(c, mu, 5)))


def _scalar_substitution_checks(ctx, pair, rng: random.Random) -> tuple[bool, bool]:
    """permutation_ok and substitution_ok, the latter on rng's next 32 triples."""
    k, order = pair.param, ctx.order
    permutation_ok = len({ctx.pow(x, (1 << k) + 1) for x in range(order)}) == order
    substitution_ok = all(
        sum(1 - 2 * int(ctx.trace_table[kasami_quadratic(ctx, k, a, b, c, x)])
            for x in range(order)) == transform_single(ctx, pair, a, b, c)
        for a, b, c in zip(*(x.tolist() for x in _draw_triples(rng, order, 32))))
    return permutation_ok, substitution_ok


def scalar_kasami_kernel_scan(ctx, pair, samples: int = 10_000, seed: int = 0,
                              exhaustive: bool | None = None):
    """kasami_kernel_scan(keep_reports=-1), one scalar check per triple: in
    the exhaustive scan, the triples of scalar_kasami_reps, then the
    64 samples, each against the representative scalar_kasami_fold finds."""
    k = pair.param
    order = ctx.order
    if exhaustive is None:
        exhaustive = ctx.n <= 9
    rng = random.Random(seed)
    permutation_ok, substitution_ok = _scalar_substitution_checks(ctx, pair, rng)
    if exhaustive:
        reps = scalar_kasami_reps(ctx)
        triples = [rep[:3] for rep in reps]
        checked = sum(rep[3] for rep in reps)
    else:
        triples = list(zip(*(x.tolist() for x in _draw_triples(rng, order, samples))))
        checked = samples
    reports = [scalar_kasami_triple(ctx, pair, k, *t)[0] for t in triples]
    failures = [(r.a, r.b, r.c) for r in reports if not r.consistent]
    if exhaustive:
        by_triple = {(r.a, r.b, r.c): r for r in reports}
        for t in zip(*(x.tolist() for x in _draw_triples(rng, order, _ORACLE_SAMPLES))):
            got, ok = scalar_kasami_triple(ctx, pair, k, *t)
            want = by_triple[scalar_kasami_fold(ctx, k, *t)]
            if not ok or (got.s, got.S0_size, got.S1_size, got.Fw) != (
                    want.s, want.S0_size, want.S1_size, want.Fw):
                failures.append(t)
    return KasamiKernelSummary(
        n=ctx.n,
        k=k,
        triples_checked=checked,
        exhaustive=exhaustive,
        permutation_ok=permutation_ok,
        substitution_ok=substitution_ok,
        all_consistent=not failures,
        s0_sizes_nonzero_fw={r.S0_size for r in reports if r.Fw != 0},
        max_s=max(r.s for r in reports),
        failures=failures,
        reports=reports,
    )


def unfolded_kasami_scan(ctx, pair, seed: int = 0):
    """The exhaustive kasami5 scan without the fold: every (a, b, c) of
    L x L* x L* in (b, c, a) order through the batched per-triple checks,
    64 triples at a time.  It keeps no reports."""
    k, order, chunk = pair.param, ctx.order, 64
    permutation_ok, substitution_ok = _scalar_substitution_checks(ctx, pair, random.Random(seed))
    total = order * (order - 1) ** 2
    failures: list[tuple[int, int, int]] = []
    s0_sizes: set[int] = set()
    max_s = 0
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        rest = idx // order
        a, b, c = idx % order, 1 + rest // (order - 1), 1 + rest % (order - 1)
        s, _, _, s0, _, fw, ok = _check_kasami_chunk(ctx, pair, k, a, b, c)
        max_s = max(max_s, int(s.max()))
        s0_sizes.update(s0[fw != 0].tolist())
        failures += [tuple(t) for t in np.stack([a, b, c], axis=1)[~ok].tolist()]
    return KasamiKernelSummary(
        n=ctx.n,
        k=k,
        triples_checked=total,
        exhaustive=True,
        permutation_ok=permutation_ok,
        substitution_ok=substitution_ok,
        all_consistent=not failures,
        s0_sizes_nonzero_fw=s0_sizes,
        max_s=max_s,
        failures=failures,
        reports=[],
    )


def scalar_weight3_syndromes_distinct(ctx, pair) -> bool:
    """weight3_syndromes_distinct over a set of (x, f, g) syndrome tuples."""
    f = pair.f_table
    g = pair.g_table
    seen = {(0, 0, 0)}
    cols = [(x, f[x], g[x]) for x in range(1, ctx.order)]
    for s in cols:
        if s in seen:
            return False
        seen.add(s)
    for (x1, f1, g1), (x2, f2, g2) in combinations(cols, 2):
        s = (x1 ^ x2, f1 ^ f2, g1 ^ g2)
        if s in seen:
            return False
        seen.add(s)
    for (x1, f1, g1), (x2, f2, g2), (x3, f3, g3) in combinations(cols, 3):
        s = (x1 ^ x2 ^ x3, f1 ^ f2 ^ f3, g1 ^ g2 ^ g3)
        if s in seen:
            return False
        seen.add(s)
    return True


def loop_parity_check(ctx, pair) -> ParityCheckMatrix:
    """build_parity_check as a Python loop over every column and bit."""
    n = ctx.n
    rows = [0] * (3 * n)
    for j in range(1, ctx.order):
        bit = 1 << (j - 1)
        fx = pair.f_table[j]
        gx = pair.g_table[j]
        for i in range(n):
            if (j >> i) & 1:
                rows[i] |= bit
            if (fx >> i) & 1:
                rows[n + i] |= bit
            if (gx >> i) & 1:
                rows[2 * n + i] |= bit
    return ParityCheckMatrix(n, ctx.order - 1, rows)


def xor_encode(rows: list[int], message: int) -> int:
    """encode as the xor of the generator rows the message bits select."""
    if message >> len(rows):
        raise ValueError("message wider than the code dimension")
    word = 0
    i = 0
    while message:
        if message & 1:
            word ^= rows[i]
        message >>= 1
        i += 1
    return word


def krawtchouk_direct(k: int, v: int, N: int) -> int:
    """Direct binomial-sum evaluation, used as an independent cross-check."""
    return sum((-1) ** j * comb(v, j) * comb(N - v, k - j) for j in range(k + 1))


class KrawtchoukTable:
    """Binary Krawtchouk values K_k(v) for a fixed length N, built lazily
    per argument v by the three-term recurrence

        (k+1) K_(k+1)(v) = (N - 2v) K_k(v) - (N - k + 1) K_(k-1)(v).
    """

    def __init__(self, N: int) -> None:
        self.N = N
        self._columns: dict[int, list[int]] = {}

    def column(self, v: int) -> list[int]:
        """[K_0(v), K_1(v), ..., K_N(v)]."""
        if v not in self._columns:
            N = self.N
            col = [0] * (N + 1)
            col[0] = 1
            if N >= 1:
                col[1] = N - 2 * v
            for k in range(1, N):
                num = (N - 2 * v) * col[k] - (N - k + 1) * col[k - 1]
                q, r = divmod(num, k + 1)
                if r:  # pragma: no cover
                    raise ArithmeticError("Krawtchouk recurrence lost integrality")
                col[k + 1] = q
            self._columns[v] = col
        return self._columns[v]

    def value(self, k: int, v: int) -> int:
        return self.column(v)[k]


def cached_macwilliams_transform(dual_dist, dual_dim: int):
    """macwilliams_transform summed for every w from one cached Krawtchouk
    column per dual support weight, with the same checks and messages."""
    N = dual_dist.length
    if dual_dist.total() != 1 << dual_dim:
        raise ValueError(f"distribution mass {dual_dist.total()} != 2^{dual_dim}")
    table = KrawtchoukTable(N)
    support = [(v, a) for v, a in enumerate(dual_dist.coeffs) if a]
    scale = 1 << dual_dim
    coeffs = []
    for w in range(N + 1):
        num = sum(a * table.value(w, v) for v, a in support)
        q, r = divmod(num, scale)
        if r or q < 0:
            raise NonIntegralResult(f"A_{w} = {num}/{scale} is not a non-negative integer")
        coeffs.append(q)
    out = WeightDistribution(N, coeffs)
    if out.total() != 1 << (N - dual_dim):  # pragma: no cover
        raise ArithmeticError("transformed mass != 2^(N - dual_dim)")
    return out
