"""Weight distribution of a code from its dual, via exact Krawtchouk sums.

A_w(C) = S_w / 2^dual_dim with S_w = sum over v of A_v(dual) K_w(v), in exact
big integers; a non-integral or negative A_w is an error, not a rounding case.
The sums run at length L = N + 1 (2^n for the families): (1 + x) (1 - x)^v
(1 + x)^(N-v) gives H_w = sum over v of A_v(dual) K^L_w(v) = S_w + S_(w-1).
With (w+1) K^L_(w+1)(v) = (L - 2v) K^L_w(v) - (L - w + 1) K^L_(w-1)(v),
K^L_(L-w)(v) = (-1)^v K^L_w(v) and K^L_w(L-v) = (-1)^w K^L_w(v) (MacWilliams-
Sloane, ch. 5), one recurrence per class {v, L - v} (4 for the 6 dual weights
of every family), for w <= L/2 only, gives H_w and H_(L-w) from the same
products.  One upward pass S_w = H_w - S_(w-1) then writes A_w over H_w in
place, and H_L = S_N closes it.
"""

from __future__ import annotations

from operator import mul

from .code import WeightDistribution


# The full output distribution has N + 1 coefficients of up to N bits, about
# 1 GB from this length on, so lengths N >= LENGTH_LIMIT are refused.
LENGTH_LIMIT = (1 << 17) - 1


class NonIntegralResult(ArithmeticError):
    """The transform produced a non-integer or negative coefficient."""


def check_length(N: int) -> None:
    """Raise ValueError when the transform refuses codes of length N."""
    if N >= LENGTH_LIMIT:
        raise ValueError(
            f"the MacWilliams transform is limited to length < {LENGTH_LIMIT}, where the "
            f"full output distribution reaches about 1 GB; got {N} "
            f"(ROADMAP item 2: streaming exact MacWilliams)"
        )


def macwilliams_transform(dual_dist: WeightDistribution, dual_dim: int) -> WeightDistribution:
    """Weight distribution of the code whose dual has the given distribution.

    Every A_w is checked to be a non-negative integer; when several fail,
    NonIntegralResult names the smallest w.  Refused from N = LENGTH_LIMIT
    on (`check_length`).
    """
    N = dual_dist.length
    check_length(N)
    if not 0 <= dual_dim <= N:
        raise ValueError(f"dual_dim must lie in [0, N]: got dual_dim = {dual_dim} at N = {N}")
    if dual_dist.total() != 1 << dual_dim:
        raise ValueError(f"distribution mass {dual_dist.total()} != 2^{dual_dim}")
    L, scale, a = N + 1, 1 << dual_dim, dual_dist.coeffs
    # One class per r = min(v, L - v), even r first, with factor a_r + (-1)^w a_(L-r)
    # in H_w (masses[w & 1]) and that at the parity of w + L, signed (-1)^r, in H_(L-w).
    reps = sorted({min(v, L - v) for v, av in enumerate(a) if av}, key=lambda r: r & 1)
    split = sum(1 for r in reps if r % 2 == 0)
    partners = [a[L - r] if 0 < r < L - r else 0 for r in reps]
    masses = [a[r] + b for r, b in zip(reps, partners)], [a[r] - b for r, b in zip(reps, partners)]
    slopes = [L - 2 * r for r in reps]
    prev = [0] * len(reps)   # K^L_(w-1)(r)
    cur = [1] * len(reps)    # K^L_w(r)
    coeffs = [0] * (L + 1)   # H_0..H_L, then A_0..A_N over them
    for w in range(L // 2 + 1):
        terms = list(map(mul, masses[w & 1], cur))
        even, odd = sum(terms[:split]), sum(terms[split:])
        coeffs[w] = even + odd
        if L % 2:  # a class's two weights differ in parity
            terms = list(map(mul, masses[~w & 1], cur))
            even, odd = sum(terms[:split]), sum(terms[split:])
        coeffs[L - w] = even - odd
        back, step = L - w + 1, w + 1
        nxt = []
        for c, k, p in zip(slopes, cur, prev):
            q, r = divmod(c * k - back * p, step)
            if r:  # pragma: no cover
                raise ArithmeticError("Krawtchouk recurrence lost integrality")
            nxt.append(q)
        prev, cur = cur, nxt
    closing, low, mask = coeffs.pop(), 0, scale - 1   # H_L, S_(w-1)
    for w, high in enumerate(coeffs):
        num = high - low   # S_w
        if num < 0 or num & mask:
            raise NonIntegralResult(f"A_{w} = {num}/{scale} is not a non-negative integer")
        coeffs[w], low = num >> dual_dim, num
    if low != closing:  # pragma: no cover
        raise ArithmeticError("H_L != S_N: the length-L sums do not close")
    out = WeightDistribution(N, coeffs)
    if out.total() != 1 << (N - dual_dim):
        raise ArithmeticError("transformed mass != 2^(N - dual_dim)")
    return out


def verify_distance7(dist: WeightDistribution) -> bool:
    """A_0 = 1, A_1 = ... = A_6 = 0 and A_7 > 0."""
    c = dist.coeffs
    return c[0] == 1 and all(c[w] == 0 for w in range(1, 7)) and c[7] > 0
