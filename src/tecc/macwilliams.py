"""Weight distribution of a code from its dual, via exact Krawtchouk sums.

A_w(C) = 2^(-dual_dim) * sum over v of A_v(dual) * K_w(v), with all
arithmetic in exact big integers; any non-integral or negative coefficient
is an error, not a rounding case.  The binary Krawtchouk values satisfy the
three-term recurrence in w

    (w+1) K_(w+1)(v) = (N - 2v) K_w(v) - (N - w + 1) K_(w-1)(v)

and the symmetry K_(N-w)(v) = (-1)^v K_w(v) (MacWilliams-Sloane, ch. 5),
so the transform runs the recurrence for w <= N/2 only, keeping two values
per dual support weight, and reads off A_w and A_(N-w) together.
"""

from __future__ import annotations

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
    if dual_dist.total() != 1 << dual_dim:
        raise ValueError(f"distribution mass {dual_dist.total()} != 2^{dual_dim}")
    scale = 1 << dual_dim
    # Support weights, even v first: E_w sums the first `split` terms and
    # O_w the rest, so A_w = (E_w + O_w)/scale and A_(N-w) = (E_w - O_w)/scale.
    support = sorted(((v, a) for v, a in enumerate(dual_dist.coeffs) if a), key=lambda t: t[0] & 1)
    split = sum(1 for v, _ in support if v % 2 == 0)
    slopes = [N - 2 * v for v, _ in support]
    masses = [a for _, a in support]
    prev = [0] * len(support)   # K_(w-1)(v)
    cur = [1] * len(support)    # K_w(v)
    coeffs = [0] * (N + 1)
    failed = None               # (w, numerator) of the smallest failing w so far
    for w in range(N // 2 + 1):
        terms = [a * k for a, k in zip(masses, cur)]
        even, odd = sum(terms[:split]), sum(terms[split:])
        for at, num in ((N - w, even - odd), (w, even + odd)):
            if num < 0 or num & (scale - 1):
                failed = (at, num)
            coeffs[at] = num >> dual_dim
        if failed is not None and failed[0] <= w:
            break  # no later w, and no w > N/2, is smaller
        nxt = []
        for c, k, p in zip(slopes, cur, prev):
            q, r = divmod(c * k - (N - w + 1) * p, w + 1)
            if r:  # pragma: no cover
                raise ArithmeticError("Krawtchouk recurrence lost integrality")
            nxt.append(q)
        prev, cur = cur, nxt
    if failed is not None:
        raise NonIntegralResult(f"A_{failed[0]} = {failed[1]}/{scale} is not a non-negative integer")
    out = WeightDistribution(N, coeffs)
    if out.total() != 1 << (N - dual_dim):
        raise ArithmeticError("transformed mass != 2^(N - dual_dim)")
    return out


def verify_distance7(dist: WeightDistribution) -> bool:
    """A_0 = 1, A_1 = ... = A_6 = 0 and A_7 > 0."""
    c = dist.coeffs
    return c[0] == 1 and all(c[w] == 0 for w in range(1, 7)) and c[7] > 0
