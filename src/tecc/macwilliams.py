"""Weight distribution of a code from its dual, via exact Krawtchouk sums.

A_w(C) = 2^(-dual_dim) * sum over v of A_v(dual) * K_w(v), with all
arithmetic in exact big integers; any non-integral or negative coefficient
is an error, not a rounding case.
"""

from __future__ import annotations

from math import comb

from .code import WeightDistribution


# The cached Krawtchouk columns hold N + 1 big integers each, several GB from
# this length on, so lengths N >= LENGTH_LIMIT are refused.
LENGTH_LIMIT = (1 << 17) - 1


class NonIntegralResult(ArithmeticError):
    """The transform produced a non-integer or negative coefficient."""


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


def krawtchouk_direct(k: int, v: int, N: int) -> int:
    """Direct binomial-sum evaluation, used as an independent cross-check."""
    return sum((-1) ** j * comb(v, j) * comb(N - v, k - j) for j in range(k + 1))


def check_length(N: int) -> None:
    """Raise ValueError when the transform refuses codes of length N."""
    if N >= LENGTH_LIMIT:
        raise ValueError(
            f"the cached MacWilliams transform is limited to length < {LENGTH_LIMIT}; "
            f"got {N} (ROADMAP item 2: streaming exact MacWilliams)"
        )


def macwilliams_transform(dual_dist: WeightDistribution, dual_dim: int) -> WeightDistribution:
    """Weight distribution of the code whose dual has the given distribution.

    Refused from N = LENGTH_LIMIT on (`check_length`).
    """
    N = dual_dist.length
    check_length(N)
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


def verify_distance7(dist: WeightDistribution) -> bool:
    """A_0 = 1, A_1 = ... = A_6 = 0 and A_7 > 0."""
    c = dist.coeffs
    return c[0] == 1 and all(c[w] == 0 for w in range(1, 7)) and c[7] > 0
