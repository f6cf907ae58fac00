"""The four catalogued families of power-function pairs and APN checks.

Each family fixes a pair of exponents {d1, d2} over GF(2^n):

    gold2    x^(2^k+1),          x^(2^(2k)+1)              gcd(n, k) = 1
    gold3    x^(2^k+1),          x^(2^(3k)+1)              gcd(n, k) = 1
    th       x^(2^t+1),          x^(2^(t+2)+3)             n = 2t + 1
    kasami5  x^(2^(2k)-2^k+1),   x^(2^(4k)-2^(3k)+2^(2k)-2^k+1)   gcd(n, k) = 1

The written exponents can far exceed 2^n - 1 (the kasami5 ones grow as
2^(4k)), so every power of two is taken mod 2^n - 1 as it is formed, and no
2^k is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

import numpy as np

from .field import FieldCtx

FAMILY_NAMES = ("gold2", "gold3", "th", "kasami5")


class ConditionViolated(ValueError):
    """A family's side condition (gcd or n = 2t+1) does not hold."""


class DegeneratePair(ValueError):
    """Both exponents reduce to the same power map."""


@dataclass(frozen=True)
class FamilySpec:
    """A family name plus its integer parameter (k, or t for 'th')."""

    family: str
    k: int

    def __post_init__(self) -> None:
        name = self.family.lower()
        if name not in FAMILY_NAMES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILY_NAMES}")
        object.__setattr__(self, "family", name)
        if self.k < 1:
            raise ValueError("family parameter must be a positive integer")


def family_exponents(spec: FamilySpec, n: int) -> tuple[int, int]:
    """The exponent pair of a family instance, reduced mod 2^n - 1, after
    checking the family's side condition.  Each 2^(jk) comes from
    pow(2, j*k, 2^n - 1), so a huge k costs no more than a small one."""
    k = spec.k
    N = (1 << n) - 1
    p = [pow(2, j * k, N) for j in range(5)]  # p[j] = 2^(jk) mod 2^n - 1
    if spec.family == "th":
        if n != 2 * k + 1:
            raise ConditionViolated(f"family th requires n = 2t+1; got n={n}, t={k}")
        return (p[1] + 1) % N, (4 * p[1] + 3) % N
    if gcd(n, k) != 1:
        raise ConditionViolated(f"family {spec.family} requires gcd(n,k)=1; gcd({n},{k})={gcd(n, k)}")
    if spec.family == "gold2":
        return (p[1] + 1) % N, (p[2] + 1) % N
    if spec.family == "gold3":
        return (p[1] + 1) % N, (p[3] + 1) % N
    # kasami5
    return (p[2] - p[1] + 1) % N, (p[4] - p[3] + p[2] - p[1] + 1) % N


@dataclass
class MonomialPair:
    """A pair of power maps {x^d1, x^d2} with full evaluation tables.

    f_table[x] = x^d1 and g_table[x] = x^d2 for every x in [0, 2^n); both
    tables map 0 to 0.  Immutable by convention after construction.
    """

    n: int
    d1: int
    d2: int
    f_table: list[int]
    g_table: list[int]
    family: str | None = None
    param: int | None = None

    @cached_property
    def f_np(self) -> np.ndarray:
        return np.array(self.f_table, dtype=np.int64)

    @cached_property
    def g_np(self) -> np.ndarray:
        return np.array(self.g_table, dtype=np.int64)

    def __repr__(self) -> str:
        fam = f", family={self.family}:{self.param}" if self.family else ""
        return f"MonomialPair(n={self.n}, d1={self.d1}, d2={self.d2}{fam})"


def monomial_pair(
    ctx: FieldCtx,
    d1: int,
    d2: int,
    family: str | None = None,
    param: int | None = None,
) -> MonomialPair:
    """Reduce two exponents mod 2^n - 1 and build their evaluation tables."""
    r1 = d1 % ctx.group_order
    r2 = d2 % ctx.group_order
    if r1 == 0 or r2 == 0:
        raise ValueError("exponent reduces to 0: the map collapses to x -> 1 on L*")
    if r1 == r2:
        raise DegeneratePair(f"exponents {d1} and {d2} coincide mod 2^n-1 (= {r1})")
    return MonomialPair(ctx.n, r1, r2, power_table(ctx, r1), power_table(ctx, r2), family, param)


def instantiate(spec: FamilySpec, ctx: FieldCtx) -> MonomialPair:
    """Instantiate a family over a given field."""
    d1, d2 = family_exponents(spec, ctx.n)
    return monomial_pair(ctx, d1, d2, family=spec.family, param=spec.k)


def power_table(ctx: FieldCtx, e: int) -> list[int]:
    """Evaluation table of the single power map x^e."""
    return ctx.pow_array(np.arange(ctx.order), e % ctx.group_order).tolist()


def differential_counts(ctx: FieldCtx, table: list[int], q: int) -> np.ndarray:
    """Number of x with h(x+q) + h(x) = p, for every p (index = p)."""
    if q == 0:
        raise ValueError("q must be nonzero")
    t = np.asarray(table, dtype=np.int64)
    if t.shape != (ctx.order,):
        raise ValueError("table length does not match the field order")
    deriv = t[np.arange(ctx.order) ^ q] ^ t
    return np.bincount(deriv, minlength=ctx.order)


def power_exponent(ctx: FieldCtx, table) -> int | None:
    """The d in [1, 2^n - 1] with table[x] = x^d for every x, else None.

    O(2^n): a power map is fixed by its value at the generator.
    """
    t = np.asarray(table, dtype=np.int64)
    if t.shape != (ctx.order,) or not 0 < t[ctx.generator] < ctx.order:
        return None
    d = ctx.log(int(t[ctx.generator])) or ctx.group_order
    return d if (ctx.pow_array(np.arange(ctx.order), d) == t).all() else None


def gold_shift(ctx: FieldCtx, d: int) -> int | None:
    """The i in [1, n) with d = 2^i + 1 mod 2^n - 1, so that x^d is the Gold
    map x^(2^i+1), else None."""
    N = ctx.group_order
    return next((i for i in range(1, ctx.n) if (pow(2, i, N) + 1 - d) % N == 0), None)


def is_apn(ctx: FieldCtx, table: list[int]) -> bool:
    """True iff every nontrivial derivative takes each value at most twice.

    For a power map x^d, D_q f(x) = q^d * D_1 f(x/q), so the derivative at
    q = 1 alone decides, in O(2^n).  Any other table takes the exhaustive
    O(2^(2n)) count over all (q, p).
    """
    if table[0] != 0:
        raise ValueError("table must map 0 to 0")
    t = np.asarray(table, dtype=np.int64)
    qs = [1] if power_exponent(ctx, t) is not None else range(1, ctx.order)
    return all(int(differential_counts(ctx, t, q).max()) <= 2 for q in qs)
