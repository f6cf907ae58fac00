"""Arithmetic in GF(2^n) for odd n, 5 <= n <= 17.

Field elements are plain ints: bit i is the coefficient of alpha^i in the
polynomial basis {1, alpha, ..., alpha^(n-1)}, where alpha is a root of the
modulus polynomial.  0 and 1 are the additive and multiplicative identities
and addition is xor.

The modulus is always the lexicographically smallest irreducible polynomial
of degree n (smallest bitmask value), so every constant derived downstream
is reproducible across runs and implementations.
"""

from __future__ import annotations

import numpy as np

SUPPORTED_DEGREES = (5, 7, 9, 11, 13, 15, 17)


def poly_mod(a: int, m: int) -> int:
    """Remainder of the carryless division of a by m over GF(2)."""
    dm = m.bit_length() - 1
    da = a.bit_length() - 1
    while da >= dm:
        a ^= m << (da - dm)
        da = a.bit_length() - 1
    return a


def is_irreducible(m: int) -> bool:
    """Exhaustive trial division by every polynomial of degree 1..deg(m)/2."""
    deg = m.bit_length() - 1
    if deg < 1:
        return False
    for d in range(2, 1 << (deg // 2 + 1)):
        if poly_mod(m, d) == 0:
            return False
    return True


def smallest_irreducible(n: int) -> int:
    """Lexicographically smallest irreducible polynomial of degree n."""
    # Even bitmasks are divisible by x, so only odd candidates are scanned.
    for m in range((1 << n) + 1, 1 << (n + 1), 2):
        if is_irreducible(m):
            return m
    raise ValueError(f"no irreducible polynomial of degree {n}")  # pragma: no cover


def _prime_factors(v: int) -> list[int]:
    out = []
    p = 2
    while p * p <= v:
        if v % p == 0:
            out.append(p)
            while v % p == 0:
                v //= p
        p += 1
    if v > 1:
        out.append(v)
    return out


class FieldCtx:
    """A fully specified instance of GF(2^n).

    Carries the modulus, log/antilog tables for a primitive element, and the
    precomputed trace table.  Immutable after construction; every operation
    is a pure function of (ctx, inputs).
    """

    def __init__(self, n: int) -> None:
        if n % 2 == 0:
            raise ValueError(f"n must be odd, got {n}")
        if not 5 <= n <= 17:
            # below n=5 the code dimension 2^n - 3n - 1 collapses to zero
            raise ValueError(f"n must be in [5, 17], got {n}")
        self.n = n
        self.order = 1 << n
        self.group_order = self.order - 1
        self.modulus = smallest_irreducible(n)

        self.generator = self._find_generator()
        # exp[i + 2^j] = exp[i] * g^(2^j): each doubling multiplies the filled
        # prefix by one constant, and the 2^n entries end on exp[N] = g^N = 1.
        N = self.group_order
        exp = np.ones(self.order, dtype=np.uint32)
        step, power = 1, self.generator
        while step < self.order:
            exp[step : 2 * step] = self._mul_const_array(exp[:step], power)
            power = self._mul_raw(power, power)
            step <<= 1
        if exp[N] != 1:  # pragma: no cover
            raise AssertionError("generator order mismatch")
        # The array log maps 0 to the sentinel 2N and the array exp is zero
        # from index 2N on (length 4N + 1), so a product with a zero factor
        # gathers 0 without a mask.
        self._exp_np = np.zeros(4 * N + 1, dtype=np.int64)
        self._exp_np[:N] = self._exp_np[N : 2 * N] = exp[:N]
        self._log_np = np.full(self.order, 2 * N, dtype=np.int64)
        self._log_np[exp[:N]] = np.arange(N)
        self._exp = self._exp_np[: 2 * N].tolist()
        self._log = self._log_np.tolist()

        # Tr is GF(2)-linear, so the basis traces determine the full table.
        mask = 0
        for j in range(n):
            if self._trace_powersum(1 << j):
                mask |= 1 << j
        self.trace_mask = mask
        xs = np.arange(self.order, dtype=np.uint32)
        self.trace_table = (np.bitwise_count(xs & np.uint32(mask)) & 1).astype(np.uint8)
        self._trace_list = self.trace_table.tolist()
        assert self._trace_list[0] == 0
        assert int(self.trace_table.sum()) == self.order // 2

    # -- construction helpers -------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        """Carryless multiply mod the modulus, no tables."""
        p = 0
        while b:
            if b & 1:
                p ^= a
            b >>= 1
            a <<= 1
            if a & self.order:
                a ^= self.modulus
        return p

    def _mul_const_array(self, xs: np.ndarray, k: int) -> np.ndarray:
        """Elementwise xs * k mod the modulus, no tables: the xor of the
        products alpha^t * k over the set bits t of each x."""
        shifted = []  # alpha^t * k for t < n
        for _ in range(self.n):
            shifted.append(k)
            k <<= 1
            if k & self.order:
                k ^= self.modulus
        bits = (xs[:, None] >> np.arange(self.n, dtype=xs.dtype)) & 1
        return np.bitwise_xor.reduce(bits * np.array(shifted, dtype=xs.dtype), axis=1)

    def _pow_raw(self, x: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, x)
            x = self._mul_raw(x, x)
            e >>= 1
        return r

    def _find_generator(self) -> int:
        """Smallest element generating the full multiplicative group."""
        cofactors = [self.group_order // p for p in _prime_factors(self.group_order)]
        for cand in range(2, self.order):
            if all(self._pow_raw(cand, c) != 1 for c in cofactors):
                return cand
        raise AssertionError("no generator found")  # pragma: no cover

    def _trace_powersum(self, x: int) -> int:
        """Tr(x) = x + x^2 + x^4 + ... + x^(2^(n-1)), evaluated directly."""
        t = x
        acc = x
        for _ in range(self.n - 1):
            t = self._mul_raw(t, t)
            acc ^= t
        if acc not in (0, 1):  # pragma: no cover
            raise AssertionError("trace landed outside GF(2)")
        return acc

    # -- field operations ------------------------------------------------

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self._exp[self._log[x] + self._log[y]]

    def mul_array(self, x, y) -> np.ndarray:
        """Elementwise x * y over broadcasting int arrays (or scalars)."""
        return self._exp_np[self._log_np[x] + self._log_np[y]]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.pow(x, self.order - 2)

    def pow(self, x: int, e: int) -> int:
        """x^e with e >= 0; exponents act mod 2^n - 1 on nonzero x."""
        if e < 0:
            raise ValueError("exponent must be non-negative")
        if x == 0:
            return 1 if e == 0 else 0
        return self._exp[self._log[x] * (e % self.group_order) % self.group_order]

    def pow_array(self, x, e) -> np.ndarray:
        """Elementwise x^e over broadcasting int arrays (or scalars), e >= 0."""
        x = np.asarray(x, dtype=np.int64)
        e = np.asarray(e, dtype=np.int64)
        if (e < 0).any():
            raise ValueError("exponent must be non-negative")
        out = self._exp_np[self._log_np[x] * (e % self.group_order) % self.group_order]
        return np.where(x == 0, (e == 0).astype(np.int64), out)

    def log(self, x: int) -> int:
        """The discrete log of x != 0 to the base self.generator, in [0, 2^n - 1)."""
        if x == 0:
            raise ValueError("0 has no discrete logarithm")
        return self._log[x]

    def frobenius(self, x: int, k: int) -> int:
        """x^(2^(k mod n)); negative k applies the inverse automorphism."""
        if x == 0:
            return 0
        return self._exp[(self._log[x] << (k % self.n)) % self.group_order]

    def frobenius_array(self, x, k) -> np.ndarray:
        """Elementwise x^(2^(k mod n)) over broadcasting int arrays (or scalars)."""
        x = np.asarray(x, dtype=np.int64)
        shift = np.asarray(k, dtype=np.int64) % self.n
        out = self._exp_np[(self._log_np[x] << shift) % self.group_order]
        return np.where(x == 0, 0, out)

    def trace(self, x: int) -> int:
        return self._trace_list[x]

    def __repr__(self) -> str:
        return f"FieldCtx(n={self.n}, modulus={self.modulus:#x})"


def make_ctx(n: int) -> FieldCtx:
    """Build the GF(2^n) context with the canonical (smallest) modulus."""
    return FieldCtx(n)
