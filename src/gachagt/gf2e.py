"""Arithmetic in GF(2^w) plus low-degree polynomial evaluation and interpolation.

Field elements are ints in [0, 2^w), held in int64 arrays; a FieldSpec
carries the bit width and the reduction polynomial and does all arithmetic.
A polynomial is its coefficients, lowest degree first, with a fixed length
("dimension"): trailing zeros are kept, and its index is the number whose
base-2^w digits they are.

For w <= 16 a FieldSpec builds log/antilog tables over the smallest primitive
element at construction, so a product is two log lookups and one antilog
lookup; wider fields multiply by shift and add along an extra axis of w bits.
Each operation has one implementation, over arrays (the *_many methods),
which hides the product that runs.  Their scalar references live in
tests/scaffolding.py, on _mulmod_poly; poly_eval and interpolate remain
only as adapters for bench/tracer.py, which wraps them by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class InsufficientEvaluations(ValueError):
    """Raised when interpolation gets fewer distinct x-coordinates than the dimension."""


# One irreducible polynomial per width, lowest-weight first (trinomials where
# they exist, pentanomials otherwise).  Masks include the leading x^w bit.
IRREDUCIBLE_POLY = {
    2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83, 8: 0x11B,
    9: 0x203, 10: 0x409, 11: 0x805, 12: 0x1009, 13: 0x201B, 14: 0x4021,
    15: 0x8003, 16: 0x1002B, 17: 0x20009, 18: 0x40009, 19: 0x80027,
    20: 0x100009, 21: 0x200005, 22: 0x400003, 23: 0x800021, 24: 0x100001B,
    25: 0x2000009, 26: 0x400001B, 27: 0x8000027, 28: 0x10000003,
    29: 0x20000005, 30: 0x40000003, 31: 0x80000009, 32: 0x10000008D,
}


def _poly_mod(a: int, b: int) -> int:
    db = b.bit_length() - 1
    while a and a.bit_length() - 1 >= db:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _poly_mod(a, b)
    return a


def _mulmod_poly(a: int, b: int, f: int) -> int:
    deg = f.bit_length() - 1
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> deg) & 1:
            a ^= f
    return r


def _powmod_poly(a: int, e: int, f: int) -> int:
    r = 1
    while e:
        if e & 1:
            r = _mulmod_poly(r, a, f)
        a = _mulmod_poly(a, a, f)
        e >>= 1
    return r


def _prime_factors(n: int) -> set:
    primes, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            primes.add(p)
            n //= p
        p += 1
    if n > 1:
        primes.add(n)
    return primes


def _x_pow_2e_mod(e: int, f: int) -> int:
    r = 0b10
    for _ in range(e):
        r = _mulmod_poly(r, r, f)
    return r


def is_irreducible(mask: int) -> bool:
    """Rabin's test over GF(2): x^(2^w) == x mod f, and for each prime p | w
    the polynomial x^(2^(w/p)) - x is coprime with f."""
    w = mask.bit_length() - 1
    if w < 1 or not mask & 1:
        return False
    if _x_pow_2e_mod(w, mask) != 0b10:
        return False
    for p in _prime_factors(w):
        h = _x_pow_2e_mod(w // p, mask) ^ 0b10
        if _poly_gcd(mask, h) != 1:
            return False
    return True


MAX_TABLE_WIDTH = 16


def primitive_element(w: int, f: int) -> int:
    """Smallest generator of the multiplicative group of GF(2)[x] / f."""
    n = (1 << w) - 1
    primes = _prime_factors(n)
    g = 2
    while any(_powmod_poly(g, n // p, f) == 1 for p in primes):
        g += 1
    return g


def _log_tables(w: int, f: int):
    """(exp, log) uint16 and int64 tables over the smallest primitive element g.

    exp[i] = g^i for 0 <= i < 2(q - 1), q = 2^w, so exp[log a + log b] = a b
    without a reduction mod q - 1; log[0] = 2(q - 1) and exp is 0 from there
    up to 4(q - 1), so a zero factor or dividend needs no test.  The powers
    are built by doubling: the next block of powers is the block so far times
    g^size, which is GF(2)-linear and so an XOR of per-bit multiples of the
    constant.
    """
    n = (1 << w) - 1
    g = primitive_element(w, f)
    exp = np.zeros(4 * n + 1, dtype=np.uint16)
    log = np.full(n + 1, 2 * n, dtype=np.int64)
    exp[0] = 1
    size, c = 1, g
    while size < n:
        step = min(size, n - size)
        block = exp[:step]
        out = exp[size:size + step]
        cb = c
        for b in range(w):  # out ^= bit b of block * (c x^b)
            out ^= ((block >> b) & 1) * np.uint16(cb)
            cb = _mulmod_poly(cb, 2, f)
        c = _mulmod_poly(c, c, f)
        size += step
    exp[n:2 * n] = exp[:n]
    for lo in range(0, n, 1 << 12):  # in slices, to keep the index temporaries small
        hi = min(lo + (1 << 12), n)
        log[exp[lo:hi]] = np.arange(lo, hi)
    return exp, log


@dataclass(frozen=True)
class FieldSpec:
    """GF(2^w) context.  All element-level operations live here."""

    w: int
    reduction_poly: int = 0  # filled from the built-in table when left 0

    def __post_init__(self):
        if not 2 <= self.w <= 32:
            raise ValueError(f"field width must be in [2, 32], got {self.w}")
        if self.reduction_poly == 0:
            object.__setattr__(self, "reduction_poly", IRREDUCIBLE_POLY[self.w])
        if self.reduction_poly.bit_length() - 1 != self.w:
            raise ValueError("reduction polynomial degree does not match width")
        if not is_irreducible(self.reduction_poly):
            raise ValueError(f"reduction polynomial {self.reduction_poly:#x} is reducible")
        tables = None
        if self.w <= MAX_TABLE_WIDTH:
            tables = _log_tables(self.w, self.reduction_poly)
        object.__setattr__(self, "_tables", tables)  # (exp, log), or None: shift and add
        object.__setattr__(self, "_fold", np.array(  # x^(w + t) mod f, t < w - 1
            [_powmod_poly(2, self.w + t, self.reduction_poly) for t in range(self.w - 1)]))

    def mul_many(self, a, b) -> np.ndarray:
        """Elementwise a * b over int64 arrays of elements, broadcast together."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        if self._tables is None:
            return self._mul_wide(a, b)
        exp, log = self._tables
        return exp[log[a] + log[b]].astype(np.int64)

    def div_many(self, a, b) -> np.ndarray:
        """Elementwise a / b over int64 arrays of elements, b nonzero."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        if (b == 0).any():
            raise ZeroDivisionError("0 has no inverse")
        if self._tables is None:  # 1 / b = b^(2^w - 2) = b^2 b^4 ... b^(2^(w-1))
            square = inverse = self._mul_wide(b, b)
            for _ in range(self.w - 2):
                square = self._mul_wide(square, square)
                inverse = self._mul_wide(inverse, square)
            return self._mul_wide(a, inverse)
        exp, log = self._tables
        return exp[log[a] + (((1 << self.w) - 1) - log[b])].astype(np.int64)

    def _mul_wide(self, a, b) -> np.ndarray:
        """mul_many by shift and add along a last axis of w bits; bit w + t folds to _fold[t]."""
        w, bits = self.w, np.arange(self.w)
        a, b = a[..., None], b[..., None]
        acc = np.bitwise_xor.reduce((a << bits) & -((b >> bits) & 1), axis=-1)
        high = -((acc[..., None] >> (w + bits[:-1])) & 1)
        return (acc & ((1 << w) - 1)) ^ np.bitwise_xor.reduce(high & self._fold, axis=-1)

    # ----- polynomials (coefficients low degree first) -----

    def poly_eval(self, coeffs, p: int) -> int:
        """poly_eval_many at the one point p, as an int; an adapter for
        bench/tracer.py, deleted by Benchmark v2 (ROADMAP.md)."""
        return int(self.poly_eval_many(coeffs, [p])[0])

    def poly_eval_many(self, coeffs, points) -> np.ndarray:
        """Horner evaluation at every element of an integer array, as int64.

        coeffs is one polynomial, or a (K, d) array of K polynomials; then
        points has K rows and row i is evaluated under polynomial i.
        """
        points = np.asarray(points, dtype=np.int64)
        coeffs = np.asarray(coeffs, dtype=np.int64)
        if coeffs.ndim == 2 and points.shape[:1] != coeffs.shape[:1]:
            raise ValueError(f"{len(coeffs)} polynomials for {len(points)} rows of points")
        for what, v in (("coefficient", coeffs), ("evaluation point", points)):
            # a negative value or one of 2^w or more sets a bit at w or above
            if v.size and np.bitwise_or.reduce(v, axis=None) >> self.w:
                raise ValueError(f"{what} outside GF(2^{self.w})")
        # coefficient i of every polynomial, shaped to broadcast over its row
        terms = coeffs.T.reshape(coeffs.shape[-1:] + coeffs.shape[:-1]
                                 + (1,) * (points.ndim - coeffs.ndim + 1))
        acc = np.zeros(points.shape, dtype=np.int64) ^ terms[-1]
        for c in terms[-2::-1]:  # Horner
            acc = self.mul_many(acc, points) ^ c
        return acc

    def interpolate(self, points, d: int):
        """interpolate_many on the first d points of distinct x (a repeated x
        is dropped), as a tuple; an adapter for bench/tracer.py, deleted by
        Benchmark v2."""
        if d < 1:
            raise ValueError("dimension must be positive")
        first = {}
        for x, y in points:
            first.setdefault(x, y)
        if len(first) < d:
            raise InsufficientEvaluations(f"need {d} points of distinct x, got {len(first)}")
        xs, ys = np.array(list(first.items())[:d], dtype=np.int64).T
        if np.bitwise_or.reduce(np.concatenate([xs, ys])) >> self.w:
            raise ValueError(f"point outside GF(2^{self.w})")
        return tuple(self.interpolate_many(xs, ys).tolist())

    def interpolate_many(self, xs, ys) -> np.ndarray:
        """The polynomial of dimension d through the points (xs, ys) of every
        row of two (..., d) arrays, each row's xs pairwise distinct, as a
        (..., d) array of coefficients: Newton's divided differences, one
        division per order over all rows, then the Newton form expanded in
        place."""
        xs, c = np.asarray(xs, dtype=np.int64), np.array(ys, dtype=np.int64)
        d = xs.shape[-1]
        for j in range(1, d):  # c[i] = f[x_(i-j), ..., x_i], from order j - 1
            c[..., j:] = self.div_many(c[..., j:] ^ c[..., j - 1:-1], xs[..., j:] ^ xs[..., :-j])
        for i in range(d - 2, -1, -1):  # c[i:] <- c_i + (x - x_i) * (c[i + 1:] as a polynomial)
            c[..., i:-1] ^= self.mul_many(c[..., i + 1:], xs[..., i:i + 1])
        return c

    # ----- the index <-> polynomial bijection -----

    def index_to_poly_many(self, js, d: int) -> np.ndarray:
        """The d base-2^w digits, little-endian, of every index of an int64
        array of indices in [0, 2^(w*d)), as a (..., d) int64 array of
        coefficients."""
        shifts = self.w * np.arange(d, dtype=np.int64)
        return (np.asarray(js, dtype=np.int64)[..., None] >> shifts) & ((1 << self.w) - 1)

    def poly_to_index_many(self, coeffs) -> np.ndarray:
        """The index whose base-2^w digits are the row, for every row of a
        (..., d) int64 array of coefficients; a row whose index is 2^63 or
        more reads -1."""
        shifts = np.arange(0, self.w * coeffs.shape[-1], self.w)
        j = np.bitwise_or.reduce(coeffs << shifts, axis=-1)
        if self.w * coeffs.shape[-1] <= 63:
            return j
        return np.where((coeffs >> np.maximum(63 - shifts, 0)).any(axis=-1), -1, j)


@lru_cache(maxsize=None)
def field(w: int) -> FieldSpec:
    """Shared FieldSpec for the built-in reduction polynomial of width w."""
    return FieldSpec(w)
