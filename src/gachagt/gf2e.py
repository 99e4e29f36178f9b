"""Arithmetic in GF(2^w) plus low-degree polynomial evaluation and interpolation.

Field elements are plain ints in [0, 2^w); a FieldSpec carries the bit width
and the reduction polynomial and does all arithmetic.  Polynomials are tuples
of coefficient ints, lowest degree first, with a fixed length ("dimension"):
trailing zeros are kept, so (3, 0) and (3,) are different objects even though
they evaluate identically.

For w <= 16 a FieldSpec builds log/antilog tables over the smallest primitive
element at construction, so a product is two log lookups and one antilog
lookup, for scalars and numpy arrays alike.  Wider fields multiply by shift
and add (_mulmod_poly), which stays the reference the tables are tested
against.
"""

from __future__ import annotations

from array import array
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
    """(exp, log) uint16 tables over the smallest primitive element g.

    exp[i] = g^i for 0 <= i < 2(q - 1), q = 2^w, so exp[log a + log b] = a b
    for nonzero a, b without a reduction mod q - 1; log[0] is unused.  The
    powers are built by doubling: the next block of powers is the block so
    far times g^size, which is GF(2)-linear and so an XOR of per-bit
    multiples of the constant.  Each table is an array.array, for fast scalar
    lookups; numpy reads them through np.frombuffer without a copy.
    """
    n = (1 << w) - 1
    g = primitive_element(w, f)
    exp = array("H", [0]) * (2 * n)
    log = array("H", [0]) * (n + 1)
    exp_np = np.frombuffer(exp, dtype=np.uint16)
    log_np = np.frombuffer(log, dtype=np.uint16)
    exp_np[0] = 1
    size, c = 1, g
    while size < n:
        step = min(size, n - size)
        block = exp_np[:step]
        out = exp_np[size:size + step]
        cb = c
        for b in range(w):  # out ^= bit b of block * (c x^b)
            out ^= ((block >> b) & 1) * np.uint16(cb)
            cb = _mulmod_poly(cb, 2, f)
        c = _mulmod_poly(c, c, f)
        size += step
    exp_np[n:] = exp_np[:n]
    for lo in range(0, n, 1 << 12):  # in slices, to keep the index temporaries small
        hi = min(lo + (1 << 12), n)
        log_np[exp_np[lo:hi]] = np.arange(lo, hi, dtype=np.uint16)
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
        exp = log = None
        if self.w <= MAX_TABLE_WIDTH:
            exp, log = _log_tables(self.w, self.reduction_poly)
        object.__setattr__(self, "_exp", exp)
        object.__setattr__(self, "_log", log)

    @property
    def order(self) -> int:
        return 1 << self.w

    def check(self, a: int) -> int:
        if not 0 <= a < (1 << self.w):
            raise ValueError(f"{a} is not an element of GF(2^{self.w})")
        return a

    def _mul(self, a: int, b: int) -> int:
        """Product of two elements, unchecked."""
        if not (a and b):
            return 0
        exp, log = self._exp, self._log
        if exp is None:
            return _mulmod_poly(a, b, self.reduction_poly)
        return exp[log[a] + log[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul(self.check(a), self.check(b))

    def pow(self, a: int, e: int) -> int:
        self.check(a)
        r, base = 1, a
        while e:
            if e & 1:
                r = self._mul(r, base)
            base = self._mul(base, base)
            e >>= 1
        return r

    def inv(self, a: int) -> int:
        self.check(a)
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        if self._exp is None:
            return self.pow(a, (1 << self.w) - 2)
        return self._exp[(1 << self.w) - 1 - self._log[a]]

    def mul_many(self, a, b) -> np.ndarray:
        """Elementwise a * b over int64 arrays of elements (w <= 16)."""
        exp, log = self._tables()
        a, b = np.asarray(a), np.asarray(b)
        product = exp[log[a].astype(np.intp) + log[b]].astype(np.int64)
        return np.where((a == 0) | (b == 0), 0, product)

    def div_many(self, a, b) -> np.ndarray:
        """Elementwise a / b over int64 arrays of elements, b nonzero (w <= 16)."""
        exp, log = self._tables()
        a, b = np.asarray(a), np.asarray(b)
        if (b == 0).any():
            raise ZeroDivisionError("0 has no inverse")
        quotient = exp[log[a].astype(np.intp) + ((1 << self.w) - 1) - log[b]].astype(np.int64)
        return np.where(a == 0, 0, quotient)

    def _tables(self):
        """(exp, log) as uint16 arrays over the tables, without a copy."""
        if self._exp is None:
            raise ValueError(f"GF(2^{self.w}) has no log tables (w > {MAX_TABLE_WIDTH})")
        return np.frombuffer(self._exp, dtype=np.uint16), np.frombuffer(self._log, dtype=np.uint16)

    # ----- polynomials (tuples of coefficients, low degree first) -----

    def poly_eval(self, coeffs, p: int) -> int:
        """Horner evaluation of the polynomial at p."""
        self.check(p)
        acc = 0
        for c in reversed(coeffs):
            acc = self._mul(acc, p) ^ self.check(c)
        return acc

    def poly_eval_many(self, coeffs, points) -> np.ndarray:
        """poly_eval at every element of an integer array, as int64.

        coeffs is one polynomial, or a (K, d) array of K polynomials; then
        points has K rows and row i is evaluated under polynomial i.
        """
        points = np.asarray(points, dtype=np.int64)
        coeffs = np.asarray(coeffs, dtype=np.int64)
        if coeffs.ndim == 2 and points.shape[:1] != coeffs.shape[:1]:
            raise ValueError(f"{len(coeffs)} polynomials for {len(points)} rows of points")
        if coeffs.size and not (0 <= coeffs.min() and coeffs.max() < (1 << self.w)):
            raise ValueError(f"coefficient outside GF(2^{self.w})")
        if self._exp is None:
            polys = coeffs.reshape(-1, coeffs.shape[-1]).tolist()
            rows = points.reshape(len(polys), -1).tolist() if points.size else []
            return np.array([[self.poly_eval(g, p) for p in row] for g, row in zip(polys, rows)],
                            dtype=np.int64).reshape(points.shape)
        if points.size and not (0 <= points.min() and points.max() < (1 << self.w)):
            raise ValueError(f"evaluation point outside GF(2^{self.w})")
        exp, log = self._tables()
        log_p, zero_p = log[points].astype(np.intp), points == 0
        # coefficient i of every polynomial, shaped to broadcast over its row
        terms = coeffs.T.reshape(coeffs.shape[-1:] + coeffs.shape[:-1]
                                 + (1,) * (points.ndim - coeffs.ndim + 1))
        acc = np.zeros(points.shape, dtype=np.int64)
        for c in terms[::-1]:  # Horner, a product with a zero factor is 0
            product = exp[log[acc] + log_p].astype(np.int64)
            product[zero_p | (acc == 0)] = 0
            acc = product ^ c
        return acc

    def interpolate(self, points, d: int):
        """Unique polynomial of dimension d through the first d points with
        pairwise-distinct x-coordinates (duplicates after the first are dropped).

        Solves the Vandermonde system by Gaussian elimination.
        """
        if d < 1:
            raise ValueError("dimension must be positive")
        seen, use = set(), []
        for x, y in points:
            if x in seen:
                continue
            seen.add(x)
            use.append((self.check(x), self.check(y)))
            if len(use) == d:
                break
        if len(use) < d:
            raise InsufficientEvaluations(
                f"need {d} points with distinct x-coordinates, got {len(use)}"
            )
        mul = self._mul
        # augmented rows [x^0, ..., x^(d-1) | y]
        rows = []
        for x, y in use:
            row, xp = [], 1
            for _ in range(d):
                row.append(xp)
                xp = mul(xp, x)
            row.append(y)
            rows.append(row)
        for col in range(d):
            piv = next(i for i in range(col, d) if rows[i][col])
            rows[col], rows[piv] = rows[piv], rows[col]
            scale = self.inv(rows[col][col])
            rows[col] = [mul(scale, v) for v in rows[col]]
            for i in range(d):
                if i != col and rows[i][col]:
                    f = rows[i][col]
                    rows[i] = [vi ^ mul(f, vc) for vi, vc in zip(rows[i], rows[col])]
        return tuple(rows[i][d] for i in range(d))

    # ----- the index <-> polynomial bijection -----

    def index_to_poly(self, j: int, d: int):
        """The d base-2^w digits of j, little-endian, as coefficients."""
        if not 0 <= j < (1 << (self.w * d)):
            raise ValueError(f"index {j} out of range for w={self.w}, d={d}")
        mask = (1 << self.w) - 1
        return tuple((j >> (self.w * i)) & mask for i in range(d))

    def index_to_poly_many(self, js, d: int) -> np.ndarray:
        """index_to_poly on every index of an int64 array of indices in
        [0, 2^(w*d)), as a (..., d) int64 array."""
        shifts = self.w * np.arange(d, dtype=np.int64)
        return (np.asarray(js, dtype=np.int64)[..., None] >> shifts) & ((1 << self.w) - 1)

    def poly_to_index(self, coeffs) -> int:
        j = 0
        for i, c in enumerate(coeffs):
            j |= self.check(c) << (self.w * i)
        return j


@lru_cache(maxsize=None)
def field(w: int) -> FieldSpec:
    """Shared FieldSpec for the built-in reduction polynomial of width w."""
    return FieldSpec(w)
