"""Reference decoders for oracle-equivalence testing.

COMP keeps everyone who never appears in a negative test, reading the
Bernoulli design as packed 64-bit words; this module owns that format, and
COMP's observation of nrows copies is the same format, (nrows, ceil(m / 64))
words (observe_words), read by comp_decode_words without unpacking.
words_to_bits and bits_to_words are its to_bits / from_bits.  The
brute-force decoder enumerates all k-subsets: with noiseless results it lists
every support that explains the observations exactly; with a channel it ranks
supports by exact log-likelihood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .channels import DiscreteChannel
from .core_model import ConfigMatrix
from .scheme import checked_bits, checked_words, stacked_args

MAX_ENUMERATION = 10 ** 6


@dataclass
class OracleResult:
    consistent_supports: list  # noiseless: exact matches; noisy: [(loglik, support)] ranked
    best: tuple


# A packed design is an (n, ceil(m / 64)) array of little-endian uint64
# words: bit t of row j is test t, and the pad bits past test m - 1 are zero.
WORD = np.dtype("<u8")


def zero_words(rows: int, m: int) -> np.ndarray:
    """The packed words of an all-zero (rows, m) design."""
    return np.zeros((rows, -(-m // 64)), dtype=WORD)


def pack_rows(bits, out=None) -> np.ndarray:
    """The packed words of an (rows, m) 0/1 array, written into out (from
    zero_words) when given."""
    bits = np.asarray(bits)
    rows, m = bits.shape
    if out is None:
        out = zero_words(rows, m)
    out.view(np.uint8)[:, :-(-m // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return out


def unpack_rows(words: np.ndarray, m: int) -> np.ndarray:
    """The (rows, m) uint8 bits of packed words."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=m, bitorder="little")


def words_to_bits(m: int, words: np.ndarray) -> np.ndarray:
    """The nrows * m uint8 test bits of (nrows, ceil(m / 64)) packed words."""
    return unpack_rows(words, m).reshape(-1)


def bits_to_words(m: int, bits, nrows: int = 1) -> np.ndarray:
    """The (nrows, ceil(m / 64)) packed words of nrows * m test bits."""
    return pack_rows(checked_bits(bits, m, nrows).reshape(nrows, m))


def observe_words(words: np.ndarray, m: int, js, rows, nrows: int) -> np.ndarray:
    """The stacked observe of a scheme given by its packed design: OR whole
    packed rows into their copies' (nrows, ceil(m / 64)) words."""
    js, rows = stacked_args(js, rows, nrows, len(words))
    y = zero_words(nrows, m)
    np.bitwise_or.at(y, rows, words[js])
    return y


def comp_decode(matrix: ConfigMatrix, y) -> set:
    """Everyone whose tests are all positive (vacuously true for no tests)."""
    return set(comp_decode_words(pack_rows(matrix.dense()), matrix.m,
                                 bits_to_words(matrix.m, y))[1].tolist())


def comp_decode_words(words: np.ndarray, m: int, y, nrows: int = 1):
    """COMP on a packed design over nrows stacked copies of the m results,
    y their (nrows, ceil(m / 64)) packed words: (row, index) int64 arrays of
    everyone in no negative test of copy row, by ANDing each word column with
    the copy's negative tests, ~y under the pad mask."""
    negative = ~checked_words(y, (nrows, words.shape[1]), WORD)
    negative[:, -1] &= np.uint64(((1 << 64) - 1) >> (-m % 64))  # tests m, m + 1, ... are pad
    hit = np.zeros((nrows, len(words)), dtype=WORD)
    for r, i in zip(*np.nonzero(negative)):
        hit[r] |= words[:, i] & negative[r, i]
    return np.nonzero(hit == 0)


def _column_masks(matrix: ConfigMatrix):
    masks = []
    for col in matrix.columns:
        mask = 0
        for t in np.asarray(col, dtype=np.int64):
            mask |= 1 << int(t)
        masks.append(mask)
    return masks


def brute_force_decode(matrix: ConfigMatrix, observations, k: int,
                       channel: DiscreteChannel | None = None) -> OracleResult:
    """Enumerate all k-subsets of the population.

    Noiseless (channel None): supports whose OR of columns equals the results
    bit-for-bit.  Noisy: the exact log-likelihood of the observed symbols,
    argmax returned (ties go to the lexicographically smallest support).
    """
    if math.comb(matrix.n, k) > MAX_ENUMERATION:
        raise ValueError(f"C({matrix.n},{k}) exceeds the enumeration cap")
    observations = np.asarray(observations)
    if len(observations) != matrix.m:
        raise ValueError(f"observation length {len(observations)} != m = {matrix.m}")
    masks = _column_masks(matrix)

    if channel is None:
        target = 0
        for i, b in enumerate(observations):
            if b:
                target |= 1 << i
        consistent = [
            support
            for support in combinations(range(matrix.n), k)
            if _or_all(masks, support) == target
        ]
        best = consistent[0] if consistent else tuple()
        return OracleResult(consistent_supports=consistent, best=best)

    # per-test log-likelihoods; zero-probability symbols tracked as masks so
    # impossible supports rank at exactly -inf without NaN arithmetic
    l0 = np.zeros(matrix.m)
    l1 = np.zeros(matrix.m)
    imp0 = imp1 = 0
    for i, z in enumerate(observations):
        p0, p1 = channel.mu0[int(z)], channel.mu1[int(z)]
        if p0 > 0:
            l0[i] = math.log(p0)
        else:
            imp0 |= 1 << i
        if p1 > 0:
            l1[i] = math.log(p1)
        else:
            imp1 |= 1 << i
    base = float(l0.sum())
    full = (1 << matrix.m) - 1

    ranked = []
    for support in combinations(range(matrix.n), k):
        u = _or_all(masks, support)
        if (imp0 & (full ^ u)) or (imp1 & u):
            ranked.append((-math.inf, support))
            continue
        ll = base
        v = u
        while v:
            low = v & -v
            i = low.bit_length() - 1
            ll += float(l1[i] - l0[i])
            v ^= low
        ranked.append((ll, support))
    ranked.sort(key=lambda pair: (-pair[0], pair[1]))
    return OracleResult(consistent_supports=ranked, best=ranked[0][1])


def _or_all(masks, support) -> int:
    u = 0
    for j in support:
        u |= masks[j]
    return u
