"""Reference decoders for oracle-equivalence testing.

COMP keeps everyone who never appears in a negative test, reading the
Bernoulli design as packed words, each person's m tests one group of
scheme's packed format.  COMP's observation of nrows copies is the same
format, (nrows, ceil(m / 64)) words (observe_words), read by
comp_decode_words without unpacking; words_to_bits and bits_to_words are its
to_bits / from_bits.  The brute-force decoder enumerates all k-subsets over
the columns as Python int masks (group_ints): with noiseless results it
lists every support that explains the observations exactly; with a channel
it ranks supports by exact log-likelihood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .channels import DiscreteChannel
from .core_model import ConfigMatrix
from .scheme import (WORD, checked_bits, checked_words, group_ints, pack_groups, stacked_args,
                     unpack_groups, zero_words)

MAX_ENUMERATION = 10 ** 6


@dataclass
class OracleResult:
    consistent_supports: list  # noiseless: exact matches; noisy: [(loglik, support)] ranked
    best: tuple


def words_to_bits(m: int, words: np.ndarray) -> np.ndarray:
    """The nrows * m uint8 test bits of (nrows, ceil(m / 64)) packed words."""
    return unpack_groups(words, m).reshape(-1)


def bits_to_words(m: int, bits, nrows: int = 1) -> np.ndarray:
    """The (nrows, ceil(m / 64)) packed words of nrows * m test bits."""
    return pack_groups(checked_bits(bits, m, nrows).reshape(nrows, m))


def observe_words(words: np.ndarray, m: int, js, rows, nrows: int) -> np.ndarray:
    """The stacked observe of a scheme given by its packed design: OR whole
    packed rows into their copies' (nrows, ceil(m / 64)) words."""
    js, rows = stacked_args(js, rows, nrows, len(words))
    y = zero_words(nrows, m)
    np.bitwise_or.at(y, rows, words[js])
    return y


def comp_decode(matrix: ConfigMatrix, y) -> set:
    """Everyone whose tests are all positive (vacuously true for no tests)."""
    return set(comp_decode_words(pack_groups(matrix.dense()), matrix.m,
                                 bits_to_words(matrix.m, y))[1].tolist())


def comp_decode_words(words: np.ndarray, m: int, y, nrows: int = 1):
    """COMP on a packed design over nrows stacked copies of the m results,
    y their (nrows, ceil(m / 64)) packed words: (row, index) int64 arrays of
    everyone in no negative test of copy row, by ANDing each word column with
    the copy's negative tests, ~y under the pad mask."""
    negative = ~checked_words(y, (nrows, words.shape[1]), WORD)
    if m % 64:  # tests m, m + 1, ... of the last word are pad
        negative[:, -1] &= np.uint64(((1 << 64) - 1) >> (-m % 64))
    hit = np.zeros((nrows, len(words)), dtype=WORD)
    for r, i in zip(*np.nonzero(negative)):
        hit[r] |= words[:, i] & negative[r, i]
    return np.nonzero(hit == 0)


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
    masks = group_ints(matrix.dense())

    if channel is None:
        target = group_ints(observations[None] != 0)[0]
        consistent = [
            support
            for support in combinations(range(matrix.n), k)
            if _or_all(masks, support) == target
        ]
        best = consistent[0] if consistent else tuple()
        return OracleResult(consistent_supports=consistent, best=best)

    # per-test log-likelihoods; zero-probability symbols tracked as masks so
    # impossible supports rank at exactly -inf without NaN arithmetic
    symbols = observations.astype(np.int64)
    p0, p1 = (np.asarray(mu)[symbols] for mu in (channel.mu0, channel.mu1))
    l0, l1 = (np.array([math.log(p) if p > 0 else 0.0 for p in ps.tolist()]) for ps in (p0, p1))
    imp0, imp1 = group_ints(np.stack([p0 == 0, p1 == 0]))
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
