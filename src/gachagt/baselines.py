"""Reference decoders for oracle-equivalence testing.

COMP keeps everyone who never appears in a negative test, reading the
Bernoulli design as packed words, each person's m tests one group of
scheme's packed format.  COMP's observation of nrows copies is the same
format, (nrows, ceil(m / 64)) words (observe_words), read by
comp_decode_words without unpacking; words_to_bits and bits_to_words are its
to_bits / from_bits.  The brute-force decoder enumerates all k-subsets of
the same packed rows, a block at a time: with noiseless results it lists
every support whose OR of rows is the packed observation; with a channel it
ranks supports by exact log-likelihood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice

import numpy as np

from .channels import DiscreteChannel
from .core_model import ConfigMatrix
from .scheme import (WORD, checked_bits, checked_words, pack_groups, stacked_args, unpack_groups,
                     zero_words)

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


def brute_force_decode(words: np.ndarray, m: int, observations, k: int,
                       channel: DiscreteChannel | None = None) -> OracleResult:
    """Enumerate all k-subsets of the population of a packed design.

    Noiseless (channel None): supports whose OR of packed rows equals the
    packed results.  Noisy: the exact log-likelihood of the observed symbols,
    ranked, argmax first (ties go to the lexicographically smallest support).
    """
    n = len(words)
    if math.comb(n, k) > MAX_ENUMERATION:
        raise ValueError(f"C({n},{k}) exceeds the enumeration cap")
    observations = checked_bits(observations, m, dtype=np.int64)
    if channel is None:
        target = pack_groups((observations != 0)[None])
        consistent = [tuple(s) for block, u in _supports(words, k, k * words.shape[1])
                      for s in block[(u == target).all(axis=1)].tolist()]
        return OracleResult(consistent, consistent[0] if consistent else ())

    # the log of each symbol's probability under either input, by math.log,
    # 0.0 at probability 0; zero-probability tests kept as packed masks, so
    # an impossible support ranks at exactly -inf without NaN arithmetic
    mu = np.array([channel.mu0, channel.mu1])
    impossible = pack_groups(mu[:, observations] == 0)
    logs = np.array([[math.log(p) if p > 0 else 0.0 for p in row] for row in mu.tolist()])
    l0, gain = logs[0, observations], logs[1, observations]
    gain -= l0  # l1 - l0
    base = float(l0.sum())
    scored = [(block, _log_likelihoods(u, m, base, gain, impossible))
              for block, u in _supports(words, k, m + 1)]
    supports, scores = (np.concatenate(part) for part in zip(*scored))
    order = np.argsort(-scores, kind="stable")  # supports come in lexicographic order
    ranked = list(zip(scores[order].tolist(), map(tuple, supports[order].tolist())))
    return OracleResult(ranked, ranked[0][1])


SCORE_CELLS = 1 << 18  # a block's float64 terms (m + 1 a support) or packed words


def _supports(words: np.ndarray, k: int, cells: int):
    """The k-subsets of the rows, k >= 1, in lexicographic order, as int64
    arrays of max(1, SCORE_CELLS // cells) at most, with their ORs of rows."""
    size = max(1, SCORE_CELLS // max(1, cells))
    supports = combinations(range(len(words)), k)
    while len(block := np.fromiter(chain.from_iterable(islice(supports, size)),
                                   dtype=np.int64).reshape(-1, k)):
        yield block, np.bitwise_or.reduce(words[block], axis=1)


def _log_likelihoods(u: np.ndarray, m: int, base: float, gain: np.ndarray,
                     impossible: np.ndarray) -> np.ndarray:
    """Each support's log-likelihood from the OR u of its rows: base, then
    each covered test's gain in ascending test order, one float add at a
    time (an uncovered test adds 0.0, which changes no sum); -inf where it
    misses a test of impossible[0] or covers one of impossible[1]."""
    terms = np.empty((len(u), m + 1))
    terms[:, 0] = base
    np.multiply(unpack_groups(u, m), gain, out=terms[:, 1:])
    score = np.add.accumulate(terms, axis=1, out=terms)[:, -1].copy()
    score[((impossible[0] & ~u) | (impossible[1] & u)).any(axis=1)] = -math.inf
    return score
