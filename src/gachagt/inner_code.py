"""Per-batch binary images of codeword symbols.

Two interchangeable inner layers:

* ConstantWeightCode: payloads map to fixed-weight bit strings via colex
  (combinadic) combination ranking; the all-zero string is reserved for
  "nobody wrote here".  Used when tests are noiseless, where exact Hamming
  weights separate empty / one writer / several writers.

* BinaryLinearCode: a seeded random systematic linear code with
  nearest-codeword decoding by a coset-leader (syndrome) table that holds
  every minimum-weight leader of every coset, so a tie resolves to the
  smallest payload without a search.  Every decodable code, the ones with
  at most 2^MAX_ENUMERABLE_DIM syndromes, has a table, and the table is its
  one decoder.  Paired with a WeightClassifier whose thresholds separate
  the empty string, one codeword, and the OR of two codewords by observed
  weight under a known BSC crossover.

Each operation has one implementation, over numpy arrays (uint64 for bit
strings, bit i = position i): encode_many, rank_many, decode_many and
classify_weights.  The Gacha scheme's inner layers (gacha_core.NoiselessInner
and NoisyInner) build their one_writer, which reads back only the batches
one person wrote, on them.  The scalar combinadic rank and unrank and the
exhaustive nearest-codeword search the tests check them against live in
tests/scaffolding.py; the int methods, both codes' encode and
classify_noiseless, remain only as adapters for bench/tracer.py.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np


class Occupancy(enum.Enum):
    EMPTY = 0
    ONE = 1
    MANY = 2


class UnsupportedCodeSize(ValueError):
    pass


# ---------------------------------------------------------------------------
# constant-weight code
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _binomials(ell: int, weight: int) -> np.ndarray:
    """table[i, c] = C(c, i) for 0 <= i <= weight, 0 <= c <= ell, as uint64.

    Row i is the running sum of row i - 1 shifted by one (the hockey-stick
    identity C(c, i) = sum_{t < c} C(t, i - 1)).  Exact for ell <= 64.
    """
    table = np.zeros((weight + 1, ell + 1), dtype=np.uint64)
    table[0] = 1
    for i in range(1, weight + 1):
        np.cumsum(table[i - 1, :-1], out=table[i, 1:])
    table.setflags(write=False)
    return table


def _unrank_many(rank: np.ndarray, ell: int, weight: int) -> np.ndarray:
    """The rank-th weight-`weight` subset of [ell] in colex order, as a
    bitmask, for every rank of a uint64 array: one searchsorted of the
    binomial table per set bit."""
    table = _binomials(ell, weight)
    out = np.zeros(rank.shape, dtype=np.uint64)
    for i in range(weight, 0, -1):
        # the largest c with C(c, i) <= rank is the count of c' in [1, ell]
        # with C(c', i) <= rank, as C(0, i) = 0
        row = table[i]
        c = row[1:].searchsorted(rank, side="right")
        rank = rank - row[c]
        out |= np.uint64(1) << c.astype(np.uint64)
    return out


@lru_cache(maxsize=None)
def _rank_bytes(ell: int, weight: int) -> np.ndarray:
    """table[k, s, v]: what byte k of a string adds to its colex rank when
    the byte holds v and s bits are set below it, as uint64 of shape
    (ceil(ell / 8), weight + 1, 256).

    The t-th set bit of v, at position b, is the (s + t)-th of the string
    and adds C(8 k + b, s + t); a set bit past the weight-th adds 0, as no
    weight-`weight` string has one.
    """
    nbytes = -(-ell // 8)
    # binomials of every position a byte covers, zero past row `weight`
    binomials = np.zeros((weight + 9, 8 * nbytes), dtype=np.uint64)
    binomials[:weight + 1] = _binomials(8 * nbytes, weight)[:, :-1]
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1  # (v, b)
    ith = np.arange(weight + 1)[:, None, None] + np.cumsum(bits, axis=1)  # (s, v, b)
    at = 8 * np.arange(nbytes)[:, None, None, None] + np.arange(8)  # (k, 1, 1, b)
    table = (binomials[ith, at] * bits.astype(np.uint64)).sum(axis=-1, dtype=np.uint64)
    table.setflags(write=False)
    return table


def _rank_many(strings: np.ndarray, ell: int, weight: int) -> np.ndarray:
    """The colex rank of every string of a uint64 array of weight-`weight`
    strings (the inverse of _unrank_many): one _rank_bytes gather per byte,
    after the bits set below it."""
    table = _rank_bytes(ell, weight)
    bytes_ = np.ascontiguousarray(
        strings.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)[:, :len(table)].T)
    counts = np.bitwise_count(bytes_)
    rank = table[0].reshape(-1)[bytes_[0]]
    below = counts[0].astype(np.intp)
    for k in range(1, len(table)):
        rank += table[k].reshape(-1)[below * 256 + bytes_[k]]
        below += counts[k]
    return rank


MAX_IMAGE_TABLE_BITS = 16  # payloads this wide encode through an image table


@lru_cache(maxsize=None)
def _images(ell: int, weight: int, payload_bits: int) -> np.ndarray:
    """The image of every payload, built once per code shape; 32-bit words
    when ell <= 32, so a 16-bit payload's table takes 256 KiB."""
    table = np.empty(1 << payload_bits, dtype=np.uint32 if ell <= 32 else np.uint64)
    for lo in range(0, len(table), 1 << 12):  # in slices, to keep the temporaries small
        hi = min(lo + (1 << 12), len(table))
        table[lo:hi] = _unrank_many(np.arange(lo, hi, dtype=np.uint64), ell, weight)
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class ConstantWeightCode:
    """Payloads as the weight-`weight` subsets of [ell] in colex order.

    encode_many/rank_many work on uint64 arrays of any shape through
    binomial tables: unrank is one searchsorted per set bit, rank one
    byte-table gather per byte.
    Codes with at most 2^16 payloads unrank every payload once and then
    encode by a gather from that image table.
    """

    ell: int
    weight: int
    payload_bits: int

    def __post_init__(self):
        if not 0 < self.weight < self.ell:
            raise ValueError("weight must be strictly between 0 and ell")
        if self.ell > 64:
            raise ValueError(f"need ell <= 64 to pack a block in a uint64, got {self.ell}")
        if comb(self.ell, self.weight) < (1 << self.payload_bits):
            raise ValueError(
                f"C({self.ell},{self.weight}) < 2^{self.payload_bits}: payload does not fit"
            )

    def encode(self, payload) -> int:
        """encode_many of one payload, as an int; an adapter for
        bench/tracer.py, deleted by Benchmark v2 (ROADMAP.md)."""
        return int(self.encode_many(np.array([payload]))[0])

    def encode_many(self, payloads) -> np.ndarray:
        """The payload-th constant-weight string, for every payload of an
        integer array."""
        payloads = np.asarray(payloads)
        if payloads.size and (payloads.min() < 0 or int(payloads.max()) >> self.payload_bits):
            raise ValueError("payload out of range")
        rank = payloads.astype(np.uint64)
        if self.payload_bits <= MAX_IMAGE_TABLE_BITS:
            return _images(self.ell, self.weight, self.payload_bits)[rank].astype(np.uint64)
        return _unrank_many(rank, self.ell, self.weight)

    def rank_many(self, strings) -> np.ndarray:
        """The colex rank of every weight-`weight` string of a uint64 array,
        as a flat uint64 array; the inverse of encode_many on images."""
        return _rank_many(np.asarray(strings, dtype=np.uint64), self.ell, self.weight)

    def classify_noiseless(self, observed: int):
        """(Occupancy, payload | None) of one exact observed string: EMPTY at
        weight 0, ONE with its rank at an image (a string of the code's
        weight that rank_many puts below 2^payload_bits), MANY otherwise, as
        several writers can OR to any weight; an adapter for bench/tracer.py,
        deleted by Benchmark v2."""
        observed = int(observed)
        if observed >> self.ell:
            raise ValueError("observed string longer than ell")
        if observed == 0:
            return Occupancy.EMPTY, None
        if observed.bit_count() == self.weight:
            rank = int(self.rank_many(np.array([observed], dtype=np.uint64))[0])
            if rank < 1 << self.payload_bits:
                return Occupancy.ONE, rank
        return Occupancy.MANY, None


# ---------------------------------------------------------------------------
# binary linear code
# ---------------------------------------------------------------------------

MAX_ENUMERABLE_DIM = 20
DEFAULT_CODE_SEED = 7  # the linear inner code's seed when a config sets none
TIE_CHUNK = 1 << 16  # error patterns the tie enumeration weighs at once


def _coset_leaders(codebook: np.ndarray, ell: int, dim: int):
    """(tied, start, leaders) over the 2^(ell - dim) syndromes of a systematic code.

    An error pattern e = e_lo | e_hi << dim has syndrome e_hi ^ P(e_lo), where
    P(x) = codebook[x] >> dim is the parity of payload x.  The table is a
    min-plus distance transform: seed f[P(x)] = min wt(x) over payloads x,
    then relax f[s] = min(f[s], f[s ^ e_j] + 1) one syndrome bit j at a time.
    Alongside f it carries whether two or more patterns reach the minimum and
    the low part of one that does.  Every (pattern, syndrome) pair is reached
    along exactly one bit-ordered path, so minimiser counts add exactly on a
    tie; as both sides of a tie count at least one, "two or more" needs only
    a flag.  tied[s] is set when coset s has no unique minimum-weight leader.

    Each entry packs f << (dim + 1) | tied << dim | leader_lo into a uint32
    (dim <= 20 and f <= ell + 2 <= 66), so one np.minimum takes the lighter
    side of a pair together with its flag and leader.

    leaders[start[s]:start[s + 1]] are the low (payload) parts of all of
    coset s's minimum-weight leaders, ascending: an untied coset's one comes
    from the transform, a tied coset's from _tied_leaders.  Distinct patterns
    of one coset have distinct low parts, so the low parts name the leaders.
    """
    r = ell - dim
    parity = (codebook >> np.uint64(dim)).astype(np.intp)
    table = _leader_transform(parity, ell, dim)  # its temporaries freed before the ties
    tied = (table & np.uint32(1 << dim)) != 0
    untied = np.flatnonzero(~tied)
    keys = [untied << dim | table[untied] & ((1 << dim) - 1)]  # s << dim | leader_lo
    if tied.any():
        keys += _tied_leaders(parity, table >> np.uint32(dim + 1), tied, dim)
    keys = np.concatenate(keys)  # the untied keys and the tie chunks, copied once
    keys.sort()  # by syndrome, then low part
    leaders = keys.astype(np.uint16 if dim <= 16 else np.uint32)
    leaders &= (1 << dim) - 1
    keys >>= dim
    start = np.zeros((1 << r) + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=1 << r), out=start[1:])
    for a in (tied, start, leaders):
        a.setflags(write=False)
    return tied, start, leaders


def _leader_transform(parity: np.ndarray, ell: int, dim: int) -> np.ndarray:
    """_coset_leaders' min-plus transform over the payloads' parities: per
    syndrome, the uint32 entry f << (dim + 1) | tied << dim | leader_lo."""
    r = ell - dim
    tie, one = np.uint32(1 << dim), np.uint32(2 << dim)
    payloads = np.arange(1 << dim, dtype=np.uint32)
    key = np.bitwise_count(payloads) * one | payloads
    # ell + 1 is heavier than every real error pattern
    table = np.full(1 << r, (ell + 1) * one, dtype=np.uint32)
    np.minimum.at(table, parity, key)
    lightest = (key >> np.uint32(dim + 1)) == (table[parity] >> np.uint32(dim + 1))
    table[np.bincount(parity[lightest], minlength=1 << r) > 1] |= tie
    for j in range(r):
        pairs = table.reshape(-1, 2, 1 << j)  # entries s and s ^ e_j
        k0, k1 = pairs[:, 0], pairs[:, 1]
        via0, via1 = k1 + one, k0 + one  # the partner's pattern plus bit j
        new0, new1 = np.minimum(k0, via0), np.minimum(k1, via1)
        new0 |= ((k0 ^ via0) < one) * tie  # equal weights: a tie
        new1 |= ((k1 ^ via1) < one) * tie
        k0[...], k1[...] = new0, new1
    return table


def _tied_leaders(parity: np.ndarray, f: np.ndarray, tied: np.ndarray, dim: int) -> list:
    """s << dim | x for every minimum-weight leader x | h << dim of every tied
    coset s, unordered, in chunks.

    Enumerates the patterns with wt(x) = a and wt(h) = b block by block, for
    every a + b that some tied coset weighs, in chunks of about TIE_CHUNK
    patterns, and keeps those whose syndrome s = P(x) ^ h is tied with
    f[s] = a + b.
    """
    r = len(f).bit_length() - 1
    goals = {int(t): tied & (f == t) for t in np.flatnonzero(np.bincount(f[tied]))}
    heaviest = max(goals)
    low_weight = np.bitwise_count(np.arange(1 << dim, dtype=np.uint32))
    high_weight = np.bitwise_count(np.arange(1 << r, dtype=np.uint32))
    found = []
    for a in range(min(dim, heaviest) + 1):
        xs = np.flatnonzero(low_weight == a)
        for b in range(min(r, heaviest - a) + 1):
            if a + b not in goals:
                continue
            hs = np.flatnonzero(high_weight == b)
            rows = max(1, TIE_CHUNK // len(hs))
            for i in range(0, len(xs), rows):
                s = parity[xs[i:i + rows], None] ^ hs
                at = np.flatnonzero(goals[a + b][s])
                found.append(s.ravel()[at] << dim | xs[i + at // len(hs)])
    return found


@dataclass(frozen=True)
class BinaryLinearCode:
    """Systematic seeded random code: codeword = payload | parity(payload) << dim.

    The full codebook is enumerated at construction (dim <= 20), indexed by
    payload.

    When the code has at most 2^MAX_ENUMERABLE_DIM syndromes (ell - dim <=
    20), construction also builds the standard array's coset-leader table
    (MacWilliams & Sloane, ch. 1): for every syndrome, whether its
    minimum-weight error pattern is unique, and the payload parts of all of
    its minimum-weight patterns.  decode_many decodes a received word to the
    smallest lo(y) ^ lo(e) over its coset's leaders e, which is the nearest
    codeword with the smallest payload.  A longer code keeps its codebook,
    but has no table and no decoder.
    """

    ell: int
    dim: int
    seed: int

    def __post_init__(self):
        if self.dim > MAX_ENUMERABLE_DIM:
            raise UnsupportedCodeSize(
                f"dim {self.dim} > {MAX_ENUMERABLE_DIM}: codebook not enumerable"
            )
        if not 0 < self.dim <= self.ell or self.ell > 64:
            raise ValueError("need 0 < dim <= ell <= 64")
        rng = np.random.default_rng(self.seed)
        rows = []
        for i in range(self.dim):
            parity = 0
            for j in range(self.ell - self.dim):
                if rng.integers(0, 2):
                    parity |= 1 << (self.dim + j)
            rows.append((1 << i) | parity)
        object.__setattr__(self, "generator_rows", tuple(rows))
        cb = np.zeros(1 << self.dim, dtype=np.uint64)
        for i in range(self.dim):  # payloads with top bit i: the lower ones plus row i
            cb[1 << i:2 << i] = cb[:1 << i] ^ np.uint64(rows[i])
        cb.setflags(write=False)
        object.__setattr__(self, "codebook", cb)
        decodable = self.ell - self.dim <= MAX_ENUMERABLE_DIM
        table = _coset_leaders(cb, self.ell, self.dim) if decodable else None
        object.__setattr__(self, "coset_table", table)

    def encode(self, payload: int) -> int:
        """codebook[payload] as an int; an adapter for bench/tracer.py,
        deleted by Benchmark v2 (ROADMAP.md)."""
        if not 0 <= payload < (1 << self.dim):
            raise ValueError(f"payload {payload} out of range")
        return int(self.codebook[payload])

    def decode_many(self, observed: np.ndarray) -> np.ndarray:
        """The payload of the codeword nearest to every string of a 1-D
        uint64 array of observed strings (ties: smallest payload).  Raises
        UnsupportedCodeSize on a code without a coset table, and ValueError
        on a string with a bit at or above ell.
        """
        if self.coset_table is None:
            raise UnsupportedCodeSize(f"ell - dim = {self.ell - self.dim} > "
                                      f"{MAX_ENUMERABLE_DIM}: no coset-leader table")
        observed = np.asarray(observed, dtype=np.uint64)
        if self.ell < 64 and (observed >> np.uint64(self.ell)).any():
            raise ValueError("observed string longer than ell")
        tied, start, leaders = self.coset_table
        lo = (observed & np.uint64((1 << self.dim) - 1)).astype(np.int64)
        syndrome = ((observed ^ self.codebook[lo]) >> np.uint64(self.dim)).astype(np.int64)
        # the nearest codewords are y ^ e over the coset's leaders e: an
        # untied coset's one leader directly, and a tie to the smallest
        # payload, lo(y) ^ lo(e)
        out = lo ^ leaders[start[syndrome]]
        tie = np.flatnonzero(tied[syndrome])
        if tie.size:
            lo, syndrome = lo[tie], syndrome[tie]
            first = start[syndrome]
            counts = start[syndrome + 1] - first
            offsets = np.cumsum(counts) - counts
            at = np.arange(counts.sum()) + np.repeat(first - offsets, counts)
            out[tie] = np.minimum.reduceat(np.repeat(lo, counts) ^ leaders[at], offsets)
        return out


# ---------------------------------------------------------------------------
# weight classifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightClassifier:
    """Mean-weight hypothesis test: empty vs one codeword vs OR of several.

    Under a BSC with crossover p the three cases have expected sample means
    p, 1/2, and 3/4 - p/2; tau and theta are the midpoints between them.
    """

    ell: int
    p: float

    def __post_init__(self):
        if not 0 <= self.p < 0.5:
            raise ValueError(f"crossover must be in [0, 1/2), got {self.p}")

    @property
    def tau(self) -> float:
        return (self.p + 0.5) / 2

    @property
    def theta(self) -> float:
        return (0.5 + 0.75 - self.p / 2) / 2

    def classify_weights(self, ones) -> np.ndarray:
        """The Occupancy of every count of ones of an array, as uint8 values:
        EMPTY when the mean ones/ell is below tau, ONE when below theta,
        MANY otherwise."""
        mean = np.asarray(ones) / self.ell
        kinds = np.full(mean.shape, Occupancy.MANY.value, dtype=np.uint8)
        kinds[mean < self.theta] = Occupancy.ONE.value
        kinds[mean < self.tau] = Occupancy.EMPTY.value
        return kinds


# ---------------------------------------------------------------------------
# sizing helpers
# ---------------------------------------------------------------------------

def min_even_block_length(payload_bits: int) -> int:
    """Smallest even ell with C(ell, ell/2) >= 2^payload_bits."""
    ell = 2
    while comb(ell, ell // 2) < (1 << payload_bits):
        ell += 2
    return ell


@lru_cache(maxsize=None)
def linear_code(ell: int, dim: int, seed: int) -> BinaryLinearCode:
    """Cached constructor; codebooks are immutable and shareable."""
    return BinaryLinearCode(ell, dim, seed)
