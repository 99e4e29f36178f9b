"""Problem instances, keyed draws, and FP/FN accounting.

Everything downstream shares these types: an instance is the hidden sick set,
TrialMetrics carries the per-trial error counts, and choice_sets is the keyed
batch draw.  ConfigMatrix (sorted per-person test lists) serves only COMP's
matrix form, baselines.comp_decode, and the tests; no trial builds one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ProblemInstance:
    n: int
    k: int
    sick_set: frozenset

    def __post_init__(self):
        if not 0 < self.k < self.n:
            raise ValueError(f"need 0 < k < n, got k={self.k}, n={self.n}")
        if len(self.sick_set) != self.k:
            raise ValueError("sick_set size does not match k")
        if any(not 0 <= j < self.n for j in self.sick_set):
            raise ValueError("sick index out of range")


@dataclass
class ConfigMatrix:
    """m x n boolean matrix, stored column-sparse (sorted test indices)."""

    m: int
    n: int
    columns: list

    def __post_init__(self):
        # one pass over the concatenated columns: every index in [0, m) and
        # every step between two entries of one column upwards
        if len(self.columns) != self.n:
            raise ValueError("column count does not match n")
        cols = [np.asarray(col) for col in self.columns]
        flat = np.concatenate(cols) if cols else np.zeros(0)
        if not flat.size:
            return
        owner = np.repeat(np.arange(self.n), [col.size for col in cols])
        inside = owner[1:] == owner[:-1]
        if flat.min() < 0 or flat.max() >= self.m or np.any(inside & (flat[1:] <= flat[:-1])):
            raise ValueError("columns must be strictly increasing indices in [0, m)")

    def dense(self) -> np.ndarray:
        """The (n, m) bool design: row j is person j's tests."""
        design = np.zeros((self.n, self.m), dtype=bool)
        sizes = [len(col) for col in self.columns]
        if sum(sizes):
            design[np.repeat(np.arange(self.n), sizes),
                   np.concatenate(self.columns).astype(np.int64)] = True
        return design


@dataclass
class TrialMetrics:
    false_positives: int
    false_negatives: int


def sample_instance(n: int, k: int, seed) -> ProblemInstance:
    """Uniformly random k-subset of [n]; deterministic given the seed."""
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    sick = rng.choice(n, size=k, replace=False)
    return ProblemInstance(n=n, k=k, sick_set=frozenset(int(j) for j in sick))


GOLDEN = 0x9E3779B97F4A7C15  # splitmix64's increment, 2^64 / the golden ratio
_MASK64 = (1 << 64) - 1
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB  # splitmix64's multipliers
# the same constants as uint64 scalars, so an array step converts no int; a
# uint64 array wraps mod 2^64 by itself and needs no mask
_U64 = {c: np.uint64(c) for c in (GOLDEN, _MIX1, _MIX2, 27, 30, 31)}


def splitmix64(z: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer of every element of a uint64 array, in place."""
    z ^= z >> _U64[30]
    z *= _U64[_MIX1]
    z ^= z >> _U64[27]
    z *= _U64[_MIX2]
    z ^= z >> _U64[31]
    return z


def _absorb(key, word):
    """One step of the keyed hash, the key with one more word mixed in: an
    int for ints in [0, 2^64), a new array for uint64 arrays that broadcast."""
    if isinstance(key, int):
        z = (key ^ word) + GOLDEN & _MASK64
        z = (z ^ (z >> 30)) * _MIX1 & _MASK64
        z = (z ^ (z >> 27)) * _MIX2 & _MASK64
        return z ^ (z >> 31)
    z = key ^ word
    z += _U64[GOLDEN]
    return splitmix64(z)


def _prefix_key(seed) -> int:
    """The hash key of a seed prefix: an int in [0, 2^64), or a tuple of
    non-negative ints, each absorbed as its little-endian 64-bit words."""
    if not isinstance(seed, tuple):
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"seed {seed} outside [0, 2^64)")
        seed = (seed,)
    if not all(isinstance(part, (int, np.integer)) and part >= 0 for part in seed):
        raise ValueError(f"seed prefix {seed} holds a negative or non-integer word")
    key = 0
    for part in map(int, seed):
        for at in range(0, max(64, part.bit_length()), 64):
            key = _absorb(key, part >> at & _MASK64)
    return key


def choice_sets(seed, js, B: int, r: int) -> np.ndarray:
    """Every person j in js's r batches, a uniform r-subset of [0, B) fixed
    by (seed, j), as a (len(js), r) int64 array of sorted rows.

    seed is the key's prefix, an int below 2^64 or a tuple of non-negative
    ints, (seed, tag) for a tagged draw.  Value c of person j is the keyed
    hash of (prefix words, j, c), a chain of splitmix64 finalizers, taken as
    a uniform 64-bit word and reduced mod B.  Modulo bias: each residue has
    probability floor(2^64 / B) / 2^64 or ceil(2^64 / B) / 2^64, within
    2^-64 of 1 / B, so a value is within B / 2^65 of uniform in total
    variation.  A row draws drawn = min(r, B - r) values on counters 0 ..
    drawn - 1 and sorts them; each value equal to its left neighbour at
    column i is redrawn on counter t * drawn + i in round t = 1, 2, ...,
    and the row sorted again, until all differ.  The counters are the row's
    own, so a row depends on (seed, j) alone, whatever else js holds.  When
    drawn < r the row is the r batches its values leave out, so a redraw
    collides with probability below 1/2 and the rounds stay few even at
    r = B.
    """
    if not 0 <= r <= B <= 1 << 63:  # batches are int64
        raise ValueError(f"cannot draw {r} distinct batches of {B}")
    key = _prefix_key(seed)
    js = np.asarray(js).reshape(-1)
    if js.dtype.kind not in "iu" and js.size:
        raise ValueError("person indices must be integers below 2^64")
    if js.size and js.min() < 0:
        raise ValueError(f"person index {js.min()} is negative")
    keys = _absorb(np.uint64(key), js.astype(np.uint64))[:, None]
    drawn = min(r, B - r)
    vals = _absorb(keys, np.arange(drawn, dtype=np.uint64)) % np.uint64(B)
    step = 0
    while True:
        vals.sort(axis=1)
        row, col = np.nonzero(vals[:, 1:] == vals[:, :-1])
        if not row.size:
            break
        step += 1
        col += 1
        vals[row, col] = _absorb(keys[row, 0], (step * drawn + col).astype(np.uint64)) % np.uint64(B)
    if drawn == r:
        return vals.astype(np.int64)
    keep = np.ones((len(js), B), dtype=bool)
    keep[np.arange(len(js))[:, None], vals.astype(np.int64)] = False
    return np.nonzero(keep)[1].reshape(len(js), r)


def score(inst: ProblemInstance, estimate) -> TrialMetrics:
    estimate = set(estimate)
    if any(not 0 <= j < inst.n for j in estimate):
        raise ValueError("estimated index out of range")
    return TrialMetrics(
        false_positives=len(estimate - inst.sick_set),
        false_negatives=len(inst.sick_set - estimate),
    )
