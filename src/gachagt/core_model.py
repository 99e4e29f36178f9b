"""Problem instances, test evaluation, and FP/FN accounting.

Everything downstream shares these types: an instance is the hidden sick set,
a configuration matrix says which tests each person joins (stored as sorted
per-person index lists since columns are sparse), and TrialMetrics carries the
per-trial error counts.
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
    m: int = 0
    decode_nanos: int = 0


def sample_instance(n: int, k: int, seed) -> ProblemInstance:
    """Uniformly random k-subset of [n]; deterministic given the seed."""
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    sick = rng.choice(n, size=k, replace=False)
    return ProblemInstance(n=n, k=k, sick_set=frozenset(int(j) for j in sick))


# numpy's SeedSequence hash constants (bit_generator.pyx) and PCG64's
# 128-bit LCG multiplier (pcg64.h)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def seed_states(seed: int, js) -> np.ndarray:
    """SeedSequence((seed, j)).generate_state(4, np.uint64) for every j in
    js, as a (len(js), 4) uint64 array.

    The same uint32 hash numpy runs, on all js at once: the entropy words of
    seed then j (little-endian 32-bit words, no high zero words, 0 as one
    word) padded with zeros to the pool of 4, hashed into the pool, mixed,
    and drawn out as 8 words.  j's high word sits in the padding whenever it
    is zero, so one layout serves every j below 2^64.
    """
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed {seed} outside [0, 2^64)")
    js = np.asarray(js)
    if js.dtype.kind not in "iu" and js.size:
        raise ValueError("person indices must be integers below 2^64")
    if js.size and js.min() < 0:
        raise ValueError(f"person index {js.min()} is negative")
    js = js.astype(np.uint64).reshape(-1)
    words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    entropy = np.zeros((4, js.size), dtype=np.uint32)
    entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = js & np.uint64(_MASK32)
    entropy[len(words) + 1] = js >> np.uint64(32)
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * _MULT_A) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        value = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return value ^ (value >> np.uint32(16))

    pool = [hashmix(word) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    state = np.empty((js.size, 8), dtype=np.uint32)
    const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(const)
        const = (const * _MULT_B) & _MASK32
        value = value * np.uint32(const)
        state[:, i] = value ^ (value >> np.uint32(16))
    return state.astype("<u4").view("<u8").astype(np.uint64)


def person_streams(seed: int, js):
    """Yield, for each j in js in order, one reused Generator(PCG64) set to
    the state of np.random.default_rng((seed, j)).

    Draw from each before taking the next: the next j resets the state.
    Seeding is seed_states plus PCG64's two seeding steps (inc = 2 * initseq
    + 1; state = (inc + initstate) * mult + inc), so the draws match
    default_rng bit for bit without a SeedSequence per person.  A bad seed
    or index raises at the call, before anything is yielded.
    """
    return _set_streams(seed_states(seed, js).tolist())


def _set_streams(states):
    bitgen = np.random.PCG64()
    gen = np.random.Generator(bitgen)
    pcg = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for s_hi, s_lo, i_hi, i_lo in states:
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        pcg["state"] = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        pcg["inc"] = inc
        bitgen.state = full
        yield gen


def run_tests(matrix: ConfigMatrix, inst: ProblemInstance) -> np.ndarray:
    """Noiseless results: test i fires iff some sick person's column contains i."""
    if matrix.n != inst.n:
        raise ValueError(f"matrix has n={matrix.n} but instance has n={inst.n}")
    y = np.zeros(matrix.m, dtype=np.uint8)
    for j in inst.sick_set:
        y[np.asarray(matrix.columns[j], dtype=np.int64)] = 1
    return y


def score(inst: ProblemInstance, estimate, m: int = 0, decode_nanos: int = 0) -> TrialMetrics:
    estimate = set(estimate)
    if any(not 0 <= j < inst.n for j in estimate):
        raise ValueError("estimated index out of range")
    return TrialMetrics(
        false_positives=len(estimate - inst.sick_set),
        false_negatives=len(inst.sick_set - estimate),
        m=m,
        decode_nanos=decode_nanos,
    )
