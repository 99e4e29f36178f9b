"""Problem instances, test evaluation, and FP/FN accounting.

Everything downstream shares these types: an instance is the hidden sick set,
a configuration matrix says which tests each person joins (stored as sorted
per-person index lists since columns are sparse), and TrialMetrics carries the
per-trial error counts.
"""

from __future__ import annotations

import ctypes
import functools
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


# numpy's SeedSequence hash constants (bit_generator.pyx) and PCG64's
# 128-bit LCG multiplier (pcg64.h)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _hash_consts(const: int, mult: int, count: int) -> list:
    """The (xor, multiply) constant pairs of count successive hashmix calls."""
    pairs = []
    for _ in range(count):
        nxt = (const * mult) & _MASK32
        pairs.append((const, nxt))
        const = nxt
    return pairs


def _u32(values) -> np.ndarray:
    return np.array(values, dtype=np.uint32)


def _hashmix(value, consts):
    value = (value ^ consts[0]) * consts[1]
    return value ^ (value >> _U32_16)


def _mix(x, y):
    value = _MIX_L * x - _MIX_R * y
    return value ^ (value >> _U32_16)


_U32_16, _MIX_L, _MIX_R = _u32(16), _u32(0xCA01F9DD), _u32(0x4973F715)
_U64_32, _U64_58, _U64_63, _U64_64 = (np.array(v, dtype=np.uint64) for v in (32, 58, 63, 64))
_LOW32 = np.array(_MASK32, dtype=np.uint64)
# hashmix calls 0-3 hash the entropy words into the pool and calls 4-15 mix
# it: source word src into the others in ascending order (calls from 16 on
# hash the words past the pool, _overflow_consts).  seed_states keeps
# the pool rotated so that the source is row 0 and row 1 + i is word
# (src + 1 + i) % 4, so _ROUND_CONSTS[src] is (2, 3, 1) in that row order.
_POOL_CONSTS = _hash_consts(_INIT_A, _MULT_A, 16)
_ENTROPY_CONSTS = _u32(_POOL_CONSTS[:4]).T[..., None]
_ROUND_CONSTS = [
    _u32([[[_POOL_CONSTS[4 + 3 * src + dst - (dst > src)][half]]
           for dst in ((src + 1 + i) % 4 for i in range(3))] for half in range(2)])
    for src in range(4)]
# generate_state's 8 output words, word 4 a + b drawn from pool word b
_OUT_CONSTS = _u32(_hash_consts(_INIT_B, _MULT_B, 8)).T.reshape(2, 2, 4, 1)


@functools.lru_cache(maxsize=None)
def _overflow_consts(i: int) -> np.ndarray:
    """The hash constants of entropy word 4 + i, past the pool: hashmix
    calls 16 + 4 i ... 19 + 4 i hash it into pool words 0-3, as (2, 4, 1)."""
    return _u32(_hash_consts(_INIT_A, _MULT_A, 20 + 4 * i)[16 + 4 * i:]).T[..., None]


def _entropy_words(seed) -> list:
    """numpy's uint32 entropy words of a seed prefix: each int's little-endian
    32-bit words, without high zero words, 0 as one word."""
    if not isinstance(seed, tuple):
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"seed {seed} outside [0, 2^64)")
        seed = (seed,)
    if not all(isinstance(part, (int, np.integer)) and part >= 0 for part in seed):
        raise ValueError(f"seed prefix {seed} holds a negative or non-integer word")
    return [int(part) >> at & _MASK32 for part in seed
            for at in range(0, max(32, int(part).bit_length()), 32)]


def seed_states(seed, js) -> np.ndarray:
    """SeedSequence((seed, j)).generate_state(4, np.uint64) for every j in
    js, as a (len(js), 4) uint64 array.

    seed is an int below 2^64 or a tuple of non-negative ints, the entropy
    before j (numpy flattens nested tuples, so (seed, j) with seed = (s, t)
    is the entropy (s, t, j)).  The same uint32 hash numpy runs, on all js
    at once: the entropy words (little-endian 32-bit words of each int, no
    high zero words, 0 as one word) are hashed into the pool of 4, padded
    with zeros, the pool is mixed, every word past the pool is hashed into
    each pool word, and 8 words are drawn out.  The prefix words are hashed
    once, not per j; when they fill the pool, so is the mixing.  A j word
    inside the pool sits in the padding when it is zero, so one layout
    serves every j below 2^64; past the pool, the rows whose j has no high
    word skip its round.  Each mixing round hashes one pool word into the
    other 3 as one (3, len(js)) block.
    """
    words = _entropy_words(seed)
    js = np.asarray(js)
    if js.dtype.kind not in "iu" and js.size:
        raise ValueError("person indices must be integers below 2^64")
    if js.size and js.min() < 0:
        raise ValueError(f"person index {js.min()} is negative")
    j_words = js.astype("<u8").reshape(-1).view("<u4").reshape(-1, 2).T
    at = min(len(words), 4)  # j's words follow the prefix's; zeros pad the pool of 4
    inside = j_words[:4 - at]
    pool = np.empty((4, j_words.shape[1] if len(inside) else 1), dtype=np.uint32)
    pool[:] = _hashmix(_u32(words[:at] + [0] * (4 - at)), _ENTROPY_CONSTS[..., 0])[:, None]
    if len(inside):
        pool[at:at + len(inside)] = _hashmix(inside, _ENTROPY_CONSTS[:, at:at + len(inside)])
    for consts in _ROUND_CONSTS:
        rotated = np.empty_like(pool)
        rotated[:3] = _mix(pool[1:], _hashmix(pool[0], consts))
        rotated[3] = pool[0]
        pool = rotated
    past = [_u32(w) for w in words[at:]] + list(j_words[len(inside):])
    for i, word in enumerate(past):
        mixed = _mix(pool, _hashmix(word, _overflow_consts(i)))
        j_high = i == len(past) - 1 and len(inside) < 2  # numpy drops it when zero
        pool = np.where(word != 0, mixed, pool) if j_high else mixed
    state = _hashmix(pool, _OUT_CONSTS).reshape(8, -1)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8")


@functools.lru_cache(maxsize=16)
def _pcg_jump(steps: tuple) -> tuple:
    """Constants that jump a freshly seeded PCG64 ahead: after t steps the
    state is a_t * initstate + b_t * initseq + c_t (mod 2^128).

    Seeding sets inc = 2 * initseq + 1 and state = (inc + initstate) * mult
    + inc, that is (a, b, c) = (mult, 2 mult + 2, mult + 1); a step is
    state * mult + inc.  Returns, for the t in steps, the 64-bit limbs of
    (a, b) as (2, 1, T) arrays (high, low, and the low limb's two 32-bit
    halves) and of c as (1, T) arrays.
    """
    a, b, c = _PCG_MULT, 2 * _PCG_MULT + 2, _PCG_MULT + 1
    ks, cs = [], []
    for t in range(max(steps, default=0) + 1):
        ks.append((a, b))
        cs.append(c)
        a, b, c = (a * _PCG_MULT & _MASK128, (b * _PCG_MULT + 2) & _MASK128,
                   (c * _PCG_MULT + 1) & _MASK128)
    k = np.array([[ks[t][i] for t in steps] for i in range(2)], dtype=object)[:, None]
    c = np.array([cs[t] for t in steps], dtype=object)[None]

    def limb(v, shift, mask):
        return ((v >> shift) & mask).astype(np.uint64)

    return (limb(k, 64, _MASK64), limb(k, 0, _MASK64), limb(k, 0, _MASK32),
            limb(k, 32, _MASK32), limb(c, 64, _MASK64), limb(c, 0, _MASK64))


def pcg_states(words: np.ndarray, steps) -> tuple:
    """The 128-bit states of the PCG64 generators seeded from the rows of
    words (seed_states output) after each step count in steps, as (high,
    low) uint64 arrays of shape (len(words), len(steps)).

    Two 128-bit products in 64-bit limbs against the cached _pcg_jump
    constants; only the high half of the low-limb product needs 32-bit
    halves.
    """
    k_hi, k_lo, k_lo0, k_lo1, c_hi, c_lo = _pcg_jump(tuple(steps))
    x = np.ascontiguousarray(words.T).reshape(2, 2, -1, 1)  # (initstate, initseq) x (hi, lo)
    x_hi, x_lo = x[:, 0], x[:, 1]
    x_lo0, x_lo1 = x_lo & _LOW32, x_lo >> _U64_32
    p10 = x_lo1 * k_lo0
    cross = ((x_lo0 * k_lo0) >> _U64_32) + (p10 & _LOW32) + x_lo0 * k_lo1
    hi = x_lo1 * k_lo1 + (p10 >> _U64_32) + (cross >> _U64_32) + x_lo * k_hi + x_hi * k_lo
    lo = x_lo * k_lo
    both = lo[0] + lo[1]
    lo_sum = both + c_lo
    return hi[0] + hi[1] + c_hi + (both < lo[0]) + (lo_sum < both), lo_sum


def _xsl_rr(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's 64-bit output of a state: high ^ low, rotated right by the top 6 bits."""
    value = hi ^ lo
    rot = hi >> _U64_58
    return (value >> rot) | (value << ((_U64_64 - rot) & _U64_63))


def person_rng(seed, j: int) -> np.random.Generator:
    """Person j's own stream, np.random.default_rng((seed, j)); seed is an
    int or a tuple seed prefix, as in seed_states."""
    return np.random.default_rng((seed, j))


@functools.lru_cache(maxsize=16)
def _floyd_plan(B: int, r: int) -> tuple:
    """numpy's Floyd draw of r of B as constants: the steps j = B - r ...
    B - 1, the uint32 draw each step reads, each step's Lemire bound j + 1
    and rejection threshold 2^32 mod (j + 1), and the PCG64 output counts
    the draws come from.  A j = 0 step draws nothing; it reads draw 0
    with bound 1, which maps any draw to 0 and never rejects."""
    steps = np.arange(B - r, B)
    bound = steps.astype(np.uint64) + np.uint64(1)
    draw = np.maximum(np.arange(r) - (B == r), 0)
    outputs = range(1, max(1, (r - (B == r) + 1) // 2) + 1)
    return steps, draw, bound, np.uint64(1 << 32) % bound, outputs


def choice_sets(seed, js, B: int, r: int) -> np.ndarray:
    """np.sort(person_rng(seed, j).choice(B, size=r, replace=False)) for
    every j in js, as a (len(js), r) int64 array, in one array pass.

    numpy draws r of B by Floyd's rule: for steps j = B - r ... B - 1 it
    draws val in [0, j] (none when j = 0) and takes val unless an earlier
    step took it, else j.  Here every person's generator is jumped to the
    outputs the draws need (pcg_states), each output gives two uint32 (low
    half first), and Lemire's rule maps each to [0, j].  A step repeats
    when its val occurs at an earlier step, or when val is an earlier
    step's j and that step repeated; the chain resolves to a fixpoint.
    The rows come out sorted, so numpy's final shuffle does not matter.

    A person whose draws hit a Lemire rejection takes its batches from the
    scalar stream, and so does everyone when numpy would not run Floyd's
    rule (B > 10000 and r > B // 50) or B exceeds 2^32.
    """
    js = np.asarray(js).reshape(-1)
    words = seed_states(seed, js)
    out = np.empty((len(words), r), dtype=np.int64)
    fallback = range(len(words))
    if not (B > 10000 and r > B // 50 or B > 1 << 32) and len(words):
        steps, draw, bound, threshold, outputs = _floyd_plan(B, r)
        outs = np.ascontiguousarray(_xsl_rr(*pcg_states(words, outputs)), dtype="<u8")
        scaled = outs.view("<u4")[:, draw] * bound
        vals = (scaled >> _U64_32).view(np.int64)
        rejected = (scaled & _LOW32) < threshold
        # a val occurs earlier when it sorts right after an equal val (the
        # key orders equal vals by step)
        row_at = np.arange(0, vals.size, r)[:, None]
        val_order, step_order = np.divmod(np.sort(vals * r + np.arange(r), axis=1), r)
        repeat = np.zeros(vals.size, dtype=bool)
        repeat[step_order[:, 1:] + row_at] = val_order[:, 1:] == val_order[:, :-1]
        # val is the j of earlier step val - (B - r), which wrote its j if it repeated
        chained = np.flatnonzero((vals >= B - r) & (vals != steps))
        source = vals.ravel()[chained] - (B - r) + chained // r * r
        while True:
            grown = repeat[source] & ~repeat[chained]
            if not grown.any():
                break
            repeat[chained[grown]] = True
        np.copyto(out, np.where(repeat.reshape(vals.shape), steps, vals))
        out.sort(axis=1)
        fallback = np.flatnonzero(rejected.any(axis=1)) if rejected.any() else ()
    for i in fallback:
        out[i] = np.sort(person_rng(seed, int(js[i])).choice(B, size=r, replace=False))
    return out


def person_streams(seed, js):
    """Yield, for each j in js in order, one reused Generator(PCG64) set to
    np.random.default_rng((seed, j))'s state; draw from each before the
    next.  The states (seed_states, pcg_states' seeding step, inc = 2 *
    initseq + 1) are copied into the bit generator's memory, or set through
    its setter when _pcg_layout fails.  A bad seed or index raises at the
    call, before anything is yielded."""
    words = seed_states(seed, js)
    hi, lo = pcg_states(words, (0,))
    inc_hi = (words[:, 2] << np.uint64(1)) | (words[:, 3] >> np.uint64(63))
    inc_lo = (words[:, 3] << np.uint64(1)) | np.uint64(1)
    limbs = np.stack([hi[:, 0], lo[:, 0], inc_hi, inc_lo], axis=1)
    return _streams(np.random.Generator(np.random.PCG64()), limbs, _pcg_layout())


def _pcg_dict(s_hi: int, s_lo: int, i_hi: int, i_lo: int, has_uint32=0, uinteger=0) -> dict:
    return {"bit_generator": "PCG64", "has_uint32": has_uint32, "uinteger": uinteger,
            "state": {"state": (s_hi << 64) | s_lo, "inc": (i_hi << 64) | i_lo}}


def _streams(gen, limbs, layout):
    """Yield gen set to each row of limbs: by the setter when layout is None,
    else by copying in the state's bytes (words placed, flags zeroed as the
    setter does, the rest kept); gen, not the ctypes view, keeps them alive."""
    if layout is None:
        for row in limbs.tolist():
            gen.bit_generator.state = _pcg_dict(*row)
            yield gen
        return
    size, word_at, flag_at = layout
    memory = memoryview((ctypes.c_char * size).from_address(
        gen.bit_generator.ctypes.state_address)).cast("B")
    image = np.repeat(np.frombuffer(memory, dtype=np.uint64)[None], len(limbs), axis=0)
    image[:, word_at] = limbs
    image.view(np.uint32)[:, flag_at] = 0
    rows = memoryview(image.view(np.uint8).reshape(-1))
    for at in range(0, rows.nbytes, size):
        memory[:] = rows[at:at + size]
        yield gen


@functools.lru_cache(maxsize=None)
def _pcg_layout():
    """(size, word_at, flag_at): the bytes from a PCG64's state address (a
    pointer to its {state, inc} pair, then has_uint32 and uinteger) to the
    pair's end, the uint64 index of state hi, state lo, inc hi and inc lo (a
    128-bit int or a {high, low} struct) and the uint32 index of the flags,
    found from distinct values set through the setter; None unless a state
    copied in reads back from .state."""
    gen = np.random.Generator(np.random.PCG64())
    probe = [0x0102030405060708 * i for i in range(1, 5)]
    gen.bit_generator.state = _pcg_dict(*probe, 1, 0x5A5A5A5A)
    base = gen.bit_generator.ctypes.state_address
    pair = ctypes.c_void_p.from_address(base).value - base
    flags = ctypes.sizeof(ctypes.c_void_p) // 4  # the uint32 index after the pointer
    if pair not in range(4 * flags + 8, 65, 8):
        return None
    memory = (ctypes.c_char * (pair + 32)).from_address(base)
    words, halves = (np.frombuffer(memory, dtype=t) for t in (np.uint64, np.uint32))
    word_at = [pair // 8 + np.flatnonzero(words[pair // 8:] == w) for w in probe]
    flag_at = [flags + np.flatnonzero(halves[flags:pair // 4] == f) for f in (1, 0x5A5A5A5A)]
    if any(len(at) != 1 for at in word_at + flag_at):
        return None
    layout = pair + 32, np.concatenate(word_at), np.concatenate(flag_at)
    next(_streams(gen, np.array([probe[::-1]], dtype=np.uint64), layout))
    return layout if gen.bit_generator.state == _pcg_dict(*probe[::-1]) else None


def run_tests(matrix: ConfigMatrix, inst: ProblemInstance) -> np.ndarray:
    """Noiseless results: test i fires iff some sick person's column contains i."""
    if matrix.n != inst.n:
        raise ValueError(f"matrix has n={matrix.n} but instance has n={inst.n}")
    y = np.zeros(matrix.m, dtype=np.uint8)
    for j in inst.sick_set:
        y[np.asarray(matrix.columns[j], dtype=np.int64)] = 1
    return y


def score(inst: ProblemInstance, estimate) -> TrialMetrics:
    estimate = set(estimate)
    if any(not 0 <= j < inst.n for j in estimate):
        raise ValueError("estimated index out of range")
    return TrialMetrics(
        false_positives=len(estimate - inst.sick_set),
        false_negatives=len(inst.sick_set - estimate),
    )
