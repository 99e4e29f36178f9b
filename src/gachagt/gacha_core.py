"""The single-layer Gacha scheme: birthday-tagged polynomial fragments spread
over batches of tests.

Encoding: person j owns the polynomial whose coefficients are the base-2^w
digits of j.  She joins r of the B batches; in chosen batch s she writes the
pair (g(b0), g(p_s)) through the inner layer, where b0 is a shared evaluation
point and the p_s are distinct per batch.  The first element tags every
fragment she writes with the same "birthday", so the decoder can sort
fragments by owner without knowing who wrote what.

Decoding: classify each batch as empty / one writer / several writers, read
the pair back where exactly one person wrote, group pairs by birthday, and
interpolate each group back to a polynomial.  Interpolated candidates are
verified against the whole group before their index is emitted, so corrupted
fragments degrade into misses rather than fabricated indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gf2e import FieldSpec, InsufficientEvaluations, field
from .inner_code import (
    BinaryLinearCode,
    ConstantWeightCode,
    Occupancy,
    WeightClassifier,
    min_even_block_length,
)
from .scheme import SchemeHandle


class _Collision:
    __slots__ = ()

    def __repr__(self):
        return "COLLISION"


COLLISION = _Collision()  # SynthWord slot marker: several writers, nothing readable


_EMPTY, _ONE, _MANY = (k.value for k in Occupancy)


class PairInner:
    """Carries a pair of w-bit values (hi, lo) per batch through an inner code.

    A pair fills one block's payload when the payload holds 2w bits, else it
    takes two blocks, hi in the first.  Subclasses encode a batch's payloads
    (encode_blocks) and classify whole observations (classify_blocks), both
    on (batches, blocks) uint64 arrays of block words.
    """

    def __init__(self, payload_bits: int, w: int, ell: int, what: str):
        if payload_bits >= 2 * w:
            self.blocks = 1
        elif payload_bits >= w:
            self.blocks = 2
        else:
            raise ValueError(
                f"{what} {payload_bits} bits cannot carry a pair of {w}-bit values"
            )
        self.w = w
        self.ell = ell
        self.bits_per_symbol = self.blocks * ell

    def pack(self, hi: int, lo: np.ndarray) -> np.ndarray:
        """(len(lo), blocks) int64 payloads of the pairs (hi, lo[i])."""
        if self.blocks == 1:
            return ((hi << self.w) | lo)[:, None]
        return np.stack([np.full_like(lo, hi), lo], axis=-1)

    def unpack(self, payloads: np.ndarray):
        """Inverse of pack: (hi, lo) from (..., blocks) payloads."""
        if self.blocks == 1:
            v = payloads[..., 0]
            return v >> self.w, v & ((1 << self.w) - 1)
        return payloads[..., 0], payloads[..., 1]


class NoiselessInner(PairInner):
    """Constant-weight image per block; exact weights classify each block."""

    def __init__(self, code: ConstantWeightCode, w: int):
        super().__init__(code.payload_bits, w, code.ell, "inner payload")
        self.code = code

    def encode_blocks(self, hi, lo, batches) -> np.ndarray:
        """(len(batches), blocks) images of (hi, lo[i]) written in batches[i]."""
        return self.code.encode_many(self.pack(hi, lo))

    def classify_blocks(self, words: np.ndarray):
        """(kinds, hi, lo) per batch: EMPTY when every block is empty, ONE when
        every block reads one image, MANY otherwise; hi/lo hold where ONE."""
        kinds, payloads = self.code.classify_many(words)
        kind = np.where((kinds == _ONE).all(axis=1), _ONE, _MANY)
        kind[(kinds == _EMPTY).all(axis=1)] = _EMPTY
        return (kind, *self.unpack(payloads))


def whiten_keys(batches, blocks: int, dim: int) -> np.ndarray:
    """(len(batches), blocks) payload scrambling keys, fixed per (batch, block).

    A splitmix64 finalizer of 2 s + b.  Persons whose birthday equals their
    fragment (low indices map to constant polynomials) would otherwise write
    the same codeword into every block of every batch, making their symbol
    weight a single atypical draw repeated r times; XOR-ing a batch-keyed
    constant into the payload restores the fresh-codeword-per-batch
    statistics the weight classifier assumes.
    """
    z = (np.asarray(batches, dtype=np.uint64)[:, None] * np.uint64(2)
         + np.arange(blocks, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return ((z ^ (z >> np.uint64(31))) & np.uint64((1 << dim) - 1)).astype(np.int64)


class NoisyInner(PairInner):
    """Linear-code image per block plus a weight test over the whole symbol."""

    def __init__(self, code: BinaryLinearCode, classifier: WeightClassifier, w: int):
        super().__init__(code.dim, w, code.ell, "inner dimension")
        self.code = code
        self.classifier = classifier
        if classifier.ell != self.bits_per_symbol:
            raise ValueError(
                f"classifier covers {classifier.ell} bits but a symbol spans {self.bits_per_symbol}"
            )

    def encode_blocks(self, hi, lo, batches) -> np.ndarray:
        """(len(batches), blocks) codewords of (hi, lo[i]) written in batches[i]."""
        keys = whiten_keys(batches, self.blocks, self.code.dim)
        return self.code.codebook[self.pack(hi, lo) ^ keys]

    def classify_blocks(self, words: np.ndarray):
        """(kinds, hi, lo) per batch: the symbol's weight picks the kind, and
        batches read as ONE decode to the nearest codewords; hi/lo hold
        where ONE."""
        kind = self.classifier.classify_weights(np.bitwise_count(words).sum(axis=1))
        single = np.flatnonzero(kind == _ONE)
        payloads = np.zeros(words.shape, dtype=np.int64)
        decoded = self.code.decode_many(words[single].ravel()).reshape(-1, self.blocks)
        payloads[single] = decoded ^ whiten_keys(single, self.blocks, self.code.dim)
        return (kind, *self.unpack(payloads))


def default_noiseless_inner(w: int, ell: int = 0, weight: int = 0) -> NoiselessInner:
    """Single block when a pair fits in a 32-bit-or-shorter block, else split."""
    if ell == 0:
        single = min_even_block_length(2 * w)
        payload_bits = 2 * w if single <= 32 else w
        ell = min_even_block_length(payload_bits)
    else:
        payload_bits = 2 * w if math.comb(ell, weight or ell // 2) >= (1 << (2 * w)) else w
    return NoiselessInner(ConstantWeightCode(ell, weight or ell // 2, payload_bits), w)


def default_noisy_inner(w: int, crossover: float, ell: int = 0, dim: int = 0,
                        seed: int = 7) -> NoisyInner:
    from .inner_code import MAX_ENUMERABLE_DIM, linear_code

    if dim == 0:
        dim = 2 * w if 2 * w <= MAX_ENUMERABLE_DIM else w
    if ell == 0:
        ell = 2 * dim
    code = linear_code(ell, dim, seed)
    blocks = 1 if dim >= 2 * w else 2
    return NoisyInner(code, WeightClassifier(ell=blocks * ell, p=crossover), w)


@dataclass
class GachaParams:
    """All sizing constants for one scheme layer.

    n        population (must fit in the polynomial index space 2^(w*d))
    k_cap    design sick count the batch budget is sized for
    w        field width; birthdays collide with probability 2^-w
    d        polynomial dimension; groups need d surviving fragments
    r        batches each person joins ("circles")
    B        total batch count; the default ratios r = 9 d and B = 24 d k
             put the circle density at r * k / B = 3/8
    inner    per-batch symbol codec
    """

    n: int
    k_cap: int
    w: int
    d: int
    r: int
    B: int
    inner: object
    matrix_seed: int = 0

    def __post_init__(self):
        self.field: FieldSpec = field(self.w)
        if self.n < 1 or self.w * self.d < math.log2(self.n):
            raise ValueError(f"population {self.n} exceeds 2^(w*d) = 2^{self.w * self.d}")
        if self.B < self.r:
            raise ValueError(f"need B >= r, got B={self.B}, r={self.r}")
        if self.r < self.d:
            raise ValueError(f"need r >= d circles to interpolate, got r={self.r}, d={self.d}")
        if self.B + 1 > (1 << self.w):
            raise ValueError(
                f"need B + 1 <= 2^w distinct evaluation points, got B={self.B}, w={self.w}"
            )

    @property
    def nu(self) -> float:
        return math.log2(self.n)

    @property
    def bits_per_symbol(self) -> int:
        return self.inner.bits_per_symbol

    @property
    def m(self) -> int:
        return self.B * self.bits_per_symbol

    # evaluation points: b0 = 0, batch s uses the (s+1)-th field element
    b0 = 0

    def point(self, s: int) -> int:
        return s + 1


def default_params(n: int, k: int, channel_crossover=None, matrix_seed: int = 0,
                   w: int = 0, d: int = 0, r: int = 0, B: int = 0,
                   ell: int = 0, weight: int = 0, lin_dim: int = 0,
                   code_seed: int = 7) -> GachaParams:
    """Fill unset sizing from the standard ratios.

    nu = ceil(log2 n); d ~ sqrt(nu)/3; w covers both the index space (w*d >=
    nu) and a comfortable birthday margin (w >= 3 sqrt(nu)); r = 9d; B = 24dk.
    """
    nu = max(1, math.ceil(math.log2(max(n, 2))))
    if d == 0:
        d = max(1, round(math.sqrt(nu) / 3))
    if r == 0:
        r = 9 * d
    if B == 0:
        B = 24 * d * k
    if w == 0:
        w = max(math.ceil(nu / d), math.ceil(3 * math.sqrt(nu)),
                math.ceil(math.log2(B + 1)), 2)
    if channel_crossover is None:
        inner = default_noiseless_inner(w, ell=ell, weight=weight)
    else:
        inner = default_noisy_inner(w, channel_crossover, ell=ell, dim=lin_dim,
                                    seed=code_seed)
    return GachaParams(n=n, k_cap=k, w=w, d=d, r=r, B=B, inner=inner,
                       matrix_seed=matrix_seed)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def person_rng(params: GachaParams, j: int) -> np.random.Generator:
    return np.random.default_rng((params.matrix_seed, j))


def column_words(params: GachaParams, j: int):
    """(batches, words) for person j: the r sorted batches the person joins
    and the (r, blocks) uint64 block words written there.

    Deterministic in (matrix_seed, j).
    """
    if not 0 <= j < params.n:
        raise ValueError(f"person index {j} out of range")
    rng = person_rng(params, j)
    batches = np.sort(rng.choice(params.B, size=params.r, replace=False))
    g = params.field.index_to_poly(j, params.d)
    hi = params.field.poly_eval(g, params.b0)
    lo = params.field.poly_eval_many(g, params.point(batches))
    return batches, params.inner.encode_blocks(hi, lo, batches)


def column_symbols(params: GachaParams, j: int):
    """[(batch, block words)] for person j, as ints; see column_words."""
    batches, words = column_words(params, j)
    return [(s, tuple(row)) for s, row in zip(batches.tolist(), words.tolist())]


def build_column(params: GachaParams, j: int) -> np.ndarray:
    """Sparse column over m = B * bits_per_symbol tests."""
    batches, words = column_words(params, j)
    ell = params.inner.ell
    bits = (words[..., None] >> np.arange(ell, dtype=np.uint64)) & np.uint64(1)
    # test index of bit c of block b in batch s; row-major order is sorted
    tests = (batches[:, None, None] * params.bits_per_symbol
             + np.arange(params.inner.blocks)[:, None] * ell + np.arange(ell))
    return tests[bits.astype(bool)]


def observed_blocks(params: GachaParams, sick_set) -> np.ndarray:
    """OR of the sick columns as a (B, blocks) uint64 array of block words.

    Exactly equivalent to bits_to_blocks of run_tests on the full matrix
    (gacha_scheme(params).build()), without touching the n - k healthy
    columns.
    """
    words = np.zeros((params.B, params.inner.blocks), dtype=np.uint64)
    for j in sick_set:
        batches, blocks = column_words(params, j)
        words[batches] |= blocks
    return words


def bits_to_blocks(params: GachaParams, bits: np.ndarray) -> np.ndarray:
    """Pack the observed bit vector into a (B, blocks) uint64 array; bit c of
    a block word is test c of that block."""
    if len(bits) != params.m:
        raise ValueError(f"observed length {len(bits)} != m = {params.m}")
    ell = params.inner.ell
    packed = np.packbits(np.asarray(bits, dtype=bool).reshape(-1, ell), axis=1,
                         bitorder="little")
    words = np.zeros((len(packed), 8), dtype=np.uint8)
    words[:, :packed.shape[1]] = packed
    return words.view("<u8").reshape(params.B, params.inner.blocks)


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

@dataclass
class SynthWord:
    """Per-batch reading: None (empty), (birthday, fragment), or COLLISION."""

    symbols: list


def synthesize(params: GachaParams, observed_bits) -> SynthWord:
    """Classify every batch of the length-m observed bit vector."""
    return synthesize_blocks(params, bits_to_blocks(params, np.asarray(observed_bits)))


def synthesize_blocks(params: GachaParams, observed) -> SynthWord:
    """Same as synthesize, on a (B, blocks) uint64 array of block words."""
    observed = np.asarray(observed, dtype=np.uint64)
    shape = (params.B, params.inner.blocks)
    if observed.shape != shape:
        raise ValueError(f"expected {shape} blocks, got {observed.shape}")
    kinds, hi, lo = params.inner.classify_blocks(observed)
    symbols = [None] * params.B
    for s in np.flatnonzero(kinds == _MANY).tolist():
        symbols[s] = COLLISION
    one = np.flatnonzero(kinds == _ONE)
    for s, pair in zip(one.tolist(), zip(hi[one].tolist(), lo[one].tolist())):
        symbols[s] = pair
    return SynthWord(symbols=symbols)


def recover_from_groups(fld: FieldSpec, d: int, b0: int, groups, point_of_slot, n: int):
    """Shared candidate recovery: interpolate each birthday group and verify.

    groups maps a birthday value to [(slot, fragment)] with pairwise-distinct
    slots; point_of_slot maps a slot to its evaluation point.  A candidate is
    accepted when it reproduces the birthday at b0, its index fits in [0, n),
    and it matches a strict majority (and at least d) of the group's points.
    Interpolation runs on the d smallest slots, with one retry on the next d
    slots, then the group is abandoned.
    """
    found = set()
    for birthday, pts in groups.items():
        if len(pts) < d:
            continue
        pts = sorted(pts)
        attempts = [pts[:d]]
        if len(pts) >= 2 * d:
            attempts.append(pts[d:2 * d])
        elif len(pts) > d:
            attempts.append(pts[1:d + 1])
        need = max(d, len(pts) // 2 + 1)
        for subset in attempts:
            try:
                g = fld.interpolate([(point_of_slot(s), y) for s, y in subset], d)
            except InsufficientEvaluations:
                break
            if fld.poly_eval(g, b0) != birthday:
                continue
            j = fld.poly_to_index(g)
            if j >= n:
                continue
            matches = sum(1 for s, y in pts if fld.poly_eval(g, point_of_slot(s)) == y)
            if matches >= need:
                found.add(j)
                break
    return found


def list_decode(params: GachaParams, word: SynthWord):
    """Group per-batch pairs by birthday, interpolate, verify, emit indices."""
    groups = {}
    for s, sym in enumerate(word.symbols):
        if sym is None or sym is COLLISION:
            continue
        hi, lo = sym
        groups.setdefault(hi, []).append((s, lo))
    return recover_from_groups(params.field, params.d, params.b0, groups,
                               params.point, params.n)


def gacha_scheme(params: GachaParams) -> SchemeHandle:
    def decode(bits):
        return list_decode(params, synthesize(params, np.asarray(bits, dtype=np.uint8)))

    return SchemeHandle(
        n=params.n,
        k_design=params.k_cap,
        m=params.m,
        column=lambda j: build_column(params, j),
        decode=decode,
        layers=("gacha",),
    )


def analytic_budget(k: int, w: int, d: int, r: int) -> float:
    """Mean FN+FP budget: fragment-starvation tail plus birthday collision mass.

    The first term is the Hoeffding bound on a person keeping fewer than d of
    her r circles when each survives independently with probability >= 5/8;
    the second is the expected number of colliding birthday pairs over 2^w.
    """
    concentrate = k * math.exp(-2 * (5 / 8 - d / r) ** 2 * r)
    birthday = k * k / (1 << (w + 1))
    return concentrate + birthday
