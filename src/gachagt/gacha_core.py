"""The single-layer Gacha scheme: birthday-tagged polynomial fragments spread
over batches of tests.

Encoding: person j owns the polynomial g whose coefficients are the
base-2^w digits of j.  She joins r of the B batches; in chosen batch s she
writes the note (g(0), g(s + 1)) through the inner layer.  The first element
tags every fragment she writes with the same "birthday", so the decoder can
sort fragments by owner without knowing who wrote what.  This birthday-number
code is the one every pyramid layer stacks, and this module owns it: notes
writes it, for the expander layers too, and recover_rows reads it.

Decoding: find the batches exactly one person wrote, read the pair back
from each, group pairs by birthday, and settle each group by one vote;
empty batches and collisions are never read.  The birthday is g(0), a point
of the polynomial the decoder knows before it reads a fragment, so each
fragment (at d <= 2) or window of d - 1 fragments names one candidate, and
a group accepts only a candidate with a strict plurality of at least t
votes, so corrupted fragments degrade into misses rather than fabricated
indices.

The scheme's observation is its (nrows * B, blocks) uint64 block words:
observe ORs the columns straight into them, and decode_rows reads them
without ever forming the nrows * m bits.  blocks_to_bits and bits_to_blocks
are the handle's to_bits / from_bits, for the channel and the tests: each
block is one group of ell bits in scheme's packed format, one word wide.

decode_rows does this for a stack of copies at once, in arrays: one
inner-layer one_writer call over every copy's batches returns only the
one-writer batches and their pairs, then recover_rows, where one field
division per fragment and one stable sort of (copy << w | birthday,
candidate) count every group's votes, for any d and w.  It returns
(row, index) int64 arrays in arrival order: a copy's indices in the order
of their groups' first fragments.  Its scalar reference lives in
tests/scaffolding.py; the list form (column_symbols, build_column,
synthesize_blocks, list_decode, recover_from_groups) remains only as
adapters over the array path that bench/tracer.py wraps by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .core_model import GOLDEN, choice_sets, splitmix64
from .gf2e import FieldSpec, field
from .inner_code import (
    DEFAULT_CODE_SEED,
    BinaryLinearCode,
    ConstantWeightCode,
    Occupancy,
    UnsupportedCodeSize,
    WeightClassifier,
    min_even_block_length,
)
from .scheme import (SchemeHandle, checked_bits, checked_words, pack_groups, stacked_args,
                     unpack_groups)


class _Collision:
    __slots__ = ()

    def __repr__(self):
        return "COLLISION"


COLLISION = _Collision()  # SynthWord slot marker: several writers, nothing readable


_EMPTY, _ONE = Occupancy.EMPTY.value, Occupancy.ONE.value


class PairInner:
    """Carries a pair of w-bit values (hi, lo) per batch through an inner code.

    A pair fills one block's payload when the payload holds 2w bits, else it
    takes two blocks, hi in the first.  Subclasses encode a batch's payloads
    (encode_blocks) and read whole observations back (one_writer), both on
    (batches, blocks) uint64 arrays of block words.  one_writer takes
    stacked copies of B batches, row i holding batch i % B, and returns
    (batch, hi, lo) int64 arrays for the one-writer (ONE) batches only, in
    ascending batch order; a pair can lie outside GF(2^w) when the payload
    is wider than it.  The decode reads nothing else of a batch.
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

    def pack(self, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        """(..., blocks) int64 payloads of the pairs (hi, lo), hi broadcast
        against lo."""
        if self.blocks == 1:
            return ((hi << self.w) | lo)[..., None]
        out = np.empty(np.broadcast_shapes(np.shape(hi), np.shape(lo)) + (2,),
                       dtype=np.result_type(hi, lo))
        out[..., 0], out[..., 1] = hi, lo
        return out

    def unpack(self, payloads: np.ndarray):
        """Inverse of pack: (hi, lo) from (..., blocks) payloads."""
        if self.blocks == 1:
            v = payloads[..., 0]
            return v >> self.w, v & ((1 << self.w) - 1)
        return payloads[..., 0], payloads[..., 1]


def _every_block(mask: np.ndarray) -> np.ndarray:
    """Per row of a (batches, blocks) bool array: every block is set."""
    out = mask[:, 0]
    for col in mask.T[1:]:  # column by column: faster than all(axis=1) on two columns
        out = out & col
    return out


class NoiselessInner(PairInner):
    """Constant-weight image per block; exact weights classify each block."""

    def __init__(self, code: ConstantWeightCode, w: int):
        super().__init__(code.payload_bits, w, code.ell, "inner payload")
        self.code = code

    def encode_blocks(self, hi, lo, batches) -> np.ndarray:
        """(..., blocks) images of the pairs (hi, lo) written in batches, all
        three broadcast to one shape."""
        return self.code.encode_many(self.pack(hi, lo))

    def one_writer(self, words: np.ndarray, B: int):
        """(batch, hi, lo) of the batches in which every block reads one
        image: it has the code's weight and ranks below 2^payload_bits.
        Only the batches whose blocks all have that weight are ranked.
        Raises ValueError on a word with a bit at or above ell."""
        code = self.code
        if code.ell < 64 and words.size and words.max() >> np.uint64(code.ell):
            raise ValueError("observed string longer than ell")
        batch = np.flatnonzero(_every_block(np.bitwise_count(words) == code.weight))
        rank = code.rank_many(words.take(batch, axis=0)).reshape(len(batch), self.blocks)
        image = np.flatnonzero(_every_block(rank < np.uint64(1 << code.payload_bits)))
        return (batch[image], *self.unpack(rank.take(image, axis=0).astype(np.int64)))

    def empty(self, words: np.ndarray) -> np.ndarray:
        """Per batch: every block is empty."""
        return _every_block(words == 0)


def whiten_keys(batches, blocks: int, dim: int) -> np.ndarray:
    """(*batches.shape, blocks) payload scrambling keys, fixed per (batch, block).

    A splitmix64 finalizer of 2 s + b.  Persons whose birthday equals their
    fragment (low indices map to constant polynomials) would otherwise write
    the same codeword into every block of every batch, making their symbol
    weight a single atypical draw repeated r times; XOR-ing a batch-keyed
    constant into the payload restores the fresh-codeword-per-batch
    statistics the weight classifier assumes.
    """
    z = (np.asarray(batches, dtype=np.uint64)[..., None] * np.uint64(2)
         + np.arange(blocks, dtype=np.uint64) + np.uint64(GOLDEN))
    return (splitmix64(z) & np.uint64((1 << dim) - 1)).astype(np.int64)


@lru_cache(maxsize=None)
def _key_table(size: int, blocks: int, dim: int) -> np.ndarray:
    """whiten_keys of batches 0 .. size - 1, read-only."""
    table = whiten_keys(np.arange(size), blocks, dim)
    table.setflags(write=False)
    return table


class NoisyInner(PairInner):
    """Linear-code image per block plus a weight test over the whole symbol,
    sized for a channel of the given crossover.  Raises UnsupportedCodeSize
    on a code without a coset table, which decode_many cannot decode."""

    def __init__(self, code: BinaryLinearCode, crossover: float, w: int):
        if code.coset_table is None:
            raise UnsupportedCodeSize(f"[{code.ell}, {code.dim}] inner code: no coset-leader table")
        super().__init__(code.dim, w, code.ell, "inner dimension")
        self.code = code
        self.classifier = WeightClassifier(ell=self.bits_per_symbol, p=crossover)

    def _keys(self, batches) -> np.ndarray:
        """whiten_keys of an int64 array of batches, gathered from a cached
        table of every batch below the next power of two past the largest."""
        batches = np.asarray(batches)
        size = 1 << int(batches.max(initial=0)).bit_length()
        return _key_table(size, self.blocks, self.code.dim)[batches]

    def encode_blocks(self, hi, lo, batches) -> np.ndarray:
        """(..., blocks) codewords of the pairs (hi, lo) written in batches,
        all three broadcast to one shape."""
        return self.code.codebook[self.pack(hi, lo) ^ self._keys(batches)]

    def one_writer(self, words: np.ndarray, B: int):
        """(batch, hi, lo) of the batches whose symbol weight reads as one
        writer, each block decoded to its nearest codeword and unwhitened by
        its batch within the copy.  Raises ValueError when such a batch has
        a bit at or above ell."""
        batch = np.flatnonzero(self._kinds(words) == _ONE)
        decoded = self.code.decode_many(words.take(batch, axis=0).ravel())
        decoded = decoded.reshape(len(batch), self.blocks)
        return (batch, *self.unpack(decoded ^ self._keys(batch % B)))

    def empty(self, words: np.ndarray) -> np.ndarray:
        """Per batch: the symbol's weight reads as empty."""
        return self._kinds(words) == _EMPTY

    def _kinds(self, words: np.ndarray) -> np.ndarray:
        counts = np.bitwise_count(words)
        ones = counts[:, 0]
        for col in counts.T[1:]:  # at most 2 * 64 ones: uint8 holds the sum
            ones = ones + col
        return self.classifier.classify_weights(ones)


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
                        seed: int = DEFAULT_CODE_SEED) -> NoisyInner:
    from .inner_code import MAX_ENUMERABLE_DIM, linear_code

    if dim == 0:
        dim = 2 * w if 2 * w <= MAX_ENUMERABLE_DIM else w
    if ell == 0:
        ell = 2 * dim
    return NoisyInner(linear_code(ell, dim, seed), crossover, w)


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
    def bits_per_symbol(self) -> int:
        return self.inner.bits_per_symbol

    @property
    def m(self) -> int:
        return self.B * self.bits_per_symbol


def default_sizing(n: int, k: int, w: int = 0, d: int = 0, r: int = 0, B: int = 0):
    """(w, d, r, B), the unset ones (0) filled from the standard ratios.

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
    return w, d, r, B


def default_params(n: int, k: int, channel_crossover=None, matrix_seed: int = 0,
                   w: int = 0, d: int = 0, r: int = 0, B: int = 0,
                   ell: int = 0, weight: int = 0, lin_dim: int = 0,
                   code_seed: int = DEFAULT_CODE_SEED) -> GachaParams:
    """GachaParams with unset sizing from default_sizing and the default
    inner layer: constant-weight without a channel crossover, else linear."""
    w, d, r, B = default_sizing(n, k, w, d, r, B)
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

def _point(slots):
    """The evaluation point of every slot: slot s is read at s + 1, since
    the birthday takes 0."""
    return slots + 1


def notes(fld: FieldSpec, d: int, js, slots):
    """(birthdays, fragments) that persons js write: for an int64 array js
    and an (len(js), r) int64 array of slots, each person's index polynomial
    g at 0, its constant term, as a (len(js), 1) array and at the point of
    each of its slots as a (len(js), r) array."""
    g = fld.index_to_poly_many(js, d)
    return g[:, :1], fld.poly_eval_many(g, _point(slots))


def column_words(params: GachaParams, js: np.ndarray):
    """(batches, words) for an int64 array js of persons in [0, n): the
    (len(js), r) sorted batches each person joins and the (len(js), r,
    blocks) uint64 block words written there.

    Person j's batches are a uniform r-subset of [0, B) keyed by
    (matrix_seed, j), so each row is deterministic in (matrix_seed, j)
    whatever else js holds; one choice_sets call draws them for every
    person, one notes call writes every person's note in each of its
    batches, and one encode_blocks call encodes every note.
    """
    batches = choice_sets(params.matrix_seed, js, params.B, params.r)
    birthdays, fragments = notes(params.field, params.d, js, batches)
    return batches, params.inner.encode_blocks(birthdays, fragments, batches)


def column_symbols(params: GachaParams, j: int):
    """column_words of person j as [(batch, block words)] of ints; an adapter
    for bench/tracer.py, deleted by Benchmark v2 (ROADMAP.md)."""
    batches, words = column_words(params, stacked_args([j], [0], 1, params.n)[0])
    return [(s, tuple(row)) for s, row in zip(batches[0].tolist(), words[0].tolist())]


def build_column(params: GachaParams, j: int) -> np.ndarray:
    """Sparse column over m = B * bits_per_symbol tests; an adapter for
    bench/tracer.py, deleted by Benchmark v2."""
    return np.flatnonzero(blocks_to_bits(params, observed_blocks(params, [j])))


def observed_blocks(params: GachaParams, js, rows=None, nrows: int = 1) -> np.ndarray:
    """OR of the columns of persons js as an (nrows * B, blocks) uint64 array
    of block words, js[i]'s column written in copy rows[i] (copy 0 when rows
    is None).

    With one copy, exactly bits_to_blocks of the OR of the k columns
    build_column gives, without touching the n - k healthy columns.
    """
    js, rows = stacked_args(js, np.zeros(len(js), dtype=np.int64) if rows is None else rows,
                            nrows, params.n)
    batches, words = column_words(params, js)
    blocks = params.inner.blocks
    out = np.zeros(nrows * params.B * blocks, dtype=np.uint64)
    # word index of block b of batch s in copy row
    at = (rows[:, None] * params.B + batches)[..., None] * blocks + np.arange(blocks)
    np.bitwise_or.at(out, at.ravel(), words.ravel())
    return out.reshape(-1, blocks)


def blocks_to_bits(params: GachaParams, words: np.ndarray) -> np.ndarray:
    """The uint8 test bits of an (nrows * B, blocks) uint64 array of block
    words, nrows * m of them; the inverse of bits_to_blocks."""
    return unpack_groups(np.reshape(words, (-1, 1)), params.inner.ell).ravel()


def bits_to_blocks(params: GachaParams, bits: np.ndarray, nrows: int = 1) -> np.ndarray:
    """Pack nrows copies' observed bit vectors, nrows * m bits, into an
    (nrows * B, blocks) uint64 array: each ell-bit block is one packed group
    of one word, bit c of which is test c of that block."""
    words = pack_groups(checked_bits(bits, params.m, nrows).reshape(-1, params.inner.ell))
    return words.reshape(nrows * params.B, params.inner.blocks)


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

@dataclass
class SynthWord:
    """Per-batch reading: None (empty), (birthday, fragment), or COLLISION."""

    symbols: list


def synthesize_blocks(params: GachaParams, observed) -> SynthWord:
    """One (B, blocks) uint64 array of block words as a SynthWord: the inner
    layer's one_writer pairs, None where its empty test holds, COLLISION
    elsewhere; an adapter for bench/tracer.py, deleted by Benchmark v2."""
    observed = np.asarray(observed, dtype=np.uint64)
    shape = (params.B, params.inner.blocks)
    if observed.shape != shape:
        raise ValueError(f"expected {shape} blocks, got {observed.shape}")
    batch, hi, lo = params.inner.one_writer(observed, params.B)
    symbols = [None if e else COLLISION for e in params.inner.empty(observed).tolist()]
    for s, pair in zip(batch.tolist(), zip(hi.tolist(), lo.tolist())):
        symbols[s] = pair
    return SynthWord(symbols=symbols)


def recover_from_groups(fld: FieldSpec, d: int, b0: int, groups, point_of_slot, n: int):
    """recover_rows of one row as a set, groups mapping a birthday to
    [(slot, fragment)]; an adapter for bench/tracer.py, deleted by Benchmark v2.
    Raises ValueError unless b0 is 0 and point_of_slot maps an array of the
    slots to the points recover_rows reads them at, slot s at s + 1."""
    frags = [(s, hi, lo) for hi, pts in groups.items() for s, lo in sorted(pts)]
    slot, hi, lo = np.array(frags, dtype=np.int64).reshape(-1, 3).T
    if b0 != 0 or not np.array_equal(point_of_slot(slot), _point(slot)):
        raise ValueError("recover_rows reads the birthday at 0 and slot s at s + 1")
    _, index = recover_rows(fld, d, (np.zeros_like(slot), slot, hi, lo), n)
    return set(index.tolist())


def list_decode(params: GachaParams, word: SynthWord):
    """recover_from_groups of a SynthWord's pairs grouped by birthday; an
    adapter for bench/tracer.py, deleted by Benchmark v2."""
    groups = {}
    for s, sym in enumerate(word.symbols):
        if sym is None or sym is COLLISION:
            continue
        hi, lo = sym
        groups.setdefault(hi, []).append((s, lo))
    return recover_from_groups(params.field, params.d, 0, groups, _point, params.n)


def recover_rows(fld: FieldSpec, d: int, fragments, n: int):
    """Settle each birthday group of the notes of many rows by one vote, in
    arrays: the accepted indices as (row, index) int64 arrays.

    fragments is (row, slot, hi, lo), int64 arrays in arrival order: a note
    (hi, lo) that notes wrote in slot `slot` of row `row`, both field
    elements.  Slots are distinct within a (row, birthday) group, below
    2^w - 1 and ascending; rows lie below 2^(63 - w), so that row << w | hi
    is an int64 group key.

    The birthday is g(0), so g(x) = hi + x h(x) for an h of dimension d - 1,
    and a fragment reads h at its slot's point: z = (lo + hi) / (s + 1).  At
    d = 2 each fragment names the candidate h = z; at d = 1 the one
    candidate is g = hi, named by the fragments with z = 0; at d >= 3 each
    window of d - 1 consecutive fragments of a group names the h through its
    points.  A group accepts its most-voted candidate when it has at least
    t votes, a strict plurality and an index in [0, n) (so below 2^63).
    t = 2 at d >= 2, which is d agreeing fragments: a wrong accept then
    takes two corrupt fragments of one row sharing a birthday and a z, about
    2^-2w a pair, where with t = 1 every corrupt fragment would name an
    index below n with chance n / 2^(w d).  t = 1 at d = 1, whose candidate
    is pinned to the birthday, so a corrupt fragment votes only if lo = hi.
    The indices come in the arrival order of their groups' first fragments,
    so rows ascend when the fragments' rows do.
    """
    row, slot, hi, lo = fragments
    key = row << fld.w | hi
    z = fld.div_many(lo ^ hi, _point(slot))
    # votes sorted by (group, candidate): at, the fragment each vote starts
    # at; h, the candidate it names
    if d <= 2:  # a vote a fragment
        at = np.lexsort((z, key))
        h = z[at, None]
    else:  # a vote a window of consecutive fragments of one group
        order = np.argsort(key, kind="stable")
        start = np.flatnonzero(key[order[:2 - d]] == key[order[d - 2:]])
        window = order[start[:, None] + np.arange(d - 1)]
        h = fld.interpolate_many(_point(slot[window]), z[window])
        by = np.lexsort((*h.T, key[window[:, 0]]))
        at, h = window[by, 0], h[by]
    key = key[at]
    edge = np.ones(len(at) + 1, dtype=bool)  # where each candidate's run starts, and the end
    edge[1:-1] = (key[1:] != key[:-1]) | (h[1:] != h[:-1]).any(axis=1)
    edge = np.flatnonzero(edge)
    first, votes = edge[:-1], np.diff(edge)
    if d == 1:  # the birthday is the one candidate
        votes[h[first, 0] != 0] = 0
    group = np.ones(len(first), dtype=bool)  # the runs that start a group
    group[1:] = key[first[1:]] != key[first[:-1]]
    starts = np.flatnonzero(group)
    group = np.cumsum(group) - 1
    top = votes == np.maximum.reduceat(votes, starts)[group]
    best = np.flatnonzero(top & (np.add.reduceat(top, starts)[group] == 1)
                          & (votes >= (1 if d == 1 else 2)))
    won = key[first[best]]
    j = fld.poly_to_index_many(np.concatenate(
        [(won & ((1 << fld.w) - 1))[:, None], h[first[best], :d - 1]], axis=1))
    ok = np.flatnonzero((0 <= j) & (j < n))
    arrival = np.minimum.reduceat(at, first[starts])[group[best[ok]]]
    ok = ok[np.argsort(arrival)]
    return won[ok] >> fld.w, j[ok]


def decode_rows(params: GachaParams, words, nrows: int):
    """(row, index) int64 arrays of what nrows copies' observed block words,
    an (nrows * B, blocks) uint64 array, decode to: the inner layer's
    one_writer pairs that lie in GF(2^w), through recover_rows."""
    words = checked_words(words, (nrows * params.B, params.inner.blocks), np.uint64)
    batch, hi, lo = params.inner.one_writer(words, params.B)  # by copy, then batch
    # a payload wider than the pair can read a birthday or fragment outside
    # GF(2^w), which no person writes
    q = 1 << params.w
    keep = np.flatnonzero((hi < q) & (lo < q))
    row, slot = np.divmod(batch[keep], params.B)
    return recover_rows(params.field, params.d, (row, slot, hi[keep], lo[keep]), params.n)


def gacha_scheme(params: GachaParams) -> SchemeHandle:
    return SchemeHandle(
        n=params.n,
        k_design=params.k_cap,
        m=params.m,
        observe=partial(observed_blocks, params),
        decode_rows=partial(decode_rows, params),
        to_bits=partial(blocks_to_bits, params),
        from_bits=partial(bits_to_blocks, params),
        layers=("gacha",),
    )


def analytic_budget(k: int, w: int, d: int, r: int) -> float:
    """Mean FN+FP budget: fragment-starvation tail plus birthday collision mass.

    The first term is the Hoeffding bound on starvation, a person's group
    getting fewer than t votes, which takes keeping fewer than d of her r
    circles (t votes are d agreeing fragments) when each survives
    independently with probability >= 5/8; the second is the expected number
    of colliding birthday pairs over 2^w.
    """
    concentrate = k * math.exp(-2 * (5 / 8 - d / r) ** 2 * r)
    birthday = k * k / (1 << (w + 1))
    return concentrate + birthday
