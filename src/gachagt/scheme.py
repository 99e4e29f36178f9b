"""The common group-testing scheme interface the composition gadgets wrap.

A scheme knows its population, design sick load, and test count, encodes any
set of persons into test results (columns are deterministic given the
scheme's seeds), and decodes a stack of copies' observations back to
(row, index) arrays: the indices each copy holds, tagged with the copy.

Observations stay in the scheme's own layout from observe to decode: packed
uint64 words for the Gacha base (gacha_core) and for COMP (baselines), plain
bits for the oracle and the test schemes.  Everyone else goes through the
handle's to_bits / from_bits pair, and only the channel and the tests need
the dense bits.

Both packed layouts are one format, owned here: groups of test bits (a
block's ell for Gacha, a copy's or a person's m for COMP and the oracle),
each zero-padded to whole little-endian uint64 words.  zero_words,
pack_groups and unpack_groups alone know its bit order and padding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np


# The packed format: bit t of a group's words is its test t, in word t // 64
# at bit t % 64, and the pad bits past the group's last test are zero.
WORD = np.dtype("<u8")


def zero_words(groups: int, width: int) -> np.ndarray:
    """The packed words of groups all-zero groups of width bits."""
    return np.zeros((groups, -(-width // 64)), dtype=WORD)


def pack_groups(bits, out=None) -> np.ndarray:
    """The packed words of a (groups, width) bool or integer array, nonzero
    read as 1, written into out (zero_words, or a slice of its rows) when
    given: each group padded to whole bytes, one flat packbits, and, unless
    the width is whole words, each group's bytes copied into zeroed words in
    the widest unit that tiles them."""
    bits = np.asarray(bits)
    groups, width = bits.shape
    size, nbytes = -(-width // 64), -(-width // 8)
    if width % 8:
        padded = np.zeros((groups, 8 * nbytes), dtype=bool)
        padded[:, :width] = bits
        bits = padded
    octets = np.packbits(bits, bitorder="little")  # each group's bytes, back to back
    if width % 64:
        unit = np.dtype(f"<u{math.gcd(nbytes, 8)}")
        per_row = nbytes // unit.itemsize
        words = np.zeros((groups, size), dtype=WORD)
        words.view(unit)[:, :per_row] = octets.view(unit).reshape(groups, per_row)
    else:
        words = octets.view(WORD).reshape(groups, size)
    if out is None:
        return words
    out[...] = words
    return out


def unpack_groups(words, width: int) -> np.ndarray:
    """The (groups, width) uint8 bits of (groups, ceil(width / 64)) packed
    words; the inverse of pack_groups."""
    octets = np.ascontiguousarray(words, dtype=WORD).view(np.uint8)
    return np.unpackbits(octets, axis=1, count=width, bitorder="little")


def stacked_args(js, rows, nrows: int, n: int):
    """The arguments of a stacked observe as int64 arrays, checked: one row
    per person, 0 <= js < n and 0 <= rows < nrows.  js may be any iterable."""
    js = np.asarray(js if isinstance(js, np.ndarray) else np.fromiter(js, dtype=np.int64),
                    dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    if rows.shape != js.shape or js.ndim != 1:
        raise ValueError(f"need one row per person, got {js.shape} and {rows.shape}")
    if js.size and (js.min() < 0 or js.max() >= n):
        raise ValueError(f"person index {js[(js < 0) | (js >= n)][0]} out of range")
    if rows.size and (rows.min() < 0 or rows.max() >= nrows):
        raise ValueError(f"row {rows[(rows < 0) | (rows >= nrows)][0]} outside {nrows} copies")
    return js, rows


def column_from_observe(observe, to_bits, j: int) -> np.ndarray:
    """The column of a scheme given by its stacked observe and its layout."""
    return np.flatnonzero(to_bits(observe([j], [0], 1)))


def checked_bits(bits, m: int, nrows: int = 1, dtype=np.uint8) -> np.ndarray:
    """bits as an array of dtype (None: the dtype they have), checked to hold
    nrows copies of m tests."""
    bits = np.asarray(bits, dtype=dtype)
    if len(bits) != nrows * m:
        copies = "" if nrows == 1 else f"{nrows} copies of "
        raise ValueError(f"observed length {len(bits)} != {copies}m = {m}")
    return bits


def bits_from_bits(m: int, bits, nrows: int) -> np.ndarray:
    """from_bits of the plain-bit layout: the bits, or a channel's raw
    symbols, themselves, checked."""
    return checked_bits(bits, m, nrows, dtype=None)


def checked_words(words, shape: tuple, dtype) -> np.ndarray:
    """words, checked to be an array of the given shape and dtype; a packed
    layout's decode checks this instead of reading every bit."""
    if not (isinstance(words, np.ndarray) and words.shape == shape and words.dtype == dtype):
        raise ValueError(f"observed words are not a {np.dtype(dtype)} array of shape {shape}")
    return words


def forwarded_layout(inner, copies: int) -> dict:
    """The to_bits / from_bits of a gadget whose copy t is its inner handle's
    copies t * copies ... t * copies + copies - 1 back to back: the inner
    pair, with lengths checked against the gadget's own m."""
    return dict(to_bits=inner.to_bits,
                from_bits=partial(_forwarded_from_bits, inner.from_bits, copies * inner.m, copies))


def _forwarded_from_bits(from_bits, m: int, copies: int, bits, nrows: int):
    return from_bits(checked_bits(bits, m, nrows), nrows * copies)


def decode_copies(decode, m: int, bits, nrows: int):
    """A stacked decode from a decode of one copy into distinct indices, run
    one copy at a time: each copy's indices as (row, index) arrays."""
    bits = checked_bits(bits, m, nrows, dtype=None)  # a channel's raw symbols as they are
    found = [decode(bits[r * m:(r + 1) * m]) for r in range(nrows)]
    row = np.repeat(np.arange(nrows), [len(s) for s in found])
    return row, np.fromiter(chain.from_iterable(found), dtype=np.int64, count=len(row))


def decode_from_rows(decode_rows, words) -> set:
    """The decoded set of one copy, through a scheme's stacked decode."""
    return set(decode_rows(words, 1)[1].tolist())


@dataclass
class SchemeHandle:
    """A scheme, given by its stacked observe and its stacked decode over
    observations in its own layout, and by that layout's pair of converters.

    observe(js, rows, nrows) is the stacked encoder: the OR of the columns of
    persons js[i], each placed in copy rows[i], as the observation of nrows
    copies; an index outside [0, n) raises ValueError.  An observation of
    nrows copies is the copies' observations concatenated along axis 0.

    decode_rows(words, nrows) is the stacked decoder: an observation of
    nrows copies in, (row, index) int64 arrays out, index[i] decoded in copy
    row[i].  Rows ascend, an index appears at most once per row, and within
    a row the indices come in arrival order: the order in which the decoder
    settled them, which a gadget above reads as "first" when two of them
    conflict.  An observation of the wrong shape or dtype raises ValueError.

    to_bits(words) is the observation's nrows * m uint8 test bits, copy r
    from bit r * m on; from_bits(bits, nrows) is its inverse, and raises
    ValueError when len(bits) is not nrows * m.  Both default to the
    plain-bit layout, whose pair is the identity.

    column(j) = flatnonzero(to_bits(observe([j], [0], 1))) and decode(words)
    = set(decode_rows(words, 1)[1]) are derived from them.
    """

    n: int
    k_design: int
    m: int
    observe: "callable"         # (js, rows, nrows) -> observation of nrows copies
    decode_rows: "callable"     # (observation, nrows) -> (row, index) int64 arrays
    to_bits: "callable" = None  # observation -> its nrows * m uint8 test bits
    from_bits: "callable" = None  # (bits, nrows) -> observation
    layers: tuple = ()          # composition labels, outermost last
    column: "callable" = None   # derived: person index -> sorted np.ndarray of test indices
    decode: "callable" = None   # derived: observation of one copy -> set of indices

    def __post_init__(self):
        # partials rather than bound methods: a field holding a bound method
        # would make a reference cycle and keep dead handles for the collector
        if self.to_bits is None:
            self.to_bits = np.asarray
        if self.from_bits is None:
            self.from_bits = partial(bits_from_bits, self.m)
        if self.column is None:
            self.column = partial(column_from_observe, self.observe, self.to_bits)
        if self.decode is None:
            self.decode = partial(decode_from_rows, self.decode_rows)

    def observed_words(self, sick_set):
        """Noiseless results of the sick set (exact, lazy: the sick columns
        only), as the stacked observe's observation of one copy."""
        js = np.fromiter(sick_set, dtype=np.int64)
        return self.observe(js, np.zeros(len(js), dtype=np.int64), 1)

    def observed_bits(self, sick_set) -> np.ndarray:
        """The m test bits of observed_words."""
        return self.to_bits(self.observed_words(sick_set))
