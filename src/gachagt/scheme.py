"""The common group-testing scheme interface the composition gadgets wrap.

A scheme knows its population, design sick load, and test count, encodes any
set of persons into test results (columns are deterministic given the
scheme's seeds), and decodes a stack of copies' observed bit vectors back to
(row, index) arrays: the indices each copy holds, tagged with the copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np

from .core_model import ConfigMatrix


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


def column_from_observe(observe, j: int) -> np.ndarray:
    """The column of a scheme given by its stacked observe."""
    return np.flatnonzero(observe([j], [0], 1))


def checked_bits(bits, m: int, nrows: int = 1) -> np.ndarray:
    """bits as a uint8 array, checked to hold nrows copies of m tests."""
    bits = np.asarray(bits, dtype=np.uint8)
    if len(bits) != nrows * m:
        copies = "" if nrows == 1 else f"{nrows} copies of "
        raise ValueError(f"observed length {len(bits)} != {copies}m = {m}")
    return bits


def decode_copies(decode, m: int, bits, nrows: int):
    """A stacked decode from a decode of one copy into distinct indices, run
    one copy at a time: each copy's indices as (row, index) arrays."""
    bits = checked_bits(bits, m, nrows)
    found = [decode(bits[r * m:(r + 1) * m]) for r in range(nrows)]
    row = np.repeat(np.arange(nrows), [len(s) for s in found])
    return row, np.fromiter(chain.from_iterable(found), dtype=np.int64, count=len(row))


def decode_from_rows(decode_rows, bits) -> set:
    """The decoded set of one copy, through a scheme's stacked decode."""
    return set(decode_rows(bits, 1)[1].tolist())


@dataclass
class SchemeHandle:
    """A scheme, given by its stacked observe and its stacked decode.

    observe(js, rows, nrows) is the stacked encoder: the OR of the columns of
    persons js[i] as nrows * m uint8 bits, each placed in copy rows[i] (bits
    rows[i] * m onwards); an index outside [0, n) raises ValueError.

    decode_rows(bits, nrows) is the stacked decoder: nrows * m bits in,
    (row, index) int64 arrays out, index[i] decoded in copy row[i].  Rows
    ascend, an index appears at most once per row, and within a row the
    indices come in arrival order: the order in which the decoder settled
    them, which a gadget above reads as "first" when two of them conflict.
    A wrong length raises ValueError.

    column(j) = flatnonzero(observe([j], [0], 1)) and decode(bits) =
    set(decode_rows(bits, 1)[1]) are derived from them.
    """

    n: int
    k_design: int
    m: int
    observe: "callable"         # (js, rows, nrows) -> nrows * m observed bits
    decode_rows: "callable"     # (bits, nrows) -> (row, index) int64 arrays
    layers: tuple = ()          # composition labels, outermost last
    column: "callable" = None   # derived: person index -> sorted np.ndarray of test indices
    decode: "callable" = None   # derived: observed bits of one copy -> set of indices

    def __post_init__(self):
        # partials rather than bound methods: a field holding a bound method
        # would make a reference cycle and keep dead handles for the collector
        if self.column is None:
            self.column = partial(column_from_observe, self.observe)
        if self.decode is None:
            self.decode = partial(decode_from_rows, self.decode_rows)

    def build(self) -> ConfigMatrix:
        """Materialize every column (intended for small n: oracles, baselines)."""
        cols = [np.asarray(self.column(j), dtype=np.int64) for j in range(self.n)]
        return ConfigMatrix(m=self.m, n=self.n, columns=cols)

    def observed_bits(self, sick_set) -> np.ndarray:
        """Noiseless test results from the sick columns only (exact, lazy):
        the stacked observe of the sick set on one copy."""
        js = np.fromiter(sick_set, dtype=np.int64)
        return self.observe(js, np.zeros(len(js), dtype=np.int64), 1)
