"""The common group-testing scheme interface the composition gadgets wrap.

A scheme knows its population, design sick load, and test count, encodes any
set of persons into test results (columns are deterministic given the
scheme's seeds), and decodes a full observed bit vector back to an index set,
or a stack of copies' vectors back to one set per copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

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


def observe_columns(column, n: int, m: int, js, rows, nrows: int) -> np.ndarray:
    """The stacked observe of a scheme given by its column: OR the columns
    in one by one."""
    js, rows = stacked_args(js, rows, nrows, n)
    y = np.zeros(nrows * m, dtype=np.uint8)
    for j, row in zip(js.tolist(), rows.tolist()):
        y[np.asarray(column(j), dtype=np.int64) + row * m] = 1
    return y


def column_from_observe(observe, j: int) -> np.ndarray:
    """The column of a scheme given by its stacked observe."""
    return np.flatnonzero(observe([j], [0], 1))


def observe_design(design: np.ndarray, js, rows, nrows: int) -> np.ndarray:
    """The stacked observe of a scheme given by its (n, m) bool design: OR
    whole rows of the design into their copies."""
    n, m = design.shape
    js, rows = stacked_args(js, rows, nrows, n)
    y = np.zeros((nrows, m), dtype=bool)
    np.logical_or.at(y, rows, design[js])
    return y.view(np.uint8).reshape(-1)


def design_column(design: np.ndarray, j: int) -> np.ndarray:
    """The column of a scheme given by its (n, m) bool design."""
    if not 0 <= j < len(design):
        raise ValueError(f"person index {j} out of range")
    return np.flatnonzero(design[j])


def checked_bits(bits, m: int, nrows: int = 1) -> np.ndarray:
    """bits as a uint8 array, checked to hold nrows copies of m tests."""
    bits = np.asarray(bits, dtype=np.uint8)
    if len(bits) != nrows * m:
        copies = "" if nrows == 1 else f"{nrows} copies of "
        raise ValueError(f"observed length {len(bits)} != {copies}m = {m}")
    return bits


def decode_copies(decode, m: int, bits, nrows: int) -> list:
    """The stacked decode of a scheme given by its decode: one copy at a time."""
    bits = checked_bits(bits, m, nrows)
    return [decode(bits[r * m:(r + 1) * m]) for r in range(nrows)]


@dataclass
class SchemeHandle:
    """A scheme, given by its column, its stacked observe, or both.

    observe(js, rows, nrows) is the stacked encoder: the OR of the columns of
    persons js[i] as nrows * m uint8 bits, each placed in copy rows[i] (bits
    rows[i] * m onwards); an index outside [0, n) raises ValueError.  Given
    only a column, a handle ORs its columns one by one; given only an
    observe, its column is flatnonzero(observe([j], [0], 1)).

    decode_rows(bits, nrows) is the stacked decoder: nrows * m bits in, the
    decoded set of each copy out; by default it decodes copy by copy.  A
    wrong length raises ValueError.
    """

    n: int
    k_design: int
    m: int
    decode: "callable"          # np.ndarray of observed bits (uint8) -> set of indices
    column: "callable" = None   # person index -> sorted np.ndarray of test indices
    observe: "callable" = None  # (js, rows, nrows) -> nrows * m observed bits
    decode_rows: "callable" = None  # (bits, nrows) -> [set of indices] per copy
    layers: tuple = ()          # composition labels, outermost last

    def __post_init__(self):
        # partials rather than bound methods: a field holding a bound method
        # would make a reference cycle and keep dead handles for the collector
        if self.column is None and self.observe is None:
            raise ValueError("a scheme needs a column or an observe")
        if self.observe is None:
            self.observe = partial(observe_columns, self.column, self.n, self.m)
        if self.column is None:
            self.column = partial(column_from_observe, self.observe)
        if self.decode_rows is None:
            self.decode_rows = partial(decode_copies, self.decode, self.m)

    def build(self) -> ConfigMatrix:
        """Materialize every column (intended for small n: oracles, baselines)."""
        cols = [np.asarray(self.column(j), dtype=np.int64) for j in range(self.n)]
        return ConfigMatrix(m=self.m, n=self.n, columns=cols)

    def observed_bits(self, sick_set) -> np.ndarray:
        """Noiseless test results from the sick columns only (exact, lazy):
        the stacked observe of the sick set on one copy."""
        js = np.fromiter(sick_set, dtype=np.int64)
        return self.observe(js, np.zeros(len(js), dtype=np.int64), 1)
