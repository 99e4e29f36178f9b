"""The common group-testing scheme interface the composition gadgets wrap.

A scheme knows its population, design sick load, and test count, produces any
person's sparse column on demand (columns are deterministic given the scheme's
seeds), and decodes a full observed bit vector back to an index set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_model import ConfigMatrix


@dataclass
class SchemeHandle:
    n: int
    k_design: int
    m: int
    column: "callable"          # person index -> sorted np.ndarray of test indices
    decode: "callable"          # np.ndarray of observed bits (uint8) -> set of indices
    layers: tuple = ()          # composition labels, outermost last

    def build(self) -> ConfigMatrix:
        """Materialize every column (intended for small n: oracles, baselines)."""
        cols = [np.asarray(self.column(j), dtype=np.int64) for j in range(self.n)]
        return ConfigMatrix(m=self.m, n=self.n, columns=cols)

    def observed_bits(self, sick_set) -> np.ndarray:
        """Noiseless test results from the sick columns only (exact, lazy)."""
        y = np.zeros(self.m, dtype=np.uint8)
        for j in sick_set:
            y[np.asarray(self.column(j), dtype=np.int64)] = 1
        return y
