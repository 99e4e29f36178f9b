"""Test scaffolding schemes: a perfect one-test-per-person scheme and a
decoder fault injector, for exercising the composition gadgets."""

import numpy as np

from gachagt.scheme import SchemeHandle

_FAULTS_TAG = 14  # rng stream tag, distinct from the gadgets' tags 11-13


def identity_scheme(n: int) -> SchemeHandle:
    """m = n, person j joins exactly test j; decoding reads the bits off."""

    def column(j):
        if not 0 <= j < n:
            raise ValueError(f"person index {j} out of range")
        return np.array([j], dtype=np.int64)

    def decode(bits):
        bits = np.asarray(bits, dtype=np.uint8)
        return {int(j) for j in np.flatnonzero(bits)}

    return SchemeHandle(n=n, k_design=n, m=n, column=column, decode=decode,
                        layers=("identity",))


def fault_injected(inner: SchemeHandle, eps: float, seed: int = 0) -> SchemeHandle:
    """Wrap decode: drop each found index with probability eps and, with
    probability eps, inject one uniformly random index.  The wrapper keeps its
    own rng, so successive decodes draw a deterministic fault stream."""
    rng = np.random.default_rng((seed, _FAULTS_TAG))

    def decode(bits):
        out = set()
        for j in inner.decode(bits):
            if rng.random() >= eps:
                out.add(j)
        if rng.random() < eps:
            out.add(int(rng.integers(0, inner.n)))
        return out

    return SchemeHandle(
        n=inner.n,
        k_design=inner.k_design,
        m=inner.m,
        column=inner.column,
        observe=inner.observe,
        decode=decode,
        layers=inner.layers + (f"faults(eps={eps})",),
    )
