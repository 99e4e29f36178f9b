"""Composition gadgets: parallel repeat, serial vote, and expander repeat.

Each gadget wraps any SchemeHandle and returns a bigger SchemeHandle:

* parallel_build splits a larger population across disjoint copies, one copy
  per person, multiplying throughput.
* serial_build runs independent shuffled copies over the same population and
  keeps indices reported by at least half of them.
* expander_build lets every person join rho of R copies under a fresh
  instance of the core scheme's birthday-number code, written by its notes,
  so per-copy results can be re-assembled by the same group-and-interpolate
  decoder, its recover_rows.  When one copy reports
  two pairs under one birthday, the one that arrived first is kept.

pyramid_build stacks expander layers, then an optional vote layer, then an
optional parallel layer outermost; pyramid_shape sizes that stack and checks
it by arithmetic, before anything is built.

A gadget encodes through its inner handle's stacked observe: it maps each
(person, copy) of a call to the inner persons and copies it stands for and
makes one inner call, so a whole pyramid reaches the base in one call.  It
decodes a stack of copies the same way: its decode_rows makes one call of its
inner handle's decode_rows over every inner copy they stand for, so a whole
pyramid reaches the base in one decode call too.  Decode results stay
(row, index) int64 arrays through every layer, and each gadget maps them back
in array operations.

A gadget's copy t is its inner handle's copies t * c ... t * c + c - 1 back
to back (c = R, sigma or pi), so its observation is the inner observation of
nrows * c copies, unchanged: a gadget forwards its inner layout
(scheme.forwarded_layout) and never reads or converts the words, and the
base checks their shape.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core_model import choice_sets
from .gf2e import field
from .gacha_core import notes, recover_rows
from .scheme import SchemeHandle, forwarded_layout, stacked_args

# rng stream tags so each gadget derives an independent stream from its seed
_PARALLEL_TAG, _SERIAL_TAG, _EXPANDER_TAG = 11, 12, 13


class PyramidShape(NamedTuple):
    outer_w: int  # the field width of every expander layer
    base_n: int   # the Gacha base's population, 2^(2 outer_w)
    base_k: int   # the base's sick load
    bits: int     # the composed population is pi * 2^bits


def pyramid_shape(n: int, k: int, rho: int, R: int, outer_w: int, tau_depth: int,
                  sigma: int = 1, pi: int = 1) -> PyramidShape:
    """The shape of the pyramid for n persons, k of them sick; ValueError
    where pyramid_build over a Gacha base of that shape would raise or hold
    fewer than n persons.

    outer_w = 0 takes the narrowest field with R + 1 points.  Layer 0 pairs
    into the base's 2^(2 outer_w) persons, each later one into the
    2^(outer_w ceil(rho / 2)) persons below it, and one layer multiplies the
    sick load by R / (2 rho).  No power of an unchecked value is formed, so
    any int argument answers at once."""
    if pi < 1:
        raise ValueError(f"need pi >= 1, got {pi}")
    if sigma < 1:
        raise ValueError(f"need sigma >= 1, got {sigma}")
    if not 1 < rho < R:
        raise ValueError(f"need 1 < rho < R, got rho={rho}, R={R}")
    if tau_depth < 2:
        raise ValueError(f"need tau_depth >= 2, got {tau_depth}")
    outer_w = outer_w or max(2, R.bit_length())
    if not 2 <= outer_w <= 32 or R + 1 > 1 << outer_w:
        raise ValueError(f"need 2 <= outer_w <= 32 and R + 1 <= 2^outer_w, got R={R}, "
                         f"outer_w={outer_w}")
    bits = outer_w * ((rho + 1) // 2)
    if tau_depth > 2 and bits < 2 * outer_w:
        raise ValueError(f"expander layer 1: pair map not injective: 2^(2*{outer_w}) > "
                         f"inner population 2^{outer_w} (rho={rho})")
    if (-(-n // pi) - 1).bit_length() > bits:  # n > pi 2^bits
        raise ValueError(f"population {n} exceeds the composed capacity {pi} * 2^{bits}")
    return PyramidShape(outer_w, 1 << (2 * outer_w), max(1, 2 * k * rho // R), bits)


def parallel_build(inner: SchemeHandle, pi: int, seed: int = 0) -> SchemeHandle:
    """pi disjoint copies; a seeded permutation of [pi * n] assigns every
    person one copy and one distinct slot inside it."""
    if pi < 1:
        raise ValueError(f"need pi >= 1, got {pi}")
    n_out = pi * inner.n
    rng = np.random.default_rng((seed, _PARALLEL_TAG))
    perm = rng.permutation(n_out)
    inv = np.empty(n_out, dtype=np.int64)
    inv[perm] = np.arange(n_out)

    def observe(js, rows, nrows):
        js, rows = stacked_args(js, rows, nrows, n_out)
        c, i = np.divmod(perm[js], inner.n)
        return inner.observe(i, rows * pi + c, nrows * pi)

    def decode_rows(words, nrows):
        row, i = inner.decode_rows(words, nrows * pi)
        row, c = np.divmod(row, pi)
        return row, inv[c * inner.n + i]

    return SchemeHandle(
        n=n_out,
        k_design=pi * inner.k_design // 2,
        m=pi * inner.m,
        observe=observe,
        decode_rows=decode_rows,
        **forwarded_layout(inner, pi),
        layers=inner.layers + (f"parallel(pi={pi})",),
    )


def serial_build(inner: SchemeHandle, sigma: int, seed: int = 0) -> SchemeHandle:
    """sigma stacked copies with independent column shuffles; an index
    survives when at least ceil(sigma / 2) copies report it."""
    if sigma < 1:
        raise ValueError(f"need sigma >= 1, got {sigma}")
    rng = np.random.default_rng((seed, _SERIAL_TAG))
    perms = np.array([rng.permutation(inner.n) for _ in range(sigma)])
    invs = np.argsort(perms, axis=1)
    threshold = (sigma + 1) // 2

    def observe(js, rows, nrows):
        js, rows = stacked_args(js, rows, nrows, inner.n)
        # copy c of person j is inner person perms[c][j] in inner row row * sigma + c
        return inner.observe(perms[:, js].T.ravel(),
                             (rows[:, None] * sigma + np.arange(sigma)).ravel(),
                             nrows * sigma)

    def decode_rows(words, nrows):
        row, i = inner.decode_rows(words, nrows * sigma)
        row, c = np.divmod(row, sigma)
        # a copy lists an index at most once, so a pair's count is its votes
        votes, counts = np.unique(np.stack([row, invs[c, i]]), axis=1, return_counts=True)
        return tuple(votes[:, counts >= threshold])

    return SchemeHandle(
        n=inner.n,
        k_design=inner.k_design,
        m=sigma * inner.m,
        observe=observe,
        decode_rows=decode_rows,
        **forwarded_layout(inner, sigma),
        layers=inner.layers + (f"serial(sigma={sigma})",),
    )


def expander_build(inner: SchemeHandle, rho: int, R: int, outer_w: int,
                   seed: int = 0) -> SchemeHandle:
    """R copies, rho joined per person under a fresh birthday-number code.

    Person j of the new population becomes a polynomial of dimension
    ceil(rho/2) over GF(2^outer_w); in copy r she impersonates the inner index
    pairing the note gacha_core.notes writes for her in slot r.  Decoding
    maps per-copy indices back to notes, keeps the first per (copy, birthday)
    in the inner decode's arrival order, and regroups them through the core
    decoder's recover_rows, with copy r of row t as slot r of row t.
    """
    if not 1 < rho < R:
        raise ValueError(f"need 1 < rho < R, got rho={rho}, R={R}")
    if R + 1 > (1 << outer_w):
        raise ValueError(f"need R + 1 <= 2^outer_w evaluation points, got R={R}, outer_w={outer_w}")
    if (1 << (2 * outer_w)) > inner.n:
        raise ValueError(
            f"pair map not injective: 2^(2*{outer_w}) > inner population {inner.n}"
        )
    fld = field(outer_w)
    d_out = (rho + 1) // 2
    n_out = 1 << (outer_w * d_out)
    k_out = max(1, R * inner.k_design // (2 * rho))
    mask = (1 << outer_w) - 1

    def observe(js, rows, nrows):
        js, rows = stacked_args(js, rows, nrows, n_out)
        # default_rng((seed, tag, j)).choice(R, rho) for every person, sorted:
        # the copies are ORed, so their order does not matter
        copies = choice_sets((seed, _EXPANDER_TAG), js, R, rho)
        birthdays, fragments = notes(fld, d_out, js, copies)
        pairs = (birthdays << outer_w) | fragments
        return inner.observe(pairs.ravel(), (rows[:, None] * R + copies).ravel(), nrows * R)

    def decode_rows(words, nrows):
        c, v = inner.decode_rows(words, nrows * R)
        pair = v < (1 << (2 * outer_w))  # an inner false positive can lie outside the range
        c, hi, lo = c[pair], v[pair] >> outer_w, v[pair] & mask
        # the first pair per (copy, birthday) in arrival order; later ones conflict
        first = np.sort(np.unique(c << outer_w | hi, return_index=True)[1])
        row, slot = np.divmod(c[first], R)
        return recover_rows(fld, d_out, (row, slot, hi[first], lo[first]), n_out)

    return SchemeHandle(
        n=n_out,
        k_design=k_out,
        m=R * inner.m,
        observe=observe,
        decode_rows=decode_rows,
        **forwarded_layout(inner, R),
        layers=inner.layers + (f"expander(rho={rho},R={R},w={outer_w})",),
    )


def pyramid_build(base: SchemeHandle, tau_depth: int, rho: int, R: int, outer_w: int,
                  sigma: int = 1, pi: int = 1, seed: int = 0) -> SchemeHandle:
    """(tau_depth - 1) expander layers over the base, each with the same rho,
    R and outer_w, then a vote layer when sigma != 1, then a parallel layer
    when pi != 1 (each of which rejects a count below 1).  pyramid_shape
    sizes the base and checks the whole stack by arithmetic."""
    if tau_depth < 2:
        raise ValueError(f"need tau_depth >= 2, got {tau_depth}")
    handle = base
    for i in range(tau_depth - 1):
        try:
            handle = expander_build(handle, rho=rho, R=R, outer_w=outer_w,
                                    seed=(seed * 1000003 + i))
        except ValueError as e:
            raise ValueError(f"expander layer {i}: {e}") from e
    if sigma != 1:
        handle = serial_build(handle, sigma, seed=(seed * 1000003 + 97))
    if pi != 1:
        handle = parallel_build(handle, pi, seed=(seed * 1000003 + 98))
    return handle
