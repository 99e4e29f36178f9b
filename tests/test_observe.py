"""The stacked observe against per-person reference columns.

Every handle's observe(js, rows, nrows), read as bits through its to_bits,
must equal the OR of the persons' columns, each placed in its copy.  The references here build a gadget's
column one person at a time from its definition (the seeded copy choice,
shuffle or assignment, then the inner column), over a base whose columns are
checked against scalar encoders elsewhere (test_gacha_core), so the stacked
path is compared with an independent one at every layer.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gachagt.core_model import ProblemInstance, run_tests
from gachagt.gacha_core import build_column, default_params, gacha_scheme
from gachagt.gadgets import (
    _EXPANDER_TAG,
    _PARALLEL_TAG,
    _SERIAL_TAG,
    expander_build,
    parallel_build,
    pyramid_build,
    serial_build,
)
from gachagt.gf2e import field
from scaffolding import choice_set_reference, identity_scheme, index_to_poly, poly_eval_reference


class Ref:
    """A handle's population and test count with a reference column."""

    def __init__(self, n, m, column):
        self.n, self.m, self.column = n, m, column


def gacha_ref(p):
    return gacha_scheme(p), Ref(p.n, p.m, lambda j: build_column(p, j))


def identity_ref(n):
    return identity_scheme(n), Ref(n, n, lambda j: np.array([j]))


def expander_ref(inner, rho, R, outer_w, seed):
    handle, ref = inner
    fld, d_out = field(outer_w), (rho + 1) // 2

    def column(j):
        copies = choice_set_reference((seed, _EXPANDER_TAG), j, R, rho)
        g = index_to_poly(fld, j, d_out)
        birthday = poly_eval_reference(fld, g, 0)
        pairs = [(birthday << outer_w) | poly_eval_reference(fld, g, int(c) + 1) for c in copies]
        return np.concatenate([ref.column(v) + int(c) * ref.m for c, v in zip(copies, pairs)])

    return (expander_build(handle, rho=rho, R=R, outer_w=outer_w, seed=seed),
            Ref(1 << (outer_w * d_out), R * ref.m, column))


def serial_ref(inner, sigma, seed):
    handle, ref = inner
    rng = np.random.default_rng((seed, _SERIAL_TAG))
    perms = [rng.permutation(ref.n) for _ in range(sigma)]

    def column(j):
        return np.concatenate([ref.column(int(perms[c][j])) + c * ref.m for c in range(sigma)])

    return serial_build(handle, sigma, seed=seed), Ref(ref.n, sigma * ref.m, column)


def parallel_ref(inner, pi, seed):
    handle, ref = inner
    perm = np.random.default_rng((seed, _PARALLEL_TAG)).permutation(pi * ref.n)

    def column(j):
        c, i = divmod(int(perm[j]), ref.n)
        return ref.column(i) + c * ref.m

    return parallel_build(handle, pi, seed=seed), Ref(pi * ref.n, pi * ref.m, column)


def cw(n, **kw):
    return default_params(n, 2, matrix_seed=3, **kw)


def lin(n, **kw):
    return default_params(n, 2, channel_crossover=0.05, matrix_seed=3, code_seed=7, **kw)


SCHEMES = {
    # the base: each inner code with one and two blocks, and w > 16
    "cw-1-block": lambda: gacha_ref(cw(1 << 12)),
    "cw-2-blocks": lambda: gacha_ref(cw(1 << 16, w=16, d=2, r=18, B=40, ell=28, weight=14)),
    "lin-1-block": lambda: gacha_ref(lin(256, w=8)),
    "lin-2-blocks": lambda: gacha_ref(lin(1 << 16, w=16, d=2, r=18, B=40)),
    "cw-w17": lambda: gacha_ref(cw(1 << 12, w=17, d=1)),
    "lin-w18-d2": lambda: gacha_ref(lin(1 << 12, w=18, d=2, B=40)),
    # the gadgets
    "expander-gacha": lambda: expander_ref(gacha_ref(cw(1 << 16, B=24)), 3, 8, 8, seed=5),
    "expander-identity": lambda: expander_ref(identity_ref(256), 3, 8, 4, seed=6),
    "tau3": lambda: expander_ref(expander_ref(identity_ref(256), 3, 8, 4, seed=1), 4, 8, 4,
                                 seed=2),
    "serial": lambda: serial_ref(gacha_ref(cw(1 << 12)), 3, seed=7),
    "parallel": lambda: parallel_ref(gacha_ref(lin(256, w=8)), 2, seed=8),
    "pyramid-stack": lambda: parallel_ref(serial_ref(
        expander_ref(gacha_ref(cw(1 << 16, B=24)), 4, 8, 8, seed=9), 3, seed=10), 2, seed=11),
}
_BUILT = {}


def scheme(name):
    if name not in _BUILT:
        _BUILT[name] = SCHEMES[name]()
    return _BUILT[name]


def reference_observe(ref, js, rows, nrows):
    y = np.zeros(nrows * ref.m, dtype=np.uint8)
    for j, row in zip(js, rows):
        y[ref.column(j) + row * ref.m] = 1
    return y


@pytest.mark.parametrize("name", SCHEMES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_stacked_observe_matches_reference_columns(name, data):
    handle, ref = scheme(name)
    assert (handle.n, handle.m) == (ref.n, ref.m)
    person = st.integers(0, ref.n - 1)
    sick = data.draw(st.sets(person, max_size=5))
    assert np.array_equal(handle.observed_bits(sick), reference_observe(ref, sick, [0] * 5, 1))
    # several copies, with repeated persons and repeated rows
    nrows = data.draw(st.integers(1, 3))
    js = data.draw(st.lists(person, max_size=6))
    rows = data.draw(st.lists(st.integers(0, nrows - 1), min_size=len(js), max_size=len(js)))
    words = handle.observe(np.array(js, dtype=np.int64), np.array(rows, dtype=np.int64), nrows)
    got = handle.to_bits(words)
    assert got.dtype == np.uint8
    assert np.array_equal(got, reference_observe(ref, js, rows, nrows))
    assert np.array_equal(handle.from_bits(got, nrows), words)


@pytest.mark.parametrize("name", ["cw-1-block", "lin-1-block", "expander-identity", "tau3"])
def test_observed_bits_equal_run_tests_on_the_built_matrix(name):
    handle, _ = scheme(name)
    matrix = handle.build()
    rng = np.random.default_rng(4)
    for k in (1, 2, 5):
        sick = frozenset(int(j) for j in rng.choice(handle.n, size=k, replace=False))
        inst = ProblemInstance(n=handle.n, k=k, sick_set=sick)
        assert np.array_equal(handle.observed_bits(sick), run_tests(matrix, inst))


@pytest.mark.parametrize("name", SCHEMES)
def test_observe_edge_cases(name):
    handle, _ = scheme(name)
    assert np.array_equal(handle.observed_bits(set()), np.zeros(handle.m, dtype=np.uint8))
    empty = np.zeros(0, dtype=np.int64)
    assert np.array_equal(handle.to_bits(handle.observe(empty, empty, 3)),
                          np.zeros(3 * handle.m, dtype=np.uint8))
    for j in (-1, handle.n):
        with pytest.raises(ValueError, match="out of range"):
            handle.observed_bits({j})
        with pytest.raises(ValueError, match="out of range"):
            handle.column(j)
    with pytest.raises(ValueError, match="copies"):
        handle.observe(np.array([0]), np.array([2]), 2)


def test_pyramid_build_stacks_through_observe():
    # the pyramid's own seeding, checked against its materialized matrix
    base = identity_scheme(256)
    handle = pyramid_build(base, 3, rho=3, R=4, outer_w=4, sigma=3, pi=2, seed=4)
    matrix = handle.build()
    sick = frozenset({0, 7, 300, 511})
    inst = ProblemInstance(n=handle.n, k=4, sick_set=sick)
    assert np.array_equal(handle.observed_bits(sick), run_tests(matrix, inst))
    assert handle.decode(handle.observed_bits(sick)) == sick


def test_handles_are_freed_without_the_cycle_collector():
    # column and decode are derived from observe and decode_rows; a derived
    # one that held its own handle would make a reference cycle, and every
    # trial's handle (a whole COMP design) would wait for the collector
    gc.disable()
    try:
        for build in (lambda: identity_scheme(8),
                      lambda: serial_build(identity_scheme(8), 3)):
            handle = build()
            assert handle.decode(handle.observed_bits({0})) == {0}
            handle.column(1)
            alive = weakref.ref(handle)
            del handle
            assert alive() is None
    finally:
        gc.enable()
