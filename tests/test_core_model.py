"""Instances, matrices, test evaluation, scoring; and a scan that keeps
ctypes out of the package."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gachagt.core_model import (
    ConfigMatrix,
    ProblemInstance,
    run_tests,
    sample_instance,
    score,
)
from scaffolding import config_matrix_valid_reference, package_imports


def test_sample_size_and_range():
    inst = sample_instance(5, 4, 0)
    assert len(inst.sick_set) == 4
    assert all(0 <= j < 5 for j in inst.sick_set)


def test_sample_rejects_bad_k():
    with pytest.raises(ValueError):
        sample_instance(5, 5, 0)
    with pytest.raises(ValueError):
        sample_instance(5, 0, 0)


def test_sample_deterministic():
    a = sample_instance(2, 1, 123)
    b = sample_instance(2, 1, 123)
    assert a.sick_set == b.sick_set
    assert a.sick_set in ({0}, {1})


def test_sample_uniform_frequency():
    n, k, trials = 100, 10, 10 ** 5
    counts = np.zeros(n, dtype=np.int64)
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        idx = rng.choice(n, size=k, replace=False)
        counts[idx] += 1
    freq = counts / trials
    assert np.all(np.abs(freq - 0.10) < 0.01)


def test_sample_instance_uses_same_draw_as_choice():
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    inst = sample_instance(100, 10, rng1)
    raw = frozenset(int(j) for j in rng2.choice(100, size=10, replace=False))
    assert inst.sick_set == raw


def test_instance_invariants():
    with pytest.raises(ValueError):
        ProblemInstance(n=5, k=2, sick_set=frozenset({0}))
    with pytest.raises(ValueError):
        ProblemInstance(n=5, k=1, sick_set=frozenset({7}))


def test_matrix_invariants():
    ConfigMatrix(m=3, n=2, columns=[np.array([0, 2]), np.array([], dtype=np.int64)])
    with pytest.raises(ValueError):
        ConfigMatrix(m=3, n=1, columns=[np.array([0, 0])])  # not strictly increasing
    with pytest.raises(ValueError):
        ConfigMatrix(m=3, n=1, columns=[np.array([3])])  # out of range


# columns as the builders make them (sorted, distinct) or anything at all,
# as int64 arrays or lists; indices straddle both ends of [0, m)
_INDEX = st.integers(-3, 12)
_COLUMN = st.one_of(
    st.lists(_INDEX, max_size=6),
    st.lists(_INDEX, max_size=6, unique=True).map(sorted),
).flatmap(lambda col: st.sampled_from([col, np.array(col, dtype=np.int64)]))


@settings(max_examples=400, deadline=None)
@given(m=st.integers(0, 10), columns=st.lists(_COLUMN, max_size=6))
def test_matrix_check_matches_column_loop(m, columns):
    if config_matrix_valid_reference(m, columns):
        ConfigMatrix(m=m, n=len(columns), columns=columns)
    else:
        with pytest.raises(ValueError, match="strictly increasing indices in"):
            ConfigMatrix(m=m, n=len(columns), columns=columns)


def test_matrix_check_skips_column_boundaries():
    # a step down between two columns is not a step inside one
    ConfigMatrix(m=5, n=3, columns=[[3, 4], [], [0, 1]])
    with pytest.raises(ValueError):
        ConfigMatrix(m=5, n=3, columns=[[3, 4], [], [1, 1]])
    with pytest.raises(ValueError, match="column count"):
        ConfigMatrix(m=5, n=2, columns=[[0]])


@pytest.mark.parametrize("columns", [[[0, 2], []], [[], [1]], [[], []]])
def test_matrix_dense(columns):
    dense = ConfigMatrix(m=3, n=2, columns=columns).dense()
    assert dense.dtype == bool and dense.shape == (2, 3)
    assert [np.flatnonzero(row).tolist() for row in dense] == columns


def test_run_tests_single_entry():
    A = ConfigMatrix(m=1, n=2, columns=[np.array([0]), np.array([], dtype=np.int64)])
    inst = ProblemInstance(n=2, k=1, sick_set=frozenset({0}))
    assert run_tests(A, inst).tolist() == [1]


def test_run_tests_empty_column_all_zero():
    A = ConfigMatrix(m=4, n=2, columns=[np.array([], dtype=np.int64), np.array([1])])
    inst = ProblemInstance(n=2, k=1, sick_set=frozenset({0}))
    assert run_tests(A, inst).tolist() == [0, 0, 0, 0]


def test_run_tests_dimension_mismatch():
    A = ConfigMatrix(m=1, n=2, columns=[np.array([0]), np.array([0])])
    inst = ProblemInstance(n=3, k=1, sick_set=frozenset({0}))
    with pytest.raises(ValueError):
        run_tests(A, inst)


def test_run_tests_matches_dense_oracle():
    rng = np.random.default_rng(42)
    m, n, k = 20, 10, 3
    dense = (rng.random((m, n)) < 0.3).astype(np.uint8)
    cols = [np.flatnonzero(dense[:, j]).astype(np.int64) for j in range(n)]
    A = ConfigMatrix(m=m, n=n, columns=cols)
    inst = sample_instance(n, k, rng)
    x = np.zeros(n, dtype=np.uint8)
    x[list(inst.sick_set)] = 1
    oracle = np.minimum(dense @ x, 1)
    assert np.array_equal(run_tests(A, inst), oracle)
    # equals the bitwise OR of the sick columns
    orred = np.zeros(m, dtype=np.uint8)
    for j in inst.sick_set:
        orred[cols[j]] = 1
    assert np.array_equal(orred, oracle)


def test_run_tests_monotone_in_sick_set():
    rng = np.random.default_rng(43)
    m, n = 15, 8
    cols = [np.flatnonzero(rng.random(m) < 0.4).astype(np.int64) for _ in range(n)]
    A = ConfigMatrix(m=m, n=n, columns=cols)
    small = ProblemInstance(n=n, k=2, sick_set=frozenset({1, 4}))
    big = ProblemInstance(n=n, k=3, sick_set=frozenset({1, 4, 6}))
    ys, yb = run_tests(A, small), run_tests(A, big)
    assert np.all(yb >= ys)


def test_score_cases():
    inst = ProblemInstance(n=10, k=2, sick_set=frozenset({1, 2}))
    assert (score(inst, {1, 2}).false_positives, score(inst, {1, 2}).false_negatives) == (0, 0)
    assert (score(inst, set()).false_positives, score(inst, set()).false_negatives) == (0, 2)
    got = score(inst, {2, 3})
    assert (got.false_positives, got.false_negatives) == (1, 1)
    with pytest.raises(ValueError):
        score(inst, {10})


def test_score_bounds_and_relabel_symmetry():
    inst = ProblemInstance(n=6, k=2, sick_set=frozenset({0, 3}))
    got = score(inst, {1, 2, 4, 5})
    assert got.false_positives <= inst.n - inst.k
    assert got.false_negatives <= inst.k
    # relabeling people relabels the scores identically
    perm = {0: 5, 1: 4, 2: 3, 3: 2, 4: 1, 5: 0}
    inst2 = ProblemInstance(n=6, k=2, sick_set=frozenset(perm[j] for j in inst.sick_set))
    est, est2 = {0, 1}, {perm[0], perm[1]}
    a, b = score(inst, est), score(inst2, est2)
    assert (a.false_positives, a.false_negatives) == (b.false_positives, b.false_negatives)


def test_no_module_imports_ctypes():
    # the draws use numpy's public API; nothing writes a generator's memory
    assert "core_model.py" in package_imports("numpy")  # the scan sees imports
    assert package_imports("ctypes") == {}, "ctypes imported in the package"
