"""Field arithmetic: table-driven oracles, axioms, interpolation round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gachagt.gf2e import (
    IRREDUCIBLE_POLY,
    MAX_TABLE_WIDTH,
    FieldSpec,
    InsufficientEvaluations,
    _mulmod_poly,
    field,
    is_irreducible,
    primitive_element,
)


def shift_reduce_table(w, poly):
    """Full multiplication table built independently by repeated shift-and-reduce."""
    def mul(a, b):
        r = 0
        for bit in range(w):
            if (b >> bit) & 1:
                r ^= a << bit
        # reduce
        for bit in range(2 * w - 2, w - 1, -1):
            if (r >> bit) & 1:
                r ^= poly << (bit - w)
        return r

    q = 1 << w
    return [[mul(a, b) for b in range(q)] for a in range(q)]


def test_builtin_polys_are_irreducible():
    for w, mask in IRREDUCIBLE_POLY.items():
        assert mask.bit_length() - 1 == w
        assert is_irreducible(mask), f"table entry for w={w} is reducible"


def test_reducible_poly_rejected():
    with pytest.raises(ValueError):
        FieldSpec(4, reduction_poly=0b10101)  # x^4+x^2+1 = (x^2+x+1)^2


def test_mul_absorbing_and_identity():
    f = field(8)
    for a in [0, 1, 7, 200, 255]:
        assert f.mul(0, a) == 0
        assert f.mul(1, a) == a


def test_mul_matches_full_table_gf8():
    # GF(2^3) with x^3+x+1: spec'd value mul(0b010, 0b100) = 0b011
    f = FieldSpec(3, reduction_poly=0xB)
    table = shift_reduce_table(3, 0xB)
    assert table[0b010][0b100] == 0b011
    for a in range(8):
        for b in range(8):
            assert f.mul(a, b) == table[a][b]


def test_mul_range_check():
    f = field(4)
    with pytest.raises(ValueError):
        f.mul(16, 1)


def test_field_axioms_random_samples():
    for w in (5, 8, 16):
        f = field(w)
        rng = np.random.default_rng(w)
        xs = [int(v) for v in rng.integers(0, 1 << w, size=12)]
        for a in xs:
            for b in xs[:6]:
                assert f.mul(a, b) == f.mul(b, a)
                for c in xs[:4]:
                    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                    assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
        for a in xs:
            if a:
                assert f.mul(a, f.pow(a, (1 << w) - 2)) == 1
                assert f.mul(a, f.inv(a)) == 1


def test_poly_eval_constant_and_identity():
    f = field(8)
    assert f.poly_eval((42,), 123) == 42
    for p in (0, 1, 77, 255):
        assert f.poly_eval((0, 1), p) == p


def naive_eval(f, coeffs, p):
    acc = 0
    for i, c in enumerate(coeffs):
        term = c
        for _ in range(i):
            term = f.mul(term, p)
        acc ^= term
    return acc


def test_poly_eval_matches_power_sum_oracle():
    f = field(10)
    rng = np.random.default_rng(3)
    g = tuple(int(v) for v in rng.integers(0, 1 << 10, size=4))
    for p in rng.integers(0, 1 << 10, size=5):
        assert f.poly_eval(g, int(p)) == naive_eval(f, g, int(p))


def test_interpolate_dimension_one():
    f = field(6)
    assert f.interpolate([(5, 9)], 1) == (9,)


def test_interpolate_inverts_evaluation():
    for w, d in [(6, 2), (8, 3), (16, 4), (16, 16)]:
        f = field(w)
        rng = np.random.default_rng(w * d)
        g = tuple(int(v) for v in rng.integers(0, 1 << w, size=d))
        xs = rng.choice(1 << w, size=d, replace=False)
        pts = [(int(x), f.poly_eval(g, int(x))) for x in xs]
        assert f.interpolate(pts, d) == g


def test_interpolate_uses_first_d_after_dedup():
    f = field(8)
    g = (3, 7)
    pts = [(1, f.poly_eval(g, 1)), (1, 99), (2, f.poly_eval(g, 2)), (5, 0)]
    assert f.interpolate(pts, 2) == g  # duplicate x=1 dropped, x=5 unused


def test_interpolate_insufficient_points():
    f = field(8)
    with pytest.raises(InsufficientEvaluations):
        f.interpolate([(1, 2)], 2)
    with pytest.raises(InsufficientEvaluations):
        f.interpolate([(1, 2), (1, 3)], 2)  # same x twice


def test_index_to_poly_zero_and_digits():
    f = field(4)
    assert f.index_to_poly(0, 3) == (0, 0, 0)
    assert f.index_to_poly(0x5A, 2) == (0xA, 0x5)  # little-endian digits


def test_index_poly_round_trip():
    f = field(8)
    rng = np.random.default_rng(17)
    for j in rng.integers(0, 1 << 24, size=1000):
        j = int(j)
        assert f.poly_to_index(f.index_to_poly(j, 3)) == j


def test_index_out_of_range():
    f = field(4)
    with pytest.raises(ValueError):
        f.index_to_poly(1 << 8, 2)


# ---------------------------------------------------------------------------
# log/antilog tables against the shift-and-add oracle
# ---------------------------------------------------------------------------

def oracle_pow(w, a, e):
    f, r = IRREDUCIBLE_POLY[w], 1
    for _ in range(e):
        r = _mulmod_poly(r, a, f)
    return r


def oracle_eval(w, coeffs, p):
    """Power-sum evaluation with shift-and-add products only."""
    f, acc = IRREDUCIBLE_POLY[w], 0
    for i, c in enumerate(coeffs):
        term = c
        for _ in range(i):
            term = _mulmod_poly(term, p, f)
        acc ^= term
    return acc


def prime_factors(n):
    out, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    return out | ({n} if n > 1 else set())


@pytest.mark.parametrize("w", range(2, MAX_TABLE_WIDTH + 1))
def test_generator_has_full_order(w):
    f = field(w)
    poly, n = IRREDUCIBLE_POLY[w], (1 << w) - 1
    g = primitive_element(w, poly)
    # g^n = 1 and g^(n/p) != 1 for every prime p | n: the order is exactly n
    assert _powmod(g, n, poly) == 1
    for p in prime_factors(n):
        assert _powmod(g, n // p, poly) != 1
    # no smaller element generates the group
    assert all(any(_powmod(h, n // p, poly) == 1 for p in prime_factors(n))
               for h in range(2, g))
    # the antilog table walks every nonzero element once
    exp = np.frombuffer(f._exp, dtype=np.uint16)
    assert sorted(exp[:n].tolist()) == list(range(1, n + 1))


def _powmod(a, e, f):
    r = 1
    while e:
        if e & 1:
            r = _mulmod_poly(r, a, f)
        a = _mulmod_poly(a, a, f)
        e >>= 1
    return r


def test_x_is_not_a_generator_for_some_builtin_polys():
    # why the tables pick the smallest primitive element rather than x
    assert [w for w in range(2, 17) if primitive_element(w, IRREDUCIBLE_POLY[w]) != 2] \
        == [8, 9, 12, 14, 16]


@pytest.mark.parametrize("w", range(2, 9))
def test_table_arithmetic_exhaustive_small_fields(w):
    f, q, poly = field(w), 1 << w, IRREDUCIBLE_POLY[w]
    want = [[_mulmod_poly(a, b, poly) for b in range(q)] for a in range(q)]
    assert [[f.mul(a, b) for b in range(q)] for a in range(q)] == want
    # the polynomial b x evaluated at every a: the array product path
    grid = np.array([f.poly_eval_many((0, b), np.arange(q)) for b in range(q)])
    assert np.array_equal(grid.T, np.array(want))
    for a in range(1, q):
        assert f.inv(a) == oracle_pow(w, a, q - 2)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    rng = np.random.default_rng(w)
    for d in (1, 2, 3):
        g = tuple(int(v) for v in rng.integers(0, q, size=d))
        want = [oracle_eval(w, g, p) for p in range(q)]
        assert [f.poly_eval(g, p) for p in range(q)] == want
        assert f.poly_eval_many(g, np.arange(q)).tolist() == want


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_table_arithmetic_matches_oracle_large_fields(data):
    w = data.draw(st.integers(9, MAX_TABLE_WIDTH))
    q, poly = 1 << w, IRREDUCIBLE_POLY[w]
    f = field(w)
    elem = st.integers(0, q - 1)
    a, b = data.draw(elem), data.draw(elem)
    assert f.mul(a, b) == _mulmod_poly(a, b, poly)
    xs = data.draw(st.lists(elem, min_size=1, max_size=8))
    assert f.poly_eval_many((0, b), xs).tolist() == [_mulmod_poly(x, b, poly) for x in xs]
    if a:
        assert _mulmod_poly(a, f.inv(a), poly) == 1
    g = tuple(data.draw(st.lists(elem, min_size=1, max_size=4)))
    assert f.poly_eval(g, a) == oracle_eval(w, g, a)
    assert f.poly_eval_many(g, xs).tolist() == [oracle_eval(w, g, x) for x in xs]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_interpolate_matches_oracle_evaluations(data):
    w = data.draw(st.integers(2, MAX_TABLE_WIDTH + 4))
    q = 1 << w
    d = data.draw(st.integers(1, min(4, q)))
    g = tuple(data.draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d)))
    xs = data.draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d, unique=True))
    assert field(w).interpolate([(x, oracle_eval(w, g, x)) for x in xs], d) == g


@pytest.mark.parametrize("w", [17, 20, 24, 32])
def test_wide_fields_keep_shift_and_add(w):
    f, q, poly = field(w), 1 << w, IRREDUCIBLE_POLY[w]
    assert f._exp is None and f._log is None
    rng = np.random.default_rng(w)
    xs = [int(v) for v in rng.integers(0, q, size=40)] + [0, 1, q - 1]
    for a in xs[:10]:
        assert [f.mul(a, b) for b in xs] == [_mulmod_poly(a, b, poly) for b in xs]
        assert f.poly_eval_many((0, a), xs).tolist() == [_mulmod_poly(b, a, poly) for b in xs]
        if a:
            assert _mulmod_poly(a, f.inv(a), poly) == 1
    g = tuple(xs[:3])
    assert [f.poly_eval(g, p) for p in xs] == [oracle_eval(w, g, p) for p in xs]
    assert f.poly_eval_many(g, xs).tolist() == [oracle_eval(w, g, p) for p in xs]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_poly_eval_many_per_row_matches_scalar(data):
    # w > 16 takes the scalar fallback, w <= 16 the log tables
    w = data.draw(st.integers(2, MAX_TABLE_WIDTH + 4))
    f, elem = field(w), st.integers(0, (1 << w) - 1)
    k, d, r = (data.draw(st.integers(0, 5)), data.draw(st.integers(1, 4)),
               data.draw(st.integers(0, 6)))
    polys = [tuple(data.draw(st.lists(elem, min_size=d, max_size=d))) for _ in range(k)]
    points = [data.draw(st.lists(elem, min_size=r, max_size=r)) for _ in range(k)]
    got = f.poly_eval_many(np.array(polys, dtype=np.int64).reshape(k, d),
                           np.array(points, dtype=np.int64).reshape(k, r))
    assert got.shape == (k, r) and got.dtype == np.int64
    assert got.tolist() == [[f.poly_eval(g, p) for p in row] for g, row in zip(polys, points)]


def test_poly_eval_many_per_row_checks():
    f = field(8)
    with pytest.raises(ValueError, match="rows"):
        f.poly_eval_many(np.ones((2, 2), dtype=np.int64), np.ones((3, 4), dtype=np.int64))
    with pytest.raises(ValueError):
        f.poly_eval_many(np.array([[1, 2], [3, 256]]), np.ones((2, 1), dtype=np.int64))
    with pytest.raises(ValueError):
        f.poly_eval_many(np.array([[1, 2]]), np.array([[3, 256]]))


@pytest.mark.parametrize("w,d", [(4, 3), (16, 2), (17, 2), (32, 1)])
def test_index_to_poly_many_matches_scalar(w, d):
    f = field(w)
    top = min(1 << (w * d), 1 << 63)
    js = [0, 1, top - 1] + [int(v) for v in np.random.default_rng(w).integers(0, top, size=20)]
    assert f.index_to_poly_many(np.array(js), d).tolist() == [list(f.index_to_poly(j, d))
                                                              for j in js]


def test_poly_eval_many_range_checks():
    f = field(8)
    with pytest.raises(ValueError):
        f.poly_eval_many((1, 2), [3, 256])
    with pytest.raises(ValueError):
        f.poly_eval_many((1, 256), [3])
    assert f.poly_eval_many((1, 2), []).shape == (0,)
