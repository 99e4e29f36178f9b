"""Field arithmetic: the array paths against shift-and-add oracles, axioms,
interpolation round trips, and the scalar adapters bench/tracer.py wraps."""

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
from scaffolding import index_to_poly, interpolate_reference, poly_to_index


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
    a = np.array([0, 1, 7, 200, 255])
    assert f.mul_many(0, a).tolist() == [0] * 5
    assert f.mul_many(1, a).tolist() == a.tolist()


def test_mul_matches_full_table_gf8():
    # GF(2^3) with x^3+x+1: spec'd value mul(0b010, 0b100) = 0b011
    f = FieldSpec(3, reduction_poly=0xB)
    table = shift_reduce_table(3, 0xB)
    assert table[0b010][0b100] == 0b011
    assert f.mul_many(np.arange(8)[:, None], np.arange(8)).tolist() == table


def test_scalar_adapters_range_check():
    # poly_eval and interpolate keep the scalar methods' ValueError on an
    # element outside GF(2^w)
    f = field(4)
    with pytest.raises(ValueError):
        f.poly_eval((1,), 16)
    with pytest.raises(ValueError):
        f.poly_eval((16,), 1)
    for pts in ([(16, 1)], [(1, 16)], [(-1, 1)]):
        with pytest.raises(ValueError):
            f.interpolate(pts, 1)


def test_field_axioms_random_samples():
    for w in (5, 8, 16):
        f = field(w)
        rng = np.random.default_rng(w)
        xs = rng.integers(0, 1 << w, size=12)
        a, b, c = xs[:, None, None], xs[None, :6, None], xs[None, None, :4]
        assert np.array_equal(f.mul_many(a, b), f.mul_many(b, a))
        assert np.array_equal(f.mul_many(f.mul_many(a, b), c), f.mul_many(a, f.mul_many(b, c)))
        assert np.array_equal(f.mul_many(a, b ^ c), f.mul_many(a, b) ^ f.mul_many(a, c))
        nonzero = xs[xs != 0]
        assert f.mul_many(nonzero, f.div_many(1, nonzero)).tolist() == [1] * len(nonzero)
        assert f.div_many(f.mul_many(xs, nonzero[0]), nonzero[0]).tolist() == xs.tolist()


def test_poly_eval_constant_and_identity():
    f = field(8)
    assert f.poly_eval((42,), 123) == 42
    for p in (0, 1, 77, 255):
        assert f.poly_eval((0, 1), p) == p


def test_poly_eval_matches_power_sum_oracle():
    f = field(10)
    rng = np.random.default_rng(3)
    g = tuple(int(v) for v in rng.integers(0, 1 << 10, size=4))
    for p in rng.integers(0, 1 << 10, size=5):
        assert f.poly_eval(g, int(p)) == oracle_eval(10, g, int(p))


def test_interpolate_dimension_one():
    f = field(6)
    assert f.interpolate([(5, 9)], 1) == (9,)


def test_interpolate_inverts_evaluation():
    for w, d in [(6, 2), (8, 3), (16, 4), (16, 16)]:
        f = field(w)
        rng = np.random.default_rng(w * d)
        g = tuple(int(v) for v in rng.integers(0, 1 << w, size=d))
        xs = rng.choice(1 << w, size=d, replace=False)
        pts = [(int(x), oracle_eval(w, g, int(x))) for x in xs]
        assert f.interpolate(pts, d) == g


def test_interpolate_uses_first_d_after_dedup():
    f = field(8)
    g = (3, 7)
    pts = [(1, oracle_eval(8, g, 1)), (1, 99), (2, oracle_eval(8, g, 2)), (5, 0)]
    assert f.interpolate(pts, 2) == g  # duplicate x=1 dropped, x=5 unused
    assert interpolate_reference(f, pts, 2) == g


def test_interpolate_insufficient_points():
    f = field(8)
    with pytest.raises(InsufficientEvaluations):
        f.interpolate([(1, 2)], 2)
    with pytest.raises(InsufficientEvaluations):
        f.interpolate([(1, 2), (1, 3)], 2)  # same x twice


def test_index_to_poly_zero_and_digits():
    f = field(4)
    assert f.index_to_poly_many(0, 3).tolist() == [0, 0, 0]
    assert f.index_to_poly_many(0x5A, 2).tolist() == [0xA, 0x5]  # little-endian digits
    assert index_to_poly(f, 0x5A, 2) == (0xA, 0x5)


def test_index_poly_round_trip():
    f = field(8)
    js = np.random.default_rng(17).integers(0, 1 << 24, size=1000)
    assert np.array_equal(f.poly_to_index_many(f.index_to_poly_many(js, 3)), js)


def test_index_out_of_range():
    # the scalar reference rejects an index past 2^(w d), and a digit past 2^w
    f = field(4)
    with pytest.raises(ValueError):
        index_to_poly(f, 1 << 8, 2)
    with pytest.raises(ValueError):
        poly_to_index(f, (16, 0))


# ---------------------------------------------------------------------------
# log/antilog tables against the shift-and-add oracle
# ---------------------------------------------------------------------------

def oracle_pow(w, a, e):
    f, r = IRREDUCIBLE_POLY[w], 1
    for _ in range(e):
        r = _mulmod_poly(r, a, f)
    return r


def oracle_inv(w, a):
    """a^(2^w - 2) by square and multiply, so it reaches w = 32."""
    return _powmod(a, (1 << w) - 2, IRREDUCIBLE_POLY[w])


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
    exp, _ = f._tables
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
    assert f.mul_many(np.arange(q)[:, None], np.arange(q)).tolist() == want
    # the polynomial b x evaluated at every a: the product under Horner
    grid = np.array([f.poly_eval_many((0, b), np.arange(q)) for b in range(q)])
    assert np.array_equal(grid.T, np.array(want))
    assert f.div_many(1, np.arange(1, q)).tolist() == [oracle_pow(w, a, q - 2)
                                                       for a in range(1, q)]
    with pytest.raises(ZeroDivisionError):
        f.div_many(1, 0)
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
    assert f.mul_many(a, b) == _mulmod_poly(a, b, poly)
    xs = data.draw(st.lists(elem, min_size=1, max_size=8))
    assert f.poly_eval_many((0, b), xs).tolist() == [_mulmod_poly(x, b, poly) for x in xs]
    if a:
        assert _mulmod_poly(a, int(f.div_many(1, a)), poly) == 1
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
    assert f._tables is None
    rng = np.random.default_rng(w)
    xs = [int(v) for v in rng.integers(0, q, size=40)] + [0, 1, q - 1]
    for a in xs[:10]:
        assert f.mul_many(a, xs).tolist() == [_mulmod_poly(a, b, poly) for b in xs]
        assert f.poly_eval_many((0, a), xs).tolist() == [_mulmod_poly(b, a, poly) for b in xs]
        if a:
            assert _mulmod_poly(a, int(f.div_many(1, a)), poly) == 1
    g = tuple(xs[:3])
    assert [f.poly_eval(g, p) for p in xs] == [oracle_eval(w, g, p) for p in xs]
    assert f.poly_eval_many(g, xs).tolist() == [oracle_eval(w, g, p) for p in xs]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_poly_eval_many_per_row_matches_scalar(data):
    # w <= 16 multiplies by the log tables, w > 16 by array shift and add
    w = data.draw(st.integers(2, MAX_TABLE_WIDTH + 4))
    f, elem = field(w), st.integers(0, (1 << w) - 1)
    k, d, r = (data.draw(st.integers(0, 5)), data.draw(st.integers(1, 4)),
               data.draw(st.integers(0, 6)))
    polys = [tuple(data.draw(st.lists(elem, min_size=d, max_size=d))) for _ in range(k)]
    points = [data.draw(st.lists(elem, min_size=r, max_size=r)) for _ in range(k)]
    got = f.poly_eval_many(np.array(polys, dtype=np.int64).reshape(k, d),
                           np.array(points, dtype=np.int64).reshape(k, r))
    assert got.shape == (k, r) and got.dtype == np.int64
    assert got.tolist() == [[oracle_eval(w, g, p) for p in row] for g, row in zip(polys, points)]


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
    assert f.index_to_poly_many(np.array(js), d).tolist() == [list(index_to_poly(f, j, d))
                                                              for j in js]


def test_poly_eval_many_range_checks():
    f = field(8)
    with pytest.raises(ValueError):
        f.poly_eval_many((1, 2), [3, 256])
    with pytest.raises(ValueError):
        f.poly_eval_many((1, 256), [3])
    assert f.poly_eval_many((1, 2), []).shape == (0,)


# ---------------------------------------------------------------------------
# array field ops at every width against the scalar oracles
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mul_many_and_div_many_match_scalar_oracles(data):
    # log tables up to w = 16, shift and add with a Fermat inverse above
    w = data.draw(st.integers(2, 32))
    f, poly, q = field(w), IRREDUCIBLE_POLY[w], 1 << w
    elem = st.integers(0, q - 1)
    a = data.draw(st.lists(elem, min_size=1, max_size=10)) + [0, 0, q - 1]
    b = data.draw(st.lists(elem, min_size=len(a) - 3, max_size=len(a) - 3)) + [0, q - 1, 0]
    product = f.mul_many(np.array(a), np.array(b))
    assert product.dtype == np.int64
    assert product.tolist() == [_mulmod_poly(x, y, poly) for x, y in zip(a, b)]
    assert f.mul_many(a[0], np.array(b)).tolist() == [_mulmod_poly(a[0], y, poly) for y in b]
    nonzero = [y or 1 for y in b]
    quotient = f.div_many(np.array(a), np.array(nonzero))
    assert quotient.dtype == np.int64
    # x / y is the one element whose product with y is x
    assert [_mulmod_poly(v, y, poly) for v, y in zip(quotient.tolist(), nonzero)] == a
    assert f.div_many(1, np.array(nonzero)).tolist() == [oracle_inv(w, y) for y in nonzero]
    with pytest.raises(ZeroDivisionError):
        f.div_many(np.array(a), np.array(b))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_interpolate_many_matches_scalar_interpolate(data):
    w = data.draw(st.integers(2, 32))
    f, q = field(w), 1 << w
    d = data.draw(st.integers(1, min(4, q)))
    rows = data.draw(st.lists(st.tuples(
        st.lists(st.integers(0, q - 1), min_size=d, max_size=d, unique=True),
        st.lists(st.integers(0, q - 1), min_size=d, max_size=d)), min_size=0, max_size=5))
    xs = np.array([x for x, _ in rows], dtype=np.int64).reshape(-1, d)
    ys = np.array([y for _, y in rows], dtype=np.int64).reshape(-1, d)
    got = f.interpolate_many(xs, ys)
    assert got.shape == (len(rows), d)
    assert [tuple(g) for g in got.tolist()] == [interpolate_reference(f, list(zip(x, y)), d)
                                                for x, y in rows]
    with pytest.raises(ZeroDivisionError):  # a repeated x-coordinate
        f.interpolate_many(np.zeros((1, 2), dtype=np.int64), np.array([[1, 2]]))


@pytest.mark.parametrize("w,d", [(8, 3), (16, 2), (17, 3), (17, 4), (32, 2), (32, 3)])
def test_poly_to_index_many_matches_scalar_or_reads_wrap(w, d):
    # an index of 2^63 or more has no int64 form: it reads -1, never a wrapped value
    f, rng = field(w), np.random.default_rng(w * d)
    coeffs = rng.integers(0, 1 << w, size=(60, d))
    coeffs[:3] = [[0] * d, [(1 << w) - 1] * d, [1] + [0] * (d - 1)]
    want = [poly_to_index(f, c) for c in coeffs.tolist()]
    assert f.poly_to_index_many(coeffs).tolist() == [j if j < 1 << 63 else -1 for j in want]
    if w * d > 63:
        assert -1 in f.poly_to_index_many(coeffs).tolist()
