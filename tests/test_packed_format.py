"""The one packed-bit format, scheme's WORD / zero_words / pack_groups /
unpack_groups, for Gacha's blocks and the design and observation of COMP
and the oracle: the word layout bit by bit against shifts of the words and
the round trip, writes through a row slice of a design with pad bits
zeroed, packed rows read as little-endian ints against the scalar oracle's
bit-by-bit masks, and a scan that keeps every packbits / unpackbits call of
the package in scheme.py."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gachagt.core_model import ConfigMatrix
from gachagt.scheme import WORD, pack_groups, unpack_groups, zero_words
from scaffolding import column_masks_reference, package_users

# every width from 0 to 200, with the word and byte edges drawn often
WIDTHS = st.one_of(st.sampled_from([0, 1, 8, 63, 64, 65, 128, 181]), st.integers(0, 200))


def layout_bits(words: np.ndarray) -> np.ndarray:
    """(groups, 64 * words) bits of packed words by shifts: bit t of a group
    is bit t % 64 of its word t // 64."""
    shifts = np.arange(64, dtype=np.uint64)
    return ((words[:, :, None] >> shifts) & np.uint64(1)).reshape(len(words), 64 * words.shape[1])


def random_bits(seed: int, groups: int, width: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((groups, width)) < rng.random()


@settings(max_examples=120, deadline=None)
@given(groups=st.integers(0, 300), width=WIDTHS, seed=st.integers(0, 1 << 32),
       dtype=st.sampled_from([bool, np.uint8, np.int64]))
def test_packed_words_layout(groups, width, seed, dtype):
    bits = random_bits(seed, groups, width)
    words = pack_groups(bits.astype(dtype))
    assert words.dtype == WORD and words.shape == (groups, -(-width // 64))
    laid = layout_bits(words)
    assert np.array_equal(laid[:, :width], bits)
    assert not laid[:, width:].any()  # pad bits read zero
    back = unpack_groups(words, width)
    assert back.dtype == np.uint8 and np.array_equal(back, bits)


@settings(max_examples=80, deadline=None)
@given(groups=st.integers(0, 300), width=WIDTHS, seed=st.integers(0, 1 << 32),
       data=st.data())
def test_pack_groups_writes_through_a_row_slice(groups, width, seed, data):
    # as the COMP design fills its chunks: rows outside the slice keep what
    # they held, and the slice's pad bits are zeroed whatever it held before
    start = data.draw(st.integers(0, groups))
    stop = data.draw(st.integers(start, groups))
    design = zero_words(groups, width)
    design[...] = np.uint64((1 << 64) - 1)
    bits = random_bits(seed, stop - start, width)
    got = pack_groups(bits, out=design[start:stop])
    assert np.shares_memory(got, design) or got.size == 0
    assert np.array_equal(design[start:stop], pack_groups(bits))
    assert not layout_bits(design[start:stop])[:, width:].any()
    outside = np.concatenate([design[:start], design[stop:]])
    assert (outside == np.uint64((1 << 64) - 1)).all()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), m=st.integers(0, 200), seed=st.integers(0, 1 << 32))
def test_packed_rows_as_ints_match_the_bit_loop(n, m, seed):
    # the scalar oracle's int mask of a column, bit t for test t, is the
    # column's packed row read as little-endian bytes
    bits = random_bits(seed, n, m)
    matrix = ConfigMatrix(m=m, n=n, columns=[np.flatnonzero(row) for row in bits])
    ints = [int.from_bytes(row.tobytes(), "little") for row in pack_groups(matrix.dense())]
    assert ints == column_masks_reference(matrix)


def test_only_scheme_packs_bits():
    users = package_users({"packbits", "unpackbits"})
    assert "scheme.py" in users  # the scan sees the owner's own calls
    assert sorted(users) == ["scheme.py"], f"packbits outside scheme.py: {users}"
