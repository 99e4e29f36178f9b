"""Test scaffolding schemes: a perfect one-test-per-person scheme and a
decoder fault injector, for exercising the composition gadgets; the sets and
lists a stacked decode's (row, index) arrays stand for; the scalar field,
polynomial and combinadic references the array paths are checked against,
built on shift-and-add products, not on the field's tables, and Rabin's test
the built-in reduction polynomials are checked with; the exhaustive
nearest-codeword search the linear codes' coset tables are checked against;
the per-batch
reading (reference_symbols) that both the inner layers' one_writer and the
scalar decodes are checked against, which never calls an inner layer; the
scalar decoders and the dict vote the stacked array decode is checked against; the
row-wise bits_to_blocks; the scalar keyed batch draw; the row-at-a-time
Bernoulli design, COMP, the brute-force oracle's bit-by-bit column masks
and its scoring on them, which the packed one is checked against, the
ConfigMatrix of a handle's columns and the run_tests of a sick set on it,
and the ConfigMatrix check the dense ones replace; the masked-searchsorted
channel draw, the bisection the closed-form symmetrizer is checked against
and the BSC's sparse draw; and the scans of the
package's modules for the names that only one module may use and for the
modules they import."""

import ast
import math
from collections import Counter
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np

from gachagt.baselines import OracleResult
from gachagt.channels import NoiseModel, SymmetrizerPlan, ZeroCapacityError
from gachagt.core_model import ConfigMatrix
from gachagt.gacha_core import COLLISION, NoiselessInner
from gachagt.gf2e import (InsufficientEvaluations, _mulmod_poly, _powmod_poly, _prime_factors,
                          field)
from gachagt.inner_code import Occupancy
from gachagt.scheme import SchemeHandle, checked_bits, stacked_args

_FAULTS_TAG = 14  # rng stream tag, distinct from the gadgets' tags 11-13

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gachagt"


def package_users(names) -> dict:
    """Module name -> lines that name one of names, as an attribute, a bare
    name or an import, in the package's modules."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            named = ((isinstance(node, ast.Attribute) and node.attr in names)
                     or (isinstance(node, ast.Name) and node.id in names)
                     or (isinstance(node, ast.alias) and node.name.split(".")[-1] in names))
            if named:
                found.setdefault(path.name, []).append(getattr(node, "lineno", None))
    return found


def package_imports(module: str) -> dict:
    """Module name -> lines that import module or one of its submodules, in
    the package's modules."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name == module or name.startswith(module + ".") for name in names):
                found.setdefault(path.name, []).append(node.lineno)
    return found


def identity_scheme(n: int) -> SchemeHandle:
    """m = n, person j joins exactly test j; decoding reads the bits off."""

    def observe(js, rows, nrows):
        js, rows = stacked_args(js, rows, nrows, n)
        y = np.zeros(nrows * n, dtype=np.uint8)
        y[rows * n + js] = 1
        return y

    def decode_rows(bits, nrows):
        return np.nonzero(checked_bits(bits, n, nrows).reshape(nrows, n))

    return SchemeHandle(n=n, k_design=n, m=n, observe=observe, decode_rows=decode_rows,
                        layers=("identity",))


def fault_injected(inner: SchemeHandle, eps: float, seed: int = 0) -> SchemeHandle:
    """Wrap the decode: in each copy, drop each found index with probability
    eps and, with probability eps, inject one uniformly random index after
    the kept ones (nothing, when the copy already holds it).  The wrapper
    keeps its own rng, so successive decodes draw a deterministic fault
    stream."""
    rng = np.random.default_rng((seed, _FAULTS_TAG))

    def decode_rows(bits, nrows):
        row, index = inner.decode_rows(bits, nrows)
        keep = rng.random(len(index)) >= eps
        hit = np.flatnonzero(rng.random(nrows) < eps)
        row = np.concatenate([row[keep], hit])
        index = np.concatenate([index[keep], rng.integers(0, inner.n, size=len(hit))])
        first = np.sort(np.unique(np.stack([row, index]), axis=1, return_index=True)[1])
        first = first[np.argsort(row[first], kind="stable")]
        return row[first], index[first]

    return SchemeHandle(
        n=inner.n,
        k_design=inner.k_design,
        m=inner.m,
        observe=inner.observe,
        decode_rows=decode_rows,
        to_bits=inner.to_bits,
        from_bits=inner.from_bits,
        layers=inner.layers + (f"faults(eps={eps})",),
    )


def bits_to_blocks_reference(params, bits, nrows: int = 1) -> np.ndarray:
    """bits_to_blocks one ell-bit row at a time: packbits along rows, each
    row's bytes zero-padded to 8 and read as one little-endian word."""
    ell = params.inner.ell
    packed = np.packbits(checked_bits(bits, params.m, nrows).reshape(-1, ell), axis=1,
                         bitorder="little")
    words = np.zeros((len(packed), 8), dtype=np.uint8)
    words[:, :packed.shape[1]] = packed
    return words.view("<u8").reshape(nrows * params.B, params.inner.blocks)


def row_sets(found, nrows: int) -> list:
    """A stacked decode's (row, index) arrays as one set per copy, each filled
    in arrival order, so it iterates as a set built in that order does."""
    out = [set() for _ in range(nrows)]
    for r, j in zip(*(a.tolist() for a in found)):
        out[r].add(j)
    return out


def row_lists(found, nrows: int) -> list:
    """A stacked decode's (row, index) arrays as one index list per copy, in
    arrival order."""
    row, index = found
    return [index[row == r].tolist() for r in range(nrows)]


# ---------------------------------------------------------------------------
# scalar references: GF(2^w) by shift and add, combinadics by math.comb
# ---------------------------------------------------------------------------

def _poly_mod(a: int, b: int) -> int:
    db = b.bit_length() - 1
    while a and a.bit_length() - 1 >= db:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _poly_mod(a, b)
    return a


def _x_pow_2e_mod(e: int, f: int) -> int:
    r = 0b10
    for _ in range(e):
        r = _mulmod_poly(r, r, f)
    return r


def is_irreducible(mask: int) -> bool:
    """Rabin's test over GF(2): x^(2^w) == x mod f, and for each prime p | w
    the polynomial x^(2^(w/p)) - x is coprime with f."""
    w = mask.bit_length() - 1
    if w < 1 or not mask & 1:
        return False
    if _x_pow_2e_mod(w, mask) != 0b10:
        return False
    for p in _prime_factors(w):
        h = _x_pow_2e_mod(w // p, mask) ^ 0b10
        if _poly_gcd(mask, h) != 1:
            return False
    return True


def _element(fld, a: int) -> int:
    if not 0 <= a < (1 << fld.w):
        raise ValueError(f"{a} is not an element of GF(2^{fld.w})")
    return a


def index_to_poly(fld, j: int, d: int) -> tuple:
    """The d base-2^w digits of j, little-endian, as coefficients."""
    if not 0 <= j < (1 << (fld.w * d)):
        raise ValueError(f"index {j} out of range for w={fld.w}, d={d}")
    mask = (1 << fld.w) - 1
    return tuple((j >> (fld.w * i)) & mask for i in range(d))


def poly_to_index(fld, coeffs) -> int:
    """The inverse of index_to_poly, for any number of coefficients."""
    j = 0
    for i, c in enumerate(coeffs):
        j |= _element(fld, c) << (fld.w * i)
    return j


def poly_eval_reference(fld, coeffs, p: int) -> int:
    """Horner evaluation at p with shift-and-add products."""
    acc = 0
    for c in reversed(coeffs):
        acc = _mulmod_poly(acc, _element(fld, p), fld.reduction_poly) ^ _element(fld, c)
    return acc


def interpolate_reference(fld, points, d: int) -> tuple:
    """The polynomial of dimension d through the first d points with
    pairwise-distinct x-coordinates (duplicates after the first are
    dropped): Gaussian elimination on the Vandermonde system, with
    shift-and-add products and Fermat inverses."""
    if d < 1:
        raise ValueError("dimension must be positive")
    seen, use = set(), []
    for x, y in points:
        if x in seen:
            continue
        seen.add(x)
        use.append((_element(fld, x), _element(fld, y)))
        if len(use) == d:
            break
    if len(use) < d:
        raise InsufficientEvaluations(f"need {d} points of distinct x, got {len(use)}")
    f = fld.reduction_poly

    def mul(a, b):
        return _mulmod_poly(a, b, f)

    # augmented rows [x^0, ..., x^(d-1) | y]
    rows = []
    for x, y in use:
        row, xp = [], 1
        for _ in range(d):
            row.append(xp)
            xp = mul(xp, x)
        rows.append(row + [y])
    for col in range(d):
        piv = next(i for i in range(col, d) if rows[i][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        scale = _powmod_poly(rows[col][col], (1 << fld.w) - 2, f)
        rows[col] = [mul(scale, v) for v in rows[col]]
        for i in range(d):
            if i != col and rows[i][col]:
                c = rows[i][col]
                rows[i] = [vi ^ mul(c, vc) for vi, vc in zip(rows[i], rows[col])]
    return tuple(rows[i][d] for i in range(d))


def recover_from_groups_reference(fld, d: int, groups, n: int) -> set:
    """recover_rows on one row, one birthday group at a time in a dict.

    groups maps a birthday b to [(slot, fragment)] in arrival order, slots
    pairwise distinct, slot s read at point s + 1.  g(x) = b + x h(x), so a
    fragment y reads h at its point as z = (y + b) / (s + 1), by a Fermat
    inverse.  The candidates and their votes: at d = 1 the constant b, one
    vote per fragment with z = 0; at d = 2 the constant z of every fragment;
    at d >= 3 the h that interpolate_reference puts through each window of
    d - 1 consecutive fragments.  The most-voted candidate is accepted when
    it has at least t votes (1 at d = 1, else 2), strictly more than any
    other, and its index b + x h(x) lies below n.
    """
    f, found = fld.reduction_poly, set()
    for birthday, pts in groups.items():
        points = [(s + 1, _mulmod_poly(_element(fld, y) ^ birthday,
                                       _powmod_poly(s + 1, (1 << fld.w) - 2, f), f))
                  for s, y in pts]
        if d == 1:
            votes = Counter(() for _, z in points if z == 0)
        else:
            votes = Counter(interpolate_reference(fld, points[i:i + d - 1], d - 1)
                            for i in range(len(points) - d + 2))
        ranked = votes.most_common(2) + [((), 0)] * 2
        (h, top), (_, second) = ranked[:2]
        if top >= (1 if d == 1 else 2) and top > second:
            j = poly_to_index(fld, (birthday,) + h)
            if j < n:
                found.add(j)
    return found


def combination_unrank(rank: int, ell: int, weight: int) -> int:
    """The rank-th weight-`weight` subset of [ell] in colex order, as a bitmask."""
    if not 0 <= rank < comb(ell, weight):
        raise ValueError(f"rank {rank} out of range for C({ell},{weight})")
    mask = 0
    for i in range(weight, 0, -1):
        c = i - 1
        while comb(c + 1, i) <= rank:
            c += 1
        rank -= comb(c, i)
        mask |= 1 << c
    return mask


def combination_rank(mask: int) -> int:
    """Inverse of combination_unrank; colex rank of the set bits."""
    rank, i = 0, 0
    while mask:
        c = (mask & -mask).bit_length() - 1
        i += 1
        rank += comb(c, i)
        mask &= mask - 1
    return rank


def classify_noiseless_reference(code, observed: int):
    """(Occupancy, payload | None) of one exact observed string of a
    constant-weight code: empty at weight 0, the colex rank at the code's
    weight when it is a payload, a collision otherwise."""
    if observed >> code.ell:
        raise ValueError("observed string longer than ell")
    w = observed.bit_count()
    if w == 0:
        return Occupancy.EMPTY, None
    rank = combination_rank(observed) if w == code.weight else 1 << code.payload_bits
    return (Occupancy.ONE, rank) if rank < (1 << code.payload_bits) else (Occupancy.MANY, None)


def nearest_reference(code, observed) -> np.ndarray:
    """The payload of the codeword nearest to every string of a 1-D uint64
    array, by an exhaustive search of a linear code's codebook in blocks of
    rows; np.argmin sends a tie to the smallest payload."""
    observed = np.asarray(observed, dtype=np.uint64)
    out = np.empty(observed.shape[0], dtype=np.int64)
    chunk = max(1, (1 << 19) // len(code.codebook))  # a 4 MiB distance block
    for lo in range(0, observed.shape[0], chunk):
        d = np.bitwise_count(observed[lo:lo + chunk, None] ^ code.codebook[None, :])
        out[lo:lo + chunk] = np.argmin(d, axis=1)
    return out


_MASK64 = (1 << 64) - 1


def splitmix_reference(z: int) -> int:
    """splitmix64's finalizer of an int in [0, 2^64)."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def splitmix_key(s, b, dim):
    """The whitening key of block b of batch s: splitmix64's finalizer of 2 s + b."""
    return splitmix_reference((s * 2 + b + 0x9E3779B97F4A7C15) & _MASK64) & ((1 << dim) - 1)


def choice_set_reference(seed, j: int, B: int, r: int) -> list:
    """Person j's sorted batches by a scalar loop: a key chained over the
    prefix's 64-bit words and j (each step the finalizer of (key ^ word) +
    2^64 / phi), its draws the key chained once more over a counter, mod B.
    The row draws min(r, B - r) values on counters 0, 1, ... and sorts
    them; each value equal to its left neighbour at column i is redrawn on
    counter t * drawn + i in round t = 1, 2, ... until all differ; when
    fewer than r were drawn, the row is the batches they leave out."""
    def absorb(key, word):
        return splitmix_reference(((key ^ word) + 0x9E3779B97F4A7C15) & _MASK64)

    key = 0
    for part in seed if isinstance(seed, tuple) else (seed,):
        for at in range(0, max(64, int(part).bit_length()), 64):
            key = absorb(key, int(part) >> at & _MASK64)
    key = absorb(key, int(j))
    drawn = min(r, B - r)
    vals = sorted(absorb(key, c) % B for c in range(drawn))
    t = 1
    while any(vals[i] == vals[i - 1] for i in range(1, drawn)):
        repeats = [i for i in range(1, drawn) if vals[i] == vals[i - 1]]
        for i in repeats:
            vals[i] = absorb(key, t * drawn + i) % B
        vals.sort()
        t += 1
    return vals if drawn == r else sorted(set(range(B)) - set(vals))


def scalar_pair(inner, payloads):
    """The pair (hi, lo) a batch's block payloads carry."""
    if inner.blocks == 1:
        return payloads[0] >> inner.w, payloads[0] & ((1 << inner.w) - 1)
    return payloads[0], payloads[1]


def classify_weight(clf, ones):
    """The Occupancy a weight classifier reads from a symbol's count of ones."""
    mean = ones / clf.ell
    if mean < clf.tau:
        return Occupancy.EMPTY
    return Occupancy.ONE if mean < clf.theta else Occupancy.MANY


def reference_symbols(p, words):
    """What each batch of one copy's (B, blocks) block words reads, one batch
    at a time through scalar references (the colex rank, the weight
    thresholds and the exhaustive nearest-codeword search): None when empty,
    COLLISION when several wrote, else the one writer's pair (hi, lo)."""
    inner, out = p.inner, []
    noiseless = isinstance(inner, NoiselessInner)
    for s in range(p.B):
        row = [int(x) for x in words[s]]
        if noiseless:
            read = [classify_noiseless_reference(inner.code, x) for x in row]
            if all(k is Occupancy.EMPTY for k, _ in read):
                out.append(None)
            elif all(k is Occupancy.ONE for k, _ in read):
                out.append(scalar_pair(inner, [v for _, v in read]))
            else:
                out.append(COLLISION)
            continue
        kind = classify_weight(inner.classifier, sum(x.bit_count() for x in row))
        if kind is Occupancy.EMPTY:
            out.append(None)
        elif kind is Occupancy.MANY:
            out.append(COLLISION)
        else:
            nearest = nearest_reference(inner.code, row).tolist()
            out.append(scalar_pair(inner, [v ^ splitmix_key(s, b, inner.code.dim)
                                           for b, v in enumerate(nearest)]))
    return out



# ---------------------------------------------------------------------------
# scalar decoders
# ---------------------------------------------------------------------------

def majority_vote_reference(decoded_sets, threshold: int) -> set:
    """Indices appearing in at least `threshold` of the per-copy sets, counted
    in a dict: the vote layer's decode one copy at a time."""
    counts = {}
    for found in decoded_sets:
        for j in found:
            counts[j] = counts.get(j, 0) + 1
    return {j for j, c in counts.items() if c >= threshold}


def recover_in_order(fld, d: int, groups, n: int) -> list:
    """recover_from_groups_reference one group at a time: its indices as a
    list in the dict order of their groups, the arrival order of their first
    fragments."""
    return [j for hi, pts in groups.items()
            for j in recover_from_groups_reference(fld, d, {hi: pts}, n)]


def scalar_gacha_decode(params):
    """The single-layer decode one batch at a time: every batch read by
    reference_symbols, the one-writer pairs that lie in the field grouped by
    birthday in a dict, then recover_in_order, so the indices come in
    arrival order."""
    q = 1 << params.w

    def decode(bits):
        groups = {}
        for s, sym in enumerate(reference_symbols(params,
                                                  bits_to_blocks_reference(params, bits))):
            if type(sym) is tuple and max(sym) < q:
                groups.setdefault(sym[0], []).append((s, sym[1]))
        return recover_in_order(params.field, params.d, groups, params.n)

    return decode


def expander_decode_reference(inner_decode, inner_m: int, R: int, outer_w: int, rho: int, bits):
    """An expander handle's decode as a loop over its R copies: each copy's
    inner_m bits through inner_decode, which lists its indices in arrival
    order; the first pair per (birthday, copy) in that order kept, one dict
    group per birthday, and recover_in_order: the indices in arrival order."""
    fld = field(outer_w)
    d_out = (rho + 1) // 2
    mask = (1 << outer_w) - 1
    groups, seen = {}, set()
    for r in range(R):
        for v in inner_decode(bits[r * inner_m:(r + 1) * inner_m]):
            if v >= (1 << (2 * outer_w)):
                continue
            hi, lo = v >> outer_w, v & mask
            if (hi, r) in seen:
                continue
            seen.add((hi, r))
            groups.setdefault(hi, []).append((r, lo))
    return recover_in_order(fld, d_out, groups, 1 << (outer_w * d_out))


def bernoulli_columns_reference(n: int, k: int, m: int, matrix_seed: int) -> list:
    """The COMP/oracle Bernoulli design one row at a time: row j reads the
    first m bytes of its own ceil(m / 8) little-endian words of
    default_rng(matrix_seed)'s raw stream.  Byte u of a test is a 1 below
    level = floor(256 p), and at u == level a 1 when the next uniform of
    the stream's first spawned child is below frac = 256 p - level."""
    p = 1 - 2 ** (-1.0 / k)
    level = math.floor(256 * p)
    frac = 256 * p - level
    rng = np.random.default_rng(matrix_seed)
    tie_rng = rng.spawn(1)[0]
    columns = []
    for _ in range(n):
        octets = b"".join(int(w).to_bytes(8, "little")
                          for w in rng.bit_generator.random_raw(-(-m // 8)))
        columns.append(np.array(
            [t for t in range(m) if octets[t] < level
             or octets[t] == level and tie_rng.random() < frac],
            dtype=np.int64))
    return columns


def comp_decode_reference(matrix, y) -> set:
    """COMP one column at a time: everyone whose tests are all positive."""
    y = np.asarray(y, dtype=np.uint8)
    if len(y) != matrix.m:
        raise ValueError(f"result length {len(y)} != m = {matrix.m}")
    out = set()
    for j in range(matrix.n):
        col = np.asarray(matrix.columns[j], dtype=np.int64)
        if col.size == 0 or bool(y[col].all()):
            out.add(j)
    return out


def column_masks_reference(matrix) -> list:
    """Each column of a ConfigMatrix as a Python int, one bit at a time:
    bit t is set when the column holds test t."""
    masks = []
    for col in matrix.columns:
        mask = 0
        for t in np.asarray(col, dtype=np.int64):
            mask |= 1 << int(t)
        masks.append(mask)
    return masks


def build_matrix(handle) -> ConfigMatrix:
    """Every column of a handle, one person at a time, as a ConfigMatrix."""
    return ConfigMatrix(m=handle.m, n=handle.n,
                        columns=[np.asarray(handle.column(j), dtype=np.int64)
                                 for j in range(handle.n)])


def run_tests(matrix, inst) -> np.ndarray:
    """Noiseless results: test i fires iff some sick person's column contains i."""
    if matrix.n != inst.n:
        raise ValueError(f"matrix has n={matrix.n} but instance has n={inst.n}")
    y = np.zeros(matrix.m, dtype=np.uint8)
    for j in inst.sick_set:
        y[np.asarray(matrix.columns[j], dtype=np.int64)] = 1
    return y


def _bit_mask(flags) -> int:
    """The Python int whose bit t is set when flags[t] is nonzero."""
    mask = 0
    for t in np.flatnonzero(flags):
        mask |= 1 << int(t)
    return mask


def brute_force_reference(matrix, observations, k: int, channel=None):
    """The exhaustive oracle on Python int masks, one support and one
    covered test at a time: noiseless, the supports whose OR of columns
    equals the results; noisy, every support ranked by its log-likelihood,
    base plus each covered test's l1 - l0 in ascending test order, -inf
    where a test's symbol has probability 0 under its input, ties going to
    the lexicographically smaller support."""
    masks = column_masks_reference(matrix)
    observations = np.asarray(observations)
    if channel is None:
        target = _bit_mask(observations)
        consistent = [support for support in combinations(range(matrix.n), k)
                      if _or_masks(masks, support) == target]
        return OracleResult(consistent_supports=consistent,
                            best=consistent[0] if consistent else tuple())
    symbols = observations.astype(np.int64)
    p0, p1 = (np.asarray(mu)[symbols] for mu in (channel.mu0, channel.mu1))
    l0, l1 = (np.array([math.log(p) if p > 0 else 0.0 for p in ps.tolist()]) for ps in (p0, p1))
    imp0, imp1 = _bit_mask(p0 == 0), _bit_mask(p1 == 0)
    base = float(l0.sum())
    full = (1 << matrix.m) - 1
    ranked = []
    for support in combinations(range(matrix.n), k):
        u = _or_masks(masks, support)
        if (imp0 & (full ^ u)) or (imp1 & u):
            ranked.append((-math.inf, support))
            continue
        ll = base
        v = u
        while v:
            low = v & -v
            i = low.bit_length() - 1
            ll += float(l1[i] - l0[i])
            v ^= low
        ranked.append((ll, support))
    ranked.sort(key=lambda pair: (-pair[0], pair[1]))
    return OracleResult(consistent_supports=ranked, best=ranked[0][1])


def _or_masks(masks, support) -> int:
    u = 0
    for j in support:
        u |= masks[j]
    return u


def config_matrix_valid_reference(m: int, columns) -> bool:
    """ConfigMatrix's column check one column at a time."""
    for col in columns:
        arr = np.asarray(col)
        if arr.size and (arr[0] < 0 or arr[-1] >= m or np.any(np.diff(arr) <= 0)):
            return False
    return True


def transmit_many_reference(channel, bits, rng) -> np.ndarray:
    """DiscreteChannel.transmit_many by two masked searchsorted calls: one
    rng.random draw, each bit's symbols searched in its own cdf, clipped to
    q - 1 for a draw at or past a cdf whose float sum ends below 1.0."""
    bits = np.asarray(bits, dtype=np.uint8)
    u = rng.random(bits.shape[0])
    out = np.empty(bits.shape[0], dtype=np.int64)
    cdf0 = np.cumsum(channel.mu0)
    cdf1 = np.cumsum(channel.mu1)
    ones = bits.astype(bool)
    out[~ones] = np.searchsorted(cdf0, u[~ones], side="right")
    out[ones] = np.searchsorted(cdf1, u[ones], side="right")
    np.clip(out, 0, channel.q - 1, out=out)
    return out


# the output symbols (mu0, mu1 rows) of the custom channels, by name: three
# symbols, and three that are noiseless after the threshold, since symbols
# 0 and 1 come only from a 0 and symbol 2 only from a 1
CUSTOM_CHANNELS = {
    "custom": "0,0.9,0.05\n1,0.07,0.15\n2,0.03,0.8\n",
    "custom-noiseless": "0,0.7,0\n1,0.3,0\n2,0,1\n",
}

# the gap the closed-form threshold leaves between p10 and p01, and between
# its crossover and an exact one: a few ulps of 1.0
SYMMETRY_TOL = 8 * np.finfo(np.float64).eps


def custom_channel_spec(directory, name: str = "custom") -> str:
    """The spec of the custom channel CUSTOM_CHANNELS[name], its CSV written
    in directory."""
    path = directory / f"{name}.csv"
    path.write_text("symbol,mu0,mu1\n" + CUSTOM_CHANNELS[name])
    return f"custom:{path}"


def noise_model(spec: str, directory) -> NoiseModel:
    """NoiseModel.parse of spec, where a name in CUSTOM_CHANNELS is that
    custom channel."""
    return NoiseModel.parse(custom_channel_spec(directory, spec) if spec in CUSTOM_CHANNELS
                            else spec)


def sparse_flips_reference(crossover, bits, rng) -> np.ndarray:
    """NoiseModel.receive's BSC draw on dense bits, one flip at a time:
    K ~ Binomial(len(bits), crossover), K positions by rng.choice without
    replacement or shuffle, each XORed with 1.  The result is a new uint8
    array."""
    out = np.array(bits, dtype=np.uint8)
    for pos in rng.choice(len(out), rng.binomial(len(out), crossover), replace=False,
                          shuffle=False).tolist():
        out[pos] ^= 1
    return out


def error_rates(ch, order, t: float):
    """(P(out 1 | in 0), P(out 0 | in 1)) of ch under the threshold t."""
    p_zero_given0 = 0.0
    p_zero_given1 = 0.0
    for pos, sym in enumerate(order):
        c = min(1.0, max(0.0, t - pos))  # P(position pos+1 maps to 0)
        p_zero_given0 += ch.mu0[sym] * c
        p_zero_given1 += ch.mu1[sym] * c
    return 1.0 - p_zero_given0, p_zero_given1


def plan_symmetrize_reference(ch, tol: float = 1e-9) -> SymmetrizerPlan:
    """plan_symmetrize by bisection on the threshold until both error
    directions agree within tol."""
    def ratio(sym):
        if ch.mu0[sym] == 0.0:
            return (1, sym)  # infinite ratio sorts after all finite ones
        return (0, ch.mu1[sym] / ch.mu0[sym], sym)

    order = tuple(sorted(range(ch.q), key=ratio))
    lo, hi = 0.0, float(ch.q)
    for _ in range(200):
        mid = (lo + hi) / 2
        p10, p01 = error_rates(ch, order, mid)
        gap = p10 - p01
        if abs(gap) < tol:
            break
        if gap > 0:
            lo = mid
        else:
            hi = mid
    else:
        mid = (lo + hi) / 2
    p10, p01 = error_rates(ch, order, mid)
    if abs(p10 - p01) >= tol:
        raise ZeroCapacityError("bisection failed to symmetrize the channel")
    crossover = (p10 + p01) / 2
    if crossover >= 0.5:
        raise ZeroCapacityError(f"symmetrized crossover {crossover} >= 1/2")
    return SymmetrizerPlan(order=order, t=mid, crossover=crossover)
