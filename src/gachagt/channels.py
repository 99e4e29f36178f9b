"""Binary-input discrete-output noise channels and BSC symmetrization.

A channel is a pair of output distributions, one per input bit.  Any
positive-capacity channel can be post-processed by a randomized likelihood
threshold so the end-to-end behavior is a binary symmetric channel; the
threshold solves a piecewise-linear equation, in one pass over the
likelihood order.

The channel works on dense test bits.  NoiseModel.receive takes a scheme's
observation in the scheme's own layout, and unpacks it into bits and packs
the received bits back only when there is a channel.  A channel followed by
its symmetrizer is BSC(crossover), so receive draws only that BSC's flips,
sparsely; the exhaustive oracle alone reads the raw symbols transmit_many
draws.  apply_plan_many, the symmetrizer on symbols, is the reference the
BSC draw is tested against.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

PROB_TOL = 1e-12
CAPACITY_TOL = 1e-9


class ZeroCapacityError(ValueError):
    pass


@dataclass(frozen=True)
class DiscreteChannel:
    """Binary-input channel: output symbol drawn from mu0 or mu1."""

    mu0: tuple
    mu1: tuple

    def __post_init__(self):
        object.__setattr__(self, "mu0", tuple(float(p) for p in self.mu0))
        object.__setattr__(self, "mu1", tuple(float(p) for p in self.mu1))
        if len(self.mu0) != len(self.mu1) or len(self.mu0) < 2:
            raise ValueError("mu0 and mu1 must have equal length >= 2")
        for mu in (self.mu0, self.mu1):
            if not all(0.0 <= p <= 1.0 for p in mu):  # NaN fails both comparisons
                raise ValueError(f"probability outside [0, 1] in {mu}")
            if abs(sum(mu) - 1.0) > PROB_TOL:
                raise ValueError(f"distribution sums to {sum(mu)}, not 1")
        if all(abs(a - b) <= CAPACITY_TOL for a, b in zip(self.mu0, self.mu1)):
            raise ZeroCapacityError("mu0 == mu1: channel has zero capacity")

    @property
    def q(self) -> int:
        return len(self.mu0)

    def transmit_many(self, bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One output symbol per bit of a 0/1 array, drawn from mu_bit, from
        one rng.random draw.

        A symbol is the count of the first q - 1 entries of its bit's cdf at
        or below the uniform draw u.  The cdf is monotone, so the count is
        searchsorted(cdf, u, side="right") clipped to q - 1: even when the
        float sum ends below 1.0, every draw maps to a symbol.  Raises
        ValueError on a bit outside {0, 1}, before any draw.
        """
        bits = np.asarray(bits)
        if ((bits != 0) & (bits != 1)).any():
            raise ValueError("input bits must be 0 or 1")
        u = rng.random(bits.shape[0])
        cdf = np.cumsum((self.mu0, self.mu1), axis=1)
        bits = bits.astype(np.uint8)
        out = np.zeros(bits.shape[0], dtype=np.int64)
        for i in range(self.q - 1):
            out += cdf[:, i].take(bits) <= u
        return out


def bsc(s: float) -> DiscreteChannel:
    if not 0 <= s < 0.5:
        raise ValueError(f"BSC crossover must be in [0, 1/2), got {s}")
    return DiscreteChannel((1 - s, s), (s, 1 - s))


def bec(p: float) -> DiscreteChannel:
    """Alphabet (0, erasure, 1)."""
    if not 0 <= p < 1:
        raise ValueError(f"erasure probability must be in [0, 1), got {p}")
    return DiscreteChannel((1 - p, p, 0.0), (0.0, p, 1 - p))


def fp_channel(q: float) -> DiscreteChannel:
    """0 flips to 1 with probability q; 1 always stays 1."""
    if not 0 <= q < 1:
        raise ValueError(f"FP probability must be in [0, 1), got {q}")
    return DiscreteChannel((1 - q, q), (0.0, 1.0))


def fn_channel(r: float) -> DiscreteChannel:
    """1 flips to 0 with probability r; 0 always stays 0."""
    if not 0 <= r < 1:
        raise ValueError(f"FN probability must be in [0, 1), got {r}")
    return DiscreteChannel((1.0, 0.0), (r, 1 - r))


# the one-parameter channel kinds, by their lower-case spec names
_KINDS = {"bsc": bsc, "bec": bec, "fp": fp_channel, "fn": fn_channel}


def parse_channel_spec(spec: str):
    """Parse 'bsc:0.1', 'bec:0.2', 'fp:0.2', 'fn:0.3', 'custom:<csv path>' or 'none'.

    The kind is case-insensitive; a custom CSV path is used as given.  The CSV
    has a header row symbol,mu0,mu1 (spaces around a name are ignored) and
    one row per output symbol, the symbols 0, 1, ... in order.  Returns None
    for 'none'.
    """
    return _parse_channel(spec)[1]


def _parse_channel(spec: str):
    """(kind, channel) of a channel spec, the kind lower-cased; see parse_channel_spec."""
    spec = spec.strip()
    if spec == "none":
        return "none", None
    kind, _, arg = spec.partition(":")
    kind = kind.lower()
    if kind in _KINDS:
        return kind, _KINDS[kind](float(arg))
    if kind == "custom":
        try:
            with open(arg, newline="") as fh:
                header, *rows = [row for row in csv.reader(fh) if row] or [[]]
        except csv.Error as e:  # e.g. a field past csv.field_size_limit()
            raise ValueError(f"custom channel CSV: {e}") from e
        if [c.strip() for c in header] != ["symbol", "mu0", "mu1"]:
            raise ValueError("custom channel CSV must have header symbol,mu0,mu1")
        for i, row in enumerate(rows):
            if len(row) != 3 or row[0].strip() != str(i):
                raise ValueError(f"custom channel CSV row {i + 2} must be {i},mu0,mu1, got {row}")
        return kind, DiscreteChannel(tuple(float(row[1]) for row in rows),
                                     tuple(float(row[2]) for row in rows))
    raise ValueError(f"unknown channel spec {spec!r}")


@dataclass(frozen=True)
class SymmetrizerPlan:
    """Randomized threshold turning a channel into a BSC.

    `order` lists symbol indices sorted by likelihood ratio mu1/mu0 ascending
    (mu0 == 0 sorts last); symbol at sorted position i (1-based) maps to 0
    when i < t + U for a fresh uniform U.
    """

    order: tuple
    t: float
    crossover: float


def plan_symmetrize(ch: DiscreteChannel) -> SymmetrizerPlan:
    """The threshold t at which both error directions agree.

    p10(t) - p01(t) = 1 - sum over positions i of (mu0 + mu1)[order[i]] *
    clip(t - i, 0, 1), piecewise linear and non-increasing in t, so t lies in
    the first symbol at which the running mass mu0 + mu1 reaches 1: the
    mass below it plus the fraction of its own mass that makes up 1.  The
    crossover is p01(t).  Both distributions sum to 1, so the mass reaches 1
    by the last symbol and the pass always ends in a break.
    """
    def ratio(sym):
        if ch.mu0[sym] == 0.0:
            return (1, sym)  # infinite ratio sorts after all finite ones
        return (0, ch.mu1[sym] / ch.mu0[sym], sym)

    order = tuple(sorted(range(ch.q), key=ratio))
    below = below1 = 0.0  # the mass mu0 + mu1, and mu1 alone, of the positions before pos
    for pos, sym in enumerate(order):
        mass = ch.mu0[sym] + ch.mu1[sym]
        if below + mass >= 1.0:
            break
        below += mass
        below1 += ch.mu1[sym]
    # below < 1 <= below + mass, so mass > 0; the clip keeps a rounded-up
    # fraction from reaching into the next position
    frac = min(1.0, (1.0 - below) / mass)
    crossover = below1 + ch.mu1[sym] * frac
    if crossover >= 0.5:
        raise ZeroCapacityError(f"symmetrized crossover {crossover} >= 1/2")
    return SymmetrizerPlan(order=order, t=pos + frac, crossover=crossover)


def apply_plan_many(plan: SymmetrizerPlan, symbols: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    rank1 = np.empty(len(plan.order), dtype=np.float64)
    for pos, sym in enumerate(plan.order):
        rank1[sym] = pos + 1
    u = rng.random(symbols.shape[0])
    return (u <= rank1[symbols] - plan.t).astype(np.uint8)


@dataclass(frozen=True)
class NoiseModel:
    """A parsed channel spec, resolved once.

    channel    the DiscreteChannel, or None when the results are noiseless
    plan       the SymmetrizerPlan applied after the channel, or None
    crossover  the BSC crossover the decoder assumes, or None when noiseless
               or raw; a channel and its plan end to end are BSC(crossover)
    raw        hand the decoder raw channel symbols (the exhaustive oracle)
    """

    channel: DiscreteChannel | None = None
    plan: SymmetrizerPlan | None = None
    crossover: float | None = None
    raw: bool = False

    def __post_init__(self):
        if self.channel is not None and not self.raw and self.crossover is None:
            raise ValueError("a channel that is not raw needs a crossover")

    @classmethod
    def parse(cls, spec: str, raw: bool = False) -> "NoiseModel":
        """Plan the symmetrizer for every channel kind but bsc, which is
        already one; raw plans nothing."""
        kind, channel = _parse_channel(spec)
        if channel is None or raw:
            return cls(channel, raw=raw)
        if kind == "bsc":
            return cls(channel, crossover=channel.mu0[1])  # bsc(s) stores s exactly as P(1 | 0)
        plan = plan_symmetrize(channel)
        return cls(channel, plan, plan.crossover)

    def receive(self, words, layout, rng: np.random.Generator):
        """What the decoder reads for the noiseless observation words, in
        the layout of `layout` (a SchemeHandle's to_bits / from_bits and m).

        Without a channel, the words themselves.  Raw, the channel's int64
        symbols for the layout's test bits, put back into the layout by
        from_bits.  Otherwise the test bits through BSC(crossover), packed by
        from_bits into the words' dtype and layout: K ~ Binomial(bits,
        crossover) flips, at a uniform K-subset of the positions.
        """
        if self.channel is None:
            return words
        if self.raw:
            z = self.channel.transmit_many(layout.to_bits(words), rng)
            return layout.from_bits(z, len(z) // layout.m)
        # a copy: the plain-bit layout's to_bits hands back the words themselves
        bits = np.array(layout.to_bits(words), dtype=np.uint8)
        bits[rng.choice(len(bits), rng.binomial(len(bits), self.crossover), replace=False,
                        shuffle=False)] ^= 1
        return layout.from_bits(bits, len(bits) // layout.m)
