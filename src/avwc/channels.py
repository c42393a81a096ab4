"""Finite-alphabet probability and channel algebra.

Alphabets are index sets 0..k-1 throughout; symbol labels live only in the
CLI layer.  All probabilities are kept in linear scale.  Words and state sequences are enumerated in
lexicographic order with the first position most significant, and that order
is part of the contract between modules.

Every n-fold memoryless law is ``output_law``: a code's output law p(y^n | j),
the i.i.d. extension q^n and the multi-letter bound's product laws all multiply
(1.0 * r_0) * r_1 * ... in that order, so a law is bit for bit the same
whichever of them builds it.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import ResourceLimitError

STOCHASTIC_ATOL = 1e-9
_DEFAULT_ENUM_CAP = 10**7


def enumeration_cap() -> int:
    """Joint-outcome cap guarding exponential enumerations (env AVWC_ENUM_CAP)."""
    raw = os.environ.get("AVWC_ENUM_CAP")
    if raw is None:
        return _DEFAULT_ENUM_CAP
    cap = int(raw)
    if cap <= 0:
        raise ValueError("AVWC_ENUM_CAP must be a positive integer")
    return cap


def check_enumeration(count: int, what: str) -> None:
    cap = enumeration_cap()
    if count > cap:
        raise ResourceLimitError(
            f"{what} needs {count} joint outcomes, above the enumeration cap {cap}",
            required=count,
            cap=cap,
        )


_CHUNK_FLOATS = 2**13  # working-memory budget: floats per batched temporary


def chunks(count: int, floats_per_item: int) -> Iterator[slice]:
    """Slices over range(count) of _CHUNK_FLOATS // floats_per_item items each (at least one)."""
    size = max(1, _CHUNK_FLOATS // floats_per_item)
    return (slice(start, start + size) for start in range(0, count, size))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Distribution:
    """Point on a finite probability simplex.

    Entries must be nonnegative and sum to one within ``STOCHASTIC_ATOL``;
    violations raise instead of being renormalized silently.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("distribution must be a nonempty 1-D vector")
        if not np.all(np.isfinite(probs)):
            raise ValueError("distribution entries must be finite")
        if np.any(probs < 0):
            raise ValueError(f"distribution has a negative entry: min={probs.min()!r}")
        total = float(probs.sum())
        if abs(total - 1.0) > STOCHASTIC_ATOL:
            raise ValueError(f"distribution entries sum to {total!r}, not 1")
        object.__setattr__(self, "probs", _freeze(probs))

    @property
    def support_size(self) -> int:
        return int(self.probs.size)

    def __len__(self) -> int:
        return self.support_size

    def allclose(self, other: "Distribution", atol: float = 1e-12) -> bool:
        return self.support_size == other.support_size and bool(
            np.allclose(self.probs, other.probs, atol=atol, rtol=0.0)
        )

    @classmethod
    def uniform(cls, size: int) -> "Distribution":
        return cls(np.full(size, 1.0 / size))

    @classmethod
    def point_mass(cls, size: int, index: int) -> "Distribution":
        probs = np.zeros(size)
        probs[index] = 1.0
        return cls(probs)


@dataclass(frozen=True, eq=False)
class Channel:
    """Row-stochastic matrix: ``rows[x, y]`` is the probability of output y given input x."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.size == 0:
            raise ValueError("channel must be a nonempty 2-D matrix")
        if not np.all(np.isfinite(rows)):
            raise ValueError("channel entries must be finite")
        if np.any(rows < 0):
            raise ValueError(f"channel has a negative entry: min={rows.min()!r}")
        sums = rows.sum(axis=1)
        bad = np.abs(sums - 1.0) > STOCHASTIC_ATOL
        if np.any(bad):
            x = int(np.argmax(bad))
            raise ValueError(f"channel row {x} sums to {sums[x]!r}, not 1")
        object.__setattr__(self, "rows", _freeze(rows))

    @property
    def input_size(self) -> int:
        return int(self.rows.shape[0])

    @property
    def output_size(self) -> int:
        return int(self.rows.shape[1])

    def compose(self, other: "Channel") -> "Channel":
        """Cascade: this channel followed by ``other``."""
        if self.output_size != other.input_size:
            raise ValueError("composition dimension mismatch")
        return Channel(self.rows @ other.rows)

    def allclose(self, other: "Channel", atol: float = 1e-12) -> bool:
        return self.rows.shape == other.rows.shape and bool(
            np.allclose(self.rows, other.rows, atol=atol, rtol=0.0)
        )

    @classmethod
    def bsc(cls, flip: float) -> "Channel":
        if not 0.0 <= flip <= 1.0:
            raise ValueError("crossover probability must lie in [0, 1]")
        return cls(np.array([[1.0 - flip, flip], [flip, 1.0 - flip]]))

    @classmethod
    def identity(cls, size: int) -> "Channel":
        return cls(np.eye(size))


@dataclass(frozen=True, eq=False)
class AVWC:
    """State-indexed family of channel pairs with a common input alphabet.

    ``main[s]`` carries the transmission to the legitimate receiver and
    ``eaves[s]`` the observation of the eavesdropper when the per-symbol
    state is s.  Only finite state sets are supported.
    """

    main: tuple[Channel, ...]
    eaves: tuple[Channel, ...]

    def __post_init__(self):
        main = tuple(self.main)
        eaves = tuple(self.eaves)
        if len(main) == 0 or len(main) != len(eaves):
            raise ValueError("main and eaves families must have equal nonzero length")
        a = main[0].input_size
        b = main[0].output_size
        c = eaves[0].output_size
        for ch in main:
            if ch.input_size != a or ch.output_size != b:
                raise ValueError("main family members disagree on dimensions")
        for ch in eaves:
            if ch.input_size != a or ch.output_size != c:
                raise ValueError("eaves family members disagree on dimensions")
        object.__setattr__(self, "main", main)
        object.__setattr__(self, "eaves", eaves)

    @property
    def state_count(self) -> int:
        return len(self.main)

    @property
    def input_size(self) -> int:
        return self.main[0].input_size

    @property
    def main_output_size(self) -> int:
        return self.main[0].output_size

    @property
    def eaves_output_size(self) -> int:
        return self.eaves[0].output_size

    @cached_property
    def main_stack(self) -> np.ndarray:
        return _freeze(np.stack([ch.rows for ch in self.main]))

    @cached_property
    def eaves_stack(self) -> np.ndarray:
        return _freeze(np.stack([ch.rows for ch in self.eaves]))


@dataclass(frozen=True)
class StateSequence:
    """Word over the state alphabet; entries must lie in [0, state_count)."""

    symbols: tuple[int, ...]
    state_count: int

    def __post_init__(self):
        symbols = tuple(int(s) for s in self.symbols)
        if self.state_count < 1:
            raise ValueError("state_count must be positive")
        for s in symbols:
            if not 0 <= s < self.state_count:
                raise ValueError(f"state index {s} outside [0, {self.state_count})")
        object.__setattr__(self, "symbols", symbols)

    def __len__(self) -> int:
        return len(self.symbols)


def sequence_symbols(s, state_count: int) -> tuple[int, ...]:
    """Accept a StateSequence or a plain iterable of indices in [0, state_count)."""
    if isinstance(s, StateSequence):
        if s.state_count != state_count:
            raise ValueError("state sequence built for a different state count")
        return s.symbols
    symbols = tuple(int(v) for v in s)
    for v in symbols:
        if not 0 <= v < state_count:
            raise ValueError(f"state index {v} outside [0, {state_count})")
    return symbols


# ---------------------------------------------------------------------------
# word enumeration (lexicographic, first position most significant)
# ---------------------------------------------------------------------------

def index_to_word(index: int, alphabet_size: int, length: int) -> tuple[int, ...]:
    if not 0 <= index < alphabet_size**length:
        raise ValueError("word index out of range")
    out = []
    for pos in range(length):
        power = alphabet_size ** (length - 1 - pos)
        out.append((index // power) % alphabet_size)
    return tuple(out)

def word_matrix(alphabet_size: int, length: int) -> np.ndarray:
    """All words of the given length as an (alphabet_size**length, length) array."""
    count = alphabet_size**length
    check_enumeration(count, f"enumeration of words over {alphabet_size} symbols")
    idx = np.arange(count)
    cols = [(idx // alphabet_size ** (length - 1 - pos)) % alphabet_size for pos in range(length)]
    return np.stack(cols, axis=1) if length > 0 else np.zeros((1, 0), dtype=int)


# ---------------------------------------------------------------------------
# channel operations
# ---------------------------------------------------------------------------

def mixture_channel(family: Sequence[Channel], q: Distribution) -> Channel:
    """State-averaged channel: entrywise convex combination of the family."""
    if q.support_size != len(family):
        raise ValueError(
            f"mixture weight vector has {q.support_size} entries for {len(family)} channels"
        )
    shape = family[0].rows.shape
    for ch in family:
        if ch.rows.shape != shape:
            raise ValueError("mixture family members disagree on dimensions")
    rows = np.zeros(shape)
    for weight, ch in zip(q.probs, family):
        rows += weight * ch.rows
    return Channel(rows)


def output_law(codewords: np.ndarray, channels: np.ndarray) -> np.ndarray:
    """p(y^n | j), averaged over l, as a (..., J, |B|^n) array in lexicographic output order.

    ``codewords`` is a (J, L, n) array and ``channels`` an (..., n, |A|, |B|)
    stack whose entry i acts at position i; leading axes are a batch of
    stacks.  All J*L codewords and all stacks advance together: position i
    multiplies every partial law by the row its codeword selects, one output
    symbol y at a time, so each multiply runs over a whole partial law
    instead of |B| entries.
    """
    j_count, l_count, n = codewords.shape
    words = codewords.reshape(j_count * l_count, n)
    batch = channels.shape[:-3]
    b = channels.shape[-1]
    rows = channels[..., np.arange(n), words, :]  # (..., J*L, n, |B|): the row each position selects
    law = np.ones(batch + (len(words), 1))
    for i in range(n):
        grown = np.empty(law.shape + (b,))
        for y in range(b):
            np.multiply(law, rows[..., i, y, None], out=grown[..., y])
        law = grown.reshape(batch + (len(words), -1))
    return law.reshape(batch + (j_count, l_count, -1)).sum(axis=-2) / l_count  # mean over l, bit for bit


def simplex_grid(dim: int, denominator: int) -> np.ndarray:
    """All points with coordinates k/denominator summing to 1, as a lexicographic (points, dim) array.

    This is the stars-and-bars enumeration of compositions of ``denominator``
    into ``dim`` parts: a point's parts are the gaps between its dim - 1 bars.
    With a denominator below 1 no point exists and the array is empty.
    """
    if denominator < 1:
        return np.zeros((0, dim))
    bars = np.array(list(itertools.combinations(range(denominator + dim - 1), dim - 1)), dtype=int)
    return (np.diff(bars, axis=1, prepend=-1, append=denominator + dim - 1) - 1) / denominator


def iid_extension(q: Distribution, n: int) -> Distribution:
    """Product distribution over length-n words (state sequences or codewords), lexicographic order."""
    if n < 1:
        raise ValueError("extension length must be at least 1")
    check_enumeration(q.support_size**n, "i.i.d. extension")
    stack = np.broadcast_to(q.probs, (n, 1, q.support_size))  # q at every position, one input symbol
    return Distribution(output_law(np.zeros((1, 1, n), dtype=int), stack)[0])
