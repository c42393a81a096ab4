import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avwc import Channel, Distribution
from avwc.information import entropy_from_array, mi_batch, mi_from_arrays, xlog2x

from conftest import random_channel, random_distribution


def binary_entropy(x):
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


class TestEntropy:
    def test_point_mass(self):
        assert entropy_from_array(Distribution.point_mass(5, 2).probs) == 0.0

    def test_uniform(self):
        assert entropy_from_array(Distribution.uniform(4).probs) == pytest.approx(2.0, abs=1e-15)

    def test_skewed_binary(self):
        value = entropy_from_array(np.array([0.11, 0.89]))
        assert value == pytest.approx(0.499916, abs=1e-6)
        assert value == pytest.approx(binary_entropy(0.11), abs=1e-12)


class TestMutualInformation:
    def test_identity_channel_gives_input_entropy(self):
        p = np.array([0.2, 0.3, 0.5])
        assert mi_from_arrays(p, np.eye(3)) == pytest.approx(entropy_from_array(p), abs=1e-12)

    def test_noiseless_bsc(self):
        assert mi_from_arrays(np.full(2, 0.5), Channel.bsc(0.0).rows) == pytest.approx(1.0)

    def test_uniform_bsc(self):
        value = mi_from_arrays(np.full(2, 0.5), Channel.bsc(0.11).rows)
        assert value == pytest.approx(0.500084, abs=1e-6)
        assert value == pytest.approx(1.0 - binary_entropy(0.11), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mi_from_arrays(np.full(3, 1 / 3), Channel.bsc(0.1).rows)

    def test_invariant_under_output_relabeling(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            p = random_distribution(rng, 3)
            w = random_channel(rng, 3, 4)
            base = mi_from_arrays(p.probs, w.rows)
            for perm in itertools.permutations(range(4)):
                permuted = w.rows[:, list(perm)]
                assert mi_from_arrays(p.probs, permuted) == pytest.approx(base, abs=1e-12)

    def test_convex_in_channel(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            p = random_distribution(rng, 2)
            w0 = random_channel(rng, 2, 3)
            w1 = random_channel(rng, 2, 3)
            for lam in np.linspace(0.0, 1.0, 9):
                blend = lam * w0.rows + (1 - lam) * w1.rows
                bound = lam * mi_from_arrays(p.probs, w0.rows) + (1 - lam) * mi_from_arrays(p.probs, w1.rows)
                assert mi_from_arrays(p.probs, blend) <= bound + 1e-12

    def test_concave_in_input(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            w = random_channel(rng, 3, 3)
            p0 = random_distribution(rng, 3)
            p1 = random_distribution(rng, 3)
            for lam in np.linspace(0.0, 1.0, 9):
                blend = lam * p0.probs + (1 - lam) * p1.probs
                floor = lam * mi_from_arrays(p0.probs, w.rows) + (1 - lam) * mi_from_arrays(p1.probs, w.rows)
                assert mi_from_arrays(blend, w.rows) >= floor - 1e-12


def _simplex_rows(draw, count, size):
    """``count`` probability vectors of length ``size``; exact zeros are common."""
    weights = st.lists(st.integers(0, 4), min_size=size, max_size=size).filter(any)
    rows = np.array([draw(weights) for _ in range(count)], dtype=float)
    return rows / rows.sum(axis=1, keepdims=True)


@st.composite
def mi_batches(draw):
    """A batch of input laws with one shared channel or one channel per law."""
    n, a, b = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    px = _simplex_rows(draw, n, a)
    shared = draw(st.booleans())
    rows = _simplex_rows(draw, a if shared else n * a, b)
    return px, rows.reshape((a, b) if shared else (n, a, b))


def _mi_loop(px, rows):
    """sum_x sum_y p(x) W(y|x) log2(W(y|x) / (pW)(y)) over the positive terms."""
    out = [sum(px[x] * rows[x][y] for x in range(len(px))) for y in range(len(rows[0]))]
    return sum(
        px[x] * rows[x][y] * math.log2(rows[x][y] / out[y])
        for x in range(len(px))
        for y in range(len(out))
        if px[x] > 0.0 and rows[x][y] > 0.0
    )


@settings(max_examples=200, deadline=None)
@given(batch=mi_batches())
def test_mi_batch_rows_match_scalar_and_loop(batch):
    px, rows = batch
    values = mi_batch(px, rows)
    assert values.shape == (len(px),)
    for i, p in enumerate(px):
        w = rows if rows.ndim == 2 else rows[i]
        assert values[i] == pytest.approx(mi_from_arrays(p, w), abs=1e-12)
        assert values[i] == pytest.approx(_mi_loop(p.tolist(), w.tolist()), abs=1e-12)
        assert values[i] >= 0.0


def _masked_xlog2x(values):
    """x log2 x with the log taken only where x > 0, written into zeros elsewhere."""
    logs = np.log2(values, out=np.zeros_like(values), where=values > 0.0)
    return np.multiply(values, logs, out=logs)


_XLOG2X_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 2.0**-1022, 1e-300, 1.0, 1.0 + 2.0**-52, -1e-17, -5e-324]),
    st.floats(0.0, 1e-307),  # subnormals and the smallest normals
    st.floats(1e-301, 1e-299),
    st.floats(-1e-15, 0.0),  # roundoff negatives
    st.floats(0.0, 1.0),
)


@settings(max_examples=200, deadline=None)
@given(entries=st.lists(_XLOG2X_ENTRIES, min_size=1, max_size=24), columns=st.sampled_from([1, 2, 3]))
def test_xlog2x_equals_the_masked_reference(entries, columns):
    """Equal to the masked log at every entry; x <= 0 gives +0.0, never -0.0."""
    values = np.array(entries * columns).reshape(columns, -1)
    got = xlog2x(values)
    assert np.array_equal(got, _masked_xlog2x(values))
    assert not np.signbit(got[got == 0.0]).any()
    single = xlog2x(entries[0])  # a scalar gives a 0-d array
    assert single.shape == () and single == _masked_xlog2x(np.array(entries[0]))
    assert not (single == 0.0 and np.signbit(single))
