import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avwc import (
    Channel,
    Distribution,
    entropy,
    joint_mutual_information,
    kl_divergence,
    mutual_information,
)
from avwc.information import mi_batch, mi_from_arrays, xlog2x

from conftest import random_channel, random_distribution


def binary_entropy(x):
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


class TestEntropy:
    def test_point_mass(self):
        assert entropy(Distribution.point_mass(5, 2)) == 0.0

    def test_uniform(self):
        assert entropy(Distribution.uniform(4)) == pytest.approx(2.0, abs=1e-15)

    def test_skewed_binary(self):
        value = entropy(Distribution(np.array([0.11, 0.89])))
        assert value == pytest.approx(0.499916, abs=1e-6)
        assert value == pytest.approx(binary_entropy(0.11), abs=1e-12)


class TestMutualInformation:
    def test_identity_channel_gives_input_entropy(self):
        p = Distribution(np.array([0.2, 0.3, 0.5]))
        assert mutual_information(p, Channel.identity(3)) == pytest.approx(entropy(p), abs=1e-12)

    def test_noiseless_bsc(self):
        assert mutual_information(Distribution.uniform(2), Channel.bsc(0.0)) == pytest.approx(1.0)

    def test_uniform_bsc(self):
        value = mutual_information(Distribution.uniform(2), Channel.bsc(0.11))
        assert value == pytest.approx(0.500084, abs=1e-6)
        assert value == pytest.approx(1.0 - binary_entropy(0.11), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mutual_information(Distribution.uniform(3), Channel.bsc(0.1))

    def test_invariant_under_output_relabeling(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            p = random_distribution(rng, 3)
            w = random_channel(rng, 3, 4)
            base = mutual_information(p, w)
            for perm in itertools.permutations(range(4)):
                permuted = Channel(w.rows[:, list(perm)])
                assert mutual_information(p, permuted) == pytest.approx(base, abs=1e-12)

    def test_convex_in_channel(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            p = random_distribution(rng, 2)
            w0 = random_channel(rng, 2, 3)
            w1 = random_channel(rng, 2, 3)
            for lam in np.linspace(0.0, 1.0, 9):
                blend = Channel(lam * w0.rows + (1 - lam) * w1.rows)
                bound = lam * mutual_information(p, w0) + (1 - lam) * mutual_information(p, w1)
                assert mutual_information(p, blend) <= bound + 1e-12

    def test_concave_in_input(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            w = random_channel(rng, 3, 3)
            p0 = random_distribution(rng, 3)
            p1 = random_distribution(rng, 3)
            for lam in np.linspace(0.0, 1.0, 9):
                blend = Distribution(lam * p0.probs + (1 - lam) * p1.probs)
                floor = lam * mutual_information(p0, w) + (1 - lam) * mutual_information(p1, w)
                assert mutual_information(blend, w) >= floor - 1e-12


class TestKLDivergence:
    def test_identical(self):
        p = Distribution(np.array([0.4, 0.6]))
        assert kl_divergence(p, p) == 0.0

    def test_point_mass_vs_uniform(self):
        assert kl_divergence(Distribution.point_mass(2, 0), Distribution.uniform(2)) == pytest.approx(1.0)

    def test_direct_formula(self):
        value = kl_divergence(Distribution(np.array([0.3, 0.7])), Distribution.uniform(2))
        assert value == pytest.approx(0.118709, abs=1e-6)

    def test_absolute_continuity_violation_is_inf(self):
        p = Distribution(np.array([0.5, 0.5]))
        q = Distribution.point_mass(2, 0)
        assert kl_divergence(p, q) == math.inf

    def test_nonnegative(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = random_distribution(rng, 4)
            q = random_distribution(rng, 4)
            assert kl_divergence(p, q) >= 0.0


class TestJointMutualInformation:
    def test_independent(self):
        joint = np.outer([0.3, 0.7], [0.6, 0.4])
        assert joint_mutual_information(joint) == 0.0

    def test_perfectly_correlated(self):
        joint = np.eye(4) / 4.0
        assert joint_mutual_information(joint) == pytest.approx(2.0)

    def test_direct_formula(self):
        joint = np.array([[0.4, 0.1], [0.1, 0.4]])
        assert joint_mutual_information(joint) == pytest.approx(0.278072, abs=1e-6)

    def test_agrees_with_divergence_from_marginal_product(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            joint = rng.dirichlet(np.ones(6)).reshape(2, 3)
            flat = Distribution(joint.ravel())
            product = Distribution(np.outer(joint.sum(axis=1), joint.sum(axis=0)).ravel())
            assert joint_mutual_information(joint) == pytest.approx(
                kl_divergence(flat, product), abs=1e-12
            )


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
