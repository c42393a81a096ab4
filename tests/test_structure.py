import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from avwc import Channel, Distribution, find_best_eaves_channel, mixture_channel
from avwc import test_degraded as degradedness_test
from avwc import test_symmetrisable as symmetrisability_test
from avwc.information import mi_from_arrays
from avwc.structure import symmetrisation_residual

from conftest import random_distribution


class TestSymmetrisable:
    def test_adder_channel_with_analytic_witness(self, adder_family):
        report = symmetrisability_test(adder_family, 1e-8)
        assert report.symmetrisable
        assert report.residual <= 1e-8
        # the analytic witness U(s|x) = 1{s = x} must satisfy the identity too
        assert symmetrisation_residual(adder_family, np.eye(2)) == 0.0

    def test_state_independent_distinct_rows(self):
        report = symmetrisability_test([Channel.bsc(0.1), Channel.bsc(0.1)], 1e-8)
        assert not report.symmetrisable
        assert report.margin > 1e-4

    def test_all_rows_equal_is_symmetrisable(self):
        flat = Channel(np.array([[0.3, 0.7], [0.3, 0.7]]))
        report = symmetrisability_test([flat], 1e-8)
        assert report.symmetrisable
        assert report.residual <= 1e-8

    def test_witness_is_rechecked_independently(self, adder_family):
        report = symmetrisability_test(adder_family, 1e-8)
        assert symmetrisation_residual(adder_family, report.u_witness.rows) <= 1e-8


class TestDegraded:
    def test_composition_is_degraded_by_construction(self):
        base = Channel.bsc(0.1)
        other = base.compose(Channel.bsc(0.2))
        report = degradedness_test(base, other, 1e-8)
        assert report.degraded
        assert report.residual <= 1e-8

    def test_identity_not_degraded_wrt_noisy(self):
        report = degradedness_test(Channel.bsc(0.1), Channel.identity(2), 1e-8)
        assert not report.degraded
        # data processing: the cleaner channel carries more information
        p = Distribution.uniform(2).probs
        assert mi_from_arrays(p, Channel.identity(2).rows) > mi_from_arrays(p, Channel.bsc(0.1).rows)

    def test_self_degraded(self):
        ch = Channel(np.array([[0.6, 0.3, 0.1], [0.1, 0.2, 0.7]]))
        report = degradedness_test(ch, ch, 1e-8)
        assert report.degraded
        assert report.residual <= 1e-8

    def test_data_processing_consistency(self):
        """Whenever the test reports degraded, information can only shrink."""
        rng = np.random.default_rng(31)
        base = Channel.bsc(0.15)
        other = base.compose(Channel(np.array([[0.9, 0.1], [0.3, 0.7]])))
        report = degradedness_test(base, other, 1e-8)
        assert report.degraded
        for _ in range(20):
            p = random_distribution(rng, 2)
            assert mi_from_arrays(p.probs, other.rows) <= mi_from_arrays(p.probs, base.rows) + 1e-9


class TestBestEavesChannel:
    def test_bsc_family(self):
        report = find_best_eaves_channel([Channel.bsc(0.1), Channel.bsc(0.3)], 1e-8)
        assert report.exists
        assert np.allclose(report.q_star.probs, [1.0, 0.0])
        assert all(r.degraded for r in report.per_state_reports)

    def test_single_channel_family(self):
        report = find_best_eaves_channel([Channel.bsc(0.25)], 1e-8)
        assert report.exists
        assert report.q_star.probs[0] == 1.0

    def test_bit_revealing_channels_have_no_best(self):
        # 4-ary input x = (b1, b0); one channel reveals b1, the other b0
        reveal_hi = Channel(np.array([[1.0, 0], [1.0, 0], [0, 1.0], [0, 1.0]]))
        reveal_lo = Channel(np.array([[1.0, 0], [0, 1.0], [1.0, 0], [0, 1.0]]))
        report = find_best_eaves_channel([reveal_hi, reveal_lo], 1e-8)
        assert not report.exists

    def test_mixture_maximum_attained_at_q_star(self):
        """When a best channel exists the mixture information peaks at it."""
        rng = np.random.default_rng(32)
        family = [Channel.bsc(0.1), Channel.bsc(0.3)]
        report = find_best_eaves_channel(family, 1e-8)
        assert report.exists
        for _ in range(10):
            p = random_distribution(rng, 2)
            grid_max = max(
                mi_from_arrays(p.probs, mixture_channel(family, Distribution(np.array([1 - t, t]))).rows)
                for t in np.linspace(0.0, 1.0, 65)
            )
            state_max = max(mi_from_arrays(p.probs, ch.rows) for ch in family)
            at_star = mi_from_arrays(p.probs, mixture_channel(family, report.q_star).rows)
            assert abs(grid_max - state_max) <= 1e-6
            assert at_star >= grid_max - 1e-6


def test_marginal_flag_near_tolerance_boundary():
    """Margins landing just above the tolerance are flagged as borderline."""
    family = [Channel.bsc(0.1), Channel.bsc(0.1)]
    crisp = symmetrisability_test(family, 1e-8)
    assert not crisp.marginal  # margin is orders of magnitude above tol
    borderline = symmetrisability_test(family, crisp.margin / 5.0)
    assert not borderline.symmetrisable
    assert borderline.marginal


@st.composite
def binary_input_families(draw):
    """One to three binary-input states over two or three outputs, on a coarse grid of rows."""
    s_size, b_size = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = rng.integers(0, 4, size=(s_size, 2, b_size)).astype(float)
    stack[..., 0] += stack.sum(axis=-1) == 0
    return [Channel(rows / rows.sum(axis=1, keepdims=True)) for rows in stack]


def hull_distance(family):
    """L1 distance between conv{W_s(.|0)} and conv{W_s(.|1)}, by linprog.

    Variables are the weights a, b of the two hulls and t >= |a W(.|0) - b W(.|1)|.
    """
    w0 = np.stack([ch.rows[0] for ch in family], axis=1)  # (B, S)
    w1 = np.stack([ch.rows[1] for ch in family], axis=1)
    b_size, s_size = w0.shape
    diff = np.hstack([w0, -w1])
    eye = np.eye(b_size)
    a_ub = np.vstack([np.hstack([diff, -eye]), np.hstack([-diff, -eye])])
    a_eq = np.zeros((2, 2 * s_size + b_size))
    a_eq[0, :s_size] = a_eq[1, s_size : 2 * s_size] = 1.0
    cost = np.concatenate([np.zeros(2 * s_size), np.ones(b_size)])
    result = linprog(cost, A_ub=a_ub, b_ub=np.zeros(2 * b_size), A_eq=a_eq, b_eq=np.ones(2))
    assert result.status == 0
    return result.fun


@settings(max_examples=150, deadline=None)
@given(family=binary_input_families())
def test_binary_symmetrisability_is_hull_intersection(family):
    """With two inputs, U symmetrises the family exactly when the two row hulls meet."""
    distance = hull_distance(family)
    assume(distance <= 1e-9 or distance > 1e-6)
    report = symmetrisability_test(family, 1e-8)
    assert report.symmetrisable == (distance <= 1e-9)
    if report.symmetrisable:
        assert report.residual <= 1e-8


@settings(max_examples=100, deadline=None)
@given(
    sizes=st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4)),
    seed=st.integers(0, 2**32 - 1),
)
def test_post_processed_channel_is_degraded(sizes, seed):
    """V followed by any stochastic D is degraded with respect to V."""
    a_size, z_size, out_size = sizes
    rng = np.random.default_rng(seed)
    base = Channel(rng.dirichlet(np.ones(z_size), size=a_size))
    d_rows = rng.dirichlet(np.ones(out_size), size=z_size)
    report = degradedness_test(base, Channel(base.rows @ d_rows), 1e-8)
    assert report.degraded
    assert report.residual <= 1e-8
