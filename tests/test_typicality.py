import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avwc import (
    Channel,
    Distribution,
    TypicalityParams,
    cond_typical_set,
    typical_set,
    verify_typicality_bounds,
)
from avwc.channels import product_rows_matrix, word_matrix
from avwc.typicality import cond_typical_mask, typical_mask


class TestTypicalSet:
    def test_huge_delta_keeps_support_constraint(self):
        p = Distribution(np.array([0.5, 0.5, 0.0]))
        words = typical_set(p, TypicalityParams(2, 1.0))
        assert words == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_uniform_binary_example(self):
        words = typical_set(Distribution.uniform(2), TypicalityParams(2, 0.25))
        assert words == [(0, 1), (1, 0)]
        # total probability of the set is exactly one half
        assert sum(0.25 for _ in words) == pytest.approx(0.5)

    def test_point_mass(self):
        words = typical_set(Distribution.point_mass(2, 1), TypicalityParams(3, 0.1))
        assert words == [(1, 1, 1)]

    def test_lexicographic_order(self):
        words = typical_set(Distribution.uniform(2), TypicalityParams(4, 0.3))
        assert words == sorted(words)


class TestCondTypicalSet:
    def test_noiseless_channel(self):
        words = cond_typical_set(Channel.identity(2), (0, 1, 1), TypicalityParams(3, 0.05))
        assert words == [(0, 1, 1)]

    def test_symmetric_half_flip(self):
        words = cond_typical_set(Channel.bsc(0.5), (0, 0), TypicalityParams(2, 0.25))
        assert words == [(0, 1), (1, 0)]

    def test_huge_delta_respects_zero_transitions(self):
        ch = Channel(np.array([[1.0, 0.0], [0.5, 0.5]]))
        words = cond_typical_set(ch, (0, 1), TypicalityParams(2, 1.0))
        # first position can only produce output 0
        assert words == [(0, 0), (0, 1)]

    def test_contained_in_output_typical_set(self):
        """Conditional typicality inside the widened output typical set."""
        rng = np.random.default_rng(41)
        for _ in range(5):
            p = Distribution(rng.dirichlet(np.ones(2)))
            w = Channel(rng.dirichlet(np.ones(2), size=2))
            tp = TypicalityParams(5, 0.15)
            out = Distribution(p.probs @ w.rows)
            wide_mask = typical_mask(out, TypicalityParams(5, 2 * 2 * 0.15))
            from avwc.channels import word_matrix

            in_words = word_matrix(2, 5)
            in_mask = typical_mask(p, tp, in_words)
            outputs = word_matrix(2, 5)
            for x in in_words[in_mask]:
                cmask = cond_typical_mask(w, x, tp, outputs)
                assert not np.any(cmask & ~wide_mask)


class TestVerifyBounds:
    def test_uniform_binary_instance(self):
        report = verify_typicality_bounds(
            Distribution.uniform(2), Channel.bsc(0.2), TypicalityParams(6, 0.2)
        )
        assert report.passed
        assert report.input_margin >= 0
        assert report.cond_margin >= 0
        assert report.alpha_margin >= 0
        assert report.beta_margin >= 0

    def test_point_mass_cardinality_is_trivial(self):
        report = verify_typicality_bounds(
            Distribution.point_mass(2, 0), Channel.bsc(0.1), TypicalityParams(4, 0.1)
        )
        assert report.passed
        assert report.typical_output_count >= 1

    @pytest.mark.parametrize("delta", [0.1, 0.2, 0.3])
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_structured_sweep(self, n, delta):
        for p, w in [
            (Distribution.uniform(2), Channel.bsc(0.1)),
            (Distribution(np.array([0.3, 0.7])), Channel.bsc(0.3)),
            (Distribution(np.array([0.2, 0.8])), Channel(np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]))),
        ]:
            report = verify_typicality_bounds(p, w, TypicalityParams(n, delta))
            assert report.passed, report.violations

    def test_empty_typical_set_is_vacuous(self):
        # no length-3 word has per-symbol frequency within 0.1 of one half
        p = Distribution.uniform(2)
        report = verify_typicality_bounds(p, Channel.bsc(0.1), TypicalityParams(3, 0.1))
        assert typical_set(p, TypicalityParams(3, 0.1)) == []
        assert report.passed


@st.composite
def channels_with_words(draw):
    """A channel with exact zeros (integer weights), a block length and a batch of input words."""
    a, b, n = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    weights = st.lists(st.integers(0, 3), min_size=b, max_size=b).filter(any)
    rows = np.array([draw(weights) for _ in range(a)], dtype=float)
    words = draw(st.lists(st.lists(st.integers(0, a - 1), min_size=n, max_size=n), min_size=1, max_size=5))
    delta = draw(st.sampled_from([0.05, 0.15, 0.25, 0.5]))
    return Channel(rows / rows.sum(axis=1, keepdims=True)), np.array(words), TypicalityParams(n, delta)


def _joint_count_mask(rows, x, y, tp):
    """Conditional typicality of y given x from joint counts, by plain loops."""
    for a in range(len(rows)):
        share = sum(1 for xi in x if xi == a) / tp.n
        for b in range(len(rows[0])):
            count = sum(1 for xi, yi in zip(x, y) if xi == a and yi == b)
            if abs(count / tp.n - share * rows[a][b]) > tp.delta + 1e-12:
                return False
            if rows[a][b] == 0.0 and count > 0:
                return False
    return True


@settings(max_examples=150, deadline=None)
@given(case=channels_with_words())
def test_batched_cond_mask_and_product_rows_match_plain_loops(case):
    w, words, tp = case
    outputs = word_matrix(w.output_size, tp.n)
    batch = cond_typical_mask(w, words, tp, outputs)
    assert batch.shape == (len(words), len(outputs))
    product = product_rows_matrix([w.rows] * tp.n)
    rows = w.rows.tolist()
    for x, row in zip(words, batch):
        assert np.array_equal(row, cond_typical_mask(w, x, tp, outputs))
        assert row.tolist() == [_joint_count_mask(rows, x.tolist(), y.tolist(), tp) for y in outputs]
        x_index = int(x @ w.input_size ** np.arange(tp.n - 1, -1, -1))
        for y, value in zip(outputs.tolist(), product[x_index]):
            plain = 1.0
            for xi, yi in zip(x.tolist(), y):
                plain *= rows[xi][yi]
            assert value == plain
