import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avwc import (
    Channel,
    Distribution,
    TypicalityParams,
    verify_typicality_bounds,
)
from avwc import channels
from avwc.channels import output_law, word_matrix
from avwc.typicality import cond_typical_mask, typical_mask


class TestTypicalSet:
    def test_huge_delta_keeps_support_constraint(self):
        p = Distribution(np.array([0.5, 0.5, 0.0]))
        words = word_matrix(3, 2)
        mask = typical_mask(p, TypicalityParams(2, 1.0), words)
        assert words[mask].tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_uniform_binary_example(self):
        p, tp = Distribution.uniform(2), TypicalityParams(2, 0.25)
        mask = typical_mask(p, tp, word_matrix(2, 2))
        assert word_matrix(2, 2)[mask].tolist() == [[0, 1], [1, 0]]
        # total probability of the set is exactly one half
        assert channels.iid_extension(p, 2).probs[mask].sum() == 0.5

    def test_point_mass(self):
        words = word_matrix(2, 3)
        mask = typical_mask(Distribution.point_mass(2, 1), TypicalityParams(3, 0.1), words)
        assert words[mask].tolist() == [[1, 1, 1]]

    def test_lexicographic_order(self):
        words = word_matrix(2, 4)
        mask = typical_mask(Distribution.uniform(2), TypicalityParams(4, 0.3), words)
        assert words[mask].tolist() == sorted(words[mask].tolist())


class TestCondTypicalSet:
    def test_noiseless_channel(self):
        outputs = word_matrix(2, 3)
        mask = cond_typical_mask(Channel.identity(2), (0, 1, 1), TypicalityParams(3, 0.05), outputs)
        assert outputs[mask].tolist() == [[0, 1, 1]]

    def test_symmetric_half_flip(self):
        outputs = word_matrix(2, 2)
        mask = cond_typical_mask(Channel.bsc(0.5), (0, 0), TypicalityParams(2, 0.25), outputs)
        assert outputs[mask].tolist() == [[0, 1], [1, 0]]

    def test_huge_delta_respects_zero_transitions(self):
        ch = Channel(np.array([[1.0, 0.0], [0.5, 0.5]]))
        outputs = word_matrix(2, 2)
        mask = cond_typical_mask(ch, (0, 1), TypicalityParams(2, 1.0), outputs)
        # first position can only produce output 0
        assert outputs[mask].tolist() == [[0, 0], [0, 1]]

    def test_contained_in_output_typical_set(self):
        """Conditional typicality inside the widened output typical set."""
        rng = np.random.default_rng(41)
        for _ in range(5):
            p = Distribution(rng.dirichlet(np.ones(2)))
            w = Channel(rng.dirichlet(np.ones(2), size=2))
            tp = TypicalityParams(5, 0.15)
            out = Distribution(p.probs @ w.rows)
            outputs = word_matrix(2, 5)
            wide_mask = typical_mask(out, TypicalityParams(5, 2 * 2 * 0.15), outputs)
            in_words = word_matrix(2, 5)
            in_mask = typical_mask(p, tp, in_words)
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
        assert not typical_mask(p, TypicalityParams(3, 0.1), word_matrix(2, 3)).any()
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
    laws = output_law(words[:, None, :], np.broadcast_to(w.rows, (tp.n,) + w.rows.shape))
    rows = w.rows.tolist()
    for x, row, law in zip(words, batch, laws):
        assert np.array_equal(row, cond_typical_mask(w, x, tp, outputs))
        assert row.tolist() == [_joint_count_mask(rows, x.tolist(), y.tolist(), tp) for y in outputs]
        for y, value in zip(outputs.tolist(), law):
            plain = 1.0
            for xi, yi in zip(x.tolist(), y):
                plain *= rows[xi][yi]
            assert value == plain


@pytest.mark.parametrize("n", [4, 7])
def test_lemma_check_does_not_depend_on_the_chunk_budget(monkeypatch, n):
    """One input word per chunk gives the very report that whole batches give."""
    p = Distribution(np.array([0.4, 0.6]))
    w = Channel(np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]))
    tp = TypicalityParams(n, 0.3)
    batched = verify_typicality_bounds(p, w, tp)
    monkeypatch.setattr(channels, "_CHUNK_FLOATS", 1)
    assert dataclasses.astuple(verify_typicality_bounds(p, w, tp)) == dataclasses.astuple(batched)
