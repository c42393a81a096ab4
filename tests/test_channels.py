import itertools

import numpy as np
import pytest

from avwc import (
    AVWC,
    Channel,
    Distribution,
    ResourceLimitError,
    StateSequence,
    iid_extension,
    index_to_word,
    mixture_channel,
)
from avwc.channels import output_law, word_matrix

from conftest import random_channel


class TestDistribution:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="negative"):
            Distribution(np.array([1.1, -0.1]))

    def test_rejects_bad_sum_without_renormalizing(self):
        with pytest.raises(ValueError, match="sum"):
            Distribution(np.array([0.6, 0.5]))

    def test_sum_tolerance_is_tight(self):
        Distribution(np.array([0.5, 0.5 + 9e-10]))
        with pytest.raises(ValueError):
            Distribution(np.array([0.5, 0.5 + 2e-9]))

    def test_immutable(self):
        d = Distribution.uniform(3)
        with pytest.raises(ValueError):
            d.probs[0] = 1.0


class TestChannel:
    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValueError, match="row 1"):
            Channel(np.array([[0.5, 0.5], [0.5, 0.51]]))

    def test_bsc(self):
        ch = Channel.bsc(0.2)
        assert ch.rows[0, 1] == pytest.approx(0.2)
        assert ch.input_size == ch.output_size == 2

    def test_compose(self):
        # cascading two binary symmetric channels adds crossover odds
        composed = Channel.bsc(0.1).compose(Channel.bsc(0.25))
        expected = 0.1 * 0.75 + 0.9 * 0.25
        assert composed.rows[0, 1] == pytest.approx(expected)


class TestAVWC:
    def test_rejects_family_length_mismatch(self):
        with pytest.raises(ValueError, match="equal nonzero length"):
            AVWC(main=(Channel.bsc(0.1),), eaves=())

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="disagree"):
            AVWC(
                main=(Channel.bsc(0.1), Channel.identity(3)),
                eaves=(Channel.bsc(0.2), Channel.bsc(0.2)),
            )

    def test_state_sequence_bounds(self):
        with pytest.raises(ValueError, match="outside"):
            StateSequence((0, 2), state_count=2)


class TestWordEnumeration:
    def test_lexicographic_round_trip(self):
        for idx, row in enumerate(word_matrix(3, 3)):
            assert index_to_word(idx, 3, 3) == tuple(row)

    def test_word_matrix_order(self):
        words = word_matrix(2, 3)
        assert words.tolist()[:3] == [[0, 0, 0], [0, 0, 1], [0, 1, 0]]


class TestMixtureChannel:
    def test_point_mass_returns_vertex(self):
        w0, w1 = Channel.bsc(0.1), Channel.bsc(0.3)
        mixed = mixture_channel([w0, w1], Distribution.point_mass(2, 0))
        assert mixed.allclose(w0)

    def test_bsc_mixture_is_affine_in_crossover(self):
        mixed = mixture_channel(
            [Channel.bsc(0.1), Channel.bsc(0.3)], Distribution(np.array([0.5, 0.5]))
        )
        assert mixed.allclose(Channel.bsc(0.2))

    def test_entrywise_combination(self):
        rng = np.random.default_rng(0)
        w0 = random_channel(rng, 2, 2)
        w1 = random_channel(rng, 2, 2)
        mixed = mixture_channel([w0, w1], Distribution(np.array([0.25, 0.75])))
        assert np.allclose(mixed.rows, 0.25 * w0.rows + 0.75 * w1.rows, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mixture_channel([Channel.bsc(0.1)], Distribution.uniform(2))

    def test_affine_in_weights(self):
        rng = np.random.default_rng(1)
        family = [random_channel(rng, 2, 3) for _ in range(3)]
        q0 = Distribution(rng.dirichlet(np.ones(3)))
        q1 = Distribution(rng.dirichlet(np.ones(3)))
        for lam in (0.0, 0.25, 0.5, 1.0):
            blended = Distribution(lam * q0.probs + (1 - lam) * q1.probs)
            direct = mixture_channel(family, blended)
            combined = lam * mixture_channel(family, q0).rows + (1 - lam) * mixture_channel(
                family, q1
            ).rows
            assert np.max(np.abs(direct.rows - combined)) <= 1e-12


class TestProductChannel:
    """W^n(. | x, s) is ``output_law`` of the one codeword x under the stack of the W_{s_i}."""

    def test_single_letter(self):
        stack = np.stack([Channel.bsc(0.1).rows, Channel.bsc(0.3).rows])
        law = output_law(np.array([[[0]]]), stack[[1]])
        assert law[0] == pytest.approx([0.7, 0.3])

    def test_noiseless_identity(self):
        law = output_law(np.array([[[1, 0, 1]]]), np.stack([np.eye(2)] * 3))
        assert np.array_equal(law[0], np.eye(8)[0b101])

    def test_hand_multiplication(self):
        stack = np.stack([Channel.bsc(0.1).rows] * 2)
        law = output_law(np.array([[[0, 0]]]), stack[[0, 1]])
        assert law[0] == pytest.approx([0.9 * 0.9, 0.9 * 0.1, 0.1 * 0.9, 0.1 * 0.1])

    def test_rows_sum_to_one_over_outputs(self):
        rng = np.random.default_rng(2)
        stack = np.stack([random_channel(rng, 2, 3).rows for _ in range(2)])
        inputs = word_matrix(2, 3)[:, None, :]  # every x^3 as a one-codeword message
        for seq in itertools.product(range(2), repeat=3):
            law = output_law(inputs, stack[list(seq)])
            assert law.shape == (8, 27)
            assert np.allclose(law.sum(axis=1), 1.0, rtol=0.0, atol=1e-9)


class TestIIDExtension:
    def test_point_mass(self):
        ext = iid_extension(Distribution.point_mass(2, 1), 3)
        expected = np.zeros(8)
        expected[7] = 1.0
        assert np.allclose(ext.probs, expected)

    def test_uniform(self):
        ext = iid_extension(Distribution.uniform(2), 2)
        assert np.allclose(ext.probs, 0.25)

    def test_lexicographic_product(self):
        ext = iid_extension(Distribution(np.array([0.3, 0.7])), 2)
        assert np.allclose(ext.probs, [0.09, 0.21, 0.21, 0.49], atol=1e-15)

    def test_resource_limit(self, monkeypatch):
        monkeypatch.setenv("AVWC_ENUM_CAP", "100")
        with pytest.raises(ResourceLimitError):
            iid_extension(Distribution.uniform(2), 10)


def test_mixture_of_products_equals_product_of_mixture():
    """State-averaging commutes with taking n-fold products under an i.i.d. law."""
    rng = np.random.default_rng(3)
    family = [random_channel(rng, 2, 2) for _ in range(2)]
    stack = np.stack([ch.rows for ch in family])
    q = Distribution(np.array([0.35, 0.65]))
    for n in range(1, 5):
        ext = iid_extension(q, n)
        inputs = word_matrix(2, n)[:, None, :]
        # one product law per state sequence, in the extension's lexicographic order
        averaged = np.tensordot(ext.probs, output_law(inputs, stack[word_matrix(2, n)]), axes=1)
        mixed = mixture_channel(family, q).rows
        direct = output_law(inputs, np.broadcast_to(mixed, (n,) + mixed.shape))
        assert np.max(np.abs(averaged - direct)) <= 1e-9


def test_decoding_probability_never_exceeds_one():
    """Disjoint decoding sets: total decode probability is at most one, exactly."""
    from avwc import WiretapCode, error_probability

    avwc = AVWC(main=(Channel.bsc(0.2), Channel.bsc(0.3)), eaves=(Channel.bsc(0.4), Channel.bsc(0.4)))
    code = WiretapCode(
        n=2, input_size=2, output_size=2,
        codewords=np.array([[[0, 0]], [[1, 1]]]),
        decoder=np.array([0, 0, 1, 1]),
    )
    for seq in itertools.product(range(2), repeat=2):
        law = output_law(code.codewords, avwc.main_stack[list(seq)])  # p(y | j), one row per message
        assert law.sum(axis=1).max() <= 1.0 + 1e-12
        assert 0.0 <= error_probability(code, avwc, seq) <= 1.0
