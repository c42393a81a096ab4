import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from avwc import (
    AVWC,
    Channel,
    DegenerateRateError,
    Distribution,
    ERASURE,
    ResourceLimitError,
    TypicalityParams,
    WiretapCode,
    build_random_codebook,
    chernoff_bound,
    check_secrecy_events,
    decode_rule,
    error_probability,
    error_under_product_mixture,
    evaluate_code,
    leakage_under_product_mixture,
    worst_state_search,
)
from avwc.coding import codebook_rates
from avwc.typicality import typical_set


def binary_entropy(x):
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def make_code(codewords, input_size, output_size, decoder=None):
    codewords = np.asarray(codewords, dtype=int)
    n = codewords.shape[2]
    if decoder is None:
        decoder = np.full(output_size**n, ERASURE)
    return WiretapCode(
        n=n,
        input_size=input_size,
        output_size=output_size,
        codewords=codewords,
        decoder=np.asarray(decoder, dtype=int),
    )


@pytest.fixture
def repetition_code_avwc():
    """n=4 antipodal-ish code over a two-state main family, constant eavesdropper."""
    avwc = AVWC(
        main=(Channel.bsc(0.05), Channel.bsc(0.10)),
        eaves=(Channel.bsc(0.4), Channel.bsc(0.4)),
    )
    codewords = [[[0, 0, 0, 0], [0, 0, 0, 1]], [[1, 1, 1, 0], [1, 1, 1, 1]]]
    code = make_code(codewords, 2, 2)
    code = replace(code, decoder=decode_rule(code, avwc, TypicalityParams(4, 0.3)))
    return code, avwc


class TestCodebookRates:
    def test_rate_arithmetic_matches_closed_form(self):
        avwc = AVWC(main=(Channel.bsc(0.05),), eaves=(Channel.bsc(0.45),))
        p = Distribution.uniform(2)
        j_count, l_count, j_exp, l_exp = codebook_rates(p, avwc, 8, 0.1)
        i_main = 1.0 - binary_entropy(0.05)
        i_eaves = 1.0 - binary_entropy(0.45)
        assert j_exp == pytest.approx(8 * (i_main - i_eaves - 0.1), abs=1e-9)
        assert l_exp == pytest.approx(8 * (i_eaves + 0.025), abs=1e-9)
        assert j_count == math.floor(2.0 ** (8 * (i_main - i_eaves - 0.1)))
        assert l_count == math.floor(2.0 ** (8 * (i_eaves + 0.025)))

    def test_oversized_tau_raises_with_exponent(self):
        avwc = AVWC(main=(Channel.bsc(0.05),), eaves=(Channel.bsc(0.45),))
        with pytest.raises(DegenerateRateError) as err:
            build_random_codebook(Distribution.uniform(2), avwc, 8, tau=0.9, seed=0)
        assert err.value.exponent < 0

    def test_empty_typical_set_with_explicit_counts_raises(self, degraded_two_state_avwc):
        p = Distribution(np.array([0.3, 0.7]))
        with pytest.raises(DegenerateRateError, match="typical set") as err:
            build_random_codebook(
                p, degraded_two_state_avwc, 1, tau=0.1, seed=0, delta=0.1, j_count=2, l_count=2
            )
        assert err.value.exponent is None

    def test_point_mass_input_gives_constant_codewords(self):
        avwc = AVWC(main=(Channel.bsc(0.0),), eaves=(Channel.bsc(0.5),))
        code = build_random_codebook(
            Distribution.point_mass(2, 1), avwc, 4, tau=0.2, seed=1, delta=0.1,
            j_count=2, l_count=3,
        )
        assert np.all(code.codewords == 1)

    def test_seed_reproducibility(self):
        avwc = AVWC(main=(Channel.bsc(0.05),), eaves=(Channel.bsc(0.45),))
        a = build_random_codebook(Distribution.uniform(2), avwc, 6, 0.2, seed=9, delta=0.3)
        b = build_random_codebook(Distribution.uniform(2), avwc, 6, 0.2, seed=9, delta=0.3)
        assert np.array_equal(a.codewords, b.codewords)
        assert np.array_equal(a.decoder, b.decoder)

    def test_codewords_drawn_from_typical_set(self):
        avwc = AVWC(main=(Channel.bsc(0.05),), eaves=(Channel.bsc(0.45),))
        p = Distribution(np.array([0.3, 0.7]))
        code = build_random_codebook(p, avwc, 6, 0.15, seed=4, delta=0.2)
        allowed = set(typical_set(p, TypicalityParams(6, 0.2)))
        for word in code.codewords.reshape(-1, 6):
            assert tuple(word) in allowed


class TestDecodeRule:
    def test_noiseless_distinct_codewords_decode_themselves(self):
        avwc = AVWC(main=(Channel.identity(2),), eaves=(Channel.bsc(0.5),))
        code = make_code([[[0, 0, 1]], [[1, 1, 0]]], 2, 2)
        decoder = decode_rule(code, avwc, TypicalityParams(3, 0.1))
        code = replace(code, decoder=decoder)
        assert error_probability(code, avwc, (0, 0, 0)) == 0.0

    def test_identical_codewords_erase_everything(self):
        avwc = AVWC(main=(Channel.bsc(0.1),), eaves=(Channel.bsc(0.4),))
        code = make_code([[[0, 1]], [[0, 1]]], 2, 2)
        decoder = decode_rule(code, avwc, TypicalityParams(2, 0.3))
        assert np.all(decoder == ERASURE)

    def test_separated_codewords_low_error(self):
        avwc = AVWC(main=(Channel.bsc(0.05),), eaves=(Channel.bsc(0.4),))
        code = make_code([[[0] * 8], [[1] * 8]], 2, 2)
        code = replace(code, decoder=decode_rule(code, avwc, TypicalityParams(8, 0.2)))
        assert error_probability(code, avwc, (0,) * 8) < 0.1


class TestEvaluateCode:
    def test_uninformative_eavesdropper_leaks_nothing(self):
        flat = Channel(np.array([[0.5, 0.5], [0.5, 0.5]]))
        avwc = AVWC(main=(Channel.identity(2),), eaves=(flat,))
        code = make_code([[[0, 0]], [[1, 1]]], 2, 2, decoder=[0, ERASURE, ERASURE, 1])
        report = evaluate_code(code, avwc)
        assert report.worst_leakage_bits == 0.0

    def test_identity_eavesdropper_leaks_all_messages(self):
        avwc = AVWC(main=(Channel.identity(2),), eaves=(Channel.identity(2),))
        code = make_code([[[0, 0]], [[0, 1]], [[1, 0]], [[1, 1]]], 2, 2, decoder=[0, 1, 2, 3])
        report = evaluate_code(code, avwc)
        assert report.worst_leakage_bits == pytest.approx(2.0, abs=1e-12)

    def test_worst_sequence_prefers_noisier_state(self):
        avwc = AVWC(
            main=(Channel.identity(2), Channel.bsc(0.3)),
            eaves=(Channel.bsc(0.5), Channel.bsc(0.5)),
        )
        code = make_code([[[0, 0, 0]], [[1, 1, 1]]], 2, 2)
        code = replace(code, decoder=decode_rule(code, avwc, TypicalityParams(3, 0.34)))
        report = evaluate_code(code, avwc)
        assert report.worst_state_sequence.symbols == (1, 1, 1)

    def test_sampled_error_close_to_exact(self):
        avwc = AVWC(main=(Channel.bsc(0.1),), eaves=(Channel.bsc(0.4),))
        code = make_code([[[0] * 4], [[1] * 4]], 2, 2)
        code = replace(code, decoder=decode_rule(code, avwc, TypicalityParams(4, 0.3)))
        exact = evaluate_code(code, avwc, objectives=("error",))
        sampled = evaluate_code(
            code, avwc, mode="sampled", objectives=("error",), samples=4000, seed=11
        )
        sigma = math.sqrt(exact.worst_state_error * (1 - exact.worst_state_error) / 4000)
        assert abs(sampled.worst_state_error - exact.worst_state_error) <= 4 * sigma + 1e-9

    def test_leakage_refused_when_too_big_instead_of_sampled(self, monkeypatch):
        avwc = AVWC(main=(Channel.bsc(0.1),), eaves=(Channel.bsc(0.4),))
        code = make_code([[[0] * 4], [[1] * 4]], 2, 2)
        monkeypatch.setenv("AVWC_ENUM_CAP", "30")
        with pytest.raises(ResourceLimitError, match="leakage"):
            evaluate_code(code, avwc, mode="sampled")


class TestWorstStateSearch:
    def test_single_state(self):
        avwc = AVWC(main=(Channel.bsc(0.1),), eaves=(Channel.bsc(0.4),))
        code = make_code([[[0, 0]], [[1, 1]]], 2, 2, decoder=[0, ERASURE, ERASURE, 1])
        seq, value = worst_state_search(code, avwc, "error", "exhaustive")
        assert seq.symbols == (0, 0)

    def test_noisy_state_dominates(self):
        avwc = AVWC(
            main=(Channel.identity(2), Channel.bsc(0.3)),
            eaves=(Channel.bsc(0.5), Channel.bsc(0.5)),
        )
        code = make_code([[[0, 0, 0]], [[1, 1, 1]]], 2, 2)
        code = replace(code, decoder=decode_rule(code, avwc, TypicalityParams(3, 0.34)))
        seq, _ = worst_state_search(code, avwc, "error", "exhaustive")
        assert seq.symbols == (1, 1, 1)

    def test_greedy_lower_bounds_exhaustive(self, repetition_code_avwc):
        code, avwc = repetition_code_avwc
        for objective in ("error", "leakage"):
            _, exact = worst_state_search(code, avwc, objective, "exhaustive")
            _, greedy = worst_state_search(code, avwc, objective, "greedy")
            assert greedy <= exact + 1e-12


class TestMixtureDominance:
    def test_error_and_leakage_dominated_by_worst_sequence(self, repetition_code_avwc):
        code, avwc = repetition_code_avwc
        per_letter = [
            Distribution.point_mass(2, 0),
            Distribution.point_mass(2, 1),
            Distribution.uniform(2),
            Distribution(np.array([0.25, 0.75])),
        ]
        report = evaluate_code(code, avwc, keep_table=True)
        max_err = report.worst_state_error
        max_leak = report.worst_leakage_bits
        grid_leak_max = -1.0
        vertex_leak_max = -1.0
        for combo in itertools.product(per_letter, repeat=code.n):
            err = error_under_product_mixture(code, avwc, list(combo))
            leak = leakage_under_product_mixture(code, avwc, list(combo))
            assert err <= max_err + 1e-12
            assert leak <= max_leak + 1e-9
            grid_leak_max = max(grid_leak_max, leak)
            if all(max(q.probs) == 1.0 for q in combo):
                vertex_leak_max = max(vertex_leak_max, leak)
        # the grid maximum is attained at a vertex (a point-mass combination)
        assert grid_leak_max <= vertex_leak_max + 1e-9


class TestChernoffBound:
    def test_small_epsilon_approaches_two(self):
        assert chernoff_bound(10, 1e-6, 0.5) == pytest.approx(2.0, abs=1e-9)

    def test_direct_arithmetic(self):
        assert chernoff_bound(1000, 0.1, 0.5) == pytest.approx(2.0 * math.exp(-5.0 / 3.0), abs=1e-12)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            chernoff_bound(10, 0.6, 0.5)
        with pytest.raises(ValueError):
            chernoff_bound(10, 0.1, 0.0)

    def test_monte_carlo_respects_bound(self):
        rng = np.random.default_rng(77)
        for l_count, eps, mu in ((100, 0.2, 0.5), (1000, 0.1, 0.3)):
            sums = rng.binomial(l_count, mu, size=100_000)
            deviations = np.abs(sums / l_count - mu) > eps * mu
            frequency = float(np.mean(deviations))
            assert frequency <= min(1.0, chernoff_bound(l_count, eps, mu))


class TestSecrecyEvents:
    def test_saturated_codebook_has_zero_deviation(self):
        """Using the whole typical set as one message's codewords reproduces the reference."""
        avwc = AVWC(main=(Channel.bsc(0.05),), eaves=(Channel.bsc(0.3),))
        p = Distribution.uniform(2)
        tp = TypicalityParams(6, 0.2)
        words = typical_set(p, tp)
        codewords = np.array(words).reshape(1, len(words), 6)
        code = make_code(codewords, 2, 2)
        report = check_secrecy_events(code, avwc, tp, p=p)
        assert report.all_hold
        assert max(item[3] for item in report.per_message) <= 1e-12

    def test_single_repeated_codeword(self):
        """A constant codebook matches the band exactly when its own density does."""
        avwc = AVWC(main=(Channel.bsc(0.05),), eaves=(Channel.bsc(0.3),))
        p = Distribution.uniform(2)
        tp = TypicalityParams(4, 0.3)
        word = (0, 1, 0, 1)
        codewords = np.array([[word, word]])
        code = make_code(codewords, 2, 2)
        report = check_secrecy_events(code, avwc, tp, p=p)
        # degenerate average: the event reduces to that single word's density
        for j, q_index, holds, deviation in report.per_message:
            assert holds == (deviation <= report.epsilon + 1e-12)

    def test_random_codebook_failure_rate_within_bound(self):
        avwc = AVWC(main=(Channel.bsc(0.05),), eaves=(Channel.bsc(0.45),))
        p = Distribution.uniform(2)
        tp = TypicalityParams(8, 0.2)
        from avwc.coding import secrecy_event_failure_bound
        from avwc.information import mi_from_arrays

        failures = 0
        trials = 0
        l_count = None
        for seed in range(10):
            code = build_random_codebook(p, avwc, 8, tau=0.1, seed=seed, delta=0.2)
            l_count = code.l_count
            report = check_secrecy_events(code, avwc, tp, p=p)
            for _, _, holds, _ in report.per_message:
                trials += 1
                failures += 0 if holds else 1
        bound = secrecy_event_failure_bound(
            l_count, 8, 2, mi_from_arrays(p.probs, avwc.eaves_stack[0]), 0.2, 2
        )
        assert failures / trials <= min(1.0, bound)

    def test_requires_design_distribution(self):
        avwc = AVWC(main=(Channel.bsc(0.05),), eaves=(Channel.bsc(0.3),))
        code = make_code([[[0, 1]], [[1, 0]]], 2, 2)
        with pytest.raises(ValueError, match="design input distribution"):
            check_secrecy_events(code, avwc, TypicalityParams(2, 0.3))


def test_decode_rule_accepts_custom_mixture_grid():
    avwc = AVWC(
        main=(Channel.bsc(0.05), Channel.bsc(0.10)),
        eaves=(Channel.bsc(0.4), Channel.bsc(0.4)),
    )
    code = make_code([[[0, 0, 0]], [[1, 1, 1]]], 2, 2)
    fine = [Distribution(np.array([1 - t, t])) for t in np.linspace(0, 1, 9)]
    coarse_decoder = decode_rule(code, avwc, TypicalityParams(3, 0.3))
    fine_decoder = decode_rule(code, avwc, TypicalityParams(3, 0.3), q_grid=fine)
    # a finer grid can only widen each message's claimed region before exclusion
    for y in range(8):
        if coarse_decoder[y] != ERASURE and fine_decoder[y] != ERASURE:
            assert coarse_decoder[y] == fine_decoder[y]
