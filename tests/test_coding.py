import dataclasses
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    eliminate_randomness,
    error_probability,
    error_under_product_mixture,
    evaluate_code,
    leakage_under_product_mixture,
)
from avwc import channels
from avwc.coding import RandomCode, codebook_rates, output_law, sequence_table
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
        report = evaluate_code(code, avwc, objectives=("error",))
        assert report.worst_state_sequence.symbols == (0, 0)

    def test_noisy_state_dominates(self):
        avwc = AVWC(
            main=(Channel.identity(2), Channel.bsc(0.3)),
            eaves=(Channel.bsc(0.5), Channel.bsc(0.5)),
        )
        code = make_code([[[0, 0, 0]], [[1, 1, 1]]], 2, 2)
        code = replace(code, decoder=decode_rule(code, avwc, TypicalityParams(3, 0.34)))
        report = evaluate_code(code, avwc, objectives=("error",))
        assert report.worst_state_sequence.symbols == (1, 1, 1)


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


def test_tied_maxima_report_the_lexicographically_first_sequence():
    """Positions 0 and 2 carry no information about J, so every maximum ties across their states.

    The tied values differ by roundoff only; each check must report the first
    tied sequence in lexicographic order, with its own value.
    """
    family = (Channel.bsc(0.1), Channel.bsc(0.05), Channel.bsc(0.4))
    avwc = AVWC(main=family, eaves=family)
    code = make_code([[[0, 0, 0]], [[0, 1, 0]]], 2, 2, decoder=[0, 0, 1, 1, 0, 0, 1, 1])
    table = sequence_table(code, avwc)
    for name in ("error", "leakage"):
        assert np.sum(table[name] >= table[name].max() - 1e-12) == 9  # s[0] and s[2] free

    report = evaluate_code(code, avwc)
    assert report.worst_state_sequence.symbols == (0, 2, 0)  # the noisiest state at position 1
    assert report.worst_leakage_sequence.symbols == (0, 1, 0)  # the cleanest state at position 1
    assert report.worst_state_error == table["error"][6]
    assert report.worst_leakage_bits == table["leakage"][3]
    for objective, expected in (("error", (0, 2, 0)), ("leakage", (0, 1, 0))):
        single = evaluate_code(code, avwc, objectives=(objective,))
        if objective == "error":
            seq, value = single.worst_state_sequence, single.worst_state_error
        else:
            seq, value = single.worst_leakage_sequence, single.worst_leakage_bits
        assert seq.symbols == expected
        assert value == table[objective][int(np.ravel_multi_index(expected, (3, 3, 3)))]

    # identical members: the prefix state matters for the error only, never for the payload leakage
    rc = RandomCode(members=[code, code], origin="explicit")
    elim = eliminate_randomness(rc, avwc, prefix_len=1).report
    assert elim.worst_error_sequence == (2, 0, 2, 0)
    assert elim.worst_leakage_sequence == (0, 0, 1, 0)


def test_secrecy_events_do_not_depend_on_the_chunk_budget(monkeypatch):
    """One typical input word per chunk gives the very report that whole batches give."""
    avwc = AVWC(
        main=(Channel.bsc(0.05), Channel.bsc(0.1)),
        eaves=(Channel(np.array([[0.6, 0.4, 0.0], [0.1, 0.3, 0.6]])), Channel(np.full((2, 3), 1 / 3))),
    )
    code = build_random_codebook(
        Distribution.uniform(2), avwc, 6, tau=0.05, seed=3, delta=0.3, j_count=2, l_count=3
    )
    tp = TypicalityParams(6, 0.3)
    batched = check_secrecy_events(code, avwc, tp, epsilon=0.2)
    monkeypatch.setattr(channels, "_CHUNK_FLOATS", 1)
    assert dataclasses.astuple(check_secrecy_events(code, avwc, tp, epsilon=0.2)) == dataclasses.astuple(batched)


def _broadcast_product_output_law(codewords, channels):
    """output_law as one broadcast product per position, the |B| symbols of each row innermost."""
    j_count, l_count, n = codewords.shape
    words = codewords.reshape(j_count * l_count, n)
    batch = channels.shape[:-3]
    rows = channels[..., np.arange(n), words, :]
    law = np.ones(batch + (len(words), 1))
    for i in range(n):
        law = (law[..., None] * rows[..., i, None, :]).reshape(batch + (len(words), -1))
    return law.reshape(batch + (j_count, l_count, -1)).mean(axis=-2)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 5),
    a=st.integers(2, 3),
    b=st.integers(2, 3),
    j_count=st.integers(1, 3),
    l_count=st.integers(1, 3),
    batch=st.sampled_from([(), (3,), (2, 2)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_output_law_is_bit_identical_to_the_broadcast_product(n, a, b, j_count, l_count, batch, seed):
    """One multiply per output symbol gives the same products in the same order: equal bit for bit."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 3, size=batch + (n, a, b)).astype(float)  # exact zeros are common
    rows[..., 0] += rows.sum(axis=-1) == 0
    stacks = rows / rows.sum(axis=-1, keepdims=True)
    codewords = rng.integers(0, a, size=(j_count, l_count, n))
    got = output_law(codewords, stacks)
    want = _broadcast_product_output_law(codewords, stacks)
    assert got.shape == batch + (j_count, b**n)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
