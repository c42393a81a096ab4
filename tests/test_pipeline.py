import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avwc import (
    AVWC,
    Channel,
    Distribution,
    ERASURE,
    PrefixSearchFailureError,
    ReductionFailureError,
    ResourceLimitError,
    TypicalityParams,
    WiretapCode,
    decode_rule,
    eliminate_randomness,
    error_probability,
    evaluate_code,
    leakage_bits,
    leakage_under_product_mixture,
    permutation_mean_error,
    reduce_random_code,
    robustify,
    search_prefix_code,
    verify_robustification,
)
from avwc import channels, coding, pipeline
from avwc.channels import index_to_word
from avwc.coding import RandomCode, first_maximum, sequence_table
from avwc.pipeline import PermutationFamily, type_class_sequences

import bruteforce_reference as brute


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
def pipeline_avwc():
    return AVWC(
        main=(Channel.bsc(0.05), Channel.bsc(0.10)),
        eaves=(Channel.bsc(0.4), Channel.bsc(0.4)),
    )


@pytest.fixture
def pipeline_code(pipeline_avwc):
    codewords = [[[0, 0, 0, 0], [0, 0, 0, 1]], [[1, 1, 1, 0], [1, 1, 1, 1]]]
    code = make_code(codewords, 2, 2)
    return replace(code, decoder=decode_rule(code, pipeline_avwc, TypicalityParams(4, 0.3)))


class TestPermutationFamily:
    def test_member_error_equals_base_at_permuted_sequence(self, pipeline_avwc, pipeline_code):
        """The defining identity of the permutation construction."""
        family = PermutationFamily(pipeline_code)
        rng = np.random.default_rng(61)
        for index in rng.integers(0, len(family), size=6):
            sigma = family.permutation(int(index))
            member = family[int(index)]
            for s in ((0, 1, 1, 0), (1, 0, 0, 0), (0, 0, 1, 1)):
                permuted = tuple(s[i] for i in sigma)
                assert error_probability(member, pipeline_avwc, s) == pytest.approx(
                    error_probability(pipeline_code, pipeline_avwc, permuted), abs=1e-14
                )
                assert leakage_bits(member, pipeline_avwc, s) == pytest.approx(
                    leakage_bits(pipeline_code, pipeline_avwc, permuted), abs=1e-14
                )

    def test_permutation_unranking_follows_itertools_order(self):
        code = make_code([[[0, 1, 0, 1]]], 2, 2)
        family = PermutationFamily(code)
        listed = list(itertools.permutations(range(4)))
        assert len(family) == len(listed)
        assert [family.permutation(i) for i in range(len(family))] == listed
        assert family.permutation(-1) == listed[-1]
        with pytest.raises(IndexError):
            family.permutation(len(listed))

    def test_trivial_family_at_n1(self):
        avwc = AVWC(main=(Channel.bsc(0.1),), eaves=(Channel.bsc(0.4),))
        code = make_code([[[0]], [[1]]], 2, 2, decoder=[0, 1])
        family = robustify(code, avwc)
        assert family.member_count() == 1
        member = family.members[0]
        assert np.array_equal(member.codewords, code.codewords)
        assert np.array_equal(member.decoder, code.decoder)

    def test_constant_composition_members_share_reports(self, pipeline_avwc):
        """Constant codewords are fixed points, so every member evaluates identically."""
        code = make_code([[[0, 0, 0]], [[1, 1, 1]]], 2, 2)
        code = replace(code, decoder=decode_rule(code, pipeline_avwc, TypicalityParams(3, 0.3)))
        family = robustify(code, pipeline_avwc)
        base = evaluate_code(code, pipeline_avwc, keep_table=True)
        for member in family.members:
            rep = evaluate_code(member, pipeline_avwc, keep_table=True)
            for (s1, e1, l1), (s2, e2, l2) in zip(base.per_sequence, rep.per_sequence):
                assert e1 == pytest.approx(e2, abs=1e-12)
                assert l1 == pytest.approx(l2, abs=1e-12)

    def test_mean_error_type_weights_match_explicit(self, pipeline_avwc, pipeline_code):
        for s in itertools.product(range(2), repeat=4):
            explicit = permutation_mean_error(pipeline_code, pipeline_avwc, s, method="explicit")
            typed = permutation_mean_error(pipeline_code, pipeline_avwc, s, method="type")
            assert abs(explicit - typed) <= 1e-12

    def test_leakage_invariant_across_members_under_iid_eavesdropper(
        self, pipeline_avwc, pipeline_code
    ):
        family = PermutationFamily(pipeline_code)
        weights = [
            Distribution.point_mass(2, 0),
            Distribution.point_mass(2, 1),
            Distribution.uniform(2),
            Distribution(np.array([0.3, 0.7])),
        ]
        for q in weights:
            base_leak = leakage_under_product_mixture(pipeline_code, pipeline_avwc, [q] * 4)
            for index in range(len(family)):
                member = family[index]
                member_leak = leakage_under_product_mixture(member, pipeline_avwc, [q] * 4)
                assert abs(member_leak - base_leak) <= 1e-9


class TestVerifyRobustification:
    def test_real_code_has_nonnegative_slack(self, pipeline_avwc, pipeline_code):
        report = verify_robustification(pipeline_code, pipeline_avwc)
        assert report.passed
        assert len(report.per_sequence) == 16
        assert report.min_slack >= 0.0

    def test_perfect_code_gives_gamma_zero(self):
        avwc = AVWC(main=(Channel.identity(2), Channel.identity(2)), eaves=(Channel.bsc(0.5), Channel.bsc(0.5)))
        code = make_code([[[0, 0]], [[1, 1]]], 2, 2, decoder=[0, ERASURE, ERASURE, 1])
        report = verify_robustification(code, avwc)
        assert report.gamma == 0.0
        # success is identically one, so the averaged success is too
        assert all(avg == pytest.approx(1.0) for _, avg, _ in report.per_sequence)

    def test_constant_success_profile(self, pipeline_avwc):
        """When success is flat over sequences the inequality is immediate."""
        code = make_code([[[0, 1]], [[1, 0]]], 2, 2)
        code = replace(code, decoder=decode_rule(code, pipeline_avwc, TypicalityParams(2, 0.6)))
        report = verify_robustification(code, pipeline_avwc)
        assert report.passed


class TestReduceRandomCode:
    def test_identical_members_reduce_trivially(self, pipeline_avwc):
        code = make_code([[[0, 0]], [[1, 1]]], 2, 2, decoder=[0, ERASURE, ERASURE, 1])
        rc_members = [code, code, code]
        from avwc.coding import RandomCode

        rc = RandomCode(members=rc_members, origin="explicit")
        worst_err = max(
            error_probability(code, pipeline_avwc, s) for s in itertools.product(range(2), repeat=2)
        )
        reduced = reduce_random_code(rc, pipeline_avwc, k_count=4, epsilon=worst_err + 0.05, seed=3)
        assert reduced.verification.success
        assert reduced.verification.worst_mean_error == pytest.approx(worst_err, abs=1e-12)

    def test_full_family_preset_matches_family_means(self, pipeline_avwc, pipeline_code):
        family = robustify(pipeline_code, pipeline_avwc)
        reduced = reduce_random_code(family, pipeline_avwc, k_count=8, epsilon=0.3, seed=5)
        assert reduced.verification.success
        assert reduced.origin == "reduced"
        assert reduced.member_count() == 8
        # reported means are reproduced by direct recomputation over members
        for s in ((0, 0, 1, 1), (1, 1, 1, 1)):
            mean_err = np.mean([error_probability(m, pipeline_avwc, s) for m in reduced.members])
            assert mean_err <= reduced.verification.epsilon + 1e-12

    def test_reduction_criteria_hold_for_every_sequence(self, pipeline_avwc, pipeline_code):
        family = robustify(pipeline_code, pipeline_avwc)
        reduced = reduce_random_code(family, pipeline_avwc, k_count=8, epsilon=0.25, seed=7)
        for s in itertools.product(range(2), repeat=4):
            mean_err = np.mean([error_probability(m, pipeline_avwc, s) for m in reduced.members])
            mean_leak = np.mean([leakage_bits(m, pipeline_avwc, s) for m in reduced.members])
            assert mean_err <= 0.25 + 1e-12
            assert mean_leak <= 0.25 + 1e-12

    def test_gathered_member_tables_match_direct_evaluation(self):
        """A family member's tables read off the base tables equal evaluating the member.

        Random channels and decoder make the tables asymmetric, so a member
        gathered at the wrong permutation (say sigma's inverse) changes the
        worst mean error of the draw.
        """
        rng = np.random.default_rng(4)
        avwc = AVWC(
            main=tuple(Channel(rng.dirichlet(np.ones(2), size=2)) for _ in range(2)),
            eaves=tuple(Channel(rng.dirichlet(np.ones(2), size=2)) for _ in range(2)),
        )
        code = make_code(rng.integers(0, 2, size=(2, 2, 4)), 2, 2, decoder=rng.integers(-1, 2, size=16))
        family = robustify(code, avwc)
        explicit = RandomCode(members=list(family.members), origin="explicit")
        for seed in (2, 5, 7):
            gathered = reduce_random_code(family, avwc, k_count=3, epsilon=1.0, seed=seed)
            direct = reduce_random_code(explicit, avwc, k_count=3, epsilon=1.0, seed=seed)
            for a, b in zip(gathered.members, direct.members):
                assert np.array_equal(a.codewords, b.codewords)
                assert np.array_equal(a.decoder, b.decoder)
            for field in ("worst_mean_error", "worst_mean_leakage"):
                got = getattr(gathered.verification, field)
                assert got == pytest.approx(getattr(direct.verification, field), abs=1e-12)

    def test_impossible_epsilon_fails_with_diagnostics(self, pipeline_avwc, pipeline_code):
        family = robustify(pipeline_code, pipeline_avwc)
        with pytest.raises(ReductionFailureError) as err:
            reduce_random_code(family, pipeline_avwc, k_count=4, epsilon=1e-6, seed=1)
        assert "attempts" in err.value.diagnostics

    def test_default_count_sizes_the_family(self, pipeline_avwc, pipeline_code):
        from avwc.pipeline import reduction_count

        family = robustify(pipeline_code, pipeline_avwc)
        reduced = reduce_random_code(family, pipeline_avwc, epsilon=0.3, seed=2)
        k = reduction_count(4, 2, 2, 0.3)
        assert reduced.verification.success
        assert reduced.verification.k_count == k == reduced.member_count()

    def test_default_count_formula(self):
        from avwc.pipeline import reduction_count

        # 2 * 4 * 1 * (1 + 4 * 1) / 0.25 = 160, strict inequality wants one more
        assert reduction_count(4, 2, 2, 0.25) == 161


class TestPrefixSearch:
    def test_small_exhaustive_search(self, pipeline_avwc):
        for k_count, prefix_len in ((4, 3), (1, 0), (4, 6), (5, 5)):
            prefix = search_prefix_code(pipeline_avwc, k_count, prefix_len)
            assert prefix.codewords.shape == (k_count, prefix_len)
            assert len({tuple(w) for w in prefix.codewords}) == k_count
            assert prefix.decoder.shape == (2**prefix_len,)
            reference = brute.prefix_words(2, k_count, prefix_len, pipeline._SUBSET_CAP)
            assert list(map(tuple, prefix.codewords.tolist())) == reference

    def test_greedy_search_beyond_the_subset_cap(self, pipeline_avwc):
        # the pool is the C(10, 5) = 252 balanced words, and C(252, 8) subsets are too many to score
        assert math.comb(math.comb(10, 5), 8) > pipeline._SUBSET_CAP
        prefix = search_prefix_code(pipeline_avwc, 8, 10)
        assert prefix.codewords.shape == (8, 10)
        assert len({tuple(w) for w in prefix.codewords}) == 8
        assert (prefix.codewords.sum(axis=1) == 5).all()
        assert list(map(tuple, prefix.codewords.tolist())) == brute.prefix_words(2, 8, 10, pipeline._SUBSET_CAP)
        assert prefix.decoder.shape == (2**10,) and set(prefix.decoder) <= set(range(8))
        # each codeword received without error decodes to itself
        words = channels.word_matrix(2, 10)
        for k, word in enumerate(prefix.codewords):
            assert prefix.decoder[np.flatnonzero((words == word).all(axis=1))[0]] == k

    def test_overfull_message_set_raises(self, pipeline_avwc):
        with pytest.raises(PrefixSearchFailureError):
            search_prefix_code(pipeline_avwc, 9, 3)

    @pytest.mark.parametrize("k_count", [0, -1])
    def test_message_count_below_one_raises(self, pipeline_avwc, k_count):
        with pytest.raises(ValueError, match="k_count must be at least 1"):
            search_prefix_code(pipeline_avwc, k_count, 3)

    @pytest.mark.parametrize("prefix_len", range(4))
    def test_full_message_set_uses_every_word_once(self, pipeline_avwc, prefix_len):
        # K = 2^L takes every composition class; at L = 0 the one empty word is the pool
        prefix = search_prefix_code(pipeline_avwc, 2**prefix_len, prefix_len)
        assert prefix.codewords.shape == (2**prefix_len, prefix_len)
        assert sorted(map(tuple, prefix.codewords.tolist())) == list(
            itertools.product(range(2), repeat=prefix_len)
        )

    @pytest.mark.parametrize("alphabet", [2, 3])
    @pytest.mark.parametrize("length", range(7))
    def test_constant_composition_pool_matches_a_plain_reference(self, length, alphabet):
        classes = brute.composition_classes(length, alphabet)
        matrix = channels.word_matrix(alphabet, length)
        for minimum in range(1, alphabet**length + 1):
            pool = pipeline._constant_composition_pool(length, alphabet, minimum)
            assert list(map(tuple, matrix[pool].tolist())) == brute.composition_pool(classes, minimum)


class TestEliminateRandomness:
    def test_single_member_with_noiseless_main(self):
        avwc = AVWC(main=(Channel.identity(2),), eaves=(Channel.bsc(0.4),))
        member = make_code([[[0, 0]], [[1, 1]]], 2, 2, decoder=[0, ERASURE, ERASURE, 1])
        from avwc.coding import RandomCode

        rc = RandomCode(members=[member], origin="reduced")
        outcome = eliminate_randomness(rc, avwc, prefix_len=1)
        report = outcome.report
        assert report.worst_prefix_error == 0.0
        member_err = max(
            error_probability(member, avwc, s) for s in itertools.product(range(1), repeat=2)
        )
        assert report.worst_total_error == pytest.approx(member_err, abs=1e-12)
        # payload leakage of the combined code equals the single member's
        assert report.worst_payload_leakage == pytest.approx(
            report.worst_mean_member_leakage, abs=1e-9
        )

    def test_two_members_noiseless_main_error_decomposition_is_tight(self):
        avwc = AVWC(main=(Channel.identity(2),), eaves=(Channel.bsc(0.3),))
        m1 = make_code([[[0, 0]], [[1, 1]]], 2, 2, decoder=[0, ERASURE, ERASURE, 1])
        m2 = make_code([[[0, 1]], [[1, 0]]], 2, 2, decoder=[ERASURE, 0, 1, ERASURE])
        from avwc.coding import RandomCode

        rc = RandomCode(members=[m1, m2], origin="reduced")
        outcome = eliminate_randomness(rc, avwc, prefix_len=1)
        report = outcome.report
        assert report.worst_prefix_error == 0.0
        assert report.worst_total_error == pytest.approx(report.worst_mean_member_error, abs=1e-12)

    def test_full_pipeline_inequalities(self, pipeline_avwc, pipeline_code):
        family = robustify(pipeline_code, pipeline_avwc)
        reduced = reduce_random_code(family, pipeline_avwc, k_count=4, epsilon=0.3, seed=2)
        outcome = eliminate_randomness(reduced, pipeline_avwc, prefix_len=5)
        report = outcome.report
        assert report.error_decomposition_margin >= -1e-12
        assert report.leakage_margin >= -1e-9
        assert outcome.code.n == 9
        assert outcome.code.j_count == 4 * 2

    def test_combined_code_matches_direct_evaluation(self):
        """The factorized error and payload leakage agree with a plain evaluation of the combined code."""
        avwc = AVWC(
            main=(Channel.bsc(0.1), Channel.bsc(0.2)),
            eaves=(Channel.bsc(0.35), Channel.bsc(0.15)),
        )
        m1 = make_code([[[0, 0], [0, 1]], [[1, 1], [1, 0]]], 2, 2, decoder=[0, 0, 1, 1])
        m2 = make_code([[[0, 1], [1, 1]], [[1, 0], [0, 0]]], 2, 2, decoder=[1, ERASURE, ERASURE, 0])
        rc = RandomCode(members=[m1, m2], origin="reduced")
        outcome = eliminate_randomness(rc, avwc, prefix_len=2)
        report = outcome.report
        direct = evaluate_code(outcome.code, avwc)
        assert direct.worst_state_error == pytest.approx(report.worst_total_error, abs=1e-12)

        # the combined code as a J-message code whose K*L randomizers are the (member, l) pairs
        combined = outcome.code
        words = combined.codewords.reshape(2, 2, 2, combined.n).transpose(1, 0, 2, 3)
        decoder = np.where(combined.decoder == ERASURE, ERASURE, combined.decoder % 2)
        payload = make_code(words.reshape(2, 4, combined.n), 2, 2, decoder=decoder)
        leak = evaluate_code(payload, avwc).worst_leakage_bits
        assert leak > 0.0
        assert leak == pytest.approx(report.worst_payload_leakage, abs=1e-12)
        attained = leakage_bits(payload, avwc, report.worst_leakage_sequence)
        assert attained == pytest.approx(report.worst_payload_leakage, abs=1e-12)

def test_type_class_sequences_order():
    seqs = type_class_sequences((1, 0, 0), 2)
    assert seqs == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert type_class_sequences((2, 0, 2), 3) == [(0, 2, 2), (2, 0, 2), (2, 2, 0)]
    assert type_class_sequences((), 3) == [()]
    for s in ((3, 0, 1, 3), (2, 2, 2), (0, 1, 2, 3), (3, 1, 0, 1, 3)):
        assert type_class_sequences(s, 4) == sorted(set(itertools.permutations(s)))


@st.composite
def small_codes(draw):
    """A random binary code with its channel family: n <= 5, two or three states."""
    n = draw(st.integers(1, 5))
    s_count = draw(st.sampled_from([2, 3]))
    j_count = draw(st.integers(1, 2))
    l_count = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    avwc = AVWC(
        main=tuple(Channel(rng.dirichlet(np.ones(2), size=2)) for _ in range(s_count)),
        eaves=tuple(Channel(rng.dirichlet(np.ones(2), size=2)) for _ in range(s_count)),
    )
    decoder = rng.integers(-1, j_count, size=2**n)
    code = make_code(
        rng.integers(0, 2, size=(j_count, l_count, n)),
        2,
        2,
        decoder=np.where(decoder < 0, ERASURE, decoder),
    )
    return code, avwc


@settings(max_examples=30, deadline=None)
@given(case=small_codes(), picks=st.lists(st.integers(0, 3**5 - 1), min_size=1, max_size=3))
def test_robustification_rows_equal_explicit_group_average(case, picks):
    """Each type-class row is the success averaged over all n! members."""
    code, avwc = case
    report = verify_robustification(code, avwc)
    assert len(report.per_sequence) == avwc.state_count**code.n
    for pick in picks:
        s, averaged, _ = report.per_sequence[pick % len(report.per_sequence)]
        explicit = permutation_mean_error(code, avwc, s, method="explicit")
        assert abs(averaged - (1.0 - explicit)) <= 1e-12
        assert type_class_sequences(s, avwc.state_count) == sorted(set(itertools.permutations(s)))


@settings(max_examples=30, deadline=None)
@given(case=small_codes())
def test_sequence_table_matches_brute_force(case):
    """Every row of the error and leakage tables equals the plain-loop reference."""
    code, avwc = case
    table = sequence_table(code, avwc)
    outputs = list(itertools.product(range(code.output_size), repeat=code.n))
    decoder_map = {y: int(j) for y, j in zip(outputs, code.decoder) if j != ERASURE}
    codewords = [[tuple(word) for word in words] for words in code.codewords.tolist()]
    main_rows = [ch.rows.tolist() for ch in avwc.main]
    eaves_rows = [ch.rows.tolist() for ch in avwc.eaves]
    sequences = itertools.product(range(avwc.state_count), repeat=code.n)
    for row, s in enumerate(sequences):
        assert abs(table["error"][row] - brute.brute_error(codewords, decoder_map, main_rows, s)) <= 1e-12
        assert abs(table["leakage"][row] - brute.brute_leakage(codewords, eaves_rows, s)) <= 1e-12


def test_type_averages_never_walk_the_group(monkeypatch, pipeline_avwc, pipeline_code):
    """The type-class paths stay O(|S|^n): enumerating n! permutations is an error."""
    def forbidden(*args, **kwargs):
        raise AssertionError("n! permutation walk")

    monkeypatch.setattr(pipeline.itertools, "permutations", forbidden)
    report = verify_robustification(pipeline_code, pipeline_avwc)
    assert report.passed
    family = robustify(pipeline_code, pipeline_avwc)
    assert family.members[23].codewords.shape == pipeline_code.codewords.shape
    reduced = reduce_random_code(family, pipeline_avwc, k_count=4, epsilon=0.3, seed=2)
    assert reduced.verification.success
    for s in itertools.product(range(2), repeat=4):
        permutation_mean_error(pipeline_code, pipeline_avwc, s, method="type")
    with pytest.raises(AssertionError, match="permutation walk"):
        permutation_mean_error(pipeline_code, pipeline_avwc, (0, 1, 1, 0), method="explicit")


@st.composite
def zero_row_families(draw, max_n=5, max_states=3):
    """One to three random codes of one shape on a family with exact-zero rows: n <= max_n, |S| <= max_states."""
    n, s_count = draw(st.integers(1, max_n)), draw(st.integers(1, max_states))
    b, c = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    j_count, l_count = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def channel(out):
        rows = rng.integers(0, 3, size=(2, out)).astype(float)
        rows[:, 0] += rows.sum(axis=1) == 0
        return Channel(rows / rows.sum(axis=1, keepdims=True))

    avwc = AVWC(
        main=tuple(channel(b) for _ in range(s_count)),
        eaves=tuple(channel(c) for _ in range(s_count)),
    )
    codes = []
    for _ in range(draw(st.integers(1, 3))):
        decoder = rng.integers(-1, j_count, size=b**n)
        words = rng.integers(0, 2, size=(j_count, l_count, n))
        codes.append(make_code(words, 2, b, decoder=np.where(decoder < 0, ERASURE, decoder)))
    return codes, avwc


@settings(max_examples=40, deadline=None)
@given(case=zero_row_families(), one_per_chunk=st.booleans())
def test_chunked_tables_equal_per_sequence_evaluation(case, one_per_chunk):
    """Chunking never changes a value, down to one sequence per chunk."""
    (code, *_), avwc = case
    with pytest.MonkeyPatch.context() as mp:
        if one_per_chunk:
            mp.setattr(channels, "_CHUNK_FLOATS", 1)
        table = sequence_table(code, avwc)
    for row, s in enumerate(itertools.product(range(avwc.state_count), repeat=code.n)):
        assert abs(table["error"][row] - error_probability(code, avwc, s)) <= 1e-15
        assert abs(table["leakage"][row] - leakage_bits(code, avwc, s)) <= 1e-15


@settings(max_examples=30, deadline=None)
@given(case=zero_row_families())
def test_elimination_member_errors_equal_member_tables(case):
    """The member errors batched over all K*J messages equal each member's own table."""
    members, avwc = case
    batched = []
    real = pipeline.message_success

    def spy(law, decoder):
        success = real(law, decoder)
        if decoder.ndim == 2:  # the stacked member decoders, not the prefix decoder
            batched.append(success)
        return success

    rc = RandomCode(members=members, origin="explicit")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "message_success", spy)
        report = eliminate_randomness(rc, avwc, prefix_len=2).report
    member_err = 1.0 - np.concatenate(batched).mean(axis=-1)  # (|S|^n, K)
    tables = np.stack([sequence_table(m, avwc, ("error",))["error"] for m in members], axis=1)
    assert np.max(np.abs(member_err - tables)) <= 1e-15
    assert abs(report.worst_mean_member_error - tables.mean(axis=1).max()) <= 1e-15


@settings(max_examples=40, deadline=None)
@given(case=zero_row_families(max_n=3, max_states=2), prefix_len=st.integers(1, 2))
def test_elimination_leakage_matches_the_combined_code_at_every_sequence(case, prefix_len):
    """The payload leakage of every (prefix, payload) pair is the combined code's own leakage there."""
    members, avwc = case
    rc = RandomCode(members=members, origin="explicit")
    prefix_len = max(prefix_len, (len(members) - 1).bit_length())  # K binary prefix words must fit
    outcome = eliminate_randomness(rc, avwc, prefix_len)
    report, combined = outcome.report, outcome.code
    k, (j_count, l_count, n) = rc.member_count(), rc.members[0].codewords.shape
    # the combined code as a J-message code whose K*L randomizers are the (member, l) pairs
    words = combined.codewords.reshape(k, j_count, l_count, combined.n).transpose(1, 0, 2, 3)
    decoder = np.where(combined.decoder == ERASURE, ERASURE, combined.decoder % j_count)
    payload = make_code(words.reshape(j_count, k * l_count, combined.n), 2, combined.output_size, decoder)
    table = sequence_table(payload, avwc, ("leakage",))["leakage"]
    member_mean = np.mean([sequence_table(m, avwc, ("leakage",))["leakage"] for m in rc.members], axis=0)
    leak = table.reshape(-1, avwc.state_count**n)  # (prefix sequence, payload sequence)
    worst = first_maximum(table)
    assert abs(report.worst_payload_leakage - table[worst]) <= 1e-12
    assert report.worst_leakage_sequence == index_to_word(worst, avwc.state_count, combined.n)
    assert abs(report.leakage_margin - (member_mean[None, :] - leak).min()) <= 1e-12


def _two_member_family(n):
    avwc = AVWC(
        main=(Channel.bsc(0.05), Channel.bsc(0.1)),
        eaves=(Channel.bsc(0.3), Channel.bsc(0.4)),
    )
    rng = np.random.default_rng(n)
    members = [
        make_code(rng.integers(0, 2, size=(2, 2, n)), 2, 2, decoder=rng.integers(0, 2, size=2**n))
        for _ in range(2)
    ]
    return RandomCode(members=members, origin="explicit"), avwc


def test_sequence_table_makes_one_output_law_call_per_chunk(monkeypatch):
    rc, avwc = _two_member_family(8)
    chunk = max(1, channels._CHUNK_FLOATS // (2 * 2 * 2**8))  # J * L * |B|^n floats per sequence
    assert 1 < chunk < 2**8
    shapes = []
    real = coding.output_law
    monkeypatch.setattr(coding, "output_law", lambda cw, ch: shapes.append(ch.shape) or real(cw, ch))
    sequence_table(rc.members[0], avwc)
    assert len(shapes) == 2 * math.ceil(2**8 / chunk)  # per objective, not per sequence


def test_robustify_keeps_the_uniform_law_implicit():
    """At n = 10 an explicit law over the 10! members would take 28 MiB."""
    avwc = AVWC(main=(Channel.bsc(0.1), Channel.bsc(0.2)), eaves=(Channel.bsc(0.3), Channel.bsc(0.4)))
    code = make_code(np.zeros((2, 2, 10)), 2, 2)
    tracemalloc.start()
    try:
        family = robustify(code, avwc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert family.member_count() == math.factorial(10)
    assert peak < 2**20


def test_robustify_and_reduce_run_past_ten_letters():
    """The family unranks its members, so 11! of them are never listed and n = 11 is not refused."""
    rc, avwc = _two_member_family(11)
    family = robustify(rc.members[0], avwc)
    assert family.member_count() == math.factorial(11)
    reduced = reduce_random_code(family, avwc, k_count=4, epsilon=1.0, seed=0)
    assert reduced.verification.success
    assert len(reduced.members) == 4


def test_permutation_family_refuses_a_length_beyond_the_index_range():
    """21! members do not fit the int that len() must return; 20! do."""
    avwc = AVWC(main=(Channel(np.ones((2, 1))),), eaves=(Channel(np.ones((2, 1))),))
    assert len(robustify(make_code(np.zeros((1, 1, 20)), 2, 1), avwc).members) == math.factorial(20)
    with pytest.raises(ResourceLimitError, match="21!"):
        robustify(make_code(np.zeros((1, 1, 21)), 2, 1), avwc)


def test_explicit_permutation_mean_is_capped(monkeypatch, pipeline_avwc):
    """The explicit average walks all n! members: 5! = 120 is above a cap of 100, the type average is not."""
    code = make_code(np.zeros((2, 1, 5)), 2, 2)
    monkeypatch.setenv("AVWC_ENUM_CAP", "100")
    permutation_mean_error(code, pipeline_avwc, (0, 1, 1, 0, 1), method="type")
    with pytest.raises(ResourceLimitError, match="permutation"):
        permutation_mean_error(code, pipeline_avwc, (0, 1, 1, 0, 1), method="explicit")


def test_chunked_checks_stay_within_the_working_memory_budget():
    """At n = 10 the full law stacks would take 32 MiB (one code) and 64 MiB (two members)."""
    rc, avwc = _two_member_family(10)
    assert avwc.state_count**10 * 2 * 2 * 2**10 * 8 > 30 * 2**20
    ceiling = 32 * channels._CHUNK_FLOATS * 8  # bytes: a few chunk-sized temporaries, 2 MiB
    for check in (
        lambda: sequence_table(rc.members[0], avwc),
        lambda: eliminate_randomness(rc, avwc, 1),
    ):
        tracemalloc.start()
        try:
            check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ceiling
