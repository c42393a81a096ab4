import math

import numpy as np
import pytest

from avwc import (
    AVWC,
    BoundOptions,
    Channel,
    Distribution,
    avc_capacity,
    mixture_channel,
    multiletter_bound,
    mutual_information,
    secrecy_lower_bound,
    secrecy_upper_bound_single_letter,
)
from avwc.bounds import _line_max, min_mi_over_mixtures, project_to_simplex, simplex_grid
from avwc.information import mi_batch, mi_from_arrays


def binary_entropy(x):
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


FAST = BoundOptions(starts=8, aux_starts=2, aux_iters=30)
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _entropy_rows(v):
    safe = np.where(v > 0, v, 1.0)
    return -np.sum(np.where(v > 0, v * np.log2(safe), 0.0), axis=-1)


def grid_maxmin_oracle(main_stack, eaves_stack, steps=512):
    """Independent saddle oracle: dense grids over binary p and q, vectorized."""
    ts = np.linspace(0.0, 1.0, steps + 1)
    p_grid = np.stack([1 - ts, ts], axis=1)  # (P, 2)
    mixed = np.stack([(1 - t) * main_stack[0] + t * main_stack[-1] for t in ts])  # (Q, 2, B)
    out = np.einsum("pa,qab->pqb", p_grid, mixed)
    info = _entropy_rows(out) - np.einsum("pa,qa->pq", p_grid, _entropy_rows(mixed))
    wmin = info.min(axis=1)
    vmax = np.max(
        [
            _entropy_rows(p_grid @ rows) - p_grid @ _entropy_rows(rows)
            for rows in eaves_stack
        ],
        axis=0,
    )
    return float(np.max(wmin - vmax))


def blahut_arimoto_capacity(rows, iters=2000, tol=1e-12):
    """Classic alternating-maximization capacity oracle for one channel."""
    a = rows.shape[0]
    p = np.full(a, 1.0 / a)
    cap = 0.0
    for _ in range(iters):
        out = p @ rows
        with np.errstate(divide="ignore", invalid="ignore"):
            log_ratio = np.where(rows > 0, np.log2(rows / out[None, :]), 0.0)
        d = np.sum(rows * log_ratio, axis=1)
        new_cap = math.log2(np.sum(p * 2.0**d))
        p = p * 2.0**d
        p /= p.sum()
        if abs(new_cap - cap) < tol:
            cap = new_cap
            break
        cap = new_cap
    return cap


class TestSimplexHelpers:
    def test_grid_covers_vertices_and_sums(self):
        points = list(simplex_grid(3, 4))
        assert len(points) == 15
        for point in points:
            assert point.sum() == pytest.approx(1.0)
        assert any(np.allclose(p, [1, 0, 0]) for p in points)

    def test_projection(self):
        projected = project_to_simplex(np.array([0.8, 0.8]))
        assert projected.sum() == pytest.approx(1.0)
        assert np.allclose(projected, [0.5, 0.5])
        assert np.allclose(project_to_simplex(np.array([2.0, -1.0])), [1.0, 0.0])

    def test_inner_min_matches_dense_scan(self):
        rng = np.random.default_rng(51)
        stack = np.stack([rng.dirichlet(np.ones(2), size=2) for _ in range(2)])
        p = rng.dirichlet(np.ones(2))
        val, q = min_mi_over_mixtures(p, stack, FAST)
        scan = min(
            mi_from_arrays(p, (1 - t) * stack[0] + t * stack[1])
            for t in np.linspace(0, 1, 2001)
        )
        assert val <= scan + 1e-9
        assert mi_from_arrays(p, np.tensordot(q, stack, axes=1)) == pytest.approx(val, abs=1e-12)

    def test_inner_min_three_states_frank_wolfe(self):
        rng = np.random.default_rng(52)
        stack = np.stack([rng.dirichlet(np.ones(3), size=2) for _ in range(3)])
        p = rng.dirichlet(np.ones(2))
        val, q = min_mi_over_mixtures(p, stack, FAST)
        scan = min(mi_from_arrays(p, np.tensordot(g, stack, axes=1)) for g in simplex_grid(3, 64))
        assert val <= scan + 1e-6


class TestBatchedOptimizers:
    @pytest.mark.parametrize("s_size", [2, 3])
    def test_inner_min_batch_rows_match_dense_scan(self, s_size):
        rng = np.random.default_rng(55 + s_size)
        stack = np.stack([rng.dirichlet(np.ones(3), size=2) for _ in range(s_size)])
        px = rng.dirichlet(np.ones(2), size=6)
        px[0] = [1.0, 0.0]  # a simplex vertex, where every mixture gives 0
        values, qs = min_mi_over_mixtures(px, stack, FAST)
        assert values.shape == (6,) and qs.shape == (6, s_size)
        if s_size == 2:
            ts = np.linspace(0.0, 1.0, 2001)
            grid, below = np.stack([1.0 - ts, ts], axis=1), 1e-6
        else:
            grid, below = np.array(list(simplex_grid(3, 64))), 1e-3
        mixtures = np.tensordot(grid, stack, axes=1)
        for p, val, q in zip(px, values, qs):
            scan = min(mi_from_arrays(p, rows) for rows in mixtures)
            assert scan - below <= val <= scan + 1e-9
            assert mi_from_arrays(p, np.tensordot(q, stack, axes=1)) == pytest.approx(val, abs=1e-12)
            assert min_mi_over_mixtures(p, stack, FAST)[0] == pytest.approx(val, abs=1e-9)

    @pytest.mark.parametrize("iters", [10, 20, 30])
    def test_line_search_lands_within_golden_bracket(self, iters):
        # row r moves the input law from (1 - a_r, a_r) to (0, 1); I(p, BSC) peaks at (1/2, 1/2)
        starts = np.array([[0.0], [0.1], [0.37]])
        peaks = (0.5 - starts[:, 0]) / (1.0 - starts[:, 0])
        bsc = Channel.bsc(0.1).rows

        def along(ts):
            p1 = starts + ts * (1.0 - starts)
            return mi_batch(np.stack([1.0 - p1, p1], axis=-1), bsc)

        t, v = _line_max(along, 3, BoundOptions(), iters)
        assert np.all(np.abs(t - peaks) <= INV_PHI**iters)
        assert v == pytest.approx(np.full(3, 1.0 - binary_entropy(0.1)), abs=INV_PHI**iters)


class TestSecrecyLowerBound:
    def test_single_state_closed_form(self, bsc_pair_avwc):
        result = secrecy_lower_bound(bsc_pair_avwc, FAST)
        assert result.value == pytest.approx(binary_entropy(0.3) - binary_entropy(0.1), abs=1e-3)
        assert np.allclose(result.argmax_p.probs, [0.5, 0.5], atol=1e-3)

    def test_equal_families_give_zero(self):
        avwc = AVWC(
            main=(Channel.bsc(0.1), Channel.bsc(0.2)),
            eaves=(Channel.bsc(0.1), Channel.bsc(0.2)),
        )
        result = secrecy_lower_bound(avwc, FAST)
        assert result.value <= 1e-9
        assert result.value >= -1e-6

    def test_two_state_against_dense_grid_oracle(self, degraded_two_state_avwc):
        result = secrecy_lower_bound(degraded_two_state_avwc, FAST)
        oracle = grid_maxmin_oracle(
            degraded_two_state_avwc.main_stack, degraded_two_state_avwc.eaves_stack
        )
        assert result.value == pytest.approx(oracle, abs=2e-3)

    def test_value_consistent_with_returned_arguments(self, degraded_two_state_avwc):
        result = secrecy_lower_bound(degraded_two_state_avwc, FAST)
        p = result.argmax_p
        wmin, _ = min_mi_over_mixtures(p.probs, degraded_two_state_avwc.main_stack, FAST)
        vmax = mutual_information(p, degraded_two_state_avwc.eaves[result.inner_argmax_state])
        assert result.value == pytest.approx(wmin - vmax, abs=1e-9)

    def test_saddle_sanity(self, degraded_two_state_avwc):
        """Local perturbations cannot improve either side of the saddle much."""
        result = secrecy_lower_bound(degraded_two_state_avwc, FAST)
        p = result.argmax_p.probs
        q = result.inner_argmin_q.probs
        stack = degraded_two_state_avwc.main_stack
        base_inner = mi_from_arrays(p, np.tensordot(q, stack, axes=1))
        for shift in (-0.01, 0.01):
            q_try = project_to_simplex(q + np.array([shift, -shift]))
            assert mi_from_arrays(p, np.tensordot(q_try, stack, axes=1)) >= base_inner - 1e-6

        def objective(px):
            wmin, _ = min_mi_over_mixtures(px, stack, FAST)
            vmax = max(
                mi_from_arrays(px, rows) for rows in degraded_two_state_avwc.eaves_stack
            )
            return wmin - vmax

        for shift in (-0.01, 0.01):
            p_try = project_to_simplex(p + np.array([shift, -shift]))
            assert objective(p_try) <= result.value + 1e-6 + result.certified_gap


class TestAvcCapacity:
    def test_single_bsc_closed_form(self):
        result = avc_capacity([Channel.bsc(0.1)], FAST)
        assert result.value == pytest.approx(1.0 - binary_entropy(0.1), abs=1e-3)
        assert result.symmetrisable is False
        assert result.deterministic_value == result.value

    def test_single_state_matches_blahut_arimoto(self):
        rng = np.random.default_rng(53)
        for _ in range(3):
            rows = rng.dirichlet(np.ones(3), size=2)
            result = avc_capacity([Channel(rows)], FAST)
            assert result.value == pytest.approx(blahut_arimoto_capacity(rows), abs=1e-3)

    def test_adder_channel_dichotomy(self, adder_family):
        result = avc_capacity(adder_family, FAST)
        assert result.symmetrisable is True
        assert result.deterministic_value == 0.0
        # saddle value survives as the random-code capacity; dense grid oracle
        ts = np.linspace(0, 1, 257)
        stack = np.stack([ch.rows for ch in adder_family])
        oracle = max(
            min(
                mi_from_arrays(np.array([1 - tp, tp]), (1 - tq) * stack[0] + tq * stack[1])
                for tq in ts
            )
            for tp in ts
        )
        assert result.value == pytest.approx(oracle, abs=2e-3)

    def test_identity_family(self):
        result = avc_capacity([Channel.identity(2), Channel.identity(2)], FAST)
        assert result.value == pytest.approx(1.0, abs=1e-6)


class TestUpperBound:
    def test_degraded_single_state_equals_plain_input_route(self):
        main = Channel.bsc(0.1)
        eaves = main.compose(Channel.bsc(0.15))
        avwc = AVWC(main=(main,), eaves=(eaves,))
        result = secrecy_upper_bound_single_letter(avwc, u_size=3, opts=FAST)
        grid = max(
            mutual_information(Distribution(np.array([1 - t, t])), main)
            - mutual_information(Distribution(np.array([1 - t, t])), eaves)
            for t in np.linspace(0.0, 1.0, 513)
        )
        assert result.value == pytest.approx(grid, abs=1e-3)

    def test_equal_channels_give_zero(self):
        avwc = AVWC(main=(Channel.bsc(0.2),), eaves=(Channel.bsc(0.2),))
        result = secrecy_upper_bound_single_letter(avwc, opts=FAST)
        assert abs(result.value) <= 1e-6

    def test_remark_instance_upper_matches_lower(self, degraded_two_state_avwc):
        lower = secrecy_lower_bound(degraded_two_state_avwc, FAST)
        upper = secrecy_upper_bound_single_letter(degraded_two_state_avwc, opts=FAST)
        assert upper.value - lower.value <= 5e-3
        assert upper.value - lower.value >= -1e-6

    def test_lower_below_upper_when_best_channel_exists(self, bsc_pair_avwc):
        from avwc import find_best_eaves_channel

        instances = [
            bsc_pair_avwc,
            AVWC(
                main=(Channel.bsc(0.02), Channel.bsc(0.12)),
                eaves=(Channel.bsc(0.25), Channel.bsc(0.35)),
            ),
        ]
        for avwc in instances:
            assert find_best_eaves_channel(list(avwc.eaves)).exists
            lower = secrecy_lower_bound(avwc, FAST)
            upper = secrecy_upper_bound_single_letter(avwc, opts=FAST)
            assert lower.value <= upper.value + 5e-3


class TestMultiletter:
    def test_single_state_n1_matches_single_letter(self):
        avwc = AVWC(main=(Channel.bsc(0.05),), eaves=(Channel.bsc(0.2),))
        single = secrecy_upper_bound_single_letter(avwc, u_size=3, opts=FAST)
        multi = multiletter_bound(avwc, 1, u_size=3, opts=FAST)
        assert multi.value == pytest.approx(single.value, abs=1e-6)

    def test_degraded_pair_n2_single_letter_optimal(self):
        avwc = AVWC(main=(Channel.bsc(0.05),), eaves=(Channel.bsc(0.2),))
        single = secrecy_upper_bound_single_letter(avwc, u_size=3, opts=FAST)
        multi = multiletter_bound(avwc, 2, u_size=5, opts=FAST)
        assert multi.value == pytest.approx(single.value, abs=2e-3)

    def test_equal_channels_zero(self):
        avwc = AVWC(main=(Channel.bsc(0.3),), eaves=(Channel.bsc(0.3),))
        for n in (1, 2):
            result = multiletter_bound(avwc, n, opts=FAST)
            assert abs(result.value) <= 1e-6

    def test_per_letter_flag_not_above_shared(self):
        avwc = AVWC(
            main=(Channel.bsc(0.05), Channel.bsc(0.15)),
            eaves=(Channel.bsc(0.4), Channel.bsc(0.4)),
        )
        small = BoundOptions(starts=4, aux_starts=2, aux_iters=15, q_grid_denominator=8)
        shared = multiletter_bound(avwc, 2, u_size=5, opts=small)
        per_letter = multiletter_bound(avwc, 2, u_size=5, opts=small, per_letter=True)
        # widening the minimization family can only pull the bound down
        assert per_letter.value <= shared.value + 1e-6


def test_multiletter_not_below_lower_bound_three_states():
    """n = 2 on three Z-like states may not understate n times an achievable rate.

    The i.i.d. auxiliary U = X^2 ~ p*^2 attains n times the lower bound, so
    the multi-letter value, which maximizes over U, must reach the lower bound.
    """
    main = (
        Channel(np.array([[1.0, 0.0], [0.3596, 0.6404]])),
        Channel(np.array([[0.6135, 0.3865], [0.0, 1.0]])),
        Channel(np.array([[0.9669, 0.0331], [0.0331, 0.9669]])),
    )
    eaves = tuple(Channel.bsc(c) for c in (0.3015, 0.4255, 0.3936))
    avwc = AVWC(main=main, eaves=eaves)
    lower = secrecy_lower_bound(avwc)
    assert multiletter_bound(avwc, 2).value >= lower.value - 1e-9


def test_mixture_information_peaks_at_states():
    """max over mixtures equals max over single states, by channel convexity."""
    rng = np.random.default_rng(54)
    family = [Channel(rng.dirichlet(np.ones(2), size=2)) for _ in range(3)]
    for _ in range(10):
        p = Distribution(rng.dirichlet(np.ones(2)))
        grid_max = max(
            mutual_information(p, mixture_channel(family, Distribution(q)))
            for q in simplex_grid(3, 16)
        )
        state_max = max(mutual_information(p, ch) for ch in family)
        assert grid_max <= state_max + 1e-6
        assert state_max <= grid_max + 1e-12
