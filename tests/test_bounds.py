import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from avwc.bounds import (
    _ascend,
    _line_max,
    _scan_min_over_q,
    _start_sequence,
    min_mi_over_mixtures,
    simplex_grid,
)
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

    def test_inner_min_matches_dense_scan(self):
        rng = np.random.default_rng(51)
        stack = np.stack([rng.dirichlet(np.ones(2), size=2) for _ in range(2)])
        p = rng.dirichlet(np.ones(2))
        (val,), (q,) = min_mi_over_mixtures(p[None], stack, FAST)
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
        (val,), _ = min_mi_over_mixtures(p[None], stack, FAST)
        scan = min(mi_from_arrays(p, np.tensordot(g, stack, axes=1)) for g in simplex_grid(3, 64))
        assert val <= scan + 1e-6

    def test_pairwise_step_drops_an_unused_state(self):
        # two Z channels whose mixture is noisier than either, and a third state
        # slightly less noisy than their best mixture: the minimiser leaves the
        # third state out, yet the best q-grid point gives it weight 1/16
        stack = np.array(
            [
                [[1.0, 0.0], [0.4, 0.6]],
                [[0.63, 0.37], [0.0, 1.0]],
                [[0.83, 0.17], [0.2158, 0.7842]],
            ]
        )
        p = np.array([0.5, 0.5])
        grid = np.array(list(simplex_grid(3, FAST.q_grid_denominator)))
        start = grid[np.argmin([mi_from_arrays(p, np.tensordot(g, stack, axes=1)) for g in grid])]
        assert start[2] > 0.0
        (val,), (q,) = min_mi_over_mixtures(p[None], stack, FAST)
        # a pairwise step can move all of a state's mass away; plain FW only shrinks it
        assert q[2] == 0.0
        assert val == pytest.approx(min_mi_over_mixtures(p[None], stack[:2], FAST)[0][0], abs=1e-12)


class TestOuterScan:
    def test_single_state_takes_one_evaluation(self):
        calls = []

        def evaluate(qs):
            calls.append(qs.copy())
            return np.zeros(len(qs))

        value, q, _ = _scan_min_over_q(evaluate, 1, BoundOptions())
        assert len(calls) == 1 and calls[0].tolist() == [[1.0]]
        assert value == 0.0 and q.tolist() == [1.0]

    @pytest.mark.parametrize("s_size", [2, 3])
    @pytest.mark.parametrize(
        "opts", [BoundOptions(), BoundOptions(outer_q_points=5, refine_rounds=1)], ids=["default", "coarse"]
    )
    def test_lands_within_the_final_step_of_a_quadratic_minimiser(self, s_size, opts):
        step = 1.0 / (opts.outer_q_points - 1)
        rng = np.random.default_rng(60 + s_size)
        for target in rng.dirichlet(np.full(s_size, 3.0), size=20):
            _, q, _ = _scan_min_over_q(lambda qs: np.sum((qs - target) ** 2, axis=1), s_size, opts)
            assert np.linalg.norm(q - target) <= step / 4**opts.refine_rounds


class TestBatchedOptimizers:
    @pytest.mark.parametrize("s_size", [1, 2, 3])
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
            grid, below = np.array(list(simplex_grid(s_size, 64))), 1e-3
        mixtures = np.tensordot(grid, stack, axes=1)
        for p, val, q in zip(px, values, qs):
            scan = min(mi_from_arrays(p, rows) for rows in mixtures)
            assert scan - below <= val <= scan + 1e-9
            assert mi_from_arrays(p, np.tensordot(q, stack, axes=1)) == pytest.approx(val, abs=1e-12)
            assert min_mi_over_mixtures(p[None], stack, FAST)[0][0] == pytest.approx(val, abs=1e-9)

    @pytest.mark.parametrize("iters", [10, 20, 30])
    def test_line_search_lands_within_golden_bracket(self, iters):
        # row r moves the input law from (1 - a_r, a_r) to (0, 1); I(p, BSC) peaks at (1/2, 1/2)
        starts = np.array([[0.0], [0.1], [0.37]])
        peaks = (0.5 - starts[:, 0]) / (1.0 - starts[:, 0])
        bsc = Channel.bsc(0.1).rows

        def along(ts):
            p1 = starts + ts * (1.0 - starts)
            return mi_batch(np.stack([1.0 - p1, p1], axis=-1), bsc)

        t, v = _line_max(along, 3, iters)
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
        (wmin,), _ = min_mi_over_mixtures(p.probs[None], degraded_two_state_avwc.main_stack, FAST)
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
            q_try = np.clip(q + np.array([shift, -shift]), 0.0, 1.0)  # two entries: stays on the simplex
            assert mi_from_arrays(p, np.tensordot(q_try, stack, axes=1)) >= base_inner - 1e-6

        def objective(px):
            (wmin,), _ = min_mi_over_mixtures(px[None], stack, FAST)
            vmax = max(
                mi_from_arrays(px, rows) for rows in degraded_two_state_avwc.eaves_stack
            )
            return wmin - vmax

        for shift in (-0.01, 0.01):
            p_try = np.clip(p + np.array([shift, -shift]), 0.0, 1.0)
            assert objective(p_try) <= result.value + 1e-6


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

    def test_reports_the_grid_q_its_value_uses(self):
        """inner_argmin_q is the grid minimiser of I(U;Y^2_q) at the reported pair."""
        main = (Channel(np.array([[1.0, 0.0], [0.3, 0.7]])), Channel(np.array([[0.55, 0.45], [0.0, 1.0]])))
        eaves = (Channel.bsc(0.3), Channel.bsc(0.35))
        result = multiletter_bound(AVWC(main=main, eaves=eaves), 2, opts=FAST)
        pair = result.aux

        def info(family, q):
            rows = mixture_channel(family, Distribution(q)).rows
            return mutual_information(pair.p_u, Channel(pair.x_given_u.rows @ np.kron(rows, rows)))

        grid = list(simplex_grid(2, FAST.q_grid_denominator // 2))
        y_info = [info(main, q) for q in grid]
        assert np.array_equal(result.inner_argmin_q.probs, grid[int(np.argmin(y_info))])
        z_max = max(info(eaves, q) for q in grid)
        assert result.value == pytest.approx((min(y_info) - z_max) / 2, abs=1e-9)


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


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_start_sequence_opens_with_the_vertices_then_the_uniform_law(dim):
    starts = _start_sequence(dim, dim + 1)
    assert np.array_equal(np.array(starts), np.vstack([np.eye(dim), np.full(dim, 1.0 / dim)]))
    if dim > 1:
        # further starts are simplex-grid points not listed before
        more = np.array(_start_sequence(dim, 20))
        assert np.array_equal(more[: dim + 1], np.array(starts))
        assert len({tuple(p) for p in more}) == 20
        assert np.allclose(more.sum(axis=1), 1.0) and (more >= 0.0).all()


@pytest.mark.parametrize("layout", ["input-law", "aux-pair"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ascent_never_lowers_a_row_and_keeps_every_block_a_law(layout, seed):
    """The bounds report their ascent's best row, with the seed point as row 0.

    That is sound only if no row ends below its start value and every block
    stays a probability vector; checked on I(.;Y) - I(.;Z) for a random
    channel pair, over input laws and over (p_u, X|U) as in the upper bounds.
    """
    rng = np.random.default_rng(80 + seed)
    a, u = 3, 4
    w, v = (rng.dirichlet(np.full(3, 0.7), size=a) for _ in range(2))
    if layout == "input-law":
        blocks = [slice(0, a)]
        starts = np.vstack([np.eye(a)[:1], np.full((1, a), 1.0 / a), rng.dirichlet(np.full(a, 0.5), size=6)])

        def fn(points):
            return mi_batch(points, w) - mi_batch(points, v)
    else:
        blocks = [slice(0, u)] + [slice(u + i * a, u + (i + 1) * a) for i in range(u)]
        embedded = np.concatenate([rng.dirichlet(np.ones(a)), [0.0], np.eye(a)[np.arange(u) % a].ravel()])
        drawn = [np.concatenate([rng.dirichlet(np.full(n, 0.5)) for n in [u] + [a] * u]) for _ in range(6)]
        starts = np.vstack([embedded] + drawn)

        def fn(points):
            pu, x_rows = points[:, :u], points[:, u:].reshape(len(points), u, a)
            return mi_batch(pu, x_rows @ w) - mi_batch(pu, x_rows @ v)

    points, values, iters = _ascend(fn, starts, blocks, 30, FAST)
    assert np.all(values >= fn(starts))
    assert (iters >= 1).all() and (values > fn(starts)).any()
    assert values == pytest.approx(fn(points), abs=1e-9)
    for block in blocks:
        assert (points[:, block] >= 0.0).all()
        assert np.allclose(points[:, block].sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("bound", [
    lambda avwc: secrecy_upper_bound_single_letter(avwc, u_size=1),
    lambda avwc: multiletter_bound(avwc, 2, u_size=3),
], ids=["single-letter", "multi-letter"])
def test_upper_bounds_refuse_an_aux_alphabet_that_cannot_embed_the_input(bound):
    """U must hold X (|A| = 2 letters) or X^2 (4 words) for U = X to embed."""
    avwc = AVWC(main=(Channel.bsc(0.1),), eaves=(Channel.bsc(0.3),))
    with pytest.raises(ValueError, match="cannot embed"):
        bound(avwc)


def test_bounds_finish_on_a_one_input_avwc():
    """With one input letter every start sequence has a single point, which then repeats."""
    avwc = AVWC(
        main=(Channel(np.array([[0.3, 0.7]])), Channel(np.array([[0.6, 0.4]]))),
        eaves=(Channel(np.array([[0.5, 0.5]])), Channel(np.array([[0.2, 0.8]]))),
    )
    opts = BoundOptions(starts=5, aux_starts=4, aux_iters=5)
    values = [
        secrecy_lower_bound(avwc, opts).value,
        avc_capacity(list(avwc.main), opts).value,
        secrecy_upper_bound_single_letter(avwc, u_size=1, opts=opts).value,
        secrecy_upper_bound_single_letter(avwc, opts=opts).value,
        multiletter_bound(avwc, 2, opts=opts).value,
    ]
    assert np.isfinite(values).all()


MINIMUM_COUNTS = {
    "starts": 0,
    "p_grid_denominator": 1,
    "ascent_iters": 0,
    "golden_iters": 0,
    "q_grid_denominator": 1,
    "outer_q_points": 2,
    "refine_rounds": 0,
    "aux_starts": 2,
    "aux_iters": 0,
}


@pytest.mark.parametrize("field, minimum", MINIMUM_COUNTS.items())
def test_bound_options_reject_counts_below_their_minimum(field, minimum):
    with pytest.raises(ValueError, match=f"{field} must be at least {minimum}, got {minimum - 1}"):
        BoundOptions(**{field: minimum - 1})


def test_bound_options_at_their_minimum_counts_run_every_bound(degraded_two_state_avwc):
    opts = BoundOptions(**MINIMUM_COUNTS)
    avwc = degraded_two_state_avwc
    values = [
        secrecy_lower_bound(avwc, opts).value,
        avc_capacity(list(avwc.main), opts).value,
        secrecy_upper_bound_single_letter(avwc, opts=opts).value,
        multiletter_bound(avwc, 2, opts=opts).value,
    ]
    assert all(math.isfinite(v) for v in values)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the heuristic max over auxiliary pairs stops short of the concave-envelope value",
)
def test_single_letter_upper_bound_reaches_the_concave_envelope_gap():
    """One state, binary input, ternary outputs: max over U is max_p [f(p) - f_breve(p)].

    f(p) = I(p, W) - I(p, V) and f_breve is its lower convex envelope; each
    grid value is attained by a binary U, so the upper bound may not fall below it.
    """
    rows = np.random.default_rng(7).dirichlet(np.full(3, 0.7), size=4)
    w, v = rows[:2], rows[2:]
    ts = np.linspace(0.0, 1.0, 20001)
    p = np.stack([1 - ts, ts], axis=1)
    f = (_entropy_rows(p @ w) - p @ _entropy_rows(w)) - (_entropy_rows(p @ v) - p @ _entropy_rows(v))
    hull = [0]  # lower convex hull of the points (t, f(t)), left to right
    for i in range(1, len(ts)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (f[b] - f[a]) * (ts[i] - ts[a]) < (f[i] - f[a]) * (ts[b] - ts[a]):
                break
            hull.pop()
        hull.append(i)
    reference = float(np.max(f - np.interp(ts, ts[hull], f[hull])))
    if reference != pytest.approx(4.703e-4, abs=1e-7):
        raise ValueError(f"the envelope reference moved to {reference}")  # not the expected failure
    avwc = AVWC(main=(Channel(w),), eaves=(Channel(v),))
    assert secrecy_upper_bound_single_letter(avwc).value >= reference - 1e-9


# the benchmark's option sizes: every code path of the defaults at a fraction of the cost
BENCH_OPTS = BoundOptions(
    starts=3,
    p_grid_denominator=16,
    ascent_iters=30,
    golden_iters=30,
    q_grid_denominator=4,
    outer_q_points=5,
    refine_rounds=1,
    aux_starts=2,
    aux_iters=20,
)


@st.composite
def best_channel_instances(draw):
    """Binary input, |S| in {1, 2}, outputs of 2-3 letters; V_s = V_0 D_s with D_0 = I, so V_0 is a best channel."""

    def stochastic(rows, cols):
        weights = st.lists(st.integers(0, 6), min_size=cols, max_size=cols).filter(any)
        matrix = np.array([draw(weights) for _ in range(rows)], dtype=float)
        return matrix / matrix.sum(axis=1, keepdims=True)

    states, b, c = draw(st.integers(1, 2)), draw(st.integers(2, 3)), draw(st.integers(2, 3))
    v0 = stochastic(2, c)
    main = tuple(Channel(stochastic(2, b)) for _ in range(states))
    eaves = tuple(Channel(v0 @ d) for d in [np.eye(c)] + [stochastic(c, c) for _ in range(states - 1)])
    return AVWC(main=main, eaves=eaves)


@settings(max_examples=70, deadline=None)
@given(avwc=best_channel_instances())
def test_lower_bound_never_exceeds_upper_bound(avwc):
    lower = secrecy_lower_bound(avwc, BENCH_OPTS)
    upper = secrecy_upper_bound_single_letter(avwc, opts=BENCH_OPTS)
    assert lower.value <= upper.value + 1e-9
