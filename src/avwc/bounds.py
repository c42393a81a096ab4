"""Numerical secrecy-capacity bounds for finite AVWCs.

Every objective the optimizers call maps an (N, dim) array of points to N
values through the array-valued kernel ``information.mi_batch``, so a grid
sweep, the finite differences of one ascent step and one scan of a line
search each cost a single call.  Line searches are batched bracket zooms:
each round scans a few points across every bracket and keeps the neighbours
of the best one.

The inner minimization over mixture weights q is convex (mutual information
is convex in the channel and the mixture map is affine), so it is solved for
all input laws of a batch at once by pairwise Frank-Wolfe with a zoom line
search, for every state count above one.  The outer maximization over input
distributions (and auxiliary channel pairs) is not concave; it is attacked
with a multi-start ascent along vertex directions, all starts advancing
together, plus a coarse simplex-grid sweep used as a floor.  Every value is
the best point these optimizers found, with no certificate: a lower bound
may fall short of its maximum and an upper bound may understate its maximum
over auxiliary pairs.  Negative bound values are reported as computed: a
rate below zero just means the bound is vacuous.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channels import AVWC, Channel, Distribution, check_enumeration, output_law, simplex_grid, word_matrix
from .feasibility import DEFAULT_TOL
from .information import mi_batch
from .structure import test_symmetrisable

_LOG_FLOOR = -1024.0  # stand-in for log2 of an exactly-zero transition
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_COARSE_GRID_DENOMINATOR = 8  # input-law grid step 1/8 for alphabets above three letters
_FD_STEP = 1e-5  # finite-difference step of the ascent
_LINE_SEARCH_POINTS = 9  # points of each batched line-search scan
_FW_TOL = 1e-8  # Frank-Wolfe gap at which an inner minimum stops
_FW_MAX_ITERS = 500

# An objective maps an (N, dim) array of points to their (N,) values.
Objective = Callable[[np.ndarray], np.ndarray]
# smallest value of each BoundOptions count that its code can honour
_COUNT_MINIMUMS = {
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


@dataclass(frozen=True)
class BoundOptions:
    """Optimizer knobs; the defaults target desk-scale instances.

    The ascent over input laws starts from the best point of the simplex grid
    of step 1/``p_grid_denominator`` (1/8 for alphabets above three letters)
    plus the first ``starts`` points of the start sequence (vertices, uniform
    law, finer grids), for at most ``ascent_iters`` steps each.
    ``golden_iters`` sets line-search precision: a line search stops once its
    bracket is no wider than inv_phi**golden_iters of the searched interval,
    the final bracket of that many golden-section steps.

    For every state count above one, the inner minimum over q starts each
    input law at its best point on the grid of step 1/``q_grid_denominator``
    and runs pairwise Frank-Wolfe until its gap is at most 1e-8, for at most
    500 steps.  The outer scan over q of the upper bounds takes the grid of
    step 1/(``outer_q_points`` - 1), then ``refine_rounds`` probe rounds, each
    at a quarter of the step before.  ``multiletter_bound`` halves (two
    states) or quarters (more) ``q_grid_denominator`` for its grid.

    The counts may be 0, except that both grid denominators must be at least
    1, ``outer_q_points`` at least 2 (a grid of step 1), and ``aux_starts`` at
    least 2: the auxiliary maximum always runs its two fixed starts, the
    ascent over input laws (U = X) and the pair ascent from that ascent's
    optimum; ``aux_starts`` - 2 further pair-ascent starts come from the
    start sequences.
    """

    starts: int = 32
    p_grid_denominator: int = 64  # simplex grid step 1/64 while |A| <= 3
    ascent_iters: int = 60
    golden_iters: int = 40
    q_grid_denominator: int = 16
    outer_q_points: int = 17
    refine_rounds: int = 3
    aux_starts: int = 4
    aux_iters: int = 50
    structure_tol: float = DEFAULT_TOL

    def __post_init__(self):
        for name, minimum in _COUNT_MINIMUMS.items():
            if getattr(self, name) < minimum:
                raise ValueError(f"{name} must be at least {minimum}, got {getattr(self, name)}")


@dataclass(frozen=True, eq=False)
class AuxiliaryChannelPair:
    """Auxiliary input U with its distribution ``p_u`` and the channel from U to A."""

    p_u: Distribution
    x_given_u: Channel

    def induced_input(self) -> Distribution:
        return Distribution(self.p_u.probs @ self.x_given_u.rows)


@dataclass(frozen=True, eq=False)
class BoundResult:
    """A bound's value in bits per channel use, with the arguments that reach it.

    ``value`` is an optimizer result, not a certified bound.  ``argmax_p`` is
    the input law of the outer maximum (the one an auxiliary pair induces for
    the upper bounds), ``inner_argmin_q`` the state law of the inner minimum
    and ``inner_argmax_state`` the eavesdropper's worst state, where the bound
    has one.  ``optimizer_trace`` records how the value was reached.  ``aux``
    is the auxiliary pair of the upper bounds; ``symmetrisable`` and
    ``deterministic_value`` are set by ``avc_capacity`` only.
    """

    value: float
    argmax_p: Distribution | None
    inner_argmin_q: Distribution | None
    inner_argmax_state: int | None
    optimizer_trace: tuple
    aux: AuxiliaryChannelPair | None = None
    symmetrisable: bool | None = None
    deterministic_value: float | None = None


# ---------------------------------------------------------------------------
# the batched line search
# ---------------------------------------------------------------------------

def _line_max(fn: Callable[[np.ndarray], np.ndarray], rows: int, iters: int) -> tuple[np.ndarray, np.ndarray]:
    """Maximize ``rows`` functions of t on [0, 1] at once by a bracket zoom.

    ``fn`` maps an (rows, m) array of steps to their values, row r holding
    steps of the r-th function.  Each round scans m = 9 points across every
    bracket and keeps the neighbours of the best one, until no bracket is
    wider than inv_phi**iters.  The search is exact for unimodal functions.
    Returns the best step and value of every row.
    """
    grid = np.linspace(0.0, 1.0, _LINE_SEARCH_POINTS)
    index = np.arange(rows)
    lo, width = np.zeros(rows), np.ones(rows)
    best_t, best_v = np.zeros(rows), np.full(rows, -math.inf)
    target = _INV_PHI**iters
    while True:
        ts = lo[:, None] + width[:, None] * grid
        vals = fn(ts)
        k = np.argmax(vals, axis=1)
        better = vals[index, k] > best_v
        best_t = np.where(better, ts[index, k], best_t)
        best_v = np.where(better, vals[index, k], best_v)
        new_lo = ts[index, np.maximum(k - 1, 0)]
        new_width = ts[index, np.minimum(k + 1, len(grid) - 1)] - new_lo
        # the widest bracket shrinks every round until floating point stalls it
        if new_width.max() <= target or new_width.max() >= width.max():
            return best_t, best_v
        lo, width = new_lo, new_width


# ---------------------------------------------------------------------------
# inner minimization over mixture weights
# ---------------------------------------------------------------------------

def min_mi_over_mixtures(px: np.ndarray, stack: np.ndarray, opts: BoundOptions):
    """min over q of I(p, sum_s q_s W_s) for each row of ``px``; convex in q.

    ``px`` is a batch of input laws (N, A); returns values (N,) and weights (N, S).
    """
    if stack.shape[0] == 1:
        return mi_batch(px, stack[0]), np.ones((len(px), 1))
    return _pairwise_fw_min(px, stack, opts)


def _pairwise_fw_min(px: np.ndarray, stack: np.ndarray, opts: BoundOptions):
    """Pairwise Frank-Wolfe from the best q-grid point, every row of ``px`` at once.

    Each step moves mass from the away state (the supported state of largest
    gradient) to the toward state (the smallest), searching over all of the
    away state's mass, so a state can leave the support exactly.  A row stops
    once its Frank-Wolfe gap is at most 1e-8 or its line search stays at 0.
    """
    grid = simplex_grid(stack.shape[0], opts.q_grid_denominator)
    vals = mi_batch(px[:, None, :], np.tensordot(grid, stack, axes=1))
    q = grid[np.argmin(vals, axis=1)]
    active = np.arange(len(px))
    for _ in range(_FW_MAX_ITERS):
        p, qa = px[active], q[active]
        mixed = np.tensordot(qa, stack, axes=1)  # (R, A, B)
        out = (p[:, None, :] @ mixed)[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            log_ratio = np.log2(mixed) - np.log2(out)[:, None, :]
        log_ratio = np.where(mixed > 0.0, log_ratio, _LOG_FLOOR)
        log_ratio = np.where(p[:, :, None] > 0.0, log_ratio, 0.0)
        grad = np.einsum("ra,sab,rab->rs", p, stack, log_ratio)
        toward = np.argmin(grad, axis=1)
        away = np.argmax(np.where(qa > 0.0, grad, -math.inf), axis=1)
        keep = np.sum(grad * qa, axis=1) - grad[np.arange(len(active)), toward] > _FW_TOL
        active, p, mixed, toward, away = active[keep], p[keep], mixed[keep], toward[keep], away[keep]
        if not active.size:
            break
        mass = q[active, away]
        direction = mass[:, None, None] * (stack[toward] - stack[away])

        def along(ts: np.ndarray) -> np.ndarray:
            trial = mixed[:, None] + ts[..., None, None] * direction[:, None]
            return -mi_batch(p[:, None, :], trial)

        t, _ = _line_max(along, len(active), opts.golden_iters)
        keep = t > 0.0
        active, toward, away, step = active[keep], toward[keep], away[keep], (t * mass)[keep]
        if not active.size:
            break
        q[active, toward] += step
        q[active, away] -= step
    return mi_batch(px, np.tensordot(q, stack, axes=1)), q


# ---------------------------------------------------------------------------
# outer maximization over a product of simplices
# ---------------------------------------------------------------------------

def _start_sequence(dim: int, count: int) -> list[np.ndarray]:
    """The vertices, the uniform law, then the points of simplex_grid(dim, m) for m = 2, 3, ...
    not listed before, cut at ``count``; with dim = 1 the one point [1.0] repeats."""
    starts = list(np.eye(dim)) + [np.full(dim, 1.0 / dim)]
    seen = {tuple(p) for p in starts}
    m = 2
    while len(starts) < count:
        fresh = [p for p in simplex_grid(dim, m) if tuple(p) not in seen] if dim > 1 else [starts[-1]]
        seen.update(map(tuple, fresh))
        starts += fresh
        m += 1
    return starts[:count]


def _ascend(
    fn: Objective, starts: np.ndarray, blocks: Sequence[slice], iters_cap: int, opts: BoundOptions
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vertex-direction ascent over a product of simplices, every start at once.

    Each row of ``starts`` is a point whose ``blocks`` are probability
    vectors.  A step differentiates along every e_i - x_block (central
    differences, forward ones at the boundary), all rows and directions in
    one call of ``fn``, then line-searches the steepest direction of each row.
    A row stops when no direction climbs or its line search gains nothing.
    Returns the final points, their values and each row's iteration count.
    """
    x = np.array(starts, dtype=float)
    count, dim = x.shape
    value = fn(x)
    iters = np.zeros(count, dtype=int)
    active = np.arange(count)
    h = _FD_STEP
    eye = np.eye(dim)
    for _ in range(iters_cap):
        if not active.size:
            break
        iters[active] += 1
        xa = x[active]
        dirs = np.zeros((len(active), dim, dim))  # dirs[r, i] = e_i - x_block(i)
        for block in blocks:
            dirs[:, block, block] = eye[block, block] - xa[:, None, block]
        moving = np.abs(dirs).max(axis=2) >= 1e-12
        central = moving & (xa >= h / (1.0 + h))
        steps = h * dirs
        points = np.concatenate([(xa[:, None] + steps)[moving], (xa[:, None] - steps)[central]])
        if not len(points):
            break
        vals = fn(points)
        fwd = np.full((len(active), dim), -math.inf)
        fwd[moving] = vals[: moving.sum()]
        back = np.zeros((len(active), dim))
        back[central] = vals[moving.sum():]
        derivs = np.where(central, (fwd - back) / (2.0 * h), (fwd - value[active, None]) / h)
        best = np.argmax(derivs, axis=1)
        climbing = np.flatnonzero(derivs[np.arange(len(active)), best] > 1e-9)
        active, xa, direction = active[climbing], xa[climbing], dirs[climbing, best[climbing]]
        if not active.size:
            break

        def along(ts: np.ndarray) -> np.ndarray:
            trial = xa[:, None] + ts[..., None] * direction[:, None]
            return fn(trial.reshape(-1, dim)).reshape(ts.shape)

        t, new_value = _line_max(along, len(active), opts.golden_iters)
        up = np.flatnonzero(new_value > value[active] + 1e-12)
        active = active[up]
        moved = np.maximum(xa[up] + t[up, None] * direction[up], 0.0)
        for block in blocks:
            moved[:, block] /= moved[:, block].sum(axis=1, keepdims=True)
        x[active], value[active] = moved, new_value[up]
    return x, value, iters


def maximize_over_simplex(
    fn: Objective, dim: int, opts: BoundOptions
) -> tuple[np.ndarray, float, float, tuple]:
    """Multi-start ascent plus grid sweep; returns (p, value, grid_best, trace).

    ``fn`` maps an (N, dim) array of input laws to their N values.  Start 0 is
    the grid's best point and no ascent lowers its start, so ``value`` is
    never below ``grid_best``.
    """
    denom = opts.p_grid_denominator if dim <= 3 else _COARSE_GRID_DENOMINATOR
    grid = simplex_grid(dim, denom)
    grid_vals = fn(grid)
    k = int(np.argmax(grid_vals))
    grid_best, grid_arg = float(grid_vals[k]), grid[k]
    starts = [grid_arg] + _start_sequence(dim, opts.starts)
    ps, vals, iters = _ascend(fn, np.array(starts), [slice(0, dim)], opts.ascent_iters, opts)
    trace = [
        {"stage": "ascent", "start": idx, "value": float(val), "iters": int(count)}
        for idx, (val, count) in enumerate(zip(vals, iters))
    ]
    trace.append({"stage": "grid", "denominator": denom, "value": grid_best})
    k = int(np.argmax(vals))
    return ps[k], float(vals[k]), grid_best, tuple(trace)


def _max_aux_gap(
    y_stack: np.ndarray, z_stack: np.ndarray, u_size: int | None, opts: BoundOptions
) -> tuple[float, AuxiliaryChannelPair]:
    """max over (p_u, X|U) of [min_y I(U;Y) - max_z I(U;Z)].

    ``y_stack`` (Q, A, B) and ``z_stack`` (R, A, C) hold the candidate
    channels the inner minimum and maximum run over (a single channel each in
    the single-letter case).  ``u_size`` defaults to A + 1 and must be at
    least A, so that U = X embeds.  Returns (value, pair).
    """
    input_count = y_stack.shape[-2]
    if u_size is None:
        u_size = input_count + 1
    if u_size < input_count:
        raise ValueError(f"u_size {u_size} below the {input_count} inputs cannot embed U = X")

    def gap(pu: np.ndarray, y_rows: np.ndarray, z_rows: np.ndarray) -> np.ndarray:
        pu = pu[:, None, :]
        return mi_batch(pu, y_rows).min(axis=1) - mi_batch(pu, z_rows).max(axis=1)

    # route 1: deterministic identity embedding, ascent over the input law only
    p_best = maximize_over_simplex(lambda px: gap(px, y_stack, z_stack), input_count, opts)[0]

    # route 2: ascent over p_u and the rows of X|U, flattened into one vector,
    # from route 1's optimum embedded as U = X; no row ends below its start
    def pair_gap(points: np.ndarray) -> np.ndarray:
        x_rows = points[:, None, u_size:].reshape(len(points), 1, u_size, input_count)
        return gap(points[:, :u_size], x_rows @ y_stack, x_rows @ z_stack)

    blocks = [slice(0, u_size)] + [
        slice(u_size + u * input_count, u_size + (u + 1) * input_count) for u in range(u_size)
    ]
    embed_pu = np.zeros(u_size)
    embed_pu[:input_count] = p_best
    starts = [np.concatenate([embed_pu, np.eye(input_count)[np.arange(u_size) % input_count].ravel()])]
    # further starts take p_u and the rows of X|U from the start sequences, past their uniform points
    extra = opts.aux_starts - 2
    pus = _start_sequence(u_size, u_size + 1 + extra)[u_size + 1:]
    rows = _start_sequence(input_count, input_count + 1 + extra * u_size)[input_count + 1:]
    starts += [np.concatenate([pus[i], *rows[i * u_size:(i + 1) * u_size]]) for i in range(extra)]
    points, vals, _ = _ascend(pair_gap, np.array(starts), blocks, opts.aux_iters, opts)
    k = int(np.argmax(vals))
    pair = AuxiliaryChannelPair(
        Distribution(points[k, :u_size]),
        Channel(points[k, u_size:].reshape(u_size, input_count)),
    )
    return float(vals[k]), pair


def _scan_min_over_q(
    evaluate: Objective, s_size: int, opts: BoundOptions
) -> tuple[float, np.ndarray, tuple]:
    """min over the state simplex by a grid scan plus local probe rounds.

    ``evaluate`` maps an (N, S) array of state laws to their N values.  The
    grid step is 1/(``outer_q_points`` - 1).  Each of ``refine_rounds`` rounds
    quarters the step, then probes the pairs of states in turn, moving 1 to 4
    steps of mass either way from the best point so far, until no pair gains.
    """
    denom = opts.outer_q_points - 1
    grid = simplex_grid(s_size, denom)
    vals = evaluate(grid)
    k = int(np.argmin(vals))
    q, best_v, step = grid[k], float(vals[k]), 1.0 / denom
    unit, shifts = np.eye(s_size), np.array([-4, -3, -2, -1, 1, 2, 3, 4])
    pairs = list(itertools.combinations(range(s_size), 2))
    for _ in range(opts.refine_rounds):
        step /= 4.0
        # probe the pairs in turn until each has been probed since the last move
        idle = 0
        for i, j in itertools.cycle(pairs):
            # move 1 to 4 steps of mass from state j to state i or back
            probes = q + np.outer(step * shifts, unit[i] - unit[j])
            inside = np.flatnonzero(probes.min(axis=1) >= 0.0)
            vals = evaluate(probes[inside]) if inside.size else [math.inf]
            k = int(np.argmin(vals))
            idle += 1
            if vals[k] < best_v:
                q, best_v = probes[inside[k]], float(vals[k])
                # a move to the end of the probed range leaves this pair's line unsettled
                idle = int(abs(shifts[inside[k]]) < 4)
            if idle == len(pairs):
                break
    return best_v, q, ({"stage": "outer-q", "points": len(grid), "refined": opts.refine_rounds},)


# ---------------------------------------------------------------------------
# public bounds
# ---------------------------------------------------------------------------

def secrecy_lower_bound(avwc: AVWC, opts: BoundOptions | None = None) -> BoundResult:
    """Achievable secrecy rate max_p [min_q I(p, W_q) - max_s I(p, V_s)], in bits/use.

    The eavesdropper term uses the maximum over single states, which equals
    the supremum over all mixtures because mutual information is convex in
    the channel.
    """
    opts = opts or BoundOptions()
    wstack = avwc.main_stack
    vstack = avwc.eaves_stack

    def objective(px: np.ndarray) -> np.ndarray:
        wmin, _ = min_mi_over_mixtures(px, wstack, opts)
        return wmin - mi_batch(px[:, None, :], vstack).max(axis=1)

    best_p, _, _, trace = maximize_over_simplex(objective, avwc.input_size, opts)
    (wmin,), (qmin,) = min_mi_over_mixtures(best_p[None], wstack, opts)
    vvals = mi_batch(best_p, vstack)
    s_star = int(np.argmax(vvals))
    return BoundResult(
        value=float(wmin - vvals[s_star]),
        argmax_p=Distribution(best_p),
        inner_argmin_q=Distribution(qmin),
        inner_argmax_state=s_star,
        optimizer_trace=trace,
    )


def avc_capacity(
    main: Sequence[Channel], opts: BoundOptions | None = None
) -> BoundResult:
    """Saddle value max_p min_q I(p, W_q) with the symmetrisability dichotomy.

    The saddle value is the random-code capacity; the deterministic-code
    capacity equals it when the family is non-symmetrisable and is zero
    otherwise.
    """
    opts = opts or BoundOptions()
    stack = np.stack([ch.rows for ch in main])

    def objective(px: np.ndarray) -> np.ndarray:
        return min_mi_over_mixtures(px, stack, opts)[0]

    best_p, _, _, trace = maximize_over_simplex(objective, stack.shape[1], opts)
    (value,), (qmin,) = min_mi_over_mixtures(best_p[None], stack, opts)
    value = float(value)
    sym = test_symmetrisable(list(main), opts.structure_tol)
    return BoundResult(
        value=value,
        argmax_p=Distribution(best_p),
        inner_argmin_q=Distribution(qmin),
        inner_argmax_state=None,
        optimizer_trace=trace,
        symmetrisable=sym.symmetrisable,
        deterministic_value=0.0 if sym.symmetrisable else value,
    )


def secrecy_upper_bound_single_letter(
    avwc: AVWC, u_size: int | None = None, opts: BoundOptions | None = None
) -> BoundResult:
    """min over q of max over auxiliary pairs U -> X of I(U;Y_q) - I(U;Z_q).

    |U| = ``u_size``, by default |A| + 1.
    """
    opts = opts or BoundOptions()
    wstack = avwc.main_stack
    vstack = avwc.eaves_stack

    # the probe rounds revisit scanned points, and q_star is one of them
    @functools.cache
    def at(key: tuple[float, ...]) -> tuple[float, AuxiliaryChannelPair]:
        q = np.array(key)
        wq = np.tensordot(q, wstack, axes=1)
        vq = np.tensordot(q, vstack, axes=1)
        return _max_aux_gap(wq[None], vq[None], u_size, opts)

    value, q_star, qtrace = _scan_min_over_q(
        lambda qs: np.array([at(tuple(q))[0] for q in qs]), avwc.state_count, opts
    )
    value, pair = at(tuple(q_star))
    return BoundResult(
        value=value,
        argmax_p=pair.induced_input(),
        inner_argmin_q=Distribution(q_star),
        inner_argmax_state=None,
        optimizer_trace=qtrace,
        aux=pair,
    )


def multiletter_bound(
    avwc: AVWC,
    n: int,
    u_size: int | None = None,
    opts: BoundOptions | None = None,
) -> BoundResult:
    """Per-use value of the length-n auxiliary bound.

    Evaluates (1/n) max over U -> X^n of
    [min_q I(U;Y^n_q) - max_q I(U;Z^n_q)] where Y^n_q, Z^n_q are the n-fold
    products of the mixture channels with one shared q per letter.  Both
    inner extremes run over a coarse grid of q: the minimum over a sub-grid
    is never below the true minimum and the maximum never above the true
    maximum, so at each auxiliary pair the grid objective is never below the
    exact one.  The maximum over U is a heuristic ascent, so the reported
    value may still understate the bound.  ``inner_argmin_q`` is the grid
    point q that minimizes the legitimate receiver's term I(U;Y^n_q) at the
    final auxiliary pair, the minimum the value uses.  |U| = ``u_size``, by
    default |A|^n + 1.
    """
    opts = opts or BoundOptions()
    if n < 1:
        raise ValueError("block length must be at least 1")
    a_size = avwc.input_size
    input_count = a_size**n
    check_enumeration(input_count * avwc.main_output_size**n, "multi-letter main product")
    check_enumeration(input_count * avwc.eaves_output_size**n, "multi-letter eaves product")

    s_size = avwc.state_count
    wstack = avwc.main_stack
    vstack = avwc.eaves_stack
    denom = max(4, opts.q_grid_denominator // 2) if s_size == 2 else max(2, opts.q_grid_denominator // 4)
    q_points = simplex_grid(s_size, denom)

    # one batched n-fold law per family: every input word is a codeword, the q's mixture at each letter
    inputs = word_matrix(a_size, n)[:, None, :]

    def products(stack: np.ndarray) -> np.ndarray:
        mixed = np.tensordot(q_points, stack, axes=1)  # (Q, |A|, |B|)
        return output_law(inputs, np.broadcast_to(mixed[:, None], (len(q_points), n) + mixed.shape[1:]))

    y_products = products(wstack)
    value, pair = _max_aux_gap(y_products, products(vstack), u_size, opts)
    y_info = mi_batch(pair.p_u.probs, pair.x_given_u.rows @ y_products)

    return BoundResult(
        value=value / n,
        argmax_p=pair.induced_input(),
        inner_argmin_q=Distribution(q_points[int(np.argmin(y_info))]),
        inner_argmax_state=None,
        optimizer_trace=({"stage": "multi-letter", "n": n, "q_points": len(q_points)},),
        aux=pair,
    )
