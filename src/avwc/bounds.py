"""Numerical secrecy-capacity bounds for finite AVWCs.

Every objective the optimizers call maps an (N, dim) array of points to N
values through the array-valued kernel ``information.mi_batch``, so a grid
sweep, the finite differences of one ascent step and one scan of a line
search each cost a single call.  Line searches are batched bracket zooms:
each round scans a few points across every bracket and keeps the neighbours
of the best one.

The inner minimization over mixture weights q is convex (mutual information
is convex in the channel and the mixture map is affine), so it is solved for
all input laws of a batch at once: by a zoom along the edge for two states
and by Frank-Wolfe with a zoom line search in general.  The outer
maximization over input distributions (and auxiliary channel pairs) is not
concave; it is attacked with a multi-start ascent along vertex directions,
all starts advancing together, plus a coarse simplex-grid sweep used as a
floor.  When the grid beats the ascent the difference is reported as
``certified_gap`` instead of being hidden.  Negative bound values are
reported as computed: a rate below zero just means the bound is vacuous.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channels import AVWC, Channel, Distribution, product_rows_matrix, simplex_grid
from .feasibility import DEFAULT_TOL
from .information import mi_batch
from .structure import test_symmetrisable

_LOG_FLOOR = -1024.0  # stand-in for log2 of an exactly-zero transition
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# An objective maps an (N, dim) array of points to their (N,) values.
Objective = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class BoundOptions:
    """Optimizer knobs; the defaults target desk-scale instances.

    ``line_search_points`` is the number of points of each batched line-search
    scan (at least 4 are used).  ``golden_iters`` sets line-search precision:
    a line search stops once its bracket is no wider than inv_phi**golden_iters
    of the searched interval, the final bracket of that many golden-section
    steps.
    """

    starts: int = 32
    p_grid_denominator: int = 64      # simplex grid step 1/64 while |A| <= 3
    coarse_grid_denominator: int = 8  # fallback step for larger alphabets
    ascent_iters: int = 60
    fd_step: float = 1e-5
    line_search_points: int = 9
    golden_iters: int = 40
    q_grid_denominator: int = 16
    fw_tol: float = 1e-8
    fw_max_iters: int = 500
    outer_q_points: int = 17
    refine_rounds: int = 3
    aux_starts: int = 4
    aux_iters: int = 50
    structure_tol: float = DEFAULT_TOL
    seed: int = 20240


@dataclass(frozen=True, eq=False)
class AuxiliaryChannelPair:
    """Auxiliary input U with its distribution and the channel from U to A."""

    u_size: int
    p_u: Distribution
    x_given_u: Channel

    def induced_input(self) -> Distribution:
        return Distribution(self.p_u.probs @ self.x_given_u.rows)


@dataclass(frozen=True, eq=False)
class BoundResult:
    value: float
    argmax_p: Distribution | None
    inner_argmin_q: Distribution | None
    inner_argmax_state: int | None
    optimizer_trace: tuple
    certified_gap: float
    aux: AuxiliaryChannelPair | None = None
    symmetrisable: bool | None = None
    deterministic_value: float | None = None


# ---------------------------------------------------------------------------
# simplex helpers and the batched line search
# ---------------------------------------------------------------------------

def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u + (1.0 - css) / np.arange(1, len(v) + 1) > 0)[0][-1]
    lam = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + lam, 0.0)


def _line_max(
    fn: Callable[[np.ndarray], np.ndarray], rows: int, opts: BoundOptions, iters: int
) -> tuple[np.ndarray, np.ndarray]:
    """Maximize ``rows`` functions of t on [0, 1] at once by a bracket zoom.

    ``fn`` maps an (rows, m) array of steps to their values, row r holding
    steps of the r-th function.  Each round scans m = ``line_search_points``
    points across every bracket and keeps the neighbours of the best one,
    until no bracket is wider than inv_phi**iters.  The search is exact for
    unimodal functions.  Returns the best step and value of every row.
    """
    grid = np.linspace(0.0, 1.0, max(opts.line_search_points, 4))
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
    """min over q of I(p, sum_s q_s W_s); convex in q.

    ``px`` is one input law (A,), giving ``(value, q)`` with q of shape (S,),
    or a batch (N, A), giving values (N,) and weights (N, S).
    """
    px = np.asarray(px, dtype=float)
    batch = np.atleast_2d(px)
    s_size = stack.shape[0]
    if s_size == 1:
        values, q = mi_batch(batch, stack[0]), np.ones((len(batch), 1))
    elif s_size == 2:
        def along_edge(ts: np.ndarray) -> np.ndarray:
            mixed = np.tensordot(np.stack([1.0 - ts, ts], axis=-1), stack, axes=1)
            return -mi_batch(batch[:, None, :], mixed)

        t, neg = _line_max(along_edge, len(batch), opts, opts.golden_iters + 20)
        values, q = -neg, np.stack([1.0 - t, t], axis=1)
    else:
        values, q = _frank_wolfe_min(batch, stack, opts)
    if px.ndim == 1:
        return float(values[0]), q[0]
    return values, q


def _frank_wolfe_min(px: np.ndarray, stack: np.ndarray, opts: BoundOptions):
    """Frank-Wolfe from the best q-grid point, for every row of ``px`` at once.

    A row leaves the batch once its Frank-Wolfe gap is at most ``fw_tol`` or
    its line search stays at the current point.
    """
    grid = np.array(list(simplex_grid(stack.shape[0], opts.q_grid_denominator)))
    vals = mi_batch(px[:, None, :], np.tensordot(grid, stack, axes=1))
    q = grid[np.argmin(vals, axis=1)]
    active = np.arange(len(px))
    for _ in range(opts.fw_max_iters):
        p = px[active]
        mixed = np.tensordot(q[active], stack, axes=1)  # (R, A, B)
        out = (p[:, None, :] @ mixed)[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            log_ratio = np.log2(mixed) - np.log2(out)[:, None, :]
        log_ratio = np.where(mixed > 0.0, log_ratio, _LOG_FLOOR)
        log_ratio = np.where(p[:, :, None] > 0.0, log_ratio, 0.0)
        grad = np.einsum("ra,sab,rab->rs", p, stack, log_ratio)
        vertex = np.argmin(grad, axis=1)
        gap = np.sum(grad * q[active], axis=1) - grad[np.arange(len(active)), vertex]
        keep = gap > opts.fw_tol
        active, p, mixed, vertex = active[keep], p[keep], mixed[keep], vertex[keep]
        if not active.size:
            break
        direction = stack[vertex] - mixed

        def along(ts: np.ndarray) -> np.ndarray:
            trial = mixed[:, None] + ts[..., None, None] * direction[:, None]
            return -mi_batch(p[:, None, :], trial)

        t, _ = _line_max(along, len(active), opts, opts.golden_iters)
        keep = t > 0.0
        active, t, vertex = active[keep], t[keep], vertex[keep]
        if not active.size:
            break
        moved = (1.0 - t)[:, None] * q[active]
        moved[np.arange(len(active)), vertex] += t
        moved = np.maximum(moved, 0.0)
        q[active] = moved / moved.sum(axis=1, keepdims=True)
    return mi_batch(px, np.tensordot(q, stack, axes=1)), q


# ---------------------------------------------------------------------------
# outer maximization over a product of simplices
# ---------------------------------------------------------------------------

def _default_starts(dim: int, count: int, seed: int) -> list[np.ndarray]:
    starts = [np.eye(dim)[i] for i in range(dim)]
    starts.append(np.full(dim, 1.0 / dim))
    rng = np.random.Generator(np.random.Philox(key=seed))
    while len(starts) < count:
        starts.append(rng.dirichlet(np.ones(dim)))
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
    h = opts.fd_step
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

        t, new_value = _line_max(along, len(active), opts, opts.golden_iters)
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

    ``fn`` maps an (N, dim) array of input laws to their N values.
    """
    denom = opts.p_grid_denominator if dim <= 3 else opts.coarse_grid_denominator
    grid = np.array(list(simplex_grid(dim, denom))).reshape(-1, dim)
    starts = _default_starts(dim, opts.starts, opts.seed)
    grid_best, grid_arg = -math.inf, None
    if len(grid):
        grid_vals = fn(grid)
        k = int(np.argmax(grid_vals))
        grid_best, grid_arg = float(grid_vals[k]), grid[k]
        starts.insert(0, grid_arg)

    ps, vals, iters = _ascend(fn, np.array(starts), [slice(0, dim)], opts.ascent_iters, opts)
    trace = [
        {"stage": "ascent", "start": idx, "value": float(val), "iters": int(count)}
        for idx, (val, count) in enumerate(zip(vals, iters))
    ]
    trace.append({"stage": "grid", "denominator": denom, "value": grid_best})
    k = int(np.argmax(vals))
    if grid_best > vals[k]:
        return grid_arg, grid_best, grid_best, tuple(trace)
    return ps[k], float(vals[k]), grid_best, tuple(trace)


def _max_aux_gap(
    y_stack: np.ndarray,
    z_stack: np.ndarray,
    input_count: int,
    u_size: int,
    opts: BoundOptions,
) -> tuple[float, AuxiliaryChannelPair, float]:
    """max over (p_u, X|U) of [min_y I(U;Y) - max_z I(U;Z)].

    ``y_stack`` (Q, A, B) and ``z_stack`` (R, A, C) hold the candidate
    channels the inner minimum and maximum run over (a single channel each in
    the single-letter case).  Returns (value, pair, plain-input-route value).
    """
    if u_size < input_count:
        raise ValueError("u_size must allow the deterministic U = X embedding")

    def gap(pu: np.ndarray, y_rows: np.ndarray, z_rows: np.ndarray) -> np.ndarray:
        pu = pu[:, None, :]
        return mi_batch(pu, y_rows).min(axis=1) - mi_batch(pu, z_rows).max(axis=1)

    # route 1: deterministic identity embedding, ascent over the input law only
    p_best, p_val, p_grid, _ = maximize_over_simplex(
        lambda px: gap(px, y_stack, z_stack), input_count, opts
    )
    route1 = max(p_val, p_grid)

    # route 2: ascent over p_u and the rows of X|U, flattened into one vector
    def pair_gap(points: np.ndarray) -> np.ndarray:
        x_rows = points[:, None, u_size:].reshape(len(points), 1, u_size, input_count)
        return gap(points[:, :u_size], x_rows @ y_stack, x_rows @ z_stack)

    blocks = [slice(0, u_size)] + [
        slice(u_size + u * input_count, u_size + (u + 1) * input_count) for u in range(u_size)
    ]
    embed_rows = np.eye(input_count)[np.arange(u_size) % input_count]
    embed_pu = np.zeros(u_size)
    embed_pu[:input_count] = p_best
    starts = [
        np.concatenate([embed_pu, embed_rows.ravel()]),
        np.concatenate(
            [np.full(u_size, 1.0 / u_size), np.full(embed_rows.size, 1.0 / input_count)]
        ),
    ]
    rng = np.random.Generator(np.random.Philox(key=opts.seed + 1))
    while len(starts) < max(2, opts.aux_starts):
        pu = rng.dirichlet(np.ones(u_size))
        rows = [rng.dirichlet(np.ones(input_count)) for _ in range(u_size)]
        starts.append(np.concatenate([pu] + rows))
    points, vals, _ = _ascend(pair_gap, np.array(starts), blocks, opts.aux_iters, opts)
    k = int(np.argmax(vals))

    if route1 >= vals[k]:
        pair = AuxiliaryChannelPair(u_size, Distribution(embed_pu), Channel(embed_rows))
        return route1, pair, route1
    pair = AuxiliaryChannelPair(
        u_size,
        Distribution(points[k, :u_size]),
        Channel(points[k, u_size:].reshape(u_size, input_count)),
    )
    return float(vals[k]), pair, route1


def _scan_min_over_q(
    evaluate: Objective, s_size: int, opts: BoundOptions
) -> tuple[float, np.ndarray, tuple]:
    """min over the state simplex by grid scan plus local zoom refinement.

    ``evaluate`` maps an (N, S) array of state laws to their N values.
    """
    if s_size == 1:
        q = np.ones(1)
        return float(evaluate(q[None])[0]), q, ({"stage": "outer-q", "points": 1},)
    if s_size == 2:
        lo, hi, count = 0.0, 1.0, opts.outer_q_points
        best_t, best_v = 0.0, math.inf
        for _ in range(opts.refine_rounds + 1):
            ts = np.linspace(lo, hi, count)
            vals = evaluate(np.stack([1.0 - ts, ts], axis=1))
            k = int(np.argmin(vals))
            if vals[k] < best_v:
                best_t, best_v = ts[k], vals[k]
            lo, hi, count = ts[max(0, k - 1)], ts[min(count - 1, k + 1)], 9
        trace = {"stage": "outer-q", "points": opts.outer_q_points, "refined": opts.refine_rounds}
        return float(best_v), np.array([1.0 - best_t, best_t]), (trace,)

    grid = np.array(list(simplex_grid(s_size, opts.q_grid_denominator)))
    vals = evaluate(grid)
    k = int(np.argmin(vals))
    q, best_v = grid[k], float(vals[k])
    # probes move mass `step` from state j to state i; the best improving probe is taken
    moves = np.array([(i, j) for i in range(s_size) for j in range(s_size) if i != j])
    step = 1.0 / opts.q_grid_denominator
    for _ in range(opts.refine_rounds * 8):
        amount = np.minimum(step, q[moves[:, 1]])
        probes = np.repeat(q[None], len(moves), axis=0)
        rows = np.arange(len(moves))
        probes[rows, moves[:, 1]] -= amount
        probes[rows, moves[:, 0]] += amount
        probes = probes[amount > 0.0]
        vals = evaluate(probes)
        k = int(np.argmin(vals))
        if vals[k] < best_v - 1e-12:
            q, best_v = probes[k], float(vals[k])
            continue
        step /= 2.0
        if step < 1e-4:
            break
    return best_v, q, ({"stage": "outer-q", "points": "grid+probe"},)


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

    best_p, _, grid_best, trace = maximize_over_simplex(objective, avwc.input_size, opts)
    wmin, qmin = min_mi_over_mixtures(best_p, wstack, opts)
    vvals = mi_batch(best_p, vstack)
    s_star = int(np.argmax(vvals))
    value = wmin - float(vvals[s_star])
    gap = max(0.0, grid_best - value)
    return BoundResult(
        value=value,
        argmax_p=Distribution(best_p),
        inner_argmin_q=Distribution(qmin),
        inner_argmax_state=s_star,
        optimizer_trace=trace,
        certified_gap=gap,
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

    best_p, _, grid_best, trace = maximize_over_simplex(objective, stack.shape[1], opts)
    value, qmin = min_mi_over_mixtures(best_p, stack, opts)
    sym = test_symmetrisable(list(main), opts.structure_tol)
    return BoundResult(
        value=value,
        argmax_p=Distribution(best_p),
        inner_argmin_q=Distribution(qmin),
        inner_argmax_state=None,
        optimizer_trace=trace,
        certified_gap=max(0.0, grid_best - value),
        symmetrisable=sym.symmetrisable,
        deterministic_value=0.0 if sym.symmetrisable else value,
    )


def secrecy_upper_bound_single_letter(
    avwc: AVWC, u_size: int | None = None, opts: BoundOptions | None = None
) -> BoundResult:
    """min over q of max over auxiliary pairs U -> X of I(U;Y_q) - I(U;Z_q)."""
    opts = opts or BoundOptions()
    a_size = avwc.input_size
    if u_size is None:
        u_size = a_size + 1
    if u_size < a_size:
        raise ValueError("u_size below the input alphabet size cannot embed U = X")
    wstack = avwc.main_stack
    vstack = avwc.eaves_stack

    def at(q: np.ndarray) -> tuple[float, AuxiliaryChannelPair, float]:
        wq = np.tensordot(q, wstack, axes=1)
        vq = np.tensordot(q, vstack, axes=1)
        return _max_aux_gap(wq[None], vq[None], a_size, u_size, opts)

    value, q_star, qtrace = _scan_min_over_q(
        lambda qs: np.array([at(q)[0] for q in qs]), avwc.state_count, opts
    )
    value, pair, route1 = at(q_star)
    return BoundResult(
        value=value,
        argmax_p=pair.induced_input(),
        inner_argmin_q=Distribution(q_star),
        inner_argmax_state=None,
        optimizer_trace=qtrace,
        certified_gap=max(0.0, route1 - value),
        aux=pair,
    )


def multiletter_bound(
    avwc: AVWC,
    n: int,
    u_size: int | None = None,
    opts: BoundOptions | None = None,
    per_letter: bool = False,
) -> BoundResult:
    """Per-use value of the length-n auxiliary bound.

    Evaluates (1/n) max over U -> X^n of
    [min_q I(U;Y^n_q) - max_q I(U;Z^n_q)] where Y^n_q, Z^n_q are the n-fold
    products of the mixture channels with one shared q per letter; with
    ``per_letter=True`` the products range over independently chosen per-letter
    weights drawn from the same grid.  Both inner extremes run over a coarse
    grid of q: the minimum over a sub-grid is never below the true minimum
    and the maximum never above the true maximum, so the reported value never
    understates the objective's maximum over U.
    """
    opts = opts or BoundOptions()
    if n < 1:
        raise ValueError("block length must be at least 1")
    a_size = avwc.input_size
    input_count = a_size**n
    if u_size is None:
        u_size = input_count + 1
    if u_size < input_count:
        raise ValueError("u_size below |A|^n cannot embed U = X^n")
    from .channels import check_enumeration

    check_enumeration(input_count * avwc.main_output_size**n, "multi-letter main product")
    check_enumeration(input_count * avwc.eaves_output_size**n, "multi-letter eaves product")

    s_size = avwc.state_count
    wstack = avwc.main_stack
    vstack = avwc.eaves_stack
    if s_size == 1:
        q_points = [np.ones(1)]
    elif s_size == 2:
        denom = max(4, opts.q_grid_denominator // 2)
        q_points = [np.array([1.0 - k / denom, k / denom]) for k in range(denom + 1)]
    else:
        q_points = list(simplex_grid(s_size, max(2, opts.q_grid_denominator // 4)))

    def products(points: Sequence[np.ndarray], stack: np.ndarray) -> np.ndarray:
        singles = [np.tensordot(q, stack, axes=1) for q in points]
        if not per_letter:
            return np.stack([product_rows_matrix([rows] * n) for rows in singles])
        combos = itertools.product(singles, repeat=n)
        return np.stack([product_rows_matrix(list(combo)) for combo in combos])

    value, pair, route1 = _max_aux_gap(
        products(q_points, wstack), products(q_points, vstack), input_count, u_size, opts
    )

    # the shared q that minimizes the legitimate receiver's term at the final pair
    q_min = None
    if not per_letter and s_size > 1:
        rows_ux = pair.x_given_u.rows
        pu = pair.p_u.probs

        def y_at(qs: np.ndarray) -> np.ndarray:
            return mi_batch(pu, rows_ux @ products(list(qs), wstack))

        _, q_min, _ = _scan_min_over_q(y_at, s_size, opts)
    elif s_size == 1:
        q_min = np.ones(1)

    return BoundResult(
        value=value / n,
        argmax_p=pair.induced_input(),
        inner_argmin_q=Distribution(q_min) if q_min is not None else None,
        inner_argmax_state=None,
        optimizer_trace=({"stage": "multi-letter", "n": n, "q_points": len(q_points), "per_letter": per_letter},),
        certified_gap=max(0.0, (route1 - value) / n),
        aux=pair,
    )
