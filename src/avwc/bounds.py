"""Numerical secrecy-capacity bounds for finite AVWCs.

The inner minimization over mixture weights q is convex (mutual information
is convex in the channel and the mixture map is affine), so it is solved by
golden-section search for two states and Frank-Wolfe with exact line search
in general.  The outer maximization over input distributions (and auxiliary
channel pairs) is not concave; it is attacked with a multi-start ascent along
vertex directions plus a coarse simplex-grid sweep used as a floor.  When the
grid beats the ascent the difference is reported as ``certified_gap`` instead
of being hidden.  Negative bound values are reported as computed: a rate
below zero just means the bound is vacuous.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channels import AVWC, Channel, Distribution, product_rows_matrix, simplex_grid
from .feasibility import DEFAULT_TOL
from .information import mi_from_arrays
from .structure import test_symmetrisable

_LOG_FLOOR = -1024.0  # stand-in for log2 of an exactly-zero transition


@dataclass(frozen=True)
class BoundOptions:
    """Optimizer knobs; the defaults target desk-scale instances."""

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
# simplex helpers
# ---------------------------------------------------------------------------

def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u + (1.0 - css) / np.arange(1, len(v) + 1) > 0)[0][-1]
    lam = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + lam, 0.0)


def _golden_min(fn: Callable[[float], float], lo: float, hi: float, iters: int) -> tuple[float, float]:
    """Golden-section minimum of a unimodal function on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    candidates = [(fn(lo), lo), (fc, c), (fd, d), (fn(hi), hi)]
    best = min(candidates, key=lambda t: t[0])
    return best[1], best[0]


def _golden_max(fn, lo, hi, iters):
    t, v = _golden_min(lambda x: -fn(x), lo, hi, iters)
    return t, -v


# ---------------------------------------------------------------------------
# inner minimization over mixture weights
# ---------------------------------------------------------------------------

def min_mi_over_mixtures(
    px: np.ndarray, stack: np.ndarray, opts: BoundOptions
) -> tuple[float, np.ndarray]:
    """min over q of I(p, sum_s q_s W_s); convex in q."""
    s_size = stack.shape[0]
    if s_size == 1:
        return mi_from_arrays(px, stack[0]), np.ones(1)
    if s_size == 2:
        def phi(t: float) -> float:
            return mi_from_arrays(px, (1.0 - t) * stack[0] + t * stack[1])

        t, val = _golden_min(phi, 0.0, 1.0, opts.golden_iters + 20)
        return val, np.array([1.0 - t, t])
    return _frank_wolfe_min(px, stack, opts)


def _frank_wolfe_min(px, stack, opts) -> tuple[float, np.ndarray]:
    s_size = stack.shape[0]
    best_q = None
    best_val = math.inf
    for q in simplex_grid(s_size, opts.q_grid_denominator):
        val = mi_from_arrays(px, np.tensordot(q, stack, axes=1))
        if val < best_val - 1e-15:
            best_val = val
            best_q = q
    q = best_q.copy()
    weighted = px[:, None] * stack  # (S, A, B), gradient weights
    for _ in range(opts.fw_max_iters):
        mixed = np.tensordot(q, stack, axes=1)
        out = px @ mixed
        with np.errstate(divide="ignore", invalid="ignore"):
            log_ratio = np.log2(mixed) - np.log2(out)[None, :]
        log_ratio = np.where(mixed > 0.0, log_ratio, _LOG_FLOOR)
        log_ratio = np.where(px[:, None] > 0.0, log_ratio, 0.0)
        grad = np.einsum("sab,ab->s", weighted, log_ratio)
        vertex = int(np.argmin(grad))
        gap = float(grad @ q - grad[vertex])
        if gap <= opts.fw_tol:
            break

        direction = stack[vertex] - mixed

        def phi(t: float) -> float:
            return mi_from_arrays(px, mixed + t * direction)

        t, _ = _golden_min(phi, 0.0, 1.0, opts.golden_iters)
        if t <= 0.0:
            break
        q = (1.0 - t) * q
        q[vertex] += t
        q = np.maximum(q, 0.0)
        q /= q.sum()
    return mi_from_arrays(px, np.tensordot(q, stack, axes=1)), q


# ---------------------------------------------------------------------------
# outer maximization over one simplex
# ---------------------------------------------------------------------------

def _default_starts(dim: int, count: int, seed: int) -> list[np.ndarray]:
    starts = [np.eye(dim)[i] for i in range(dim)]
    starts.append(np.full(dim, 1.0 / dim))
    rng = np.random.Generator(np.random.Philox(key=seed))
    while len(starts) < count:
        starts.append(rng.dirichlet(np.ones(dim)))
    return starts[:count]


def _line_max(fn: Callable[[float], float], opts: BoundOptions) -> tuple[float, float]:
    """Maximize fn on [0, 1]: coarse scan then golden refinement around the peak."""
    ts = np.linspace(0.0, 1.0, opts.line_search_points)
    vals = [fn(float(t)) for t in ts]
    k = int(np.argmax(vals))
    lo = float(ts[max(0, k - 1)])
    hi = float(ts[min(len(ts) - 1, k + 1)])
    t, v = _golden_max(fn, lo, hi, opts.golden_iters)
    if vals[k] >= v:
        return float(ts[k]), vals[k]
    return t, v


def _ascend_on_simplex(fn, start: np.ndarray, opts: BoundOptions) -> tuple[np.ndarray, float, int]:
    p = start.copy()
    value = fn(p)
    h = opts.fd_step
    dim = len(p)
    iters = 0
    for _ in range(opts.ascent_iters):
        iters += 1
        derivs = np.full(dim, -math.inf)
        for i in range(dim):
            direction = -p.copy()
            direction[i] += 1.0
            if np.max(np.abs(direction)) < 1e-12:
                continue
            fwd = fn(p + h * direction)
            if p[i] >= h / (1.0 + h):
                back = fn(p - h * direction)
                derivs[i] = (fwd - back) / (2.0 * h)
            else:
                derivs[i] = (fwd - value) / h
        i_best = int(np.argmax(derivs))
        if not derivs[i_best] > 1e-9:
            break
        direction = -p.copy()
        direction[i_best] += 1.0

        def along(t: float) -> float:
            return fn(p + t * direction)

        t, new_value = _line_max(along, opts)
        if new_value <= value + 1e-12:
            break
        p = np.maximum(p + t * direction, 0.0)
        p /= p.sum()
        value = new_value
    return p, value, iters


def maximize_over_simplex(
    fn: Callable[[np.ndarray], float],
    dim: int,
    opts: BoundOptions,
    extra_starts: Sequence[np.ndarray] = (),
) -> tuple[np.ndarray, float, float, tuple]:
    """Multi-start ascent plus grid sweep; returns (p, value, grid_best, trace)."""
    denom = opts.p_grid_denominator if dim <= 3 else opts.coarse_grid_denominator
    grid_best = -math.inf
    grid_arg = None
    for p in simplex_grid(dim, denom):
        val = fn(p)
        if val > grid_best + 1e-15:
            grid_best = val
            grid_arg = p

    starts = list(extra_starts) + _default_starts(dim, opts.starts, opts.seed)
    if grid_arg is not None:
        starts.insert(0, grid_arg)

    best_p, best_val = None, -math.inf
    trace = []
    for idx, start in enumerate(starts):
        p, val, iters = _ascend_on_simplex(fn, np.asarray(start, dtype=float), opts)
        trace.append({"stage": "ascent", "start": idx, "value": val, "iters": iters})
        if val > best_val + 1e-15:
            best_val = val
            best_p = p
    trace.append({"stage": "grid", "denominator": denom, "value": grid_best})
    if grid_best > best_val:
        best_val = grid_best
        best_p = grid_arg
    return best_p, best_val, grid_best, tuple(trace)


# ---------------------------------------------------------------------------
# maximization over a product of simplices (auxiliary channel pairs)
# ---------------------------------------------------------------------------

def _ascend_blocks(fn, blocks: list[np.ndarray], opts: BoundOptions, iters_cap: int):
    """Block-coordinate vertex-direction ascent over a product of simplices."""
    value = fn(blocks)
    h = opts.fd_step
    for _ in range(iters_cap):
        best = (None, None, -math.inf)  # (block index, coord, derivative)
        for bi, block in enumerate(blocks):
            for i in range(len(block)):
                direction = -block.copy()
                direction[i] += 1.0
                if np.max(np.abs(direction)) < 1e-12:
                    continue
                trial = [b.copy() for b in blocks]
                trial[bi] = block + h * direction
                fwd = fn(trial)
                deriv = (fwd - value) / h
                if deriv > best[2]:
                    best = (bi, i, deriv)
        if best[0] is None or not best[2] > 1e-8:
            break
        bi, i, _ = best
        direction = -blocks[bi].copy()
        direction[i] += 1.0

        def along(t: float) -> float:
            trial = [b.copy() for b in blocks]
            trial[bi] = blocks[bi] + t * direction
            return fn(trial)

        t, new_value = _line_max(along, opts)
        if new_value <= value + 1e-12:
            break
        blocks[bi] = np.maximum(blocks[bi] + t * direction, 0.0)
        blocks[bi] /= blocks[bi].sum()
        value = new_value
    return blocks, value


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

    def objective(px: np.ndarray) -> float:
        wmin, _ = min_mi_over_mixtures(px, wstack, opts)
        vmax = max(mi_from_arrays(px, rows) for rows in vstack)
        return wmin - vmax

    best_p, _, grid_best, trace = maximize_over_simplex(objective, avwc.input_size, opts)
    wmin, qmin = min_mi_over_mixtures(best_p, wstack, opts)
    vvals = [mi_from_arrays(best_p, rows) for rows in vstack]
    s_star = int(np.argmax(vvals))
    value = wmin - vvals[s_star]
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

    def objective(px: np.ndarray) -> float:
        val, _ = min_mi_over_mixtures(px, stack, opts)
        return val

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


def _max_aux_gap(
    y_rows_list: Sequence[np.ndarray],
    z_rows_list: Sequence[np.ndarray],
    input_count: int,
    u_size: int,
    opts: BoundOptions,
    y_reduce=min,
    z_reduce=max,
) -> tuple[float, AuxiliaryChannelPair, float]:
    """max over (p_u, X|U) of [reduce_y I(U;Y) - reduce_z I(U;Z)].

    ``y_rows_list``/``z_rows_list`` hold the candidate channels the inner
    reductions run over (a single channel each in the single-letter case).
    Returns (value, pair, plain-input-route value).
    """
    if u_size < input_count:
        raise ValueError("u_size must allow the deterministic U = X embedding")

    def gap_for_input(px: np.ndarray) -> float:
        y = y_reduce(mi_from_arrays(px, rows) for rows in y_rows_list)
        z = z_reduce(mi_from_arrays(px, rows) for rows in z_rows_list)
        return y - z

    # route 1: deterministic identity embedding, ascent over the input law only
    p_best, p_val, p_grid, _ = maximize_over_simplex(gap_for_input, input_count, opts)
    route1 = max(p_val, p_grid)

    def blocks_obj(blocks: list[np.ndarray]) -> float:
        pu = blocks[0]
        x_rows = np.stack(blocks[1:])
        y = y_reduce(mi_from_arrays(pu, x_rows @ rows) for rows in y_rows_list)
        z = z_reduce(mi_from_arrays(pu, x_rows @ rows) for rows in z_rows_list)
        return y - z

    starts: list[list[np.ndarray]] = []
    embed_rows = [np.eye(input_count)[u % input_count] for u in range(u_size)]
    embed_pu = np.zeros(u_size)
    embed_pu[:input_count] = p_best[: min(input_count, u_size)]
    if embed_pu.sum() <= 0:
        embed_pu[:] = 1.0
    embed_pu /= embed_pu.sum()
    starts.append([embed_pu] + [r.copy() for r in embed_rows])
    starts.append([np.full(u_size, 1.0 / u_size)] + [np.full(input_count, 1.0 / input_count) for _ in range(u_size)])
    rng = np.random.Generator(np.random.Philox(key=opts.seed + 1))
    while len(starts) < max(2, opts.aux_starts):
        starts.append(
            [rng.dirichlet(np.ones(u_size))] + [rng.dirichlet(np.ones(input_count)) for _ in range(u_size)]
        )

    best_val = -math.inf
    best_blocks = None
    for blocks in starts:
        blocks, val = _ascend_blocks(blocks_obj, [b.copy() for b in blocks], opts, opts.aux_iters)
        if val > best_val + 1e-15:
            best_val = val
            best_blocks = blocks

    if route1 >= best_val:
        pu = np.zeros(u_size)
        pu[:input_count] = p_best
        rows = np.stack([np.eye(input_count)[u % input_count] for u in range(u_size)])
        pair = AuxiliaryChannelPair(u_size, Distribution(pu), Channel(rows))
        return route1, pair, route1
    pair = AuxiliaryChannelPair(
        u_size, Distribution(best_blocks[0]), Channel(np.stack(best_blocks[1:]))
    )
    return best_val, pair, route1


def _scan_min_over_q(
    evaluate: Callable[[np.ndarray], float], s_size: int, opts: BoundOptions
) -> tuple[float, np.ndarray, tuple]:
    """min over the state simplex by grid scan plus local zoom refinement."""
    trace = []
    if s_size == 1:
        q = np.ones(1)
        return evaluate(q), q, ({"stage": "outer-q", "points": 1},)
    if s_size == 2:
        points = np.linspace(0.0, 1.0, opts.outer_q_points)
        vals = [evaluate(np.array([1.0 - t, t])) for t in points]
        k = int(np.argmin(vals))
        lo = points[max(0, k - 1)]
        hi = points[min(len(points) - 1, k + 1)]
        best_t, best_v = points[k], vals[k]
        for _ in range(opts.refine_rounds):
            points = np.linspace(lo, hi, 9)
            vals = [evaluate(np.array([1.0 - t, t])) for t in points]
            k = int(np.argmin(vals))
            if vals[k] < best_v:
                best_v, best_t = vals[k], points[k]
            lo = points[max(0, k - 1)]
            hi = points[min(len(points) - 1, k + 1)]
        trace.append({"stage": "outer-q", "points": opts.outer_q_points, "refined": opts.refine_rounds})
        return best_v, np.array([1.0 - best_t, best_t]), tuple(trace)

    best_q, best_v = None, math.inf
    for q in simplex_grid(s_size, opts.q_grid_denominator):
        val = evaluate(q)
        if val < best_v - 1e-15:
            best_v, best_q = val, q
    step = 1.0 / opts.q_grid_denominator
    q = best_q.copy()
    for _ in range(opts.refine_rounds * 8):
        improved = False
        for i in range(s_size):
            for j in range(s_size):
                if i == j:
                    continue
                cand = q.copy()
                move = min(step, cand[j])
                if move <= 0:
                    continue
                cand[j] -= move
                cand[i] += move
                val = evaluate(cand)
                if val < best_v - 1e-12:
                    best_v, q = val, cand
                    improved = True
        if not improved:
            step /= 2.0
            if step < 1e-4:
                break
    trace.append({"stage": "outer-q", "points": "grid+probe"})
    return best_v, q, tuple(trace)


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

    def inner(q: np.ndarray) -> float:
        wq = np.tensordot(q, wstack, axes=1)
        vq = np.tensordot(q, vstack, axes=1)
        val, _, _ = _max_aux_gap([wq], [vq], a_size, u_size, opts)
        return val

    value, q_star, qtrace = _scan_min_over_q(inner, avwc.state_count, opts)
    wq = np.tensordot(q_star, wstack, axes=1)
    vq = np.tensordot(q_star, vstack, axes=1)
    value, pair, route1 = _max_aux_gap([wq], [vq], a_size, u_size, opts)
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
    weights drawn from the same grid.
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

    def products(points: Sequence[np.ndarray], stack: np.ndarray) -> list[np.ndarray]:
        singles = [np.tensordot(q, stack, axes=1) for q in points]
        if not per_letter:
            return [product_rows_matrix([rows] * n) for rows in singles]
        combos = []
        for combo in itertools.product(singles, repeat=n):
            combos.append(product_rows_matrix(list(combo)))
        return combos

    y_products = products(q_points, wstack)
    z_products = products(q_points, vstack)

    value, pair, route1 = _max_aux_gap(y_products, z_products, input_count, u_size, opts)

    # refine the shared-q extremes at the final auxiliary pair
    q_min = None
    if not per_letter and s_size > 1:
        rows_ux = pair.x_given_u.rows
        pu = pair.p_u.probs

        def y_at(q: np.ndarray) -> float:
            return mi_from_arrays(pu, rows_ux @ product_rows_matrix([np.tensordot(q, wstack, axes=1)] * n))

        def z_at(q: np.ndarray) -> float:
            return mi_from_arrays(pu, rows_ux @ product_rows_matrix([np.tensordot(q, vstack, axes=1)] * n))

        y_val, q_min, _ = _scan_min_over_q(y_at, s_size, opts)
        z_val, _, _ = _scan_min_over_q(lambda q: -z_at(q), s_size, opts)
        value = min(value, y_val + z_val)  # z_val is the negated maximum
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
