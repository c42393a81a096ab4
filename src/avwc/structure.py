"""Decision procedures for channel structure.

Symmetrisability of the main family, pairwise degradedness between
eavesdropper channels, and existence of a best (least favourable for the
sender) eavesdropper channel.  Each test is a small linear feasibility
problem; every returned witness is re-checked by direct substitution rather
than trusted from the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import Channel, Distribution
from .feasibility import DEFAULT_TOL, LinearSystem, solve_feasibility

_MARGINAL_FACTOR = 10.0


@dataclass(frozen=True, eq=False)
class SymmetrisabilityReport:
    symmetrisable: bool
    u_witness: Channel | None
    margin: float
    tol: float
    residual: float | None
    marginal: bool


@dataclass(frozen=True, eq=False)
class DegradednessReport:
    degraded: bool
    d_witness: Channel | None
    residual: float
    margin: float


@dataclass(frozen=True, eq=False)
class BestChannelReport:
    exists: bool
    q_star: Distribution | None
    per_state_reports: tuple[DegradednessReport, ...]
    candidates_tried: int


def symmetrisation_residual(main: Sequence[Channel], u_rows: np.ndarray) -> float:
    """Max violation of the symmetry identity when substituting U(s|x)."""
    stack = np.stack([ch.rows for ch in main])  # (S, A, B)
    # left[x, x', y] = sum_s W_s(y|x) U(s|x')
    left = np.einsum("sxy,as->xay", stack, u_rows)
    return float(np.max(np.abs(left - left.transpose(1, 0, 2))))


def _solve_row_stochastic(
    shape: tuple[int, int], coef: np.ndarray, rhs: np.ndarray, tol: float
) -> tuple[np.ndarray | None, float]:
    """Find a row-stochastic matrix M of ``shape`` with ``coef @ M.ravel() = rhs``.

    Returns the solver's witness clamped at zero and renormalised, with
    margin 0.0, or None with the phase-1 infeasibility margin.
    """
    rows, cols = shape
    unit_rows = np.repeat(np.eye(rows), cols, axis=1)
    system = LinearSystem(np.vstack([unit_rows, coef]), np.concatenate([np.ones(rows), rhs]))
    result = solve_feasibility(system, tol)
    if not result.feasible:
        return None, result.infeasibility_margin
    witness = np.maximum(result.witness.reshape(shape), 0.0)
    return witness / witness.sum(axis=1, keepdims=True), 0.0


def test_symmetrisable(main: Sequence[Channel], tol: float = DEFAULT_TOL) -> SymmetrisabilityReport:
    """Decide whether some U: A -> P(S) symmetrises the state-averaged main channel.

    Feasibility variables are U(s|x) >= 0 with unit row sums plus, for every
    input pair x < x' and output y, the equality
    sum_s W_s(y|x) U(s|x') - W_s(y|x') U(s|x) = 0.
    """
    if len(main) == 0:
        raise ValueError("main family must be nonempty")
    by_input = np.stack([ch.rows for ch in main], axis=1)  # (A, S, B)
    a_size, s_size, b_size = by_input.shape
    xs, xps = np.nonzero(np.less.outer(np.arange(a_size), np.arange(a_size)))
    pairs = np.arange(len(xs))
    # coef[pair, x'', s, y] is the coefficient of U(s|x'') in the (pair, y) row
    coef = np.zeros((len(xs), a_size, s_size, b_size))
    coef[pairs, xps] = by_input[xs]
    coef[pairs, xs] -= by_input[xps]  # 0.0 - 0.0 keeps zero coefficients +0.0
    coef = coef.transpose(0, 3, 1, 2).reshape(len(xs) * b_size, a_size * s_size)
    u_rows, margin = _solve_row_stochastic((a_size, s_size), coef, np.zeros(len(coef)), tol)
    if u_rows is None:
        return SymmetrisabilityReport(
            symmetrisable=False,
            u_witness=None,
            margin=margin,
            tol=tol,
            residual=None,
            marginal=tol < margin < _MARGINAL_FACTOR * tol,
        )
    return SymmetrisabilityReport(
        symmetrisable=True,
        u_witness=Channel(u_rows),
        margin=margin,
        tol=tol,
        residual=symmetrisation_residual(main, u_rows),
        marginal=False,
    )


def degradation_residual(v_base: Channel, v_other: Channel, d_rows: np.ndarray) -> float:
    return float(np.max(np.abs(v_base.rows @ d_rows - v_other.rows)))


def test_degraded(v_base: Channel, v_other: Channel, tol: float = DEFAULT_TOL) -> DegradednessReport:
    """Decide whether ``v_other`` factors as ``v_base`` followed by a stochastic map."""
    if v_base.input_size != v_other.input_size:
        raise ValueError("degradedness test requires equal input sizes")
    shape = (v_base.output_size, v_other.output_size)
    coef = np.kron(v_base.rows, np.eye(shape[1]))
    d_rows, margin = _solve_row_stochastic(shape, coef, v_other.rows.ravel(), tol)
    if d_rows is None:
        return DegradednessReport(degraded=False, d_witness=None, residual=margin, margin=margin)
    residual = degradation_residual(v_base, v_other, d_rows)
    return DegradednessReport(degraded=True, d_witness=Channel(d_rows), residual=residual, margin=margin)


def find_best_eaves_channel(eaves: Sequence[Channel], tol: float = DEFAULT_TOL) -> BestChannelReport:
    """Search for a mixture weight q* whose channel degrades every family member.

    For a finite family it suffices to try point masses, in state order; the
    first success wins.
    """
    if len(eaves) == 0:
        raise ValueError("eaves family must be nonempty")
    s_size = len(eaves)
    best_reports: tuple[DegradednessReport, ...] = ()
    best_score = -1
    for s in range(s_size):
        reports = tuple(test_degraded(eaves[s], ch, tol) for ch in eaves)
        score = sum(1 for r in reports if r.degraded)
        if score == s_size:
            return BestChannelReport(True, Distribution.point_mass(s_size, s), reports, s + 1)
        if score > best_score:
            best_score = score
            best_reports = reports
    return BestChannelReport(False, None, best_reports, s_size)
