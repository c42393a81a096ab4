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


def test_symmetrisable(main: Sequence[Channel], tol: float = DEFAULT_TOL) -> SymmetrisabilityReport:
    """Decide whether some U: A -> P(S) symmetrises the state-averaged main channel.

    Feasibility variables are U(s|x) >= 0 with unit row sums plus, for every
    input pair x < x' and output y, equality of the two cross-averaged
    transition probabilities.
    """
    if len(main) == 0:
        raise ValueError("main family must be nonempty")
    a_size = main[0].input_size
    b_size = main[0].output_size
    s_size = len(main)
    stack = np.stack([ch.rows for ch in main])

    def var(x: int, s: int) -> int:
        return x * s_size + s

    n_vars = a_size * s_size
    rows: list[np.ndarray] = []
    rhs: list[float] = []
    for x in range(a_size):
        row = np.zeros(n_vars)
        row[var(x, 0) : var(x, 0) + s_size] = 1.0
        rows.append(row)
        rhs.append(1.0)
    for x in range(a_size):
        for xp in range(x + 1, a_size):
            for y in range(b_size):
                row = np.zeros(n_vars)
                for s in range(s_size):
                    row[var(xp, s)] += stack[s, x, y]
                    row[var(x, s)] -= stack[s, xp, y]
                rows.append(row)
                rhs.append(0.0)

    result = solve_feasibility(LinearSystem(np.array(rows), np.array(rhs)), tol)
    if not result.feasible:
        margin = result.infeasibility_margin
        return SymmetrisabilityReport(
            symmetrisable=False,
            u_witness=None,
            margin=margin,
            tol=tol,
            residual=None,
            marginal=tol < margin < _MARGINAL_FACTOR * tol,
        )
    u_rows = np.maximum(result.witness.reshape(a_size, s_size), 0.0)
    u_rows = u_rows / u_rows.sum(axis=1, keepdims=True)
    residual = symmetrisation_residual(main, u_rows)
    return SymmetrisabilityReport(
        symmetrisable=True,
        u_witness=Channel(u_rows),
        margin=0.0,
        tol=tol,
        residual=residual,
        marginal=False,
    )


def degradation_residual(v_base: Channel, v_other: Channel, d_rows: np.ndarray) -> float:
    return float(np.max(np.abs(v_base.rows @ d_rows - v_other.rows)))


def test_degraded(v_base: Channel, v_other: Channel, tol: float = DEFAULT_TOL) -> DegradednessReport:
    """Decide whether ``v_other`` factors as ``v_base`` followed by a stochastic map."""
    if v_base.input_size != v_other.input_size:
        raise ValueError("degradedness test requires equal input sizes")
    zb = v_base.output_size
    zo = v_other.output_size

    def var(z_from: int, z_to: int) -> int:
        return z_from * zo + z_to

    n_vars = zb * zo
    rows: list[np.ndarray] = []
    rhs: list[float] = []
    for z_from in range(zb):
        row = np.zeros(n_vars)
        row[var(z_from, 0) : var(z_from, 0) + zo] = 1.0
        rows.append(row)
        rhs.append(1.0)
    for x in range(v_base.input_size):
        for z_to in range(zo):
            row = np.zeros(n_vars)
            for z_from in range(zb):
                row[var(z_from, z_to)] = v_base.rows[x, z_from]
            rows.append(row)
            rhs.append(float(v_other.rows[x, z_to]))

    result = solve_feasibility(LinearSystem(np.array(rows), np.array(rhs)), tol)
    if not result.feasible:
        return DegradednessReport(
            degraded=False,
            d_witness=None,
            residual=result.infeasibility_margin,
            margin=result.infeasibility_margin,
        )
    d_rows = np.maximum(result.witness.reshape(zb, zo), 0.0)
    d_rows = d_rows / d_rows.sum(axis=1, keepdims=True)
    residual = degradation_residual(v_base, v_other, d_rows)
    return DegradednessReport(degraded=True, d_witness=Channel(d_rows), residual=residual, margin=0.0)


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
