"""Small dense linear feasibility kernel.

Finds x >= 0 with A x = b via a phase-1 simplex with
Bland's anti-cycling rule.  The systems solved here are tiny (at most a few
dozen variables), so dense double-precision arithmetic with a deterministic
pivoting order is the whole story: robustness and reproducibility over speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericFailureError

DEFAULT_TOL = 1e-8
_PIVOT_EPS = 1e-11


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Equality system A x = b over nonnegative variables x >= 0."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError("constraint matrix must be 2-D and nonempty")
        if b.shape != (a.shape[0],):
            raise ValueError("right-hand side length does not match the constraint count")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("system entries must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    feasible: bool
    witness: np.ndarray | None
    residual: float
    infeasibility_margin: float


def _phase1(a: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Minimize the sum of artificials for {A x = b, x >= 0}.

    Returns (objective, x, residual-on-original-system).
    """
    m, n = a.shape
    work_a = a.copy()
    work_b = b.copy()
    flip = work_b < 0
    work_a[flip] *= -1.0
    work_b[flip] *= -1.0

    # columns: n structural, m artificial, then rhs
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = work_a
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = work_b
    tableau[m, :n] = -work_a.sum(axis=0)
    tableau[m, -1] = -work_b.sum()
    basis = np.arange(n, n + m)

    max_iters = 50 * (n + m + 2)
    for _ in range(max_iters):
        eligible = (tableau[m, :-1] < -_PIVOT_EPS).nonzero()[0]
        if eligible.size == 0:
            break
        enter = eligible[0]
        col = tableau[:m, enter]
        rows = (col > _PIVOT_EPS).nonzero()[0]
        if rows.size == 0:
            raise NumericFailureError("phase-1 simplex became unbounded; degenerate input")
        ratios = tableau[rows, -1] / col[rows]
        tied = rows[ratios == ratios.min()]
        row = tied[basis[tied].argmin()]
        tableau[row] /= tableau[row, enter]
        # rows with a zero in the entering column stay untouched, so no zero changes sign
        others = tableau[:, enter] != 0.0
        others[row] = False
        tableau[others] -= tableau[others, enter, None] * tableau[row]
        basis[row] = enter
    else:
        raise NumericFailureError("phase-1 simplex hit the anti-cycling iteration cap")

    objective = -tableau[m, -1]
    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = tableau[:m, -1][structural]
    residual = float(np.max(np.abs(a @ x - b)))
    return float(objective), x, residual


def solve_feasibility(system: LinearSystem, tol: float = DEFAULT_TOL) -> FeasibilityResult:
    """Decide feasibility of the system within ``tol``.

    Deterministic for identical input: entering variable is the lowest
    eligible index and ratio ties break on the lowest basic-variable index.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    objective, x, residual = _phase1(system.a, system.b)
    if objective <= tol:
        if residual > 10.0 * tol:
            raise NumericFailureError(
                f"phase-1 objective {objective!r} but witness residual {residual!r}"
            )
        return FeasibilityResult(True, x, residual, 0.0)
    return FeasibilityResult(False, None, residual, objective)
