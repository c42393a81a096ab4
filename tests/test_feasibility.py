import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from avwc import LinearSystem, solve_feasibility


def assert_sound(system, result, tol=1e-8):
    """Every reported witness must satisfy the system when substituted back."""
    if result.feasible:
        x = result.witness
        assert np.max(np.abs(system.a @ x - system.b)) <= tol
        assert np.min(x) >= -tol


class TestBasics:
    def test_single_row_feasible(self):
        system = LinearSystem(np.array([[1.0, 1.0]]), np.array([1.0]))
        result = solve_feasibility(system)
        assert result.feasible
        assert_sound(system, result)

    def test_negative_rhs_infeasible_with_margin_one(self):
        system = LinearSystem(np.array([[1.0, 1.0]]), np.array([-1.0]))
        result = solve_feasibility(system)
        assert not result.feasible
        assert result.infeasibility_margin == pytest.approx(1.0, abs=1e-12)

    def test_generated_from_witness(self):
        rng = np.random.default_rng(21)
        for trial in range(10):
            a = rng.normal(size=(6, 10))
            x_true = np.abs(rng.normal(size=10))
            system = LinearSystem(a, a @ x_true)
            result = solve_feasibility(system)
            assert result.feasible, f"trial {trial}"
            assert result.residual <= 1e-8
            assert_sound(system, result)

    def test_redundant_rows(self):
        a = np.array([[1.0, 1.0], [2.0, 2.0]])
        system = LinearSystem(a, np.array([1.0, 2.0]))
        result = solve_feasibility(system)
        assert result.feasible
        assert_sound(system, result)

    def test_deterministic(self):
        rng = np.random.default_rng(22)
        a = rng.normal(size=(4, 7))
        b = a @ np.abs(rng.normal(size=7))
        system = LinearSystem(a, b)
        first = solve_feasibility(system)
        second = solve_feasibility(system)
        assert np.array_equal(first.witness, second.witness)


def vertex_enumeration_feasible(a, b, tol=1e-9):
    """Exhaustive oracle: some basic solution of a full-row-rank system is nonnegative."""
    m, n = a.shape
    for cols in itertools.combinations(range(n), m):
        sub = a[:, cols]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x_basic = np.linalg.solve(sub, b)
        if np.min(x_basic) >= -tol:
            return True
    return False


class TestCompleteness:
    def test_agrees_with_vertex_enumeration(self):
        rng = np.random.default_rng(23)
        agree = 0
        for trial in range(40):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(m, 9))
            a = rng.normal(size=(m, n))
            if trial % 2 == 0:
                b = a @ np.abs(rng.normal(size=n))  # feasible by construction
            else:
                b = rng.normal(size=m)
            system = LinearSystem(a, b)
            result = solve_feasibility(system)
            assert_sound(system, result)
            assert result.feasible == vertex_enumeration_feasible(a, b)
            agree += 1
        assert agree == 40

    def test_agrees_with_scipy(self):
        rng = np.random.default_rng(24)
        for trial in range(30):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(2, 12))
            a = rng.normal(size=(m, n))
            b = a @ np.abs(rng.normal(size=n)) if trial % 3 else rng.normal(size=m)
            result = solve_feasibility(LinearSystem(a, b))
            reference = linprog(
                np.zeros(n), A_eq=a, b_eq=b, bounds=[(0, None)] * n, method="highs"
            )
            assert result.feasible == reference.success
