"""Dense two-phase simplex for small linear programs.

Solves   min c.x   s.t.   A_ub x <= b_ub,  A_eq x == b_eq,  x >= 0

on problems with tens of variables. Inequalities get slack columns,
phase one minimizes artificial variables to find a basic feasible point,
phase two optimizes the real objective. Each pivot updates the whole
tableau at once with one outer product. Bland's rule keeps the pivot
sequence finite on degenerate problems, which the polytope-membership
feasibility solve produces routinely: the entering column is the first
eligible non-basic one, and among the rows whose ratio lies within
``_PIVOT_TOL`` of the least, the leaving row is the one with the lowest
basic index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PIVOT_TOL = 1e-10
_FEAS_TOL = 1e-9

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpResult:
    status: str
    x: np.ndarray | None = None
    objective: float | None = None


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factor = tableau[:, col].copy()
    factor[row] = 0.0
    tableau -= np.outer(factor, tableau[row])
    basis[row] = col


def _iterate(tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray,
             allowed: int) -> str:
    """Run simplex iterations in place; ``allowed`` bounds entering columns."""
    while True:
        reduced = cost[:allowed] - cost[basis] @ tableau[:, :allowed]
        eligible = reduced < -_PIVOT_TOL
        eligible[basis] = False
        if not eligible.any():
            return OPTIMAL
        entering = int(np.argmax(eligible))
        rows = np.flatnonzero(tableau[:, entering] > _PIVOT_TOL)
        if rows.size == 0:
            return UNBOUNDED
        ratios = tableau[rows, -1] / tableau[rows, entering]
        ties = rows[ratios <= ratios.min() + _PIVOT_TOL]
        _pivot(tableau, basis, int(ties[np.argmin(basis[ties])]), entering)


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None) -> LpResult:
    """Solve the LP; all variables are implicitly non-negative."""
    c = np.asarray(c, dtype=np.float64)
    n = c.shape[0]
    A_ub = np.zeros((0, n)) if A_ub is None else np.asarray(A_ub, dtype=np.float64)
    A_eq = np.zeros((0, n)) if A_eq is None else np.asarray(A_eq, dtype=np.float64)
    n_slack, m = A_ub.shape[0], A_ub.shape[0] + A_eq.shape[0]
    if m == 0:
        return LpResult(OPTIMAL, np.zeros(n), 0.0)
    width = n + n_slack
    tableau = np.zeros((m, width + m + 1))
    tableau[:n_slack, :n] = A_ub
    tableau[:n_slack, n:width] = np.eye(n_slack)
    tableau[n_slack:, :n] = A_eq
    tableau[:, -1] = np.concatenate([np.ravel(b) for b in (b_ub, b_eq) if b is not None])
    tableau[tableau[:, -1] < 0] *= -1.0  # the artificial start needs b >= 0
    tableau[:, width:-1] = np.eye(m)
    basis = np.arange(width, width + m)

    phase1_cost = np.zeros(width + m)
    phase1_cost[width:] = 1.0
    status = _iterate(tableau, basis, phase1_cost, allowed=width + m)
    if status != OPTIMAL:
        return LpResult(INFEASIBLE)
    if tableau[basis >= width, -1].sum() > _FEAS_TOL:
        return LpResult(INFEASIBLE)

    # kick remaining artificials out of the basis; drop redundant rows
    keep = np.ones(m, dtype=bool)
    for r in np.flatnonzero(basis >= width):
        cols = np.flatnonzero(np.abs(tableau[r, :width]) > _PIVOT_TOL)
        if cols.size == 0:
            keep[r] = False  # numerically zero row, redundant constraint
        else:
            _pivot(tableau, basis, r, int(cols[0]))
    tableau, basis = tableau[keep], basis[keep]

    phase2_cost = np.zeros(width + m)
    phase2_cost[:n] = c
    status = _iterate(tableau, basis, phase2_cost, allowed=width)
    if status != OPTIMAL:
        return LpResult(UNBOUNDED)
    x = np.zeros(width)
    x[basis] = tableau[:, -1]
    x = np.where(np.abs(x) < 1e-14, 0.0, x)
    return LpResult(OPTIMAL, x[:n], float(c @ x[:n]))
