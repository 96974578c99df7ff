import numpy as np
import pytest

from causalbell import bell
from causalbell.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp


def test_textbook_optimum():
    # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  ->  (2, 6), value 36
    res = solve_lp(
        c=[-3.0, -5.0],
        A_ub=[[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
        b_ub=[4.0, 12.0, 18.0],
    )
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(-36.0, abs=1e-9)
    assert np.allclose(res.x, [2.0, 6.0], atol=1e-9)


def test_equality_constraints():
    # min x + y on the segment x + y = 1, x, y >= 0
    res = solve_lp(c=[1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[1.0])
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(1.0, abs=1e-12)


def test_infeasible_detected():
    res = solve_lp(
        c=[0.0],
        A_ub=[[1.0], [-1.0]],
        b_ub=[1.0, -2.0],  # x <= 1 and x >= 2
    )
    assert res.status == INFEASIBLE


def test_unbounded_detected():
    res = solve_lp(c=[-1.0], A_ub=[[-1.0]], b_ub=[0.0])  # min -x, x >= 0
    assert res.status == UNBOUNDED


def test_degenerate_vertex():
    # three constraints meet at the optimum; Bland's rule must terminate
    res = solve_lp(
        c=[-1.0, -1.0],
        A_ub=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        b_ub=[1.0, 1.0, 2.0],
    )
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(-2.0, abs=1e-9)
    assert res.x.tolist() == [1.0, 1.0]  # the vertex Bland's rule reaches


def test_redundant_equalities():
    res = solve_lp(
        c=[1.0, 0.0],
        A_eq=[[1.0, 1.0], [2.0, 2.0]],  # the same hyperplane twice
        b_eq=[1.0, 2.0],
    )
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(0.0, abs=1e-12)
    assert res.x.tolist() == [0.0, 1.0]


def test_negative_rhs_handled():
    # -x <= -0.25  i.e.  x >= 0.25
    res = solve_lp(c=[1.0], A_ub=[[-1.0]], b_ub=[-0.25])
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_convex_hull_membership_against_construction(seed):
    """Random points known to lie in (or off) a simplex hull must solve
    to the matching feasibility verdict."""
    rng = np.random.default_rng(seed)
    vertices = rng.random((6, 4))
    weights = rng.exponential(1.0, size=6)
    weights /= weights.sum()
    inside = weights @ vertices
    outside = vertices.max(axis=0) + 0.5

    def residual(point):
        # min t s.t. |V^T w - point| <= t entrywise, w in the simplex
        n = 7
        a_ub = np.zeros((8, n))
        a_ub[:4, :6] = vertices.T
        a_ub[:4, 6] = -1.0
        a_ub[4:, :6] = -vertices.T
        a_ub[4:, 6] = -1.0
        b_ub = np.concatenate([point, -point])
        a_eq = np.zeros((1, n))
        a_eq[0, :6] = 1.0
        c = np.zeros(n)
        c[6] = 1.0
        res = solve_lp(c, a_ub, b_ub, a_eq, [1.0])
        assert res.status == OPTIMAL
        return res.objective

    assert residual(inside) <= 1e-9
    assert residual(outside) > 0.1


def _membership_lp(table):
    """The LP of ``bell._membership_residual``: min t over 16 weights and t,
    each table entry within t of the mixture, weights summing to 1."""
    d = bell._DET_TABLES.reshape(16, 16).T
    p = table.reshape(16)
    a_ub = np.block([[d, -np.ones((16, 1))], [-d, -np.ones((16, 1))]])
    a_eq = np.append(np.ones(16), 0.0)[None, :]
    c = np.append(np.zeros(16), 1.0)
    return c, a_ub, np.concatenate([p, -p]), a_eq, np.ones(1)


def _oracle_behaviors():
    rng = np.random.default_rng(2024)
    pr, uniform = bell.pr_box().table, np.full((2, 2, 2, 2), 0.25)
    for _ in range(15):
        yield bell.singlet_behavior(*rng.uniform(-np.pi, np.pi, 4))
        yield bell.behavior_from_lhv(bell.random_lhv(int(rng.integers(2**31))))
        t = rng.random()
        yield bell.Behavior(t * pr + (1 - t) * uniform)
    for k in range(-20, 41, 4):  # the facet boundary sits at t = 1/2
        t = 0.5 + k * 1e-10
        yield bell.Behavior(t * pr + (1 - t) * uniform)


def test_membership_lp_matches_scipy_highs():
    """Third route for the feasibility solve: scipy's HiGHS on the same LP."""
    optimize = pytest.importorskip("scipy.optimize")
    for b in _oracle_behaviors():
        c, a_ub, b_ub, a_eq, b_eq = _membership_lp(b.table)
        ours = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
        assert bell._membership_residual(b)[0] == ours.objective  # the same LP
        ref = optimize.linprog(c, a_ub, b_ub, a_eq, b_eq, bounds=(0, None), method="highs")
        assert ref.status == 0 and ours.status == OPTIMAL
        assert abs(ours.objective - ref.fun) <= 1e-9
        assert (ours.x >= -1e-9).all()
        assert (a_ub @ ours.x <= b_ub + 1e-9).all()
        assert np.abs(a_eq @ ours.x - b_eq).max() <= 1e-9


def test_membership_pivot_sequence_is_pinned():
    # exact floats: a different tie among equal ratios leaves the same
    # vertex but reaches it by other pivots, which moves the last bits
    b = bell.behavior_from_lhv(bell.random_lhv(3))
    res = solve_lp(*_membership_lp(b.table))
    assert res.x.tolist() == [
        0.0, 0.0035589484013176242, 0.0, 0.0, 0.058202059992464555,
        0.15485089259626766, 0.31435529516456706, 0.0, 0.0, 0.11078773120860552,
        0.23583293736556432, 0.019094923197203878, 0.016656725979538017, 0.0,
        0.08666048609447155, 0.0, 0.0,
    ]
