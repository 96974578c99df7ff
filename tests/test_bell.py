import itertools
import math

import numpy as np
import pytest
from conftest import membership_oracle_behaviors

from causalbell.bell import (
    _DET_TABLES,
    _RESPONSES,
    CHSH_ANGLES,
    Behavior,
    LhvModel,
    MembershipVerdict,
    behavior_from_lhv,
    behavior_joint,
    bell_dag,
    chsh_value,
    correlators,
    deterministic_strategies,
    format_behavior,
    lhv_joint_table,
    lhv_membership,
    no_signalling_check,
    parse_behavior,
    pr_box,
    quantum_causality_audit,
    random_lhv,
    singlet_behavior,
    strategy_responses,
    within_local_bound,
)
from causalbell.distributions import ci_holds, compatible
from causalbell.graph import CondQuery, GraphError
from causalbell.separation import d_separated

ROOT2 = math.sqrt(2.0)


def signalling_behavior():
    """P(a,b|x,y) = [a == y] / 2: Alice's marginal reads Bob's setting."""
    table = np.zeros((2, 2, 2, 2))
    for b in range(2):
        for x in range(2):
            for y in range(2):
                table[y, b, x, y] = 0.5
    return Behavior(table)


# --- scenario graph -------------------------------------------------------------

def test_bell_dag_structure():
    g = bell_dag()
    assert len(g) == 5
    assert len(g.edges) == 4
    assert g.cardinality("Lambda") == 16
    assert g.parents("A") == {"X", "Lambda"}
    assert g.parents("B") == {"Y", "Lambda"}
    assert d_separated(g, CondQuery({"X"}, {"Y"})).separated


def test_bell_dag_configurable_cardinality():
    assert bell_dag(lambda_card=3).cardinality("Lambda") == 3
    # a numpy integer is an integer, here as for random_lhv
    assert type(bell_dag(np.int64(3)).cardinality("Lambda")) is int
    assert random_lhv(1, np.int64(3)).lambda_weights.shape == (3,)


# --- behaviors and models --------------------------------------------------------

def test_behavior_validation():
    with pytest.raises(GraphError, match="sum"):
        Behavior(np.full((2, 2, 2, 2), 0.3))
    with pytest.raises(GraphError, match="negative"):
        table = np.full((2, 2, 2, 2), 0.25)
        table[0, 0, 0, 0] = -0.25
        table[1, 1, 0, 0] = 0.75
        Behavior(table)
    with pytest.raises(GraphError, match="shape"):
        Behavior(np.full((2, 2, 2), 0.25))
    for bad in (np.nan, np.inf):
        table = np.full((2, 2, 2, 2), 0.25)
        table[0, 0, 0, 0] = bad
        with pytest.raises(GraphError, match="non-finite"):
            Behavior(table)


def test_lhv_model_validation():
    ra = np.full((2, 2, 2), 0.5)
    with pytest.raises(GraphError, match="probability vector"):
        LhvModel(np.array([0.6, 0.6]), ra, ra)
    with pytest.raises(GraphError, match="slice"):
        LhvModel(np.array([0.5, 0.5]), np.full((2, 2, 2), 0.4), ra)
    with pytest.raises(GraphError, match="probability vector"):
        LhvModel(np.array([np.nan, 0.5]), ra, ra)
    bad = ra.copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(GraphError, match="non-finite"):
        LhvModel(np.array([0.5, 0.5]), ra, bad)


def test_random_lhv_rejects_a_hidden_value_cardinality_below_one():
    for card in (0, -3):
        for make in (lambda: random_lhv(1, lambda_card=card), lambda: bell_dag(card)):
            with pytest.raises(GraphError,
                               match=f"^lambda cardinality must be positive, got {card}$"):
                make()
    for card in (2.5, math.nan, True):
        for make in (lambda: random_lhv(1, lambda_card=card), lambda: bell_dag(card)):
            with pytest.raises(GraphError,
                               match=f"^lambda cardinality must be an integer, got {card!r}$"):
                make()


def test_deterministic_model_copies_settings():
    # a = x and b = y: the strategy with a(0)=0, a(1)=1, b(0)=0, b(1)=1
    strategies = deterministic_strategies()
    idx = next(
        i for i in range(16)
        if strategy_responses(i) == ((0, 1), (0, 1))
    )
    table = behavior_from_lhv(strategies[idx]).table
    for a in range(2):
        for b in range(2):
            for x in range(2):
                for y in range(2):
                    assert table[a, b, x, y] == (1.0 if (a, b) == (x, y) else 0.0)


def test_uniform_mixture_of_strategies_is_uniform():
    tables = np.stack([behavior_from_lhv(s).table for s in deterministic_strategies()])
    mixed = tables.mean(axis=0)
    assert np.allclose(mixed, 0.25, atol=1e-15)


def test_every_lhv_behavior_respects_the_local_bound():
    for seed in range(25):
        b = behavior_from_lhv(random_lhv(seed))
        for variant in range(8):
            assert chsh_value(b, variant) <= 2.0 + 1e-12


def test_sixteen_deterministic_strategies():
    strategies = deterministic_strategies()
    assert len(strategies) == 16
    seen = set()
    for s in strategies:
        table = behavior_from_lhv(s).table
        assert set(np.unique(table)) <= {0.0, 1.0}
        seen.add(table.tobytes())
    assert len(seen) == 16
    for i, s in enumerate(strategies):
        # the index rule, spelled out: i = 4*fa + fb, bit x of fa is a(x)
        fa, fb = divmod(i, 4)
        a_of, b_of = (fa & 1, fa >> 1), (fb & 1, fb >> 1)
        assert strategy_responses(i) == (a_of, b_of)
        assert all(type(v) is int for wing in strategy_responses(i) for v in wing)
        expected = np.zeros((2, 2, 2, 2))
        for x in range(2):
            for y in range(2):
                expected[a_of[x], b_of[y], x, y] = 1.0
        assert np.array_equal(behavior_from_lhv(s).table, expected)
        assert np.array_equal(_DET_TABLES[i], expected)


def test_local_bound_is_two_plus_eps():
    assert within_local_bound(2.0) and within_local_bound(2.0 + 1e-9)
    assert not within_local_bound(2.0 + 2e-9)
    assert within_local_bound(2.0 + 2e-9, 1e-8) and not within_local_bound(2.1, 0.05)


def test_deterministic_maximum_is_the_local_bound():
    values = [
        chsh_value(behavior_from_lhv(s), 0) for s in deterministic_strategies()
    ]
    assert max(values) == 2.0  # exact: correlators are exact +/-1 floats


# --- facet values -----------------------------------------------------------------

def test_uniform_behavior_has_zero_correlators():
    uniform = Behavior(np.full((2, 2, 2, 2), 0.25))
    assert np.allclose(correlators(uniform), 0.0, atol=1e-15)
    for variant in range(8):
        assert chsh_value(uniform, variant) == 0.0


def test_pr_box_reaches_the_algebraic_maximum():
    box = pr_box()
    assert chsh_value(box, 0) == 4.0
    assert no_signalling_check(box, 1e-12).passed


def test_singlet_standard_angles_hit_the_quantum_bound():
    b = singlet_behavior(*CHSH_ANGLES)
    assert chsh_value(b, 0) == pytest.approx(-2.0 * ROOT2, abs=1e-12)
    assert chsh_value(b, 4) == pytest.approx(2.0 * ROOT2, abs=1e-12)
    assert max(abs(chsh_value(b, v)) for v in range(8)) == pytest.approx(2.0 * ROOT2, abs=1e-12)


def test_chsh_variant_range():
    for variant in (8, -1, 1.5, "1", None, True):
        with pytest.raises(GraphError, match="variant must be an integer in 0..7"):
            chsh_value(pr_box(), variant)
    assert chsh_value(pr_box(), np.int64(4)) == chsh_value(pr_box(), 4) == -4.0


def test_equal_angles_give_perfect_anticorrelation():
    b = singlet_behavior(0.3, 0.3, 0.3, 0.3)
    table = b.table
    for x in range(2):
        for y in range(2):
            assert table[0, 0, x, y] == 0.0
            assert table[1, 1, x, y] == 0.0
            assert table[0, 1, x, y] == pytest.approx(0.5, abs=1e-15)


def test_singlet_never_signals():
    rng = np.random.default_rng(2)
    for _ in range(20):
        angles = rng.uniform(-math.pi, math.pi, size=4)
        assert no_signalling_check(singlet_behavior(*angles), 1e-12).passed


def test_tsirelson_bound_by_refined_grid_search():
    """Coarse-to-fine search over angle quadruples down to a step below
    1e-3; the maximum must land just under the quantum bound."""
    best = _refine_singlet_maximum()
    target = 2.0 * ROOT2
    assert target - 1e-3 <= best <= target + 1e-9
    # the refined optimum must be reproduced by the production pipeline
    angles = _refine_singlet_maximum(return_angles=True)
    value = max(abs(chsh_value(singlet_behavior(*angles), v)) for v in range(8))
    assert value == pytest.approx(best, abs=1e-12)


def _refine_singlet_maximum(return_angles: bool = False):
    def s_value(t0, t1, p0, p1):
        e = lambda t, p: -np.cos(t - p)  # noqa: E731
        return np.abs(
            e(t0, p0) + e(t0, p1) + e(t1, p0) - e(t1, p1)
        )

    centers = np.zeros(4)
    span = math.pi
    grid_n = 9
    best_angles = centers
    while 2.0 * span / (grid_n - 1) > 5e-4:  # refine until the step is well under 1e-3
        axes = [np.linspace(c - span, c + span, grid_n) for c in centers]
        mesh = np.meshgrid(*axes, indexing="ij")
        values = s_value(*mesh)
        flat = int(values.argmax())
        idx = np.unravel_index(flat, values.shape)
        best_angles = np.array([axes[k][idx[k]] for k in range(4)])
        centers = best_angles
        span = 2.2 * span / (grid_n - 1)
    if return_angles:
        return tuple(best_angles)
    return float(s_value(*best_angles))


# --- no-signalling audit -----------------------------------------------------------

def test_lhv_behaviors_never_signal():
    for seed in range(30):
        b = behavior_from_lhv(random_lhv(seed, lambda_card=6))
        assert no_signalling_check(b, 1e-12).passed


def test_signalling_table_fails_with_unit_deviation():
    report = no_signalling_check(signalling_behavior(), 1e-9)
    assert not report.passed
    assert report.worst_violation == pytest.approx(1.0, abs=1e-15)
    failing = [c for c in report.checks if not c.passed]
    assert failing[0].witness is not None


def test_no_signalling_eps_validation():
    with pytest.raises(GraphError, match="eps"):
        no_signalling_check(pr_box(), 0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(GraphError, match="eps"):
            no_signalling_check(pr_box(), bad)


# --- membership --------------------------------------------------------------------

def test_uniform_behavior_is_local_with_reproducing_model():
    uniform = Behavior(np.full((2, 2, 2, 2), 0.25))
    verdict = lhv_membership(uniform)
    assert verdict.local
    recon = behavior_from_lhv(verdict.model)
    assert np.abs(recon.table - uniform.table).max() <= 1e-9


def test_singlet_is_not_local():
    verdict = lhv_membership(singlet_behavior(*CHSH_ANGLES))
    assert not verdict.local
    assert verdict.model is None
    assert abs(verdict.violated_value) == pytest.approx(2.0 * ROOT2, abs=1e-9)
    assert verdict.violated_value > 2.0 + 1e-9


def test_pr_box_membership_verdict():
    verdict = lhv_membership(pr_box())
    assert not verdict.local
    assert verdict.violated_variant == 0
    assert verdict.violated_value == pytest.approx(4.0, abs=1e-12)
    assert verdict.to_text() == "not local: variant 0, S = 4.000000000\n"


def test_membership_roundtrip_on_random_models():
    for seed in range(30):
        b = behavior_from_lhv(random_lhv(seed))
        verdict = lhv_membership(b)
        assert verdict.local, f"seed {seed}"
        recon = behavior_from_lhv(verdict.model)
        assert np.abs(recon.table - b.table).max() <= 1e-9


def test_membership_rejects_signalling_input():
    with pytest.raises(GraphError, match=r"set \(worst marginal deviation 1 > eps 1e-09\)"):
        lhv_membership(signalling_behavior())
    # Bob's marginal reads Alice's setting by 0.3, Alice's reads Bob's by 0.2
    bob_reads_x = np.zeros((2, 2, 2, 2))
    for a, x, y in itertools.product(range(2), repeat=3):
        bob_reads_x[a, x, x, y] = 0.5
    b = Behavior(0.2 * signalling_behavior().table + 0.3 * bob_reads_x + 0.5 * 0.25)
    worst = no_signalling_check(b).worst_violation
    assert worst == pytest.approx(0.3, abs=1e-15)
    with pytest.raises(GraphError, match=rf"worst marginal deviation {worst:.3g} > eps 1e-09\)"):
        lhv_membership(b)


def test_membership_refusal_shows_a_rounding_sized_deviation():
    # a written and re-read local behavior signals at float rounding only;
    # a tolerance below that rounding is refused, and the message shows both
    b = parse_behavior(format_behavior(behavior_from_lhv(random_lhv(1))))
    worst = no_signalling_check(b).worst_violation
    assert 0 < worst < 1e-15
    with pytest.raises(GraphError, match=rf"deviation {worst:.3g} > eps 1e-16\)$"):
        lhv_membership(b, 1e-16)
    assert lhv_membership(b).local


def test_membership_verdict_reports_a_facet_value_chsh_value_gives():
    non_local = 0
    for b in membership_oracle_behaviors():
        verdict = lhv_membership(b)
        if not verdict.local:
            non_local += 1
            assert verdict.violated_value == chsh_value(b, verdict.violated_variant)
    assert non_local > 0


def test_membership_verdict_follows_facets_across_the_boundary():
    # PR box mixed with uniform noise has S = 4t; the facet lies at t = 1/2
    uniform = np.full((2, 2, 2, 2), 0.25)
    for k in range(-50, 201):
        t = 0.5 + k * 1e-10
        b = Behavior(t * pr_box().table + (1.0 - t) * uniform)
        verdict = lhv_membership(b)
        assert verdict.local == (max(chsh_value(b, v) for v in range(8)) <= 2.0 + 1e-9), k


def test_boundary_behavior_deterministic_strategy_is_local():
    # lies on a facet (S = 2 exactly); both routes must still agree
    b = behavior_from_lhv(deterministic_strategies()[3])
    verdict = lhv_membership(b)
    assert verdict.local
    assert np.abs(behavior_from_lhv(verdict.model).table - b.table).max() <= 1e-9


# --- joints and screening ------------------------------------------------------------

def test_lhv_joint_matches_scenario_graph():
    m = random_lhv(5, lambda_card=4)
    joint = lhv_joint_table(m)
    g = bell_dag(lambda_card=4)
    assert compatible(joint, g).passed


def test_lhv_joint_screening_reductions():
    for seed in range(10):
        joint = lhv_joint_table(random_lhv(seed, lambda_card=4))
        assert ci_holds(joint, CondQuery({"A"}, {"B", "Y"}, {"X", "Lambda"})).holds
        assert ci_holds(joint, CondQuery({"B"}, {"X"}, {"Y", "Lambda"})).holds
        assert ci_holds(joint, CondQuery({"Lambda"}, {"X", "Y"})).holds
        assert ci_holds(joint, CondQuery({"X"}, {"Y"})).holds


def test_behavior_joint_uses_uniform_setting_priors():
    joint = behavior_joint(pr_box())
    assert joint.marginal(["X", "Y"]) == pytest.approx(np.full((2, 2), 0.25), abs=1e-15)


# --- outcome-independence audit --------------------------------------------------------

def test_quantum_causality_audit_on_singlet():
    report = quantum_causality_audit(singlet_behavior(*CHSH_ANGLES))
    assert report.passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["A _||_ Y | {}"].passed
    assert by_name["B _||_ X | {}"].passed
    assert by_name["X _||_ Y | {}"].passed
    exempt = by_name["A _||_ B | {}"]
    assert not exempt.required
    assert not exempt.passed  # the outcomes really are correlated
    assert exempt.violation > 1e-3


def test_quantum_causality_audit_on_uniform():
    uniform = Behavior(np.full((2, 2, 2, 2), 0.25))
    report = quantum_causality_audit(uniform)
    assert report.passed
    assert all(c.passed for c in report.checks)


def test_quantum_causality_audit_flags_signalling():
    report = quantum_causality_audit(signalling_behavior())
    by_name = {c.name: c for c in report.checks}
    assert not by_name["A _||_ Y | {}"].passed
    assert not report.passed


# --- file format ------------------------------------------------------------------------

def test_behavior_roundtrip():
    b = singlet_behavior(*CHSH_ANGLES)
    again = parse_behavior(format_behavior(b))
    assert np.abs(again.table - b.table).max() <= 1e-15


def test_behavior_file_has_sixteen_rows():
    lines = format_behavior(pr_box()).splitlines()
    assert len(lines) == 16
    assert lines[0].split()[:4] == ["0", "0", "0", "0"]


@pytest.mark.parametrize("mutate,fragment", [
    (lambda rows: rows[:15], "missing"),
    (lambda rows: rows + [rows[-1]], "duplicate"),
    (lambda rows: ["2 0 0 0 0.5"] + rows[1:], "0 or 1"),
    (lambda rows: ["0 0 0 0"] + rows[1:], "expected"),
    (lambda rows: ["0 0 0 0 nan"] + rows[1:], "finite"),
])
def test_behavior_parse_errors(mutate, fragment):
    rows = format_behavior(pr_box()).splitlines()
    with pytest.raises(GraphError, match=fragment):
        parse_behavior("\n".join(mutate(rows)))


def test_behavior_parse_rejects_bad_normalization():
    rows = []
    for a in range(2):
        for b in range(2):
            for x in range(2):
                for y in range(2):
                    rows.append(f"{a} {b} {x} {y} 0.3")
    with pytest.raises(GraphError, match="sums outside"):
        parse_behavior("\n".join(rows))


def test_local_verdict_serialization_lists_weights():
    verdict = lhv_membership(behavior_from_lhv(random_lhv(4)))
    text = verdict.to_text()
    assert text.splitlines()[0] == "local"
    assert len(text.splitlines()) == 17


def test_local_verdict_labels_come_from_the_models_own_rows():
    # 20 hidden values, more than there are strategies, in reverse order
    picks = np.arange(20)[::-1] % 16
    model = LhvModel(np.full(20, 0.05), _RESPONSES[picks, 0], _RESPONSES[picks, 1])
    lines = MembershipVerdict(True, model, None, None, 0.0).to_text().splitlines()
    assert len(lines) == 21
    for line, i in zip(lines[1:], picks):
        (a0, a1), (b0, b1) = strategy_responses(int(i))
        assert line.endswith(f"a(0)={a0} a(1)={a1} b(0)={b0} b(1)={b1}"), line


def test_local_verdict_rejects_stochastic_response_rows():
    with pytest.raises(GraphError, match="one-hot"):
        MembershipVerdict(True, random_lhv(0, lambda_card=2), None, None, 0.0)
