import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from causalbell import distributions
from causalbell.bell import (
    CHSH_ANGLES,
    Behavior,
    LhvModel,
    behavior_from_lhv,
    bell_dag,
    format_behavior,
    pr_box,
    random_lhv,
    singlet_behavior,
)
from causalbell.distributions import (
    DIRECT_CAUSE,
    SCREENED,
    UNCORRELATED,
    VIOLATES_RPCC,
    ConditionalTable,
    JointTable,
    _ci_violations,
    causal_completeness_check,
    causal_markov_check,
    chain_factorize,
    ci_holds,
    compatible,
    format_distribution,
    graphoid_audit,
    joint_from_tables,
    parse_distribution,
    random_compatible,
    random_conditional_tables,
    reichenbach_check,
)
from causalbell.graph import CondQuery, Dag, GraphError
from conftest import random_typed_dag


def coins(p_heads=0.5, q_heads=0.5):
    px = np.array([1 - p_heads, p_heads])
    qx = np.array([1 - q_heads, q_heads])
    return JointTable((("P", 2), ("Q", 2)), np.outer(px, qx))


def copy_pair():
    return JointTable((("P", 2), ("Q", 2)), np.array([[0.5, 0.0], [0.0, 0.5]]))


def triple_copy():
    probs = np.zeros((2, 2, 2))
    probs[0, 0, 0] = probs[1, 1, 1] = 0.5
    return JointTable((("P", 2), ("Q", 2), ("R", 2)), probs)


def edgeless(*names):
    return Dag([(n, "outcome", 2) for n in names])


def asked_queries(monkeypatch):
    """The queries the audits put to ``ci_holds`` from here on, in order."""
    asked = []
    real = distributions.ci_holds

    def counted(p, q, *args, **kwargs):
        asked.append(q)
        return real(p, q, *args, **kwargs)

    monkeypatch.setattr(distributions, "ci_holds", counted)
    return asked


# --- table validation ----------------------------------------------------------

def test_joint_table_validation():
    with pytest.raises(GraphError, match="sum"):
        JointTable((("P", 2),), np.array([0.5, 0.6]))
    with pytest.raises(GraphError, match="negative"):
        JointTable((("P", 2),), np.array([1.1, -0.1]))
    with pytest.raises(GraphError, match="shape"):
        JointTable((("P", 2),), np.array([[0.5, 0.5]]))
    with pytest.raises(GraphError, match="^duplicate variable 'P'$"):
        JointTable((("P", 2), ("P", 2)), np.full((2, 2), 0.25))
    with pytest.raises(GraphError, match="^bad variable declaration 'P': 0$"):
        JointTable((("P", 0),), np.ones(0))
    with pytest.raises(GraphError, match="cap"):
        JointTable(tuple((f"V{i}", 2) for i in range(21)), np.zeros((2,) * 21))
    for bad in (np.nan, np.inf):
        with pytest.raises(GraphError, match="non-finite"):
            JointTable((("P", 2),), np.array([bad, 0.5]))
    # the rules of a distribution file's header: identifier names, integer cardinalities
    for name, card in (("A", 2.5), ("A", True), ("a b", 2), (3, 2)):
        with pytest.raises(GraphError, match="^bad variable declaration"):
            JointTable(((name, card),), np.array([0.5, 0.5]))
    assert JointTable((("A", np.int64(2)),), np.array([0.5, 0.5])).variables == (("A", 2),)


def test_tables_are_write_locked():
    p = coins()
    with pytest.raises(ValueError):
        p.probabilities[0, 0] = 1.0
    t = ConditionalTable("P", (), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        t.entries[0] = 1.0


def test_constructors_copy_the_callers_array():
    a = np.array([0.5, 0.5])
    JointTable((("P", 2),), a)
    ConditionalTable("P", (), a)
    a[0] = 0.25  # still the caller's writable array
    big = np.array([[0.5, 0.5], [0.25, 0.75]])
    p = JointTable((("P", 2),), big[0])
    t = ConditionalTable("P", (), big[1])
    big[:] = 0.9
    assert p.probabilities.tolist() == [0.5, 0.5]
    assert t.entries.tolist() == [0.25, 0.75]
    table = np.full((2, 2, 2, 2), 0.25)
    b = Behavior(table)
    responses = np.full((1, 2, 2), 0.5)
    m = LhvModel(np.ones(1), responses, responses)
    table[:] = responses[:] = 1.0
    assert (b.table == 0.25).all()
    assert (m.response_a == 0.5).all() and (m.response_b == 0.5).all()


def test_conditional_table_validation():
    with pytest.raises(GraphError, match="slice"):
        ConditionalTable("P", (), np.array([0.5, 0.6]))
    with pytest.raises(GraphError, match="rank"):
        ConditionalTable("P", ("Q",), np.array([0.5, 0.5]))
    with pytest.raises(GraphError, match="parent"):
        ConditionalTable("P", ("P",), np.full((2, 2), 0.5))
    with pytest.raises(GraphError, match="non-finite"):
        ConditionalTable("P", (), np.array([np.nan, 0.5]))


def test_the_generators_reject_a_negative_seed():
    for make in (lambda: random_compatible(bell_dag(lambda_card=3), -5), lambda: random_lhv(-5)):
        with pytest.raises(GraphError, match="^seed must be non-negative, got -5$"):
            make()
    # a seed is an integer: a float or a bool is refused, not truncated or taken as 1
    for seed in (1.5, 2.5, True):
        for make in (lambda: random_compatible(bell_dag(lambda_card=3), seed),
                     lambda: random_lhv(seed)):
            with pytest.raises(GraphError, match=f"^seed must be an integer, got {seed!r}$"):
                make()


def test_marginal_orders_axes():
    p = random_compatible(bell_dag(lambda_card=3), 1)
    m = p.marginal(["B", "X"])
    manual = np.einsum("xyabl->bx", p.probabilities.reshape(2, 2, 2, 2, 3))
    assert np.allclose(m, manual, atol=1e-15)
    assert p.marginal([]).shape == ()
    assert float(p.marginal([])) == pytest.approx(1.0)


# --- factorization -------------------------------------------------------------

def test_uniform_tables_give_uniform_joint():
    g = bell_dag(lambda_card=4)
    cpts = []
    for v in g.names:
        parents = g.ordered_parents(v)
        shape = tuple(g.cardinality(u) for u in parents) + (g.cardinality(v),)
        cpts.append(ConditionalTable(v, parents, np.full(shape, 1.0 / shape[-1])))
    joint = joint_from_tables(g, cpts)
    assert np.allclose(joint.probabilities, 1.0 / joint.probabilities.size, atol=1e-15)


def test_single_node_joint_is_its_table():
    g = Dag([("P", "outcome", 2)])
    joint = joint_from_tables(g, [ConditionalTable("P", (), np.array([0.3, 0.7]))])
    assert np.allclose(joint.probabilities, [0.3, 0.7], atol=1e-15)


def test_deterministic_copy_chain():
    g = Dag([("P", "outcome", 2), ("Q", "outcome", 2)], [("P", "Q")])
    cpts = [
        ConditionalTable("P", (), np.array([0.5, 0.5])),
        ConditionalTable("Q", ("P",), np.eye(2)),
    ]
    joint = joint_from_tables(g, cpts)
    assert np.allclose(joint.probabilities, [[0.5, 0.0], [0.0, 0.5]], atol=1e-15)


def test_joint_from_tables_errors():
    g = Dag([("P", "outcome", 2), ("Q", "outcome", 2)], [("P", "Q")])
    p_table = ConditionalTable("P", (), np.array([0.5, 0.5]))
    q_table = ConditionalTable("Q", ("P",), np.eye(2))
    with pytest.raises(GraphError, match="missing"):
        joint_from_tables(g, [p_table])
    with pytest.raises(GraphError, match="two tables"):
        joint_from_tables(g, [p_table, p_table, q_table])
    with pytest.raises(GraphError, match="conditions on"):
        joint_from_tables(g, [p_table, ConditionalTable("Q", (), np.array([0.5, 0.5]))])
    bad_card = ConditionalTable("Q", ("P",), np.full((3, 2), 0.5))
    with pytest.raises(GraphError, match="cardinality"):
        joint_from_tables(g, [p_table, bad_card])


def _remultiply(p: JointTable, cpts):
    """The product of ``cpts`` over ``p``'s axes, by one einsum."""
    names = list(p.names)
    operands = []
    for t in cpts:
        operands += [t.entries, [names.index(u) for u in (*t.parent_names, t.child)]]
    return np.einsum(*operands, range(len(names)))


@pytest.mark.parametrize("seed", range(5))
def test_chain_factorize_roundtrip_all_orders(seed):
    rng = np.random.default_rng(seed)
    cards = (2, 3, 2, 2)
    names = tuple(f"V{i}" for i in range(4))
    draws = rng.exponential(1.0, size=cards)
    p = JointTable(tuple(zip(names, cards)), draws / draws.sum())
    for order in itertools.permutations(names):
        cpts = chain_factorize(p, order)
        assert np.abs(_remultiply(p, cpts) - p.probabilities).max() <= 1e-12


def test_chain_factorize_independent_coins():
    p = coins(0.3, 0.8)
    for order in (["P", "Q"], ["Q", "P"]):
        second = chain_factorize(p, order)[1]
        # conditioning context changes nothing for a product distribution
        assert np.abs(second.entries[0] - second.entries[1]).max() <= 1e-12


def test_chain_factorize_copy_pair_is_deterministic():
    cpts = chain_factorize(copy_pair(), ["Q", "P"])
    assert np.allclose(cpts[1].entries, np.eye(2), atol=1e-15)


def test_chain_factorize_zero_context_uniform():
    p = JointTable((("P", 2), ("Q", 2)), np.array([[0.5, 0.5], [0.0, 0.0]]))
    cond = chain_factorize(p, ["P", "Q"])[1]
    assert np.allclose(cond.entries[1], [0.5, 0.5], atol=1e-15)  # unreached context
    assert np.abs(_remultiply(p, chain_factorize(p, ["P", "Q"])) - p.probabilities).max() <= 1e-12


def test_chain_factorize_rejects_non_permutation():
    with pytest.raises(GraphError, match="permutation"):
        chain_factorize(coins(), ["P", "P"])
    with pytest.raises(GraphError, match="permutation"):
        chain_factorize(coins(), ["P"])


def test_five_variable_chain_identity():
    """Factorizing any five-variable table along a fixed order and
    re-multiplying is an identity, the scenario decomposition included."""
    rng = np.random.default_rng(42)
    names = ("A", "B", "X", "Y", "Lambda")
    cards = (2, 2, 2, 2, 4)
    draws = rng.exponential(1.0, size=cards)
    p = JointTable(tuple(zip(names, cards)), draws / draws.sum())
    cpts = chain_factorize(p, ["Y", "X", "Lambda", "B", "A"])
    assert [t.child for t in cpts] == ["Y", "X", "Lambda", "B", "A"]
    assert cpts[-1].parent_names == ("Y", "X", "Lambda", "B")
    assert np.abs(_remultiply(p, cpts) - p.probabilities).max() <= 1e-12


# --- conditional independence test ------------------------------------------------

def test_independent_coins_hold():
    rep = ci_holds(coins(0.3, 0.6), CondQuery({"P"}, {"Q"}))
    assert rep.holds
    assert rep.max_violation <= 1e-15
    assert rep.witness is None


def test_copy_pair_fails_with_quarter_violation():
    rep = ci_holds(copy_pair(), CondQuery({"P"}, {"Q"}))
    assert not rep.holds
    assert rep.max_violation == pytest.approx(0.25, abs=1e-15)
    assert rep.witness is not None
    assert dict(rep.witness)["P"] == dict(rep.witness)["Q"]


def test_bell_joint_outcome_screening():
    g = bell_dag(lambda_card=5)
    for seed in range(5):
        p = random_compatible(g, seed)
        rep = ci_holds(p, CondQuery({"A"}, {"B"}, {"Lambda", "X", "Y"}))
        assert rep.holds


def test_ci_requires_positive_eps():
    with pytest.raises(GraphError, match="eps"):
        ci_holds(coins(), CondQuery({"P"}, {"Q"}), eps=0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(GraphError, match="eps"):
            ci_holds(coins(), CondQuery({"P"}, {"Q"}), eps=bad)


def test_ci_rejects_overlap():
    with pytest.raises(GraphError, match="overlapping"):
        ci_holds(coins(), CondQuery({"P"}, {"P"}))


def test_ci_witness_identifies_worst_assignment():
    rng = np.random.default_rng(8)
    draws = rng.exponential(1.0, size=(2, 3, 2))
    p = JointTable((("P", 2), ("Q", 3), ("R", 2)), draws / draws.sum())
    rep = ci_holds(p, CondQuery({"P"}, {"Q"}, {"R"}))
    assert not rep.holds
    w = dict(rep.witness)
    m = p.marginal(["P", "Q", "R"])
    pz = m.sum((0, 1))
    got = abs(
        m[w["P"], w["Q"], w["R"]] * pz[w["R"]]
        - m[w["P"], :, w["R"]].sum() * m[:, w["Q"], w["R"]].sum()
    )
    assert got == pytest.approx(rep.max_violation, abs=1e-15)


@pytest.mark.parametrize("xs,ys,zs", [
    (("P", "Q"), ("R", "S"), ("T",)),
    (("Q",), ("P",), ()),
    (("P",), ("S", "T"), ("Q", "R")),
])
def test_ci_kernel_batch_axes_match_ci_holds(xs, ys, zs):
    # four joints stacked on a trailing axis, one kernel call for all of them
    variables = (("P", 2), ("Q", 3), ("R", 2), ("S", 2), ("T", 2))
    card = dict(variables)
    names = list(card)
    draws = np.random.default_rng(23).exponential(1.0, size=(2, 3, 2, 2, 2, 4))
    joints = draws / draws.sum(axis=tuple(range(5)))
    keep = [names.index(n) for n in xs + ys + zs]
    rest = [i for i in range(5) if i not in keep]
    m = joints.transpose(keep + rest + [5]).reshape(
        math.prod(card[n] for n in xs), math.prod(card[n] for n in ys),
        math.prod(card[n] for n in zs), -1, 4).sum(axis=3)
    viol = _ci_violations(m)
    assert viol.shape == m.shape
    for k in range(4):
        want = ci_holds(JointTable(variables, joints[..., k]), CondQuery(xs, ys, zs), eps=1.0)
        assert abs(viol[..., k].max() - want.max_violation) <= 1e-15


# --- graph audits ------------------------------------------------------------------

def test_random_compatible_joints_pass_markov():
    g = bell_dag(lambda_card=3)
    for seed in range(20):
        p = random_compatible(g, seed)
        assert causal_markov_check(p, g).passed
        assert compatible(p, g).passed


def test_copy_pair_fails_on_edgeless_graph():
    g = edgeless("P", "Q")
    assert not compatible(copy_pair(), g).passed
    assert not causal_markov_check(copy_pair(), g).passed
    assert not causal_completeness_check(copy_pair(), g).passed


def test_uniform_joint_passes_any_graph():
    rng = np.random.default_rng(12)
    for _ in range(10):
        g = random_typed_dag(rng, n_nodes=4)
        cards = tuple(g.cardinality(v) for v in g.names)
        uniform = JointTable(
            tuple((v, g.cardinality(v)) for v in g.names),
            np.full(cards, 1.0 / np.prod(cards)),
        )
        assert compatible(uniform, g).passed
        assert causal_completeness_check(uniform, g).passed


def test_markov_implies_completeness():
    rng = np.random.default_rng(13)
    for trial in range(30):
        g = random_typed_dag(rng, n_nodes=5)
        p = random_compatible(g, trial)
        assert causal_markov_check(p, g).passed
        assert causal_completeness_check(p, g).passed


def test_audit_reports_per_node_checks():
    g = edgeless("P", "Q")
    report = causal_markov_check(copy_pair(), g)
    assert len(report.checks) == 2
    failed = [c for c in report.checks if not c.passed]
    assert failed and failed[0].witness is not None
    assert failed[0].violation == pytest.approx(0.25, abs=1e-12)


def test_variable_mismatch_rejected():
    g = edgeless("P", "R")
    with pytest.raises(GraphError, match="variable mismatch"):
        compatible(copy_pair(), g)
    g2 = Dag([("P", "outcome", 2), ("Q", "outcome", 3)])
    with pytest.raises(GraphError, match="cardinality"):
        compatible(copy_pair(), g2)


def _extract_conditional(p, v, parents):
    m = p.marginal(list(parents) + [v])
    denom = m.sum(axis=-1, keepdims=True)
    card = p.card(v)
    cond = np.where(denom > 0, m / np.where(denom > 0, denom, 1.0), 1.0 / card)
    return ConditionalTable(v, tuple(parents), cond)


def test_factorization_equivalence():
    """Passing the audit must coincide with an accurate refactorization
    along the graph, extracted from the table itself."""
    rng = np.random.default_rng(14)
    tested_pass = tested_fail = 0
    for trial in range(20):
        g = random_typed_dag(rng, n_nodes=4)
        if trial % 2 == 0:
            p = random_compatible(g, trial)
        else:
            cards = tuple(g.cardinality(v) for v in g.names)
            draws = rng.exponential(1.0, size=cards)
            p = JointTable(tuple((v, g.cardinality(v)) for v in g.names), draws / draws.sum())
        cpts = [
            _extract_conditional(p, v, sorted(g.parents(v), key=g.index))
            for v in g.names
        ]
        rebuilt = joint_from_tables(g, cpts)
        refactor_ok = np.abs(rebuilt.probabilities - p.probabilities).max() <= 1e-9
        audit_ok = compatible(p, g).passed
        assert refactor_ok == audit_ok
        tested_pass += audit_ok
        tested_fail += not audit_ok
    assert tested_pass and tested_fail


# --- common-cause classification ------------------------------------------------------

def test_rpcc_screened_on_two_wing_graph():
    g = bell_dag(lambda_card=3)
    p = random_compatible(g, 2)
    report = reichenbach_check(p, g, "A", "B")
    assert report.verdict == SCREENED
    assert "Lambda" in report.common_past


def test_rpcc_uncorrelated_for_independent_coins():
    report = reichenbach_check(coins(), edgeless("P", "Q"), "P", "Q")
    assert report.verdict == UNCORRELATED


def test_rpcc_violation_for_copy_pair(monkeypatch):
    asked = asked_queries(monkeypatch)
    report = reichenbach_check(copy_pair(), edgeless("P", "Q"), "P", "Q")
    assert report.verdict == VIOLATES_RPCC
    assert report.common_past == ()
    # with no common past the screening query is the marginal one, asked once
    assert asked == [CondQuery({"P"}, {"Q"})]
    assert report.screened is report.marginal
    assert report.to_text() == (
        "verdict: violates_rpcc\n"
        "common past: {}\n"
        "marginal dependence: 0.250000000\n"
        "residual dependence given common past: 0.250000000\n"
    )


def test_rpcc_direct_cause_branch():
    g = Dag([("P", "outcome", 2), ("Q", "outcome", 2)], [("P", "Q")])
    report = reichenbach_check(copy_pair(), g, "P", "Q")
    assert report.verdict == DIRECT_CAUSE


def test_rpcc_rejects_equal_nodes():
    with pytest.raises(GraphError):
        reichenbach_check(coins(), edgeless("P", "Q"), "P", "P")
    for x, y in (("R", "P"), ("P", "R")):
        with pytest.raises(GraphError, match=r"unknown node\(s\) in query: \['R'\]"):
            reichenbach_check(coins(), edgeless("P", "Q"), x, y)


# --- closure-axiom audit ----------------------------------------------------------------
#
# Antecedents only ever fire on tables that actually have conditional
# independences, so the samplers build tables factorized over random
# sparse graphs rather than fully generic ones.

def _random_sparse_dag(rng, n=4, edge_prob=0.3):
    names = [f"V{i}" for i in range(n)]
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < edge_prob
    ]
    return Dag([(nm, "outcome", 2) for nm in names], edges)


def _structured_positive_table(rng):
    p = random_compatible(_random_sparse_dag(rng), int(rng.integers(0, 2**31)))
    assert (p.probabilities > 0).all()
    return p


def _structured_zero_table(rng):
    g = _random_sparse_dag(rng)
    cpts = []
    for v in g.names:
        parents = g.ordered_parents(v)
        shape = tuple(2 for _ in parents) + (2,)
        draws = rng.exponential(1.0, size=shape)
        draws[rng.random(shape) < 0.4] = 0.0
        draws[..., 0] += draws.sum(axis=-1) == 0
        cpts.append(ConditionalTable(v, parents, draws / draws.sum(axis=-1, keepdims=True)))
    return joint_from_tables(g, cpts)


def test_graphoid_axioms_pass_on_positive_tables():
    rng = np.random.default_rng(21)
    fired_total = 0
    for trial in range(8):
        report = graphoid_audit(_structured_positive_table(rng), trials=200, seed=trial)
        assert report.passed
        for check in report.checks:
            assert check.detail["failed"] == 0
            fired_total += check.detail["fired"]
    assert fired_total > 200


def test_semi_graphoid_axioms_pass_with_zeros():
    rng = np.random.default_rng(22)
    fired_total = 0
    for trial in range(8):
        p = _structured_zero_table(rng)
        report = graphoid_audit(p, trials=200, seed=trial)
        for check in report.checks:
            if check.name != "intersection":
                assert check.detail["failed"] == 0, check
                fired_total += check.detail["fired"]
        assert report.checks[-1].detail["failed"] == 0  # gated, never failed
    assert fired_total > 100


def test_intersection_counterexample_is_gated_not_failed():
    report = graphoid_audit(triple_copy(), trials=400, seed=3)
    inter = next(c for c in report.checks if c.name == "intersection")
    assert inter.detail["gated"] >= 1
    assert inter.detail["failed"] == 0
    assert inter.passed
    assert report.passed
    assert inter.detail["positivity_gate"] == "on"


def test_intersection_antecedents_hold_but_consequent_fails_on_triple_copy():
    p = triple_copy()
    assert ci_holds(p, CondQuery({"P"}, {"Q"}, {"R"})).holds
    assert ci_holds(p, CondQuery({"P"}, {"R"}, {"Q"})).holds
    consequent = ci_holds(p, CondQuery({"P"}, {"Q", "R"}))
    assert not consequent.holds
    assert consequent.max_violation == pytest.approx(0.25, abs=1e-15)


def test_graphoid_failure_path_reports_worst_consequent_and_counterexample():
    # This decomposition FAIL is the tolerance artifact of ROADMAP item 1,
    # not a broken axiom. The table is a valid distribution, and the
    # consequent X _||_ Y reads exactly |W| = 16 times the antecedent
    # X _||_ {Y, W}, while consequents are asserted at only 10*eps. Item 1
    # re-derives that bound, and with it these expected values.
    delta = 1.6e-3
    x, y, _ = np.indices((2, 2, 16))
    p = JointTable((("X", 2), ("Y", 2), ("W", 16)), 1 / 64 + delta * (-1.0) ** (x ^ y) / 16)
    antecedent = ci_holds(p, CondQuery({"X"}, {"Y", "W"}))
    consequent = ci_holds(p, CondQuery({"X"}, {"Y"}))
    assert antecedent.max_violation == pytest.approx(delta / 16, rel=1e-9)
    assert consequent.max_violation == pytest.approx(delta, rel=1e-9)
    report = graphoid_audit(p, eps=1.01 * delta / 16, trials=400, seed=3)
    assert report.to_text() == (
        "graphoid audit\n"
        "check          required  passed  violation    witness\n"
        "symmetry       yes       yes     0.000000000\n"
        "decomposition  yes       NO      0.001600000  X=0 Y=0\n"
        "weak_union     yes       yes     0.000000000\n"
        "contraction    yes       yes     0.000000000\n"
        "intersection   yes       yes     0.000000000\n"
        "  [symmetry] fired=267 passed=267 failed=0\n"
        "  [decomposition] fired=400 passed=267 failed=133 "
        "counterexample=X=['X'] Y=['Y'] Z=[] W=['W']\n"
        "  [weak_union] fired=400 passed=400 failed=0\n"
        "  [contraction] fired=254 passed=254 failed=0\n"
        "  [intersection] fired=400 passed=400 failed=0 gated=0 positivity_gate=off\n"
        "overall: FAIL\n"
    )
    decomposition = report.checks[1]
    assert decomposition.violation == consequent.max_violation
    assert decomposition.witness == consequent.witness == (("X", 0), ("Y", 0))


def test_graphoid_trial_asks_each_statement_once(monkeypatch):
    """On a positive product table every antecedent holds, so every axiom
    fires in every trial. Four consequents are antecedents the trial has
    asked already; only symmetry's, Y _||_ X | Z, is a sixth statement."""
    p = random_compatible(edgeless("A", "B", "C", "D"), 4)
    assert (p.probabilities > 0).all()
    asked = asked_queries(monkeypatch)
    report = graphoid_audit(p, trials=50)
    assert len(asked) == 300
    assert all(len(set(asked[k:k + 6])) == 6 for k in range(0, 300, 6))
    assert report.passed
    assert [c.detail["fired"] for c in report.checks] == [50] * 5


def test_graphoid_audit_deterministic_per_seed():
    rng = np.random.default_rng(25)
    p = _structured_positive_table(rng)
    a = graphoid_audit(p, trials=100, seed=9)
    b = graphoid_audit(p, trials=100, seed=9)
    assert a == b


def test_graphoid_audit_validates_arguments():
    with pytest.raises(GraphError, match="^trials must be positive, got 0$"):
        graphoid_audit(coins(), trials=0, seed=1)
    with pytest.raises(GraphError, match="^trials must be an integer, got 2.5$"):
        graphoid_audit(coins(), 1e-9, 2.5, 1)
    with pytest.raises(GraphError, match="^seed must be non-negative, got -2$"):
        graphoid_audit(coins(), trials=3, seed=-2)
    with pytest.raises(GraphError, match="eps"):
        graphoid_audit(coins(), eps=-1.0, trials=10, seed=1)
    for bad in (np.nan, np.inf):
        with pytest.raises(GraphError, match="eps"):
            graphoid_audit(coins(), eps=bad, trials=10, seed=1)


# --- random compatible tables ----------------------------------------------------------

def test_random_compatible_deterministic():
    g = bell_dag(lambda_card=4)
    a = random_compatible(g, 123)
    b = random_compatible(g, 123)
    assert np.array_equal(a.probabilities, b.probabilities)
    c = random_compatible(g, 124)
    assert not np.array_equal(a.probabilities, c.probabilities)


def test_random_compatible_always_compatible():
    rng = np.random.default_rng(31)
    for trial in range(15):
        g = random_typed_dag(rng, n_nodes=5)
        p = random_compatible(g, trial)
        assert compatible(p, g).passed


def test_random_compatible_edgeless_is_product():
    g = edgeless("P", "Q")
    p = random_compatible(g, 6)
    assert ci_holds(p, CondQuery({"P"}, {"Q"})).holds


def test_oversized_graphs_hit_the_cap_before_any_allocation():
    chain = Dag([(f"v{i}", "outcome", 2) for i in range(40)],
                [(f"v{i}", f"v{i + 1}") for i in range(39)])
    with pytest.raises(GraphError, match="cap"):
        random_compatible(chain, 1)
    big = Dag([("a", "outcome", 2), ("big", "outcome", 10**11)], [("a", "big")])
    with pytest.raises(GraphError, match="cap"):
        random_conditional_tables(big, np.random.default_rng(0))
    # the cell count is exact past 2**64, where an int64 product wraps to 0
    with pytest.raises(GraphError, match="cap"):
        JointTable(tuple((f"V{i}", 2) for i in range(64)), np.ones(1))


def test_random_tables_match_graph():
    g = bell_dag(lambda_card=4)
    rng = np.random.default_rng(0)
    for t in random_conditional_tables(g, rng):
        assert set(t.parent_names) == g.parents(t.child)


# --- file format --------------------------------------------------------------------------

def test_distribution_roundtrip():
    p = random_compatible(bell_dag(lambda_card=3), 77)
    q = parse_distribution(format_distribution(p))
    assert q.variables == p.variables
    assert np.abs(q.probabilities - p.probabilities).max() <= 1e-15


def test_distribution_zeros_are_omitted_and_restored():
    p = copy_pair()
    text = format_distribution(p)
    assert len(text.splitlines()) == 3  # header + two nonzero rows
    q = parse_distribution(text)
    assert np.array_equal(q.probabilities, p.probabilities)


# sha256 of the files written below: a text change that still parses back is
# invisible to the round-trip tests, not to this pin
WRITTEN_SHA256 = "059b129cc35eeffef217f78ea43f95a09c1808133cbb94c4b3311f3e884702c5"


def test_written_files_are_pinned_byte_for_byte():
    dags = [random_typed_dag(np.random.default_rng(s), n_nodes=8) for s in (1, 2)]
    for g in dags:
        assert {g.cardinality(v) for v in g.names} == {2, 3}
    joints = [random_compatible(bell_dag(3), 77)]
    joints += [random_compatible(g, s) for s, g in enumerate(dags, 5)]
    joints.append(copy_pair())
    behaviors = [singlet_behavior(*CHSH_ANGLES), pr_box()]
    behaviors += [behavior_from_lhv(random_lhv(s)) for s in range(10)]
    texts = [format_distribution(p) for p in joints] + [format_behavior(b) for b in behaviors]
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode())
    assert digest.hexdigest() == WRITTEN_SHA256


@pytest.mark.parametrize("text,fragment", [
    ("0 0 0.5", "header"),
    ("vars P:2\n0 0.5\n0 0.5", "duplicate assignment"),
    # the writer omits zero rows, but a hand-written repeat of one is still a repeat
    ("vars P:2\n0 0\n0 0\n1 1", "^line 3: duplicate assignment$"),
    ("vars P:2\n2 0.5", "out of range"),
    ("vars P:2\n0 0.9", "outside 1"),
    ("vars P:2\n0 -0.1\n1 1.1", "negative"),
    ("vars P:zz\n", "cardinality"),
    # a syntax fault is reported before a rule fault earlier in the header
    ("vars a-b:2 C:zz\n", "^line 1: bad cardinality in 'C:zz'$"),
    ("vars P:2 P:2\n", "line 1: duplicate variable 'P'"),
    ("vars P:2 P:2\n0 0 1", "line 1: duplicate variable 'P'"),
    ("vars P:2\n0 0.5 9", "expected 1 values"),
    ("vars P:2 Q:2\n0 0 nan\n1 1 0.5", "line 2: probability must be finite"),
    ("vars P:2\n0 inf\n1 0", "finite"),
    ("vars A:100000 B:100000 C:1000\n0 0 0 1", "line 1: table of 10000000000000 cells"),
])
def test_distribution_parse_errors(text, fragment):
    with pytest.raises(GraphError, match=fragment):
        parse_distribution(text)


def test_a_header_fault_is_the_tables_message_on_its_line():
    for variables in ((("P", 0),), (("a-b", 2),), (("P", 2), ("Q", 3), ("P", 2)),
                      (("A", 100000), ("B", 100000), ("C", 1000))):
        with pytest.raises(GraphError) as raised:
            JointTable(variables, np.ones(1))
        header = "# comment\nvars " + " ".join(f"{n}:{c}" for n, c in variables)
        with pytest.raises(GraphError) as parsed:
            parse_distribution(header + "\n")
        assert str(parsed.value) == f"line 2: {raised.value}"


def test_distribution_loader_renormalizes_within_gate():
    text = "vars P:2\n0 0.5000000001\n1 0.5\n"
    p = parse_distribution(text)
    assert abs(float(p.probabilities.sum()) - 1.0) <= 1e-12


def test_parsing_a_table_file_keeps_no_second_record_of_its_rows():
    """The reader's peak allocation stays within a small multiple of the
    text, because the parsed table is the only record of which cells rows
    filled. On this 2^14-cell file the peak is about 2.6 times the text's
    length; a second record, a set of one assignment tuple per row, takes
    it to about 5.9."""
    draws = np.random.default_rng(0).exponential(1.0, size=(2,) * 14)
    text = format_distribution(JointTable(tuple((f"V{i}", 2) for i in range(14)),
                                          draws / draws.sum()))
    tracemalloc.start()
    try:
        parse_distribution(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(text)
