import itertools

import numpy as np
import pytest

from causalbell.bell import Behavior, LhvModel, bell_dag, random_lhv
from causalbell.distributions import (
    DIRECT_CAUSE,
    SCREENED,
    UNCORRELATED,
    VIOLATES_RPCC,
    ConditionalTable,
    JointTable,
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


# --- table validation ----------------------------------------------------------

def test_joint_table_validation():
    with pytest.raises(GraphError, match="sum"):
        JointTable((("P", 2),), np.array([0.5, 0.6]))
    with pytest.raises(GraphError, match="negative"):
        JointTable((("P", 2),), np.array([1.1, -0.1]))
    with pytest.raises(GraphError, match="shape"):
        JointTable((("P", 2),), np.array([[0.5, 0.5]]))
    with pytest.raises(GraphError, match="duplicate"):
        JointTable((("P", 2), ("P", 2)), np.full((2, 2), 0.25))
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
    from causalbell.distributions import _aligned

    names = list(p.names)
    acc = np.ones(p.probabilities.shape)
    for t in cpts:
        axes = [names.index(u) for u in t.parent_names] + [names.index(t.child)]
        acc = acc * _aligned(t.entries, axes, len(names), p.probabilities.shape)
    return acc


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


def test_rpcc_violation_for_copy_pair():
    report = reichenbach_check(copy_pair(), edgeless("P", "Q"), "P", "Q")
    assert report.verdict == VIOLATES_RPCC
    assert report.common_past == ()


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


@pytest.mark.parametrize("text,fragment", [
    ("0 0 0.5", "header"),
    ("vars P:2\n0 0.5\n0 0.5", "duplicate assignment"),
    ("vars P:2\n2 0.5", "out of range"),
    ("vars P:2\n0 0.9", "outside 1"),
    ("vars P:2\n0 -0.1\n1 1.1", "negative"),
    ("vars P:zz\n", "cardinality"),
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


def test_distribution_loader_renormalizes_within_gate():
    text = "vars P:2\n0 0.5000000001\n1 0.5\n"
    p = parse_distribution(text)
    assert abs(float(p.probabilities.sum()) - 1.0) <= 1e-12
