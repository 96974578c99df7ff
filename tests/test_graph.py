import numpy as np
import pytest

from causalbell.bell import no_signalling_check, pr_box
from causalbell.distributions import JointTable, ci_holds, graphoid_audit
from causalbell.graph import (
    CondQuery,
    CycleError,
    Dag,
    DagParseError,
    GraphError,
    NodeKind,
    parse_dag,
)
from conftest import all_dags, random_typed_dag

BELL_FILE = """\
# two-wing correlation scenario
node X setting 2
node Y setting 2
node A outcome 2
node B outcome 2
node Lambda latent 4

edge X -> A
edge Lambda -> A
edge Lambda -> B
edge Y -> B
"""


def test_parse_minimal():
    g = parse_dag("node X setting 2\nnode A outcome 2\nedge X -> A\n")
    assert g.names == ("X", "A")
    assert g.edges == (("X", "A"),)
    assert g.kind("X") is NodeKind.SETTING
    assert g.cardinality("A") == 2


def test_parse_bell_file():
    g = parse_dag(BELL_FILE)
    assert len(g) == 5
    assert len(g.edges) == 4
    assert g.kind("Lambda") is NodeKind.LATENT
    assert g.parents("A") == {"X", "Lambda"}


def test_kind_defaults_to_outcome():
    g = parse_dag("node P 2\nnode Q 3\nedge P -> Q\n")
    assert g.kind("P") is NodeKind.OUTCOME
    assert g.cardinality("Q") == 3


def test_two_cycle_rejected():
    text = "node X setting 2\nnode Y setting 2\nedge X -> Y\nedge Y -> X\n"
    with pytest.raises(CycleError) as exc:
        parse_dag(text)
    cycle = exc.value.cycle
    assert cycle[0] == cycle[-1]
    assert set(cycle) == {"X", "Y"}


def test_longer_cycle_reported():
    text = "node P 2\nnode Q 2\nnode R 2\nedge P -> Q\nedge Q -> R\nedge R -> P\n"
    with pytest.raises(CycleError) as exc:
        parse_dag(text)
    assert len(exc.value.cycle) == 4  # three nodes plus the repeated closer


def _first_ready_order(g: Dag) -> list[str]:
    """Reference order: repeatedly emit the first declared node whose
    parents are all emitted."""
    order: list[str] = []
    while len(order) < len(g):
        order.append(next(v for v in g.names
                          if v not in order and g.parents(v) <= set(order)))
    return order


def test_reverse_declared_graph_sorts_by_declaration():
    chain = [f"n{i}" for i in range(200)]
    g = Dag([(v, "outcome", 2) for v in reversed(chain)], list(zip(chain, chain[1:])))
    assert g.topological_order() == chain
    rng = np.random.default_rng(11)
    for _ in range(30):  # random DAGs declared sinks first
        n = int(rng.integers(2, 15))
        edges = [(f"v{i}", f"v{j}") for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.3]
        g = Dag([(f"v{i}", "outcome", 2) for i in reversed(range(n))], edges)
        assert g.topological_order() == _first_ready_order(g)


def test_neighbour_views_follow_declaration_order():
    # declared sinks first, edges listed in no particular order
    g = Dag([(v, "outcome", 2) for v in ("E", "D", "C", "B", "A")],
            [("A", "E"), ("C", "E"), ("B", "D"), ("A", "C"), ("B", "E"), ("A", "D")])
    assert g.ordered_parents("E") == ("C", "B", "A")
    assert g.ordered_parents("D") == ("B", "A")
    assert g.ordered_children("A") == ("E", "D", "C")
    assert g.ordered_children("B") == ("E", "D")
    assert g.topological_order() == ["B", "A", "D", "C", "E"]
    assert g.ancestors("E") == {"A", "B", "C"}
    assert g.descendants("A") == {"C", "D", "E"}
    assert g.edges[0] == ("A", "E")  # edges keep their own order


def test_two_disjoint_cycles_report_the_first_declared_one():
    # the walk starts from F, the first declared node left over, and
    # climbs into the C/D cycle; the A/B/E cycle is declared later
    text = (
        "node F 2\nnode C 2\nnode D 2\nnode A 2\nnode B 2\nnode E 2\nnode G 2\n"
        "edge G -> A\nedge D -> F\nedge C -> D\nedge D -> C\n"
        "edge A -> B\nedge B -> E\nedge E -> A\n"
    )
    with pytest.raises(CycleError) as exc:
        parse_dag(text)
    assert exc.value.cycle == ["D", "C", "D"]
    with pytest.raises(CycleError) as exc:
        parse_dag(text.replace("edge D -> C\n", ""))
    assert exc.value.cycle == ["A", "B", "E", "A"]


@pytest.mark.parametrize("text,lineno,fragment", [
    ("nodes X setting 2", 1, "unknown directive"),
    ("node X setting 2\nnode X outcome 2", 2, "duplicate node"),
    ("node X setting 2\nedge X -> Z", 2, "unknown edge endpoint"),
    ("node X widget 2", 1, "unknown node kind"),
    ("node X setting two", 1, "expected cardinality"),
    ("node X setting 0", 1, "cardinality must be positive"),
    ("node X setting 2\nedge X -> X", 2, "self-loop"),
    ("node X 2\nnode Y 2\nedge X -> Y\nedge X -> Y", 4, "duplicate edge"),
    ("node X 2\nnode L latent 2\nedge X -> L", 3, "latent"),
    ("node X 2\nnode Y 2\nedge X Y", 3, "expected 'edge"),
    ("node X", 1, "expected 'node"),
    ("node X 2\nnode L latent 2\nedge X -> L\nnode Z 2", 3, "latent"),
    ("node X 2\nnode Y 2\nedge X -> Y\nnode X 2", 4, "duplicate node"),
    ("node X 2\nedge X -> Y\nnode Y 2", 2, "unknown edge endpoint"),
    ("node X 2\nnode Y 2\nedge X -> X\nnode Y 2", 4, "duplicate node"),
])
def test_parse_errors_carry_line_numbers(text, lineno, fragment):
    with pytest.raises(DagParseError) as exc:
        parse_dag(text)
    assert exc.value.line == lineno
    assert fragment in str(exc.value)


# Malformed DAG texts with the fault each one reports: (text, line, message).
# Syntax faults come in line order; then node faults, then edge faults, each
# tagged with its line; a cycle comes last and carries no line.
PARSE_FAULTS = [
    # every fault kind
    ("bogus X", 1, "unknown directive 'bogus'"),
    ("NODE X 2", 1, "unknown directive 'NODE'"),
    ("->", 1, "unknown directive '->'"),
    ("node X", 1, "expected 'node <name> [<kind>] <cardinality>'"),
    ("node X setting outcome 2", 1, "expected 'node <name> [<kind>] <cardinality>'"),
    ("node X widget 2", 1, "unknown node kind 'widget'"),
    ("node X Setting 2", 1, "unknown node kind 'Setting'"),
    ("node X setting two", 1, "expected cardinality, got 'two'"),
    ("node X setting 2.0", 1, "expected cardinality, got '2.0'"),
    ("node X setting", 1, "expected cardinality, got 'setting'"),
    ("node X 0", 1, "node 'X': cardinality must be positive and integral, got 0"),
    ("node X -1", 1, "node 'X': cardinality must be positive and integral, got -1"),
    ("node X -0", 1, "node 'X': cardinality must be positive and integral, got 0"),
    ("node 1X 2", 1, "node name '1X' is not an identifier"),
    ("node a-b 2", 1, "node name 'a-b' is not an identifier"),
    ("node X 2\nnode X 3", 2, "duplicate node 'X'"),
    ("edge X -> Y", 1, "unknown edge endpoint 'X'"),
    ("node X 2\nedge X Y", 2, "expected 'edge <name> -> <name>'"),
    ("node X 2\nedge X - > Y", 2, "expected 'edge <name> -> <name>'"),
    ("node X 2\nedge X => X", 2, "expected 'edge <name> -> <name>'"),
    ("node X 2\nedge X ->", 2, "expected 'edge <name> -> <name>'"),
    ("node X 2\nedge X -> Y", 2, "unknown edge endpoint 'Y'"),
    ("node Y 2\nedge X -> Y", 2, "unknown edge endpoint 'X'"),
    ("node X 2\nedge X -> X", 2, "self-loop on 'X'"),
    ("node X 2\nnode Y 2\nedge X -> Y\nedge X -> Y", 4, "duplicate edge 'X' -> 'Y'"),
    ("node X 2\nnode L latent 2\nedge X -> L", 3,
     "latent node 'L' cannot have an incoming edge"),
    # mixed faults, where precedence decides
    ("node X 2\nnode X 2\nbogus", 3, "unknown directive 'bogus'"),
    ("node X 0\nnode Y widget 2", 2, "unknown node kind 'widget'"),
    ("node 1X 2\nnode Y 2\nedge 1X -> Y", 1, "node name '1X' is not an identifier"),
    ("node 1X 2\nedge 1X -> Y", 2, "unknown edge endpoint 'Y'"),
    ("node 1X 2\nnode Y 2\nedge 1X -> Y\nbogus", 4, "unknown directive 'bogus'"),
    ("node X 2\nedge X -> X\nnode X 2", 3, "duplicate node 'X'"),
    ("node X 2\nedge X -> X\nnode Y 0", 3,
     "node 'Y': cardinality must be positive and integral, got 0"),
    ("node X 2\nnode Y 2\nedge X -> Y\nedge X -> Y\nedge Y -> X", 4, "duplicate edge 'X' -> 'Y'"),
    ("node X 2\nnode Y 2\nedge Y -> X\nedge X -> Y\nedge X -> X", 5, "self-loop on 'X'"),
    ("node X 2\nnode Y 2\nedge X -> Y\nedge Y -> X\nnode Z 0", 5,
     "node 'Z': cardinality must be positive and integral, got 0"),
    ("node X 2\nnode Y 2\nedge X -> Y\nedge Y -> X\nnode Z two", 5,
     "expected cardinality, got 'two'"),
    ("node X 2\nnode L latent 2\nedge X -> L\nedge L -> X\nedge X -> Q", 5,
     "unknown edge endpoint 'Q'"),
    ("node X 2\nnode X 2\nedge X -> X\nedge X -> Y", 4, "unknown edge endpoint 'Y'"),
    ("node X 0\nnode X 2\nnode 2Z 2", 1,
     "node 'X': cardinality must be positive and integral, got 0"),
    ("node 2Z 2\nnode X 0", 1, "node name '2Z' is not an identifier"),
    ("node X 2\nnode L latent 2\nedge X -> L\nnode L 2", 4, "duplicate node 'L'"),
    ("node X 2\nnode Y latent 2\nedge X -> Y\nedge X -> Y", 3,
     "latent node 'Y' cannot have an incoming edge"),
    # every line break str.splitlines knows, blank lines and comments
    ("node X 2\r\nbogus\r\n", 2, "unknown directive 'bogus'"),
    ("node X 2\rbogus", 2, "unknown directive 'bogus'"),
    ("node X 2\x0bbogus", 2, "unknown directive 'bogus'"),
    ("node X 2\x0cbogus", 2, "unknown directive 'bogus'"),
    ("node X 2\x1cnode Y 2\x1dnode Z 2\x1ebogus", 4, "unknown directive 'bogus'"),
    ("node X 2\x85bogus", 2, "unknown directive 'bogus'"),
    ("node X 2 node Y 2 bogus", 3, "unknown directive 'bogus'"),
    ("node X 2\n\n\n  \t\n# note\nbogus", 6, "unknown directive 'bogus'"),
    ("node\xa0X\xa02\nbogus", 2, "unknown directive 'bogus'"),
    ("# a comment\nnode X 2 # trailing\nedge X -> X # self", 3, "self-loop on 'X'"),
    ("node X 2#comment\nnode X 2", 2, "duplicate node 'X'"),
    ("node X # 2", 1, "expected 'node <name> [<kind>] <cardinality>'"),
    ("#node X 2\nedge X -> Y", 2, "unknown edge endpoint 'X'"),
]


@pytest.mark.parametrize("text,lineno,message", PARSE_FAULTS)
def test_parse_fault_table(text, lineno, message):
    with pytest.raises(DagParseError) as exc:
        parse_dag(text)
    assert type(exc.value) is DagParseError
    assert exc.value.line == lineno
    assert str(exc.value) == f"line {lineno}: {message}"


@pytest.mark.parametrize("text,cycle", [
    ("node X 2\nnode Y 2\nedge X -> Y\nedge Y -> X", ["X", "Y", "X"]),
    ("node P 2\nnode Q 2\nnode R 2\nedge Q -> R\nedge R -> P\nedge P -> Q",
     ["P", "Q", "R", "P"]),
    ("node X +1\nnode Y 1_0\nnode Z ٣\nedge X -> Y\nedge Y -> X", ["X", "Y", "X"]),
])
def test_parse_cycle_table(text, cycle):
    with pytest.raises(CycleError) as exc:
        parse_dag(text)
    assert type(exc.value) is CycleError
    assert exc.value.cycle == cycle
    assert str(exc.value) == "cycle detected: " + " -> ".join(cycle)


def test_parse_accepts_what_int_accepts_and_every_line_break():
    g = parse_dag("node X +1\nnode Y 1_0\nnode Z ٣\nedge X -> Y\n")
    assert [g.cardinality(v) for v in g.names] == [1, 10, 3]
    assert g.edges == (("X", "Y"),)
    g = parse_dag("node X 2 # c\r\nnode Y setting 3\x0bedge Y -> X\n")
    assert g.names == ("X", "Y")
    assert [g.cardinality(v) for v in g.names] == [2, 3]
    assert [g.kind(v) for v in g.names] == [NodeKind.OUTCOME, NodeKind.SETTING]
    assert g.edges == (("Y", "X"),)


def test_parsed_and_constructed_dags_fill_the_same_slots():
    rng = np.random.default_rng(21)
    for _ in range(60):
        g = random_typed_dag(rng, n_nodes=int(rng.integers(1, 9)))
        parsed = parse_dag(g.to_text())
        for slot in Dag.__slots__:
            assert getattr(parsed, slot) == getattr(g, slot), slot
            assert type(getattr(parsed, slot)) is type(getattr(g, slot)), slot


def test_parse_serialize_parse_identity():
    g1 = parse_dag(BELL_FILE)
    g2 = parse_dag(g1.to_text())
    assert g1 == g2
    assert g1.to_text() == g2.to_text()


def test_roundtrip_on_random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(25):
        g = random_typed_dag(rng)
        assert parse_dag(g.to_text()) == g


def test_constructor_rejects_bad_input():
    with pytest.raises(GraphError, match="identifier"):
        Dag([("bad name", "outcome", 2)])
    with pytest.raises(GraphError, match="duplicate node"):
        Dag([("X", "outcome", 2), ("X", "outcome", 2)])
    for card in (0, 2.5, True):
        with pytest.raises(GraphError, match="cardinality"):
            Dag([("X", "outcome", card)])
    assert type(Dag([("X", "outcome", np.int64(2))]).cardinality("X")) is int
    with pytest.raises(GraphError, match="unknown kind"):
        Dag([("X", "thing", 2)])
    with pytest.raises(GraphError, match="unknown edge endpoint"):
        Dag([("X", "outcome", 2)], [("X", "Y")])
    with pytest.raises(GraphError, match="latent"):
        Dag([("X", "outcome", 2), ("L", "latent", 2)], [("X", "L")])


@pytest.mark.parametrize("nodes,edges,message", [
    ([("X", "thing", 2)], [], "node 'X': unknown kind 'thing'"),
    ([("X", "Setting", 2)], [], "node 'X': unknown kind 'Setting'"),
    ([("X", 3, 2)], [], "node 'X': unknown kind 3"),
    ([("X", ["setting"], 2)], [], "node 'X': unknown kind ['setting']"),
    ([("X", "outcome", 2), ("Y", "outcome", 2)], [("X", "Y"), ("X", "Y")],
     "duplicate edge 'X' -> 'Y'"),
    ([("X", "outcome", 2)], [("X", "X")], "self-loop on 'X'"),
    ([("X", "outcome", 2)], [("X", "W")], "unknown edge endpoint 'W'"),
    ([("bad name", "outcome", 2)], [], "node name 'bad name' is not an identifier"),
    ([(5, "outcome", 2)], [], "node name 5 is not an identifier"),
    ([("1X", "thing", 0)], [], "node name '1X' is not an identifier"),
    ([("X", "outcome", 2), ("X", "thing", 0)], [], "duplicate node 'X'"),
    ([("X", "thing", 0)], [], "node 'X': unknown kind 'thing'"),
    ([("X", None, 2)], [], "node 'X': unknown kind None"),
    ([("X", "outcome", 0)], [], "node 'X': cardinality must be positive and integral, got 0"),
    ([("X", "outcome", -3)], [], "node 'X': cardinality must be positive and integral, got -3"),
    ([("X", "outcome", 2.5)], [], "node 'X': cardinality must be positive and integral, got 2.5"),
    ([("X", "outcome", 2.0)], [], "node 'X': cardinality must be positive and integral, got 2.0"),
    ([("X", "outcome", True)], [], "node 'X': cardinality must be positive and integral, got True"),
    ([("X", "outcome", "2")], [], "node 'X': cardinality must be positive and integral, got '2'"),
    ([("X", "outcome", None)], [], "node 'X': cardinality must be positive and integral, got None"),
    ([("1X", "outcome", 2)], [("X", "Y")], "node name '1X' is not an identifier"),
    ([("X", "outcome", 2)], [("Y", "X")], "unknown edge endpoint 'Y'"),
    ([("X", "outcome", 2), ("L", "latent", 2)], [("X", "L"), ("X", "X")],
     "latent node 'L' cannot have an incoming edge"),
    ([("X", "outcome", 2), ("Y", "outcome", 2)], [("X", "X"), ("Q", "X")], "self-loop on 'X'"),
    ([("X", NodeKind.LATENT, 2), ("Y", "outcome", 2)], [("Y", "X")],
     "latent node 'X' cannot have an incoming edge"),
])
def test_constructor_messages(nodes, edges, message):
    with pytest.raises(GraphError) as exc:
        Dag(nodes, edges)
    assert type(exc.value) is GraphError
    assert str(exc.value) == message


@pytest.mark.parametrize("build,message", [
    (lambda: Dag([("X", "outcome", 2, 5)]),
     "node declaration ('X', 'outcome', 2, 5) is not (name, kind, cardinality)"),
    # two fields do not pick up the file grammar's default kind
    (lambda: Dag([("X", "outcome")]),
     "node declaration ('X', 'outcome') is not (name, kind, cardinality)"),
    (lambda: Dag([("X", "outcome", 2)], [("X",)]), "edge declaration ('X',) is not (tail, head)"),
    (lambda: Dag([("X", "outcome", 2)], [("X", "Y", "Z")]),
     "edge declaration ('X', 'Y', 'Z') is not (tail, head)"),
    (lambda: CondQuery([["A"]], {"B"}), "query set X must be a collection of names, got [['A']]"),
    (lambda: CondQuery({"A"}, {"B"}, None), "query set Z must be a collection of names, got None"),
    # a tolerance that does not compare with numbers gets the message a bad number gets
    (lambda: ci_holds(JointTable((("P", 2), ("Q", 2)), np.full((2, 2), 0.25)),
                      CondQuery({"P"}, {"Q"}), "1e-9"),
     "tolerance eps must be positive and finite, got '1e-9'"),
    (lambda: graphoid_audit(JointTable((("P", 2), ("Q", 2)), np.full((2, 2), 0.25)), eps=None),
     "tolerance eps must be positive and finite, got None"),
    (lambda: no_signalling_check(pr_box(), eps=np.array([1e-9, 1e-3])),
     "tolerance eps must be positive and finite, got array([1.e-09, 1.e-03])"),
], ids=["node-four-fields", "node-two-fields", "edge-one-field", "edge-three-fields",
        "query-unhashable-name", "query-none-set", "eps-string", "eps-none", "eps-array"])
def test_malformed_library_arguments_raise_graph_error(build, message):
    with pytest.raises(GraphError) as exc:
        build()
    assert type(exc.value) is GraphError
    assert str(exc.value) == message


def test_kind_accepts_words_and_members():
    g = Dag([("X", NodeKind.SETTING, 2), ("A", "outcome", 2)], [("X", "A")])
    assert g.kind("X") is NodeKind.SETTING and g.kind("A") is NodeKind.OUTCOME
    assert g == Dag([("X", "setting", 2), ("A", NodeKind.OUTCOME, 2)], [("X", "A")])


def test_nodes_of_kind_takes_words_and_members_and_refuses_the_rest():
    g = parse_dag(BELL_FILE)
    assert g.nodes_of_kind("setting") == ("X", "Y")
    assert g.nodes_of_kind(NodeKind.LATENT) == ("Lambda",)
    for bad, shown in (("bogus", "'bogus'"), ("Setting", "'Setting'"), (None, "None"),
                       (["setting"], "['setting']")):
        with pytest.raises(GraphError) as exc:
            g.nodes_of_kind(bad)
        assert type(exc.value) is GraphError
        assert str(exc.value) == f"unknown kind {shown}"


def test_bell_structure_queries():
    g = parse_dag(BELL_FILE)
    assert g.parents("A") == {"X", "Lambda"}
    assert g.parents("X") == frozenset()
    assert g.ancestors("A") == {"X", "Lambda"}
    assert g.ancestors("Lambda") == frozenset()
    assert g.descendants("Lambda") == {"A", "B"}
    assert g.descendants("A") == frozenset()


def test_chain_queries():
    g = Dag([("P", "outcome", 2), ("Q", "outcome", 2), ("R", "outcome", 2)],
            [("P", "Q"), ("Q", "R")])
    assert g.ancestors("R") == {"P", "Q"}
    assert g.descendants("P") == {"Q", "R"}
    assert g.topological_order() == ["P", "Q", "R"]


def test_single_node_has_no_relatives():
    g = Dag([("X", "outcome", 2)])
    assert g.parents("X") == frozenset()
    assert g.ancestors("X") == frozenset()
    assert g.descendants("X") == frozenset()


def test_unknown_node_raises_keyerror():
    g = Dag([("X", "outcome", 2)])
    with pytest.raises(KeyError):
        g.parents("Z")
    with pytest.raises(KeyError):
        g.ancestors("Z")
    with pytest.raises(KeyError):
        g.kind("Z")


def test_empty_graph_topological_order():
    assert Dag([]).topological_order() == []


def test_bell_topological_order():
    g = parse_dag(BELL_FILE)
    order = g.topological_order()
    pos = {v: i for i, v in enumerate(order)}
    for source in ("X", "Y", "Lambda"):
        for sink in ("A", "B"):
            assert pos[source] < pos[sink]


def test_structural_invariants_exhaustive_small():
    count = 0
    for g in all_dags(3):
        count += 1
        _check_invariants(g)
    assert count == 25


def test_structural_invariants_random():
    rng = np.random.default_rng(5)
    for _ in range(40):
        _check_invariants(random_typed_dag(rng, n_nodes=6))


def test_relation_views_match_the_edge_list_on_all_small_dags():
    def closure(v, step):
        found, todo = set(), list(step[v])
        while todo:
            w = todo.pop()
            if w not in found:
                found.add(w)
                todo += step[w]
        return found

    for n in range(5):
        for g in all_dags(n):
            parents = {v: [t for t, h in g.edges if h == v] for v in g.names}
            children = {v: [h for t, h in g.edges if t == v] for v in g.names}
            for v in g.names:
                assert g.ordered_parents(v) == tuple(sorted(parents[v], key=g.index))
                assert g.ordered_children(v) == tuple(sorted(children[v], key=g.index))
                assert g.parents(v) == set(parents[v])
                assert g.children(v) == set(children[v])
                assert g.ancestors(v) == closure(v, parents)
                assert g.descendants(v) == closure(v, children)
                assert g.descendants(v) == {w for w in g.names if v in g.ancestors(w)}


def _check_invariants(g: Dag) -> None:
    order = g.topological_order()
    assert sorted(order) == sorted(g.names)
    pos = {v: i for i, v in enumerate(order)}
    for tail, head in g.edges:
        assert pos[tail] < pos[head]
        assert tail in g.ancestors(head)
        assert head in g.descendants(tail)
    for v in g.names:
        assert not g.ancestors(v) & g.descendants(v)
        assert v not in g.ancestors(v)
        assert v not in g.descendants(v)
        assert g.parents(v) <= g.ancestors(v)


def test_cond_query_validation():
    g = Dag([("X", "outcome", 2), ("Y", "outcome", 2), ("Z", "outcome", 2)])
    CondQuery({"X"}, {"Y"}, {"Z"}).validate(g.names)
    CondQuery({"X"}, {"Y"}).validate(g.names)
    with pytest.raises(GraphError, match="nonempty"):
        CondQuery(set(), {"Y"}).validate(g.names)
    with pytest.raises(GraphError, match="overlapping"):
        CondQuery({"X"}, {"X"}).validate(g.names)
    with pytest.raises(GraphError, match="overlapping"):
        CondQuery({"X"}, {"Y"}, {"X"}).validate(g.names)
    with pytest.raises(GraphError, match="unknown"):
        CondQuery({"X"}, {"W"}).validate(g.names)
    CondQuery({"X"}, {"Y"}, {"Z"}).validate(g)  # any container of names
    with pytest.raises(GraphError, match=r"^unknown node\(s\) in query: \['V', 'W'\]$"):
        CondQuery({"X"}, {"W"}, {"V"}).validate(g)


def test_dag_enumeration_counts():
    from conftest import DAG_COUNTS

    for n in range(0, 5):
        assert sum(1 for _ in all_dags(n)) == DAG_COUNTS[n]
