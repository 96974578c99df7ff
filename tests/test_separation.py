import copy
import itertools

import numpy as np
import pytest

from causalbell.bell import bell_dag
from causalbell.graph import CondQuery, Dag, GraphError, NodeKind
from causalbell.separation import (
    UndirectedPath,
    _open_paths,
    compare_criteria,
    d_separated,
    enumerate_paths,
    path_d_blocked,
    path_q_inactive,
    q_separated,
)
from conftest import all_dags, all_typed_dags, random_typed_dag, subsets


@pytest.fixture
def bell():
    return bell_dag(lambda_card=4)


# --- path enumeration ---------------------------------------------------------

def test_bell_has_one_path_between_settings(bell):
    paths = enumerate_paths(bell, "X", "Y")
    assert [str(p) for p in paths] == ["X->A<-Lambda->B<-Y"]


def test_bell_has_one_path_between_outcomes(bell):
    paths = enumerate_paths(bell, "A", "B")
    assert [str(p) for p in paths] == ["A<-Lambda->B"]


def _random_dense_graphs():
    """60 seeded 8-10-node graphs, one random ordered pair each."""
    rng = np.random.default_rng(47)
    for _ in range(60):
        g = random_typed_dag(rng, n_nodes=int(rng.integers(8, 11)), edge_prob=0.6)
        yield g, [tuple(str(w) for w in rng.choice(g.names, size=2, replace=False))]


def _every_small_dag():
    """Every DAG on 2-5 nodes, every pair u before v in declaration order."""
    for n in range(2, 6):
        for g in all_dags(n):
            yield g, itertools.combinations(g.names, 2)


@pytest.mark.parametrize("graphs, n_pairs, least_paths", [
    pytest.param(_random_dense_graphs, 60, 2000, id="random-8-10-nodes"),
    pytest.param(_every_small_dag, 296_146, 1_000_000, id="every-dag-2-5-nodes",
                 marks=pytest.mark.slow),
])
def test_enumerate_paths_matches_networkx_simple_paths(graphs, n_pairs, least_paths):
    nx = pytest.importorskip("networkx")
    pairs = total = 0
    for g, ends in graphs():
        # edges sorted by their endpoints' declaration indices give every
        # node its neighbours in declaration order, so networkx's DFS
        # yields the paths in enumeration order
        ug = nx.Graph()
        ug.add_nodes_from(g.names)
        ug.add_edges_from(sorted(g.edges, key=lambda e: sorted(map(g.index, e))))
        for u, v in ends:
            paths = enumerate_paths(g, u, v)
            for p in paths:
                p.check_in(g)
            got = [p.nodes for p in paths]
            assert got == [tuple(p) for p in nx.all_simple_paths(ug, u, v)], (g.edges, u, v)
            pairs += 1
            total += len(got)
    assert pairs == n_pairs
    assert total > least_paths


def test_isolated_nodes_have_no_paths():
    g = Dag([("P", "outcome", 2), ("Q", "outcome", 2)])
    assert enumerate_paths(g, "P", "Q") == []


def test_paths_are_simple_and_deterministic():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_typed_dag(rng, n_nodes=6)
        u, v = g.names[0], g.names[-1]
        paths = enumerate_paths(g, u, v)
        assert [str(p) for p in paths] == [str(p) for p in enumerate_paths(g, u, v)]
        for p in paths:
            assert len(set(p.nodes)) == len(p.nodes)
            p.check_in(g)


def test_witness_search_prunes_children_outside_down():
    # On X->A->M->Y the one path enters M from its parent. With M taken out
    # of ``down`` the search may not step A->M, so it must yield nothing; a
    # search that ignored ``down`` would yield X->A->M->Y.
    g = Dag([(v, "outcome", 2) for v in ("X", "A", "M", "Y")],
            [("X", "A"), ("A", "M"), ("M", "Y")])
    x, m, y = g.index("X"), g.index("M"), g.index("Y")
    full = (1 << len(g)) - 1
    assert [str(p) for p in _open_paths(g, x, y, 0, full, full, full)] == ["X->A->M->Y"]
    assert list(_open_paths(g, x, y, 0, full, full, full & ~(1 << m))) == []


def test_path_validation():
    g = Dag([("P", "outcome", 2), ("Q", "outcome", 2)], [("P", "Q")])
    with pytest.raises(GraphError):
        UndirectedPath(("P",), ())
    with pytest.raises(GraphError):
        UndirectedPath(("P", "Q"), (False,)).check_in(g)  # wrong direction
    UndirectedPath(("P", "Q"), (True,)).check_in(g)
    # a node outside the graph is a GraphError at either end of a step
    for path in (UndirectedPath(("P", "Z"), (True,)),   # unknown head
                 UndirectedPath(("Z", "Q"), (True,)),   # unknown tail
                 UndirectedPath(("Q", "Z"), (False,))):  # unknown tail, reversed
        for check in (path.check_in, lambda g: path_d_blocked(g, path, set()),
                      lambda g: path_q_inactive(g, path, set())):
            with pytest.raises(GraphError, match="is not an edge"):
                check(g)
    # an unknown name in Z is the error the deciders' query check raises
    path = UndirectedPath(("P", "Q"), (True,))
    decider = lambda g, p, z: d_separated(g, CondQuery({"P"}, {"Q"}, z))  # noqa: E731
    for check in (path_d_blocked, path_q_inactive, decider):
        with pytest.raises(GraphError, match=r"^unknown node\(s\) in query: \['R'\]$"):
            check(g, path, {"R"})


# --- classical per-path rule ----------------------------------------------------

def test_fork_middle_in_z_blocks(bell):
    path = enumerate_paths(bell, "A", "B")[0]
    assert path_d_blocked(bell, path, {"Lambda"})
    assert not path_d_blocked(bell, path, set())


def test_unactivated_collider_blocks(bell):
    path = enumerate_paths(bell, "X", "Y")[0]
    assert path_d_blocked(bell, path, set())


def test_conditioned_colliders_open_the_path(bell):
    path = enumerate_paths(bell, "X", "Y")[0]
    assert not path_d_blocked(bell, path, {"A", "B"})


def test_collider_activated_by_descendant():
    g = Dag(
        [("P", "outcome", 2), ("Q", "outcome", 2), ("M", "outcome", 2), ("D", "outcome", 2)],
        [("P", "M"), ("Q", "M"), ("M", "D")],
    )
    path = enumerate_paths(g, "P", "Q")[0]
    assert path_d_blocked(g, path, set())
    assert not path_d_blocked(g, path, {"D"})
    assert not path_d_blocked(g, path, {"M"})


# --- classical set-level decider -------------------------------------------------

def test_bell_dsep_goldens(bell):
    assert d_separated(bell, CondQuery({"X"}, {"Y"})).separated
    assert d_separated(bell, CondQuery({"A"}, {"B"}, {"Lambda"})).separated
    verdict = d_separated(bell, CondQuery({"X"}, {"Y"}, {"A", "B"}))
    assert not verdict.separated
    assert str(verdict.witness) == "X->A<-Lambda->B<-Y"


def test_witness_is_active(bell):
    rng = np.random.default_rng(17)
    for _ in range(60):
        g = random_typed_dag(rng, n_nodes=6)
        names = list(g.names)
        rng.shuffle(names)
        x, y = names[0], names[1]
        z = frozenset(n for n in names[2:] if rng.random() < 0.4)
        verdict = d_separated(g, CondQuery({x}, {y}, z))
        if not verdict.separated:
            assert not path_d_blocked(g, verdict.witness, z)


def test_dsep_rejects_bad_queries(bell):
    with pytest.raises(GraphError, match="overlapping"):
        d_separated(bell, CondQuery({"X"}, {"X"}))
    with pytest.raises(GraphError, match="unknown"):
        d_separated(bell, CondQuery({"X"}, {"Nope"}))


@pytest.mark.parametrize("decider", [d_separated, q_separated])
@pytest.mark.parametrize("x,y,z,message", [
    (set(), {"A"}, set(), "query sets X and Y must be nonempty"),
    ({"A"}, set(), {"Nope"}, "query sets X and Y must be nonempty"),
    ({"X"}, {"X"}, set(), "overlapping query sets"),
    ({"X"}, {"Y"}, {"X"}, "overlapping query sets"),
    ({"W"}, {"W"}, set(), "overlapping query sets"),
    ({"X", "W"}, {"Y"}, {"W"}, "overlapping query sets"),
    ({"X"}, {"Nope"}, set(), "unknown node(s) in query: ['Nope']"),
    ({"X"}, {"Y"}, {"W", "V"}, "unknown node(s) in query: ['V', 'W']"),
    ({"X"}, {5, "zz"}, set(), "unknown node(s) in query: ['zz', 5]"),
    ({"X", 2.5, "b"}, {"Y"}, {10, "a"}, "unknown node(s) in query: ['a', 'b', 10, 2.5]"),
])
def test_deciders_report_the_query_fault(bell, decider, x, y, z, message):
    with pytest.raises(GraphError) as exc:
        decider(bell, CondQuery(x, y, z))
    assert type(exc.value) is GraphError
    assert str(exc.value) == message


@pytest.mark.parametrize("args,label", [
    (("AB", {"X"}), "X"),
    (({"A"}, "Lambda"), "Y"),
    (({"A"}, {"B"}, "XY"), "Z"),
])
def test_a_string_is_not_a_query_set(bell, args, label):
    text = [a for a in args if isinstance(a, str)][0]
    with pytest.raises(GraphError) as exc:
        CondQuery(*args)
    assert str(exc.value) == (
        f"query set {label} must be a collection of names, not the string {text!r}")
    assert CondQuery(["AB"], {"X"}).x == {"AB"}


def test_dsep_matches_path_oracle_exhaustively_n3():
    for g in all_dags(3):
        _assert_oracle_agreement(g)


def test_dsep_matches_path_oracle_sampled_n5():
    rng = np.random.default_rng(23)
    for _ in range(150):
        g = random_typed_dag(rng, n_nodes=5, edge_prob=0.5)
        _assert_oracle_agreement(g)


def _assert_oracle_agreement(g: Dag) -> None:
    for u, v in itertools.combinations(g.names, 2):
        paths = enumerate_paths(g, u, v)
        rest = [w for w in g.names if w not in (u, v)]
        for z in subsets(rest):
            oracle = all(path_d_blocked(g, p, z) for p in paths)
            assert d_separated(g, CondQuery({u}, {v}, z)).separated == oracle


def test_dsep_symmetry_exhaustive_small():
    for g in all_dags(3):
        for u, v in itertools.combinations(g.names, 2):
            rest = [w for w in g.names if w not in (u, v)]
            for z in subsets(rest):
                assert (
                    d_separated(g, CondQuery({u}, {v}, z)).separated
                    == d_separated(g, CondQuery({v}, {u}, z)).separated
                )


def test_set_valued_queries(bell):
    # both outcomes against both settings, conditioning on the common cause
    assert d_separated(bell, CondQuery({"X"}, {"Y", "B"}, {"Lambda"})).separated
    assert not d_separated(bell, CondQuery({"X", "Lambda"}, {"A"})).separated


def test_collider_activated_two_edges_below():
    # x -> c <- y with c -> d -> e: only e is in Z, so the collider opens
    # through an ancestor of Z that is not a parent of Z's member
    g = Dag([(v, "outcome", 2) for v in ("x", "y", "c", "d", "e")],
            [("x", "c"), ("y", "c"), ("c", "d"), ("d", "e")])
    verdict = d_separated(g, CondQuery({"x"}, {"y"}, {"e"}))
    assert not verdict.separated
    assert str(verdict.witness) == "x->c<-y"
    assert d_separated(g, CondQuery({"x"}, {"y"})).separated
    assert d_separated(g, CondQuery({"x"}, {"e"}, {"d"})).separated


# --- typed per-path rule ---------------------------------------------------------

def test_q_setting_endpoints_inactive_without_outcomes_in_z(bell):
    path = enumerate_paths(bell, "X", "Y")[0]
    assert path_q_inactive(bell, path, set())


def test_q_shared_cause_path_stays_active(bell):
    path = enumerate_paths(bell, "A", "B")[0]
    assert not path_q_inactive(bell, path, set())


def test_q_direct_edge_setting_to_outcome_is_active(bell):
    path = enumerate_paths(bell, "X", "A")[0]
    assert not path_q_inactive(bell, path, set())


def test_q_latent_endpoint_rejected(bell):
    path = enumerate_paths(bell, "Lambda", "A")[0]
    with pytest.raises(GraphError, match="latent"):
        path_q_inactive(bell, path, set())


def test_q_nonoutcome_z_members_are_ignored(bell):
    path = enumerate_paths(bell, "A", "B")[0]
    # the latent middle never counts as an outcome in Z
    assert not path_q_inactive(bell, path, {"Lambda"})
    # a setting in Z is equally invisible
    assert not path_q_inactive(bell, path, {"X"})


def test_q_collider_clause(bell):
    path = enumerate_paths(bell, "A", "Y")[0]  # A<-Lambda->B<-Y, collider at B
    assert path_q_inactive(bell, path, set())
    assert not path_q_inactive(bell, path, {"B"})  # outcome collider in Z reopens it


# --- typed set-level decider ------------------------------------------------------

def test_bell_qsep_goldens(bell):
    assert q_separated(bell, CondQuery({"X"}, {"Y"})).separated
    verdict = q_separated(bell, CondQuery({"A"}, {"B"}))
    assert not verdict.separated
    assert str(verdict.witness) == "A<-Lambda->B"
    assert q_separated(bell, CondQuery({"A"}, {"Y"})).separated


def test_qsep_rejects_latent_endpoints(bell):
    with pytest.raises(GraphError, match="latent"):
        q_separated(bell, CondQuery({"Lambda"}, {"A"}))


def test_qsep_allows_latent_conditioning(bell):
    # hidden variables may appear in Z; they are invisible to every clause
    assert not q_separated(bell, CondQuery({"A"}, {"B"}, {"Lambda"})).separated
    assert d_separated(bell, CondQuery({"A"}, {"B"}, {"Lambda"})).separated


@pytest.mark.parametrize("end", ["outcome", "setting"])
def test_qsep_collider_activated_two_edges_below(end):
    # typed analogue of test_collider_activated_two_edges_below: the
    # collider c, and for setting endpoints clause (i), reach the outcome e
    # in Z only through d
    g = Dag([("x", end, 2), ("y", end, 2), ("c", "outcome", 2),
             ("d", "outcome", 2), ("e", "outcome", 2)],
            [("x", "c"), ("y", "c"), ("c", "d"), ("d", "e")])
    verdict = q_separated(g, CondQuery({"x"}, {"y"}, {"e"}))
    assert not verdict.separated
    assert str(verdict.witness) == "x->c<-y"
    assert q_separated(g, CondQuery({"x"}, {"y"})).separated


def test_qsep_witness_is_active():
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(80):
        g = random_typed_dag(rng, n_nodes=5)
        endpoints = [v for v in g.names if g.kind(v).value != "latent"]
        if len(endpoints) < 2:
            continue
        x, y = endpoints[0], endpoints[1]
        z = frozenset(v for v in g.names if v not in (x, y) and rng.random() < 0.4)
        verdict = q_separated(g, CondQuery({x}, {y}, z))
        if not verdict.separated:
            checked += 1
            assert not path_q_inactive(g, verdict.witness, z)
    assert checked > 10


def test_qsep_symmetry():
    rng = np.random.default_rng(31)
    for _ in range(80):
        g = random_typed_dag(rng, n_nodes=5)
        endpoints = [v for v in g.names if g.kind(v).value != "latent"]
        if len(endpoints) < 2:
            continue
        for x, y in itertools.combinations(endpoints, 2):
            rest = [w for w in g.names if w not in (x, y)]
            z = frozenset(w for w in rest if rng.random() < 0.5)
            forward = q_separated(g, CondQuery({x}, {y}, z)).separated
            backward = q_separated(g, CondQuery({y}, {x}, z)).separated
            assert forward == backward


def test_all_outcome_graphs_agreement():
    """With only outcome nodes, the typed rule keeps just its collider
    clause, so it can only declare separation the classical rule also
    declares; with empty Z the two rules coincide exactly."""
    for n in (2, 3, 4):
        for g in all_dags(n):
            for u, v in itertools.combinations(g.names, 2):
                rest = [w for w in g.names if w not in (u, v)]
                for z in subsets(rest):
                    d = d_separated(g, CondQuery({u}, {v}, z)).separated
                    q = q_separated(g, CondQuery({u}, {v}, z)).separated
                    if not z:
                        assert d == q
                    elif q:
                        assert d


# --- witnesses against the path oracle ---------------------------------------------

def _disjoint_queries(names) -> list[CondQuery]:
    """Every (X, Y, Z) over ``names`` with X and Y nonempty and the sets disjoint."""
    out = []
    for roles in itertools.product(range(4), repeat=len(names)):
        x, y, z = (frozenset(v for v, r in zip(names, roles) if r == k) for k in (1, 2, 3))
        if x and y:
            out.append(CondQuery(x, y, z))
    return out


def _assert_matches_oracle(g: Dag, decide, blocked, queries) -> int:
    """The decider's witness must be the first path of enumeration order,
    over (x, y) pairs in declaration order, that ``blocked`` leaves open,
    and "separated" must mean there is none. Returns the query count."""
    memo = {}  # (x, y, Z) -> first open path; the query sets revisit each often

    def first_open(x, y, z):
        if (x, y, z) not in memo:
            memo[x, y, z] = next(
                (p for p in enumerate_paths(g, x, y) if not blocked(g, p, z)), None)
        return memo[x, y, z]

    checked = 0
    for q in queries:
        pairs = itertools.product(sorted(q.x, key=g.index), sorted(q.y, key=g.index))
        expected = next((p for p in (first_open(x, y, q.z) for x, y in pairs) if p), None)
        verdict = decide(g, q)
        assert verdict.separated == (expected is None), (g.to_text(), q)
        assert verdict.witness == expected, (g.to_text(), q, str(verdict.witness))
        checked += 1
    return checked


def test_dsep_witness_matches_path_oracle_exhaustively_n4():
    checked = 0
    for n in range(2, 5):
        queries = _disjoint_queries([f"N{i}" for i in range(n)])  # all_dags' names
        for g in all_dags(n):
            checked += _assert_matches_oracle(g, d_separated, path_d_blocked, queries)
    assert checked > 50_000


@pytest.mark.slow
def test_qsep_matches_path_oracle_exhaustively_typed_n4():
    """Every typed DAG with at most four nodes, every disjoint (X, Y, Z)
    whose X and Y avoid latent nodes."""
    checked = 0
    for n in range(2, 5):
        all_queries = _disjoint_queries([f"N{i}" for i in range(n)])
        for g in all_typed_dags(n):
            observed = {v for v in g.names if g.kind(v) is not NodeKind.LATENT}
            queries = (q for q in all_queries if q.x | q.y <= observed)
            checked += _assert_matches_oracle(g, q_separated, path_q_inactive, queries)
    assert checked > 1_000_000


def test_dsep_matches_networkx_on_larger_graphs():
    """A third route beyond the sizes path enumeration can reach."""
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(41)
    connected = 0
    for _ in range(300):
        n = int(rng.integers(10, 41))
        g = random_typed_dag(rng, n_nodes=n, edge_prob=float(rng.uniform(0.03, 0.3)))
        ng = nx.DiGraph(g.edges)
        ng.add_nodes_from(g.names)
        names = list(g.names)
        rng.shuffle(names)
        kx, ky, kz = (int(k) for k in rng.integers((1, 1, 0), (4, 4, 10)))
        x, y = set(names[:kx]), set(names[kx:kx + ky])
        z = set(names[kx + ky:kx + ky + kz])
        verdict = d_separated(g, CondQuery(x, y, z))
        assert verdict.separated == nx.is_d_separator(ng, x, y, z), (g.to_text(), x, y, z)
        if not verdict.separated:
            connected += 1
            w = verdict.witness
            assert w.nodes[0] in x and w.nodes[-1] in y
            assert not path_d_blocked(g, w, z)  # also checks every step is an edge
        for v in g.names:  # causal past and future, closed per call
            assert g.ancestors(v) == nx.ancestors(ng, v), (g.to_text(), v)
            assert g.descendants(v) == nx.descendants(ng, v), (g.to_text(), v)
    assert 50 < connected < 250


def _q_separated_by_reduction(nx, g: Dag, x: set, y: set, z: set) -> bool:
    """The typed criterion decided by networkx alone.

    Clauses (i) and (ii) depend on a pair's endpoints only and are read off
    their descendant sets. Clause (iii) opens a collider iff it is an
    outcome in Z or has a directed path to one, and a non-collider never
    blocks. Give every outcome w in Z a leaf child w': a leaf with one
    parent is interior to no simple path, so it blocks nothing, and
    conditioning on the leaves activates exactly the outcomes in Z and
    their ancestors. Clause (iii) is then d-separation given the leaves.
    """
    z_outcomes = {w for w in z if g.kind(w) is NodeKind.OUTCOME}
    leaves = {(w, "leaf") for w in z_outcomes}
    ng = nx.DiGraph(g.edges)
    ng.add_nodes_from(g.names)
    ng.add_edges_from((w, (w, "leaf")) for w in z_outcomes)

    def reaches(v):
        return bool(nx.descendants(ng, v) & z_outcomes)

    for a in x:
        for b in y:
            settings = [v for v in (a, b) if g.kind(v) is NodeKind.SETTING]
            if len(settings) == 2:
                ends_inactive = not reaches(a) or not reaches(b)  # clause (i)
            elif settings:
                s, o = (a, b) if settings == [a] else (b, a)
                ends_inactive = o not in nx.descendants(ng, s) and not reaches(s)  # clause (ii)
            else:
                ends_inactive = False
            if not ends_inactive and not nx.is_d_separator(ng, {a}, {b}, leaves):
                return False
    return True


def test_qsep_matches_networkx_reduction_on_larger_graphs():
    """A third route for the typed criterion, beyond the sizes path
    enumeration can reach."""
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(43)
    connected = 0
    for _ in range(300):
        n = int(rng.integers(10, 41))
        g = random_typed_dag(rng, n_nodes=n, edge_prob=float(rng.uniform(0.03, 0.3)))
        observed = [v for v in g.names if g.kind(v) is not NodeKind.LATENT]
        rng.shuffle(observed)
        kx, ky = (int(k) for k in rng.integers((1, 1), (4, 4)))
        x, y = set(observed[:kx]), set(observed[kx:kx + ky])
        rest = [v for v in g.names if v not in x | y]
        z = set(rng.choice(rest, size=min(len(rest), int(rng.integers(0, 10))), replace=False))
        verdict = q_separated(g, CondQuery(x, y, z))
        expected = _q_separated_by_reduction(nx, g, x, y, z)
        assert verdict.separated == expected, (g.to_text(), x, y, z)
        if verdict.separated:  # the models the verdict is about: settings set from outside
            z_outcomes = {v for v in z if g.kind(v) is NodeKind.OUTCOME}
            cut_verdict = d_separated(_settings_cut(g), CondQuery(x, y, z_outcomes))
            assert cut_verdict.separated, (g.to_text(), x, y, z)
        else:
            connected += 1
            w = verdict.witness
            assert w.nodes[0] in x and w.nodes[-1] in y
            assert not path_q_inactive(g, w, z)  # also checks every step is an edge
    assert 50 < connected < 250


# --- the models a q-separation verdict is about -------------------------------------

def _settings_cut(g: Dag) -> Dag:
    """``g`` without the edges into its settings: the graph of a classical
    model whose settings are chosen from outside, as interventions."""
    nodes = [(v, g.kind(v), g.cardinality(v)) for v in g.names]
    return Dag(nodes, [(u, v) for u, v in g.edges if g.kind(v) is not NodeKind.SETTING])


def test_q_separation_is_d_separation_with_settings_cut_exhaustively_n4():
    """A q-separated query is d-separated given Z's outcomes once every edge
    into a setting is cut, so it holds in every classical model whose settings
    are interventions; without the cut, a setting's parent can connect it."""
    checked = 0
    for n in range(2, 5):
        for g in all_typed_dags(n):
            cut = {(r.x, r.y, r.z): r.d_sep for r in compare_criteria(_settings_cut(g)).rows}
            for r in compare_criteria(g).rows:
                if r.q_sep:
                    z_outcomes = tuple(v for v in r.z if g.kind(v) is NodeKind.OUTCOME)
                    assert cut[r.x, r.y, z_outcomes], (g.to_text(), r)
                    checked += 1
    assert checked == 160_658


def test_q_separation_of_settings_with_a_common_cause():
    # L -> X, L -> Y: the typed rule separates the two settings, a classical
    # model with L as a common cause of X and Y does not
    g = Dag([("L", "latent", 2), ("X", "setting", 2), ("Y", "setting", 2)],
            [("L", "X"), ("L", "Y")])
    q = CondQuery({"X"}, {"Y"})
    assert q_separated(g, q).separated
    assert str(d_separated(g, q).witness) == "X<-L->Y"
    assert d_separated(_settings_cut(g), q).separated


# --- criteria comparison -----------------------------------------------------------

def test_compare_flags_latent_conditioning_disagreement(bell):
    report = compare_criteria(bell)
    row = next(r for r in report.rows if (r.x, r.y, r.z) == ("A", "B", ("Lambda",)))
    assert row.d_sep and not row.q_sep and row.disagree
    row0 = next(r for r in report.rows if (r.x, r.y, r.z) == ("A", "B", ()))
    assert not row0.d_sep and not row0.q_sep and not row0.disagree


def test_compare_single_edge_graph_agrees_everywhere():
    g = Dag([("X", "setting", 2), ("A", "outcome", 2)], [("X", "A")])
    report = compare_criteria(g)
    assert len(report.rows) == 1
    assert not report.disagreements


def test_compare_edgeless_settings_both_separated():
    g = Dag([("X", "setting", 2), ("Y", "setting", 2)])
    report = compare_criteria(g)
    (row,) = report.rows
    assert row.d_sep and row.q_sep and not row.disagree


def test_compare_row_count(bell):
    # 6 endpoint pairs, each with 2^3 conditioning subsets
    assert len(compare_criteria(bell).rows) == 48


def test_compare_rows_match_per_query_deciders():
    # compare sweeps once per (y, Z) and builds no witness; every row must
    # still equal the two set-level deciders asked one query at a time
    rng = np.random.default_rng(47)
    rows = 0
    for _ in range(12):
        g = random_typed_dag(rng, n_nodes=int(rng.integers(6, 9)))
        for r in compare_criteria(g).rows:
            q = CondQuery({r.x}, {r.y}, r.z)
            assert (r.d_sep, r.q_sep) == (d_separated(g, q).separated,
                                          q_separated(g, q).separated), (g.to_text(), r)
            rows += 1
    assert rows > 5000


def test_no_query_writes_to_the_graph(bell):
    """A Dag is its declarations, edge masks and topological order: every
    view and every decider reads them and stores nothing back."""
    rng = np.random.default_rng(5)
    for g in (bell, random_typed_dag(rng, n_nodes=8)):
        before = {slot: copy.deepcopy(getattr(g, slot)) for slot in Dag.__slots__}
        names = g.names
        len(g), g.edges, repr(g), g == g, g.topological_order(), g.to_text()
        for kind in NodeKind:
            g.nodes_of_kind(kind)
        for v in names:
            v in g, g.index(v), g.kind(v), g.cardinality(v), g.parents(v), g.children(v)
            g.ordered_parents(v), g.ordered_children(v), g.ancestors(v), g.descendants(v)
        observed = [v for v in names if g.kind(v) is not NodeKind.LATENT]
        for a, b in itertools.combinations(observed, 2):
            rest = set(names) - {a, b}
            for decide in (d_separated, q_separated):
                decide(g, CondQuery({a}, {b}, rest))
                decide(g, CondQuery({a}, {b}))
        compare_criteria(g)
        assert {slot: getattr(g, slot) for slot in Dag.__slots__} == before


def test_compare_rejects_large_graphs():
    g = Dag([(f"N{i}", "outcome", 2) for i in range(13)])
    with pytest.raises(GraphError, match="at most 12"):
        compare_criteria(g)


def test_compare_report_formats(bell):
    report = compare_criteria(bell)
    text = report.to_text()
    csv = report.to_csv()
    assert text.splitlines()[0].split() == ["X", "Y", "Z", "d_sep", "q_sep", "disagree"]
    assert csv.splitlines()[0] == "X,Y,Z,d_sep,q_sep,disagree"
    assert "A,B,Lambda,true,false,true" in csv.splitlines()
    assert len(csv.splitlines()) == 49
