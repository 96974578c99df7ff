"""Graphical separation criteria over typed DAGs.

Two per-path predicates are implemented: the classical blocking rule
(chain/fork middles in Z block; colliders block unless activated by Z or
a descendant in Z) and the typed setting/outcome rule whose three clauses
only ever consult the *outcome* members of Z. Both set-level deciders run
on one reachability sweep over (node, travel-direction) states, linear in
the size of the graph. The typed rule never blocks at a non-collider and
its endpoint clauses do not depend on the path, so it is the same sweep
with no blockers plus a check on each (x, y) pair. When a query comes
back "not separated", a lazy depth-first search returns the first open
path in enumeration order as the witness, and so checks the sweep's
verdict; it drops a prefix at its first closed node or as soon as the
sweep shows no open trail leading on from it. Exhaustive path
enumeration and the per-path predicates are kept as the oracle both
routes are tested against.

All functions are pure over immutable graphs and safe to call
concurrently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

from .graph import CondQuery, Dag, GraphError, NodeKind
from .report import _align_columns


@dataclass(frozen=True)
class UndirectedPath:
    """A simple path recorded with the direction of each traversed edge.

    ``forward[i]`` is True when the graph edge runs nodes[i] -> nodes[i+1]
    and False when it runs nodes[i+1] -> nodes[i].
    """

    nodes: tuple[str, ...]
    forward: tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) < 2 or len(self.forward) != len(self.nodes) - 1:
            raise GraphError("path needs >= 1 edge and one direction per edge")
        if len(set(self.nodes)) != len(self.nodes):
            raise GraphError("path repeats a node")

    def __str__(self) -> str:
        parts = [self.nodes[0]]
        for fwd, node in zip(self.forward, self.nodes[1:]):
            parts.append("->" if fwd else "<-")
            parts.append(node)
        return "".join(parts)

    def reversed(self) -> "UndirectedPath":
        return UndirectedPath(
            tuple(reversed(self.nodes)),
            tuple(not f for f in reversed(self.forward)),
        )

    def check_in(self, g: Dag) -> None:
        """Raise GraphError unless every step is an actual edge of ``g``."""
        for a, fwd, b in zip(self.nodes, self.forward, self.nodes[1:]):
            tail, head = (a, b) if fwd else (b, a)
            if head not in g.ordered_children(tail):
                raise GraphError(f"path step {a}{'->' if fwd else '<-'}{b} is not an edge")

    def colliders(self) -> tuple[str, ...]:
        """Interior nodes receiving arrowheads from both path neighbours."""
        out = []
        for i in range(1, len(self.nodes) - 1):
            if self.forward[i - 1] and not self.forward[i]:
                out.append(self.nodes[i])
        return tuple(out)


@dataclass(frozen=True)
class SeparationVerdict:
    separated: bool
    witness: UndirectedPath | None = None


def enumerate_paths(g: Dag, u: str, v: str) -> list[UndirectedPath]:
    """All simple undirected paths from ``u`` to ``v``, in DFS order.

    Neighbour expansion follows node declaration order, so the output
    order is a deterministic function of the graph. Exponential in the
    worst case; the deciders never call it, the tests use it as the
    oracle for their verdicts and witnesses.
    """
    g.index(u)
    g.index(v)
    if u == v:
        raise GraphError("path endpoints must differ")
    adjacency = g._undirected_adjacency()
    out: list[UndirectedPath] = []
    nodes: list[str] = [u]
    dirs: list[bool] = []
    on_path = {u}

    def extend(cur: str) -> None:
        for nxt, fwd in adjacency[cur]:
            if nxt in on_path:
                continue
            nodes.append(nxt)
            dirs.append(fwd)
            if nxt == v:
                out.append(UndirectedPath(tuple(nodes), tuple(dirs)))
            else:
                on_path.add(nxt)
                extend(nxt)
                on_path.discard(nxt)
            nodes.pop()
            dirs.pop()

    extend(u)
    return out


def path_d_blocked(g: Dag, p: UndirectedPath, z: frozenset[str] | set[str]) -> bool:
    """Classical per-path blocking rule.

    Blocked iff some interior node m is (a) a chain or fork middle with
    m in Z, or (b) a collider with m not in Z and no descendant of m in Z.
    """
    p.check_in(g)
    z = frozenset(z)
    for i in range(1, len(p.nodes) - 1):
        m = p.nodes[i]
        is_collider = p.forward[i - 1] and not p.forward[i]
        if not is_collider:
            if m in z:
                return True
        elif m not in z and not (g.descendants(m) & z):
            return True
    return False


def _with_ancestors(g: Dag, nodes: frozenset[str]) -> frozenset[str]:
    """``nodes`` plus all their ancestors: the nodes that are in ``nodes``
    or have a descendant there."""
    return nodes.union(*map(g.ancestors, nodes))


def _states_reaching(g: Dag, y: str, blockers: frozenset[str],
                     activators: frozenset[str]) -> set[tuple[str, bool]]:
    """The (node, direction) states from which a trail open at every
    interior node reaches ``y``. A non-collider is open unless it is in
    ``blockers``; a collider is open only when it is in ``activators``.

    State (v, True) means the trail entered v against an edge (from a
    child) or starts at v; (v, False) means it entered v along an edge
    (from a parent). The sweep runs the transitions of the (node,
    direction) reachability algorithm backwards from ``y`` and expands each
    state at most once, so its cost is linear in the size of the graph.
    When ``activators`` is closed under ancestors, as it is for both
    criteria below, an open trail exists iff an open simple path does.
    """
    adjacency = g._undirected_adjacency()
    found = {(y, True), (y, False)}
    agenda = list(found)
    while agenda:
        w, up = agenda.pop()
        for v, is_child in adjacency[w]:
            # a trail enters w "up" from a child and "down" from a parent;
            # it passes v whichever way it entered v, or bounces up at an
            # activated collider v
            if is_child != up:
                continue
            passes = v not in blockers
            if passes and (v, True) not in found:
                found.add((v, True))
                agenda.append((v, True))
            if (v in activators if up else passes) and (v, False) not in found:
                found.add((v, False))
                agenda.append((v, False))
    return found


def _open_paths(g: Dag, x: str, y: str, blockers: frozenset[str],
                activators: frozenset[str],
                live: set[tuple[str, bool]]) -> Iterator[UndirectedPath]:
    """Yield the simple x-y paths open at every interior node, under the
    rule of ``_states_reaching``, lazily and in ``enumerate_paths`` order.

    An interior node's status depends only on its two path edges, so a
    prefix is dropped as soon as its last interior node closes: every
    path below it contains the same closed node. A prefix is also dropped
    when it enters a state outside ``live``, the result of
    ``_states_reaching`` for ``y``, since no open trail leads on from there.
    """
    adjacency = g._undirected_adjacency()
    nodes: list[str] = [x]
    dirs: list[bool] = []
    on_path = {x}
    frontier = [iter(adjacency[x])]
    while frontier:
        for nxt, fwd in frontier[-1]:
            if nxt in on_path:
                continue
            if dirs:
                cur = nodes[-1]
                if dirs[-1] and not fwd:
                    if cur not in activators:
                        continue
                elif cur in blockers:
                    continue
            if nxt == y:
                yield UndirectedPath((*nodes, nxt), (*dirs, fwd))
                continue
            if (nxt, not fwd) not in live:
                continue
            nodes.append(nxt)
            dirs.append(fwd)
            on_path.add(nxt)
            frontier.append(iter(adjacency[nxt]))
            break
        else:
            frontier.pop()
            if dirs:
                on_path.discard(nodes.pop())
                dirs.pop()


def _decide(g: Dag, q: CondQuery, blockers: frozenset[str], activators: frozenset[str],
            endpoints_open: Callable[[str, str], bool]) -> SeparationVerdict:
    # One sweep per y decides every pair ending at y. Pairs are tried in
    # declaration order; the first connected one gets the first open path
    # of enumeration order as witness, and that search checks the sweep.
    live = {y: _states_reaching(g, y, blockers, activators) for y in q.y}
    for x in sorted(q.x, key=g.index):
        for y in sorted(q.y, key=g.index):
            if (x, True) in live[y] and endpoints_open(x, y):
                for path in _open_paths(g, x, y, blockers, activators, live[y]):
                    return SeparationVerdict(False, path)
                raise AssertionError("reachability sweep and path search disagree")
    return SeparationVerdict(True)


def d_separated(g: Dag, q: CondQuery) -> SeparationVerdict:
    """Decide whether Z blocks every path between X and Y.

    Non-colliders in Z block; a collider is open iff it or one of its
    descendants is in Z. When the sets are connected, the witness is the
    first active path in enumeration order.
    """
    q.validate(g)
    return _decide(g, q, q.z, _with_ancestors(g, q.z), lambda x, y: True)


def path_q_inactive(g: Dag, p: UndirectedPath, z: frozenset[str] | set[str]) -> bool:
    """Typed per-path rule; only outcome-kind members of Z ever matter.

    A path is inactive iff one of:
      (i)   both endpoints are settings and at least one of them has no
            directed path to any outcome in Z;
      (ii)  one endpoint is a setting, the other an outcome, and there is
            no directed path from the setting to that outcome nor to any
            outcome in Z;
      (iii) the path has a collider m that is not an outcome in Z and has
            no directed path to any outcome in Z.
    """
    p.check_in(g)
    u, v = p.nodes[0], p.nodes[-1]
    ku, kv = g.kind(u), g.kind(v)
    if NodeKind.LATENT in (ku, kv):
        raise GraphError("q-separation is undefined for latent endpoints")
    z_outcomes = frozenset(m for m in z if g.kind(m) is NodeKind.OUTCOME)

    def reaches_z_outcome(node: str) -> bool:
        return bool(g.descendants(node) & z_outcomes)

    if ku is NodeKind.SETTING and kv is NodeKind.SETTING:
        if not reaches_z_outcome(u) or not reaches_z_outcome(v):
            return True
    elif NodeKind.SETTING in (ku, kv):
        setting, outcome = (u, v) if ku is NodeKind.SETTING else (v, u)
        if outcome not in g.descendants(setting) and not reaches_z_outcome(setting):
            return True
    for m in p.colliders():
        if m not in z_outcomes and not reaches_z_outcome(m):
            return True
    return False


def q_separated(g: Dag, q: CondQuery) -> SeparationVerdict:
    """Typed separation: every path between X and Y must be inactive.

    X and Y may contain only setting/outcome nodes. Z may contain nodes
    of any kind; non-outcome members are simply invisible to the rule.
    """
    q.validate(g)
    for name in sorted(q.x | q.y, key=g.index):
        if g.kind(name) is NodeKind.LATENT:
            raise GraphError(f"latent node {name!r} not allowed in a q-separation query")
    z_outcomes = frozenset(m for m in q.z if g.kind(m) is NodeKind.OUTCOME)
    # A node outside Z reaches an outcome in Z iff it lies in this set;
    # colliders are open only inside it and nothing else ever blocks.
    reaches = _with_ancestors(g, z_outcomes)

    def endpoints_open(x: str, y: str) -> bool:
        # clauses (i) and (ii) depend on the endpoints alone
        kx, ky = g.kind(x), g.kind(y)
        if kx is NodeKind.SETTING and ky is NodeKind.SETTING:
            return x in reaches and y in reaches
        if kx is NodeKind.SETTING:
            return y in g.descendants(x) or x in reaches
        if ky is NodeKind.SETTING:
            return x in g.descendants(y) or y in reaches
        return True

    return _decide(g, q, frozenset(), reaches, endpoints_open)


MAX_COMPARE_NODES = 12


@dataclass(frozen=True)
class CompareRow:
    x: str
    y: str
    z: tuple[str, ...]
    d_sep: bool
    q_sep: bool

    @property
    def disagree(self) -> bool:
        return self.d_sep != self.q_sep


@dataclass(frozen=True)
class CompareReport:
    rows: tuple[CompareRow, ...]

    @property
    def disagreements(self) -> tuple[CompareRow, ...]:
        return tuple(r for r in self.rows if r.disagree)

    def to_text(self) -> str:
        table = [("X", "Y", "Z", "d_sep", "q_sep", "disagree")]
        for r in self.rows:
            table.append((
                r.x, r.y, "{" + " ".join(r.z) + "}",
                "yes" if r.d_sep else "no",
                "yes" if r.q_sep else "no",
                "DISAGREE" if r.disagree else "",
            ))
        return "\n".join(_align_columns(table)) + "\n"

    def to_csv(self) -> str:
        lines = ["X,Y,Z,d_sep,q_sep,disagree"]
        for r in self.rows:
            z = " ".join(r.z)
            lines.append(
                f"{r.x},{r.y},{z},{str(r.d_sep).lower()},"
                f"{str(r.q_sep).lower()},{str(r.disagree).lower()}"
            )
        return "\n".join(lines) + "\n"


def compare_criteria(g: Dag) -> CompareReport:
    """Tabulate both criteria over all singleton X/Y pairs of
    setting/outcome nodes, with Z ranging over every subset of the
    remaining nodes (latent nodes included, so that rows like
    conditioning on a hidden common cause expose d/q disagreements).
    """
    if len(g) > MAX_COMPARE_NODES:
        raise GraphError(
            f"compare_criteria supports at most {MAX_COMPARE_NODES} nodes, got {len(g)}"
        )
    endpoints = [v for v in g.names if g.kind(v) is not NodeKind.LATENT]
    rows: list[CompareRow] = []
    for x, y in itertools.combinations(endpoints, 2):
        rest = [w for w in g.names if w not in (x, y)]
        for mask in range(1 << len(rest)):
            z = tuple(w for i, w in enumerate(rest) if mask >> i & 1)
            query = CondQuery({x}, {y}, z)
            d = d_separated(g, query).separated
            qv = q_separated(g, query).separated
            rows.append(CompareRow(x, y, z, d, qv))
    return CompareReport(tuple(rows))
