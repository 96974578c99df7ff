"""Graphical separation criteria over typed DAGs.

Two per-path predicates are implemented: the classical blocking rule
(chain/fork middles in Z block; colliders block unless activated by Z or
a descendant in Z) and the typed setting/outcome rule whose three clauses
only ever consult the *outcome* members of Z. Both set-level deciders run
on one reachability sweep over (node, travel-direction) states, the
Bayes-Ball sweep (Shachter, UAI 1998; Geiger, Verma & Pearl, Networks 20,
1990), linear in the size of the graph. It works on the graph's per-node
parent and child bit masks: the query becomes a blocker mask and an
activator mask (a set plus its ancestors), and the states found are two
masks, one per travel direction, grown a frontier at a time. The typed
rule never blocks at a non-collider and its endpoint clauses do not
depend on the path, so it is the same sweep with no blockers plus a mask
of the x each y admits. When a query comes back "not separated", a lazy
depth-first search returns the first open path in enumeration order as
the witness, and so checks the sweep's verdict; it drops a prefix at its
first closed node or as soon as the sweep's masks show no open trail
leading on from it. ``compare_criteria`` needs only verdicts, so it runs
one sweep per criterion for each (y, Z) and builds no witness. The same
search with nothing closed is ``enumerate_paths``, every simple path; the
per-path predicates over it are the oracle both routes are tested against.

All functions are pure over immutable graphs and safe to call
concurrently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

from .graph import CondQuery, Dag, GraphError, NodeKind, _check_known, _closure
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

    def check_in(self, g: Dag) -> None:
        """Raise GraphError unless every step is an actual edge of ``g``."""
        for a, fwd, b in zip(self.nodes, self.forward, self.nodes[1:]):
            tail, head = (a, b) if fwd else (b, a)
            t, h = g._index.get(tail), g._index.get(head)
            if t is None or h is None or not g._cmask[t] >> h & 1:
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
    """All simple undirected paths from ``u`` to ``v``, in DFS order: the
    witness search with every node open.

    Neighbour expansion follows node declaration order, so the output
    order is a deterministic function of the graph. Exponential in the
    worst case; the deciders never call it, the tests use it as the
    oracle for their verdicts and witnesses.
    """
    start, end = g.index(u), g.index(v)
    if u == v:
        raise GraphError("path endpoints must differ")
    full = (1 << len(g)) - 1
    return list(_open_paths(g, start, end, 0, full, full, full))


def path_d_blocked(g: Dag, p: UndirectedPath, z: frozenset[str] | set[str]) -> bool:
    """Classical per-path blocking rule.

    Blocked iff some interior node m is (a) a chain or fork middle with
    m in Z, or (b) a collider with m not in Z and no descendant of m in Z.
    """
    p.check_in(g)
    _check_known(g, z)
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


def _mask(index: dict[str, int], names) -> int:
    """The bit mask of ``names``, which must all be in ``index``."""
    m = 0
    for v in names:
        m |= 1 << index[v]
    return m


def _states_reaching(pmask: list[int], cmask: list[int], y: int, blockers: int,
                     activators: int) -> tuple[int, int]:
    """The (node, direction) states from which a trail open at every
    interior node reaches node ``y``, as two masks ``(up, down)``. A
    non-collider is open unless it is in ``blockers``; a collider is open
    only when it is in ``activators``.

    Node v is in ``up`` when a trail that entered v against an edge (from a
    child), or starts at v, leads on to ``y``; it is in ``down`` when one
    that entered v along an edge (from a parent) does. The sweep runs the
    transitions of the (node, direction) reachability algorithm backwards
    from ``y``, one frontier of newly found states at a time; each state
    joins a frontier at most once, so its cost is linear in the size of the
    graph. When ``activators`` is closed under ancestors, as it is for both
    criteria below, an open trail exists iff an open simple path does.
    """
    up = down = new_up = new_down = 1 << y
    while new_up or new_down:
        # a trail enters w "up" from a child and "down" from a parent; it
        # passes the node v it came from whichever way it entered v, or
        # bounces up at an activated collider v
        from_children = from_parents = 0
        while new_up:
            low = new_up & -new_up
            new_up ^= low
            from_children |= cmask[low.bit_length() - 1]
        while new_down:
            low = new_down & -new_down
            new_down ^= low
            from_parents |= pmask[low.bit_length() - 1]
        new_up = (from_children | from_parents) & ~blockers & ~up
        new_down = (from_children & activators | from_parents & ~blockers) & ~down
        up |= new_up
        down |= new_down
    return up, down


def _open_paths(g: Dag, x: int, y: int, blockers: int, activators: int,
                up: int, down: int) -> Iterator[UndirectedPath]:
    """Yield the simple x-y paths open at every interior node, under the
    rule of ``_states_reaching``, lazily and depth-first, each node's
    neighbours in declaration order.

    An interior node's status depends only on its two path edges, so each
    level of the search keeps only the neighbours it may go on to: a
    prefix is dropped as soon as its last interior node closes, since
    every path below it contains the same closed node, and as soon as it
    enters a state outside ``(up, down)``, the result of
    ``_states_reaching`` for ``y``, since no open trail leads on from there.
    """
    pmask, cmask, names = g._pmask, g._cmask, g._names
    nodes = [x]
    dirs: list[bool] = []
    on_path = 1 << x
    frontier = [pmask[x] & up | cmask[x] & down]
    while frontier:
        rest = frontier[-1]
        if not rest:
            frontier.pop()
            if dirs:
                on_path ^= 1 << nodes.pop()
                dirs.pop()
            continue
        low = rest & -rest
        frontier[-1] = rest ^ low
        nxt = low.bit_length() - 1
        fwd = cmask[nodes[-1]] & low != 0
        if nxt == y:
            path = [names[i] for i in nodes]
            path.append(names[y])
            yield UndirectedPath(tuple(path), (*dirs, fwd))
            continue
        nodes.append(nxt)
        dirs.append(fwd)
        on_path |= low
        # leaving nxt towards a parent makes it a collider iff it was
        # entered along an edge; every other turn is a non-collider
        to_parents = pmask[nxt] & up if (activators & low if fwd else not blockers & low) else 0
        to_children = 0 if blockers & low else cmask[nxt] & down
        frontier.append((to_parents | to_children) & ~on_path)


def _decide(g: Dag, q: CondQuery, blockers: int, activators: int,
            ends_open: Callable[[int], int] | None = None) -> SeparationVerdict:
    # One sweep per y decides every pair ending at y; ``ends_open(y)``, when
    # given, masks out the x whose pair with y a clause on the endpoints
    # alone makes inactive. Pairs are tried in declaration order; the first
    # connected one gets the first open path of enumeration order as
    # witness, and that search checks the sweep.
    index = g._index
    sweeps = []
    for y in sorted([index[v] for v in q.y]):
        up, down = _states_reaching(g._pmask, g._cmask, y, blockers, activators)
        sweeps.append((y, up, down, up if ends_open is None else up & ends_open(y)))
    for x in sorted([index[v] for v in q.x]):
        for y, up, down, hits in sweeps:
            if hits >> x & 1:
                for path in _open_paths(g, x, y, blockers, activators, up, down):
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
    z = _mask(g._index, q.z)
    return _decide(g, q, z, _closure(g._pmask, z))


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
    _check_known(g, z)
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

    The verdict is about models whose settings are chosen from outside,
    as interventions. "Separated" implies that X and Y are d-separated
    given Z's outcomes in the graph without the edges into settings, so
    the independence holds in every classical model on that graph. A
    setting with parents is answered as if those edges were cut: on
    L -> X, L -> Y with settings X and Y the answer is "separated", while
    ``d_separated`` finds the open path X<-L->Y.
    """
    q.validate(g)
    index, kinds = g._index, g._kinds
    for i in sorted([index[v] for v in q.x | q.y]):
        if kinds[i] is NodeKind.LATENT:
            raise GraphError(f"latent node {g._names[i]!r} not allowed in a q-separation query")
    settings = _mask(index, [v for v in q.x | q.y if kinds[index[v]] is NodeKind.SETTING])
    # A node outside Z reaches an outcome in Z iff it lies in this set;
    # colliders are open only inside it and nothing else ever blocks.
    z_outcomes = _mask(index, [v for v in q.z if kinds[index[v]] is NodeKind.OUTCOME])
    reaches = _closure(g._pmask, z_outcomes)
    return _decide(g, q, 0, reaches, lambda y: _ends_open(g, y, settings, reaches))


def _ends_open(g: Dag, y: int, settings: int, reaches: int) -> int:
    """The nodes x whose paths to ``y`` clauses (i) and (ii) of the typed
    rule leave alone; these clauses depend on the endpoints only.
    ``reaches`` is the set of nodes with a directed path to an outcome in
    Z, Z's outcomes included; the mask is meaningful only at x outside Z
    that are settings or outcomes."""
    if not settings >> y & 1:
        # an outcome y: a setting x needs a directed path to y or to Z's outcomes
        return ~settings | _closure(g._pmask, g._pmask[y]) | reaches
    if reaches >> y & 1:
        # a setting y with a directed path to Z's outcomes: a setting x needs one too
        return ~settings | reaches
    # a setting y without one: only the outcomes below y
    return _closure(g._cmask, g._cmask[y]) & ~settings


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

    A sweep depends only on (y, Z), so one sweep per criterion decides
    every x outside Z; no witness is built.
    """
    if len(g) > MAX_COMPARE_NODES:
        raise GraphError(
            f"compare_criteria supports at most {MAX_COMPARE_NODES} nodes, got {len(g)}"
        )
    names, kinds, pmask, cmask = g._names, g._kinds, g._pmask, g._cmask
    outcomes = _mask(g._index, g.nodes_of_kind(NodeKind.OUTCOME))
    settings = _mask(g._index, g.nodes_of_kind(NodeKind.SETTING))
    endpoints = [i for i, k in enumerate(kinds) if k is not NodeKind.LATENT]
    # (y, Z mask) -> (nodes d-connected to y, nodes q-connected to y)
    connected: dict[tuple[int, int], tuple[int, int]] = {}
    # Z mask -> (Z and its ancestors, Z's outcomes and their ancestors)
    closed: dict[int, tuple[int, int]] = {}
    # (y, Z's outcomes and their ancestors) -> _ends_open's mask
    ends: dict[tuple[int, int], int] = {}
    rows: list[CompareRow] = []
    for x, y in itertools.combinations(endpoints, 2):
        # every subset of the remaining nodes, in the order of the bits of
        # a counter over them, as a name tuple and as a node mask
        zs: list[tuple[str, ...]] = [()]
        masks = [0]
        for i in range(len(names)):
            if i != x and i != y:
                zs += [z + (names[i],) for z in zs]
                masks += [m | 1 << i for m in masks]
        for z, m in zip(zs, masks):
            found = connected.get((y, m))
            if found is None:
                if m not in closed:
                    closed[m] = _closure(pmask, m), _closure(pmask, m & outcomes)
                activators, reaches = closed[m]
                if (y, reaches) not in ends:
                    ends[y, reaches] = _ends_open(g, y, settings, reaches)
                found = connected[y, m] = (
                    _states_reaching(pmask, cmask, y, m, activators)[0],
                    _states_reaching(pmask, cmask, y, 0, reaches)[0] & ends[y, reaches],
                )
            rows.append(CompareRow(names[x], names[y], z,
                                   not found[0] >> x & 1, not found[1] >> x & 1))
    return CompareReport(tuple(rows))
