"""Typed directed acyclic graphs with a plain-text file format.

Nodes carry a kind (setting, outcome or latent) plus a finite cardinality,
and a graph is validated once at construction and never mutated afterwards.
Every structural query is a pure read, so a Dag can be shared freely
between threads. Declaration order is preserved and used to break all ties
(topological order, serialization, downstream report rows), which keeps
outputs reproducible for equal inputs.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Container, Iterable, Iterator, Sequence


class GraphError(ValueError):
    """Invalid graph structure, file content, or query."""


class CycleError(GraphError):
    """The edge set admits a directed cycle."""

    def __init__(self, cycle: Sequence[str]):
        self.cycle = list(cycle)
        super().__init__("cycle detected: " + " -> ".join(self.cycle))


class DagParseError(GraphError):
    """Syntax or consistency error in a DAG file, tagged with its line."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class NodeKind(str, enum.Enum):
    SETTING = "setting"
    OUTCOME = "outcome"
    LATENT = "latent"


class Dag:
    """Immutable DAG over named, typed, finite-cardinality nodes.

    ``nodes`` is an ordered sequence of ``(name, kind, cardinality)``
    declarations; ``edges`` is a sequence of ``(tail, head)`` name pairs.
    Construction rejects duplicate names, unknown endpoints, self-loops,
    duplicate edges, edges into latent nodes and directed cycles.
    """

    __slots__ = (
        "_names", "_index", "_kinds", "_cards",
        "_parents", "_children", "_edges", "_topo",
        "_anc_cache", "_desc_cache", "_adjacency",
    )

    def __init__(
        self,
        nodes: Iterable[tuple[str, NodeKind | str, int]],
        edges: Iterable[tuple[str, str]] = (),
    ):
        names: list[str] = []
        kinds: dict[str, NodeKind] = {}
        cards: dict[str, int] = {}
        for name, kind, card in nodes:
            if not isinstance(name, str) or not name.isidentifier():
                raise GraphError(f"node name {name!r} is not an identifier")
            if name in kinds:
                raise GraphError(f"duplicate node {name!r}")
            try:
                kind = NodeKind(kind)
            except ValueError:
                raise GraphError(f"node {name!r}: unknown kind {kind!r}") from None
            if not isinstance(card, int) or isinstance(card, bool) or card < 1:
                raise GraphError(
                    f"node {name!r}: cardinality must be positive and integral, got {card!r}")
            names.append(name)
            kinds[name] = kind
            cards[name] = card

        index = {name: i for i, name in enumerate(names)}
        parents: dict[str, list[str]] = {name: [] for name in names}
        children: dict[str, list[str]] = {name: [] for name in names}
        edge_list: list[tuple[str, str]] = []
        seen_edges: set[tuple[str, str]] = set()
        for tail, head in edges:
            for endpoint in (tail, head):
                if endpoint not in index:
                    raise GraphError(f"unknown edge endpoint {endpoint!r}")
            if tail == head:
                raise GraphError(f"self-loop on {tail!r}")
            if (tail, head) in seen_edges:
                raise GraphError(f"duplicate edge {tail!r} -> {head!r}")
            if kinds[head] is NodeKind.LATENT:
                raise GraphError(f"latent node {head!r} cannot have an incoming edge")
            seen_edges.add((tail, head))
            edge_list.append((tail, head))
            parents[head].append(tail)
            children[tail].append(head)

        self._names = tuple(names)
        self._index = index
        self._kinds = kinds
        self._cards = cards
        self._parents = {v: tuple(sorted(ps, key=index.__getitem__)) for v, ps in parents.items()}
        self._children = {v: tuple(sorted(cs, key=index.__getitem__)) for v, cs in children.items()}
        self._edges = tuple(edge_list)
        self._topo = self._toposort()
        self._anc_cache: dict[str, frozenset[str]] = {}
        self._desc_cache: dict[str, frozenset[str]] = {}
        self._adjacency: dict[str, tuple[tuple[str, bool], ...]] | None = None

    def _toposort(self) -> tuple[str, ...]:
        # Kahn's algorithm on a min-heap of declaration indices: always emit
        # the first declared node whose parents are all emitted.
        waiting = [len(self._parents[v]) for v in self._names]
        ready = [i for i, count in enumerate(waiting) if count == 0]
        order: list[str] = []
        while ready:
            v = self._names[heapq.heappop(ready)]
            order.append(v)
            for c in self._children[v]:
                i = self._index[c]
                waiting[i] -= 1
                if waiting[i] == 0:
                    heapq.heappush(ready, i)
        if len(order) < len(self._names):
            leftover = [v for v, count in zip(self._names, waiting) if count]
            raise CycleError(self._find_cycle(leftover))
        return tuple(order)

    def _find_cycle(self, leftover: list[str]) -> list[str]:
        # Every leftover node has a leftover parent, so walking parents
        # must revisit a node; the reversed walk segment is a directed cycle.
        stuck = set(leftover)
        walk = [leftover[0]]
        seen_at = {leftover[0]: 0}
        while True:
            cur = walk[-1]
            nxt = next(p for p in self._parents[cur] if p in stuck)
            if nxt in seen_at:
                cycle = walk[seen_at[nxt]:] + [nxt]
                cycle.reverse()
                return cycle
            seen_at[nxt] = len(walk)
            walk.append(nxt)

    # --- basic accessors ---------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        """Node names in declaration order."""
        return self._names

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """Edges in declaration order as (tail, head) pairs."""
        return self._edges

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dag):
            return NotImplemented
        return (
            self._names == other._names
            and self._kinds == other._kinds
            and self._cards == other._cards
            and self._edges == other._edges
        )

    __hash__ = None  # mutable-free but not meant as a dict key

    def __repr__(self) -> str:
        return f"Dag({len(self._names)} nodes, {len(self._edges)} edges)"

    def index(self, name: str) -> int:
        """Declaration index of ``name``; raises KeyError if unknown."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown node {name!r}") from None

    def kind(self, name: str) -> NodeKind:
        self.index(name)
        return self._kinds[name]

    def cardinality(self, name: str) -> int:
        self.index(name)
        return self._cards[name]

    def nodes_of_kind(self, kind: NodeKind | str) -> tuple[str, ...]:
        kind = NodeKind(kind)
        return tuple(v for v in self._names if self._kinds[v] is kind)

    # --- structural queries ------------------------------------------------

    def parents(self, name: str) -> frozenset[str]:
        """Tails of edges pointing into ``name``."""
        self.index(name)
        return frozenset(self._parents[name])

    def children(self, name: str) -> frozenset[str]:
        self.index(name)
        return frozenset(self._children[name])

    def ordered_parents(self, name: str) -> tuple[str, ...]:
        """Parents sorted by declaration order (stable CPT axis order)."""
        self.index(name)
        return self._parents[name]

    def ordered_children(self, name: str) -> tuple[str, ...]:
        self.index(name)
        return self._children[name]

    def ancestors(self, name: str) -> frozenset[str]:
        """Transitive closure of parents; does not include the node itself."""
        return self._closure(name, self._parents, self._anc_cache)

    def descendants(self, name: str) -> frozenset[str]:
        """All nodes that have ``name`` as an ancestor."""
        return self._closure(name, self._children, self._desc_cache)

    def _closure(self, name: str, step: dict[str, tuple[str, ...]],
                 cache: dict[str, frozenset[str]]) -> frozenset[str]:
        # Nodes reachable from ``name`` by repeated ``step``, cached per node.
        self.index(name)
        cached = cache.get(name)
        if cached is None:
            out: set[str] = set()
            stack = list(step[name])
            while stack:
                v = stack.pop()
                if v not in out:
                    out.add(v)
                    stack.extend(step[v])
            cached = cache[name] = frozenset(out)
        return cached

    def _undirected_adjacency(self) -> dict[str, tuple[tuple[str, bool], ...]]:
        """Every node's neighbours in declaration order, each tagged True
        for a child and False for a parent.

        Package-internal: the separation sweep and path searches read it
        once per query instead of validating each neighbour's name. Built
        on first use and kept, so repeated queries on one graph share it;
        callers must not mutate it.
        """
        if self._adjacency is None:
            index = self._index
            self._adjacency = {
                v: tuple(sorted(
                    [(c, True) for c in self._children[v]]
                    + [(p, False) for p in self._parents[v]],
                    key=lambda t: index[t[0]],
                ))
                for v in self._names
            }
        return self._adjacency

    def topological_order(self) -> list[str]:
        """Every edge tail precedes its head; ties broken by declaration."""
        return list(self._topo)

    # --- serialization -----------------------------------------------------

    def to_text(self) -> str:
        """Serialize in the line-oriented DAG file format."""
        lines = [f"node {v} {self._kinds[v].value} {self._cards[v]}" for v in self._names]
        lines += [f"edge {t} -> {h}" for t, h in self._edges]
        return "\n".join(lines) + "\n"


_KIND_WORDS = {k.value for k in NodeKind}


def _directive_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) for each line of ``text`` that holds more than
    blanks and a ``#`` comment; numbering starts at 1."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens


def parse_dag(text: str) -> Dag:
    """Parse the line-oriented DAG file format.

    Grammar, one directive per line, ``#`` starts a comment:

        node <name> [<kind>] <cardinality>     kind defaults to outcome
        edge <name> -> <name>

    Endpoints must be declared before the edge that uses them. Parsing a
    serialized graph reproduces the structure exactly. The parser checks
    only the file syntax; ``Dag`` checks the structure, and any error it
    raises other than a cycle is tagged with the line of the node or edge
    it was reading. ``Dag`` reads every node before any edge, so a node
    fault is reported before an edge fault on an earlier line.
    """
    nodes: list[tuple[int, tuple[str, str, int]]] = []
    edges: list[tuple[int, tuple[str, str]]] = []
    declared: set[str] = set()
    for lineno, tokens in _directive_lines(text):
        if tokens[0] == "node":
            if len(tokens) not in (3, 4):
                raise DagParseError(lineno, "expected 'node <name> [<kind>] <cardinality>'")
            kind_word = tokens[2] if len(tokens) == 4 else "outcome"
            if kind_word not in _KIND_WORDS:
                raise DagParseError(lineno, f"unknown node kind {kind_word!r}")
            try:
                card = int(tokens[-1])
            except ValueError:
                raise DagParseError(lineno, f"expected cardinality, got {tokens[-1]!r}") from None
            declared.add(tokens[1])
            nodes.append((lineno, (tokens[1], kind_word, card)))
        elif tokens[0] == "edge":
            if len(tokens) != 4 or tokens[2] != "->":
                raise DagParseError(lineno, "expected 'edge <name> -> <name>'")
            for endpoint in (tokens[1], tokens[3]):
                if endpoint not in declared:
                    raise DagParseError(lineno, f"unknown edge endpoint {endpoint!r}")
            edges.append((lineno, (tokens[1], tokens[3])))
        else:
            raise DagParseError(lineno, f"unknown directive {tokens[0]!r}")

    line = 0

    def consume(items):  # yields each item, recording the line it came from
        nonlocal line
        for line, item in items:
            yield item

    try:
        return Dag(consume(nodes), consume(edges))
    except CycleError:
        raise
    except GraphError as exc:
        raise DagParseError(line, str(exc)) from None


@dataclass(frozen=True)
class CondQuery:
    """A conditional independence / separation query (X, Y | Z).

    X and Y must be nonempty and the three sets pairwise disjoint; Z may
    be empty. Any iterable of names is accepted and frozen.
    """

    x: frozenset[str]
    y: frozenset[str]
    z: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", frozenset(self.x))
        object.__setattr__(self, "y", frozenset(self.y))
        object.__setattr__(self, "z", frozenset(self.z))

    def validate(self, universe: Container[str]) -> None:
        """Raise GraphError unless the query is well-formed over ``universe``."""
        if not self.x or not self.y:
            raise GraphError("query sets X and Y must be nonempty")
        if self.x & self.y or self.x & self.z or self.y & self.z:
            raise GraphError("overlapping query sets")
        unknown = {v for v in self.x | self.y | self.z if v not in universe}
        if unknown:
            raise GraphError(f"unknown node(s) in query: {sorted(unknown)}")
