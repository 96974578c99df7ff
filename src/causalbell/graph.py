"""Typed directed acyclic graphs with a plain-text file format.

Nodes carry a kind (setting, outcome or latent) plus a finite cardinality,
and a graph is validated once at construction and never mutated afterwards.
Every structural query is a pure read, so a Dag can be shared freely
between threads. Declaration order is preserved and used to break all ties
(topological order, serialization, downstream report rows), which keeps
outputs reproducible for equal inputs.

Internally node i is the bit ``1 << i`` of a Python int, i its declaration
index, and the edges are one parent mask and one child mask per node, so
ascending bit order is declaration order. Construction fills the masks,
checks duplicate edges with a bit test and sorts topologically with
Kahn's algorithm on a mask of ready nodes. The two closures of the edge
masks, ancestor and descendant masks, are built on first use and kept;
they and the edge masks are the only structure a graph holds, and every
name-level view reads one mask and names its members.
"""

from __future__ import annotations

import enum
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


# kind word -> NodeKind; a member hashes and compares like its value, so it finds itself
_KIND_OF = {k.value: k for k in NodeKind}


class Dag:
    """Immutable DAG over named, typed, finite-cardinality nodes.

    ``nodes`` is an ordered sequence of ``(name, kind, cardinality)``
    declarations; ``edges`` is a sequence of ``(tail, head)`` name pairs.
    Construction rejects duplicate names, unknown endpoints, self-loops,
    duplicate edges, edges into latent nodes and directed cycles.
    """

    __slots__ = (
        "_names", "_index", "_kinds", "_cards", "_pmask", "_cmask", "_edges", "_order",
        "_amask", "_dmask",
    )

    def __init__(
        self,
        nodes: Iterable[tuple[str, NodeKind | str, int]],
        edges: Iterable[tuple[str, str]] = (),
    ):
        names: list[str] = []
        index: dict[str, int] = {}
        kinds: list[NodeKind] = []
        cards: list[int] = []
        for name, kind, card in nodes:
            if not isinstance(name, str) or not name.isidentifier():
                raise GraphError(f"node name {name!r} is not an identifier")
            if name in index:
                raise GraphError(f"duplicate node {name!r}")
            try:
                node_kind = _KIND_OF[kind]
            except (KeyError, TypeError):
                raise GraphError(f"node {name!r}: unknown kind {kind!r}") from None
            if not isinstance(card, int) or isinstance(card, bool) or card < 1:
                raise GraphError(
                    f"node {name!r}: cardinality must be positive and integral, got {card!r}")
            index[name] = len(names)
            names.append(name)
            kinds.append(node_kind)
            cards.append(card)

        pmask = [0] * len(names)
        cmask = [0] * len(names)
        edge_list: list[tuple[str, str]] = []
        for tail, head in edges:
            t = index.get(tail)
            if t is None:
                raise GraphError(f"unknown edge endpoint {tail!r}")
            h = index.get(head)
            if h is None:
                raise GraphError(f"unknown edge endpoint {head!r}")
            if t == h:
                raise GraphError(f"self-loop on {tail!r}")
            if pmask[h] >> t & 1:
                raise GraphError(f"duplicate edge {tail!r} -> {head!r}")
            if kinds[h] is NodeKind.LATENT:
                raise GraphError(f"latent node {head!r} cannot have an incoming edge")
            pmask[h] |= 1 << t
            cmask[t] |= 1 << h
            edge_list.append((tail, head))

        self._names = tuple(names)
        self._index = index
        self._kinds = kinds
        self._cards = cards
        self._pmask = pmask
        self._cmask = cmask
        self._edges = tuple(edge_list)
        self._order = self._toposort()
        self._amask: list[int] | None = None
        self._dmask: list[int] | None = None

    def _toposort(self) -> list[int]:
        # Kahn's algorithm on a mask of ready nodes: always emit the lowest
        # set bit, the first declared node whose parents are all emitted.
        pmask, cmask = self._pmask, self._cmask
        ready = sum([1 << i for i, p in enumerate(pmask) if not p])
        done = 0
        order: list[int] = []
        while ready:
            low = ready & -ready
            ready ^= low
            done |= low
            i = low.bit_length() - 1
            order.append(i)
            for j in _bits(cmask[i]):
                if pmask[j] & done == pmask[j]:
                    ready |= 1 << j
        if len(order) < len(pmask):
            raise CycleError(self._find_cycle((1 << len(pmask)) - 1 & ~done))
        return order

    def _find_cycle(self, stuck: int) -> list[str]:
        # Every stuck node has a stuck parent, so walking to the first
        # declared one must revisit a node; the reversed walk segment is a
        # directed cycle.
        start = (stuck & -stuck).bit_length() - 1
        walk = [start]
        seen_at = {start: 0}
        while True:
            parents = self._pmask[walk[-1]] & stuck
            nxt = (parents & -parents).bit_length() - 1
            if nxt in seen_at:
                cycle = walk[seen_at[nxt]:] + [nxt]
                cycle.reverse()
                return [self._names[i] for i in cycle]
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
        return self._kinds[self.index(name)]

    def cardinality(self, name: str) -> int:
        return self._cards[self.index(name)]

    def nodes_of_kind(self, kind: NodeKind | str) -> tuple[str, ...]:
        kind = NodeKind(kind)
        return tuple([v for v, k in zip(self._names, self._kinds) if k is kind])

    # --- structural queries ------------------------------------------------

    def parents(self, name: str) -> frozenset[str]:
        """Tails of edges pointing into ``name``."""
        return frozenset(self.ordered_parents(name))

    def children(self, name: str) -> frozenset[str]:
        return frozenset(self.ordered_children(name))

    def ordered_parents(self, name: str) -> tuple[str, ...]:
        """Parents sorted by declaration order (stable CPT axis order)."""
        return self._members(self._pmask[self.index(name)])

    def ordered_children(self, name: str) -> tuple[str, ...]:
        return self._members(self._cmask[self.index(name)])

    def ancestors(self, name: str) -> frozenset[str]:
        """Transitive closure of parents; does not include the node itself."""
        return frozenset(self._members(self._ancestor_masks()[self.index(name)]))

    def descendants(self, name: str) -> frozenset[str]:
        """All nodes that have ``name`` as an ancestor."""
        return frozenset(self._members(self._descendant_masks()[self.index(name)]))

    def _members(self, mask: int) -> tuple[str, ...]:
        # the names of the nodes in ``mask``, in declaration order
        names = self._names
        return tuple([names[i] for i in _bits(mask)])

    def _ancestor_masks(self) -> list[int]:
        """Each node's ancestors as a mask, in declaration order.

        Package-internal: the parent masks closed along the topological
        order on first use and kept; callers must not mutate it.
        """
        if self._amask is None:
            self._amask = _close_along(self._pmask, self._order)
        return self._amask

    def _descendant_masks(self) -> list[int]:
        """Each node's descendants as a mask, in declaration order.

        Package-internal: the child masks closed along the reversed
        topological order on first use and kept; callers must not mutate it.
        """
        if self._dmask is None:
            self._dmask = _close_along(self._cmask, self._order[::-1])
        return self._dmask

    def topological_order(self) -> list[str]:
        """Every edge tail precedes its head; ties broken by declaration."""
        names = self._names
        return [names[i] for i in self._order]

    # --- serialization -----------------------------------------------------

    def to_text(self) -> str:
        """Serialize in the line-oriented DAG file format."""
        nodes = zip(self._names, self._kinds, self._cards)
        lines = [f"node {v} {k.value} {c}" for v, k, c in nodes]
        lines += [f"edge {t} -> {h}" for t, h in self._edges]
        return "\n".join(lines) + "\n"


def _close_along(masks: list[int], order: Iterable[int]) -> list[int]:
    """The transitive closure of the relation whose node i relates to the
    members of ``masks[i]``; ``order`` lists each node after all of them."""
    closed = [0] * len(masks)
    for i in order:
        m = masks[i]
        for j in _bits(m):
            m |= closed[j]
        closed[i] = m
    return closed


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return out


DEFAULT_LAMBDA_CARD = 16


def _check_lambda_card(lambda_card: int) -> None:
    """The one rule for the hidden variable's cardinality."""
    if lambda_card < 1:
        raise GraphError(f"lambda cardinality must be positive, got {lambda_card!r}")


def bell_dag(lambda_card: int = DEFAULT_LAMBDA_CARD) -> Dag:
    """The two-wing DAG: X -> A <- Lambda -> B <- Y, with free settings."""
    _check_lambda_card(lambda_card)
    return Dag(
        nodes=[
            ("X", "setting", 2),
            ("Y", "setting", 2),
            ("A", "outcome", 2),
            ("B", "outcome", 2),
            ("Lambda", "latent", lambda_card),
        ],
        edges=[("X", "A"), ("Lambda", "A"), ("Lambda", "B"), ("Y", "B")],
    )




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
            if kind_word not in _KIND_OF:
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
