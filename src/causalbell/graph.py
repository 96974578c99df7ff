"""Typed directed acyclic graphs with a plain-text file format.

Nodes carry a kind (setting, outcome or latent) plus a finite cardinality,
and a graph is validated once at construction and never mutated afterwards.
Every structural query is a pure read, so a Dag can be shared freely
between threads. Declaration order is preserved and used to break all ties
(topological order, serialization, downstream report rows), which keeps
outputs reproducible for equal inputs.

Internally node i is the bit ``1 << i`` of a Python int, i its declaration
index, and the edges are one parent mask and one child mask per node, so
ascending bit order is declaration order. One routine reads a file's
lines and the constructor's declarations alike, in one pass: it fills the
masks, checks duplicate edges with a bit test, and then sorts
topologically with Kahn's algorithm on a mask of ready nodes. Nothing else is stored: a
causal past or future is closed from the set asked about along the
parent or child masks, and every name-level view names the members of
one mask.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from numbers import Integral
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
    Construction rejects a declaration that does not unpack into those
    fields, duplicate names, unknown endpoints, self-loops,
    duplicate edges, edges into latent nodes and directed cycles.
    """

    __slots__ = ("_names", "_index", "_kinds", "_cards", "_pmask", "_cmask", "_edges", "_order")

    def __init__(
        self,
        nodes: Iterable[tuple[str, NodeKind | str, int]],
        edges: Iterable[tuple[str, str]] = (),
    ):
        self._fill(_declarations(nodes, edges))

    def _fill(self, lines: Iterable[tuple[int | None, Sequence]]) -> None:
        """Read ``(line number, tokens)`` directives, in order, into every slot.

        A file's lines come from ``_directive_lines``. The constructor
        passes ``("node", name, kind, cardinality)`` and ``("edge", tail,
        "->", head)`` with line None, holding values rather than words. A
        file's syntax faults and its unknown edge endpoints raise when their
        line is read; the first node fault and the first edge fault wait
        until the last line has been read and then raise in that order.
        With line None every fault raises at once.
        """
        index: dict[str, int] = {}  # in declaration order, so its keys are the names
        kinds: list[NodeKind] = []
        cards: list[int] = []
        pmask: list[int] = []
        cmask: list[int] = []
        edges: list[tuple[str, str]] = []
        node_fault = edge_fault = None
        latent = NodeKind.LATENT  # an enum member lookup is slow; make it once
        for line, tokens in lines:
            word = tokens[0]
            if word == "node":
                if len(tokens) == 4:
                    kind = tokens[2]
                elif len(tokens) == 3:
                    kind = "outcome"
                else:
                    raise DagParseError(line, "expected 'node <name> [<kind>] <cardinality>'")
                name, card = tokens[1], tokens[-1]
                if line is None:  # the constructor's values
                    node_kind = _KIND_OF.get(kind) if isinstance(kind, str) else None
                    integral = _is_int(card)
                else:  # a file's words, whose syntax faults come first
                    node_kind = _KIND_OF.get(kind)
                    if node_kind is None:
                        raise DagParseError(line, f"unknown node kind {kind!r}")
                    try:
                        card = int(card)
                    except ValueError:
                        raise DagParseError(line, f"expected cardinality, got {card!r}") from None
                    integral = True
                if not isinstance(name, str) or not name.isidentifier():
                    fault = f"node name {name!r} is not an identifier"
                elif name in index:
                    fault = f"duplicate node {name!r}"
                elif node_kind is None:  # only the constructor's values get here
                    raise GraphError(f"node {name!r}: unknown kind {kind!r}")
                elif not integral or card < 1:
                    fault = (f"node {name!r}: cardinality must be positive and integral,"
                             f" got {card!r}")
                else:
                    fault = None
                if fault is not None:
                    if line is None:
                        raise GraphError(fault)
                    node_fault = node_fault or DagParseError(line, fault)
                    if name in index:
                        continue
                index[name] = len(index)
                kinds.append(node_kind)
                cards.append(int(card))
                pmask.append(0)
                cmask.append(0)
                continue
            if word != "edge":
                raise DagParseError(line, f"unknown directive {word!r}")
            if len(tokens) != 4 or tokens[2] != "->":
                raise DagParseError(line, "expected 'edge <name> -> <name>'")
            tail, head = tokens[1], tokens[3]
            t, h = index.get(tail), index.get(head)
            if t is None or h is None:
                fault = f"unknown edge endpoint {tail if t is None else head!r}"
                raise GraphError(fault) if line is None else DagParseError(line, fault)
            if t == h:
                fault = f"self-loop on {tail!r}"
            elif pmask[h] >> t & 1:
                fault = f"duplicate edge {tail!r} -> {head!r}"
            elif kinds[h] is latent:
                fault = f"latent node {head!r} cannot have an incoming edge"
            else:
                pmask[h] |= 1 << t
                cmask[t] |= 1 << h
                edges.append((tail, head))
                continue
            if line is None:
                raise GraphError(fault)
            edge_fault = edge_fault or DagParseError(line, fault)
        if node_fault or edge_fault:
            raise node_fault or edge_fault

        self._names = tuple(index)
        self._index = index
        self._kinds = kinds
        self._cards = cards
        self._pmask = pmask
        self._cmask = cmask
        self._edges = tuple(edges)
        self._order = self._toposort()

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
            kids = cmask[i]
            while kids:
                low = kids & -kids
                kids ^= low
                if not pmask[low.bit_length() - 1] & ~done:
                    ready |= low
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
        if not isinstance(kind, str) or kind not in _KIND_OF:
            raise GraphError(f"unknown kind {kind!r}")
        kind = _KIND_OF[kind]
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
        return frozenset(self._members(_closure(self._pmask, self._pmask[self.index(name)])))

    def descendants(self, name: str) -> frozenset[str]:
        """All nodes that have ``name`` as an ancestor."""
        return frozenset(self._members(_closure(self._cmask, self._cmask[self.index(name)])))

    def _members(self, mask: int) -> tuple[str, ...]:
        # the names of the nodes in ``mask``, in declaration order
        names = self._names
        return tuple([names[i] for i in _bits(mask)])

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


def _declarations(nodes: Iterable[tuple[str, NodeKind | str, int]],
                  edges: Iterable[tuple[str, str]]) -> Iterator[tuple[None, tuple]]:
    """The constructor's declarations as ``Dag._fill`` directives with line
    None, refusing one of the wrong length or that does not unpack."""
    for decl in nodes:
        try:
            name, kind, card = decl
        except (TypeError, ValueError):
            raise GraphError(
                f"node declaration {decl!r} is not (name, kind, cardinality)") from None
        yield None, ("node", name, kind, card)
    for decl in edges:
        try:
            tail, head = decl
        except (TypeError, ValueError):
            raise GraphError(f"edge declaration {decl!r} is not (tail, head)") from None
        yield None, ("edge", tail, "->", head)


def _closure(masks: list[int], m: int) -> int:
    """``m`` plus every node reachable from it along ``masks``, node i leading to ``masks[i]``."""
    todo = m
    while todo:
        low = todo & -todo
        todo ^= low
        new = masks[low.bit_length() - 1] & ~m
        m |= new
        todo |= new
    return m


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return out


def _is_int(value: object) -> bool:
    """An int or a numpy integer, not a bool: the one integer test."""
    return type(value) is int or isinstance(value, Integral) and not isinstance(value, bool)


def _check_int(value: object, what: str, least: int) -> None:
    """The one rule for an integer argument: ``_is_int``, and at least ``least`` (0 or 1)."""
    if not _is_int(value):
        raise GraphError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise GraphError(f"{what} must be {'positive' if least else 'non-negative'}, got {value}")


DEFAULT_LAMBDA_CARD = 16


def _check_lambda_card(lambda_card: int) -> None:
    """The one rule for the hidden variable's cardinality."""
    _check_int(lambda_card, "lambda cardinality", 1)


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
    lines = text.splitlines()
    if "#" in text:
        lines = (raw.split("#", 1)[0] for raw in lines)
    for lineno, tokens in enumerate(map(str.split, lines), start=1):
        if tokens:
            yield lineno, tokens


def parse_dag(text: str) -> Dag:
    """Parse the line-oriented DAG file format.

    Grammar, one directive per line, ``#`` starts a comment:

        node <name> [<kind>] <cardinality>     kind defaults to outcome
        edge <name> -> <name>

    Endpoints must be declared before the edge that uses them. Parsing a
    serialized graph reproduces the structure exactly. Syntax faults are
    reported in line order; then the first node fault (a name that is no
    identifier or repeats, a cardinality below 1), then the first edge
    fault (a self-loop, a repeat, an edge into a latent node), each tagged
    with its line, and then a directed cycle, which has no line.
    """
    dag = Dag.__new__(Dag)
    dag._fill(_directive_lines(text))
    return dag


@dataclass(frozen=True)
class CondQuery:
    """A conditional independence / separation query (X, Y | Z).

    X and Y must be nonempty and the three sets pairwise disjoint; Z may
    be empty. Any iterable of names is accepted and frozen, except a
    string, which would be read as a set of characters; anything that
    does not freeze raises GraphError.
    """

    x: frozenset[str]
    y: frozenset[str]
    z: frozenset[str] = frozenset()

    def __init__(self, x: Iterable[str], y: Iterable[str], z: Iterable[str] = frozenset()):
        for label, names in (("X", x), ("Y", y), ("Z", z)):
            if isinstance(names, str):
                raise GraphError(
                    f"query set {label} must be a collection of names, not the string {names!r}")
        try:
            object.__setattr__(self, "x", frozenset(x))
            object.__setattr__(self, "y", frozenset(y))
            object.__setattr__(self, "z", frozenset(z))
        except TypeError:
            # x, y and z are set in that order: the fields set so far count
            # the sets that froze, which is the index of the one that did not
            i = len(vars(self))
            raise GraphError(f"query set {'XYZ'[i]} must be a collection of names,"
                             f" got {(x, y, z)[i]!r}") from None

    def validate(self, universe: Container[str]) -> None:
        """Raise GraphError unless the query is well-formed over ``universe``."""
        if not self.x or not self.y:
            raise GraphError("query sets X and Y must be nonempty")
        if self.x & self.y or self.x & self.z or self.y & self.z:
            raise GraphError("overlapping query sets")
        _check_known(universe, self.x | self.y | self.z)


def _check_known(universe: Container[str], names: Iterable[str]) -> None:
    unknown = {v for v in names if v not in universe}
    if unknown:
        # names first, in their own order, then anything else by its text
        listed = sorted(unknown, key=lambda v: (not isinstance(v, str), str(v)))
        raise GraphError(f"unknown node(s) in query: {listed}")
