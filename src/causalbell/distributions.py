"""Exact discrete joint distributions and independence audits.

A JointTable is a dense array of probabilities over named finite
variables. Conditional independence is tested in the division-free form

    | P(x,y,z) * P(z) - P(x,z) * P(y,z) | <= eps   for all assignments,

which stays exact near zero-probability conditioning events. On top of
the basic test sit the graph audits (local Markov, ancestor screening,
common-cause screening) and a randomized audit of the five closure
axioms of conditional independence. Everything here is pure and
deterministic per seed; tables are write-locked after construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .graph import CondQuery, Dag, GraphError, _check_int, _check_known, _directive_lines, _is_int
from .report import DEFAULT_EPS, Assignment, AuditReport, CheckResult, _check_eps, _check_seed

MAX_TABLE_CELLS = 1 << 20


def _check_cells(cards: Iterable[int]) -> None:
    """Raise unless a table over ``cards`` stays within MAX_TABLE_CELLS.

    The product is exact, so callers check before they allocate or draw.
    """
    size = math.prod(cards)
    if size > MAX_TABLE_CELLS:
        raise GraphError(f"table of {size} cells exceeds the {MAX_TABLE_CELLS} cap")


def _declared(variables: Sequence[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    """The one rule for a table's declarations: identifier names, each used
    once, and positive integer cardinalities, within MAX_TABLE_CELLS cells."""
    seen: set[str] = set()
    for n, c in variables:
        if not isinstance(n, str) or not n.isidentifier() or not _is_int(c) or c < 1:
            raise GraphError(f"bad variable declaration {n!r}: {c!r}")
        if n in seen:
            raise GraphError(f"duplicate variable {n!r}")
        seen.add(n)
    declared = tuple((n, int(c)) for n, c in variables)
    _check_cells([c for _, c in declared])
    return declared


def _stochastic(arr: np.ndarray, what: str, shape: tuple[int, ...] | None = None,
                axes: int | tuple[int, ...] | None = None, tol: float = 1e-12) -> np.ndarray:
    """A read-only float64 copy of ``arr`` once it is a stochastic array.

    Entries must be finite and non-negative, and every slice over ``axes``
    (the whole array when None) must sum to 1 within ``tol``. Copying keeps
    later writes to the caller's array, or to one it views, out of the result.
    """
    out = np.array(arr, dtype=np.float64, order="C")
    if shape is not None and out.shape != shape:
        raise GraphError(f"{what}: expected shape {shape}, got {out.shape}")
    if not np.isfinite(out).all():
        raise GraphError(f"{what}: non-finite entry")
    if (out < 0).any():
        raise GraphError(f"{what}: negative entry")
    sums = np.ravel(out.sum(axis=axes))
    off = np.abs(sums - 1.0)
    if off.max(initial=0.0) > tol:
        which = "entries sum" if axes is None else "a slice sums"
        worst = float(sums[off.argmax()])
        raise GraphError(f"{what}: {which} outside 1 +/- {tol:g} (to {worst!r})")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class JointTable:
    """Dense joint distribution over an ordered list of (name, cardinality).

    Entries must be finite, non-negative and sum to 1 within 1e-12; the
    array shape must equal the tuple of cardinalities. The table keeps a
    read-only copy of the array.
    """

    variables: tuple[tuple[str, int], ...]
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", _declared(self.variables))
        probs = _stochastic(self.probabilities, "probabilities", self.cards)
        object.__setattr__(self, "probabilities", probs)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.variables)

    @property
    def cards(self) -> tuple[int, ...]:
        return tuple(c for _, c in self.variables)

    def index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.variables):
            if n == name:
                return i
        raise KeyError(f"unknown variable {name!r}")

    def card(self, name: str) -> int:
        return self.variables[self.index(name)][1]

    def marginal(self, names: Sequence[str]) -> np.ndarray:
        """Marginal array with axes in the requested order."""
        idx = [self.index(n) for n in names]
        if len(kept := set(idx)) != len(idx):
            raise GraphError("duplicate variable in marginal request")
        drop = tuple(i for i in range(len(self.variables)) if i not in kept)
        m = self.probabilities.sum(axis=drop) if drop else self.probabilities
        if m.ndim > 1:
            ascending = sorted(idx)
            m = np.transpose(m, [ascending.index(i) for i in idx])
        return m


@dataclass(frozen=True)
class ConditionalTable:
    """P(child | parents) with one simplex slice per parent assignment.

    ``entries`` has shape parent_cards + (child_card,), axes following
    ``parent_names`` order.
    """

    child: str
    parent_names: tuple[str, ...]
    entries: np.ndarray

    def __post_init__(self) -> None:
        parent_names = tuple(self.parent_names)
        if len(set(parent_names)) != len(parent_names) or self.child in parent_names:
            raise GraphError(f"invalid parent list for {self.child!r}")
        rank = np.ndim(self.entries)
        if rank != len(parent_names) + 1:
            raise GraphError(f"table for {self.child!r}: rank {rank} != {len(parent_names) + 1}")
        entries = _stochastic(self.entries, f"table for {self.child!r}", axes=-1)
        object.__setattr__(self, "parent_names", parent_names)
        object.__setattr__(self, "entries", entries)

    @property
    def child_card(self) -> int:
        return self.entries.shape[-1]

    @property
    def parent_cards(self) -> tuple[int, ...]:
        return self.entries.shape[:-1]


@dataclass(frozen=True)
class CiReport:
    """Outcome of one conditional-independence test."""

    query: CondQuery
    holds: bool
    max_violation: float
    witness: Assignment | None = None


def _aligned(entries: np.ndarray, axes: Sequence[int], n_axes: int,
             shape: Sequence[int]) -> np.ndarray:
    """Reshape ``entries`` (axes at positions ``axes``) to broadcast
    against an ``n_axes``-dimensional joint of the given shape."""
    order = np.argsort(axes)
    arr = entries.transpose(order)
    full = [1] * n_axes
    for ax in axes:
        full[ax] = shape[ax]
    return arr.reshape(full)


def joint_from_tables(g: Dag, cpts: Iterable[ConditionalTable]) -> JointTable:
    """Multiply one conditional table per node into the joint it defines.

    Each table's parent set must equal the node's graph parents and all
    cardinalities must match the graph. The result is compatible with the
    graph by construction. A joint over more than MAX_TABLE_CELLS cells is
    refused before it is allocated.
    """
    by_child: dict[str, ConditionalTable] = {}
    for t in cpts:
        if t.child in by_child:
            raise GraphError(f"two tables for node {t.child!r}")
        by_child[t.child] = t
    missing = set(g.names) - set(by_child)
    extra = set(by_child) - set(g.names)
    if missing or extra:
        raise GraphError(f"missing tables {sorted(missing)}, extra tables {sorted(extra)}")
    shape = tuple(g.cardinality(v) for v in g.names)
    _check_cells(shape)
    joint = np.ones(shape)
    for v in g.names:
        t = by_child[v]
        if set(t.parent_names) != g.parents(v):
            raise GraphError(
                f"table for {v!r} conditions on {sorted(t.parent_names)}, "
                f"graph parents are {sorted(g.parents(v))}"
            )
        if t.child_card != g.cardinality(v):
            raise GraphError(f"table for {v!r}: child cardinality mismatch")
        for p, c in zip(t.parent_names, t.parent_cards):
            if c != g.cardinality(p):
                raise GraphError(f"table for {v!r}: cardinality mismatch on parent {p!r}")
        axes = [g.index(p) for p in t.parent_names] + [g.index(v)]
        joint = joint * _aligned(t.entries, axes, len(shape), shape)
    return JointTable(tuple((v, g.cardinality(v)) for v in g.names), joint)


def chain_factorize(p: JointTable, order: Sequence[str]) -> list[ConditionalTable]:
    """Decompose ``p`` into conditionals along ``order``.

    The k-th table conditions the k-th variable on all earlier ones;
    multiplying the tables back in order reproduces ``p`` entrywise.
    Conditionals on zero-probability contexts are set to uniform.
    """
    order = list(order)
    if sorted(order) != sorted(p.names):
        raise GraphError("order is not a permutation of the table's variables")
    out: list[ConditionalTable] = []
    for j, v in enumerate(order):
        context = order[:j]
        m = p.marginal(context + [v])
        denom = m.sum(axis=-1, keepdims=True)
        card = p.card(v)
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = np.where(denom > 0, m / np.where(denom > 0, denom, 1.0), 1.0 / card)
        out.append(ConditionalTable(v, tuple(context), cond))
    return out


def _ordered(p: JointTable, names: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted(names, key=p.index))


def ci_holds(p: JointTable, q: CondQuery, eps: float = DEFAULT_EPS) -> CiReport:
    """Test (X independent of Y given Z) in the division-free product form."""
    _check_eps(eps)
    q.validate(p.names)
    xs, ys, zs = _ordered(p, q.x), _ordered(p, q.y), _ordered(p, q.z)
    m = p.marginal(list(xs + ys + zs))
    split = len(xs) + len(ys)
    m3 = m.reshape(math.prod(m.shape[:len(xs)]), math.prod(m.shape[len(xs):split]),
                   math.prod(m.shape[split:]))
    pz = m3.sum(axis=(0, 1))
    pxz = m3.sum(axis=1)
    pyz = m3.sum(axis=0)
    viol = np.abs(m3 * pz[None, None, :] - pxz[:, None, :] * pyz[None, :, :])
    flat = int(viol.argmax())
    max_violation = float(viol.reshape(-1)[flat])
    holds = max_violation <= eps
    witness: Assignment | None = None
    if not holds:
        # viol's row-major order is m's, so the flat index decodes over m's axes
        values = np.unravel_index(flat, m.shape)
        witness = tuple((name, int(v)) for name, v in zip(xs + ys + zs, values))
    return CiReport(q, holds, max_violation, witness)


def _check_same_variables(p: JointTable, g: Dag) -> None:
    if set(p.names) != set(g.names):
        raise GraphError(
            f"variable mismatch: table has {sorted(p.names)}, graph has {sorted(g.names)}"
        )
    for v in g.names:
        if p.card(v) != g.cardinality(v):
            raise GraphError(f"cardinality mismatch on {v!r}")


def _fmt_set(names: Iterable[str], g: Dag) -> str:
    ordered = sorted(names, key=g.index)
    return "{" + " ".join(ordered) + "}"


def _screening_audit(p: JointTable, g: Dag, eps: float, title: str,
                     conditioning: Callable[[str], frozenset[str]]) -> AuditReport:
    _check_eps(eps)
    _check_same_variables(p, g)
    checks: list[CheckResult] = []
    for v in g.names:
        z = conditioning(v)
        others = set(g.names) - g.descendants(v) - {v} - z
        name = f"{v} _||_ {_fmt_set(others, g)} | {_fmt_set(z, g)}"
        if not others:
            checks.append(CheckResult(name, True, 0.0, detail={"trivial": True}))
            continue
        rep = ci_holds(p, CondQuery({v}, others, z), eps)
        checks.append(CheckResult(name, rep.holds, rep.max_violation, rep.witness))
    return AuditReport(title, tuple(checks))


def causal_markov_check(p: JointTable, g: Dag, eps: float = DEFAULT_EPS) -> AuditReport:
    """Each node must be independent of its non-descendants given its parents."""
    return _screening_audit(p, g, eps, "local Markov audit", g.parents)


def compatible(p: JointTable, g: Dag, eps: float = DEFAULT_EPS) -> AuditReport:
    """Graph compatibility, decided through the local Markov property.

    Equivalent to the existence of a conditional-table factorization
    along the graph; the equivalence itself is exercised in the tests.
    """
    return _screening_audit(p, g, eps, "compatibility audit", g.parents)


def causal_completeness_check(p: JointTable, g: Dag, eps: float = DEFAULT_EPS) -> AuditReport:
    """Each node must be independent of its non-descendants given its ancestors."""
    return _screening_audit(p, g, eps, "ancestor screening audit", g.ancestors)


UNCORRELATED = "uncorrelated"
SCREENED = "screened_by_common_past"
VIOLATES_RPCC = "violates_rpcc"
DIRECT_CAUSE = "direct_cause_relation"


@dataclass(frozen=True)
class RpccReport:
    x: str
    y: str
    verdict: str
    common_past: tuple[str, ...]
    marginal: CiReport | None
    screened: CiReport | None

    def to_text(self) -> str:
        lines = [f"verdict: {self.verdict}"]
        lines.append("common past: {" + " ".join(self.common_past) + "}")
        if self.marginal is not None:
            lines.append(f"marginal dependence: {self.marginal.max_violation:.9f}")
        if self.screened is not None:
            lines.append(f"residual dependence given common past: "
                         f"{self.screened.max_violation:.9f}")
        return "\n".join(lines) + "\n"


def reichenbach_check(p: JointTable, g: Dag, x: str, y: str,
                      eps: float = DEFAULT_EPS) -> RpccReport:
    """Classify a pair: uncorrelated, screened by the shared causal past
    (the intersection of the two ancestor sets), a direct cause/effect
    relation, or a violation of common-cause screening.
    """
    _check_eps(eps)
    _check_same_variables(p, g)
    _check_known(g, (x, y))
    if x == y:
        raise GraphError("x and y must differ")
    ax, ay = g.ancestors(x), g.ancestors(y)
    common = tuple(sorted(ax & ay, key=g.index))
    if x in ay or y in ax:
        return RpccReport(x, y, DIRECT_CAUSE, common, None, None)
    marginal = ci_holds(p, CondQuery({x}, {y}), eps)
    if marginal.holds:
        return RpccReport(x, y, UNCORRELATED, common, marginal, None)
    screened = ci_holds(p, CondQuery({x}, {y}, common), eps)
    verdict = SCREENED if screened.holds else VIOLATES_RPCC
    return RpccReport(x, y, verdict, common, marginal, screened)


GRAPHOID_AXIOMS = ("symmetry", "decomposition", "weak_union", "contraction", "intersection")


def _sample_roles(rng: np.random.Generator, names: tuple[str, ...],
                  need_w: bool) -> list[frozenset[str]]:
    for _ in range(1000):
        roles = rng.integers(0, 5, size=len(names))
        x, y, _, w = sets = [frozenset(n for n, r in zip(names, roles) if r == k)
                             for k in range(4)]
        if x and y and (w or not need_w):
            return sets
    raise RuntimeError("role sampling failed")  # unreachable for >= 2 variables


def graphoid_audit(p: JointTable, eps: float = DEFAULT_EPS, trials: int = 1000,
                   seed: int = 0) -> AuditReport:
    """Randomized audit of the closure axioms of conditional independence.

    Per trial, disjoint sets (X, Y, Z, W) are sampled over the table's
    variables; whenever an axiom's antecedent independences hold within
    ``eps`` the consequent is asserted at 10*eps. The intersection axiom
    is only asserted on strictly positive tables; fired instances on
    tables with zeros are counted as gated, never as failures, and the
    gate is surfaced in the report.

    A consequent FAIL can be an artifact of the 10*eps bound, which is not
    derived (README, Tolerances). For binary X, Y, a 16-valued W and
    P(x,y,w) = 1/64 + d*(-1)^(x^y)/16 with d = 1.6e-3, decomposition's
    consequent reads d, 16 times its antecedent, so eps = 1.01*d/16 fails it.
    """
    _check_int(trials, "trials", 1)
    _check_eps(eps)
    _check_seed(seed)
    if len(p.names) < 2:
        raise GraphError("need at least two variables")
    rng = np.random.default_rng(seed)
    positive = bool((p.probabilities > 0).all())
    counts: dict[str, dict[str, Any]] = {
        a: {"fired": 0, "passed": 0, "failed": 0} for a in GRAPHOID_AXIOMS}
    counts["intersection"].update(gated=0, positivity_gate="off" if positive else "on")
    worst: dict[str, tuple[CiReport, str]] = {}  # per axiom: worst failed consequent, sets

    def ci(x, y, z):
        return ci_holds(p, CondQuery(x, y, z), eps)

    for _ in range(trials):
        x, y, z, w = _sample_roles(rng, p.names, len(p.names) >= 3)
        fired = [("symmetry", (y, x, z))] if ci(x, y, z).holds else []
        if w:
            if ci(x, y | w, z).holds:
                fired += [("decomposition", (x, y, z)), ("weak_union", (x, y, z | w))]
            if ci(x, y, z | w).holds and ci(x, w, z).holds:
                fired.append(("contraction", (x, y | w, z)))
            if ci(x, w, z | y).holds and ci(x, y, z | w).holds:
                fired.append(("intersection", (x, y | w, z)))
        for axiom, query in fired:
            c = counts[axiom]
            c["fired"] += 1
            if axiom == "intersection" and not positive:
                c["gated"] += 1
                continue
            rep = ci(*query)
            ok = rep.max_violation <= 10.0 * eps
            c["passed" if ok else "failed"] += 1
            if not ok and (axiom not in worst or rep.max_violation > worst[axiom][0].max_violation):
                worst[axiom] = rep, f"X={sorted(x)} Y={sorted(y)} Z={sorted(z)} W={sorted(w)}"

    checks: list[CheckResult] = []
    for axiom, detail in counts.items():
        if axiom not in worst:
            checks.append(CheckResult(axiom, True, detail=detail))
            continue
        rep, detail["counterexample"] = worst[axiom]
        checks.append(CheckResult(axiom, False, rep.max_violation, rep.witness, detail=detail))
    return AuditReport("graphoid audit", tuple(checks))


def random_conditional_tables(g: Dag, rng: np.random.Generator) -> list[ConditionalTable]:
    """One conditional table per node, each slice drawn uniformly from the
    probability simplex (normalized unit-exponential draws). Iteration
    follows declaration order, so the output is a function of the
    generator state alone. A table over more than MAX_TABLE_CELLS cells is
    refused before it is drawn."""
    out = []
    for v in g.names:
        parents = g.ordered_parents(v)
        shape = tuple(g.cardinality(u) for u in parents) + (g.cardinality(v),)
        _check_cells(shape)
        draws = rng.exponential(1.0, size=shape)
        out.append(ConditionalTable(v, parents, draws / draws.sum(axis=-1, keepdims=True)))
    return out


def random_compatible(g: Dag, seed: int) -> JointTable:
    """A random joint distribution compatible with ``g``, deterministic per seed."""
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    return joint_from_tables(g, random_conditional_tables(g, rng))


# --- distribution file format -----------------------------------------------

def _rows(table: np.ndarray, zeros: bool) -> list[str]:
    """One ``values… probability`` line per cell of ``table`` in row-major order,
    to 17 significant digits; zero cells only when ``zeros`` is set."""
    cells = itertools.product(*(map(str, range(n)) for n in table.shape))
    return [f"{' '.join(values)} {prob:.17g}"
            for values, prob in zip(cells, table.ravel().tolist()) if zeros or prob]


def format_distribution(p: JointTable) -> str:
    """Serialize: a ``vars`` header, then one nonzero assignment per line."""
    header = "vars " + " ".join(f"{n}:{c}" for n, c in p.variables)
    return "\n".join([header, *_rows(p.probabilities, False)]) + "\n"


def _read_table(lines: Iterable[tuple[int, list[str]]], variables: Sequence[tuple[str, int]],
                what: str, axes: tuple[int, ...] | None = None,
                complete: bool = False) -> np.ndarray:
    """The table the rows of a table file give, each slice over ``axes``
    (the whole table when None) gated at 1e-9 and divided by its sum.

    A row is one value per variable, in the order of ``variables``, then
    a probability. A row fails on its token count, an unparsable token, a
    value out of its variable's range, a non-finite or negative
    probability, or an assignment seen before. A cell without a row is
    zero, or with ``complete`` set a fault, raised before the gate.
    """
    table = np.zeros(tuple(c for _, c in variables))
    seen: set[tuple[int, ...]] = set()
    for lineno, tokens in lines:
        if len(tokens) != len(variables) + 1:
            raise GraphError(f"line {lineno}: expected {len(variables)} values and a probability")
        try:
            values = tuple(int(t) for t in tokens[:-1])
            prob = float(tokens[-1])
        except ValueError:
            raise GraphError(f"line {lineno}: malformed row") from None
        for v, (name, card) in zip(values, variables):
            if not 0 <= v < card:
                span = "0 or 1" if card == 2 else f"0 to {card - 1}"
                raise GraphError(
                    f"line {lineno}: value {v} out of range for {name!r}, must be {span}")
        if not math.isfinite(prob):
            raise GraphError(f"line {lineno}: probability must be finite")
        if prob < 0:
            raise GraphError(f"line {lineno}: negative probability")
        if values in seen:
            raise GraphError(f"line {lineno}: duplicate assignment")
        seen.add(values)
        table[values] = prob
    if complete and len(seen) < table.size:
        raise GraphError(f"{what} is missing assignments")
    return table / _stochastic(table, what, axes=axes, tol=1e-9).sum(axis=axes, keepdims=True)


def parse_distribution(text: str) -> JointTable:
    """Parse the distribution file format; omitted assignments are zero.

    The entry sum must land within 1e-9 of 1; the table is then
    renormalized so downstream arithmetic sees an exact distribution.
    """
    lines = _directive_lines(text)
    first = next(lines, None)
    if first is None:
        raise GraphError("missing 'vars' header")
    lineno, tokens = first
    if tokens[0] != "vars":
        raise GraphError(f"line {lineno}: expected 'vars' header")
    variables = []
    for tok in tokens[1:]:
        name, colon, card_word = tok.partition(":")
        if not colon:
            raise GraphError(f"line {lineno}: expected name:cardinality, got {tok!r}")
        try:
            variables.append((name, int(card_word)))
        except ValueError:
            raise GraphError(f"line {lineno}: bad cardinality in {tok!r}") from None
    if not variables:
        raise GraphError(f"line {lineno}: empty variable list")
    try:
        declared = _declared(variables)
    except GraphError as exc:
        raise GraphError(f"line {lineno}: {exc}") from None
    return JointTable(declared, _read_table(lines, declared, "distribution"))
