"""Two-party binary measurement scenario: local models and their violation.

The scenario has settings X, Y and outcomes A, B, all binary, with one
latent common cause. A behavior is the conditional table P(a,b|x,y). A
local model mixes per-wing response functions over a hidden value; the 16
deterministic strategies are the extreme points, so membership in the
local set is a 16-weight feasibility problem. The complete facet family
for this scenario is the 8-fold symmetry orbit of one correlator
inequality with local bound 2, and the facet check and the feasibility
solve are kept as two independent routes that must agree.

Quantum correlations enter through the closed-form singlet correlator
E(x,y) = -cos(theta_x - phi_y); no state or operator machinery is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (CiReport, JointTable, _check_cells, _read_table, _rows, _simplex_draws,
                            _stochastic, ci_holds)
from .graph import DEFAULT_LAMBDA_CARD, CondQuery, GraphError, _check_lambda_card, _directive_lines, _is_int
from .graph import bell_dag  # noqa: F401  (the scenario's DAG, also public here)
from .report import DEFAULT_EPS, AuditReport, CheckResult, _check_eps, _check_seed
from .simplex import OPTIMAL, solve_lp

# Float slack on the exact bound max S <= 2 + 16 r that ties the facet sweep
# to the feasibility solve's residual r. The simplex takes ratios within
# 1e-10 as ties, so r can fall short of the true residual by about that much
# (up to 8e-10 in S seen at the facet); 1e-8 leaves a tenfold margin.
_BOUND_SLACK = 1e-8

# settings for the maximal singlet violation: theta_x = (0, pi/2), phi_y = (pi/4, -pi/4)
CHSH_ANGLES = (0.0, math.pi / 2, math.pi / 4, -math.pi / 4)

@dataclass(frozen=True)
class Behavior:
    """Conditional table P(a,b|x,y), indexed [a, b, x, y], binary throughout."""

    table: np.ndarray

    def __post_init__(self) -> None:
        table = _stochastic(self.table, "behavior", (2, 2, 2, 2), axes=(0, 1))
        object.__setattr__(self, "table", table)


@dataclass(frozen=True)
class LhvModel:
    """Hidden-value mixture of local response functions.

    ``lambda_weights`` is a distribution over hidden values; ``response_a``
    is P(a|x,lambda) indexed [lambda, x, a] and ``response_b`` is
    P(b|y,lambda) indexed [lambda, y, b].
    """

    lambda_weights: np.ndarray
    response_a: np.ndarray
    response_b: np.ndarray

    def __post_init__(self) -> None:
        if np.ndim(self.lambda_weights) != 1 or np.size(self.lambda_weights) == 0:
            raise GraphError("lambda_weights must be a nonempty vector")
        w = _stochastic(self.lambda_weights, "lambda_weights (a probability vector)")
        shape = (w.size, 2, 2)
        object.__setattr__(self, "lambda_weights", w)
        object.__setattr__(self, "response_a", _stochastic(self.response_a, "response_a", shape, -1))
        object.__setattr__(self, "response_b", _stochastic(self.response_b, "response_b", shape, -1))


def behavior_from_lhv(m: LhvModel) -> Behavior:
    """P(a,b|x,y) = sum_l w(l) P(a|x,l) P(b|y,l)."""
    table = np.einsum("l,lxa,lyb->abxy", m.lambda_weights, m.response_a, m.response_b)
    return Behavior(table)


# _RESPONSES[i, wing, setting, outcome] is 1 where deterministic strategy i
# gives that outcome: i = 4*fa + fb, and bit x of fa is a(x), bit y of fb is b(y).
_RESPONSES = np.eye(2)[
    (np.array([divmod(i, 4) for i in range(16)])[:, :, None] >> np.arange(2)) & 1
]
_RESPONSES.flags.writeable = False

# All 16 deterministic behaviors P(a,b|x,y) on a leading strategy axis.
_DET_TABLES = np.einsum("ixa,iyb->iabxy", _RESPONSES[:, 0], _RESPONSES[:, 1])


def deterministic_strategies() -> list[LhvModel]:
    """The 16 deterministic strategies a = f(x), b = g(y), as point-mass models.

    Strategy index i = 4*fa + fb where bit x of fa is a(x) and bit y of
    fb is b(y).
    """
    return [LhvModel(np.ones(1), r[None, 0], r[None, 1]) for r in _RESPONSES]


def strategy_responses(i: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(a(0), a(1)), (b(0), b(1)) for deterministic strategy ``i``."""
    (a0, a1), (b0, b1) = _RESPONSES[i].argmax(axis=-1).tolist()
    return (a0, a1), (b0, b1)


_SIGN = np.array([[1.0, -1.0], [-1.0, 1.0]])  # (-1)^(a xor b)

# variant v in 0..3 puts the single negative sign at (x, y) =
# (1,1), (1,0), (0,1), (0,0); variants 4..7 are the global negations.
_VARIANT_COEFFS = np.multiply.outer((1.0, -1.0), 1.0 - 2.0 * np.eye(4)[::-1]).reshape(8, 2, 2)
_VARIANT_COEFFS.flags.writeable = False


def correlators(b: Behavior) -> np.ndarray:
    """E(x,y) = sum_ab (-1)^(a xor b) P(a,b|x,y), as a (2, 2) array."""
    return np.einsum("ab,abxy->xy", _SIGN, b.table)


def _facet_value(e: np.ndarray, variant: int) -> float:
    """Facet ``variant``'s signed sum of the correlators ``e``."""
    return float(np.sum(_VARIANT_COEFFS[variant] * e))


def within_local_bound(value: float, eps: float = DEFAULT_EPS) -> bool:
    """The local bound of every facet: a facet value S is local iff S <= 2 + eps."""
    return value <= 2.0 + eps


def chsh_value(b: Behavior, variant: int = 0) -> float:
    """Signed correlator sum for one of the 8 facet variants."""
    if not (_is_int(variant) and 0 <= variant <= 7):
        raise GraphError(f"variant must be an integer in 0..7, got {variant!r}")
    return _facet_value(correlators(b), variant)


def singlet_behavior(theta0: float, theta1: float, phi0: float, phi1: float) -> Behavior:
    """Singlet-statistics behavior for the given analyzer angles.

    P(a,b|x,y) = (1 + (-1)^(a xor b) E(x,y)) / 4 with E(x,y) = -cos(theta_x - phi_y).
    Outcome marginals are exactly one half, so the table never signals.
    """
    angles = (theta0, theta1, phi0, phi1)
    if not all(map(math.isfinite, angles)):
        raise GraphError(f"singlet angles must be finite, got {angles}")
    thetas = (theta0, theta1)
    phis = (phi0, phi1)
    e = np.array([[-math.cos(tx - py) for py in phis] for tx in thetas])
    table = (1.0 + _SIGN[:, :, None, None] * e[None, None, :, :]) / 4.0
    return Behavior(table)


def pr_box() -> Behavior:
    """The extremal no-signalling table: P(a,b|x,y) = 1/2 iff a xor b = x.y."""
    a, b, x, y = np.indices((2, 2, 2, 2))
    return Behavior(np.where(a ^ b == x * y, 0.5, 0.0))


def _signalling_deviations(b: Behavior) -> list[float]:
    """|P(a|x,y=0) - P(a|x,y=1)| over (a, x), then |P(b|x=0,y) - P(b|x=1,y)|
    over (b, y), each in row-major order."""
    marg_a = b.table.sum(axis=1)  # [a, x, y]
    marg_b = b.table.sum(axis=0)  # [b, x, y]
    devs = (marg_a[..., 0] - marg_a[..., 1], marg_b[:, 0] - marg_b[:, 1])
    return np.abs(np.concatenate(devs, axis=None)).tolist()


def no_signalling_check(b: Behavior, eps: float = DEFAULT_EPS) -> AuditReport:
    """Assert each wing's outcome marginal ignores the far setting."""
    _check_eps(eps)
    checks = []
    devs = iter(_signalling_deviations(b))
    for wing, setting, far in (("a", "x", "y"), ("b", "y", "x")):
        for outcome in range(2):
            for s in range(2):
                dev = next(devs)
                checks.append(CheckResult(
                    f"P({wing}={outcome}|{setting}={s}) independent of {far}", dev <= eps, dev,
                    witness=((wing, outcome), (setting, s)) if dev > eps else None,
                ))
    return AuditReport("no-signalling audit", tuple(checks))


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of the local-set membership decision.

    Exactly one of ``model`` (when local) and the violated facet fields
    (when not) is populated. ``residual`` is the best achievable maximum
    entrywise reconstruction error over the local set. A local model mixes
    deterministic strategies: every response row is one-hot, so each hidden
    value is labelled by the strategy it selects.
    """

    local: bool
    model: LhvModel | None
    violated_variant: int | None
    violated_value: float | None
    residual: float

    def __post_init__(self) -> None:
        if self.local and self.model is not None:
            rows = self._responses()
            if not ((rows == 0.0) | (rows == 1.0)).all():
                raise GraphError("a local verdict's model must have one-hot response rows")

    def _responses(self) -> np.ndarray:
        """Response rows indexed [lambda, wing, setting, outcome]."""
        return np.stack((self.model.response_a, self.model.response_b), axis=1)

    def to_text(self) -> str:
        if self.local:
            assert self.model is not None
            lines = ["local"]
            labels = self._responses().argmax(axis=-1).tolist()
            for i, (w, ((a0, a1), (b0, b1))) in enumerate(zip(self.model.lambda_weights, labels)):
                lines.append(
                    f"w[{i:2d}] = {w:.9f}  a(0)={a0} a(1)={a1} b(0)={b0} b(1)={b1}"
                )
            return "\n".join(lines) + "\n"
        return f"not local: variant {self.violated_variant}, S = {self.violated_value:.9f}\n"


# The membership LP's constant parts. Variables are the 16 weights plus the
# error bound t (min t); the rows sandwich each table entry p within t of the
# mixture, d w - t <= p and -d w - t <= -p, and the weights sum to 1.
_MEMBER_A_UB = np.zeros((32, 17))
_MEMBER_A_UB[:16, :16] = _DET_TABLES.reshape(16, 16).T
_MEMBER_A_UB[16:, :16] = -_MEMBER_A_UB[:16, :16]
_MEMBER_A_UB[:, 16] = -1.0
_MEMBER_A_EQ = np.append(np.ones(16), 0.0)[None, :]
_MEMBER_C = np.append(np.zeros(16), 1.0)
for _a in (_MEMBER_A_UB, _MEMBER_A_EQ, _MEMBER_C):
    _a.flags.writeable = False


def _membership_residual(b: Behavior) -> tuple[float, np.ndarray]:
    """Min over mixture weights of the max entrywise error, via one LP."""
    p = b.table.reshape(16)
    result = solve_lp(_MEMBER_C, _MEMBER_A_UB, np.concatenate((p, -p)), _MEMBER_A_EQ, [1.0])
    if result.status != OPTIMAL:
        raise RuntimeError(f"membership solve returned {result.status}")
    weights = np.clip(result.x[:16], 0.0, None)
    weights = weights / weights.sum()
    return float(result.objective), weights


def lhv_membership(b: Behavior, eps: float = DEFAULT_EPS) -> MembershipVerdict:
    """Decide whether the behavior mixes the 16 deterministic strategies.

    The verdict is the facet sweep's: local iff every facet value S is at
    most 2 + eps. The feasibility solve independently supplies the model
    and the residual r, the least maximum entrywise error of any mixture.
    Each facet has 16 unit coefficients, so max S <= 2 + 16 r holds exactly;
    the two routes are checked against that bound, with a float slack of
    1e-8, and a breach is an internal error, never a verdict.
    """
    _check_eps(eps)
    worst = max(_signalling_deviations(b))
    if worst > eps:
        raise GraphError(
            f"membership is posed inside the no-signalling set "
            f"(worst marginal deviation {worst:.3g} > eps {eps:.3g})"
        )
    e = correlators(b)
    values = [_facet_value(e, v) for v in range(8)]
    best_variant = int(np.argmax(values))
    residual, weights = _membership_residual(b)
    if not within_local_bound(values[best_variant], 16.0 * residual + _BOUND_SLACK):
        raise RuntimeError(
            "internal inconsistency: facet value exceeds the feasibility solve's bound "
            f"(residual={residual!r}, max facet={values[best_variant]!r})"
        )
    if within_local_bound(values[best_variant], eps):
        model = LhvModel(weights, _RESPONSES[:, 0], _RESPONSES[:, 1])
        return MembershipVerdict(True, model, None, None, residual)
    return MembershipVerdict(False, None, best_variant, values[best_variant], residual)


# the variables of a behavior table's axes, in axis order
_BEHAVIOR_AXES = (("A", 2), ("B", 2), ("X", 2), ("Y", 2))


def behavior_joint(b: Behavior) -> JointTable:
    """Joint over (A, B, X, Y) with uniform setting priors."""
    return JointTable(_BEHAVIOR_AXES, b.table * 0.25)


def lhv_joint_table(m: LhvModel) -> JointTable:
    """Joint over (A, B, X, Y, Lambda) with uniform setting priors."""
    probs = 0.25 * np.einsum(
        "l,lxa,lyb->abxyl", m.lambda_weights, m.response_a, m.response_b
    )
    lam = m.lambda_weights.size
    return JointTable((*_BEHAVIOR_AXES, ("Lambda", lam)), probs)


def quantum_causality_audit(b: Behavior, eps: float = DEFAULT_EPS) -> AuditReport:
    """Check the outcome-independence pattern the typed criterion demands.

    Under uniform setting priors the joint must satisfy (A indep Y),
    (B indep X) and (X indep Y) unconditionally. (A indep B) is exempt,
    the two outcomes share the hidden common cause, so its status is
    reported but never asserted.
    """
    joint = behavior_joint(b)

    def check(x: str, y: str, required: bool) -> CheckResult:
        rep: CiReport = ci_holds(joint, CondQuery({x}, {y}), eps)
        name = f"{x} _||_ {y} | {{}}"
        detail = None if required else {"asserted": False, "reason": "shared common cause"}
        return CheckResult(name, rep.holds, rep.max_violation, rep.witness,
                           required=required, detail=detail)

    checks = (
        check("A", "Y", True),
        check("B", "X", True),
        check("X", "Y", True),
        check("A", "B", False),
    )
    return AuditReport("outcome-independence audit", checks)


def random_lhv(seed: int, lambda_card: int = DEFAULT_LAMBDA_CARD) -> LhvModel:
    """Random local model, every slice uniform on the simplex; per-seed stable."""
    _check_seed(seed)
    _check_lambda_card(lambda_card)
    _check_cells((lambda_card, 2, 2))
    rng = np.random.default_rng(seed)
    w = _simplex_draws(rng, (lambda_card,))
    ra = _simplex_draws(rng, (lambda_card, 2, 2))
    rb = _simplex_draws(rng, (lambda_card, 2, 2))
    return LhvModel(w, ra, rb)


# --- behavior file format -----------------------------------------------------

def format_behavior(b: Behavior) -> str:
    """16 lines ``a b x y prob`` in row-major (a, b, x, y) order."""
    return "\n".join(_rows(b.table, True)) + "\n"


def parse_behavior(text: str) -> Behavior:
    """Parse a behavior file; every one of the 16 assignments must appear once.

    Each setting pair's outcome table must sum to 1 within 1e-9 and is
    then renormalized exactly.
    """
    lines = _directive_lines(text)
    return Behavior(_read_table(lines, _BEHAVIOR_AXES, "behavior file", (0, 1), complete=True))
