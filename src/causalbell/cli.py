"""Batch command-line front end.

Exit status carries the verdict: 0 for the affirmative answer
(separated / holds / local / pass), 1 for the negative answer, 2 for
usage or input problems. All randomized commands require an explicit
seed and reports are byte-stable across runs for equal inputs.

Only the graph layers load with this module. The handlers that need the
numpy-backed `bell` or `distributions` layer import it themselves, so
`dsep`, `qsep` and `compare` never import numpy.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Callable, TypeVar

from . import separation
from .graph import CondQuery, GraphError, parse_dag

PASS = 0
FAIL = 1
USAGE = 2

_T = TypeVar("_T")


def _node_list(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalbell",
        description="causal-network and two-party-correlation analyses over text files",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_eps(p):
        p.add_argument("--eps", type=float, default=1e-9, help="tolerance (default 1e-9)")

    def add_sep(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("dag", help="DAG file")
        p.add_argument("--x", required=True, help="comma-separated node list")
        p.add_argument("--y", required=True, help="comma-separated node list")
        p.add_argument("--z", default="", help="comma-separated node list, may be empty")
        return p

    add_sep("dsep", "classical separation query")
    add_sep("qsep", "typed setting/outcome separation query")

    p = sub.add_parser("compare", help="tabulate both criteria over all small queries")
    p.add_argument("dag")
    p.add_argument("--csv", action="store_true", help="emit comma-separated rows")

    for name, help_text in (
        ("compat", "graph compatibility audit"),
        ("markov", "parent screening audit"),
        ("complete", "ancestor screening audit"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("dag")
        p.add_argument("dist", help="distribution file")
        add_eps(p)

    p = sub.add_parser("rpcc", help="common-cause screening classification")
    p.add_argument("dag")
    p.add_argument("dist")
    p.add_argument("--x", required=True, help="one node")
    p.add_argument("--y", required=True, help="one node")
    add_eps(p)

    p = sub.add_parser("graphoid", help="randomized closure-axiom audit")
    p.add_argument("dist")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    add_eps(p)

    p = sub.add_parser("bell-chsh", help="evaluate the correlator facets")
    p.add_argument("behavior")
    p.add_argument("--variant", type=int, default=None, help="single variant 0..7")
    add_eps(p)

    p = sub.add_parser("bell-member", help="local-set membership")
    p.add_argument("behavior")
    add_eps(p)

    p = sub.add_parser("bell-nosig", help="no-signalling audit")
    p.add_argument("behavior")
    add_eps(p)

    p = sub.add_parser("bell-qcc", help="outcome-independence audit")
    p.add_argument("behavior")
    add_eps(p)

    p = sub.add_parser("gen", help="write a canonical input file")
    p.add_argument("kind", choices=["bell-dag", "singlet", "pr-box", "random-lhv",
                                    "random-compatible"])
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--angles", default=None, help="four comma-separated radians")
    p.add_argument("--lambda-card", type=int, default=None)
    p.add_argument("--dag", default=None, help="DAG file (random-compatible)")
    return parser


def _validate_flags(args: argparse.Namespace) -> None:
    eps = getattr(args, "eps", None)
    if eps is not None and not (0 < eps < math.inf):
        raise GraphError(f"tolerance must be positive and finite, got {eps!r}")
    trials = getattr(args, "trials", None)
    if trials is not None and trials <= 0:
        raise GraphError(f"trials must be positive, got {trials}")
    variant = getattr(args, "variant", None)
    if variant is not None and not 0 <= variant <= 7:
        raise GraphError(f"variant must be in 0..7, got {variant}")
    lambda_card = getattr(args, "lambda_card", None)
    if lambda_card is not None and lambda_card < 1:
        raise GraphError("lambda cardinality must be positive")
    if args.verb == "gen":
        if args.kind in ("random-lhv", "random-compatible") and args.seed is None:
            raise GraphError(f"gen {args.kind} requires --seed")
        if args.kind == "random-compatible" and args.dag is None:
            raise GraphError("gen random-compatible requires --dag")
        if args.angles is not None:
            _parse_angles(args.angles)


def _parse_angles(raw: str) -> tuple[float, float, float, float]:
    parts = raw.split(",")
    if len(parts) != 4:
        raise GraphError(f"--angles needs four comma-separated radians, got {len(parts)}")
    try:
        a, b, c, d = (float(p) for p in parts)
    except ValueError:
        raise GraphError(f"--angles: malformed number in {raw!r}") from None
    if not all(map(math.isfinite, (a, b, c, d))):
        raise GraphError(f"--angles must be finite, got {raw!r}")
    return a, b, c, d


def _load(parse: Callable[[str], _T], path: str) -> _T:
    """``parse`` applied to the file's text; errors name the path."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise GraphError(f"cannot read {path}: {exc.strerror or exc}") from None
    except GraphError as exc:
        raise GraphError(f"{path}: {exc}") from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise GraphError(f"cannot write {out}: {exc.strerror or exc}") from None


def _single_node(raw: str, flag: str) -> str:
    nodes = _node_list(raw)
    if len(nodes) != 1:
        raise GraphError(f"{flag} takes exactly one node, got {nodes}")
    return nodes[0]


def _cmd_separation(args: argparse.Namespace) -> int:
    g = _load(parse_dag, args.dag)
    query = CondQuery(_node_list(args.x), _node_list(args.y), _node_list(args.z))
    decide = separation.d_separated if args.verb == "dsep" else separation.q_separated
    verdict = decide(g, query)
    if verdict.separated:
        print("separated")
        return PASS
    print("not separated")
    print(f"witness: {verdict.witness}")
    return FAIL


def _cmd_compare(args: argparse.Namespace) -> int:
    g = _load(parse_dag, args.dag)
    report = separation.compare_criteria(g)
    sys.stdout.write(report.to_csv() if args.csv else report.to_text())
    return PASS if not report.disagreements else FAIL


def _cmd_dist_audit(args: argparse.Namespace) -> int:
    from . import distributions

    g = _load(parse_dag, args.dag)
    p = _load(distributions.parse_distribution, args.dist)
    fn = {
        "compat": distributions.compatible,
        "markov": distributions.causal_markov_check,
        "complete": distributions.causal_completeness_check,
    }[args.verb]
    report = fn(p, g, args.eps)
    sys.stdout.write(report.to_text())
    return PASS if report.passed else FAIL


def _cmd_rpcc(args: argparse.Namespace) -> int:
    from . import distributions

    g = _load(parse_dag, args.dag)
    p = _load(distributions.parse_distribution, args.dist)
    report = distributions.reichenbach_check(
        p, g, _single_node(args.x, "--x"), _single_node(args.y, "--y"), args.eps
    )
    sys.stdout.write(report.to_text())
    return FAIL if report.verdict == distributions.VIOLATES_RPCC else PASS


def _cmd_graphoid(args: argparse.Namespace) -> int:
    from . import distributions

    p = _load(distributions.parse_distribution, args.dist)
    report = distributions.graphoid_audit(p, args.eps, args.trials, args.seed)
    sys.stdout.write(report.to_text())
    return PASS if report.passed else FAIL


def _cmd_bell_chsh(args: argparse.Namespace) -> int:
    from . import bell

    b = _load(bell.parse_behavior, args.behavior)
    variants = range(8) if args.variant is None else [args.variant]
    worst = -math.inf
    for v in variants:
        value = bell.chsh_value(b, v)
        worst = max(worst, value)
        print(f"variant {v}: S = {value:.9f}")
    return FAIL if worst > 2.0 + args.eps else PASS


def _cmd_bell_member(args: argparse.Namespace) -> int:
    from . import bell

    b = _load(bell.parse_behavior, args.behavior)
    verdict = bell.lhv_membership(b, args.eps)
    sys.stdout.write(verdict.to_text())
    return PASS if verdict.local else FAIL


def _cmd_bell_nosig(args: argparse.Namespace) -> int:
    from . import bell

    b = _load(bell.parse_behavior, args.behavior)
    report = bell.no_signalling_check(b, args.eps)
    sys.stdout.write(report.to_text())
    return PASS if report.passed else FAIL


def _cmd_bell_qcc(args: argparse.Namespace) -> int:
    from . import bell

    b = _load(bell.parse_behavior, args.behavior)
    report = bell.quantum_causality_audit(b, args.eps)
    sys.stdout.write(report.to_text())
    return PASS if report.passed else FAIL


def _cmd_gen(args: argparse.Namespace) -> int:
    from . import bell, distributions

    lambda_card = bell.DEFAULT_LAMBDA_CARD if args.lambda_card is None else args.lambda_card
    if args.kind == "bell-dag":
        text = bell.bell_dag(lambda_card).to_text()
    elif args.kind == "singlet":
        angles = bell.CHSH_ANGLES if args.angles is None else _parse_angles(args.angles)
        text = bell.format_behavior(bell.singlet_behavior(*angles))
    elif args.kind == "pr-box":
        text = bell.format_behavior(bell.pr_box())
    elif args.kind == "random-lhv":
        model = bell.random_lhv(args.seed, lambda_card)
        text = bell.format_behavior(bell.behavior_from_lhv(model))
    else:  # random-compatible
        g = _load(parse_dag, args.dag)
        text = distributions.format_distribution(distributions.random_compatible(g, args.seed))
    _emit(text, args.out)
    return PASS


_COMMANDS = {
    "dsep": _cmd_separation,
    "qsep": _cmd_separation,
    "compare": _cmd_compare,
    "compat": _cmd_dist_audit,
    "markov": _cmd_dist_audit,
    "complete": _cmd_dist_audit,
    "rpcc": _cmd_rpcc,
    "graphoid": _cmd_graphoid,
    "bell-chsh": _cmd_bell_chsh,
    "bell-member": _cmd_bell_member,
    "bell-nosig": _cmd_bell_nosig,
    "bell-qcc": _cmd_bell_qcc,
    "gen": _cmd_gen,
}


def run(argv: list[str]) -> int:
    """Parse, validate flags, then dispatch; returns the exit status."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else int(exc.code or 0)
    try:
        _validate_flags(args)
        return _COMMANDS[args.verb](args)
    except (GraphError, KeyError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return USAGE
    except Exception as exc:  # a fault of the program is never a verdict
        print(f"internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
