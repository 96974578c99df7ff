"""Batch command-line front end.

Exit status carries the verdict: 0 for the affirmative answer
(separated / holds / local / pass), 1 for the negative answer, 2 for
usage or input problems. All randomized commands require an explicit
seed and reports are byte-stable across runs for equal inputs.

Each verb is declared once, by one `verb(...)` call in `_parser()`: its
subparser, input files, own flags, `--eps` when it takes a tolerance, and
its handler, bound there to the library call it makes. `run` applies the
library's rules for `--eps`, `--seed` and `--lambda-card` before any file
is read, and `gen` checks its own flags before it reads `--dag`; every
other rule is the library's, raised with its message once the inputs are
read. A handler loads its inputs with `_load` and hands the report's text
and verdict to `_verdict`, which writes the text and returns the exit
status.

Only the graph layers load with this module. A handler bound to the
numpy-backed `bell` or `distributions` layer names its call and imports
the module when it runs, so `dsep`, `qsep` and `compare` never import
numpy.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import partial
from pathlib import Path
from typing import Callable, TypeVar

from . import separation
from .graph import (DEFAULT_LAMBDA_CARD, CondQuery, GraphError, _check_lambda_card, bell_dag,
                    parse_dag)
from .report import _check_eps, _check_seed

PASS = 0
FAIL = 1
USAGE = 2

_T = TypeVar("_T")


def _node_list(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


_INPUT_HELP = {"dag": "DAG file", "dist": "distribution file", "behavior": "behavior file"}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalbell",
        description="causal-network and two-party-correlation analyses over text files",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, help_text, handler, *inputs, eps=False, flags=None):
        """Declare a verb: its input files, its own ``flags`` (argument name
        to ``add_argument`` keywords), then ``--eps``, and its handler."""
        p = sub.add_parser(name, help=help_text)
        for key in inputs:
            p.add_argument(key, help=_INPUT_HELP[key])
        for flag, kwargs in (flags or {}).items():
            p.add_argument(flag, **kwargs)
        if eps:
            p.add_argument("--eps", type=float, default=1e-9, help="tolerance (default 1e-9)")
        p.set_defaults(run=handler)

    nodes = {"required": True, "help": "comma-separated node list"}
    sep_flags = {"--x": nodes, "--y": nodes,
                 "--z": {"default": "", "help": "comma-separated node list, may be empty"}}
    verb("dsep", "classical separation query", partial(_cmd_separation, separation.d_separated),
         "dag", flags=sep_flags)
    verb("qsep", "typed setting/outcome separation query",
         partial(_cmd_separation, separation.q_separated), "dag", flags=sep_flags)
    verb("compare", "tabulate both criteria over all small queries", _cmd_compare, "dag",
         flags={"--csv": {"action": "store_true", "help": "emit comma-separated rows"}})
    verb("compat", "graph compatibility audit", partial(_cmd_dist_audit, "compatible"),
         "dag", "dist", eps=True)
    verb("markov", "parent screening audit", partial(_cmd_dist_audit, "causal_markov_check"),
         "dag", "dist", eps=True)
    verb("complete", "ancestor screening audit",
         partial(_cmd_dist_audit, "causal_completeness_check"), "dag", "dist", eps=True)
    node = {"required": True, "help": "one node"}
    verb("rpcc", "common-cause screening classification", _cmd_rpcc, "dag", "dist", eps=True,
         flags={"--x": node, "--y": node})
    verb("graphoid", "randomized closure-axiom audit", _cmd_graphoid, "dist", eps=True,
         flags={"--trials": {"type": int, "required": True},
                "--seed": {"type": int, "required": True}})
    verb("bell-chsh", "evaluate the correlator facets", _cmd_bell_chsh, "behavior", eps=True,
         flags={"--variant": {"type": int, "default": None, "help": "single variant 0..7"}})
    verb("bell-member", "local-set membership", _cmd_bell_member, "behavior", eps=True)
    verb("bell-nosig", "no-signalling audit", partial(_cmd_behavior_audit, "no_signalling_check"),
         "behavior", eps=True)
    verb("bell-qcc", "outcome-independence audit",
         partial(_cmd_behavior_audit, "quantum_causality_audit"), "behavior", eps=True)
    verb("gen", "write a canonical input file", _cmd_gen, flags={
        "kind": {"choices": ["bell-dag", "singlet", "pr-box", "random-lhv",
                             "random-compatible"]},
        "--out": {"default": None, "help": "output path (default stdout)"},
        "--seed": {"type": int, "default": None},
        "--angles": {"default": None, "help": "four comma-separated radians"},
        "--lambda-card": {"type": int, "default": None},
        "--dag": {"default": None, "help": "DAG file (random-compatible)"},
    })
    return parser


def _validate_flags(args: argparse.Namespace) -> None:
    """The flag rules checked before any file is read."""
    if hasattr(args, "eps"):
        _check_eps(args.eps)
    if getattr(args, "seed", None) is not None:
        _check_seed(args.seed)
    if getattr(args, "lambda_card", None) is not None:
        _check_lambda_card(args.lambda_card)


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


def _verdict(text: str, affirmative: bool) -> int:
    """Write a verb's report to stdout; the exit status is the verdict."""
    sys.stdout.write(text)
    return PASS if affirmative else FAIL


def _cmd_separation(decide: Callable, args: argparse.Namespace) -> int:
    g = _load(parse_dag, args.dag)
    query = CondQuery(_node_list(args.x), _node_list(args.y), _node_list(args.z))
    verdict = decide(g, query)
    text = "separated\n" if verdict.separated else f"not separated\nwitness: {verdict.witness}\n"
    return _verdict(text, verdict.separated)


def _cmd_compare(args: argparse.Namespace) -> int:
    g = _load(parse_dag, args.dag)
    report = separation.compare_criteria(g)
    return _verdict(report.to_csv() if args.csv else report.to_text(), not report.disagreements)


def _cmd_dist_audit(audit: str, args: argparse.Namespace) -> int:
    from . import distributions

    g = _load(parse_dag, args.dag)
    p = _load(distributions.parse_distribution, args.dist)
    report = getattr(distributions, audit)(p, g, args.eps)
    return _verdict(report.to_text(), report.passed)


def _cmd_rpcc(args: argparse.Namespace) -> int:
    from . import distributions

    g = _load(parse_dag, args.dag)
    p = _load(distributions.parse_distribution, args.dist)
    report = distributions.reichenbach_check(
        p, g, _single_node(args.x, "--x"), _single_node(args.y, "--y"), args.eps
    )
    return _verdict(report.to_text(), report.verdict != distributions.VIOLATES_RPCC)


def _cmd_graphoid(args: argparse.Namespace) -> int:
    from . import distributions

    p = _load(distributions.parse_distribution, args.dist)
    report = distributions.graphoid_audit(p, args.eps, args.trials, args.seed)
    return _verdict(report.to_text(), report.passed)


def _cmd_bell_chsh(args: argparse.Namespace) -> int:
    from . import bell

    b = _load(bell.parse_behavior, args.behavior)
    variants = range(8) if args.variant is None else [args.variant]
    values = [bell.chsh_value(b, v) for v in variants]
    text = "".join(f"variant {v}: S = {s:.9f}\n" for v, s in zip(variants, values))
    return _verdict(text, max(values) <= 2.0 + args.eps)


def _cmd_bell_member(args: argparse.Namespace) -> int:
    from . import bell

    b = _load(bell.parse_behavior, args.behavior)
    verdict = bell.lhv_membership(b, args.eps)
    return _verdict(verdict.to_text(), verdict.local)


def _cmd_behavior_audit(audit: str, args: argparse.Namespace) -> int:
    from . import bell

    b = _load(bell.parse_behavior, args.behavior)
    report = getattr(bell, audit)(b, args.eps)
    return _verdict(report.to_text(), report.passed)


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.kind in ("random-lhv", "random-compatible") and args.seed is None:
        raise GraphError(f"gen {args.kind} requires --seed")
    if args.kind == "random-compatible" and args.dag is None:
        raise GraphError("gen random-compatible requires --dag")
    angles = None if args.angles is None else _parse_angles(args.angles)
    lambda_card = DEFAULT_LAMBDA_CARD if args.lambda_card is None else args.lambda_card
    if args.kind == "bell-dag":
        _emit(bell_dag(lambda_card).to_text(), args.out)
        return PASS

    from . import bell, distributions

    if args.kind == "singlet":
        text = bell.format_behavior(bell.singlet_behavior(*(angles or bell.CHSH_ANGLES)))
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


def run(argv: list[str]) -> int:
    """Parse, validate flags, then dispatch; returns the exit status."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else int(exc.code or 0)
    try:
        _validate_flags(args)
        return args.run(args)
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
