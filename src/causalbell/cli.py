"""Batch command-line front end.

Exit status carries the verdict: 0 for the affirmative answer
(separated / holds / local / pass), 1 for the negative answer, 2 for
usage or input problems. All randomized commands require an explicit
seed and reports are byte-stable across runs for equal inputs.

Each verb is declared once, by one `verb(...)` call in `_parser()`: its
subparser, input files, own flags, `--eps` when it takes a tolerance, and
its handler, bound there to the name of the library call it makes. `run`
applies the library's rules for `--eps`, `--seed` and `--lambda-card`
before any file is read, then reads the verb's input files in declaration
order, each with the public parser `_INPUTS` names for it, and calls the
handler with the parsed objects; `gen` checks its own flags before it
reads `--dag`. Every other rule is the library's, raised with its message
once the inputs are read. A handler hands the report's text and verdict to
`_verdict`, which writes the text and returns the exit status.

Every library call goes through the package (`cb.<name>`), whose `_LAZY`
table alone decides which names load numpy, so `dsep`, `qsep`, `compare`
and `gen bell-dag` never import it.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

import causalbell as cb

from .graph import DEFAULT_LAMBDA_CARD, GraphError, _check_lambda_card
from .report import DEFAULT_EPS, _check_eps, _check_seed

PASS = 0
FAIL = 1
USAGE = 2


def _node_list(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


# input key -> (help text, name of the public parser that reads the file)
_INPUTS = {"dag": ("DAG file", "parse_dag"),
           "dist": ("distribution file", "parse_distribution"),
           "behavior": ("behavior file", "parse_behavior")}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalbell",
        description="causal-network and two-party-correlation analyses over text files",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, help_text, handler, *inputs, eps=False, flags=None):
        """Declare a verb: its input files, its own ``flags`` (argument name
        to ``add_argument`` keywords), then ``--eps``, and its handler, which
        takes the arguments and then the parsed inputs."""
        p = sub.add_parser(name, help=help_text)
        for key in inputs:
            p.add_argument(key, help=_INPUTS[key][0])
        for flag, kwargs in (flags or {}).items():
            p.add_argument(flag, **kwargs)
        if eps:
            p.add_argument("--eps", type=float, default=DEFAULT_EPS, help="tolerance (default 1e-9)")
        p.set_defaults(run=handler, inputs=inputs)

    nodes = {"required": True, "help": "comma-separated node list"}
    sep_flags = {"--x": nodes, "--y": nodes,
                 "--z": {"default": "", "help": "comma-separated node list, may be empty"}}
    verb("dsep", "classical separation query", partial(_cmd_separation, "d_separated"),
         "dag", flags=sep_flags)
    verb("qsep", "typed setting/outcome separation query",
         partial(_cmd_separation, "q_separated"), "dag", flags=sep_flags)
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
        "--angles": {"default": None, "help": "four comma-separated radians (singlet)"},
        "--lambda-card": {"type": int, "default": DEFAULT_LAMBDA_CARD},
        "--dag": {"default": None, "help": "DAG file (random-compatible)"},
    })
    return parser


def _validate_flags(args: argparse.Namespace) -> None:
    """The flag rules checked before any file is read."""
    if hasattr(args, "eps"):
        _check_eps(args.eps)
    if getattr(args, "seed", None) is not None:
        _check_seed(args.seed)
    if hasattr(args, "lambda_card"):
        _check_lambda_card(args.lambda_card)


def _parse_angles(raw: str) -> tuple[float, float, float, float]:
    parts = raw.split(",")
    if len(parts) != 4:
        raise GraphError(f"--angles needs four comma-separated radians, got {len(parts)}")
    try:
        a, b, c, d = (float(p) for p in parts)
    except ValueError:
        raise GraphError(f"--angles: malformed number in {raw!r}") from None
    return a, b, c, d


def _load(key: str, path: str):
    """The file at ``path`` read by input ``key``'s public parser; errors name the path."""
    try:
        return getattr(cb, _INPUTS[key][1])(Path(path).read_text(encoding="utf-8"))
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


def _cmd_separation(decide: str, args: argparse.Namespace, g: cb.Dag) -> int:
    query = cb.CondQuery(_node_list(args.x), _node_list(args.y), _node_list(args.z))
    verdict = getattr(cb, decide)(g, query)
    text = "separated\n" if verdict.separated else f"not separated\nwitness: {verdict.witness}\n"
    return _verdict(text, verdict.separated)


def _cmd_compare(args: argparse.Namespace, g: cb.Dag) -> int:
    report = cb.compare_criteria(g)
    return _verdict(report.to_csv() if args.csv else report.to_text(), not report.disagreements)


def _cmd_dist_audit(audit: str, args: argparse.Namespace, g: cb.Dag, p: cb.JointTable) -> int:
    report = getattr(cb, audit)(p, g, args.eps)
    return _verdict(report.to_text(), report.passed)


def _cmd_rpcc(args: argparse.Namespace, g: cb.Dag, p: cb.JointTable) -> int:
    report = cb.reichenbach_check(
        p, g, _single_node(args.x, "--x"), _single_node(args.y, "--y"), args.eps
    )
    return _verdict(report.to_text(), report.verdict != cb.VIOLATES_RPCC)


def _cmd_graphoid(args: argparse.Namespace, p: cb.JointTable) -> int:
    report = cb.graphoid_audit(p, args.eps, args.trials, args.seed)
    return _verdict(report.to_text(), report.passed)


def _cmd_bell_chsh(args: argparse.Namespace, b: cb.Behavior) -> int:
    variants = range(8) if args.variant is None else [args.variant]
    values = [cb.chsh_value(b, v) for v in variants]
    text = "".join(f"variant {v}: S = {s:.9f}\n" for v, s in zip(variants, values))
    return _verdict(text, cb.within_local_bound(max(values), args.eps))


def _cmd_bell_member(args: argparse.Namespace, b: cb.Behavior) -> int:
    verdict = cb.lhv_membership(b, args.eps)
    return _verdict(verdict.to_text(), verdict.local)


def _cmd_behavior_audit(audit: str, args: argparse.Namespace, b: cb.Behavior) -> int:
    report = getattr(cb, audit)(b, args.eps)
    return _verdict(report.to_text(), report.passed)


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.kind in ("random-lhv", "random-compatible") and args.seed is None:
        raise GraphError(f"gen {args.kind} requires --seed")
    if args.kind == "random-compatible" and args.dag is None:
        raise GraphError("gen random-compatible requires --dag")
    if args.kind == "bell-dag":
        text = cb.bell_dag(args.lambda_card).to_text()
    elif args.kind == "singlet":
        angles = cb.CHSH_ANGLES if args.angles is None else _parse_angles(args.angles)
        text = cb.format_behavior(cb.singlet_behavior(*angles))
    elif args.kind == "pr-box":
        text = cb.format_behavior(cb.pr_box())
    elif args.kind == "random-lhv":
        model = cb.random_lhv(args.seed, args.lambda_card)
        text = cb.format_behavior(cb.behavior_from_lhv(model))
    else:  # random-compatible
        text = cb.format_distribution(cb.random_compatible(_load("dag", args.dag), args.seed))
    _emit(text, args.out)
    return PASS


def run(argv: list[str]) -> int:
    """Parse, validate flags, read the verb's inputs, then dispatch; returns the exit status."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else int(exc.code or 0)
    try:
        _validate_flags(args)
        return args.run(args, *(_load(key, getattr(args, key)) for key in args.inputs))
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
