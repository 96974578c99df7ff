"""Output checks, run outside the timed window.

Each ``check_<workload>(inp, record, ctx)`` returns ``None`` when the
operation's output is right and a one-line reason when it is wrong. The
oracles here do not reuse the library's own deciders: d-separation comes
from ``networkx.is_d_separator``, per-path rules and the CHSH facet sweep
are written out again below, and graphs are re-read from their text.
"""

from __future__ import annotations

import io
import math
import os
import re
from contextlib import redirect_stderr, redirect_stdout

import networkx as nx

EPS = 1e-9  # the library's default tolerance, which every benchmark call uses


def read_dag(text):
    """(networkx DiGraph, kind by node) from the DAG file format."""
    g = nx.DiGraph()
    kinds = {}
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "node":
            name = tokens[1]
            kinds[name] = tokens[2] if len(tokens) == 4 else "outcome"
            g.add_node(name)
        else:
            g.add_edge(tokens[1], tokens[3])
    return g, kinds


def read_path(witness):
    """Nodes and edge directions (True for '->') of a rendered path."""
    parts = re.split(r"(->|<-)", witness)
    return parts[0::2], [arrow == "->" for arrow in parts[1::2]]


def path_error(g, nodes, forward, xs, ys):
    if len(nodes) < 2 or len(set(nodes)) != len(nodes):
        return f"witness {nodes} is not a simple path"
    if nodes[0] not in xs or nodes[-1] not in ys:
        return f"witness {nodes} does not run from X to Y"
    for a, fwd, b in zip(nodes, forward, nodes[1:]):
        if not g.has_edge(*((a, b) if fwd else (b, a))):
            return f"witness step {a}{'->' if fwd else '<-'}{b} is not an edge"
    return None


def colliders(nodes, forward):
    return [nodes[i] for i in range(1, len(nodes) - 1) if forward[i - 1] and not forward[i]]


def d_active(g, nodes, forward, z):
    """Classical rule: no non-collider in Z, every collider in An(Z) or Z."""
    hit = set(colliders(nodes, forward))
    for m in nodes[1:-1]:
        if m in hit:
            if m not in z and not (nx.descendants(g, m) & z):
                return False
        elif m in z:
            return False
    return True


def q_active(g, kinds, nodes, forward, z):
    """Typed rule: endpoint clauses (i)/(ii) and collider clause (iii) all fail."""
    z_out = {m for m in z if kinds[m] == "outcome"}

    def reaches(v):
        return bool(nx.descendants(g, v) & z_out)

    u, v = nodes[0], nodes[-1]
    ku, kv = kinds[u], kinds[v]
    if ku == kv == "setting":
        if not reaches(u) or not reaches(v):
            return False
    elif "setting" in (ku, kv):
        s, o = (u, v) if ku == "setting" else (v, u)
        if o not in nx.descendants(g, s) and not reaches(s):
            return False
    return all(m in z_out or reaches(m) for m in colliders(nodes, forward))


def check_separation(g, kinds, x, y, z, d_sep, d_wit, q_sep, q_wit):
    xs, ys, zs = set(x), set(y), set(z)
    if d_sep != nx.is_d_separator(g, xs, ys, zs):
        return f"d-verdict {d_sep} disagrees with networkx"
    for label, sep, wit, active in (
        ("d", d_sep, d_wit, lambda n, f: d_active(g, n, f, zs)),
        ("q", q_sep, q_wit, lambda n, f: q_active(g, kinds, n, f, zs)),
    ):
        if sep:
            if wit:
                return f"{label}-separated answer carries a witness"
            continue
        if not wit:
            return f"{label}-connected answer has no witness"
        nodes, forward = read_path(wit)
        err = path_error(g, nodes, forward, xs, ys)
        if err:
            return f"{label}: {err}"
        if not active(nodes, forward):
            return f"{label}-witness {wit} is blocked under its own rule"
    return None


def check_sep_queries(inp, rec, ctx):
    text, x, y, z = inp
    g, kinds = read_dag(text)
    return check_separation(g, kinds, x, y, z, *rec)


def facet_values(text):
    """The 8 CHSH variants, recomputed from the behavior file text."""
    p = {}
    for line in text.splitlines():
        a, b, x, y, prob = line.split()
        p[int(a), int(b), int(x), int(y)] = float(prob)
    return _facets({(x, y): sum((-1) ** (a ^ b) * p[a, b, x, y] for a in (0, 1) for b in (0, 1))
                    / sum(p[a, b, x, y] for a in (0, 1) for b in (0, 1))
                    for x in (0, 1) for y in (0, 1)})


def _facets(e):
    """Variant v < 4 negates one correlator, at (1,1), (1,0), (0,1), (0,0);
    variants 4..7 are the global negations of 0..3."""
    out = [sum(-e[k] if k == neg else e[k] for k in e)
           for neg in ((1, 1), (1, 0), (0, 1), (0, 0))]
    return out + [-s for s in out]


def check_bell_behaviors(inp, rec, ctx):
    kind, param, text = inp
    facets = facet_values(text)
    if max(abs(a - b) for a, b in zip(facets, rec["chsh"])) > 1e-12:
        return "CHSH values differ from the facet sweep"
    if not rec["nosig"] or not rec["qcc"]:
        return "a no-signalling behavior failed the no-signalling or outcome audit"
    local_by_facets = max(facets) <= 2.0 + EPS
    if rec["local"] != local_by_facets:
        return f"membership says local={rec['local']}, facet sweep says {local_by_facets}"
    if kind == "lhv":
        truth = True
    elif kind == "pr-noise":
        truth = param <= 0.5
    else:
        truth = local_by_facets
    if rec["local"] != truth:
        return f"{kind} ({param!r}): membership says local={rec['local']}, truth is {truth}"
    if rec["local"] and not rec["rebuilt"] <= 1e-8:
        return f"local model misses the behavior by {rec['rebuilt']!r}"
    return None


def expected_code(argv, cwd):
    """Exit status implied by the library's own verdict for one CLI call."""
    from causalbell import bell, distributions, graph, separation

    def read(name):
        with open(os.path.join(cwd, name), encoding="utf-8") as fh:
            return fh.read()

    def flag(name):
        return argv[argv.index(name) + 1]

    verb = argv[0]
    if verb in ("dsep", "qsep"):
        g = graph.parse_dag(read(argv[1]))
        q = graph.CondQuery(*(filter(None, flag(f).split(",")) for f in ("--x", "--y", "--z")))
        decide = separation.d_separated if verb == "dsep" else separation.q_separated
        return 0 if decide(g, q).separated else 1
    if verb == "compare":
        return 1 if separation.compare_criteria(graph.parse_dag(read(argv[1]))).disagreements else 0
    if verb in ("compat", "markov", "rpcc"):
        g = graph.parse_dag(read(argv[1]))
        p = distributions.parse_distribution(read(argv[2]))
        if verb == "rpcc":
            verdict = distributions.reichenbach_check(p, g, flag("--x"), flag("--y")).verdict
            return 1 if verdict == distributions.VIOLATES_RPCC else 0
        audit = distributions.compatible if verb == "compat" else distributions.causal_markov_check
        return 0 if audit(p, g).passed else 1
    if verb == "graphoid":
        p = distributions.parse_distribution(read(argv[1]))
        report = distributions.graphoid_audit(p, trials=int(flag("--trials")), seed=int(flag("--seed")))
        return 0 if report.passed else 1
    if verb == "gen":
        return 0
    b = bell.parse_behavior(read(argv[1]))
    if verb == "bell-chsh":
        return 1 if max(bell.chsh_value(b, v) for v in range(8)) > 2.0 + EPS else 0
    if verb == "bell-member":
        return 0 if bell.lhv_membership(b).local else 1
    report = bell.no_signalling_check(b) if verb == "bell-nosig" else bell.quantum_causality_audit(b)
    return 0 if report.passed else 1


def run_cli_in_process(argv, cwd):
    """The same call as a CLI child, made in this process: (code, stdout)."""
    from causalbell import cli

    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(list(argv))
    finally:
        os.chdir(here)
    return code, out.getvalue()


def check_cli(argv, rec, ctx):
    cwd = ctx["workdir"]
    want = expected_code(argv, cwd)
    if rec["code"] != want:
        return f"exit {rec['code']} but the library verdict gives {want}: {rec['stderr'].strip()}"
    code, stdout = run_cli_in_process(argv, cwd)
    if (code, stdout) != (rec["code"], rec["stdout"]):
        return "stdout or exit status differs from the same call made in-process"
    if argv[:2] == ["gen", "singlet"]:
        angles = [float(a) for a in argv[3].split(",")]
        want_facets = _facets({(x, y): -math.cos(angles[x] - angles[2 + y])
                               for x in (0, 1) for y in (0, 1)})
        if not all(math.isclose(a, b, abs_tol=1e-12)
                   for a, b in zip(facet_values(stdout), want_facets)):
            return "generated singlet has the wrong CHSH values"
    return None


CHECKS = {
    "sep-queries": check_sep_queries,
    "bell-behaviors": check_bell_behaviors,
    "cli": check_cli,
}
