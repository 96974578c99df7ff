"""The benchmark's workloads: seeded input generation and the timed operations.

Every workload is a closed loop with a single client: the next operation
starts only after the previous one has returned. Operations are grouped in
rounds. Round ``r`` of a workload is a pure function of ``(seed, r)``, and a
round holds one operation per input stratum, so every round has the same
mix of sizes and densities; only the random draws inside a stratum change
with the seed. A measured run executes whole rounds, so the mix seen by
every run is the same.

Each workload provides

* ``setup(seed, workdir)`` -- resident state built before the first timed
  operation (this is program work and counts towards ``setup_s``);
* ``inputs(seed, r)`` -- the inputs of round ``r`` (benchmark work, untimed);
* ``op(state, inp)`` -- one timed operation: library calls only, or for
  ``cli`` one child process;
* ``render(inp, raw)`` -- untimed: the program's output text (hashed into
  the run's digest) and a JSON record that ``checks.py`` verifies.

The library is imported lazily so that this module can be imported in a
directory that does not hold the program.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
LAUNCHER = os.path.join(HERE, "launch.py")


# --- shared generators ---------------------------------------------------------

def typed_dag(rng: random.Random, n: int, n_set: int, n_lat: int, m: int):
    """Random typed DAG text with exactly ``m`` edges.

    Settings and latent nodes are roots; outcomes are ordered at random and
    edges run from roots to outcomes or forward along that order. Declaration
    order is shuffled because it steers the library's path enumeration.
    Returns ``(text, names, kinds)``.
    """
    n_out = n - n_set - n_lat
    roots = [f"s{i}" for i in range(n_set)] + [f"u{i}" for i in range(n_lat)]
    outs = [f"o{i}" for i in range(n_out)]
    rng.shuffle(outs)
    candidates = [(r, o) for r in roots for o in outs]
    candidates += [(outs[i], outs[j]) for i in range(n_out) for j in range(i + 1, n_out)]
    edges = rng.sample(candidates, m)
    kinds = {f"s{i}": "setting" for i in range(n_set)}
    kinds.update({f"u{i}": "latent" for i in range(n_lat)})
    kinds.update({o: "outcome" for o in outs})
    decl = list(kinds)
    rng.shuffle(decl)
    lines = [f"node {v} {kinds[v]} {rng.choice((2, 3))}" for v in decl]
    lines += [f"edge {t} -> {h}" for t, h in edges]
    return "\n".join(lines) + "\n", decl, kinds


def edge_count(n: int, n_set: int, n_lat: int, density: float) -> int:
    n_out = n - n_set - n_lat
    return round(density * ((n_set + n_lat) * n_out + n_out * (n_out - 1) // 2))


def random_query(rng: random.Random, names, kinds):
    """Disjoint (X, Y, Z); X and Y avoid latent nodes so both criteria apply."""
    observed = [v for v in names if kinds[v] != "latent"]
    kx = 1 if rng.random() < 0.75 else 2
    ky = 1 if rng.random() < 0.75 else 2
    picked = rng.sample(observed, kx + ky)
    rest = [v for v in names if v not in picked]
    z = rng.sample(rest, rng.randint(0, min(3, len(rest))))
    return picked[:kx], picked[kx:], z


def table_dag(rng: random.Random, n_bin: int, n_tern: int):
    """DAG over binary and ternary outcome nodes, at most three parents each."""
    cards = [2] * n_bin + [3] * n_tern
    rng.shuffle(cards)
    names = [f"v{i}" for i in range(len(cards))]
    lines = [f"node {v} {c}" for v, c in zip(names, cards)]
    for j in range(1, len(names)):
        for i in sorted(rng.sample(range(j), rng.randint(1, min(3, j)))):
            lines.append(f"edge {names[i]} -> {names[j]}")
    return "\n".join(lines) + "\n", names


def _rng(name: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{r}")


# --- sep-queries ---------------------------------------------------------------

class SepQueries:
    """One-off separation queries: every op parses a fresh graph text.

    Strata per round: 8..13 nodes at sparse and medium density, plus one
    dense 10-node graph (the tail, where path enumeration dominates).
    """

    name = "sep-queries"
    prefix_rounds = 300
    tail_pct = 99  # the dense stratum, where path enumeration dominates
    STRATA = [(n, d) for n in range(8, 14) for d in (0.15, 0.3)] + [(10, 0.5)]

    def setup(self, seed, workdir):
        return None

    def inputs(self, seed, r):
        rng = _rng(self.name, seed, r)
        out = []
        for n, density in self.STRATA:
            n_set, n_lat = max(2, n // 4), max(1, n // 5)
            text, names, kinds = typed_dag(rng, n, n_set, n_lat,
                                           edge_count(n, n_set, n_lat, density))
            out.append((text, *random_query(rng, names, kinds)))
        return out

    def op(self, state, inp):
        from causalbell import graph, separation

        text, x, y, z = inp
        g = graph.parse_dag(text)
        q = graph.CondQuery(x, y, z)
        d = separation.d_separated(g, q)
        qv = separation.q_separated(g, q)
        return (d.separated, str(d.witness) if d.witness else "",
                qv.separated, str(qv.witness) if qv.witness else "")

    def render(self, inp, raw):
        return "|".join(map(str, raw)), list(raw)


# --- bell-behaviors ------------------------------------------------------------

class BellBehaviors:
    """Two-wing behaviors: CHSH facets, no-signalling, outcome independence
    and local-set membership (the LP). Per round: singlets at random angles,
    random local models and the PR box mixed with uniform noise."""

    name = "bell-behaviors"
    prefix_rounds = 100
    tail_pct = 90  # p99 here is set by machine hiccups, not by the inputs
    KINDS = ("singlet", "lhv", "pr-noise") * 2

    def setup(self, seed, workdir):
        return None

    def inputs(self, seed, r):
        from causalbell import bell

        rng = _rng(self.name, seed, r)
        out = []
        for kind in self.KINDS:
            if kind == "singlet":
                param = [rng.uniform(0.0, 2 * math.pi) for _ in range(4)]
                b = bell.singlet_behavior(*param)
            elif kind == "lhv":
                param = rng.randrange(2**31)
                b = bell.behavior_from_lhv(bell.random_lhv(param))
            else:
                param = rng.random()
                b = bell.Behavior(param * bell.pr_box().table + (1.0 - param) * 0.25)
            out.append((kind, param, bell.format_behavior(b)))
        return out

    def op(self, state, inp):
        from causalbell import bell

        b = bell.parse_behavior(inp[2])
        chsh = [bell.chsh_value(b, v) for v in range(8)]
        nosig = bell.no_signalling_check(b)
        qcc = bell.quantum_causality_audit(b)
        member = bell.lhv_membership(b)
        texts = [nosig.to_text(), qcc.to_text(), member.to_text()]
        return b, chsh, nosig, qcc, member, texts

    def render(self, inp, raw):
        import numpy as np
        from causalbell import bell

        b, chsh, nosig, qcc, member, texts = raw
        rebuilt = None
        if member.local:
            rebuilt = float(np.abs(bell.behavior_from_lhv(member.model).table - b.table).max())
        record = {"chsh": chsh, "nosig": nosig.passed, "qcc": qcc.passed,
                  "local": member.local, "rebuilt": rebuilt}
        return repr(chsh) + "".join(texts), record


# --- cli -----------------------------------------------------------------------

class Cli:
    """One ``python -m causalbell.cli`` process per op over a fixed verb list.

    Input files are written once per worker; each round draws fresh queries,
    seeds and behavior assignments. The package is not installed, so the
    child runs with ``src`` on ``PYTHONPATH``, in the directory holding the
    input files, which argv names relative to it.
    """

    name = "cli"
    prefix_rounds = 1
    tail_pct = 90
    BEHAVIORS = ("singlet", "pr", "lhv")

    def _fixtures(self, seed):
        rng = _rng(self.name, seed, -1)
        g12 = typed_dag(rng, 12, 3, 2, edge_count(12, 3, 2, 0.3))
        t12 = table_dag(rng, 12, 0)
        angles = [rng.uniform(0.0, 2 * math.pi) for _ in range(4)]
        return g12, t12, rng.randrange(2**31), angles, rng.randrange(2**31)

    def setup(self, seed, workdir):
        from causalbell import bell, distributions, graph

        g12, t12, table_seed, angles, lhv_seed = self._fixtures(seed)
        table = distributions.random_compatible(graph.parse_dag(t12[0]), table_seed)
        files = {
            "bell.dag": bell.bell_dag().to_text(),
            "g12.dag": g12[0],
            "t12.dag": t12[0],
            "t12.dist": distributions.format_distribution(table),
            "singlet.beh": bell.format_behavior(bell.singlet_behavior(*angles)),
            "pr.beh": bell.format_behavior(bell.pr_box()),
            "lhv.beh": bell.format_behavior(bell.behavior_from_lhv(bell.random_lhv(lhv_seed))),
        }
        for key, text in files.items():
            with open(os.path.join(workdir, key), "w", encoding="utf-8") as fh:
                fh.write(text)
        return {"cwd": workdir, "env": child_env(), "trace_dir": None, "traced": 0}

    def inputs(self, seed, r):
        from causalbell import bell

        g12, t12, _, _, _ = self._fixtures(seed)
        b5 = bell.bell_dag()
        graphs = {"bell.dag": (b5.names, {v: b5.kind(v).value for v in b5.names}),
                  "g12.dag": g12[1:]}
        rng = _rng(self.name, seed, r)
        ops = []
        for verb in ("dsep", "qsep"):
            for dag, (names, kinds) in graphs.items():
                x, y, z = random_query(rng, names, kinds)
                ops.append([verb, dag, "--x", ",".join(x), "--y", ",".join(y),
                            "--z", ",".join(z)])
        ops.append(["compare", "bell.dag"])
        ops.append(["compat", "t12.dag", "t12.dist"])
        ops.append(["markov", "t12.dag", "t12.dist"])
        x, y = rng.sample(t12[1], 2)
        ops.append(["rpcc", "t12.dag", "t12.dist", "--x", x, "--y", y])
        ops.append(["graphoid", "t12.dist", "--trials", "10",
                    "--seed", str(rng.randrange(2**31))])
        for k, verb in enumerate(("bell-chsh", "bell-member", "bell-nosig", "bell-qcc")):
            ops.append([verb, self.BEHAVIORS[(r + k) % len(self.BEHAVIORS)] + ".beh"])
        angles = ",".join(repr(rng.uniform(0.0, 2 * math.pi)) for _ in range(4))
        ops.append(["gen", "singlet", "--angles", angles])
        ops.append(["gen", "random-compatible", "--dag", "t12.dag",
                    "--seed", str(rng.randrange(2**31))])
        return ops

    def op(self, state, argv):
        if state["trace_dir"] is None:
            cmd = [sys.executable, "-m", "causalbell.cli"]
        else:
            # the traced launcher writes one span file per invocation
            out = os.path.join(state["trace_dir"], f"{state['traced']}.json")
            state["traced"] += 1
            cmd = [sys.executable, LAUNCHER, out, str(time.perf_counter_ns())]
        proc = subprocess.run(cmd + argv, capture_output=True, text=True,
                              cwd=state["cwd"], env=state["env"], timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def render(self, argv, raw):
        code, stdout, stderr = raw
        return f"{code}\n{stdout}", {"code": code, "stdout": stdout, "stderr": stderr}


def child_env() -> dict:
    """Environment for a CLI child: the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# Resident-graph criteria comparison and exact-table audits have no in-process
# workload of their own: the cli verbs (compare, compat, markov, rpcc, graphoid,
# gen) run those layers, and the traced cli run reports them. Three workloads
# leave room in the run budget for 30 s runs, which a shared 2-vCPU host needs.
WORKLOADS = {w.name: w for w in (SepQueries(), BellBehaviors(), Cli())}
