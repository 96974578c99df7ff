"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
the criteria complete. Every tolerance is pinned here; the two heavyweight
sweeps (criteria 4 and 5) walk every labeled DAG on up to five nodes.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest

from causalbell.bell import (
    CHSH_ANGLES,
    Behavior,
    behavior_from_lhv,
    chsh_value,
    deterministic_strategies,
    lhv_joint_table,
    lhv_membership,
    quantum_causality_audit,
    random_lhv,
    singlet_behavior,
)
from causalbell.distributions import (
    ConditionalTable,
    JointTable,
    _ci_violations,
    ci_holds,
    graphoid_audit,
    joint_from_tables,
    random_compatible,
)
from causalbell.graph import CondQuery, Dag
from causalbell.separation import (
    compare_criteria,
    d_separated,
    enumerate_paths,
    path_d_blocked,
    q_separated,
)
from conftest import DAG_COUNTS, all_dags, subsets

SEED = 2024
ROOT2 = math.sqrt(2.0)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# -----------------------------------------------------------------------------
# 1. The deterministic strategies cap every facet at exactly 2.

def test_criterion_1_local_bound():
    start = time.perf_counter()
    best = -10
    for fa in range(4):
        for fb in range(4):
            # integer correlators: E(x,y) = (-1)^(a(x) xor b(y))
            e = [[(-1) ** (((fa >> x) & 1) ^ ((fb >> y) & 1)) for y in range(2)]
                 for x in range(2)]
            sums = []
            for mx, my in ((1, 1), (1, 0), (0, 1), (0, 0)):
                s = sum(
                    (-1 if (x, y) == (mx, my) else 1) * e[x][y]
                    for x in range(2) for y in range(2)
                )
                sums += [s, -s]
            best = max(best, max(sums))
    float_best = max(
        chsh_value(behavior_from_lhv(s), v)
        for s in deterministic_strategies() for v in range(8)
    )
    elapsed = time.perf_counter() - start
    ok = best == 2 and float_best == 2.0 and elapsed < 1.0
    _report(1, ok, f"deterministic facet maximum {best} (float path {float_best}), "
                   f"{elapsed:.2f}s")


# -----------------------------------------------------------------------------
# 2. The singlet behavior at the canonical angles breaks the local bound.

def test_criterion_2_quantum_violation():
    b = singlet_behavior(*CHSH_ANGLES)
    magnitude = max(abs(chsh_value(b, v)) for v in range(8))
    verdict = lhv_membership(b, 1e-9)
    ok = abs(magnitude - 2.0 * ROOT2) <= 1e-9 and not verdict.local
    _report(2, ok, f"|S| = {magnitude:.12f} (target {2.0 * ROOT2:.12f}), "
                   f"membership local={verdict.local}, "
                   f"violated facet value {verdict.violated_value:.9f}")


# -----------------------------------------------------------------------------
# 3. Local-model joints satisfy all four conditional reductions.

def test_criterion_3_screening_reductions():
    start = time.perf_counter()
    reductions = (
        ({"A"}, {"B", "Y"}, {"X", "Lambda"}),
        ({"B"}, {"X"}, {"Y", "Lambda"}),
        ({"Lambda"}, {"X", "Y"}, set()),
        ({"X"}, {"Y"}, set()),
    )
    worst = 0.0
    for seed in range(100):
        joint = lhv_joint_table(random_lhv(seed))
        for x, y, z in reductions:
            rep = ci_holds(joint, CondQuery(x, y, z), 1e-9)
            worst = max(worst, rep.max_violation)
            assert rep.holds
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(3, ok, f"100 random local models, 4 reductions each, "
                   f"worst violation {worst:.3e}, {elapsed:.1f}s")


# -----------------------------------------------------------------------------
# 4. The reachability sweep equals the exhaustive path oracle everywhere.

@pytest.mark.slow
def test_criterion_4_dsep_oracle_equivalence():
    start = time.perf_counter()
    queries = 0
    for n in range(1, 6):
        count = 0
        for g in all_dags(n):
            count += 1
            for u, v in itertools.combinations(g.names, 2):
                paths = enumerate_paths(g, u, v)
                rest = [w for w in g.names if w not in (u, v)]
                for z in subsets(rest):
                    oracle = all(path_d_blocked(g, p, z) for p in paths)
                    got = d_separated(g, CondQuery({u}, {v}, z)).separated
                    rev = d_separated(g, CondQuery({v}, {u}, z)).separated
                    assert got == oracle and rev == oracle, (
                        f"sweep/oracle mismatch on {g.to_text()} "
                        f"x={u} y={v} z={sorted(z)}"
                    )
                    queries += 2
        assert count == DAG_COUNTS[n]
    elapsed = time.perf_counter() - start
    ok = elapsed < 300.0
    _report(4, ok, f"{queries} production queries across all DAGs on <= 5 nodes "
                   f"agree with the path oracle, {elapsed:.0f}s (< 300s)")


# -----------------------------------------------------------------------------
# 5. Separated queries are exact independences; connected ones show up
#    in sampled compatible joints.

def _batch_joints(g: Dag, rng: np.random.Generator, count: int) -> np.ndarray:
    """count joints compatible with g, slices simplex-uniform as in
    random_compatible, stacked on a leading batch axis."""
    n = len(g)
    idx = {v: i for i, v in enumerate(g.names)}
    probs = np.ones((count,) + (2,) * n)
    for v in g.names:
        axes = [idx[u] for u in g.ordered_parents(v)] + [idx[v]]
        draws = rng.exponential(1.0, size=(count,) + tuple(2 for _ in axes))
        cpt = draws / draws.sum(axis=-1, keepdims=True)
        order = np.argsort(axes)
        cpt = cpt.transpose((0,) + tuple(1 + int(o) for o in order))
        full = [count] + [1] * n
        for ax in axes:
            full[1 + ax] = 2
        probs = probs * cpt.reshape(full)
    return probs


def _batch_marginal(joints: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Marginal of batch-last joints on the ascending variable axes ``keep``."""
    drop = tuple(a for a in range(joints.ndim - 1) if a not in keep)
    return joints.sum(axis=drop) if drop else joints


def _batch_violation(marginal: np.ndarray, keep: tuple[int, ...], xa, ya, za) -> np.ndarray:
    """Per-joint maximum of the independence statistic (the library's kernel),
    from the batch-last marginal on the ascending axes ``keep`` = xa + ya + za."""
    order = list(xa) + list(ya) + list(za)
    m = marginal.transpose(tuple(keep.index(a) for a in order) + (len(keep),))
    s = m.shape[-1]
    m = m.reshape(1 << len(xa), 1 << len(ya), 1 << len(za), s)
    return _ci_violations(m).reshape(-1, s).max(axis=0)


def _blocked_all(g: Dag, paths, z) -> bool:
    return all(path_d_blocked(g, p, z) for p in paths)


@pytest.mark.slow
def test_criterion_5_soundness_and_completeness():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)

    # the batched statistic must agree with the production test
    probe = np.moveaxis(_batch_joints(next(iter(all_dags(4))), rng, 4), 0, -1)
    got = _batch_violation(probe, (0, 1, 2, 3), [0], [2], [1, 3])
    for k in range(4):
        p = JointTable(tuple((f"N{i}", 2) for i in range(4)), probe[..., k])
        want = ci_holds(p, CondQuery({"N0"}, {"N2"}, {"N1", "N3"}), eps=1.0).max_violation
        assert abs(got[k] - want) <= 1e-15

    worst_sound = 0.0
    weakest_witness = np.inf
    sep_total = nonsep_total = 0
    crosschecks = 0
    for n in range(2, 6):
        names = [f"N{i}" for i in range(n)]
        idx = {v: i for i, v in enumerate(names)}
        query_specs = []
        for u, v in itertools.combinations(names, 2):
            rest = [w for w in names if w not in (u, v)]
            for z in subsets(rest):
                query_specs.append(
                    (u, v, z, [idx[u]], [idx[v]], sorted(idx[w] for w in z))
                )

        chunk: list[tuple[Dag, np.ndarray, list[bool]]] = []

        def flush():
            nonlocal worst_sound, weakest_witness, sep_total, nonsep_total
            if not chunk:
                return
            # batch axis last, so every reduction runs over leading axes
            stack = np.ascontiguousarray(
                np.moveaxis(np.concatenate([joints for _, joints, _ in chunk]), 0, -1))
            verdicts = np.array([verdict for _, _, verdict in chunk])
            c = len(chunk)
            marginals: dict[tuple[int, ...], np.ndarray] = {}
            for qi, (u, v, z, xa, ya, za) in enumerate(query_specs):
                keep = tuple(sorted(xa + ya + za))
                if keep not in marginals:
                    marginals[keep] = _batch_marginal(stack, keep)
                viols = _batch_violation(marginals[keep], keep, xa, ya, za).reshape(c, 100)
                sep = verdicts[:, qi]
                if sep.any():
                    worst_sound = max(worst_sound, float(viols[sep].max()))
                    sep_total += int(sep.sum())
                if (~sep).any():
                    witnesses = viols[~sep, :20].max(axis=1)
                    weakest_witness = min(weakest_witness, float(witnesses.min()))
                    nonsep_total += int((~sep).sum())
            chunk.clear()

        for gi, g in enumerate(all_dags(n)):
            pair_paths = {
                (u, v): enumerate_paths(g, u, v)
                for u, v in itertools.combinations(names, 2)
            }
            verdict = [
                _blocked_all(g, pair_paths[(u, v)], z)
                for (u, v, z, *_rest) in query_specs
            ]
            if gi % 500 == 0:
                # tie the oracle verdicts back to the production decider
                for (u, v, z, *_rest), sep in zip(query_specs, verdict):
                    assert d_separated(g, CondQuery({u}, {v}, z)).separated == sep
                    crosschecks += 1
            chunk.append((g, _batch_joints(g, rng, 100), verdict))
            if len(chunk) == 256:
                flush()
        flush()

    elapsed = time.perf_counter() - start
    ok = worst_sound <= 1e-9 and weakest_witness > 1e-6 and elapsed < 170.0
    _report(5, ok,
            f"soundness: {sep_total} separated query instances x 100 joints, "
            f"worst violation {worst_sound:.3e} (<= 1e-9); completeness: "
            f"{nonsep_total} connected instances, weakest 20-joint witness "
            f"{weakest_witness:.3e} (> 1e-6); {crosschecks} sweep crosschecks, "
            f"{elapsed:.0f}s (< 170s)")


# -----------------------------------------------------------------------------
# 6. Typed-separation golden set on the two-wing scenario graph.

def test_criterion_6_typed_separation_golden_set():
    from causalbell.bell import bell_dag

    g = bell_dag()
    xy = q_separated(g, CondQuery({"X"}, {"Y"})).separated
    ab = q_separated(g, CondQuery({"A"}, {"B"})).separated
    ay = q_separated(g, CondQuery({"A"}, {"Y"})).separated
    report = compare_criteria(g)
    row = next(r for r in report.rows if (r.x, r.y, r.z) == ("A", "B", ("Lambda",)))
    ok = xy and not ab and ay and row.d_sep and not row.q_sep and row.disagree
    _report(6, ok,
            f"(X,Y|{{}})_q separated={xy}, (A,B|{{}})_q separated={ab}, "
            f"(A,Y|{{}})_q separated={ay}, latent-conditioning row "
            f"d={row.d_sep}/q={row.q_sep} disagree={row.disagree}")


# -----------------------------------------------------------------------------
# 7. The singlet passes exactly the asserted outcome independences.

def test_criterion_7_outcome_independence_audit():
    report = quantum_causality_audit(singlet_behavior(*CHSH_ANGLES), 1e-9)
    by_name = {c.name: c for c in report.checks}
    asserted = [by_name[k] for k in ("A _||_ Y | {}", "B _||_ X | {}", "X _||_ Y | {}")]
    exempt = by_name["A _||_ B | {}"]
    ok = all(c.passed for c in asserted) and not exempt.passed and report.passed
    _report(7, ok,
            "asserted independences "
            + ", ".join(f"{c.name} viol={c.violation:.3e}" for c in asserted)
            + f"; exempt pair dependence {exempt.violation:.3e} (expected nonzero)")


# -----------------------------------------------------------------------------
# 8. Closure axioms hold across 1000+ fired instances; the semi-graphoid
#    four also hold in the presence of zeros.

def _sparse_graph(rng: np.random.Generator) -> Dag:
    names = [f"V{i}" for i in range(4)]
    edges = [
        (names[i], names[j])
        for i in range(4) for j in range(i + 1, 4)
        if rng.random() < 0.3
    ]
    return Dag([(nm, "outcome", 2) for nm in names], edges)


def test_criterion_8_graphoid_property_suite():
    rng = np.random.default_rng(SEED)
    fired = 0
    failures = 0
    tables = 0
    while fired < 1000:
        tables += 1
        p = random_compatible(_sparse_graph(rng), int(rng.integers(0, 2 ** 31)))
        assert (p.probabilities > 0).all()  # strictly positive
        report = graphoid_audit(p, eps=1e-9, trials=100, seed=tables)
        for check in report.checks:
            fired += check.detail["fired"]
            failures += check.detail["failed"]
    zero_fired = 0
    zero_failures = 0
    for trial in range(12):
        g = _sparse_graph(rng)
        cpts = []
        for v in g.names:
            parents = g.ordered_parents(v)
            shape = tuple(2 for _ in parents) + (2,)
            draws = rng.exponential(1.0, size=shape)
            draws[rng.random(shape) < 0.4] = 0.0
            draws[..., 0] += draws.sum(axis=-1) == 0
            cpts.append(
                ConditionalTable(v, parents, draws / draws.sum(axis=-1, keepdims=True))
            )
        p = joint_from_tables(g, cpts)
        report = graphoid_audit(p, eps=1e-9, trials=100, seed=trial)
        for check in report.checks:
            if check.name != "intersection":
                zero_fired += check.detail["fired"]
                zero_failures += check.detail["failed"]
            else:
                zero_failures += check.detail["failed"]
    ok = failures == 0 and zero_failures == 0 and fired >= 1000 and zero_fired > 0
    _report(8, ok,
            f"{fired} fired instances over {tables} strictly positive tables, "
            f"{failures} failures; with zeros: {zero_fired} semi-graphoid "
            f"instances, {zero_failures} failures")


# -----------------------------------------------------------------------------
# 9. Facet check and feasibility solve agree across the no-signalling set.

def _pr_variant(alpha: int, beta: int, gamma: int) -> np.ndarray:
    table = np.zeros((2, 2, 2, 2))
    for a, b, x, y in itertools.product(range(2), repeat=4):
        if a ^ b == (x * y) ^ (alpha * x) ^ (beta * y) ^ gamma:
            table[a, b, x, y] = 0.5
    return table


def test_criterion_9_membership_roundtrip_and_agreement():
    rng = np.random.default_rng(SEED)
    det = np.stack([behavior_from_lhv(s).table for s in deterministic_strategies()])
    boxes = np.stack([
        _pr_variant(a, b, c) for a, b, c in itertools.product(range(2), repeat=3)
    ])
    vertices = np.concatenate([det, boxes])

    behaviors = [Behavior(t) for t in det] + [Behavior(t) for t in boxes]
    while len(behaviors) < 1000:
        mode = len(behaviors) % 3
        if mode == 0:
            w = rng.exponential(1.0, size=16)
            table = np.tensordot(w / w.sum(), det, axes=1)
        elif mode == 1:
            w = rng.exponential(1.0, size=24)
            table = np.tensordot(w / w.sum(), vertices, axes=1)
        else:
            t = rng.random()
            w = rng.exponential(1.0, size=16)
            local = np.tensordot(w / w.sum(), det, axes=1)
            box = boxes[rng.integers(0, 8)]
            table = t * box + (1.0 - t) * local
        behaviors.append(Behavior(table))

    locals_seen = nonlocals_seen = 0
    worst_recon = 0.0
    for b in behaviors:
        verdict = lhv_membership(b, 1e-9)  # raises on any route disagreement
        facet_max = max(chsh_value(b, v) for v in range(8))
        assert verdict.local == (facet_max <= 2.0 + 1e-9)
        if verdict.local:
            locals_seen += 1
            recon = behavior_from_lhv(verdict.model)
            worst_recon = max(worst_recon, float(np.abs(recon.table - b.table).max()))
        else:
            nonlocals_seen += 1
    for seed in range(100):
        b = behavior_from_lhv(random_lhv(seed))
        verdict = lhv_membership(b, 1e-9)
        assert verdict.local
        recon = behavior_from_lhv(verdict.model)
        worst_recon = max(worst_recon, float(np.abs(recon.table - b.table).max()))
    ok = worst_recon <= 1e-9 and locals_seen > 100 and nonlocals_seen > 100
    _report(9, ok,
            f"1000 mixed behaviors ({locals_seen} local, {nonlocals_seen} not) "
            f"plus 100 local-model round-trips: zero route disagreements, "
            f"worst reconstruction error {worst_recon:.3e}")
