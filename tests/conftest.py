"""Shared test helpers: exhaustive DAG enumeration and random typed graphs."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from causalbell.graph import CycleError, Dag

# labeled acyclic digraph counts, used to sanity-check the enumerator
DAG_COUNTS = {0: 1, 1: 1, 2: 3, 3: 25, 4: 543, 5: 29281}


def all_dags(n: int):
    """Yield every labeled DAG on n binary outcome nodes.

    Each unordered node pair independently carries no edge or one of the
    two orientations; ``Dag`` refuses the cyclic ones of these 3^C(n,2)
    candidates, so DAG_COUNTS also pins the library's cycle check.
    """
    names = [f"N{i}" for i in range(n)]
    nodes = [(nm, "outcome", 2) for nm in names]
    pairs = list(itertools.combinations(names, 2))
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        edges = [(a, b) if s == 1 else (b, a) for (a, b), s in zip(pairs, states) if s]
        try:
            g = Dag(nodes, edges)
        except CycleError:
            continue
        yield g


def all_typed_dags(n: int):
    """Yield every DAG on n nodes under every assignment of kinds that
    keeps latent nodes at roots; binary cardinalities throughout."""
    for g in all_dags(n):
        choices = [
            ("setting", "outcome") if g.parents(v) else ("setting", "outcome", "latent")
            for v in g.names
        ]
        for kinds in itertools.product(*choices):
            yield Dag([(v, k, 2) for v, k in zip(g.names, kinds)], g.edges)


def random_typed_dag(rng: np.random.Generator, n_nodes: int = 5,
                     edge_prob: float = 0.45, max_card: int = 3) -> Dag:
    """Random DAG with random kinds; latent nodes only ever appear as roots."""
    kinds = [str(rng.choice(["setting", "outcome", "latent"])) for _ in range(n_nodes)]
    names = [f"V{i}" for i in range(n_nodes)]
    cards = [int(rng.integers(2, max_card + 1)) for _ in range(n_nodes)]
    order = rng.permutation(n_nodes)
    edges = []
    for a in range(n_nodes):
        for b in range(a + 1, n_nodes):
            tail, head = order[a], order[b]
            if kinds[head] == "latent":
                continue
            if rng.random() < edge_prob:
                edges.append((names[tail], names[head]))
    return Dag(list(zip(names, kinds, cards)), edges)


def subsets(items):
    items = list(items)
    for mask in range(1 << len(items)):
        yield frozenset(it for i, it in enumerate(items) if mask >> i & 1)


def membership_oracle_behaviors():
    """Behaviors the membership LP is checked on: singlets at random angles,
    random local models, PR box + noise, and a sweep across the facet."""
    from causalbell import bell

    rng = np.random.default_rng(2024)
    pr, uniform = bell.pr_box().table, np.full((2, 2, 2, 2), 0.25)
    for _ in range(15):
        yield bell.singlet_behavior(*rng.uniform(-np.pi, np.pi, 4))
        yield bell.behavior_from_lhv(bell.random_lhv(int(rng.integers(2**31))))
        t = rng.random()
        yield bell.Behavior(t * pr + (1 - t) * uniform)
    for k in range(-20, 41, 4):  # the facet boundary sits at t = 1/2
        t = 0.5 + k * 1e-10
        yield bell.Behavior(t * pr + (1 - t) * uniform)


@pytest.fixture
def bell5():
    from causalbell.bell import bell_dag

    return bell_dag()
