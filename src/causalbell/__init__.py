"""Causal networks, graphical separation criteria and two-party correlations.

The package splits into graph structure (`graph`), graphical separation
rules (`separation`), exact discrete distributions and their audits
(`distributions`), the two-party measurement scenario (`bell`) and the
command-line front end (`cli`).

The graph, report and separation layers use only the standard library and
load with the package. The numpy-backed names of `bell` and `distributions`
are resolved on first access, so graph-only callers never import numpy.
`_LAZY` is the one place that says which names those are: the CLI reaches
every library call through this package, so it loads numpy only where a
verb asks for such a name.
"""

import importlib

from .graph import (CondQuery, CycleError, Dag, DagParseError, GraphError, NodeKind, bell_dag,
                    parse_dag)
from .report import AuditReport, CheckResult
from .separation import (
    CompareReport,
    SeparationVerdict,
    UndirectedPath,
    compare_criteria,
    d_separated,
    enumerate_paths,
    path_d_blocked,
    path_q_inactive,
    q_separated,
)

__version__ = "0.1.0"

# public name -> the numpy-backed module that defines it
_LAZY = {
    **dict.fromkeys((
        "CHSH_ANGLES", "Behavior", "LhvModel", "MembershipVerdict", "behavior_from_lhv",
        "behavior_joint", "chsh_value", "correlators", "deterministic_strategies",
        "format_behavior", "lhv_joint_table", "lhv_membership", "no_signalling_check",
        "parse_behavior", "pr_box", "quantum_causality_audit", "random_lhv", "singlet_behavior",
    ), "bell"),
    **dict.fromkeys((
        "CiReport", "ConditionalTable", "JointTable", "RpccReport", "VIOLATES_RPCC",
        "causal_completeness_check", "causal_markov_check", "chain_factorize", "ci_holds",
        "compatible", "format_distribution", "graphoid_audit", "joint_from_tables",
        "parse_distribution", "random_compatible", "random_conditional_tables",
        "reichenbach_check",
    ), "distributions"),
}

__all__ = [
    "AuditReport", "CheckResult", "CompareReport", "CondQuery", "CycleError", "Dag",
    "DagParseError", "GraphError", "NodeKind", "SeparationVerdict", "UndirectedPath",
    "bell_dag", "compare_criteria", "d_separated", "enumerate_paths", "parse_dag",
    "path_d_blocked", "path_q_inactive", "q_separated", *_LAZY,
]


def __getattr__(name: str):
    """Import the defining module of a numpy-backed name and cache the name here."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
