"""Outside-in tracing: spans around the library's public functions.

``Tracer.install()`` replaces each traced function on every module attribute
where callers look it up (a function imported into another module, such as
``bell.solve_lp``, is replaced there too), and each public report renderer
on its class. A span records name, start, end, parent span and op id; spans
are kept in memory and written out when the run ends. Calls made outside an
op (input generation, checks) pass straight through and record nothing.

Accessors such as ``Dag.index`` or ``ordered_parents`` are deliberately not
wrapped: they run millions of times per run, and counting them belongs
inside the program.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict

MODULES = ("graph", "separation", "distributions", "simplex", "bell", "report", "cli")

# Private or method-level boundaries that the per-layer metrics name.
EXTRA = {
    ("distributions", "_screening_audit"): "distributions.screening",
    ("distributions", "JointTable.marginal"): "distributions.JointTable.marginal",
}
RENDERERS = {
    "report": ("AuditReport",),
    "separation": ("CompareReport",),
    "distributions": ("RpccReport",),
    "bell": ("MembershipVerdict",),
}


def _counters(name, result):
    """Counts read from a traced call's return value."""
    if name == "separation.enumerate_paths":
        return {"separation.enumerate_paths.paths": len(result)}
    if name in ("separation.d_separated", "separation.q_separated"):
        return {"separation.witnesses": result.witness is not None}
    if name == "distributions.graphoid_audit":
        return {"distributions.graphoid.fired": sum(c.detail["fired"] for c in result.checks)}
    return None


class Tracer:
    def __init__(self):
        self.op = None  # id of the op in progress; None records nothing
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = defaultdict(int)
        self._stack = []
        self._undo = []

    def wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            extra = _counters(name, result)
            if extra:
                for key, value in extra.items():
                    counts[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package="causalbell"):
        """Wrap the public functions of every module in ``MODULES``."""
        mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        wrappers = {}  # id(original) -> wrapper
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for (short, path), name in EXTRA.items():
            owner, attr = _resolve(mods[short], path)
            fn = vars(owner)[attr]
            if inspect.ismodule(owner):
                wrappers[id(fn)] = self.wrap(name, fn)
            else:
                self._set(owner, attr, self.wrap(name, fn))
        for short, classes in RENDERERS.items():
            for cls_name in classes:
                cls = getattr(mods[short], cls_name)
                for attr in ("to_text", "to_csv"):
                    if attr in vars(cls):
                        self._set(cls, attr, self.wrap("report.to_text", vars(cls)[attr]))
        # replace every binding of a wrapped function, wherever it was imported
        for mod in [*mods.values(), importlib.import_module(package)]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._set(mod, attr, wrappers[id(obj)])

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path, head=None):
        """Write a header line (counts and ``head``), then one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"counts": dict(self.counts), "head": head}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _resolve(mod, path):
    owner = mod
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def load(path):
    """(spans, counts, head) as written by ``Tracer.dump``."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    return spans, header["counts"], header["head"]


def aggregate(spans, counts):
    """Per-name call counts and self times, plus the read-out counters.

    A span's self time is its duration minus the time its direct child spans
    cover; children of one span never overlap because calls are nested.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(int)
    for (name, start, end, _, _), covered in zip(spans, child):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += end - start - covered
    for key, value in counts.items():
        out[key] += value
    return dict(out)
