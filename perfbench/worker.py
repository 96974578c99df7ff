"""One benchmark worker process: set up, run whole rounds, check outputs.

Started by ``run.py`` as ``python perfbench/worker.py '<json config>'``; the
config names the workload, seed, mode and the files to write. Modes:

* ``setup``   -- import the library, build resident inputs, report the
  time of readiness and exit;
* ``measure`` -- then run whole rounds until ``seconds`` have passed;
* ``prefix``  -- then run exactly ``rounds`` rounds (the fixed work of a
  traced run), with spans when ``trace`` is set.

Outputs are appended to a log file during the loop (so the worker's memory
does not grow with the number of ops), and checked after the loop.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback


def run(cfg):
    import workloads

    sys.path.insert(0, workloads.SRC)
    import causalbell  # noqa: F401  (set-up cost: interpreter plus import)

    wl = workloads.WORKLOADS[cfg["workload"]]
    seed = cfg["seed"]
    state = wl.setup(seed, cfg["workdir"])
    batch = wl.inputs(seed, 0)
    ready = time.perf_counter()
    result = {"ready": ready}
    if cfg["mode"] == "setup":
        return result

    tracer = None
    if cfg["trace"]:
        if wl.name == "cli":
            state["trace_dir"] = os.path.join(cfg["workdir"], "spans")
            os.mkdir(state["trace_dir"])
        else:
            import spans

            tracer = spans.Tracer()
            tracer.install()
    latencies = []
    digest = hashlib.sha256()
    log_path = os.path.join(cfg["workdir"], "outputs.jsonl")
    rounds = 0
    with open(log_path, "w", encoding="utf-8") as log:
        while True:
            for i, inp in enumerate(batch):
                op_id = rounds * len(batch) + i
                if tracer:
                    tracer.op = op_id
                start = time.perf_counter()
                try:
                    raw = wl.op(state, inp)
                    error = None
                except Exception:  # a failing op is counted, never fatal
                    error = traceback.format_exc(limit=3).strip().splitlines()[-1]
                elapsed = time.perf_counter() - start
                if tracer:
                    tracer.op = None
                latencies.append(elapsed)
                if error is None:
                    text, record = wl.render(inp, raw)
                    digest.update(text.encode())
                else:
                    record = None
                    digest.update(f"error {error}".encode())
                log.write(json.dumps({"round": rounds, "i": i, "rec": record,
                                      "error": error}) + "\n")
            rounds += 1
            if rounds == wl.prefix_rounds:
                result["prefix_digest"] = digest.hexdigest()
            if cfg["mode"] == "prefix":
                if rounds >= cfg["rounds"]:
                    break
            elif time.perf_counter() - ready >= cfg["seconds"]:
                break
            batch = wl.inputs(seed, rounds)
    end = time.perf_counter()

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if wl.name == "cli"
                               else resource.RUSAGE_SELF)
    result.update(
        latencies=latencies,
        rounds=rounds,
        wall=end - ready,
        digest=digest.hexdigest(),
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )
    if tracer:
        tracer.uninstall()
        spans_path = os.path.join(cfg["workdir"], "spans.jsonl")
        tracer.dump(spans_path)
        result["layers"] = spans.aggregate(*spans.load(spans_path)[:2])
    elif cfg["trace"]:
        result["layers"], result["cli"] = cli_layers(state["trace_dir"])
    result["failures"] = check(wl, seed, cfg, log_path)
    result["check_s"] = time.perf_counter() - end
    return result


def cli_layers(trace_dir):
    """Sum the span files of traced CLI children; list their phase times."""
    import spans

    totals, phases = {}, {"interpreter_s": [], "import_s": [], "run_s": []}
    for name in sorted(os.listdir(trace_dir), key=lambda f: int(f.split(".")[0])):
        span_list, counts, head = spans.load(os.path.join(trace_dir, name))
        for key in phases:
            phases[key].append(head[key])
        for key, value in spans.aggregate(span_list, counts).items():
            totals[key] = totals.get(key, 0) + value
    return totals, phases


def check(wl, seed, cfg, log_path):
    """Re-create every op's input and verify the logged output."""
    import checks

    fn = checks.CHECKS[wl.name]
    ctx = {"workdir": cfg["workdir"]}
    failures = []
    batch, batch_round = None, None
    with open(log_path, encoding="utf-8") as log:
        for line in log:
            entry = json.loads(line)
            if entry["round"] != batch_round:
                batch_round = entry["round"]
                batch = wl.inputs(seed, batch_round)
            where = f"round {entry['round']} op {entry['i']}"
            if entry["error"] is not None:
                failures.append(f"{where}: raised {entry['error']}")
                continue
            try:
                problem = fn(batch[entry["i"]], entry["rec"], ctx)
            except Exception:  # a check that cannot run fails the op
                problem = "check raised " + traceback.format_exc(limit=3).strip().splitlines()[-1]
            if problem:
                failures.append(f"{where}: {problem}")
    return failures


def main():
    cfg = json.loads(sys.argv[1])
    result = run(cfg)
    with open(cfg["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
