"""causalbell benchmark: the command that measures one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout that holds ``src/causalbell``. Inputs are
generated from ``--seed``; the library is run from ``src`` without being
installed. Each measurement happens in a fresh worker process
(``worker.py``), one at a time: a closed loop with a single client. This
process and every process it starts (workers, set-up samples, CLI children)
are pinned to one CPU. Unpinned, numpy's OpenBLAS starts a helper thread on
the second CPU at import and the loop moves between CPUs; on a 2-vCPU VM a
CLI call then took about 320 ms against 250 ms pinned, and runs switched
between those two levels.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` is the median of
nine fresh set-ups (eight set-up-only workers plus the measuring worker; for
``cli``, nine fresh ``import causalbell.cli`` processes), and the op
latencies and peak RSS come from one worker that runs whole
rounds for ``--seconds``. ``--trace 1`` runs the workload's fixed prefix
twice, untraced and traced, and reports per-layer counts and self times
from the traced pass plus the tracing overhead between the two.

Every op's output is checked after its loop. Standard output ends with one
metadata line (``{"meta": ...}``: machine, versions, seed, ``src`` line
count, output digests, failing ops) and then the result line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = workloads.HERE
ROOT = os.path.dirname(HERE)
SRC = workloads.SRC
DEADLINE_S = 170.0
SETUP_SAMPLES = 9

# Which end-to-end metric each per-layer metric should move, and where:
#   graph.parse_dag.*                       op_ms.p50 on sep-queries
#   separation.d_/q_separated.self_s        op_ms.p50 on sep-queries
#   separation.enumerate_paths.*, path_*,   op_ms.tail on sep-queries; no change on
#     witness_yield                         bell-behaviors
#   separation.compare_criteria.self_s,     op_ms.tail on cli (the compare verb)
#     report.to_text.self_s
#   distributions.* (parse/format, random_compatible, ci_holds, marginal,
#     graphoid, screening)                  op_ms.tail on cli (compat, markov, rpcc,
#                                           graphoid and gen on a 4,096-cell table)
#   simplex.solve_lp.*, bell.lhv_membership op_ms.p50 and op_ms.tail on bell-behaviors;
#                                           no change on sep-queries
#   bell.parse_behavior, no_signalling_check, quantum_causality_audit, chsh_value.calls
#                                           op_ms.p50 on bell-behaviors
#   cli.interpreter_s, cli.import_s         op_ms.p50 and setup_s on cli
#   cli.run_s                               op_ms.tail on cli
# Throughput (ops per second of op time, the inverse of the mean latency) is
# printed in the metadata line but not gated: on a shared host the mean moves
# with the share of the run spent in the host's slow phases, far more than the
# median or the tail quantile do.
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class Runner:
    """Spawns workers one at a time inside a per-run scratch directory."""

    def __init__(self, args, workdir):
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0

    def spawn(self, cmd, env=None):
        """Run ``cmd`` to completion; return its spawn time (perf_counter).

        The child gets its own process group, so that on a timeout or an
        interrupt the group (a CLI worker and its current child) is killed.
        """
        spawned = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, env=env, cwd=ROOT,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise SystemExit(f"error: {cmd[1]} exceeded the run's time limit") from None
            raise
        if code != 0:
            raise SystemExit(f"error: worker exited with status {code}")
        return spawned

    def worker(self, mode, trace=False, rounds=0):
        self.count += 1
        wd = os.path.join(self.workdir, f"w{self.count}")
        os.mkdir(wd)
        cfg = {"workload": self.args.workload, "seed": self.args.seed, "mode": mode,
               "seconds": self.args.seconds, "trace": trace, "rounds": rounds,
               "workdir": wd, "result": os.path.join(wd, "result.json")}
        spawned = self.spawn([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)])
        with open(cfg["result"], encoding="utf-8") as fh:
            result = json.load(fh)
        result["setup_s"] = result["ready"] - spawned
        return result

    def setup_samples(self, n):
        if self.args.workload != "cli":
            return [self.worker("setup")["setup_s"] for _ in range(n)]
        cmd = [sys.executable, "-c", "import causalbell.cli"]
        env = workloads.child_env()
        samples = []
        for _ in range(n):
            spawned = self.spawn(cmd, env)
            samples.append(time.perf_counter() - spawned)
        return samples


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(runner):
    # Set-up samples are taken before and after the measuring worker, so
    # that they see the machine over the whole run, not one moment of it.
    setups = runner.setup_samples(SETUP_SAMPLES // 2)
    main = runner.worker("measure")
    if runner.args.workload != "cli":
        setups.append(main["setup_s"])
    setups += runner.setup_samples(SETUP_SAMPLES - len(setups))
    lat_ms = [t * 1e3 for t in main["latencies"]]
    tail = workloads.WORKLOADS[runner.args.workload].tail_pct
    values = {
        "setup_s": statistics.median(setups),
        "op_ms.p50": statistics.median(lat_ms),
        "op_ms.tail": percentile(lat_ms, tail),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    info = {"ops": len(lat_ms), "rounds": main["rounds"], "tail_pct": tail,
            "ops_beyond_tail": sum(1 for t in lat_ms if t > values["op_ms.tail"]),
            "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
            "op_ms.p90": percentile(lat_ms, 90), "op_ms.p99": percentile(lat_ms, 99),
            "loop_s": main["wall"], "check_s": main["check_s"],
            "setup_samples_s": setups, "digest": main["digest"],
            "prefix_digest": main.get("prefix_digest")}
    return values, END_TO_END, [main], info


def per_layer(runner):
    rounds = workloads.WORKLOADS[runner.args.workload].prefix_rounds
    base = runner.worker("prefix", trace=False, rounds=rounds)
    traced = runner.worker("prefix", trace=True, rounds=rounds)
    layers = traced["layers"]
    values = {name: layers.get(name, 0) for name in PER_LAYER}
    paths = layers.get("separation.enumerate_paths.paths", 0)
    values["separation.witness_yield"] = layers.get("separation.witnesses", 0) / paths if paths else 0.0
    for phase, samples in traced.get("cli", {}).items():
        values[f"cli.{phase}"] = statistics.median(samples)
    base_s, traced_s = sum(base["latencies"]), sum(traced["latencies"])
    values["trace.overhead_pct"] = 100.0 * (traced_s / base_s - 1.0)
    info = {"ops": len(traced["latencies"]), "rounds": rounds,
            "untraced_s": base_s, "traced_s": traced_s,
            "digest": traced["digest"], "untraced_digest": base["digest"],
            "counts": {k: v for k, v in sorted(layers.items()) if not k.endswith("self_s")}}
    if base["digest"] != traced["digest"]:
        base["failures"].append("traced and untraced runs gave different outputs")
    return values, PER_LAYER, [base, traced], info


def machine_info(args):
    cpu = l2 = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
        with open("/sys/devices/system/cpu/cpu0/cache/index2/size", encoding="utf-8") as fh:
            l2 = fh.read().strip()
    except OSError:
        pass
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    import numpy

    return {"nproc": os.cpu_count(), "pinned_cpu": sorted(os.sched_getaffinity(0)),
            "cpu_model": cpu, "l2_per_core": l2,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "seed": args.seed, "workload": args.workload, "src_lines": src_lines}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not os.path.isfile(os.path.join(SRC, "causalbell", "__init__.py")):
        print(f"error: no program to measure: {SRC}/causalbell is missing", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(HERE, ".work"))
    try:
        runner = Runner(args, workdir)
        values, units, results, info = (per_layer if args.trace else end_to_end)(runner)
        meta = machine_info(args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [f for r in results for f in r["failures"]]
    attempted = sum(len(r["latencies"]) for r in results)
    meta.update(info, failed_ops=failures[:50])
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
