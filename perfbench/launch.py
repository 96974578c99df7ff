"""Traced CLI child, used only by the traced run of the ``cli`` workload.

Usage: ``python perfbench/launch.py <span file> <spawn time ns> <verb> ...``

Runs the same ``causalbell.cli.run`` call as ``python -m causalbell.cli``,
with the library's public functions wrapped in spans, and records three
phases: interpreter start (from the parent's spawn to this file's first
statement), ``import causalbell.cli``, and the command itself. Both clocks
are ``perf_counter_ns``, which is system-wide monotonic on Linux.
"""

import time

STARTED = time.perf_counter_ns()

import sys  # noqa: E402


def main():
    out, spawned, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    t0 = time.perf_counter_ns()
    from causalbell import cli
    t1 = time.perf_counter_ns()

    import spans

    tracer = spans.Tracer()
    tracer.install()
    tracer.op = 0
    t2 = time.perf_counter_ns()
    code = cli.run(argv)
    t3 = time.perf_counter_ns()
    tracer.op = None
    sys.stdout.flush()
    tracer.dump(out, head={"interpreter_s": (STARTED - spawned) / 1e9,
                           "import_s": (t1 - t0) / 1e9,
                           "run_s": (t3 - t2) / 1e9})
    return code


if __name__ == "__main__":
    sys.exit(main())
