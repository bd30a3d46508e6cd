"""Answer one problem in a fresh process, the way a user runs crrigid.

    python3 perfbench/answer.py [--trace FILE] -- <crrigid arguments>
    python3 perfbench/answer.py --setup REPS <problem files>

The first form calls ``crrigid.cli.main`` with the given arguments and
prints one JSON line: the exit code, the JSON report the command wrote to
stdout, its stderr, the process's peak resident memory and the median
time of :func:`speed.reference` sampled while the command ran.  With
``--trace`` the layer wrappers of :mod:`tracing` are installed first and
their spans and per-layer totals are written to FILE.

The second form measures set-up: ``import crrigid.cli`` plus
``parse_problem`` of each file at the order the CLI parses at.  It does
so REPS times in the one process, dropping crrigid's modules from
``sys.modules`` before each repetition so that each one loads them again,
while a :class:`speed.Sampler` runs.  It prints the seconds of each
repetition and the median reference time.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import speed  # noqa: E402


def setup(reps, paths) -> None:
    seconds = []
    sampler = speed.Sampler()
    sampler.start()
    for _ in range(reps):
        for name in [m for m in sys.modules
                     if m == "crrigid" or m.startswith("crrigid.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        importlib.import_module("crrigid.cli")
        parse_problem = importlib.import_module("crrigid.parser").parse_problem
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                # the CLI parses at its default working order plus 7
                parse_problem(fh.read(), order=17 + 7)
        seconds.append(time.perf_counter() - t0)
    print(json.dumps({"seconds": seconds, "reference_s": sampler.stop()}))


def answer(argv, trace_path) -> None:
    import crrigid.cli
    tracer = None
    if trace_path is not None:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    out, err = io.StringIO(), io.StringIO()
    sampler = speed.Sampler()
    sampler.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = crrigid.cli.main(argv)
    except SystemExit as exc:            # argparse rejects the arguments
        rc = exc.code
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    reference_s = sampler.stop()
    if tracer is not None:
        tracer.dump(trace_path)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({
        "rc": rc,
        "report": out.getvalue(),
        "stderr": err.getvalue(),
        "maxrss_kib": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "reference_s": reference_s,
    }))


def main(argv) -> None:
    if argv and argv[0] == "--setup":
        setup(int(argv[1]), argv[2:])
        return
    trace_path = None
    if argv and argv[0] == "--trace":
        trace_path, argv = argv[1], argv[2:]
    if argv and argv[0] == "--":
        argv = argv[1:]
    answer(argv, trace_path)


if __name__ == "__main__":
    main(sys.argv[1:])
