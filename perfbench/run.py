#!/usr/bin/env python3
"""Seeded equivalent-presentation benchmark of crrigid.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a crrigid checkout (the directory holding ``src/``).
The seed draws one presentation per slot of the workload (see
:mod:`presentations`); their exact answers are the corpus expectations.
Load is a closed loop with one client: each problem is answered in a
fresh process through ``crrigid.cli.main``, one at a time, because two
solves side by side on a small machine slow each other down.  The run
answers its problems in turn, each at least once, for as long as the next
answer fits in ``--seconds``.

Every answer is checked from its JSON report (not from the exit code)
against the invariant expectation.  Each metric is printed by name with
its unit; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: seconds to answer each of the run's problems once, each
  problem at the median of its answers in the run;
* ``setup_s``: ``import crrigid.cli`` plus ``parse_problem`` of the run's
  files, the median of samples taken in fresh processes before and
  between the answers;
* ``peak_rss_mib``: largest peak resident memory of an answering process.

The seconds of each answer and each set-up sample are scaled to a fixed
machine speed, measured beside them (see :mod:`speed`); the raw seconds
are printed too.

``--trace 1`` answers each problem untraced and then traced, in turn, and
reports the per-layer metrics of :mod:`tracing` over the traced answers,
the tracing overhead as the median of the per-problem ratios, and checks
the call counts against the problems run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from presentations import NONREAL, REAL, ShearPlan, draw  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

# set-up samples taken before the first answer and before each answer of
# an untraced run, so that they span the run like the answers do; each
# sample is the median of SETUP_REPS repetitions in one process
SETUP_SAMPLES_FIRST = 3
SETUP_SAMPLES_EACH = 1
SETUP_REPS = 5
PROBLEM_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    command: str
    options: Tuple[str, ...]                 # CLI arguments after the file
    slots: Tuple[Tuple[str, Tuple[ShearPlan, ...]], ...]


def _q(monomial: str, coeffs=REAL) -> Tuple[ShearPlan, ...]:
    return (ShearPlan("q", monomial, coeffs),)


def _r(monomial: str, coeffs=REAL) -> Tuple[ShearPlan, ...]:
    return (ShearPlan("r", monomial, coeffs),)


# Each slot fixes an entry, the shear's kind and monomial and the class of
# its coefficient; the seed draws the coefficient within the class.  Why
# each workload exists is in BENCHMARK.json and README.md.  The entries
# are cut so that a run answers each problem two times or more: the
# pipeline on a presentation of example-6-2 alone takes about 55 s,
# example-6-4 has the target of example-6-4-t2, and rigidity on
# example-6-3 takes about 26 s.
WORKLOADS: Dict[str, Workload] = {
    "oracle-nonspherical": Workload(
        "deform", ("--oracle",), (("example-6-2", _q("z1^3")),
                                  ("example-6-3", _r("z2^2", NONREAL)),
                                  ("example-6-4-t2", _q("z1^3")))),
    "rigidity-spherical": Workload(
        "rigidity", (), (("sphere-8", _q("z1^3")),
                         ("example-6-1", _q("z1^3")))),
}


# -- answers ------------------------------------------------------------

def expected_answer(entry: str, command: str) -> Dict[str, object]:
    from crrigid.corpus import EXPECTATIONS
    exp = EXPECTATIONS[entry]
    want: Dict[str, object] = {"dimension": exp.dim, "stabilized": True}
    if command == "rigidity":
        want.update(verdict=exp.verdict,
                    automorphism_dimension=exp.aut_dim,
                    trivial_dimension=exp.trivial_dim)
    return want


def check_answer(result: Optional[dict], want: Dict[str, object]
                 ) -> List[str]:
    """Mismatches between a child's result and the expected answer."""
    if result is None:
        return ["no result"]
    errs = []
    try:
        report = json.loads(result["report"])
    except ValueError:
        tail = result["stderr"].strip().splitlines()[-1:] or [""]
        return [f"no JSON report (exit {result['rc']}): {tail[0]}"]
    for key, value in want.items():
        if report.get(key) != value:
            errs.append(f"{key}: got {report.get(key)!r}, "
                        f"expected {value!r}")
    if result["rc"] != 0:
        errs.append(f"exit code {result['rc']}")
    return errs


# -- child processes ----------------------------------------------------

def child_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(args: List[str], env) -> Tuple[Optional[dict], str]:
    """Run ``answer.py`` with args; (its JSON line or None, error text)."""
    cmd = [sys.executable, os.path.join(HERE, "answer.py")] + args
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=PROBLEM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {PROBLEM_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, f"answer.py exited {proc.returncode}: {tail[0]}"
    return json.loads(lines[-1]), ""


@dataclass
class Answer:
    seconds: float
    scaled_s: float              # seconds at the speed.REFERENCE_S speed
    failures: List[str]          # empty when the answer is right
    maxrss_kib: int


def answer_one(entry, path, want, command, options, env, trace_file=None
               ) -> Answer:
    """Answer one problem in a fresh process and check the answer."""
    args = ["--trace", trace_file] if trace_file else []
    args += ["--", command, path, *options]
    t1 = time.perf_counter()
    result, err = run_child(args, env)
    took = time.perf_counter() - t1
    errs = [err] if err else check_answer(result, want)
    if result is None:
        print(f"answered {entry} in {took:.3f} s")
        return Answer(took, took, [f"{entry}: {e}" for e in errs], 0)
    scaled = took * speed.REFERENCE_S / result["reference_s"]
    print(f"answered {entry}{' traced' if trace_file else ''} in "
          f"{took:.3f} s ({result['cpu_s']:.3f} s cpu, reference "
          f"{result['reference_s'] * 1e3:.3f} ms, scaled {scaled:.3f} s)")
    return Answer(took, scaled, [f"{entry}: {e}" for e in errs],
                  result["maxrss_kib"])


def answer_for(problems, command, options, env, seconds, between=None
               ) -> List[List[Answer]]:
    """Answer the problems in turn, each at least once, and go on while
    the next answer is expected to end within ``seconds``; stop after the
    first round if an answer failed.  ``between`` is called before each
    answer, outside its timing.  Returns each problem's answers."""
    answers: List[List[Answer]] = [[] for _ in problems]
    t0 = time.perf_counter()
    for i in itertools.count():
        k = i % len(problems)
        if i >= len(problems):
            if any(a.failures for per in answers for a in per):
                break
            typical = statistics.median(a.seconds for a in answers[k])
            if time.perf_counter() - t0 + typical > seconds:
                break
        if between is not None:
            between()
        entry, path, want = problems[k]
        answers[k].append(answer_one(entry, path, want, command, options,
                                     env))
    return answers


def setup_sample(paths, env) -> Tuple[float, float]:
    """One set-up sample from a fresh process: the median of its
    repetitions, in seconds and scaled to the speed.REFERENCE_S speed."""
    result, err = run_child(["--setup", str(SETUP_REPS), *paths], env)
    if result is None:
        raise RuntimeError(f"set-up failed: {err}")
    seconds = statistics.median(result["seconds"])
    return seconds, seconds * speed.REFERENCE_S / result["reference_s"]


# -- traced run ---------------------------------------------------------

def expected_calls(command: str, options) -> Dict[str, int]:
    """Calls of each listed layer per problem answered."""
    calls = {"parser.parse_problem": 1, "report.render": 1,
             "spaces.validate_embedding": 1}
    pipeline = ("pipeline.solve_deformation", "pipeline.jet_conditions",
                "pipeline.residual_rows", "pipeline.segre_fiber")
    if command == "rigidity":
        calls.update({k: 1 for k in pipeline})
        calls.update({"spaces.decide_rigidity": 1,
                      "spaces.trivial_subspace": 1,
                      "oracle.infinitesimal_automorphisms": 1,
                      "oracle.direct_solve": 0})
    elif "--oracle" in options:
        calls.update({k: 0 for k in pipeline})
        calls.update({"oracle.direct_solve": 1,
                      "oracle.deformation_residual": 2,
                      "spaces.decide_rigidity": 0})
    else:
        raise ValueError(f"no call counts for {command} {options}")
    return calls


def layer_metrics(trace_files
                  ) -> Tuple[Dict[str, Tuple[float, str]], List[dict]]:
    totals = {name: [0, 0.0, 0.0] for name, *_ in tracing.LAYERS}
    counts = [0] * tracing.NCOUNTS
    spans = []
    for path in trace_files:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        for name, (calls, total, self_s) in doc["totals"].items():
            rec = totals[name]
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        counts = [a + b for a, b in zip(counts, doc["counts"])]
        spans.append({"file": os.path.basename(path), "spans": doc["spans"]})
    metrics: Dict[str, Tuple[float, str]] = {}
    for name, (calls, total, self_s) in totals.items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.s"] = (total, "s")
        metrics[f"{name}.self_s"] = (self_s, "s")
    mul = counts[tracing.MUL]
    metrics["scalars.mul.calls"] = (mul, "count")
    metrics["scalars.add.calls"] = (counts[tracing.ADD], "count")
    metrics["scalars.mul.rational_share"] = (
        counts[tracing.MUL_RATIONAL] / mul if mul else 0.0, "ratio")
    metrics["scalars.mul.sqrtd_share"] = (
        counts[tracing.MUL_SQRTD] / mul if mul else 0.0, "ratio")
    added = counts[tracing.ROWS_ADDED]
    metrics["linalg.add_row.rank_ratio"] = (
        counts[tracing.ROWS_RANK] / added if added else 0.0, "ratio")
    return metrics, spans


def traced_run(problems, command, options, env, work, root
               ) -> Tuple[List[Answer], Dict[str, Tuple[float, str]]]:
    """Answer each problem untraced and then traced, in turn; return all
    the answers and the per-layer metrics of the traced ones."""
    trace_dir = os.path.join(work, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    untraced, traced, ratios = [], [], []
    for k, (entry, path, want) in enumerate(problems):
        untraced.append(answer_one(entry, path, want, command, options,
                                   env))
        traced.append(answer_one(entry, path, want, command, options, env,
                                 os.path.join(trace_dir, f"{k}.json")))
        ratios.append(traced[-1].scaled_s / untraced[-1].scaled_s - 1.0)
    files = [os.path.join(trace_dir, f"{k}.json")
             for k in range(len(problems))]
    metrics, spans = layer_metrics([f for f in files if os.path.exists(f)])
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    for name, per_problem in expected_calls(command, options).items():
        got, want = metrics[f"{name}.calls"][0], per_problem * len(problems)
        if got != want:
            traced[-1].failures.append(f"trace: {name} called {got} "
                                       f"times, expected {want}")
    with open(os.path.join(work, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump(spans, fh)
    wall = sum(a.seconds for a in traced)
    print(f"traced answers {wall:.3f} s, untraced "
          f"{sum(a.seconds for a in untraced):.3f} s; spans in "
          f"{os.path.relpath(os.path.join(work, 'spans.json'), root)}")
    print("trace overhead per problem, from scaled seconds: "
          + " ".join(f"{r:+.3f}" for r in ratios))
    for name, *_ in tracing.LAYERS:
        print(f"share of traced wall: {name} "
              f"{metrics[name + '.s'][0] / wall:.1%} "
              f"(self {metrics[name + '.self_s'][0] / wall:.1%})")
    return untraced + traced, metrics


# -- main ---------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "crrigid", "cli.py")):
        print("perfbench: run from the root of a crrigid checkout "
              "(src/crrigid not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    from crrigid.corpus import corpus_text

    workload = WORKLOADS[args.workload]
    command, options = workload.command, workload.options
    work = os.path.join(root, ".perfbench_work",
                        f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    problems = []
    for k, (entry, plan) in enumerate(workload.slots):
        p = draw(args.workload, args.seed, k, entry, corpus_text(entry),
                 plan)
        path = os.path.join(work, f"{k}-{entry}.crr")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(p.text)
        problems.append((entry, path, expected_answer(entry, command)))
        print(f"problem {k}: {entry}: "
              f"{'; '.join(s.describe() for s in p.shears)}")

    env = child_env(root)
    paths = [p[1] for p in problems]
    # before the answers, so that the first one does not pay for compiling
    # crrigid's byte code in a fresh checkout
    setup = [setup_sample(paths, env) for _ in range(SETUP_SAMPLES_FIRST)]
    metrics: Dict[str, Tuple[float, str]]

    if args.trace:
        answers, metrics = traced_run(problems, command, options, env,
                                      work, root)
    else:
        def between():
            setup.extend(setup_sample(paths, env)
                         for _ in range(SETUP_SAMPLES_EACH))

        per_problem = answer_for(problems, command, options, env,
                                 args.seconds, between)
        answers = [a for per in per_problem for a in per]

        def wall(seconds_of) -> float:
            return sum(statistics.median(seconds_of(a) for a in per)
                       for per in per_problem)

        print("set-up samples, s (scaled): " + " ".join(
            f"{x:.4f} ({y:.4f})" for x, y in setup))
        print(f"unscaled: wall_s {wall(lambda a: a.seconds):.3f}, "
              f"setup_s {statistics.median(x for x, _ in setup):.4f}")
        metrics = {
            "wall_s": (wall(lambda a: a.scaled_s), "s"),
            "setup_s": (statistics.median(y for _, y in setup), "s"),
            "peak_rss_mib": (max(a.maxrss_kib for a in answers) / 1024,
                             "MiB"),
        }
    failures = [f for a in answers for f in a.failures]
    failed = sum(bool(a.failures) for a in answers)
    attempted = len(answers)

    for f in failures:
        print(f"FAILED {f}")
    print(f"problems attempted: {attempted}, "
          f"failed: {failed}, fail_ratio: {failed / attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
