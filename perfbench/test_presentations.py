"""Tests of the benchmark's input generator, answer check and speed
sampler.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from crrigid import cli  # noqa: E402
from crrigid.corpus import EXPECTATIONS, corpus_text, load_corpus  # noqa: E402
from crrigid.parser import parse_problem  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from presentations import Shear, ShearPlan, draw, present  # noqa: E402

SHEARED_ENTRIES = [e for e, x in EXPECTATIONS.items()
                   if not x.aut_only and not x.degenerate]


def _texts(workload: str, seed: int):
    w = run.WORKLOADS[workload]
    return [draw(workload, seed, k, entry, corpus_text(entry), plan).text
            for k, (entry, plan) in enumerate(w.slots)]


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    assert _texts(workload, 7) == _texts(workload, 7)
    assert len({tuple(_texts(workload, s)) for s in range(10)}) > 1
    assert _texts(workload, 1) != _texts(workload, 2)


def _every_draw():
    """Each slot of each workload with each coefficient a seed can draw."""
    for name, w in sorted(run.WORKLOADS.items()):
        for entry, plan in w.slots:
            (p,) = plan
            for c in p.coeffs:
                yield name, entry, Shear(p.kind, ((c, p.monomial),))


@pytest.mark.parametrize("workload,entry,shear", list(_every_draw()),
                         ids=lambda x: getattr(x, "describe", lambda: x)())
def test_every_draw_passes_check(tmp_path, workload, entry, shear):
    path = tmp_path / "p.crr"
    path.write_text(present(entry, corpus_text(entry), [shear]))
    rc, out, err = _cli(["check", str(path)])
    assert rc == 0, err


def test_two_shears_pass_check(tmp_path):
    shears = [Shear("q", (("(1+i)", "z1^3"),)),
              Shear("r", (("i", "z2*w1"),))]
    path = tmp_path / "p.crr"
    path.write_text(present("sphere-8", corpus_text("sphere-8"), shears))
    rc, out, err = _cli(["check", str(path)])
    assert rc == 0, err


@pytest.mark.parametrize("entry", SHEARED_ENTRIES)
def test_identity_shear_parses_to_the_corpus_entry(entry):
    identity = [Shear("q", ()), Shear("r", ())]
    got = parse_problem(present(entry, corpus_text(entry), identity), 24)
    want = load_corpus(entry, 24)
    assert got.source.Q == want.source.Q
    assert got.target.rho == want.target.rho
    assert got.H == want.H
    assert got.options == want.options


def test_identity_shear_reproduces_the_corpus_answer(tmp_path):
    path = tmp_path / "p.crr"
    path.write_text(present("example-6-1", corpus_text("example-6-1"),
                            [Shear("q", ())]))
    result = {"rc": None, "stderr": "", "maxrss_kib": 0}
    result["rc"], result["report"], result["stderr"] = \
        _cli(["deform", str(path)])
    assert run.check_answer(result, run.expected_answer(
        "example-6-1", "deform")) == []


def test_answers_are_checked_from_the_report_not_the_exit_code():
    want = run.expected_answer("example-6-1", "rigidity")
    good = ('{"dimension": 10, "stabilized": true, '
            '"automorphism_dimension": 10, "trivial_dimension": 10, '
            f'"verdict": "{EXPECTATIONS["example-6-1"].verdict}"}}')
    ok = {"rc": 0, "report": good, "stderr": ""}
    assert run.check_answer(ok, want) == []
    # rigidity exits 0 on an unstabilized solve
    unstable = dict(ok, report=good.replace('"stabilized": true',
                                            '"stabilized": false'))
    assert run.check_answer(unstable, want) == \
        ["stabilized: got False, expected True"]
    assert run.check_answer(dict(ok, rc=1), want) == ["exit code 1"]
    assert run.check_answer(dict(ok, rc=2, report="", stderr="input error"),
                            want) != []


def test_a_failing_problem_is_counted_not_dropped(tmp_path):
    # the degenerate member of the 6-4 family exits 2 without a report
    path = tmp_path / "bad.crr"
    path.write_text(present("example-6-4-t0", corpus_text("example-6-4-t0"),
                            [Shear("q", (("1", "z1^3"),))]))
    want = run.expected_answer("example-6-4", "deform")
    env = run.child_env(os.path.dirname(HERE))
    (answers,) = run.answer_for([("example-6-4-t0", str(path), want)],
                                "deform", (), env, seconds=0)
    (answer,) = answers
    assert "no JSON report (exit 2)" in answer.failures[0]


def test_plans_reject_monomials_outside_the_shear_family():
    with pytest.raises(ValueError):
        ShearPlan("q", "z1^2", ("1",))
    with pytest.raises(ValueError):
        ShearPlan("r", "z2", ("1",))


def test_the_speed_sampler_has_a_sample_even_when_stopped_at_once():
    sampler = speed.Sampler()
    sampler.start()
    assert sampler.stop() > 0
