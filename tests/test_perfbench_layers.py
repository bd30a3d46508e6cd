"""The benchmark's traced layers name code that exists.

perfbench/tracing.py wraps each function of its LAYERS table, and
perfbench/run.py checks call counts of some of them; a function deleted or
renamed here would otherwise fail only the benchmark's traced run.  The
benchmark files are imported, never changed.
"""

import importlib
import importlib.util
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
SRC = os.path.join(os.path.dirname(PERFBENCH), "src")


@pytest.fixture(scope="module")
def perfbench():
    """perfbench/run.py and the tracing module it imports."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(PERFBENCH, "run.py"))
    run = importlib.util.module_from_spec(spec)
    path = list(sys.path)
    sys.modules[spec.name] = run    # for its dataclasses
    try:
        spec.loader.exec_module(run)
        yield run.tracing, run
    finally:
        sys.path[:] = path          # run.py puts perfbench/ on the path
        del sys.modules[spec.name]


def test_every_layer_resolves_in_src(perfbench):
    tracing, _ = perfbench
    for name, modname, attr, _ in tracing.LAYERS:
        module = importlib.import_module(modname)
        assert os.path.abspath(module.__file__).startswith(SRC), name
        target = module
        for part in attr.split("."):
            assert hasattr(target, part), f"{name}: {modname}.{attr}"
            target = getattr(target, part)
        assert callable(target), name


def test_expected_calls_name_layers(perfbench):
    tracing, run = perfbench
    layers = {name for name, *_ in tracing.LAYERS}
    for workload in run.WORKLOADS.values():
        calls = run.expected_calls(workload.command, workload.options)
        assert set(calls) <= layers, set(calls) - layers


@pytest.mark.parametrize("workload", ["oracle-nonspherical",
                                      "rigidity-spherical"])
def test_traced_answer_meets_expected_calls(perfbench, workload, tmp_path):
    """One traced answer of the workload's first corpus entry, unsheared,
    in a child process: right, and with the call counts the benchmark's
    traced run requires."""
    from crrigid.corpus import corpus_text
    _, run = perfbench
    wl = run.WORKLOADS[workload]
    entry = wl.slots[0][0]
    path = tmp_path / f"{entry}.crr"
    path.write_text(corpus_text(entry), encoding="utf-8")
    trace = str(tmp_path / "trace.json")
    got = run.answer_one(entry, str(path),
                         run.expected_answer(entry, wl.command),
                         wl.command, wl.options,
                         run.child_env(os.path.dirname(PERFBENCH)), trace)
    assert got.failures == []
    metrics, _ = run.layer_metrics([trace])
    for name, calls in run.expected_calls(wl.command, wl.options).items():
        assert metrics[f"{name}.calls"][0] == calls, name
