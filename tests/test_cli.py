"""Command-line interface: exit codes, JSON output, determinism."""

import json
from dataclasses import replace

import pytest

from crrigid import cli
from crrigid.cli import main
from crrigid.corpus import EXPECTATIONS, corpus_text
from crrigid.jets import field_row


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _serve_from_cache(monkeypatch, cache, entry, **oracle):
    """Answer the command line's solves of ``entry`` from the shared
    ComputeCache, after checking that the command asked for them at the
    orders the entry's problem file states, so that a test here checks
    what the command line adds without solving again.  ``oracle`` replaces
    fields of the served oracle solve."""
    wo, oo, ao = cache.orders(entry)
    for name, order, get in (
            ("solve_deformation", wo, cache.pipeline),
            ("direct_solve", oo, lambda e: replace(cache.oracle(e), **oracle)),
            ("infinitesimal_automorphisms", ao, cache.automorphisms),
            ("decide_rigidity", ao, cache.rigidity)):
        def serve(*args, order=order, get=get, **kwargs):
            assert list(kwargs.values()) == [order]
            return get(entry)
        monkeypatch.setattr(cli, name, serve)


def test_check_corpus_entry(capsys):
    code, out, err = _run(capsys, "check", "example-6-1")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "check"
    assert "map_rewritten_with_g" not in doc    # the source is normal
    assert err.strip()


def test_check_is_deterministic(capsys):
    _, out1, _ = _run(capsys, "check", "example-6-1")
    _, out2, _ = _run(capsys, "check", "example-6-1")
    assert out1 == out2


def test_normal_coords(capsys):
    code, out, _ = _run(capsys, "normal-coords", "example-6-1")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "normal-coords"
    assert "g" not in doc and "map" not in doc


def test_missing_problem_argument():
    with pytest.raises(SystemExit):
        main(["deform"])


def test_unreadable_file_exits_2(capsys):
    code, _, err = _run(capsys, "check", "/nonexistent/problem.crr")
    assert code == 2
    assert "input error" in err


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.crr"
    bad.write_text("vars z w;\nsource: imag(w) = $;\n")
    code, _, err = _run(capsys, "check", str(bad))
    assert code == 2
    assert "input error" in err


def test_deeply_nested_map_component_exits_2(tmp_path, capsys):
    deep = "(" * 300 + "z" + ")" * 300
    bad = tmp_path / "deep.crr"
    bad.write_text("vars z w;\nsource: imag(w) = z*conj(z);\n"
                   f"target: hyperquadric +1;\nmap: ({deep}, 0*z, w);\n")
    code, _, err = _run(capsys, "check", str(bad))
    assert code == 2
    assert "input error: line 4: too many nested parentheses" in err


def test_options_before_problem(monkeypatch, cache, capsys):
    _serve_from_cache(monkeypatch, cache, "target-6-4")
    code, out, _ = _run(capsys, "automorphisms", "--aut-order", "11",
                        "target-6-4")
    assert code == 0
    assert json.loads(out)["command"] == "automorphisms"


@pytest.mark.parametrize("flags, option, name", [
    (("--order", "0"), "", "--order"),
    (("--order", "1"), "", "--order"),
    (("--order", "-3"), "", "--order"),
    (("--aut-order", "1"), "", "--aut-order"),
    ((), "option work_order 1;\n", "option work_order"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v.strip())
def test_solver_order_below_2_exits_2(tmp_path, capsys, flags, option, name):
    # no frame of weighted order 1 holds w
    path = tmp_path / "p.crr"
    path.write_text(corpus_text("example-6-1") + option)
    code, out, err = _run(capsys, "rigidity", str(path), *flags)
    assert code == 2
    assert not out
    assert f"{name} takes a positive integer >= 2" in err


def test_genericity_validates_the_map(tmp_path, capsys):
    # (z, z^2, 2w) does not send the sphere into the hyperquadric
    path = tmp_path / "scaled.crr"
    path.write_text("vars z w;\nsource: hyperquadric;\n"
                    "target: hyperquadric +1;\nmap: (z, z^2, 2*w);\n")
    code, out, err = _run(capsys, "genericity", str(path), "--order", "10")
    assert code == 2
    assert not out
    assert "input error" in err


def test_validation_expands_the_germs_it_reads(capsys):
    # the germs are expanded to order 9, deeper than --order 2 needs, and
    # validation reads them to that order
    code, out, err = _run(capsys, "rigidity", "sphere-8", "--order", "2",
                          "--aut-order", "2")
    assert code == 1, err
    doc = json.loads(out)
    assert doc["command"] == "rigidity"
    assert doc["stabilized"] is False


@pytest.mark.parametrize("command", ["check", "deform", "rigidity"])
def test_map_leaving_the_target_above_order_10_exits_2(tmp_path, capsys,
                                                      command):
    # w + z^12 leaves the target only at weighted order 12: validation
    # reads the germs to the order they are expanded to
    path = tmp_path / "p.crr"
    path.write_text(corpus_text("example-6-1").replace(
        "map: (z, z^2, w);", "map: (z, z^2, w + z^12);"))
    code, out, err = _run(capsys, command, str(path))
    assert code == 2
    assert not out
    assert "map does not send the source germ into the target germ" in err


def test_rigidity_not_stabilized_exits_1(capsys):
    code, out, _ = _run(capsys, "rigidity", "example-6-1", "--order", "6",
                        "--aut-order", "5")
    assert code == 1
    assert json.loads(out)["stabilized"] is False


def test_dims_by_order_sorted_by_order(capsys):
    # as text, "10" would come before "9"
    code, out, _ = _run(capsys, "deform", "example-6-1", "--order", "10")
    assert code == 0
    assert list(json.loads(out)["dims_by_order"]) == ["9", "10"]


def test_degenerate_map_exits_2(capsys):
    code, _, err = _run(capsys, "deform", "example-6-4-t0")
    assert code == 2
    assert "input error" in err


def test_automorphisms_command(monkeypatch, cache, capsys):
    # at the order its problem file states, without a flag
    _serve_from_cache(monkeypatch, cache, "target-6-4")
    code, out, _ = _run(capsys, "automorphisms", "target-6-4")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "automorphisms"
    assert doc["dimension"] == 1
    assert doc["stabilized"] is True
    assert doc["dims_by_order"] == {"(11, 11)": 1, "(12, 12)": 1}


def test_automorphisms_not_stabilized_exits_1(capsys):
    code, out, err = _run(capsys, "automorphisms", "target-6-4",
                          "--aut-order", "9")
    assert code == 1
    assert json.loads(out)["stabilized"] is False
    assert "NOT stabilized" in err


def test_deform_oracle_cubic(monkeypatch, cache, capsys):
    _serve_from_cache(monkeypatch, cache, "example-6-3")
    code, out, err = _run(capsys, "deform", "example-6-3", "--oracle",
                          "--order", "17")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["command", "dimension", "stabilized",
                         "dims_by_order", "basis"]
    assert doc["command"] == "deform"
    assert doc["dimension"] == 1
    assert doc["stabilized"] is True
    assert doc["dims_by_order"] == {"(17, 17)": 1, "(18, 18)": 1}
    [vec] = doc["basis"]
    assert vec and all(k.split()[0] in ("re", "im") for k in vec)
    assert err.strip()


def test_unstabilized_cross_check_exits_1(monkeypatch, cache, capsys):
    _serve_from_cache(monkeypatch, cache, "example-6-3",
                      dims={(17, 17): 2, (18, 18): 1})
    code, out, _ = _run(capsys, "deform", "example-6-3", "--with-oracle")
    assert code == 1
    assert json.loads(out)["oracle_stabilized"] is False


def test_cross_check_compares_spans(monkeypatch, cache, capsys):
    # an oracle kernel of the same dimension, spanned by the map's 4-jet
    other = field_row(cache.spec("example-6-3").H.components)
    _serve_from_cache(monkeypatch, cache, "example-6-3", kernel_real=[other])
    code, out, _ = _run(capsys, "deform", "example-6-3", "--with-oracle")
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle_dimension"] == doc["dimension"] == 1
    assert doc["oracle_agrees"] is False


_E61 = corpus_text("example-6-1")
_E61_MAP = "map: (z, z^2, w);"


@pytest.mark.parametrize("command, problem, code, message", [
    ("check", _E61.replace(_E61_MAP, "map: (z^2, z^3, w);"), 2,
     "input error: map is not an immersion at 0"),
    ("check", _E61.replace(_E61_MAP, "map: (z, w, z^2);"), 2,
     "input error: map is not transversal at 0"),
    ("check", _E61.replace(_E61_MAP, "map: (z, z^2, w)"), 2,
     "input error: line 5: unterminated statement (missing ';')"),
    ("check", _E61 + "option work_order;\n", 2,
     "input error: line 6: option takes a name and a value"),
    ("check", _E61.replace("vars z w;", "vars x y;"), 2,
     "input error: line 2: sources live in variables 'z w'"),
    ("check", _E61.replace("imag(w) =", "imag(w)"), 2,
     "input error: line 3: expected 'imag(...) = expression'"),
    ("check", _E61.replace("hyperquadric +1", "hyperquadric +2"), 2,
     "input error: line 4: hyperquadric signature must be +1 or -1"),
    ("check", _E61.replace(_E61_MAP, "map: (1 + z, z^2, w);"), 2,
     "input error: line 5: map germ must vanish at the origin"),
    ("deform", "target-6-4", 2,
     "input error: this command needs a 'map:' statement"),
    ("genericity", "example-6-1", 0, "certificate rank 74/74: full rank"),
], ids=["not-immersive", "not-transversal", "no-semicolon",
        "option-without-value", "vars-x-y", "source-without-equals",
        "hyperquadric-plus-2", "map-not-vanishing", "deform-without-map",
        "genericity-full-rank"])
def test_exit_code_and_stderr(tmp_path, capsys, command, problem, code,
                              message):
    if problem not in EXPECTATIONS:
        path = tmp_path / "p.crr"
        path.write_text(problem)
        problem = str(path)
    got, out, err = _run(capsys, command, problem)
    assert got == code
    assert bool(out) == (code == 0)
    assert message in err


def test_load_expands_again_for_a_work_order_above_the_default(tmp_path):
    # the first parse is at the default work order 17 + 7; option
    # work_order 20 needs its stage-1 frame, of order 20 + 5
    path = tmp_path / "p.crr"
    path.write_text(_E61 + "option work_order 20;\n")
    spec, orders = cli._load(str(path))
    assert orders == (20, 16, 9)
    assert {g.frame.order for g in (spec.source, spec.target, spec.H)} \
        == {25}


def test_problem_file_roundtrip(tmp_path, capsys):
    path = tmp_path / "prob.crr"
    path.write_text(corpus_text("example-6-1"))
    code, out, _ = _run(capsys, "check", str(path))
    assert code == 0
    json.loads(out)


def test_map_follows_the_source_into_normal_coordinates(tmp_path, capsys):
    # the source is not in normal coordinates (|z^2 + w^2|^2 has pure w
    # terms); the map is stated in the file's coordinates
    path = tmp_path / "prob.crr"
    path.write_text("vars z w;\n"
                    "source: imag(w) = z*conj(z)"
                    " + (z^2 + w^2)*conj(z^2 + w^2);\n"
                    "target: hyperquadric +1;\n"
                    "map: (z, z^2 + w^2, w);\n")
    code, out, _ = _run(capsys, "deform", str(path), "--with-oracle")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == doc["oracle_dimension"] == 10
    assert doc["oracle_agrees"] is True
    # the reports state the change g that rewrote the map
    g = {"w^4": "1", "z^2 w^2": "2"}
    assert doc["map_rewritten_with_g"] == g
    code, out, _ = _run(capsys, "check", str(path))
    assert code == 0 and json.loads(out)["map_rewritten_with_g"] == g
    code, out, _ = _run(capsys, "normal-coords", str(path))
    doc = json.loads(out)
    assert code == 0 and doc["g"] == g
    # the map the solvers read, H(z, w + i g), to weighted order 8
    assert doc["map"] == [{"z^1": "1"},
                          {"w^2": "1", "z^2": "1", "z^2 w^3": "4*i"},
                          {"w^1": "1", "w^4": "i", "z^2 w^2": "2*i"}]


def test_a_real_part_in_the_linear_part_gives_a_linear_gauge(tmp_path,
                                                             capsys):
    # imag(w) + real(w)/3: the change to normal coordinates g is linear
    path = tmp_path / "prob.crr"
    path.write_text("vars z w;\n"
                    "source: imag(w) + real(w)/3"
                    " = z*conj(z) + (z*conj(z))^2;\n"
                    "target: hyperquadric +1;\n"
                    "map: (z, z^2, (1 + i/3)*w);\n")
    code, out, _ = _run(capsys, "deform", str(path), "--with-oracle")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == doc["oracle_dimension"] == 10
    assert doc["oracle_agrees"] is True
    assert doc["map_rewritten_with_g"] == {"w^1": "-1/3"}
    code, out, _ = _run(capsys, "normal-coords", str(path))
    doc = json.loads(out)
    assert code == 0 and doc["g"] == {"w^1": "-1/3"}
    assert doc["Q"] == {"tau^1": "1", "z^1 chi^1": "9/5*i",
                        "z^2 chi^2": "9/5*i"}


def test_rigidity_on_a_levi_degenerate_target(tmp_path, capsys):
    # the sphere into a target of Levi signature (1, 0): no automorphism
    # solve runs, so its keys are null and the verdict stays open
    path = tmp_path / "prob.crr"
    path.write_text("vars z w;\nsource: hyperquadric;\n"
                    "target: imag(w1) = z1*conj(z1) + z1^2*conj(z2)"
                    " + conj(z1)^2*z2;\nmap: (z, 0, w);\n")
    code, out, _ = _run(capsys, "check", str(path))
    doc = json.loads(out)
    assert code == 0 and doc["target_levi_signature"] == [1, 0]
    assert doc["target_levi_nondegenerate"] is False and doc["k0"] == 2
    for flags in ((), ("--oracle",)):
        code, out, _ = _run(capsys, "rigidity", str(path), *flags)
        doc = json.loads(out)
        assert code == 0
        assert doc["dimension"] == 22 and doc["stabilized"] is True
        assert doc["target_levi_nondegenerate"] is False
        assert doc["automorphism_dimension"] is None
        assert doc["trivial_dimension"] is None
        assert doc["trivial_contained"] is None
        assert doc["verdict"] == "inconclusive"
    code, out, _ = _run(capsys, "deform", str(path), "--with-oracle")
    doc = json.loads(out)
    assert code == 0 and doc["dimension"] == doc["oracle_dimension"] == 22
    assert doc["oracle_agrees"] is True


def test_reproduce_fast_entries(monkeypatch, cache, capsys):
    _serve_from_cache(monkeypatch, cache, "target-6-4")
    code, _, err = _run(capsys, "reproduce", "example-6-4-t0")
    assert code == 0
    assert "reproduce example-6-4-t0: ok" in err
    code, _, err = _run(capsys, "reproduce", "target-6-4")
    assert code == 0
    assert "reproduce target-6-4: ok" in err


def test_reproduce_reports_a_wrong_expectation(monkeypatch, cache, capsys):
    _serve_from_cache(monkeypatch, cache, "example-6-3")
    monkeypatch.setitem(EXPECTATIONS, "example-6-3",
                        replace(EXPECTATIONS["example-6-3"], dim=2))
    code, _, err = _run(capsys, "reproduce", "example-6-3")
    assert code == 1
    assert ("reproduce example-6-3: FAIL  dim 1, oracle 1 (same span), "
            "inconclusive") in err
    assert "  dimension: got 1, expected 2" in err
    assert "  oracle dimension: got 1, expected 2" in err


def test_selftest_exits_0(capsys):
    code, _, err = _run(capsys, "selftest")
    assert code == 0
    assert "selftest: ok" in err


@pytest.mark.parametrize("problem", ["example-6-2", "/nonexistent.crr"])
def test_selftest_with_a_problem_exits_2(capsys, problem):
    code, out, err = _run(capsys, "selftest", problem)
    assert code == 2
    assert not out
    assert "input error: selftest takes no problem argument" in err


@pytest.mark.parametrize("command, flags", [
    ("genericity", ("--oracle",)),
    ("deform --oracle", ("--with-oracle",)),
    ("rigidity", ("--with-oracle",)),
    ("check", ("--oracle",)),
    ("check", ("--with-oracle",)),
    ("normal-coords", ("--oracle",)),
    ("normal-coords", ("--with-oracle",)),
    ("automorphisms", ("--oracle",)),
    ("automorphisms", ("--with-oracle",)),
    ("check", ("--order", "17")),
    ("normal-coords", ("--order", "17")),
    ("automorphisms", ("--order", "17")),
    ("check", ("--aut-order", "5")),
    ("normal-coords", ("--aut-order", "5")),
    ("deform", ("--aut-order", "5")),
    ("genericity", ("--aut-order", "5")),
    # 0 is a value given, not an absent flag
    ("check", ("--order", "0")),
    ("automorphisms", ("--order", "0")),
    ("selftest", ("--order", "0")),
    ("reproduce", ("--aut-order", "0")),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
def test_flag_a_command_does_not_read_exits_2(capsys, command, flags):
    entry = {"automorphisms": ["target-6-4"], "selftest": [],
             "reproduce": []}.get(command, ["example-6-1"])
    argv = command.split() + [*entry, *flags]
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert not out
    assert f"input error: {flags[0]} does not apply to {command}" in err


def test_reproduce_unknown_entry(capsys):
    code, _, err = _run(capsys, "reproduce", "no-such-entry")
    assert code == 2
