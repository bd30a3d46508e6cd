"""Problem file parsing."""

from fractions import Fraction

import pytest

from crrigid.corpus import EXPECTATIONS, corpus_text, load_corpus
from crrigid.geometry import Target
from crrigid.parser import ParseError, parse_expression, parse_problem
from crrigid.scalars import SQRT2, Scalar
from crrigid.series import Series, frame

I = Scalar(0, 0, 1)


def test_all_corpus_entries_parse():
    for entry in EXPECTATIONS:
        spec = load_corpus(entry, order=12)
        assert spec.source is not None
        assert spec.target is not None
        if not EXPECTATIONS[entry].aut_only:
            assert spec.H is not None


def test_expression_arithmetic():
    frm = frame("z", "w", order=8, weights=(1, 2))
    s = parse_expression("(1 + i)*z^2 - w/2", frm)
    assert s.coefficient((2, 0)) == 1 + I
    assert s.coefficient((0, 1)) == Scalar(Fraction(-1, 2))
    assert parse_expression("z**3", frm) == parse_expression("z^3", frm)


def test_expression_conj_real_imag():
    frm = frame("z", "chi", "w", "tau", order=8, weights=(1, 1, 2, 2))
    swap = {"z": "chi", "chi": "z", "w": "tau", "tau": "w"}
    s = parse_expression("imag(w)", frm, conj_swap=swap)
    assert s.coefficient((0, 0, 1, 0)) == Scalar(0, 0, Fraction(-1, 2))
    assert s.coefficient((0, 0, 0, 1)) == Scalar(0, 0, Fraction(1, 2))
    r = parse_expression("real(i*z*conj(z))", frm, conj_swap=swap)
    # real(i z chi) = (i z chi - i chi z)/2 ... = 0? no: conj of i z chi
    # under the formal swap is -i chi z, so the real part is 0
    assert r.is_zero()


def test_division_by_unit_only():
    frm = frame("z", "w", order=8, weights=(1, 2))
    s = parse_expression("z/(1 - w)", frm)
    assert s.coefficient((1, 2)) == Scalar(1)
    with pytest.raises(ParseError):
        parse_expression("1/z", frm)


def test_sqrt_literal():
    frm = frame("z", "w", order=8, weights=(1, 2))
    assert parse_expression("sqrt(4)", frm).constant_term() == Scalar(2)
    assert parse_expression("sqrt(2)", frm).constant_term() == SQRT2
    assert parse_expression("sqrt(8)", frm).constant_term() == 2 * SQRT2
    assert parse_expression("sqrt(18)", frm).constant_term() == 3 * SQRT2
    with pytest.raises(ParseError) as exc:
        parse_expression("sqrt(3)", frm)
    assert "Q(i, sqrt(2))" in str(exc.value)


_ZW = frame("z", "w", order=8, weights=(1, 2))


def _poly(*terms):
    """The Series over _ZW of (coefficient, (z exponent, w exponent))s."""
    out = Series.zero(_ZW)
    for c, exp in terms:
        out = out + Series.monomial(_ZW, exp, c)
    return out


@pytest.mark.parametrize("text, terms", [
    ("(1 + i)*z^2 - w/2", [(1 + I, (2, 0)), (Fraction(-1, 2), (0, 1))]),
    ("-z^2 + 3", [(-1, (2, 0)), (3, (0, 0))]),
    ("+z", [(1, (1, 0))]),
    ("--z", [(1, (1, 0))]),
    ("z*-w", [(-1, (1, 1))]),
    ("z*+w", [(1, (1, 1))]),
    ("z^(2)", [(1, (2, 0))]),
    ("z ** 2", [(1, (2, 0))]),
    ("2^3", [(8, (0, 0))]),
    ("sqrt((4))", [(2, (0, 0))]),
    ("sqrt(8)*z", [(2 * SQRT2, (1, 0))]),
    ("007*z", [(7, (1, 0))]),
    ("z/(1 - w)", [(1, (1, k)) for k in range(4)]),
    ("z*(w\n  + 1)", [(1, (1, 1)), (1, (1, 0))]),
])
def test_accepted_expressions(text, terms):
    assert parse_expression(text, _ZW, line=7) == _poly(*terms)


@pytest.mark.parametrize("text", [
    "$", "z w", "1.5", "0x10", "1_000", "True", "z % w", "abs(z)",
    "lambda: z", "sqrt(3)", "sqrt(x)", "conj(z, w)", "1/z", "z^-1",
    "z^2^3", "1e3", "1j", "x", "z, w", "(z)(w)", "",
])
def test_rejected_expressions(text):
    with pytest.raises(ParseError) as exc:
        parse_expression(text, _ZW, line=7)
    assert exc.value.line == 7


def test_long_sums():
    flat = " + ".join(["z"] * 2000)
    assert parse_expression(flat, _ZW) == _poly((2000, (1, 0)))
    assert parse_expression(f"({flat}) + ({flat})", _ZW) == \
        _poly((4000, (1, 0)))
    # Python builds the tree of a flat sum recursively
    with pytest.raises(ParseError, match="group a long sum in parentheses"):
        parse_expression(" + ".join(["z"] * 3000), _ZW, line=7)


def test_parse_problem_minimal():
    text = """
    # a comment
    vars z w;
    source: imag(w) = z*conj(z);
    target: hyperquadric +1;
    map: (z, 0*z, w);
    option work_order 12;
    """
    spec = parse_problem(text, order=16)
    assert spec.source.Q.coefficient((1, 1, 0)) == 2 * I
    assert spec.target.rho == Target.hyperquadric(1, 16).rho
    assert spec.options == {"work_order": 12}
    # the flag, else the file's option, else the default
    assert spec.orders() == (12, 16, 9)
    assert spec.orders(order=10, aut_order=7) == (10, 10, 7)


_PROBLEM = ("vars z w;\nsource: imag(w) = z*conj(z);\n"
            "target: hyperquadric +1;\nmap: (z, 0*z, w);\n")


def test_map_is_one_tuple():
    spec = parse_problem(_PROBLEM.replace("(z, 0*z, w)", "((z, z^2, w))"),
                         order=8)
    assert spec.H == parse_problem(_PROBLEM.replace("0*z", "z^2"),
                                   order=8).H
    for body in ("(z)*(z, 0*z, w)", "z"):
        with pytest.raises(ParseError, match=r"line 4: the map must be a "
                                             r"tuple \(a, b, c\)"):
            parse_problem(_PROBLEM.replace("(z, 0*z, w)", body), order=8)


def test_option_value_must_be_a_positive_integer():
    with pytest.raises(ParseError, match="line 5: option oracle_order "
                                         "takes a positive integer"):
        parse_problem(_PROBLEM + "option oracle_order 25/2;\n", order=8)


def test_unknown_option_rejected():
    with pytest.raises(ParseError, match="line 5: unknown option "
                                         "'work_ordr'"):
        parse_problem(_PROBLEM + "option work_ordr 5;\n", order=8)


@pytest.mark.parametrize("again, kind, first", [
    ("vars z w", "vars", 1),
    ("source: imag(w) = z*conj(z) + (z*conj(z))^2", "source", 2),
    ("target: hyperquadric -1", "target", 3),
    ("map: (z, z^2, w)", "map", 4),
], ids=["vars", "source", "target", "map"])
def test_repeated_statement_rejected(again, kind, first):
    with pytest.raises(ParseError, match=f"line 5: a second '{kind}' "
                                         f"statement; the first is on line "
                                         f"{first}"):
        parse_problem(_PROBLEM + again + ";\n", order=8)


def test_repeated_option_rejected():
    options = "option aut_order 9;\noption work_order 12;\n"
    assert parse_problem(_PROBLEM + options, order=8).options == \
        {"aut_order": 9, "work_order": 12}
    with pytest.raises(ParseError, match="line 7: a second 'option "
                                         "aut_order' statement; the first "
                                         "is on line 5"):
        parse_problem(_PROBLEM + options + "option aut_order 3;\n", order=8)


@pytest.mark.parametrize("body, count", [("(z, w)", 2),
                                         ("(z, 0*z, 0*z, w)", 4)],
                         ids=["short", "long"])
def test_map_length_must_match_the_target(body, count):
    with pytest.raises(ParseError, match=rf"line 4: the map has {count} "
                                         r"components, the target in C\^3 "
                                         r"needs 3"):
        parse_problem(_PROBLEM.replace("(z, 0*z, w)", body), order=8)


@pytest.mark.parametrize("target, message", [
    ("target(1): hyperquadric +1",
     r"target\(1\): a target lives in C\^n with n >= 2"),
    ("target(0): hyperquadric +1",
     r"target\(0\): a target lives in C\^n with n >= 2"),
    ("target(2): hyperquadric -1",
     r"hyperquadric -1 needs a target in C\^n with n >= 3"),
], ids=["C1", "C0", "C2-signature"])
def test_target_dimension_and_signature_checked(target, message):
    text = f"vars z w;\nsource: imag(w) = z*conj(z);\n{target};\n"
    with pytest.raises(ParseError, match="line 3: " + message):
        parse_problem(text, order=8)
    # the signature -1 needs a second z; C^4 has two
    assert parse_problem(text.replace(target, "target(4): hyperquadric -1"),
                         order=8).target.n == 4


@pytest.mark.parametrize("equation, accepted", [
    ("imag(w) = real(z)", False),
    ("real(w) = z*conj(z)", False),
    ("3*imag(w) = z*conj(z)", True),
    ("imag(w) = z*conj(z) + real(w)", True),
    ("imag(w) + real(z*w) = z*conj(z)", True),
], ids=["z-term", "real-w", "scaled", "plus-real-w", "zw-term"])
def test_source_linear_part_checked(equation, accepted):
    text = _PROBLEM.replace("imag(w) = z*conj(z)", equation)
    if accepted:
        parse_problem(text, order=8)
    else:
        with pytest.raises(ValueError, match=r"linear part must be "
                                             r"c\*imag\(w\) \+ d\*real\(w\)"):
            parse_problem(text, order=8)


@pytest.mark.parametrize("old, new, line", [
    ("target: hyperquadric +1", "targethyperquadric +1", 3),
    ("source: imag(w) = z*conj(z)", "sourcehyperquadric", 2),
    ("map: (z, 0*z, w);\n", "map: (z, 0*z, w);\noptionwork_order 9;\n", 5),
    ("source:", "source(5):", 2),
    ("map:", "map(3):", 4),
    ("vars z w", "vars(2) z w", 1),
], ids=["target-glued", "source-glued", "option-glued", "source-n",
        "map-n", "vars-n"])
def test_statement_head_is_a_whole_keyword(old, new, line):
    """A keyword glued to its body is not a statement head, and only
    ``target`` takes a dimension (n)."""
    with pytest.raises(ParseError, match=f"line {line}: ") as exc:
        parse_problem(_PROBLEM.replace(old, new), order=8)
    assert exc.value.line == line


def test_parse_errors_carry_line_numbers():
    text = "vars z w;\nsource: imag(w) = z*conj(z);\ntarget: hyperquadric +1;\nmap: (z, $, w);"
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    assert exc.value.line == 4


def test_conj_rejected_in_map_components():
    text = ("vars z w;\nsource: imag(w) = z*conj(z);\n"
            "target: hyperquadric +1;\nmap: (conj(z), 0*z, w);")
    with pytest.raises(ParseError):
        parse_problem(text)


def test_missing_statements_rejected():
    with pytest.raises(ParseError):
        parse_problem("vars z w;\nmap: (z, 0*z, w);")


def test_two_dimensional_target():
    spec = load_corpus("target-6-4", order=12)
    assert spec.target.n == 2
    assert spec.H is None


def test_corpus_text_is_verbatim():
    text = corpus_text("example-6-1")
    assert "hyperquadric" in text and "map:" in text
