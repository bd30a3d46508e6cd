"""Line-oriented problem files.

A problem file declares the source hypersurface, the target hypersurface
and the map, each by an expression over the declared variables, e.g.::

    vars z w;
    source: imag(w) = z*conj(z) + (z*conj(z))^2;
    target: hyperquadric +1;
    map: (z, z^2, w);

Expressions are Python expressions (``^`` read as ``**``) on the
allow-list of :func:`parse_expression`; the map is a tuple of them.
Rational map components (denominator nonzero at 0) are expanded into
truncated series at parse time.  A ``target(n):`` header, n >= 2,
declares a target germ in C^n (``target(2):`` is used for automorphism
runs); the map has one component per target coordinate.  ``option`` lines
set the solver orders of :data:`SOLVER_ORDERS`, e.g. ``option work_order 17;``.
Each statement, and each option key, may appear once.
"""

from __future__ import annotations

import ast
import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from crrigid.scalars import SQRT2, Scalar, I as IMAG
from crrigid.series import Frame, Series
from crrigid.geometry import SOURCE_SWAP, Source, Target, defining_frame, \
    normalize_defining, target_frame, target_swap
from crrigid.maps import MapGerm, map_frame


class ParseError(ValueError):
    def __init__(self, msg: str, line: Optional[int] = None):
        if line is not None:
            msg = f"line {line}: {msg}"
        super().__init__(msg)
        self.line = line


#: The solver orders an ``option`` line may set, and their defaults.
SOLVER_ORDERS: Dict[str, int] = {"work_order": 17, "oracle_order": 16,
                                 "aut_order": 9}

#: The least solver order: no frame of weighted order 1 holds w.
MIN_ORDER = 2


def solver_order(name: str, value: str, line: Optional[int] = None) -> int:
    """A solver order given as ``value`` to the option or flag ``name``:
    an integer >= :data:`MIN_ORDER`, else an input error."""
    if not re.fullmatch(r"[0-9]+", value) or int(value) < MIN_ORDER:
        raise ParseError(f"{name} takes a positive integer >= {MIN_ORDER}, "
                         f"not {value!r}", line)
    return int(value)


@dataclass
class ProblemSpec:
    source: Source
    target: Target
    H: Optional[MapGerm]
    options: Dict[str, int] = field(default_factory=dict)
    change: Optional[Series] = None    # the source's normal-coordinate g

    def orders(self, order: Optional[int] = None,
               aut_order: Optional[int] = None) -> Tuple[int, int, int]:
        """The (work, oracle, automorphism) solver orders: the flag
        ``--order`` for the first two and ``--aut-order`` for the last when
        given, else the file's ``option`` line, else the default.  A flag
        value is checked as an ``option`` value is."""
        opt = {**SOLVER_ORDERS, **self.options}
        if order is not None:
            opt["work_order"] = opt["oracle_order"] = \
                solver_order("--order", str(order))
        if aut_order is not None:
            opt["aut_order"] = solver_order("--aut-order", str(aut_order))
        return opt["work_order"], opt["oracle_order"], opt["aut_order"]


# -- expressions ------------------------------------------------------

#: Leading zeros of a decimal literal, which Python's grammar rejects.
_LEADING_ZEROS = re.compile(r"\b0+(?=\d)")

_ARITH = {ast.Add: operator.add, ast.Sub: operator.sub,
          ast.Mult: operator.mul}


def _sqrt_scalar(n: int, line: int) -> Scalar:
    """sqrt(n) for n = k^2 or n = 2 k^2, the square roots in the field."""
    k = math.isqrt(n)
    if k * k == n:
        return Scalar(k)
    k = math.isqrt(n // 2)
    if 2 * k * k == n:
        return SQRT2 * k
    raise ParseError(
        f"sqrt({n}) is not representable in the coefficient field "
        f"Q(i, sqrt(2))", line)


def parse_expression(text: str, frm: Frame,
                     conj_swap: Optional[Dict[str, str]] = None,
                     line: int = 0, components: bool = False
                     ) -> Union[Series, List[Series]]:
    """The Series over ``frm`` of a Python expression, ``^`` read as ``**``,
    whose nodes are on the allow-list: ``+ - * /``, ``**`` with an integer
    literal exponent, unary ``+ -``, decimal integer literals, ``i``, the
    frame's variables, ``sqrt(n)``, and ``conj``, ``real``, ``imag`` of one
    argument.  With ``components``, the Series of each component of a
    tuple, in a list.  Any other node, a syntax error, or a tree too deep
    for Python is a :class:`ParseError`."""
    code = _LEADING_ZEROS.sub("", " ".join(text.replace("^", "**").split()))

    def literal(node: ast.expr) -> int:
        # one line, offsets in UTF-8 bytes (get_source_segment splits lines)
        src = code.encode()[node.col_offset:node.end_col_offset].decode()
        if not (isinstance(node, ast.Constant) and src.isdigit()):
            raise ParseError(f"expected a decimal integer literal, not "
                             f"{src!r}", line)
        return node.value

    def series(node: ast.expr) -> Series:
        # fold a chain a + b - c ..., which nests to the left, in a loop
        rights = []
        while isinstance(node, ast.BinOp):
            rights.append((node.op, node.right))
            node = node.left
        s = atom(node)
        for op, right in reversed(rights):
            if isinstance(op, ast.Pow):
                s = s ** literal(right)
            elif isinstance(op, ast.Div):
                rhs = series(right)
                if rhs.constant_term().is_zero():
                    raise ParseError("division by an expression vanishing "
                                     "at 0", line)
                s = operator.mul(s, rhs.invert_unit())
            elif type(op) in _ARITH:
                s = _ARITH[type(op)](s, series(right))
            else:
                raise ParseError(f"operator {type(op).__name__} is not "
                                 "allowed", line)
        return s

    def atom(node: ast.expr) -> Series:
        if isinstance(node, ast.UnaryOp) and \
                isinstance(node.op, (ast.UAdd, ast.USub)):
            s = series(node.operand)
            return -s if isinstance(node.op, ast.USub) else s
        if isinstance(node, ast.Constant):
            return Series.const(frm, literal(node))
        if isinstance(node, ast.Name) and node.id == "i":
            return Series.const(frm, IMAG)
        if isinstance(node, ast.Name) and node.id in frm.vars:
            return Series.variable(frm, node.id)
        name = getattr(node.func, "id", None) \
            if isinstance(node, ast.Call) else None
        if name not in ("sqrt", "conj", "real", "imag") or \
                len(node.args) != 1 or node.keywords:
            raise ParseError("unknown symbol or form "
                             f"{ast.get_source_segment(code, node)!r}", line)
        if name == "sqrt":
            return Series.const(frm, _sqrt_scalar(literal(node.args[0]), line))
        if conj_swap is None:
            raise ParseError(f"{name} is not allowed in map components", line)
        s = series(node.args[0])
        c = s.conj(rename=conj_swap)
        if name == "conj":
            return c
        if name == "real":
            return (s + c).scale(Scalar(Fraction(1, 2)))
        return (s - c).scale(Scalar(0, 0, Fraction(-1, 2)))

    try:
        tree = ast.parse(code, mode="eval").body
        if not components:
            return series(tree)
        if not isinstance(tree, ast.Tuple):
            raise ParseError("the map must be a tuple (a, b, c)", line)
        return [series(c) for c in tree.elts]
    except RecursionError:
        raise ParseError("expression too long or nested too deeply; group a "
                         "long sum in parentheses: (a + b + ...) + (c + ...)",
                         line) from None
    except SyntaxError as exc:
        raise ParseError(f"{exc.msg} in {text.strip()!r}", line) from None


# -- problem files ----------------------------------------------------

def _statements(text: str):
    """Split into ;-terminated statements, tracking line numbers."""
    buf: List[str] = []
    start: Optional[int] = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0]
        for ch in stripped:
            if ch == ";":
                stmt = "".join(buf).strip()
                if stmt:
                    yield stmt, start or line_no
                buf, start = [], None
            else:
                if start is None and not ch.isspace():
                    start = line_no
                buf.append(ch)
        buf.append("\n")
    if "".join(buf).strip():
        raise ParseError("unterminated statement (missing ';')", start)


_HEAD = re.compile(r"^(vars|source|target|map|option)\b\s*(\((\d+)\))?\s*:?\s*",
                   re.IGNORECASE)


def parse_problem(text: str, order: int = 24) -> ProblemSpec:
    """Parse a problem file into germs expanded to the given order."""
    source = target = Hmap = change = None
    options: Dict[str, int] = {}
    seen: Dict[str, int] = {}           # statement or option key -> line
    for stmt, line in _statements(text):
        m = _HEAD.match(stmt)
        if not m:
            raise ParseError(f"unrecognized statement {stmt.split()[0]!r}",
                             line)
        kind = m.group(1).lower()
        if m.group(2) and kind != "target":
            raise ParseError(f"only 'target' takes a dimension (n), not "
                             f"{kind!r}", line)
        rest = stmt[m.end():].strip()
        if kind == "option":
            parts = rest.split()
            if len(parts) != 2:
                raise ParseError("option takes a name and a value", line)
            name, value = parts
            if name not in SOLVER_ORDERS:
                raise ParseError(f"unknown option {name!r}; known: "
                                 f"{', '.join(SOLVER_ORDERS)}", line)
            kind = f"option {name}"
        if kind in seen:
            raise ParseError(f"a second '{kind}' statement; the first is "
                             f"on line {seen[kind]}", line)
        seen[kind] = line
        if kind == "vars":
            if tuple(rest.split()) != ("z", "w"):
                raise ParseError("sources live in variables 'z w'", line)
        elif kind.startswith("option"):
            options[name] = solver_order(kind, value, line)
        elif kind == "source":
            source, change = _parse_source(rest, order, line)
        elif kind == "target":
            n = int(m.group(3)) if m.group(3) else 3
            target = _parse_target(rest, n, order, line)
        elif kind == "map":
            comps = parse_expression(rest, map_frame(order), None, line,
                                     components=True)
            try:
                Hmap = MapGerm(comps)
            except ValueError as exc:
                raise ParseError(str(exc), line)
    if source is None or target is None:
        raise ParseError("a problem file needs 'source:' and 'target:'")
    if Hmap is not None and len(Hmap) != target.n:
        raise ParseError(f"the map has {len(Hmap)} components, the target "
                         f"in C^{target.n} needs {target.n}", seen["map"])
    if Hmap is not None and change is not None:
        # the map in the source's normal coordinates: H(z, w + i g(z, w))
        z, w = (Series.variable(change.frame, v) for v in ("z", "w"))
        bind = {"z": z, "w": w + change.scale(IMAG)}
        Hmap = MapGerm([c.substitute(bind) for c in Hmap.components])
    return ProblemSpec(source, target, Hmap, options, change)


def _equation(text: str, frm: Frame, swap: Dict[str, str],
              line: int) -> Series:
    """lhs - rhs of the equation ``lhs = rhs``."""
    if "=" not in text:
        raise ParseError("expected 'imag(...) = expression'", line)
    lhs, rhs = text.split("=", 1)
    return parse_expression(lhs, frm, swap, line) - \
        parse_expression(rhs, frm, swap, line)


def _parse_source(rest: str, order: int, line: int
                  ) -> Tuple[Source, Optional[Series]]:
    """The source germ and its :func:`normalize_defining` change g."""
    if rest.lower() in ("hyperquadric", "hyperquadric +1"):
        return Source.hyperquadric(order), None
    rho = _equation(rest, defining_frame(order), SOURCE_SWAP, line)
    Q, change = normalize_defining(rho)
    return Source(Q), change


def _parse_target(rest: str, n: int, order: int, line: int) -> Target:
    if n < 2:
        raise ParseError(f"target({n}): a target lives in C^n with n >= 2",
                         line)
    low = rest.lower().replace(" ", "")
    if low.startswith("hyperquadric"):
        eps = {"+1": 1, "-1": -1, "1": 1, "": 1}.get(low[len("hyperquadric"):])
        if eps is None:
            raise ParseError("hyperquadric signature must be +1 or -1", line)
        if eps == -1 and n == 2:
            raise ParseError("hyperquadric -1 needs a target in C^n with "
                             "n >= 3", line)
        return Target.hyperquadric(eps, order, n=n)
    return Target(_equation(rest, target_frame(n, order), target_swap(n),
                            line), n)
