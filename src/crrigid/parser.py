"""Line-oriented problem files.

A problem file declares the source hypersurface, the target hypersurface
and the map, each by an expression over the declared variables, e.g.::

    vars z w;
    source: imag(w) = z*conj(z) + (z*conj(z))^2;
    target: hyperquadric +1;
    map: (z, z^2, w);

Expressions support +, -, *, /, integer ^, parentheses, integer literals,
``i``, ``sqrt(n)``, and the functions ``conj``, ``real``, ``imag``.
Rational map components (denominator nonzero at 0) are expanded into
truncated series at parse time.  A ``target(2):`` header declares a
2-dimensional target germ (used for automorphism runs).  ``option`` lines
set the solver orders of :data:`SOLVER_ORDERS`, e.g. ``option work_order 17;``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from crrigid.scalars import SQRT2, Scalar, I as IMAG
from crrigid.series import Frame, Series
from crrigid.geometry import Source, Target, defining_frame, \
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


# -- tokenizer --------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\*\*|[()+\-*/^,])")


def _tokenize(text: str, line: int) -> List[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", line)
            break
        out.append(m.group(1))
        pos = m.end()
    return out


# -- expression parser (precedence climbing) --------------------------

class _Expr:
    """Parses one expression into a Series over a fixed frame."""

    def __init__(self, tokens: List[str], frm: Frame,
                 conj_swap: Optional[Dict[str, str]], line: int):
        self.toks = tokens
        self.pos = 0
        self.frm = frm
        self.swap = conj_swap
        self.line = line

    def err(self, msg: str) -> ParseError:
        return ParseError(msg, self.line)

    def peek(self) -> Optional[str]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self) -> str:
        t = self.peek()
        if t is None:
            raise self.err("unexpected end of expression")
        self.pos += 1
        return t

    def expect(self, tok: str) -> None:
        t = self.take()
        if t != tok:
            raise self.err(f"expected {tok!r}, found {t!r}")

    def parse(self) -> Series:
        s = self.sum()
        if self.peek() is not None:
            raise self.err(f"trailing tokens after expression: {self.peek()!r}")
        return s

    def sum(self) -> Series:
        if self.peek() == "-":
            self.take()
            s = self.product().scale(Scalar(-1))
        else:
            if self.peek() == "+":
                self.take()
            s = self.product()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.product()
            s = s + rhs if op == "+" else s - rhs
        return s

    def product(self) -> Series:
        s = self.power()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.power()
            if op == "*":
                s = s * rhs
            else:
                if rhs.constant_term().is_zero():
                    raise self.err("division by an expression vanishing at 0")
                s = s * rhs.invert_unit()
        return s

    def power(self) -> Series:
        s = self.atom()
        if self.peek() in ("^", "**"):
            self.take()
            t = self.take()
            if not t.isdigit():
                raise self.err("exponent must be a nonnegative integer")
            return s ** int(t)
        return s

    def atom(self) -> Series:
        t = self.take()
        if t == "(":
            s = self.sum()
            self.expect(")")
            return s
        if t.isdigit():
            return Series.const(self.frm, int(t))
        if t == "i":
            return Series.const(self.frm, IMAG)
        if t == "sqrt":
            self.expect("(")
            arg = self.take()
            self.expect(")")
            if not arg.isdigit():
                raise self.err("sqrt takes an integer literal")
            return Series.const(self.frm, _sqrt_scalar(int(arg), self.line))
        if t in ("conj", "real", "imag"):
            self.expect("(")
            s = self.sum()
            self.expect(")")
            if self.swap is None:
                raise self.err(f"{t} is not allowed in map components")
            c = s.conj(rename=self.swap)
            if t == "conj":
                return c
            if t == "real":
                return (s + c).scale(Scalar(Fraction(1, 2)))
            return (s - c).scale(Scalar(0, 0, Fraction(-1, 2)))
        if t in self.frm.vars:
            return Series.variable(self.frm, t)
        raise self.err(f"unknown symbol {t!r}")


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
                     line: int = 0) -> Series:
    return _Expr(_tokenize(text, line), frm, conj_swap, line).parse()


# -- problem files ----------------------------------------------------

_SOURCE_SWAP = {"z": "chi", "chi": "z", "w": "tau", "tau": "w"}


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


_HEAD = re.compile(r"^(vars|source|target|map|option)\s*(\((\d+)\))?\s*:?\s*",
                   re.IGNORECASE)


def parse_problem(text: str, order: int = 24) -> ProblemSpec:
    """Parse a problem file into germs expanded to the given order."""
    source = target = Hmap = change = None
    options: Dict[str, int] = {}
    declared_vars: Optional[Tuple[str, ...]] = None
    for stmt, line in _statements(text):
        m = _HEAD.match(stmt)
        if not m:
            raise ParseError(f"unrecognized statement {stmt.split()[0]!r}",
                             line)
        kind = m.group(1).lower()
        rest = stmt[m.end():].strip()
        if kind == "vars":
            declared_vars = tuple(rest.split())
            if declared_vars != ("z", "w"):
                raise ParseError("sources live in variables 'z w'", line)
        elif kind == "option":
            parts = rest.split()
            if len(parts) != 2:
                raise ParseError("option takes a name and a value", line)
            name, value = parts
            if name not in SOLVER_ORDERS:
                raise ParseError(f"unknown option {name!r}; known: "
                                 f"{', '.join(SOLVER_ORDERS)}", line)
            options[name] = solver_order(f"option {name}", value, line)
        elif kind == "source":
            source, change = _parse_source(rest, order, line)
        elif kind == "target":
            n = int(m.group(3)) if m.group(3) else 3
            target = _parse_target(rest, n, order, line)
        elif kind == "map":
            Hmap = _parse_map(rest, order, line)
    if source is None or target is None:
        raise ParseError("a problem file needs 'source:' and 'target:'")
    if Hmap is not None and change is not None:
        # the map in the source's normal coordinates: H(z, w + i g(z, w))
        z, w = (Series.variable(change.frame, v) for v in ("z", "w"))
        bind = {"z": z, "w": w + change.scale(IMAG)}
        Hmap = MapGerm([c.substitute(bind) for c in Hmap.components])
    return ProblemSpec(source, target, Hmap, options)


def _split_equation(text: str, line: int) -> Tuple[str, str]:
    if "=" not in text:
        raise ParseError("expected 'imag(...) = expression'", line)
    lhs, rhs = text.split("=", 1)
    return lhs.strip(), rhs.strip()


def _parse_source(rest: str, order: int, line: int
                  ) -> Tuple[Source, Optional[Series]]:
    """The source germ and its :func:`normalize_defining` change g."""
    if rest.lower() in ("hyperquadric", "hyperquadric +1"):
        return Source.hyperquadric(order), None
    lhs, rhs = _split_equation(rest, line)
    frm = defining_frame(order)
    left = parse_expression(lhs, frm, _SOURCE_SWAP, line)
    right = parse_expression(rhs, frm, _SOURCE_SWAP, line)
    # rho = Im w - (graph) has linear part (w - tau) / 2i
    Q, change = normalize_defining(left - right)
    return Source(Q), change


def _parse_target(rest: str, n: int, order: int, line: int) -> Target:
    low = rest.lower().replace(" ", "")
    if low.startswith("hyperquadric"):
        eps = {"+1": 1, "-1": -1, "1": 1, "": 1}.get(low[len("hyperquadric"):])
        if eps is None:
            raise ParseError("hyperquadric signature must be +1 or -1", line)
        return Target.hyperquadric(eps, order, n=n)
    lhs, rhs = _split_equation(rest, line)
    frm = target_frame(n, order)
    swap = target_swap(n)
    left = parse_expression(lhs, frm, swap, line)
    right = parse_expression(rhs, frm, swap, line)
    return Target(left - right, n)


def _parse_map(rest: str, order: int, line: int) -> MapGerm:
    rest = rest.strip()
    if not (rest.startswith("(") and rest.endswith(")")):
        raise ParseError("map components must be parenthesized: (a, b, c)",
                         line)
    frm = map_frame(order)
    comps = []
    depth, start = 0, 1
    parts = []
    for i, ch in enumerate(rest):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                parts.append(rest[start:i])
        elif ch == "," and depth == 1:
            parts.append(rest[start:i])
            start = i + 1
    for part in parts:
        comps.append(parse_expression(part, frm, None, line))
    try:
        return MapGerm(comps)
    except ValueError as exc:
        raise ParseError(str(exc), line)
