"""Expression trees for integrands: parse, evaluate, differentiate, print.

Grammar, lowest precedence first:

    comparison      <  <=  >  >=  ==  !=      (non-associative)
    additive        +  -                      (left-associative)
    multiplicative  *  /                      (left-associative)
    unary minus     -
    power           ^                         (right-associative)
    atoms           numbers, names, f(expr), (expr),
                    piecewise(cond -> expr, ..., else -> expr)

There is no implicit multiplication, and power is spelled ``^`` (so
``2**x`` is a syntax error at the second star).  Known functions are
sin, cos, tan, exp, ln, sqrt, abs; ``pi`` and ``e`` are constants.

Scalar evaluation is strict: every variable must be bound, every
intermediate must be finite, and domain violations (ln of a nonpositive,
sqrt of a negative, division by zero) raise DomainError carrying the
offending subtree.  compile_evaluator builds a vectorized numpy closure
instead, which lets nonfinite values flow through as nan/inf; that is
the form the integrator wants, since it treats nonfinite points through
its own undefined-point machinery.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr",
    "Number",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Compare",
    "Piecewise",
    "ParseError",
    "UnboundVariable",
    "DomainError",
    "NotDifferentiable",
    "parse",
    "evaluate",
    "differentiate",
    "to_text",
    "variables",
    "compile_evaluator",
]

UNARY_FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "abs")
CONSTANTS = {"pi": math.pi, "e": math.e}

_BINARY_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}
_COMPARE_SYMBOL = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "==", "ne": "!="}
_SYMBOL_COMPARE = {v: k for k, v in _COMPARE_SYMBOL.items()}
_COMPARE = {"lt": np.less, "le": np.less_equal, "gt": np.greater,
            "ge": np.greater_equal, "eq": np.equal, "ne": np.not_equal}


class Expr:
    """Base class; concrete nodes are the frozen dataclasses below."""

    __slots__ = ()


@dataclass(frozen=True)
class Number(Expr):
    value: float


@dataclass(frozen=True)
class Const(Expr):
    name: str  # "pi" | "e"


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # neg | sin | cos | tan | exp | ln | sqrt | abs
    child: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # add | sub | mul | div | pow
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Compare(Expr):
    op: str  # lt | le | gt | ge | eq | ne
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Piecewise(Expr):
    branches: tuple[tuple[Expr, Expr], ...]  # (condition, value); at least one
    default: Expr

    def __post_init__(self) -> None:
        if not self.branches:
            raise ValueError("piecewise needs at least one conditioned branch")


class ParseError(ValueError):
    """Syntax error with the byte offset and the token set expected there."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)


class UnboundVariable(KeyError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"variable '{name}' is not bound")

    def __str__(self) -> str:  # KeyError quotes its repr otherwise
        return self.args[0]


class DomainError(ArithmeticError):
    """Evaluation left the reals; carries the offending subexpression."""

    def __init__(self, message: str, node: Expr):
        self.node = node
        super().__init__(f"{message} in {to_text(node)}")


class NotDifferentiable(ValueError):
    def __init__(self, node: Expr, reason: str):
        self.node = node
        super().__init__(f"{reason}: {to_text(node)}")


# ---------------------------------------------------------------------------
# tokenizer

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>->|<=|>=|==|!=|[-+*/^(),<>])
    """,
    re.VERBOSE | re.ASCII,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "name" | "op" | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        out.append(_Token(m.lastgroup, m.group(), m.start()))
    out.append(_Token("end", "", len(text)))
    return out


# ---------------------------------------------------------------------------
# parser

_ATOM_EXPECTED = ("number", "name", "'('", "'-'")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def match_op(self, *ops: str) -> _Token | None:
        tok = self.peek()
        if tok.kind == "op" and tok.text in ops:
            return self.advance()
        return None

    def expect_op(self, op: str) -> _Token:
        tok = self.match_op(op)
        if tok is None:
            got = self.peek()
            raise ParseError(
                f"unexpected {got.text!r}" if got.kind != "end" else "unexpected end of input",
                got.pos,
                (f"'{op}'",),
            )
        return tok

    def parse_expression(self) -> Expr:
        left = self.parse_additive()
        tok = self.match_op(*_SYMBOL_COMPARE)
        if tok is not None:
            right = self.parse_additive()
            return Compare(_SYMBOL_COMPARE[tok.text], left, right)
        return left

    def parse_additive(self) -> Expr:
        node = self.parse_multiplicative()
        while True:
            tok = self.match_op("+", "-")
            if tok is None:
                return node
            rhs = self.parse_multiplicative()
            node = Binary("add" if tok.text == "+" else "sub", node, rhs)

    def parse_multiplicative(self) -> Expr:
        node = self.parse_unary()
        while True:
            tok = self.match_op("*", "/")
            if tok is None:
                return node
            rhs = self.parse_unary()
            node = Binary("mul" if tok.text == "*" else "div", node, rhs)

    def parse_unary(self) -> Expr:
        if self.match_op("-"):
            return Unary("neg", self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.match_op("^"):
            # right-associative; a leading minus in the exponent is allowed
            return Binary("pow", base, self.parse_unary())
        return base

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Number(float(tok.text))
        if tok.kind == "name":
            self.advance()
            if tok.text == "piecewise":
                return self.parse_piecewise(tok)
            if self.peek().kind == "op" and self.peek().text == "(":
                if tok.text not in UNARY_FUNCTIONS:
                    raise ParseError(f"unknown function {tok.text!r}", tok.pos)
                self.advance()
                arg = self.parse_expression()
                self.expect_op(")")
                return Unary(tok.text, arg)
            if tok.text in CONSTANTS:
                return Const(tok.text)
            return Var(tok.text)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            inner = self.parse_expression()
            self.expect_op(")")
            return inner
        raise ParseError(
            f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
            tok.pos,
            _ATOM_EXPECTED,
        )

    def parse_piecewise(self, head: _Token) -> Expr:
        self.expect_op("(")
        branches: list[tuple[Expr, Expr]] = []
        default: Expr | None = None
        while True:
            tok = self.peek()
            if tok.kind == "name" and tok.text == "else":
                self.advance()
                self.expect_op("->")
                default = self.parse_expression()
                break
            cond = self.parse_expression()
            if not isinstance(cond, Compare):
                raise ParseError("piecewise condition must be a comparison", tok.pos)
            self.expect_op("->")
            branches.append((cond, self.parse_expression()))
            self.expect_op(",")
        self.expect_op(")")
        if not branches:
            raise ParseError("piecewise needs a conditioned branch before else", head.pos)
        return Piecewise(tuple(branches), default)


def parse(text: str) -> Expr:
    """Parse an expression; raises ParseError with offset and expectations."""
    p = _Parser(text)
    node = p.parse_expression()
    tail = p.peek()
    if tail.kind != "end":
        raise ParseError(f"unexpected {tail.text!r}", tail.pos, ("end of input",))
    return node


# ---------------------------------------------------------------------------
# strict scalar evaluation

def _truth(node: Compare, env) -> bool:
    return bool(_COMPARE[node.op](evaluate(node.left, env), evaluate(node.right, env)))


def evaluate(e: Expr, env) -> float:
    """Strict scalar evaluation against a name->real environment."""
    if isinstance(e, Number):
        return e.value
    if isinstance(e, Const):
        return CONSTANTS[e.name]
    if isinstance(e, Var):
        try:
            return float(env[e.name])
        except KeyError:
            raise UnboundVariable(e.name) from None
    if isinstance(e, Unary):
        v = evaluate(e.child, env)
        if e.op == "neg":
            return -v
        if e.op == "ln":
            if v <= 0.0:
                raise DomainError("ln of a nonpositive value", e)
            return math.log(v)
        if e.op == "sqrt":
            if v < 0.0:
                raise DomainError("sqrt of a negative value", e)
            return math.sqrt(v)
        try:
            out = getattr(math, {"abs": "fabs"}.get(e.op, e.op))(v)
        except (OverflowError, ValueError):
            raise DomainError("nonfinite result", e) from None
        return out
    if isinstance(e, Binary):
        a = evaluate(e.left, env)
        b = evaluate(e.right, env)
        try:
            if e.op == "add":
                out = a + b
            elif e.op == "sub":
                out = a - b
            elif e.op == "mul":
                out = a * b
            elif e.op == "div":
                if b == 0.0:
                    raise DomainError("division by zero", e)
                out = a / b
            else:
                out = math.pow(a, b)
        except (OverflowError, ValueError, ZeroDivisionError):
            raise DomainError("nonfinite result", e) from None
        if not math.isfinite(out):
            raise DomainError("nonfinite result", e)
        return out
    if isinstance(e, Piecewise):
        for cond, branch in e.branches:
            if _truth(cond, env):
                return evaluate(branch, env)
        return evaluate(e.default, env)
    if isinstance(e, Compare):
        raise DomainError("comparison is not a real value", e)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# differentiation with light simplification

def _num(v: float) -> Expr:
    # keep literals nonnegative so printed forms reparse to the same tree
    if v < 0:
        return Unary("neg", Number(-v))
    return Number(v)


def _is_num(e: Expr, v: float | None = None) -> bool:
    return isinstance(e, Number) and (v is None or e.value == v)


def _add(a: Expr, b: Expr) -> Expr:
    if _is_num(a) and _is_num(b):
        return _num(a.value + b.value)
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return Binary("add", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_num(a) and _is_num(b):
        return _num(a.value - b.value)
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return Unary("neg", b)
    return Binary("sub", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_num(a) and _is_num(b):
        return _num(a.value * b.value)
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Number(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    return Binary("mul", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0) and not _is_num(b, 0.0):
        return Number(0.0)
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b) and b.value != 0.0:
        return _num(a.value / b.value)
    return Binary("div", a, b)


def _pow(a: Expr, b: Expr) -> Expr:
    if _is_num(b, 1.0):
        return a
    return Binary("pow", a, b)


def _neg(a: Expr) -> Expr:
    if _is_num(a):
        return _num(-a.value)
    return Unary("neg", a)


def variables(e: Expr) -> frozenset[str]:
    """Free variable names of the expression."""
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Unary):
        return variables(e.child)
    if isinstance(e, (Binary, Compare)):
        return variables(e.left) | variables(e.right)
    if isinstance(e, Piecewise):
        out = variables(e.default)
        for cond, branch in e.branches:
            out |= variables(cond) | variables(branch)
        return out
    return frozenset()


def differentiate(e: Expr, var: str) -> Expr:
    """Symbolic derivative with respect to var.

    abs nodes and piecewise conditions that mention var are rejected;
    subtrees that do not mention var at all differentiate to zero.
    """
    if var not in variables(e):
        return Number(0.0)
    if isinstance(e, Var):
        return Number(1.0)
    if isinstance(e, Unary):
        du = differentiate(e.child, var)
        u = e.child
        if e.op == "neg":
            return _neg(du)
        if e.op == "sin":
            return _mul(Unary("cos", u), du)
        if e.op == "cos":
            return _neg(_mul(Unary("sin", u), du))
        if e.op == "tan":
            return _div(du, _pow(Unary("cos", u), Number(2.0)))
        if e.op == "exp":
            return _mul(Unary("exp", u), du)
        if e.op == "ln":
            return _div(du, u)
        if e.op == "sqrt":
            return _div(du, _mul(Number(2.0), Unary("sqrt", u)))
        raise NotDifferentiable(e, "abs is not differentiable at its kink")
    if isinstance(e, Binary):
        u, v = e.left, e.right
        du = differentiate(u, var)
        dv = differentiate(v, var)
        if e.op == "add":
            return _add(du, dv)
        if e.op == "sub":
            return _sub(du, dv)
        if e.op == "mul":
            return _add(_mul(du, v), _mul(u, dv))
        if e.op == "div":
            return _div(_sub(_mul(du, v), _mul(u, dv)), _pow(v, Number(2.0)))
        if isinstance(v, Number):
            return _mul(_mul(v, _pow(u, _num(v.value - 1.0))), du)
        if var not in variables(u):
            return _mul(_mul(e, Unary("ln", u)), dv)
        return _mul(e, _add(_mul(dv, Unary("ln", u)), _div(_mul(v, du), u)))
    if isinstance(e, Piecewise):
        for cond, _ in e.branches:
            if var in variables(cond):
                raise NotDifferentiable(e, f"piecewise condition depends on '{var}'")
        return Piecewise(
            tuple((cond, differentiate(branch, var)) for cond, branch in e.branches),
            differentiate(e.default, var),
        )
    raise NotDifferentiable(e, "comparison has no derivative")


# ---------------------------------------------------------------------------
# printing

def to_text(e: Expr) -> str:
    """Fully parenthesized canonical form; parse(to_text(e)) == e."""
    if isinstance(e, Number):
        return repr(e.value)
    if isinstance(e, (Const, Var)):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            return f"(-{to_text(e.child)})"
        return f"{e.op}({to_text(e.child)})"
    if isinstance(e, Binary):
        return f"({to_text(e.left)} {_BINARY_SYMBOL[e.op]} {to_text(e.right)})"
    if isinstance(e, Compare):
        return f"({to_text(e.left)} {_COMPARE_SYMBOL[e.op]} {to_text(e.right)})"
    if isinstance(e, Piecewise):
        parts = [f"{to_text(c)} -> {to_text(b)}" for c, b in e.branches]
        parts.append(f"else -> {to_text(e.default)}")
        return "piecewise(" + ", ".join(parts) + ")"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# vectorized compilation for the integrator

def compile_evaluator(e: Expr, names: tuple[str, ...]):
    """Compile to a numpy closure over arrays, one argument per name.

    Unlike evaluate, nonfinite values and domain violations flow through
    as nan/inf: the integrator owns the policy for undefined points.
    Comparisons outside piecewise conditions are rejected here.

    x^k and x^-k with k an integer literal in 1..8 are computed by
    multiplication (of 1/x for -k) and may differ from pow() in the last
    bits; ±0, ±inf, nan and overflow match np.float_power, used otherwise.
    """
    order = {name: k for k, name in enumerate(names)}

    def build(node: Expr):
        if isinstance(node, Number):
            v = node.value
            return lambda args: v
        if isinstance(node, Const):
            v = CONSTANTS[node.name]
            return lambda args: v
        if isinstance(node, Var):
            try:
                k = order[node.name]
            except KeyError:
                raise UnboundVariable(node.name) from None
            return lambda args: args[k]
        if isinstance(node, Unary):
            child = build(node.child)
            fn = {
                "neg": np.negative,
                "sin": np.sin,
                "cos": np.cos,
                "tan": np.tan,
                "exp": np.exp,
                "ln": np.log,
                "sqrt": np.sqrt,
                "abs": np.abs,
            }[node.op]
            return lambda args: fn(child(args))
        if isinstance(node, Binary):
            left = build(node.left)
            k = _literal_power(node)
            if k:
                chain = _power_chain(k)
                return lambda args: chain(left(args))
            right = build(node.right)
            fn = {
                "add": np.add,
                "sub": np.subtract,
                "mul": np.multiply,
                "div": np.divide,
                "pow": np.float_power,
            }[node.op]
            return lambda args: fn(left(args), right(args))
        if isinstance(node, Compare):
            raise DomainError("comparison is not a real value", node)
        if isinstance(node, Piecewise):
            conds = [build_condition(c) for c, _ in node.branches]
            vals = [build(b) for _, b in node.branches]
            dflt = build(node.default)

            def piecewise(args):
                out = dflt(args)
                for c, v in zip(reversed(conds), reversed(vals)):
                    out = np.where(c(args), v(args), out)
                return out

            return piecewise
        raise TypeError(f"not an expression node: {node!r}")

    def build_condition(node: Compare):
        left = build(node.left)
        right = build(node.right)
        fn = _COMPARE[node.op]
        return lambda args: fn(left(args), right(args))

    root = build(e)

    def evaluator(*arrays):
        args = [np.asarray(a, dtype=float) for a in arrays]
        with np.errstate(all="ignore"):
            out = root(args)
        if not args:
            return float(out)
        out = np.asarray(out, dtype=float)
        shape = np.broadcast_shapes(*(a.shape for a in args))
        if out.shape != shape:
            out = np.broadcast_to(out, shape).copy()
        return out

    return evaluator


def _literal_power(node: Binary) -> int:
    """k for ``x^k`` or ``x^-k`` with k an integer literal in 1..8, else 0."""
    exponent, sign = node.right, 1
    if isinstance(exponent, Unary) and exponent.op == "neg":
        exponent, sign = exponent.child, -1
    literal = node.op == "pow" and isinstance(exponent, Number) and exponent.value in range(1, 9)
    return sign * int(exponent.value) if literal else 0


def _power_chain(k: int):
    """x -> x^k for |k| >= 1 by square-and-multiply, of 1/x when k < 0."""
    if k < 0:
        chain = _power_chain(-k)
        return lambda x: chain(np.divide(1.0, x))
    if k == 1:
        return lambda x: x
    half = _power_chain(k // 2)
    if k % 2:
        return lambda x: np.square(half(x)) * x
    return lambda x: np.square(half(x))
