"""Arithmetic expressions over named variables with exact derivatives.

Grammar (EBNF)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' INT)?
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')' | '-' atom

Known functions: ``sin cos exp ln sqrt neg``.  The power operator takes a
non-negative integer literal exponent only.

``eval_jet2`` propagates second-order forward jets through the tree, so the
returned gradient and Hessian carry no truncation error.  Each (expression,
variable-order) pair is compiled once into straight-line scalar Python and
cached; the integrators call the compiled form millions of times.  The first
``eval_jet2`` of a pair walks the tree instead, with the same floats, so a
one-off expression is never compiled.  Bound by a list of floats rather than
a mapping, ``eval_jet2`` returns flat float tuples, not arrays, and the
compiled form takes the list by position.

A tuple of expressions (vector forward mode) gets one straight-line
function for all its entries, with the same floats as entry-by-entry
jets.  Expression nodes are unhashable, so its compiled form is cached on
the tuple itself: an :class:`Array`, held by the object that owns the
array (an algebroid's anchor, a section's momentum part).
"""

from __future__ import annotations

import math
import operator
import re

import numpy as np

from .errors import EvaluationFault, ParseError

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt", "neg")

__all__ = [
    "Expression",
    "Num",
    "Var",
    "BinOp",
    "Pow",
    "Fun",
    "Neg",
    "Array",
    "parse",
    "evaluate",
    "eval_jet2",
    "compile_jet2",
    "free_variables",
    "FUNCTIONS",
]


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Expression:
    """Immutable expression tree node."""

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class Num(Expression):
    def __init__(self, value: float):
        self.value = float(value)

    def __str__(self) -> str:
        return repr(self.value)

    def __eq__(self, other) -> bool:
        return isinstance(other, Num) and (
            self.value == other.value
            or (math.isnan(self.value) and math.isnan(other.value))
        )


class Var(Expression):
    def __init__(self, name: str):
        self.name = name

    def __str__(self) -> str:
        return self.name

    def __eq__(self, other) -> bool:
        return isinstance(other, Var) and self.name == other.name


class BinOp(Expression):
    def __init__(self, op: str, lhs: Expression, rhs: Expression):
        assert op in "+-*/"
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def __str__(self) -> str:
        return f"({self.lhs} {self.op} {self.rhs})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinOp)
            and self.op == other.op
            and self.lhs == other.lhs
            and self.rhs == other.rhs
        )


class Pow(Expression):
    def __init__(self, base: Expression, exponent: int):
        self.base = base
        self.exponent = int(exponent)

    def __str__(self) -> str:  # a power of a power reads back only in parentheses
        base = f"({self.base})" if isinstance(self.base, Pow) else str(self.base)
        return f"{base}^{self.exponent}"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Pow)
            and self.exponent == other.exponent
            and self.base == other.base
        )


class Fun(Expression):
    def __init__(self, name: str, arg: Expression):
        assert name in FUNCTIONS
        self.name = name
        self.arg = arg

    def __str__(self) -> str:
        return f"{self.name}({self.arg})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Fun) and self.name == other.name and self.arg == other.arg


class Neg(Expression):
    def __init__(self, arg: Expression):
        self.arg = arg

    def __str__(self) -> str:
        return f"(-{self.arg})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Neg) and self.arg == other.arg


def free_variables(e: Expression) -> frozenset:
    if isinstance(e, Num):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, BinOp):
        return free_variables(e.lhs) | free_variables(e.rhs)
    if isinstance(e, Pow):
        return free_variables(e.base)
    if isinstance(e, (Fun, Neg)):
        return free_variables(e.arg)
    raise TypeError(f"not an expression node: {e!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", offset)
        return self.advance()

    def parse(self) -> Expression:
        e = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", offset)
        return e

    def expr(self) -> Expression:
        e = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                e = BinOp(value, e, self.term())
            else:
                return e

    def term(self) -> Expression:
        e = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                e = BinOp(value, e, self.factor())
            else:
                return e

    def factor(self) -> Expression:
        e = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, offset = self.peek()
            if kind != "num" or not value.isdigit():
                raise ParseError("exponent must be a non-negative integer literal", offset)
            self.advance()
            e = Pow(e, int(value))
        return e

    def atom(self) -> Expression:
        kind, value, offset = self.peek()
        if kind == "num":
            if not math.isfinite(float(value)):  # it would print as inf, which does not read back
                raise ParseError(f"number {value!r} is not finite", offset)
            self.advance()
            return Num(float(value))
        if kind == "ident":
            self.advance()
            nkind, nvalue, _ = self.peek()
            if nkind == "op" and nvalue == "(":
                if value not in FUNCTIONS:
                    raise ParseError(f"unknown function {value!r}", offset)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                if value == "neg":
                    return Neg(arg)
                return Fun(value, arg)
            return Var(value)
        if kind == "op" and value == "(":
            self.advance()
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.atom())
        if kind == "end":
            raise ParseError("unexpected end of input", offset)
        raise ParseError(f"unexpected token {value!r}", offset)


def parse(text: str) -> Expression:
    """Parse ``text`` into an expression tree.

    Printing the result with ``str`` and reparsing yields a structurally
    equal tree.
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Plain evaluation
# ---------------------------------------------------------------------------


def evaluate(e: Expression, binding) -> float:
    """Evaluate ``e`` at ``binding`` (a mapping name -> value).

    Unbound variables, division by zero, ``ln``/``sqrt`` of an inadmissible
    argument and non-finite results all raise :class:`EvaluationFault`.
    """
    try:
        v = _eval(e, binding)
    except KeyError as exc:
        raise EvaluationFault(f"unbound variable {exc.args[0]!r}") from exc
    except (ZeroDivisionError, ValueError, OverflowError) as exc:
        raise EvaluationFault(str(exc)) from exc
    if not math.isfinite(v):
        raise EvaluationFault(f"non-finite result {v!r}")
    return v


def _eval(e: Expression, b) -> float:
    fn = getattr(e, "_evaluator", None)
    if fn is None:
        fn = _evaluator(e)
        e._evaluator = fn
    return fn(b)


_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_FUNS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "ln": math.log,
         "sqrt": math.sqrt, "neg": operator.neg}


def _evaluator(e: Expression):
    """``e`` as a tree of closures ``binding -> float``, built once."""
    if isinstance(e, Num):
        value = e.value
        return lambda b: value
    if isinstance(e, Var):
        name = e.name
        return lambda b: float(b[name])
    if isinstance(e, BinOp):
        lhs, rhs, op = _evaluator(e.lhs), _evaluator(e.rhs), _BINOPS[e.op]
        return lambda b: op(lhs(b), rhs(b))
    if isinstance(e, Pow):
        base, n = _evaluator(e.base), e.exponent
        return lambda b: base(b) ** n
    if isinstance(e, Neg):
        arg = _evaluator(e.arg)
        return lambda b: -arg(b)
    if isinstance(e, Fun):
        arg, fn = _evaluator(e.arg), _FUNS[e.name]
        return lambda b: fn(arg(b))
    raise TypeError(f"not an expression node: {e!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Second-order forward jets
# ---------------------------------------------------------------------------
#
# ``_emit`` walks the tree once and sends every arithmetic step to a backend:
# ``_Emitter`` writes the steps as straight-line source, which is compiled;
# ``_Evaluator`` carries them out at once on the bound values, running each
# step's source form as a Python function.  Both fold structural zeros in
# ``_Tokens``, so the two give the same floats bit for bit.

_ZERO = "0.0"


class _Zero(float):
    """Type of the evaluator's structural zero: a float equal to 0.0."""


_Z = _Zero(0.0)


_NS = {
    "_sin": math.sin,
    "_cos": math.cos,
    "_exp": math.exp,
    "_log": math.log,
    "_sqrt": math.sqrt,
    "_float": float,
}

_STEPS = {}


def _step(form: str, n: int):
    """The source form (``"{0} * {1}"``) of n operands as a function of them."""
    fn = _STEPS.get(form)
    if fn is None:
        args = [f"a{i}" for i in range(n)]
        fn = eval(f"lambda {', '.join(args)}: {form.format(*args)}", dict(_NS))
        _STEPS[form] = fn
    return fn


class _Tokens:
    """The folding token algebra over a backend's ``zero``, ``const``,
    ``literal`` and ``step``: no step ever takes the structural zero, which
    ``zero`` and ``const(0.0)`` both return as the one object ``is_zero``
    tests for.  Where ``literal`` gives the floats of both operands, a step
    is folded into the literal of its result, the same IEEE operation done
    once (but for a zero result, which would turn structural); a product
    with the literal 1.0 is its other operand where ``floating`` says that
    already holds a float, since x * 1.0 is x but turns an int into a float."""

    def is_zero(self, t) -> bool:
        return t is self.zero

    def _fold(self, op, form: str, *args):
        values = [self.literal(t) for t in args]
        if None not in values:
            v = op(*values)
            if v != 0.0:
                return self.const(v)
        return self.step(form, *args)

    def add(self, a, b):
        zero = self.zero
        if a is zero:
            return b
        if b is zero:
            return a
        return self._fold(operator.add, "{0} + {1}", a, b)

    def sub(self, a, b):
        zero = self.zero
        if b is zero:
            return a
        if a is zero:
            return self.neg(b)
        return self._fold(operator.sub, "{0} - {1}", a, b)

    def neg(self, a):
        if a is self.zero:
            return a
        return self._fold(operator.neg, "-{0}", a)

    def mul(self, a, b):
        zero = self.zero
        if a is zero or b is zero:
            return zero
        if self.literal(a) == 1.0 and self.floating(b):
            return b
        if self.literal(b) == 1.0 and self.floating(a):
            return a
        return self._fold(operator.mul, "{0} * {1}", a, b)


# The step forms that cannot raise on finite floats, ln's d2 among them; with
# ``**``, those that give an int when every operand is one: int variables' steps
_SAFE_FORMS = frozenset(("-{0}", "{0} + {1}", "{0} - {1}", "{0} * {1}", "-{0} * {0}"))
_INT_FORMS = _SAFE_FORMS | {"{0} ** {1}"}


class _Emitter(_Tokens):
    """Accumulates straight-line assignments as steps (name, form, operands),
    which :func:`_compiled` writes as source; tokens are source, "0.0" is
    zero.  It keeps the float of each literal token it made or was given,
    the tokens that may hold an int (the variables and the int steps of
    them alone), and in ``read`` each token its contraction fold wrote."""

    zero = _ZERO

    def __init__(self):
        self.steps, self.literals, self.ints, self.read = [], {_ZERO: 0.0}, set(), set()

    def const(self, x: float) -> str:
        if not math.isfinite(x):
            t = f"_float({repr(x)!r})"
        elif math.copysign(1.0, x) < 0:
            t = f"({x!r})"
        elif x == 0.0:
            return _ZERO
        else:
            t = repr(x)
        self.literals[t] = x
        return t

    def number(self, x: float) -> str:
        """The literal ``repr(x)``, as held anchor and structure data is written."""
        t = repr(x)
        self.literals[t] = x
        return t

    def literal(self, t):
        return self.literals.get(t)

    def value(self, t):
        """The float of a finite literal token, else None: the contraction
        fold reads a non-finite literal (a call) as a name."""
        v = self.literals.get(t, math.nan)
        return v if math.isfinite(v) else None

    def floating(self, t) -> bool:
        return t not in self.ints

    def var(self, name: str) -> str:
        t = f"_v_{name}"
        self.ints.add(t)
        return t

    def step(self, form: str, *args) -> str:
        name = f"t{len(self.steps)}"
        self.steps.append((name, form, args))
        ints = self.ints
        if form in _INT_FORMS and all(a in ints if isinstance(a, str) else isinstance(a, int)
                                      for a in args):
            ints.add(name)
        return name

    def needed(self, reads) -> list:
        """The steps that the tokens ``reads`` need, in order, and each step
        that may raise (a power, quotient or call, or one of a non-finite
        literal), so every fault is raised where and in the order it was."""
        live, kept = set(reads), []
        for name, form, args in reversed(self.steps):
            if name in live or form not in _SAFE_FORMS or any(
                    t in self.literals and self.value(t) is None for t in args):
                live.update(args)
                kept.append((name, form, args))
        return kept[::-1]

    def product(self, factors, keep=frozenset()):
        """(negated, source) of the product of the tokens ``factors`` taken
        left to right, with its exact constants folded: the leading literals
        are multiplied here, and a factor of ±1.0 goes into the sign, since
        x * 1.0 is x and x * -1.0 is -x.  None where a literal factor is zero,
        unless another factor is in ``keep``: then the product is left as it is."""
        values = [self.value(t) for t in factors]
        lead, k = 1.0, 0
        while k < len(values) and values[k] is not None and math.isfinite(lead * values[k]):
            lead, k = lead * values[k], k + 1
        if lead == 0.0 or 0.0 in values[k:]:
            if keep.isdisjoint(factors):
                return None
            lead, k, values = 1.0, 0, [None] * len(factors)  # left as it is
        if values[k:].count(-1.0) % 2:
            lead = -lead
        rest = [t for t, v in zip(factors[k:], values[k:]) if v not in (1.0, -1.0)]
        self.read.update(rest)
        if rest and abs(lead) == 1.0:
            return lead < 0, " * ".join(rest)
        return False, " * ".join([self.const(lead), *rest])

    @staticmethod
    def signed(start: str, terms) -> str:
        """Source of ``start`` and each (negated, source) term after it, added
        or, where negated, subtracted: a - b is a + (-b) in every bit."""
        return start + "".join(f" {'-' if neg else '+'} {src}" for neg, src in terms)

    def dot(self, u, v, keep=frozenset()) -> str:
        """Source of ``sum(map(mul, u, v))`` over the tokens of u and v, each
        product folded by :meth:`product`: a literal left fold from the int 0
        up to two products, ``sum`` itself from three on, since Python 3.12
        and later compensate its rounding, and the float 0.0 where no product
        is left.  Both folds start at +0.0 and never hold -0.0, so on finite
        data a ±0.0 term adds nothing to either, and dropping it changes no bit."""
        terms = [t for t in (self.product(f, keep) for f in zip(u, v)) if t]
        if not terms:
            return _ZERO
        if len(terms) < 3:
            return self.signed("0", terms)
        return f"sum(({', '.join(('-' if neg else '') + src for neg, src in terms)}))"

    @staticmethod
    def minus(a: str, b: str) -> str:
        """Source of a - (b), which is a where b is 0.0: x - 0.0 is x in every bit."""
        return a if b == _ZERO else f"{a} - ({b})"


class _Evaluator(_Tokens):
    """Carries the steps out on the bound values; ``_Z`` is the structural
    zero.  Its tokens are values, none of them a literal, so it folds nothing
    but structural zeros."""

    zero = _Z

    def __init__(self, values: dict):
        self.values = values

    @staticmethod
    def const(x: float):
        # the source literal of +0.0 is the emitter's structural zero
        return _Z if repr(x) == _ZERO else x

    @staticmethod
    def literal(t):
        return None

    def var(self, name: str):
        return self.values[name]

    @staticmethod
    def step(form: str, *args):
        return _step(form, len(args))(*args)


def _live(em, *groups) -> bool:
    """Whether any token in ``groups`` is not a structural zero."""
    return not all(em.is_zero(t) for group in groups for t in group)


def _pairs(k: int):
    """The Hessian entries (j, l) with j <= l, in row order."""
    return [(j, l) for j in range(k) for l in range(j, k)]


def _zeros(em, k: int, pairs):
    """Structurally zero gradient and Hessian tokens."""
    return [em.zero] * k, [em.zero] * len(pairs)


# The elementary derivatives of forward mode: for each function, the step
# forms of its value v, first derivative d1 and second derivative d2, each
# with its operands named among the argument u, v and d1.  A form of None
# is its one operand itself, so exp's derivatives take no step.
_RULES = {
    "sin": (("_sin({0})", "u"), ("_cos({0})", "u"), ("-{0}", "v")),
    "cos": (("_cos({0})", "u"), ("-_sin({0})", "u"), ("-{0}", "v")),
    "exp": (("_exp({0})", "u"), (None, "v"), (None, "v")),
    "ln": (("_log({0})", "u"), ("1.0 / {0}", "u"), ("-{0} * {0}", "d1")),
    "sqrt": (("_sqrt({0})", "u"), ("0.5 / {0}", "v"), ("-0.5 * {0} / {1}", "d1", "u")),
}


def _emit(em, e: Expression, index: dict, pairs):
    """Emit the steps of ``e``; returns (value token, grad tokens, hess tokens).

    ``grad`` is a list over the wrt variables, ``hess`` a list over
    ``pairs`` (see :func:`_pairs`); entries for which ``em.is_zero`` holds
    are structurally zero.
    """
    k = len(index)
    zero = em.zero

    if isinstance(e, Num):
        return em.const(e.value), *_zeros(em, k, pairs)
    if isinstance(e, Var):
        g, h = _zeros(em, k, pairs)
        if e.name in index:
            g[index[e.name]] = em.const(1.0)
        return em.var(e.name), g, h
    if isinstance(e, Neg) or (isinstance(e, Fun) and e.name == "neg"):
        av, ag, ah = _emit(em, e.arg, index, pairs)
        v = em.step("-{0}", av)
        return v, [em.neg(t) for t in ag], [em.neg(t) for t in ah]
    if isinstance(e, BinOp):
        av, ag, ah = _emit(em, e.lhs, index, pairs)
        bv, bg, bh = _emit(em, e.rhs, index, pairs)
        v = em.step(f"{{0}} {e.op} {{1}}", av, bv)
        if e.op in "+-":
            fold = em.add if e.op == "+" else em.sub
            return v, [fold(x, y) for x, y in zip(ag, bg)], [fold(x, y) for x, y in zip(ah, bh)]
        if e.op == "*":
            g = [em.add(em.mul(av, bg[j]), em.mul(bv, ag[j])) for j in range(k)]
            h = []
            for (j, l), at, bt in zip(pairs, ah, bh):
                terms = em.add(em.mul(av, bt), em.mul(bv, at))
                cross = em.add(em.mul(ag[j], bg[l]), em.mul(ag[l], bg[j]))
                h.append(em.add(terms, cross))
            return v, g, h
        # division: f = a / b;  f' = (a' - f b') / b
        needs_w = _live(em, ag, bg, ah, bh)
        w = em.step("1.0 / {0}", bv) if needs_w else None
        g = []
        for j in range(k):
            num = em.sub(ag[j], em.mul(v, bg[j]))
            g.append(zero if em.is_zero(num) else em.mul(num, w))
        h = []
        for (j, l), at, bt in zip(pairs, ah, bh):
            num = em.sub(at, em.mul(v, bt))
            num = em.sub(num, em.mul(g[j], bg[l]))
            num = em.sub(num, em.mul(g[l], bg[j]))
            h.append(zero if em.is_zero(num) else em.mul(num, w))
        return v, g, h
    if isinstance(e, Pow):
        n = e.exponent
        if n == 0:
            uv, _, _ = _emit(em, e.base, index, pairs)
            return em.step("{0} ** {1}", uv, 0), *_zeros(em, k, pairs)
        uv, ug, uh = _emit(em, e.base, index, pairs)
        if n == 1:
            return em.step("{0} ** {1}", uv, 1), ug, uh
        v = em.step("{0} ** {1}", uv, n)
        if not _live(em, ug, uh):
            return v, *_zeros(em, k, pairs)
        d1, d2 = _power(em, float(n), uv, n - 1), _power(em, float(n * (n - 1)), uv, n - 2)
        return _chain(em, v, d1, d2, ug, uh, pairs)
    if isinstance(e, Fun):
        uv, ug, uh = _emit(em, e.arg, index, pairs)
        live, t = _live(em, ug, uh), {"u": uv}
        for name, (form, *operands) in zip(("v", "d1", "d2"), _RULES[e.name]):
            t[name] = t[operands[0]] if form is None else em.step(form, *map(t.get, operands))
            if not live:  # a constant argument: the value alone
                return t["v"], *_zeros(em, k, pairs)
        return _chain(em, t["v"], t["d1"], t["d2"], ug, uh, pairs)
    raise TypeError(f"not an expression node: {e!r}")  # pragma: no cover


def _power(em, c: float, u, k: int):
    """The derivative token c * u ** k of the power rule, with u ** 1
    written as u and u ** 0 as the literal 1.0, both exact."""
    if k >= 2:
        return em.step("{0} * {1} ** {2}", c, u, k)
    return em.mul(em.const(c), u if k == 1 else em.const(1.0))


def _chain(em, v, d1, d2, ug, uh, pairs):
    """Chain rule for a scalar function with first/second derivative tokens."""
    g = [em.mul(d1, t) for t in ug]
    h = []
    for (j, l), t in zip(pairs, uh):
        h.append(em.add(em.mul(d1, t), em.mul(d2, em.mul(ug[j], ug[l]))))
    return v, g, h


class Array(tuple):
    """A tuple of expressions that keeps the compiled jet of the whole
    array.  Its owner holds it as long as it needs the array, so the cache
    goes with the owner; a plain tuple cannot hold one."""


def _jet_cache(e) -> dict:
    cache = getattr(e, "_jet_cache", None)
    if cache is None:
        cache = {}
        try:
            e._jet_cache = cache
        except AttributeError:  # a plain tuple: every call is a first call
            pass
    return cache


def compile_jet2(e, wrt, *, defer: bool = False):
    """Compile ``e`` into a callable ``binding -> (value, grad, hess)``.

    ``grad`` has one entry per name in ``wrt`` (in order); ``hess`` is the
    exactly-symmetric matrix of second derivatives.  Compilation is cached
    on the expression object.  With ``defer``, the first request for an
    (expression, variable-order) pair gets a jet that walks the tree
    instead, and compiling is left to the second request; both jets give
    the same floats.

    ``e`` may also be a tuple of N expressions.  Its jet is one
    straight-line function for all entries and returns arrays of shape
    (N,), (N, k) and (N, k, k), bit-identical to the entries' own jets.
    The cache then lives on the tuple, so an owner that evaluates the same
    array repeatedly keeps it as an :class:`Array`; a plain tuple is
    walked (or, without ``defer``, compiled) again on every call.

    Besides the mapping form, the jet has a list form ``jet.flat(values)``
    at the floats of ``wrt`` in order, which returns the flat tuples of
    ``jet.checked`` with the same faults.  The compiled program takes that
    list by position, one parameter per name of ``wrt``; the mapping form
    is a head that reads the free names and calls it.  Where a free name is
    not in ``wrt`` (or ``wrt`` repeats a name), and for the walked jet, the
    list form zips the names into a mapping instead.
    """
    wrt = tuple(wrt)
    cache = _jet_cache(e)
    fn = cache.get(wrt)
    if fn is None:
        if defer and wrt not in cache:
            cache[wrt] = None
            return _interpret_jet2(e, wrt)
        fn = _build_jet2(e, wrt)
        cache[wrt] = fn
    return fn


def _entries(e):
    """The expressions of ``e`` and the size of the array (None for one)."""
    return (e, len(e)) if isinstance(e, tuple) else ((e,), None)


def _free_names(entries) -> list:
    return sorted(frozenset().union(*map(free_variables, entries)))


def _source_tuple(tokens) -> str:
    return f"({', '.join(tokens)}{',' if len(tokens) == 1 else ''})"


def _lines(body: list, indent: str):
    """The source lines of ``body``: its items are lines, steps (name, form,
    operands) of an :class:`_Emitter` and lists, blocks indented once more."""
    for t in body:
        if isinstance(t, list):
            yield from _lines(t, indent + "    ")
        else:
            yield indent + (t if isinstance(t, str) else f"{t[0]} = {t[1].format(*t[2])}")


def _compiled(head: list, inner: list, tail: str, label: str, ns: dict):
    """``_bind`` run in the namespace ``ns`` from the lines of ``head``,
    which start it, its ``inner`` functions, each a (``def`` line, body as
    :func:`_lines` reads it) pair, and the ``tail`` line after them: the one
    place emitted source is written and compiled, as the file ``<label>``."""
    src = [*head]
    for signature, body in inner:
        src += [f"    {signature}", *_lines(body, "        ")]
    exec(compile("\n".join([*src, tail]), f"<{label}>", "exec"), ns)
    return ns["_bind"]


def _build_jet2(e, wrt):
    entries, size = _entries(e)
    index = {name: j for j, name in enumerate(wrt)}
    pairs = _pairs(len(wrt))
    em = _Emitter()
    names = _free_names(entries)
    jets = [_emit(em, x, index, pairs) for x in entries]
    vs = [v for v, _, _ in jets]
    g = _source_tuple([t for _, gx, _ in jets for t in gx])
    h = _source_tuple([t for _, _, hx in jets for t in hx])
    v = vs[0] if size is None else _source_tuple(vs)
    reads = [f"_v_{name} = _b[{name!r}]" for name in names]
    tail = f"return {v}, {g}, {h}"
    if len(index) < len(wrt) or not set(names) <= index.keys():  # by name only
        inner, out = [("def _jet2(_b):", [*reads, *em.steps, tail])], "_jet2, None"
    else:  # the program takes wrt by position; the mapping form reads its free names
        params = [f"_v_{name}" if name in names else f"_{j}" for j, name in enumerate(wrt)]
        args = [f"_v_{name}" if name in names else "0.0" for name in wrt]
        inner = [(f"def _at({', '.join(params)}):", [*em.steps, tail]),
                 ("def _jet2(_b):", [*reads, f"return _at({', '.join(args)})"])]
        out = "_jet2, _at"
    jet2, at = _compiled(["def _bind():"], inner, f"    return {out}", "jet2", dict(_NS))()
    return _wrap_jet2(jet2, wrt, size, at)


def _interpret_jet2(e, wrt):
    """The jet of ``e`` as :func:`compile_jet2` gives it, but computed by
    walking the tree on every call instead of compiling it."""
    entries, size = _entries(e)
    index = {name: j for j, name in enumerate(wrt)}
    pairs = _pairs(len(wrt))
    names = _free_names(entries)

    def plain(t):
        return 0.0 if t is _Z else t

    def raw(binding):
        em = _Evaluator({name: binding[name] for name in names})
        jets = [_emit(em, x, index, pairs) for x in entries]
        vs = tuple(plain(v) for v, _, _ in jets)
        g = tuple(plain(t) for _, gx, _ in jets for t in gx)
        h = tuple(plain(t) for _, _, hx in jets for t in hx)
        return (vs[0] if size is None else vs), g, h

    return _wrap_jet2(raw, wrt, size)


def _wrap_jet2(raw, wrt, size, at=None):
    """The public jet around ``raw``, which takes a mapping; ``size`` is
    the number of entries of an array jet and None for a single
    expression, and ``at``, where given, is the same program taking the
    floats of ``wrt`` by position."""
    k = len(wrt)
    full = np.empty((k, k), dtype=np.intp)  # packed index of every Hessian entry
    for i, (j, l) in enumerate(_pairs(k)):
        full[j, l] = full[l, j] = i
    if size is not None:  # the same index into each entry's packed block
        full = full + (k * (k + 1) // 2) * np.arange(size).reshape(size, 1, 1)

    def finite(v, g, h):
        return all(map(math.isfinite, (v, *g, *h) if size is None else (*v, *g, *h)))

    def checked(binding):
        try:
            v, g, h = raw(binding)
        except KeyError as exc:
            raise EvaluationFault(f"unbound variable {exc.args[0]!r}") from exc
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            raise EvaluationFault(str(exc)) from exc
        if not finite(v, g, h):
            raise EvaluationFault("non-finite derivative result")
        return v, g, h

    def by_name(values):
        return checked(dict(zip(wrt, values)))

    def by_position(values):
        try:
            v, g, h = at(*values)
        except TypeError:  # not one value per name of wrt: as zipped into a mapping
            return by_name(values)
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            raise EvaluationFault(str(exc)) from exc
        if not finite(v, g, h):
            raise EvaluationFault("non-finite derivative result")
        return v, g, h

    def jet(binding):
        v, g, h = checked(binding)
        if size is None:
            return v, np.array(g, dtype=float), np.array(h, dtype=float)[full]
        return (
            np.array(v, dtype=float),
            np.array(g, dtype=float).reshape(size, k),
            np.array(h, dtype=float)[full],
        )

    # raw: the value (a tuple of values for an array) and the flat tuples
    # of gradients and packed upper-triangle Hessians, errors unmapped;
    # checked: the same with the errors and the finiteness check of jet;
    # flat: checked at the list of the floats of wrt in order
    jet.raw = raw
    jet.checked = checked
    jet.flat = by_name if at is None else by_position
    return jet


def eval_jet2(e, binding, wrt):
    """Value, gradient and Hessian of ``e`` with respect to ``wrt``.

    Derivatives are exact (forward-mode second-order jets over the tree,
    no finite differencing); the Hessian is symmetric by construction and
    the value agrees bit-for-bit with :func:`evaluate`.  The first call for
    an (expression, variable-order) pair walks the tree and later calls run
    the compiled form, so a one-off expression is never compiled.

    For a tuple of N expressions the result is the arrays of values (N,),
    gradients (N, k) and Hessians (N, k, k) from one call, equal bit for
    bit to N scalar calls; see :func:`compile_jet2` for where its compiled
    form is kept.

    Bound by a list of the floats of ``wrt``, it returns the value(s) and
    the flat gradient and packed Hessian tuples, with the same faults.  The
    compiled form takes that list by position (``jet.flat``), with no
    mapping in between.
    """
    jet = compile_jet2(e, wrt, defer=True)
    if isinstance(binding, list):
        return jet.flat(binding)
    return jet(binding)
