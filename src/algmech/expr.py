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
cached; the integrators call the compiled form millions of times.  The code
object of a source text is kept for the process, so an expression built
again from the same text runs its jet without compiling it again.  The first
``eval_jet2`` of a pair walks the tree instead, with the same floats, so a
one-off expression is never compiled.  Bound by a list of floats rather than
a mapping, ``eval_jet2`` returns flat float tuples, not arrays.

A tuple of expressions (vector forward mode) gets one straight-line
function for all its entries, with the same floats as entry-by-entry
jets.  Expression nodes are unhashable, so its compiled form is cached on
the tuple itself: an :class:`Array`, held by the object that owns the
array (an algebroid's anchor, a section's momentum part).
"""

from __future__ import annotations

import functools
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

    def __str__(self) -> str:
        return f"{self.base}^{self.exponent}"

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

# compiled sources kept per process: a model built again compiles nothing
CODE_CACHE_SIZE = 512


@functools.lru_cache(maxsize=CODE_CACHE_SIZE)
def _code(src: str, label: str):
    """``compile(src)``, shared by every build of the same source text;
    each build still runs it in a namespace of its own."""
    return compile(src, f"<{label}>", "exec")


_NS = {
    "_sin": math.sin,
    "_cos": math.cos,
    "_exp": math.exp,
    "_log": math.log,
    "_sqrt": math.sqrt,
    "_float": float,
}

_STEPS = {}


def _step(form: str):
    """The source form (``"{0} * {1}"``) as a function of its operands."""
    fn = _STEPS.get(form)
    if fn is None:
        args = [f"a{i}" for i in range(len(set(re.findall(r"\{(\d)\}", form))))]
        fn = eval(f"lambda {', '.join(args)}: {form.format(*args)}", dict(_NS))
        _STEPS[form] = fn
    return fn


class _Tokens:
    """The zero-folding token algebra over a backend's ``zero``, ``const``
    and ``step``: no step ever takes the structural zero, which ``zero``
    and ``const(0.0)`` both return as the one object ``is_zero`` tests for."""

    def is_zero(self, t) -> bool:
        return t is self.zero

    def add(self, a, b):
        zero = self.zero
        if a is zero:
            return b
        if b is zero:
            return a
        return self.step("{0} + {1}", a, b)

    def sub(self, a, b):
        zero = self.zero
        if b is zero:
            return a
        if a is zero:
            return self.neg(b)
        return self.step("{0} - {1}", a, b)

    def neg(self, a):
        if a is self.zero:
            return a
        return self.step("-{0}", a)

    def mul(self, a, b):
        zero = self.zero
        if a is zero or b is zero:
            return zero
        return self.step("{0} * {1}", a, b)


class _Emitter(_Tokens):
    """Accumulates straight-line assignments; tokens are source, "0.0" is zero."""

    zero = _ZERO

    def __init__(self):
        self.lines = []
        self.n = 0

    @staticmethod
    def const(x: float) -> str:
        if not math.isfinite(x):
            return f"_float({repr(x)!r})"
        if math.copysign(1.0, x) < 0:
            return f"({x!r})"
        return _ZERO if x == 0.0 else repr(x)

    @staticmethod
    def var(name: str) -> str:
        return f"_v_{name}"

    def step(self, form: str, *args) -> str:
        name = f"t{self.n}"
        self.n += 1
        self.lines.append(f"    {name} = {form.format(*args)}")
        return name


class _Evaluator(_Tokens):
    """Carries the steps out on the bound values; ``_Z`` is the structural zero."""

    zero = _Z

    def __init__(self, values: dict):
        self.values = values

    @staticmethod
    def const(x: float):
        # the source literal of +0.0 is the emitter's structural zero
        return _Z if repr(x) == _ZERO else x

    def var(self, name: str):
        return self.values[name]

    @staticmethod
    def step(form: str, *args):
        return _step(form)(*args)


def _live(em, *groups) -> bool:
    """Whether any token in ``groups`` is not a structural zero."""
    return not all(em.is_zero(t) for group in groups for t in group)


def _pairs(k: int):
    """The Hessian entries (j, l) with j <= l, in row order."""
    return [(j, l) for j in range(k) for l in range(j, k)]


def _zeros(em, k: int, pairs):
    """Structurally zero gradient and Hessian tokens."""
    return [em.zero] * k, [em.zero] * len(pairs)


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
        if e.op == "+":
            v = em.step("{0} + {1}", av, bv)
            return (
                v,
                [em.add(x, y) for x, y in zip(ag, bg)],
                [em.add(x, y) for x, y in zip(ah, bh)],
            )
        if e.op == "-":
            v = em.step("{0} - {1}", av, bv)
            return (
                v,
                [em.sub(x, y) for x, y in zip(ag, bg)],
                [em.sub(x, y) for x, y in zip(ah, bh)],
            )
        if e.op == "*":
            v = em.step("{0} * {1}", av, bv)
            g = [em.add(em.mul(av, bg[j]), em.mul(bv, ag[j])) for j in range(k)]
            h = []
            for (j, l), at, bt in zip(pairs, ah, bh):
                terms = em.add(em.mul(av, bt), em.mul(bv, at))
                cross = em.add(em.mul(ag[j], bg[l]), em.mul(ag[l], bg[j]))
                h.append(em.add(terms, cross))
            return v, g, h
        # division: f = a / b;  f' = (a' - f b') / b
        v = em.step("{0} / {1}", av, bv)
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
        d1 = em.step("{0} * {1} ** {2}", float(n), uv, n - 1)
        d2 = em.step("{0} * {1} ** {2}", float(n * (n - 1)), uv, n - 2)
        return _chain(em, v, d1, d2, ug, uh, pairs)
    if isinstance(e, Fun):
        uv, ug, uh = _emit(em, e.arg, index, pairs)
        live = _live(em, ug, uh)
        if e.name == "sin":
            v = em.step("_sin({0})", uv)
            if not live:
                return v, *_zeros(em, k, pairs)
            d1 = em.step("_cos({0})", uv)
            d2 = em.step("-{0}", v)
        elif e.name == "cos":
            v = em.step("_cos({0})", uv)
            if not live:
                return v, *_zeros(em, k, pairs)
            d1 = em.step("-_sin({0})", uv)
            d2 = em.step("-{0}", v)
        elif e.name == "exp":
            v = em.step("_exp({0})", uv)
            if not live:
                return v, *_zeros(em, k, pairs)
            d1 = v
            d2 = v
        elif e.name == "ln":
            v = em.step("_log({0})", uv)
            if not live:
                return v, *_zeros(em, k, pairs)
            d1 = em.step("1.0 / {0}", uv)
            d2 = em.step("-{0} * {0}", d1)
        else:  # sqrt
            v = em.step("_sqrt({0})", uv)
            if not live:
                return v, *_zeros(em, k, pairs)
            d1 = em.step("0.5 / {0}", v)
            d2 = em.step("-0.5 * {0} / {1}", d1, uv)
        return _chain(em, v, d1, d2, ug, uh, pairs)
    raise TypeError(f"not an expression node: {e!r}")  # pragma: no cover


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


def _build_jet2(e, wrt):
    entries, size = _entries(e)
    index = {name: j for j, name in enumerate(wrt)}
    pairs = _pairs(len(wrt))
    em = _Emitter()
    header = ["def _jet2(_b):"]
    for name in _free_names(entries):
        header.append(f"    _v_{name} = _b[{name!r}]")
    jets = [_emit(em, x, index, pairs) for x in entries]
    vs = [v for v, _, _ in jets]
    g = _source_tuple([t for _, gx, _ in jets for t in gx])
    h = _source_tuple([t for _, _, hx in jets for t in hx])
    v = vs[0] if size is None else _source_tuple(vs)
    body = "\n".join(header + em.lines) + f"\n    return {v}, {g}, {h}"
    ns = dict(_NS)
    exec(_code(body, "jet2"), ns)
    return _wrap_jet2(ns["_jet2"], len(wrt), size)


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

    return _wrap_jet2(raw, len(wrt), size)


def _wrap_jet2(raw, k: int, size):
    """The public jet around ``raw``; ``size`` is the number of entries of
    an array jet and None for a single expression."""
    full = np.empty((k, k), dtype=np.intp)  # packed index of every Hessian entry
    for i, (j, l) in enumerate(_pairs(k)):
        full[j, l] = full[l, j] = i
    if size is not None:  # the same index into each entry's packed block
        full = full + (k * (k + 1) // 2) * np.arange(size).reshape(size, 1, 1)

    def checked(binding):
        try:
            v, g, h = raw(binding)
        except KeyError as exc:
            raise EvaluationFault(f"unbound variable {exc.args[0]!r}") from exc
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            raise EvaluationFault(str(exc)) from exc
        if not all(map(math.isfinite, (v, *g, *h) if size is None else (*v, *g, *h))):
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
    # checked: the same with the errors and the finiteness check of jet
    jet.raw = raw
    jet.checked = checked
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
    the flat gradient and packed Hessian tuples, with the same faults.
    """
    jet = compile_jet2(e, wrt, defer=True)
    if isinstance(binding, list):
        return jet.checked(dict(zip(wrt, binding)))
    return jet(binding)
