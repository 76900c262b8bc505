"""Expression language in (x, xi) with truncated-Taylor jet differentiation.

Expressions are small infix formulas over the two phase-space variables
``x`` and ``xi``, the arithmetic operators ``+ - * / ^`` and the unary
functions exp, log, sqrt, sin, cos, tanh.  Named parameters are bound to
numeric values at parse time, so a parsed tree only ever contains numbers,
the two variables, operators and function calls.

Values come from a tree compiled once into nested closures (``compiled``,
``compiled_derivs2``, memoised per tree; a node stores its hash, so a
lookup costs one dictionary probe).  The closures make a recursive walk's
numpy operations in its order, so values are bit-identical to such a walk.
A literal integer exponent n >= 3 is computed by ``_int_power``, squarings
and products (binary exponentiation), for numbers and arrays alike, in
both ``compiled`` and ``compiled_derivs2``; the closure is chosen when the
tree is compiled.  Its values are within a few ulp of np.power's (the tests
pin at most 5 up to n = 8, and 24 at n = 31), exact at +-0, +-inf and NaN;
other exponents take ``**``.

Differentiation is forward-mode on bivariate Taylor jets truncated at
total degree 4 (enough for the fourth x-derivatives that the second-order
action corrections require).  Jet arithmetic is exact truncated-polynomial
algebra; no finite differences are involved.

Precedence follows the usual notation: ``^`` binds tightest and groups to
the right, unary minus binds looser than ``^`` and tighter than ``*`` and
``/``, so ``-x^2`` is -(x^2) and ``exp(-x^2)`` is exp(-(x^2)); a negated
number is a number, so ``x^-2`` raises x to the literal -2.
``parse`` refuses (ExprSyntaxError) text whose groups, calls, negations
and powers nest more than MAX_DEPTH deep, or whose tree is deeper (a sum of
over MAX_DEPTH + 1 terms), before the parser or a tree walk recurses so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Union

import numpy as np

MAX_DEGREE = 4
MAX_DEPTH = 100   # deepest nesting, and deepest tree, that parse accepts

# multi-indices (i, j) with i + j <= MAX_DEGREE, graded order
JET_INDICES = tuple(
    (i, j)
    for d in range(MAX_DEGREE + 1)
    for i in range(d, -1, -1)
    for j in (d - i,)
)
_POS = {ij: k for k, ij in enumerate(JET_INDICES)}

# precomputed (k_out, k_a, k_b) triples for the truncated product
_PROD_TABLE = tuple(
    (_POS[(ia + ib, ja + jb)], _POS[(ia, ja)], _POS[(ib, jb)])
    for (ia, ja) in JET_INDICES
    for (ib, jb) in JET_INDICES
    if ia + ib + ja + jb <= MAX_DEGREE
)

_FACT = tuple(math.factorial(k) for k in range(MAX_DEGREE + 1))


class ExprError(Exception):
    """Base class for expression-language errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExprDomainError(ExprError):
    """Evaluation hit an undefined point (log/sqrt of non-positive, 0^neg...)."""

    def __init__(self, message, subexpr):
        super().__init__(f"{message} in '{subexpr}'")
        self.subexpr = subexpr


class JetDivisionError(ExprError):
    """Division by a jet whose constant term vanishes."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class _Node:
    """A tree node hashes once, at construction, from its fields and its
    children's stored hashes: the memos keyed on a tree hash it on every
    lookup, and a derived hash would walk the whole tree each time.
    Equality is the dataclass's field-wise test.  Each node class names
    ``__hash__`` in its body, or the frozen dataclass would replace it
    with a field-wise one.  The node's height (0 for a leaf) is stored the
    same way, from its children's, so that no walk measures it."""

    def __post_init__(self):
        values = tuple(getattr(self, f.name) for f in fields(self))
        object.__setattr__(self, "_hash", hash((type(self),) + values))
        object.__setattr__(self, "_height", 1 + max(
            (v._height for v in values if isinstance(v, _Node)), default=-1))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class Num(_Node):
    value: float
    __hash__ = _Node.__hash__

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True)
class Var(_Node):
    name: str  # "x" or "xi"
    __hash__ = _Node.__hash__

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class BinOp(_Node):
    op: str  # + - * / ^
    left: "Expr"
    right: "Expr"
    __hash__ = _Node.__hash__

    def __str__(self):
        left = str(self.left)
        if self.op == "^" and left.startswith("-"):   # (-2)^2, not -(2^2)
            left = f"({left})"
        return f"({left} {self.op} {self.right})"


@dataclass(frozen=True)
class Neg(_Node):
    arg: "Expr"
    __hash__ = _Node.__hash__

    def __str__(self):
        return f"(-{self.arg})"


@dataclass(frozen=True)
class Call(_Node):
    func: str
    arg: "Expr"
    __hash__ = _Node.__hash__

    def __str__(self):
        return f"{self.func}({self.arg})"


Expr = Union[Num, Var, BinOp, Neg, Call]

FUNCTIONS = ("exp", "log", "sqrt", "sin", "cos", "tanh")
VARIABLES = ("x", "xi")


# ---------------------------------------------------------------------------
# Tokenizer / recursive-descent parser
# ---------------------------------------------------------------------------

class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.idx = 0

    def _scan(self):
        text, n = self.text, len(self.text)
        i = 0
        while i < n:
            c = text[i]
            if c.isspace():
                i += 1
                continue
            if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
                j = i
                while j < n and (text[j].isdigit() or text[j] == "."):
                    j += 1
                # exponent part
                if j < n and text[j] in "eE":
                    k = j + 1
                    if k < n and text[k] in "+-":
                        k += 1
                    if k < n and text[k].isdigit():
                        j = k
                        while j < n and text[j].isdigit():
                            j += 1
                try:
                    value = float(text[i:j])
                except ValueError:
                    raise ExprSyntaxError(f"bad number '{text[i:j]}'", i)
                self.tokens.append(("num", value, i))
                i = j
            elif c.isalpha() or c == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("ident", text[i:j], i))
                i = j
            elif c in "+-*/^()":
                self.tokens.append((c, c, i))
                i += 1
            else:
                raise ExprSyntaxError(f"unexpected character '{c}'", i)
        self.tokens.append(("end", None, n))

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok


def parse(text, params=None):
    """Parse an expression string into an AST.

    ``params`` maps identifier names to numeric values; they are substituted
    at parse time so the returned tree only references x and xi.
    """
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    params = dict(params or {})
    toks = _Tokenizer(text)
    level = 0   # groups, calls, negations and powers open at the cursor
    too_deep = f"expression nested more than {MAX_DEPTH} levels deep"

    def nested(parse_one, offset):
        """parse_one() one level deeper, refused past MAX_DEPTH levels."""
        nonlocal level
        level += 1
        if level > MAX_DEPTH:
            raise ExprSyntaxError(too_deep, offset)
        node = parse_one()
        level -= 1
        return node

    def expr():
        node = term()
        while toks.peek()[0] in ("+", "-"):
            op = toks.next()[0]
            node = BinOp(op, node, term())
        return node

    def term():
        node = factor()
        while toks.peek()[0] in ("*", "/"):
            op = toks.next()[0]
            node = BinOp(op, node, factor())
        return node

    def factor():
        # unary minus binds looser than ^: -x^2 = -(x^2); a negated literal
        # is a literal: x^-2 = x^Num(-2)
        if toks.peek()[0] == "-":
            arg = nested(factor, toks.next()[2])
            return Num(-arg.value) if isinstance(arg, Num) else Neg(arg)
        node = base()
        if toks.peek()[0] == "^":   # right-associative
            node = BinOp("^", node, nested(factor, toks.next()[2]))
        return node

    def base():
        kind, value, offset = toks.next()
        if kind == "num":
            return Num(value)
        if kind == "(":
            node = nested(expr, offset)
            kind2, _, off2 = toks.next()
            if kind2 != ")":
                raise ExprSyntaxError("expected ')'", off2)
            return node
        if kind == "ident":
            if value in VARIABLES:
                return Var(value)
            if value in FUNCTIONS:
                kind2, _, off2 = toks.next()
                if kind2 != "(":
                    raise ExprSyntaxError(f"expected '(' after {value}", off2)
                node = nested(expr, off2)
                kind3, _, off3 = toks.next()
                if kind3 != ")":
                    raise ExprSyntaxError("expected ')'", off3)
                return Call(value, node)
            if value in params:
                return Num(float(params[value]))
            raise ExprSyntaxError(f"unknown identifier '{value}'", offset)
        raise ExprSyntaxError(f"unexpected token '{value}'", offset)

    node = expr()
    kind, value, offset = toks.peek()
    if kind != "end":
        raise ExprSyntaxError(f"trailing input '{value}'", offset)
    if node._height > MAX_DEPTH:   # a long chain of operators
        raise ExprSyntaxError(too_deep, 0)
    return node


def to_string(e):
    """Pretty-print; parse(to_string(e)) is evaluation-equivalent to e for
    a tree up to MAX_DEPTH // 2 deep (the text nests up to twice as deep)."""
    return str(e)


# ---------------------------------------------------------------------------
# Compiled evaluation (floats or numpy arrays)
# ---------------------------------------------------------------------------

COMPILE_CACHE_SIZE = 64   # distinct trees whose callables are remembered

_NP_FUNCS = {name: getattr(np, name) for name in FUNCTIONS}
_DOMAIN = {"log": (lambda v: v <= 0, "log of non-positive value"),
           "sqrt": (lambda v: v < 0, "sqrt of negative value")}


def evaluate(e, x, xi=0.0):
    """Evaluate the expression at (x, xi); x, xi may be numpy arrays."""
    return compiled(e)(x, xi)


def _any(test):  # an array test holds if any element does
    return np.any(test) if isinstance(test, np.ndarray) else test


def _pow(l, r):
    """l ** r, with numpy's value where Python's float ``**`` raises."""
    try:
        return l ** r
    except (OverflowError, ZeroDivisionError):
        return np.float64(l) ** r


def _int_power(x, n):
    """x ** n for an integer n >= 3 by binary exponentiation: the bits of n
    from the lowest, each a squaring, each set bit a product.  A number or
    an array alike; within a few ulp of np.power (see the tests), exact on
    +-0, +-inf and NaN, and an overflow keeps its sign."""
    out = None
    while True:
        if n & 1:
            out = x if out is None else out * x
        n >>= 1
        if not n:
            return out
        x = x * x


def _compile(e):
    """The callable f(x, xi=0.0) that evaluates the tree ``e``."""
    if isinstance(e, Num):
        c = e.value
        return lambda x, xi=0.0: c
    if isinstance(e, Var):
        return (lambda x, xi=0.0: x) if e.name == "x" else \
            (lambda x, xi=0.0: xi)
    where = str(e)
    if isinstance(e, Neg):
        a = _compile(e.arg)
        return lambda x, xi=0.0: -a(x, xi)
    if isinstance(e, Call):
        a, fn = _compile(e.arg), _NP_FUNCS[e.func]
        bad, message = _DOMAIN.get(e.func, (None, None))

        def call(x, xi=0.0):
            v = a(x, xi)
            if bad and _any(bad(v)):
                raise ExprDomainError(message, where)
            return fn(v)
        return call
    left, right = _compile(e.left), _compile(e.right)
    if e.op == "+":
        return lambda x, xi=0.0: left(x, xi) + right(x, xi)
    if e.op == "-":
        return lambda x, xi=0.0: left(x, xi) - right(x, xi)
    if e.op == "*":
        return lambda x, xi=0.0: left(x, xi) * right(x, xi)
    if e.op == "/":
        def div(x, xi=0.0):
            l, r = left(x, xi), right(x, xi)
            if _any(r == 0):
                raise ExprDomainError("division by zero", where)
            return l / r
        return div
    # a literal exponent is classed integer or not once, by the same test
    c = e.right.value if isinstance(e.right, Num) else None
    fractional = None if c is None else bool(c != np.floor(c))
    if fractional is False and 3 <= c < math.inf:
        n = int(c)
        return lambda x, xi=0.0: _int_power(left(x, xi), n)
    # a non-negative integer literal flags neither invalid nor divide
    flagless = fractional is False and c >= 0

    def power(x, xi=0.0):
        l, r = left(x, xi), (right(x, xi) if c is None else c)
        if fractional is not False and _any(l < 0) \
                and (fractional or _any(r != np.floor(r))):
            raise ExprDomainError("fractional power of negative base", where)
        if flagless or (isinstance(l, float) and isinstance(r, float)
                        and not (l == 0 and r < 0)):
            return _pow(l, r)   # pow flags no invalid or divide here
        with np.errstate(invalid="raise", divide="raise"):
            try:
                return l ** r
            except (FloatingPointError, ZeroDivisionError):
                raise ExprDomainError("invalid power", where)
    return power


compiled = lru_cache(maxsize=COMPILE_CACHE_SIZE)(_compile)


# ---------------------------------------------------------------------------
# Bivariate jets, total degree <= 4
# ---------------------------------------------------------------------------

class Jet2:
    """Truncated Taylor expansion in (x, xi) around a base point.

    ``coef[k]`` stores d^i_x d^j_xi f / (i! j!) for (i, j) = JET_INDICES[k].
    Coefficients may be floats or numpy arrays (elementwise jets).
    """

    __slots__ = ("point", "coef")

    def __init__(self, point, coef):
        self.point = point
        self.coef = coef

    @classmethod
    def constant(cls, point, value):
        coef = [0.0] * len(JET_INDICES)
        coef[0] = value
        return cls(point, coef)

    @classmethod
    def variable(cls, point, name):
        coef = [0.0] * len(JET_INDICES)
        coef[0] = point[0] if name == "x" else point[1]
        coef[_POS[(1, 0)] if name == "x" else _POS[(0, 1)]] = 1.0
        return cls(point, coef)

    @property
    def value(self):
        return self.coef[0]

    def derivative(self, i, j):
        """Return d^i_x d^j_xi f at the base point."""
        return self.coef[_POS[(i, j)]] * (_FACT[i] * _FACT[j])

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        return Jet2(self.point, [a + b for a, b in zip(self.coef, other.coef)])

    __radd__ = __add__

    def __neg__(self):
        return Jet2(self.point, [-a for a in self.coef])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        out = [0.0] * len(JET_INDICES)
        a, b = self.coef, other.coef
        for k_out, k_a, k_b in _PROD_TABLE:
            out[k_out] = out[k_out] + a[k_a] * b[k_b]
        return Jet2(self.point, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._coerce(other)._reciprocal()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def _coerce(self, other):
        if isinstance(other, Jet2):
            return other
        return Jet2.constant(self.point, other)

    def _nilpotent(self):
        """Return self minus its constant term."""
        coef = list(self.coef)
        coef[0] = coef[0] * 0.0
        return Jet2(self.point, coef)

    def _reciprocal(self):
        c = self.coef[0]
        if np.any(np.asarray(c) == 0):
            raise JetDivisionError("division by a jet with zero constant term")
        u = self._nilpotent() * (1.0 / c)
        # 1/(c(1+u)) = (1 - u + u^2 - u^3 + u^4)/c
        one = Jet2.constant(self.point, 1.0)
        acc = one
        pw = one
        for k in range(1, MAX_DEGREE + 1):
            pw = pw * u
            acc = acc + pw if k % 2 == 0 else acc - pw
        return acc * (1.0 / c)

    def compose_univariate(self, derivs):
        """Apply a scalar function with derivatives ``derivs[k] = f^(k)(c)``
        at c = self.value, via truncated Taylor composition."""
        u = self._nilpotent()
        out = Jet2.constant(self.point, derivs[0])
        pw = Jet2.constant(self.point, 1.0)
        for k in range(1, MAX_DEGREE + 1):
            pw = pw * u
            out = out + pw * (derivs[k] / _FACT[k])
        # u is nilpotent, so the value is f(c) alone: an infinite derivative
        # must not reach it as 0 * inf
        out.coef[0] = derivs[0]
        return out

    def ipow(self, n):
        """Integer power by binary exponentiation (n may be negative)."""
        if n < 0:
            return self._reciprocal().ipow(-n)
        out = Jet2.constant(self.point, 1.0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


def _unary_derivs(func, c, subexpr, count=MAX_DEGREE + 1):
    """The first ``count`` (3 or 5) of f and its derivatives at c.  A scalar
    c is taken as np.float64, so that an over- or underflow gives +-inf as
    it does in an array, not a Python float exception."""
    c = np.asarray(c, dtype=float) if isinstance(c, np.ndarray) \
        else np.float64(c)
    if func == "exp":
        return (np.exp(c),) * count
    if func == "log":
        if not np.all(np.asarray(c) > 0):  # NaN fails too
            raise ExprDomainError("log of non-positive value", subexpr)
        d = (np.log(c), 1 / c, -1 / c ** 2)
        return d if count == 3 else d + (2 / c ** 3, -6 / c ** 4)
    if func == "sqrt":
        if not np.all(np.asarray(c) > 0):  # NaN fails too
            raise ExprDomainError("sqrt of non-positive value", subexpr)
        s = np.sqrt(c)
        d = (s, 0.5 / s, -0.25 / (s * c))
        return d if count == 3 else \
            d + (0.375 / (s * c ** 2), -0.9375 / (s * c ** 3))
    if func == "sin":
        s, co = np.sin(c), np.cos(c)
        return (s, co, -s, -co, s)[:count]
    if func == "cos":
        s, co = np.sin(c), np.cos(c)
        return (co, -s, -co, s, co)[:count]
    if func == "tanh":
        t = np.tanh(c)
        sech2 = 1 - t ** 2
        d = (t, sech2, -2 * t * sech2)
        return d if count == 3 else d + (
            4 * t ** 2 * sech2 - 2 * sech2 ** 2,
            -8 * t ** 3 * sech2 + 16 * t * sech2 ** 2)
    raise ExprError(f"unknown function {func}")


def _real_pow_derivs(c, r, subexpr, count=MAX_DEGREE + 1):
    if not np.all(np.asarray(c) > 0):  # NaN fails too
        raise ExprDomainError("real power of non-positive base", subexpr)
    out = [_pow(c, r)]
    fac = 1.0
    for k in range(1, count):
        fac *= r - (k - 1)
        out.append(fac * _pow(c, r - k))
    return tuple(out)


def jet_eval(e, point):
    """Evaluate the expression as a degree-4 jet at point = (x, xi)."""
    if isinstance(e, Num):
        return Jet2.constant(point, e.value)
    if isinstance(e, Var):
        return Jet2.variable(point, e.name)
    if isinstance(e, Neg):
        return -jet_eval(e.arg, point)
    if isinstance(e, Call):
        j = jet_eval(e.arg, point)
        return j.compose_univariate(_unary_derivs(e.func, j.value, str(e)))
    if e.op == "^":
        base = jet_eval(e.left, point)
        if isinstance(e.right, Num) and float(e.right.value).is_integer():
            try:
                return base.ipow(int(e.right.value))
            except JetDivisionError:
                raise ExprDomainError("invalid power", str(e))
        expo = jet_eval(e.right, point)
        if any(np.any(np.asarray(c) != 0) for c in expo.coef[1:]):
            # b^g = exp(g log b) for non-constant exponents
            logb = base.compose_univariate(
                _unary_derivs("log", base.value, str(e)))
            arg = expo * logb
            return arg.compose_univariate(
                _unary_derivs("exp", arg.value, str(e)))
        return base.compose_univariate(
            _real_pow_derivs(base.value, expo.value, str(e)))
    l = jet_eval(e.left, point)
    r = jet_eval(e.right, point)
    if e.op == "+":
        return l + r
    if e.op == "-":
        return l - r
    if e.op == "*":
        return l * r
    try:
        return l / r
    except JetDivisionError:
        raise ExprDomainError("division by zero", str(e))


# ---------------------------------------------------------------------------
# Fast univariate second-order evaluation in x (hot path for V, V', V'')
# ---------------------------------------------------------------------------

def eval_x_derivs2(e, x):
    """Return (f, f', f'') of the expression as a function of x alone; x may
    be a float or a numpy array, and xi must not appear in ``e``."""
    return compiled_derivs2(e)(x)


def _compile_derivs2(e):
    """The callable x -> (f, f', f'') of the x-only tree ``e``."""
    if isinstance(e, Num):
        return lambda x, c=e.value: (c + x * 0.0, x * 0.0, x * 0.0)
    if isinstance(e, Var):
        if e.name != "x":
            def xi(x):
                raise ExprError("xi appears in a potential expression")
            return xi
        return lambda x: (x, x * 0.0 + 1.0, x * 0.0)
    where = str(e)
    if isinstance(e, Neg):
        a = _compile_derivs2(e.arg)
        return lambda x: tuple(-d for d in a(x))
    if isinstance(e, Call):
        return _chain(_compile_derivs2(e.arg), lambda u, x, func=e.func:
                      _unary_derivs(func, u, where, 3))
    left, op = _compile_derivs2(e.left), e.op
    if op == "^" and isinstance(e.right, Num) \
            and float(e.right.value).is_integer():
        n = int(e.right.value)
        f0, f1, f2 = (_power_by(k) for k in (n, n - 1, n - 2))

        def int_pow(l, x):
            if n < 0 and _any(l == 0):  # a pole, where evaluate raises too
                raise ExprDomainError("invalid power", where)
            return (f0(l), n * f1(l),
                    n * (n - 1) * f2(l) if n != 1 else l * 0.0)
        return _chain(left, int_pow)
    right = _compile_derivs2(e.right)
    if op == "^":
        def real_pow(l, x):
            r, r1, _ = right(x)
            if _any(r1 != 0):
                raise ExprError("non-constant exponents unsupported in "
                                "fast path")
            return _real_pow_derivs(l, r, where, 3)
        return _chain(left, real_pow)

    def binop(x):
        (l, l1, l2), (r, r1, r2) = left(x), right(x)
        if op == "+":
            return l + r, l1 + r1, l2 + r2
        if op == "-":
            return l - r, l1 - r1, l2 - r2
        if op == "*":
            return l * r, l1 * r + l * r1, l2 * r + 2 * l1 * r1 + l * r2
        if _any(r == 0):
            raise ExprDomainError("division by zero", where)
        q = l / r
        q1 = (l1 - q * r1) / r
        return q, q1, (l2 - 2 * q1 * r1 - q * r2) / r
    return binop


compiled_derivs2 = lru_cache(maxsize=COMPILE_CACHE_SIZE)(_compile_derivs2)


def _power_by(k):
    """The callable l -> l ** k for the integer k, as ``power`` takes it."""
    if k >= 3:
        return lambda l: _int_power(l, k)
    return lambda l: _pow(l, k)


def _chain(inner, outer):
    """x -> (f, f', f'') of F(u(x)), where outer(u, x) gives (F, F', F'')."""
    def chained(x):
        u, u1, u2 = inner(x)
        F, F1, F2 = outer(u, x)
        return F, F1 * u1, F2 * u1 * u1 + F1 * u2
    return chained


def variables(e):
    """Names of the variables the expression reads."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, BinOp):
        return variables(e.left) | variables(e.right)
    return variables(e.arg) if isinstance(e, (Neg, Call)) else set()


def is_zero_expr(e):
    """True when the expression is the literal constant 0."""
    if isinstance(e, Num):
        return e.value == 0.0
    if isinstance(e, Neg):
        return is_zero_expr(e.arg)
    return False
