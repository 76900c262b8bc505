"""Expression parsing, compiled evaluation and jet differentiation."""

import math
import warnings

import numpy as np
import pytest

from semibs.exprjet import (BinOp, Call, ExprDomainError, ExprError,
                            ExprSyntaxError, JET_INDICES, MAX_DEPTH, Neg, Num,
                            Var, _int_power, _real_pow_derivs, _unary_derivs,
                            compiled, compiled_derivs2, evaluate,
                            eval_x_derivs2, is_zero_expr, jet_eval, parse,
                            to_string, variables)


def _random_expr_text(rng):
    """A random smooth expression with a safe domain on |x|, |xi| <= 1.5."""
    def poly():
        c = rng.uniform(-1.0, 1.0, size=4)
        return (f"({c[0]:.6f} + {c[1]:.6f}*x + {c[2]:.6f}*xi "
                f"+ {c[3]:.6f}*x*xi)")

    pieces = [poly()]
    for _ in range(rng.integers(1, 4)):
        kind = rng.integers(0, 6)
        if kind == 0:
            pieces.append(f"sin({poly()})")
        elif kind == 1:
            pieces.append(f"cos({poly()})")
        elif kind == 2:
            pieces.append(f"tanh({poly()})")
        elif kind == 3:
            pieces.append(f"exp(0.3*{poly()})")
        elif kind == 4:
            pieces.append(f"sqrt(4 + x^2 + xi^2)")
        else:
            pieces.append(f"log(4 + x^2 + xi^2)")
    op = rng.choice(["+", "*", "-"])
    return f" {op} ".join(pieces)


_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


def _fd_weights(order, step):
    if order == 0:
        return np.array([0.0, 0.0, 1.0, 0.0, 0.0])
    if order == 1:
        return _D1 / step
    return _D2 / step ** 2


def _fd_stencil(f, x, xi, i, j, step):
    offs = np.arange(-2, 3)
    grid = np.array([[f(x + a * step, xi + b * step) for b in offs]
                     for a in offs])
    return float(_fd_weights(i, step) @ grid @ _fd_weights(j, step))


def _fd_partial(f, x, xi, i, j, step=0.12):
    """Twice Richardson-extrapolated central difference for d^{i+j} f."""
    d = [_fd_stencil(f, x, xi, i, j, step / 2 ** k) for k in range(3)]
    r = [(16.0 * d[k + 1] - d[k]) / 15.0 for k in range(2)]
    return (64.0 * r[1] - r[0]) / 63.0


def test_jet_partials_match_finite_differences(rng):
    """100 random expressions: every jet partial up to second order in each
    variable agrees with a high-order finite difference."""
    checked = 0
    for _ in range(100):
        text = _random_expr_text(rng)
        e = parse(text)
        x = float(rng.uniform(-1.2, 1.2))
        xi = float(rng.uniform(-1.2, 1.2))
        jet = jet_eval(e, (x, xi))

        def f(a, b):
            return evaluate(e, a, b)

        for i in range(3):
            for j in range(3):
                if i + j > 4:
                    continue
                ref = _fd_partial(f, x, xi, i, j)
                got = jet.derivative(i, j)
                scale = 1.0 + abs(ref)
                assert abs(got - ref) <= 1e-6 * scale, \
                    f"d^({i},{j}) of {text} at ({x}, {xi}): {got} vs {ref}"
        checked += 1
    assert checked == 100


def test_product_rule_exact(rng):
    """Jets of products are exact (no truncation below the jet order)."""
    for _ in range(20):
        c = rng.uniform(-1, 1, size=6)
        ta = f"({c[0]:.5f} + {c[1]:.5f}*x + {c[2]:.5f}*xi^2)"
        tb = f"({c[3]:.5f}*x^2 + {c[4]:.5f}*x*xi + {c[5]:.5f})"
        pa, pb, pab = parse(ta), parse(tb), parse(f"{ta} * {tb}")
        pt = (float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        ja, jb, jab = jet_eval(pa, pt), jet_eval(pb, pt), jet_eval(pab, pt)
        prod = ja * jb
        for i, j in JET_INDICES:
            assert prod.derivative(i, j) == pytest.approx(
                jab.derivative(i, j), rel=1e-12, abs=1e-12)


def test_round_trip_through_to_string(rng):
    for _ in range(25):
        text = _random_expr_text(rng)
        e = parse(text)
        e2 = parse(to_string(e))
        x, xi = float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))
        assert evaluate(e2, x, xi) == pytest.approx(evaluate(e, x, xi),
                                                    rel=1e-15, abs=1e-15)


def test_parameters_bound_at_parse_time():
    e = parse("a*x^2 + b", {"a": 2.0, "b": -1.0})
    assert evaluate(e, 3.0) == pytest.approx(17.0)


def test_power_right_associative():
    e = parse("2^3^2")
    assert evaluate(e, 0.0) == pytest.approx(512.0)


def test_syntax_error_reports_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x + * 2")
    assert err.value.offset == 4


def test_domain_errors():
    with pytest.raises(ExprDomainError):
        evaluate(parse("log(x)"), -1.0)
    with pytest.raises(ExprDomainError):
        evaluate(parse("sqrt(x)"), -2.0)
    with pytest.raises(ExprDomainError):
        evaluate(parse("x^0.5"), -2.0)


def test_vectorized_evaluation():
    e = parse("x^2 + sin(xi)")
    x = np.linspace(-1, 1, 7)
    xi = np.linspace(0, 1, 7)
    out = evaluate(e, x, xi)
    assert np.allclose(out, x ** 2 + np.sin(xi))


def test_eval_x_derivs2_matches_jets():
    e = parse("exp(0.2*x) * (1 + x^2)")
    for x in (-1.3, 0.0, 0.7):
        v, d1, d2 = eval_x_derivs2(e, x)
        jet = jet_eval(e, (x, 0.0))
        assert v == pytest.approx(jet.value, rel=1e-13)
        assert d1 == pytest.approx(jet.derivative(1, 0), rel=1e-13)
        assert d2 == pytest.approx(jet.derivative(2, 0), rel=1e-13)


def test_negated_literal_parses_as_a_literal():
    assert parse("x^-2") == BinOp("^", Var("x"), Num(-2.0))
    assert parse("-(3)") == Num(-3.0)
    assert parse("-x") == Neg(Var("x"))
    assert evaluate(parse("-2^2"), 0.0) == -4.0  # -(2^2)
    with pytest.raises(ExprDomainError, match=r"'\(x \^ -0\.5\)'"):
        evaluate(parse("x^-0.5"), -1.0)


def test_unary_minus_binds_looser_than_power():
    x2 = BinOp("^", Var("x"), Num(2.0))
    assert parse("-x^2") == Neg(x2)
    assert parse("exp(-x^2)") == Call("exp", Neg(x2))
    assert evaluate(parse("exp(-x^2)"), 2.0) == pytest.approx(math.exp(-4.0))
    assert parse("2^-x^2") == BinOp("^", Num(2.0), Neg(x2))
    assert parse("-3*x") == BinOp("*", Num(-3.0), Var("x"))
    assert parse("2*-x") == BinOp("*", Num(2.0), Neg(Var("x")))
    assert evaluate(parse("(-2)^2"), 0.0) == 4.0
    # a negative number raised to a power keeps its parentheses in print
    for e in (parse("(-2)^2"), parse("a^2", {"a": -2.0})):
        assert to_string(e) == "((-2.0) ^ 2.0)"
        assert parse(to_string(e)) == e


def test_eval_x_derivs2_where_it_used_to_fail():
    # a negated literal exponent is an integer power, defined below zero
    e = parse("sin(x)^-3")
    jet = jet_eval(e, (-1.0, 0.0))
    got = eval_x_derivs2(e, -1.0)
    assert got[0] == pytest.approx(-1.678, abs=1e-3)
    for k, d in enumerate(got):
        assert d == pytest.approx(jet.derivative(k, 0), rel=1e-13)
    # only two derivatives are formed: none of them over- or underflows
    # into a Python float exception
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        v, d1, d2 = eval_x_derivs2(parse("log(sqrt(x))"), 1e-300)
        assert (v, d1) == (pytest.approx(math.log(1e-150)),
                           pytest.approx(0.5e300))
        assert d2 == -np.inf
        # -1/x^2 with x^2 = inf, where a Python float raised OverflowError
        assert eval_x_derivs2(parse("log(x)"), 1e200)[2] == 0.0


def test_is_zero_expr():
    assert is_zero_expr(parse("0"))
    assert not is_zero_expr(parse("x"))


def test_equal_trees_hash_equal_and_share_a_compiled_callable(monkeypatch):
    text = "x^2 + lam*x^4 - sqrt(1 + xi^2) / exp(-x)"
    a, b = parse(text, {"lam": 0.3}), parse(text, {"lam": 0.3})
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != parse(text, {"lam": 0.4})
    compiled.cache_clear()
    f = compiled(a)
    # the second lookup hits the memo and hashes no subtree on the way
    subtree_hashes = []
    for node in (Num, Var, Neg, Call):
        node_hash = node.__hash__
        monkeypatch.setattr(node, "__hash__", lambda self, _h=node_hash:
                            subtree_hashes.append(self) or _h(self))
    assert compiled(b) is f
    assert compiled.cache_info().hits == 1
    assert subtree_hashes == []


# ---------------------------------------------------------------------------
# Differential tests: the compiled callables against the recursive tree walks
# they replaced, kept here as the reference


def _walk(e, x, xi=0.0):
    """The recursive tree walk ``evaluate`` used before it was compiled;
    a literal integer exponent from 3 on is ``_int_power``'s, as there."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return x if e.name == "x" else xi
    if isinstance(e, Neg):
        return -_walk(e.arg, x, xi)
    if isinstance(e, Call):
        v = _walk(e.arg, x, xi)
        if e.func == "log" and np.any(np.asarray(v) <= 0):
            raise ExprDomainError("log of non-positive value", str(e))
        if e.func == "sqrt" and np.any(np.asarray(v) < 0):
            raise ExprDomainError("sqrt of negative value", str(e))
        return getattr(np, e.func)(v)
    l = _walk(e.left, x, xi)
    r = _walk(e.right, x, xi)
    if e.op == "+":
        return l + r
    if e.op == "-":
        return l - r
    if e.op == "*":
        return l * r
    if e.op == "/":
        if np.any(np.asarray(r) == 0):
            raise ExprDomainError("division by zero", str(e))
        return l / r
    if isinstance(e.right, Num) and e.right.value >= 3 \
            and float(e.right.value).is_integer():
        return _int_power(l, int(e.right.value))
    r_arr = np.asarray(r)
    if np.any(np.asarray(l) < 0) and np.any(r_arr != np.floor(r_arr)):
        raise ExprDomainError("fractional power of negative base", str(e))
    with np.errstate(invalid="raise", divide="raise"):
        try:
            return l ** r
        except FloatingPointError:
            raise ExprDomainError("invalid power", str(e))


def _power(l, k):
    """l ** k for an integer k, by ``_int_power`` from k = 3 on."""
    return _int_power(l, k) if k >= 3 else l ** k


def _walk_derivs2(e, x):
    """The recursive (f, f', f'') walk ``eval_x_derivs2`` used before, with
    the zero-base check of a negative integer power, which a negated
    literal exponent reaches since the parser folds it into the literal."""
    if isinstance(e, Num):
        z = x * 0.0
        return e.value + z, z, z
    if isinstance(e, Var):
        if e.name != "x":
            raise ExprError("xi appears in a potential expression")
        return x, x * 0.0 + 1.0, x * 0.0
    if isinstance(e, Neg):
        f, d1, d2 = _walk_derivs2(e.arg, x)
        return -f, -d1, -d2
    if isinstance(e, Call):
        u, u1, u2 = _walk_derivs2(e.arg, x)
        F, F1, F2, _, _ = _unary_derivs(e.func, u, str(e))
        return F, F1 * u1, F2 * u1 * u1 + F1 * u2
    if e.op == "^" and "x" in variables(e.right):
        # l^r = exp(r log l), as jet_eval takes a non-constant exponent
        return _walk_derivs2(
            Call("exp", BinOp("*", e.right, Call("log", e.left))), x)
    l, l1, l2 = _walk_derivs2(e.left, x)
    if e.op == "^":
        r = e.right
        if isinstance(r, Num) and float(r.value).is_integer():
            n = int(r.value)
            if n < 0 and np.any(np.asarray(l) == 0):
                raise ExprDomainError("invalid power", str(e))
            F = _power(l, n)
            F1 = n * _power(l, n - 1)
            F2 = n * (n - 1) * _power(l, n - 2) if n != 1 else l * 0.0
            return F, F1 * l1, F2 * l1 * l1 + F1 * l2
        rr, _, _ = _walk_derivs2(r, x)
        F, F1, F2, _, _ = _real_pow_derivs(l, rr, str(e))
        return F, F1 * l1, F2 * l1 * l1 + F1 * l2
    r, r1, r2 = _walk_derivs2(e.right, x)
    if e.op == "+":
        return l + r, l1 + r1, l2 + r2
    if e.op == "-":
        return l - r, l1 - r1, l2 - r2
    if e.op == "*":
        return l * r, l1 * r + l * r1, l2 * r + 2 * l1 * r1 + l * r2
    if np.any(np.asarray(r) == 0):
        raise ExprDomainError("division by zero", str(e))
    q = l / r
    q1 = (l1 - q * r1) / r
    q2 = (l2 - 2 * q1 * r1 - q * r2) / r
    return q, q1, q2


# zero, negative bases under integer and fractional exponents, log and sqrt
# at zero and below, division by zero, and powers that overflow a float
EDGE_TEXTS = (
    "x^2", "x^-2", "x^0.5", "x^1.5", "(x - 1)^3", "x^x", "x^xi", "xi^x",
    "(-x)^0.5", "2^(x*xi)", "(x*xi)^-1", "0^x", "x^0", "x^3^2",
    "x^31 + x^2", "10^x", "exp(x)^2", "exp(x)^-1", "exp(x)^0.5",
    "sin(x)^-3", "cos(x)^0.5", "(x - 2.5)^-1.5", "log(x)", "sqrt(x)",
    "log(sqrt(x))", "sqrt(log(x))", "1/x", "x/(x - x)", "tanh(x)/x",
)
EDGE_X = (0.0, -0.0, 1.0, -1.0, -2.5, 1.5, 1e200, -1e200, 2.0 ** 40,
          -(2.0 ** 40), 1e-300)
EDGE_XI = (0.0, -0.5, 2.0)


def _bits(v):
    a = np.asarray(v, dtype=float)
    nan = np.isnan(a)
    return type(v), a.shape, nan.tobytes(), np.where(nan, 0.0, a).tobytes()


def _outcome(f, *args):
    """What f(*args) does: its exception, or its value's type, NaN places
    and the bits of every other element (per component for a tuple)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            v = f(*args)
        except Exception as exc:
            return "raise", type(exc), str(exc)
    if isinstance(v, tuple):
        return ("value",) + tuple(_bits(c) for c in v)
    return "value", _bits(v)


def _untyped(out):
    return out if out[0] == "raise" else tuple(o[2:] for o in out[1:])


def _as_element(f, e, x, xi=None):
    """Whether f(e, x, xi) on a scalar does what the same element of a
    one-element array gets, types aside."""
    args = (x,) if xi is None else (x, xi)
    got = _outcome(f, e, *args)
    arrays = [np.array([a]) for a in args]
    ref = _outcome(lambda: f(e, *arrays))
    if ref[0] == "value":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            v = f(e, *arrays)
        ref = _outcome(lambda: v[0] if not isinstance(v, tuple)
                       else tuple(c[0] for c in v))
    return _untyped(got) == _untyped(ref)


# Python's float ** raises these where numpy gives +-inf or a divide flag;
# the only departures allowed from the walks: there the compiled scalar
# path does what the same element of an array does
_PY_POWER_ERRORS = (OverflowError, ZeroDivisionError)


def test_compiled_evaluate_matches_the_tree_walk(rng):
    texts = [(_random_expr_text(rng), tuple(rng.uniform(-1.5, 1.5, 3)))
             for _ in range(40)]
    texts += [(t, EDGE_X) for t in EDGE_TEXTS]
    departures = 0
    for text, xs in texts:
        e = parse(text)
        for xi in EDGE_XI:
            for x in xs:
                for kind in (float, np.float64, lambda v: np.array([v])):
                    args = (kind(x), kind(xi))
                    ref = _outcome(_walk, e, *args)
                    got = _outcome(evaluate, e, *args)
                    if got != ref:
                        departures += 1
                        assert ref[0] == "raise" \
                            and ref[1] in _PY_POWER_ERRORS \
                            and _as_element(evaluate, e, *args), \
                            f"{text} at ({x!r}, {xi!r})"
            xs_arr = np.array(xs)
            assert _outcome(evaluate, e, xs_arr, xi) == \
                _outcome(_walk, e, xs_arr, xi), text
    assert departures > 0


@pytest.mark.parametrize("text", ["x^-2", "sin(x)^-3"])
def test_jet_of_a_negative_power_at_a_zero_base_is_a_domain_error(text):
    with pytest.raises(ExprDomainError, match="invalid power"):
        jet_eval(parse(text), (0.0, 0.0))


@pytest.mark.parametrize("text, x, message", [
    # the jet of log(x) at 1e-300 has infinite derivatives; its value stays
    # log(x) and sqrt refuses it, as eval_x_derivs2 does
    ("sqrt(log(x))", 1e-300, "sqrt of non-positive"),
    # inf - inf: a NaN argument is refused, not passed on
    ("log(exp(x) - exp(x))", 1e200, "log of non-positive"),
    ("(exp(x) - exp(x))^0.5", 1e200, "real power of non-positive"),
])
def test_jet_refuses_a_nan_or_non_positive_argument(text, x, message):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for f, point in ((jet_eval, (x, 0.0)), (eval_x_derivs2, x)):
            with pytest.raises(ExprDomainError, match=message):
                f(parse(text), point)


def test_scalar_power_takes_what_the_array_gets():
    inv = parse("x^-2")
    with pytest.raises(ExprDomainError, match="invalid power"):
        evaluate(inv, 0.0)
    with pytest.raises(ExprDomainError, match="invalid power"):
        evaluate(inv, np.array([0.0, 1.0]))
    steep = parse("x^31 + x^2")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert evaluate(steep, -(2.0 ** 40)) == -np.inf
        assert evaluate(steep, np.array([-(2.0 ** 40)]))[0] == -np.inf


def test_power_domain_errors_with_and_without_errstate():
    # a non-negative integer literal exponent skips np.errstate; every
    # other power still raises where the value is undefined
    zero = np.array([0.0, 1.0])
    for text, x in (("0^-1", 0.5), ("(-1)^0.5", 0.5), ("x^-1", 0.0),
                    ("0^-1", zero), ("(-1)^0.5", zero), ("x^-1", zero)):
        with pytest.raises(ExprDomainError):
            evaluate(parse(text), x)
    xs = np.array([0.0, -0.0, -1.5, 2.0, 1e200, -np.inf, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for k in (0, 1, 2, 3, 4, 31):
            got = evaluate(parse(f"x^{k}"), xs)
            assert np.array_equal(got, xs ** float(k), equal_nan=True)
            for x in xs:
                assert np.array_equal(evaluate(parse(f"x^{k}"), float(x)),
                                      np.float64(x) ** float(k),
                                      equal_nan=True)


# the worst distance in ulp of _int_power(x, n) from np.power(x, n) over
# the sample of the test below, as measured; each multiplication rounds
# once, and a squaring doubles the relative error it is given
POWER_ULPS = {3: 1, 4: 2, 5: 3, 6: 3, 7: 4, 8: 5, 31: 24}


def _power_sample():
    """200000 numbers of either sign, |x| in [2^-30, 2^31)."""
    rng = np.random.default_rng(20261020)
    m = rng.uniform(1.0, 2.0, 200000)
    return np.ldexp(m, rng.integers(-30, 31, m.size)) \
        * rng.choice([-1.0, 1.0], m.size)


def test_int_power_is_within_its_ulp_bound_of_np_power():
    x = _power_sample()
    for n, bound in POWER_ULPS.items():
        with np.errstate(over="ignore", under="ignore"):
            got, ref = _int_power(x, n), np.power(x, float(n))
        normal = np.isfinite(ref) & (np.abs(ref) >= np.finfo(float).tiny)
        assert normal.sum() > 100000, n
        ulps = np.abs(got - ref)[normal] / np.spacing(np.abs(ref[normal]))
        assert ulps.max() <= bound, n


def test_int_power_is_exact_at_zeros_infinities_nan_and_overflow():
    xs = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 1e200,
                   -1e200, 2.0 ** 600, -(2.0 ** 600), 1e-200, -1e-200])
    for n in (3, 4, 5, 6, 7, 8, 31, 32):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got, ref = _int_power(xs, n), np.power(xs, float(n))
        assert np.array_equal(got, ref, equal_nan=True), n
        signed = ~np.isnan(ref)
        assert np.array_equal(np.signbit(got[signed]),
                              np.signbit(ref[signed])), n
    # an overflow keeps its sign
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert _int_power(np.array([-1e200]), 3)[0] == -np.inf
    assert _int_power(-1e200, 3) == -np.inf
    assert _int_power(-1e200, 4) == np.inf
    # an infinite literal exponent is no integer: it takes **
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert np.array_equal(evaluate(parse("x^1e999"), xs), xs ** np.inf,
                              equal_nan=True)


def test_int_power_of_a_number_is_the_array_element():
    xs = np.concatenate([_power_sample()[:2000],
                         [0.0, -0.0, 1e200, -1e200, 1e-200, -1e-200]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for n in POWER_ULPS:
            arr = _int_power(xs, n)
            for x, a in zip(xs.tolist(), arr.tolist()):
                for kind in (float, np.float64):
                    v = _int_power(kind(x), n)
                    assert type(v) is kind
                    assert np.float64(v).tobytes() == np.float64(a).tobytes()


@pytest.mark.parametrize("text", ["x^3", "x^4", "x^2 + 0.12*x^4",
                                  "(x - 0.3)^5*sin(x)^3", "x^31", "x^8"])
def test_integer_powers_compile_to_the_power_helper(text, rng):
    """The closures and the reference walks, which take ``_int_power`` for
    a literal exponent from 3 on, agree bit for bit at arbitrary points,
    for numbers and arrays; the powers are within their ulp bound of
    np.power."""
    e = parse(text)
    xs = rng.uniform(-2.0, 2.0, 64)
    assert _outcome(evaluate, e, xs) == _outcome(_walk, e, xs)
    assert _outcome(eval_x_derivs2, e, xs) == _outcome(_walk_derivs2, e, xs)
    for x in xs[:8].tolist():
        for kind in (float, np.float64):
            assert _outcome(evaluate, e, kind(x)) == \
                _outcome(_walk, e, kind(x))
            assert _outcome(eval_x_derivs2, e, kind(x)) == \
                _outcome(_walk_derivs2, e, kind(x))
    n = int(text[3:]) if text[:3] == "x^" else None
    if n is not None:
        ref = np.power(xs, float(n))
        assert np.all(np.abs(evaluate(e, xs) - ref)
                      <= POWER_ULPS[n] * np.spacing(np.abs(ref)))


def test_compiled_derivs2_matches_the_tree_walk(rng):
    # x-only trees: the random generator's xi replaced by a constant
    texts = [(_random_expr_text(rng).replace("xi", "0.7"),
              tuple(rng.uniform(-1.5, 1.5, 3))) for _ in range(40)]
    texts += [(t, EDGE_X) for t in EDGE_TEXTS]
    for text, xs in texts:
        e = parse(text)
        for x in xs:
            for kind in (float, np.float64, lambda v: np.array([v])):
                ref = _outcome(_walk_derivs2, e, kind(x))
                got = _outcome(eval_x_derivs2, e, kind(x))
                assert got == ref or (
                    ref[0] == "raise" and ref[1] in _PY_POWER_ERRORS
                    and _as_element(eval_x_derivs2, e, kind(x))), \
                    f"{text} at {x!r}"


def _constant_exponents(e):
    if isinstance(e, BinOp):
        return not (e.op == "^" and variables(e.right)) \
            and _constant_exponents(e.left) and _constant_exponents(e.right)
    return _constant_exponents(e.arg) if isinstance(e, (Neg, Call)) else True


def _jet_derivs2(e, x):
    jet = jet_eval(e, (x, 0.0))
    return jet.value, jet.derivative(1, 0), jet.derivative(2, 0)


def test_compiled_derivs2_agrees_with_jets_at_the_edges():
    # the fast path's domain: x alone, exponents free of x
    trees = [parse(t) for t in EDGE_TEXTS]
    trees = [e for e in trees
             if variables(e) == {"x"} and _constant_exponents(e)]
    assert len(trees) >= 20
    compared = 0
    for e in trees:
        for x in EDGE_X:
            ref = _outcome(_jet_derivs2, e, x)
            got = _outcome(eval_x_derivs2, e, x)
            where = f"{e} at {x!r}: {got} vs {ref}"
            if ref[0] == "raise":
                assert got[0] == "raise" and issubclass(got[1], ExprError), \
                    where
                continue
            assert got[0] != "raise", where
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                pairs = zip(eval_x_derivs2(e, x), _jet_derivs2(e, x))
            for a, b in pairs:
                if np.isfinite(a) and np.isfinite(b):
                    compared += 1
                    assert a == pytest.approx(b, rel=1e-12, abs=1e-300), \
                        where
    assert compared > 200


def _two_to_the_x(x):
    """(f, f', f'') of x^2 + 0.1 2^x."""
    g, ln2 = 0.1 * 2.0 ** x, math.log(2.0)
    return x * x + g, 2.0 * x + ln2 * g, 2.0 + ln2 * ln2 * g


def _one_plus_x2_to_the_x(x):
    """(f, f', f'') of (1 + x^2)^x = exp(x L), L = log(1 + x^2)."""
    q = 1.0 + x * x
    f, d = q ** x, math.log(q) + 2.0 * x * x / q
    return f, f * d, f * (d * d + 2.0 * x / q + 4.0 * x / (q * q))


@pytest.mark.parametrize("text, closed", [
    ("x^2 + 0.1*2^x", _two_to_the_x),
    ("(1 + x^2)^x", _one_plus_x2_to_the_x),
])
def test_an_exponent_reading_x_is_differentiated_as_exp_of_a_log(text,
                                                                  closed):
    e = parse(text)
    xs = (-2.5, -1.3, 0.0, 0.7, 3.0)
    for x in xs:
        for got, want in zip(eval_x_derivs2(e, x), closed(x)):
            assert got == pytest.approx(want, rel=1e-13, abs=1e-15), x
    arrays = eval_x_derivs2(e, np.array(xs))
    for k, x in enumerate(xs):
        assert tuple(a[k] for a in arrays) == eval_x_derivs2(e, x)


def test_exponents_reading_x_agree_with_jets_at_the_edges():
    trees = [parse(t) for t in EDGE_TEXTS]
    trees = [e for e in trees
             if variables(e) == {"x"} and not _constant_exponents(e)]
    assert len(trees) >= 3
    compared = 0
    for e in trees:
        for x in EDGE_X:
            ref = _outcome(_jet_derivs2, e, x)
            got = _outcome(eval_x_derivs2, e, x)
            where = f"{e} at {x!r}: {got} vs {ref}"
            if ref[0] == "raise":
                assert got[0] == "raise" and issubclass(got[1], ExprError), \
                    where
                continue
            assert got[0] != "raise", where
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                pairs = zip(eval_x_derivs2(e, x), _jet_derivs2(e, x))
            for a, b in pairs:
                if np.isfinite(a) and np.isfinite(b):
                    compared += 1
                    assert a == pytest.approx(b, rel=1e-12, abs=1e-300), \
                        where
    assert compared >= 30


# expressions n levels deep: nested groups, calls, negations and powers
# (the parser recurses on them), and left-deep chains (the tree does)
DEEP = {
    "groups": lambda n: "(" * n + "x" + ")" * n,
    "calls": lambda n: "sin(" * n + "x" + ")" * n,
    "negations": lambda n: "-" * n + "x",
    "powers": lambda n: "x" + "^1" * n,
    "sum": lambda n: "+".join(["x"] * (n + 1)),
    "difference": lambda n: "-".join(["x"] * (n + 1)),
    "product": lambda n: "*".join(["x"] * (n + 1)),
}


@pytest.mark.parametrize("form", sorted(DEEP))
def test_an_expression_at_the_depth_limit_is_evaluated_everywhere(form):
    e = parse(DEEP[form](MAX_DEPTH))
    v = compiled(e)(0.5)
    assert np.isfinite(v)
    assert compiled_derivs2(e)(0.5)[0] == pytest.approx(v, rel=1e-14)
    assert jet_eval(e, (0.5, 0.0)).value == pytest.approx(v, rel=1e-14)
    assert "x" in str(e)


@pytest.mark.parametrize("n", [MAX_DEPTH + 1, 10 * MAX_DEPTH])
@pytest.mark.parametrize("form", sorted(DEEP))
def test_an_expression_past_the_depth_limit_is_a_syntax_error(form, n):
    # refused before the parser or an evaluator recurses that deep: a
    # RecursionError would end the CLI in a traceback, not exit 2
    with pytest.raises(ExprSyntaxError, match=f"more than {MAX_DEPTH} levels"):
        parse(DEEP[form](n))
