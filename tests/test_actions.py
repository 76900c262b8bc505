"""Action series: S2 assembly, orbit-form identities, focal-point data."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from semibs.actions import (C0, FocalEvaluationError, action_series,
                            d1_brackets, gamma_integral, normalization_c1,
                            t1_value)
from semibs.exprjet import evaluate
from semibs.orbit import FocalFrame, trace_orbit
from semibs.symbols import builtin


def test_harmonic_s2_vanishes(harmonic):
    for e in np.linspace(0.2, 1.0, 5):
        ser = action_series(harmonic, e, eta=0.02)
        assert abs(ser.s2) <= 1e-8 * (1.0 + abs(e))
        assert ser.derivative_consistent


def test_harmonic_gamma_integral_linear(harmonic):
    # Gamma = 8 xi^2 + 8 x^2 = 8E on the orbit, so oint Gamma dt = 8 pi E
    for e in (0.3, 0.8):
        orb = trace_orbit(harmonic, e)
        assert gamma_integral(harmonic, orb) == pytest.approx(
            8.0 * math.pi * e, rel=1e-10)


def test_constant_p2_gives_minus_c_pi():
    c = 0.37
    sym = builtin("harmonic", {"p2": f"{c}"})
    ser = action_series(sym, 0.5, eta=0.02)
    assert abs(ser.s2 - (-c * math.pi)) <= 1e-8


def test_subprincipal_integral(harmonic):
    # oint x^2 dt for x = sqrt(E) sin(2t) over period pi is pi E / 2
    sym = builtin("harmonic", {"p1": "x^2"})
    for e in (0.4, 1.0):
        ser = action_series(sym, e, eta=0.02)
        assert ser.sub_principal == pytest.approx(math.pi * e / 2.0,
                                                  rel=1e-10)
        assert ser.s1 == pytest.approx(math.pi - math.pi * e / 2.0, rel=1e-10)


def test_s2_step_robustness(quartic):
    a = action_series(quartic, 0.5, eta=0.02)
    b = action_series(quartic, 0.5, eta=0.01)
    assert abs(a.s2 - b.s2) <= 1e-6 * (1.0 + abs(a.s2))
    assert a.derivative_consistent and b.derivative_consistent


def _arc_times(orb, xi_1, xi_2):
    """Times in the first quarter-period where xi(t) hits xi_1 and xi_2."""
    def xi_at(t):
        return orb.at(t)[1]

    tq = 0.25 * orb.period
    return (brentq(lambda t: xi_at(t) - xi_1, 1e-12, tq, xtol=1e-14),
            brentq(lambda t: xi_at(t) - xi_2, 1e-12, tq, xtol=1e-14))


def test_subprincipal_arc_representations():
    """int p1/alpha dxi = -int p1 dt on a xi-arc near the right focal point,
    and the x-representation int p1/(d_xi p0) dx matches the same arc."""
    sym = builtin("quartic", {"p1": "x + 0.2"})
    e = 0.5
    orb = trace_orbit(sym, e)
    frame = FocalFrame(sym, e, side="right")
    xi_1, xi_2 = -0.2, -0.55  # xi decreases from 0 after leaving (x_r, 0)
    t1, t2 = _arc_times(orb, xi_1, xi_2)

    def p1_of_t(t):
        x, xi = orb.at(t)
        return evaluate(sym.p1, x, xi)

    time_int, _ = quad(np.vectorize(p1_of_t), t1, t2,
                       epsabs=1e-13, epsrel=1e-12, limit=200)

    def density_xi(xi):
        x = frame.x_of_xi(xi)
        return evaluate(sym.p1, x, xi) / frame.alpha(xi)

    xi_int, _ = quad(np.vectorize(density_xi), xi_1, xi_2,
                     epsabs=1e-13, epsrel=1e-12, limit=200)
    assert xi_int == pytest.approx(-time_int, rel=1e-8)

    x1 = orb.at(t1)[0]
    x2 = orb.at(t2)[0]

    def density_x(x):
        xi = -math.sqrt(max(e - float(sym.v(x)), 0.0))  # lower branch
        return evaluate(sym.p1, x, xi) / (2.0 * xi)

    x_int, _ = quad(np.vectorize(density_x), x1, x2,
                    epsabs=1e-13, epsrel=1e-12, limit=200)
    assert x_int == pytest.approx(time_int, rel=1e-8)


def test_t1_and_d1_smooth_on_focal_arc():
    sym = builtin("quartic", {"p1": "x", "p2": "x^2"})
    frame = FocalFrame(sym, 0.5, side="right")
    lo, hi = 0.1, 0.5
    for f in (lambda xi: t1_value(sym, frame, xi),
              lambda xi: d1_brackets(sym, frame, xi)[0],
              lambda xi: d1_brackets(sym, frame, xi)[1]):
        cheb = np.polynomial.chebyshev.Chebyshev.interpolate(
            np.vectorize(f), 14, domain=[lo, hi])
        probe = np.linspace(lo + 0.01, hi - 0.01, 23)
        vals = np.array([f(x) for x in probe])
        assert np.max(np.abs(cheb(probe) - vals)) <= \
            1e-6 * (1.0 + np.max(np.abs(vals)))


def test_focal_data_rejects_vanishing_alpha(harmonic):
    frame = FocalFrame(harmonic, 1.0, side="right")
    # alpha = 2x vanishes as xi -> sqrt(E) along the branch
    with pytest.raises(FocalEvaluationError):
        t1_value(harmonic, frame, math.sqrt(1.0 - 1e-16))


def test_d1_real_part_closed_forms():
    e = 0.8
    # p1 = x: p1/(d_x p0) = 1/2, so the real bracket vanishes identically
    sym = builtin("harmonic", {"p1": "x"})
    frame = FocalFrame(sym, e, side="right")
    re_part, _ = d1_brackets(sym, frame, 0.3)
    assert re_part == pytest.approx(0.0, abs=1e-12)
    assert normalization_c1(sym, frame) == pytest.approx(0.0, abs=1e-12)
    # p1 = x^2: -1/2 d_x(x/2) = -1/4 everywhere on the curve
    sym2 = builtin("harmonic", {"p1": "x^2"})
    frame2 = FocalFrame(sym2, e, side="right")
    re2, _ = d1_brackets(sym2, frame2, 0.3)
    assert re2 == pytest.approx(-0.25, rel=1e-12)
    # p1 = 1: -1/2 d_x(1/(2x)) = 1/(4x^2); at the focal point x^2 = E
    sym3 = builtin("harmonic", {"p1": "1"})
    frame3 = FocalFrame(sym3, e, side="right")
    assert normalization_c1(sym3, frame3) == pytest.approx(
        C0 / (4.0 * e), rel=1e-12)


def test_p1_squared_derivative_feeds_s2():
    # harmonic with p1 = c: oint p1^2 dt = c^2 pi is E-independent, and
    # p2 = 0, Gamma stays linear, so S2 = 0 still
    sym = builtin("harmonic", {"p1": "0.4"})
    ser = action_series(sym, 0.5, eta=0.02)
    assert abs(ser.p1sq_d) <= 1e-8
    assert abs(ser.s2) <= 1e-8
    assert ser.sub_principal == pytest.approx(0.4 * math.pi, rel=1e-10)
