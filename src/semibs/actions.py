"""Action series S0, S1, S2 and the pointwise quantities feeding them.

S2, the h^2 coefficient of the quantization condition, is

    S2 = -(1/12) (d/dE) \\oint V'' dt + (1/2) (d/dE) \\oint p1^2 dt
         - \\oint p2 dt,

the Schrodinger form of Colin de Verdiere, "Bohr-Sommerfeld rules to all
orders" (Ann. Henri Poincare 6, 2005); ``s2_value`` puts it together.
``gamma_dd`` keeps its meaning (d/dE)^2 \\oint Gamma dt, Gamma =
4 xi^2 V'' + 2 V'^2: since d/dt(xi V') = 2 xi^2 V'' - V'^2 along the flow,
(d/dE) \\oint Gamma dt = 4 \\oint V'' dt, so one E-derivative suffices.
Every closed-orbit integral comes from ``orbit.orbit_quadrature``;
ODE-traced orbits and the Gamma integrand serve only as the tests'
reference (``gamma_integral``).  ``orbit_integrands`` lists the integrands
S1 and S2 read, for this module and for the solver's table
(``quantize.SEffTable``), which takes E-derivatives of Chebyshev series.
``action_series`` at one energy is the tests' reference: its E-derivatives
are 5-point central differences across neighboring energies with step eta,
with one Richardson extrapolation at half step, and E and its six stencil
energies are integrated in one array call.  The pointwise Fourier-side
density t1_value and the d1 bracket terms are kept for near-focal-arc
verification; full-orbit quadrature of them is never attempted (they are
singular at the well bottom).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exprjet import evaluate, jet_eval
from .orbit import orbit_integral, orbit_quadrature
from .symbols import HamiltonianSymbol

MASLOV_TERM = math.pi  # two simple focal points, pi/2 each

# Overall sign of the h^2 curvature and p1^2 terms, calibrated once against
# the independent eigenvalue oracle on the quartic well (see tests).
S2_SIGN = -1.0


class FocalEvaluationError(Exception):
    """t1/d1 evaluated where alpha = d_x p0 is too small."""


ALPHA_TOL = 1e-6


@dataclass
class ActionSeries:
    e: float
    s0: float
    period: float
    maslov: float
    sub_principal: float  # \oint p1 dt
    s1: float
    gamma_dd: float       # (d/dE)^2 \oint Gamma dt = 4 (d/dE) \oint V'' dt
    p2_int: float         # \oint p2 dt
    p1sq_d: float         # (d/dE) \oint p1^2 dt
    s2: float             # the S2 of the quantization condition
    derivative_consistent: bool  # eta vs eta/2 estimates agreed to 1e-6


def s2_value(gamma_dd, p1sq_d, p2_int):
    """S2 from its three parts: ``S2_SIGN`` scales the curvature and p1^2
    parts, and p2 enters as -oint p2.  Every S2 of the package comes from
    here, so the sign is decided in this one place."""
    return S2_SIGN * (gamma_dd / 48.0 - 0.5 * p1sq_d) - p2_int


def _gamma_on_samples(sym, x, xi):
    """Gamma at (x, xi) for p0 = xi^2 + V: 4 xi^2 V'' + 2 V'^2."""
    _, v1, v2 = sym.v_derivs(x)
    return 4.0 * xi * xi * v2 + 2.0 * v1 * v1


def gamma_integral(sym, orb, rel_tol=1e-12):
    return orbit_integral(orb, lambda x, xi: _gamma_on_samples(sym, x, xi),
                          rel_tol=rel_tol)


def _d1_5pt(values, eta):
    """4th-order first derivative from values at E + {-2,-1,0,1,2} eta."""
    m2, m1, _, p1, p2 = values
    return (m2 - 8.0 * m1 + 8.0 * p1 - p2) / (12.0 * eta)


def orbit_integrands(sym):
    """The integrands f(x, xi) of the orbit integrals S1 and S2 read, in
    this order: p1, p2, V'' and p1^2 (the last two are differentiated in
    E).  Each returns an array shaped like x."""

    def p1(x, xi):
        return evaluate(sym.p1, x, xi) + 0.0 * x

    def p2(x, xi):
        return evaluate(sym.p2, x, xi) + 0.0 * x

    def v_dd(x, xi):
        return sym.v_derivs(x)[2] + 0.0 * x

    def p1_sq(x, xi):
        return p1(x, xi) ** 2

    return [p1, p2, v_dd, p1_sq]


def action_series(sym, e, eta, quad_tol=1e-12):
    """Compute the action series at the energy e, a number, with
    E-derivative step eta."""

    def one(x, xi):
        return np.ones_like(x)

    # E, then the stencil energies for step eta and eta/2 (Richardson)
    offs = (0.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
    p1, p2, *stencil_fs = orbit_integrands(sym)
    s0, ints = orbit_quadrature(sym, e + eta * np.array(offs),
                                [one, p1, p2] + stencil_fs, rel_tol=quad_tol)
    period, sub, p2_int = (float(v[0]) for v in ints[:3])
    full = (-2.0, -1.0, 0.0, 1.0, 2.0)
    half = (-1.0, -0.5, 0.0, 0.5, 1.0)
    derivs, consistent = [], True
    for v in ints[3:]:
        at = dict(zip(offs, v.tolist()))
        d_eta = _d1_5pt([at[o] for o in full], eta)
        d_half = _d1_5pt([at[o] for o in half], 0.5 * eta)
        d = (16.0 * d_half - d_eta) / 15.0
        consistent = consistent and (
            abs(d_eta - d_half) <= 1e-6 * (1.0 + abs(d)))
        derivs.append(d)
    v_dd_d, p1sq_d = derivs

    gamma_dd = 4.0 * v_dd_d
    return ActionSeries(
        e=e, s0=float(s0[0]), period=period, maslov=MASLOV_TERM,
        sub_principal=sub, s1=MASLOV_TERM - sub, gamma_dd=gamma_dd,
        p2_int=p2_int, p1sq_d=p1sq_d, s2=s2_value(gamma_dd, p1sq_d, p2_int),
        derivative_consistent=consistent)


def _frame_data(sym, frame, xi):
    x = frame.x_of_xi(xi)
    j0 = jet_eval(sym.p0, (x, xi))
    alpha = j0.derivative(1, 0)
    if abs(alpha) < ALPHA_TOL:
        raise FocalEvaluationError(
            f"alpha = {alpha:.3e} too small at xi = {xi} (not a focal arc)")
    psi2 = j0.derivative(0, 1) / alpha
    alpha_p = -j0.derivative(2, 0) * psi2 + j0.derivative(1, 1)
    return x, j0, alpha, psi2, alpha_p


def t1_value(sym, frame, xi):
    """Fourier-representation density T1 on a near-focal arc."""
    x, j0, alpha, psi2, alpha_p = _frame_data(sym, frame, xi)
    p2 = evaluate(sym.p2, x, xi)
    j1 = jet_eval(sym.p1, (x, xi))
    p1v = j1.value
    p1x = j1.derivative(1, 0)
    px2 = j0.derivative(2, 0)
    px3 = j0.derivative(3, 0)
    px4 = j0.derivative(4, 0)
    px2xi2 = j0.derivative(2, 2)
    px3xi = j0.derivative(3, 1)
    return ((p2 - px2xi2 / 8.0 + psi2 * px3xi / 12.0
             + psi2 * psi2 * px4 / 24.0) / alpha
            + (alpha_p ** 2 / alpha ** 3) * px2 / 8.0
            + psi2 * (alpha_p / alpha ** 2) * px3 / 6.0
            - (p1v / alpha ** 2) * (p1x - p1v * px2 / (2.0 * alpha)))


def d1_brackets(sym, frame, xi):
    """(re_part, im_bracket): the exact-derivative real part of D1 and the
    boundary bracket of its imaginary part."""
    x, j0, alpha, psi2, alpha_p = _frame_data(sym, frame, xi)
    j1 = jet_eval(sym.p1, (x, xi))
    px2 = j0.derivative(2, 0)
    px3 = j0.derivative(3, 0)
    # d_x (p1 / d_x p0) by the quotient rule
    re_part = -0.5 * (j1.derivative(1, 0) * alpha - j1.value * px2) / alpha ** 2
    im_bracket = psi2 / (6.0 * alpha) * px3 + 0.25 * alpha_p * px2
    return re_part, im_bracket


C0 = 1.0 / math.sqrt(2.0)


def normalization_c1(sym, frame):
    """Second normalization constant C1 at the focal point (C0 = 1/sqrt 2)."""
    re_part, _ = d1_brackets(sym, frame, frame.xi_focal)
    # re_part is already -(1/2) d_x(p1/d_x p0)
    return C0 * re_part
