"""Action series S0, S1, S2 and the orbit integrals feeding them.

S2, the h^2 coefficient of the quantization condition, is

    S2 = -(1/12) (d/dE) \\oint V'' dt + (1/2) (d/dE) \\oint p1^2 dt
         - \\oint p2 dt,

the Schrodinger form of Colin de Verdiere, "Bohr-Sommerfeld rules to all
orders" (Ann. Henri Poincare 6, 2005); ``s2_value`` puts it together.
``gamma_dd`` keeps its meaning (d/dE)^2 \\oint Gamma dt, Gamma =
4 xi^2 V'' + 2 V'^2: since d/dt(xi V') = 2 xi^2 V'' - V'^2 along the flow,
(d/dE) \\oint Gamma dt = 4 \\oint V'' dt, so one E-derivative suffices.
Every closed-orbit integral comes from ``orbit.orbit_quadrature``.
``orbit_integrands`` lists the integrands S1 and S2 read, for this module
and for the solver's table (``quantize.SEffTable``), which takes
E-derivatives of Chebyshev series.  ``action_series`` at one energy is the
tests' reference: its E-derivatives are 5-point central differences across
neighboring energies with step eta, with one Richardson extrapolation at
half step, and E and its six stencil energies are integrated in one array
call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exprjet import evaluate
from .orbit import orbit_quadrature

MASLOV_TERM = math.pi  # two simple focal points, pi/2 each

# Overall sign of the h^2 curvature and p1^2 terms, calibrated once against
# the independent eigenvalue oracle on the quartic well (see tests).
S2_SIGN = -1.0


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
