"""Orbit integrals over gamma_E for a single-well Hamiltonian p0 = xi^2 + V.

``orbit_quadrature`` is the path the action series and the quantization
condition use.  On gamma_E every closed-orbit integral is an integral over
[x_l, x_r]: with xi+ = sqrt(E - V), S0 = 2 int xi+ dx and

    \\oint f dt = int (f(x, xi+) + f(x, -xi+)) / (2 xi+) dx.

The substitution x = mid - rad cos(theta) removes the square-root end
singularities, and Gauss-Legendre in theta converges spectrally.
``turning_points`` solves V = E outward from ``symbols.well_minimum`` and
is memoised on (V, E): each pair is solved once, however many layers ask.

The ODE route is kept as the independent reference the tests compare the
quadrature against: ``trace_orbit`` integrates the Hamilton flow with an
adaptive high-order Runge-Kutta pair, detects the period on the Poincare
section xi = 0 and refines it on the dense output; ``orbit_integral``
resamples the dense output uniformly and applies the trapezoid rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .exprjet import compiled, compiled_derivs2, jet_eval
from .symbols import HamiltonianSymbol, well_minimum


class OrbitError(Exception):
    pass


class ConvergenceError(OrbitError):
    """A quadrature or refinement loop failed to reach its tolerance."""


ENERGY_DRIFT_TOL = 1e-9
CLOSURE_TOL = 1e-8
TURNING_POINT_CACHE_SIZE = 4096   # distinct (V, E) pairs remembered


def turning_points(sym, e):
    """(x_left, x_right) with V = e, by bracketed root refinement outward
    from the well minimum; memoised on (V, e)."""
    return _turning_points(sym.potential, float(e))


@lru_cache(maxsize=TURNING_POINT_CACHE_SIZE)
def _turning_points(potential, e):
    bottom = well_minimum(potential, e)
    if bottom is None:
        raise OrbitError(f"V does not rise above E = {e} on both sides")
    x0, v0 = bottom
    if not e > v0:
        raise OrbitError(f"E = {e} is at or below the well bottom "
                         f"V(x0) = {v0}")
    return (_bracket_root(potential, e, x0, direction=-1),
            _bracket_root(potential, e, x0, direction=+1))


def _bracket_root(potential, e, x0, direction):
    v_of, derivs = compiled(potential), compiled_derivs2(potential)
    step = max(0.1, 0.1 * abs(x0))
    a = x0
    for _ in range(200):
        b = a + direction * step
        if v_of(b) > e:
            lo, hi = (b, a) if direction < 0 else (a, b)
            x = brentq(lambda t: v_of(t) - e, lo, hi,
                       xtol=1e-15, rtol=8.9e-16)
            # Newton polish using V' for |V - E| <= 1e-12 absolute
            for _ in range(3):
                v, v1, _ = derivs(x)
                if v1 == 0:
                    break
                x -= (v - e) / v1
            return float(x)
        step *= 1.5
    raise OrbitError("failed to bracket a turning point (invalid window?)")


@dataclass
class Orbit:
    """One closed trajectory of the Hamilton field at energy e."""

    symbol: HamiltonianSymbol
    e: float
    x_left: float
    x_right: float
    period: float
    samples: np.ndarray  # shape (n, 3): (t, x, xi) over one period
    _sol: object  # scipy OdeSolution (dense output)

    def at(self, t):
        """(x, xi) at flow times t (scalar or array), t in [0, period]."""
        y = self._sol(t)
        return y[0], y[1]

    def sample_uniform(self, n):
        t = np.linspace(0.0, self.period, n, endpoint=False)
        x, xi = self.at(t)
        return t, x, xi


def _period_estimate(sym, e, xl, xr, n=96):
    """Time of flight 2 * int dx / (2 xi+) via Gauss-Chebyshev quadrature."""
    k = np.arange(1, n + 1)
    nodes = np.cos((2 * k - 1) * np.pi / (2 * n))
    mid, rad = 0.5 * (xl + xr), 0.5 * (xr - xl)
    x = mid + rad * nodes
    v = sym.v(x)
    # dt = dx / (2 xi); regularize the sqrt((x-xl)(xr-x)) factor
    g = np.sqrt(np.maximum((x - xl) * (xr - x) / np.maximum(e - v, 1e-300), 0.0))
    return float(np.pi / n * np.sum(g))


def trace_orbit(sym, e, rtol=1e-12, atol=1e-14):
    """Trace one period of the Hamilton flow starting at (x_right, 0)."""
    xl, xr = turning_points(sym, e)
    t_est = _period_estimate(sym, e, xl, xr)

    v_derivs = compiled_derivs2(sym.potential)

    def rhs(t, y):
        _, v1, _ = v_derivs(y[0])
        return (2.0 * y[1], -v1)

    def section(t, y):
        return y[1]

    section.direction = -1  # same orientation as the start point

    t_max = 1.5 * t_est
    for attempt in range(4):
        sol = solve_ivp(rhs, (0.0, t_max), (xr, 0.0), method="DOP853",
                        rtol=rtol, atol=atol, dense_output=True,
                        events=section)
        events = [t for t in sol.t_events[0] if t > 1e-6 * t_est]
        if events:
            break
        t_max *= 3.0
        if t_max > 10.0 * t_est * 3.0:
            raise OrbitError(f"orbit did not close within 10x the period "
                             f"estimate at E = {e}")
    else:
        raise OrbitError(f"orbit did not close at E = {e}")
    period = float(events[0])

    y_end = sol.sol(period)
    closure = float(np.hypot(y_end[0] - xr, y_end[1] - 0.0))
    if closure > CLOSURE_TOL:
        raise OrbitError(f"orbit closure defect {closure:.3e} at E = {e}")

    mask = sol.t <= period
    ts = np.append(sol.t[mask], period)
    states = sol.sol(ts)
    samples = np.column_stack([ts, states[0], states[1]])

    drift = np.max(np.abs(sym.p0_value(states[0], states[1]) - e))
    if drift > ENERGY_DRIFT_TOL * (1.0 + abs(e)):
        raise OrbitError(f"energy drift {drift:.3e} along orbit at E = {e}")

    return Orbit(symbol=sym, e=e, x_left=xl, x_right=xr, period=period,
                 samples=samples, _sol=sol.sol)


def orbit_integral(orb, f, rel_tol=1e-10, n0=64, max_refine=6):
    """\\oint f(x(t), xi(t)) dt over one period.

    ``f`` must accept numpy arrays.  Resolution is doubled until two
    successive trapezoid values agree to rel_tol.
    """
    n = n0
    _, x, xi = orb.sample_uniform(n)
    prev = orb.period * float(np.mean(f(x, xi)))
    for _ in range(max_refine):
        n *= 2
        _, x, xi = orb.sample_uniform(n)
        cur = orb.period * float(np.mean(f(x, xi)))
        if abs(cur - prev) <= rel_tol * (1.0 + abs(cur)):
            return cur
        prev = cur
    raise ConvergenceError("orbit integral did not converge "
                           f"after {max_refine} refinements")


def action_s0(orb, rel_tol=1e-10):
    """S0 = \\oint xi dx, evaluated as \\oint xi * (d_xi p0) dt."""
    return orbit_integral(orb, lambda x, xi: 2.0 * xi * xi, rel_tol=rel_tol)


@lru_cache(maxsize=None)
def _gl_theta(n):
    """(cos theta, sin theta * weight) of n-point Gauss-Legendre on [0, pi]."""
    t, w = np.polynomial.legendre.leggauss(n)
    theta = 0.5 * np.pi * (t + 1.0)
    cos, jac = np.cos(theta), 0.5 * np.pi * w * np.sin(theta)
    cos.flags.writeable = jac.flags.writeable = False
    return cos, jac


QUAD_NODES = 32       # first Gauss-Legendre node count, doubled per refinement
QUAD_REFINEMENTS = 5


def orbit_quadrature(sym, e, fs=(), rel_tol=1e-12):
    """(S0, [\\oint f dt for f in fs]) at energy e, from one quadrature.

    Each ``f(x, xi)`` must accept numpy arrays.  On [x_l, x_r], with
    x = mid - rad cos(theta), S0 = 2 int xi+ rad sin(theta) dtheta and
    \\oint f dt = int (f(x, xi+) + f(x, -xi+)) rad sin(theta) / (2 xi+) dtheta,
    whose integrands are smooth in theta.  The Gauss-Legendre node count
    is doubled from QUAD_NODES until two successive values of every
    integral agree to rel_tol; ConvergenceError after QUAD_REFINEMENTS
    doublings.
    """
    xl, xr = turning_points(sym, e)
    mid, rad = 0.5 * (xl + xr), 0.5 * (xr - xl)

    def integrals(n):
        cos, jac = _gl_theta(n)
        x = mid - rad * cos
        xi = np.sqrt(np.maximum(e - sym.v(x), 0.0))
        # rad sin(theta) / xi+ stays finite at both ends
        dt = rad * jac / (2.0 * np.maximum(xi, 1e-150))
        vals = [2.0 * rad * float(np.sum(xi * jac))]
        vals += [float(np.sum((f(x, xi) + f(x, -xi)) * dt)) for f in fs]
        return np.array(vals)

    n = QUAD_NODES
    prev = integrals(n)
    for _ in range(QUAD_REFINEMENTS):
        n *= 2
        cur = integrals(n)
        if np.all(np.abs(cur - prev) <= rel_tol * (1.0 + np.abs(cur))):
            return float(cur[0]), [float(v) for v in cur[1:]]
        prev = cur
    raise ConvergenceError("orbit quadrature did not converge "
                           f"after {QUAD_REFINEMENTS} refinements at E = {e}")


class FocalFrame:
    """Local data of the Lagrangian curve near a focal point, as functions
    of xi along the branch: x(xi), alpha = d_x p0 and
    psi'' = d_xi p0 / alpha."""

    def __init__(self, sym, e, side="right"):
        if side not in ("right", "left"):
            raise ValueError("side must be 'right' or 'left'")
        self.symbol = sym
        self.e = e
        self.side = side
        xl, xr = turning_points(sym, e)
        self.x_focal = xr if side == "right" else xl
        self.xi_focal = 0.0

    def x_of_xi(self, xi):
        """Solve V(x) = E - xi^2 by Newton's method on the branch through
        the focal point."""
        x = self.x_focal
        target = self.e - xi * xi
        for _ in range(60):
            v, v1, _ = self.symbol.v_derivs(x)
            if v1 == 0:
                raise OrbitError("V' vanished during focal-frame solve")
            dx = (v - target) / v1
            x -= dx
            if abs(dx) < 1e-14 * (1.0 + abs(x)):
                return float(x)
        raise ConvergenceError("focal-frame Newton solve did not converge")

    def jet(self, xi):
        return jet_eval(self.symbol.p0, (self.x_of_xi(xi), xi))

    def alpha(self, xi):
        return self.jet(xi).derivative(1, 0)

    def psi_dd(self, xi):
        j = self.jet(xi)
        return j.derivative(0, 1) / j.derivative(1, 0)
