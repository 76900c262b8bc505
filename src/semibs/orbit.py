"""Orbit integrals over gamma_E for a single-well Hamiltonian p0 = xi^2 + V.

``orbit_quadrature`` is the path the action series and the quantization
condition use.  On gamma_E every closed-orbit integral is an integral over
[x_l, x_r]: with xi+ = sqrt(E - V), S0 = 2 int xi+ dx and

    \\oint f dt = int (f(x, xi+) + f(x, -xi+)) / (2 xi+) dx.

The substitution x = mid - rad cos(theta) removes the square-root end
singularities, and Gauss-Legendre in theta converges spectrally.
``orbit_quadrature`` has one path for a number or an energy array: one
vectorised turning-point solve, ``_turning_points_array``, then one 2-D
(energies x nodes) quadrature with the node count refined per energy.

``turning_points`` solves one energy by Brent's method on [x0, end], x0
from ``symbols.well_minimum`` and end the end of ``symbols.scan_domain``,
memoised on (V, E); both solves take their brackets from the scan domain,
the one outward search.  The wronskian lab and
``FocalFrame`` (x(xi) is the turning point at E - xi^2) ask for one energy
at a time, where this scalar solve pays: 35-70 us against 260-360 us as a
one-element array (2-vCPU Xeon).  The two solves agree to a few ulp: S0
moves by a few ulp, the integrals of 1/xi+ by up to their rounding floor.

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
from scipy.optimize import brentq

from .exprjet import compiled, compiled_derivs2, jet_eval
from .symbols import (HamiltonianSymbol, scan_domain, scan_domain_array,
                      well_minimum, well_minimum_array)


class OrbitError(Exception):
    pass


class ConvergenceError(OrbitError):
    """A quadrature or refinement loop failed to reach its tolerance."""


ENERGY_DRIFT_TOL = 1e-9
CLOSURE_TOL = 1e-8
TURNING_POINT_CACHE_SIZE = 4096   # distinct (V, E) pairs remembered
TP_NEWTON_ITERATIONS = 100   # safeguarded Newton steps of an array solve


def turning_points(sym, e):
    """(x_left, x_right) with V = e, each by root refinement on the bracket
    [x0, end] from the well minimum to the scan domain's end; memoised on
    (V, e)."""
    return _turning_points(sym.potential, float(e))


def _check_bottom(e, bottom):
    """OrbitError unless the well bottom (x0, V(x0)) exists below e."""
    if bottom is None:
        raise OrbitError(f"V does not rise above E = {e} on both sides")
    if not e > bottom[1]:
        raise OrbitError(f"E = {e} is at or below the well bottom "
                         f"V(x0) = {bottom[1]}")


def _check_apart(e, xl, xr):
    """OrbitError unless the turning points xl < xr are apart: roots
    within the root solve's tolerance of each other (a well so steep that
    V = E is resolved only at the bottom) bound no orbit."""
    if not np.all(xl < xr):
        i = int(np.argmin(np.asarray(xr) - np.asarray(xl)))
        raise OrbitError(f"the turning points coincide at E = "
                         f"{np.ravel(e)[i]}: the well is too narrow to "
                         "resolve")


@lru_cache(maxsize=TURNING_POINT_CACHE_SIZE)
def _turning_points(potential, e):
    bottom = well_minimum(potential, e)
    _check_bottom(e, bottom)
    x0 = bottom[0]
    xl = _bracket_root(potential, e, x0, direction=-1)
    xr = _bracket_root(potential, e, x0, direction=+1)
    _check_apart(e, xl, xr)
    return xl, xr


def _bracket_root(potential, e, x0, direction):
    """The root of V = e outward from x0: Brent's method on [x0, end], end
    the scan domain's end on that side, where V(x0) < e < V(end) holds by
    construction; then a Newton polish."""
    v_of, derivs = compiled(potential), compiled_derivs2(potential)
    end = scan_domain(potential, e)[(direction + 1) // 2]
    lo, hi = (end, x0) if direction < 0 else (x0, end)
    x = brentq(lambda t: v_of(t) - e, lo, hi, xtol=1e-15, rtol=8.9e-16)
    # Newton polish using V' for |V - E| <= 1e-12 absolute
    for _ in range(3):
        v, v1, _ = derivs(x)
        if v1 == 0:
            break
        x -= (v - e) / v1
    return float(x)


def _turning_points_array(potential, es):
    """(x_left, x_right) arrays at every energy of the array es: the roots
    ``turning_points`` finds, from one vectorised solve.  Each root is
    bracketed by [x0, end] as in the scalar solve, then refined by Newton
    steps from the outer end that fall back to bisection whenever a step
    leaves the bracket or fails to halve; each element stops once its step
    is within the scalar solve's Brent tolerance.  An element still open
    after TP_NEWTON_ITERATIONS steps is handed to the scalar solver."""
    x0, v0 = well_minimum_array(potential, es)
    bad = ~(es > v0)    # v0 is NaN where V does not rise above E
    if bad.any():
        i = int(np.argmax(bad))
        _check_bottom(float(es[i]),
                      None if np.isnan(x0[i]) else (x0[i], v0[i]))
    lo, hi = scan_domain_array(potential, es)
    derivs = compiled_derivs2(potential)
    # left roots, then right roots, each on [x0, end]: V(x0) < e < V(end)
    e2 = np.concatenate([es, es])
    x_start = np.concatenate([x0, x0])
    sign = np.repeat([-1.0, 1.0], len(es))
    inside, outside = x_start.copy(), np.concatenate([lo, hi])

    x = outside.copy()   # Newton from outside: monotone where V is convex
    last = np.abs(outside - inside)
    todo = np.arange(len(e2))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(TP_NEWTON_ITERATIONS):
            xt, et = x[todo], e2[todo]
            v, v1, _ = derivs(xt)
            above = v > et
            outside[todo] = np.where(above, xt, outside[todo])
            inside[todo] = np.where(above, inside[todo], xt)
            newton = xt - (v - et) / v1
            lo_t = np.minimum(inside[todo], outside[todo])
            hi_t = np.maximum(inside[todo], outside[todo])
            tol = 1e-15 + 8.9e-16 * np.abs(xt)   # Brent's, as in the scalar
            dx = np.abs(newton - xt)
            halve = ~((newton >= lo_t) & (newton <= hi_t)) \
                | ((dx > 0.5 * last[todo]) & (dx > tol))
            nxt = np.where(halve, 0.5 * (lo_t + hi_t), newton)
            nxt = np.where(v == et, xt, nxt)
            done = (v == et) | (~halve & (dx <= tol)) | (hi_t - lo_t <= tol)
            x[todo], last[todo] = nxt, np.abs(nxt - xt)
            todo = todo[~done]
            if not todo.size:
                break
    for i in todo:
        x[i] = _bracket_root(potential, e2[i], x_start[i], int(sign[i]))
    _check_apart(es, x[:len(es)], x[len(es):])
    return x[:len(es)], x[len(es):]


@dataclass
class Orbit:
    """One closed trajectory of the Hamilton field at energy e."""

    symbol: HamiltonianSymbol
    e: float
    x_left: float
    x_right: float
    period: float
    _sol: object  # scipy OdeSolution (dense output)

    def at(self, t):
        """(x, xi) at flow times t (scalar or array), t in [0, period]."""
        y = self._sol(t)
        return y[0], y[1]

    def sample_uniform(self, n):
        t = np.linspace(0.0, self.period, n, endpoint=False)
        x, xi = self.at(t)
        return t, x, xi


def trace_orbit(sym, e, rtol=1e-12, atol=1e-14):
    """Trace one period of the Hamilton flow starting at (x_right, 0).  The
    time budget is sized from ``orbit_quadrature``'s period; the event, the
    closure and the energy drift come from the ODE alone.

    scipy.integrate is imported here, so that only this reference path
    loads it."""
    from scipy.integrate import solve_ivp

    xl, xr = turning_points(sym, e)
    t_est = orbit_quadrature(sym, e, [lambda x, xi: np.ones_like(x)])[1][0]

    v_derivs = compiled_derivs2(sym.potential)

    def rhs(t, y):
        _, v1, _ = v_derivs(y[0])
        return (2.0 * y[1], -v1)

    def section(t, y):
        return y[1]

    section.direction = -1  # same orientation as the start point

    t_max = 1.5 * t_est
    for _ in range(3):   # up to 13.5 periods
        sol = solve_ivp(rhs, (0.0, t_max), (xr, 0.0), method="DOP853",
                        rtol=rtol, atol=atol, dense_output=True,
                        events=section)
        events = [t for t in sol.t_events[0] if t > 1e-6 * t_est]
        if events:
            break
        t_max *= 3.0
    else:
        raise OrbitError(f"orbit did not close within 10x the period "
                         f"estimate at E = {e}")
    period = float(events[0])

    y_end = sol.sol(period)
    closure = float(np.hypot(y_end[0] - xr, y_end[1] - 0.0))
    if closure > CLOSURE_TOL:
        raise OrbitError(f"orbit closure defect {closure:.3e} at E = {e}")

    ts = np.append(sol.t[sol.t <= period], period)
    states = sol.sol(ts)
    drift = np.max(np.abs(sym.p0_value(states[0], states[1]) - e))
    if drift > ENERGY_DRIFT_TOL * (1.0 + abs(e)):
        raise OrbitError(f"energy drift {drift:.3e} along orbit at E = {e}")

    return Orbit(symbol=sym, e=e, x_left=xl, x_right=xr, period=period,
                 _sol=sol.sol)


TRAPEZOID_POINTS = 64       # first uniform sample count of orbit_integral
TRAPEZOID_REFINEMENTS = 6   # its doublings before ConvergenceError


def orbit_integral(orb, f, rel_tol=1e-10):
    """\\oint f(x(t), xi(t)) dt over one period.

    ``f`` must accept numpy arrays.  Resolution is doubled from
    TRAPEZOID_POINTS until two successive trapezoid values agree to
    rel_tol.
    """
    n = TRAPEZOID_POINTS
    _, x, xi = orb.sample_uniform(n)
    prev = orb.period * float(np.mean(f(x, xi)))
    for _ in range(TRAPEZOID_REFINEMENTS):
        n *= 2
        _, x, xi = orb.sample_uniform(n)
        cur = orb.period * float(np.mean(f(x, xi)))
        if abs(cur - prev) <= rel_tol * (1.0 + abs(cur)):
            return cur
        prev = cur
    raise ConvergenceError("orbit integral did not converge "
                           f"after {TRAPEZOID_REFINEMENTS} refinements")


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
QUAD_CHUNK = 256      # energies per pass of an array quadrature
_EPS = np.finfo(float).eps


def orbit_quadrature(sym, e, fs=(), rel_tol=1e-12):
    """(S0, [\\oint f dt for f in fs]) at energy e, from one quadrature.

    ``e`` is a number or a 1-D array of energies, and each value returned a
    float or an array over it.  The energies are integrated in passes of
    QUAD_CHUNK, each one turning-point solve (``_turning_points_array``) and
    one 2-D (energies x nodes) Gauss-Legendre sum.

    Each ``f(x, xi)`` must accept numpy arrays.  On [x_l, x_r], with
    x = mid - rad cos(theta), S0 = 2 int xi+ rad sin(theta) dtheta and
    \\oint f dt = int (f(x, xi+) + f(x, -xi+)) rad sin(theta) / (2 xi+) dtheta,
    whose integrands are smooth in theta.  For each energy the
    Gauss-Legendre node count is doubled from QUAD_NODES until two
    successive values of every integral agree to rel_tol or to within their
    rounding floor; ConvergenceError after QUAD_REFINEMENTS doublings.  The
    floor: next to a turning point E - V(x) is rounded to about
    eps (|E| + |V|), a relative error eps (|E| + |V|) / (2 xi+^2) in xi+ and
    1/xi+; weighted by each node's |term|, it grows as the nodes close in on
    the turning points and, where V' is small there (Morse near
    dissociation), passes 1e-12.
    """
    es = np.atleast_1d(np.asarray(e, dtype=float))
    vals = np.empty((1 + len(fs), len(es)))
    for i in range(0, len(es), QUAD_CHUNK):
        part = es[i:i + QUAD_CHUNK]
        xl, xr = _turning_points_array(sym.potential, part)
        vals[:, i:i + QUAD_CHUNK] = _quadrature(sym, part, xl, xr, fs,
                                                rel_tol)
    if np.ndim(e) == 0:
        return float(vals[0, 0]), [float(v) for v in vals[1:, 0]]
    return vals[0], list(vals[1:])


def _quadrature(sym, es, xl, xr, fs, rel_tol):
    """The integrals of ``orbit_quadrature``, (1 + len(fs), len(es)), at
    the energy array es with turning-point arrays xl, xr: node doubling and
    acceptance per energy."""
    m = len(es)
    # E, mid and rad of the energies still refining, as (m, 1) columns
    e, mid, rad = es[:, None], 0.5 * (xl + xr)[:, None], \
        0.5 * (xr - xl)[:, None]

    def integrals(n):
        """The integrals on n nodes, (1 + len(fs), m), and the (m, n)
        arrays behind them."""
        cos, jac = _gl_theta(n)
        x = mid - rad * cos
        v = sym.v(x)
        xi_sq = e - v
        xi = np.sqrt(np.maximum(xi_sq, 0.0))
        # rad sin(theta) / xi+ stays finite at both ends
        dt = rad * jac / (2.0 * np.maximum(xi, 1e-150))
        terms = [(f(x, xi) + f(x, -xi)) * dt for f in fs]
        xi_jac = xi * jac
        parts = [e, rad, v, xi_sq, xi_jac, *terms]
        return _row_sums([xi_jac, *terms], rad), parts

    def rounding_floor(parts):
        e, rad, v, xi_sq, xi_jac, *terms = parts
        rel_err = np.divide(_EPS * (np.abs(e) + np.abs(v)), 2.0 * xi_sq,
                            out=np.zeros_like(xi_sq), where=xi_sq > 0.0)
        return _row_sums([xi_jac * rel_err, *(np.abs(t) * rel_err
                                              for t in terms)], rad)

    def rows_of(parts, sel):
        return parts if sel.all() else [p[sel] for p in parts]

    vals = np.empty((1 + len(fs), m))
    rows = np.arange(m)   # where the energies still refining sit
    n = QUAD_NODES
    # a potential too large for floats (1e200 x^2) overflows in the
    # integrands: the error below names it instead of numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        prev, prev_parts = integrals(n)
        for _ in range(QUAD_REFINEMENTS):
            n *= 2
            cur, parts = integrals(n)
            diff, tol = np.abs(cur - prev), rel_tol * (1.0 + np.abs(cur))
            done = np.all(diff <= tol, axis=0)
            miss = ~done
            if miss.any():   # the floor only where a doubling misses rel_tol
                floor = tol[:, miss] + rounding_floor(rows_of(parts, miss)) \
                    + rounding_floor(rows_of(prev_parts, miss))
                done[miss] = np.all(diff[:, miss] <= floor, axis=0)
            if done.any():
                vals[:, rows[done]] = cur[:, done]
                if done.all():
                    return vals
                more = ~done
                rows, e, mid, rad = rows[more], e[more], mid[more], rad[more]
                cur, parts = cur[:, more], [p[more] for p in parts]
            prev, prev_parts = cur, parts
    bad = rows[~np.all(np.isfinite(prev), axis=0)]
    if bad.size:
        raise ConvergenceError("orbit quadrature overflowed: its integrals "
                               f"are not finite at E = {es[bad[0]]}")
    raise ConvergenceError("orbit quadrature did not converge "
                           f"after {QUAD_REFINEMENTS} refinements "
                           f"at E = {es[rows[0]]}")


def _row_sums(arrays, rad):
    """(len(arrays), m): each (m, n) array summed over its nodes, the first
    one (of xi+ dtheta) times 2 rad, for S0."""
    sums = np.add.reduce(arrays, axis=-1)
    sums[0] *= 2.0 * rad[:, 0]
    return sums


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
        self.x_focal, self.xi_focal = self.x_of_xi(0.0), 0.0

    def x_of_xi(self, xi):
        """x on the branch through the focal point where V(x) = E - xi^2:
        the turning point on the frame's side at energy E - xi^2."""
        xl, xr = turning_points(self.symbol, self.e - xi * xi)
        return xr if self.side == "right" else xl

    def jet(self, xi):
        return jet_eval(self.symbol.p0, (self.x_of_xi(xi), xi))

    def alpha(self, xi):
        return self.jet(xi).derivative(1, 0)

    def psi_dd(self, xi):
        j = self.jet(xi)
        return j.derivative(0, 1) / j.derivative(1, 0)
