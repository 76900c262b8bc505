"""References the tests hold ``semibs`` to that no request of the program
reads: the focal frame and the pointwise focal-arc densities t1 and d1,
the Gamma integral over an ODE-traced orbit, the cutoff commutator on the
whole grid, and a CSV dump of a grid function.

The focal-arc densities are pointwise only: a full-orbit quadrature of
them is never attempted (they are singular at the well bottom).
"""

import math

import numpy as np

from semibs.exprjet import evaluate, jet_eval
from semibs.orbit import orbit_integral, turning_points
from semibs.wronlab import GridFunction, _fd2


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


class FocalEvaluationError(Exception):
    """t1/d1 evaluated where alpha = d_x p0 is too small."""


ALPHA_TOL = 1e-6


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


def _gamma_on_samples(sym, x, xi):
    """Gamma at (x, xi) for p0 = xi^2 + V: 4 xi^2 V'' + 2 V'^2."""
    _, v1, v2 = sym.v_derivs(x)
    return 4.0 * xi * xi * v2 + 2.0 * v1 * v1


def gamma_integral(sym, orb, rel_tol=1e-12):
    """\\oint Gamma dt over an ODE-traced orbit (``orbit.trace_orbit``)."""
    return orbit_integral(orb, lambda x, xi: _gamma_on_samples(sym, x, xi),
                          rel_tol=rel_tol)


def commutator_full(sym, h, chi, u):
    """(i/h)[P, chi] u by the defining route P(chi u) - chi (P u), with
    P = -h^2 d^2/dx^2 + V, evaluated at every point of u's grid: the body
    ``wronlab.apply_commutator`` had before it kept to the transition
    window, without the route cross-check."""
    xs = u.x0 + u.dx * np.arange(u.n)
    cv = chi.value(xs)
    v = np.asarray(sym.v(xs) + 0.0 * xs, dtype=float)
    y = u.values

    def apply_p(f):
        return -h * h * _fd2(f, u.dx) + v * f

    route_a = (1j / h) * (apply_p(cv * y) - cv * apply_p(y))
    return GridFunction(u.x0, u.dx, route_a)


def dump_csv(gf, stream):
    """Write a grid function as CSV rows x,Re,Im (shortest round-trip)."""
    stream.write("x,re_u,im_u\n")
    for x, val in zip(gf.xs, gf.values):
        stream.write(f"{float(x)!r},{float(val.real)!r},{float(val.imag)!r}\n")
