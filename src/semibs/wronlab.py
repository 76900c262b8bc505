"""Grid-level WKB laboratory: branches, cutoff commutators, flux norms.

Builds the oscillatory branch solutions away from the turning points,
applies (i/h)[P, chi] with smooth compactly-supported cutoffs, and checks
the flux normalization, cutoff independence, and the 2x2 Gram matrix of
the two turning-point solutions against the closed form -cos^2(S/h).

One wronskian-check request computes each piece once, through three small
memos keyed on the symbol, the grid and what else the piece depends on:

- the phase record of (V, E, h, grid): the grid check, V on the grid, the
  GL5 cumulative integral of xi_+ = sqrt(E - V) along the grid, and the two
  short offsets from the turning points to the grid ends (Gauss-Legendre
  after y = x_tp + s u^2, the node count doubled until it converges);
- the cutoff profile of (V, chi, grid): chi, chi', chi'' and V on the grid,
  and the check that the transition keeps clear of the grid edges;
- the branch fluxes of (V, E, h, basepoint, chi, order, grid): the two
  branches u_+-, and F_+- = (i/h)[P, chi] u_+-, shared by the flux-norm,
  cutoff-independence and Gram checks.

The exact solutions of the commutator identity check come from the
oracle's Numerov sweep, one banded solve per solution.  Turning points
and min V come from the memoised ``orbit.turning_points`` and
``symbols.well_minimum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exprjet import evaluate, is_zero_expr
from .oracle import _sweep
from .orbit import turning_points
from .symbols import well_minimum


class WronlabError(Exception):
    pass


class GridError(WronlabError):
    """Grid violates the sampling bound or the turning-zone exclusion."""


class CommutatorCheckError(WronlabError):
    """The two commutator evaluations disagree beyond tolerance."""


# ---------------------------------------------------------------------------
# grid functions


@dataclass
class GridFunction:
    x0: float
    dx: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)

    @property
    def n(self):
        return len(self.values)

    @property
    def xs(self):
        return self.x0 + self.dx * np.arange(self.n)

    def inner(self, other):
        """<u|v> = integral of u * conj(v), trapezoid rule."""
        if other.n != self.n or abs(other.dx - self.dx) > 1e-15:
            raise WronlabError("inner product requires matching grids")
        w = self.values * np.conj(other.values)
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        return complex(trapezoid(w, dx=self.dx))

    def norm(self):
        return math.sqrt(self.inner(self).real)

    def __add__(self, other):
        return GridFunction(self.x0, self.dx, self.values + other.values)

    def __sub__(self, other):
        return GridFunction(self.x0, self.dx, self.values - other.values)


# ---------------------------------------------------------------------------
# smooth cutoffs


def _bump(s):
    """exp(1 - 1/(1-s^2)) on (-1, 1), zero outside; all derivatives vanish
    at the endpoints."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    m = np.abs(s) < 1.0
    out[m] = np.exp(1.0 - 1.0 / (1.0 - s[m] ** 2))
    return out


def _bump_d(s):
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    m = np.abs(s) < 1.0
    sm = s[m]
    g = -2.0 * sm / (1.0 - sm ** 2) ** 2
    out[m] = np.exp(1.0 - 1.0 / (1.0 - sm ** 2)) * g
    return out


# Gauss-Legendre 5-point nodes/weights on [-1, 1]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(5)


def _cumulative_integral(f, xs):
    """Cumulative integral of f from xs[0] along the grid, GL5 per cell."""
    a, b = xs[:-1], xs[1:]
    mid, rad = 0.5 * (a + b), 0.5 * (b - a)
    nodes = (mid[:, None] + rad[:, None] * _GL_X[None, :]).ravel()
    vals = f(nodes).reshape(len(a), len(_GL_X))
    cells = rad * (vals @ _GL_W)
    return np.concatenate([[0.0], np.cumsum(cells)])


# cumulative integral of the bump on [-1, 1], 400 cells of GL5 each
_S_EDGES = np.linspace(-1.0, 1.0, 401)
_BUMP_CUM = _cumulative_integral(_bump, _S_EDGES)
_BUMP_TOTAL = float(_BUMP_CUM[-1])


def _bump_cum_at(s):
    """Integral of the bump from -1 to s, vectorized."""
    s = np.clip(np.asarray(s, dtype=float), -1.0, 1.0)
    idx = np.clip(np.searchsorted(_S_EDGES, s) - 1, 0, len(_S_EDGES) - 2)
    a = _S_EDGES[idx]
    mid, rad = 0.5 * (a + s), 0.5 * (s - a)
    nodes = mid[..., None] + rad[..., None] * _GL_X
    partial = rad * (_bump(nodes) @ _GL_W)
    return _BUMP_CUM[idx] + partial


@dataclass(frozen=True)
class CutoffSpec:
    """Symmetric plateau cutoff: 1 on [center-r1, center+r1], 0 outside
    [center-r2, center+r2], with an infinitely-smooth transition built as
    the normalized integral of the standard bump."""

    center: float
    r1: float
    r2: float

    def __post_init__(self):
        if not 0.0 < self.r1 < self.r2:
            raise WronlabError("cutoff requires 0 < r1 < r2")

    def _s(self, x):
        """Map |x - center| onto the bump variable s in [-1, 1]."""
        t = (np.abs(np.asarray(x, dtype=float) - self.center) - self.r1) \
            / (self.r2 - self.r1)
        return 2.0 * t - 1.0

    def value(self, x):
        x = np.asarray(x, dtype=float)
        s = self._s(x)
        out = np.where(s <= -1.0, 1.0, 0.0)
        m = (s > -1.0) & (s < 1.0)
        if np.any(m):
            out = out.astype(float)
            out[m] = 1.0 - _bump_cum_at(s[m]) / _BUMP_TOTAL
        return out if out.ndim else float(out)

    def dvalue(self, x):
        x = np.asarray(x, dtype=float)
        s = self._s(x)
        scale = 2.0 / (self.r2 - self.r1)
        out = -np.sign(x - self.center) * scale * _bump(s) / _BUMP_TOTAL
        return out if out.ndim else float(out)

    def d2value(self, x):
        x = np.asarray(x, dtype=float)
        s = self._s(x)
        scale = (2.0 / (self.r2 - self.r1)) ** 2
        out = -scale * _bump_d(s) / _BUMP_TOTAL
        return out if out.ndim else float(out)

    def derivative_bound(self, k):
        """Upper bound for max |d^k chi / dx^k|, scaling as (r2-r1)^(-k).

        Orders up to 4 use the tabulated profile sup-norms; higher orders
        extrapolate the (rapid) geometric growth of the table.
        """
        if k <= 4:
            c = _PROFILE_SUP[k]
        else:
            growth = _PROFILE_SUP[4] / _PROFILE_SUP[3]
            c = _PROFILE_SUP[4] * growth ** (k - 4)
        return c * (1.0 / (self.r2 - self.r1)) ** k   # inf or 0, no raise


def _profile_sups():
    """Sup norms of the transition profile's derivatives in the unit-width
    variable t (so the x-space bound is C_k / (r2 - r1)^k)."""
    s = np.linspace(-1.0, 1.0, 20001)
    b = _bump(s)
    sups = {0: 1.0}
    d = -2.0 * b / _BUMP_TOTAL  # d chi / dt, t = (s+1)/2
    sups[1] = float(np.max(np.abs(d)))
    for k in range(2, 5):
        d = np.gradient(d, s) * 2.0  # d/dt = 2 d/ds
        sups[k] = float(np.max(np.abs(d)))
    return sups


_PROFILE_SUP = _profile_sups()


# ---------------------------------------------------------------------------
# WKB branches


AIRY_FACTOR = 5.0


def airy_exclusion(sym, e, h):
    """(delta_left, delta_right): keep-out widths at the two turning points."""
    xl, xr = turning_points(sym, e)
    out = []
    for x_tp in (xl, xr):
        _, v1, _ = sym.v_derivs(x_tp)
        if v1 == 0:
            raise WronlabError(f"V' = 0 at the turning point x = {x_tp}: "
                               "no Airy zone scale")
        out.append(AIRY_FACTOR * (h * h) ** (1.0 / 3.0)
                   * abs(float(v1)) ** (-1.0 / 3.0))
    return tuple(out)


MAX_GRID_POINTS = 2 ** 20  # largest grid a request may build (8 MB per array)


def _uniform_grid(a, b, cells):
    """np.linspace(a, b, ceil(cells) + 1), refused with GridError, before
    the ceil and the allocation, when that exceeds ``MAX_GRID_POINTS``
    (cells inf or NaN too)."""
    if not cells <= MAX_GRID_POINTS - 1:
        raise GridError(f"grid of {cells + 1:.2e} points exceeds the limit "
                        f"of {MAX_GRID_POINTS} points")
    return np.linspace(a, b, math.ceil(cells) + 1)


def default_grid(sym, e, h, points_per_oscillation=63):
    """Uniform grid between the turning zones resolving the oscillations.

    The spacing honours both the requested points-per-oscillation and the
    hard sampling bound dx <= h / (10 max|xi|), max|xi| = sqrt(E - min V).
    """
    xl, xr = turning_points(sym, e)
    dl, dr = airy_exclusion(sym, e, h)
    a, b = xl + dl, xr - dr
    if not a < b:
        raise GridError("turning zones overlap: h too large for this window")
    xi_max = math.sqrt(max(e - well_minimum(sym.potential, e)[1], 0.0))
    dx_osc = 2.0 * math.pi * h / (xi_max * points_per_oscillation)
    dx = min(dx_osc, h / (10.0 * xi_max))
    return _uniform_grid(a, b, (b - a) / dx)


def _check_grid(sym, e, h, xs, v):
    """Raise GridError unless xs avoids the turning zones and samples the
    oscillation finely enough; v is V on xs.  Returns (x_l, x_r)."""
    xl, xr = turning_points(sym, e)
    dl, dr = airy_exclusion(sym, e, h)
    if xs[0] < xl + dl - 1e-12 or xs[-1] > xr - dr + 1e-12:
        raise GridError("grid enters the turning-zone exclusion region")
    dx = xs[1] - xs[0]
    xi_max = math.sqrt(max(e - float(np.min(v)), 0.0))
    if dx > h / (10.0 * xi_max) * (1.0 + 1e-12):
        raise GridError(f"dx = {dx:.3e} exceeds the sampling bound "
                        f"{h / (10.0 * xi_max):.3e}")
    return xl, xr


OFFSET_NODES = 8           # first Gauss-Legendre node count of an offset
OFFSET_MAX_NODES = 1024    # node count at which an offset gives up


@lru_cache(maxsize=None)
def _gl_unit(n):
    """n-point Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    t, w = 0.5 * (x + 1.0), 0.5 * w
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _offset_from_turning_point(g, base, x0):
    """int_base^x0 g(y) dy where g may carry a sqrt-type singularity at the
    turning point ``base``; g must accept arrays.

    The substitution y = base + s u^2 makes the integrand smooth in u, so
    Gauss-Legendre in u converges fast: the node count doubles from
    OFFSET_NODES until two successive values agree to 1e-12 relative or
    1e-14 absolute, and WronlabError is raised if they never do."""
    if x0 == base:
        return 0.0
    s = -1.0 if x0 < base else 1.0
    u_max = math.sqrt(abs(x0 - base))
    prev = None
    n = OFFSET_NODES
    while n <= OFFSET_MAX_NODES:
        t, w = _gl_unit(n)
        u = u_max * t
        val = u_max * float(np.dot(w, 2.0 * s * u * g(base + s * u * u)))
        if prev is not None and abs(val - prev) <= max(1e-14,
                                                       1e-12 * abs(val)):
            return val
        prev = val
        n *= 2
    raise WronlabError(
        f"the offset from the turning point {base!r} to {x0!r} did not "
        f"converge on {OFFSET_MAX_NODES} Gauss-Legendre nodes")


PHASE_CACHE_SIZE = 4   # (symbol, E, h, grid) phase records remembered


@dataclass(frozen=True)
class _Phase:
    """The principal phase of one (V, E, h, grid), with xi_+ = sqrt(E - V).

    ``s_cum[i]`` is int_{xs[0]}^{xs[i]} xi_+ dy; ``left`` and ``right`` are
    the short pieces int_{x_l}^{xs[0]} xi_+ dy and int_{xs[-1]}^{x_r}
    xi_+ dy between the grid ends and the turning points.
    """

    xl: float
    xr: float
    v: np.ndarray
    s_cum: np.ndarray
    left: float
    right: float

    def s0(self, basepoint):
        """int_base^x xi_+ dy on the grid, from x_r ('a') or x_l ("a'")."""
        if basepoint == "a":
            return self.s_cum - self.s_cum[-1] - self.right
        return self.left + self.s_cum

    @property
    def s_half(self):
        """S(a', a) = int_{x_l}^{x_r} xi_+ dy."""
        return self.left + float(self.s_cum[-1]) + self.right


def _phase(sym, e, h, xs):
    """The phase record of (V, E, h, xs), checking the grid on first use.

    Memoised on the symbol, E, h and the grid's bytes, so the branches and
    checks of one request share one record; a hit returns what rebuilding
    would, and the record's arrays are read-only.
    """
    return _phase_record(sym, float(e), float(h), xs.tobytes())


@lru_cache(maxsize=PHASE_CACHE_SIZE)
def _phase_record(sym, e, h, grid):
    xs = np.frombuffer(grid, dtype=float)
    v = np.asarray(sym.v(xs) + 0.0 * xs, dtype=float)
    xl, xr = _check_grid(sym, e, h, xs, v)

    def xi_of(y):
        return np.sqrt(np.maximum(e - sym.v(y), 0.0))

    s_cum = _cumulative_integral(xi_of, xs)
    v.flags.writeable = s_cum.flags.writeable = False
    return _Phase(xl=xl, xr=xr, v=v, s_cum=s_cum,
                  left=_offset_from_turning_point(xi_of, xl, float(xs[0])),
                  right=-_offset_from_turning_point(xi_of, xr,
                                                    float(xs[-1])))


def build_wkb(sym, e, h, basepoint="a", rho=+1, order=0, xs=None):
    """One oscillatory branch of the two-sided solution near a turning point.

    Returns samples of (1/2) c_rho (E-V)^(-1/4) exp(i S_rho / h) where the
    phase S_rho is measured from the turning point named by ``basepoint``
    ('a' = right, "a'" = left) and c_rho carries the e^{+-i pi/4} factors.
    At order >= 1 the phase includes -h * int p1 / (2 xi_rho).

    The principal phase comes from the memoised phase record of
    (V, E, h, xs): one GL5 cumulative integral of xi_+ along the grid plus
    the short offsets from the turning points to the grid ends, so both
    branches at both basepoints share one integral.
    """
    if basepoint not in ("a", "a'"):
        raise WronlabError("basepoint must be 'a' or \"a'\"")
    if rho not in (+1, -1):
        raise WronlabError("rho must be +1 or -1")
    if xs is None:
        xs = default_grid(sym, e, h)
    xs = np.asarray(xs, dtype=float)
    ph = _phase(sym, e, h, xs)

    phase = rho * ph.s0(basepoint)
    if order >= 1 and not is_zero_expr(sym.p1):
        base = ph.xr if basepoint == "a" else ph.xl

        def q(y):
            y = np.atleast_1d(np.asarray(y, dtype=float))
            xi = rho * np.sqrt(np.maximum(e - sym.v(y), 1e-300))
            return evaluate(sym.p1, y, xi) / (2.0 * xi) + 0.0 * y

        q_cum = _cumulative_integral(q, xs)
        off1 = _offset_from_turning_point(q, base, float(xs[0]))
        phase = phase - h * (off1 + q_cum)

    sigma = 1.0 if basepoint == "a" else -1.0
    pref = np.exp(1j * rho * sigma * math.pi / 4.0)
    amp = 0.5 * np.power(np.maximum(e - ph.v, 1e-300), -0.25)
    values = pref * amp * np.exp(1j * phase / h)
    return GridFunction(x0=float(xs[0]), dx=float(xs[1] - xs[0]),
                        values=values)


def build_wkb_pair(sym, e, h, basepoint="a", order=0, xs=None):
    """(u_+, u_-) branches on a shared grid."""
    if xs is None:
        xs = default_grid(sym, e, h)
    up = build_wkb(sym, e, h, basepoint, +1, order, xs)
    um = build_wkb(sym, e, h, basepoint, -1, order, xs)
    return up, um


# ---------------------------------------------------------------------------
# finite differences and the commutator


def _fd1(y, dx):
    """4th-order first derivative with one-sided stencils at the edges."""
    d = np.empty_like(y)
    d[2:-2] = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * dx)
    c = np.array([-25, 48, -36, 16, -3], dtype=float) / (12 * dx)
    for i in (0, 1):
        d[i] = np.dot(c, y[i:i + 5])
        d[-1 - i] = -np.dot(c, y[-1 - i: -6 - i if i < 5 else None: -1])
    return d


def _fd2(y, dx):
    """4th-order second derivative with one-sided stencils at the edges."""
    d = np.empty_like(y)
    d[2:-2] = (-y[:-4] + 16 * y[1:-3] - 30 * y[2:-2]
               + 16 * y[3:-1] - y[4:]) / (12 * dx * dx)
    c = np.array([45, -154, 214, -156, 61, -10], dtype=float) / (12 * dx * dx)
    for i in (0, 1):
        d[i] = np.dot(c, y[i:i + 6])
        d[-1 - i] = np.dot(c, y[-1 - i: -7 - i if i < 6 else None: -1])
    return d


CHECK_FLOOR = 1e-8
CHECK_FD_CONST = 20.0


PROFILE_CACHE_SIZE = 4   # (symbol, cutoff, grid) profiles remembered


@dataclass(frozen=True)
class _Profile:
    """chi, chi', chi'' and V on one grid; the arrays are read-only."""

    chi: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    v: np.ndarray


@lru_cache(maxsize=PROFILE_CACHE_SIZE)
def _cutoff_profile(sym, chi, x0, dx, n):
    """The profile of chi and V on the grid x0 + dx * arange(n), refused
    with GridError when chi's transition comes within 8 points of an edge.

    Memoised on the symbol, the cutoff and the grid, so the commutators of
    one request evaluate each cutoff once; the four cutoffs of a
    wronskian-check request fit."""
    xs = x0 + dx * np.arange(n)
    d1 = chi.dvalue(xs)
    active = np.nonzero(np.abs(d1) > 0)[0]
    if len(active) and (active[0] < 8 or active[-1] > n - 9):
        raise GridError("cutoff transition too close to the grid edge "
                        "(need >= 8 points of margin)")
    prof = _Profile(chi=chi.value(xs), d1=d1, d2=chi.d2value(xs),
                    v=np.asarray(sym.v(xs) + 0.0 * xs, dtype=float))
    for a in (prof.chi, prof.d1, prof.d2, prof.v):
        a.flags.writeable = False
    return prof


def apply_commutator(sym, h, chi, u, check_tol=None):
    """(i/h) [P, chi] u with P = -h^2 d^2/dx^2 + V.

    The defining route P(chi u) - chi (P u) uses 4th-order centered
    differences; it is cross-checked against the analytic-cutoff route
    (-h^2)(chi'' u + 2 chi' u') and a CommutatorCheckError is raised if
    the two disagree beyond ``check_tol`` (default: 1e-8 * ||u|| plus the
    expected 4th-order finite-difference error for the sampled phase).
    chi, its derivatives and V on the grid come from the memoised
    ``_cutoff_profile``.
    """
    dx = u.dx
    prof = _cutoff_profile(sym, chi, u.x0, dx, u.n)
    cv, v = prof.chi, prof.v
    y = u.values

    def apply_p(f):
        return -h * h * _fd2(f, dx) + v * f

    du = _fd1(y, dx)
    route_a = (1j / h) * (apply_p(cv * y) - cv * apply_p(y))
    route_b = (1j / h) * (-h * h) * (prof.d2 * y + 2.0 * prof.d1 * du)

    norm_u = math.sqrt(float(np.sum(np.abs(y) ** 2)) * dx)
    diff = math.sqrt(float(np.sum(np.abs(route_a - route_b) ** 2)) * dx)
    if check_tol is None:
        # Expected route disagreement: both routes differ by 4th-order
        # finite-difference remainders h dx^4 [(1/90)(chi u)^(6)-terms
        # minus the split evaluation]; the pure-oscillation k=1 terms
        # cancel, leaving cutoff-derivative terms C(6,k) chi^(k) u^(6-k).
        kappa = float(np.max(np.abs(du))) / max(float(np.max(np.abs(y))),
                                                1e-300)
        binom = (6.0, 15.0, 20.0, 15.0, 6.0, 1.0)
        series = sum(binom[k - 1] / 90.0 * chi.derivative_bound(k)
                     * kappa ** (6 - k) for k in range(1, 7))
        series += chi.derivative_bound(1) * kappa ** 5 / 15.0
        check_tol = max(CHECK_FLOOR, CHECK_FD_CONST * h * dx ** 4 * series)
    if diff > check_tol * max(norm_u, 1e-300):
        raise CommutatorCheckError(
            f"commutator routes disagree: {diff:.3e} > "
            f"{check_tol:.3e} * ||u||")
    return GridFunction(u.x0, u.dx, route_a)


# the exact solutions of the identity check: (y, y') at the grid's start
IDENTITY_DATA = ((1.0, 0.0), (0.3, 1.1))


def _exact_solutions(sym, e, h, xs):
    """The two solutions of (P - E) y = 0 on xs with the initial data
    IDENTITY_DATA at xs[0], each one Numerov sweep (the oracle's banded
    solve) with f = 1 - dx^2 (V - E) / (12 h^2).

    The second value of each comes from the Taylor series of
    y'' = q y, q = (V - E) / h^2, through dx^4 at xs[0].  A sweep that
    does not stay finite raises WronlabError."""
    dx = float(xs[1] - xs[0])
    v = np.asarray(sym.v(xs) + 0.0 * xs, dtype=float)
    f = 1.0 - dx * dx * (v - e) / (12.0 * h * h)
    v0, v1, v2 = (float(d) for d in sym.v_derivs(float(xs[0])))
    q0, q1, q2 = (v0 - e) / (h * h), v1 / (h * h), v2 / (h * h)
    out = []
    for y0, d1 in IDENTITY_DATA:
        d2 = q0 * y0
        d3 = q1 * y0 + q0 * d1
        d4 = q2 * y0 + 2.0 * q1 * d1 + q0 * d2
        y1 = y0 + dx * (d1 + dx * (d2 / 2.0 + dx * (d3 / 6.0
                                                     + dx * d4 / 24.0)))
        y = np.concatenate([[y0], _sweep(f, y0, y1)])
        if not np.all(np.isfinite(y)):
            raise WronlabError("the Numerov sweep of the identity check "
                               "did not stay finite")
        out.append(y)
    return out


def commutator_wronskian_identity(sym, e, h, chi, xs):
    """Exact-solution pairing identity for the cutoff commutator.

    Solves (P - E)u = 0 and (P - E)v = 0 on the grid by Numerov
    (``_exact_solutions``), and returns (lhs, rhs) with
    lhs = <(i/h)[P,chi]u | v> and
    rhs = -i h (u' conj(v) - u conj(v)') (chi(right) - chi(left)), which
    agree exactly up to discretization; the Wronskian is the constant of
    the initial data.
    """
    xs = np.asarray(xs, dtype=float)
    u_vals, v_vals = _exact_solutions(sym, e, h, xs)

    u = GridFunction(float(xs[0]), float(xs[1] - xs[0]),
                     u_vals.astype(complex))
    comm = apply_commutator(sym, h, chi, u, check_tol=np.inf)
    v = GridFunction(u.x0, u.dx, v_vals.astype(complex))
    lhs = comm.inner(v)

    (u0, du0), (v0, dv0) = IDENTITY_DATA
    wr = du0 * v0 - u0 * dv0  # constant in x
    dchi = float(chi.value(xs[-1]) - chi.value(xs[0]))
    rhs = -1j * h * wr * dchi
    return lhs, rhs


# ---------------------------------------------------------------------------
# checks


@dataclass
class FluxReport:
    basepoint: str
    w: complex
    expected: float
    residual: float               # |W - expected|
    mixed_pm: complex             # <u_+ | F_->
    mixed_mp: complex             # <u_- | F_+>
    norm_sq: float
    corrected_residual: float | None = None  # after the order-h correction


FLUX_CACHE_SIZE = 3   # the (basepoint, cutoff) pairs of one request


def _branch_fluxes(sym, e, h, basepoint, chi, order, xs):
    """(u_+, u_-, F_+, F_-) with F = (i/h)[P, chi] u, on the grid xs.

    Memoised on the symbol, E, h, basepoint, cutoff, order and the grid's
    bytes, so the checks of one request share them; a hit returns what
    rebuilding would, and the records' arrays are read-only.  A record
    holds four complex arrays of the grid's size."""
    return _flux_record(sym, float(e), float(h), basepoint, chi, order,
                        np.asarray(xs, dtype=float).tobytes())


@lru_cache(maxsize=FLUX_CACHE_SIZE)
def _flux_record(sym, e, h, basepoint, chi, order, grid):
    xs = np.frombuffer(grid, dtype=float)
    up, um = build_wkb_pair(sym, e, h, basepoint, order, xs)
    fp = apply_commutator(sym, h, chi, up)
    fm = apply_commutator(sym, h, chi, um)
    for gf in (up, um, fp, fm):
        gf.values.flags.writeable = False
    return up, um, fp, fm


TRANSITION_POINTS = 64    # grid points across a cutoff's transition


def _resolve_transitions(xs, cutoffs):
    """Refine a grid (keeping its endpoints) until every cutoff transition
    is sampled by at least ``TRANSITION_POINTS`` points."""
    width = min(c.r2 - c.r1 for c in cutoffs)
    dx_needed = width / TRANSITION_POINTS
    if xs[1] - xs[0] > dx_needed:
        # a spacing below the least float needs more points than any cap
        cells = float(xs[-1] - xs[0]) / dx_needed if dx_needed else math.inf
        return _uniform_grid(xs[0], xs[-1], cells)
    return xs


def flux_norm_check(sym, e, h, basepoint="a", chi=None, order=0, xs=None):
    """Flux-normalization report: W = <u | F_+ - F_-> against +-1."""
    if chi is None:
        chi = default_cutoff(sym, e, h, basepoint)
    if xs is None:
        xs = _resolve_transitions(default_grid(sym, e, h), [chi])
    xs = np.asarray(xs, dtype=float)
    up, um, fp, fm = _branch_fluxes(sym, e, h, basepoint, chi, order, xs)
    u = up + um
    w = u.inner(fp - fm)
    expected = 1.0 if basepoint == "a" else -1.0
    report = FluxReport(
        basepoint=basepoint, w=w, expected=expected,
        residual=abs(w - expected),
        mixed_pm=up.inner(fm), mixed_mp=um.inner(fp),
        norm_sq=u.inner(u).real)
    if order >= 1 and not is_zero_expr(sym.p1):
        from .actions import d1_brackets
        from .orbit import FocalFrame
        side = "right" if basepoint == "a" else "left"
        frame = FocalFrame(sym, e, side)
        re_part, _ = d1_brackets(sym, frame, frame.xi_focal)
        # the phase-only branch misses the amplitude constant C1, whose
        # normalization gives W = expected (1 - 2 h re_part) + O(h^2)
        w_pred = expected * (1.0 - 2.0 * h * re_part)
        report.corrected_residual = abs(w - w_pred)
    return report


def default_cutoff(sym, e, h, basepoint="a", lo_frac=0.2, hi_frac=0.5):
    """Plateau cutoff centered on the requested turning point; only the
    transition facing the well interior intersects any admissible grid.

    The transition is placed at fractions (lo_frac, hi_frac) of the
    admissible grid span, measured from the edge opposite the basepoint.
    """
    xl, xr = turning_points(sym, e)
    dl, dr = airy_exclusion(sym, e, h)
    ga, gb = xl + dl, xr - dr
    span = gb - ga
    if basepoint == "a":
        center = xr
        lo = ga + lo_frac * span   # chi rises from 0 here ...
        hi = ga + hi_frac * span   # ... to 1 here
        return CutoffSpec(center=center, r1=center - hi, r2=center - lo)
    center = xl
    lo = gb - lo_frac * span       # chi reaches 0 here
    hi = gb - hi_frac * span       # chi leaves 1 here
    return CutoffSpec(center=center, r1=hi - center, r2=lo - center)


# calibrated on the harmonic well (see tests): |W(chi1) - W(chi2)| stays
# below CHI_INDEP_C * h^2 * (1 + ||u||^2) across admissible cutoff pairs
CHI_INDEP_C = 10.0


@dataclass
class ChiIndependenceReport:
    w1: complex
    w2: complex
    difference: float
    bound: float
    passed: bool
    sum_identity: complex  # <(i/h)[P,chi](u) | u>, expected ~ 0
    norm_sq: float


def chi_independence_check(sym, e, h, basepoint="a", chi_1=None, chi_2=None,
                           order=0, xs=None):
    """Compare the flux norm computed with two admissible cutoffs."""
    if chi_1 is None:
        chi_1 = default_cutoff(sym, e, h, basepoint)
    if chi_2 is None:
        chi_2 = default_cutoff(sym, e, h, basepoint, lo_frac=0.1,
                               hi_frac=0.65)
    if xs is None:
        xs = _resolve_transitions(default_grid(sym, e, h), [chi_1, chi_2])
    xs = np.asarray(xs, dtype=float)
    up, um, _, _ = _branch_fluxes(sym, e, h, basepoint, chi_1, order, xs)
    u = up + um

    def w_of(chi):
        _, _, fp, fm = _branch_fluxes(sym, e, h, basepoint, chi, order, xs)
        return u.inner(fp - fm)

    w1, w2 = w_of(chi_1), w_of(chi_2)
    norm_sq = u.inner(u).real
    diff = abs(w1 - w2)
    bound = max(1e-6, CHI_INDEP_C * h * h) * (1.0 + norm_sq)
    comm_full = apply_commutator(sym, h, chi_1, u)
    return ChiIndependenceReport(
        w1=w1, w2=w2, difference=diff, bound=bound, passed=diff <= bound,
        sum_identity=comm_full.inner(u), norm_sq=norm_sq)


@dataclass
class GramReport:
    matrix: np.ndarray
    det: complex
    analytic_det: float
    s_half: float  # S(a', a) = int_{a'}^{a} xi_+ dy
    off_diag_expected: float  # -sin(S(a',a)/h)


def gram_numeric(sym, e, h, order=0, xs=None, chi_a=None, chi_ap=None):
    """Numerical 2x2 Gram matrix of the two turning-point solutions, with
    the cutoffs chi_a at a and chi_ap at a' (default ones when None)."""
    if chi_a is None:
        chi_a = default_cutoff(sym, e, h, "a")
    if chi_ap is None:
        chi_ap = default_cutoff(sym, e, h, "a'")
    if xs is None:
        xs = _resolve_transitions(default_grid(sym, e, h), [chi_a, chi_ap])
    xs = np.asarray(xs, dtype=float)

    u1p, u1m, f1p, f1m = _branch_fluxes(sym, e, h, "a", chi_a, order, xs)
    u2p, u2m, f2p, f2m = _branch_fluxes(sym, e, h, "a'", chi_ap, order, xs)
    u1, u2 = u1p + u1m, u2p + u2m
    fa, fap = f1p - f1m, f2p - f2m

    g = np.array([[u1.inner(fa), u2.inner(fa)],
                  [u1.inner(fap), u2.inner(fap)]])
    det = complex(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0])

    s_half = _phase(sym, e, h, xs).s_half
    return GramReport(matrix=g, det=det,
                      analytic_det=-math.cos(s_half / h) ** 2,
                      s_half=s_half,
                      off_diag_expected=-math.sin(s_half / h))


def dump_csv(gf, stream):
    """Write a grid function as CSV rows x,Re,Im (shortest round-trip)."""
    stream.write("x,re_u,im_u\n")
    for x, val in zip(gf.xs, gf.values):
        stream.write(f"{float(x)!r},{float(val.real)!r},{float(val.imag)!r}\n")
