"""Independent eigenvalue oracle: Numerov shooting with node counting.

Solves -h^2 y'' + V y = E y on a Dirichlet-truncated interval.  Every
level is a root of the Numerov matching defect at the well minimum, found
by Cooley's Newton corrector (J. W. Cooley, Math. Comp. 15 (1961) 363):
each shot gives the defect and its Newton step from the same two sweeps,
and a step that leaves the bracket is replaced by bisection.  A root
stands only when node counts on either side of it confirm the level; a
level with no confirmed root is an OracleError.  Levels are solved in
node-count order, which is energy order, so the solves stop at the first
refined level above the window: no later level can refine into it.  A
window in which the base grid counts more than MAX_LEVELS levels is
refused before any level is solved.  On the base grid Newton starts
inside a Sturm bracket: the energy range is bisected on the node count
until the bracket holds that level and no other, and the counts taken are
shared by all the levels of the request.  Grid resolution is doubled
(with one Richardson step) until two grids agree; on a doubled grid
Newton starts from the previous grid's level, inside twice that grid's
error bound, with no count taken first, and falls back to a Sturm bracket
only when the root's own counts refuse it.  Each grid, and V on it, is
built once per request.

The Dirichlet interval is built outward from the well minimum that
``symbols.well_minimum`` finds; nothing here comes from ``orbit`` or
``quantize``.  The base grid resolves the top level's wavenumber k to
k dx <= KDX_MAX, however long the interval; an interval that needs more
than MAX_BASE_N points for that is refused before any sweep.  A node count
is exact only where f = 1 + dx^2 (E - V) / (12 h^2) stays positive, so
walls deep in the forbidden region are moved in, or the base grid refined,
until it does.
Each Numerov sweep is a banded triangular solve in BLAS; where one passes
1e200, the sweep resumes from its last two values scaled by 1e-200, so
the match values of a shot may be near 1e200, and each shot is scaled to
unit length before they are multiplied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtbsv

from .symbols import well_minimum

# The sweeps run in BLAS through scipy, not in numba.  Kept because the
# benchmark reports the backend from this flag.
_HAVE_NUMBA = False


class OracleError(Exception):
    pass


class ConfinementError(OracleError):
    """No Dirichlet interval confines the window: V never rises above e_max
    on one side, or falls back below it behind a barrier lower than the
    padded target."""


BASE_N = 2000              # least points of the base grid
KDX_MAX = 0.5              # largest k dx on the base grid, k at the top level
MAX_LEVELS = 200           # levels per window at most; more are refused
GRID_AGREE_TOL = 1e-9      # relative agreement of two successive grids
MAX_GRID_DOUBLINGS = 4
F_MIN = 0.5                # least f = 1 + dx^2 (E - V) / (12 h^2) counted on
TAIL_MIN = 30.0            # WKB tail exponent kept beyond a moved wall
MAX_BASE_N = 16 * BASE_N   # points of the base grid at most
MAX_NEWTON_STEPS = 100     # shots per root solve at most


@dataclass
class OracleConfig:
    halfwidth_factor: float = 2.0
    shoot_tol: float = 1e-12


def _sweep(f, y0=0.0, y1=1e-10):
    """Numerov sweep y_1 .. y_{m} from the starting pair (y_0, y_1), for
    f = 1 + k of length m + 1, as one banded forward substitution (BLAS
    dtbsv).  The oracle's shots start from the Dirichlet pair (0, 1e-10).

    The recurrence f_{i+1} y_{i+1} - (12 - 10 f_i) y_i + f_{i-1} y_{i-1} = 0
    is a lower-triangular system of bandwidth 2 in y_1 .. y_m; row 0 pins
    y_1, and y_0 enters the right-hand side of row 1.  Nothing rescales the
    run, so a value may overflow: `_dirichlet_sweep` resumes it there, and
    any other caller checks that the result is finite.
    """
    m = f.size - 1
    ab = np.empty((3, m), order="F")   # lower band storage, by column
    ab[0, 0] = 1.0
    ab[0, 1:] = f[2:]
    ab[1] = 10.0 * f[1:] - 12.0
    ab[2] = f[1:]
    y = np.zeros(m)
    y[0] = y1
    if y0 and m > 1:
        y[1] = -f[0] * y0
    return dtbsv(2, ab, y, lower=1)


def _wronskian(yl, yl_next, yr, yr_next):
    """(D, c, norm_l, norm_r): the Wronskian D of the two shots, each
    scaled to unit length before any product, so that match values up to
    1e200 cannot overflow it; the sign c of their inner product; and the
    two lengths.  D is 1e300 where a shot is zero there."""
    norm_l, norm_r = math.hypot(yl, yl_next), math.hypot(yr, yr_next)
    if norm_l == 0.0 or norm_r == 0.0:
        return 1e300, 1.0, norm_l, norm_r
    yl, yl_next = yl / norm_l, yl_next / norm_l
    yr, yr_next = yr / norm_r, yr_next / norm_r
    c = 1.0 if yl * yr + yl_next * yr_next >= 0.0 else -1.0
    return yl * yr_next - yl_next * yr, c, norm_l, norm_r


def _dirichlet_sweep(f):
    """`_sweep` from the Dirichlet pair (0, 1e-10), resumed where it
    overflows; returns y_1 .. y_m and the index in it where the last run
    starts.

    A run whose last value passes 1e200 is cut where it first passed 1e200,
    and the next run starts from the value before that point and the
    value past it, each times 1e-200; both belong to the next run, so the
    values of one run share one scale.  Signs survive the rescaling, so
    node counts stay exact.  The last run holds at least the last two
    values, so the Wronskian of unit-scaled shots is unchanged.  A run that
    ends at or below 1e200 is finite throughout, since a value that
    overflows stays non-finite.
    """
    runs, start, y0, y1 = [], 0, 0.0, 1e-10
    while True:
        y = _sweep(f[start:], y0, y1)       # y_{start+1} .. y_m
        first = start + 1                   # the index of y[0]
        if runs:                            # y_start .. y_m
            y, first = np.concatenate(([y0], y)), start
        past = [] if abs(y[-1]) <= 1e200 else \
            np.flatnonzero(np.abs(y[:-1]) > 1e200)
        # a value that jumps past 1e200 to inf cannot be resumed
        if len(past) == 0 or not np.isfinite(y[past[0]]):
            if not runs:
                return y, 0
            return np.concatenate(runs + [y]), first - 1
        j = int(past[0])    # >= 1: every run starts far below 1e200
        runs.append(y[:j - 1])
        y0, y1 = y[j - 1] * 1e-200, y[j] * 1e-200
        start = first + j - 1


def _shoot(k, i_match, pref):
    """Two-sided Numerov propagation; returns the matching defect D and
    Cooley's Newton step -D / D' on E.

    k[i] = pref (E - V(x_i)) with pref = dx^2 / (12 h^2).  Dirichlet at
    both ends.  The defect is the Wronskian of the left and right shots
    over the points i_match, i_match + 1, each shot scaled to unit length
    there.  It is zero exactly at an eigenvalue and continuous in E:
    unlike a jump of the log-derivative it has no pole where a shot has a
    node at the match point (odd levels of a symmetric well on an
    odd-sized grid).  The match point, V's minimum, lies inside:
    1 <= i_match <= n - 3.

    The step is Cooley's corrector, from the same two sweeps.  The
    recurrence keeps the Wronskian of z = f y fixed along a sweep, and its
    E-derivative at the match pair is (dx^2 / h^2) times the sum of y^2
    over the points the shot covers before it; the defect is that
    Wronskian over f_m f_{m+1} and the two match norms, m = i_match.
    Where the unit-scaled shots meet as y_R = c y_L, c = +-1, at a level,
    this gives D' = (dx^2 / h^2) (c sum y_L^2 + sum y_R^2 / c) /
    (f_m f_{m+1}), with c taken as the sign of y_L . y_R at the match
    pair.  Each sum runs over the last run of its sweep, whose values share
    the scale of the match pair, and each value is divided by the match
    norm before it is squared, so that the sum cannot overflow.  The step
    is NaN where the shots give no finite, nonzero D'.
    """
    f = 1.0 + np.asarray(k, dtype=float)
    left, il = _dirichlet_sweep(f[:i_match + 2])      # y_1 .. y_{i_match+1}
    right, ir = _dirichlet_sweep(f[i_match:][::-1])   # y_{n-2} .. y_{i_match}
    yl, yl_next = float(left[-2]), float(left[-1])
    yr, yr_next = float(right[-1]), float(right[-2])
    d, c, norm_l, norm_r = _wronskian(yl, yl_next, yr, yr_next)
    if norm_l == 0.0 or norm_r == 0.0:
        return d, math.nan
    ul, ur = left[il:-1] / norm_l, right[ir:-1] / norm_r
    slope = 12.0 * pref * c * (float(ul @ ul) + float(ur @ ur)) \
        / (f[i_match] * f[i_match + 1])
    if not (math.isfinite(slope) and slope != 0.0):
        return d, math.nan
    return d, -d / slope


def _count_nodes(k):
    """Sign changes of the full left-to-right Numerov sweep.

    By Sturm oscillation this equals the number of Dirichlet eigenvalues
    strictly below E, which makes it an exact bracketing count.  A change
    is strict: a zero neither counts nor carries a sign.
    """
    y, _ = _dirichlet_sweep(1.0 + np.asarray(k, dtype=float))  # y_1 .. y_{n-1}
    pos, neg = y > 0.0, y < 0.0
    return int(np.count_nonzero(pos[:-1] & neg[1:])
               + np.count_nonzero(neg[:-1] & pos[1:]))


def _domain(sym, h, window, cfg):
    """Dirichlet interval: extend past the E_max turning points until
    V >= E_max + pad, then scale out by halfwidth_factor.

    A wall never passes a barrier: V between the point that confines the
    window and the wall stays at or above the confining level.  When V
    rises above E_max and falls back below it before reaching E_max + pad,
    the window is not confined and ConfinementError is raised."""
    bottom = well_minimum(sym.potential, window.e_max)
    if bottom is None:
        raise ConfinementError(
            "cannot confine the window: V never exceeds e_max")
    x0 = bottom[0]
    _, _, v2 = sym.v_derivs(x0)
    pad = 10.0 * h * np.sqrt(max(float(v2), 0.0))
    target = float(window.e_max + pad)
    f = cfg.halfwidth_factor

    def inside(x_conf, wall, level):
        # the wall stops before V first falls below level past x_conf
        xs = np.linspace(x_conf, wall, 1001)
        below = np.flatnonzero(np.asarray(sym.v(xs) + 0.0 * xs) < level)
        return wall if below.size == 0 else float(xs[max(below[0] - 1, 0)])

    def extend(direction):
        step = 0.25
        x = x0 + direction * step
        x_conf = None  # first point with V >= e_max (no padding)
        for _ in range(400):
            vx = sym.v(x)
            if x_conf is None and vx >= window.e_max:
                x_conf = x
            elif x_conf is not None and vx < window.e_max:
                raise ConfinementError(
                    f"cannot confine the window: V falls back below e_max at"
                    f" x = {x!r} before reaching e_max + pad = {target!r}")
            if vx >= target:
                return inside(x, x0 + f * (x - x0), target)
            x += direction * step
            step *= 1.2
        if x_conf is not None:
            # padded target unreachable (V has a finite asymptote); push the
            # wall three confinement widths out so tunneling stays negligible
            wall = x0 + 3.0 * (x_conf - x0)
            return inside(x_conf, x0 + f * (wall - x0), window.e_max)
        raise ConfinementError(
            "cannot confine the window: V never exceeds e_max")

    return extend(-1), extend(+1)


def _defect_root(shot, lo, hi, e, sign, tol):
    """Root of the matching defect in (lo, hi) by Newton steps from e;
    None when MAX_NEWTON_STEPS shots do not find it.

    `shot(E)` returns the defect D and its Newton step (`_shoot`).  The
    bracket is taken to hold one level, below which sign * D < 0, so each
    shot moves one end of it to E, and each step is turned towards the
    level: away from it the sign of y_L . y_R need not be the level's
    parity.  A step that leaves the bracket is replaced by bisection.  The
    root is E plus the first step of at most tol, or the middle of a
    bracket narrower than tol; a defect that is not finite has none."""
    e = min(max(e, lo), hi)
    for _ in range(MAX_NEWTON_STEPS):
        d, step = shot(e)
        if d == 0.0:
            return e
        if not math.isfinite(d):
            return None
        if sign * d < 0.0:
            lo = e
        else:
            hi = e
        step = math.copysign(step, -sign * d)
        if abs(step) <= tol:
            return e + step
        if hi - lo <= tol:
            return 0.5 * (lo + hi)
        if lo < e + step < hi:
            e += step
        else:   # also when the step is NaN
            e = 0.5 * (lo + hi)
    return None


def _isolate(nodes, counts, e_lo, e_hi, n_target):
    """Sturm bracket (lo, hi) of the level with n_target nodes inside
    (e_lo, e_hi): nodes(lo) == n_target and nodes(hi) == n_target + 1.

    Bisects on the node count from the tightest bracket that the counts
    already taken on the grid hold; stops early only when the bracket is
    narrower than 1e-13 (1 + |E|), where two levels are not told apart."""
    if nodes(e_lo) > n_target or nodes(e_hi) <= n_target:
        raise OracleError(
            f"level with {n_target} nodes is not inside ({e_lo}, {e_hi})")
    lo = max(e for e, c in counts.items() if c <= n_target and e_lo <= e)
    hi = min(e for e, c in counts.items() if c > n_target and e <= e_hi)
    while counts[lo] < n_target or counts[hi] > n_target + 1:
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-13 * (1.0 + abs(mid)):
            break
        if nodes(mid) <= n_target:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _solve_on_grid(v_grid, dx, h, i_match, e_lo, e_hi, n_target, tol,
                   guess=None, counts=None):
    """Find the eigenvalue with n_target nodes in (e_lo, e_hi).

    The level is found by Newton steps on the matching defect
    (`_defect_root`), and a root is kept only when node counts on either
    side of it confirm the level.  With a `guess` (the previous grid's
    level and a bracket around it) Newton starts from it and no count
    checks the bracket first: the root's own two counts decide.  Without
    a guess, or when they refuse its root, (e_lo, e_hi) is bisected on the
    node count to a Sturm bracket, whose counts are n_target at its lower
    end and n_target + 1 at its upper end, so that it holds this level
    alone, and Newton starts from its middle.  `counts` maps energies to
    the node counts already taken on this grid; the bisection starts from
    the tightest bracket in it, and every count taken here is added to
    it.  Without a confirmed root the level is an OracleError, never an
    unconfirmed energy.
    """
    pref = dx * dx / (12.0 * h * h)
    counts = {} if counts is None else counts
    sign = -1.0 if n_target % 2 else 1.0

    def shot(e):
        return _shoot(pref * (e - v_grid), i_match, pref)

    def nodes(e):
        if e not in counts:
            counts[e] = _count_nodes(pref * (e - v_grid))
        return counts[e]

    def confirmed(e):
        if e is None:
            return False
        eps = max(2.0 * tol, 1e-13 * (1.0 + abs(e)))
        return nodes(e - eps) <= n_target < nodes(e + eps)

    if guess is not None:
        lo, hi = max(guess[0], e_lo), min(guess[1], e_hi)
        if lo < hi:
            e = _defect_root(shot, lo, hi, 0.5 * (guess[0] + guess[1]),
                             sign, tol)
            if confirmed(e):
                return float(e)
    lo, hi = _isolate(nodes, counts, e_lo, e_hi, n_target)
    e = _defect_root(shot, lo, hi, 0.5 * (lo + hi), sign, tol)
    if confirmed(e):
        return float(e)
    raise OracleError(
        f"no confirmed root of the matching defect for the level with"
        f" {n_target} nodes in ({lo!r}, {hi!r})")


@dataclass
class _Grid:
    """One grid of a request: V on it, its spacing, and the node counts
    taken on it so far (energy -> count)."""
    v: np.ndarray
    dx: float

    def __post_init__(self):
        self.i_match = int(np.argmin(self.v))
        self.v_floor = float(self.v[self.i_match])
        self.counts = {}

    def f_min(self, h):
        """Least f = 1 + dx^2 (E - V) / (12 h^2) over the grid, at the
        lowest energy a level search reaches, just below min V."""
        pref = self.dx * self.dx / (12.0 * h * h)
        return 1.0 + pref * (self.v_floor - 1e-12 - float(np.max(self.v)))


def _grid(sym, xl, xr, n):
    xs = np.linspace(xl, xr, n)
    return _Grid(np.asarray(sym.v(xs) + 0.0 * xs, dtype=float), xs[1] - xs[0])


class _Grids:
    """The grids of one request on (xl, xr): the base grid, then up to
    MAX_GRID_DOUBLINGS doublings.  Each doubled grid is built, with V on
    it, when a level first needs it, and kept for the rest of the
    request."""

    def __init__(self, sym, xl, xr, base):
        self._sym, self._xl, self._xr = sym, xl, xr
        self._built = [base]

    def __iter__(self):
        for i in range(MAX_GRID_DOUBLINGS + 1):
            if i == len(self._built):
                n = 2 * (self._built[-1].v.size - 1) + 1
                self._built.append(_grid(self._sym, self._xl, self._xr, n))
            yield self._built[i]


def _tail_wall(sym, h, x0, wall, e_top):
    """The point between x0 and the wall past which the WKB tail at e_top,
    the integral of sqrt(V - e_top) / h from its turning point, exceeds
    TAIL_MIN; the wall itself when the tail stays below that.

    The tail is summed by trapezoids over offsets from x0 that halve, in
    quarter steps, from the wall down to 2^-1000 of its distance, so a
    well of any width is resolved."""
    s = abs(wall - x0) * 2.0 ** -np.arange(1000.0, -0.25, -0.25)
    xs = x0 + math.copysign(1.0, wall - x0) * s
    v = np.asarray(sym.v(xs) + 0.0 * xs, dtype=float)
    kappa = np.sqrt(np.maximum(v - e_top, 0.0)) / h
    tail = np.cumsum(0.5 * (kappa[1:] + kappa[:-1]) * np.diff(s))
    i = int(np.searchsorted(tail, TAIL_MIN))   # tail never decreases
    return float(xs[i + 1]) if i < tail.size else wall


def _base_points(xl, xr, k_max):
    """Points of a grid on (xl, xr) with k_max dx <= KDX_MAX, at least
    BASE_N; an OracleError, before any sweep, when that is more than
    MAX_BASE_N."""
    n = np.ceil(1.0 + (xr - xl) * k_max / KDX_MAX)   # inf or NaN too
    if not n <= MAX_BASE_N:
        raise OracleError(
            f"the Numerov grid would need {n:.0f} points, more than "
            f"{MAX_BASE_N}, to resolve k dx <= {KDX_MAX} on ({xl}, {xr})")
    return max(BASE_N, int(n))


def _base_grid(sym, h, window, xl, xr):
    """The base grid, and its walls, on which every node count is exact
    and the top level's wavenumber k = sqrt(e_max - min V) / h has
    k dx <= KDX_MAX (``_base_points``), so that the MAX_GRID_DOUBLINGS
    doublings resolve the levels however long the interval.

    Where f = 1 + dx^2 (E - V) / (12 h^2) < 0 the Numerov recurrence flips
    sign at every step and the count gains nodes that no level has.  So
    every energy searched must keep f >= F_MIN.  When the grid on (xl, xr)
    does not, each wall moves in to where the WKB tail beyond the
    highest energy searched reaches TAIL_MIN, which shifts a level by about
    exp(-2 TAIL_MIN) of a spacing; if f is still too small there, the grid
    is refined, up to MAX_BASE_N points."""
    x0, v_min = well_minimum(sym.potential, window.e_max)
    k_max = math.sqrt(max(window.e_max - v_min, 0.0)) / h
    g = _grid(sym, xl, xr, _base_points(xl, xr, k_max))
    if g.f_min(h) >= F_MIN:
        return g, xl, xr
    e_top = window.e_max + 2.0 * _base_grid_error(
        window.e_max - g.v_floor, g.dx, h)
    xl, xr = (_tail_wall(sym, h, x0, wall, e_top) for wall in (xl, xr))
    n = _base_points(xl, xr, k_max)
    while True:
        g = _grid(sym, xl, xr, n)
        f = g.f_min(h)
        if f >= F_MIN:
            return g, xl, xr
        # f - 1 scales as dx^2; aim 5% inside F_MIN, as max V may grow
        n = 1 + 1.05 * (n - 1) * math.sqrt((1.0 - f) / (1.0 - F_MIN))
        if not n <= MAX_BASE_N:   # also when V is not finite on the grid
            raise OracleError(
                f"the Numerov grid would need {n:.3g} points to keep its "
                f"node counts exact on ({xl}, {xr})")
        n = math.ceil(n)


def oracle_spectrum(sym, h, window, cfg=None, return_counts=False):
    """Eigenvalues of -h^2 d^2/dx^2 + V in the window, sorted ascending."""
    cfg = cfg or OracleConfig()
    base, xl, xr = _base_grid(sym, h, window,
                              *_domain(sym, h, window, cfg))
    grids = _Grids(sym, xl, xr, base)
    v_floor = base.v_floor
    # A level that the base grid puts within its own error of a window edge
    # may refine to the other side of that edge: count the levels within
    # that error of the window, and let the finer grids look for them up to
    # twice the error above it.  Below min V no level lies.
    err_lo = _base_grid_error(window.e_min - v_floor, base.dx, h)
    err_hi = _base_grid_error(window.e_max - v_floor, base.dx, h)
    pref = base.dx * base.dx / (12.0 * h * h)
    e_count = (max(window.e_min - err_lo, v_floor), window.e_max + err_hi)
    for e in e_count:
        base.counts[e] = _count_nodes(pref * (e - base.v))
    n_min, n_max = (base.counts[e] for e in e_count)
    if n_max - n_min > MAX_LEVELS:
        raise OracleError(
            f"the window holds {n_max - n_min} levels on the base grid, "
            f"more than the {MAX_LEVELS} the oracle solves")

    results = []
    counts = []
    for n_nodes in range(n_min, n_max):
        e = _refined_level(grids, h, n_nodes, v_floor - 1e-12,
                           window.e_max + 2.0 * err_hi + 1e-12,
                           cfg.shoot_tol)
        if e > window.e_max:
            break   # levels rise with the node count: none later is inside
        if window.e_min <= e:
            results.append(e)
            counts.append(n_nodes)
    if return_counts:
        return results, counts
    return results


def _base_grid_error(de, dx, h):
    """Bound on a base-grid Numerov level's error at de = E - min V.

    The error goes as (k dx)^4 de with k^2 = de / h^2; its constant is at
    most 1/128 on the built-in wells (measured against the refined level),
    and the bound takes 1/24."""
    de = max(de, 0.0)
    q = dx * dx * de / (h * h)
    return q * q * de / 24.0


def _refined_level(grids, h, n_nodes, e_lo, e_hi, tol):
    """One eigenvalue, solved on each grid in turn until two agree, with
    one Richardson step.

    A doubled grid starts Newton from the previous level, inside twice
    the previous grid's error bound around it, and isolates the level in
    (e_lo, e_hi) only when the node counts refuse the root found there."""
    prev = guess = None
    for g in grids:
        e = _solve_on_grid(g.v, g.dx, h, g.i_match, e_lo, e_hi, n_nodes,
                           tol, guess, g.counts)
        if prev is not None:
            rich = (16.0 * e - prev) / 15.0
            if abs(e - prev) / 15.0 <= GRID_AGREE_TOL * (1.0 + abs(e)):
                return rich
        prev = e
        half = 2.0 * _base_grid_error(e - g.v_floor, g.dx, h) \
            + 1e-12 * (1.0 + abs(e))
        guess = (e - half, e + half)
    raise OracleError(
        f"oracle did not converge under grid refinement (level {n_nodes})")
