"""Independent eigenvalue oracle: Numerov shooting with node counting.

Solves -h^2 y'' + V y = E y on a Dirichlet-truncated interval.  For each
target node count the energy is bracketed around the same-index eigenvalue
of the 3-point finite-difference matrix on the grid (LAPACK); the bracket
is kept only when two Sturm node counts of the Numerov sweep confirm it.
The level is then found by brentq on the Numerov matching defect at the
well minimum and confirmed by node counts again.  Where a bracket or a
root is not confirmed, the range is bisected on the node count instead.
Numerov alone decides the answer.  Grid resolution is doubled (with one
Richardson step) until two grids agree.

The Dirichlet interval is built outward from the well minimum that
``symbols.well_minimum`` finds; nothing here comes from ``orbit`` or
``quantize``.  The sweeps are plain Python loops over Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.optimize import brentq

from .symbols import well_minimum

# The sweeps are plain Python; nothing is compiled.  Kept because the
# benchmark reports the backend from this flag.
_HAVE_NUMBA = False


class OracleError(Exception):
    pass


@dataclass
class OracleConfig:
    halfwidth_factor: float = 2.0
    base_n: int = 2000
    shoot_tol: float = 1e-12
    max_count: int = 200
    grid_agree_tol: float = 1e-9
    max_grid_doublings: int = 4


def _shoot(k, i_match):
    """Two-sided Numerov propagation; returns the matching defect.

    k[i] = dx^2/12 * (E - V(x_i)) / h^2.  Dirichlet at both ends.  The
    defect is the Wronskian of the left and right shots over the points
    i_match, i_match + 1, each shot scaled to unit length there.  It is
    zero exactly at an eigenvalue and continuous in E: unlike a jump of
    the log-derivative it has no pole where a shot has a node at the
    match point (odd levels of a symmetric well on an odd-sized grid).
    """
    n = len(k)

    # forward sweep: after iteration i, y_cur = y_{i+1}, y_prev = y_i;
    # runs i = 1 .. i_match so the sweep ends holding y_{i_match+1}.
    y_prev, y_cur = 0.0, 1e-10
    for i in range(1, i_match + 1):
        y_new = ((12.0 - 10.0 * (1.0 + k[i])) * y_cur
                 - (1.0 + k[i - 1]) * y_prev) / (1.0 + k[i + 1])
        y_prev, y_cur = y_cur, y_new
        if abs(y_cur) > 1e200:
            y_prev *= 1e-200
            y_cur *= 1e-200
    yl, yl_next = y_prev, y_cur

    # backward sweep: after iteration i, y_cur = y_{i-1}, y_prev = y_i;
    # runs i = n-2 .. i_match+1 so the sweep ends holding y_{i_match}.
    y_prev, y_cur = 0.0, 1e-10
    for i in range(n - 2, i_match, -1):
        y_new = ((12.0 - 10.0 * (1.0 + k[i])) * y_cur
                 - (1.0 + k[i + 1]) * y_prev) / (1.0 + k[i - 1])
        y_prev, y_cur = y_cur, y_new
        if abs(y_cur) > 1e200:
            y_prev *= 1e-200
            y_cur *= 1e-200
    yr, yr_next = y_cur, y_prev

    norm_l = math.hypot(yl, yl_next)
    norm_r = math.hypot(yr, yr_next)
    if norm_l == 0.0 or norm_r == 0.0:
        return 1e300
    return (yl * yr_next - yl_next * yr) / (norm_l * norm_r)


def _count_nodes(k):
    """Sign changes of the full left-to-right Numerov sweep.

    By Sturm oscillation this equals the number of Dirichlet eigenvalues
    strictly below E, which makes it an exact bracketing count.
    """
    n = len(k)
    nodes = 0
    y_prev, y_cur = 0.0, 1e-10
    for i in range(1, n - 1):
        y_new = ((12.0 - 10.0 * (1.0 + k[i])) * y_cur
                 - (1.0 + k[i - 1]) * y_prev) / (1.0 + k[i + 1])
        if (y_new > 0.0 and y_cur < 0.0) or (y_new < 0.0 and y_cur > 0.0):
            nodes += 1
        y_prev, y_cur = y_cur, y_new
        if abs(y_cur) > 1e200:
            y_prev *= 1e-200
            y_cur *= 1e-200
    return nodes


def _domain(sym, h, window, cfg):
    """Dirichlet interval: extend past the E_max turning points until
    V >= E_max + pad, then scale out by halfwidth_factor."""
    bottom = well_minimum(sym.potential, window.e_max)
    if bottom is None:
        raise OracleError("cannot confine the window: V never exceeds e_max")
    x0 = bottom[0]
    _, _, v2 = sym.v_derivs(x0)
    pad = 10.0 * h * np.sqrt(max(float(v2), 0.0))
    target = window.e_max + pad

    def extend(direction):
        step = 0.25
        x = x0 + direction * step
        x_conf = None  # first point with V >= e_max (no padding)
        for _ in range(400):
            vx = sym.v(x)
            if x_conf is None and vx >= window.e_max:
                x_conf = x
            if vx >= target:
                return x
            x += direction * step
            step *= 1.2
        if x_conf is not None:
            # padded target unreachable (V has a finite asymptote); push the
            # wall three confinement widths out so tunneling stays negligible
            return x0 + 3.0 * (x_conf - x0)
        raise OracleError(
            "cannot confine the window: V never exceeds e_max")

    xl, xr = extend(-1), extend(+1)
    f = cfg.halfwidth_factor
    return x0 + f * (xl - x0), x0 + f * (xr - x0)


def _fd_bracket(v_grid, dx, h, e_lo, e_hi, n_target, nodes):
    """Node-count-confirmed bracket (lo, hi) inside (e_lo, e_hi) for the
    level with n_target nodes, or None when none is found.

    The bracket is centred on the same-index eigenvalue of the 3-point
    Dirichlet finite-difference matrix on this grid (LAPACK), with a half
    width of a few times that stencil's error, about
    dx^2 (E - V)^2 / (12 h^2); it is widened twice before giving up.
    """
    c = h * h / (dx * dx)
    diag = 2.0 * c + v_grid[1:-1]
    try:
        e_fd = float(eigvalsh_tridiagonal(
            diag, np.full(diag.size - 1, -c), select="i",
            select_range=(n_target, n_target))[0])
    except (ValueError, np.linalg.LinAlgError):
        return None
    half = 4.0 * (e_fd - float(np.min(v_grid))) ** 2 / (12.0 * c)
    for _ in range(3):
        lo, hi = max(e_fd - half, e_lo), min(e_fd + half, e_hi)
        if lo < hi and nodes(lo) <= n_target < nodes(hi):
            return lo, hi
        half *= 16.0
    return None


def _defect_root(defect, lo, hi, tol):
    """brentq root of the defect in [lo, hi]; None without a sign change."""
    d_lo, d_hi = defect(lo), defect(hi)
    if np.isfinite(d_lo) and np.isfinite(d_hi) and d_lo * d_hi < 0:
        return brentq(defect, lo, hi,
                      xtol=tol, rtol=4 * np.finfo(float).eps)
    return None


def _solve_on_grid(v_grid, dx, h, i_match, e_lo, e_hi, n_target, tol):
    """Find the eigenvalue with n_target nodes in (e_lo, e_hi).

    The level is bracketed by `_fd_bracket` and found by brentq on the
    matching defect; the root is kept only when node counts on either
    side of it confirm the level.  Otherwise the bracket, or the whole of
    (e_lo, e_hi), is bisected on the node count first.
    """
    pref = dx * dx / (12.0 * h * h)

    def defect(e):
        return _shoot((pref * (e - v_grid)).tolist(), i_match)

    def nodes(e):
        return _count_nodes((pref * (e - v_grid)).tolist())

    bracket = _fd_bracket(v_grid, dx, h, e_lo, e_hi, n_target, nodes)
    if bracket is None:
        lo, hi = e_lo, e_hi
        if nodes(lo) > n_target or nodes(hi) <= n_target:
            raise OracleError(
                f"level with {n_target} nodes is not inside ({e_lo}, {e_hi})")
    else:
        lo, hi = bracket
        e = _defect_root(defect, lo, hi, tol)
        if e is not None:
            eps = max(2.0 * tol, 1e-13 * (1.0 + abs(e)))
            if nodes(e - eps) <= n_target < nodes(e + eps):
                return e
    # bisect on node count: lo has <= n_target nodes, hi has more
    for _ in range(240):
        mid = 0.5 * (lo + hi)
        if nodes(mid) <= n_target:
            lo = mid
        else:
            hi = mid
        if hi - lo < max(tol, 1e-13 * (1.0 + abs(mid))):
            break
    e = _defect_root(defect, lo, hi, tol)
    return 0.5 * (lo + hi) if e is None else e


def eigenfunction(sym, h, e, xl, xr, n_pts):
    """Assembled two-sided Numerov solution at energy e (for node checks)."""
    xs = np.linspace(xl, xr, n_pts)
    dx = xs[1] - xs[0]
    v = sym.v(xs)
    k = dx * dx / 12.0 * (e - v) / (h * h)
    f = 1.0 + k
    i_match = int(np.argmin(v))
    yl = np.zeros(n_pts)
    yl[1] = 1e-10
    for i in range(1, i_match + 1):
        yl[i + 1] = ((12.0 - 10.0 * f[i]) * yl[i] - f[i - 1] * yl[i - 1]) / f[i + 1]
        if abs(yl[i + 1]) > 1e200:
            yl[: i + 2] *= 1e-200
    yr = np.zeros(n_pts)
    yr[-2] = 1e-10
    for i in range(n_pts - 2, max(i_match - 1, 0), -1):
        yr[i - 1] = ((12.0 - 10.0 * f[i]) * yr[i] - f[i + 1] * yr[i + 1]) / f[i - 1]
        if abs(yr[i - 1]) > 1e200:
            yr[i - 1:] *= 1e-200
    # least-squares scale over the 3-point overlap (robust when the
    # eigenfunction has a node at the match point itself)
    sl = yl[i_match - 1: i_match + 2]
    sr = yr[i_match - 1: i_match + 2]
    denom = float(np.dot(sr, sr))
    scale = float(np.dot(sl, sr)) / denom if denom > 0 else 1.0
    y = np.concatenate([yl[:i_match], scale * yr[i_match:]])
    m = np.max(np.abs(y))
    return xs, y / m if m > 0 else y


def oracle_spectrum(sym, h, window, cfg=None, return_counts=False):
    """Eigenvalues of -h^2 d^2/dx^2 + V in the window, sorted ascending."""
    if not sym.schrodinger:
        raise OracleError("the oracle requires a Schrodinger symbol")
    cfg = cfg or OracleConfig()
    xl, xr = _domain(sym, h, window, cfg)
    xs = np.linspace(xl, xr, cfg.base_n)
    v0 = np.asarray(sym.v(xs) + 0.0 * xs, dtype=float)
    dx = xs[1] - xs[0]
    pref = dx * dx / (12.0 * h * h)
    n_min, n_max = (_count_nodes((pref * (e - v0)).tolist())
                    for e in (window.e_min, window.e_max))
    n_max = min(n_max, n_min + cfg.max_count)

    results = []
    counts = []
    for n_nodes in range(n_min, n_max):
        e = _refined_level(sym, h, xl, xr, float(np.min(v0)), window.e_max,
                           n_nodes, cfg)
        if window.e_min <= e <= window.e_max:
            results.append(e)
            counts.append(n_nodes)
    if return_counts:
        return results, counts
    return results


def _refined_level(sym, h, xl, xr, e_lo, e_hi, n_nodes, cfg):
    """One eigenvalue with grid-doubling Richardson refinement."""
    n = cfg.base_n
    prev = None
    for _ in range(cfg.max_grid_doublings + 1):
        xs = np.linspace(xl, xr, n)
        v = np.asarray(sym.v(xs) + 0.0 * xs, dtype=float)
        i_match = int(np.argmin(v))
        dx = xs[1] - xs[0]
        e = _solve_on_grid(v, dx, h, i_match, e_lo - 1e-12, e_hi + 1e-12,
                           n_nodes, cfg.shoot_tol)
        if prev is not None:
            rich = (16.0 * e - prev) / 15.0
            if abs(e - prev) / 15.0 <= cfg.grid_agree_tol * (1.0 + abs(e)):
                return rich
        prev = e
        n = 2 * (n - 1) + 1
    raise OracleError(
        f"oracle did not converge under grid refinement (level {n_nodes})")
