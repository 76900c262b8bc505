"""The Numerov sweeps of ``semibs.oracle`` as Python loops that rescale at
1e200: the reference the banded BLAS sweeps are held to, and the assembled
two-sided solution whose nodes the tests count."""

import numpy as np

from semibs.oracle import _wronskian


def _shoot_loop(f, i_match):
    """`_shoot` on f = 1 + k as a list."""
    n = len(f)

    # forward sweep: after iteration i, y_cur = y_{i+1}, y_prev = y_i;
    # runs i = 1 .. i_match so the sweep ends holding y_{i_match+1}.
    y_prev, y_cur = 0.0, 1e-10
    for i in range(1, i_match + 1):
        y_new = ((12.0 - 10.0 * f[i]) * y_cur - f[i - 1] * y_prev) / f[i + 1]
        y_prev, y_cur = y_cur, y_new
        if abs(y_cur) > 1e200:
            y_prev *= 1e-200
            y_cur *= 1e-200
    yl, yl_next = y_prev, y_cur

    # backward sweep: after iteration i, y_cur = y_{i-1}, y_prev = y_i;
    # runs i = n-2 .. i_match+1 so the sweep ends holding y_{i_match}.
    y_prev, y_cur = 0.0, 1e-10
    for i in range(n - 2, i_match, -1):
        y_new = ((12.0 - 10.0 * f[i]) * y_cur - f[i + 1] * y_prev) / f[i - 1]
        y_prev, y_cur = y_cur, y_new
        if abs(y_cur) > 1e200:
            y_prev *= 1e-200
            y_cur *= 1e-200
    return _wronskian(yl, yl_next, y_cur, y_prev)


def _count_nodes_loop(f):
    """`_count_nodes` on f = 1 + k as a list."""
    nodes = 0
    y_prev, y_cur = 0.0, 1e-10
    for i in range(1, len(f) - 1):
        y_new = ((12.0 - 10.0 * f[i]) * y_cur - f[i - 1] * y_prev) / f[i + 1]
        if (y_new > 0.0 and y_cur < 0.0) or (y_new < 0.0 and y_cur > 0.0):
            nodes += 1
        y_prev, y_cur = y_cur, y_new
        if abs(y_cur) > 1e200:
            y_prev *= 1e-200
            y_cur *= 1e-200
    return nodes


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
