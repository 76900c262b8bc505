"""The oracle's per-grid level solve: LAPACK brackets, their fallback and
the contract that a level outside (e_lo, e_hi) is refused."""

import numpy as np
import pytest

from semibs import oracle
from semibs.oracle import (OracleConfig, OracleError, _count_nodes,
                           _domain, _fd_bracket, _solve_on_grid)
from semibs.symbols import builtin


def _base_grid(sym, h, window):
    cfg = OracleConfig()
    xl, xr = _domain(sym, h, window, cfg)
    xs = np.linspace(xl, xr, cfg.base_n)
    v = np.asarray(sym.v(xs) + 0.0 * xs, dtype=float)
    return v, xs[1] - xs[0], int(np.argmin(v))


def _node_counter(v, dx, h):
    pref = dx * dx / (12.0 * h * h)
    return lambda e: _count_nodes((pref * (e - v)).tolist())


def _bisected_level(nodes, n_target, e_lo, e_hi):
    """Reference: node-count bisection over the whole range, stopped at
    the resolution the oracle bisects to, and its midpoint."""
    lo, hi = e_lo, e_hi
    while True:
        mid = 0.5 * (lo + hi)
        if nodes(mid) <= n_target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13 * (1.0 + abs(mid)):
            return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def wells(window):
    h = 0.1
    out = []
    for sym in (builtin("quartic"), builtin("morse", {"D": 3.0, "a": 0.5})):
        v, dx, i_match = _base_grid(sym, h, window)
        nodes = _node_counter(v, dx, h)
        levels = range(nodes(window.e_min), nodes(window.e_max))
        # the range the oracle itself searches for every level
        e_range = (float(np.min(v)) - 1e-12, window.e_max + 1e-12)
        out.append((v, dx, h, i_match, nodes, levels, e_range))
    return out


def test_bracketed_levels_match_node_count_bisection(wells):
    tol = OracleConfig().grid_agree_tol
    for v, dx, h, i_match, nodes, levels, (e_lo, e_hi) in wells:
        assert len(levels) >= 5
        for n in levels:
            bracket = _fd_bracket(v, dx, h, e_lo, e_hi, n, nodes)
            assert bracket is not None
            lo, hi = bracket
            assert nodes(lo) <= n < nodes(hi)
            e = _solve_on_grid(v, dx, h, i_match, e_lo, e_hi, n, 1e-12)
            ref = _bisected_level(nodes, n, e_lo, e_hi)
            assert abs(e - ref) <= tol * (1.0 + abs(ref))


def test_unconfirmed_bracket_falls_back_to_bisection(wells, monkeypatch):
    """A LAPACK value for the wrong level leaves no confirmed bracket; the
    solve then bisects the whole range and still finds the right level."""
    lapack = oracle.eigvalsh_tridiagonal

    def next_level(d, e, select, select_range):
        i = select_range[0] + 1
        return lapack(d, e, select=select, select_range=(i, i))

    monkeypatch.setattr(oracle, "eigvalsh_tridiagonal", next_level)
    tol = OracleConfig().grid_agree_tol
    for v, dx, h, i_match, nodes, levels, (e_lo, e_hi) in wells:
        n = levels[1]
        assert _fd_bracket(v, dx, h, e_lo, e_hi, n, nodes) is None
        e = _solve_on_grid(v, dx, h, i_match, e_lo, e_hi, n, 1e-12)
        ref = _bisected_level(nodes, n, e_lo, e_hi)
        assert abs(e - ref) <= tol * (1.0 + abs(ref))


def test_level_outside_the_range_is_refused(harmonic):
    """Level 1 of the harmonic well at h = 0.1 is 0.3."""
    h = 0.1
    xs = np.linspace(-3.0, 3.0, 2001)
    v = harmonic.v(xs)
    dx = xs[1] - xs[0]
    i_match = int(np.argmin(v))
    assert _solve_on_grid(v, dx, h, i_match, 0.05, 1.0, 1, 1e-12) == \
        pytest.approx(0.3, abs=1e-9)
    for e_lo, e_hi in ((0.05, 0.25), (0.35, 1.0), (0.31, 0.49)):
        with pytest.raises(OracleError):
            _solve_on_grid(v, dx, h, i_match, e_lo, e_hi, 1, 1e-12)
    with pytest.raises(OracleError):  # more levels than grid points
        _solve_on_grid(v, dx, h, i_match, 0.05, 1.0, xs.size, 1e-12)
