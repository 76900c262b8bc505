"""The oracle's per-grid level solve: Sturm brackets from node counts alone,
the doubled grid's guessed bracket and its fallback, and the contract that a
level is a confirmed root of the matching defect inside (e_lo, e_hi) or an
error."""

import numpy as np
import pytest

from semibs import oracle
from semibs.cli import EXIT_OK, main
from semibs.oracle import (OracleConfig, OracleError, _base_grid_error,
                           _count_nodes, _domain, _isolate, _solve_on_grid)
from semibs.symbols import builtin


def _grid(sym, h, window, n=oracle.BASE_N):
    xl, xr = _domain(sym, h, window, OracleConfig())
    xs = np.linspace(xl, xr, n)
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
        v, dx, i_match = _grid(sym, h, window)
        nodes = _node_counter(v, dx, h)
        levels = range(nodes(window.e_min), nodes(window.e_max))
        # the range the oracle itself searches for every level
        e_range = (float(np.min(v)) - 1e-12, window.e_max + 1e-12)
        out.append((sym, v, dx, h, i_match, nodes, levels, e_range))
    return out


def _isolations(monkeypatch):
    """Record every bisection that isolates a level."""
    calls = []
    isolate = oracle._isolate

    def recorded(*args):
        calls.append(args[-1])
        return isolate(*args)

    monkeypatch.setattr(oracle, "_isolate", recorded)
    return calls


def test_bracketed_levels_match_node_count_bisection(wells):
    tol = oracle.GRID_AGREE_TOL
    for _, v, dx, h, i_match, nodes, levels, (e_lo, e_hi) in wells:
        assert len(levels) >= 5
        counts = {}  # shared by the levels, as on one grid of a request

        def counted(e):
            if e not in counts:
                counts[e] = nodes(e)
            return counts[e]

        for n in levels:
            lo, hi = _isolate(counted, counts, e_lo, e_hi, n)
            assert (nodes(lo), nodes(hi)) == (n, n + 1)
            e = _solve_on_grid(v, dx, h, i_match, e_lo, e_hi, n, 1e-12)
            ref = _bisected_level(nodes, n, e_lo, e_hi)
            assert abs(e - ref) <= tol * (1.0 + abs(ref))


def test_a_confirmed_guess_on_the_doubled_grid_is_kept(wells, window,
                                                       monkeypatch):
    """The base level, widened by twice its error bound, brackets the same
    level on the doubled grid; no bisection isolates it there."""
    for sym, v, dx, h, i_match, _, levels, (e_lo, e_hi) in wells:
        v2, dx2, i_match2 = _grid(sym, h, window, 2 * oracle.BASE_N - 1)
        nodes2 = _node_counter(v2, dx2, h)
        for n in levels:
            e0 = _solve_on_grid(v, dx, h, i_match, e_lo, e_hi, n, 1e-12)
            half = 2.0 * _base_grid_error(e0 - float(np.min(v)), dx, h) \
                + 1e-12 * (1.0 + abs(e0))
            guess = (e0 - half, e0 + half)
            assert (nodes2(guess[0]), nodes2(guess[1])) == (n, n + 1)
            isolated = _solve_on_grid(v2, dx2, h, i_match2, e_lo, e_hi, n,
                                      1e-12)
            calls = _isolations(monkeypatch)
            e = _solve_on_grid(v2, dx2, h, i_match2, e_lo, e_hi, n, 1e-12,
                               guess)
            assert calls == []
            assert abs(e - isolated) <= 1e-11 * (1.0 + abs(e))
            monkeypatch.undo()


def test_unconfirmed_bracket_falls_back_to_bisection(wells, monkeypatch):
    """A guess that holds the next level, not this one: the node counts
    refuse the root found in it; the solve then isolates the level on the
    node count and finds the same level as without a guess."""
    for _, v, dx, h, i_match, nodes, levels, (e_lo, e_hi) in wells:
        n = levels[1]
        e_next = _solve_on_grid(v, dx, h, i_match, e_lo, e_hi, n + 1, 1e-12)
        ref = _solve_on_grid(v, dx, h, i_match, e_lo, e_hi, n, 1e-12)
        guess = (e_next - 1e-6, e_next + 1e-6)
        assert (nodes(guess[0]), nodes(guess[1])) == (n + 1, n + 2)
        calls = _isolations(monkeypatch)
        e = _solve_on_grid(v, dx, h, i_match, e_lo, e_hi, n, 1e-12, guess)
        assert calls == [n]
        assert abs(e - ref) <= 1e-11 * (1.0 + abs(ref))
        assert abs(e - _bisected_level(nodes, n, e_lo, e_hi)) <= \
            oracle.GRID_AGREE_TOL * (1.0 + abs(e))
        monkeypatch.undo()


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
        # a guess that holds the level does not widen the range
        with pytest.raises(OracleError):
            _solve_on_grid(v, dx, h, i_match, e_lo, e_hi, 1, 1e-12,
                           guess=(0.29, 0.31))
    with pytest.raises(OracleError):  # more levels than grid points
        _solve_on_grid(v, dx, h, i_match, 0.05, 1.0, xs.size, 1e-12)


def test_a_level_without_a_defect_root_is_an_error(monkeypatch, capsys,
                                                   harmonic, window):
    """No unconfirmed energy stands in for a level: the oracle raises, and
    spectrum leaves its oracle columns blank."""
    monkeypatch.setattr(oracle, "_defect_root", lambda *args: None)
    with pytest.raises(OracleError, match="no confirmed root"):
        oracle.oracle_spectrum(harmonic, 0.1, window)
    assert main(["spectrum", "--hbar", "0.1"]) == EXIT_OK
    captured = capsys.readouterr()
    assert "no confirmed root" in captured.err
    rows = [line.split(",") for line in captured.out.splitlines()[1:]]
    assert len(rows) == 5
    assert all(r[3] and r[4:] == ["", "", ""] for r in rows)
