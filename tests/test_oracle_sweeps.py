"""The oracle's Numerov sweeps as banded BLAS solves, held to the Python
loops they replace, and the Dirichlet interval and base grid that they run
on."""

import time

import numpy as np
import pytest

from numerov_reference import _count_nodes_loop, _shoot_loop
from semibs import oracle
from semibs.oracle import (ConfinementError, OracleConfig, OracleError,
                           _base_grid, _count_nodes, _domain, _grid, _shoot,
                           _sweep)
from semibs.symbols import EnergyWindow, builtin, from_potential

WELLS = {
    "harmonic": {},
    "quartic": {},
    "anharmonic": {"lam": 0.3},
    "morse": {"D": 3.0, "a": 0.5},
}
GRID_SIZES = (2000, 3999, 7997)   # the base grid and two doublings
DEFECT_TOL = 1e-10


def _grid_k(name, n, window, h=0.1):
    """Numerov prefactor, V and match point on the oracle's interval for
    the window, so that k(E) = pref * (E - V)."""
    sym = builtin(name, WELLS[name])
    xl, xr = _domain(sym, h, window, OracleConfig())
    xs = np.linspace(xl, xr, n)
    v = np.asarray(sym.v(xs) + 0.0 * xs, dtype=float)
    dx = xs[1] - xs[0]
    return dx * dx / (12.0 * h * h), v, int(np.argmin(v))


@pytest.mark.parametrize("name", sorted(WELLS))
def test_banded_sweeps_match_the_loops(name, window):
    # 31 energies from below the well bottom to past the window's top
    # cross every level in the window
    energies = np.linspace(-0.1, 1.3, 31)
    for n in GRID_SIZES:
        pref, v, i_match = _grid_k(name, n, window)
        counts = []
        for e in energies:
            k = pref * (e - v)
            f = (1.0 + k).tolist()
            count = _count_nodes(k)
            assert count == _count_nodes_loop(f), (n, e)
            counts.append(count)
            d, d_loop = _shoot(k, i_match, pref)[0], _shoot_loop(f, i_match)
            assert abs(d - d_loop) <= DEFECT_TOL, (n, e)
            if abs(d_loop) > DEFECT_TOL:
                assert np.sign(d) == np.sign(d_loop), (n, e)
        assert counts[0] == 0 and counts[-1] >= 4


def test_lists_and_arrays_give_the_same_sweep(window):
    pref, v, i_match = _grid_k("harmonic", 2000, window)
    k = pref * (0.6 - v)   # between the levels 0.5 and 0.7
    assert _count_nodes(k.tolist()) == _count_nodes(k) == 3
    assert _shoot(k.tolist(), i_match, pref) == _shoot(k, i_match, pref)


def _recorded_runs(monkeypatch):
    """Record, for every banded run, whether it passed 1e200."""
    runs = []
    sweep = oracle._sweep

    def recorded(f, *args):
        y = sweep(f, *args)
        runs.append(not np.all(np.abs(y) <= 1e200))
        return y

    monkeypatch.setattr(oracle, "_sweep", recorded)
    return runs


def test_an_overflowing_sweep_resumes_and_matches_the_loops(monkeypatch):
    """k = -0.5 grows the sweep 14-fold a step: a banded run passes 1e200
    within 200 points, so each 2000-point sweep resumes about ten times,
    and its count and defect are those of the rescaling loops."""
    k = np.full(2000, -0.5)
    f = (1.0 + k).tolist()
    assert not np.all(np.isfinite(_sweep(1.0 + k)))
    runs = _recorded_runs(monkeypatch)
    y, _ = oracle._dirichlet_sweep(1.0 + k)
    assert 8 <= len(runs) <= 15 and all(runs[:-1])
    # y_{i+1} = 14 y_i - y_{i-1} from (0, 1e-10) is 1e-10 sinh(i a) / sinh(a),
    # cosh(a) = 7: each value is that times 1e-200 per resume before it
    a, i = np.arccosh(7.0), np.arange(1, k.size)
    exact = (i * a + np.log1p(-np.exp(-2.0 * i * a))
             - np.log(np.sinh(a)) - np.log(2.0)) / np.log(10.0) - 10.0
    resumes = (exact - np.log10(y)) / 200.0
    assert np.all(np.abs(resumes - np.round(resumes)) <= 1e-9)
    assert np.array_equal(np.unique(np.round(resumes)), np.arange(len(runs)))
    del runs[:]
    assert _count_nodes(k) == _count_nodes_loop(f)
    del runs[:]
    d, d_loop = _shoot(k, 1000, 1.0)[0], _shoot_loop(f, 1000)
    assert abs(d - d_loop) <= 1e-14
    assert len(runs) >= 8


def test_a_sign_change_at_a_resume_point_is_counted_once(monkeypatch):
    """k = 1 flips the sign of the sweep at every step while it grows
    3.7-fold, so every resume point falls on a sign change."""
    k = np.full(2000, 1.0)
    runs = _recorded_runs(monkeypatch)
    count = _count_nodes(k)
    assert len(runs) >= 3
    assert oracle._dirichlet_sweep(1.0 + k)[0].size == k.size - 1
    assert count == _count_nodes_loop((1.0 + k).tolist()) == k.size - 2


def test_a_morse_window_that_overflows_in_blas_has_exact_levels(
        monkeypatch):
    """The right wall of (1 - exp(-x))^2 lies far out on the asymptote,
    where the sweeps from it pass 1e200; the levels 14 .. 18 are
    2h(n + 1/2) - h^2 (n + 1/2)^2."""
    h = 0.05
    runs = _recorded_runs(monkeypatch)
    start = time.perf_counter()
    energies, counts = oracle.oracle_spectrum(
        from_potential("(1 - exp(-x))^2"), h, EnergyWindow(0.9, 0.999),
        return_counts=True)
    elapsed = time.perf_counter() - start
    assert any(runs)
    assert counts == [14, 15, 16, 17, 18]
    for n, e in zip(counts, energies):
        assert e == pytest.approx(2 * h * (n + 0.5) - (h * (n + 0.5)) ** 2,
                                  abs=1e-9)
    assert elapsed < 5.0


# x^2 + 0.1 x^3 has a barrier of 14.8 at x = -20/3 and falls to -inf past it
CUBIC = "x^2 + 0.1*x^3"


def test_a_barrier_below_the_padded_target_is_refused():
    # e_max + pad = 15.4 is above the barrier top
    with pytest.raises(ConfinementError, match="falls back below e_max"):
        _domain(from_potential(CUBIC), 0.1, EnergyWindow(10.0, 14.0),
                OracleConfig())


def test_a_window_above_the_potential_is_refused():
    # the Morse well's asymptote 1 lies below e_max: no scan domain, so no
    # well minimum, for e_max
    with pytest.raises(ConfinementError, match="V never exceeds e_max"):
        _domain(from_potential("(1 - exp(-x))^2"), 0.1,
                EnergyWindow(0.5, 1.5), OracleConfig())
    # narrow spikes to V = 2.6 at x = +-1 end the scan domain there, but
    # the wall search's widening steps from x0 = 0 jump over them, and
    # beyond them V stays below 1
    spiked = from_potential("1 - exp(-(x^2)) + 2*exp(-1e6*(x - 1)^2)"
                            " + 2*exp(-1e6*(x + 1)^2)")
    with pytest.raises(ConfinementError, match="V never exceeds e_max"):
        _domain(spiked, 0.1, EnergyWindow(0.2, 1.5), OracleConfig())


def test_a_scaled_wall_stops_inside_the_barrier():
    sym = from_potential(CUBIC)
    h, window = 0.1, EnergyWindow(0.05, 1.0)
    target = window.e_max + 10.0 * h * np.sqrt(2.0)
    for factor in (2.0, 6.0):
        xl, xr = _domain(sym, h, window, OracleConfig(halfwidth_factor=factor))
        # V stays at or above the padded target from its turning point out
        # to the left wall, which for factor 6 ends before the barrier's
        # far side (V(-10) = 0)
        xs = np.linspace(xl, -1.8, 4001)
        assert np.all(sym.v(xs) >= target)
        assert -10.0 < xl < -1.8 and xr > 1.0
    energies = oracle.oracle_spectrum(sym, h, window,
                                      OracleConfig(halfwidth_factor=6.0))
    assert len(energies) == 5


def test_morse_asymptote_walls_are_unchanged():
    """The wall on the finite-asymptote side is still x0 + 3 f (x_conf -
    x0); the values are those from before the barrier check."""
    sym = builtin("morse", WELLS["morse"])
    assert _domain(sym, 0.1, EnergyWindow(0.08, 1.02), OracleConfig()) \
        == (-3.1839999999999997, 8.7495424)
    assert _domain(sym, 0.1, EnergyWindow(2.0, 2.95), OracleConfig()) \
        == (-3.1839999999999997, 60.870753361919995)


def test_walls_deep_in_the_forbidden_region_move_in(window):
    # V = 84 at the left wall of the Morse interval: on BASE_N points f
    # falls to -0.89 there, so that wall moves in to where the WKB tail
    # reaches TAIL_MIN; the right wall, on the asymptote V -> 1 below the
    # highest energy searched, stays
    sym = from_potential("(1 - exp(-x))^2")
    h, edge = 0.05, EnergyWindow(0.5, 0.999)
    xl, xr = _domain(sym, h, edge, OracleConfig())
    assert _grid(sym, xl, xr, oracle.BASE_N).f_min(h) < 0.0
    base, left, right = _base_grid(sym, h, edge, xl, xr)
    assert xl < left < -1.0 and right == xr
    # the grid is the k dx one of the moved walls, not refined for f
    k_max = np.sqrt(edge.e_max) / h
    assert base.v.size == oracle._base_points(left, right, k_max)
    assert base.f_min(h) >= oracle.F_MIN
    # a well-resolved interval is left as it is
    sym = builtin("harmonic")
    xl, xr = _domain(sym, 0.1, window, OracleConfig())
    base, left, right = _base_grid(sym, 0.1, window, xl, xr)
    assert (left, right, base.v.size) == (xl, xr, oracle.BASE_N)


def test_a_long_interval_sizes_its_base_grid_from_k_dx():
    """On 3 (1 - exp(-x/2))^2 at h = 0.05 the interval reaches x = 49.7
    on the asymptote: BASE_N points give k dx = 0.89 at the top level, and
    four doublings do not bring two grids within GRID_AGREE_TOL at level
    29.  Sized for k dx <= KDX_MAX, the grid gives the 28 levels n = 29..56
    to within 1e-9 of sqrt(3) h (n + 1/2) - h^2 (n + 1/2)^2 / 4."""
    sym, h = from_potential("3*(1 - exp(-0.5*x))^2"), 0.05
    window = EnergyWindow(2.0, 2.9)
    xl, xr = _domain(sym, h, window, OracleConfig())
    k_max = np.sqrt(window.e_max) / h
    assert k_max * (xr - xl) / (oracle.BASE_N - 1) > 0.8
    base, _, _ = _base_grid(sym, h, window, xl, xr)
    assert base.v.size > oracle.BASE_N
    assert k_max * base.dx <= oracle.KDX_MAX
    energies, counts = oracle.oracle_spectrum(sym, h, window,
                                              return_counts=True)
    assert counts == list(range(29, 57))
    for n, e in zip(counts, energies):
        exact = np.sqrt(3.0) * h * (n + 0.5) - (h * (n + 0.5)) ** 2 / 4.0
        assert e == pytest.approx(exact, abs=1e-9)


def test_a_grid_too_coarse_for_exact_counts_is_refined_up_to_a_cap(
        monkeypatch, window):
    # walls at +-30 where the tail test cannot move them: V = 900 there,
    # and f = 1 - dx^2 900 / (12 h^2) = -5.8 on BASE_N points
    sym, h = builtin("harmonic"), 0.1
    monkeypatch.setattr(oracle, "TAIL_MIN", np.inf)
    base, left, right = _base_grid(sym, h, window, -30.0, 30.0)
    assert (left, right) == (-30.0, 30.0)
    assert base.v.size > 3 * oracle.BASE_N
    assert base.f_min(h) >= oracle.F_MIN
    monkeypatch.setattr(oracle, "MAX_BASE_N", base.v.size - 1)
    with pytest.raises(OracleError, match="would need"):
        _base_grid(sym, h, window, -30.0, 30.0)


def test_a_base_grid_over_the_cap_is_refused_before_any_sweep(monkeypatch):
    """Levels n = 2500 .. 2509 of 1e-4 x^2 at h = 0.001: k dx <= KDX_MAX
    needs 47918 points on the oracle's interval, more than MAX_BASE_N, so
    the oracle refuses at once and names them."""
    runs = _recorded_runs(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(OracleError, match="would need 47918 points"):
        oracle.oracle_spectrum(from_potential("1e-4*x^2"), 0.001,
                               EnergyWindow(0.05, 0.0502))
    assert runs == []
    assert time.perf_counter() - start < 1.0
