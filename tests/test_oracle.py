"""Independent Numerov eigenvalue oracle."""

import inspect
import sys

import numpy as np
import pytest

from numerov_reference import eigenfunction
from semibs import oracle, orbit
from semibs.oracle import (OracleConfig, OracleError, _solve_on_grid,
                           oracle_spectrum)
from semibs.quantize import convergence_fit
from semibs.symbols import (EnergyWindow, HamiltonianSymbol, builtin,
                            from_potential)


def test_harmonic_spectrum(harmonic, window):
    h = 0.1
    energies, counts = oracle_spectrum(harmonic, h, window,
                                       return_counts=True)
    assert counts == [0, 1, 2, 3, 4]
    for n, e in zip(counts, energies):
        assert e == pytest.approx(h * (2 * n + 1), abs=1e-9)


def test_eigenfunction_node_counts(harmonic):
    h = 0.1
    for n in range(5):
        e = h * (2 * n + 1)
        xs, y = eigenfunction(harmonic, h, e, -3.0, 3.0, 4001)
        interior = y[np.abs(xs) < 2.0]
        signs = np.sign(interior[np.abs(interior) > 1e-6])
        changes = int(np.count_nonzero(np.diff(signs) != 0))
        assert changes == n


def test_numerov_convergence_order(harmonic):
    """Grid-halving on a single fixed domain: error scales as dx^4."""
    h, exact = 0.1, 0.3
    errs = []
    for n in (251, 501, 1001, 2001):
        xs = np.linspace(-3.0, 3.0, n)
        v = harmonic.v(xs)
        dx = xs[1] - xs[0]
        e = _solve_on_grid(v, dx, h, int(np.argmin(v)), 0.05, 1.0, 1, 1e-14)
        errs.append((dx, abs(e - exact)))
    slope, _, _ = convergence_fit(errs)
    assert slope >= 3.9
    ratios = [errs[i][1] / errs[i + 1][1] for i in range(len(errs) - 1)]
    assert all(r >= 14.0 for r in ratios)  # 4th order halving gives 16


def test_domain_enlargement_robustness(quartic, window):
    h = 0.1
    e_base = oracle_spectrum(quartic, h, window,
                             OracleConfig(halfwidth_factor=2.0))
    e_wide = oracle_spectrum(quartic, h, window,
                             OracleConfig(halfwidth_factor=2.5))
    assert len(e_base) == len(e_wide)
    for a, b in zip(e_base, e_wide):
        assert abs(a - b) <= 1e-10 * (1.0 + abs(a))


def test_constant_shift_is_exact(harmonic, window):
    h, c = 0.1, 0.07
    shifted = builtin("custom", {"potential": f"x^2 + {c * h}"})
    base = oracle_spectrum(harmonic, h, window)
    up = oracle_spectrum(shifted, h, EnergyWindow(window.e_min + c * h,
                                                  window.e_max + c * h))
    assert len(base) == len(up)
    for a, b in zip(base, up):
        assert b - a == pytest.approx(c * h, abs=1e-10)


def test_morse_finite_asymptote(window):
    sym = builtin("morse", {"D": 3.0, "a": 0.5})
    energies = oracle_spectrum(sym, 0.1, window)
    assert len(energies) > 0
    assert all(window.e_min <= e <= window.e_max for e in energies)
    assert all(np.diff(energies) > 0)


def test_oracle_uses_nothing_from_orbit(monkeypatch, harmonic, window):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called into orbit")

    # every function orbit defines, public or not
    names = [name for name, f in vars(orbit).items()
             if inspect.isfunction(f) and f.__module__ == orbit.__name__]
    assert "turning_points" in names
    for name in names:
        original = getattr(orbit, name)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "semibs" and \
                    getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, refuse)
    energies = oracle_spectrum(harmonic, 0.1, window)
    assert energies == pytest.approx([0.1 * (2 * n + 1) for n in range(5)],
                                     abs=1e-8)


def test_no_extra_level_solve_away_from_the_window_edges(monkeypatch,
                                                         harmonic):
    solved = []
    refined_level = oracle._refined_level

    def counted(grids, h, n_nodes, *rest):
        solved.append(n_nodes)
        return refined_level(grids, h, n_nodes, *rest)

    monkeypatch.setattr(oracle, "_refined_level", counted)
    # edges half-way between the levels 0.15, 0.25, 0.35, 0.45
    energies = oracle_spectrum(harmonic, 0.05, EnergyWindow(0.1, 0.5))
    assert energies == pytest.approx([0.15, 0.25, 0.35, 0.45], abs=1e-9)
    assert solved == [1, 2, 3, 4]


def test_the_level_solves_stop_at_the_first_level_above_the_window(
        monkeypatch):
    # near dissociation the base grid's error bound reaches far above
    # e_max, where the levels are dense: only the first refined level
    # above the window is solved, since levels rise with the node count
    solved = []
    refined_level = oracle._refined_level

    def counted(grids, h, n_nodes, *rest):
        solved.append(n_nodes)
        return refined_level(grids, h, n_nodes, *rest)

    monkeypatch.setattr(oracle, "_refined_level", counted)
    window = EnergyWindow(0.9, 0.999)
    energies, counts = oracle_spectrum(from_potential("(1 - exp(-x))^2"),
                                       0.05, window, return_counts=True)
    # E_n = 1 - (1 - 0.05 (n + 1/2))^2, n = 14 .. 18
    assert energies == pytest.approx(
        [1.0 - (1.0 - 0.05 * (n + 0.5)) ** 2 for n in counts], abs=1e-9)
    assert counts == [14, 15, 16, 17, 18]
    assert solved == counts + [19]


def test_a_window_of_more_than_max_levels_is_refused_before_any_solve(
        monkeypatch, harmonic):
    # x^2 at h = 0.001 on [0.3, 0.8]: the base grid counts 251 levels
    # (150 .. 400), which the oracle refuses, naming the count and the
    # cap, before any level is solved
    def refused(*args):
        raise AssertionError("a level was solved")

    monkeypatch.setattr(oracle, "_refined_level", refused)
    with pytest.raises(OracleError, match="holds 251 levels on the base "
                                          "grid, more than the 200"):
        oracle_spectrum(harmonic, 0.001, EnergyWindow(0.3, 0.8))


def test_a_window_of_max_levels_is_solved_whole(monkeypatch, harmonic,
                                                window):
    # the five levels of the window at h = 0.1, with the cap at 5 and at 4
    monkeypatch.setattr(oracle, "MAX_LEVELS", 5)
    assert len(oracle_spectrum(harmonic, 0.1, window)) == 5
    monkeypatch.setattr(oracle, "MAX_LEVELS", 4)
    with pytest.raises(OracleError, match="holds 5 levels"):
        oracle_spectrum(harmonic, 0.1, window)


def test_v_is_evaluated_once_per_grid_per_request(monkeypatch, harmonic,
                                                  window):
    grid_sizes = []
    v = HamiltonianSymbol.v

    def recorded(self, x):
        if np.size(x) >= oracle.BASE_N:
            grid_sizes.append(np.size(x))
        return v(self, x)

    monkeypatch.setattr(HamiltonianSymbol, "v", recorded)
    energies = oracle_spectrum(harmonic, 0.05, window)
    assert len(energies) == 9
    # the base grid and its doubling, each once for all nine levels
    assert grid_sizes == [oracle.BASE_N, 2 * oracle.BASE_N - 1]
