"""S2 from one first E-derivative of oint V'' dt, put together in one place."""

import importlib
import pkgutil

import numpy as np
import pytest

import semibs
from reference import gamma_integral
from semibs import quantize
from semibs.actions import action_series
from semibs.orbit import orbit_quadrature, trace_orbit
from semibs.quantize import bs_solve, gram_scan
from semibs.symbols import EnergyWindow, builtin, from_potential


@pytest.mark.parametrize("e", [0.3, 0.6])
@pytest.mark.parametrize("eta", [0.02, 0.01])
def test_morse_s2_vanishes(e, eta):
    # S2 of -h^2 d^2/dx^2 + D (1 - exp(-a x))^2 is exactly 0
    ser = action_series(builtin("morse", {"D": 1.0, "a": 1.0}), e, eta)
    assert abs(ser.s2) <= 1e-10
    assert ser.derivative_consistent


@pytest.mark.parametrize("quad_tol", [1e-12, 1e-10])
def test_order2_morse_levels_near_dissociation(quad_tol):
    # the Morse spectrum E_n = 2 a sqrt(D) h (n + 1/2) - a^2 h^2 (n + 1/2)^2
    # is exact at order 2 (S2 = 0); levels 15-17 of h = 0.05 lie at
    # 0.95-0.98 D, where V' is small at the right turning point
    h = 0.05
    table = bs_solve(builtin("morse", {"D": 1.0, "a": 1.0}), h,
                     EnergyWindow(0.94, 0.99), order=2, quad_tol=quad_tol)
    assert [row.n for row in table.rows] == [15, 16, 17]
    for row in table.rows:
        k = row.n + 0.5
        assert abs(row.e_order2 - (2.0 * h * k - h * h * k * k)) <= 1e-10


def test_a_window_just_below_dissociation_keeps_the_table_below_it():
    # 5% of the span past e_max = 0.99 D is above D, where the well holds
    # no orbit; the table's upper pad is halved until it stays below D
    h, morse = 0.05, builtin("morse", {"D": 1.0, "a": 1.0})
    window = EnergyWindow(0.5, 0.99)
    table = bs_solve(morse, h, window, order=2, quad_tol=1e-10)
    assert [row.n for row in table.rows] == list(range(6, 18))
    for row in table.rows:
        k = row.n + 0.5
        assert abs(row.e_order2 - (2.0 * h * k - h * h * k * k)) <= 1e-10
    _, zeros = gram_scan(morse, window, h, order=2, quad_tol=1e-10)
    assert zeros == pytest.approx(table.energies(2), abs=1e-12)


@pytest.mark.parametrize("sym", [builtin("quartic"),
                                 from_potential("x^2 + 0.3*x^4")],
                         ids=["quartic", "anharmonic"])
@pytest.mark.parametrize("e", [0.3, 0.6])
def test_gamma_derivative_is_four_oint_v_dd(sym, e):
    """d/dE oint Gamma dt from the ODE reference equals 4 oint V'' dt, the
    identity that lets gamma_dd come from one E-derivative."""
    delta = 2e-3
    g = {k: gamma_integral(sym, trace_orbit(sym, e + k * delta))
         for k in (-2, -1, 1, 2)}
    dg = (g[-2] - 8.0 * g[-1] + 8.0 * g[1] - g[2]) / (12.0 * delta)
    _, (v_dd,) = orbit_quadrature(
        sym, e, [lambda x, xi: sym.v_derivs(x)[2] + 0.0 * x])
    assert dg == pytest.approx(4.0 * v_dd, rel=1e-7)


@pytest.mark.parametrize("terms", [{}, {"p1": "0.3 + 0.2*x^2",
                                        "p2": "0.1*x^2"}],
                         ids=["plain", "p1-p2"])
def test_action_series_s2_is_the_solvers_s2(terms):
    # the h^2 coefficient of the solver's S_eff is ActionSeries.s2, to the
    # error of the stencil at eta = 1e-3
    sym = builtin("quartic", terms)
    e, h = 0.5, 0.05
    ser = action_series(sym, e, 1e-3)
    table = quantize.SEffTable.for_window(sym, h, 2, EnergyWindow(0.3, 0.7))
    s1, s2 = table.value(np.array([e]), 1), table.value(np.array([e]), 2)
    h2_coefficient = float((s2 - s1)[0]) / (h * h)
    assert h2_coefficient == pytest.approx(ser.s2, rel=1e-8, abs=1e-9)


def test_quantize_path_evaluates_no_gamma(window):
    # the Gamma reference lives in tests/reference.py only, so no request
    # can evaluate it; this fails if it comes back into the package
    for info in pkgutil.iter_modules(semibs.__path__):
        module = importlib.import_module(f"semibs.{info.name}")
        for name in ("gamma_integral", "_gamma_on_samples"):
            assert not hasattr(module, name), f"semibs.{info.name}.{name}"
    sym = builtin("anharmonic", {"lam": 0.3, "p1": "0.2*x", "p2": "0.5"})
    assert bs_solve(sym, 0.1, window, order=2).rows
    _, zeros = gram_scan(sym, window, 0.1, steps=40, order=2)
    assert zeros


def test_solver_s2_near_the_well_bottom_matches_a_fine_stencil(quartic):
    """On x^4 at E = 0.07, S2 by the table's E-derivatives agrees with the
    stencil at eta = 1e-3 (-2.2010207213); the stencil at 2% of the span
    [0.05, 1], eta = 0.019, is off by 4.0e-5 (-2.2011092)."""
    h = 0.05
    table = quantize.SEffTable.for_window(quartic, h, 2,
                                          EnergyWindow(0.05, 1.0), 1e-10)
    s1, s2 = (table.value(np.array([0.07]), m)[0] for m in (1, 2))
    ref = action_series(quartic, 0.07, 1e-3).s2
    assert (s2 - s1) / (h * h) == pytest.approx(ref, rel=1e-8)
    assert action_series(quartic, 0.07, 0.019).s2 != pytest.approx(
        ref, rel=1e-5)


def test_readme_config_splits_and_matches_action_series_roots(quartic):
    """quartic [0.05, 1] at h = 0.05, quad_tol 1e-10 (the README's example)
    needs several table pieces near the well bottom; every level solves
    the condition with the fine-stencil series to 1e-9 in E."""
    h, window = 0.05, EnergyWindow(0.05, 1.0)
    table = quantize.SEffTable.for_window(quartic, h, 2, window, 1e-10)
    assert len(table._lo) > 1
    rows = bs_solve(quartic, h, window, order=2, quad_tol=1e-10).rows
    assert [r.n for r in rows] == list(range(1, 1 + len(rows)))
    for r in rows:
        ser = action_series(quartic, r.e_order2, 1e-3)
        s_eff = ser.s0 - h * ser.sub_principal + h * h * ser.s2
        # |E - E_ref| = |S_eff(E) - target| / (dS_eff/dE), dS0/dE = period
        assert abs(s_eff - 2.0 * np.pi * h * (r.n + 0.5)) / ser.period \
            <= 1e-9, r.n
