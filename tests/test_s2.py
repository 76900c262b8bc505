"""S2 from one first E-derivative of oint V'' dt, put together in one place."""

import numpy as np
import pytest

from semibs import actions, quantize
from semibs.actions import action_series, gamma_integral
from semibs.orbit import orbit_quadrature, trace_orbit
from semibs.quantize import QuantizeError, bs_solve, gram_scan
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
    sym = builtin("quartic", terms)
    e, h, eta = 0.5, 0.05, 0.02
    ser = action_series(sym, e, eta)
    ev = quantize._SeriesEvaluator(sym, h, 2, eta)
    h2_coefficient = (ev.correction(e) + h * ser.sub_principal) / (h * h)
    assert h2_coefficient == pytest.approx(ser.s2, rel=1e-12, abs=1e-14)


def test_quantize_path_evaluates_no_gamma(monkeypatch, window):
    def refuse(*args, **kwargs):
        raise AssertionError("Gamma evaluated on the quantize path")

    monkeypatch.setattr(actions, "_gamma_on_samples", refuse)
    sym = builtin("anharmonic", {"lam": 0.3, "p1": "0.2*x", "p2": "0.5"})
    assert bs_solve(sym, 0.1, window, order=2).rows
    _, zeros = gram_scan(sym, window, 0.1, steps=40, order=2)
    assert zeros


class _Oscillating:
    """S0(E) = E and a correction whose sign flips at ``pivot``, so the
    fixed point steps back and forth by 1e-8 without contracting."""
    order = 2

    def __init__(self, pivot):
        self.pivot = pivot

    def s0(self, e):
        return e

    def correction(self, e):
        return 1e-8 if e >= self.pivot else -1e-8


def test_a_fixed_point_that_does_not_contract_is_refused():
    # steps of 1e-8 and 2e-8 are far below 1e-6 (1 + |E|) but above
    # root_tol: the level is refused, and bs_solve would scan instead
    ev = _Oscillating(pivot=0.5)
    es = np.array([0.0, 1.0])
    with pytest.raises(QuantizeError, match="did not converge"):
        quantize._solve_level(ev, 0.5, es, es, 0.5, 1e-10)

