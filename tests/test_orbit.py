"""Periodic-orbit tracing, turning points, and orbit integrals."""

import math

import numpy as np
import pytest

from reference import FocalFrame, gamma_integral
from semibs import orbit
from semibs.exprjet import evaluate
from semibs.orbit import (ConvergenceError, OrbitError, action_s0,
                          orbit_integral, orbit_quadrature, trace_orbit,
                          turning_points)
from semibs.symbols import builtin, from_potential


ALL_WELLS = [
    ("harmonic", {}),
    ("quartic", {}),
    ("anharmonic", {"lam": 0.3}),
    ("morse", {"D": 3.0, "a": 0.5}),
]


def test_turning_points_harmonic(harmonic):
    for e in (0.1, 0.5, 1.0):
        xl, xr = turning_points(harmonic, e)
        assert xl == pytest.approx(-math.sqrt(e), abs=1e-12)
        assert xr == pytest.approx(math.sqrt(e), abs=1e-12)


def test_turning_points_sit_on_level_set():
    for name, params in ALL_WELLS:
        sym = builtin(name, params)
        for e in (0.2, 0.7):
            xl, xr = turning_points(sym, e)
            assert sym.v(xl) == pytest.approx(e, abs=1e-11)
            assert sym.v(xr) == pytest.approx(e, abs=1e-11)
            assert xl < xr


def test_turning_points_when_grid_neighbours_tie():
    # the scan grid puts this minimum half-way between two grid points,
    # so both neighbours of the grid minimum tie
    sym = from_potential("x^2 + 0.1*(0.2 + 0.15*x)")
    xl, xr = turning_points(sym, 0.5)
    assert sym.v(xl) == pytest.approx(0.5, abs=1e-11)
    assert sym.v(xr) == pytest.approx(0.5, abs=1e-11)
    assert xl < -0.0075 < xr


@pytest.mark.parametrize("e", [12.9, 14.0, 14.5])
def test_turning_points_stop_inside_a_barrier(e):
    # V = x^2 + 0.1 x^3 has a barrier of 14.8 at x = -20/3; doubling the
    # scan domain from -8 (V = 12.8) to -16 (V < 0) would jump it
    sym = from_potential("x^2 + 0.1*x^3")
    for xl, xr in (turning_points(sym, e),
                   [float(t[0]) for t in
                    orbit._turning_points_array(sym.potential,
                                                np.array([e]))]):
        assert sym.v(xl) == pytest.approx(e, abs=1e-12)
        assert sym.v(xr) == pytest.approx(e, abs=1e-12)
        assert -20.0 / 3.0 < xl < 0.0 < xr


def _ulps(a, b):
    return np.max(np.abs(a - b) / np.spacing(np.abs(b)))


@pytest.mark.parametrize("name, params", ALL_WELLS)
def test_array_turning_points_and_s0_match_scalar_calls(name, params):
    sym = builtin(name, params)
    es = np.linspace(0.3, 1.2, 37)
    one = [lambda x, xi: np.ones_like(x)]
    xl, xr = orbit._turning_points_array(sym.potential, es)
    s0, (period,) = orbit_quadrature(sym, es, one)
    ref_tp = np.array([turning_points(sym, e) for e in es])
    ref = [orbit_quadrature(sym, e, one) for e in es]
    assert _ulps(xl, ref_tp[:, 0]) <= 4 and _ulps(xr, ref_tp[:, 1]) <= 4
    assert _ulps(s0, np.array([r[0] for r in ref])) <= 4
    # 1/xi+ next to a turning point: an ulp there moves oint dt by ~1e-13
    np.testing.assert_allclose(period, [r[1][0] for r in ref], rtol=2e-12)


def test_array_quadrature_refuses_what_a_scalar_call_refuses():
    harmonic = builtin("harmonic")
    for es in ([0.5, 0.0, 0.7], [0.5, -1.0]):
        with pytest.raises(OrbitError, match="at or below the well bottom"):
            orbit_quadrature(harmonic, np.array(es))
    cubic = from_potential("x^2 + 0.1*x^3")   # barrier 14.8
    with pytest.raises(OrbitError, match="does not rise above E = 15.0"):
        orbit_quadrature(cubic, np.array([1.0, 15.0]))
    with pytest.raises(ConvergenceError):
        orbit_quadrature(from_potential("sqrt(x^2)"), np.array([0.4, 0.5]))


def test_array_turning_points_hand_open_roots_to_the_scalar_solver(
        monkeypatch):
    sym = builtin("anharmonic", {"lam": 0.3})
    es = np.linspace(0.2, 1.0, 9)
    monkeypatch.setattr(orbit, "TP_NEWTON_ITERATIONS", 1)
    xl, xr = orbit._turning_points_array(sym.potential, es)
    assert np.array_equal(np.column_stack([xl, xr]),
                          [turning_points(sym, e) for e in es])


def test_array_quadrature_is_the_same_in_chunks(monkeypatch):
    sym = builtin("morse", {"D": 3.0, "a": 0.5, "p1": "0.2*x"})
    fs = [lambda x, xi: evaluate(sym.p1, x, xi) + 0.0 * x]
    es = np.linspace(0.1, 2.9, 40)
    whole = orbit_quadrature(sym, es, fs)
    monkeypatch.setattr(orbit, "QUAD_CHUNK", 7)
    chunked = orbit_quadrature(sym, es, fs)
    assert np.array_equal(whole[0], chunked[0])
    assert np.array_equal(whole[1], chunked[1])


def test_an_array_quadrature_accepts_each_energy_at_its_own_doubling(
        monkeypatch):
    # oint cos(8x) dt on x^2 oscillates faster the wider the orbit: three
    # energies agree at 64 nodes, E = 4 only at 128, so one array call
    # accepts them a doubling apart and refines E = 4 alone
    sym = builtin("harmonic", {"p1": "cos(8*x)"})
    fs = [lambda x, xi: evaluate(sym.p1, x, xi) + 0.0 * x]
    es = np.array([0.04, 0.3, 1.0, 4.0])
    shapes = []    # (energies, nodes) of every row sum
    row_sums = orbit._row_sums

    def recorded(arrays, rad):
        shapes.append(np.shape(arrays[0]))
        return row_sums(arrays, rad)

    monkeypatch.setattr(orbit, "_row_sums", recorded)
    s0, (p1,) = orbit_quadrature(sym, es, fs)
    assert (4, 64) in shapes and shapes[-1] == (1, 128)
    monkeypatch.undo()
    ref = [orbit_quadrature(sym, e, fs) for e in es]
    assert _ulps(s0, np.array([r[0] for r in ref])) <= 4
    np.testing.assert_allclose(p1, [r[1][0] for r in ref], rtol=1e-12)


def test_quadrature_matches_ode_reference():
    """S0 and oint f dt from one quadrature against trace_orbit plus
    orbit_integral, for 1, p1, p2, Gamma and p1^2 (p1 odd in xi)."""
    terms = {"p1": "1 + x + 0.1*xi", "p2": "0.5 + x^2 + 0.3*xi^2"}
    for name, params in ALL_WELLS:
        sym = builtin(name, {**params, **terms})

        def p1(x, xi):
            return evaluate(sym.p1, x, xi) + 0.0 * x

        def p2(x, xi):
            return evaluate(sym.p2, x, xi) + 0.0 * x

        def gamma(x, xi):
            _, v1, v2 = sym.v_derivs(x)
            return 4.0 * xi * xi * v2 + 2.0 * v1 * v1

        fs = [lambda x, xi: np.ones_like(x), p1, p2, gamma,
              lambda x, xi: p1(x, xi) ** 2]
        for e in (0.3, 0.9):
            s0, ints = orbit_quadrature(sym, e, fs)
            orb = trace_orbit(sym, e)
            ref = [action_s0(orb, rel_tol=1e-12), orb.period,
                   orbit_integral(orb, p1, rel_tol=1e-12),
                   orbit_integral(orb, p2, rel_tol=1e-12),
                   gamma_integral(sym, orb),
                   orbit_integral(orb, fs[4], rel_tol=1e-12)]
            for got, want in zip([s0] + ints, ref):
                assert got == pytest.approx(want, rel=1e-9), (name, e)


def test_quadrature_refuses_a_kinked_well():
    # V = |x| has a kink at the minimum: the node doublings never agree
    with pytest.raises(ConvergenceError):
        orbit_quadrature(from_potential("sqrt(x^2)"), 0.5)


@pytest.mark.parametrize("d, a", [(1.0, 1.0), (3.0, 0.5)])
@pytest.mark.parametrize("frac", [0.9, 0.99, 0.999])
def test_quadrature_converges_near_dissociation(d, a, frac):
    # near E = D the right turning point sits where V' is small, and the
    # rounding of E - V(x) at the nodes next to it exceeds 1e-12 relative;
    # the quadrature must still stop, at the closed forms
    # S0 = (2 pi sqrt(D) / a) (1 - sqrt(1 - E/D)) and oint V'' dt = 2 pi a sqrt(D)
    sym = builtin("morse", {"D": d, "a": a})
    s0, (v_dd,) = orbit_quadrature(
        sym, frac * d, [lambda x, xi: sym.v_derivs(x)[2] + 0.0 * x])
    assert s0 == pytest.approx(
        2.0 * math.pi * math.sqrt(d) / a * (1.0 - math.sqrt(1.0 - frac)),
        rel=1e-12)
    assert v_dd == pytest.approx(2.0 * math.pi * a * math.sqrt(d), rel=1e-10)


def test_energy_conservation_along_orbits():
    for name, params in ALL_WELLS:
        sym = builtin(name, params)
        for e in (0.3, 0.9):
            orb = trace_orbit(sym, e)
            _, x, xi = orb.sample_uniform(512)
            drift = np.max(np.abs(sym.p0_value(x, xi) - e))
            assert drift <= 1e-9 * (1.0 + abs(e))


def test_harmonic_period_and_action(harmonic):
    # x(t) = sqrt(E) sin(2t): period pi, S0 = oint xi dx = pi E
    for e in (0.25, 1.0):
        orb = trace_orbit(harmonic, e)
        assert orb.period == pytest.approx(math.pi, rel=1e-10)
        assert action_s0(orb) == pytest.approx(math.pi * e, rel=1e-10)


def test_action_derivative_equals_period():
    """dS0/dE = T(E) at 5 energies for every built-in well."""
    eta = 2e-3
    for name, params in ALL_WELLS:
        sym = builtin(name, params)
        for e in np.linspace(0.2, 1.0, 5):
            orbs = {k: trace_orbit(sym, e + k * eta) for k in (-2, -1, 1, 2)}
            s = {k: action_s0(o) for k, o in orbs.items()}
            ds = (s[-2] - 8 * s[-1] + 8 * s[1] - s[2]) / (12 * eta)
            period = trace_orbit(sym, e).period
            assert abs(ds - period) <= 1e-6 * (1.0 + period), (name, e)


def test_action_tolerance_robustness(quartic):
    e = 0.6
    s_a = action_s0(trace_orbit(quartic, e, rtol=1e-11))
    s_b = action_s0(trace_orbit(quartic, e, rtol=5e-12))
    assert abs(s_a - s_b) <= 1e-10 * (1.0 + abs(s_a))


def test_orbit_integral_of_one_is_period(quartic):
    orb = trace_orbit(quartic, 0.5)
    val = orbit_integral(orb, lambda x, xi: np.ones_like(x))
    assert val == pytest.approx(orb.period, rel=1e-12)


def test_orbit_closure(quartic):
    orb = trace_orbit(quartic, 0.8)
    x0, xi0 = orb.at(0.0)
    x1, xi1 = orb.at(orb.period)
    assert math.hypot(x1 - x0, xi1 - xi0) <= 1e-8


def test_focal_frame_harmonic(harmonic):
    e = 1.0
    frame = FocalFrame(harmonic, e, side="right")
    assert frame.x_focal == pytest.approx(1.0, abs=1e-12)
    for xi in (0.1, 0.3, 0.6):
        x = frame.x_of_xi(xi)
        assert x == pytest.approx(math.sqrt(e - xi * xi), rel=1e-12)
        assert frame.alpha(xi) == pytest.approx(2.0 * x, rel=1e-12)
        assert frame.psi_dd(xi) == pytest.approx(xi / x, rel=1e-12)


def test_focal_frame_left_side(quartic):
    frame = FocalFrame(quartic, 0.5, side="left")
    assert frame.x_focal < 0
    x = frame.x_of_xi(0.2)
    assert quartic.p0_value(x, 0.2) == pytest.approx(0.5, abs=1e-12)


def test_turning_points_that_coincide_are_refused():
    # V = 1e200 x^2 at E = 1.5: the roots +-1.2e-100 are within the root
    # solve's absolute tolerance of the minimum, so both come back as 0
    sym = from_potential("1e200*x^2")
    with pytest.raises(OrbitError, match="turning points coincide"):
        turning_points(sym, 1.5)
