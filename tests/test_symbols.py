"""Symbol construction and single-well validation."""

import numpy as np
import pytest

from semibs import oracle, orbit, symbols
from semibs.exprjet import parse
from semibs.symbols import (EnergyWindow, HamiltonianSymbol, SymbolError,
                            builtin, from_potential, validate_well)


def test_builtin_potentials_evaluate():
    assert builtin("harmonic").v(2.0) == pytest.approx(4.0)
    assert builtin("quartic").v(2.0) == pytest.approx(16.0)
    anh = builtin("anharmonic", {"lam": 0.25})
    assert anh.v(2.0) == pytest.approx(4.0 + 0.25 * 16.0)
    mor = builtin("morse", {"D": 3.0, "a": 0.5})
    assert mor.v(0.0) == pytest.approx(0.0)
    assert mor.v(40.0) == pytest.approx(3.0, rel=1e-8)


def test_builtin_accepts_lambda_alias():
    anh = builtin("anharmonic", {"lambda": 0.25})
    assert anh.v(1.0) == pytest.approx(1.25)


def test_potential_must_not_read_xi():
    with pytest.raises(SymbolError, match="must not read xi"):
        from_potential("x^2 + xi")
    with pytest.raises(SymbolError, match="must not read xi"):
        builtin("custom", {"potential": "x^2*cos(xi)"})


def test_builtin_parameter_errors():
    with pytest.raises(SymbolError):
        builtin("morse")  # missing D, a
    with pytest.raises(SymbolError):
        builtin("no-such-well")
    with pytest.raises(SymbolError):
        builtin("custom")  # needs a potential expression


def test_p1_p2_overrides():
    sym = builtin("harmonic", {"p1": "0.3", "p2": "x^2"})
    from semibs.exprjet import evaluate
    assert evaluate(sym.p1, 1.0, 0.0) == pytest.approx(0.3)
    assert evaluate(sym.p2, 2.0, 0.0) == pytest.approx(4.0)


def test_schrodinger_form():
    sym = builtin("harmonic")
    assert sym.p0_value(1.0, 2.0) == pytest.approx(5.0)
    v, v1, v2 = sym.v_derivs(1.5)
    assert (v, v1, v2) == (pytest.approx(2.25), pytest.approx(3.0),
                           pytest.approx(2.0))


@pytest.mark.parametrize("v_text, params", [
    ("x^2", {}), ("D*(1 - exp(-a*x))^2", {"D": 3.0, "a": 0.5}),
    ("-x^2 + x^4 - 2", {}), ("x^2 + lam*x^4", {"lam": -0.1})])
def test_p0_is_the_tree_of_xi_squared_plus_v(v_text, params):
    # p0 is built from the parsed V, and equals parsing "xi^2 + (V)"
    sym = from_potential(v_text, params=params)
    assert sym.p0 == parse(f"xi^2 + ({v_text})", params)
    assert hash(sym.p0) == hash(parse(f"xi^2 + ({v_text})", params))


def test_energy_window_requires_order():
    with pytest.raises(SymbolError):
        EnergyWindow(1.0, 0.5)


def test_validate_well_accepts_builtins(window):
    for sym in (builtin("harmonic"), builtin("quartic"),
                builtin("anharmonic", {"lam": 0.3}),
                builtin("morse", {"D": 3.0, "a": 0.5})):
        report = validate_well(sym, window)
        assert report.ok, report.failures
        assert report.v_min < window.e_min
        assert report.margin > 0


def test_validate_well_rejects_double_well(window):
    sym = from_potential("(x^2 - 1)^2")
    report = validate_well(sym, window)
    assert not report.ok
    assert any("multiple wells" in msg for msg in report.failures)


def test_validate_well_takes_every_turning_point_in_one_call(monkeypatch,
                                                             window):
    """One array v_derivs call at the coarse turning points of all the
    energies sampled; the margin is the least |V'| among them."""
    calls = []
    v_derivs = HamiltonianSymbol.v_derivs

    def recorded(self, x):
        calls.append(np.size(x))
        return v_derivs(self, x)

    monkeypatch.setattr(HamiltonianSymbol, "v_derivs", recorded)
    sym = builtin("morse", {"D": 3.0, "a": 0.5})
    report = validate_well(sym, window)
    assert report.ok and calls == [2 * symbols.WELL_ENERGY_SAMPLES]
    xs = np.linspace(*report.scan_domain, symbols.WELL_GRID_POINTS)
    margin = np.inf
    for e in np.linspace(window.e_min, window.e_max,
                         symbols.WELL_ENERGY_SAMPLES):
        i = np.flatnonzero(np.diff(np.signbit(sym.v(xs) - e)))
        _, v1, _ = v_derivs(sym, 0.5 * (xs[i] + xs[i + 1]))
        margin = min(margin, float(np.min(np.abs(v1))))
    assert report.margin == pytest.approx(margin, rel=1e-14)
    # past the first energy whose {V <= E} is not one interval, nothing is
    # checked: (x^2 - 1)^2 has two wells below 1
    del calls[:]
    report = validate_well(from_potential("(x^2 - 1)^2"), window)
    assert report.failures == [
        "multiple wells: {V <= 0.08} has 2 components"]
    assert calls == []


def test_validate_well_takes_v_prime_at_the_crossing_near_a_flat_point(
        monkeypatch):
    """V' = 4u(u - 1)^2, u = x + 0.4996: the flat point x = 0.5004 is
    1.5e-4 from the grid midpoint 0.50025, where |V'| = 9e-8 passes; only
    that cell is refined, and V' at its crossing, 1.3e-10, fails.  A well
    whose turning points sit next to its minimum is not refined: there they
    are the orbit layer's to refuse as too close to resolve."""
    calls = []
    v_derivs = HamiltonianSymbol.v_derivs

    def recorded(self, x):
        calls.append(np.size(x))
        return v_derivs(self, x)

    monkeypatch.setattr(HamiltonianSymbol, "v_derivs", recorded)
    sym = from_potential("(x + 0.4996)^4 - 8/3*(x + 0.4996)^3"
                         " + 2*(x + 0.4996)^2")
    report = validate_well(sym, EnergyWindow(0.3333333333333335, 0.5))
    assert report.failures == [
        "degenerate turning point near x = 0.50025 at E = 0.333333"]
    assert 1e-11 < report.margin < 1e-9
    assert calls == [2 * symbols.WELL_ENERGY_SAMPLES, 1]
    # from E = 0.3333 the crossings lie 0.03 from the flat point or more:
    # no cell is refined, and the well passes
    del calls[:]
    assert validate_well(sym, EnergyWindow(0.3333, 0.5))
    assert calls == [2 * symbols.WELL_ENERGY_SAMPLES]
    # 1e200 x^2: V' is 0 in the cell next to each turning point
    del calls[:]
    narrow = from_potential("1e200*x^2")
    assert validate_well(narrow, EnergyWindow(1.0, 2.0))
    assert calls == [2 * symbols.WELL_ENERGY_SAMPLES]


def test_validate_well_rejects_minimum_above_window():
    sym = from_potential("x^2 + 0.5")
    report = validate_well(sym, EnergyWindow(0.05, 1.0))
    assert not report.ok
    assert any("not below e_min" in msg for msg in report.failures)


def test_validate_well_rejects_a_degenerate_turning_point():
    # V' = 4u(u - 1)^2, u = x + 0.49975: a well whose V' and V'' vanish at
    # u = 1, which lies half-way between two points of the 4001-point grid
    # on the scan domain [-1, 1]; at E = V there the coarse turning point
    # is that midpoint, where V' is 0 to rounding
    sym = from_potential("(x + 0.49975)^4 - 8/3*(x + 0.49975)^3"
                         " + 2*(x + 0.49975)^2")
    e_flat = float(sym.v(0.50025))
    report = validate_well(sym, EnergyWindow(e_flat, 0.5))
    assert report.scan_domain == (-1.0, 1.0)
    assert report.failures == [
        "degenerate turning point near x = 0.50025 at E = 0.333333"]
    assert report.margin < 1e-12
    # off the flat point the same well passes
    assert validate_well(sym, EnergyWindow(0.1, 0.3))


def test_validate_well_rejects_unconfined_window():
    sym = from_potential("1 - 1/(1 + x^2)")  # asymptote V -> 1
    report = validate_well(sym, EnergyWindow(0.1, 2.0))
    assert not report.ok


def test_validate_well_when_grid_neighbours_tie():
    # minima half-way between two points of the orbit scan grid (0.15) and
    # of this function's own 4001-point grid (0.155)
    window = EnergyWindow(0.1, 0.6)
    for c in (0.15, 0.155):
        sym = from_potential(f"x^2 + 0.1*(0.2 + {c}*x)")
        report = validate_well(sym, window)
        assert report.ok, report.failures
        assert report.x0 == pytest.approx(-0.05 * c, abs=1e-7)
        assert report.v_min == pytest.approx(0.02 - 0.0025 * c * c,
                                             abs=1e-13)


def test_well_minimum_location(window):
    sym = builtin("morse", {"D": 3.0, "a": 0.5})
    report = validate_well(sym, window)
    assert report.x0 == pytest.approx(0.0, abs=1e-9)
    assert report.v_min == pytest.approx(0.0, abs=1e-12)


def test_one_minimum_search_per_well():
    # validate_well, turning_points and the oracle's domain share the
    # memoised search on the same scan domain
    symbols._grid_minimum.cache_clear()
    orbit._turning_points.cache_clear()
    sym = from_potential("x^2 + 0.3*x^4 - 0.1*x")
    window = EnergyWindow(0.1, 0.9)
    report = validate_well(sym, window)
    assert orbit.turning_points(sym, window.e_max)[0] < report.x0
    oracle._domain(sym, 0.1, window, oracle.OracleConfig())
    info = symbols._grid_minimum.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert symbols.well_minimum(sym.potential, window.e_max) == \
        (report.x0, report.v_min)


def test_scan_domain_stops_inside_a_barrier():
    # x^2 + 0.1 x^3: V(-4) = 9.6 < V(-8) = 12.8 > V(-16), so the top of the
    # barrier between -4 and -16, V(-20/3) = 14.8, is tried after -8
    v = from_potential("x^2 + 0.1*x^3").potential
    assert symbols.scan_domain(v, 12.5) == (-8.0, 4.0)
    lo, hi = symbols.scan_domain(v, 14.5)
    assert lo == pytest.approx(-20.0 / 3.0, abs=1e-6) and hi == 4.0
    assert symbols.scan_domain(v, 15.0) is None
    assert symbols.scan_domain(from_potential("x^2").potential, 1.0) \
        == (-2.0, 2.0)


def test_scan_domain_array_matches_scalar_calls():
    es = np.array([0.5, 2.9, 12.5, 12.9, 14.5, 15.0, 40.0])
    for text in ("x^2 + 0.1*x^3", "3*(1 - exp(-0.5*x))^2", "x^4"):
        v = from_potential(text).potential
        lo, hi = symbols.scan_domain_array(v, es)
        x0, v0 = symbols.well_minimum_array(v, es)
        for i, e in enumerate(es):
            dom = symbols.scan_domain(v, e)
            bottom = symbols.well_minimum(v, e)
            if dom is None:
                assert np.isnan([lo[i], hi[i], x0[i], v0[i]]).all()
            else:
                assert (lo[i], hi[i]) == dom and (x0[i], v0[i]) == bottom
