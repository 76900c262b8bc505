"""Symbol construction and single-well validation."""

import numpy as np
import pytest

from semibs import oracle, orbit, symbols
from semibs.symbols import (EnergyWindow, SymbolError, builtin,
                            from_potential, validate_well)


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
    assert sym.schrodinger
    assert sym.p0_value(1.0, 2.0) == pytest.approx(5.0)
    v, v1, v2 = sym.v_derivs(1.5)
    assert (v, v1, v2) == (pytest.approx(2.25), pytest.approx(3.0),
                           pytest.approx(2.0))


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


def test_validate_well_rejects_minimum_above_window():
    sym = from_potential("x^2 + 0.5")
    report = validate_well(sym, EnergyWindow(0.05, 1.0))
    assert not report.ok
    assert any("not below e_min" in msg for msg in report.failures)


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
