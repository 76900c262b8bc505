"""Independent Numerov eigenvalue oracle."""

import inspect
import sys

import numpy as np
import pytest

from semibs import orbit
from semibs.exprjet import parse
from semibs.oracle import (OracleConfig, OracleError, _solve_on_grid,
                           eigenfunction, oracle_spectrum)
from semibs.quantize import convergence_fit
from semibs.symbols import EnergyWindow, HamiltonianSymbol, builtin


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


def test_oracle_requires_schrodinger_symbol(window):
    sym = HamiltonianSymbol(p0=parse("xi^2 + x^2"), p1=parse("0"),
                            p2=parse("0"))
    with pytest.raises(OracleError):
        oracle_spectrum(sym, 0.1, window)


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
