"""Quantization-condition solving and the analytic Gram determinant."""

import math
import sys

import numpy as np
import pytest

from semibs import actions, orbit, quantize
from semibs.oracle import oracle_spectrum
from semibs.quantize import (QuantizeError, _SeriesEvaluator, attach_oracle,
                             bs_solve, convergence_fit, gram_det, gram_scan,
                             resolve_eta)
from semibs.symbols import EnergyWindow, builtin


def test_harmonic_order0_levels_exact(harmonic, window):
    h = 0.1
    table = bs_solve(harmonic, h, window, order=0)
    assert [r.n for r in table.rows] == list(range(5))
    for r in table.rows:
        assert r.e_order0 == pytest.approx(h * (2 * r.n + 1), abs=1e-10)


def test_orders_share_root_when_corrections_vanish(harmonic, window):
    # p1 = p2 = 0 and S2 = 0: all three orders coincide for the harmonic well
    table = bs_solve(harmonic, 0.1, window, order=2)
    for r in table.rows:
        assert r.e_order1 == pytest.approx(r.e_order0, abs=1e-9)
        assert r.e_order2 == pytest.approx(r.e_order0, abs=1e-8)


def test_subprincipal_shift_covariance(harmonic, window):
    c, h = 0.3, 0.1
    shifted = builtin("harmonic", {"p1": f"{c}"})
    base = bs_solve(harmonic, h, window, order=1)
    pert = bs_solve(shifted, h, window, order=1)
    for rb, rp in zip(base.rows, pert.rows):
        assert rp.e_order1 - rb.e_order1 == pytest.approx(c * h, abs=1e-8)


def test_constant_p2_shifts_levels_by_c_h2():
    # -h^2 d^2/dx^2 + x^2 + c h^2: every level moves up by exactly c h^2
    c, h = 2.0, 0.05
    sym = builtin("harmonic", {"p2": f"{c}"})
    table = bs_solve(sym, h, EnergyWindow(0.1, 0.5), order=2)
    assert [r.n for r in table.rows] == [1, 2, 3, 4]
    assert table.rows[0].e_order2 == pytest.approx(0.155, abs=1e-9)
    for r in table.rows:
        assert r.e_order0 == pytest.approx(h * (2 * r.n + 1), abs=1e-10)
        assert r.e_order2 - r.e_order0 == pytest.approx(c * h * h, abs=1e-9)


def test_quantize_path_traces_no_orbit(monkeypatch, window):
    def refuse(*args, **kwargs):
        raise AssertionError("trace_orbit called on the quantize path")

    original = orbit.trace_orbit
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "semibs" and \
                getattr(module, "trace_orbit", None) is original:
            monkeypatch.setattr(module, "trace_orbit", refuse)
    sym = builtin("anharmonic", {"lam": 0.3, "p1": "0.2*x", "p2": "0.5"})
    assert bs_solve(sym, 0.1, window, order=2).rows
    for order in (0, 1, 2):
        _, zeros = gram_scan(sym, window, 0.1, steps=40, order=order)
        assert zeros


def test_order_monotonicity_quartic(quartic, window):
    h = 0.1
    table = bs_solve(quartic, h, window, order=2)
    ref, counts = oracle_spectrum(quartic, h, window, return_counts=True)
    attach_oracle(table, dict(zip(counts, ref)))
    err0 = max(r.err0 for r in table.rows)
    err2 = max(r.err2 for r in table.rows)
    assert err2 <= err0


def test_attach_oracle_fills_errors(harmonic, window):
    table = bs_solve(harmonic, 0.2, window, order=0)
    attach_oracle(table, {0: 0.2, 1: 0.6, 2: 1.0})
    for r in table.rows:
        assert r.e_oracle is not None
        assert r.err0 == abs(r.e_order0 - r.e_oracle)


def test_attach_oracle_pairs_by_node_count(harmonic, window):
    # an oracle that dropped level 0 leaves row 0 blank and shifts no row
    table = bs_solve(harmonic, 0.2, window, order=0)
    attach_oracle(table, {1: 0.6, 2: 1.0})
    assert [r.e_oracle for r in table.rows] == [None, 0.6, 1.0]
    assert table.rows[0].err0 is None
    assert table.rows[1].err0 == pytest.approx(0.0, abs=1e-9)


def test_bs_solve_argument_validation(harmonic, window):
    with pytest.raises(QuantizeError):
        bs_solve(harmonic, 0.1, window, order=3)
    for h in (-0.1, math.nan, math.inf):
        with pytest.raises(QuantizeError):
            bs_solve(harmonic, h, window)
    with pytest.raises(QuantizeError):
        # window too narrow to contain any level
        bs_solve(harmonic, 0.3, EnergyWindow(0.35, 0.55), order=0)


def test_dense_scan_fallback_levels_solve_the_condition(monkeypatch):
    """A large p2 stalls the fixed point; the dense scan's levels still
    solve the order-2 condition to root_tol."""
    found = []
    dense_scan_roots = quantize._dense_scan_roots

    def spy(ev, e_min, e_max, target, root_tol):
        roots = dense_scan_roots(ev, e_min, e_max, target, root_tol)
        found.append((ev, target, root_tol, roots))
        return roots

    monkeypatch.setattr(quantize, "_dense_scan_roots", spy)
    sym = builtin("harmonic", {"p2": "30*x^2"})
    table = bs_solve(sym, 0.2, EnergyWindow(0.3, 2.0), order=2)
    assert found
    assert [r.e_order2 for r in table.rows] == [f[3][0] for f in found]
    for ev, target, root_tol, roots in found:
        assert ev.order == 2 and roots
        for e in roots:
            lo, hi = (ev.value(e + d) - target for d in (-root_tol, root_tol))
            assert lo * hi <= 0, (e, lo, hi)


def test_gram_det_zero_at_levels_and_minus_one_between(harmonic):
    h = 0.1
    # order-0 closed form: det = -cos^2(S0 / 2h) with S0 = pi E
    for n in range(3):
        at_level = gram_det(harmonic, h * (2 * n + 1), h, order=0)
        assert abs(at_level.det) <= 1e-12
        midway = gram_det(harmonic, h * (2 * n + 2), h, order=0)
        assert midway.det == pytest.approx(-1.0, abs=1e-10)


def test_gram_det_vanishes_at_order2_roots(quartic, window):
    h = 0.05
    table = bs_solve(quartic, h, window, order=2)
    eta = resolve_eta(None, window)
    for e in table.energies(2)[::3]:
        g = gram_det(quartic, e, h, order=2, eta=eta)
        assert abs(g.det) <= 1e-8


def test_gram_det_at_order2_needs_eta(quartic):
    with pytest.raises(QuantizeError, match="needs eta"):
        gram_det(quartic, 0.5, 0.05, order=2)
    assert gram_det(quartic, 0.5, 0.05, order=1).det <= 0.0


WELLS = [("harmonic", {}), ("quartic", {}), ("anharmonic", {"lam": 0.3}),
         ("morse", {"D": 3.0, "a": 0.5})]


@pytest.mark.parametrize("name, params", WELLS)
@pytest.mark.parametrize("p1", ["0", "0.2*x"])
def test_series_arrays_match_scalar_calls(name, params, p1, window):
    """An energy array gives what one call per energy gives: S0 to 4 ulp;
    the terms beyond S0 to the rounding floor of their orbit integrals,
    about 1e-12 relative, which the S2 stencil divides by eta."""
    sym = builtin(name, {**params, "p1": p1})
    es = np.linspace(window.e_min, window.e_max, 17)
    for order in (0, 1, 2):
        ev = _SeriesEvaluator(sym, 0.1, order, resolve_eta(None, window))
        s0, rest = ev.split(es)
        ref = np.array([ev.split(e) for e in es])
        assert np.max(np.abs(s0 - ref[:, 0])
                      / np.spacing(ref[:, 0])) <= 4, order
        assert np.all(np.abs(rest - ref[:, 1])
                      <= 1e-12 * (1.0 + np.abs(ref[:, 1]))), order
        np.testing.assert_allclose(ev.value(es), ref.sum(axis=1),
                                   rtol=1e-12, atol=0)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_gram_scan_evaluates_its_grid_in_array_calls(monkeypatch, window,
                                                     order):
    # energies per call, 0 for a number: of S_eff, and of the quadrature
    series, quads = [], []
    split, quadrature = _SeriesEvaluator.split, orbit.orbit_quadrature

    def counted_split(ev, e):
        series.append(np.size(e) if np.ndim(e) else 0)
        return split(ev, e)

    def counted_quadrature(sym, e, *args, **kwargs):
        quads.append(np.size(e) if np.ndim(e) else 0)
        return quadrature(sym, e, *args, **kwargs)

    monkeypatch.setattr(_SeriesEvaluator, "split", counted_split)
    for module in (quantize, actions):
        monkeypatch.setattr(module, "orbit_quadrature", counted_quadrature)
    sym = builtin("anharmonic", {"lam": 0.3, "p1": "0.2*x"})
    evals, zeros = gram_scan(sym, window, 0.1, steps=200, order=order)
    assert len(evals) == 200 and zeros
    # the grid in one call of S_eff, and of the quadrature (at order 2 a
    # second one for all the S2 stencil energies); numbers only for the
    # zero refinement, about 20 per zero
    assert [n for n in series if n] == [200]
    assert [n for n in quads if n] == [200] + [1200] * (order == 2)
    assert 0 < series.count(0) < 100


def test_gram_scan_zeros_match_bs_roots(harmonic, window):
    h = 0.1
    table = bs_solve(harmonic, h, window, order=0)
    _, zeros = gram_scan(harmonic, window, h, steps=120, order=0)
    roots = table.energies(0)
    assert len(zeros) == len(roots)
    for z, r in zip(sorted(zeros), sorted(roots)):
        assert abs(z - r) <= 1e-8 * (1.0 + abs(r))


def test_gram_scan_grid_shape(harmonic, window):
    evals, _ = gram_scan(harmonic, window, 0.2, steps=50, order=0)
    assert len(evals) == 50
    assert all(-1.0 - 1e-12 <= g.det <= 1e-12 for g in evals)


def test_convergence_fit_recovers_exact_slopes():
    hs = [0.2, 0.1, 0.05, 0.025]
    slope, intercept, residual = convergence_fit(
        [(h, 3.0 * h ** 2) for h in hs])
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert residual <= 1e-13
    slope0, _, _ = convergence_fit([(h, 0.7) for h in hs])
    assert slope0 == pytest.approx(0.0, abs=1e-12)


def test_convergence_fit_input_validation():
    with pytest.raises(QuantizeError):
        convergence_fit([(0.1, 1e-3), (0.05, 1e-4)])
    with pytest.raises(QuantizeError):
        convergence_fit([(0.1, 1e-3), (0.05, 0.0), (0.025, 1e-5)])
    with pytest.raises(QuantizeError):
        convergence_fit([(0.1, 1e-3), (0.1, 1e-4), (0.1, 1e-5)])
