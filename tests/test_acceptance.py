"""Acceptance gate: one pass/fail line per criterion.

Each test prints "AC-n PASS" or "AC-n FAIL" and enforces the stated
tolerance and runtime budget.
"""

import math
import time

import numpy as np
import pytest

from semibs import wronlab
from semibs.actions import action_series
from semibs.exprjet import evaluate, jet_eval, parse
from semibs.oracle import _solve_on_grid, OracleConfig, oracle_spectrum
from semibs.quantize import (S2_SIGN, attach_oracle, bs_solve,
                             convergence_fit, gram_scan)
from semibs.symbols import EnergyWindow, builtin


def _verdict(name, ok, t0, budget):
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= budget
    print(f"{name} {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)")
    assert ok, f"{name} failed (elapsed {elapsed:.1f}s, budget {budget}s)"


def test_ac1_harmonic_exactness(harmonic, window):
    """Order-0 harmonic levels are h(2n+1), and the oracle agrees."""
    t0 = time.perf_counter()
    ok = True
    for h in (0.1, 0.05):
        table = bs_solve(harmonic, h, window, order=0)
        ref = oracle_spectrum(harmonic, h, window)
        ok = ok and len(table.rows) == len(ref)
        for row, e_ref in zip(table.rows, ref):
            exact = h * (2 * row.n + 1)
            ok = ok and abs(row.e_order0 - exact) <= 1e-8
            ok = ok and abs(e_ref - exact) <= 1e-8
    _verdict("AC-1", ok, t0, 5.0)


def test_ac2_vanishing_correction(harmonic):
    """S2 = 0 for the harmonic well; p2 = c contributes exactly -c pi."""
    t0 = time.perf_counter()
    ok = True
    for e in np.linspace(0.2, 1.0, 5):
        s2 = action_series(harmonic, e, eta=0.02).s2
        ok = ok and abs(s2) <= 1e-8 * (1.0 + abs(e))
    c = 0.37
    with_p2 = builtin("harmonic", {"p2": f"{c}"})
    s2_c = action_series(with_p2, 0.5, eta=0.02).s2
    ok = ok and abs(s2_c - (-c * math.pi)) <= 1e-8
    _verdict("AC-2", ok, t0, 5.0)


def _oracle_levels(sym, h, window):
    """Node count -> oracle eigenvalue, the pairing attach_oracle takes."""
    energies, counts = oracle_spectrum(sym, h, window, return_counts=True)
    return dict(zip(counts, energies))


def test_ac3_order_improvement(quartic, window):
    """Quartic well: order-2 errors are strictly smaller and decay faster
    under h-refinement; this run also pins down the sign of the h^2 term."""
    t0 = time.perf_counter()
    hs = (0.2, 0.1, 0.05, 0.025)
    errs0, errs1, errs2 = [], [], []
    for h in hs:
        table = bs_solve(quartic, h, window, order=2)
        attach_oracle(table, _oracle_levels(quartic, h, window))
        errs0.append((h, max(r.err0 for r in table.rows)))
        errs1.append((h, max(abs(r.e_order1 - r.e_oracle)
                             for r in table.rows)))
        errs2.append((h, max(r.err2 for r in table.rows)))
    slope0, _, _ = convergence_fit(errs0)
    slope1, _, _ = convergence_fit(errs1)
    slope2, _, _ = convergence_fit(errs2)
    ok = 1.6 <= slope0 <= 2.4 and 1.6 <= slope1 <= 2.4 and slope2 >= 3.5
    for (h, e0), (_, e2) in zip(errs0, errs2):
        if h <= 0.1:
            ok = ok and e2 < e0
    # calibration: the recorded sign must beat the flipped one
    h_cal = 0.05
    flipped = bs_solve(quartic, h_cal, window, order=2, s2_sign=-S2_SIGN)
    attach_oracle(flipped, _oracle_levels(quartic, h_cal, window))
    err_flipped = max(r.err2 for r in flipped.rows)
    err_recorded = dict(errs2)[h_cal]
    ok = ok and err_recorded < err_flipped
    print(f"AC-3 s2_sign recorded as {S2_SIGN:+.0f} "
          f"(err {err_recorded:.2e} vs flipped {err_flipped:.2e})")
    _verdict("AC-3", ok, t0, 120.0)


def test_ac4_subprincipal_shift(harmonic, window):
    """A constant p1 = c shifts every order->=1 level by exactly c h."""
    t0 = time.perf_counter()
    c, h = 0.25, 0.1
    shifted = builtin("harmonic", {"p1": f"{c}"})
    base = bs_solve(harmonic, h, window, order=1)
    pert = bs_solve(shifted, h, window, order=1)
    ok = len(base.rows) == len(pert.rows)
    for rb, rp in zip(base.rows, pert.rows):
        ok = ok and abs((rp.e_order1 - rb.e_order1) - c * h) <= 1e-10
    # the oracle on V + h c sees the same spectrum
    vplus = builtin("custom", {"potential": f"x^2 + {c * h}"})
    ref = oracle_spectrum(vplus, h, EnergyWindow(window.e_min + c * h,
                                                 window.e_max + c * h))
    ok = ok and len(ref) == len(pert.rows)
    for rp, e_ref in zip(pert.rows, ref):
        ok = ok and abs(rp.e_order1 - e_ref) <= 1e-8
    _verdict("AC-4", ok, t0, 5.0)


def test_ac5_gram_bs_equivalence(harmonic, quartic, window):
    """Gram-determinant zeros coincide with the quantization roots."""
    t0 = time.perf_counter()
    h = 0.05
    ok = True
    for sym in (harmonic, quartic):
        roots = bs_solve(sym, h, window, order=0).energies(0)
        _, zeros = gram_scan(sym, window, h, steps=200, order=0)
        ok = ok and len(zeros) == len(roots)
        for z, r in zip(sorted(zeros), sorted(roots)):
            ok = ok and abs(z - r) <= 1e-8 * (1.0 + abs(r))
    _verdict("AC-5", ok, t0, 30.0)


def _fixed_grid_for_halving(sym, e, h_big, h_small, chi):
    """Grid on the admissible interval of the larger h, spaced for the
    smaller h, resolving the cutoff transition."""
    coarse = wronlab.default_grid(sym, e, h_big)
    fine_dx = float(np.diff(wronlab.default_grid(sym, e, h_small)[:2])[0])
    fine_dx = min(fine_dx, (chi.r2 - chi.r1) / 64.0)
    n = int(math.ceil((coarse[-1] - coarse[0]) / fine_dx)) + 1
    return np.linspace(coarse[0], coarse[-1], n)


def test_ac6_wronskian_suite(harmonic):
    """Exact identity, flux-norm decay, O(h^inf) smallness, Gram matrix."""
    t0 = time.perf_counter()
    e, h_big, h_small = 0.5, 0.05, 0.025
    ok = True

    # (a) exact-solution commutator identity at 1e-8
    xs_id = np.linspace(-0.45, 0.45, 1201)
    span = float(xs_id[-1] - xs_id[0])
    shapes = [
        wronlab.CutoffSpec(center=float(xs_id[-1]) + 0.3 * span,
                           r1=0.45 * span, r2=0.9 * span),
        wronlab.CutoffSpec(center=float(xs_id[-1]) + 0.1 * span,
                           r1=0.3 * span, r2=0.95 * span),
        wronlab.CutoffSpec(center=float(xs_id[0]) - 0.3 * span,
                           r1=0.45 * span, r2=0.9 * span),
    ]
    for energy in np.linspace(0.3, 0.9, 5):
        for chi in shapes:
            lhs, rhs = wronlab.commutator_wronskian_identity(
                harmonic, energy, 1.0, chi, xs_id)
            ok = ok and abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))

    # (b) |W - 1| <= 0.1 at h = 0.05 and first-order decay under halving,
    # measured on a fixed grid and cutoff with a nonzero subprincipal term
    sym_p1 = builtin("harmonic", {"p1": "x^2"})
    chi = wronlab.default_cutoff(sym_p1, e, h_big, "a")
    xs = _fixed_grid_for_halving(sym_p1, e, h_big, h_small, chi)
    rep_big = wronlab.flux_norm_check(sym_p1, e, h_big, "a", chi=chi,
                                      order=1, xs=xs)
    rep_small = wronlab.flux_norm_check(sym_p1, e, h_small, "a", chi=chi,
                                        order=1, xs=xs)
    ok = ok and rep_big.residual <= 0.1
    ratio = rep_big.residual / rep_small.residual
    ok = ok and 1.5 <= ratio <= 3.0

    # (c) O(h^inf) quantities: mixed terms and cutoff differences halve by
    # >= 6x, or sit below the quadrature floor 1e-10
    def _floor_or_fast(big, small):
        return small <= 1e-10 or big / small >= 6.0

    mixed_big = abs(rep_big.mixed_pm) / max(rep_big.norm_sq, 1.0)
    mixed_small = abs(rep_small.mixed_pm) / max(rep_small.norm_sq, 1.0)
    ok = ok and _floor_or_fast(mixed_big, mixed_small)

    diffs = {}
    for h in (h_big, h_small):
        grid = wronlab.default_grid(harmonic, e, h,
                                    points_per_oscillation=250)
        rep = wronlab.chi_independence_check(harmonic, e, h, "a", xs=grid)
        diffs[h] = rep.difference / max(rep.norm_sq, 1.0)
        ok = ok and abs(rep.sum_identity) <= 1e-4 * max(rep.norm_sq, 1.0)
    ok = ok and _floor_or_fast(diffs[h_big], diffs[h_small])

    # (d) numeric Gram determinant vs the closed form, at and between levels
    for energy in (0.55, 0.5):
        gram = wronlab.gram_numeric(harmonic, energy, h_big)
        ok = ok and abs(gram.det - gram.analytic_det) <= 0.05
    _verdict("AC-6", ok, t0, 120.0)


def test_ac7_jet_correctness(rng):
    """Jet partials match high-order finite differences, relative 1e-6."""
    from test_exprjet import _fd_partial, _random_expr_text
    t0 = time.perf_counter()
    ok = True
    for _ in range(100):
        text = _random_expr_text(rng)
        expr = parse(text)
        x = float(rng.uniform(-1.2, 1.2))
        xi = float(rng.uniform(-1.2, 1.2))
        jet = jet_eval(expr, (x, xi))
        for i in range(3):
            for j in range(3):
                ref = _fd_partial(lambda a, b: evaluate(expr, a, b),
                                  x, xi, i, j)
                ok = ok and abs(jet.derivative(i, j) - ref) <= \
                    1e-6 * (1.0 + abs(ref))
    _verdict("AC-7", ok, t0, 5.0)


def test_ac8_oracle_self_test(harmonic, window):
    """Numerov convergence order >= 4 and Dirichlet-domain robustness."""
    t0 = time.perf_counter()
    h, exact = 0.1, 0.3
    errs = []
    for n in (251, 501, 1001, 2001):
        xs = np.linspace(-3.0, 3.0, n)
        v = harmonic.v(xs)
        dx = xs[1] - xs[0]
        e = _solve_on_grid(v, dx, h, int(np.argmin(v)), 0.05, 1.0, 1, 1e-14)
        errs.append((dx, abs(e - exact)))
    slope, _, _ = convergence_fit(errs)
    ratios = [errs[i][1] / errs[i + 1][1] for i in range(len(errs) - 1)]
    ok = slope >= 3.9 and all(r >= 14.0 for r in ratios)

    e_base = oracle_spectrum(harmonic, h, window,
                             OracleConfig(halfwidth_factor=2.0))
    e_wide = oracle_spectrum(harmonic, h, window,
                             OracleConfig(halfwidth_factor=2.5))
    ok = ok and len(e_base) == len(e_wide)
    for a, b in zip(e_base, e_wide):
        ok = ok and abs(a - b) <= 1e-10 * (1.0 + abs(a))
    _verdict("AC-8", ok, t0, 30.0)
