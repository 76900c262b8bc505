"""Quantization-condition solving and the analytic Gram determinant."""

import math
import sys

import numpy as np
import pytest

from semibs import actions, orbit, quantize
from semibs.actions import action_series
from semibs.oracle import oracle_spectrum
from semibs.orbit import ConvergenceError
from semibs.quantize import (TABLE_NODES, QuantizeError, SEffTable,
                             attach_oracle, bs_solve, convergence_fit,
                             gram_det, gram_scan)
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


def test_a_non_monotone_s_eff_yields_its_first_root():
    """On x^2 with p2 = 400 x^4 - 192 x^6 at h = 0.1, S_eff at order 2 is
    exactly pi (E - 1.5 E^2 + 0.6 E^3), which rises, falls and rises again
    on [0.1, 2]: the target of level 0 has three roots there, and the row
    carries the first."""
    h = 0.1
    sym = builtin("harmonic", {"p2": "400*x^4 - 192*x^6"})
    table = bs_solve(sym, h, EnergyWindow(0.1, 2.0), order=2)
    assert [r.n for r in table.rows] == [0, 1, 2, 3]
    for r in table.rows:
        roots = np.roots([0.6, -1.5, 1.0, -2.0 * h * (r.n + 0.5)])
        roots = np.sort(roots[np.abs(roots.imag) < 1e-12].real)
        assert len(roots) == (3 if r.n == 0 else 1)
        assert r.e_order2 == pytest.approx(roots[0], abs=1e-9)
        # S0 = pi E: orders 0 and 1 are the harmonic levels
        assert r.e_order0 == pytest.approx(h * (2 * r.n + 1), abs=1e-10)
        assert r.e_order1 == r.e_order0


def test_a_lower_order_level_beyond_the_pad_extends_the_table():
    """x^2 with p2 = 30 x^2 at h = 0.2: S_eff = 0.4 pi E, so level 0 sits
    at E = 0.5 in [0.3, 2], while its order-0 level E = 0.2 lies below the
    table's padded edge 0.215; the table grows down to reach it."""
    sym = builtin("harmonic", {"p2": "30*x^2"})
    table = bs_solve(sym, 0.2, EnergyWindow(0.3, 2.0), order=2)
    assert [r.n for r in table.rows] == [0, 1]
    for r in table.rows:
        assert r.e_order2 == pytest.approx(r.n + 0.5, abs=1e-9)
        assert r.e_order0 == pytest.approx(0.4 * (r.n + 0.5), abs=1e-10)


def test_a_lower_order_level_above_the_pad_extends_the_table_up(
        monkeypatch):
    """x^2 with p2 = -30 x^2 at h = 0.2: S_eff = 1.6 pi E, so level 2 sits
    at E = 0.625 in [0.3, 0.7], while its order-0 level E = 1.0 lies above
    the table's padded edge 0.72; the table grows up to reach it."""
    downs = []
    extend = SEffTable.extend

    def recorded(table, down):
        downs.append(down)
        extend(table, down)

    monkeypatch.setattr(SEffTable, "extend", recorded)
    sym = builtin("harmonic", {"p2": "-30*x^2"})
    table = bs_solve(sym, 0.2, EnergyWindow(0.3, 0.7), order=2)
    assert downs and not any(downs)
    assert [r.n for r in table.rows] == [1, 2]
    for r in table.rows:
        assert r.e_order2 == pytest.approx(0.25 * (r.n + 0.5), abs=1e-9)
        assert r.e_order0 == pytest.approx(0.4 * (r.n + 0.5), abs=1e-10)


def test_s0_not_increasing_is_refused(monkeypatch, harmonic, window):
    def quadrature(sym, e, fs=(), rel_tol=1e-12):   # S0 dips in the window
        e = np.asarray(e, dtype=float)
        return e - 0.2 * np.sin(8.0 * e), [np.zeros_like(e) for _ in fs]

    monkeypatch.setattr(quantize, "orbit_quadrature", quadrature)
    with pytest.raises(QuantizeError, match="S0 is not increasing"):
        bs_solve(harmonic, 0.1, window, order=0)


def test_the_split_cap_raises_convergence_error(monkeypatch, quartic):
    # quartic [0.05, 1] needs five halvings near the well bottom
    window = EnergyWindow(0.05, 1.0)
    monkeypatch.setattr(quantize, "MAX_SPLIT_ROUNDS", 2)
    with pytest.raises(ConvergenceError, match="split rounds"):
        bs_solve(quartic, 0.05, window, order=2, quad_tol=1e-10)
    with pytest.raises(ConvergenceError, match="split rounds"):
        gram_scan(quartic, window, 0.05, order=0, quad_tol=1e-10)


def test_each_split_round_is_one_array_quadrature(monkeypatch, quartic):
    """Every table piece is filled by the array quadrature of its split
    round: the first call takes TABLE_NODES energies, each later one two
    halves of every piece that failed, and nothing else is integrated."""
    calls = []
    quadrature = orbit.orbit_quadrature

    def counted(sym, e, *args, **kwargs):
        calls.append(np.size(e) if np.ndim(e) else 0)
        return quadrature(sym, e, *args, **kwargs)

    for module in (quantize, actions, orbit):
        monkeypatch.setattr(module, "orbit_quadrature", counted)
    window = EnergyWindow(0.05, 1.0)
    table = SEffTable.for_window(quartic, 0.05, 2, window, 1e-10)
    pieces = len(table._lo)
    assert pieces > 1 and 0 not in calls
    assert calls[0] == TABLE_NODES
    assert all(n % (2 * TABLE_NODES) == 0 for n in calls[1:])
    assert pieces == 1 + sum(calls[1:]) // (2 * TABLE_NODES)
    table_calls = list(calls)
    calls.clear()
    assert bs_solve(quartic, 0.05, window, order=2, quad_tol=1e-10).rows
    assert calls == table_calls


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
    eta = 0.02 * (window.e_max - window.e_min)
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
    """The table at an energy array gives what scalar quadratures give at
    each energy: S0 and S0 - h oint p1 dt to the table's tail tolerance,
    and S2 to the error of a fine S2 stencil (eta = 1e-3), which divides
    the quadrature's rounding by eta: up to 5e-10 on the Morse well, whose
    S2 is 0 and which the table gets to 6e-12."""
    h = 0.1
    sym = builtin(name, {**params, "p1": p1})
    table = SEffTable.for_window(sym, h, 2, window)
    es = np.linspace(window.e_min, window.e_max, 9)
    s0, s1 = table.value(es, 0), table.value(es, 1)
    s2 = (table.value(es, 2) - s1) / (h * h)
    for k, e in enumerate(es):
        ser = action_series(sym, e, 1e-3)
        assert s0[k] == pytest.approx(ser.s0, rel=1e-11)
        assert s1[k] == pytest.approx(ser.s0 - h * ser.sub_principal,
                                      rel=1e-11)
        assert s2[k] == pytest.approx(ser.s2, rel=1e-8, abs=2e-9)


def _clenshaw(c, t):
    """sum_k c[i, k] T_k(t[i]) for every row i, by Clenshaw's recurrence:
    how the table read its series before its one basis per read, kept as
    the reference for it."""
    b1 = b2 = 0.0
    for k in range(c.shape[1] - 1, 0, -1):
        b1, b2 = c[:, k] + 2.0 * t * b1 - b2, b1
    return c[:, 0] + t * b1 - b2


@pytest.mark.parametrize("name, params", WELLS)
def test_table_reads_match_the_clenshaw_recurrence(name, params):
    """A read through the Chebyshev basis is Clenshaw's sum to within
    4 eps sum_k |c_k| (2 eps measured), on every piece and order, at both
    ends t = -1 and 1 of a piece and one ulp inside them too."""
    sym = builtin(name, {**params, "p1": "0.2*x^2", "p2": "0.5*x^2"})
    table = SEffTable.for_window(sym, 0.05, 2, EnergyWindow(0.05, 1.0),
                                 1e-10)
    t = np.concatenate([[-1.0, 1.0, np.nextafter(-1.0, 0.0),
                         np.nextafter(1.0, 0.0)], np.linspace(-1, 1, 101)])
    for order in range(3):
        for p, (lo, hi) in enumerate(zip(table._lo, table._hi)):
            e = np.where(t == -1.0, lo, np.where(
                t == 1.0, hi, lo + 0.5 * (hi - lo) * (t + 1.0)))
            c = table._series[order][[p] * t.size]
            got = table._read(order, np.full(t.size, p), e)
            ref = _clenshaw(c, (2.0 * e - lo - hi) / (hi - lo))
            bound = 4.0 * np.finfo(float).eps * np.abs(c[0]).sum()
            assert np.all(np.abs(got - ref) <= bound), (order, p)
    es = np.linspace(table.lo, table.hi, 57)
    i = table._piece(es)
    lo, hi = table._lo[i], table._hi[i]
    for order in range(3):
        c = table._series[order][i]
        ref = _clenshaw(c, (2.0 * es - lo - hi) / (hi - lo))
        bound = 4.0 * np.finfo(float).eps * np.abs(c).sum(axis=1)
        assert np.all(np.abs(table.value(es, order) - ref) <= bound)


@pytest.mark.parametrize("case", ["split", "quartic bottom", "non-monotone"])
def test_one_root_pass_gives_every_orders_roots(case):
    """The roots ``level_roots`` finds for orders 0, 1 and 2 in one pass
    are, bit for bit, those of a pass per order: on a table of several
    pieces; on x^4 from E = 1e-6 at h = 0.05, where order-2 S_eff starts
    near -40; and on the harmonic well whose order-2 S_eff rises, falls
    and rises again (``test_a_non_monotone_s_eff_yields_its_first_root``)."""
    sym, h, window, quad_tol = {
        "split": (builtin("quartic", {"p1": "0.2*x^2", "p2": "0.5*x^2"}),
                  0.05, EnergyWindow(0.05, 1.0), 1e-10),
        "quartic bottom": (builtin("quartic"), 0.05, EnergyWindow(1e-6, 1.0),
                           1e-12),
        "non-monotone": (builtin("harmonic", {"p2": "400*x^4 - 192*x^6"}),
                         0.1, EnergyWindow(0.1, 2.0), 1e-12)}[case]
    table = SEffTable.for_window(sym, h, 2, window, quad_tol)
    s = table.value(table.monotone_cuts(2, table.lo, table.hi), 2)
    assert {"split": len(table._lo) > 1, "quartic bottom": s.min() < -30.0,
            "non-monotone": np.any(np.diff(s) < 0.0)}[case]
    targets = 2.0 * math.pi * h * (quantize._level_ks(table, 2, window) + 0.5)
    levels = quantize._levels(table, 2, targets, window, 1e-10)
    ms, ks, es = table.level_roots(range(3), targets, table.lo, table.hi,
                                   1e-10)
    assert ms.tolist() == sorted(ms.tolist())
    for m in range(3):
        k1, e1 = table.roots(m, targets, table.lo, table.hi, 1e-10)
        assert k1.size and np.array_equal(ks[ms == m], k1)
        assert np.array_equal(es[ms == m], e1)
        # each level is its order's first root in the window, else the
        # root nearest to it
        for k, level in enumerate(levels[m]):
            e = e1[k1 == k]
            d = np.maximum(window.e_min - e, e - window.e_max)
            assert level == (e[d <= 0.0][0] if np.any(d <= 0.0)
                             else e[np.argmin(d)])


@pytest.mark.parametrize("order", [0, 1, 2])
def test_gram_scan_evaluates_its_grid_in_array_calls(monkeypatch, window,
                                                     order):
    # energies per quadrature call, 0 for a number
    quads = []
    quadrature = orbit.orbit_quadrature

    def counted_quadrature(sym, e, *args, **kwargs):
        quads.append(np.size(e) if np.ndim(e) else 0)
        return quadrature(sym, e, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("a scalar S_eff evaluation in gram_scan")

    for module in (quantize, actions):
        monkeypatch.setattr(module, "orbit_quadrature", counted_quadrature)
    monkeypatch.setattr(quantize, "action_series", refuse)
    monkeypatch.setattr(quantize, "gram_det", refuse)
    sym = builtin("anharmonic", {"lam": 0.3, "p1": "0.2*x"})
    evals, zeros = gram_scan(sym, window, 0.1, steps=200, order=order)
    assert len(evals) == 200 and zeros
    # the 200-point grid and its zeros read one table: one array call for
    # its first piece, then one per split round (one round here at order 2)
    assert quads[0] == TABLE_NODES and 0 not in quads
    assert len(quads) == (2 if order == 2 else 1)
    monkeypatch.undo()
    for z in zeros:
        assert abs(gram_det(sym, z, 0.1, order=order, eta=1e-3).det) <= 1e-16


def test_gram_scan_zeros_match_bs_roots(harmonic, window):
    h = 0.1
    table = bs_solve(harmonic, h, window, order=0)
    _, zeros = gram_scan(harmonic, window, h, steps=120, order=0)
    roots = table.energies(0)
    assert len(zeros) == len(roots)
    for z, r in zip(sorted(zeros), sorted(roots)):
        assert abs(z - r) <= 1e-8 * (1.0 + abs(r))


def test_gram_zeros_from_the_well_bottom_are_the_rows(quartic):
    """On x^4 at h = 0.05 from E = 1e-6, h^2 S2 drives order-2 S_eff to
    -23 at the window's lower end, where the targets of k < 0 have roots
    but no level lies: the zeros are the E_bs2 of the 11 rows, k = 0..10."""
    h, window = 0.05, EnergyWindow(1e-6, 1.0)
    rows = bs_solve(quartic, h, window, order=2).rows
    _, zeros = gram_scan(quartic, window, h, order=2)
    assert [r.n for r in rows] == list(range(11))
    assert zeros == pytest.approx([r.e_order2 for r in rows], abs=1e-12)


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
