"""The oracle's root solve: Cooley's Newton corrector on the matching
defect, its step from the same sweeps as the defect, and the node counts
that confirm or refuse the root it finds."""

import math

import numpy as np
import pytest

from semibs import oracle
from semibs.oracle import (OracleConfig, _base_grid, _base_grid_error,
                           _domain, _shoot, _solve_on_grid, oracle_spectrum)
from semibs.symbols import EnergyWindow, builtin, from_potential

WELLS = {
    "x^2": builtin("harmonic"),
    "x^4": builtin("quartic"),
    "morse": builtin("morse", {"D": 3.0, "a": 0.5}),
}
# levels 29 .. 56 of LONG_MORSE found by a bracketing root solve (brentq,
# xtol 1e-12) on the same grids
LONG_MORSE = (from_potential("3*(1 - exp(-0.5*x))^2"), 0.05,
              EnergyWindow(2.0, 2.9))
BRACKETED = [
    2.0108686911641898, 2.059971231542656, 2.107823771921054,
    2.1544263122995497, 2.199778852677959, 2.2438813930564234,
    2.286733933434934, 2.3283364738133527, 2.3686890141918395,
    2.407791554570295, 2.4456440949487046, 2.4822466353272348,
    2.51759917570569, 2.551701716084269, 2.5845542564624635,
    2.6161567968408734, 2.646509337219376, 2.6756118775977438,
    2.703464417976228, 2.730066958354708, 2.7554194987331466,
    2.77952203911155, 2.8023745794900203, 2.8239771198684354,
    2.84432966024683, 2.8634322006254718, 2.881284741003661,
    2.8978872813821663]


def _counted(monkeypatch):
    """Count the shots and the root solves of the oracle."""
    tally = {"shots": 0, "solves": 0}
    shoot, root = oracle._shoot, oracle._defect_root

    def counted_shoot(*args):
        tally["shots"] += 1
        return shoot(*args)

    def counted_root(*args):
        tally["solves"] += 1
        return root(*args)

    monkeypatch.setattr(oracle, "_shoot", counted_shoot)
    monkeypatch.setattr(oracle, "_defect_root", counted_root)
    return tally


@pytest.mark.parametrize("name", sorted(WELLS))
@pytest.mark.parametrize("h", (0.1, 0.05))
def test_a_root_solve_takes_few_shots(monkeypatch, window, name, h):
    tally = _counted(monkeypatch)
    energies = oracle_spectrum(WELLS[name], h, window)
    assert len(energies) >= 5
    assert tally["solves"] >= len(energies)
    assert tally["shots"] / tally["solves"] <= 4.0


def _base(sym, h, window):
    xl, xr = _domain(sym, h, window, OracleConfig())
    base, _, _ = _base_grid(sym, h, window, xl, xr)
    return base, base.dx * base.dx / (12.0 * h * h)


@pytest.mark.parametrize("name", sorted(WELLS) + ["long morse"])
def test_the_step_divides_the_defect_by_its_slope(window, name):
    """At every level of the base grid, the slope -D / step that a shot
    gives is the central difference of the defect there; on the long
    Morse interval the shots from the right wall resume past 1e200."""
    sym, h, win = LONG_MORSE if name == "long morse" else (WELLS[name],
                                                           0.05, window)
    base, pref = _base(sym, h, win)
    e_lo, e_hi = base.v_floor - 1e-12, win.e_max + 0.05
    n_min = oracle._count_nodes(pref * (win.e_min - base.v))
    n_max = oracle._count_nodes(pref * (win.e_max - base.v))
    assert n_max - n_min >= 4
    for n in range(n_min, n_max):
        e = _solve_on_grid(base.v, base.dx, h, base.i_match, e_lo, e_hi, n,
                           1e-13)
        de = 1e-7

        def defect(x):
            return _shoot(pref * (x - base.v), base.i_match, pref)

        central = (defect(e + de)[0] - defect(e - de)[0]) / (2.0 * de)
        d, step = defect(e + de)
        assert -d / step == pytest.approx(central, rel=1e-4), n
        # the defect rises through the level when n is even, falls when odd
        assert math.copysign(1.0, central) == (-1.0) ** n


def test_an_overflowing_shot_gives_a_finite_step(monkeypatch):
    """The right wall of the long Morse interval lies at x = 49.7 on the
    asymptote: shots from it pass 1e200 and resume.  Their steps are
    finite, and the levels are the bracketing solve's to within 3e-11."""
    overflowed, steps = [False], []   # overflowed[0]: outside any shot
    sweep, shoot = oracle._sweep, oracle._shoot

    def recorded_sweep(f, *args):
        y = sweep(f, *args)
        overflowed[-1] |= not np.all(np.abs(y) <= 1e200)
        return y

    def recorded_shoot(*args):
        overflowed.append(False)
        d, step = shoot(*args)
        steps.append(step)
        overflowed.append(False)
        return d, step

    monkeypatch.setattr(oracle, "_sweep", recorded_sweep)
    monkeypatch.setattr(oracle, "_shoot", recorded_shoot)
    energies, counts = oracle_spectrum(*LONG_MORSE, return_counts=True)
    in_shots = overflowed[1::2]
    assert len(in_shots) == len(steps) and sum(in_shots) >= 100
    assert all(math.isfinite(s) for s, o in zip(steps, in_shots) if o)
    assert counts == list(range(29, 57))
    for e, ref in zip(energies, BRACKETED):
        assert e == pytest.approx(ref, abs=3e-11)


def test_a_guess_that_converges_to_a_neighbour_is_refused(monkeypatch,
                                                          window):
    """A doubled-grid guess centred on the next level: Newton converges to
    that level, the root's own node counts refuse it, and the level is
    isolated on the node count and found."""
    sym, h = WELLS["x^4"], 0.1
    base, _ = _base(sym, h, window)
    xs = np.linspace(*_domain(sym, h, window, OracleConfig()),
                     2 * base.v.size - 1)
    v = np.asarray(sym.v(xs), dtype=float)
    dx, i_match = xs[1] - xs[0], int(np.argmin(v))
    e_lo, e_hi = float(np.min(v)) - 1e-12, window.e_max + 1e-12
    n = 2
    ref = _solve_on_grid(v, dx, h, i_match, e_lo, e_hi, n, 1e-12)
    e_next = _solve_on_grid(v, dx, h, i_match, e_lo, e_hi, n + 1, 1e-12)
    half = 2.0 * _base_grid_error(e_next - float(np.min(v)), base.dx, h)
    roots, isolated = [], []
    root, isolate = oracle._defect_root, oracle._isolate

    def recorded_root(*args):
        roots.append(root(*args))
        return roots[-1]

    def recorded_isolate(*args):
        isolated.append(args[-1])
        return isolate(*args)

    monkeypatch.setattr(oracle, "_defect_root", recorded_root)
    monkeypatch.setattr(oracle, "_isolate", recorded_isolate)
    e = _solve_on_grid(v, dx, h, i_match, e_lo, e_hi, n, 1e-12,
                       (e_next - half, e_next + half))
    assert len(roots) == 2 and isolated == [n]
    assert roots[0] == pytest.approx(e_next, abs=1e-12)
    assert e == pytest.approx(ref, abs=1e-12)
