"""Hamiltonian symbol model: built-in potentials and single-well validation.

A symbol is the triple (p0, p1, p2) of expressions in (x, xi) with p0 in
Schrodinger form, p0 = xi^2 + V(x).  The potential V is carried
separately so that turning-point and oracle machinery can work on V
directly.

The one search for the bottom of a well is ``well_minimum``: the scan
domain of ``scan_domain``, then ``_grid_minimum``, a 2001-point grid and a
bounded Brent step, memoised on (V, domain) so that every layer shares it.
The scan domain widens [-1, 1] by doubling until V exceeds E on each side,
stopping at the top of a barrier it would jump, found as the minimum of -V
by the same ``_grid_minimum``; the ends it tries do not depend on E, so
they are found once per (V, side) and shared by every energy, and
``scan_domain_array`` gives the domains of a whole energy array at once.
``validate_well``, the check of what these searches assume, has its own grid.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize_scalar

from .exprjet import (BinOp, Expr, Neg, Num, Var, compiled, eval_x_derivs2,
                      evaluate, parse, variables)


class SymbolError(Exception):
    pass


@dataclass(frozen=True)
class HamiltonianSymbol:
    p0: Expr
    p1: Expr
    p2: Expr
    potential: Expr  # V, with p0 = xi^2 + V(x)
    name: str = "custom"

    def v(self, x):
        return evaluate(self.potential, x)

    def v_derivs(self, x):
        """(V, V', V'') at x; x may be an array."""
        return eval_x_derivs2(self.potential, x)

    def p0_value(self, x, xi):
        return evaluate(self.p0, x, xi)


@dataclass(frozen=True)
class EnergyWindow:
    e_min: float
    e_max: float

    def __post_init__(self):
        if not self.e_min < self.e_max:
            raise SymbolError("energy window requires e_min < e_max")


_BUILTIN_POTENTIALS = {
    "harmonic": ("x^2", ()),
    "quartic": ("x^4", ()),
    "anharmonic": ("x^2 + lam*x^4", ("lam",)),
    "morse": ("D*(1 - exp(-a*x))^2", ("D", "a")),
}


def from_potential(v_text, p1_text="0", p2_text="0", params=None, name="custom"):
    """Build a Schrodinger symbol p0 = xi^2 + V from expression strings."""
    params = params or {}
    v = parse(v_text, params)
    if "xi" in variables(v):
        raise SymbolError("the potential must not read xi")
    return schrodinger(v, parse(p1_text, params), parse(p2_text, params),
                       name)


def schrodinger(v, p1=Num(0.0), p2=Num(0.0), name="custom"):
    """The symbol of the parsed x-only potential V; p0 is built on V, the
    tree that parsing "xi^2 + (V)" gives."""
    return HamiltonianSymbol(
        p0=BinOp("+", BinOp("^", Var("xi"), Num(2.0)), v),
        p1=p1, p2=p2, potential=v, name=name)


def builtin(name, params=None):
    """Construct a built-in symbol; p1 = p2 = 0 unless overridden via params
    entries 'p1' / 'p2' (expression strings)."""
    params = dict(params or {})
    p1_text = params.pop("p1", "0")
    p2_text = params.pop("p2", "0")
    if name == "custom":
        if "potential" not in params:
            raise SymbolError("custom symbol requires a 'potential' expression")
        v_text = params.pop("potential")
        return from_potential(v_text, p1_text, p2_text, params, name="custom")
    if name not in _BUILTIN_POTENTIALS:
        raise SymbolError(f"unknown builtin '{name}'")
    v_text, required = _BUILTIN_POTENTIALS[name]
    # accept lambda under its usual name too
    if "lambda" in params:
        params["lam"] = params.pop("lambda")
    missing = [p for p in required if p not in params]
    if missing:
        raise SymbolError(f"builtin '{name}' missing parameters {missing}")
    return from_potential(v_text, p1_text, p2_text, params, name=name)


@dataclass
class WellReport:
    ok: bool
    x0: float = float("nan")
    v_min: float = float("nan")
    margin: float = float("inf")  # min |V'| at sampled turning points
    scan_domain: tuple = (0.0, 0.0)
    failures: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


SIMPLE_TP_TOL = 1e-8
MINIMUM_CACHE_SIZE = 64     # distinct (V, domain) minima and (V, side) scans
SCAN_MAX_DOUBLINGS = 39     # the farthest scan end tried is +-2^39 (5.5e11)
WELL_GRID_POINTS = 4001     # validate_well's grid on the scan domain
WELL_ENERGY_SAMPLES = 9     # energies in the window validate_well checks
CROSSING_HALVINGS = 64      # of a grid cell, to refine a turning point


class _OutwardScan:
    """The ends the scan domain may take on one side of 0, in the order
    the scan tries them: +-1, +-2, +-4, ... +-2^SCAN_MAX_DOUBLINGS.  Where V
    rises to one of them, 2^k, and falls at the next, the top of the barrier
    between 2^(k-1) and 2^(k+1) is tried right after 2^k, so that the scan
    stops inside a barrier it would otherwise jump.  The domain for energy
    E ends at the first of them with V > E.  None of this depends on E, so
    the list is extended only as far as the energies asked for need it."""

    def __init__(self, potential, sign):
        self.potential, self.v = potential, compiled(potential)
        self.sign = sign
        self.ends = []      # the ends tried, in order
        self.tops = []      # running maximum of V over them, NaN as -inf
        self.powers = []    # (x, V) at +-2^k, k = 0, 1, ...

    def _extend(self):
        """Try the next doubling; False once they are used up."""
        k = len(self.powers)
        if k > SCAN_MAX_DOUBLINGS:
            return False
        x = self.sign * 2.0 ** k
        v = float(self.v(x))
        if k >= 2:
            (x_in, v_in), (_, v_mid) = self.powers[-2:]
            if v_in < v_mid and v < v_mid:
                x_top, v_top = _grid_minimum(Neg(self.potential),
                                             *sorted((x_in, x)))
                if -v_top > v_mid:
                    self._add(x_top, -v_top)
        self.powers.append((x, v))
        self._add(x, v)
        return True

    def _add(self, x, v):
        top = -math.inf if math.isnan(v) else v
        self.ends.append(x)
        self.tops.append(max(self.tops[-1], top) if self.tops else top)

    def end(self, e):
        """The domain end for energy e, or None."""
        while not (self.tops and self.tops[-1] > e) and self._extend():
            pass
        i = bisect.bisect_right(self.tops, e)
        return self.ends[i] if i < len(self.ends) else None

    def end_array(self, es):
        """The domain ends for the energies es, NaN where there is none."""
        self.end(np.max(es))
        i = np.searchsorted(np.array(self.tops), es, side="right")
        ends = np.append(self.ends, np.nan)
        return ends[i]


@lru_cache(maxsize=MINIMUM_CACHE_SIZE)
def _outward_scan(potential, sign):
    return _OutwardScan(potential, sign)


def scan_domain(potential, e):
    """(lo, hi): the scan domain of energy e, [-1, 1] widened on each side
    to the first end of ``_OutwardScan`` with V > e; None if a side has no
    such end (a potential with a finite asymptote below e)."""
    lo = _outward_scan(potential, -1.0).end(e)
    hi = _outward_scan(potential, 1.0).end(e)
    return None if lo is None or hi is None else (lo, hi)


def scan_domain_array(potential, es):
    """(lo, hi) arrays: ``scan_domain`` at every energy of es, NaN in both
    where it is None."""
    lo = _outward_scan(potential, -1.0).end_array(es)
    hi = _outward_scan(potential, 1.0).end_array(es)
    none = np.isnan(lo) | np.isnan(hi)
    return np.where(none, np.nan, lo), np.where(none, np.nan, hi)


@lru_cache(maxsize=MINIMUM_CACHE_SIZE)
def _grid_minimum(potential, lo, hi):
    """(x0, V(x0)): the minimum of V on a 2001-point grid of [lo, hi],
    refined by a bounded Brent step between the grid minimum's neighbours.
    Pure in (V, lo, hi), so a cache hit returns what recomputing would."""
    v, xs = compiled(potential), np.linspace(lo, hi, 2001)
    i0 = int(np.argmin(v(xs)))
    # bounds, not a bracket: a grid neighbour may tie with the grid minimum,
    # which a bracket refuses
    res = minimize_scalar(v,
                          bounds=(xs[max(i0 - 1, 0)],
                                  xs[min(i0 + 1, len(xs) - 1)]),
                          method="bounded", options={"xatol": 1e-13})
    return float(res.x), float(res.fun)


def well_minimum(potential, e):
    """(x0, V(x0)) for the potential expression V, searched on the scan
    domain of energy e; None when V does not rise above e on both sides."""
    dom = scan_domain(potential, e)
    return None if dom is None else _grid_minimum(potential, *dom)


def well_minimum_array(potential, es):
    """(x0, V(x0)) arrays: ``well_minimum`` at every energy of es, NaN
    where it is None; one grid search per distinct scan domain."""
    lo, hi = scan_domain_array(potential, es)
    x0, v0 = np.full_like(lo, np.nan), np.full_like(lo, np.nan)
    for dom in set(zip(lo.tolist(), hi.tolist())):
        if not math.isnan(dom[0]):
            at = (lo == dom[0]) & (hi == dom[1])
            x0[at], v0[at] = _grid_minimum(potential, *dom)
    return x0, v0


def _crossing(v, a, b, e, neg_a):
    """Per row, the x in [a, b] where V - e changes sign, by bisection;
    neg_a is the sign bit of V(a) - e.  CROSSING_HALVINGS halvings take a
    cell of the grid below an ulp of any x it reaches."""
    for _ in range(CROSSING_HALVINGS):
        mid = 0.5 * (a + b)
        if not np.any((a < mid) & (mid < b)):
            break
        right = np.signbit(v(mid) - e) == neg_a   # the crossing is past mid
        a, b = np.where(right, mid, a), np.where(right, b, mid)
    return 0.5 * (a + b)


def validate_well(sym, window):
    """Check the single-well hypotheses for a symbol.

    Confirms: V has a unique minimum x0 with V(x0) < e_min; for sampled
    energies in the window {V <= E} is one interval with simple turning
    points, |V'| tested at the midpoint of each grid cell where V - E
    changes sign and, where that midpoint could hide a zero of V', also at
    the crossing refined inside the cell.  Returns a WellReport; failures
    are collected, not raised."""
    report = WellReport(ok=True)

    dom = scan_domain(sym.potential, window.e_max)
    if dom is None:
        report.ok = False
        report.failures.append(
            "e_max above the potential barrier (V never exceeds the window)")
        return report
    lo, hi = report.scan_domain = dom
    xs = np.linspace(lo, hi, WELL_GRID_POINTS)
    vs = sym.v(xs)

    i0 = int(np.argmin(vs))
    if i0 == 0 or i0 == WELL_GRID_POINTS - 1:
        report.ok = False
        report.failures.append("potential minimum not interior to scan domain")
        return report
    report.x0, report.v_min = _grid_minimum(sym.potential, lo, hi)
    if not report.v_min < window.e_min:
        report.ok = False
        report.failures.append(
            f"V(x0) = {report.v_min:.6g} is not below e_min = {window.e_min:.6g}")

    # all energies in one array pass: the runs of {V <= E} and the coarse
    # turning points (sign changes of V - E) of each; flat indices over
    # the rows, in the order a loop over the energies would meet them
    energies = np.linspace(window.e_min, window.e_max, WELL_ENERGY_SAMPLES)
    cells = xs.size - 1
    below = vs[None, :] <= energies[:, None]
    rises = np.flatnonzero(below[:, 1:] > below[:, :-1]) // cells
    runs = np.bincount(rises, minlength=energies.size) + below[:, 0]
    bad = np.flatnonzero(runs != 1)
    # energies after the first with other than one run are not checked
    checked = int(bad[0]) if bad.size else energies.size
    neg = np.signbit(vs[None, :] - energies[:checked, None])
    rows, idx = divmod(np.flatnonzero(neg[:, 1:] != neg[:, :-1]), cells)
    if rows.size:
        x_tp = 0.5 * (xs[idx] + xs[idx + 1])
        _, v1, v2 = sym.v_derivs(x_tp)
        v1 = np.abs(np.broadcast_to(v1, x_tp.shape))
        v2 = np.abs(np.broadcast_to(v2, x_tp.shape))
        # a zero of V' within half a cell of the midpoint leaves |V'| there
        # at most about |V''| dx / 2: in such a cell V' is taken at the
        # crossing too, and the smaller |V'| counts; not next to the
        # minimum, where turning points too close to resolve are the orbit
        # layer's to refuse
        dx = xs[1] - xs[0]
        near = np.flatnonzero((v1 <= SIMPLE_TP_TOL * (1.0 + v2) + dx * v2)
                              & (np.abs(x_tp - report.x0) > 1.5 * dx))
        if near.size:
            _, w1, w2 = sym.v_derivs(_crossing(
                sym.v, xs[idx[near]], xs[idx[near] + 1],
                energies[rows[near]], neg[rows[near], idx[near]]))
            w1 = np.abs(np.broadcast_to(w1, near.shape))
            w2 = np.abs(np.broadcast_to(w2, near.shape))
            at = w1 < v1[near]   # a NaN keeps the midpoint's values
            v1[near[at]], v2[near[at]] = w1[at], w2[at]
        for i in np.flatnonzero(v1 < SIMPLE_TP_TOL * (1.0 + v2)):
            report.ok = False
            report.failures.append(
                f"degenerate turning point near x = {x_tp[i]:.6g} at"
                f" E = {energies[rows[i]]:.6g}")
        # NaN values leave the margin as it is
        report.margin = float(np.fmin.reduce(v1, initial=report.margin))
    if bad.size:
        report.ok = False
        report.failures.append(
            f"multiple wells: {{V <= {energies[checked]:.6g}}} has"
            f" {runs[checked]} components")
    return report
