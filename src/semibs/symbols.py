"""Hamiltonian symbol model: built-in potentials and single-well validation.

A symbol is the triple (p0, p1, p2) of expressions in (x, xi).  The
Schrodinger specialization p0 = xi^2 + V(x) carries the potential
separately so that turning-point and oracle machinery can work on V
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from . import exprjet
from .exprjet import Expr, parse, evaluate, eval_x_derivs2


class SymbolError(Exception):
    pass


@dataclass(frozen=True)
class HamiltonianSymbol:
    p0: Expr
    p1: Expr
    p2: Expr
    potential: Expr | None = None  # V when p0 = xi^2 + V(x)
    name: str = "custom"

    @property
    def schrodinger(self):
        return self.potential is not None

    def v(self, x):
        if self.potential is None:
            raise SymbolError("symbol is not in Schrodinger form")
        return evaluate(self.potential, x)

    def v_derivs(self, x):
        """(V, V', V'') at x; x may be an array."""
        if self.potential is None:
            raise SymbolError("symbol is not in Schrodinger form")
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
    p0 = parse(f"xi^2 + ({v_text})", params)
    return HamiltonianSymbol(
        p0=p0,
        p1=parse(p1_text, params),
        p2=parse(p2_text, params),
        potential=v,
        name=name,
    )


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
    warnings: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


SIMPLE_TP_TOL = 1e-8


def _scan_domain(sym, e_max, max_doublings=60):
    """Expand [-1, 1] until V exceeds e_max (+ margin) on both sides, or give
    up for potentials with a finite asymptote below the window."""
    lo, hi = -1.0, 1.0
    target = e_max
    for _ in range(max_doublings):
        ok_lo = sym.v(lo) > target
        ok_hi = sym.v(hi) > target
        if ok_lo and ok_hi:
            return lo, hi
        if not ok_lo:
            lo *= 2.0
        if not ok_hi:
            hi *= 2.0
        if abs(lo) > 1e12 or hi > 1e12:
            break
    return None


def validate_well(sym, window, n_energy_samples=9, n_grid=4001):
    """Check the single-well hypotheses for a Schrodinger symbol.

    Confirms: V has a unique minimum x0 with V(x0) < e_min; for sampled
    energies in the window {V <= E} is one interval with simple turning
    points.  Returns a WellReport; failures are collected, not raised.
    """
    if not sym.schrodinger:
        raise SymbolError("validate_well requires a Schrodinger symbol")
    report = WellReport(ok=True)

    dom = _scan_domain(sym, window.e_max)
    if dom is None:
        report.ok = False
        report.failures.append(
            "e_max above the potential barrier (V never exceeds the window)")
        return report
    lo, hi = dom
    report.scan_domain = (lo, hi)
    xs = np.linspace(lo, hi, n_grid)
    vs = sym.v(xs)

    i0 = int(np.argmin(vs))
    if i0 == 0 or i0 == n_grid - 1:
        report.ok = False
        report.failures.append("potential minimum not interior to scan domain")
        return report
    # bounds, not a bracket: a grid neighbour may tie with the grid minimum,
    # which a bracket refuses
    res = minimize_scalar(sym.v, bounds=(xs[i0 - 1], xs[i0 + 1]),
                          method="bounded", options={"xatol": 1e-13})
    report.x0 = float(res.x)
    report.v_min = float(res.fun)
    if not report.v_min < window.e_min:
        report.ok = False
        report.failures.append(
            f"V(x0) = {report.v_min:.6g} is not below e_min = {window.e_min:.6g}")

    energies = np.linspace(window.e_min, window.e_max, n_energy_samples)
    for e in energies:
        below = vs <= e
        # count maximal runs of True
        runs = int(np.count_nonzero(np.diff(below.astype(int)) == 1))
        runs += 1 if below[0] else 0
        if runs != 1:
            report.ok = False
            report.failures.append(
                f"multiple wells: {{V <= {e:.6g}}} has {runs} components")
            break
        # simple turning points
        for x_tp in _coarse_turning_points(xs, vs, e):
            _, v1, v2 = sym.v_derivs(x_tp)
            if abs(v1) < SIMPLE_TP_TOL * (1.0 + abs(v2)):
                report.ok = False
                report.failures.append(
                    f"degenerate turning point near x = {x_tp:.6g} at E = {e:.6g}")
            report.margin = min(report.margin, abs(float(v1)))
    return report


def _coarse_turning_points(xs, vs, e):
    sign = vs - e
    idx = np.nonzero(np.diff(np.signbit(sign)))[0]
    return [0.5 * (xs[i] + xs[i + 1]) for i in idx]
