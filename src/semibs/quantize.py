"""Spectrum from the quantization condition, and the analytic Gram determinant.

The level condition solved here is

    S0(E) - h \\oint p1 dt + h^2 S2(E) = 2 pi h (k + 1/2),
    S2 = -(1/12) (d/dE) \\oint V'' dt + (1/2) (d/dE) \\oint p1^2 dt
         - \\oint p2 dt,

with the Maslov contribution of the two focal points folded into the
half-integer offset; S2 is ``actions.s2_value`` at ``S2_SIGN``, the same
value as ``ActionSeries.s2``.  S0 and the orbit integrals come from
``orbit.orbit_quadrature`` (through ``actions.action_series`` at order 2);
no ODE orbit is traced here.  The Gram determinant is the closed form
-cos^2(action_diff/(2h) + pi/2) whose zero set coincides with the level set
of the condition above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .actions import S2_SIGN, action_series, s2_value
from .exprjet import evaluate
from .orbit import orbit_quadrature
from .symbols import EnergyWindow, HamiltonianSymbol

MASLOV_PHASE = math.pi / 2.0

# a local minimum of |det| on the gram_scan grid below this counts as a zero
GRAM_ZERO_TOL = 1e-6
S0_GRID_POINTS = 33       # energies of the S0 table that brackets each level
DENSE_SCAN_POINTS = 801   # energies the non-monotone fallback scans


class QuantizeError(Exception):
    pass


@dataclass
class SpectrumRow:
    n: int
    e_order0: float
    e_order1: float
    e_order2: float
    e_oracle: float | None = None
    err0: float | None = None
    err2: float | None = None


@dataclass
class SpectrumTable:
    h: float
    rows: list = field(default_factory=list)

    def energies(self, order):
        key = {0: "e_order0", 1: "e_order1", 2: "e_order2"}[order]
        return [getattr(r, key) for r in self.rows]


@dataclass
class GramEval:
    e: float
    h: float
    action_diff: float
    maslov_phase: float
    det: float


def resolve_eta(eta, window):
    """The E-step of the S2 finite differences: ``eta``, or 2% of the
    window's span when it is None."""
    return 0.02 * (window.e_max - window.e_min) if eta is None else eta


class _SeriesEvaluator:
    """Truncated action series S_eff(E) at one order."""

    def __init__(self, sym, h, order, eta, quad_tol=1e-12, s2_sign=None):
        self.sym = sym
        self.h = h
        self.order = order
        self.eta = eta
        self.quad_tol = quad_tol
        self.s2_sign = S2_SIGN if s2_sign is None else s2_sign
        self.p1 = lambda x, xi: evaluate(sym.p1, x, xi) + 0.0 * x

    def s0(self, e):
        return orbit_quadrature(self.sym, e, rel_tol=self.quad_tol)[0]

    def split(self, e):
        """(S0, the terms beyond S0 at the working order) at energy e."""
        h = self.h
        if self.order == 2:
            ser = action_series(self.sym, e, self.eta, quad_tol=self.quad_tol)
            s2 = s2_value(ser.gamma_dd, ser.p1sq_d, ser.p2_int, self.s2_sign)
            return ser.s0, -h * ser.sub_principal + h * h * s2
        if self.order == 1:
            s0, (sub,) = orbit_quadrature(self.sym, e, [self.p1],
                                          rel_tol=self.quad_tol)
            return s0, -h * sub
        return self.s0(e), 0.0

    def correction(self, e):
        """The terms beyond S0 at the working order."""
        return self.split(e)[1]

    def value(self, e):
        s0, correction = self.split(e)
        return s0 + correction


def _monotone_s0_grid(ev, e_min, e_max):
    es = np.linspace(e_min, e_max, S0_GRID_POINTS)
    vals = np.array([ev.s0(e) for e in es])
    if not np.all(np.diff(vals) > 0):
        raise QuantizeError(
            "S0 is not increasing on the window; the well hypotheses fail")
    return es, vals


def _solve_s0(ev, es, vals, target, root_tol):
    """Root of S0(E) = target using the precomputed monotone grid."""
    i = min(max(int(np.searchsorted(vals, target)), 1), len(es) - 1)
    lo, hi = es[i - 1], es[i]
    f_lo, f_hi = vals[i - 1] - target, vals[i] - target
    # widen the bracket if the target sits at (or just past) a window edge
    span = es[-1] - es[0]
    f = lambda e: ev.s0(e) - target
    for _ in range(12):
        if f_lo <= 0 <= f_hi:
            break
        lo, hi = lo - 0.05 * span, hi + 0.05 * span
        f_lo, f_hi = f(lo), f(hi)
    else:
        raise QuantizeError(f"could not bracket the level S0 = {target}")
    return brentq(f, lo, hi, xtol=root_tol, rtol=4 * np.finfo(float).eps)


def _solve_level(ev, e, es, vals, target, root_tol):
    """Solve S_eff(E) = target by fixed-point iteration on the correction,
    starting from the order-0 root e of S0(E) = target.

    The iteration contracts by O(h^2) per step and is accepted at
    root_tol.  A step that does not shrink by half (h too large for the
    fixed point) raises ``QuantizeError``, and ``bs_solve`` falls back to
    the dense scan.
    """
    if ev.order == 0:
        return e
    prev_step = math.inf
    for _ in range(40):
        e_new = _solve_s0(ev, es, vals, target - ev.correction(e), root_tol)
        step = abs(e_new - e)
        if step <= root_tol * (1.0 + abs(e_new)):
            return e_new
        if step >= 0.5 * prev_step:
            break  # not contracting: h too large for the fixed point
        prev_step = step
        e = e_new
    raise QuantizeError(
        f"level iteration did not converge near E = {e} (h too large?)")


def _dense_scan_roots(ev, e_min, e_max, target, root_tol):
    """Fallback when S_eff is non-monotone: locate every sign change."""
    es = np.linspace(e_min, e_max, DENSE_SCAN_POINTS)
    g = np.array([ev.value(e) - target for e in es])
    roots = []
    for i in np.nonzero(np.diff(np.sign(g)) != 0)[0]:
        roots.append(brentq(lambda e: ev.value(e) - target, es[i], es[i + 1],
                            xtol=root_tol, rtol=4 * np.finfo(float).eps))
    return roots


def bs_solve(sym, h, window, order=2, eta=None, quad_tol=1e-12, root_tol=1e-10,
             s2_sign=None):
    """Solve the quantization condition on the window at the given order.

    Returns a SpectrumTable whose rows carry the eigenvalue at every order
    up to ``order`` (higher-order columns repeat the last computed one).
    """
    if order not in (0, 1, 2):
        raise QuantizeError("order must be 0, 1 or 2")
    if not (math.isfinite(h) and h > 0):
        raise QuantizeError("h must be positive and finite")
    eta = resolve_eta(eta, window)

    evaluators = [
        _SeriesEvaluator(sym, h, m, eta, quad_tol=quad_tol, s2_sign=s2_sign)
        for m in range(order + 1)
    ]
    ev_top = evaluators[-1]

    es, vals = _monotone_s0_grid(ev_top, window.e_min, window.e_max)

    s_lo = ev_top.value(window.e_min)
    s_hi = ev_top.value(window.e_max)
    lo, hi = (s_lo, s_hi) if s_lo < s_hi else (s_hi, s_lo)
    two_pi_h = 2.0 * math.pi * h
    k_min = math.ceil(lo / two_pi_h - 0.5 - 1e-12)
    k_max = math.floor(hi / two_pi_h - 0.5 + 1e-12)
    if k_max < k_min:
        raise QuantizeError("no quantization levels inside the window")

    table = SpectrumTable(h=h)
    for k in range(k_min, k_max + 1):
        target = two_pi_h * (k + 0.5)
        levels, e0 = [], None
        for ev in evaluators:
            try:
                if e0 is None:  # S0 is the same for every order
                    e0 = _solve_s0(ev, es, vals, target, root_tol)
                levels.append(_solve_level(ev, e0, es, vals, target,
                                           root_tol))
            except QuantizeError:
                roots = _dense_scan_roots(ev, window.e_min, window.e_max,
                                          target, root_tol)
                if not roots:
                    raise
                levels.append(roots[0])
        while len(levels) < 3:
            levels.append(levels[-1])
        table.rows.append(SpectrumRow(n=k, e_order0=levels[0],
                                      e_order1=levels[1], e_order2=levels[2]))
    table.rows.sort(key=lambda r: r.n)
    return table


def attach_oracle(table, oracle_levels):
    """Fill the oracle columns from ``oracle_levels`` (node count ->
    eigenvalue): row n pairs with the level of n nodes, and a row with no
    such level stays blank."""
    for row in table.rows:
        e_ref = oracle_levels.get(row.n)
        if e_ref is None:
            continue
        row.e_oracle = e_ref
        row.err0 = abs(row.e_order0 - e_ref)
        row.err2 = abs(row.e_order2 - e_ref)
    return table


def gram_det(sym, e, h, order=2, eta=None, quad_tol=1e-12, s2_sign=None,
             _evaluator=None):
    """Analytic Gram determinant at energy e.

    action_diff is the difference of the two generalized branch actions,
    which equals S_eff(E) minus the pi h contributed by the focal-point
    prefactors; with maslov_phase = pi/2 the determinant reduces to
    -cos^2(S_eff/(2h)).
    """
    ev = _evaluator
    if ev is None:
        if eta is None:
            eta = 0.02 * max(abs(e), 1.0)
        ev = _SeriesEvaluator(sym, h, order, eta, quad_tol=quad_tol,
                              s2_sign=s2_sign)
    s_eff = ev.value(e)
    action_diff = s_eff - math.pi * h
    det = -math.cos(0.5 * action_diff / h + MASLOV_PHASE) ** 2
    return GramEval(e=e, h=h, action_diff=action_diff,
                    maslov_phase=MASLOV_PHASE, det=det)


def gram_scan(sym, window, h, steps=200, order=2, eta=None, quad_tol=1e-12,
              s2_sign=None):
    """Scan the Gram determinant on a uniform grid and localize its zeros.

    Returns (evals, zeros): the grid of GramEval records and the refined
    energies where |det| dips below ``GRAM_ZERO_TOL``.
    """
    if steps < 2:
        raise QuantizeError("gram_scan requires steps >= 2")
    ev = _SeriesEvaluator(sym, h, order, resolve_eta(eta, window),
                          quad_tol=quad_tol, s2_sign=s2_sign)

    es = np.linspace(window.e_min, window.e_max, steps)
    evals = [gram_det(sym, e, h, order, _evaluator=ev) for e in es]
    mags = np.array([abs(g.det) for g in evals])

    zeros = []
    for i in range(1, steps - 1):
        if mags[i] <= mags[i - 1] and mags[i] <= mags[i + 1]:
            res = minimize_scalar(
                lambda e: abs(gram_det(sym, e, h, order, _evaluator=ev).det),
                bounds=(es[i - 1], es[i + 1]), method="bounded",
                options={"xatol": 1e-12})
            if abs(res.fun) < GRAM_ZERO_TOL:
                zeros.append(float(res.x))
    return evals, zeros


def convergence_fit(errs):
    """Least-squares slope/intercept of log(err) against log(h)."""
    pts = [(float(h), float(e)) for h, e in errs]
    if len(pts) < 3:
        raise QuantizeError("convergence_fit needs at least 3 points")
    if any(e <= 0 for _, e in pts):
        raise QuantizeError("convergence_fit requires positive errors")
    lh = np.log([h for h, _ in pts])
    le = np.log([e for _, e in pts])
    if np.ptp(lh) < 1e-12:
        raise QuantizeError("degenerate spread of h values")
    slope, intercept = np.polyfit(lh, le, 1)
    residual = float(np.sqrt(np.mean((np.polyval([slope, intercept], lh)
                                      - le) ** 2)))
    return float(slope), float(intercept), residual
