"""Answer checks against references computed outside the timed region.

``spectrum``  E_bs2 of every row against the Numerov oracle run on the
              operator the request describes, -h^2 d^2/dx^2 + V + h p1 +
              h^2 p2 (p1, p2 depend on x only, so this is the same
              operator).  The CSV's own E_oracle / err columns are not used:
              the CLI computes them on V alone.
gram-sweep    every determinant against -sin^2((S_eff - pi h) / 2h), and the
              flagged zeros against the roots of the quantization condition
              S_eff(E) = 2 pi h (k + 1/2) of the same request, where
              S_eff = S0 - h oint p1 dt at the request's order comes from
              this package's own quadrature.
flux-lab      every check row present, finite, within its bound and marked
              pass=1.

A failed spectrum request that carries a p2 term is *explained* when its
levels instead match the oracle on V + h p1 - h^2 p2: that is the known
sign defect of the order-2 condition (see NOTES.md).  Any other failure is
unexplained and makes the run incorrect.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from workloads import orbit_quadrature, poly_eval

# Tolerance on an order-2 level: K_H4 * h^4 + REF_FLOOR.  Energies are drawn
# from a fixed classical band, so h -> 0 is the semiclassical limit at fixed
# energy.  There the order-2 condition S0 - h oint p1 + h^2 S2 = 2 pi h
# (k + 1/2) drops terms of order h^4 (the series of a Schrodinger operator
# is even in h; x-only p1 terms may add h^3 pieces).  Over 25 seeds the largest error was 1.9 h^4 (quartic with p1
# at h = 0.05; every other class stayed below 0.2 h^4), so K_H4 = 10 leaves
# a margin of 5.  A p2 sign error shifts a level by about 2 c h^2 with
# c >= 1.5, which is 30x the tolerance at h = 0.1 and grows as 1/h^2 below.
K_H4 = 10.0
REF_FLOOR = 1e-8          # the oracle's own grid-agreement accuracy
# Translation of the reference operator when the oracle cannot take the
# effective potential as given (see _oracle_levels); not a decimal multiple
# of the oracle's scan-grid step.
ORACLE_SHIFT = 6.18034e-4

DET_TOL = 1e-6            # gram determinant against the quadrature curve
GRID_REL_TOL = 1e-12      # gram energy grid against linspace
ZERO_TIE_TOL = 1e-6       # of the window: zero vs root placement slack

SPECTRUM_HEADER = "n,E_bs0,E_bs1,E_bs2,E_oracle,err0,err2"
GRAM_HEADER = "E,det,zero_flag"
GRAM_STEPS = 200
FLUX_HEADER = "check,value,bound,pass"
FLUX_CHECKS = ("flux_norm_a", "flux_norm_a_prime", "mixed_term",
               "chi_independence", "sum_identity", "gram_det_vs_analytic",
               "gram_off_diagonal", "wronskian_identity")
FLUX_FIXED_BOUNDS = {"flux_norm_a": 0.1, "flux_norm_a_prime": 0.1,
                     "gram_det_vs_analytic": 0.05, "gram_off_diagonal": 0.05,
                     "wronskian_identity": 1e-8}


@dataclass
class Verdict:
    ok: bool
    levels: int = 0           # verified levels (or check energies)
    worst: float = 0.0        # largest level error / its tolerance
    reason: str = ""
    explained: str = ""       # name of the known defect that explains it


def level_tolerance(h):
    return K_H4 * h ** 4 + REF_FLOOR


def _oracle(semibs, req, v_text):
    sym = semibs.symbols.from_potential(v_text)
    window = semibs.symbols.EnergyWindow(req.e_min, req.e_max)
    cfg = semibs.oracle.OracleConfig(halfwidth_factor=2.0, shoot_tol=1e-10)
    energies, counts = semibs.oracle.oracle_spectrum(
        sym, req.h, window, cfg, return_counts=True)
    return dict(zip(counts, energies))


def _oracle_levels(semibs, req, p2_sign):
    """n -> E of the oracle on V + h p1 + p2_sign h^2 p2."""
    text = req.effective_potential_text(p2_sign=p2_sign)
    try:
        return _oracle(semibs, req, text)
    except ValueError:
        # Known defect "grid-tie" (NOTES.md): the program's well-minimum
        # search raises when the minimum lies exactly half-way between two
        # points of its scan grid, as for x^2 + 0.1 (c + 0.15 x).  The
        # spectrum does not change under translation, so the reference is
        # taken on the same potential moved by ORACLE_SHIFT.
        shifted = re.sub(r"\bx\b", f"(x - {ORACLE_SHIFT!r})", text)
        return _oracle(semibs, req, shifted)


def _rows(text, header):
    lines = text.strip().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"header is not {header!r}")
    return [line.split(",") for line in lines[1:]]


def _match_levels(levels, reference, tol):
    """(reason, worst): reason is None when ``levels`` (n -> E) matches
    ``reference``; worst is the largest error as a share of ``tol``."""
    if sorted(levels) != sorted(reference):
        return (f"levels n={sorted(levels)} but reference has "
                f"n={sorted(reference)}"), math.inf
    worst = 0.0
    for n, e in levels.items():
        err = abs(e - reference[n])
        if not err <= tol:
            return (f"level {n}: |E_bs2 - E_ref| = {err:.3g} > {tol:.3g}",
                    math.inf)
        worst = max(worst, err / tol)
    return None, worst


def check_spectrum(semibs, req, code, out):
    if code != 0:
        return Verdict(False, reason=f"exit code {code}")
    try:
        rows = _rows(out, SPECTRUM_HEADER)
        levels = {int(r[0]): float(r[3]) for r in rows}
    except (ValueError, IndexError) as exc:
        return Verdict(False, reason=f"malformed CSV: {exc}")
    tol = level_tolerance(req.h)
    reason, worst = _match_levels(levels, _oracle_levels(semibs, req, 1.0),
                                  tol)
    if reason is None:
        return Verdict(True, levels=len(levels), worst=worst)
    verdict = Verdict(False, reason=reason)
    if any(req.p2) and _match_levels(
            levels, _oracle_levels(semibs, req, -1.0), tol)[0] is None:
        verdict.explained = "p2-sign"
    return verdict


def _s_eff(req):
    """E -> S0(E) - h oint p1 dt at the request's order, from this package's
    own quadrature (the gram determinant's phase)."""
    x0 = req.well_minimum()
    p1 = None
    if req.order >= 1 and any(req.p1):
        p1 = lambda x: poly_eval(req.p1, x)  # noqa: E731

    def s_eff(e):
        s0, p1_int = orbit_quadrature(req.well.v, e, x0, weight=p1)
        return s0 - req.h * p1_int
    return s_eff


def _quantization_roots(req, s_eff):
    """Energies in the window where S_eff(E) = 2 pi h (k + 1/2)."""
    two_pi_h = 2.0 * math.pi * req.h
    lo, hi = s_eff(req.e_min), s_eff(req.e_max)
    ks = range(math.ceil(lo / two_pi_h - 0.5), math.floor(hi / two_pi_h - 0.5) + 1)
    return [brentq(lambda e: s_eff(e) - two_pi_h * (k + 0.5),
                   req.e_min, req.e_max, xtol=1e-13) for k in ks]


def check_gram(semibs, req, code, out):
    if code != 0:
        return Verdict(False, reason=f"exit code {code}")
    try:
        rows = _rows(out, GRAM_HEADER)
        es = np.array([float(r[0]) for r in rows])
        det = np.array([float(r[1]) for r in rows])
        flags = [int(r[2]) for r in rows]
    except (ValueError, IndexError) as exc:
        return Verdict(False, reason=f"malformed CSV: {exc}")
    grid = np.linspace(req.e_min, req.e_max, GRAM_STEPS)
    if len(es) != GRAM_STEPS or np.max(np.abs(es - grid)) > \
            GRID_REL_TOL * max(1.0, abs(req.e_max)):
        return Verdict(False, reason="energy grid is not the 200-point sweep")
    s_eff = _s_eff(req)
    ref = np.array([-math.sin((s_eff(e) - math.pi * req.h) / (2.0 * req.h))
                    ** 2 for e in es])
    err = float(np.max(np.abs(det - ref)))
    if not err <= DET_TOL:
        return Verdict(False, reason=f"det off the quadrature curve by {err:.3g}")

    roots = _quantization_roots(req, s_eff)
    flagged = [i for i, f in enumerate(flags) if f == 1]
    # a root half-way between two grid points may flag either of them
    tie = ZERO_TIE_TOL * (req.e_max - req.e_min)
    ok = len(flagged) == len(roots) and all(
        abs(es[i] - z) <= np.min(np.abs(es - z)) + tie
        for i, z in zip(flagged, roots))
    if not ok:
        return Verdict(False, reason=f"zero flags at {flagged}, quantization "
                                     f"roots at {roots}")
    return Verdict(True, levels=len(roots))


def check_flux(semibs, req, code, out):
    try:
        rows = _rows(out, FLUX_HEADER)
    except ValueError as exc:
        return Verdict(False, reason=f"malformed CSV: {exc}")
    names = tuple(r[0] for r in rows)
    if names != FLUX_CHECKS:
        return Verdict(False, reason=f"check rows {names}")
    for name, value, bound, passed in rows:
        value, bound = float(value), float(bound)
        if passed != "1":
            return Verdict(False, reason=f"{name}: pass={passed}")
        if not (math.isfinite(value) and value <= bound):
            return Verdict(False, reason=f"{name}: {value} > bound {bound}")
        fixed = FLUX_FIXED_BOUNDS.get(name)
        if fixed is not None and bound != fixed:
            return Verdict(False, reason=f"{name}: bound {bound} != {fixed}")
    if code != 0:
        return Verdict(False, reason=f"exit code {code}")
    return Verdict(True, levels=1)


CHECKERS = {
    "spectrum": check_spectrum,
    "gram-sweep": check_gram,
    "flux-lab": check_flux,
}
