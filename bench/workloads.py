"""Deterministic request streams for the three benchmark workloads.

Every request is one INI config for one ``semibs`` subcommand.  A stream is
cut into rounds; every round of a workload holds the same mix of request
classes (potential, h band, lower-order terms) and the seed only picks the
continuous parameters and the order inside the round.  Equal composition per
round is what keeps medians and failure shares steady from seed to seed.

Energy windows are placed half-way between consecutive levels, so a window
holds a known number of levels (two or three) and no level sits near an
edge where the
quantization solver and the oracle could disagree on the count.  The level
positions come from this module's own order-0 quadrature, not from the
program.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq, minimize_scalar

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
POTENTIALS = ("harmonic", "quartic", "anharmonic", "morse")
# Levels per window.  From two levels on, the per-level work of a spectrum
# request (root solve, S2 series, oracle shooting) is about three quarters
# of its time, the rest being the per-request set-up of bs_solve; more
# levels would not fit a round into one run.
SPECTRUM_LEVELS = 2
# A gram-scan sweep costs the same for any window; three levels make the
# sweep cross several zeros and minimise at each.
GRAM_LEVELS = 3


@dataclass(frozen=True)
class Well:
    """A potential as config text plus a numpy callable for the quadrature."""

    kind: str
    text: str          # semibs expression syntax
    params: tuple      # (name, value) pairs substituted into ``text``

    def v(self, x):
        p = dict(self.params)
        if self.kind == "harmonic":
            return x * x
        if self.kind == "quartic":
            return x ** 4
        if self.kind == "anharmonic":
            return x * x + p["lam"] * x ** 4
        return p["D"] * (1.0 - np.exp(-p["a"] * x)) ** 2


@dataclass(frozen=True)
class Request:
    workload: str
    index: int          # position in the stream
    cls: str            # request class, equal mix in every round
    subcommand: str
    well: Well
    h: float
    e_min: float
    e_max: float
    order: int = 2
    p1: tuple = ()      # polynomial coefficients in x: c0 + c1 x + ...
    p2: tuple = ()

    @property
    def p1_text(self):
        return poly_text(self.p1)

    @property
    def p2_text(self):
        return poly_text(self.p2)

    def config_text(self):
        return (
            "[problem]\n"
            f'potential = "{self.well.text}"\n'
            f'p1 = "{self.p1_text}"\n'
            f'p2 = "{self.p2_text}"\n'
            f"hbar = {self.h!r}\n"
            f"energy_min = {self.e_min!r}\n"
            f"energy_max = {self.e_max!r}\n"
            "[solver]\n"
            f"order = {self.order}\n")

    def well_minimum(self):
        return _minimum(self.well.v)[0]

    def effective_potential_text(self, p2_sign=1.0):
        """V + h p1 + p2_sign h^2 p2 as one expression (x-only terms)."""
        parts = [f"({self.well.text})"]
        if any(self.p1):
            parts.append(f"{self.h!r}*({self.p1_text})")
        if any(self.p2):
            parts.append(f"{p2_sign * self.h * self.h!r}*({self.p2_text})")
        return " + ".join(parts)

    def effective_v(self, x, p2_sign=1.0):
        v = self.well.v(x)
        if any(self.p1):
            v = v + self.h * poly_eval(self.p1, x)
        if any(self.p2):
            v = v + p2_sign * self.h * self.h * poly_eval(self.p2, x)
        return v


def poly_text(coeffs):
    if not any(coeffs):
        return "0"
    terms = []
    for power, c in enumerate(coeffs):
        if c == 0:
            continue
        if power == 0:
            terms.append(f"{c!r}")
        elif power == 1:
            terms.append(f"{c!r}*x")
        else:
            terms.append(f"{c!r}*x^{power}")
    return " + ".join(terms)


def poly_eval(coeffs, x):
    return sum(c * x ** k for k, c in enumerate(coeffs))


def _q(rng, lo, hi, digits=3):
    """Uniform draw rounded so that the config text stays short."""
    return round(rng.uniform(lo, hi), digits)


def make_well(kind, rng):
    # narrow parameter bands: orbit cost follows the well's shape, and the
    # slowest of a dozen requests sets the tail
    if kind == "harmonic":
        return Well(kind, "x^2", ())
    if kind == "quartic":
        return Well(kind, "x^4", ())
    if kind == "anharmonic":
        lam = _q(rng, 0.1, 0.15)
        return Well(kind, f"x^2 + {lam!r}*x^4", (("lam", lam),))
    d, a = _q(rng, 0.95, 1.05), _q(rng, 0.95, 1.05)
    return Well(kind, f"{d!r}*(1 - exp(-{a!r}*x))^2", (("D", d), ("a", a)))


# ---------------------------------------------------------------------------
# order-0 level estimates (benchmark-own quadrature)

_GL_X, _GL_W = np.polynomial.legendre.leggauss(96)


def _minimum(v):
    """(x0, V(x0), E_top): the minimum and the highest energy whose turning
    points stay on the scan interval (below a Morse plateau)."""
    xs = np.linspace(-6.0, 6.0, 2401)
    vs = v(xs)
    i = int(np.argmin(vs))
    # bounds, not a bracket: a grid neighbour may tie with the grid minimum,
    # which a bracket refuses
    res = minimize_scalar(v, bounds=(xs[i - 1], xs[i + 1]), method="bounded",
                          options={"xatol": 1e-12})
    return float(res.x), float(res.fun), float(min(vs[0], vs[-1]))


def _turning_point(v, e, x0, direction):
    step = 0.05
    b = x0 + direction * step
    while v(b) <= e:
        step *= 1.5
        b = x0 + direction * step
    return brentq(lambda x: v(x) - e, x0, b, xtol=1e-15)


def orbit_quadrature(v, e, x0, weight=None):
    """(S0, oint weight dt) at energy e for p0 = xi^2 + V, V minimal at x0.

    S0 = 2 int sqrt(E - V) dx and oint f dt = int f / sqrt(E - V) dx over
    [x_l, x_r]; the substitution x = mid - rad cos(theta) removes the
    square-root end singularities so Gauss-Legendre converges fast.
    """
    xl = _turning_point(v, e, x0, -1)
    xr = _turning_point(v, e, x0, +1)
    mid, rad = 0.5 * (xl + xr), 0.5 * (xr - xl)
    theta = 0.5 * math.pi * (_GL_X + 1.0)
    x = mid - rad * np.cos(theta)
    jac = rad * np.sin(theta) * 0.5 * math.pi
    gap = np.maximum(e - v(x), 0.0)
    s0 = 2.0 * float(np.sum(_GL_W * np.sqrt(gap) * jac))
    if weight is None:
        return s0, 0.0
    # jac / sqrt(gap) stays finite at both ends
    ratio = jac / np.sqrt(np.maximum(gap, 1e-300))
    return s0, float(np.sum(_GL_W * weight(x) * ratio))


def level_estimate(v, h, k, x0, v_min, e_top):
    """E with S0(E) = 2 pi h (k + 1/2)."""
    target = 2.0 * math.pi * h * (k + 0.5)
    return brentq(lambda e: orbit_quadrature(v, e, x0)[0] - target,
                  v_min + 1e-12, v_min + 0.99 * (e_top - v_min), xtol=1e-12)


def level_window(v, h, e_target, count):
    """(e_min, e_max) holding ``count`` levels of the order-0 rule from the
    one nearest ``e_target`` up, with both edges half-way to the
    neighbouring level."""
    x0, v_min, e_top = _minimum(v)
    s0 = orbit_quadrature(v, e_target, x0)[0]
    k0 = max(int(round(s0 / (2.0 * math.pi * h) - 0.5)), 0)
    es = [level_estimate(v, h, k, x0, v_min, e_top)
          for k in range(max(k0 - 1, 0), k0 + count + 1)]
    if k0 == 0:
        below = v_min
    else:
        below, es = es[0], es[1:]
    e_min = 0.5 * (below + es[0])
    e_max = 0.5 * (es[count - 1] + es[count])
    return round(e_min, 6), round(e_max, 6)


# ---------------------------------------------------------------------------
# workloads


def _e_target(rng, well):
    """Level energies come from a fixed classical band, so h -> 0 is the
    semiclassical limit at fixed energy where the order-2 rule errs by
    O(h^4).  The band is narrow because a request's cost depends on where
    its level sits; Morse stays well below its dissociation energy D."""
    lo, hi = (0.30, 0.36) if well.kind == "morse" else (0.40, 0.50)
    return rng.uniform(lo, hi) * dict(well.params).get("D", 1.0)


def _signed(rng, lo, hi):
    return rng.choice((-1, 1)) * _q(rng, lo, hi)


# Coefficient magnitudes come from narrow bands: a larger lower-order term
# makes the order-1/2 fixed point take more steps, so wide bands would let
# the seed move a request's cost.
# No Morse request carries a term: an x term would change its asymptotics
# and leave the plateau, which is not the well the window describes.
def _p1_terms(rng):
    return (_signed(rng, 0.15, 0.25), _signed(rng, 0.1, 0.2))


def _p2_terms(rng):
    # the constant part keeps the order-2 shift 2 c h^2 of a sign error far
    # above the h^4 tolerance, so that defect cannot hide
    return (_q(rng, 1.5, 2.0), _q(rng, 0.0, 0.3))


# Which class carries which lower-order terms is fixed, not drawn: a p1 term
# costs extra orbit integrals, so letting the seed move terms between
# classes would move the round's cost from seed to seed.
# A p1 term makes a quartic or Morse request 1.6-2.3 times as costly and
# adds little to a harmonic one, so the Morse requests carry none.
# Every potential appears at two of the three h values and every h at two
# or three potentials: the whole product would not fit one run.
SPECTRUM_TERMS = {
    ("harmonic", 0.1): "p1", ("harmonic", 0.025): "p2",
    ("quartic", 0.1): "plain", ("quartic", 0.05): "p1",
    ("anharmonic", 0.05): "p1p2", ("anharmonic", 0.025): "p1",
    ("morse", 0.1): "plain", ("morse", 0.025): "plain",
}
# (order, h, p1) per potential; three requests at each order
GRAM_CLASSES = {
    "harmonic": ((0, 0.1, False), (1, 0.05, True)),
    "quartic": ((0, 0.05, False), (1, 0.025, False)),
    "anharmonic": ((1, 0.1, True),),
    "morse": ((0, 0.1, False),),
}


def _spectrum_round(rng, spread):
    """8 requests (SPECTRUM_TERMS).  Three carry a p1 term, one a p2 term
    and one both."""
    out = []
    for (kind, h), term in SPECTRUM_TERMS.items():
        well = make_well(kind, rng)
        p1 = _p1_terms(rng) if "p1" in term else ()
        p2 = _p2_terms(rng) if "p2" in term else ()
        out.append(_with_window(
            "spectrum", f"{kind}/h={h}/{term}", "spectrum", well, h, 2,
            p1, p2, _e_target(rng, well), SPECTRUM_LEVELS))
    return out


def _gram_round(rng, spread):
    """6 requests (GRAM_CLASSES): three at order 0, three at order 1, two of
    these with a p1 term.  p2 only enters at order 2, so gram-scan requests
    carry none.  A 200-point sweep costs 2.5-6 s, so the round is kept to
    6 requests."""
    out = []
    for kind, classes in GRAM_CLASSES.items():
        for order, h, with_p1 in classes:
            well = make_well(kind, rng)
            p1 = _p1_terms(rng) if with_p1 else ()
            term = f"order{order}" + ("/p1" if p1 else "")
            out.append(_with_window(
                "gram-sweep", f"{kind}/h={h}/{term}", "gram-scan", well, h,
                order, p1, (), _e_target(rng, well), GRAM_LEVELS))
    return out


def _flux_round(rng, spread):
    """8 requests: every potential in a coarse and a fine h band; the
    checks run at the window midpoint.  A request's cost goes as 1/h, so h
    is spread evenly over its band across the rounds of a run rather than
    drawn anew each round."""
    bands = (("coarse", 0.0075, 0.02), ("fine", 0.0025, 0.0075))
    out = []
    for kind in POTENTIALS:
        for band, lo, hi in bands:
            well = make_well(kind, rng)
            h = round(lo + (hi - lo) * spread(), 5)
            e_mid = round(_e_target(rng, well), 4)
            out.append(Request(
                workload="flux-lab", index=0, cls=f"{kind}/{band}",
                subcommand="wronskian-check", well=well, h=h,
                e_min=round(e_mid - 0.05, 6), e_max=round(e_mid + 0.05, 6),
                order=0))
    return out


def _with_window(workload, cls, sub, well, h, order, p1, p2, e_target,
                 levels):
    req = Request(workload=workload, index=0, cls=cls, subcommand=sub,
                  well=well, h=h, e_min=0.0, e_max=1.0, order=order,
                  p1=p1, p2=p2)
    # the window brackets the levels of the operator the request describes
    e_min, e_max = level_window(req.effective_v, h, e_target, levels)
    return replace(req, e_min=e_min, e_max=e_max)


_ROUNDS = {
    "spectrum": _spectrum_round,
    "gram-sweep": _gram_round,
    "flux-lab": _flux_round,
}

WORKLOADS = tuple(_ROUNDS)


def round_requests(workload, seed, r):
    """Round ``r`` of the stream for (workload, seed); deterministic.

    ``spread()`` gives the k-th of its calls in a round the fraction
    (u_k + r * golden ratio) mod 1, with u_k fixed by the seed: over the
    rounds of a run each such draw covers [0, 1) evenly (a Kronecker
    sequence), so a run's mix does not hang on a few lucky draws."""
    rng = random.Random(f"{workload}:{seed}:{r}")
    offsets = random.Random(f"{workload}:{seed}")

    def spread():
        return (offsets.random() + r * GOLDEN) % 1.0
    reqs = _ROUNDS[workload](rng, spread)
    rng.shuffle(reqs)
    base = r * len(reqs)
    return [replace(req, index=base + i) for i, req in enumerate(reqs)]
