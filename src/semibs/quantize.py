"""Spectrum from the quantization condition, and the analytic Gram determinant.

The level condition solved here is

    S0(E) - h \\oint p1 dt + h^2 S2(E) = 2 pi h (k + 1/2),
    S2 = -(1/12) (d/dE) \\oint V'' dt + (1/2) (d/dE) \\oint p1^2 dt
         - \\oint p2 dt,

with the Maslov contribution of the two focal points folded into the
half-integer offset; S2 is ``actions.s2_value``, the same value as
``ActionSeries.s2``.

A request reads its left-hand side S_eff(E), at every order up to its own,
from one ``SEffTable``: S0, \\oint p1 dt, \\oint p2 dt, \\oint V'' dt and
\\oint p1^2 dt as piecewise Chebyshev series of TABLE_NODES nodes on the
window padded by TABLE_PAD of its span on each side, the lower pad held
above the well bottom and the upper one below a barrier top or a
dissociation limit.  S2's two E-derivatives are derivatives of those
series.  A piece is accepted when the last two Chebyshev coefficients of
each of its series are within quad_tol max(1, |c0|) of that series; a
piece that fails is halved, and all pieces of one split round are filled
by one array call of ``orbit.orbit_quadrature``.  The test reads the
integrals before differentiation: an E-derivative multiplies the
quadrature's own error, about quad_tol, by up to 2 (TABLE_NODES - 1) / w on
a piece of width w, which halving w only makes worse.  After
MAX_SPLIT_ROUNDS rounds, or past MAX_TABLE_PIECES pieces, the table raises
ConvergenceError, so no value comes from a piece that failed its test.  No
ODE orbit is traced and no scalar quadrature is made here.

A read evaluates the series of its rows through one (rows x TABLE_NODES)
Chebyshev basis, T_k(t) = cos(k arccos t), not by Clenshaw's recurrence,
and a Newton step reads a series and its E-derivative on the same basis.

Levels are roots of S_eff = 2 pi h (k + 1/2) on the table, for the k of
``_level_ks``.  The roots of
dS_eff/dE (companion-matrix eigenvalues) cut every piece into monotone
segments; a segment whose end values straddle a target holds one root,
refined by safeguarded Newton steps on its series.  The one scan serves a
monotone and a non-monotone S_eff alike.  ``bs_solve`` brackets and
refines the roots of every order up to its own in one pass
(``SEffTable.level_roots``), and keeps, per order and level, the first
root inside the window; where a level of some order lies past the table,
the table is extended there and the pass repeated.  ``gram_scan`` reads
its energy grid and its zeros, every root in the window of the same
targets (``SEffTable.roots``, the pass at one order), from the same
table.  The Gram determinant is the closed form
-cos^2(action_diff/(2h) + pi/2) whose zero set coincides with the level set
of the condition above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev

from .actions import action_series, orbit_integrands, s2_value
from .orbit import ConvergenceError, orbit_quadrature
from .symbols import scan_domain, well_minimum

MASLOV_PHASE = math.pi / 2.0

TABLE_NODES = 16         # Chebyshev nodes per piece of the S_eff table
TABLE_PAD = 0.05         # of the window's span, tabulated past each edge
PAD_HALVINGS = 20        # of the upper pad, to stay below a barrier top
MAX_SPLIT_ROUNDS = 24    # halvings of a piece before ConvergenceError
MAX_TABLE_PIECES = 128   # pieces per table: a split round can double them
MAX_EXTENSIONS = 4       # doubling pads past the window for a lower order
ROOT_ITERATIONS = 100    # safeguarded Newton steps of a root refinement
_EPS = np.finfo(float).eps

# Chebyshev points of the first kind on [-1, 1], and the matrix taking the
# values there (last axis) to the coefficients of the interpolant
_THETA = np.pi * (np.arange(TABLE_NODES) + 0.5) / TABLE_NODES
_NODES = np.cos(_THETA)
_DEGREES = np.arange(TABLE_NODES)
_FIT = 2.0 / TABLE_NODES * np.cos(np.outer(_THETA, _DEGREES))
_FIT[:, 0] *= 0.5


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


def _basis(t):
    """The (len(t), TABLE_NODES) Chebyshev basis T_k(t) = cos(k arccos t),
    t held in [-1, 1]: a piece is read inside its ends, and an end that
    rounding puts a few ulp past them reads the end."""
    t = np.minimum(np.maximum(t, -1.0), 1.0)
    return np.cos(np.arccos(t)[:, None] * _DEGREES)


class SEffTable:
    """S_eff(E) at every order up to ``order`` on [lo, hi], as contiguous
    pieces of Chebyshev series (see the module docstring).  ``bottom`` is
    the well's minimum value, which an extension downwards stays above."""

    def __init__(self, sym, h, order, lo, hi, quad_tol, bottom):
        self.sym, self.h, self.order = sym, h, order
        self.quad_tol, self.bottom = quad_tol, bottom
        # S1 reads oint p1 dt, S2 all four integrals
        self._fs = orbit_integrands(sym)[:(0, 1, 4)[order]]
        self._lo = np.empty(0)
        self._hi = np.empty(0)
        self._series = np.empty((order + 1, 0, TABLE_NODES))
        self.extensions = 0
        self._add(lo, hi)

    @classmethod
    def for_window(cls, sym, h, order, window, quad_tol=1e-12):
        """The table on the window padded by TABLE_PAD of its span: the
        lower pad held above the well bottom, the upper one halved until
        the well still holds its end (below a barrier top or a
        dissociation limit)."""
        pad = TABLE_PAD * (window.e_max - window.e_min)
        lo = window.e_min - pad
        well = well_minimum(sym.potential, window.e_max)
        bottom = None if well is None else well[1]
        if bottom is not None:
            lo = max(lo, 0.5 * (window.e_min + bottom))
        for _ in range(PAD_HALVINGS):
            if scan_domain(sym.potential, window.e_max + pad) is not None:
                break
            pad *= 0.5
        return cls(sym, h, order, lo, window.e_max + pad, quad_tol, bottom)

    @property
    def lo(self):
        return float(self._lo[0])

    @property
    def hi(self):
        return float(self._hi[-1])

    # -- building -----------------------------------------------------------

    def _fit(self, pieces):
        """(series of S0 and of each orbit integral, S_eff series at orders
        0..order) of the pieces, an (m, 2) array of [lo, hi], from one array
        quadrature."""
        lo, hi = pieces[:, :1], pieces[:, 1:]
        es = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _NODES
        s0, ints = orbit_quadrature(self.sym, es.ravel(), self._fs,
                                    rel_tol=self.quad_tol)
        c = np.reshape([s0, *ints], (-1, *es.shape)) @ _FIT
        series = [c[0]]
        if self.order >= 1:
            series.append(c[0] - self.h * c[1])
        if self.order == 2:
            def d_de(k):   # the E-derivative's series, zero-padded
                d = chebyshev.chebder(c[k], axis=-1) * (2.0 / (hi - lo))
                return np.pad(d, ((0, 0), (0, 1)))
            s2 = s2_value(4.0 * d_de(3), d_de(4), c[2])
            series.append(series[1] + self.h * self.h * s2)
        return c, np.array(series)

    def _add(self, lo, hi):
        """Tabulate [lo, hi], which borders the pieces already held."""
        pending = np.array([[lo, hi]])
        kept = []
        for _ in range(MAX_SPLIT_ROUNDS + 1):
            integrals, series = self._fit(pending)
            tail = np.max(np.abs(integrals[..., -2:]), axis=-1)
            ok = np.all(tail <= self.quad_tol
                        * np.maximum(1.0, np.abs(integrals[..., 0])), axis=0)
            kept.append((pending[ok], series[:, ok]))
            if ok.all():
                break
            bad = pending[~ok]
            mid = 0.5 * (bad[:, 0] + bad[:, 1])
            pending = np.concatenate([np.column_stack([bad[:, 0], mid]),
                                      np.column_stack([mid, bad[:, 1]])])
            if len(self._lo) + sum(len(p) for p, _ in kept) \
                    + len(pending) > MAX_TABLE_PIECES:
                raise ConvergenceError(
                    f"S_eff table needs more than {MAX_TABLE_PIECES} pieces "
                    f"on [{lo}, {hi}]")
        else:
            raise ConvergenceError(
                f"S_eff table did not converge after {MAX_SPLIT_ROUNDS} "
                f"split rounds on [{lo}, {hi}]")
        pieces = np.concatenate([np.column_stack([self._lo, self._hi])]
                                + [p for p, _ in kept])
        by_lo = np.argsort(pieces[:, 0])
        self._lo, self._hi = pieces[by_lo, 0], pieces[by_lo, 1]
        self._series = np.concatenate(
            [self._series] + [s for _, s in kept], axis=1)[:, by_lo]
        self._dseries = chebyshev.chebder(self._series, axis=-1)
        self._critical = {}

    def extend(self, down):
        """Tabulate past the lower end (held above the well bottom) or the
        upper end, by a pad that doubles with every extension."""
        step = TABLE_PAD * 2.0 ** self.extensions * (self.hi - self.lo)
        self.extensions += 1
        if down:
            lo = self.lo - step
            if self.bottom is not None:
                lo = max(lo, 0.5 * (self.lo + self.bottom))
            self._add(lo, self.lo)
        else:
            self._add(self.hi, self.hi + step)

    # -- reading ------------------------------------------------------------

    def _piece(self, e):
        """The index of the piece holding each energy of the array e."""
        return np.clip(np.searchsorted(self._lo, e, side="right") - 1,
                       0, len(self._lo) - 1)

    def _read(self, orders, piece, e):
        """Per row, S_eff at orders[row] at e[row], read on piece[row]."""
        lo, hi = self._lo[piece], self._hi[piece]
        basis = _basis((2.0 * e - lo - hi) / (hi - lo))
        return np.sum(self._series[orders, piece] * basis, axis=1)

    def value(self, e, order):
        """S_eff at ``order`` at the energies e, an array in [lo, hi]."""
        e = np.asarray(e, dtype=float)
        return self._read(order, self._piece(e), e)

    def monotone_cuts(self, order, u, v):
        """Sorted energies cutting [u, v] into segments, each inside one
        piece, on which S_eff at ``order`` is monotone: u, v, the piece
        edges and the roots of dS_eff/dE between them.  A near-real pair of
        roots counts as real, which at worst adds a cut."""
        if order not in self._critical:
            found = []
            for lo, hi, d in zip(self._lo, self._hi, self._dseries[order]):
                r = chebyshev.chebroots(d)
                r = r.real[(np.abs(r.imag) <= 1e-8) & (np.abs(r.real) < 1.0)]
                found.append(0.5 * (lo + hi) + 0.5 * (hi - lo) * r)
            self._critical[order] = np.concatenate(found)
        cuts = np.concatenate([[u, v], self._lo, self._critical[order]])
        return np.unique(cuts[(cuts >= u) & (cuts <= v)])

    def roots(self, order, targets, u, v, root_tol):
        """(k, E): every E in [u, v] where S_eff at ``order`` equals
        targets[k], sorted by k and then by E; ``level_roots`` at the one
        order."""
        _, k, e = self.level_roots((order,), targets, u, v, root_tol)
        return k, e

    def level_roots(self, orders, targets, u, v, root_tol):
        """(m, k, E): for every order m of ``orders``, every E in [u, v]
        where S_eff at m equals targets[k], sorted by m, k and E; one
        bracket-and-refine pass for all the orders.

        Each segment of ``monotone_cuts`` is read on its own piece, so the
        values at its two ends come from one series: a target they straddle
        has one root in the segment.  A target straddled by two pieces'
        values at their shared edge has the edge as its root.  Every
        crossing counts once, at the end it reaches."""
        targets = np.asarray(targets, dtype=float)
        cuts = [self.monotone_cuts(m, u, v) for m in orders]
        a = np.concatenate([c[:-1] for c in cuts])
        b = np.concatenate([c[1:] for c in cuts])
        m = np.repeat(orders, [len(c) - 1 for c in cuts])
        i = self._piece(0.5 * (a + b))
        ends = np.column_stack([a, b]).ravel()
        g = self._read(np.repeat(m, 2), np.repeat(i, 2), ends)[None, :] \
            - targets[:, None]
        g0, g1 = g[:, :-1], g[:, 1:]
        cross = ((g0 < 0) & (g1 >= 0)) | ((g0 > 0) & (g1 <= 0))
        # link 2j runs along segment j, link 2j + 1 jumps at a piece edge,
        # or from one order's last segment to the next order's first
        first = 2 * np.flatnonzero(np.diff(m, prepend=-1))
        cross[:, first] |= g0[:, first] == 0
        cross[:, first[1:] - 1] = False
        k, link = np.nonzero(cross)
        e = ends[link + 1]
        along = link % 2 == 0
        seg = link[along] // 2
        e[along] = self._refine(m[seg], i[seg], targets[k[along]], a[seg],
                                b[seg], g0[k[along], link[along]],
                                g1[k[along], link[along]], root_tol)
        m = m[link // 2]
        by = np.lexsort((e, k, m))
        return m[by], k[by], e[by]

    def _refine(self, orders, piece, targets, ea, eb, f_a, f_b, root_tol):
        """Per row, the E in [ea, eb] where the series at orders[row] of
        ``piece`` equals the target; f_a, f_b (opposite signs, or f_b = 0)
        are the series minus the target at ea, eb.  Newton steps from the
        secant point, replaced by bisection where a step leaves the bracket;
        a step reads the series and its derivative on one basis.  A root is
        done once its step is within root_tol (1 + |E|), or a few ulp."""
        c = self._series[orders, piece]
        c[:, 0] -= targets
        d = self._dseries[orders, piece]
        lo, half = self._lo[piece], 0.5 * (self._hi[piece] - self._lo[piece])
        ta, tb = (ea - lo) / half - 1.0, (eb - lo) / half - 1.0
        t = np.where(f_b == 0, tb, ta - f_a * (tb - ta) / (f_b - f_a))
        todo = np.arange(len(t))
        for _ in range(ROOT_ITERATIONS):
            if not todo.size:
                break
            tt, c_t, half_t = t[todo], c[todo], half[todo]
            basis = _basis(tt)
            f = np.sum(c_t * basis, axis=1)
            fp = np.sum(d[todo] * basis[:, :-1], axis=1)
            right = f * f_a[todo] > 0   # the root lies right of tt
            ta[todo] = np.where(right, tt, ta[todo])
            tb[todo] = np.where(right, tb[todo], tt)
            with np.errstate(divide="ignore", invalid="ignore"):
                new = tt - f / fp
            new = np.where((new >= ta[todo]) & (new <= tb[todo]), new,
                           0.5 * (ta[todo] + tb[todo]))
            new = np.where(f == 0, tt, new)
            step = np.abs(new - tt)
            t[todo] = new
            e = lo[todo] + half_t * (new + 1.0)
            done = (step * half_t <= root_tol * (1.0 + np.abs(e))) \
                | (step <= 4.0 * _EPS)
            todo = todo[~done]
        return lo + half * (t + 1.0)


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


def _levels(table, order, targets, window, root_tol):
    """The (order + 1, len(targets)) levels: per order m <= ``order`` and
    per target, the first root of S_eff at m inside the window, else the
    root nearest to it, from one ``level_roots`` pass for all the orders.
    Where a target has no root on the table at some order (the lowest such
    order, then target, first), the table is extended on the side the
    target lies beyond, at most MAX_EXTENSIONS times in all."""
    n = len(targets)
    while True:
        ms, ks, es = table.level_roots(range(order + 1), targets, table.lo,
                                       table.hi, root_tol)
        outside = np.maximum(window.e_min - es, es - window.e_max)
        # per (order, target): the roots inside by E, then the rest by
        # their distance from the window
        group = ms * n + ks
        by = np.lexsort((es, np.maximum(outside, 0.0), group))
        found = np.full((order + 1) * n, np.nan)
        first, at = np.unique(group[by], return_index=True)
        found[first] = es[by][at]
        missing = np.flatnonzero(np.isnan(found))
        if not missing.size:
            return found.reshape(order + 1, n)
        m, k = divmod(int(missing[0]), n)
        if table.extensions == MAX_EXTENSIONS:
            raise QuantizeError(
                f"could not bracket the order-{m} level S = {targets[k]} "
                f"on [{table.lo}, {table.hi}]")
        table.extend(down=bool(targets[k] < table.value([table.lo], m)[0]))


def _level_ks(table, order, window):
    """The k >= 0 whose target 2 pi h (k + 1/2) S_eff at ``order`` takes
    on the window (its extremes over ``monotone_cuts``), within 1e-12 of a
    spacing.  h^2 S2 may drive S_eff below 0 near the well bottom, where no
    order-0 level lies (S0 >= 0), so k < 0 is never a level."""
    s = table.value(table.monotone_cuts(order, window.e_min, window.e_max),
                    order) / (2.0 * math.pi * table.h)
    return np.arange(max(math.ceil(s.min() - 0.5 - 1e-12), 0),
                     math.floor(s.max() - 0.5 + 1e-12) + 1)


def bs_solve(sym, h, window, order=2, quad_tol=1e-12, root_tol=1e-10):
    """Solve the quantization condition on the window at the given order.

    Returns a SpectrumTable whose rows carry the eigenvalue at every order
    up to ``order`` (higher-order columns repeat the last computed one).
    The rows are the k of ``_level_ks``; each order's level is its first
    root inside the window, else its root nearest to it (``_levels``).
    """
    if order not in (0, 1, 2):
        raise QuantizeError("order must be 0, 1 or 2")
    if not (math.isfinite(h) and h > 0):
        raise QuantizeError("h must be positive and finite")
    table = SEffTable.for_window(sym, h, order, window, quad_tol)

    cuts = table.monotone_cuts(0, window.e_min, window.e_max)
    if not np.all(np.diff(table.value(cuts, 0)) > 0):
        raise QuantizeError(
            "S0 is not increasing on the window; the well hypotheses fail")

    ks = _level_ks(table, order, window)
    if not ks.size:
        raise QuantizeError("no quantization levels inside the window")
    targets = 2.0 * math.pi * h * (ks + 0.5)

    levels = list(_levels(table, order, targets, window, root_tol))
    while len(levels) < 3:
        levels.append(levels[-1])
    return SpectrumTable(h=h, rows=[
        SpectrumRow(n=int(k), e_order0=float(e0), e_order1=float(e1),
                    e_order2=float(e2))
        for k, e0, e1, e2 in zip(ks, *levels)])


def gram_det(sym, e, h, order=2, eta=None, quad_tol=1e-12):
    """Analytic Gram determinant at energy e, the tests' reference.

    action_diff is the difference of the two generalized branch actions,
    which equals S_eff(E) minus the pi h contributed by the focal-point
    prefactors; with maslov_phase = pi/2 the determinant reduces to
    -cos^2(S_eff/(2h)).  S_eff comes from scalar quadratures at e; at
    order 2 through ``actions.action_series``, whose S2 stencil takes the
    E-step ``eta``.
    """
    if order == 2:
        if eta is None:
            raise QuantizeError("gram_det at order 2 needs eta")
        ser = action_series(sym, e, eta, quad_tol=quad_tol)
        s_eff = ser.s0 - h * ser.sub_principal + h * h * ser.s2
    else:
        s0, ints = orbit_quadrature(sym, e, orbit_integrands(sym)[:order],
                                    rel_tol=quad_tol)
        s_eff = s0 - h * sum(ints)
    return _gram_eval(e, h, s_eff)


def _gram_eval(e, h, s_eff):
    """The GramEval at energy e from S_eff(e)."""
    action_diff = s_eff - math.pi * h
    det = -math.cos(0.5 * action_diff / h + MASLOV_PHASE) ** 2
    return GramEval(e=e, h=h, action_diff=action_diff,
                    maslov_phase=MASLOV_PHASE, det=det)


def gram_scan(sym, window, h, steps=200, order=2, quad_tol=1e-12):
    """The Gram determinant on a uniform grid of the window, and its zeros.

    Returns (evals, zeros): the grid of GramEval records and every energy
    of the window where S_eff = 2 pi h (k + 1/2) for the k of
    ``_level_ks``, det's zero set, both read from one ``SEffTable``.
    """
    if steps < 2:
        raise QuantizeError("gram_scan requires steps >= 2")
    table = SEffTable.for_window(sym, h, order, window, quad_tol)
    es = np.linspace(window.e_min, window.e_max, steps)
    evals = [_gram_eval(e, h, s)
             for e, s in zip(es.tolist(), table.value(es, order).tolist())]

    targets = 2.0 * math.pi * h * (_level_ks(table, order, window) + 0.5)
    _, zeros = table.roots(order, targets, window.e_min, window.e_max,
                           root_tol=0.0)
    return evals, sorted(zeros.tolist())


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
