"""Grid-level WKB branches, cutoff commutators, and flux-norm checks."""

import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from reference import commutator_full, dump_csv
from semibs import wronlab
from semibs.wronlab import (CutoffSpec, GridError, GridFunction, WronlabError,
                            airy_exclusion, apply_commutator, build_wkb,
                            build_wkb_pair, chi_independence_check,
                            commutator_wronskian_identity, default_cutoff,
                            default_grid, flux_norm_check, gram_numeric)
from semibs.orbit import orbit_quadrature, turning_points
from semibs.symbols import builtin, from_potential


# ---------------------------------------------------------------------------
# cutoffs


def test_cutoff_plateau_and_support():
    chi = CutoffSpec(center=0.0, r1=0.5, r2=1.0)
    assert chi.value(0.0) == 1.0
    assert chi.value(0.4) == 1.0
    assert chi.value(1.1) == 0.0
    assert chi.value(-1.1) == 0.0
    mid = chi.value(0.75)
    assert 0.0 < mid < 1.0
    xs = np.linspace(0.5, 1.0, 100)
    assert np.all(np.diff(chi.value(xs)) <= 0)  # monotone transition


def test_cutoff_derivatives_match_finite_differences():
    chi = CutoffSpec(center=0.3, r1=0.4, r2=0.9)
    xs = np.linspace(-0.7, 1.3, 41)
    d = 1e-5
    fd1 = (chi.value(xs + d) - chi.value(xs - d)) / (2 * d)
    fd2 = (chi.value(xs + d) - 2 * chi.value(xs) + chi.value(xs - d)) / d ** 2
    assert np.max(np.abs(chi.dvalue(xs) - fd1)) <= 1e-6
    assert np.max(np.abs(chi.d2value(xs) - fd2)) <= 1e-4


def test_cutoff_derivative_bounds_hold():
    chi = CutoffSpec(center=0.0, r1=0.3, r2=0.8)
    xs = np.linspace(-1.0, 1.0, 20001)
    assert np.max(np.abs(chi.dvalue(xs))) <= chi.derivative_bound(1)
    assert np.max(np.abs(chi.d2value(xs))) <= chi.derivative_bound(2)
    # bounds grow with order and with narrower transitions
    assert chi.derivative_bound(3) < chi.derivative_bound(5)
    narrow = CutoffSpec(center=0.0, r1=0.3, r2=0.4)
    assert narrow.derivative_bound(2) > chi.derivative_bound(2)


def test_cutoff_validation():
    with pytest.raises(WronlabError):
        CutoffSpec(center=0.0, r1=1.0, r2=0.5)
    with pytest.raises(WronlabError):
        CutoffSpec(center=0.0, r1=-0.1, r2=0.5)


# ---------------------------------------------------------------------------
# grid functions and grids


def test_inner_product_conjugate_symmetry(rng):
    xs = np.linspace(0.0, 1.0, 200)
    u = GridFunction(0.0, xs[1], rng.normal(size=200)
                     + 1j * rng.normal(size=200))
    v = GridFunction(0.0, xs[1], rng.normal(size=200)
                     + 1j * rng.normal(size=200))
    assert u.inner(v) == pytest.approx(np.conj(v.inner(u)), rel=1e-13)
    assert u.norm() >= 0.0


def test_inner_product_requires_matching_grids():
    u = GridFunction(0.0, 0.1, np.ones(5))
    v = GridFunction(0.0, 0.2, np.ones(5))
    with pytest.raises(WronlabError):
        u.inner(v)


def test_airy_exclusion_refuses_a_flat_turning_point(monkeypatch, harmonic):
    # V' = 0 at x = 0, where a turning point would have no Airy scale
    monkeypatch.setattr(wronlab, "turning_points", lambda sym, e: (0.0, 0.7))
    with pytest.raises(WronlabError, match="V' = 0"):
        airy_exclusion(harmonic, 0.49, 0.05)


def test_airy_exclusion_scales(harmonic):
    d1 = airy_exclusion(harmonic, 0.5, 0.05)
    d2 = airy_exclusion(harmonic, 0.5, 0.025)
    assert d1[0] > 0 and d1[1] > 0
    assert d2[0] < d1[0]  # smaller h, smaller keep-out zone


def test_default_grid_respects_sampling_bound(harmonic):
    e, h = 0.5, 0.05
    xs = default_grid(harmonic, e, h)
    dx = xs[1] - xs[0]
    xi_max = math.sqrt(e)
    assert dx <= h / (10.0 * xi_max) * (1.0 + 1e-12)
    xl, xr = -math.sqrt(e), math.sqrt(e)
    dl, dr = airy_exclusion(harmonic, e, h)
    assert xs[0] >= xl + dl - 1e-12
    assert xs[-1] <= xr - dr + 1e-12


def test_grid_violations_are_rejected(harmonic):
    e, h = 0.5, 0.05
    # enters the turning zone
    bad = np.linspace(-math.sqrt(e) + 1e-4, 0.0, 2000)
    with pytest.raises(GridError):
        build_wkb(harmonic, e, h, xs=bad)
    # too coarse for the oscillation
    xs = default_grid(harmonic, e, h)
    with pytest.raises(GridError):
        build_wkb(harmonic, e, h, xs=xs[::8])


def test_grid_size_is_refused_before_allocating(harmonic,
                                                refuse_large_grids):
    # h = 0.1 at E = 5e5 asks for about 1.0e8 points
    with pytest.raises(GridError, match=r"grid of 1\.0\de\+08 points"):
        default_grid(harmonic, 0.5 * (0.05 + 1e6), 0.1)
    # refining for a very narrow cutoff transition is bounded the same way
    xs = default_grid(harmonic, 0.5, 0.05)
    narrow = CutoffSpec(center=0.0, r1=0.1, r2=0.1 + 1e-7)
    with pytest.raises(GridError, match="exceeds the limit"):
        wronlab._resolve_transitions(xs, [narrow])


# ---------------------------------------------------------------------------
# WKB branches


def test_wkb_amplitude_and_conjugacy(harmonic):
    e, h = 0.5, 0.05
    xs = default_grid(harmonic, e, h)
    up, um = build_wkb_pair(harmonic, e, h, "a", xs=xs)
    amp = 0.5 * (e - harmonic.v(xs)) ** -0.25
    assert np.allclose(np.abs(up.values), amp, rtol=1e-12)
    # real V, p1 = 0: the two branches are complex conjugates
    assert np.allclose(um.values, np.conj(up.values), rtol=1e-12)


def test_wkb_phase_matches_closed_form(harmonic):
    e, h = 0.49, 0.01
    xs = default_grid(harmonic, e, h)
    u = build_wkb(harmonic, e, h, basepoint="a", rho=+1, xs=xs)
    a = math.sqrt(e)

    def s_exact(x):  # int_a^x sqrt(e - y^2) dy, with f(a) = e pi/4 exactly
        f = lambda y: 0.5 * (y * math.sqrt(e - y * y)
                             + e * math.asin(y / math.sqrt(e)))
        return f(x) - e * math.pi / 4.0

    expected = np.array([
        0.5 * (e - x * x) ** -0.25
        * np.exp(1j * (s_exact(x) / h + math.pi / 4.0)) for x in xs])
    assert np.max(np.abs(u.values - expected)) <= 1e-9


PHASE_WELLS = [
    ("harmonic", builtin("harmonic"), 0.5, 0.05),
    ("quartic", builtin("quartic"), 0.5, 0.05),
    ("anharmonic", from_potential("x^2 + 0.3*x^4"), 0.6, 0.04),
    ("morse", builtin("morse", {"D": 1.0, "a": 1.0}), 0.5, 0.05),
]


@pytest.mark.parametrize("sym,e,h", [w[1:] for w in PHASE_WELLS],
                         ids=[w[0] for w in PHASE_WELLS])
def test_wkb_phase_matches_whole_well_quadrature(sym, e, h):
    """Both basepoints against a phase integrated by quad from the turning
    point itself, across the whole well (the sqrt end point removed by
    y = base + s u^2), at every 40th grid point."""
    xs = default_grid(sym, e, h)
    xl, xr = turning_points(sym, e)
    xi = lambda y: math.sqrt(max(e - float(sym.v(y)), 0.0))

    def phase(base, x):
        s = -1.0 if x < base else 1.0
        val, _ = quad(lambda u: 2.0 * s * u * xi(base + s * u * u), 0.0,
                      math.sqrt(abs(x - base)), epsabs=1e-14, epsrel=1e-13,
                      limit=400)
        return val

    idx = np.arange(0, len(xs), 40)
    amp = 0.5 * (e - sym.v(xs[idx])) ** -0.25
    for basepoint, base, sigma in (("a", xr, 1.0), ("a'", xl, -1.0)):
        for rho in (+1, -1):
            u = build_wkb(sym, e, h, basepoint, rho, xs=xs)
            expected = np.array([
                a * np.exp(1j * (rho * phase(base, x) / h
                                 + rho * sigma * math.pi / 4.0))
                for a, x in zip(amp, xs[idx])])
            rel = np.abs(u.values[idx] - expected) / np.abs(expected)
            assert np.max(rel) <= 1e-10, (basepoint, rho, np.max(rel))


@pytest.mark.parametrize("sym,e,h", [w[1:] for w in PHASE_WELLS],
                         ids=[w[0] for w in PHASE_WELLS])
def test_gram_half_action_matches_orbit_quadrature(sym, e, h):
    s0, _ = orbit_quadrature(sym, e)
    assert gram_numeric(sym, e, h).s_half == pytest.approx(0.5 * s0,
                                                           rel=1e-12)


def test_wkb_order1_phase_shift():
    sym = builtin("harmonic", {"p1": "x"})
    e, h = 0.5, 0.05
    xs = default_grid(sym, e, h)
    u0 = build_wkb(sym, e, h, "a", +1, order=0, xs=xs)
    u1 = build_wkb(sym, e, h, "a", +1, order=1, xs=xs)
    base = math.sqrt(e)
    x = float(xs[0])
    shift, _ = quad(lambda y: y / (2.0 * math.sqrt(e - y * y)), base, x,
                    points=[base], limit=200)
    ratio = u1.values[0] / u0.values[0]
    assert ratio == pytest.approx(np.exp(-1j * shift), rel=1e-9)


@pytest.mark.parametrize("p1, order", [("0", 0), ("x^2", 1)])
def test_minus_branch_and_flux_are_conjugates_bit_for_bit(p1, order):
    # the phase is odd in rho: u_- = conj(u_+) and F_- = -conj(F_+) exactly
    sym = builtin("harmonic", {"p1": p1})
    e, h = 0.5, 0.02
    assert wronlab._conjugate_branches(sym, order)
    for basepoint in ("a", "a'"):
        chi = default_cutoff(sym, e, h, basepoint)
        xs = wronlab._resolve_transitions(default_grid(sym, e, h), [chi])
        up = build_wkb(sym, e, h, basepoint, +1, order, xs)
        um = build_wkb(sym, e, h, basepoint, -1, order, xs)
        assert np.array_equal(um.values, np.conj(up.values))
        fp = apply_commutator(sym, h, chi, up)
        fm = apply_commutator(sym, h, chi, um)
        assert np.array_equal(fm.values, -np.conj(fp.values))
        got = wronlab._branch_fluxes(sym, e, h, basepoint, chi, order, xs)
        for gf, want in zip(got, (up, um, fp, fm)):
            assert np.array_equal(gf.values, want.values)


def test_a_p1_reading_xi_builds_the_minus_branch(monkeypatch):
    sym = builtin("harmonic", {"p1": "0.1*xi"})
    e, h = 0.5, 0.02
    assert wronlab._conjugate_branches(sym, 0)
    assert not wronlab._conjugate_branches(sym, 1)
    chi = default_cutoff(sym, e, h, "a")
    xs = wronlab._resolve_transitions(default_grid(sym, e, h), [chi])
    up = build_wkb(sym, e, h, "a", +1, 1, xs)
    um = build_wkb(sym, e, h, "a", -1, 1, xs)
    assert not np.array_equal(um.values, np.conj(up.values))
    fp = apply_commutator(sym, h, chi, up)
    fm = apply_commutator(sym, h, chi, um)
    u = up + um

    wronlab._flux_record.cache_clear()
    applied = []
    monkeypatch.setattr(wronlab, "apply_commutator",
                        lambda *args: applied.append(args) or
                        apply_commutator(*args))
    rep = flux_norm_check(sym, e, h, "a", chi=chi, order=1, xs=xs)
    assert len(applied) == 2
    assert rep.w == u.inner(fp - fm)
    assert rep.mixed_pm == up.inner(fm)
    assert rep.mixed_mp == um.inner(fp)
    assert rep.norm_sq == u.inner(u).real


# ---------------------------------------------------------------------------
# commutator


def test_commutator_vanishes_on_plateau(harmonic):
    e, h = 0.5, 0.05
    xs = default_grid(harmonic, e, h)
    u = build_wkb(harmonic, e, h, "a", +1, xs=xs)
    span = float(xs[-1] - xs[0])
    chi = CutoffSpec(center=0.5 * (xs[0] + xs[-1]), r1=0.6 * span,
                     r2=0.7 * span)  # identically 1 on the grid
    out = apply_commutator(harmonic, h, chi, u)
    assert np.max(np.abs(out.values)) <= 1e-10 * np.max(np.abs(u.values))


def test_commutator_on_constant_matches_analytic():
    # V = 0, u = 1: (i/h)[P, chi] u = -i h chi''
    sym = from_potential("0")
    h = 0.05
    xs = np.linspace(-1.0, 1.0, 2001)
    u = GridFunction(float(xs[0]), float(xs[1] - xs[0]),
                     np.ones_like(xs, dtype=complex))
    chi = CutoffSpec(center=-1.5, r1=1.0, r2=2.2)  # transition inside grid
    out = apply_commutator(sym, h, chi, u)
    expected = -1j * h * chi.d2value(xs)
    assert np.max(np.abs(out.values - expected)) <= 1e-6


def test_commutator_margin_guard(harmonic):
    e, h = 0.5, 0.05
    xs = default_grid(harmonic, e, h)
    u = build_wkb(harmonic, e, h, "a", +1, xs=xs)
    # transition sits on the first grid points
    chi = CutoffSpec(center=float(xs[0]) - 0.01, r1=0.005, r2=0.02)
    with pytest.raises(GridError):
        apply_commutator(harmonic, h, chi, u)


def _edge_cutoff(xs, side):
    """A cutoff whose transition starts exactly 8 points from the grid's
    left (side 0) or right (side -1) end, the least margin allowed."""
    dx, span = float(xs[1] - xs[0]), float(xs[-1] - xs[0])
    r1, r2 = 0.1 * span, 0.2 * span
    sign = 1.0 if side == 0 else -1.0
    center = float(xs[8 if side == 0 else -9]) + sign * r2
    for _ in range(8):
        chi = CutoffSpec(center=center, r1=r1, r2=r2)
        active = np.flatnonzero(chi.dvalue(xs))
        margin = active[0] if side == 0 else len(xs) - 1 - active[-1]
        if margin == 8:
            return chi
        center += sign * (8 - margin) * dx
    raise AssertionError("no cutoff 8 points from the edge")


def _window_cases():
    sym, e, h = builtin("harmonic"), 0.5, 0.02
    chi_a = default_cutoff(sym, e, h, "a")
    chi_ap = default_cutoff(sym, e, h, "a'")
    chi_2 = default_cutoff(sym, e, h, "a", *wronlab.CHI_2_FRACS)
    xs = wronlab._resolve_transitions(default_grid(sym, e, h),
                                      [chi_a, chi_ap, chi_2])
    u = build_wkb(sym, e, h, "a", +1, xs=xs)
    span = float(xs[-1] - xs[0])
    chi_id = CutoffSpec(center=float(xs[-1]) + 0.3 * span,
                        r1=0.45 * span, r2=0.9 * span)
    exact = wronlab._exact_solutions(sym, e, 1.0, xs)[0]
    u_id = GridFunction(u.x0, u.dx, exact.astype(complex))
    # a transition narrower than a cell, between two grid points: chi steps
    # from 0 to 1 with chi' = chi'' = 0 on the whole grid
    k, dx = len(xs) // 2, u.dx
    center = float(xs[-1]) + 0.1 * span
    r1 = center - (float(xs[k]) + 0.5 * dx)
    step = CutoffSpec(center=center, r1=r1, r2=r1 + 1e-6 * dx)
    return {
        "chi_a": (sym, h, chi_a, u),
        "chi_a_prime": (sym, h, chi_ap, u),
        "chi_2": (sym, h, chi_2, u),
        "identity": (sym, 1.0, chi_id, u_id),
        "left_edge": (sym, h, _edge_cutoff(xs, 0), u),
        "right_edge": (sym, h, _edge_cutoff(xs, -1), u),
        "radius_1e300": (sym, h, CutoffSpec(center=turning_points(sym, e)[1],
                                            r1=0.1, r2=1e300), u),
        "subgrid_step": (sym, h, step, u),
    }


WINDOW_CASES = _window_cases()


@pytest.mark.parametrize("name", sorted(WINDOW_CASES))
def test_windowed_commutator_equals_the_full_grid_bit_for_bit(name):
    sym, h, chi, u = WINDOW_CASES[name]
    tol = np.inf if name in ("identity", "subgrid_step") else None
    got = apply_commutator(sym, h, chi, u, check_tol=tol)
    assert np.array_equal(got.values, commutator_full(sym, h, chi, u).values)
    lo, hi = wronlab._cutoff_profile(sym, chi, u.x0, u.dx, u.n).window
    if name == "radius_1e300":     # chi = 1 on the whole grid
        assert (lo, hi) == (0, 0)
        assert not np.any(got.values)
    elif name.endswith("edge"):
        assert (lo == 0) == (name == "left_edge")
        assert (hi == u.n) == (name == "right_edge")
    else:
        assert 0 < lo < hi < u.n
        assert not np.any(got.values[:lo]) and not np.any(got.values[hi:])


def test_exact_wronskian_identity(harmonic):
    """<(i/h)[P,chi]u | v> = -i h W(u, v) (chi(b) - chi(a)) for exact
    solutions, across energies and cutoff shapes."""
    xs = np.linspace(-0.45, 0.45, 1201)
    span = float(xs[-1] - xs[0])
    shapes = [
        CutoffSpec(center=float(xs[-1]) + 0.3 * span, r1=0.45 * span,
                   r2=0.9 * span),
        CutoffSpec(center=float(xs[-1]) + 0.1 * span, r1=0.3 * span,
                   r2=0.95 * span),
        CutoffSpec(center=float(xs[0]) - 0.3 * span, r1=0.45 * span,
                   r2=0.9 * span),
    ]
    for e in np.linspace(0.3, 0.9, 5):
        for chi in shapes:
            lhs, rhs = commutator_wronskian_identity(harmonic, e, 1.0, chi,
                                                     xs)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs)), (e, chi)


IDENTITY_WELLS = [
    ("harmonic", builtin("harmonic"), 0.5, 0.01),
    ("quartic", builtin("quartic"), 0.5, 0.01),
    ("morse", builtin("morse", {"D": 1.0, "a": 1.0}), 0.5, 0.01),
]


@pytest.mark.parametrize("sym,e,h_grid", [w[1:] for w in IDENTITY_WELLS],
                         ids=[w[0] for w in IDENTITY_WELLS])
def test_numerov_identity_solutions_match_dop853(sym, e, h_grid):
    """The identity check's Numerov solutions, at h = 1 as wronskian-check
    runs it, against DOP853 on the same grid; the identity still holds."""
    xs = default_grid(sym, e, h_grid)
    h = 1.0
    u, v = wronlab._exact_solutions(sym, e, h, xs)

    def rhs(x, y):
        q = (float(sym.v(x)) - e) / (h * h)
        return [y[1], q * y[0], y[3], q * y[2]]

    (u0, du0), (v0, dv0) = wronlab.IDENTITY_DATA
    ref = solve_ivp(rhs, (xs[0], xs[-1]), [u0, du0, v0, dv0], t_eval=xs,
                    method="DOP853", rtol=1e-12, atol=1e-14)
    assert ref.success
    for got, want in ((u, ref.y[0]), (v, ref.y[2])):
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    span = float(xs[-1] - xs[0])
    chi = CutoffSpec(center=float(xs[-1]) + 0.3 * span, r1=0.45 * span,
                     r2=0.9 * span)
    lhs, rhs_val = commutator_wronskian_identity(sym, e, h, chi, xs)
    assert abs(lhs - rhs_val) <= 1e-8


def test_identity_check_refuses_a_sweep_that_overflows():
    # q = 1e8 x^2 grows the solutions as exp(5e3 x^2): no float holds them
    sym = from_potential("1e8*x^2")
    xs = np.linspace(-1.0, 1.0, 2001)
    chi = CutoffSpec(center=1.6, r1=0.9, r2=1.8)
    with pytest.raises(WronlabError, match="did not stay finite"):
        commutator_wronskian_identity(sym, 0.5, 1.0, chi, xs)


@pytest.mark.parametrize("sym,e,h", [w[1:] for w in PHASE_WELLS],
                         ids=[w[0] for w in PHASE_WELLS])
def test_turning_point_offsets_match_quad(sym, e, h):
    """Gauss-Legendre offsets, of xi_+ and of the order-1 integrand
    p1 / (2 xi_+), against quad on the same substitution."""
    xs = default_grid(sym, e, h)
    xl, xr = turning_points(sym, e)

    def xi_of(y):
        return np.sqrt(np.maximum(e - sym.v(y), 0.0))

    def q(y):
        return np.asarray(y) / (2.0 * np.maximum(xi_of(y), 1e-300))

    for g in (xi_of, q):
        for base, x0 in ((xl, float(xs[0])), (xr, float(xs[-1]))):
            s = -1.0 if x0 < base else 1.0
            want, _ = quad(lambda u: 2.0 * s * u
                           * float(g(base + s * u * u)), 0.0,
                           math.sqrt(abs(x0 - base)), epsabs=1e-14,
                           epsrel=1e-13, limit=400)
            got = wronlab._offset_from_turning_point(g, base, x0)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_an_offset_that_does_not_converge_is_refused():
    # |y|^-0.9 leaves u^-0.8 after the substitution: no Gauss-Legendre
    # count resolves it to 1e-12
    with pytest.raises(WronlabError, match="did not converge"):
        wronlab._offset_from_turning_point(
            lambda y: np.abs(y) ** -0.9, 0.0, 0.5)


def test_branch_fluxes_memo_hit_equals_rebuild(harmonic):
    e, h = 0.5, 0.05
    chi = default_cutoff(harmonic, e, h, "a")
    xs = wronlab._resolve_transitions(default_grid(harmonic, e, h), [chi])
    wronlab._flux_record.cache_clear()
    first = wronlab._branch_fluxes(harmonic, e, h, "a", chi, 0, xs)
    hit = wronlab._branch_fluxes(harmonic, e, h, "a", chi, 0, xs.copy())
    info = wronlab._flux_record.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert all(a is b for a, b in zip(first, hit))
    up, um = build_wkb_pair(harmonic, e, h, "a", 0, xs)
    rebuilt = (up, um, apply_commutator(harmonic, h, chi, up),
               apply_commutator(harmonic, h, chi, um))
    for got, want in zip(hit, rebuilt):
        assert (got.x0, got.dx) == (want.x0, want.dx)
        assert np.array_equal(got.values, want.values)
        assert not got.values.flags.writeable


def test_cutoff_profile_memo_hit_equals_rebuild(harmonic):
    e, h = 0.5, 0.05
    chi = default_cutoff(harmonic, e, h, "a'")
    xs = wronlab._resolve_transitions(default_grid(harmonic, e, h), [chi])
    x0, dx, n = float(xs[0]), float(xs[1] - xs[0]), len(xs)
    wronlab._cutoff_profile.cache_clear()
    first = wronlab._cutoff_profile(harmonic, chi, x0, dx, n)
    assert wronlab._cutoff_profile(harmonic, chi, x0, dx, n) is first
    grid = x0 + dx * np.arange(n)
    rebuilt = (chi.value(grid), chi.dvalue(grid), chi.d2value(grid),
               harmonic.v(grid))
    for got, want in zip((first.chi, first.d1, first.d2, first.v), rebuilt):
        assert np.array_equal(got, want)
        assert not got.flags.writeable


# ---------------------------------------------------------------------------
# flux norms and the Gram matrix


def test_flux_norm_both_basepoints(harmonic):
    e, h = 0.5, 0.05
    for basepoint, expected in (("a", 1.0), ("a'", -1.0)):
        rep = flux_norm_check(harmonic, e, h, basepoint)
        assert rep.expected == expected
        assert rep.residual <= 0.1
        assert abs(rep.mixed_pm) <= 1e-4 * max(rep.norm_sq, 1.0)
        assert abs(rep.mixed_mp) <= 1e-4 * max(rep.norm_sq, 1.0)


def test_chi_independence(harmonic):
    rep = chi_independence_check(harmonic, 0.5, 0.05, "a")
    assert rep.passed, (rep.difference, rep.bound)
    assert abs(rep.sum_identity) <= 1e-4 * max(rep.norm_sq, 1.0)


def test_gram_matrix_against_closed_form(harmonic):
    h = 0.05
    for e in (0.55, 0.5):  # a level of h(2n+1) and a midpoint
        rep = gram_numeric(harmonic, e, h)
        assert abs(rep.det - rep.analytic_det) <= 0.05
        assert abs(rep.matrix[1, 0] - rep.off_diag_expected) <= 0.05
    # the closed form itself: zero at the level, -1 midway
    at_level = gram_numeric(harmonic, 0.55, h)
    assert abs(at_level.analytic_det) <= 1e-10
    midway = gram_numeric(harmonic, 0.5, h)
    assert midway.analytic_det == pytest.approx(-1.0, abs=1e-10)


def test_default_cutoff_transition_inside_grid(harmonic):
    e, h = 0.5, 0.05
    for basepoint in ("a", "a'"):
        chi = default_cutoff(harmonic, e, h, basepoint)
        xs = wronlab._resolve_transitions(default_grid(harmonic, e, h),
                                          [chi])
        dv = np.abs(chi.dvalue(xs))
        active = np.nonzero(dv > 0)[0]
        assert len(active) > 0
        assert active[0] >= 8 and active[-1] <= len(xs) - 9
        # plateau covers the basepoint's turning zone side
        edge = xs[-1] if basepoint == "a" else xs[0]
        assert chi.value(edge) == 1.0


def test_dump_csv_round_trip(tmp_path):
    gf = GridFunction(0.0, 0.5, np.array([1 + 2j, 3 - 4j]))
    path = tmp_path / "u.csv"
    with open(path, "w") as fh:
        dump_csv(gf, fh)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,re_u,im_u"
    assert [float(tok) for tok in lines[1].split(",")] == [0.0, 1.0, 2.0]
    assert [float(tok) for tok in lines[2].split(",")] == [0.5, 3.0, -4.0]
