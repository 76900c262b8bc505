"""Layer tracing from outside the program.

``Tracer`` replaces the public functions listed in ``TARGETS`` with timing
wrappers, in every ``semibs`` module namespace that holds them, and puts the
originals back on exit.  A wrapped call's busy time is its duration, its
self time is the duration minus what wrapped callees covered.
A call of a function that is already running (the recursion of
``exprjet.evaluate``) is passed straight through, so only top-level calls
are counted.  Only per-function and per-module sums are kept.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

TARGETS = {
    "cli": ("main",),
    "symbols": ("validate_well", "from_potential"),
    "exprjet": ("eval_x_derivs2", "evaluate", "jet_eval", "parse"),
    "orbit": ("trace_orbit", "turning_points", "orbit_integral", "action_s0"),
    "actions": ("action_series",),
    "quantize": ("bs_solve", "gram_scan", "gram_det", "attach_oracle"),
    "oracle": ("oracle_spectrum",),
    "wronlab": ("flux_norm_check", "chi_independence_check", "gram_numeric",
                "commutator_wronskian_identity", "build_wkb_pair",
                "build_wkb", "apply_commutator", "default_grid",
                "default_cutoff"),
}
MODULES = tuple(TARGETS)
# the wronlab entry points the CLI's wronskian-check calls
WRONLAB_CHECKS = ("wronlab.flux_norm_check", "wronlab.chi_independence_check",
                  "wronlab.gram_numeric",
                  "wronlab.commutator_wronskian_identity")


class _Stat:
    __slots__ = ("calls", "busy", "self_time", "active")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.active = False


class Tracer:
    """Context manager installing the wrappers; the sums accumulate over
    every ``with`` block."""

    def __init__(self):
        self.stats = defaultdict(_Stat)
        self.module_busy = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []            # time of wrapped callees, per open call
        self._module_depth = defaultdict(int)
        self._module_enter = {}
        self._patched = []

    # -- installation -----------------------------------------------------

    def __enter__(self):
        pkg = [m for name, m in sys.modules.items()
               if name == "semibs" or name.startswith("semibs.")]
        for module, names in TARGETS.items():
            home = sys.modules[f"semibs.{module}"]
            for name in names:
                orig = getattr(home, name)
                wrapper = self._wrap(orig, module, f"{module}.{name}")
                for m in pkg:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, orig))
        return self

    def __exit__(self, *exc):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()
        return False

    def _wrap(self, orig, module, key):
        stat = self.stats[key]
        stack = self._stack
        depth = self._module_depth
        observe = _OBSERVERS.get(key)

        def wrapper(*args, **kwargs):
            if stat.active:
                return orig(*args, **kwargs)
            stat.active = True
            stack.append(0.0)
            if depth[module] == 0:
                self._module_enter[module] = perf_counter()
            depth[module] += 1
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                depth[module] -= 1
                if depth[module] == 0:
                    self.module_busy[module] += t1 - self._module_enter[module]
                child = stack.pop()
                stat.active = False
                stat.calls += 1
                stat.busy += dt
                stat.self_time += dt - child
                if stack:
                    stack[-1] += dt
            if observe is not None:
                observe(self, result)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    # -- results ----------------------------------------------------------

    def module_self(self):
        out = defaultdict(float)
        for key, st in self.stats.items():
            out[key.split(".")[0]] += st.self_time
        return out


def _count_grid(tracer, pair):
    tracer.counts["wronlab.grid_points"] += len(pair[0].values)


def _count_oracle(tracer, energies):
    tracer.counts["oracle.levels"] += len(energies)


def _count_table(tracer, table):
    tracer.counts["quantize.levels"] += len(table.rows)


def _count_zeros(tracer, result):
    tracer.counts["quantize.levels"] += len(result[1])


def _count_orbit(tracer, _orbit):
    if tracer._module_depth["quantize"]:
        tracer.counts["quantize.orbits"] += 1


_OBSERVERS = {
    "wronlab.build_wkb_pair": _count_grid,
    "oracle.oracle_spectrum": _count_oracle,
    "quantize.bs_solve": _count_table,
    "quantize.gram_scan": _count_zeros,
    "orbit.trace_orbit": _count_orbit,
}


def layer_metrics(tracer, requests, untraced_s, traced_s):
    """The per-layer metrics named in BENCHMARK.json."""
    s = tracer.stats
    c = tracer.counts

    def calls(key):
        return s[key].calls

    def busy(key):
        return s[key].busy

    def self_s(key):
        return s[key].self_time

    levels = c["quantize.levels"]
    oracle_levels = c["oracle.levels"]
    m = {
        "orbit.trace_orbit.calls": (calls("orbit.trace_orbit"), "count"),
        "orbit.trace_orbit.busy_s": (busy("orbit.trace_orbit"), "s"),
        "orbit.trace_orbit.self_s": (self_s("orbit.trace_orbit"), "s"),
        "orbit.orbit_integral.calls": (calls("orbit.orbit_integral"), "count"),
        "orbit.orbit_integral.busy_s": (busy("orbit.orbit_integral"), "s"),
        "exprjet.eval_x_derivs2.calls":
            (calls("exprjet.eval_x_derivs2"), "count"),
        "exprjet.eval_x_derivs2.busy_s":
            (busy("exprjet.eval_x_derivs2"), "s"),
        "exprjet.evaluate.calls": (calls("exprjet.evaluate"), "count"),
        "actions.action_series.calls":
            (calls("actions.action_series"), "count"),
        "actions.action_series.busy_s": (busy("actions.action_series"), "s"),
        "actions.action_series.self_s":
            (self_s("actions.action_series"), "s"),
        "quantize.bs_solve.busy_s": (busy("quantize.bs_solve"), "s"),
        "quantize.bs_solve.self_s": (self_s("quantize.bs_solve"), "s"),
        "quantize.gram_scan.busy_s": (busy("quantize.gram_scan"), "s"),
        "quantize.gram_det.calls": (calls("quantize.gram_det"), "count"),
        "quantize.orbits_per_level":
            (c["quantize.orbits"] / levels if levels else 0.0, "orbits/level"),
        "oracle.oracle_spectrum.busy_s":
            (busy("oracle.oracle_spectrum"), "s"),
        "oracle.levels": (oracle_levels, "count"),
        "oracle.busy_s_per_level":
            (busy("oracle.oracle_spectrum") / oracle_levels
             if oracle_levels else 0.0, "s/level"),
        "wronlab.build_wkb_pair.calls":
            (calls("wronlab.build_wkb_pair"), "count"),
        "wronlab.build_wkb_pair.busy_s":
            (busy("wronlab.build_wkb_pair"), "s"),
        "wronlab.apply_commutator.calls":
            (calls("wronlab.apply_commutator"), "count"),
        "wronlab.apply_commutator.busy_s":
            (busy("wronlab.apply_commutator"), "s"),
        "wronlab.checks.busy_s":
            (sum(busy(k) for k in WRONLAB_CHECKS), "s"),
        "wronlab.grid_points": (c["wronlab.grid_points"], "count"),
        "orbit.turning_points.calls":
            (calls("orbit.turning_points"), "count"),
        "orbit.turning_points.calls_per_request":
            (calls("orbit.turning_points") / requests, "calls/request"),
        "orbit.turning_points.busy_s": (busy("orbit.turning_points"), "s"),
        "symbols.validate_well.calls":
            (calls("symbols.validate_well"), "count"),
        "symbols.validate_well.busy_s": (busy("symbols.validate_well"), "s"),
        "cli.main.calls": (calls("cli.main"), "count"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "fraction"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def layer_intent(workload, tracer):
    """The layer each workload is meant to load; returns failed claims."""
    busy = tracer.module_busy
    failures = []
    if workload == "flux-lab":
        layers = {m: busy.get(m, 0.0) for m in MODULES if m != "cli"}
        top = max(layers, key=layers.get)
        if top != "wronlab":
            failures.append(f"flux-lab: busiest layer is {top}, not wronlab")
        n = tracer.stats["orbit.trace_orbit"].calls
        if n:
            failures.append(f"flux-lab: {n} trace_orbit calls, expected 0")
    if workload == "gram-sweep":
        for m in ("oracle", "actions"):
            if busy.get(m, 0.0) > 0.0:
                failures.append(f"gram-sweep: {m} busy {busy[m]:.3g} s, "
                                "expected 0")
    return failures
