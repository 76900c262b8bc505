"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

import signal
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import check  # noqa: E402
import run  # noqa: E402
import semibs  # noqa: E402
import semibs.cli  # noqa: E402
from layers import Tracer  # noqa: E402
from semibs.symbols import from_potential, validate_well  # noqa: E402
from workloads import WORKLOADS, round_requests  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic(workload):
    a = round_requests(workload, 5, 1)
    assert a == round_requests(workload, 5, 1)
    assert [r.config_text() for r in a] != \
        [r.config_text() for r in round_requests(workload, 6, 1)]
    assert [r.index for r in a] == list(range(len(a), 2 * len(a)))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_request_is_a_valid_well(workload):
    # exit code 2 (validation failure) must never happen
    for seed in range(3):
        for r in range(2):
            for req in round_requests(workload, seed, r):
                cfg = semibs.cli.parse_config(req.config_text())
                report = validate_well(cfg.symbol(), cfg.window)
                assert report.ok, (req, report.failures)


@pytest.mark.parametrize("seed", (83, 175, 216, 292))
def test_generator_survives_a_tie_at_the_grid_minimum(seed):
    # on these seeds a grid neighbour of a well's grid minimum ties with it
    assert len(round_requests("spectrum", seed, 0)) == 8


def _request(seed, with_p2):
    for req in round_requests("spectrum", seed, 0):
        if bool(req.p2) == with_p2 and req.well.kind != "morse":
            return req
    raise LookupError


def test_reference_survives_the_grid_tie_defect():
    # x^2 + h (c0 + 0.15 x) has its minimum half-way between two points of
    # the program's scan grid; its levels are h (2n + 1) + h c0 - h^2 c1^2/4
    req = next(r for r in round_requests("spectrum", 83, 0)
               if r.well.kind == "harmonic" and r.p1)
    (c0, c1), h = req.p1, req.h
    assert c1 == 0.15
    ref = check._oracle_levels(semibs, req, 1.0)
    assert len(ref) == 2
    for n, e in ref.items():
        assert abs(e - (h * (2 * n + 1) + h * c0 - h * h * c1 * c1 / 4)) \
            < check.REF_FLOOR


def test_a_check_that_raises_is_an_unexplained_failure(monkeypatch):
    def raising(*args):
        raise ValueError("no reference")
    monkeypatch.setitem(check.CHECKERS, "flux-lab", raising)
    rec = {"req": round_requests("flux-lab", 0, 0)[0], "code": 0, "out": "",
           "err": ""}
    run._check_all(semibs, "flux-lab", [rec])
    assert not rec["verdict"].ok and not rec["verdict"].explained


def _spectrum_csv(levels):
    rows = [check.SPECTRUM_HEADER] + [
        f"{n},{e!r},{e!r},{e!r},,," for n, e in sorted(levels.items())]
    return "\n".join(rows) + "\n"


def test_spectrum_checker_rejects_a_perturbed_level():
    req = _request(0, with_p2=False)
    ref = check._oracle_levels(semibs, req, 1.0)
    assert check.check_spectrum(semibs, req, 0, _spectrum_csv(ref)).ok
    n = min(ref)
    bad = dict(ref)
    bad[n] += 2.0 * check.level_tolerance(req.h)
    verdict = check.check_spectrum(semibs, req, 0, _spectrum_csv(bad))
    assert not verdict.ok and not verdict.explained
    assert not check.check_spectrum(semibs, req, 3, _spectrum_csv(ref)).ok


def test_spectrum_checker_names_the_p2_sign_defect():
    req = _request(0, with_p2=True)
    flipped = check._oracle_levels(semibs, req, -1.0)
    verdict = check.check_spectrum(semibs, req, 0, _spectrum_csv(flipped))
    assert not verdict.ok and verdict.explained == "p2-sign"


def _flux_csv(passed="1"):
    rows = [check.FLUX_HEADER]
    for name in check.FLUX_CHECKS:
        bound = check.FLUX_FIXED_BOUNDS.get(name, 1e-3)
        rows.append(f"{name},{bound / 10!r},{bound!r},1")
    rows[3] = rows[3][:-1] + passed
    return "\n".join(rows) + "\n"


def test_flux_checker_rejects_a_pass0_row():
    req = round_requests("flux-lab", 0, 0)[0]
    assert check.check_flux(semibs, req, 0, _flux_csv()).ok
    assert not check.check_flux(semibs, req, 3, _flux_csv("0")).ok


def test_tail_is_the_highest_percentile_with_ten_above():
    xs = [float(i) for i in range(1, 101)]
    assert run.tail(xs) == (90.0, 90.0)
    assert run.tail(xs[:12]) == (12.0, 100.0)


def test_tracer_counts_top_level_calls_only():
    expr = semibs.exprjet.parse("(x + 1)^2 * (x - 2)")
    tracer = Tracer()
    with tracer:
        sym = from_potential("x^2")
        sym.v(0.5)
        semibs.exprjet.evaluate(expr, 1.5)
    assert tracer.stats["exprjet.evaluate"].calls == 2
    # leaving the context restores the program's own functions
    assert not hasattr(semibs.exprjet.evaluate, "__wrapped__")
    assert not hasattr(semibs.symbols.evaluate, "__wrapped__")


def test_an_uncaught_exception_is_a_failed_request():
    class Crashing:
        @staticmethod
        def main(argv):
            raise ZeroDivisionError("inside the program")
    code, out, err, _ = run._call(Crashing, ["spectrum"])
    assert code == 1 and out == ""
    assert "ZeroDivisionError: inside the program" in err



def test_sampler_times_kernels_during_a_request_only():
    class Busy:
        @staticmethod
        def main(argv):
            t0 = perf_counter()
            while perf_counter() - t0 < 0.2:
                pass
            return 0
    sampler = run._Sampler()
    code, _, _, dt = run._call(Busy, [], sampler)
    assert code == 0 and len(sampler.samples) >= 4
    # the handler's time is taken out of the request's
    assert abs(dt + sampler.spent - 0.2) < 0.02
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
