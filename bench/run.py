"""semibs benchmark: one closed-loop client calling ``semibs.cli.main``.

    python3 bench/run.py --workload spectrum --seed 1 --seconds 15 --trace 0

One process is one client.  It calls ``semibs.cli.main(argv)`` in-process for
each request, one request at a time; a request is an INI config generated
from the seed (see workloads.py).  Requests come in rounds of fixed class
mix; another round starts only while it is expected to end within
``--seconds``, and at least one round always runs.  Every answer is checked
after the timed loop against references (check.py).

--trace 0  prints the end-to-end metrics.
--trace 1  runs a fixed number of rounds (TRACE_ROUNDS, not --seconds) and
           every request twice, untraced and traced (alternating which goes
           first), checks that both answers are byte-identical, and prints
           the per-layer metrics of the traced calls plus the tracing
           overhead.  It also enforces the layer-intent checks.

Times are reported at a reference machine speed.  The client times a small
fixed calibration kernel between requests and, from a SIGALRM handler in its
own thread, every CAL_PERIOD_S while a request runs; each request's latency
is its time minus the handler's, scaled by the mean of CAL_REF_S over the
kernel times taken during it and just before and after it.  Each set-up
probe is scaled likewise by a reference import timed before and after it.
On a shared machine whose speed drifts by tens of percent within minutes,
and at times within a request, this removes most of the noise that
otherwise dominates the difference between runs (see NOTES.md).  Raw times
are kept in the saved result.

The last line of stdout is the JSON result; earlier lines are a readable
report.  The full result with its environment is also written under
.bench_work/results/.  Exit status is 0 on a finished run (even when answers
are wrong: ``correct`` says so) and 2 when the program cannot be found.
"""

from __future__ import annotations

import os

# pin BLAS pools before numpy loads: one client is one thread of work
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("spectrum", "gram-sweep", "flux-lab")
SETUP_PROBES = 5
# Interpreter start plus the import of the program's dependencies.  Timed
# before and after every set-up probe, it gives the machine's speed at the
# kind of work set-up does; REF_IMPORT_S is its time at the reference speed.
REF_IMPORT = "import numpy, scipy.optimize, scipy.integrate"
REF_IMPORT_S = 0.7
# rounds of a traced run: fixed, so that its counts depend neither on
# --seconds nor on how fast the machine or the program is
TRACE_ROUNDS = {"spectrum": 1, "gram-sweep": 1, "flux-lab": 8}
TAIL_SAMPLES = 10          # samples that must lie above the tail percentile
CAL_SAMPLES = 16           # calibration kernels between two requests
CAL_PERIOD_S = 0.025       # calibration period while a request runs
CAL_REF_S = 0.00035        # kernel time at the reference speed

# a fixed short request that runs before the timed loop: it loads the lazy
# parts of numpy/scipy and the CLI path every workload goes through
WARMUP_CONFIG = """[problem]
potential = "x^2"
hbar = 0.02
energy_min = 0.3
energy_max = 0.4
"""


def calibration_kernel():
    """Seconds for a fixed CPU-bound kernel of Python float arithmetic and
    small numpy operations, the mix the program's hot loops run."""
    import numpy as np
    t0 = perf_counter()
    acc, x = 0.0, 0.3
    for i in range(1600):
        acc += (x * x - 0.5 * x + i * 1e-6) ** 2
    a = np.linspace(0.0, 1.0, 512)
    for _ in range(40):
        a = np.sqrt(a * a + 1.0) - 0.9
    return perf_counter() - t0


def _calibrate():
    return [calibration_kernel() for _ in range(CAL_SAMPLES)]


def _scale(kernel_times):
    """Factor that converts a time measured while these calibration kernel
    times were taken to the reference speed: the mean speed over them, so a
    slow stretch weighs by its length and one kernel hit by a context
    switch barely counts."""
    return statistics.fmean(CAL_REF_S / k for k in kernel_times)


class _Sampler:
    """Times the calibration kernel every CAL_PERIOD_S of wall time while
    it is entered.  The SIGALRM handler runs in the client's own thread, so
    its samples see the speed the request itself gets; ``spent`` is the
    handler's own time, which the request's time must not include."""

    def __init__(self):
        self.samples, self.spent, self._old = [], 0.0, None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(calibration_kernel())
        self.spent += perf_counter() - t0

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)


def _program_present():
    return (SRC / "semibs" / "cli.py").is_file()


def _import_program():
    sys.path.insert(0, str(SRC))
    import semibs.cli  # noqa: F401  (the import is part of set-up)
    import semibs.oracle
    import semibs.quantize
    import semibs.symbols
    return sys.modules["semibs"]


def _call(cli, argv, sampler=None):
    """One request; returns (exit code, stdout, stderr, seconds).  An
    exception the CLI does not turn into an exit code ends the request with
    code 1, as it would end the command, and its traceback goes to stderr.
    With a sampler, the kernels it times during the request are left in it
    and their time is not counted."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        with sampler or contextlib.nullcontext():
            try:
                code = cli.main(argv)
            except Exception:
                code = 1
                traceback.print_exc()
        dt = perf_counter() - t0
    if sampler is not None:
        dt -= sampler.spent
    return code, out.getvalue(), err.getvalue(), dt


def _setup(workload, seed, tmp):
    """Import, generate the first round, warm up.  Returns round 0."""
    semibs = _import_program()
    from workloads import round_requests
    first = round_requests(workload, seed, 0)
    warm = tmp / "warmup.ini"
    warm.write_text(WARMUP_CONFIG)
    code, _, err, _ = _call(semibs.cli, ["wronskian-check", "--config",
                                         str(warm)])
    if code != 0:
        raise RuntimeError(f"warm-up request failed ({code}): {err}")
    return semibs, first


def _until_ready(argv):
    """Seconds from starting the process ``argv`` to its "ready" line."""
    t0 = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        dt = perf_counter() - t0
        rest, err = proc.communicate(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{argv[1]} failed: {line}{rest}{err}")
    return dt


def _probe_setup(workload, seed):
    """Seconds from worker start to ready, in fresh processes; returns
    (scaled samples, raw samples, reference samples).  Each probe is scaled
    by REF_IMPORT_S over the mean of the reference imports just before and
    just after it."""
    probe = [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", workload, "--seed", str(seed)]
    ref = [sys.executable, "-c", REF_IMPORT + "; print('ready')"]
    refs = [_until_ready(ref)]
    raw = []
    for _ in range(SETUP_PROBES):
        raw.append(_until_ready(probe))
        refs.append(_until_ready(ref))
    scaled = [dt * 2.0 * REF_IMPORT_S / (before + after)
              for dt, before, after in zip(raw, refs, refs[1:])]
    return scaled, raw, refs


def _closed_loop(semibs, workload, seed, first, seconds, tracer, tmp):
    """Run rounds; returns one record per request and the calibration
    kernel times taken between requests."""
    from workloads import round_requests
    cli = semibs.cli
    config = tmp / "request.ini"
    records = []
    elapsed = 0.0
    r = 0
    reqs = first
    gaps = [_calibrate()]            # gaps[i] precedes request i
    sampler = _Sampler()
    while True:
        t_round = 0.0
        for req in reqs:
            config.write_text(req.config_text())
            argv = [req.subcommand, "--config", str(config)]
            rec = {"req": req}
            if tracer is None:
                rec["code"], rec["out"], rec["err"], rec["raw"] = \
                    _call(cli, argv, sampler)
                rec["during"] = sampler.samples
            else:
                # traced pair, alternating which run goes first
                runs = {}
                for mode in (("plain", "traced") if req.index % 2 == 0
                             else ("traced", "plain")):
                    if mode == "traced":
                        with tracer:
                            runs[mode] = _call(cli, argv)
                    else:
                        runs[mode] = _call(cli, argv)
                rec["code"], rec["out"], rec["err"], rec["raw"] = \
                    runs["plain"]
                rec["traced_raw"] = runs["traced"][3]
                rec["traced_same"] = runs["traced"][:2] == runs["plain"][:2]
            t_round += rec["raw"] + rec.get("traced_raw", 0.0)
            gaps.append(_calibrate())
            records.append(rec)
        elapsed += t_round
        r += 1
        if tracer is not None:
            done = r >= TRACE_ROUNDS[workload]
        else:
            # start another round only if it should end inside the budget
            done = elapsed + t_round > seconds
        if done:
            break
        reqs = round_requests(workload, seed, r)
    for rec, before, after in zip(records, gaps, gaps[1:]):
        rec["scale"] = _scale(before + rec.get("during", []) + after)
        rec["latency"] = rec["raw"] * rec["scale"]
    return records, gaps


def tail(latencies):
    """(value, percentile): the highest order statistic with TAIL_SAMPLES
    samples above it.  Below 2 * TAIL_SAMPLES samples that statistic would
    sit under the median, so the maximum is reported instead (p100)."""
    xs = sorted(latencies)
    n = len(xs)
    rank = n - TAIL_SAMPLES          # 1-based rank of the tail sample
    if rank < n / 2:
        return xs[-1], 100.0
    return xs[rank - 1], 100.0 * rank / n


def _environment(semibs, seed):
    try:
        import numba  # noqa: F401
        numba_ok = True
    except ImportError:
        numba_ok = False
    import numpy
    import scipy
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_imports": numba_ok,
        "oracle_backend": "numba" if semibs.oracle._HAVE_NUMBA else "python",
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "platform": platform.platform(),
    }


def _check_all(semibs, workload, records):
    """Verdict per record.  A check that raises, for instance because the
    oracle cannot compute a reference, leaves the request unverified: it is
    failed and unexplained, and the run still reports."""
    from check import CHECKERS, Verdict
    checker = CHECKERS[workload]
    for rec in records:
        try:
            rec["verdict"] = checker(semibs, rec["req"], rec["code"],
                                     rec["out"])
        except Exception as exc:
            rec["verdict"] = Verdict(False, reason=f"check raised {exc!r}")
        if rec["code"] != 0 and rec["err"].strip():
            rec["verdict"].reason += \
                f" ({rec['err'].strip().splitlines()[-1]})"
        if rec.get("traced_same") is False:
            rec["verdict"].ok = False
            rec["verdict"].explained = ""
            rec["verdict"].reason = "traced answer differs from untraced"


def _end_to_end(records, setup, peak_rss_mb):
    latencies = [r["latency"] for r in records]
    busy = sum(latencies)
    n = len(records)
    failed = sum(1 for r in records if not r["verdict"].ok)
    levels = sum(r["verdict"].levels for r in records if r["verdict"].ok)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "requests_per_s": (n / busy, "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail(latencies)[0], "s"),
        "levels_per_s": (levels / busy, "1/s"),
        "success_rate": (1.0 - failed / n, "fraction"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not _program_present():
        print(f"error: no semibs sources under {SRC}", file=sys.stderr)
        return 2

    # files of this process only: runs may share a checkout
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix="run-") as tmp:
        if args.setup_probe:
            _setup(args.workload, args.seed, Path(tmp))
            print("ready", flush=True)
            return 0
        return _run(args, Path(tmp))


def _run(args, tmp):
    """One benchmark run; prints the report and the result line."""
    t_start = perf_counter()
    setup = setup_raw = setup_ref = []
    if not args.trace:
        setup, setup_raw, setup_ref = _probe_setup(args.workload, args.seed)
    semibs, first = _setup(args.workload, args.seed, tmp)

    tracer = None
    if args.trace:
        from layers import Tracer
        tracer = Tracer()
    records, gaps = _closed_loop(semibs, args.workload, args.seed, first,
                                  args.seconds, tracer, tmp)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    t_check = perf_counter()
    _check_all(semibs, args.workload, records)
    t_done = perf_counter()
    env = _environment(semibs, args.seed)

    attempted = len(records)
    failed = [r for r in records if not r["verdict"].ok]
    unexplained = [r for r in failed if not r["verdict"].explained]
    raw = [r["raw"] for r in records]
    tail_value, tail_pct = tail([r["latency"] for r in records])

    lines = [f"# env {json.dumps(env, sort_keys=True)}",
             f"# wall: {t_check - t_start:.1f} s set-up and requests, "
             f"{t_done - t_check:.1f} s checks"]
    for rec in failed:
        v = rec["verdict"]
        lines.append(f"# failed request {rec['req'].index} {rec['req'].cls}: "
                     f"{v.reason}" + (f" [known defect: {v.explained}]"
                                      if v.explained else " [UNEXPLAINED]"))
    correct = not unexplained
    if args.trace:
        from layers import layer_intent, layer_metrics
        traced = sum(r["traced_raw"] for r in records)
        metrics = layer_metrics(tracer, attempted, sum(raw), traced)
        intent = layer_intent(args.workload, tracer)
        for msg in intent:
            lines.append(f"# layer-intent FAILED: {msg}")
        correct = correct and not intent
        own = tracer.module_self()
        lines.append("# layer busy_s / self_s: " + ", ".join(
            f"{m}={tracer.module_busy[m]:.3f}/{own[m]:.3f}"
            for m in sorted(tracer.module_busy)))
    else:
        metrics = _end_to_end(records, setup, peak_rss_mb)
        lines.append(
            f"# latency_tail_s is p{tail_pct:.1f} of {attempted} samples; "
            f"error_rate = {len(failed)}/{attempted} = "
            f"{len(failed) / attempted:.4f} "
            f"({len(failed) - len(unexplained)} known-defect); "
            f"raw timed {sum(raw):.3f} s, raw setup "
            f"{[round(x, 3) for x in setup_raw]}, reference import "
            f"{[round(x, 3) for x in setup_ref]}")
        for name, m in metrics.items():
            lines.append(f"# {name} = {m['value']:.6g} {m['unit']}")

    result = {"correct": correct, "attempted": attempted,
              "failed": len(failed), "metrics": metrics}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
     ".json").write_text(json.dumps(
         {**result, "workload": args.workload, "env": env,
          "tail_percentile": tail_pct, "setup_raw": setup_raw,
          "setup_reference": setup_ref,
          "calibration": gaps,
          "requests": [{"index": r["req"].index, "class": r["req"].cls,
                        "latency": r["latency"], "raw": r["raw"],
                        "scale": r["scale"],
                        "kernels_during": len(r.get("during", [])),
                        "ok": r["verdict"].ok, "levels": r["verdict"].levels,
                        "worst": r["verdict"].worst,
                        "reason": r["verdict"].reason,
                        "explained": r["verdict"].explained}
                       for r in records]}, indent=1))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
