"""Command-line interface: configs, subcommands, CSV output, exit codes."""

import collections
import configparser
import io
import os
import pathlib
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import semibs
from semibs import cli, exprjet, oracle, orbit, quantize, symbols, wronlab
from semibs.cli import (CONFIG_KEYS, EXIT_NONCONVERGENCE, EXIT_OK,
                        EXIT_VALIDATION, ConfigError, RunConfig, main,
                        parse_config)


BASE_CONFIG = """\
[problem]
potential = "x^2"
hbar = 0.2
energy_min = 0.05
energy_max = 1.1

[solver]
order = 0
"""


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SRC = str(pathlib.Path(semibs.__file__).resolve().parents[1])


def _python(*args):
    """A fresh interpreter on this package's sources, run to completion."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def test_spectrum_columns_and_exit(tmp_path, capsys):
    cfg = _write(tmp_path, BASE_CONFIG)
    assert main(["spectrum", "--config", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "n,E_bs0,E_bs1,E_bs2,E_oracle,err0,err2"
    assert len(lines) == 4  # levels 0.2, 0.6, 1.0
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == pytest.approx(0.2, abs=1e-9)
    assert float(first[4]) == pytest.approx(0.2, abs=1e-8)


def test_identical_configs_give_identical_bytes(tmp_path):
    cfg = _write(tmp_path, BASE_CONFIG)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["spectrum", "--config", cfg, "--out", out1]) == EXIT_OK
    assert main(["spectrum", "--config", cfg, "--out", out2]) == EXIT_OK
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_gram_scan_output(tmp_path, capsys):
    cfg = _write(tmp_path, BASE_CONFIG)
    assert main(["gram-scan", "--config", cfg]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "E,det,zero_flag"
    flags = [int(line.split(",")[2]) for line in lines[1:]]
    assert sum(flags) == 3  # one flagged grid row per level


def test_oracle_output(tmp_path, capsys):
    cfg = _write(tmp_path, BASE_CONFIG)
    assert main(["oracle", "--config", cfg]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,E"
    assert len(lines) == 4
    assert float(lines[2].split(",")[1]) == pytest.approx(0.6, abs=1e-9)


def test_convergence_output(tmp_path, capsys):
    text = BASE_CONFIG.replace("hbar = 0.2", "hbar = 0.2,0.15,0.1") \
                      .replace("energy_max = 1.1", "energy_max = 0.52")
    cfg = _write(tmp_path, text)
    assert main(["convergence", "--config", cfg]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "h,max_err_order0,max_err_order2"
    assert len(lines) == 5
    assert lines[-1].startswith("# slope_order0=")
    assert "slope_order2=" in lines[-1]


def test_wronskian_check_output(tmp_path, capsys):
    cfg = _write(tmp_path, BASE_CONFIG.replace("hbar = 0.2", "hbar = 0.05"))
    assert main(["wronskian-check", "--config", cfg]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "check,value,bound,pass"
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == ["flux_norm_a", "flux_norm_a_prime", "mixed_term",
                     "chi_independence", "sum_identity",
                     "gram_det_vs_analytic", "gram_off_diagonal",
                     "wronskian_identity"]
    assert all(line.split(",")[3] == "1" for line in lines[1:])


def test_cli_overrides(tmp_path, capsys):
    cfg = _write(tmp_path, BASE_CONFIG)
    assert main(["spectrum", "--config", cfg, "--hbar", "0.4"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2  # only E = 0.4 inside the window
    assert float(lines[1].split(",")[1]) == pytest.approx(0.4, abs=1e-9)


def test_validation_failures_exit_2(tmp_path, capsys):
    double_well = BASE_CONFIG.replace('"x^2"', '"(x^2 - 1)^2"')
    assert main(["spectrum", "--config",
                 _write(tmp_path, double_well)]) == EXIT_VALIDATION
    bad_order = BASE_CONFIG.replace("order = 0", "order = 5")
    assert main(["spectrum", "--config",
                 _write(tmp_path, bad_order)]) == EXIT_VALIDATION
    assert main(["spectrum", "--config",
                 str(tmp_path / "missing.ini")]) == EXIT_VALIDATION
    assert main(["convergence", "--config",
                 _write(tmp_path, BASE_CONFIG)]) == EXIT_VALIDATION
    bad_syntax = BASE_CONFIG.replace('"x^2"', '"x^^2"')
    assert main(["spectrum", "--config",
                 _write(tmp_path, bad_syntax)]) == EXIT_VALIDATION
    bad_domain = BASE_CONFIG.replace('"x^2"', '"log(x)"')
    assert main(["spectrum", "--config",
                 _write(tmp_path, bad_domain)]) == EXIT_VALIDATION
    capsys.readouterr()
    # nested too deep for the evaluators to recurse: refused, no traceback
    for deep in ("(" * 245 + "x^2" + ")" * 245, "+".join(["x^2"] * 490),
                 "x^2" + "^1" * 300, "-" * 500 + "x^2"):
        text = BASE_CONFIG.replace('"x^2"', f'"{deep}"')
        assert main(["spectrum", "--config",
                     _write(tmp_path, text)]) == EXIT_VALIDATION
        assert "levels deep" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    # the minimum x = 1.5 lies past the end of the scan domain [-1, 1]
    ('"(x - 1.5)^2"\nenergy_min = 0.1\nenergy_max = 0.2',
     "potential minimum not interior to scan domain"),
    # V' and V'' vanish at x = 0.50025, a midpoint of validate_well's grid,
    # where V = energy_min
    ('"(x + 0.49975)^4 - 8/3*(x + 0.49975)^3 + 2*(x + 0.49975)^2"\n'
     'energy_min = 0.3333333333333335\nenergy_max = 0.5',
     "degenerate turning point near x = 0.50025"),
    # the same well shifted: its flat point x = 0.5004 is 1.5e-4 from the
    # midpoint 0.50025, where |V'| = 9e-8; V' at the crossing is 1.3e-10
    ('"(x + 0.4996)^4 - 8/3*(x + 0.4996)^3 + 2*(x + 0.4996)^2"\n'
     'energy_min = 0.3333333333333335\nenergy_max = 0.5',
     "degenerate turning point near x = 0.50025"),
])
def test_wells_that_break_the_hypotheses_exit_2(tmp_path, capsys, text,
                                               message):
    cfg = _write(tmp_path, f"[problem]\npotential = {text}\nhbar = 0.1\n")
    for command in ("spectrum", "gram-scan", "wronskian-check", "oracle"):
        assert main([command, "--config", cfg]) == EXIT_VALIDATION, command
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value, message", [
    ("solver", "quad_tol", "0", "quad_tol must be positive"),
    ("solver", "root_tol", "-1e-10", "root_tol must be positive"),
    ("oracle", "shoot_tol", "0.0", "shoot_tol must be positive"),
    ("oracle", "halfwidth_factor", "1.49", "halfwidth_factor must be >= 1.5"),
    ("wronlab", "grid_points_per_oscillation", "3",
     "grid_points_per_oscillation must be >= 4"),
])
def test_out_of_range_config_values_exit_2(tmp_path, capsys, section, key,
                                           value, message):
    cp = configparser.ConfigParser()
    cp.read_string(BASE_CONFIG)
    if not cp.has_section(section):
        cp.add_section(section)
    cp[section][key] = value
    buf = io.StringIO()
    cp.write(buf)
    text = buf.getvalue()
    with pytest.raises(ConfigError, match=message):
        parse_config(text).validate()
    assert main(["spectrum", "--config",
                 _write(tmp_path, text)]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err


def test_grid_tie_potentials_exit_0(tmp_path, capsys):
    # minima half-way between grid points of the turning-point scan (0.15)
    # and of validate_well's scan (0.155)
    for c in (0.15, 0.155):
        text = BASE_CONFIG.replace('"x^2"', f'"x^2 + 0.1*(0.2 + {c}*x)"') \
                          .replace("hbar = 0.2", "hbar = 0.1") \
                          .replace("energy_min = 0.05", "energy_min = 0.1") \
                          .replace("energy_max = 1.1", "energy_max = 0.6")
        assert main(["spectrum", "--config",
                     _write(tmp_path, text)]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        # the shifted oscillator: E = h(2n+1) + 0.02 - 0.0025 c^2
        for line in lines[1:]:
            n, e0 = line.split(",")[:2]
            assert float(e0) == pytest.approx(
                0.1 * (2 * int(n) + 1) + 0.02 - 0.0025 * c * c, abs=1e-9)


def test_nonconvergence_exits_3(tmp_path, capsys):
    # a window containing no quantization level at this hbar
    empty = BASE_CONFIG.replace("hbar = 0.2", "hbar = 0.3") \
                       .replace("energy_min = 0.05", "energy_min = 0.35") \
                       .replace("energy_max = 1.1", "energy_max = 0.55")
    assert main(["spectrum", "--config",
                 _write(tmp_path, empty)]) == EXIT_NONCONVERGENCE
    # turning zones overlap: h too large for the WKB grid
    assert main(["wronskian-check", "--config",
                 _write(tmp_path, BASE_CONFIG)]) == EXIT_NONCONVERGENCE
    capsys.readouterr()


def test_overlapping_turning_zones_name_the_hbar_at_which_they_clear(capsys):
    # the built-in default: x^2, hbar 0.1, window [0.05, 1.0]
    assert main(["wronskian-check"]) == EXIT_NONCONVERGENCE
    err = capsys.readouterr().err
    assert "turning zones overlap" in err
    h_clear = float(re.search(r"clear for hbar below ([^)]+)\)", err)[1])
    assert h_clear == pytest.approx(0.0664, abs=1e-4)
    # the zones clear just below that hbar, and overlap just above it
    assert main(["wronskian-check", "--hbar",
                 repr(0.99 * h_clear)]) == EXIT_OK
    capsys.readouterr()
    assert main(["wronskian-check", "--hbar",
                 repr(1.01 * h_clear)]) == EXIT_NONCONVERGENCE
    assert "turning zones overlap" in capsys.readouterr().err


@pytest.mark.parametrize("section,key", [
    ("solver", "eta"),              # a key this version no longer reads
    ("solver", "quadtol"),          # a typo
    ("oracle", "order"),            # a known key in the wrong section
    ("DEFAULT", "quad_tol"),        # [DEFAULT] reaches every section
])
def test_unknown_config_keys_exit_2(tmp_path, capsys, section, key):
    cp = configparser.ConfigParser()
    cp.read_string(BASE_CONFIG)
    if section != cp.default_section and not cp.has_section(section):
        cp.add_section(section)
    cp[section][key] = "0.008"
    buf = io.StringIO()
    cp.write(buf)
    text = buf.getvalue()
    with pytest.raises(ConfigError, match=fr"unknown key \[{section}\] {key}"):
        parse_config(text)
    assert main(["spectrum", "--config",
                 _write(tmp_path, text)]) == EXIT_VALIDATION
    assert f"unknown key [{section}] {key}" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_a_well_too_narrow_to_resolve_exits_without_a_traceback(tmp_path,
                                                                capsys):
    # V = 1e200 x^2: the turning points at E in [1, 2] are about 1e-100
    # apart, inside the root solve's tolerance, so they coincide; the
    # window holds no oracle level either
    text = ('[problem]\npotential = "1e200*x^2"\nhbar = 0.1\n'
            'energy_min = 1\nenergy_max = 2\n')
    cfg = _write(tmp_path, text)
    for command in ("spectrum", "gram-scan", "wronskian-check", "oracle"):
        assert main([command, "--config", cfg]) in (
            EXIT_OK, EXIT_VALIDATION, EXIT_NONCONVERGENCE), command
        out = capsys.readouterr()
        assert "Traceback" not in out.err, command
        if command == "oracle":
            assert out.out == "n,E\n"
        if command == "wronskian-check":
            assert "turning points coincide" in out.err


NARROW_CONFIG = """\
[problem]
potential = "1e200*x^2"
hbar = 0.1
energy_min = 1
energy_max = 2
"""


@pytest.mark.parametrize("command", ["spectrum", "gram-scan"])
def test_an_overflowing_orbit_quadrature_exits_3_without_warnings(
        tmp_path, command):
    run = _python("-m", "semibs.cli", command, "--config",
                  _write(tmp_path, NARROW_CONFIG))
    assert run.returncode == EXIT_NONCONVERGENCE
    assert "RuntimeWarning" not in run.stderr
    assert "orbit quadrature overflowed" in run.stderr


HIGH_LEVELS_CONFIG = """\
[problem]
potential = "x^2"
hbar = 0.001
energy_min = 0.5
energy_max = 0.51
"""


def test_spectrum_stands_when_only_the_oracle_fails(tmp_path, capsys,
                                                    monkeypatch):
    # levels near n = 250 on an oracle base grid held at BASE_N points
    # (k dx = 1.07 at the top level, allowed by a raised KDX_MAX): four
    # doublings do not reach its agreement tolerance, so oracle exits 3;
    # spectrum's own levels stand, with the oracle columns blank and the
    # reason on stderr
    monkeypatch.setattr(oracle, "KDX_MAX", 1.2)
    cfg = _write(tmp_path, HIGH_LEVELS_CONFIG)
    reason = "oracle did not converge under grid refinement"
    assert main(["oracle", "--config", cfg]) == EXIT_NONCONVERGENCE
    assert reason in capsys.readouterr().err
    assert main(["spectrum", "--config", cfg]) == EXIT_OK
    captured = capsys.readouterr()
    assert reason in captured.err
    rows = [line.split(",")
            for line in captured.out.strip().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == [250, 251, 252, 253, 254]
    for r in rows:
        assert float(r[3]) == pytest.approx(0.001 * (2 * int(r[0]) + 1),
                                            abs=1e-9)
        assert r[4:] == ["", "", ""]


def _spectrum_rows(tmp_path, capsys, text):
    assert main(["spectrum", "--config", _write(tmp_path, text)]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    return [line.split(",") for line in lines[1:]]


def test_a_base_grid_sized_from_k_dx_fills_the_oracle_columns(tmp_path,
                                                              capsys):
    # the same levels on a base grid of 4572 points, k dx = 0.5
    rows = _spectrum_rows(tmp_path, capsys, HIGH_LEVELS_CONFIG)
    assert [int(r[0]) for r in rows] == [250, 251, 252, 253, 254]
    for r in rows:
        assert float(r[4]) == pytest.approx(0.001 * (2 * int(r[0]) + 1),
                                            abs=1e-9)


def test_oracle_columns_pair_by_node_count(tmp_path, capsys):
    # the level E = 0.05 sits on the window edge: bs_solve keeps it, and
    # the oracle's base grid puts it just below the edge while its refined
    # value lies inside, so every row pairs with the level of its own index
    text = BASE_CONFIG.replace("hbar = 0.2", "hbar = 0.05") \
                      .replace("energy_max = 1.1", "energy_max = 0.5")
    rows = _spectrum_rows(tmp_path, capsys, text)
    assert [int(r[0]) for r in rows] == [0, 1, 2, 3, 4]
    assert all(r[4] for r in rows)
    for r in rows:
        assert float(r[4]) == pytest.approx(0.05 * (2 * int(r[0]) + 1),
                                            abs=1e-9)
        assert float(r[5]) < 1e-9


def test_oracle_columns_use_the_effective_well(tmp_path, capsys):
    # -h^2 d^2/dx^2 + x^2 + h x = ... + (x + h/2)^2 - h^2/4
    h = 0.1
    text = BASE_CONFIG.replace('potential = "x^2"',
                               'potential = "x^2"\np1 = "x"') \
                      .replace("hbar = 0.2", f"hbar = {h}") \
                      .replace("energy_max = 1.1", "energy_max = 1.0") \
                      .replace("order = 0", "order = 2")
    rows = _spectrum_rows(tmp_path, capsys, text)
    assert len(rows) == 5
    for r in rows:
        exact = h * (2 * int(r[0]) + 1) - h * h / 4
        assert float(r[4]) == pytest.approx(exact, abs=1e-9)
        assert float(r[5]) == pytest.approx(h * h / 4, abs=1e-9)
        assert float(r[6]) < 1e-9


@pytest.mark.parametrize("h", [0.1, 0.05, 0.07, 1e-05, 0.3])
@pytest.mark.parametrize("p1, p2", [("-0.201 + 0.111*x", "0"),
                                    ("x", "0.3*x^2 - 1"),
                                    ("0", "-(x - 0.5)^3/7")])
def test_the_oracle_well_is_the_parse_of_its_text(h, p1, p2):
    """V + h p1 + h^2 p2 built on the parsed terms is, with its hash, the
    tree the oracle used to parse from "(V) + h*(p1) + h^2*(p2)"."""
    cfg = parse_config(f'[problem]\npotential = "x^4 + 0.2*x^2"\n'
                       f'p1 = "{p1}"\np2 = "{p2}"\nhbar = {h!r}\n')
    well = cli._effective_well(cfg.symbol(), h)
    text = f"({cfg.potential}) + {h!r}*({cfg.p1}) + {h * h!r}*({cfg.p2})"
    assert well.potential == exprjet.parse(text)
    assert hash(well.potential) == hash(exprjet.parse(text))
    assert well == symbols.from_potential(text)


def test_oracle_columns_blank_without_an_oracle(tmp_path, capsys):
    # p1 reads xi, or V + h^2 p2 = (x^2 - 1)^2 is a double well
    for extra in ('p1 = "0.1*xi"', 'p2 = "100*x^4 - 300*x^2 + 100"'):
        text = BASE_CONFIG.replace("hbar = 0.2", "hbar = 0.1") \
                          .replace('potential = "x^2"',
                                   f'potential = "x^2"\n{extra}')
        rows = _spectrum_rows(tmp_path, capsys, text)
        assert rows
        assert all(r[4:] == ["", "", ""] for r in rows)


BARRIER_CONFIG = """\
[problem]
potential = "x^2 + 0.1*x^3"
hbar = 0.1
energy_min = 10
energy_max = 14
"""


def test_a_window_behind_a_low_barrier_has_no_oracle(tmp_path, capsys):
    # the barrier top 14.8 is below e_max + pad = 15.4: no Dirichlet wall
    # confines the window, so oracle refuses it and spectrum leaves the
    # oracle columns blank
    cfg = _write(tmp_path, BARRIER_CONFIG)
    assert main(["oracle", "--config", cfg]) == EXIT_NONCONVERGENCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot confine the window" in captured.err
    rows = _spectrum_rows(tmp_path, capsys, BARRIER_CONFIG)
    assert len(rows) > 20
    assert all(r[3] and r[4:] == ["", "", ""] for r in rows)


MORSE_EDGE_CONFIG = """\
[problem]
potential = "(1 - exp(-x))^2"
hbar = 0.05
energy_min = 0.5
energy_max = 0.999
"""


def test_a_morse_window_below_dissociation_has_exact_oracle_levels(
        tmp_path, capsys):
    # V = 84 at the left wall: on 2000 points f = 1 + dx^2 (E - V) / (12 h^2)
    # was -0.89 there, and node counts found 28 levels below 0.999, not 19
    def exact(n):
        return 0.1 * (n + 0.5) - 0.0025 * (n + 0.5) ** 2

    cfg = _write(tmp_path, MORSE_EDGE_CONFIG)
    assert main(["oracle", "--config", cfg]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    levels = dict(line.split(",") for line in lines[1:])
    assert [int(n) for n in levels] == list(range(6, 19))
    for n, e in levels.items():
        assert float(e) == pytest.approx(exact(int(n)), abs=1e-9)
    rows = _spectrum_rows(tmp_path, capsys, MORSE_EDGE_CONFIG)
    assert [int(r[0]) for r in rows] == list(range(6, 19))
    for r in rows:
        assert float(r[4]) == pytest.approx(exact(int(r[0])), abs=1e-9)


QUARTIC_BOTTOM_CONFIG = """\
[problem]
potential = "x^4"
hbar = 0.05
energy_min = 1e-6
energy_max = 1
"""


def test_a_window_from_the_well_bottom_starts_at_level_0(tmp_path, capsys):
    # h^2 S2 diverges at the bottom of x^4, so order-2 S_eff at e_min is
    # -23; a row below n = 0 has no order-0 level (S0 >= 0), and spectrum
    # exited 3 on it
    rows = _spectrum_rows(tmp_path, capsys, QUARTIC_BOTTOM_CONFIG)
    assert [int(r[0]) for r in rows] == list(range(11))
    for r in rows:
        assert abs(float(r[4]) - float(r[1])) < 5e-3


def test_wronskian_check_solves_each_turning_point_once(tmp_path, capsys,
                                                         monkeypatch):
    orbit._turning_points.cache_clear()
    solves = []
    bracket_root = orbit._bracket_root

    def counted(potential, e, x0, direction):
        solves.append((potential, e, direction))
        return bracket_root(potential, e, x0, direction)

    monkeypatch.setattr(orbit, "_bracket_root", counted)
    text = BASE_CONFIG.replace("hbar = 0.2", "hbar = 0.05")
    assert main(["wronskian-check", "--config",
                 _write(tmp_path, text)]) == EXIT_OK
    capsys.readouterr()
    energies = {e for _, e, _ in solves}
    assert energies
    assert len(solves) == len(set(solves)) == 2 * len(energies)


def test_wronskian_check_integrates_the_phase_once(tmp_path, capsys,
                                                  monkeypatch):
    wronlab._phase_record.cache_clear()
    calls = {"_offset_from_turning_point": 0, "_cumulative_integral": 0}
    for name in calls:
        original = getattr(wronlab, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(wronlab, name, counted)
    text = BASE_CONFIG.replace("hbar = 0.2", "hbar = 0.05")
    assert main(["wronskian-check", "--config",
                 _write(tmp_path, text)]) == EXIT_OK
    capsys.readouterr()
    assert calls == {"_offset_from_turning_point": 2,
                     "_cumulative_integral": 1}


def test_wronskian_check_computes_each_commutator_once(tmp_path, capsys,
                                                       monkeypatch):
    wronlab._flux_record.cache_clear()
    wronlab._cutoff_profile.cache_clear()
    applied = []
    apply_commutator = wronlab.apply_commutator

    def counted(sym, h, chi, u, check_tol=None):
        applied.append(chi)
        return apply_commutator(sym, h, chi, u, check_tol)

    monkeypatch.setattr(wronlab, "apply_commutator", counted)
    built = []
    build_wkb = wronlab.build_wkb

    def counted_build(*args):
        built.append(args)
        return build_wkb(*args)

    monkeypatch.setattr(wronlab, "build_wkb", counted_build)
    evaluated = collections.Counter()   # (method, cutoff) on a whole grid
    for name in ("value", "dvalue", "d2value"):
        method = getattr(wronlab.CutoffSpec, name)

        def spy(self, x, _name=name, _method=method):
            if np.ndim(x):
                evaluated[(_name, self)] += 1
            return _method(self, x)

        monkeypatch.setattr(wronlab.CutoffSpec, name, spy)
    text = BASE_CONFIG.replace("hbar = 0.2", "hbar = 0.05")
    assert main(["wronskian-check", "--config",
                 _write(tmp_path, text)]) == EXIT_OK
    capsys.readouterr()
    # chi_a, chi_a', the second cutoff of the independence check, and the
    # identity check's cutoff: 3 branch fluxes, one sum, one identity; the
    # minus branch and its flux are conjugates of the plus ones
    cutoffs = set(applied)
    assert len(cutoffs) == 4
    assert len(applied) == 5
    assert len(built) == 3
    assert evaluated == {(name, chi): 1 for chi in cutoffs
                         for name in ("value", "dvalue", "d2value")}


def test_the_cli_path_loads_no_scipy_integrate():
    script = ("import sys\n"
              "import semibs.cli\n"
              "assert 'scipy.integrate' not in sys.modules, 'on import'\n"
              "code = semibs.cli.main(['wronskian-check', '--hbar', '0.05'])\n"
              "assert 'scipy.integrate' not in sys.modules, 'on a request'\n"
              "sys.exit(code)\n")
    run = _python("-c", script)
    assert run.returncode == EXIT_OK, run.stderr
    assert run.stdout.startswith("check,value,bound,pass")


def test_the_parser_is_built_once_and_still_refuses_bad_arguments(capsys):
    assert cli._build_parser() is cli._build_parser()
    for argv in (["no-such-command"], ["spectrum", "--order"],
                 ["spectrum", "--no-such-flag"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_VALIDATION
    assert main(["spectrum", "--hbar", "x"]) == EXIT_VALIDATION
    assert "bad value for --hbar" in capsys.readouterr().err
    assert main(["oracle", "--hbar", "0.2"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("n,E\n")


def test_gram_scan_compiles_each_expression_once(tmp_path, capsys,
                                                 monkeypatch):
    for memo in (exprjet.compiled, exprjet.compiled_derivs2,
                 orbit._turning_points, symbols._grid_minimum):
        memo.cache_clear()
    solves = []   # (E, side) of every turning point solved, by either path
    bracket_root = orbit._bracket_root
    solve_array = orbit._turning_points_array

    def counted(potential, e, x0, direction):
        solves.append((e, direction))
        return bracket_root(potential, e, x0, direction)

    def counted_array(potential, es):
        solves.extend((e, side) for e in es for side in (-1, 1))
        return solve_array(potential, es)

    monkeypatch.setattr(orbit, "_bracket_root", counted)
    monkeypatch.setattr(orbit, "_turning_points_array", counted_array)
    text = BASE_CONFIG.replace('potential = "x^2"',
                               'potential = "x^2 + 0.3*x^4"\np1 = "0.1*x"') \
                      .replace("order = 0", "order = 1")
    assert main(["gram-scan", "--config", _write(tmp_path, text)]) == EXIT_OK
    capsys.readouterr()
    sym = parse_config(text).symbol()
    distinct = len({sym.p0, sym.p1, sym.p2, sym.potential})
    assert len(solves) >= 2 * quantize.TABLE_NODES  # two per table node
    assert 0 < exprjet.compiled.cache_info().misses <= distinct
    assert 0 < exprjet.compiled_derivs2.cache_info().misses <= distinct


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_power_overflow_in_the_domain_scan_exits_2(tmp_path, capsys):
    # the scan domain doubles out to |x| = 2^40, where x^31 overflows: V is
    # -inf there, as numpy gives, so the scan gives up and the window is
    # refused as above the barrier
    text = BASE_CONFIG.replace('"x^2"', '"x^31 + x^2"') \
                      .replace("hbar = 0.2", "hbar = 0.1") \
                      .replace("energy_min = 0.05", "energy_min = 0.1") \
                      .replace("energy_max = 1.1", "energy_max = 0.5")
    cfg = _write(tmp_path, text)
    for command in ("spectrum", "gram-scan", "wronskian-check", "oracle"):
        assert main([command, "--config", cfg]) == EXIT_VALIDATION, command
        assert "e_max above the potential barrier" in capsys.readouterr().err


FLOAT_KEYS = (("problem", "hbar"), ("problem", "energy_min"),
              ("problem", "energy_max"), ("solver", "quad_tol"),
              ("solver", "root_tol"),
              ("oracle", "halfwidth_factor"), ("oracle", "shoot_tol"),
              ("wronlab", "cutoff_r1"), ("wronlab", "cutoff_r2"))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section,key", FLOAT_KEYS)
def test_non_finite_config_values_exit_2(tmp_path, capsys, section, key,
                                         value):
    cp = configparser.ConfigParser()
    cp.read_string(BASE_CONFIG)
    if not cp.has_section(section):
        cp.add_section(section)
    cp[section][key] = value
    buf = io.StringIO()
    cp.write(buf)
    assert main(["spectrum", "--config",
                 _write(tmp_path, buf.getvalue())]) == EXIT_VALIDATION
    assert f"{key} must be finite" in capsys.readouterr().err


def test_config_round_trip():
    cfg = parse_config(BASE_CONFIG)
    buf = io.StringIO()
    cfg.dump(buf)
    cfg2 = parse_config(buf.getvalue())
    buf2 = io.StringIO()
    cfg2.dump(buf2)
    assert buf.getvalue() == buf2.getvalue()
    assert cfg2.potential == cfg.potential
    assert cfg2.hbar == cfg.hbar
    assert cfg2.order == cfg.order


def test_config_parsing_errors():
    with pytest.raises(ConfigError):
        parse_config("[problem]\nenergy_min = 1.0\nenergy_max = 0.5\n")
    with pytest.raises(ConfigError):
        parse_config("[problem]\nhbar = -0.1\n")
    with pytest.raises(ConfigError):
        parse_config("[solver]\norder = nine\n")
    with pytest.raises(ConfigError):
        parse_config("not an ini file [[[")


def test_dump_config_flag(tmp_path, capsys):
    cfg = _write(tmp_path, BASE_CONFIG)
    dump = str(tmp_path / "effective.ini")
    assert main(["spectrum", "--config", cfg, "--order", "1",
                 "--out", str(tmp_path / "s.csv"),
                 "--dump-config", dump]) == EXIT_OK
    reparsed = parse_config((tmp_path / "effective.ini").read_text())
    assert reparsed.order == 1
    assert reparsed.potential == "x^2"
    capsys.readouterr()


def test_default_config_is_valid():
    RunConfig().validate()


def test_config_key_table_covers_every_field():
    assert [key for _, key, _ in CONFIG_KEYS] == list(vars(RunConfig()))


CUTOFF_CONFIG = """\
[problem]
potential = "x^2"
hbar = 0.02
energy_min = 0.3
energy_max = 0.7
"""


def _checks(capsys):
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    return {line.split(",")[0]: line.split(",")[1] for line in lines}


def test_wronskian_check_gram_rows_use_the_configured_cutoffs(
        tmp_path, capsys, monkeypatch):
    assert main(["wronskian-check", "--config",
                 _write(tmp_path, CUTOFF_CONFIG)]) == EXIT_OK
    default = _checks(capsys)
    cutoffs = []
    gram_numeric = wronlab.gram_numeric

    def spy(*args, **kwargs):
        cutoffs.append((kwargs.get("chi_a"), kwargs.get("chi_ap")))
        return gram_numeric(*args, **kwargs)

    monkeypatch.setattr(wronlab, "gram_numeric", spy)
    text = CUTOFF_CONFIG + "[wronlab]\ncutoff_r1 = 0.35\ncutoff_r2 = 0.55\n"
    assert main(["wronskian-check", "--config",
                 _write(tmp_path, text)]) == EXIT_OK
    custom = _checks(capsys)
    assert [(c.r1, c.r2) for c in cutoffs[0]] == [(0.35, 0.55)] * 2
    for name in ("flux_norm_a", "gram_off_diagonal"):
        assert custom[name] != default[name], name


@pytest.mark.parametrize("radii, key", [
    ("cutoff_r1 = 0.3\n", "cutoff_r1 is set alone"),
    ("cutoff_r2 = 0.5\n", "cutoff_r2 is set alone"),
    ("cutoff_r1 = 0.5\ncutoff_r2 = 0.3\n", "0 < cutoff_r1 < cutoff_r2"),
    ("cutoff_r1 = 0.4\ncutoff_r2 = 0.4\n", "0 < cutoff_r1 < cutoff_r2"),
    ("cutoff_r1 = -0.1\ncutoff_r2 = 0.3\n", "0 < cutoff_r1 < cutoff_r2"),
])
def test_bad_cutoff_radii_exit_2(tmp_path, capsys, radii, key):
    # the radii go together and need 0 < r1 < r2: a config error, refused
    # before any work, with the keys named
    text = CUTOFF_CONFIG + "[wronlab]\n" + radii
    with pytest.raises(ConfigError, match=key):
        parse_config(text)
    assert main(["wronskian-check", "--config",
                 _write(tmp_path, text)]) == EXIT_VALIDATION
    assert key in capsys.readouterr().err


X2_H05 = """\
[problem]
potential = "x^2"
hbar = 0.05
[wronlab]
"""


def test_configured_radii_refine_the_grid_for_the_second_cutoff(
        tmp_path, capsys, monkeypatch):
    # x^2, h 0.05, default window: the admissible grid is [-0.1249, 0.1249].
    # The independence check's second cutoff changes on [-0.0999, 0.0375],
    # 0.025 from the left end: 8 points of a grid refined for the radii
    # (0.62, 0.82) alone, so the grid is refined for it too
    compared = []
    chi_independence_check = wronlab.chi_independence_check

    def spy(*args, **kwargs):
        compared.append(kwargs["chi_2"])
        return chi_independence_check(*args, **kwargs)

    monkeypatch.setattr(wronlab, "chi_independence_check", spy)
    text = X2_H05 + "cutoff_r1 = 0.62\ncutoff_r2 = 0.82\n"
    assert main(["wronskian-check", "--config",
                 _write(tmp_path, text)]) == EXIT_OK
    checks = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(checks) == 8
    assert all(line.endswith(",1") for line in checks)
    sym, e, h = symbols.from_potential("x^2"), 0.525, 0.05
    assert compared == [wronlab.default_cutoff(sym, e, h, "a",
                                               *wronlab.CHI_2_FRACS)]


@pytest.mark.parametrize("radii, transition", [
    ("cutoff_r1 = 0.2\ncutoff_r2 = 0.6\n", "[0.124569, 0.524569]"),
    ("cutoff_r1 = 0.3\ncutoff_r2 = 0.9\n", "[-0.175431, 0.424569]"),
])
def test_a_transition_at_the_grid_edge_is_refused_with_both_named(
        tmp_path, capsys, radii, transition):
    # chi_a's own transition reaches the right end of the admissible grid:
    # the refusal names it and the grid's ends
    assert main(["wronskian-check", "--config",
                 _write(tmp_path, X2_H05 + radii)]) == EXIT_NONCONVERGENCE
    err = capsys.readouterr().err
    assert "cutoff transition too close to the grid edge" in err
    assert f"the transition {transition} must keep 8 dx" in err
    assert "the grid [-0.124897, 0.124897]" in err


def test_grid_points_per_oscillation_is_used_as_given(tmp_path, capsys,
                                                      monkeypatch):
    asked = []
    default_grid = wronlab.default_grid

    def spy(*args, **kwargs):
        asked.append(kwargs["points_per_oscillation"])
        return default_grid(*args, **kwargs)

    monkeypatch.setattr(wronlab, "default_grid", spy)
    for ppo in (20, 63, 80):
        text = (CUTOFF_CONFIG
                + f"[wronlab]\ngrid_points_per_oscillation = {ppo}\n")
        assert main(["wronskian-check", "--config",
                     _write(tmp_path, text)]) == EXIT_OK
    capsys.readouterr()
    assert asked == [20, 63, 80]
    assert RunConfig().grid_points_per_oscillation == 63


@pytest.mark.parametrize("command", ["spectrum", "gram-scan", "oracle",
                                     "wronskian-check", "convergence"])
def test_potential_reading_xi_exits_2(tmp_path, capsys, command):
    text = BASE_CONFIG.replace('"x^2"', '"x^2 + xi"') \
                      .replace("hbar = 0.2", "hbar = 0.2,0.15,0.1")
    assert main([command, "--config", _write(tmp_path, text)]) \
        == EXIT_VALIDATION
    assert "must not read xi" in capsys.readouterr().err


def test_wronskian_check_refuses_an_unbounded_grid(tmp_path, capsys,
                                                   refuse_large_grids):
    # about 1.0e8 grid points: refused with exit 3 before any is allocated
    text = BASE_CONFIG.replace("hbar = 0.2", "hbar = 0.1") \
                      .replace("energy_max = 1.1", "energy_max = 1e6")
    t0 = time.perf_counter()
    assert main(["wronskian-check", "--config",
                 _write(tmp_path, text)]) == EXIT_NONCONVERGENCE
    assert time.perf_counter() - t0 <= 5.0
    assert "exceeds the limit" in capsys.readouterr().err


WIDE_X2 = """\
[problem]
potential = "x^2"
hbar = {h}
energy_min = 0.3
energy_max = {e_max}
"""
TINY_RADII = "[wronlab]\ncutoff_r1 = 5e-324\ncutoff_r2 = 1e-323\n"
HUGE_RADII = "[wronlab]\ncutoff_r1 = 0.1\ncutoff_r2 = 1e300\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, h, radii, code, message", [
    # 2.5e11 rows: refused before an index array is allocated
    ("spectrum", "1e-12", "", EXIT_NONCONVERGENCE, "a request may list"),
    ("gram-scan", "1e-12", "", EXIT_NONCONVERGENCE, "a request may list"),
    ("oracle", "1e-12", "", EXIT_NONCONVERGENCE, "would need"),
    ("wronskian-check", "1e-12", "", EXIT_NONCONVERGENCE,
     "exceeds the limit"),
    # hbar^2 below the least normal float: every layer divides by it
    *((command, h, "", EXIT_VALIDATION, "where hbar^2 is a normal float")
      for command in ("spectrum", "gram-scan", "oracle", "wronskian-check")
      for h in ("5e-324", "1e-300")),
    # a transition too narrow for a float spacing needs an infinite grid;
    # one 1e300 wide has derivative bounds that underflow to 0
    ("wronskian-check", "0.05", TINY_RADII, EXIT_NONCONVERGENCE,
     "grid of inf points exceeds the limit"),
    # its transition fits the grid, so the run prints its check table and
    # exits 3 on the checks that fail
    ("wronskian-check", "0.05", HUGE_RADII, EXIT_NONCONVERGENCE,
     "check,value,bound,pass\nflux_norm_a,1.0,0.1,0\n"),
])
def test_extreme_hbar_and_radii_exit_2_or_3(tmp_path, capsys, command, h,
                                            radii, code, message):
    text = WIDE_X2.format(h=h, e_max=0.8) + radii
    assert main([command, "--config", _write(tmp_path, text)]) == code
    captured = capsys.readouterr()
    assert message in (captured.out if radii == HUGE_RADII else captured.err)


def test_more_levels_than_the_oracle_solves_leave_its_columns_blank(
        tmp_path, capsys):
    # x^2 at h = 0.001 on [0.3, 0.8]: 250 levels, past the oracle's 200
    cfg = _write(tmp_path, WIDE_X2.format(h=0.001, e_max=0.8))
    reason = "holds 251 levels on the base grid, more than the 200"
    assert main(["oracle", "--config", cfg]) == EXIT_NONCONVERGENCE
    assert reason in capsys.readouterr().err
    assert main(["spectrum", "--config", cfg]) == EXIT_OK
    captured = capsys.readouterr()
    assert reason in captured.err
    rows = [line.split(",") for line in captured.out.splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(150, 400))
    assert all(r[4:] == ["", "", ""] for r in rows)


EXPONENT_CONFIG = """\
[problem]
potential = "x^2 + 0.1*2^x"
hbar = 0.05
energy_min = 0.3
energy_max = 0.8
"""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["spectrum", "gram-scan", "oracle",
                                     "wronskian-check"])
def test_an_exponent_reading_x_exits_0(tmp_path, capsys, command):
    assert main([command, "--config",
                 _write(tmp_path, EXPONENT_CONFIG)]) == EXIT_OK
    if command == "spectrum":
        rows = [line.split(",")
                for line in capsys.readouterr().out.splitlines()[1:]]
        assert [int(r[0]) for r in rows] == [2, 3, 4, 5, 6]
        assert max(float(r[6]) for r in rows) < 1e-10


def test_an_expression_error_of_any_kind_exits_2(tmp_path, capsys,
                                                 monkeypatch):
    def fails(*args):
        raise exprjet.ExprError("an expression the fast path refuses")

    monkeypatch.setattr(cli, "validate_well", fails)
    assert main(["spectrum", "--config", _write(tmp_path, BASE_CONFIG)]) \
        == EXIT_VALIDATION
    assert "the fast path refuses" in capsys.readouterr().err
