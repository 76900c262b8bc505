"""Command-line interface: configs, subcommands, CSV output, exit codes."""

import io

import pytest

from semibs.cli import (EXIT_NONCONVERGENCE, EXIT_OK, EXIT_VALIDATION,
                        ConfigError, RunConfig, main, parse_config)


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
    assert cfg2.eta_value == cfg.eta_value


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
