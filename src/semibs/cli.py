"""Command-line interface: config parsing, subcommands, CSV output.

Subcommands: spectrum, gram-scan, wronskian-check, oracle, convergence.
Exit codes: 0 success, 2 validation failure, 3 numerical non-convergence.
All numeric CSV fields use the shortest round-trip decimal representation,
so identical configs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import io
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import wronlab
from .exprjet import BinOp, ExprError, Num, is_zero_expr, variables
from .oracle import OracleConfig, OracleError, oracle_spectrum
from .orbit import ConvergenceError, OrbitError, turning_points
from .quantize import (QuantizeError, attach_oracle, bs_solve,
                       convergence_fit, gram_scan)
from .symbols import (EnergyWindow, SymbolError, from_potential, schrodinger,
                      validate_well)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3

GRAM_SCAN_STEPS = 200   # energies in a gram-scan sweep


class ConfigError(Exception):
    pass


def _unquote(s):
    s = s.strip()
    if len(s) >= 2 and s[0] == s[-1] and s[0] in "\"'":
        return s[1:-1]
    return s


def _parse_hbar(raw):
    return [float(tok) for tok in raw.split(",") if tok.strip()]


# Every config key as (section, key, type).  RunConfig has one field per
# key, in this order, which is also the order --dump-config writes; the
# type decides how a value is parsed, written and checked.
CONFIG_KEYS = (
    ("problem", "potential", str),
    ("problem", "p1", str),
    ("problem", "p2", str),
    ("problem", "hbar", list),
    ("problem", "energy_min", float),
    ("problem", "energy_max", float),
    ("solver", "order", int),
    ("solver", "quad_tol", float),
    ("solver", "root_tol", float),
    ("oracle", "halfwidth_factor", float),
    ("oracle", "shoot_tol", float),
    ("wronlab", "grid_points_per_oscillation", int),
    ("wronlab", "cutoff_r1", float),
    ("wronlab", "cutoff_r2", float),
)
_PARSE = {str: str, list: _parse_hbar, float: float, int: int}
_FORMAT = {str: lambda v: f'"{v}"', list: lambda v: ",".join(map(repr, v)),
           float: repr, int: str}


@dataclass
class RunConfig:
    potential: str = "x^2"
    p1: str = "0"
    p2: str = "0"
    hbar: list = field(default_factory=lambda: [0.1])
    energy_min: float = 0.05
    energy_max: float = 1.0
    order: int = 2
    quad_tol: float = 1e-10
    root_tol: float = 1e-10
    halfwidth_factor: float = 2.0
    shoot_tol: float = 1e-10
    grid_points_per_oscillation: int = 63
    cutoff_r1: float | None = None
    cutoff_r2: float | None = None

    def validate(self):
        for _, key, kind in CONFIG_KEYS:
            value = getattr(self, key)
            if kind in (float, list) and value is not None \
                    and not np.all(np.isfinite(value)):
                raise ConfigError(f"{key} must be finite")
        if self.order not in (0, 1, 2):
            raise ConfigError(f"order must be 0, 1 or 2, got {self.order}")
        if not self.energy_min < self.energy_max:
            raise ConfigError("energy_min must be below energy_max")
        for name in ("quad_tol", "root_tol", "shoot_tol"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not self.hbar or any(h <= 0 for h in self.hbar):
            raise ConfigError("hbar values must be positive")
        if any(h * h < sys.float_info.min for h in self.hbar):
            # every layer divides by hbar^2
            raise ConfigError(
                "hbar values must be at least "
                f"{math.sqrt(sys.float_info.min):.4g}, where hbar^2 is a "
                "normal float")
        if self.halfwidth_factor < 1.5:
            raise ConfigError("halfwidth_factor must be >= 1.5")
        if self.grid_points_per_oscillation < 4:
            raise ConfigError("grid_points_per_oscillation must be >= 4")
        r1, r2 = self.cutoff_r1, self.cutoff_r2
        if (r1 is None) != (r2 is None):
            given = "cutoff_r1" if r2 is None else "cutoff_r2"
            raise ConfigError(f"{given} is set alone: cutoff_r1 and "
                              "cutoff_r2 must be set together")
        if r1 is not None and not 0.0 < r1 < r2:
            raise ConfigError("cutoff_r1 and cutoff_r2 must satisfy "
                              f"0 < cutoff_r1 < cutoff_r2, got {r1!r}, {r2!r}")
        return self

    @property
    def window(self):
        return EnergyWindow(self.energy_min, self.energy_max)

    def symbol(self):
        return from_potential(self.potential, self.p1, self.p2)

    def dump(self, stream):
        """Emit the effective configuration (unset cutoffs left out);
        re-parses to an equal config."""
        cp = configparser.ConfigParser()
        for section, key, kind in CONFIG_KEYS:
            value = getattr(self, key)
            if value is None:
                continue
            if not cp.has_section(section):
                cp.add_section(section)
            cp.set(section, key, _FORMAT[kind](value))
        cp.write(stream)


def parse_config(text):
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config does not parse: {exc}") from exc
    # a [DEFAULT] key would reach every section, so none is known there
    known = {(section, key) for section, key, _ in CONFIG_KEYS}
    given = [(cp.default_section, key) for key in cp.defaults()] + [
        (section, key) for section in cp.sections()
        for key in cp.options(section)]
    for section, key in given:
        if (section, key) not in known:
            raise ConfigError(f"unknown key [{section}] {key}")
    cfg = RunConfig()
    for section, key, kind in CONFIG_KEYS:
        if cp.has_option(section, key):
            raw = _unquote(cp.get(section, key))
            try:
                setattr(cfg, key, _PARSE[kind](raw))
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for [{section}] {key}: {raw!r}") from exc
    return cfg.validate()


def load_config(path):
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc


def _fmt(x):
    if x is None:
        return ""
    return repr(float(x))


def _validated_symbol(cfg):
    sym = cfg.symbol()
    report = validate_well(sym, cfg.window)
    if not report.ok:
        raise ConfigError("well hypotheses failed: "
                          + "; ".join(report.failures))
    return sym


def _oracle_cfg(cfg):
    return OracleConfig(halfwidth_factor=cfg.halfwidth_factor,
                        shoot_tol=cfg.shoot_tol)


_NO_ORACLE = "the oracle needs p1, p2 in x only and one well V+h*p1+h^2*p2"


def _effective_well(sym, h):
    """The symbol whose potential is V + h p1 + h^2 p2, for p1 and p2 in x
    only: the tree that parsing "(V) + h*(p1) + h^2*(p2)" gives, built on
    the parsed terms."""
    return schrodinger(BinOp("+", BinOp("+", sym.potential,
                                        BinOp("*", Num(h), sym.p1)),
                             BinOp("*", Num(h * h), sym.p2)))


def _oracle_levels(cfg, sym, h):
    """Node count -> oracle eigenvalue in the window for the operator the
    levels approximate, -h^2 d^2/dx^2 + V + h p1 + h^2 p2; None when p1 or
    p2 reads xi or V + h p1 + h^2 p2 is not a single well on the window."""
    if not (is_zero_expr(sym.p1) and is_zero_expr(sym.p2)):
        if "xi" in variables(sym.p1) | variables(sym.p2):
            return None
        sym = _effective_well(sym, h)
        if not validate_well(sym, cfg.window):
            return None
    energies, counts = oracle_spectrum(sym, h, cfg.window, _oracle_cfg(cfg),
                                       return_counts=True)
    return dict(zip(counts, energies))


def cmd_spectrum(cfg, out):
    sym = _validated_symbol(cfg)
    h = cfg.hbar[0]
    table = bs_solve(sym, h, cfg.window, order=cfg.order,
                     quad_tol=cfg.quad_tol, root_tol=cfg.root_tol)
    try:
        levels = _oracle_levels(cfg, sym, h)
    except OracleError as exc:  # the levels stand, the oracle columns blank
        print(f"warning: oracle columns left blank: {exc}", file=sys.stderr)
        levels = None
    if levels is not None:
        attach_oracle(table, levels)
    out.write("n,E_bs0,E_bs1,E_bs2,E_oracle,err0,err2\n")
    for row in table.rows:
        out.write(",".join([str(row.n), _fmt(row.e_order0),
                            _fmt(row.e_order1), _fmt(row.e_order2),
                            _fmt(row.e_oracle), _fmt(row.err0),
                            _fmt(row.err2)]) + "\n")
    return EXIT_OK


def cmd_gram_scan(cfg, out):
    sym = _validated_symbol(cfg)
    h = cfg.hbar[0]
    evals, zeros = gram_scan(sym, cfg.window, h, steps=GRAM_SCAN_STEPS,
                             order=cfg.order, quad_tol=cfg.quad_tol)
    es = np.array([g.e for g in evals])
    flagged = set()
    for z in zeros:
        flagged.add(int(np.argmin(np.abs(es - z))))
    out.write("E,det,zero_flag\n")
    for i, g in enumerate(evals):
        out.write(f"{_fmt(g.e)},{_fmt(g.det)},{1 if i in flagged else 0}\n")
    return EXIT_OK


def cmd_oracle(cfg, out):
    sym = _validated_symbol(cfg)
    levels = _oracle_levels(cfg, sym, cfg.hbar[0])
    if levels is None:
        raise ConfigError(_NO_ORACLE)
    out.write("n,E\n")
    for n, e in levels.items():
        out.write(f"{n},{_fmt(e)}\n")
    return EXIT_OK


def cmd_convergence(cfg, out):
    sym = _validated_symbol(cfg)
    if len(cfg.hbar) < 3:
        raise ConfigError("convergence requires at least 3 hbar values")
    rows = []
    for h in cfg.hbar:
        table = bs_solve(sym, h, cfg.window, order=2,
                         quad_tol=cfg.quad_tol, root_tol=cfg.root_tol)
        levels = _oracle_levels(cfg, sym, h)
        if levels is None:
            raise ConfigError(_NO_ORACLE)
        paired = [r for r in attach_oracle(table, levels).rows
                  if r.e_oracle is not None]
        if not paired:
            raise QuantizeError(f"no level at h = {h} pairs with an "
                                "oracle level")
        rows.append((h, max(r.err0 for r in paired),
                     max(r.err2 for r in paired)))
    out.write("h,max_err_order0,max_err_order2\n")
    for h, e0, e2 in rows:
        out.write(f"{_fmt(h)},{_fmt(e0)},{_fmt(e2)}\n")
    s0, _, _ = convergence_fit([(h, e0) for h, e0, _ in rows])
    s2, _, _ = convergence_fit([(h, e2) for h, _, e2 in rows])
    out.write(f"# slope_order0={_fmt(s0)},slope_order2={_fmt(s2)}\n")
    return EXIT_OK


def cmd_wronskian_check(cfg, out):
    sym = _validated_symbol(cfg)
    h = cfg.hbar[0]
    e = 0.5 * (cfg.energy_min + cfg.energy_max)
    xs = wronlab.default_grid(
        sym, e, h, points_per_oscillation=cfg.grid_points_per_oscillation)

    if cfg.cutoff_r1 is not None:   # validate() sets both or neither
        xl, xr = turning_points(sym, e)
        chi_a = wronlab.CutoffSpec(center=xr, r1=cfg.cutoff_r1,
                                   r2=cfg.cutoff_r2)
        chi_ap = wronlab.CutoffSpec(center=xl, r1=cfg.cutoff_r1,
                                    r2=cfg.cutoff_r2)
    else:
        chi_a = wronlab.default_cutoff(sym, e, h, "a")
        chi_ap = wronlab.default_cutoff(sym, e, h, "a'")
    # the second cutoff the chi-independence check compares chi_a against
    chi_2 = wronlab.default_cutoff(sym, e, h, "a", *wronlab.CHI_2_FRACS)
    # the grid must resolve the cutoff transitions as well as the phase
    xs = wronlab._resolve_transitions(xs, [chi_a, chi_ap, chi_2])

    checks = []
    rep_a = wronlab.flux_norm_check(sym, e, h, "a", chi=chi_a, xs=xs)
    checks.append(("flux_norm_a", rep_a.residual, 0.1))
    rep_ap = wronlab.flux_norm_check(sym, e, h, "a'", chi=chi_ap, xs=xs)
    checks.append(("flux_norm_a_prime", rep_ap.residual, 0.1))
    checks.append(("mixed_term", abs(rep_a.mixed_pm),
                   1e-4 * max(rep_a.norm_sq, 1.0)))
    chi_rep = wronlab.chi_independence_check(sym, e, h, "a", chi_1=chi_a,
                                             chi_2=chi_2, xs=xs)
    checks.append(("chi_independence", chi_rep.difference, chi_rep.bound))
    checks.append(("sum_identity", abs(chi_rep.sum_identity),
                   1e-4 * max(chi_rep.norm_sq, 1.0)))
    gram = wronlab.gram_numeric(sym, e, h, xs=xs, chi_a=chi_a, chi_ap=chi_ap)
    checks.append(("gram_det_vs_analytic",
                   abs(gram.det - gram.analytic_det), 0.05))
    checks.append(("gram_off_diagonal",
                   abs(gram.matrix[1, 0] - gram.off_diag_expected), 0.05))
    span = float(xs[-1] - xs[0])
    chi_id = wronlab.CutoffSpec(center=float(xs[-1]) + 0.3 * span,
                                r1=0.45 * span, r2=0.9 * span)
    lhs, rhs = wronlab.commutator_wronskian_identity(sym, e, 1.0, chi_id, xs)
    checks.append(("wronskian_identity", abs(lhs - rhs), 1e-8))

    out.write("check,value,bound,pass\n")
    failed = False
    for name, value, bound in checks:
        ok = value <= bound
        failed = failed or not ok
        out.write(f"{name},{_fmt(value)},{_fmt(bound)},"
                  f"{'1' if ok else '0'}\n")
    return EXIT_NONCONVERGENCE if failed else EXIT_OK


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "gram-scan": cmd_gram_scan,
    "wronskian-check": cmd_wronskian_check,
    "oracle": cmd_oracle,
    "convergence": cmd_convergence,
}


@functools.cache
def _build_parser():
    """The argument parser, built once per process."""
    p = argparse.ArgumentParser(
        prog="semibs",
        description="Semiclassical spectra of one-dimensional wells")
    p.add_argument("subcommand", choices=sorted(_COMMANDS))
    p.add_argument("--config", help="path to the run configuration")
    p.add_argument("--order", type=int, help="override the series order")
    p.add_argument("--hbar", help="override hbar (single value or list)")
    p.add_argument("--out", help="write CSV to this path instead of stdout")
    p.add_argument("--dump-config",
                   help="also write the effective configuration here")
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.order is not None:
            cfg.order = args.order
        if args.hbar is not None:
            try:
                cfg.hbar = _parse_hbar(args.hbar)
            except ValueError as exc:
                raise ConfigError(f"bad value for --hbar: {args.hbar!r}") \
                    from exc
        cfg.validate()
        buf = io.StringIO()
        code = _COMMANDS[args.subcommand](cfg, buf)
        if args.dump_config:
            with open(args.dump_config, "w") as fh:
                cfg.dump(fh)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(buf.getvalue())
        else:
            sys.stdout.write(buf.getvalue())
        return code
    except (ConfigError, SymbolError, ExprError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ConvergenceError, OrbitError, OracleError, QuantizeError,
            wronlab.WronlabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
