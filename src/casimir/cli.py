"""Command-line front end: parameter sweeps serialized to CSV or JSON.

Subcommands map onto the library:

  pressure         |P(a)| sweep for one or more temperatures
  diff             pressure and free-energy differences between two temperatures
  modes            per-Matsubara-mode percentage contributions (m = 0..7)
  sphere-plate     radius-normalized sphere-plate force difference
  lowtemp          TE mode function f(zeta) plus the quadratic low-T fit
  impedance-check  permittivity vs. surface-impedance TE reflection on a grid

A sphere-plate row makes one free-energy sum per temperature; --radius adds
the forces and one warning per row with R < 100 a.  lowtemp takes one gap,
impedance-check no gap, one temperature and no --rel-tol.  A model or
spacing flag that the run would ignore is a configuration error.

Exit codes: 0 success, 2 configuration error, 3 convergence/compute error.
Output files embed the constants version and model parameters, contain no
timestamps, and are byte-identical for identical configurations.  Rows run
serially; --threads is still accepted and validated, and the output is
identical for any value.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .constants import C, CONSTANTS_VERSION
from .dispersion import (
    BlochGruneisen,
    ConstantRelaxation,
    Drude,
    Ideal,
    MaterialModel,
    Plasma,
    Tabulated,
    load_permittivity_table,
)
from .errors import (
    CasimirError,
    ConfigError,
    ConvergenceError,
    DomainError,
    FitError,
)
from .geometry import _pfa_row
from .lifshitz import (
    QuadratureSettings,
    ThermalGapConfig,
    rte_from_impedance,
    rte_zero_frequency_comparison,
    te_mode_function,
    total_pressure,
)
from .thermal import (
    free_energy_difference,
    lowT_quadratic_fit,
    pressure_difference,
)

MICRON = 1e-6


@dataclass
class RunConfig:
    """Fully validated run description."""

    command: str
    model: MaterialModel
    model_desc: str
    gaps_m: list[float]
    temps: list[float]
    quad: QuadratureSettings
    fmt: str = "csv"
    out: str | None = None
    radius_m: float | None = None
    zeta_range: tuple[float, float, int] = (0.0, 0.5, 26)
    q_fixed: float = 1e17


@dataclass
class SweepOutput:
    """Serializable sweep: metadata, column names, data rows."""

    meta: dict
    columns: list[str]
    rows: list[tuple]

    def __post_init__(self):
        for i, row in enumerate(self.rows):
            if len(row) != len(self.columns):
                raise ConfigError(f"row {i} has {len(row)} values for "
                                  f"{len(self.columns)} columns")
            if not all(np.isfinite(v) for v in row):
                raise ConvergenceError(f"row {i} contains non-finite values")

    def to_csv(self) -> str:
        lines = [f"# {k} = {v}" for k, v in self.meta.items()]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {"meta": self.meta, "columns": self.columns,
               "rows": [list(map(float, row)) for row in self.rows]}
        return json.dumps(doc, indent=2) + "\n"

    def render(self, fmt: str) -> str:
        return self.to_csv() if fmt == "csv" else self.to_json()


# ---------------------------------------------------------------------------
# configuration

def _parse_range(text: str, name: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{name}: expected lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"{name}: non-numeric field in {text!r}") from None
    if n < 1:
        raise ConfigError(f"{name}: point count must be >= 1, got {n}")
    if n > 1 and not hi > lo:
        raise ConfigError(f"{name}: range must be ascending, got lo={lo} hi={hi}")
    return lo, hi, n


def _resolve_gaps(args) -> list[float]:
    if args.gap is not None and args.gap_range is not None:
        raise ConfigError("gap: give either --gap or --gap-range, not both")
    if args.gap is not None:
        if not args.gap > 0:
            raise ConfigError(f"gap: must be > 0 um, got {args.gap}")
        return [args.gap * MICRON]
    if args.gap_range is None:
        raise ConfigError("gap: one of --gap or --gap-range is required")
    lo, hi, n = _parse_range(args.gap_range, "gap-range")
    if not lo > 0:
        raise ConfigError(f"gap-range: gaps must be > 0 um, got lo={lo}")
    if n == 1:
        values = np.array([lo])
    elif args.log_spacing:
        values = np.geomspace(lo, hi, n)
    else:
        values = np.linspace(lo, hi, n)
    return [float(v) * MICRON for v in values]


def _resolve_temps(args) -> list[float]:
    defaults = {
        "pressure": [300.0],
        "diff": [350.0, 300.0],
        "modes": [300.0],
        "sphere-plate": [350.0, 300.0],
        "lowtemp": [float(t) for t in range(50, 151, 10)],
        "impedance-check": [300.0],
    }
    temps = args.temp if args.temp else defaults[args.command]
    if any(t <= 0 for t in temps):
        raise ConfigError(f"temp: temperatures must be > 0 K, got {temps}")
    need_two = args.command in ("diff", "sphere-plate")
    if need_two and len(temps) != 2:
        raise ConfigError(f"temp: {args.command} needs exactly two "
                          f"temperatures (T1 T2), got {len(temps)}")
    if args.command in ("modes", "impedance-check") and len(temps) != 1:
        raise ConfigError(f"temp: {args.command} takes exactly one temperature")
    if args.command == "lowtemp" and len(temps) < 5:
        raise ConfigError("temp: lowtemp needs at least 5 fit temperatures")
    return temps


# model flags each model reads; --theta-d further needs --nu-model bg
_MODEL_FLAGS = {
    "drude": ("omega_p", "nu", "nu_model", "theta_d"),
    "plasma": ("omega_p",),
    "ideal": (),
    "table": ("table", "zero_mode_class"),
}


def _check_model_flags(args) -> None:
    """Reject a model flag that the chosen model would ignore."""
    for name in ("omega_p", "nu", "nu_model", "theta_d", "table", "zero_mode_class"):
        flag = name.replace("_", "-")
        if getattr(args, name) is not None and name not in _MODEL_FLAGS[args.model]:
            raise ConfigError(f"{flag}: --{flag} does not apply to --model {args.model}")
    if args.theta_d is not None and args.nu_model != "bg":
        raise ConfigError("theta-d: --theta-d applies only with --nu-model bg")


def _build_model(args) -> tuple[MaterialModel, str]:
    _check_model_flags(args)
    if args.model == "ideal":
        return Ideal(), "ideal"
    if args.model == "plasma":
        omega_p = args.omega_p if args.omega_p is not None else 9.0
        if not omega_p > 0:
            raise ConfigError(f"omega-p: must be > 0 eV, got {omega_p}")
        return Plasma(omega_p_ev=omega_p), f"plasma(omega_p={omega_p:g} eV)"
    if args.model == "table":
        if not args.table:
            raise ConfigError("table: --table <path> is required with --model table")
        table = load_permittivity_table(args.table)
        zmc = {"drude": "drude_like", "plasma": "plasma_like"}[args.zero_mode_class or "drude"]
        model = Tabulated(table=table, zero_mode_class=zmc)
        return model, (f"table({Path(args.table).name}, {len(table.zeta)} pts, "
                       f"zero_mode={zmc})")
    # drude
    omega_p = args.omega_p if args.omega_p is not None else 9.0
    if not omega_p > 0:
        raise ConfigError(f"omega-p: must be > 0 eV, got {omega_p}")
    if args.nu_model == "bg":
        nu_ref = args.nu if args.nu is not None else 0.0356
        if not nu_ref > 0:
            raise ConfigError(f"nu: must be > 0 eV, got {nu_ref}")
        theta_d = args.theta_d if args.theta_d is not None else 170.0
        if not theta_d > 0:
            raise ConfigError(f"theta-d: must be > 0 K, got {theta_d}")
        relax = BlochGruneisen(theta_d=theta_d, nu_ref_ev=nu_ref, t_ref=300.0)
        desc = (f"drude(omega_p={omega_p:g} eV, nu_bg(ref={nu_ref:g} eV @300K, "
                f"theta_d={theta_d:g} K))")
    else:
        nu_ref = args.nu if args.nu is not None else 0.035
        if not nu_ref > 0:
            raise ConfigError(f"nu: must be > 0 eV, got {nu_ref}")
        relax = ConstantRelaxation(nu_ref)
        desc = f"drude(omega_p={omega_p:g} eV, nu={nu_ref:g} eV)"
    return Drude(omega_p_ev=omega_p, nu_ref_ev=nu_ref, relaxation=relax), desc


def _config_from_args(args) -> RunConfig:
    model, desc = _build_model(args)
    rel_tol = args.rel_tol if args.rel_tol is not None else 1e-10
    try:
        quad = QuadratureSettings(rel_tol=rel_tol)
    except DomainError as exc:
        raise ConfigError(f"rel-tol: {exc}") from None
    temps = _resolve_temps(args)
    if args.log_spacing and args.gap_range is None:
        raise ConfigError("log-spacing: --log-spacing applies only to --gap-range")
    if args.command == "impedance-check":
        if args.gap is not None or args.gap_range is not None:
            raise ConfigError("gap: impedance-check takes no --gap or --gap-range")
        if args.rel_tol is not None:
            raise ConfigError("rel-tol: impedance-check runs no quadrature")
        gaps = []
        if args.model == "ideal":
            raise ConfigError("model: impedance-check needs a dispersive model")
    else:
        gaps = _resolve_gaps(args)
    if args.command == "lowtemp" and len(gaps) > 1:
        raise ConfigError(f"gap-range: lowtemp takes one gap, got {len(gaps)}")
    radius_m = None
    if getattr(args, "radius", None) is not None:
        if not args.radius > 0:
            raise ConfigError(f"radius: must be > 0 um, got {args.radius}")
        radius_m = args.radius * MICRON
    if args.threads < 1:
        raise ConfigError(f"threads: must be >= 1, got {args.threads}")
    zeta_range = (0.0, 0.5, 26)
    if getattr(args, "zeta_range", None):
        zeta_range = _parse_range(args.zeta_range, "zeta-range")
        if zeta_range[0] < 0:
            raise ConfigError("zeta-range: must start at >= 0")
    q_fixed = getattr(args, "q_fixed", 1e17)
    if not q_fixed > 0:
        raise ConfigError(f"q-fixed: must be > 0 rad/s, got {q_fixed}")
    return RunConfig(command=args.command, model=model, model_desc=desc,
                     gaps_m=gaps, temps=temps, quad=quad, fmt=args.format,
                     out=args.out, radius_m=radius_m,
                     zeta_range=zeta_range, q_fixed=q_fixed)


def _base_meta(cfg: RunConfig) -> dict:
    return {
        "tool": "casimir",
        "tool_version": __version__,
        "constants_version": CONSTANTS_VERSION,
        "command": cfg.command,
        "model": cfg.model_desc,
        "temperatures_K": " ".join(f"{t:g}" for t in cfg.temps),
        "rel_tol": f"{cfg.quad.rel_tol:g}",
    }


def _gap_rows(fn, gaps_m) -> list:
    """fn(a) for every gap in order; a convergence failure names its gap."""
    rows = []
    for a_m in gaps_m:
        try:
            rows.append(fn(a_m))
        except ConvergenceError as exc:
            raise ConvergenceError(f"at a = {a_m / MICRON:g} um: {exc}",
                                   estimate=exc.estimate) from None
    return rows


# ---------------------------------------------------------------------------
# subcommands

def cmd_pressure(cfg: RunConfig) -> SweepOutput:
    """|P(a)| in Pa for every gap and temperature."""
    if len(cfg.temps) == 1:
        columns = ["a_um", "pressure_Pa"]
    else:
        columns = ["a_um"] + [f"pressure_Pa_T{t:g}K" for t in cfg.temps]

    def one(a_m):
        vals = [abs(total_pressure(ThermalGapConfig(T=t, a=a_m),
                                   cfg.model, cfg.quad).total)
                for t in cfg.temps]
        return (a_m / MICRON, *vals)

    rows = _gap_rows(one, cfg.gaps_m)
    return SweepOutput(meta=_base_meta(cfg), columns=columns, rows=rows)


def cmd_diff(cfg: RunConfig) -> SweepOutput:
    """Pressure difference (mPa) and free-energy difference (J/m^2)."""
    T1, T2 = cfg.temps
    columns = ["a_um", "delta_F_mPa", "delta_free_energy_J_m2"]

    def one(a_m):
        dp = pressure_difference(a_m, cfg.model, T1, T2, cfg.quad).delta
        df = free_energy_difference(a_m, cfg.model, T1, T2, cfg.quad).delta
        return (a_m / MICRON, dp * 1e3, df)

    rows = _gap_rows(one, cfg.gaps_m)
    return SweepOutput(meta=_base_meta(cfg), columns=columns, rows=rows)


def cmd_modes(cfg: RunConfig) -> SweepOutput:
    """Percentage contribution of modes m = 0..7, Table-style."""
    T = cfg.temps[0]
    columns = ["a_um"] + [f"frac_m{m}_pct" for m in range(8)]

    def one(a_m):
        result = total_pressure(ThermalGapConfig(T=T, a=a_m),
                                cfg.model, cfg.quad)
        return (a_m / MICRON, *[result.fraction(m) for m in range(8)])

    rows = _gap_rows(one, cfg.gaps_m)
    return SweepOutput(meta=_base_meta(cfg), columns=columns, rows=rows)


def cmd_sphere_plate(cfg: RunConfig) -> SweepOutput:
    """Radius-normalized sphere-plate force difference versus gap."""
    T1, T2 = cfg.temps
    columns = ["a_um", "delta_force_per_radius_N_m"]
    meta = _base_meta(cfg)
    if cfg.radius_m is not None:
        columns += [f"force_T{T1:g}K_N", f"force_T{T2:g}K_N"]
        meta["radius_um"] = f"{cfg.radius_m / MICRON:g}"

    def one(a_m):
        return (a_m / MICRON,
                *_pfa_row(a_m, cfg.model, cfg.temps, cfg.quad, cfg.radius_m))

    rows = _gap_rows(one, cfg.gaps_m)
    return SweepOutput(meta=meta, columns=columns, rows=rows)


def cmd_lowtemp(cfg: RunConfig) -> SweepOutput:
    """TE mode function f(zeta a/c) plus the quadratic low-T free-energy fit."""
    a_m = cfg.gaps_m[0]
    lo, hi, n = cfg.zeta_range
    x_grid = np.linspace(lo, hi, n)

    rows = [(float(x), te_mode_function(x * C / a_m, a_m, cfg.model, quad=cfg.quad))
            for x in x_grid]
    meta = _base_meta(cfg)
    meta["fit_gap_um"] = f"{a_m / MICRON:g}"
    try:
        fit = lowT_quadratic_fit(a_m, cfg.model, cfg.temps, cfg.quad)
    except FitError as exc:
        # quadratic law does not hold on this grid; report and keep the curve
        meta["fit_status"] = f"rejected ({exc})"
    else:
        meta["fit_status"] = "ok"
        meta["fit_F0_J_m2"] = repr(fit.F0)
        meta["fit_coeff_eV"] = repr(fit.coeff)
        meta["fit_residual"] = repr(fit.residual)
    return SweepOutput(meta=meta, columns=["zeta_a_over_c", "f_te"], rows=rows)


def cmd_impedance_check(cfg: RunConfig) -> SweepOutput:
    """Squared TE reflection: impedance form vs. permittivity form."""
    from .lifshitz import _reflection_sq  # same algebra the engine uses

    zetas = np.geomspace(1e12, 1e16, 20)
    p_values = np.geomspace(1.0, 100.0, 20)
    rows = []
    max_dev = 0.0
    for zeta in zetas:
        eps = cfg.model.eps(zeta, cfg.temps[0])
        for p in p_values:
            q = p * zeta
            r = rte_from_impedance(zeta, q, eps)
            _, B = _reflection_sq(eps, p)
            dev = float(abs(r * r - B))
            max_dev = max(max_dev, dev)
            rows.append((float(zeta), float(q), float(B), float(r * r), float(dev)))
    seq = np.geomspace(1e12, 1e8, 5)
    lim_momentum, lim_freq = rte_zero_frequency_comparison(cfg.model, cfg.q_fixed, seq)
    meta = _base_meta(cfg)
    meta["max_abs_deviation"] = repr(max_dev)
    meta["zero_freq_q_rad_s"] = f"{cfg.q_fixed:g}"
    meta["zero_freq_final_zeta_rad_s"] = f"{seq[-1]:g}"
    meta["zero_freq_limit_momentum_dependent"] = repr(float(lim_momentum))
    meta["zero_freq_limit_frequency_only"] = repr(float(lim_freq))
    columns = ["zeta_rad_s", "q_rad_s", "b_permittivity",
               "rte_impedance_sq", "abs_dev"]
    return SweepOutput(meta=meta, columns=columns, rows=rows)


COMMANDS = {
    "pressure": cmd_pressure,
    "diff": cmd_diff,
    "modes": cmd_modes,
    "sphere-plate": cmd_sphere_plate,
    "lowtemp": cmd_lowtemp,
    "impedance-check": cmd_impedance_check,
}


# ---------------------------------------------------------------------------
# argument parsing and entry point

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("material model")
    g.add_argument("--model", choices=["drude", "plasma", "ideal", "table"],
                   default="drude", help="dispersion model (default: drude)")
    g.add_argument("--omega-p", type=float, default=None, metavar="EV",
                   help="plasma frequency in eV (default: 9.0)")
    g.add_argument("--nu", type=float, default=None, metavar="EV",
                   help="relaxation frequency in eV (default: 0.035 constant, "
                        "0.0356 Bloch-Grueneisen reference)")
    g.add_argument("--nu-model", choices=["constant", "bg"],
                   help="temperature dependence of nu (default: constant)")
    g.add_argument("--theta-d", type=float, metavar="K",
                   help="Debye temperature for --nu-model bg (default: 170)")
    g.add_argument("--table", metavar="PATH",
                   help="CSV permittivity table for --model table")
    g.add_argument("--zero-mode-class", choices=["drude", "plasma"],
                   help="declared TE zero-mode class for tabulated data "
                        "(default: drude)")
    s = common.add_argument_group("sweep")
    s.add_argument("--gap", type=float, metavar="UM",
                   help="single gap width in micrometers")
    s.add_argument("--gap-range", metavar="LO:HI:N",
                   help="gap sweep in micrometers, N points")
    s.add_argument("--log-spacing", action="store_true",
                   help="logarithmic spacing for --gap-range")
    s.add_argument("--temp", type=float, action="append", metavar="K",
                   help="temperature in K (repeatable; defaults per command)")
    o = common.add_argument_group("numerics and output")
    o.add_argument("--rel-tol", type=float,
                   help="relative tolerance for quadrature and mode sums "
                        "(default: 1e-10)")
    o.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility (must be >= 1); rows run "
                        "serially, so output is identical for any value")
    o.add_argument("--format", choices=["csv", "json"], default="csv",
                   help="output format (default: csv)")
    o.add_argument("--out", metavar="PATH",
                   help="output file (default: stdout)")

    parser = argparse.ArgumentParser(
        prog="casimir",
        description="Finite-temperature Casimir pressure, free energy and "
                    "temperature-difference observables for real metals.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("pressure", parents=[common],
                   help="pressure magnitude sweep |P(a)|")
    sub.add_parser("diff", parents=[common],
                   help="pressure / free-energy differences between two temperatures")
    sub.add_parser("modes", parents=[common],
                   help="per-mode percentage contributions (m = 0..7)")
    p_sp = sub.add_parser("sphere-plate", parents=[common],
                          help="sphere-plate force difference via the proximity theorem")
    p_sp.add_argument("--radius", type=float, metavar="UM",
                      help="sphere radius in micrometers (adds force columns)")
    p_low = sub.add_parser("lowtemp", parents=[common],
                           help="TE mode function and quadratic low-T fit")
    p_low.add_argument("--zeta-range", metavar="LO:HI:N",
                       help="dimensionless zeta*a/c grid (default 0:0.5:26)")
    p_imp = sub.add_parser("impedance-check", parents=[common],
                           help="impedance vs. permittivity TE reflection grid")
    p_imp.add_argument("--q-fixed", type=float, default=1e17, metavar="RAD_S",
                       help="fixed wave number for the zero-frequency limits")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except (ConfigError, DomainError) as exc:
        print(f"casimir: configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        output = COMMANDS[cfg.command](cfg)
    except ConfigError as exc:
        print(f"casimir: configuration error: {exc}", file=sys.stderr)
        return 2
    except CasimirError as exc:
        print(f"casimir: computation failed: {exc}", file=sys.stderr)
        return 3
    text = output.render(cfg.fmt)
    if cfg.out:
        try:
            Path(cfg.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"casimir: cannot write {cfg.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
