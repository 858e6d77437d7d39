"""Command-line front end: parameter sweeps serialized to CSV or JSON.

Subcommands map onto the library:

  pressure         |P(a)| sweep for one or more temperatures
  diff             pressure and free-energy differences between two temperatures
  modes            per-Matsubara-mode percentage contributions (m = 0..7)
  sphere-plate     radius-normalized sphere-plate force difference
  lowtemp          TE mode function f(zeta) plus the quadratic low-T fit
  impedance-check  permittivity vs. surface-impedance TE reflection on a grid

Each command's input rules sit in its COMMANDS entry beside its runner:
default temperatures, how many it takes, whether it takes a gap sweep, one
gap or none, and whether --rel-tol applies.  Every number given on the
command line must be finite and > 0 (a --zeta-range may start at 0); model
defaults are the library's own.  A sweep computes all its rows at once:
every Matsubara sum it needs, over its gaps and temperatures, is one
stack's sum, and lowtemp's f_te column (f(0) too) one stack's integral.
A sphere-plate row needs one free energy per temperature; --radius adds
the forces and one warning per row with R < 100 a.  A model or spacing
flag that the run would ignore is a configuration error.

Exit codes: 0 success, 2 configuration error, 3 convergence/compute error.
Output files embed the constants version and model parameters, contain no
timestamps, and are byte-identical for identical configurations on one NumPy
build and CPU dispatch (NumPy picks SIMD kernels at run time).  A sweep
runs in one thread; --threads is still accepted and validated, and the
output is identical for any value.  A failing sweep names the gap of the
first (a, T) that fails alone, and a failing f_te column its first zeta
a/c that fails alone, which the library finds and hands over with its error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .constants import C, CONSTANTS_VERSION
from .dispersion import (BlochGruneisen, ConstantRelaxation, Drude, Ideal, MaterialModel,
                         Plasma, Tabulated, _reflection_sq, load_permittivity_table)
from .errors import (CasimirError, ConfigError, ConvergenceError, DomainError, FitError,
                     TableRangeError, UnsupportedModelError)
from .geometry import _pfa_rows
from .lifshitz import (_FREE_ENERGY, _PRESSURE, PressureResult, QuadratureSettings,
                       _grid_sums, _te_mode_functions, rte_from_impedance,
                       rte_zero_frequency_comparison)
from .thermal import _differences, lowT_quadratic_fit

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
    zeta_range: tuple[float, float, int] | None = None
    q_fixed: float | None = None


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
            if not all(map(math.isfinite, row)):
                raise ConvergenceError(f"row {i} contains non-finite values")

    def to_csv(self) -> str:
        lines = [f"# {k} = {v}" for k, v in self.meta.items()]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        # the bytes of json.dumps(doc, indent=2) + "\n", with the rows laid out by _json_rows
        doc = json.dumps({"meta": self.meta, "columns": self.columns, "rows": []}, indent=2)
        return _json_rows(doc, self.columns, self.rows)

    def render(self, fmt: str) -> str:
        return self.to_csv() if fmt == "csv" else self.to_json()


@dataclass(frozen=True)
class Command:
    """A subcommand's runner, help line and input rules."""

    run: Callable[[RunConfig], SweepOutput]
    help: str
    temps: tuple[float, ...]             # default temperatures in K
    temp_count: tuple[int, int | None]   # least and most temperatures (None: any)
    gaps: str = "sweep"                  # "sweep", "one" gap or "none"
    rel_tol: bool = True                 # whether --rel-tol applies


# ---------------------------------------------------------------------------
# configuration

# number flags that must be finite and > 0, with their units
_POSITIVE = {"gap": "um", "temp": "K", "omega_p": "eV", "nu": "eV",
             "theta_d": "K", "radius": "um", "q_fixed": "rad/s"}
# impedance-check takes its zero-frequency limits down this sequence (rad/s)
_ZETA_SEQ = np.geomspace(1e12, 1e8, 5)


def _positive(flag: str, value: float, unit: str) -> None:
    if not 0 < value < math.inf:
        raise ConfigError(f"{flag}: must be finite and > 0 {unit}, got {value}")


def _check_numbers(args) -> None:
    """Reject a number flag that is not finite and > 0, or --q-fixed below _ZETA_SEQ."""
    for name, unit in _POSITIVE.items():
        values = getattr(args, name, None)
        for value in values if isinstance(values, list) else [values]:
            if value is not None:
                _positive(name.replace("_", "-"), value, unit)
    if getattr(args, "q_fixed", math.inf) < _ZETA_SEQ[0]:
        raise ConfigError(f"q-fixed: must be >= {_ZETA_SEQ[0]:g} rad/s, where the "
                          f"zero-frequency sequence starts, got {args.q_fixed:g}")


def _parse_range(text: str, name: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{name}: expected lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"{name}: non-numeric field in {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"{name}: ends must be finite, got {text!r}")
    if n < 1:
        raise ConfigError(f"{name}: point count must be >= 1, got {n}")
    if n > 1 and not hi > lo:
        raise ConfigError(f"{name}: range must be ascending, got lo={lo} hi={hi}")
    return lo, hi, n


def _resolve_gaps(args, arity: str) -> list[float]:
    """Gap widths in m for a command whose gap arity is "sweep", "one" or "none"."""
    if args.gap is not None and args.gap_range is not None:
        raise ConfigError("gap: give either --gap or --gap-range, not both")
    if arity == "none":
        if args.gap is not None or args.gap_range is not None:
            raise ConfigError(f"gap: {args.command} takes no --gap or --gap-range")
        return []
    if args.gap is not None:
        return [args.gap * MICRON]
    if args.gap_range is None:
        raise ConfigError("gap: one of --gap or --gap-range is required")
    lo, hi, n = _parse_range(args.gap_range, "gap-range")
    _positive("gap-range", lo, "um")
    if arity == "one" and n > 1:
        raise ConfigError(f"gap-range: {args.command} takes one gap, got {n}")
    if n > 1 and args.log_spacing:
        return [float(v) * MICRON for v in np.geomspace(lo, hi, n)]
    return [float(v) * MICRON for v in np.linspace(lo, hi, n)]  # [lo] for n = 1


def _resolve_temps(args, cmd: Command) -> list[float]:
    temps = args.temp or list(cmd.temps)
    least, most = cmd.temp_count
    if len(temps) < least or (most is not None and len(temps) > most):
        count = f"exactly {least}" if least == most else f"at least {least}"
        raise ConfigError(f"temp: {args.command} takes {count} temperature(s), "
                          f"got {len(temps)}")
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
    for name in dict.fromkeys(n for names in _MODEL_FLAGS.values() for n in names):
        flag = name.replace("_", "-")
        if getattr(args, name) is not None and name not in _MODEL_FLAGS[args.model]:
            raise ConfigError(f"{flag}: --{flag} does not apply to --model {args.model}")
    if args.theta_d is not None and args.nu_model != "bg":
        raise ConfigError("theta-d: --theta-d applies only with --nu-model bg")


def _given(args, **fields) -> dict:
    """field=value for each flag given; the library supplies the other defaults."""
    return {field: getattr(args, name) for field, name in fields.items()
            if getattr(args, name) is not None}


def _build_model(args) -> tuple[MaterialModel, str]:
    if args.model == "ideal":
        return Ideal(), "ideal"
    if args.model == "table":
        if not args.table:
            raise ConfigError("table: --table <path> is required with --model table")
        try:
            table = load_permittivity_table(args.table)
        except (CasimirError, OSError) as exc:
            raise ConfigError(f"table: {exc}") from None
        zmc = {"drude": "drude_like", "plasma": "plasma_like"}[args.zero_mode_class or "drude"]
        model = Tabulated(table=table, zero_mode_class=zmc)
        return model, (f"table({Path(args.table).name}, {len(table.zeta)} pts, "
                       f"zero_mode={zmc})")
    omega_p = _given(args, omega_p_ev="omega_p")
    if args.model == "plasma":
        model = Plasma(**omega_p)
        return model, f"plasma(omega_p={model.omega_p_ev:g} eV)"
    if args.nu_model == "bg":
        # BlochGruneisen checks T_ref / theta_D when it is built, before any sum
        try:
            relax = BlochGruneisen(**_given(args, theta_d="theta_d", nu_ref_ev="nu"))
        except DomainError as exc:
            raise ConfigError(f"theta-d: {exc}") from None
        model = Drude(**omega_p, relaxation=relax)
        return model, (f"drude(omega_p={model.omega_p_ev:g} eV, nu_bg(ref="
                       f"{relax.nu_ref_ev:g} eV @{relax.t_ref:g}K, "
                       f"theta_d={relax.theta_d:g} K))")
    model = Drude(**omega_p, **_given(args, nu_ref_ev="nu"))
    return model, f"drude(omega_p={model.omega_p_ev:g} eV, nu={model.nu_ref_ev:g} eV)"


def _config_from_args(args) -> RunConfig:
    cmd = COMMANDS[args.command]
    _check_model_flags(args)
    _check_numbers(args)
    model, desc = _build_model(args)
    if args.rel_tol is not None and not cmd.rel_tol:
        raise ConfigError(f"rel-tol: {args.command} runs no quadrature")
    try:
        quad = QuadratureSettings(**_given(args, rel_tol="rel_tol"))
    except DomainError as exc:
        raise ConfigError(f"rel-tol: {exc}") from None
    temps = _resolve_temps(args, cmd)
    if args.log_spacing and args.gap_range is None:
        raise ConfigError("log-spacing: --log-spacing applies only to --gap-range")
    gaps = _resolve_gaps(args, cmd.gaps)
    if args.threads < 1:
        raise ConfigError(f"threads: must be >= 1, got {args.threads}")
    zeta_range = None
    if hasattr(args, "zeta_range"):
        zeta_range = _parse_range(args.zeta_range, "zeta-range")
        if zeta_range[0] < 0:
            raise ConfigError("zeta-range: must start at >= 0")
        top = float(np.linspace(*zeta_range)[-1])
        if not math.isfinite(top * C / gaps[0]):
            raise ConfigError(f"zeta-range: zeta = x c/a overflows at x = {top:g}, "
                              f"a = {gaps[0] / MICRON:g} um")
    radius = getattr(args, "radius", None)
    return RunConfig(command=args.command, model=model, model_desc=desc,
                     gaps_m=gaps, temps=temps, quad=quad, fmt=args.format,
                     out=args.out, radius_m=None if radius is None else radius * MICRON,
                     zeta_range=zeta_range, q_fixed=getattr(args, "q_fixed", None))


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


def _sweep(cfg: RunConfig, columns: list[str], rows, **meta) -> SweepOutput:
    """One row (a in um, *values) per gap, from rows(gaps), which computes
    the values of every gap at once.  A convergence or table-range failure
    is that of the first (a, T) that fails alone, which the library finds
    (see lifshitz._grid_sums); its message gains that gap."""
    try:
        values = rows(cfg.gaps_m)
    except (ConvergenceError, TableRangeError) as exc:
        if exc.config is not None:
            exc.args = (f"at a = {exc.config.a / MICRON:g} um: {exc}",)
        raise
    return SweepOutput(meta={**_base_meta(cfg), **meta}, columns=["a_um", *columns],
                       rows=[(a_m / MICRON, *v) for a_m, v in zip(cfg.gaps_m, values)])


def _json_rows(doc: str, columns: list[str], rows: list[tuple]) -> str:
    """json.dumps(doc, indent=2) + "\n" of a dict whose last key is "rows":
    doc is that dump with no rows, and the rows go in their place.  json's
    encoder runs in Python when it indents, so the rows are laid out here
    as json lays them out, each value as float.__repr__, which is what json
    writes for a finite float."""
    if not rows:
        return doc + "\n"
    start, sep, end = ("[\n      ", ",\n      ", "\n    ]") if columns else ("[", "", "]")
    body = ",\n    ".join(start + sep.join(map(float.__repr__, map(float, row))) + end
                          for row in rows)
    return doc[:-len("[]\n}")] + "[\n    " + body + "\n  ]\n}\n"


# ---------------------------------------------------------------------------
# subcommands

def cmd_pressure(cfg: RunConfig) -> SweepOutput:
    """|P(a)| in Pa for every gap and temperature."""
    columns = (["pressure_Pa"] if len(cfg.temps) == 1
               else [f"pressure_Pa_T{t:g}K" for t in cfg.temps])
    return _sweep(cfg, columns, lambda gaps: [
        [abs(value) for (value, _, _), in row]
        for row in _grid_sums(gaps, cfg.temps, cfg.model, cfg.quad, (_PRESSURE,))])


def cmd_diff(cfg: RunConfig) -> SweepOutput:
    """Pressure difference (mPa) and free-energy difference (J/m^2)."""
    T1, T2 = cfg.temps
    return _sweep(cfg, ["delta_F_mPa", "delta_free_energy_J_m2"], lambda gaps: [
        (dP.delta * 1e3, dF.delta) for dP, dF in _differences(
            gaps, cfg.model, T1, T2, cfg.quad, (_PRESSURE, _FREE_ENERGY))])


def cmd_modes(cfg: RunConfig) -> SweepOutput:
    """Percentage contribution of modes m = 0..7, Table-style."""
    return _sweep(cfg, [f"frac_m{m}_pct" for m in range(8)], lambda gaps: [
        [result.fraction(m) for m in range(8)]
        for result in (PressureResult(*s) for (s,), in _grid_sums(
            gaps, cfg.temps, cfg.model, cfg.quad, (_PRESSURE,)))])


def cmd_sphere_plate(cfg: RunConfig) -> SweepOutput:
    """Radius-normalized sphere-plate force difference versus gap."""
    columns, meta = ["delta_force_per_radius_N_m"], {}
    if cfg.radius_m is not None:
        columns += [f"force_T{t:g}K_N" for t in cfg.temps]
        meta["radius_um"] = f"{cfg.radius_m / MICRON:g}"
    return _sweep(cfg, columns, lambda gaps: _pfa_rows(gaps, cfg.model, cfg.temps,
                                                       cfg.quad, cfg.radius_m), **meta)


def cmd_lowtemp(cfg: RunConfig) -> SweepOutput:
    """TE mode function f(zeta a/c) plus the quadratic low-T free-energy fit."""
    a_m = cfg.gaps_m[0]
    x_grid = np.linspace(*cfg.zeta_range)

    try:
        f_te = _te_mode_functions(x_grid * C / a_m, a_m, cfg.model, 300.0, cfg.quad)
    except (ConvergenceError, TableRangeError) as exc:
        where = "" if exc.zeta is None else f", zeta a/c = {exc.zeta * a_m / C:g}"
        exc.args = (f"f_te at a = {a_m / MICRON:g} um{where}: {exc}",)
        raise
    rows = list(zip(x_grid.tolist(), f_te))
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
    T = cfg.temps[0]
    zeta = np.geomspace(1e12, 1e16, 20)
    try:  # every eps the command uses, before any of it is used
        eps = cfg.model.eps(np.concatenate((_ZETA_SEQ, zeta)), T)[len(_ZETA_SEQ):]
    except (UnsupportedModelError, TableRangeError) as exc:
        raise ConfigError(f"model: impedance-check evaluates eps from {_ZETA_SEQ[-1]:g} "
                          f"to {zeta[-1]:g} rad/s: {exc}") from None
    # the 20 x 20 grid: zeta down the rows, p = q/zeta across the columns
    zeta, eps, p = zeta[:, None], eps[:, None], np.geomspace(1.0, 100.0, 20)
    q = p * zeta
    r_sq = rte_from_impedance(zeta, q, eps) ** 2
    _, B = _reflection_sq(eps, p)  # same algebra the engine uses
    dev = np.abs(r_sq - B)
    grid = np.broadcast_arrays(zeta, q, B, r_sq, dev)
    rows = list(zip(*(x.ravel().tolist() for x in grid)))
    lim_momentum, lim_freq = rte_zero_frequency_comparison(cfg.model, cfg.q_fixed,
                                                           _ZETA_SEQ, T)
    meta = {**_base_meta(cfg), "max_abs_deviation": repr(float(dev.max())),
            "zero_freq_q_rad_s": f"{cfg.q_fixed:g}",
            "zero_freq_final_zeta_rad_s": f"{_ZETA_SEQ[-1]:g}",
            "zero_freq_limit_momentum_dependent": repr(float(lim_momentum)),
            "zero_freq_limit_frequency_only": repr(float(lim_freq))}
    columns = ["zeta_rad_s", "q_rad_s", "b_permittivity", "rte_impedance_sq", "abs_dev"]
    return SweepOutput(meta=meta, columns=columns, rows=rows)


COMMANDS = {
    "pressure": Command(cmd_pressure, "pressure magnitude sweep |P(a)|",
                        (300.0,), (1, None)),
    "diff": Command(cmd_diff, "pressure / free-energy differences between two "
                              "temperatures", (350.0, 300.0), (2, 2)),
    "modes": Command(cmd_modes, "per-mode percentage contributions (m = 0..7)",
                     (300.0,), (1, 1)),
    "sphere-plate": Command(cmd_sphere_plate, "sphere-plate force difference via "
                                              "the proximity theorem",
                            (350.0, 300.0), (2, 2)),
    "lowtemp": Command(cmd_lowtemp, "TE mode function and quadratic low-T fit",
                       tuple(float(t) for t in range(50, 151, 10)), (5, None),
                       gaps="one"),
    "impedance-check": Command(cmd_impedance_check, "impedance vs. permittivity "
                                                    "TE reflection grid",
                               (300.0,), (1, 1), gaps="none", rel_tol=False),
}


# ---------------------------------------------------------------------------
# argument parsing and entry point

@functools.cache  # main() builds one parser per process; parse_args keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("material model")
    g.add_argument("--model", choices=["drude", "plasma", "ideal", "table"],
                   default="drude", help="dispersion model (default: drude)")
    g.add_argument("--omega-p", type=float, default=None, metavar="EV",
                   help=f"plasma frequency in eV (default: {Drude.omega_p_ev:g})")
    g.add_argument("--nu", type=float, default=None, metavar="EV",
                   help=f"relaxation frequency in eV (default: "
                        f"{ConstantRelaxation.nu_ev:g} constant, "
                        f"{BlochGruneisen.nu_ref_ev:g} Bloch-Grueneisen reference)")
    g.add_argument("--nu-model", choices=["constant", "bg"],
                   help="temperature dependence of nu (default: constant)")
    g.add_argument("--theta-d", type=float, metavar="K",
                   help=f"Debye temperature for --nu-model bg "
                        f"(default: {BlochGruneisen.theta_d:g})")
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
                        f"(default: {QuadratureSettings.rel_tol:g})")
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
    parsers = {name: sub.add_parser(name, parents=[common], help=cmd.help)
               for name, cmd in COMMANDS.items()}
    parsers["sphere-plate"].add_argument(
        "--radius", type=float, metavar="UM",
        help="sphere radius in micrometers (adds force columns)")
    parsers["lowtemp"].add_argument(
        "--zeta-range", default="0:0.5:26", metavar="LO:HI:N",
        help="dimensionless zeta*a/c grid (default: %(default)s)")
    parsers["impedance-check"].add_argument(
        "--q-fixed", type=float, default=1e17, metavar="RAD_S",
        help="fixed wave number for the zero-frequency limits (default: %(default)g)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        text = COMMANDS[cfg.command].run(cfg).render(cfg.fmt)
    except ConfigError as exc:
        print(f"casimir: configuration error: {exc}", file=sys.stderr)
        return 2
    except CasimirError as exc:
        print(f"casimir: computation failed: {exc}", file=sys.stderr)
        return 3
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
