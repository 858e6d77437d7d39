"""Generate ``references.json``: reference values for every benchmark request.

Run from the repository root (about a minute on two cores):

    python3 perfbench/refgen.py

Matsubara sums are recomputed independently of the engine's truncation
rule.  The public ``mode_pressure`` / ``mode_free_energy`` are evaluated at
``rel_tol = 1e-13`` and added with ``math.fsum`` until an explicit tail
bound falls below 1e-13 of the sum.  With y = m gamma + t a mode is
e^{-2 m gamma} times an integral over t whose weight grows at most like
(m gamma + t)^2 while the reflection factor does not grow with m, so
|c_{m+1}| <= rho_m |c_m| with rho_m = e^{-2 gamma} (1 + 1/m)^2.  Every
computed mode is checked against that ratio, and the tail after mode m is
bounded by |c_m| rho_m / (1 - rho_m).

Each value is stored with a scale: the checker's error is
|output - reference| / scale.  Plain values use their own magnitude.
Temperature differences, which cross zero, use the magnitude of the
underlying P or F.  Round-off columns of impedance-check use the absolute
scale 1, the range of a squared reflection coefficient.
"""

from __future__ import annotations

import json
import math
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import mpmath  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402

import casimir as cs  # noqa: E402
from casimir.constants import C, free_energy_si_to_ev3, temperature_to_ev  # noqa: E402
from workloads import TABLE_PATH, WORKLOADS  # noqa: E402

REF_QUAD = cs.QuadratureSettings(rel_tol=1e-13)
TAIL_REL = 1e-13
GATE = 1e-6   # largest accepted error / scale for every checked value
MICRON = 1e-6
LOWT_TEMPS = [float(t) for t in range(50, 151, 10)]
OUT = BENCH_DIR / "references.json"
mpmath.mp.dps = 40

_sums = {}


def ref_sum(kind: str, T: float, a: float, model, model_key: str):
    """(total, contributions, tail bound) of the primed Matsubara sum."""
    key = (kind, T, a, model_key)
    if key in _sums:
        return _sums[key]
    mode_fn = cs.mode_pressure if kind == "P" else cs.mode_free_energy
    cfg = cs.ThermalGapConfig(T=T, a=a)
    decay = math.exp(-2.0 * cfg.gamma)
    c = [mode_fn(0, cfg, model, REF_QUAD)]
    running = c[0]
    m = 0
    while True:
        m += 1
        c.append(mode_fn(m, cfg, model, REF_QUAD))
        running += c[m]
        if m < 5:
            continue
        if abs(c[m]) > decay * (1.0 + 1.0 / (m - 1)) ** 2 * abs(c[m - 1]) * (1.0 + 1e-9):
            raise RuntimeError(f"reference sum {key}: mode {m} breaks the ratio bound")
        rho = decay * (1.0 + 1.0 / m) ** 2
        if rho < 1.0:
            tail = abs(c[m]) * rho / (1.0 - rho)
            if tail <= TAIL_REL * abs(running):
                break
        if m > 400_000:
            raise RuntimeError(f"reference sum {key} did not converge")
    _sums[key] = result = (math.fsum(c), c, tail)
    return result


def gaps(lo, hi, n, log=False):
    """The CLI's gap grid in meters (numpy.linspace / geomspace in um)."""
    values = np.geomspace(lo, hi, n) if log else np.linspace(lo, hi, n)
    return [float(v) * MICRON for v in values]


def table(columns, rows, scales, meta=None, meta_prefix=None):
    return {"columns": columns, "rows": rows, "scales": scales,
            "meta": meta or {}, "meta_prefix": meta_prefix or {}}


def column_scale(values):
    """Own magnitude; an exact zero is compared against the column's range."""
    top = max(abs(v) for v in values)
    return [abs(v) if v != 0.0 else top for v in values]


def transpose(cols):
    return [list(r) for r in zip(*cols)]


# ---------------------------------------------------------------------------
# one reference function per CLI subcommand

def ref_pressure(model, key, gap_m, temps):
    cols = [[a / MICRON for a in gap_m]]
    for T in temps:
        cols.append([abs(ref_sum("P", T, a, model, key)[0]) for a in gap_m])
    if len(temps) == 1:
        columns = ["a_um", "pressure_Pa"]
    else:
        columns = ["a_um"] + [f"pressure_Pa_T{t:g}K" for t in temps]
    return table(columns, transpose(cols), transpose([column_scale(c) for c in cols]))


def ref_diff(model, key, gap_m, T1=350.0, T2=300.0):
    rows, scales = [], []
    for a in gap_m:
        p1, p2 = (ref_sum("P", T, a, model, key)[0] for T in (T1, T2))
        f1, f2 = (ref_sum("F", T, a, model, key)[0] for T in (T1, T2))
        rows.append([a / MICRON, (abs(p2) - abs(p1)) * 1e3, abs(f2) - abs(f1)])
        scales.append([a / MICRON, max(abs(p1), abs(p2)) * 1e3,
                       max(abs(f1), abs(f2))])
    return table(["a_um", "delta_F_mPa", "delta_free_energy_J_m2"], rows, scales)


def ref_modes(model, key, a, T=300.0):
    total, c, _ = ref_sum("P", T, a, model, key)
    row = [a / MICRON] + [100.0 * c[m] / total for m in range(8)]
    return table(["a_um"] + [f"frac_m{m}_pct" for m in range(8)],
                 [row], [[abs(v) for v in row]])


def ref_sphere_plate(model, key, gap_m, R, T1=350.0, T2=300.0):
    rows, scales = [], []
    for a in gap_m:
        f1, f2 = (ref_sum("F", T, a, model, key)[0] for T in (T1, T2))
        force1, force2 = 2.0 * math.pi * R * f1, 2.0 * math.pi * R * f2
        rows.append([a / MICRON, 2.0 * math.pi * (f1 - f2), force1, force2])
        scales.append([a / MICRON, 2.0 * math.pi * max(abs(f1), abs(f2)),
                       abs(force1), abs(force2)])
    columns = ["a_um", "delta_force_per_radius_N_m",
               f"force_T{T1:g}K_N", f"force_T{T2:g}K_N"]
    return table(columns, rows, scales)


def ref_lowtemp(model, key, a, x_grid):
    x = [float(v) for v in x_grid]
    f = [cs.te_mode_function(v * C / a, a, model, quad=REF_QUAD) for v in x]
    # the quadratic fit over the default 50-150 K grid, from reference F values
    f_nat = np.array([free_energy_si_to_ev3(ref_sum("F", T, a, model, key)[0])
                      for T in LOWT_TEMPS])
    t2 = np.array([temperature_to_ev(T) ** 2 for T in LOWT_TEMPS])
    design = np.column_stack([np.ones_like(t2), t2])
    coeffs, *_ = np.linalg.lstsq(design, f_nat, rcond=None)
    residual = float(np.max(np.abs(design @ coeffs - f_nat))
                     / (f_nat.max() - f_nat.min()))
    meta = {}
    if residual < 1e-3:
        status = "ok"
        f0 = float(coeffs[0]) / free_energy_si_to_ev3(1.0)
        meta = {"fit_F0_J_m2": [f0, abs(f0)],
                "fit_coeff_eV": [float(coeffs[1]), abs(float(coeffs[1]))]}
    else:
        status = "rejected"
    return table(["zeta_a_over_c", "f_te"], transpose([x, f]),
                 transpose([column_scale(x), column_scale(f)]),
                 meta=meta, meta_prefix={"fit_status": status})


def _mp_rte_sq(zeta, q, eps, momentum=True):
    zeta, q, eps = mpmath.mpf(zeta), mpmath.mpf(q), mpmath.mpf(eps)
    if momentum:
        Z = -zeta / mpmath.sqrt(zeta * zeta * (eps - 1) + q * q)
    else:
        Z = -1 / mpmath.sqrt(eps)
    p = q / zeta
    r = -(1 + Z * p) / (1 - Z * p)
    return float(r * r)


def ref_impedance_check(model, T=300.0, q_fixed=1e17):
    rows, scales = [], []
    for zeta in np.geomspace(1e12, 1e16, 20):
        eps = model.eps(zeta, T)
        for p in np.geomspace(1.0, 100.0, 20):
            q = float(p * zeta)
            b = _mp_rte_sq(zeta, q, eps)   # equals ((s - p)/(s + p))^2
            rows.append([float(zeta), q, b, b, 0.0])
            scales.append([float(zeta), q, b, 1.0, 1.0])
    last = float(np.geomspace(1e12, 1e8, 5)[-1])
    eps = model.eps(last)
    meta = {
        "max_abs_deviation": [0.0, 1.0],
        "zero_freq_limit_momentum_dependent":
            [_mp_rte_sq(last, q_fixed, eps, momentum=True), 1.0],
        "zero_freq_limit_frequency_only":
            [_mp_rte_sq(last, q_fixed, eps, momentum=False), 1.0],
    }
    return table(["zeta_rad_s", "q_rad_s", "b_permittivity", "rte_impedance_sq",
                  "abs_dev"], rows, scales, meta=meta)


# ---------------------------------------------------------------------------

def build_references() -> dict:
    gold = cs.gold_drude()
    bg = cs.Drude(omega_p_ev=9.0, nu_ref_ev=0.0356,
                  relaxation=cs.BlochGruneisen(theta_d=170.0, nu_ref_ev=0.0356,
                                               t_ref=300.0))
    tab = cs.load_permittivity_table(TABLE_PATH)
    tab_drude = cs.Tabulated(tab, "drude_like")
    tab_plasma = cs.Tabulated(tab, "plasma_like")
    plasma = cs.Plasma(9.0)
    ideal = cs.Ideal()
    x26 = np.linspace(0.0, 0.5, 26)

    refs = {
        "readme_sweeps/pressure": ref_pressure(gold, "gold", gaps(0.5, 5, 40, log=True),
                                               [300.0, 350.0]),
        "readme_sweeps/diff": ref_diff(gold, "gold", gaps(0.3, 5, 40)),
        "readme_sweeps/modes": ref_modes(gold, "gold", 1.0 * MICRON),
        "readme_sweeps/sphere_plate": ref_sphere_plate(gold, "gold", gaps(0.3, 4, 20),
                                                       200.0 * MICRON),
        "readme_sweeps/lowtemp": ref_lowtemp(gold, "gold", 1.0 * MICRON, x26),
        "readme_sweeps/impedance_check": ref_impedance_check(gold),
        "model_zoo/diff_bg": ref_diff(bg, "bg", gaps(0.3, 5, 20)),
        "model_zoo/diff_table_drude": ref_diff(tab_drude, "tab_drude", gaps(0.5, 5, 8)),
        "model_zoo/diff_table_plasma": ref_diff(tab_plasma, "tab_plasma",
                                                gaps(0.5, 5, 8)),
        "model_zoo/sphere_plate_plasma": ref_sphere_plate(plasma, "plasma",
                                                          gaps(0.3, 4, 10),
                                                          200.0 * MICRON),
        "model_zoo/pressure_ideal_300K": ref_pressure(ideal, "ideal",
                                                      gaps(0.5, 5, 20, log=True), [300.0]),
        "model_zoo/pressure_ideal_350K": ref_pressure(ideal, "ideal",
                                                      gaps(0.5, 5, 20, log=True), [350.0]),
        "model_zoo/lowtemp_bg": ref_lowtemp(bg, "bg", 1.0 * MICRON, x26),
    }
    for request in WORKLOADS["cryo_ladder"].requests:
        fn, T, a = request.call
        total, c, tail = ref_sum("P" if fn == "total_pressure" else "F", T, a,
                                 gold, "gold")
        refs[f"cryo_ladder/{request.rid}"] = {
            "value": total, "scale": abs(total), "modes_summed": len(c),
            "tail_bound": tail}
        print(f"  {request.rid}: {total!r} ({len(c)} modes)", flush=True)
    missing = {f"{w.name}/{r.rid}" for w in WORKLOADS.values()
               for r in w.requests} - set(refs)
    if missing:
        raise RuntimeError(f"no reference function for {sorted(missing)}")
    return refs


def write_drude_table() -> None:
    """The Drude-sampled table model_zoo loads: 201 nodes, 1e13-1e18 rad/s."""
    gold = cs.gold_drude()
    lines = ["zeta_rad_per_s,epsilon"]
    for zeta in np.geomspace(1e13, 1e18, 201):
        lines.append(f"{float(zeta)!r},{float(gold.eps(float(zeta), 300.0))!r}")
    TABLE_PATH.parent.mkdir(exist_ok=True)
    TABLE_PATH.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main() -> int:
    write_drude_table()
    refs = build_references()
    doc = {
        "generated_by": "python3 perfbench/refgen.py",
        "method": {"mode_rel_tol": REF_QUAD.rel_tol, "tail_rel": TAIL_REL,
                   "summation": "math.fsum of public mode_pressure/mode_free_energy"},
        "gate": GATE,
        "environment": {"python": platform.python_version(),
                        "numpy": np.__version__, "scipy": scipy.__version__,
                        "mpmath": mpmath.__version__},
        "requests": refs,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT.relative_to(BENCH_DIR.parent)} ({len(refs)} requests)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
