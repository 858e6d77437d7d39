"""Permittivity models on the imaginary frequency axis.

Every model answers eps(zeta, T) for zeta > 0 with a result > 1, except
the ideal reflector, which has no finite permittivity.  Frequencies are
rad/s, temperatures K; model parameters are quoted in eV.

Each model also owns its reflection rules, the only thing the Lifshitz
engine asks of it:

  zero_frequency_reflection(y, cfg)  the analytic m = 0 coefficients
  matsubara_reflection(zeta, T)      (A, B) as a function of p at zeta > 0

The m = 0 rule is where the models differ physically: a lossy metal keeps
its TM zero mode (A = 1) but loses the TE one (B = 0), while the plasma
model and the ideal reflector retain both.

The Drude form is

    eps(i zeta) = 1 + omega_p^2 / (zeta * (zeta + nu(T))),

with nu(T) either constant or given by the Bloch-Grueneisen formula
calibrated at a reference temperature.  Tabulated data are interpolated
linearly in (log zeta, log(eps - 1)), which is locally exact for the
power-law behaviour a metal shows at low zeta.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy.integrate import quad

from .constants import C, ev_to_rad_s
from .errors import (
    ConvergenceError,
    DomainError,
    TableFormatError,
    TableRangeError,
    UnsupportedModelError,
)

__all__ = [
    "ReflectionPair", "ConstantRelaxation", "BlochGruneisen", "RelaxationModel",
    "Drude", "Plasma", "Ideal", "PermittivityTable", "Tabulated",
    "MaterialModel", "gold_drude",
    "eps_drude", "eps_plasma", "eps_tabulated", "nu_bloch_gruneisen",
    "drude_spectral_function", "sum_rule_check", "zero_mode_product",
    "load_permittivity_table",
]


# ---------------------------------------------------------------------------
# reflection coefficients

@dataclass(frozen=True)
class ReflectionPair:
    """Squared reflection coefficients (TM, TE), each in [0, 1]."""

    A: float
    B: float

    def __post_init__(self):
        if np.any(np.asarray(self.A) < 0) or np.any(np.asarray(self.A) > 1):
            raise DomainError("squared TM coefficient must lie in [0, 1]")
        if np.any(np.asarray(self.B) < 0) or np.any(np.asarray(self.B) > 1):
            raise DomainError("squared TE coefficient must lie in [0, 1]")


def _reflection_sq(eps, p):
    """Squared TM/TE coefficients, in cancellation-free form.

    Uses (eps p - s)/(eps p + s) = (eps-1)(p^2(eps+1) - 1)/(eps p + s)^2
    and (s - p)/(s + p) = (eps-1)/(s + p)^2, which stay accurate when
    eps -> 1 and the direct differences would lose all digits.
    """
    em1 = eps - 1.0
    s = np.sqrt(em1 + p * p)
    A = (em1 * (p * p * (eps + 1.0) - 1.0) / (eps * p + s) ** 2) ** 2
    B = (em1 / (s + p) ** 2) ** 2
    return A, B


def _plasma_zero_mode(y, omega_p_rad_s: float, a: float) -> ReflectionPair:
    """m = 0 pair of a plasma-like metal: A = 1 and a finite TE square."""
    yhat_p = omega_p_rad_s * a / C
    r = np.sqrt(y * y + yhat_p * yhat_p)
    return ReflectionPair(1.0, ((r - y) / (r + y)) ** 2)


class _Dielectric:
    """Shared m >= 1 rule of the models with a finite eps(i zeta) > 1."""

    def matsubara_reflection(self, zeta, T):
        """(A, B) as a function of p at frequency zeta; eps is evaluated once."""
        eps = self.eps(zeta, T)
        return lambda p: _reflection_sq(eps, p)


# ---------------------------------------------------------------------------
# relaxation frequency models

@dataclass(frozen=True)
class ConstantRelaxation:
    """Temperature-independent relaxation frequency."""

    nu_ev: float = 0.035

    def __post_init__(self):
        if not self.nu_ev > 0:
            raise DomainError(f"relaxation frequency must be > 0, got {self.nu_ev}")

    def nu(self, T: float) -> float:
        """Relaxation frequency in eV at temperature T (K)."""
        if not T > 0:
            raise DomainError(f"temperature must be > 0, got {T}")
        return self.nu_ev


def _bg_integral(u: float) -> float:
    """Bloch-Grueneisen integral of x^5 e^x/(e^x-1)^2 over [0, u]."""
    # identical integrand written via sinh to stay finite for large x;
    # contributions beyond x = 80 are below double precision
    upper = min(u, 80.0)
    val, _ = quad(lambda x: x**5 / (4.0 * np.sinh(0.5 * x) ** 2),
                  0.0, upper, limit=200)
    return val


def _bg_shape(T: float, theta_d: float) -> float:
    return (T / theta_d) ** 5 * _bg_integral(theta_d / T)


@dataclass(frozen=True)
class BlochGruneisen:
    """Bloch-Grueneisen relaxation frequency.

    nu(T) = C * (T/theta_D)^5 * int_0^{theta_D/T} x^5 e^x/(e^x-1)^2 dx,
    with C fixed so that nu(T_ref) = nu_ref exactly.  The default Debye
    temperature of 170 K is the conventional literature value for gold.
    """

    theta_d: float = 170.0   # K
    nu_ref_ev: float = 0.0356
    t_ref: float = 300.0     # K

    def __post_init__(self):
        if not self.theta_d > 0:
            raise DomainError(f"Debye temperature must be > 0, got {self.theta_d}")
        if not self.t_ref > 0:
            raise DomainError(f"reference temperature must be > 0, got {self.t_ref}")
        if not self.nu_ref_ev > 0:
            raise DomainError(f"nu_ref must be > 0, got {self.nu_ref_ev}")

    def nu(self, T: float) -> float:
        """Relaxation frequency in eV at temperature T (K)."""
        if not T > 0:
            raise DomainError(f"temperature must be > 0, got {T}")
        return self.nu_ref_ev * _bg_shape(T, self.theta_d) / _bg_shape(self.t_ref, self.theta_d)


RelaxationModel = Union[ConstantRelaxation, BlochGruneisen]


def nu_bloch_gruneisen(T: float, model: RelaxationModel) -> float:
    """Evaluate a relaxation model at temperature T; result in eV."""
    return model.nu(T)


# ---------------------------------------------------------------------------
# material models

@dataclass(frozen=True)
class Drude(_Dielectric):
    """Drude metal: eps = 1 + omega_p^2 / (zeta (zeta + nu(T)))."""

    omega_p_ev: float = 9.0
    nu_ref_ev: float = 0.035
    relaxation: RelaxationModel | None = None

    def __post_init__(self):
        if not self.omega_p_ev > 0:
            raise DomainError(f"plasma frequency must be > 0, got {self.omega_p_ev}")
        if not self.nu_ref_ev > 0:
            raise DomainError(f"relaxation frequency must be > 0, got {self.nu_ref_ev}")
        if self.relaxation is None:
            object.__setattr__(self, "relaxation", ConstantRelaxation(self.nu_ref_ev))

    @property
    def omega_p_rad_s(self) -> float:
        return ev_to_rad_s(self.omega_p_ev)

    def eps(self, zeta, T: float = 300.0):
        return eps_drude(zeta, self, T)

    def zero_frequency_reflection(self, y, cfg) -> ReflectionPair:
        """Lossy metal: the TM zero mode survives, the TE one vanishes."""
        return ReflectionPair(1.0, 0.0)


@dataclass(frozen=True)
class Plasma(_Dielectric):
    """Dissipationless plasma: eps = 1 + omega_p^2 / zeta^2."""

    omega_p_ev: float = 9.0

    def __post_init__(self):
        if not self.omega_p_ev > 0:
            raise DomainError(f"plasma frequency must be > 0, got {self.omega_p_ev}")

    @property
    def omega_p_rad_s(self) -> float:
        return ev_to_rad_s(self.omega_p_ev)

    def eps(self, zeta, T: float | None = None):
        return eps_plasma(zeta, self.omega_p_ev)

    def zero_frequency_reflection(self, y, cfg) -> ReflectionPair:
        """Both zero modes survive; B follows from omega_p a / c."""
        return _plasma_zero_mode(y, self.omega_p_rad_s, cfg.a)


@dataclass(frozen=True)
class Ideal:
    """Perfect reflector: unit reflection coefficients, no finite eps."""

    def eps(self, zeta, T: float | None = None):
        raise UnsupportedModelError(
            "the ideal reflector has no finite permittivity; it is handled "
            "through its reflection coefficients")

    def zero_frequency_reflection(self, y, cfg) -> ReflectionPair:
        """Both zero modes survive with unit reflection."""
        return ReflectionPair(1.0, 1.0)

    def matsubara_reflection(self, zeta, T):
        """Scalar unit coefficients keep the integrands' exact X = 1 forms."""
        return lambda p: (1.0, 1.0)


@dataclass(frozen=True)
class PermittivityTable:
    """Empirical eps(i zeta) samples, strictly ascending in zeta, eps > 1."""

    zeta: np.ndarray      # rad/s
    eps_values: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.zeta, dtype=float)
        e = np.asarray(self.eps_values, dtype=float)
        if z.ndim != 1 or e.shape != z.shape:
            raise DomainError("table needs matching 1-D zeta and eps arrays")
        if len(z) < 2:
            raise DomainError("table needs at least 2 points")
        if not np.all(z > 0):
            raise DomainError("table frequencies must be > 0")
        if not np.all(np.diff(z) > 0):
            raise DomainError("table frequencies must be strictly increasing")
        if not np.all(e > 1.0):
            raise DomainError("table permittivities must be > 1")
        object.__setattr__(self, "zeta", z)
        object.__setattr__(self, "eps_values", e)
        object.__setattr__(self, "_log_z", np.log(z))
        object.__setattr__(self, "_log_em1", np.log(e - 1.0))

    @property
    def zeta_min(self) -> float:
        return float(self.zeta[0])

    @property
    def zeta_max(self) -> float:
        return float(self.zeta[-1])


@dataclass(frozen=True)
class Tabulated(_Dielectric):
    """Tabulated permittivity with a declared zero-frequency class.

    The transverse-electric zero mode cannot be inferred from finite-zeta
    data, so the caller must state whether the material behaves Drude-like
    (zeta^2 (eps-1) -> 0, TE zero mode absent) or plasma-like (finite
    limit, TE zero mode present).
    """

    table: PermittivityTable
    zero_mode_class: str = "drude_like"

    def __post_init__(self):
        if self.zero_mode_class not in ("drude_like", "plasma_like"):
            raise DomainError(
                f"zero_mode_class must be 'drude_like' or 'plasma_like', "
                f"got {self.zero_mode_class!r}")

    def eps(self, zeta, T: float | None = None):
        return eps_tabulated(zeta, self.table)

    @property
    def omega_p_eff_rad_s(self) -> float:
        """Effective plasma frequency zeta_min*sqrt(eps-1) from the lowest node."""
        return self.table.zeta_min * float(
            np.sqrt(self.table.eps_values[0] - 1.0))

    def zero_frequency_reflection(self, y, cfg) -> ReflectionPair:
        """The declared class decides; plasma-like uses omega_p_eff_rad_s."""
        if self.zero_mode_class == "drude_like":
            return ReflectionPair(1.0, 0.0)
        return _plasma_zero_mode(y, self.omega_p_eff_rad_s, cfg.a)


MaterialModel = Union[Drude, Plasma, Ideal, Tabulated]


def gold_drude(nu_model: str = "constant") -> Drude:
    """Gold with omega_p = 9 eV and nu = 35 meV (or Bloch-Grueneisen)."""
    if nu_model == "constant":
        return Drude()
    if nu_model == "bg":
        return Drude(relaxation=BlochGruneisen())
    raise DomainError(f"unknown relaxation model {nu_model!r}")


# ---------------------------------------------------------------------------
# permittivity evaluation

def eps_drude(zeta, params: Drude, T: float = 300.0):
    """Drude permittivity at imaginary frequency zeta (rad/s)."""
    zeta = np.asarray(zeta, dtype=float)
    if not np.all(zeta > 0):
        raise DomainError("zeta must be > 0 for the Drude permittivity")
    nu = ev_to_rad_s(params.relaxation.nu(T))
    wp = params.omega_p_rad_s
    out = 1.0 + wp * wp / (zeta * (zeta + nu))
    return float(out) if out.ndim == 0 else out


def eps_plasma(zeta, omega_p_ev: float):
    """Plasma permittivity 1 + omega_p^2/zeta^2 at zeta (rad/s)."""
    zeta = np.asarray(zeta, dtype=float)
    if not np.all(zeta > 0):
        raise DomainError("zeta must be > 0 for the plasma permittivity")
    wp = ev_to_rad_s(omega_p_ev)
    out = 1.0 + (wp / zeta) ** 2
    return float(out) if out.ndim == 0 else out


def eps_tabulated(zeta, table: PermittivityTable):
    """Log-log interpolation of tabulated eps(i zeta); exact at the nodes."""
    zeta_arr = np.asarray(zeta, dtype=float)
    if np.any(zeta_arr < table.zeta_min) or np.any(zeta_arr > table.zeta_max):
        raise TableRangeError(
            f"zeta outside table range [{table.zeta_min:g}, {table.zeta_max:g}]")
    log_em1 = np.interp(np.log(zeta_arr), table._log_z, table._log_em1)
    out = 1.0 + np.exp(log_em1)
    # guarantee bit-exact reproduction of the nodes
    idx = np.searchsorted(table.zeta, zeta_arr)
    idx = np.clip(idx, 0, len(table.zeta) - 1)
    exact = table.zeta[idx] == zeta_arr
    out = np.where(exact, table.eps_values[idx], out)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# diagnostics

def drude_spectral_function(omega, gamma: float):
    """Lorentzian spectral weight p(omega) = (2/pi) gamma/(omega^2+gamma^2)."""
    omega = np.asarray(omega, dtype=float)
    out = (2.0 / np.pi) * gamma / (omega * omega + gamma * gamma)
    return float(out) if out.ndim == 0 else out


def sum_rule_check(gamma_spectral: float) -> float:
    """Numerically integrate the Drude spectral function over [0, inf).

    The integral over [0, 100*gamma] is done by quadrature and the tail is
    added in closed form, so the result probes the numerics rather than
    the arctan identity.  Should equal 1 for any gamma > 0.
    """
    if not gamma_spectral > 0:
        raise DomainError(f"gamma must be > 0, got {gamma_spectral}")
    g = float(gamma_spectral)
    cutoff = 100.0 * g
    val, _ = quad(drude_spectral_function, 0.0, cutoff, args=(g,), limit=200)
    tail = (2.0 / np.pi) * (0.5 * np.pi - np.arctan(100.0))
    return val + tail


def zero_mode_product(model: MaterialModel, T: float = 300.0) -> float:
    """Limit of zeta^2 (eps(i zeta) - 1) as zeta -> 0+.

    Evaluated on a decreasing geometric sequence of zeta.  Returns 0 once
    the product falls below 1e-12 * omega_p^2 (Drude-like decay) or the
    stabilized value when two consecutive evaluations agree to 1e-9
    (plasma-like plateau).  Only Drude and Plasma models are supported;
    tabulated data carry a declared class instead of a computed one.
    """
    if not isinstance(model, (Drude, Plasma)):
        raise UnsupportedModelError(
            "zero_mode_product is only defined for Drude and Plasma models; "
            "tabulated materials declare their zero-mode class")
    wp2 = model.omega_p_rad_s ** 2
    prev = None
    val = None
    for exponent in range(12, -9, -1):
        zeta = 10.0 ** exponent
        prev = val
        val = zeta * zeta * (model.eps(zeta, T) - 1.0)
        if val < 1e-12 * wp2:
            return 0.0
    # the plateau test must use the bottom of the sequence: a Drude metal
    # with very small nu looks plasma-like at high zeta
    if prev is not None and abs(val - prev) <= 1e-9 * prev:
        return val
    raise ConvergenceError(
        "zeta^2 (eps - 1) neither vanished nor stabilized down to zeta = 1e-8 rad/s",
        estimate=val)


# ---------------------------------------------------------------------------
# table file I/O

TABLE_HEADER = ("zeta_rad_per_s", "epsilon")


def load_permittivity_table(path) -> PermittivityTable:
    """Read a CSV permittivity table.

    Expected format: header ``zeta_rad_per_s,epsilon`` followed by rows
    ascending in zeta with eps > 1.  Violations are reported with the
    offending line number.
    """
    zetas: list[float] = []
    eps: list[float] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TableFormatError(f"{path}: empty table file") from None
        if [h.strip() for h in header] != list(TABLE_HEADER):
            raise TableFormatError(
                f"{path}, line 1: expected header "
                f"'{','.join(TABLE_HEADER)}', got '{','.join(header)}'")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise TableFormatError(
                    f"{path}, line {lineno}: expected 2 columns, got {len(row)}")
            try:
                z = float(row[0])
                e = float(row[1])
            except ValueError:
                raise TableFormatError(
                    f"{path}, line {lineno}: non-numeric value in "
                    f"'{','.join(row)}'") from None
            if z <= 0:
                raise TableFormatError(
                    f"{path}, line {lineno}: zeta must be > 0, got {z!r}")
            if zetas and z <= zetas[-1]:
                raise TableFormatError(
                    f"{path}, line {lineno}: zeta values must be strictly "
                    f"increasing ({z!r} after {zetas[-1]!r})")
            if e <= 1.0:
                raise TableFormatError(
                    f"{path}, line {lineno}: epsilon must be > 1, got {e!r}")
            zetas.append(z)
            eps.append(e)
    if len(zetas) < 2:
        raise TableFormatError(f"{path}: table needs at least 2 data rows")
    return PermittivityTable(np.array(zetas), np.array(eps))
