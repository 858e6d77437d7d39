"""Permittivity models on the imaginary frequency axis.

Every model answers eps(zeta, T) for finite zeta > 0 with a result > 1, except
the ideal reflector, which has no finite permittivity.  Frequencies are
rad/s, temperatures K; model parameters, quoted in eV, must be finite and
> 0 (a DomainError names any that is not); table nodes keep _bad_node's rule.

Each model also owns its reflection rules, which is what the Lifshitz
engine asks of it.  Both give the squared TM/TE coefficients as plain (A, B):

  zero_frequency_reflection(y, cfg)  the analytic m = 0 coefficients
  matsubara_reflection(zeta, T)      (A, B) as a function of p at zeta > 0

A sum plans a whole sweep at once, so the m = 0 rule also takes cfg with
T and a as columns of shape (n, 1), one row per configuration, and aT,
gamma and matsubara derived from them, against y of shape (n, k), and
must broadcast (the built-in rules do).

A model whose eps bends at some frequencies also names them as its kinks
(a table: its nodes), since the engine's rule in m must not integrate
across a bend.

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
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .constants import C, ev_to_rad_s
from .errors import (
    ConvergenceError,
    DomainError,
    TableFormatError,
    TableRangeError,
    UnsupportedModelError,
    check_positive,
    check_power,
)
from .quadrature import adaptive_quad

__all__ = [
    "ConstantRelaxation", "BlochGruneisen",
    "Drude", "Plasma", "Ideal", "PermittivityTable", "Tabulated",
    "MaterialModel", "gold_drude",
    "eps_drude", "eps_plasma", "eps_tabulated", "nu_bloch_gruneisen",
    "sum_rule_check", "zero_mode_product",
    "load_permittivity_table",
]


# ---------------------------------------------------------------------------
# reflection coefficients

def _reflection_sq(eps, p):
    """Squared TM/TE coefficients, in cancellation-free form.

    Uses (eps p - s)/(eps p + s) = (eps-1)(p^2(eps+1) - 1)/(eps p + s)^2
    and (s - p)/(s + p) = (eps-1)/(s + p)^2, which stay accurate when
    eps -> 1 and the direct differences would lose all digits.  Squares are
    products, so scalars match arrays: NumPy sends a scalar ``** 2`` to C pow.

    eps and p broadcast (scalars, 0-d arrays, a column against a row or a
    block) and are never written.  eps is copied once to the shape of the
    result, so that no step broadcasts a column against a block (NumPy's
    slow strided loop), p^2 is formed once, and the steps work in place on
    temporaries of the full shape made here: eps + 1 on that copy, once
    eps p is formed.  They round as the formulas do, operation for
    operation, so the bits are the same; scalars give NumPy scalars.
    """
    eps_full = np.empty(np.broadcast(eps, p).shape)
    eps_full[...] = eps
    em1, pp = eps_full - 1.0, p * p
    s = np.sqrt(em1 + pp)
    tm_den = eps_full * p
    tm_den += s
    tm_den *= tm_den
    eps_full += 1.0
    r_tm = pp * eps_full
    r_tm -= 1.0
    r_tm *= em1
    r_tm /= tm_den
    r_tm *= r_tm
    s += p  # the TE denominator
    s *= s
    r_te = em1 / s
    r_te *= r_te
    return r_tm, r_te


def _plasma_zero_mode(y, omega_p_rad_s: float, a: float):
    """m = 0 (A, B) of a plasma-like metal: A = 1 and a finite TE square."""
    yhat_p = omega_p_rad_s * a / C
    r = np.sqrt(y * y + yhat_p * yhat_p)
    r_te = (r - y) / (r + y)
    return 1.0, r_te * r_te


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
        check_positive("relaxation frequency", self.nu_ev)

    def nu(self, T: float) -> float:
        """Relaxation frequency in eV at temperature T (K)."""
        check_positive("temperature", T)
        return self.nu_ev


def _bg_integral(u: float) -> float:
    """Bloch-Grueneisen integral of x^5 e^x/(e^x-1)^2 over [0, u].

    The same adaptive GK15 as the mode integrals, at rel_tol 1e-13.  The
    integrand is written via sinh to stay finite for large x; past x = 80
    it is below double precision of the total, so the upper limit is
    min(u, 80).  The Kronrod nodes never touch x = 0, where the form is 0/0.
    """
    return adaptive_quad(lambda x: (x**5 / (4.0 * np.sinh(0.5 * x) ** 2))[None],
                         np.linspace(0.0, min(u, 80.0), 9), rel_tol=1e-13)[0].item()


@dataclass(frozen=True)
class BlochGruneisen:
    """Bloch-Grueneisen relaxation frequency.

    nu(T) = C * (T/theta_D)^5 * int_0^{theta_D/T} x^5 e^x/(e^x-1)^2 dx,
    with C fixed so that nu(T_ref) = nu_ref exactly.  The default Debye
    temperature of 170 K is the conventional literature value for gold.
    Each instance integrates the shape at most once per temperature, for
    T/theta_D in [1e-61, 1e61] (DomainError outside, T_ref included).
    """

    theta_d: float = 170.0   # K
    nu_ref_ev: float = 0.0356
    t_ref: float = 300.0     # K

    def __post_init__(self):
        check_positive("Debye temperature", self.theta_d)
        check_positive("reference temperature", self.t_ref)
        check_positive("nu_ref", self.nu_ref_ev)
        # shapes by temperature: not a field, so eq, hash and repr ignore it
        object.__setattr__(self, "_shapes", {})
        # C = nu_ref / shape_ref
        object.__setattr__(self, "_shape_ref", self._shape(self.t_ref))

    def _shape(self, T: float) -> float:
        shape = self._shapes.get(T)
        if shape is None:
            if not 1e-61 <= T / self.theta_d <= 1e61:  # (T/theta_D)^5 stays a normal float
                raise DomainError(f"Bloch-Grueneisen nu(T) needs T/theta_D in [1e-61, 1e61], "
                                  f"got T = {T:g} K with theta_D = {self.theta_d:g} K")
            shape = self._shapes[T] = (
                (T / self.theta_d) ** 5 * _bg_integral(self.theta_d / T))
        return shape

    def nu(self, T: float) -> float:
        """Relaxation frequency in eV at temperature T (K)."""
        check_positive("temperature", T)
        if T == self.t_ref:  # nu_ref * s / s can miss nu_ref by an ulp
            return self.nu_ref_ev
        return self.nu_ref_ev * self._shape(T) / self._shape_ref


RelaxationModel = Union[ConstantRelaxation, BlochGruneisen]


def nu_bloch_gruneisen(T: float, model: RelaxationModel) -> float:
    """Evaluate a relaxation model at temperature T; result in eV."""
    return model.nu(T)


# ---------------------------------------------------------------------------
# material models

@dataclass(frozen=True)
class Drude(_Dielectric):
    """Drude metal: eps = 1 + omega_p^2 / (zeta (zeta + nu(T))).

    nu(T) is kept only in ``relaxation``; after construction ``nu_ref_ev``
    holds relaxation.nu(300.0), at the default T of eps.  Given alone,
    nu_ref_ev builds a ConstantRelaxation (0.035 eV when both are omitted);
    given beside a relaxation model, it must equal that model's nu(300.0),
    or a DomainError names both values.
    """

    omega_p_ev: float = 9.0
    nu_ref_ev: float | None = None
    relaxation: RelaxationModel | None = None

    def __post_init__(self):
        check_positive("plasma frequency", self.omega_p_ev)
        if self.relaxation is None:
            object.__setattr__(self, "relaxation", ConstantRelaxation(
                ConstantRelaxation.nu_ev if self.nu_ref_ev is None else self.nu_ref_ev))
        nu = self.relaxation.nu(300.0)
        if self.nu_ref_ev is not None and self.nu_ref_ev != nu:
            raise DomainError(
                f"nu_ref_ev {self.nu_ref_ev} differs from the {nu} eV that the "
                f"relaxation model gives at 300 K")
        object.__setattr__(self, "nu_ref_ev", nu)

    @property
    def omega_p_rad_s(self) -> float:
        return ev_to_rad_s(self.omega_p_ev)

    def eps(self, zeta, T: float = 300.0):
        return eps_drude(zeta, self, T)

    def zero_frequency_reflection(self, y, cfg):
        """Lossy metal: the TM zero mode survives, the TE one vanishes."""
        return 1.0, 0.0


@dataclass(frozen=True)
class Plasma(_Dielectric):
    """Dissipationless plasma: eps = 1 + omega_p^2 / zeta^2."""

    omega_p_ev: float = 9.0

    def __post_init__(self):
        check_positive("plasma frequency", self.omega_p_ev)

    @property
    def omega_p_rad_s(self) -> float:
        return ev_to_rad_s(self.omega_p_ev)

    def eps(self, zeta, T: float | None = None):
        return eps_plasma(zeta, self.omega_p_ev)

    def zero_frequency_reflection(self, y, cfg):
        """Both zero modes survive; B follows from omega_p a / c."""
        return _plasma_zero_mode(y, self.omega_p_rad_s, cfg.a)


@dataclass(frozen=True)
class Ideal:
    """Perfect reflector: unit reflection coefficients, no finite eps."""

    def eps(self, zeta, T: float | None = None):
        raise UnsupportedModelError(
            "the ideal reflector has no finite permittivity; it is handled "
            "through its reflection coefficients")

    def zero_frequency_reflection(self, y, cfg):
        """Both zero modes survive with unit reflection."""
        return 1.0, 1.0

    def matsubara_reflection(self, zeta, T):
        """Unit reflection at every Matsubara frequency."""
        return lambda p: (1.0, 1.0)


def _bad_node(zeta, eps) -> tuple[int, str] | None:
    """(index, reason) of the first node that breaks the table rule, else None.

    The rule: zeta finite, > 0 and strictly increasing; eps finite and > 1.
    """
    for i, (z, e) in enumerate(zip(zeta, eps)):
        if not 0 < z < np.inf:
            return i, f"zeta must be finite and > 0, got {z!r}"
        if i and not z > zeta[i - 1]:
            return i, (f"zeta values must be strictly increasing "
                       f"({z!r} after {zeta[i - 1]!r})")
        if not 1 < e < np.inf:
            return i, f"epsilon must be finite and > 1, got {e!r}"
    return None


@dataclass(frozen=True)
class PermittivityTable:
    """Empirical eps(i zeta) samples; every node keeps the rule of _bad_node."""

    zeta: np.ndarray      # rad/s
    eps_values: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.zeta, dtype=float)
        e = np.asarray(self.eps_values, dtype=float)
        if z.ndim != 1 or e.shape != z.shape:
            raise DomainError("table needs matching 1-D zeta and eps arrays")
        if len(z) < 2:
            raise DomainError("table needs at least 2 points")
        bad = _bad_node(z.tolist(), e.tolist())
        if bad:
            raise DomainError(f"table node {bad[0]}: {bad[1]}")
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
    def kinks(self) -> np.ndarray:
        """Frequencies (rad/s) where eps bends: the nodes, between which the
        log-log interpolation is smooth."""
        return self.table.zeta

    @property
    def omega_p_eff_rad_s(self) -> float:
        """Effective plasma frequency zeta_min*sqrt(eps-1) from the lowest node."""
        return self.table.zeta_min * float(
            np.sqrt(self.table.eps_values[0] - 1.0))

    def zero_frequency_reflection(self, y, cfg):
        """The declared class decides; plasma-like uses omega_p_eff_rad_s."""
        if self.zero_mode_class == "drude_like":
            return 1.0, 0.0
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
    check_positive("zeta of the Drude permittivity", zeta)
    nu = ev_to_rad_s(params.relaxation.nu(T))
    wp = params.omega_p_rad_s
    with np.errstate(over="ignore"):  # past zeta ~ 1e154 the product is inf and eps 1
        out = 1.0 + wp * wp / (zeta * (zeta + nu))
    return float(out) if out.ndim == 0 else out


def eps_plasma(zeta, omega_p_ev: float):
    """Plasma permittivity 1 + omega_p^2/zeta^2 at zeta (rad/s)."""
    zeta = np.asarray(zeta, dtype=float)
    check_positive("zeta of the plasma permittivity", zeta)
    wp = ev_to_rad_s(omega_p_ev)
    ratio = wp / zeta
    out = 1.0 + ratio * ratio
    return float(out) if out.ndim == 0 else out


def eps_tabulated(zeta, table: PermittivityTable):
    """Log-log interpolation of tabulated eps(i zeta); exact at the nodes."""
    zeta_arr = np.asarray(zeta, dtype=float)
    outside = ~((zeta_arr >= table.zeta_min) & (zeta_arr <= table.zeta_max))  # NaN too
    if np.any(outside):
        raise TableRangeError(
            f"zeta outside table range [{table.zeta_min:g}, {table.zeta_max:g}]",
            zeta=float(zeta_arr[outside].min()))
    log_em1 = np.interp(np.log(zeta_arr), table._log_z, table._log_em1)
    out = 1.0 + np.exp(log_em1)
    # guarantee bit-exact reproduction of the nodes
    idx = np.clip(np.searchsorted(table.zeta, zeta_arr), 0, len(table.zeta) - 1)
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

    The integral over [0, 100*gamma] is done by the package's adaptive
    GK15 at its default rel_tol and the tail is added in closed form, so
    the result probes the numerics rather than the arctan identity.
    Should equal 1 for any gamma in [1e-150, 1e150], where gamma^2 and
    (100 gamma)^2 stay normal floats; DomainError outside it.
    """
    check_positive("gamma", gamma_spectral)
    g = float(gamma_spectral)
    if not 1e-150 <= g <= 1e150:
        raise DomainError(f"gamma must lie in [1e-150, 1e150], got {g!r}")
    val = adaptive_quad(lambda w: drude_spectral_function(w, g)[None],
                        np.linspace(0.0, 100.0 * g, 9))[0].item()
    return float(val + (2.0 / np.pi) * (0.5 * np.pi - np.arctan(100.0)))


def zero_mode_product(model: MaterialModel, T: float = 300.0) -> float:
    """Limit of zeta^2 (eps(i zeta) - 1) as zeta -> 0+.

    Evaluated on a decreasing geometric sequence of zeta.  Returns 0 once
    the product falls below 1e-12 * omega_p^2 (Drude-like decay) or the
    stabilized value when two consecutive evaluations agree to 1e-9
    (plasma-like plateau).  Only models with a plasma frequency
    omega_p_rad_s (Drude, Plasma) are supported; tabulated data carry a
    declared class instead of a computed one.
    """
    try:
        wp2 = check_power("plasma frequency omega_p_rad_s", model.omega_p_rad_s, 2)
    except AttributeError:
        raise UnsupportedModelError(
            f"zero_mode_product needs a plasma frequency omega_p_rad_s, "
            f"which {type(model).__name__} does not have") from None
    prev = val = None
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

    Expected format: UTF-8 text (a leading byte-order mark is skipped), the
    header ``zeta_rad_per_s,epsilon``, then rows that keep the table node
    rule (finite zeta > 0, strictly ascending, finite eps > 1).  Violations
    are reported with the offending line number.
    """
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise TableFormatError(f"{path}, line {lineno}: not UTF-8 text "
                               f"(byte 0x{raw[exc.start]:02x})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise TableFormatError(f"{path}: empty table file") from None
    if [h.strip() for h in header] != list(TABLE_HEADER):
        raise TableFormatError(
            f"{path}, line 1: expected header "
            f"'{','.join(TABLE_HEADER)}', got '{','.join(header)}'")
    rows: list[tuple[int, float, float]] = []  # (line number, zeta, eps)
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise TableFormatError(
                f"{path}, line {lineno}: expected 2 columns, got {len(row)}")
        try:
            rows.append((lineno, float(row[0]), float(row[1])))
        except ValueError:
            raise TableFormatError(
                f"{path}, line {lineno}: non-numeric value in "
                f"'{','.join(row)}'") from None
    if len(rows) < 2:
        raise TableFormatError(f"{path}: table needs at least 2 data rows")
    lines, zetas, eps = zip(*rows)
    bad = _bad_node(zetas, eps)
    if bad:
        raise TableFormatError(f"{path}, line {lines[bad[0]]}: {bad[1]}")
    return PermittivityTable(np.array(zetas), np.array(eps))
