"""Lifshitz theory for two parallel plates at finite temperature.

Pressure between the plates (negative = attraction):

    P = -(k_B T / (pi a^3)) * sum'_m  int_{m gamma}^inf y^2 dy
        [ A e^{-2y}/(1 - A e^{-2y}) + B e^{-2y}/(1 - B e^{-2y}) ],

and the free energy per unit area, with P = -dF/da:

    F = (k_B T / (2 pi a^2)) * sum'_m  int_{m gamma}^inf y dy
        [ ln(1 - A e^{-2y}) + ln(1 - B e^{-2y}) ].

The primed sum gives half weight to m = 0.  Here y = q a is the
dimensionless wave number, gamma = 2 pi a k_B T / (hbar c), and the
squared reflection coefficients for the TM and TE polarizations are

    A = ((eps p - s)/(eps p + s))^2,   B = ((s - p)/(s + p))^2,

with the Lifshitz variables p = y/(m gamma) and s = sqrt(eps - 1 + p^2),
eps evaluated at the Matsubara frequency zeta_m = 2 pi m k_B T / hbar.

The m = 0 term is handled analytically, never as a small-zeta numerical
limit, by each material model's zero_frequency_reflection rule (see
dispersion): a lossy metal keeps its TM zero mode (A = 1) but loses the
TE one (B = 0), while the dissipationless plasma model and the ideal
reflector retain both.  That difference is exactly what makes the
temperature dependence model-sensitive.  For m >= 1 the engine asks the
model for its matsubara_reflection rule at zeta_m.

Both rules return plain (A, B) and are bound once per mode integral; only
the public reflection_pair and zero_frequency_reflection validate them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import C, HBAR, K_B
from .dispersion import MaterialModel, _reflection_sq
from .errors import ConvergenceError, DomainError, TableRangeError, UnsupportedModelError
from .quadrature import adaptive_quad, neumaier_sum

__all__ = [
    "ThermalGapConfig", "QuadratureSettings", "ReflectionPair",
    "PressureResult", "DEFAULT_QUAD",
    "lifshitz_variables", "reflection_pair", "zero_frequency_reflection",
    "mode_pressure", "mode_free_energy", "total_pressure", "free_energy",
    "te_mode_function", "surface_impedance", "rte_from_impedance",
    "rte_zero_frequency_comparison",
]

MODE_CAP = 100_000
_Y_TAIL = 30.0  # width of every y-integral; e^{-2 y} past it is below 1e-26


@dataclass(frozen=True)
class ThermalGapConfig:
    """Temperature (K) and gap width (m) with the derived Matsubara grid."""

    T: float
    a: float

    def __post_init__(self):
        if not self.T > 0:
            raise DomainError(f"temperature must be > 0, got {self.T}")
        if not self.a > 0:
            raise DomainError(f"gap width must be > 0, got {self.a}")

    @property
    def aT(self) -> float:
        """Dimensionless a*T = a k_B T / (hbar c)."""
        return self.a * K_B * self.T / (HBAR * C)

    @property
    def gamma(self) -> float:
        """Dimensionless Matsubara spacing 2 pi a k_B T / (hbar c)."""
        return 2.0 * np.pi * self.aT

    def matsubara(self, m) -> float:
        """Matsubara frequency zeta_m = 2 pi m k_B T / hbar in rad/s."""
        return 2.0 * np.pi * m * K_B * self.T / HBAR


@dataclass(frozen=True)
class QuadratureSettings:
    """Relative tolerance of the y-integrals and the Matsubara truncation."""

    rel_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.rel_tol <= 1e-4:
            raise DomainError(f"rel_tol must be in (0, 1e-4], got {self.rel_tol}")


DEFAULT_QUAD = QuadratureSettings()


@dataclass(frozen=True)
class PressureResult:
    """Total pressure with the per-mode decomposition.

    per_mode holds (m, contribution in Pa, share of the total in percent).
    """

    total: float
    per_mode: tuple
    m_used: int

    def fraction(self, m: int) -> float:
        """Percentage contribution of mode m (0 if beyond the modes used)."""
        if m < len(self.per_mode):
            return self.per_mode[m][2]
        return 0.0


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


def lifshitz_variables(y, m: int, cfg: ThermalGapConfig, eps):
    """The variables p = y/(m gamma) and s = sqrt(eps - 1 + p^2)."""
    if m < 1:
        raise DomainError("lifshitz_variables needs a mode index m >= 1")
    y = np.asarray(y, dtype=float)
    mg = m * cfg.gamma
    if np.any(y < mg):
        raise DomainError(f"y must be >= m*gamma = {mg:g}")
    eps = np.asarray(eps, dtype=float)
    if np.any(eps < 1.0):
        raise DomainError("eps must be >= 1 on the imaginary axis")
    p = y / mg
    s = np.sqrt(eps - 1.0 + p * p)
    if p.ndim == 0:
        return float(p), float(s)
    return p, s


def reflection_pair(y, m: int, cfg: ThermalGapConfig, eps) -> ReflectionPair:
    """Squared reflection coefficients A (TM) and B (TE) for mode m >= 1."""
    p, _ = lifshitz_variables(y, m, cfg, eps)
    A, B = _reflection_sq(np.asarray(eps, dtype=float), np.asarray(p, dtype=float))
    if np.ndim(A) == 0:
        return ReflectionPair(float(A), float(B))
    return ReflectionPair(A, B)


def _zero_rule(model, cfg):
    """The model's analytic m = 0 rule bound to cfg: y -> (A, B)."""
    try:
        rule = model.zero_frequency_reflection
    except AttributeError:
        raise UnsupportedModelError(
            f"no zero-frequency reflection rule for {type(model).__name__}") from None
    return lambda y: rule(y, cfg)


def zero_frequency_reflection(model: MaterialModel, y, cfg: ThermalGapConfig) -> ReflectionPair:
    """Analytic m = 0 reflection coefficients, from the model's own rule.

    Constant coefficients are returned as plain scalars; keeping A = 1.0
    scalar lets the integrands use their exact expm1/log forms at y -> 0.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise DomainError("y must be >= 0")
    return ReflectionPair(*_zero_rule(model, cfg)(y))


# ---------------------------------------------------------------------------
# mode integrals

def _occupancy(X, y):
    """X e^{-2y} / (1 - X e^{-2y}), exact for the X = 1 zero-mode case."""
    u = X * np.exp(-2.0 * y)
    if np.ndim(X) == 0 and float(X) == 1.0:
        denom = -np.expm1(-2.0 * y)
    else:
        denom = 1.0 - u
    return u / denom


def _log_term(X, y):
    """ln(1 - X e^{-2y}) at full relative precision.

    For X = 1 the two loss modes are split: near y = 0 the difference
    1 - e^{-2y} needs expm1, while for large y the argument of a plain
    log would sit within a few ulp of 1 and log1p(-exp(-2y)) is exact.
    """
    if np.ndim(X) == 0 and float(X) == 1.0:
        y = np.asarray(y, dtype=float)
        out = np.empty_like(y)
        small = y < 0.3466  # e^{-2y} > 1/2
        out[small] = np.log(-np.expm1(-2.0 * y[small]))
        out[~small] = np.log1p(-np.exp(-2.0 * y[~small]))
        return out
    return np.log1p(-X * np.exp(-2.0 * y))


def _pressure_kernel(A, B, y):
    return y * y * (_occupancy(A, y) + _occupancy(B, y))


def _free_energy_kernel(A, B, y):
    return y * (_log_term(A, y) + _log_term(B, y))


def _integrate(model, cfg, zeta, y_lo, kernel, quad):
    """int kernel(A, B, y) dy over [y_lo, y_lo + _Y_TAIL], y_lo = a zeta / c.

    The model's reflection rule is bound once per integral: the analytic
    m = 0 rule at zeta = 0, otherwise its rule in p = y / y_lo at zeta.
    """
    if zeta == 0.0:
        rule = _zero_rule(model, cfg)
    else:
        at_p = model.matsubara_reflection(zeta, cfg.T)

        def rule(y):
            return at_p(y / y_lo)
    value, _ = adaptive_quad(lambda y: kernel(*rule(y), y), y_lo, y_lo + _Y_TAIL,
                             rel_tol=quad.rel_tol)
    return value


def _mode_value(m, cfg, model, quad, kernel, prefactor):
    """prefactor * weight * mode integral; m = 0 carries the half weight."""
    if m < 0:
        raise DomainError(f"mode index must be >= 0, got {m}")
    mg = m * cfg.gamma
    weight = 0.5 if m == 0 else 1.0
    zeta = cfg.matsubara(m)
    try:
        return prefactor * weight * _integrate(model, cfg, zeta, mg, kernel, quad)
    except TableRangeError as exc:
        raise TableRangeError(f"Matsubara mode m = {m} at T = {cfg.T:g} K has "
                              f"zeta_m = {zeta:.4g} rad/s: {exc}") from None


def mode_pressure(m: int, cfg: ThermalGapConfig, model: MaterialModel,
                  quad: QuadratureSettings = DEFAULT_QUAD) -> float:
    """Pressure contribution of Matsubara mode m, in Pa (negative).

    The m = 0 term carries the half weight of the primed sum and uses the
    analytic zero-frequency reflection coefficients.
    """
    return _mode_value(m, cfg, model, quad, _pressure_kernel,
                       -(K_B * cfg.T / (np.pi * cfg.a ** 3)))


def mode_free_energy(m: int, cfg: ThermalGapConfig, model: MaterialModel,
                     quad: QuadratureSettings = DEFAULT_QUAD) -> float:
    """Free-energy contribution of mode m, in J/m^2 (negative)."""
    return _mode_value(m, cfg, model, quad, _free_energy_kernel,
                       K_B * cfg.T / (2.0 * np.pi * cfg.a ** 2))


def _sum_modes(cfg, quad, mode_value):
    """Primed Matsubara sum in ascending m, correctly rounded at the end.

    Stops after two consecutive modes contribute less than rel_tol of the
    running total, never before m = 5.
    """
    contributions = []
    running = 0.0
    small_run = 0
    m = 0
    while True:
        c = mode_value(m)
        contributions.append(c)
        running += c
        if m >= 1:
            if abs(c) <= quad.rel_tol * abs(running):
                small_run += 1
            else:
                small_run = 0
            if small_run >= 2 and m >= 5:
                return neumaier_sum(contributions), contributions
        if m >= MODE_CAP:
            raise ConvergenceError(
                f"Matsubara sum not converged after {MODE_CAP} modes "
                f"(gamma = {cfg.gamma:g})", estimate=neumaier_sum(contributions))
        m += 1


def total_pressure(cfg: ThermalGapConfig, model: MaterialModel,
                   quad: QuadratureSettings = DEFAULT_QUAD) -> PressureResult:
    """Total Casimir pressure with per-mode contributions and fractions."""
    total, contributions = _sum_modes(
        cfg, quad, lambda m: mode_pressure(m, cfg, model, quad))
    per_mode = tuple(
        (m, c, 100.0 * c / total if total != 0.0 else 0.0)
        for m, c in enumerate(contributions))
    return PressureResult(total=total, per_mode=per_mode,
                          m_used=len(contributions))


def free_energy(cfg: ThermalGapConfig, model: MaterialModel,
                quad: QuadratureSettings = DEFAULT_QUAD) -> float:
    """Free energy per unit area in J/m^2 (negative; P = -dF/da)."""
    total, _ = _sum_modes(
        cfg, quad, lambda m: mode_free_energy(m, cfg, model, quad))
    return total


# ---------------------------------------------------------------------------
# TE mode function at continuous frequency

def te_mode_function(zeta: float, a: float, model: MaterialModel,
                     T: float = 300.0,
                     quad: QuadratureSettings = DEFAULT_QUAD) -> float:
    """TE free-energy integrand f(zeta) = int y ln(1 - B e^{-2y}) dy.

    Evaluated at a continuous imaginary frequency (not only the Matsubara
    nodes), with the lower limit y = a zeta / c.  f(0) uses the analytic
    zero-frequency coefficient, so a lossy metal gives exactly 0 while an
    ideal reflector gives -zeta(3)/4.  T only enters through a possible
    temperature dependence of the relaxation frequency.
    """
    if zeta < 0:
        raise DomainError(f"zeta must be >= 0, got {zeta}")
    return _integrate(model, ThermalGapConfig(T=T, a=a), zeta, a * zeta / C,
                      lambda A, B, y: y * _log_term(B, y), quad)


# ---------------------------------------------------------------------------
# surface impedance formulation

def surface_impedance(zeta: float, q: float, eps: float) -> float:
    """Momentum-dependent surface impedance Z = -zeta/sqrt(zeta^2(eps-1)+q^2).

    q is the full imaginary-axis wave number times c (so q >= zeta, with
    q^2 = (c k_perp)^2 + zeta^2), in rad/s.
    """
    if not zeta > 0:
        raise DomainError(f"zeta must be > 0, got {zeta}")
    if q < zeta:
        raise DomainError(f"q must be >= zeta (q^2 = c^2 k_perp^2 + zeta^2), "
                          f"got q = {q:g} < zeta = {zeta:g}")
    return -zeta / np.sqrt(zeta * zeta * (eps - 1.0) + q * q)


def rte_from_impedance(zeta: float, q: float, eps: float) -> float:
    """TE reflection coefficient -(1 + Z p)/(1 - Z p) with p = q/zeta.

    Its square equals the TE coefficient B from the permittivity form;
    only the square enters the Lifshitz sum, so the overall sign is pure
    convention.
    """
    Z = surface_impedance(zeta, q, eps)
    p = q / zeta
    return -(1.0 + Z * p) / (1.0 - Z * p)


def rte_zero_frequency_comparison(model, q_fixed: float, zeta_sequence):
    """Contrast the zeta -> 0 TE reflection under two impedance models.

    Takes a decreasing sequence of frequencies and returns the squared
    reflection coefficients at its last, smallest one, using

      (i)  the momentum-dependent impedance Z(zeta, q), and
      (ii) the frequency-only impedance Z(zeta) = -1/sqrt(eps(i zeta))
           one would take from the normal skin effect (obtained by
           dropping the transverse momentum, i.e. setting q = zeta in Z),

    both inserted at the true p = q/zeta.  For a lossy metal the limits
    differ qualitatively: (i) -> 0 while (ii) -> 1, which is why a
    frequency-only impedance cannot be used at finite temperature.  For
    the plasma model both agree and stay finite.
    """
    zs = np.asarray(zeta_sequence, dtype=float)
    if zs.ndim != 1 or len(zs) == 0:
        raise DomainError("zeta_sequence must be a non-empty 1-D sequence")
    if not np.all(zs > 0):
        raise DomainError("zeta_sequence must be positive")
    if len(zs) > 1 and not np.all(np.diff(zs) < 0):
        raise DomainError("zeta_sequence must be strictly decreasing")
    if not q_fixed >= zs[0]:
        raise DomainError("q_fixed must be >= every zeta in the sequence")
    zeta = zs[-1]
    eps = model.eps(zeta)
    r_momentum = rte_from_impedance(zeta, q_fixed, eps)
    p = q_fixed / zeta
    Z_freq = -1.0 / np.sqrt(eps)
    r_freq = -(1.0 + Z_freq * p) / (1.0 - Z_freq * p)
    return r_momentum * r_momentum, r_freq * r_freq
