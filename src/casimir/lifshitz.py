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

Both rules return plain (A, B); only the public reflection_pair and
zero_frequency_reflection validate them.  With y = m gamma + t every m >= 1
mode lives on the same t-interval, so a sum is one adaptive integral over
the summed integrand of modes 1..M-1, with M set by an ideal-reflector
bound on the dropped tail, plus the m = 0 term.  M grows like 1/(aT), so
where M > 8 K the modes m >= K enter as the weighted rows of a rule in m
(Euler-Maclaurin in Gregory's form, see _tail_rule), whose cost grows
like log M; K and the rule come from its error estimate.  The m = 0 term
is (A0 + B0) zeta(3)/4 in closed form, with the sign of the kernel and
A0, B0 the coefficients that are exactly 1 at y = 0, plus the integral of
the kernel at (A, B) minus the kernel at (A0, B0).  For a lossy metal and
the ideal reflector (constant A and B, each 0 or 1) that remainder is 0;
for plasma it is a second integral, smooth at y = 0 where the free
energy's kernel alone goes like y ln y.  Every t-integral starts from the
same initial panels, graded toward t = 0, where the kernels vary fastest.

P and F at one (a, T) share their rows: a sum of both (the CLI's diff)
binds eps and evaluates A and B once per row for both kernels.
Each keeps its own m = 0 term, M and prefactor, sums its own first M - 1
rows, and holds rel_tol on its own total in the one t-integral (and in
the one rule in m, placed to the larger M).  total_pressure and
free_energy are the sums of one observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .constants import C, HBAR, K_B
from .dispersion import MaterialModel, _reflection_sq
from .errors import (CasimirError, ConvergenceError, DomainError, TableRangeError,
                     UnsupportedModelError, check_eps, check_index, check_positive)
from .quadrature import adaptive_quad, bisect_worst, gk15_rule

__all__ = [
    "ThermalGapConfig", "QuadratureSettings", "ReflectionPair",
    "PressureResult", "DEFAULT_QUAD",
    "lifshitz_variables", "reflection_pair", "zero_frequency_reflection",
    "mode_pressure", "mode_free_energy", "total_pressure", "free_energy",
    "te_mode_function", "surface_impedance", "rte_from_impedance",
    "rte_zero_frequency_comparison",
]

# Initial panel edges of every t-integral, graded toward t = 0 where the
# kernels vary fastest (at low aT, the first rows; the plasma m = 0 term is
# integrated as a remainder that is smooth there, see _mode_integrals);
# chosen by counting rounds and points over the benchmark's sums.  The last
# edge is the width of every y-integral: e^{-2 y} past 30 is below 1e-26.
_T_MESH = np.array([0.0, 1 / 256, 1 / 32, 3 / 16, 0.75, 2.0, 4.5, 9.0, 15.0, 30.0])
_T_NODES, _T_WEIGHTS = (x.ravel() for x in gk15_rule(_T_MESH[:-1], _T_MESH[1:])[:2])
_ROW_BLOCK = 128  # rows evaluated together: bounds the integrand's memory
_RULE_BLOCK = 64  # the same in sums by the rule in m: < 1 MB at 135 t-points
_ROW_CAP = 250_000  # most rows a sum or a per_mode table evaluates one by one
# The rule in m (_tail_rule) keeps at least _K_MIN explicit rows and runs
# only where M > _RULE_RATIO K.  It sums smooth stretches of at least
# _SEGMENT_MIN rows and bisects its panels up to _M_PANELS of them.
_K_MIN = 256
_RULE_RATIO = 8
_SEGMENT_MIN = 64
_M_PANELS = 256
# Gregory's end terms g(K)/2 - g'(K)/12 + g'''(K)/720 as weights on the rows
# K..K+4: g' and g''' come from one-sided differences with errors g^(5)/5 and
# 7 g^(5)/4, and _D3 @ rows / 720 is the last term, the end's error estimate.
_D3 = np.array([-5.0, 18.0, -24.0, 14.0, -3.0]) / 2.0
_GREGORY = (np.array([0.5, 0.0, 0.0, 0.0, 0.0])
            - np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 144.0 + _D3 / 720.0)


@dataclass(frozen=True)
class ThermalGapConfig:
    """Temperature (K) and gap width (m) with the derived Matsubara grid."""

    T: float
    a: float

    def __post_init__(self):
        check_positive("temperature", self.T)
        check_positive("gap width", self.a)

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

    per_mode holds (m, contribution in Pa, share of the total in percent)
    for m = 0..m_used-1; each contribution is accurate to rel_tol of the total.
    Past m_used = 250,000 the table is not built: per_mode, and so pickling
    and copying, raise CasimirError.  fraction(m) reads the table of a sum
    of at most _RULE_RATIO * _K_MIN modes, which is always summed row by
    row, and of a copy; otherwise it evaluates the one mode it is asked for.
    """

    total: float
    m_used: int
    _contributions: object = field(repr=False, compare=False)  # m -> term m; () -> all

    @cached_property  # evaluated on the sum's final panel rule when first read
    def per_mode(self) -> tuple:
        if self.m_used > _ROW_CAP:
            raise CasimirError(f"per_mode would list m_used = {self.m_used} modes, "
                               f"more than {_ROW_CAP}")
        c = self._contributions()
        shares = 100.0 * c / self.total if self.total != 0.0 else 0.0 * c
        return tuple(zip(range(self.m_used), c.tolist(), shares.tolist()))

    def fraction(self, m: int) -> float:
        """Percentage contribution of mode m >= 0 (0 if beyond the modes used).

        m must be an integer; DomainError otherwise.
        """
        check_index(m, 0)
        if m >= self.m_used or self.total == 0.0:
            return 0.0
        if self.m_used <= _RULE_RATIO * _K_MIN or self._contributions is None:
            return self.per_mode[m][2]
        return 100.0 * self._contributions(m) / self.total

    def __getstate__(self):  # pickles and copies hold the table, not the callable
        return dict(vars(self), per_mode=self.per_mode, _contributions=None)


# ---------------------------------------------------------------------------
# reflection coefficients

@dataclass(frozen=True)
class ReflectionPair:
    """Squared reflection coefficients (TM, TE), each in [0, 1]."""

    A: float
    B: float

    def __post_init__(self):
        for name, X in (("TM", self.A), ("TE", self.B)):
            X = np.asarray(X)
            if not np.all((X >= 0) & (X <= 1)):  # NaN fails too
                raise DomainError(f"squared {name} coefficient must lie in [0, 1]")


def lifshitz_variables(y, m: int, cfg: ThermalGapConfig, eps):
    """The variables p = y/(m gamma) and s = sqrt(eps - 1 + p^2).

    m is an integer >= 1 and y finite and >= m gamma; DomainError otherwise.
    """
    check_index(m, 1)
    y = np.asarray(y, dtype=float)
    mg = m * cfg.gamma
    if not np.all((y >= mg) & (y < math.inf)):  # NaN fails too
        raise DomainError(f"y must be >= m*gamma = {mg:g} and finite")
    eps = check_eps(eps)
    p = y / mg
    s = np.sqrt(eps - 1.0 + p * p)
    return (float(p), float(s)) if p.ndim == 0 else (p, s)


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

    y must be finite and >= 0.  Constant coefficients are returned as plain
    scalars.  That is the one place where a scalar matters: scalar 0s and
    1s (Drude, Ideal, a drude_like table) mark a constant zero mode, whose
    term the sums give in closed form; the kernels treat scalars and arrays
    alike.
    """
    y = np.asarray(y, dtype=float)
    if not np.all((y >= 0) & (y < math.inf)):  # NaN fails too
        raise DomainError("y must be >= 0 and finite")
    return ReflectionPair(*_zero_rule(model, cfg)(y))


# ---------------------------------------------------------------------------
# mode integrals

def _pressure_kernel(A, B, y):
    u = np.exp(-2.0 * y)
    return y * y * (A * u / (1.0 - A * u) + B * u / (1.0 - B * u))


def _free_energy_kernel(A, B, y):
    u = np.exp(-2.0 * y)
    return y * (np.log1p(-A * u) + np.log1p(-B * u))


def _te_kernel(A, B, y):
    return y * np.log1p(-B * np.exp(-2.0 * y))


# zeta(3)/4 = int_0^inf y^2 e^{-2y}/(1 - e^{-2y}) dy = -int_0^inf y ln(1 - e^{-2y}) dy
_ZETA3_4 = 0.3005142257898985713


# An observable: its kernel, its prefactor, the coefficients of c^2, c, 1 in
# p(c) and q(c) of its ideal-reflector tail bound (see _tail_bound), and its
# m = 0 integral per unit TM and per unit TE coefficient.
_PRESSURE = (_pressure_kernel, lambda cfg: -K_B * cfg.T / (np.pi * cfg.a ** 3),
             ((0.5, 0.5, 0.25), (0.25, 0.5, 0.375)), (_ZETA3_4, _ZETA3_4))
_FREE_ENERGY = (_free_energy_kernel, lambda cfg: K_B * cfg.T / (2.0 * np.pi * cfg.a ** 2),
                ((0.0, 0.5, 0.25), (0.0, 0.25, 0.25)), (-_ZETA3_4, -_ZETA3_4))


def _blocks(x, size):
    """x split into consecutive blocks of size rows."""
    return [x[i:i + size] for i in range(0, len(x), size)]


def _in_p(rule, y_lo):
    """A block's m >= 1 rule, (A, B) as a function of p, as one of y."""
    return y_lo, lambda y: rule(y / y_lo)


def _bind(model, cfg, zeta, size=_ROW_BLOCK):
    """The rows at frequencies zeta as blocks of (y_lo, y -> (A, B)).

    The row zeta = [0] takes the model's m = 0 rule; rows at zeta > 0 bind
    its m >= 1 rule in p = y c / (a zeta) once per block of size rows.
    """
    zeta = np.asarray(zeta, dtype=float)[:, None]
    if zeta[0, 0] == 0.0:
        return [(zeta, _zero_rule(model, cfg))]
    return [_in_p(model.matsubara_reflection(z, cfg.T), cfg.a * z / C)
            for z in _blocks(zeta, size)]


def _kernels_at(rule, y, kernels):
    """Each kernel(A, B, y) at the rows y of one block, (A, B) = rule(y).

    A function of its own, so that only the kernels' rows outlive a block.
    """
    A, B = rule(y)
    return [kernel(A, B, y) for kernel in kernels]


def _kernel_rows(blocks, kernels, t):
    """Each kernel at y = y_lo + t, a list of arrays of rows per block."""
    return (_kernels_at(rule, y_lo + t, kernels) for y_lo, rule in blocks)


def _integrate(model, cfg, zeta, kernels, rel_tol, weight=None, counts=None):
    """Row-summed int kernel(A, B, y) dt over t in [0, 30], y = a zeta / c + t,
    for each kernel of a stack.

    Rows share t and every kernel shares their (A, B), so one adaptive_quad
    call holds rel_tol on each kernel's sum: of its first counts[c] rows
    (by default all), or of all rows weighted when each row has a weight.
    It starts from the panels of _T_MESH.  Returns the array of sums and a
    callable per_row(c, zeta=None) that evaluates kernel c's row integrals
    on the final panel rule of adaptive_quad: the rows at the frequencies
    it is given, or by default this integral's own.
    """
    size = _ROW_BLOCK if weight is None else _RULE_BLOCK
    blocks = _bind(model, cfg, zeta, size)
    if weight is None:
        # block b holds rows b size.. and gives kernel c its first counts[c] - b size
        cuts = [[n - b * size for n in counts or [len(zeta)] * len(kernels)]
                for b in range(len(blocks))]

        def integrand(t):
            out = np.zeros((len(kernels), len(t)))
            for rows, cut in zip(_kernel_rows(blocks, kernels, t), cuts):
                for s, k, n in zip(out, rows, cut):
                    if n > 0:
                        s += k[:n].sum(axis=0)
            return out
    else:
        weights = _blocks(weight, size)

        def integrand(t):
            out = np.zeros((len(kernels), len(t)))
            for w, rows in zip(weights, _kernel_rows(blocks, kernels, t)):
                for s, k in zip(out, rows):
                    s += w @ k
            return out

    values, _, t, w = adaptive_quad(integrand, _T_MESH[0], _T_MESH[-1],
                                    rel_tol=rel_tol, points=_T_MESH[1:-1])

    def per_row(c, zeta=None):
        rows = blocks if zeta is None else _bind(model, cfg, zeta, size)
        return np.concatenate([k @ w for k, in _kernel_rows(rows, kernels[c:c + 1], t)])
    return values, per_row


def _mode_integrals(model, cfg, zeta, kernels, zeros, rel_tol):
    """int kernel dy of the one row at zeta for each kernel, without weight
    or prefactor, as a list.

    At zeta = 0, A0 and B0 are 1 where the model's rule gives exactly 1 at
    y = 0 and 0 otherwise, and kernel c's integral is the closed form
    A0 unit_A + B0 unit_B, with zeros[c] = (unit_A, unit_B) its integrals
    at unit coefficients, plus int kernel(A, B) - kernel(A0, B0) dy.  That
    remainder is 0 where the rule gives constant A0 and B0 (a lossy metal,
    the ideal reflector), and is skipped; otherwise it is one stacked
    integral.  For plasma, 1 - B ~ 4 y / Omega with Omega = omega_p a / c:
    where the free energy's kernel goes like y ln y at y = 0, the
    remainder's log ratio tends to ln(1 + 2/Omega), smooth.  The closed
    form enters the integral as a constant density on the t-interval, which
    GK15 integrates exactly, so rel_tol holds on the whole term; rounding
    bounds it where the term is far below its closed part (the TE integral
    at Omega << 1: 3e-11 relative at 1 nm for 0.5 eV).
    """
    if zeta == 0.0:
        A, B = _zero_rule(model, cfg)(np.zeros(1))
        A0, B0 = (1.0 if X == 1.0 else 0.0 for X in (A, B))
        closed = [unit_A * A0 + unit_B * B0 for unit_A, unit_B in zeros]
        if np.ndim(A) == np.ndim(B) == 0 and (A, B) == (A0, B0):
            return closed
        kernels = [lambda A, B, y, k=k, c=c: k(A, B, y) - k(A0, B0, y) + c / _T_MESH[-1]
                   for k, c in zip(kernels, closed)]
    return _integrate(model, cfg, [zeta], kernels, rel_tol)[0].tolist()


def _mode_value(m, cfg, model, quad, observable):
    """prefactor * weight * mode integral; m = 0 carries the half weight."""
    kernel, prefactor, _, zero = observable
    check_index(m, 0)
    weight = 0.5 if m == 0 else 1.0
    return prefactor(cfg) * weight * float(_mode_integrals(
        model, cfg, cfg.matsubara(m), (kernel,), (zero,), quad.rel_tol)[0])


def mode_pressure(m: int, cfg: ThermalGapConfig, model: MaterialModel,
                  quad: QuadratureSettings = DEFAULT_QUAD) -> float:
    """Pressure contribution of Matsubara mode m, in Pa (negative).

    m is an integer >= 0 (DomainError otherwise).  The m = 0 term carries
    the half weight of the primed sum and uses the analytic zero-frequency
    reflection coefficients.
    """
    return _mode_value(m, cfg, model, quad, _PRESSURE)


def mode_free_energy(m: int, cfg: ThermalGapConfig, model: MaterialModel,
                     quad: QuadratureSettings = DEFAULT_QUAD) -> float:
    """Free-energy contribution of mode m, in J/m^2 (negative).

    m is an integer >= 0 (DomainError otherwise); m = 0 carries the half weight.
    """
    return _mode_value(m, cfg, model, quad, _FREE_ENERGY)


def _tail_bound(M, gamma, coeffs):
    """Bound on sum_{m >= M} int_{m gamma}^inf |kernel| dy, for every model.

    As 0 <= A, B <= 1, each kernel is at most its ideal-reflector value, and
    for y >= c = M gamma, e^{-2y}/(1 - e^{-2y}) <= e^{-2y}/(1 - e^{-2c}).  The
    mode integral I decreases, so the sum is at most I(c) + int_c^inf I / gamma
    = 2 e^{-2c}/(1 - e^{-2c}) (p(c) + q(c)/gamma), elementary in c.
    """
    c = M * gamma
    p, q = ((k2 * c + k1) * c + k0 for k2, k1, k0 in coeffs)
    return 2.0 * math.exp(-2.0 * c) / -math.expm1(-2.0 * c) * (p + q / gamma)


def _smallest(ok, lo, hi):
    """Smallest n > lo with ok(n), for a monotone ok; hi doubles until ok(hi)."""
    while not ok(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ok(mid) else (mid, hi)
    return hi


def _modes_needed(gamma, coeffs, target):
    """Smallest M >= 2 with _tail_bound(M, gamma, coeffs) <= target.

    With c = M gamma and p, q of _tail_bound, the bound is target where
    h(c) = 2 c + ln((1 - e^{-2c}) target / (2 (p(c) + q(c)/gamma))) = 0,
    and h increases.  Newton's method from c = ln(1/target)/2 finds that
    root to a tenth of a mode in two to four steps.  Two checks confirm
    the M it gives; _smallest searches when they do not, and when target
    is 0.
    """
    def ok(n):
        return _tail_bound(n, gamma, coeffs) <= target

    c = 2.0 * gamma
    if target > 0.0:
        c = max(c, -0.5 * math.log(target))
        for _ in range(8):
            (p, dp), (q, dq) = (((k2 * c + k1) * c + k0, 2.0 * k2 * c + k1)
                                for k2, k1, k0 in coeffs)
            s = p + q / gamma
            e = -math.expm1(-2.0 * c)
            h = 2.0 * c + math.log(e * target / (2.0 * s))
            c, last = max(2.0 * gamma, c - h / (2.0 + 2.0 * (1.0 - e) / e
                                                  - (dp + dq / gamma) / s)), c
            if abs(c - last) < 0.1 * gamma:
                break
    n = math.ceil(c / gamma)
    if not ok(n):
        return _smallest(ok, n, 2 * n)
    return n if n == 2 or not ok(n - 1) else _smallest(ok, 1, n - 1)


def _tail_rule(model, cfg, kernels, K, M, rel_tol, zeros):
    """Rows (mode numbers m, not all integers) and weights whose weighted
    sum is sum_{m=K}^{M-1} g(m) for each kernel of a stack, g(m) the row
    integral at m zeta_1; None when the rule misses its error budget.

    The model's kinks, frequencies where eps bends, cut [K, M-1] where g is
    not smooth.  A smooth stretch [a, b] of at least _SEGMENT_MIN rows is
    summed by Gregory's rule: int_a^b g dm plus, at a and mirrored at b,
    the end terms of _GREGORY.  A shorter stretch keeps its rows.  The
    integral takes GK15 panels graded geometrically from a, none wider than
    4/gamma, over which g falls by at most e^8.  The rule is placed by the
    kernels' g on the first t-panels, _T_NODES, which also gives its error
    estimate per kernel: the last end terms (_D3) plus |Kronrod - Gauss| on
    the panels, each held to half of rel_tol |zeros[c] + the rule's sum|
    (the explicit rows only add to that sum).  The panels with the largest
    |Kronrod - Gauss| relative to that budget are bisected, up to
    _M_PANELS of them.  The estimate cannot see a bend of eps that the
    model does not name among its kinks.
    """
    def g(m):  # shape (kernels, rows)
        blocks = _bind(model, cfg, cfg.matsubara(m), _RULE_BLOCK)
        per_block = [[k @ _T_WEIGHTS for k in rows]
                     for rows in _kernel_rows(blocks, kernels, _T_NODES)]
        return np.array([np.concatenate(g_c) for g_c in zip(*per_block)])

    kinks = np.asarray(getattr(model, "kinks", ()), dtype=float) / cfg.matsubara(1)
    explicit, ends, lo, hi = [np.zeros(0)], [], [], []
    start = K
    for end in [c // 1 for c in kinks if K < c < M - 1] + [M - 1]:
        if end - start >= _SEGMENT_MIN:
            ends += [start + np.arange(5.0), end - np.arange(5.0)]
            edges = [start]
            while edges[-1] < end:
                edges.append(min(2.0 * edges[-1], edges[-1] + 4.0 / cfg.gamma, end))
            lo += edges[:-1]
            hi += edges[1:]
        else:
            explicit.append(np.arange(start, end + 1.0))
        start = end + 1
    if not lo:  # every stretch is short
        m = np.concatenate(explicit)
        return m, np.ones(len(m))
    ends = np.concatenate(ends)
    end_w = np.resize(_GREGORY, len(ends))
    g_ends = g(ends)
    end_err = np.abs(g_ends.reshape(len(kernels), -1, 5) @ _D3).sum(axis=1) / 720.0
    end_sums = np.array([ge @ end_w for ge in g_ends])

    def panels(lo, hi):
        x, wk, wkg = gk15_rule(lo, hi)
        gx = g(x.ravel()).reshape(len(kernels), *x.shape)
        return x, wk, (gx * wk).sum(axis=2), np.abs((gx * wkg).sum(axis=2))

    lo, hi = np.array(lo), np.array(hi)
    x, wk, vals, errs = panels(lo, hi)
    while True:
        budget = 0.5 * rel_tol * np.abs(np.add(zeros, [math.fsum(v) for v in vals]) + end_sums)
        if (end_err > budget).any():
            return None
        if (errs.sum(axis=1) <= budget).all():
            m = np.concatenate(explicit + [ends, x.ravel()])
            return m, np.concatenate((np.ones(len(m) - len(ends) - x.size),
                                      end_w, wk.ravel()))
        if len(lo) >= _M_PANELS:
            return None
        keep, new_lo, new_hi = bisect_worst(lo, hi, errs, budget)
        lo, hi = np.concatenate((lo[keep], new_lo)), np.concatenate((hi[keep], new_hi))
        new = panels(new_lo, new_hi)
        x, wk = (np.concatenate((old[keep], n)) for old, n in zip((x, wk), new[:2]))
        vals, errs = (np.concatenate((old[:, keep], n), axis=1)
                      for old, n in zip((vals, errs), new[2:]))


def _rows(model, cfg, kernels, M, rel_tol, zeros):
    """Mode numbers m and weights of the rows that sum modes 1..M-1 for each
    kernel; the weights are None when every row is a mode of its own.

    That is so unless M > _RULE_RATIO K: then _tail_rule sums the modes
    m >= K, with K doubled from _K_MIN until the rule meets its budget.
    ConvergenceError if it has not by K = _ROW_CAP / (2 _RULE_RATIO).
    """
    K = _K_MIN
    while M > _RULE_RATIO * K:
        rule = _tail_rule(model, cfg, kernels, K, M, rel_tol, zeros)
        if rule is not None:
            return (np.concatenate((np.arange(1.0, K), rule[0])),
                    np.concatenate((np.ones(K - 1), rule[1])))
        if 2 * _RULE_RATIO * K > _ROW_CAP:
            raise ConvergenceError(f"the rule in m misses its error budget for "
                                   f"every K from {_K_MIN} to {K}")
        K *= 2
    return np.arange(1, M), None


def _sum_modes(cfg, model, quad, observables):
    """Primed Matsubara sums of a stack of observables at one (a, T): for
    each, its value, its M and a callable giving its terms.

    Every term has the sign of the m = 0 term, so stopping at the M whose
    tail bound is rel_tol of that term holds rel_tol on the whole sum; each
    observable has its own m = 0 term and M.  The modes 1..M-1 of the
    largest M are the weighted rows of _rows; they bind eps once for every
    observable, and an observable summed row by row takes its first M - 1.
    The callable gives term m, by default all M terms, on the sum's final
    t-rule.
    """
    kernels = [kernel for kernel, *_ in observables]

    def failed(modes, exc):  # estimate: an integral's, one per observable of a stack
        estimate = exc.estimate
        if estimate is not None and len(observables) == 1:
            estimate = float(estimate[0])
        return ConvergenceError(f"Matsubara {modes} at T = {cfg.T:g} K, a = {cfg.a:g} m "
                                f"(gamma = {cfg.gamma:.3g}): {exc}", estimate=estimate)
    try:
        zeros = [0.5 * v for v in _mode_integrals(
            model, cfg, 0.0, kernels, [zero for *_, zero in observables], quad.rel_tol)]
    except ConvergenceError as exc:
        raise failed("mode m = 0", exc) from None
    Ms = [_modes_needed(cfg.gamma, tail, quad.rel_tol * abs(zero))
          for (_, _, tail, _), zero in zip(observables, zeros)]
    M = max(Ms)
    try:
        m, weight = _rows(model, cfg, kernels, M, quad.rel_tol, zeros)
        rows, per_row = _integrate(model, cfg, cfg.matsubara(m), kernels,
                                   quad.rel_tol, weight, [n - 1 for n in Ms])
    except TableRangeError as exc:
        if exc.zeta is None:  # not a table lookup: nothing names the mode
            raise

        def out_of_range(n):
            try:
                model.matsubara_reflection(cfg.matsubara(n), cfg.T)
            except TableRangeError:
                return True
            return False
        n = _smallest(out_of_range, 0, 1)  # a table fails m = 1, or every m past one
        raise TableRangeError(f"Matsubara mode m = {n} at T = {cfg.T:g} K has "
                              f"zeta_m = {cfg.matsubara(n):.4g} rad/s: {exc}") from None
    except ConvergenceError as exc:
        raise failed(f"modes m = 1..{M - 1}", exc) from None

    def result(c, prefactor, zero, M):
        p = prefactor(cfg)

        def terms(n=None):
            if n is None:
                own = per_row(c, None if weight is None else cfg.matsubara(np.arange(1, M)))
                return p * np.concatenate(([zero], own[:M - 1]))
            return float(p * (zero if n == 0 else per_row(c, cfg.matsubara(np.array([n])))[0]))
        return float(p * (zero + rows[c])), M, terms
    return [result(c, obs[1], zero, n)
            for c, (obs, zero, n) in enumerate(zip(observables, zeros, Ms))]


def total_pressure(cfg: ThermalGapConfig, model: MaterialModel,
                   quad: QuadratureSettings = DEFAULT_QUAD) -> PressureResult:
    """Total Casimir pressure with per-mode contributions and fractions."""
    return PressureResult(*_sum_modes(cfg, model, quad, (_PRESSURE,))[0])


def free_energy(cfg: ThermalGapConfig, model: MaterialModel,
                quad: QuadratureSettings = DEFAULT_QUAD) -> float:
    """Free energy per unit area in J/m^2 (negative; P = -dF/da)."""
    return _sum_modes(cfg, model, quad, (_FREE_ENERGY,))[0][0]


# ---------------------------------------------------------------------------
# TE mode function at continuous frequency

def te_mode_function(zeta: float, a: float, model: MaterialModel,
                     T: float = 300.0,
                     quad: QuadratureSettings = DEFAULT_QUAD) -> float:
    """TE free-energy integrand f(zeta) = int y ln(1 - B e^{-2y}) dy.

    Evaluated at a continuous imaginary frequency (not only the Matsubara
    nodes), with the lower limit y = a zeta / c.  f(0) uses the analytic
    zero-frequency coefficient and the m = 0 rule of the sums (closed form
    plus remainder), so a lossy metal gives exactly 0 and an ideal
    reflector -zeta(3)/4.  T only enters through a possible temperature
    dependence of the relaxation frequency.
    """
    if np.ndim(zeta):
        raise DomainError(f"zeta must be a scalar, got an array of shape {np.shape(zeta)}")
    if not 0 <= zeta < math.inf:
        raise DomainError(f"zeta must be finite and >= 0, got {zeta}")
    return float(_mode_integrals(model, ThermalGapConfig(T=T, a=a), zeta,
                                 (_te_kernel,), ((0.0, -_ZETA3_4),), quad.rel_tol)[0])


# ---------------------------------------------------------------------------
# surface impedance formulation

def surface_impedance(zeta, q, eps):
    """Momentum-dependent surface impedance Z = -zeta/sqrt(zeta^2(eps-1)+q^2).

    q is the full imaginary-axis wave number times c (so q >= zeta, with
    q^2 = (c k_perp)^2 + zeta^2), in rad/s.  Arrays broadcast; scalars give a
    scalar.  Every element needs finite zeta > 0, q >= zeta and eps >= 1; a
    DomainError names the first that does not.
    """
    check_positive("zeta", zeta)
    zeta, q = np.asarray(zeta, dtype=float), np.asarray(q, dtype=float)
    ok = (q >= zeta) & (q < math.inf)  # NaN fails too
    if not ok.all():
        q, zeta = (np.broadcast_to(x, ok.shape)[~ok][0] for x in (q, zeta))
        raise DomainError(f"q must be >= zeta and finite (q^2 = c^2 k_perp^2 + "
                          f"zeta^2), got q = {q:g} with zeta = {zeta:g}")
    eps = check_eps(eps)
    return -zeta / np.sqrt(zeta * zeta * (eps - 1.0) + q * q)


def _rte(Z, p):
    """TE reflection coefficient -(1 + Z p)/(1 - Z p) of the surface impedance Z."""
    return -(1.0 + Z * p) / (1.0 - Z * p)


def rte_from_impedance(zeta, q, eps):
    """TE reflection coefficient -(1 + Z p)/(1 - Z p) with p = q/zeta.

    Takes the arguments and rules of surface_impedance, arrays included.
    Its square equals the TE coefficient B from the permittivity form;
    only the square enters the Lifshitz sum, so the overall sign is pure
    convention.
    """
    return _rte(surface_impedance(zeta, q, eps), np.divide(q, zeta))


def rte_zero_frequency_comparison(model, q_fixed: float, zeta_sequence, T: float = 300.0):
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
    the plasma model both agree and stay finite.  eps is taken at T (K).
    DomainError unless the sequence is finite, > 0 and strictly decreasing
    and q_fixed finite and >= its first zeta.
    """
    zs = np.asarray(zeta_sequence, dtype=float)
    if zs.ndim != 1 or len(zs) == 0 or not np.all(np.diff(zs) < 0):
        raise DomainError("zeta_sequence must be non-empty, 1-D and strictly decreasing")
    check_positive("zeta_sequence", zs)
    if not q_fixed >= zs[0]:
        raise DomainError(f"q must be >= zeta at every zeta of the sequence, "
                          f"got q_fixed = {q_fixed:g} with zeta = {zs[0]:g}")
    zeta = zs[-1]
    eps = model.eps(zeta, T)
    r_momentum = rte_from_impedance(zeta, q_fixed, eps)
    r_freq = _rte(-1.0 / np.sqrt(eps), q_fixed / zeta)
    return r_momentum * r_momentum, r_freq * r_freq
