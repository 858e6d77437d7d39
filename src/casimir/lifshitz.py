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
mode lives on the same t-interval, so a sum is one integral over the
summed integrand of modes 1..M-1, with M set by an ideal-reflector bound
on the dropped tail, and of the m = 0 term.  M grows like 1/(aT), so
where M > 512 the modes m >= K, K = 64 or more, enter as the weighted rows
of a rule in m (Euler-Maclaurin in Gregory's form, see _tail_rule), whose
cost grows like log M; K and the rule come from its error estimate, held
to rel_tol of the whole sum.  The m = 0 term is (A0 + B0) zeta(3)/4 in
closed form, with the sign of the kernel and A0, B0 the coefficients that
are exactly 1 at y = 0, plus the integral of the kernel at (A, B) minus
the kernel at (A0, B0): 0 for a lossy metal and the ideal reflector, and
for plasma one more row, smooth at y = 0 where the free energy's kernel
alone goes like y ln y.

Every t-integral of a sum is on fixed rules, with no refinement rounds.
A row is near where y_lo = a zeta / c < _FAR = 2 and far past it.  A near
row takes the fixed t-rule, 110 nodes (_T_NODES): the six GK15 panels of
_T_MESH on [0, 2], graded toward t = 0, and on [2, inf), where every
kernel is e^{-2t} times a smooth factor, the 20-point Gauss-Laguerre rule
for that weight.  A far row of an explicit sum, whose kernels are e^{-2t}
times a factor that varies on the scale of y_lo, takes the 32-point
Gauss-Laguerre rule (_L_NODES) on [0, inf): in the paper's sweeps nearly
nine rows in ten.  tests/test_properties.py certifies the rules against the
same rows integrated to 1e-14: on the package's models with omega_p a / c
>= 2.5e-4 (omega_p >= 0.05 eV at a >= 1 nm) they leave at most _EPS_T =
2e-14 of a whole sum, and a sum at a rel_tol below that raises
ConvergenceError, which names the floor (QUADPACK's round-off exit).  An
explicit sum also fails where the rules' error estimate exceeds _T_CEILING
= 1e-6 of it: the sum of its rows' estimates, each from the row's own
nodes, a near row's six GK15 panel estimates plus its tail's null rule and
a far row's null rule (a Laguerre rule's null rule is its two highest
discrete Laguerre coefficients).  The certified models read at most about
1e-8 (the far rows' null rule, 1.4e-8 for 0.05 eV Drude; the near rows
1.6e-9), rows that the rules do not resolve read near 1.  A row's integral on a
fixed rule is read alone, by einsum (_integrals), so it depends on that
row and on nothing else in its block, where a matrix product (BLAS) rounds
a row by its place: an explicit sum's component is the math.fsum of its
rows' integrals, near and far, and its error estimate the sum of its
rows' (_estimated); the rule in m, the m = 0 remainders and per_mode take
the integrals of rows on the 110-node rule, whatever their y_lo, with no
estimate of their own (_first_mesh, _zero_mode).  Rows outside a sum
(_mode_integrals) are one adaptive_quad call from the ten panels of
_T_MESH, on [0, 30], to any rel_tol.

One sum covers a stack of observables at a sequence of (a, T), a whole
sweep: P and F share every row's A and B, and the rows of one temperature
share blocks across gaps, each binding eps once.  Each (a, T) and
observable keeps its own m = 0 term, M and prefactor, sums its own first
M - 1 rows (or a rule in m, placed once per (a, T) to its larger M), and
holds rel_tol on its own total; _grid_sums is the one layout of a sweep.
A sweep is planned once (_plan): the model's m = 0 rule takes its configs
as columns (_Configs), so the closed m = 0 terms are one call and every
m = 0 remainder is evaluated in one pass (_zero_mode); the search for M
and the rows (_rows: an explicit sum, or a rule in m whose rows,
mode numbers m not all integers, are placed on their own, _first_mesh)
stay per (a, T).  A stack is a list of _Sum records; _bind groups them,
the rows at zeta > 0 by temperature and the m = 0 rows of every (a, T)
together, and _layout cuts rows into blocks (_Block).  Each class of rows
carries its runs, the rows that add to one component, counted across the
class's blocks and never cut at one.  In a stack of explicit sums the far
rows of a group are laid out in the same pass in blocks of their own, a
second class, so each class is evaluated on its own nodes.  An explicit
sum holds no frequencies: _bind forms those of every explicit sum of a
group in one call, and the group's y_lo one array per class, so a
sweep's explicit sums cost no array operation per (a, T).  _contract, the
one read-out, evaluates a class block by block and keeps what a read takes
of each block's rows: their integrals, or their values at the nodes (an
explicit stack's, _READ blocks at a time); the leaf (_kernels_at, then
_reflection_sq) works at the block's full shape, never broadcasting a
column against it.  A failure names the first (a, T) or frequency that
fails alone, as a loop over the (a, T) would.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from .constants import C, HBAR, K_B
from .dispersion import MaterialModel, _reflection_sq
from .errors import (CasimirError, ConvergenceError, DomainError, TableRangeError,
                     UnsupportedModelError, check_eps, check_index, check_positive)
from .quadrature import (_TINY, _gk15_panels, adaptive_quad, bisect_worst, gk15_rule,
                         laguerre_rule)

__all__ = [
    "ThermalGapConfig", "QuadratureSettings", "ReflectionPair",
    "PressureResult", "DEFAULT_QUAD",
    "lifshitz_variables", "reflection_pair", "zero_frequency_reflection",
    "mode_pressure", "mode_free_energy", "total_pressure", "free_energy",
    "te_mode_function", "surface_impedance", "rte_from_impedance",
    "rte_zero_frequency_comparison",
]

# Panel edges of the t-rules, graded toward t = 0 where the kernels vary
# fastest (at low aT, the first rows; the plasma m = 0 term is integrated as
# a remainder that is smooth there, see _zero_mode).  The edge at 1/2048
# resolves rows that vary over y ~ omega_p a / c, down to 2.5e-3 (0.5 eV
# plasma at 1 nm).  The last edge is the width of the rows outside a sum
# (adaptive_quad): e^{-2 y} past 30 is below 1e-26.
_T_MESH = np.array([0.0, 1 / 2048, 1 / 256, 1 / 32, 3 / 16, 0.75, 2.0, 4.5, 9.0, 15.0, 30.0])
_T_TAIL = 2.0  # where the fixed t-rule's panels end and its Gauss-Laguerre tail starts
_T_PANELS = _T_MESH[_T_MESH <= _T_TAIL]


def _fixed_rule(edges, points):
    """Nodes and weights of a fixed t-rule: the GK15 panels between edges,
    then the points-point Gauss-Laguerre rule for the weight e^{-2t} on
    [edges[-1], inf), and that rule's null rule (laguerre_rule)."""
    x, w = (r.ravel() for r in gk15_rule(edges[:-1], edges[1:]))
    t, v, null = laguerre_rule(2.0, points)
    return np.concatenate((x, edges[-1] + t)), np.concatenate((w, v)), null


# The sums' t-rule: the six panels of _T_PANELS, 90 nodes, and 20 Laguerre
# nodes on [2, inf), where every kernel is e^{-2t} times a smooth factor.
_T_NODES, _T_WEIGHTS, _T_NULL = _fixed_rule(_T_PANELS, 20)
_EPS_T = 2e-14  # the rule's certified error on a whole sum (tests/test_properties.py)
_T_CEILING = 1e-6  # error estimate, relative, past which an explicit sum's rule fails
# A row of an explicit sum is far where y_lo >= _FAR: its kernels are e^{-2t}
# times a factor smooth on the scale of y_lo, which the 32 nodes of the
# Gauss-Laguerre rule for that weight integrate from t = 0, with no panel
# (_L_NODES, _L_WEIGHTS; rows @ _L_NULL are its null rule's sums, which
# estimate its error).
_FAR = 2.0
_L_NODES, _L_WEIGHTS, _L_NULL = _fixed_rule(_T_MESH[:1], 32)
_ROW_BLOCK = 64  # rows evaluated together: 64 x 110 floats, below the 128 KiB mmap threshold
_FAR_BLOCK = 256  # far rows evaluated together: 256 x 32 floats
# Blocks of a class of an explicit stack held at their nodes and read
# together (_estimated): about 1 MB per kernel, whatever the sweep's size.
_READ = 16
_ROW_CAP = 250_000  # most rows a sum or a per_mode table evaluates one by one
# The rule in m (_tail_rule) runs only where M > _RULE_RATIO _K_MIN, from
# K = _K_MIN explicit rows; a K that misses its budget doubles while
# M > _RULE_RATIO K / 2, where the rule still evaluates fewer rows than an
# explicit sum.  Both chosen by counting rows, placement and failed tries
# included, over the benchmark's cryogenic sums and gold at 10 nm-1 um.
# It sums smooth stretches of at least _SEGMENT_MIN rows and bisects its
# panels up to _M_PANELS of them.
_K_MIN = 64
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
        # gamma keeps 1/gamma and the tail bound's c^2, c >= 2 gamma, finite, and
        # a keeps a^3 normal and, with gamma, the prefactor k_B T / a^3 finite
        if not (1e-300 <= self.gamma <= 1e150 and 1e-30 <= self.a <= 1e30):
            raise DomainError(f"a*T = a k_B T/(hbar c) = {self.aT:.3g} (gamma = {self.gamma:.3g}) "
                              f"at a = {self.a:g} m: a sum needs gamma in [1e-300, 1e150] "
                              f"and a in [1e-30, 1e30] m, where its floats stay finite")

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
    """Relative tolerance of the y-integrals and the Matsubara truncation.

    rel_tol is in (0, 1e-4].  A sum integrates in t on fixed rules, 110
    nodes per row (GK15 panels to t = 2, a Gauss-Laguerre tail past it), or
    32 per far row of an explicit sum (y_lo = a zeta / c >= 2), certified
    to leave at most eps_t = 2e-14 of the whole sum for the package's
    models with omega_p a / c >= 2.5e-4, omega_p >= 0.05 eV at a >= 1 nm
    (1.07e-14 at worst, for 0.05 eV plasma near 5 nm and 350 K), so below
    eps_t it raises ConvergenceError, which names that floor, after
    planning at eps_t: the first part of the sum (its m = 0 remainder,
    else its rows) is named, with its fixed-rule value as the estimate.
    Rows outside a sum (mode_pressure, mode_free_energy,
    te_mode_function) refine adaptively to any rel_tol above 2^-53 =
    1.1e-16, the rounding of a float total, and below it fail after their
    first round, naming that floor.
    """

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
    Every row of the table is on the 110-node t-rule, far rows too, so its
    sum may differ from an explicit sum's total, whose far rows are on the
    Laguerre rule, by up to 2 eps_t of it (module docstring).
    Past m_used = 250,000 the table is not built: per_mode, and so pickling
    and copying, raise CasimirError.  fraction(m) reads the table of a sum
    of at most _RULE_RATIO * _K_MIN = 512 modes, which is always summed row
    by row, and of a copy; otherwise it evaluates the one mode it is asked
    for.  Each row's integral is read alone, so that mode's share is the
    table's to the bit.
    """

    total: float
    m_used: int
    _contributions: object = field(repr=False, compare=False)  # m -> term m; () -> all

    @cached_property  # evaluated on the 110-node t-rule, far rows too, when first read
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
    return (float(p), float(s)) if s.ndim == 0 else tuple(np.broadcast_arrays(p, s))


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

# The kernels take the arrays Au = A u and Bu = B u, u = e^{-2y}, which a
# block forms once for all its kernels (_kernels_at), at y, and u, which
# only the m = 0 remainders read (_remainders).  No kernel writes its
# inputs, which the block's other kernels share; the kernels of every sum,
# pressure and free energy, work in place on temporaries of their own and
# round as the expression beside them does, operation for operation.

def _pressure_kernel(Au, Bu, y, u):  # y^2 (Au / (1 - Au) + Bu / (1 - Bu))
    tm, te = 1.0 - Au, 1.0 - Bu
    np.divide(Au, tm, out=tm)
    np.divide(Bu, te, out=te)
    tm += te
    tm *= y * y
    return tm


def _free_energy_kernel(Au, Bu, y, u):  # y (log1p(-Au) + log1p(-Bu))
    tm, te = -Au, -Bu
    np.log1p(tm, out=tm)
    np.log1p(te, out=te)
    tm += te
    tm *= y
    return tm


def _te_kernel(Au, Bu, y, u):
    return y * np.log1p(-Bu)


# zeta(3)/4 = int_0^inf y^2 e^{-2y}/(1 - e^{-2y}) dy = -int_0^inf y ln(1 - e^{-2y}) dy
_ZETA3_4 = 0.3005142257898985713


# An observable: its kernel, its prefactor, the coefficients of c^2, c, 1 in
# p(c) and q(c) of its ideal-reflector tail bound (see _tail_bound), and its
# m = 0 integral per unit TM and per unit TE coefficient.
_PRESSURE = (_pressure_kernel, lambda cfg: -K_B * cfg.T / (np.pi * cfg.a ** 3),
             ((0.5, 0.5, 0.25), (0.25, 0.5, 0.375)), (_ZETA3_4, _ZETA3_4))
_FREE_ENERGY = (_free_energy_kernel, lambda cfg: K_B * cfg.T / (2.0 * np.pi * cfg.a ** 2),
                ((0.0, 0.5, 0.25), (0.0, 0.25, 0.25)), (-_ZETA3_4, -_ZETA3_4))


# One sum of a stack: kernel c of kernels sums the first counts[c] rows at
# the frequencies zeta of cfg.  A config's explicit sum (_rows) has zeta
# None: kernel c sums the modes 1..M_c-1, and its max(counts) rows are the
# modes 1..M-1, whose frequencies _bind forms for every explicit sum of a
# temperature at once.  Its m = 0 remainder (_zero_mode) is the row at
# zeta = [0], and the rows of _mode_integrals are at any frequency.
_Sum = namedtuple("_Sum", "cfg zeta kernels counts")

# At most _ROW_BLOCK rows of a class of a stack's layout (_bind): their
# kernels, y_lo = a zeta / c as a column, and the rule (y, y_lo) -> (A, B)
# that their kernels share (_kernels_at).
_Block = namedtuple("_Block", "kernels y_lo rule")


class _Configs(namedtuple("_Configs", "T a")):
    """Configurations as columns, T and a of shape (n, 1), with the derived
    quantities of ThermalGapConfig: a model's m = 0 rule takes them as its
    cfg, at y of shape (n, k), one row per configuration."""

    aT, gamma, matsubara = ThermalGapConfig.aT, ThermalGapConfig.gamma, ThermalGapConfig.matsubara

    @classmethod
    def of(cls, configs):
        return cls(*(np.array([[getattr(cfg, x)] for cfg in configs]) for x in cls._fields))


def _block(model, at, kernels, zeta, y_lo):
    """The _Block of rows at the frequencies zeta, a column, with the
    model's m = 0 rule at the configs at (_Configs, one per row), in y, or
    its m >= 1 rule at zeta and the temperature at, bound once (eps depends
    on zeta, T), in p = y / y_lo: the block's rule takes y and y_lo at the
    block's full shape (_kernels_at)."""
    if zeta[0, 0] == 0.0:
        zero_rule = _zero_rule(model, at)
        return _Block(kernels, y_lo, lambda y, y_lo: zero_rule(y))
    rule = model.matsubara_reflection(zeta, at)
    return _Block(kernels, y_lo, lambda y, y_lo: rule(y / y_lo))


def _layout(model, at, kernels, zeta, y_lo, size=_ROW_BLOCK):
    """The blocks of the rows at the frequencies zeta and y_lo, each a
    column, cut every size rows.  at is the temperature of rows at zeta >
    0, or the config of each row at zeta = 0."""
    return [_block(model, at if zeta[0, 0] else _Configs.of(at[lo:lo + size]),
                   kernels, zeta[lo:lo + size], y_lo[lo:lo + size])
            for lo in range(0, len(zeta), size)]


def _bind(model, indexed, far=False):
    """The layout of the sums of a stack given as (i, sum) pairs, i the
    sum's index in the stack: a list of classes of rows, each (blocks,
    runs), the near rows, then, where far, the far rows.  A run (c, j, a,
    b) adds the rows a..b-1 of its class, counted across the class's
    blocks, under kernel c to component j; it is never cut at a block.
    The sums with the same kernels lay out their rows in order (_layout),
    those at zeta > 0 by temperature, which share eps across gaps, and the
    rows at zeta = 0 of every config together, which take the model's m =
    0 rule at their configs.  Rows r < counts[c] of sum i add under kernel
    c to the component i kernels + c.  Where far, the far rows of each
    explicit sum form the second class: its modes from the first at zeta
    >= _FAR c / a, y_lo >= _FAR, which are its last as y_lo rises with m.
    They are laid out in the same pass, by temperature, in blocks of
    _FAR_BLOCK rows, each binding eps once.

    A group's arrays are formed once, not per sum: the frequencies of its
    explicit sums (zeta None) are one matsubara call on the modes 1..n of
    its longest, of which each takes its first rows, and y_lo = a zeta / c
    is one product with each sum's a repeated per row.  Each value rounds
    as a sum's own arrays did, so the layout keeps its bits."""
    groups, classes, ends = {}, [([], []) for _ in range(1 + far)], [0, 0]  # ends: rows per class
    for i, one in indexed:  # the temperature of rows at zeta > 0; 0 at zeta = 0
        groups.setdefault((0.0 if one.zeta is not None and one.zeta[0] == 0.0 else one.cfg.T,
                           tuple(one.kernels)), []).append((i, one))
    for (T, kernels), members in groups.items():
        sizes = [max(one.counts) if one.zeta is None else len(one.zeta) for _, one in members]
        top = max((n for (_, one), n in zip(members, sizes) if one.zeta is None), default=0)
        modes = members[0][1].cfg.matsubara(np.arange(1, top + 1)) if top else None
        near = sizes  # each sum's rows before its far ones
        if far and T and top:  # an explicit sum's modes at zeta >= _FAR c / a
            bounds = _FAR * C / np.array([one.cfg.a for _, one in members])
            near = [k if k < n and one.zeta is None else n for k, n, (_, one) in zip(
                modes.searchsorted(bounds).tolist(), sizes, members)]
        for k, ((blocks, runs), lo, hi, size) in enumerate(zip(
                classes, ([0] * len(sizes), near), (near, sizes), (_ROW_BLOCK, _FAR_BLOCK))):
            rows = [h - l for l, h in zip(lo, hi)]
            if not any(rows):
                continue
            runs += [(c, i * len(kernels) + c, a, a + e - l) for (i, one), a, l, h in zip(
                members, accumulate(rows, initial=ends[k]), lo, hi)
                for c, n in enumerate(one.counts) if (e := n if n < h else h) > l]
            zeta = np.concatenate([modes[l:h] if one.zeta is None else one.zeta[l:h]
                                   for (_, one), l, h in zip(members, lo, hi)])
            y_lo = (np.repeat([one.cfg.a for _, one in members], rows) * zeta)[:, None] / C
            blocks += _layout(model, T or [one.cfg for _, one in members], kernels,
                              zeta[:, None], y_lo, size)  # an m = 0 sum is one row
            ends[k] += len(zeta)
    return classes


def _kernels_at(rule, y_lo, t, kernels):
    """Each kernel(A u, B u, y, u) on one block, the rows y = y_lo + t,
    y_lo a column and t the nodes, with (A, B) = rule(y, y_lo) and u =
    e^{-2y}.  y_lo is copied once to the block's full shape, so that
    neither y nor the m >= 1 rule's p = y / y_lo broadcasts a column
    against a block; u, A u and B u are formed once for all the block's
    kernels, u in place on -2 y.

    A function of its own, so that only the kernels' rows outlive a block.
    """
    lo = np.empty((len(y_lo), len(t)))  # y_lo at the block's full shape
    lo[...] = y_lo
    y = lo + t
    A, B = rule(y, lo)
    u = -2.0 * y
    np.exp(u, out=u)
    Au, Bu = A * u, B * u
    return [kernel(Au, Bu, y, u) for kernel in kernels]


def _contract(blocks, t, read=np.asarray):
    """read(rows) of each block of blocks (a class of _bind) at t, the
    nodes of the class's rule (_T_NODES or an adaptive round's for near
    rows, _L_NODES for far rows), rows the block's kernels' rows, one array
    per kernel: read gives an array (kernels, rows, ...), by default the
    rows' values at the nodes, and the blocks' are joined along the rows,
    shape (kernels, rows of the class, ...).  Only what read keeps outlives
    a block.  Overflow and invalid values raise no warning here: the caller
    names a row or a sum that is not finite (_first_mesh, _gk15_panels,
    _integrate)."""
    with np.errstate(over="ignore", invalid="ignore"):
        reads = [read(_kernels_at(block.rule, block.y_lo, t, block.kernels)) for block in blocks]
    return reads[0] if len(reads) == 1 else np.concatenate(reads, axis=1)


def _integrals(w):
    """The read (_contract) of each row's integral on the weights w.
    einsum sums each row on its own, so that a row's integral depends on
    that row alone; a matrix product (BLAS) rounds a row by where it sits
    in its block."""
    return lambda rows: np.einsum("kij,j->ki", rows, w)


def _estimated(rows, w, null):
    """The integral of each of rows, shape (kernels, rows, nodes), on a
    fixed t-rule of weights w, whose last len(null) nodes are a Laguerre
    rule with that null rule (laguerre_rule), and its error estimate: |the
    null rule's sums| plus, on a near row, the GK15 estimates of its six
    panels on _T_PANELS, its first nodes.  Shape (2 kernels, rows): the
    integrals, then the estimates."""
    head, flat = len(w) - len(null), rows.reshape(-1, len(w))  # one row per (kernel, row)
    err = np.abs(flat[:, head:] @ null).sum(axis=1)
    if head:
        err += _gk15_panels(flat[:, :head], _T_PANELS[:-1], _T_PANELS[1:])[1].sum(axis=1)
    return np.concatenate((_integrals(w)(rows), err.reshape(rows.shape[:2])))


_NEAR, _FAR_ROWS = (_T_NODES, _T_WEIGHTS, _T_NULL), (_L_NODES, _L_WEIGHTS, _L_NULL)


def _integrate(model, sums, rel_tol=None):
    """Row sums of int kernel(A, B, y) dt over t >= 0, y = a zeta / c + t,
    for each _Sum of sums, all with as many kernels: shape (sums, kernels).
    Rows share t and a block's kernels share their (A, B) (see _bind).
    Without rel_tol each row is integrated on its own fixed rule (_NEAR,
    _FAR_ROWS): its near rows (y_lo < _FAR) on _T_NODES, its far rows on
    the 32-point Laguerre rule, each row's integral read alone (einsum), so
    it depends on that row only, with its error estimate (_estimated), from
    _READ blocks of a class at a time, so that a stack holds no more of its
    rows at their nodes, and each (sum, kernel) component is the math.fsum
    of its rows' integrals, whatever the rest of the stack;
    ConvergenceError where a value is not finite or where the sum of its
    rows' error estimates exceeds _T_CEILING of the component's |value|,
    as no certified sum's does, carrying every value as the estimate.  With
    rel_tol (rows outside a sum), one adaptive_quad call from the panels of
    _T_MESH holds it on each component, on [0, 30]: a component's values at
    a round's nodes are its rows' there, added node by node.
    """
    width = len(sums) * len(sums[0].kernels)
    if rel_tol is not None:
        (blocks, runs), = _bind(model, enumerate(sums))

        def at_nodes(t):  # each component's rows added node by node; a lone row is itself
            rows, out = _contract(blocks, t), np.zeros((width, len(t)))
            for c, j, a, b in runs:
                out[j] = rows[c, a] if b - a == 1 else rows[c, a:b].sum(axis=0)
            return out
        values = adaptive_quad(at_nodes, _T_MESH, rel_tol=rel_tol)[0]
        return np.reshape(values, (len(sums), -1))
    parts, err = [[] for _ in range(width)], [0.0] * width
    for (blocks, runs), (t, w, null) in zip(_bind(model, enumerate(sums), far=True),
                                            (_NEAR, _FAR_ROWS)):
        if blocks:
            with np.errstate(over="ignore", invalid="ignore"):  # _READ blocks at a time
                read = np.concatenate([_estimated(_contract(blocks[i:i + _READ], t), w, null)
                                       for i in range(0, len(blocks), _READ)], axis=1).tolist()
            integrals, errs = read[:len(read) // 2], read[len(read) // 2:]
            for c, j, a, b in runs:
                parts[j] += integrals[c][a:b]
                err[j] += sum(errs[c][a:b])
    if not all(map(math.isfinite, err)):
        raise ConvergenceError("the fixed t-rule met a value that is not finite: the "
                               "integrand is NaN or infinite, or too large to sum")
    values = [math.fsum(v) for v in parts]
    for e, value in zip(err, values):
        if e > _T_CEILING * abs(value) and e >= _TINY:
            raise ConvergenceError(f"the fixed t-rule's error estimate {e:.3e} exceeds "
                                   f"{_T_CEILING:g} of the sum, {value:.6g}: its panels do "
                                   f"not resolve the rows", estimate=np.array(values))
    return np.reshape(values, (len(sums), -1))


def _first_mesh(model, cfg, m, kernels):
    """The integrals on the fixed t-rule (_T_NODES, _T_WEIGHTS), shape
    (kernels, rows), of the rows of cfg at the mode numbers m >= 1, an
    array (not all integers in a rule in m), laid out in blocks as a
    stack's rows are (_layout), every row on those 110 nodes, far rows too,
    and each read alone (_integrals), so a row's integral is the same in
    any call; ConvergenceError names the frequency of the first row whose
    integral is not finite."""
    zeta = cfg.matsubara(m)
    rows = _contract(_layout(model, cfg.T, kernels, zeta[:, None], (cfg.a * zeta)[:, None] / C),
                     _T_NODES, _integrals(_T_WEIGHTS))
    if not np.isfinite(rows).all():
        bad = zeta[~np.isfinite(rows).all(axis=0)][0]
        raise ConvergenceError(f"the row at zeta = {bad:g} rad/s is not finite")
    return rows


def _first_alone(model, parts, rel_tol, error, after=False):
    """error, raised by one stack of the sums of parts, (key, sum) pairs, or
    by a step after them, as a loop over the parts raises it: they are
    integrated one at a time (_integrate, at rel_tol), and the first to
    fail alone gives its error and key (else error and None; a stack of one
    part fails as that part)."""
    for key, one in parts:
        if len(parts) == 1 and not after:
            return error, key
        try:
            _integrate(model, [one], rel_tol)
        except CasimirError as lone:
            return lone, key
    return error, None


def _zero_mode(model, configs, kernels, units):
    """The m = 0 row of kernels at each config of configs: per config the
    integral of each kernel and the remainder as a sum of _integrate (None
    where it is 0).

    The model's rule takes every config at once (_Configs), at y = 0, where
    A0 and B0 are 1 where it gives exactly 1, else 0; kernel c's integral
    is A0 unit_A + B0 unit_B, with units[c] = (unit_A, unit_B) its
    integrals at unit coefficients, plus the remainder int kernel(A, B) -
    kernel(A0, B0) dy (_remainders).  For plasma, 1 - B ~ 4 y / Omega
    (Omega = omega_p a / c): its log ratio tends to ln(1 + 2/Omega), smooth
    where the free energy's kernel goes like y ln y.  The closed form enters
    as a density, constant on t < 2 and 0 past it (_remainders), which the
    fixed t-rule and every adaptive round integrate exactly, as 2 is an
    edge of their panels, so rel_tol holds on the whole term; rounding
    bounds it where the term is far below its closed part (TE at Omega <<
    1: 3e-11 at 1 nm for 0.5 eV).
    Every remainder is evaluated on _T_NODES at once, and the integral given
    with it is its row's on _T_WEIGHTS, read alone (_integrals): a sum's m
    = 0 term, the same bits whatever the other configs.
    A coefficient that is not finite raises no warning here: its remainder
    fails on its row (_plan, _first_alone).
    """
    zero = np.zeros((len(configs), 1))
    with np.errstate(over="ignore", invalid="ignore"):
        A, B = _zero_rule(model, _Configs.of(configs))(zero)
    if np.ndim(A) == np.ndim(B) == 0 and A in (0.0, 1.0) and B in (0.0, 1.0):  # all closed
        return [([unit_A * (A == 1.0) + unit_B * (B == 1.0) for unit_A, unit_B in units],
                 None)] * len(configs)
    exact = np.hstack(np.broadcast_arrays(A, B, zero)[:2]) == 1.0  # (A0, B0) per config
    pairs = [tuple(pair) for pair in (1.0 * exact).tolist()]
    shared = {pair: _remainders(kernels, units, *pair) for pair in set(pairs)}
    sums = [_Sum(cfg, np.zeros(1), shared[pair], [1] * len(units))
            for cfg, pair in zip(configs, pairs)]
    (blocks, runs), = _bind(model, enumerate(sums))
    rows, width = _contract(blocks, _T_NODES, _integrals(_T_WEIGHTS)).tolist(), len(units)
    values = {j: rows[c][a] for c, j, a, _ in runs}  # each component is one row
    return [([values[i * width + c] for c in range(width)], one) for i, one in enumerate(sums)]


def _remainders(kernels, units, A0, B0):
    """The m = 0 remainders of the kernels, whose integrals at unit
    coefficients are units: the kernel at (A u, B u) minus the kernel at
    (A0 u, B0 u), plus the closed form as a density on the t-interval
    (_zero_mode), half of it on t < _T_TAIL and none past it.  The configs
    of a sweep with the same (A0, B0) share one tuple, so their rows share
    blocks (_bind)."""
    return tuple(lambda Au, Bu, y, u, k=k, density=(unit_A * A0 + unit_B * B0) / _T_TAIL:
                 k(Au, Bu, y, u) - k(A0 * u, B0 * u, y, u) + np.where(y < _T_TAIL, density, 0.0)
                 for k, (unit_A, unit_B) in zip(kernels, units))


def _mode_integrals(model, cfg, zetas, kernels, units, rel_tol):
    """int kernel dy, without weight or prefactor, of the row at each
    frequency of zetas (finite, >= 0) for each kernel: a list per frequency,
    with units each kernel's m = 0 integrals at unit TM and TE coefficients
    (_zero_mode).  The one path for rows outside a sum: the rows at zeta > 0
    and m = 0 remainders (_zero_mode) are one adaptive t-integral, which
    refines past the fixed rule to rel_tol (_integrate).  A failure
    carries the first frequency that fails alone (_first_alone; else None)
    in attribute zeta."""
    rows = [(None, _Sum(cfg, np.array([z]), kernels, [1] * len(kernels))) if z > 0.0
            else _zero_mode(model, [cfg], kernels, units)[0] for z in zetas]
    parts = [(z, one) for z, (_, one) in zip(zetas, rows) if one is not None]
    try:
        values = iter(_integrate(model, [one for _, one in parts], rel_tol).tolist()
                      if parts else ())
    except CasimirError as exc:
        error, zeta = _first_alone(model, parts, rel_tol, exc)
        error.zeta = zeta
        raise error from None
    return [closed if one is None else next(values) for closed, one in rows]


def _mode_value(m, cfg, model, quad, observable):
    """prefactor * weight * mode integral; m = 0 carries the half weight."""
    kernel, prefactor, _, zero = observable
    check_index(m, 0)
    weight = 0.5 if m == 0 else 1.0
    return prefactor(cfg) * weight * float(_mode_integrals(
        model, cfg, [cfg.matsubara(m)], (kernel,), (zero,), quad.rel_tol)[0][0])


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
    2 e^{-2c} (p + q/gamma) is the exponential of its logarithm, so that it
    underflows only where the bound does (e^{-2c} alone is subnormal past
    2 c = 708, then 0); past the largest float the bound is inf.
    """
    ((p2, p1, p0), (q2, q1, q0)), c = coeffs, M * gamma
    p, q = (p2 * c + p1) * c + p0, (q2 * c + q1) * c + q0
    return math.exp(math.log(2.0 * (p + q / gamma)) - 2.0 * c) / -math.expm1(-2.0 * c)


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

    With c = M gamma and p, q of _tail_bound, whose coefficients are >= 0,
    p(c) >= p(0), q(c) >= q(0) and 1/(1 - e^{-2c}) >= 1, so the bound is
    at least 2 e^{-2c} (p(0) + q(0)/gamma): above target wherever c <
    c_lo = (ln(2 (p(0) + q(0)/gamma)) - ln target)/2, a difference of logs
    that stays finite at gamma = 1e-300 and subnormal targets.  Every n <=
    lo = ceil(c_lo/gamma) - 1 misses target, so _smallest brackets M from
    (lo, 2 lo), in about log2(M) bounds; from (1, 2) when target is 0.
    """
    lo = 1
    if target > 0.0:
        (_, _, p0), (_, _, q0) = coeffs
        c_lo = 0.5 * (math.log(2.0 * (p0 + q0 / gamma)) - math.log(target))
        lo = max(1, math.ceil(c_lo / gamma) - 1)
    return _smallest(lambda n: _tail_bound(n, gamma, coeffs) <= target, lo, 2 * lo)


def _tail_rule(model, cfg, observables, kernels, K, M, rel_tol, head):
    """Rows (mode numbers m, not all integers) and weights whose weighted
    sum is sum_{m=K}^{M-1} g(m) for each of the kernels, one per observable,
    g(m) the row integral at m zeta_1 on the fixed t-rule, and that sum's
    value per kernel; None when the rule misses its error budget.

    The model's kinks, frequencies where eps bends, cut [K, M-1] where g is
    not smooth.  A smooth stretch [a, b] of at least _SEGMENT_MIN rows is
    summed by Gregory's rule: int_a^b g dm plus, at a and mirrored at b,
    the end terms of _GREGORY.  A shorter stretch keeps its rows, weighted
    1.  Those rows and the end rows are the rule's fixed rows, evaluated in
    one pass before any panel (even for a K that then misses its budget)
    and counted in the rule's sum.  The integral takes GK15 panels graded
    geometrically from a, none wider than 4/gamma, over which g falls by at
    most e^8.  The rule's error estimate per kernel is the last end terms
    (_D3) plus the panels' GK15 estimates (_gk15_panels), each held to half
    of rel_tol |head[c] + the rule's sum|, head[c] the m = 0 term and rows
    1..K-1 of kernel c, all of one sign.  The end terms are checked first,
    against that budget with the rule's sum at its ideal-reflector bound
    (_tail_bound), so a K whose ends miss even that costs no panels.  The
    panels with the largest estimate relative to that budget are bisected
    (bisect_worst), up to _M_PANELS of them.  The estimate cannot see a
    bend of eps that the model does not name among its kinks.
    """
    kinks = np.asarray(getattr(model, "kinks", ()), dtype=float) / cfg.matsubara(1)
    explicit, ends, lo, hi, widest = [np.zeros(0)], [], [], [], 4.0 / cfg.gamma
    start = K
    for end in [c // 1 for c in kinks if K < c < M - 1] + [float(M - 1)]:
        if end - start >= _SEGMENT_MIN:
            ends += [start + np.arange(5.0), end - np.arange(5.0)]
            edges = [start]
            while edges[-1] < end:
                edges.append(min(2.0 * edges[-1], edges[-1] + widest, end))
            lo += edges[:-1]
            hi += edges[1:]
        else:
            explicit.append(np.arange(start, end + 1.0))
        start = end + 1
    explicit = np.concatenate(explicit)
    fixed = np.concatenate(ends + [explicit])
    fixed_w = np.concatenate([_GREGORY] * len(ends) + [np.ones(len(explicit))])
    g_fixed = _first_mesh(model, cfg, fixed, kernels)
    fixed_sums = np.array([g @ fixed_w for g in g_fixed])
    if not lo:  # every stretch is short
        return fixed, fixed_w, fixed_sums
    end_err = np.abs(g_fixed[:, :5 * len(ends)].reshape(len(kernels), -1, 5) @ _D3).sum(1) / 720
    if (end_err > 0.5 * rel_tol * (np.abs(head) + [
            _tail_bound(K, cfg.gamma, tail) for _, _, tail, _ in observables])).any():
        return None

    def panels(lo, hi):  # values, errors
        return _gk15_panels(_first_mesh(model, cfg, gk15_rule(lo, hi)[0].ravel(), kernels), lo, hi)

    lo, hi = np.array(lo), np.array(hi)
    vals, errs = panels(lo, hi)
    while True:
        rule = fixed_sums + [math.fsum(v) for v in vals]
        budget = 0.5 * rel_tol * np.abs(np.add(head, rule))
        if (end_err > budget).any():
            return None
        if (errs.sum(axis=1) <= budget).all():
            x, wk = (r.ravel() for r in gk15_rule(lo, hi))
            return np.concatenate((fixed, x)), np.concatenate((fixed_w, wk)), rule
        if len(lo) >= _M_PANELS:
            return None
        keep, new_lo, new_hi = bisect_worst(lo, hi, errs, budget)
        lo, hi = np.concatenate((lo[keep], new_lo)), np.concatenate((hi[keep], new_hi))
        vals, errs = (np.concatenate((old[:, keep], new), axis=1)
                      for old, new in zip((vals, errs), panels(new_lo, new_hi)))


def _rows(model, cfg, observables, kernels, Ms, rel_tol, zeros):
    """cfg's sum of the modes 1..M_c-1 of observable c, for its M_c in Ms,
    under the kernels, one per observable: (an explicit _Sum, None), or
    (None, its value per kernel) where a rule in m places it.  Where M =
    max(Ms) <= _RULE_RATIO _K_MIN the sum is explicit: kernel c sums the
    first M_c - 1 rows, the modes 1..M-1, not evaluated here (the stack's
    _integrate gives the value).

    Otherwise _tail_rule sums the modes m >= K, with K doubled from _K_MIN
    until the rule meets its budget, while M > _RULE_RATIO K / 2 (so a
    first K that misses can double once), and every kernel sums the modes
    1..K-1 and the rule's rows, weighted.  That budget counts the m = 0
    terms zeros and the explicit rows 1..K-1, which a larger K extends;
    every row placed is evaluated once, on the fixed t-rule, and the sum's
    value is the math.fsum of the rows 1..K-1 plus the rule's.
    ConvergenceError if the rule has not met its budget by K = _ROW_CAP /
    (2 _RULE_RATIO).
    """
    K, M, g_head = _K_MIN, max(Ms), []  # the rows 1..K-1, as each K added them
    while M > _RULE_RATIO * max(_K_MIN, K // 2):
        g_head.append(_first_mesh(model, cfg, np.arange(K // 2 if g_head else 1, K, 1.0), kernels))
        head = np.array([math.fsum(g) for g in np.hstack(g_head)])
        rule = _tail_rule(model, cfg, observables, kernels, K, M, rel_tol, np.add(zeros, head))
        if rule is not None:
            return None, head + rule[2]
        if 2 * _RULE_RATIO * K > _ROW_CAP:
            raise ConvergenceError(f"the rule in m misses its error budget for "
                                   f"every K from {_K_MIN} to {K}")
        K *= 2
    return _Sum(cfg, None, kernels, [n - 1 for n in Ms]), None


def _named(exc, model, cfg, modes):
    """exc, raised while summing the Matsubara modes of cfg that the text
    modes names, with that context in its message and cfg in its attribute
    config.  A lookup past a table names the first mode past it instead,
    with zeta_m to the fewest digits (at least 4) that still lie past the
    table; other errors keep their message.  A ConvergenceError's estimate,
    None or one entry per kernel of the sum, is a float for one kernel."""
    if isinstance(exc, TableRangeError) and exc.zeta is not None:
        def outside(zeta):
            try:
                model.matsubara_reflection(zeta, cfg.T)
            except TableRangeError:
                return True
            return False
        n = _smallest(lambda n: outside(cfg.matsubara(n)), 0, 1)  # m = 1, or all past n
        shown = next(text for text in (f"{cfg.matsubara(n):.{d}g}" for d in range(4, 18))
                     if outside(float(text)))
        exc = TableRangeError(f"Matsubara mode m = {n} at T = {cfg.T:g} K has "
                              f"zeta_m = {shown} rad/s: {exc}")
    elif isinstance(exc, ConvergenceError):
        estimate = exc.estimate
        if estimate is not None and len(estimate) == 1:
            estimate = float(estimate[0])
        exc = ConvergenceError(f"Matsubara {modes} at T = {cfg.T:g} K, a = {cfg.a:g} m "
                               f"(gamma = {cfg.gamma:.3g}): {exc}", estimate=estimate)
    exc.config = cfg
    return exc


def _plan(configs, model, rel_tol, observables, parts):
    """The plan of one stack's sum of observables at every (a, T) of
    configs, a whole sweep: per config its m = 0 terms, halved, the M of
    each observable, and the index in parts of its rows.  It appends each
    config's parts to parts, in order, as (key, sum, value), the key (cfg,
    its modes): its m = 0 remainder, if any, then its rows (_rows), each
    with its value per kernel on the fixed t-rule (a rule in m, whose sum
    is None), or None where the stack's _integrate gives it (an explicit
    sum).

    The m = 0 terms of every config come from one call of the model's rule,
    and every remainder from one evaluation on _T_NODES (_zero_mode), whose
    value M and the rule in m take.  M (_modes_needed, a few scalar bounds,
    which a NumPy search would cost more than on a one-config sum) and the
    rows are planned config by config.  A config whose remainder is not
    finite or whose rows fail raises its named error before any of its
    parts enter parts, which then hold those of the configs before it:
    _first_alone tries them alone, as a loop that plans each config before
    it integrates anything would.
    """
    kernels, plans = tuple(kernel for kernel, *_ in observables), []
    for cfg, (closed, remainder) in zip(configs, _zero_mode(
            model, configs, kernels, [zero for *_, zero in observables])):
        zeros, modes = [0.5 * v for v in closed], "mode m = 0"
        try:
            if not all(map(math.isfinite, zeros)):  # named as _first_mesh names a row
                raise ConvergenceError("the row at zeta = 0 rad/s is not finite")
            Ms = [_modes_needed(cfg.gamma, tail, rel_tol * abs(zero))
                  for (_, _, tail, _), zero in zip(observables, zeros)]
            modes = f"modes m = 1..{max(Ms) - 1}"
            rows, value = _rows(model, cfg, observables, kernels, Ms, rel_tol, zeros)
        except (ConvergenceError, TableRangeError) as exc:
            raise _named(exc, model, cfg, modes) from None
        parts += [((cfg, "mode m = 0"), remainder, closed)] * (remainder is not None)
        parts.append(((cfg, modes), rows, value))
        plans.append((zeros, Ms, len(parts) - 1))
    return plans


def _sum_modes(configs, model, quad, observables):
    """Primed Matsubara sums of a stack of observables at each (a, T) of
    configs: per config, for each observable its value, its M and a
    callable giving its terms.

    Every term has the sign of the m = 0 term, so stopping at the M whose
    tail bound is rel_tol of that term holds rel_tol on the whole sum; each
    observable has its own m = 0 term and M.  The modes 1..M-1 of a
    config's largest M are summed by _rows; _plan plans the whole sweep.
    Every sum is on the fixed t-rule, certified to leave at most _EPS_T of
    it on the models that the module docstring names: the explicit sums of
    every config are one stack (_integrate), in which each (config,
    observable) adds its own rows, and a rule in m and an m = 0 remainder
    give their values from placement.  The callable gives term m, by
    default all M terms, on the same rule.  A failure is that of the first
    explicit sum that fails alone
    (_first_alone), or, where a config's plan fails first, the plan's named
    error; _named gives it that part's config in its attribute config (None
    when no part fails alone).  Below _EPS_T the sum is planned at _EPS_T
    and its first part, a config's m = 0 remainder before its rows, raises
    ConvergenceError with its value as the estimate.
    """
    parts, plans = [], None
    try:
        plans = _plan(configs, model, max(quad.rel_tol, _EPS_T), observables, parts)
        explicit = [one for _, one, value in parts if value is None]
        values = iter(_integrate(model, explicit).tolist() if explicit else ())
    except CasimirError as exc:  # a failed plan has named its own error
        error, key = _first_alone(model, [(key, one) for key, one, value in parts if value is None],
                                  None, exc, plans is None)
        raise (_named(error, model, *key) if key else error) from None
    values = [next(values) if value is None else value for _, _, value in parts]
    if quad.rel_tol < _EPS_T:
        (cfg, modes), _, _ = parts[0]
        raise _named(ConvergenceError(
            f"rel_tol={quad.rel_tol:g} is below eps_t = {_EPS_T:g}, the error that the "
            f"sums' fixed t-rule is certified to leave", estimate=np.array(values[0], dtype=float)),
            model, cfg, modes) from None

    def result(cfg, observable, zero, M, value):
        p = observable[1](cfg)

        def terms(n=None):
            if n == 0:
                return float(p * zero)
            rows = _first_mesh(model, cfg, np.arange(1, M) if n is None else np.array([n]),
                               observable[:1])[0]
            return p * np.concatenate(([zero], rows)) if n is None else float(p * rows[0])
        return float(p * (zero + value)), M, terms

    return [[result(cfg, *args) for args in zip(observables, zeros, Ms, values[i])]
            for cfg, (zeros, Ms, i) in zip(configs, plans)]


def _grid_sums(gaps, temps, model, quad, observables):
    """_sum_modes over every (a, T) with a in gaps and T in temps, each
    checked before any sum, as one stack: per gap, per temperature, for
    each observable its (value, M, terms).  The one layout of a sweep."""
    sums = _sum_modes([ThermalGapConfig(T=T, a=a) for a in gaps for T in temps],
                      model, quad, observables)
    return [sums[i:i + len(temps)] for i in range(0, len(sums), len(temps))]


def total_pressure(cfg: ThermalGapConfig, model: MaterialModel,
                   quad: QuadratureSettings = DEFAULT_QUAD) -> PressureResult:
    """Total Casimir pressure with per-mode contributions and fractions."""
    return PressureResult(*_sum_modes([cfg], model, quad, (_PRESSURE,))[0][0])


def free_energy(cfg: ThermalGapConfig, model: MaterialModel,
                quad: QuadratureSettings = DEFAULT_QUAD) -> float:
    """Free energy per unit area in J/m^2 (negative; P = -dF/da)."""
    return _sum_modes([cfg], model, quad, (_FREE_ENERGY,))[0][0][0]


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
    return _te_mode_functions([zeta], a, model, T, quad)[0]


def _te_mode_functions(zetas, a, model, T, quad):
    """te_mode_function at each frequency of zetas (see _mode_integrals)."""
    return [f for f, in _mode_integrals(model, ThermalGapConfig(T=T, a=a), zetas,
                                        (_te_kernel,), ((0.0, -_ZETA3_4),), quad.rel_tol)]


# ---------------------------------------------------------------------------
# surface impedance formulation

def surface_impedance(zeta, q, eps):
    """Momentum-dependent surface impedance Z = -zeta/sqrt(zeta^2(eps-1)+q^2).

    q is the full imaginary-axis wave number times c (so q >= zeta, with
    q^2 = (c k_perp)^2 + zeta^2), in rad/s.  Arrays broadcast; scalars give a
    scalar.  Every element needs finite zeta > 0, q >= zeta and eps >= 1; a
    DomainError names the first that does not.  The root is taken as a
    hypot, so Z is the same at every scale of zeta and q, with no overflow
    or underflow in their squares.
    """
    check_positive("zeta", zeta)
    zeta, q = np.asarray(zeta, dtype=float), np.asarray(q, dtype=float)
    ok = (q >= zeta) & (q < math.inf)  # NaN fails too
    if not ok.all():
        q, zeta = (np.broadcast_to(x, ok.shape)[~ok][0] for x in (q, zeta))
        raise DomainError(f"q must be >= zeta and finite (q^2 = c^2 k_perp^2 + "
                          f"zeta^2), got q = {q:g} with zeta = {zeta:g}")
    eps = check_eps(eps)
    return -zeta / np.hypot(zeta * np.sqrt(eps - 1.0), q)


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
