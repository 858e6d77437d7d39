"""Adaptive Gauss-Kronrod quadrature with vectorized integrands.

The (G7, K15) embedded pair is applied to a worklist of panels; every
refinement round bisects the panels carrying the largest error estimates,
so the integrand is always evaluated on one flat array per round.  The
worklist starts from the panels between caller-given edges, placed where
the integrand varies fastest, so no rounds are spent bisecting towards
them.  Panel results are summed with math.fsum, which is correctly rounded
and independent of summation order, so the returned value does not depend
on the refinement history and is bit-reproducible.  The integrand of
adaptive_quad, the one adaptive entry point, returns a stack of C
functions on the same points (the Lifshitz pressure and free energy; C =
1 for a single integral); each component holds rel_tol on its own total,
and the panels are bisected where the largest error relative to its
component's budget sits.  A rel_tol below the rounding of a float total, 2^-53, ends after the
first round: refining could only chase estimates at the level of rounding.

The Lifshitz sums do not refine: each row is integrated on fixed nodes,
its values times the weights of gk15_rule's panels to t = 2 and a
20-point Gauss-Laguerre tail past it near t = 0, or of the 32-point
Gauss-Laguerre rule (laguerre_rule) far from it, and a sum is the
math.fsum of its rows' integrals.  A sum fails only where the error
estimates show the rules do not resolve the integrand at all;
adaptive_quad serves the rows outside a sum and the dispersion integrals.

Error estimation follows the QUADPACK recipe: the raw |K15 - G7|
difference is rescaled by the panel's total variation measure so that
near-singular panels are not trusted optimistically.  _gk15_panels gives
that estimate to every round of adaptive_quad and every panel of the
Lifshitz rule in m (a GK15 rule over the mode number).  The panels of a
near row of a Lifshitz sum take the raw difference alone, a linear read of
the row by gk15_rule's K15 - G7 weights, beside its tail's null rule.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError

# 15-point Kronrod abscissae (positive half, descending) and weights,
# with the embedded 7-point Gauss weights.  Standard published values.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# Full rules on [-1, 1], nodes ascending.
_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))
_WK = np.concatenate((_WGK[:-1], _WGK[::-1]))
_WG_FULL = np.concatenate((_WG[:-1], _WG[::-1]))  # weights for nodes 1,3,...,13
_WKG = _WK.copy()  # K15 - G7 on all 15 nodes: the Gauss nodes are the odd ones
_WKG[1::2] -= _WG_FULL

# Gauss-Laguerre rules for int_0^inf e^{-x} g(x) dx, 32 and 20 points: the
# nodes x_i, zeros of L_n, and the weights W_i times e^{x_i}, so that W_i
# e^{x_i} f(x_i) integrates f = e^{-x} g itself.  Computed in 60 digits from
# W_i = x_i / ((n + 1) L_{n+1}(x_i))^2; numpy.polynomial.laguerre.laggauss(n)
# agrees.
_XGL = np.array([
    0.04448936583326701841885, 0.2345261095196185374529, 0.5768846293018864264916,
    1.072448753817817633041, 1.722408776444645441131, 2.528336706425794881124,
    3.492213273021994489609, 4.616456769749767387762, 5.903958504174243946562,
    7.358126733186241113222, 8.982940924212596103378, 10.78301863253997206750,
    12.76369798674272511497, 14.93113975552255731980, 17.29245433671531478924,
    19.85586094033605473979, 22.63088901319677448868, 25.62863602245924776748,
    28.86210181632347474434, 32.34662915396473700323, 36.10049480575197380402,
    40.14571977153944153621, 44.50920799575493797591, 49.22439498730863917672,
    54.33372133339690733287, 59.89250916213401819613, 65.97537728793505279656,
    72.68762809066270863868, 80.18744697791352306749, 88.73534041789239868936,
    98.82954286828397255918, 111.7513980979376952137,
])
_WGL_EX = np.array([
    0.1141871057681048489276, 0.2660652168976152160466, 0.4187931373248529942499,
    0.5725328464998047064592, 0.7276487883809713106631, 0.8845367193402497174259,
    1.043618875892076967310, 1.205349274152352580243, 1.370221338521781185986,
    1.538777256468644752402, 1.711619352686457255983, 1.889424063449484098037,
    2.072959340246533669472, 2.263106633996963612897, 2.460889072488236128627,
    2.667508126397117147211, 2.884392092922041790626, 3.113261327039586176328,
    3.356217692595802558546, 3.615869856484268806978, 3.895513044948549563879,
    4.199394104711585494519, 4.533114978534361768387, 4.904270287611244843819,
    5.323500972023666112446, 5.806333214233621361000, 6.376614674159652543829,
    7.073526580707242120225, 7.967693509295900658537, 9.205040331278189578273,
    11.16301309076787308891, 15.39018041526064310516,
])
_XGL20 = np.array([
    0.07053988969198875336669, 0.3721268180016114437942, 0.9165821024832735646677,
    1.707306531028343880688, 2.749199255309432129645, 4.048925313850886922375,
    5.615174970861616514105, 7.459017453671063309769, 9.594392869581096772474,
    12.03880254696431630962, 14.81429344263073997851, 17.94889552051937601737,
    21.47878824028501097574, 25.45170279318690550352, 29.93255463170061200671,
    35.01343424047900000628, 40.83305705672857106203, 47.61999404734650213994,
    55.81079575006389889075, 66.52441652561575381864,
])
_WGL20_EX = np.array([
    0.1810800624189892554517, 0.4225567678785639745203, 0.6669095467018481503735,
    0.9153523727830736726706, 1.169539707195545973801, 1.431354985928205986368,
    1.702981137985022724025, 1.987015890792747214109, 2.286635781253430785462,
    2.605834727553833332695, 2.949783734213950866002, 3.325395782009319552370,
    3.742255470589810921117, 4.214236710251880419868, 4.762518461490209296953,
    5.421726044245574303803, 6.254012356932421292895, 7.387314389054434551940,
    9.151328730987479607943, 12.89338864593999667103,
])
_LAGUERRE = {32: (_XGL, _WGL_EX), 20: (_XGL20, _WGL20_EX)}

_MAX_ROUNDS = 48
_MAX_PANELS = 4096
_TINY = np.finfo(float).tiny  # error estimates below it count as converged
_ROUNDING = 2.0 ** -53  # rounding of a float total, relative: no rel_tol below it is certified


def neumaier_sum(values) -> float:
    """Correctly rounded sum of a 1-D sequence of floats (math.fsum)."""
    return math.fsum(values)


def gk15_rule(lo: np.ndarray, hi: np.ndarray):
    """Nodes, Kronrod weights and K15 - G7 weights of the panels [lo_i,
    hi_i], each an array with one row of 15 per panel.  _gk15_panels
    estimates the panels' values and errors from the values at those
    nodes; the values' sum on the last weights is a panel's K15 - G7, whose
    size is its raw error before _gk15_panels rescales it."""
    half = 0.5 * (hi - lo)[:, None]
    return 0.5 * (lo + hi)[:, None] + half * _NODES, half * _WK, half * _WKG


def laguerre_rule(rate: float, points: int):
    """Nodes and weights of the Gauss-Laguerre rule of 32 or 20 points for
    int_0^inf f dt, exact where f is e^{-rate t} times a polynomial of
    degree <= 2 points - 1, and its null rule, shape (points, 2): f @ null
    are the discrete Laguerre coefficients of f e^{rate t} at the two
    highest degrees, points - 2 and points - 1, over rate.  They decay where
    that factor is smooth, so their size estimates the rule's error."""
    x, w_ex = _LAGUERRE[points]
    L = [np.ones_like(x), 1.0 - x]  # L_k(x_i) by the three-term recurrence
    for k in range(1, points - 1):
        L.append(((2 * k + 1 - x) * L[k] - k * L[k - 1]) / (k + 1))
    w = w_ex / rate
    return x / rate, w, np.stack(L[-2:], axis=1) * w[:, None]


def bisect_worst(lo: np.ndarray, hi: np.ndarray, errs: np.ndarray, budget: np.ndarray):
    """Bisect the panels whose error is within a factor 4 of the worst.

    errs has shape (C, panels) for C integrals on the same panels.  A
    panel's error is the largest errs[c] / budget[c] (a budget below the
    smallest normal float counts as that float).  Returns the mask of the
    panels kept whole and the new panels' lo, hi.
    """
    errs = (errs / np.maximum(budget, _TINY)[:, None]).max(axis=0)
    split = errs >= 0.25 * float(errs.max())
    mids = 0.5 * (lo[split] + hi[split])
    return ~split, np.concatenate((lo[split], mids)), np.concatenate((mids, hi[split]))


def _gk15_panels(fx, lo: np.ndarray, hi: np.ndarray):
    """Evaluate the (G7, K15) pair on each panel [lo_i, hi_i] from the
    values fx of C integrands at the panels' Kronrod nodes (gk15_rule's,
    flattened), shape (C, n); ValueError for any other shape.

    Returns (kronrod values, scaled error estimates), each of shape
    (C, panels).  ConvergenceError if an error estimate is not finite, as
    it is on every panel where the integrand is NaN or infinite.
    """
    fx, n = np.asarray(fx, dtype=float), len(_NODES) * len(lo)
    if fx.ndim != 2 or fx.shape[1] != n:
        raise ValueError(f"integrand values must have shape (C, {n}), got {fx.shape}")
    fx = fx.reshape(len(fx), len(lo), len(_NODES))
    half = 0.5 * (hi - lo)

    sk = fx @ _WK                   # Kronrod sum on the unit interval
    sg = fx[..., 1::2] @ _WG_FULL   # embedded Gauss sum
    resk = sk * half
    err = np.abs(sk - sg) * half
    if not np.isfinite(err).all():
        raise ConvergenceError("quadrature met a non-finite estimate: the integrand is "
                               "NaN or infinite, or too large to sum")

    # QUADPACK rescaling: compare against the deviation-from-mean measure.
    mean = 0.5 * sk
    resasc = (np.abs(fx - mean[..., None]) @ _WK) * half
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    return resk, np.where((resasc > 0.0) & (err > 0.0), scaled, err)


def adaptive_quad(
    f: Callable,
    edges: Sequence[float],
    *,
    rel_tol: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate a vectorized stack f over [edges[0], edges[-1]].

    f(x) returns C functions on the points x, shape (C, len(x)).  The
    start panels are those between the increasing values of the 1-D edges
    (ValueError unless there are at least two).  Refinement stops once each
    component's summed panel error estimates drop below rel_tol times its
    |integral|, or below the smallest normal float, where that budget may
    have underflowed.  Each refinement round bisects the panels whose
    largest error over its component's budget is within a factor 4 of the
    current worst, so progress is guaranteed.  Returns (values, error
    estimates), arrays of C.  Raises ConvergenceError (carrying the best
    estimates) after 48 rounds or 4096 panels, and at once, without them,
    when a round's estimate is not finite.  No round can certify a rel_tol
    below 2^-53 = 1.1e-16, the rounding of a float total: unless the first round meets
    it, ConvergenceError follows that round and names the floor, where
    refining would chase estimates at the level of rounding through every
    round (QUADPACK reports such a tolerance at once: its round-off exit).
    Its first round on the panels of lifshitz._T_MESH shares its panels to
    t = 2 with the Lifshitz sums' fixed t-rule, which takes a Gauss-Laguerre
    tail past 2 in place of the later panels, so the two agree within the
    rule's certified error, not bit for bit.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2 or not (edges[1:] > edges[:-1]).all():
        raise ValueError(f"integration edges must be >= 2 increasing values, got {edges.tolist()}")
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _gk15_panels(f(gk15_rule(lo, hi)[0].ravel()), lo, hi)

    totals = [neumaier_sum(v) for v in vals.tolist()]
    for _ in range(_MAX_ROUNDS):
        err_totals = errs.sum(axis=1).tolist()
        if all(err <= rel_tol * abs(total) or err < _TINY
               for err, total in zip(err_totals, totals)):
            return np.array(totals), np.array(err_totals)
        if 2 * len(lo) > _MAX_PANELS or rel_tol < _ROUNDING:
            break
        keep, new_lo, new_hi = bisect_worst(lo, hi, errs, rel_tol * np.abs(totals))
        new_vals, new_errs = _gk15_panels(f(gk15_rule(new_lo, new_hi)[0].ravel()), new_lo, new_hi)
        lo, hi = np.concatenate((lo[keep], new_lo)), np.concatenate((hi[keep], new_hi))
        vals = np.concatenate((vals[:, keep], new_vals), axis=1)
        errs = np.concatenate((errs[:, keep], new_errs), axis=1)
        totals = [neumaier_sum(v) for v in vals.tolist()]

    floor = f": rel_tol is below {_ROUNDING:.2g}, the rounding of a float total"
    raise ConvergenceError(
        f"quadrature did not reach rel_tol={rel_tol:g} "
        f"on [{edges[0]:g}, {edges[-1]:g}] "
        f"(estimated error {max(err_totals):.3e} with {len(lo)} panels)"
        f"{floor * (rel_tol < _ROUNDING)}",
        estimate=np.array(totals),
    )
