"""Adaptive Gauss-Kronrod quadrature with vectorized integrands.

The (G7, K15) embedded pair is applied to a worklist of panels; every
refinement round bisects the panels carrying the largest error estimates,
so the integrand is always evaluated on one flat array per round.  The
worklist starts from 8 equal panels, or from caller-given breakpoints
(QUADPACK's ``points``) placed where the integrand varies fastest, so no
rounds are spent bisecting towards them.  Panel results are summed with
math.fsum, which is correctly rounded and independent of summation order,
so the returned value does not depend on the refinement history and is
bit-reproducible.  adaptive_quad, the one entry point, also returns the
Kronrod nodes and weights of its final panels, so a caller can integrate
related functions (the Lifshitz per-mode rows) on the converged rule.

Error estimation follows the QUADPACK recipe: the raw |K15 - G7|
difference is rescaled by the panel's total variation measure so that
near-singular panels are not trusted optimistically.
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
_WKG = _WK.copy()  # Kronrod minus Gauss weights: the G7 error of the K15 rule
_WKG[1::2] -= _WG_FULL

_INITIAL_PANELS = 8
_MAX_ROUNDS = 48
_MAX_PANELS = 4096
_TINY = np.finfo(float).tiny  # error estimates below it count as converged


def neumaier_sum(values) -> float:
    """Correctly rounded sum of a 1-D sequence of floats (math.fsum)."""
    return math.fsum(values)


def gk15_rule(lo: np.ndarray, hi: np.ndarray):
    """Nodes, Kronrod weights and Kronrod-minus-Gauss weights of the panels
    [lo_i, hi_i], one row of 15 per panel."""
    half = 0.5 * (hi - lo)[:, None]
    return 0.5 * (lo + hi)[:, None] + half * _NODES, half * _WK, half * _WKG


def bisect_worst(lo: np.ndarray, hi: np.ndarray, errs: np.ndarray):
    """Bisect the panels whose error is within a factor 4 of the worst.

    Returns the mask of the panels kept whole and the new panels' lo, hi.
    """
    split = errs >= 0.25 * float(errs.max())
    mids = 0.5 * (lo[split] + hi[split])
    return ~split, np.concatenate((lo[split], mids)), np.concatenate((mids, hi[split]))


def _gk15_panels(f: Callable, lo: np.ndarray, hi: np.ndarray):
    """Evaluate the (G7, K15) pair on each panel [lo_i, hi_i].

    Returns (kronrod values, scaled error estimates), one entry per panel.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _NODES
    fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)

    sk = fx @ _WK                 # Kronrod sum on the unit interval
    sg = fx[:, 1::2] @ _WG_FULL   # embedded Gauss sum
    resk = sk * half
    err = np.abs(sk - sg) * half

    # QUADPACK rescaling: compare against the deviation-from-mean measure.
    mean = 0.5 * sk
    resasc = (np.abs(fx - mean[:, None]) @ _WK) * half
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = (resasc > 0.0) & (err > 0.0)
        err[scale] = resasc[scale] * np.minimum(
            1.0, (200.0 * err[scale] / resasc[scale]) ** 1.5)
    return resk, err


def adaptive_quad(
    f: Callable,
    a: float,
    b: float,
    *,
    rel_tol: float = 1e-10,
    points: Sequence[float] | None = None,
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Integrate a vectorized callable f over [a, b].

    Starts from 8 equal panels, or from the panels between a, the
    increasing interior breakpoints ``points`` and b, and stops once the
    summed panel error estimates drop below rel_tol * |integral|, or below
    the smallest normal float, where rel_tol * |integral| may have
    underflowed.  Each refinement round bisects the panels whose error is
    within a factor 4 of the current worst, so progress is guaranteed.
    Returns (value, error estimate, x, w), where x and w are the Kronrod
    nodes and weights of the final panels: w @ g(x) applies the converged
    rule to another integrand g.  Raises ConvergenceError (carrying the
    best estimate) after 48 rounds or 4096 panels.
    """
    edges = (np.linspace(a, b, _INITIAL_PANELS + 1) if points is None
             else np.concatenate(([a], points, [b])))
    if not np.all(edges[1:] > edges[:-1]):
        raise ValueError(f"integration edges must increase, got {edges.tolist()}")
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _gk15_panels(f, lo, hi)

    total = neumaier_sum(vals.tolist())
    for _ in range(_MAX_ROUNDS):
        err_total = float(errs.sum())
        if err_total <= rel_tol * abs(total) or err_total < _TINY:
            half = 0.5 * (hi - lo)[:, None]
            x = 0.5 * (lo + hi)[:, None] + half * _NODES
            return total, err_total, x.ravel(), (half * _WK).ravel()
        if 2 * len(lo) > _MAX_PANELS:
            break
        keep, new_lo, new_hi = bisect_worst(lo, hi, errs)
        new_vals, new_errs = _gk15_panels(f, new_lo, new_hi)
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        vals = np.concatenate((vals[keep], new_vals))
        errs = np.concatenate((errs[keep], new_errs))
        total = neumaier_sum(vals.tolist())

    raise ConvergenceError(
        f"quadrature did not reach rel_tol={rel_tol:g} "
        f"on [{edges[0]:g}, {edges[-1]:g}] "
        f"(estimated error {float(errs.sum()):.3e} with {len(lo)} panels)",
        estimate=total,
    )
