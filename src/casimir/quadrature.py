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
related functions (the Lifshitz per-mode rows) on the converged rule.  An
integrand may return a stack of C functions on the same points (the
Lifshitz pressure and free energy); each component then holds rel_tol on
its own total, and the panels are bisected where the largest error
relative to its component's budget sits.

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


def bisect_worst(lo: np.ndarray, hi: np.ndarray, errs: np.ndarray, budget: np.ndarray):
    """Bisect the panels whose error is within a factor 4 of the worst.

    errs has shape (C, panels) for C integrals on the same panels.  A
    panel's error is the largest errs[c] / budget[c] (a budget below the
    smallest normal float counts as that float); with C = 1 it is errs[0].
    Returns the mask of the panels kept whole and the new panels' lo, hi.
    """
    errs = errs[0] if len(errs) == 1 else (errs / np.maximum(budget, _TINY)[:, None]).max(axis=0)
    split = errs >= 0.25 * float(errs.max())
    mids = 0.5 * (lo[split] + hi[split])
    return ~split, np.concatenate((lo[split], mids)), np.concatenate((mids, hi[split]))


def _gk15_panels(f: Callable, lo: np.ndarray, hi: np.ndarray):
    """Evaluate the (G7, K15) pair on each panel [lo_i, hi_i].

    Returns (kronrod values, scaled error estimates), one entry per panel,
    with a leading axis of C components when f returns shape (C, points).
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _NODES
    fx = np.asarray(f(x.ravel()), dtype=float)
    fx = fx.reshape(fx.shape[:-1] + x.shape)
    if fx.ndim > 2:  # (1, panels) times (1, panels) takes NumPy's fast loop
        half = half[None]

    sk = fx @ _WK                   # Kronrod sum on the unit interval
    sg = fx[..., 1::2] @ _WG_FULL   # embedded Gauss sum
    resk = sk * half
    err = np.abs(sk - sg) * half

    # QUADPACK rescaling: compare against the deviation-from-mean measure.
    mean = 0.5 * sk
    resasc = (np.abs(fx - mean[..., None]) @ _WK) * half
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    return resk, np.where((resasc > 0.0) & (err > 0.0), scaled, err)


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

    When f returns a stack of shape (C, len(x)), value and error estimate
    are arrays of C, every component meets rel_tol of its own value, and a
    round bisects by each panel's largest error over its component's
    budget rel_tol * |value|.
    """
    edges = (np.linspace(a, b, _INITIAL_PANELS + 1) if points is None
             else np.concatenate(([a], points, [b])))
    if not (edges[1:] > edges[:-1]).all():
        raise ValueError(f"integration edges must increase, got {edges.tolist()}")
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _gk15_panels(f, lo, hi)
    stacked = vals.ndim > 1
    if not stacked:  # a stack of one, as the loop takes it
        vals, errs = vals[None], errs[None]

    totals = [neumaier_sum(v) for v in vals.tolist()]
    for _ in range(_MAX_ROUNDS):
        err_totals = errs.sum(axis=1).tolist()
        if all(err <= rel_tol * abs(total) or err < _TINY
               for err, total in zip(err_totals, totals)):
            half = 0.5 * (hi - lo)[:, None]
            x = 0.5 * (lo + hi)[:, None] + half * _NODES
            if stacked:
                return np.array(totals), np.array(err_totals), x.ravel(), (half * _WK).ravel()
            return totals[0], err_totals[0], x.ravel(), (half * _WK).ravel()
        if 2 * len(lo) > _MAX_PANELS:
            break
        keep, new_lo, new_hi = bisect_worst(lo, hi, errs, rel_tol * np.abs(totals))
        new_vals, new_errs = _gk15_panels(f, new_lo, new_hi)
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        vals = np.concatenate((vals[:, keep], new_vals.reshape(len(vals), -1)), axis=1)
        errs = np.concatenate((errs[:, keep], new_errs.reshape(len(errs), -1)), axis=1)
        totals = [neumaier_sum(v) for v in vals.tolist()]

    raise ConvergenceError(
        f"quadrature did not reach rel_tol={rel_tol:g} "
        f"on [{edges[0]:g}, {edges[-1]:g}] "
        f"(estimated error {max(err_totals):.3e} with {len(lo)} panels)",
        estimate=np.array(totals) if stacked else totals[0],
    )
