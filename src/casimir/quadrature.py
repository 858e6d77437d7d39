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

The Lifshitz sums do not refine: they take the value of a first round,
_gk15_panels' Kronrod values on a fixed set of panels, summed with
math.fsum, and fail only where its error estimate shows the panels do not
resolve the integrand at all; adaptive_quad serves the rows outside a sum
and the dispersion integrals.

Error estimation follows the QUADPACK recipe: the raw |K15 - G7|
difference is rescaled by the panel's total variation measure so that
near-singular panels are not trusted optimistically.  _gk15_panels is the
one estimate: every round of adaptive_quad and every panel of the Lifshitz
rule in m (a GK15 rule over the mode number) takes it.
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

_MAX_ROUNDS = 48
_MAX_PANELS = 4096
_TINY = np.finfo(float).tiny  # error estimates below it count as converged
_ROUNDING = 2.0 ** -53  # rounding of a float total, relative: no rel_tol below it is certified


def neumaier_sum(values) -> float:
    """Correctly rounded sum of a 1-D sequence of floats (math.fsum)."""
    return math.fsum(values)


def gk15_rule(lo: np.ndarray, hi: np.ndarray):
    """Nodes and Kronrod weights of the panels [lo_i, hi_i], each an array
    with one row of 15 per panel; _gk15_panels estimates the panels' values
    and errors from the values at those nodes."""
    half = 0.5 * (hi - lo)[:, None]
    return 0.5 * (lo + hi)[:, None] + half * _NODES, half * _WK


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
    The values of the first round alone are, bit for bit, those of the
    Lifshitz sums' fixed t-rule (lifshitz._integrate without rel_tol).
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
