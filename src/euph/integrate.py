"""The package's Gauss rules, and the adaptive rule the tests compare with.

``gauss_jacobi_u`` and ``LEGENDRE_64`` are exact Gauss rules for polynomial
integrands.  ``quad``, adaptive Gauss-Kronrod (G7/K15) vectorized over
panels (pair and error estimate after QUADPACK, Piessens et al., Springer
1983), has no caller in the package: the tests' reference overlap uses it,
and the benchmark's tracer wraps it as ``wavefunctions.integrate.quad``.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import legendre

from .errors import ConvergenceError

__all__ = ["quad", "gauss_jacobi_u", "LEGENDRE_64"]

# Global error goal, relative to the integral of |f| or to a caller's scale.
RTOL = 1e-12
# Panels allowed before quad gives up; each round adds at least three.
MAX_PANELS = 500

# K15 nodes: the G7 nodes (every other one) and the 8 Kronrod nodes of
# QUADPACK's qk15; the K15 weights solve the Legendre moment equations.
_XG, _WG = legendre.leggauss(7)
_XK = np.sort(np.concatenate([_XG, np.outer([-1.0, 1.0], [
    0.991455371120812639206854697526329, 0.864864423359769072789712788640926,
    0.586087235467691130294144845693013, 0.207784955007898467600689403773245,
]).ravel()]))
_WK = np.linalg.solve(legendre.legvander(_XK, 14).T, 2.0 * np.eye(15)[0])


def quad(f, points, scale=0.0):
    """Integral of f over [points[0], points[-1]], with breakpoints in between.

    Each round cuts the chosen panels in four and evaluates the new ones in
    one call of f; the first round takes the gaps between ``points``.  While
    the summed error estimate |K15 - G7| exceeds RTOL * max(scale, int |f|),
    the next round takes the fewest largest-error panels whose removal leaves
    the rest within a tenth of that goal.  Returns (value, error estimate);
    raises ConvergenceError on a non-finite integrand or once more than
    MAX_PANELS panels would be needed, and never warns.
    """
    lo, hi = np.asarray(points[:-1], dtype=float), np.asarray(points[1:], dtype=float)
    panels = np.empty((5, 0))  # rows: lo, hi, K15, |K15 - G7|, K15 of |f|
    while True:
        cuts = lo + (hi - lo) * np.linspace(0.0, 1.0, 5)[:, None]
        lo, hi = cuts[:-1].ravel(), cuts[1:].ravel()
        half = 0.5 * (hi - lo)
        y = np.asarray(f(((lo + half)[:, None] + half[:, None] * _XK).ravel()), dtype=float)
        if not np.all(np.isfinite(y)):
            raise ConvergenceError("integrand is not finite on the quadrature panels")
        y = y.reshape(len(lo), 15)
        k = half * (y @ _WK)
        err = np.abs(k - half * (y[:, 1::2] @ _WG))
        mag = np.abs(half) * (np.abs(y) @ _WK)
        panels = np.concatenate([panels, [lo, hi, k, err, mag]], axis=1)
        goal, total = RTOL * max(scale, panels[4].sum()), panels[3].sum()
        if total <= goal:
            return float(panels[2].sum()), float(total)
        order = np.argsort(panels[3])[::-1]
        split = order[: int(np.argmax(total - np.cumsum(panels[3, order]) <= 0.1 * goal)) + 1]
        if panels.shape[1] + 3 * len(split) > MAX_PANELS:
            raise ConvergenceError(
                f"quadrature needs more than {MAX_PANELS} panels "
                f"(error {total:.3g}, goal {goal:.3g})"
            )
        keep = np.ones(panels.shape[1], dtype=bool)
        keep[split] = False
        lo, hi, panels = panels[0, split], panels[1, split], panels[:, keep]


def gauss_jacobi_u(m: int, alpha: float, beta: float):
    """m-point Gauss rule for the weight u^beta (1-u)^alpha on [0, 1].

    Golub-Welsch on the Jacobi recurrence shifted to u; every recurrence
    entry is a sum of positive terms, so nodes near u = 0 keep their
    relative accuracy.  Returns (nodes, weights) with weights summing to 1.
    Raises ConvergenceError once a recurrence term would overflow, from
    alpha of about 1e77 (dS states below lam_au of about 1e-155), where the
    off-diagonal would read 0 and the rule collapse to one node.
    """
    s = alpha + beta
    # every recurrence term grows with k and is bounded by the last
    # denominator: of the off-diagonal, or of the diagonal when m = 1
    last = 2.0 * m - 2.0 + s
    largest = last * last * (last + 1.0) * (last - 1.0) if m > 1 else last * (last + 2.0)
    if not math.isfinite(largest):
        raise ConvergenceError(f"Gauss-Jacobi recurrence overflows at alpha = {alpha:.3g}")
    k = np.arange(m, dtype=float)
    t = 2.0 * k + s
    num, den = 2.0 * k * (k + s + 1.0) + s * (beta + 1.0), t * (t + 2.0)
    if s == 0.0:  # the k = 0 entry (beta + 1)/(s + 2) reads 0/0 here
        num[0], den[0] = beta + 1.0, 2.0
    diag = num / den
    j, t = k[1:], t[1:]
    off = np.sqrt(j * (j + alpha) * (j + beta) * (j + s) / (t * t * (t + 1.0) * (t - 1.0)))
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return nodes, vecs[0] ** 2


LEGENDRE_64 = legendre.leggauss(64)
