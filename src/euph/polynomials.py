"""Jacobi and Romanovski polynomial families with arbitrary real parameters.

Both families are generated from their Pearson weights through the same
exact Rodrigues recurrence as the reduction engine, so non-classical
(negative) parameters are handled uniformly.  Weighted inner products back
the orthogonality tests; Romanovski families are only finitely orthogonal
and divergent integrals are refused with a warning.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.polynomial.polynomial as npoly
from scipy import integrate

from .errors import NonIntegrableWarning, ValidationError
from .nu_engine import MAX_RODRIGUES_DEGREE, rodrigues_polynomial

__all__ = [
    "Jacobi",
    "Romanovski",
    "eval_poly",
    "poly_coefficients",
    "weight_value",
    "weighted_inner_product",
]


@dataclass(frozen=True)
class Jacobi:
    """Weight (1-s)^a (1+s)^b; classical orthogonality needs a, b > -1."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValidationError("Jacobi parameters must be finite")

    def sigma_tau(self):
        sigma = (1.0, 0.0, -1.0)
        tau = (self.b - self.a, -(self.a + self.b + 2.0))
        return sigma, tau


@dataclass(frozen=True)
class Romanovski:
    """Weight (1+s^2)^alpha * exp(beta * arctan s), finitely orthogonal."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValidationError("Romanovski parameters must be finite")

    def sigma_tau(self):
        sigma = (1.0, 0.0, 1.0)
        tau = (self.beta, 2.0 * (self.alpha + 1.0))
        return sigma, tau


@lru_cache(maxsize=4096)
def _coefficients_cached(kind, p1, p2, n):
    if kind == "jacobi":
        sigma, tau = Jacobi(p1, p2).sigma_tau()
        # conventional normalization 1/((-2)^n n!) recovers textbook values
        scale = (-2.0) ** n * math.factorial(n)
        return tuple(c / scale for c in rodrigues_polynomial(sigma, tau, n))
    sigma, tau = Romanovski(p1, p2).sigma_tau()
    return rodrigues_polynomial(sigma, tau, n)


def poly_coefficients(family, n: int) -> np.ndarray:
    """Ascending coefficients of the degree-n member."""
    if n > MAX_RODRIGUES_DEGREE:
        raise ValidationError(f"degree {n} exceeds the overflow guard")
    if isinstance(family, Jacobi):
        return np.asarray(_coefficients_cached("jacobi", family.a, family.b, n))
    if isinstance(family, Romanovski):
        return np.asarray(_coefficients_cached("romanovski", family.alpha, family.beta, n))
    raise ValidationError(f"unknown polynomial family {family!r}")


def eval_poly(family, n: int, s):
    """Value of the degree-n family member at s (scalar or array)."""
    return npoly.polyval(np.asarray(s, dtype=float), poly_coefficients(family, n))


def weight_value(family, s):
    s = np.asarray(s, dtype=float)
    if isinstance(family, Jacobi):
        return np.abs(1.0 - s) ** family.a * np.abs(1.0 + s) ** family.b
    if isinstance(family, Romanovski):
        return (1.0 + s * s) ** family.alpha * np.exp(family.beta * np.arctan(s))
    raise ValidationError(f"unknown polynomial family {family!r}")


def _divergent(family, n, m, interval):
    """Endpoint bookkeeping: True when y_n y_m rho is not integrable."""
    lo, hi = interval
    if isinstance(family, Romanovski):
        if np.isinf(lo) or np.isinf(hi):
            # integrand ~ s^(n+m+2alpha) at infinity
            if n + m + 2.0 * family.alpha >= -1.0:
                return True
        return False
    checks = []
    if math.isclose(lo, -1.0, abs_tol=1e-12):
        checks.append(family.b)
    if math.isclose(hi, 1.0, abs_tol=1e-12):
        checks.append(family.a)
    return any(expo <= -1.0 for expo in checks)


def weighted_inner_product(family, n: int, m: int, interval=None, tol=1e-10) -> float:
    """Adaptive quadrature of y_n y_m rho over the interval.

    Defaults: (-1, 1) for Jacobi, the whole line for Romanovski.  Divergent
    combinations are not integrated; they emit NonIntegrableWarning and
    return nan.
    """
    if interval is None:
        interval = (-1.0, 1.0) if isinstance(family, Jacobi) else (-np.inf, np.inf)
    if _divergent(family, n, m, interval):
        warnings.warn(
            f"inner product <{n},{m}> diverges for {family!r} on {interval}",
            NonIntegrableWarning,
            stacklevel=2,
        )
        return math.nan

    cn = poly_coefficients(family, n)
    cm = poly_coefficients(family, m)

    def integrand(s):
        return npoly.polyval(s, cn) * npoly.polyval(s, cm) * weight_value(family, s)

    value, _ = integrate.quad(
        integrand, interval[0], interval[1], epsabs=tol, epsrel=tol, limit=300
    )
    return float(value)
