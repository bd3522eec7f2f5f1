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

from .errors import NonIntegrableWarning, ValidationError
from .integrate import gauss_jacobi_u, quad
from .nu_engine import MAX_RODRIGUES_DEGREE, rodrigues_polynomial

__all__ = [
    "Jacobi",
    "Romanovski",
    "poly_coefficients",
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


def _divergent(family, n, m):
    """Endpoint bookkeeping: True when y_n y_m rho is not integrable."""
    if isinstance(family, Romanovski):
        # integrand ~ s^(n+m+2alpha) at infinity
        return n + m + 2.0 * family.alpha >= -1.0
    return family.a <= -1.0 or family.b <= -1.0


def weighted_inner_product(family, n: int, m: int) -> float:
    """Integral of y_n y_m rho over (-1, 1) for Jacobi, the whole line for Romanovski.

    Jacobi: exact, by the Gauss-Jacobi rule of the weight in u = (1+s)/2.
    Romanovski: ``integrate.quad`` in theta = atan s, where the integrand is
    y_n y_m cos(theta)^(-2 alpha - 2) exp(beta theta).  Divergent
    combinations are not integrated; they emit NonIntegrableWarning and
    return nan.
    """
    if _divergent(family, n, m):
        warnings.warn(
            f"inner product <{n},{m}> diverges for {family!r}",
            NonIntegrableWarning,
            stacklevel=2,
        )
        return math.nan

    cn = poly_coefficients(family, n)
    cm = poly_coefficients(family, m)
    if isinstance(family, Jacobi):
        a, b = family.a, family.b
        u, w = gauss_jacobi_u((n + m) // 2 + 1, a, b)
        s = 2.0 * u - 1.0
        # mass of (1-s)^a (1+s)^b: 2^(a+b+1) B(a+1, b+1)
        log_mass = (a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0) + math.lgamma(b + 1.0)
        log_mass -= math.lgamma(a + b + 2.0)
        return math.exp(log_mass) * float(np.dot(w, npoly.polyval(s, cn) * npoly.polyval(s, cm)))

    def integrand(theta):
        s = np.tan(theta)
        weight = np.cos(theta) ** (-2.0 * family.alpha - 2.0) * np.exp(family.beta * theta)
        return npoly.polyval(s, cn) * npoly.polyval(s, cm) * weight

    return quad(integrand, [-0.5 * math.pi, 0.0, 0.5 * math.pi])[0]
