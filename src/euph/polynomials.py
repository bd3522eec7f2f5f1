"""The polynomial factor of a state, from the (sigma, tau) of its NU reduction.

The Rodrigues formula y_n = rho^-1 d^n/ds^n [sigma^n rho] gives associated
Jacobi polynomials for sigma = 1 - s^2 (dS) and Romanovski polynomials for
sigma = 1 + s^2 (AdS) (Nikiforov & Uvarov 1988; Raposo et al., Cent. Eur. J.
Phys. 5 (2007) 253).  Real parameters of any sign are handled alike, since
only sigma and tau enter the recurrence.
"""

from __future__ import annotations

import math

from .nu_engine import rodrigues_polynomial

__all__ = ["poly_coefficients"]

_JACOBI_SIGMA = (1.0, 0.0, -1.0)


def poly_coefficients(sigma, tau, n: int) -> tuple:
    """Ascending coefficients of the degree-n Rodrigues polynomial of (sigma, tau).

    For sigma = 1 - s^2 they are divided by (-2)^n n!, the textbook scale of
    P_n^(a,b) with tau = (b - a, -(a + b + 2)); otherwise the scale is 1.
    """
    coeffs = rodrigues_polynomial(sigma, tau, n)
    if tuple(sigma) != _JACOBI_SIGMA:
        return coeffs
    scale = (-2.0) ** n * math.factorial(n)
    return tuple(c / scale for c in coeffs)
