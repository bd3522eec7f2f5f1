"""Reference Nikiforov-Uvarov and polynomial machinery for the tests.

The library chooses one NU branch by regularity and needs only sigma and tau
to build a state's polynomial.  The tests check that reduction against the
textbook route: both roots of the k-quadratic, both pi branches, the Pearson
weight of (sigma, tau), the level constant Lambda_n, and weighted inner
products of Jacobi and Romanovski families written as (sigma, tau) pairs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
import numpy.polynomial.polynomial as npoly

from euph.errors import EuphError, ValidationError
from euph.integrate import gauss_jacobi_u, quad
from euph.nu_engine import (
    _axpy,
    _coef,
    _degree,
    _der,
    _negligible,
    _poly_sqrt,
    _under_root,
    rodrigues_polynomial,
)
from euph.polynomials import poly_coefficients


class ComplexRootsError(EuphError):
    """The quadratic for the reduction constant k has no real roots."""

    def __init__(self, message, discriminant=None):
        super().__init__(message)
        self.discriminant = discriminant


class NonIntegrableWarning(UserWarning):
    """Weighted inner product diverges at an endpoint; result is nan."""


def under_root(ode, k):
    """((sigma'-tau_tilde)/2)^2 - sigma_tilde + k*sigma."""
    return _under_root(ode, k)[0]


def k_candidates(ode):
    """Both roots of the quadratic fixing k, sorted descending.

    The under-root expression q2(k) s^2 + q1(k) s + q0(k) is a perfect square
    iff its s-discriminant vanishes; that condition is quadratic in k.  Raises
    ComplexRootsError when the k-discriminant is negative (no real reduction).
    """
    base = under_root(ode, 0.0)  # ((sigma'-tau_tilde)/2)^2 - sigma_tilde
    b0, b1, b2 = (_coef(base, i) for i in range(3))
    s0, s1, s2 = (_coef(ode.sigma, i) for i in range(3))

    a = s1 * s1 - 4.0 * s2 * s0
    b = 2.0 * b1 * s1 - 4.0 * (b2 * s0 + b0 * s2)
    c = b1 * b1 - 4.0 * b2 * b0

    if _negligible(a, s1 * s1, 4.0 * s2 * s0):
        if _negligible(b, 2.0 * b1 * s1, 4.0 * b2 * s0, 4.0 * b0 * s2):
            raise ComplexRootsError("degenerate k-equation: no isolated roots")
        k = -c / b
        return (k, k)

    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        if not _negligible(disc, b * b, 4.0 * a * c):
            raise ComplexRootsError(
                "k-quadratic has complex roots (non-quantizable parameters)",
                discriminant=disc,
            )
        disc = 0.0
    root = math.sqrt(disc)
    # stable quadratic roots
    if b >= 0.0:
        q = -0.5 * (b + root)
    else:
        q = -0.5 * (b - root)
    k1 = q / a
    k2 = c / q if q != 0.0 else k1
    return (max(k1, k2), min(k1, k2))


def pi_branches(ode, k):
    """The two linear pi polynomials (plus branch, minus branch) for this k."""
    h = ode.half_difference()
    p = _poly_sqrt(*_under_root(ode, k))
    return _axpy(h, 1.0, p), _axpy(h, -1.0, p)


def level_constant(reduction, ode, n):
    """Lambda_n = -n tau' - n(n-1) sigma''/2 for the degree-n solution."""
    if n < 0:
        raise ValidationError("level index must be nonnegative")
    sigma_pp = 2.0 * _coef(ode.sigma, 2)
    return -n * _coef(reduction.tau, 1) - 0.5 * n * (n - 1) * sigma_pp


def rodrigues_coefficients(reduction, ode, n):
    """Rodrigues coefficients for the reduction's own weight and sigma."""
    return rodrigues_polynomial(ode.sigma, reduction.tau, n)


@dataclass(frozen=True)
class WeightDescriptor:
    """Pearson weight as a product of |base|^exponent factors.

    rho(s) = exp(log_scale) * prod_i |base_i(s)|^{e_i}
             * exp(arctan_coeff * arctan(arctan_arg(s)))

    ``arctan_arg`` is a linear polynomial (identity for the canonical
    Romanovski weight); arctan_coeff = 0 when no such factor is present.
    log_scale pins rho = 1 at a canonical interior point.
    """

    factors: tuple  # ((coeffs, exponent), ...)
    arctan_coeff: float = 0.0
    arctan_arg: tuple = (0.0, 1.0)
    log_scale: float = 0.0

    def log_value(self, s):
        s = np.asarray(s, dtype=float)
        out = np.full(s.shape, self.log_scale)
        for coeffs, expo in self.factors:
            out = out + expo * np.log(np.abs(npoly.polyval(s, coeffs)))
        if self.arctan_coeff != 0.0:
            out = out + self.arctan_coeff * np.arctan(npoly.polyval(s, self.arctan_arg))
        return out

    def value(self, s):
        return np.exp(self.log_value(s))

    def log_derivative(self, s):
        """rho'/rho, evaluated analytically."""
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape)
        for coeffs, expo in self.factors:
            out = out + expo * npoly.polyval(s, npoly.polyder(coeffs)) / npoly.polyval(s, coeffs)
        if self.arctan_coeff != 0.0:
            arg = npoly.polyval(s, self.arctan_arg)
            darg = npoly.polyval(s, npoly.polyder(self.arctan_arg))
            out = out + self.arctan_coeff * darg / (1.0 + arg * arg)
        return out

    def pearson_residual(self, sigma, tau, points):
        """max over points of |(sigma*rho)' - tau*rho| / max(1, |tau*rho|)."""
        s = np.asarray(points, dtype=float)
        rho = self.value(s)
        sig = npoly.polyval(s, sigma)
        dsig = npoly.polyval(s, npoly.polyder(sigma))
        tv = npoly.polyval(s, tau)
        lhs = dsig * rho + sig * rho * self.log_derivative(s)
        rhs = tv * rho
        return float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))))


def weight(reduction):
    """Pearson weight of the reduction: (sigma*rho)' = tau*rho solved in closed form.

    rho'/rho = (tau - sigma')/sigma decomposes by partial fractions.  Real
    root pairs give power-law factors; an irreducible quadratic gives a
    |sigma|^c1 factor times exp(q * arctan(linear)).  rho = 1 at the first of
    s = 0, 1/2, 2 that is no root of sigma.
    """
    sigma, tau = reduction.sigma, reduction.tau
    num = _axpy(tau, -1.0, _der(sigma))
    if _degree(num) > 1:
        raise ValidationError("tau - sigma' must be linear for a Pearson weight")
    if _degree(sigma) < 2:
        raise ValidationError("weights for sigma of degree < 2 are not supported")
    s0c, s1c, s2c = (_coef(sigma, i) for i in range(3))

    disc = s1c * s1c - 4.0 * s2c * s0c
    if _negligible(disc, s1c * s1c, 4.0 * s2c * s0c):
        raise ValidationError("sigma with a double root has no supported weight form")
    if disc > 0.0:
        root = math.sqrt(disc)
        r1 = (-s1c - root) / (2.0 * s2c)
        r2 = (-s1c + root) / (2.0 * s2c)
        e1 = (_coef(num, 0) + _coef(num, 1) * r1) / (s2c * (r1 - r2))
        e2 = (_coef(num, 0) + _coef(num, 1) * r2) / (s2c * (r2 - r1))
        desc = WeightDescriptor(factors=(((-r1, 1.0), e1), ((-r2, 1.0), e2)))
        roots = (r1, r2)
    else:
        c1 = _coef(num, 1) / (2.0 * s2c)
        c0 = _coef(num, 0) - c1 * s1c
        droot = math.sqrt(-disc)
        desc = WeightDescriptor(
            factors=(((s0c, s1c, s2c), c1),),
            arctan_coeff=2.0 * c0 / droot,
            arctan_arg=(s1c / droot, 2.0 * s2c / droot),
        )
        roots = ()
    anchor = next(
        s for s in (0.0, 0.5, 2.0) if not any(_negligible(s - r, s, r) for r in roots)
    )
    return replace(desc, log_scale=-float(desc.log_value(np.asarray(anchor))))


@dataclass(frozen=True)
class Jacobi:
    """Weight (1-s)^a (1+s)^b; classical orthogonality needs a, b > -1."""

    a: float
    b: float

    def sigma_tau(self):
        return (1.0, 0.0, -1.0), (self.b - self.a, -(self.a + self.b + 2.0))


@dataclass(frozen=True)
class Romanovski:
    """Weight (1+s^2)^alpha * exp(beta * arctan s), finitely orthogonal."""

    alpha: float
    beta: float

    def sigma_tau(self):
        return (1.0, 0.0, 1.0), (self.beta, 2.0 * (self.alpha + 1.0))


def family_coefficients(family, n):
    """Ascending coefficients of the family's degree-n member."""
    return poly_coefficients(*family.sigma_tau(), n)


def jacobi_recurrence(n, a, b, x):
    """Independent three-term recurrence for classical Jacobi values."""
    if n == 0:
        return 1.0
    p_prev = 1.0
    p = 0.5 * (a - b + (a + b + 2.0) * x)
    for k in range(2, n + 1):
        c1 = 2.0 * k * (k + a + b) * (2.0 * k + a + b - 2.0)
        c2 = (2.0 * k + a + b - 1.0) * (a * a - b * b)
        c3 = (2.0 * k + a + b - 2.0) * (2.0 * k + a + b - 1.0) * (2.0 * k + a + b)
        c4 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * (2.0 * k + a + b)
        p, p_prev = ((c2 + c3 * x) * p - c4 * p_prev) / c1, p
    return p


def _divergent(family, n, m):
    """Endpoint bookkeeping: True when y_n y_m rho is not integrable."""
    if isinstance(family, Romanovski):
        # integrand ~ s^(n+m+2alpha) at infinity
        return n + m + 2.0 * family.alpha >= -1.0
    return family.a <= -1.0 or family.b <= -1.0


def weighted_inner_product(family, n, m):
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

    cn = family_coefficients(family, n)
    cm = family_coefficients(family, m)
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
