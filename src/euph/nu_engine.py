"""Nikiforov-Uvarov reduction of hypergeometric-type second order ODEs.

An equation  psi'' + (tau_tilde/sigma) psi' + (sigma_tilde/sigma^2) psi = 0
with polynomial coefficients (deg sigma, sigma_tilde <= 2, deg tau_tilde <= 1)
is reduced to  sigma y'' + tau y' + Lambda y = 0  by factoring psi = phi * y.
The reduction constant k solves a quadratic obtained by forcing the expression
under the square root in

    pi(s) = (sigma' - tau_tilde)/2 +- sqrt(((sigma'-tau_tilde)/2)^2
                                           - sigma_tilde + k*sigma)

to be the square of a linear polynomial.  Each k and each root sign give one
branch; tau = tau_tilde + 2*pi and Lambda = k + pi'.  Degree-n solutions exist
where Lambda matches the level constant  Lambda_n = -n tau' - n(n-1) sigma''/2,
and are generated by the Rodrigues relation with the Pearson weight rho
solving (sigma*rho)' = tau*rho.

One rule chooses the branch: the degree-n solution must be regular at
s -> inf (the indicial exponent at infinity, Bender & Orszag 1978, ch. 3).
It fixes k and the sign from the ODE's leading coefficients alone; a level
is then an ODE at which the under-root quadratic for that k is a square.

Polynomial coefficients are stored ascending, as tuples of floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import (
    ComplexRootsError,
    MaxIterationsError,
    NoBoundBranchError,
    NotAPerfectSquareError,
    ValidationError,
)

__all__ = [
    "HypergeometricODE",
    "WeightDescriptor",
    "NUReduction",
    "k_candidates",
    "pi_branches",
    "reduce",
    "level_constant",
    "solve_level",
    "rodrigues_coefficients",
    "rodrigues_polynomial",
]

MAX_RODRIGUES_DEGREE = 64
_NEGLIGIBLE = 1e-13  # relative size below which a sum has cancelled to zero
_SECANT_STEPS = 8  # cap on solve_level's secant steps


def _negligible(x, *terms) -> bool:
    """True when x, formed by summing ``terms``, is zero up to rounding."""
    return abs(x) <= _NEGLIGIBLE * sum(map(abs, terms))


def _trim(c) -> tuple:
    """Coefficients without trailing zeros; the zero polynomial is (0.0,)."""
    out = list(c)
    while len(out) > 1 and out[-1] == 0.0:
        out.pop()
    return tuple(out) if out else (0.0,)


def _degree(c) -> int:
    """Degree of trimmed coefficients, -1 for the zero polynomial."""
    return -1 if c == (0.0,) else len(c) - 1


def _coef(c, i) -> float:
    return c[i] if i < len(c) else 0.0


def _axpy(a, x, b) -> tuple:
    """Coefficients of a + x*b."""
    out = [ai + x * bi for ai, bi in zip(a, b)]
    out.extend(a[len(b):])
    out.extend(x * bi for bi in b[len(a):])
    return _trim(out)


def _mul(a, b) -> tuple:
    out = [0.0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _trim(out)


def _der(c) -> tuple:
    return _trim([i * c[i] for i in range(1, len(c))])


@dataclass(frozen=True)
class HypergeometricODE:
    """Coefficient triple (sigma, tau_tilde, sigma_tilde), ascending order."""

    sigma: tuple
    tau_tilde: tuple
    sigma_tilde: tuple

    def __post_init__(self):
        for name in ("sigma", "tau_tilde", "sigma_tilde"):
            object.__setattr__(self, name, _trim(map(float, getattr(self, name))))
        if _degree(self.sigma) < 0:
            raise ValidationError("sigma must not be identically zero")
        if _degree(self.sigma) > 2 or _degree(self.sigma_tilde) > 2:
            raise ValidationError("sigma and sigma_tilde must have degree <= 2")
        if _degree(self.tau_tilde) > 1:
            raise ValidationError("tau_tilde must have degree <= 1")

    def half_difference(self) -> tuple:
        """(sigma' - tau_tilde)/2, a linear polynomial."""
        return self._half_difference

    @cached_property
    def _half_difference(self) -> tuple:
        return tuple(0.5 * c for c in _axpy(_der(self.sigma), -1.0, self.tau_tilde))

    def under_root(self, k: float) -> tuple:
        """((sigma'-tau_tilde)/2)^2 - sigma_tilde + k*sigma."""
        return _under_root(self, k)[0]


def _under_root(ode: HypergeometricODE, k: float):
    """The under-root quadratic and, per coefficient, the magnitudes of its terms."""
    h0, h1 = (_coef(ode.half_difference(), i) for i in range(2))
    terms = [
        (hh, -_coef(ode.sigma_tilde, i), k * _coef(ode.sigma, i))
        for i, hh in enumerate((h0 * h0, 2.0 * h0 * h1, h1 * h1))
    ]
    return _trim(sum(t) for t in terms), [sum(map(abs, t)) for t in terms]


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


@dataclass(frozen=True)
class NUReduction:
    """One chosen (k, sign) branch of the reduction."""

    k: float
    pi: tuple
    tau: tuple
    level_lambda: float  # Lambda = k + pi'
    sigma: tuple
    root_poly: tuple = field(default=())  # linear sqrt of the under-root quadratic

    @property
    def tau_slope(self) -> float:
        return _coef(self.tau, 1)

    @cached_property
    def weight(self) -> WeightDescriptor:
        """Pearson weight of (sigma, tau), built on first read."""
        return _weight_from_tau(self.sigma, self.tau)


def k_candidates(ode: HypergeometricODE):
    """Both roots of the quadratic fixing k, sorted descending.

    The under-root expression q2(k) s^2 + q1(k) s + q0(k) is a perfect square
    iff its s-discriminant vanishes; that condition is quadratic in k.  Raises
    ComplexRootsError when the k-discriminant is negative (no real reduction).
    """
    base = ode.under_root(0.0)  # ((sigma'-tau_tilde)/2)^2 - sigma_tilde
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


def _poly_sqrt(q, terms):
    """Exact linear square root of a quadratic with vanishing discriminant.

    ``terms`` holds, per coefficient of q, the summed magnitudes of the terms
    that formed it.  Returns coefficients (p0, p1) with nonnegative leading
    coefficient such that (p0 + p1 s)^2 = q.  Raises NotAPerfectSquareError
    otherwise.
    """
    q0, q1, q2 = (_coef(q, i) for i in range(3))
    m0, m1, m2 = (_coef(terms, i) for i in range(3))
    if not _negligible(q2, m2):
        if q2 < 0.0:
            raise NotAPerfectSquareError("under-root quadratic opens downward")
        resid = q1 * q1 - 4.0 * q2 * q0
        if not _negligible(resid, q1 * q1, 4.0 * q2 * q0):
            raise NotAPerfectSquareError(
                f"under-root discriminant residual {resid:.3e} is not negligible"
            )
        p1 = math.sqrt(q2)
        return (q1 / (2.0 * p1), p1)
    # degenerate: quadratic part vanished
    if not _negligible(q1, m1):
        raise NotAPerfectSquareError("linear under-root expression is not a square")
    if q0 < 0.0 and not _negligible(q0, m0):
        raise NotAPerfectSquareError("constant under-root expression is negative")
    return (math.sqrt(max(q0, 0.0)),)


def pi_branches(ode: HypergeometricODE, k: float):
    """The two linear pi polynomials (plus branch, minus branch) for this k."""
    h = ode.half_difference()
    p = _poly_sqrt(*_under_root(ode, k))
    return _axpy(h, 1.0, p), _axpy(h, -1.0, p)


def _weight_from_tau(sigma, tau):
    """Solve (sigma*rho)' = tau*rho in closed form for quadratic sigma.

    rho'/rho = (tau - sigma')/sigma decomposes by partial fractions.  Real
    root pairs give power-law factors; an irreducible quadratic gives a
    |sigma|^c1 factor times exp(q * arctan(linear)).  rho = 1 at the first of
    s = 0, 1/2, 2 that is no root of sigma.
    """
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


def _regular_branch(ode: HypergeometricODE, n: int):
    """(k, sign) of the branch whose degree-n solution is regular at s -> inf.

    There psi ~ s^rho, rho a root of the indicial polynomial
    I(rho) = rho^2 + (tau_tilde_1/sigma_2 - 1) rho + sigma_tilde_2/sigma_2^2,
    and every branch has sigma_2 I(n + pi_1/sigma_2) = Lambda - Lambda_n.  The
    regular solution takes the smaller root rho_-, so pi_1 = sigma_2 (rho_- - n);
    the sign of pi_1 - h_1 is the branch sign, and the s^2 coefficient of
    (pi - h)^2 = h^2 - sigma_tilde + k sigma fixes k.
    """
    if n < 0:
        raise ValidationError("level index must be nonnegative")
    s2 = _coef(ode.sigma, 2)
    if s2 == 0.0:
        raise ValidationError("the regularity rule needs a quadratic sigma")
    b = _coef(ode.tau_tilde, 1) / s2 - 1.0
    c = _coef(ode.sigma_tilde, 2) / (s2 * s2)
    disc = b * b - 4.0 * c
    if disc < 0.0 and not _negligible(disc, b * b, 4.0 * c):
        raise NoBoundBranchError(
            "complex indicial exponents at s -> inf: no branch is regular there"
        )
    rho = -0.5 * (b + math.copysign(math.sqrt(max(disc, 0.0)), b))  # stable roots
    rho = min(rho, c / rho) if rho != 0.0 else 0.0
    h1 = _coef(ode.half_difference(), 1)
    d = s2 * (rho - n) - h1  # pi_1 - h_1
    k = (d * d - h1 * h1 + _coef(ode.sigma_tilde, 2)) / s2
    return k, (1 if d >= 0.0 else -1)


def _branch_reduction(ode: HypergeometricODE, k: float, sign: int):
    p = _poly_sqrt(*_under_root(ode, k))
    pi = _axpy(ode.half_difference(), float(sign), p)
    tau = _axpy(ode.tau_tilde, 2.0, pi)
    return NUReduction(
        k=float(k),
        pi=pi,
        tau=tau,
        level_lambda=k + _coef(pi, 1),
        sigma=ode.sigma,
        root_poly=p,
    )


def reduce(ode: HypergeometricODE, n: int) -> NUReduction:
    """Reduce the ODE on the branch whose degree-n solution is regular at s -> inf.

    Raises NotAPerfectSquareError when the ODE is not at a level of that
    branch, and NoBoundBranchError when no branch is regular at infinity.
    """
    return _branch_reduction(ode, *_regular_branch(ode, n))


def level_constant(reduction: NUReduction, ode: HypergeometricODE, n: int) -> float:
    """Lambda_n = -n tau' - n(n-1) sigma''/2 for the degree-n solution."""
    if n < 0:
        raise ValidationError("level index must be nonnegative")
    sigma_pp = 2.0 * _coef(ode.sigma, 2)
    return -n * reduction.tau_slope - 0.5 * n * (n - 1) * sigma_pp


def solve_level(family, n: int, start: float, step: float) -> float:
    """Spectral parameter eps at which ``family(eps)`` has its degree-n level.

    ``family`` maps eps to a HypergeometricODE.  On the regular branch the
    level is the zero of D(eps) = q1^2 - 4 q2 q0, the discriminant of the
    under-root quadratic at the branch's k.  The secant method runs from
    ``start`` and ``start + step`` and stops once a step is negligible
    against the iterate and ``step``; ``reduce`` then checks the square.
    """

    def discriminant(eps):
        ode = family(eps)
        q = _under_root(ode, _regular_branch(ode, n)[0])[0]
        q0, q1, q2 = (_coef(q, i) for i in range(3))
        return q1 * q1 - 4.0 * q2 * q0

    x0, x1 = float(start), float(start) + float(step)
    d0 = discriminant(x0)
    for _ in range(_SECANT_STEPS):
        d1 = discriminant(x1)
        if d1 == 0.0 or d1 == d0:  # a root, or no slope: left to the check
            break
        x0, x1, d0 = x1, x1 - d1 * (x1 - x0) / (d1 - d0), d1
        if _negligible(x1 - x0, x1, step):
            break
    else:
        raise MaxIterationsError(f"the secant found no level in {_SECANT_STEPS} steps")
    reduce(family(x1), n)
    return x1


def rodrigues_polynomial(sigma, tau, n: int) -> tuple:
    """Degree-n Rodrigues solution of sigma y'' + tau y' + Lambda_n y = 0.

    Evaluates (1/rho) d^n/ds^n [sigma^n rho] through the derivative recurrence

        (sigma^m rho Q)' = sigma^(m-1) rho [m sigma' Q + (tau - sigma') Q + sigma Q'],

    a consequence of the Pearson relation, so only polynomial arithmetic is
    involved and the weight never has to be differentiated numerically.
    Normalization constant taken as 1.
    """
    if n < 0:
        raise ValidationError("polynomial degree must be nonnegative")
    if n > MAX_RODRIGUES_DEGREE:
        raise ValidationError(
            f"degree {n} exceeds the overflow guard ({MAX_RODRIGUES_DEGREE})"
        )
    sigma, tau = _trim(map(float, sigma)), _trim(map(float, tau))
    dsigma = _der(sigma)
    tms = _axpy(tau, -1.0, dsigma)
    q = (1.0,)
    for m in range(n, 0, -1):
        q = _axpy(_mul(_axpy(tms, m, dsigma), q), 1.0, _mul(sigma, _der(q)))
    return q


def rodrigues_coefficients(reduction: NUReduction, ode: HypergeometricODE, n: int) -> tuple:
    """Rodrigues coefficients for the reduction's own weight and sigma."""
    return rodrigues_polynomial(ode.sigma, reduction.tau, n)
