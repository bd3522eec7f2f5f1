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
from dataclasses import dataclass, replace
from functools import cached_property

from .errors import (
    NoBoundBranchError,
    NotAPerfectSquareError,
    ValidationError,
)

__all__ = [
    "HypergeometricODE",
    "NUReduction",
    "reduce",
    "solve_level",
    "rodrigues_polynomial",
]

MAX_RODRIGUES_DEGREE = 64
_NEGLIGIBLE = 1e-13  # relative size below which a sum has cancelled to zero


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


def _under_root(ode: HypergeometricODE, k: float):
    """The under-root quadratic and, per coefficient, the magnitudes of its terms."""
    h0, h1 = (_coef(ode.half_difference(), i) for i in range(2))
    terms = [
        (hh, -_coef(ode.sigma_tilde, i), k * _coef(ode.sigma, i))
        for i, hh in enumerate((h0 * h0, 2.0 * h0 * h1, h1 * h1))
    ]
    return _trim(sum(t) for t in terms), [sum(map(abs, t)) for t in terms]


@dataclass(frozen=True)
class NUReduction:
    """One chosen (k, sign) branch of the reduction."""

    k: float
    pi: tuple
    tau: tuple
    level_lambda: float  # Lambda = k + pi'
    sigma: tuple
    root_poly: tuple  # (p0, p1), the linear sqrt of the under-root quadratic


def _poly_sqrt(q, terms):
    """Linear square root (p0, p1), p1 > 0, of a quadratic with vanishing discriminant.

    ``terms`` holds, per coefficient of q, the summed magnitudes of the terms
    that formed it.  On the regular branch of a degree-n solution, h_1/sigma_2
    = (1 - b)/2 and rho_- = -(b + sqrt(D))/2 (``_regular_branch``) give
    q2 = (pi_1 - h_1)^2 = sigma_2^2 (n + (1 + sqrt(D))/2)^2 >= sigma_2^2/4, so
    only underflow makes q2 negligible.  Raises NotAPerfectSquareError then,
    and when the discriminant is not negligible.
    """
    q0, q1, q2 = (_coef(q, i) for i in range(3))
    if _negligible(q2, _coef(terms, 2)):
        raise NotAPerfectSquareError("under-root quadratic has no s^2 term")
    resid = q1 * q1 - 4.0 * q2 * q0
    if not _negligible(resid, q1 * q1, 4.0 * q2 * q0):
        raise NotAPerfectSquareError(
            f"under-root discriminant residual {resid:.3e} is not negligible"
        )
    p1 = math.sqrt(q2)
    return (q1 / (2.0 * p1), p1)


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
    if s2 * s2 == 0.0:  # c below divides by sigma_2^2, which may underflow
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


def solve_level(ode: HypergeometricODE, n: int) -> float:
    """Constant term of sigma_tilde at which ``ode`` has its degree-n level.

    On the regular branch k depends only on sigma_2, tau_tilde_1 and
    sigma_tilde_2, so the constant term c of sigma_tilde enters the
    under-root quadratic q only through q0, with dq0/dc = -1.  q is a square
    where q1^2 = 4 q2 q0, so the level is c + q0 - q1^2/(4 q2); ``reduce``
    then checks the square there.  Raises NotAPerfectSquareError when q2
    vanishes, since c then fixes no level.
    """
    q, terms = _under_root(ode, _regular_branch(ode, n)[0])
    q0, q1, q2 = (_coef(q, i) for i in range(3))
    if _negligible(q2, _coef(terms, 2)):
        raise NotAPerfectSquareError("under-root quadratic has no s^2 term")
    c = _coef(ode.sigma_tilde, 0) + q0 - q1 * q1 / (4.0 * q2)
    reduce(replace(ode, sigma_tilde=(c,) + ode.sigma_tilde[1:]), n)
    return c


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
