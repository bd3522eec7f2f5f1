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

Polynomial coefficients are stored ascending, as tuples of floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import (
    AmbiguousBranchError,
    ComplexRootsError,
    MaxIterationsError,
    NoBoundBranchError,
    NoSignChangeError,
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
_BISECTION_STOP = 1e-12  # relative bracket width at which solve_level stops


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
    branch_id: str
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


def _branch_reduction(ode: HypergeometricODE, k: float, sign: int, k_index: int):
    p = _poly_sqrt(*_under_root(ode, k))
    pi = _axpy(ode.half_difference(), float(sign), p)
    tau = _axpy(ode.tau_tilde, 2.0, pi)
    return NUReduction(
        k=float(k),
        pi=pi,
        tau=tau,
        level_lambda=k + _coef(pi, 1),
        sigma=ode.sigma,
        branch_id=f"k{k_index}{'+' if sign > 0 else '-'}",
        root_poly=p,
    )


def reduce(ode: HypergeometricODE, branch=None) -> NUReduction:
    """Reduce the ODE, selecting a branch.

    With ``branch=(k_index, sign)`` the stated combination is built directly
    (k_index 0 is the larger k root).  Without it, all real (k, sign)
    combinations are enumerated and the unique one with decreasing tau
    (tau' < 0, the bound-state criterion) is returned; zero or multiple
    matches raise NoBoundBranchError / AmbiguousBranchError.
    """
    ks = k_candidates(ode)
    if branch is not None:
        k_index, sign = branch
        return _branch_reduction(ode, ks[k_index], sign, k_index)

    seen_pis = []
    survivors = []
    k_list = [(0, ks[0])]
    if not _negligible(ks[1] - ks[0], ks[1], ks[0]):
        k_list.append((1, ks[1]))
    for k_index, k in k_list:
        for sign in (1, -1):
            try:
                red = _branch_reduction(ode, k, sign, k_index)
            except NotAPerfectSquareError:
                continue
            if any(
                len(prev) == len(red.pi)
                and all(_negligible(a - b, a, b) for a, b in zip(prev, red.pi))
                for prev in seen_pis
            ):
                continue
            seen_pis.append(red.pi)
            survivors.append(red)

    negatives = [r for r in survivors if r.tau_slope < 0.0]
    if not negatives:
        raise NoBoundBranchError(
            "no real reduction branch has tau' < 0; no bound-state family here"
        )
    if len(negatives) > 1:
        raise AmbiguousBranchError(
            "multiple branches satisfy tau' < 0; pass branch=(k_index, sign) explicitly",
            candidates=[r.branch_id for r in negatives],
        )
    return negatives[0]


def level_constant(reduction: NUReduction, ode: HypergeometricODE, n: int) -> float:
    """Lambda_n = -n tau' - n(n-1) sigma''/2 for the degree-n solution."""
    if n < 0:
        raise ValidationError("level index must be nonnegative")
    sigma_pp = 2.0 * _coef(ode.sigma, 2)
    return -n * reduction.tau_slope - 0.5 * n * (n - 1) * sigma_pp


def solve_level(family, n: int, bracket, branch=None) -> float:
    """Bisect the quantization residual g(eps) = Lambda(eps) - Lambda_n(eps).

    ``family`` maps the spectral parameter eps to a HypergeometricODE.  The
    bracket must enclose exactly one sign change of g on a single reduction
    branch; callers derive brackets from their closed forms.  Bisection stops
    once the bracket is narrower than 1e-12 of its larger end.
    """

    def residual(eps):
        ode = family(eps)
        red = reduce(ode, branch=branch)
        return red.level_lambda - level_constant(red, ode, n)

    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValidationError("bracket must satisfy lo < hi")
    g_lo = residual(lo)
    g_hi = residual(hi)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if g_lo * g_hi > 0.0:
        raise NoSignChangeError(
            f"no sign change on bracket [{lo}, {hi}]: g = ({g_lo:.3e}, {g_hi:.3e})"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= _BISECTION_STOP * max(abs(lo), abs(hi)):
            return mid
        g_mid = residual(mid)
        if g_mid == 0.0:
            return mid
        if g_lo * g_mid < 0.0:
            hi = mid
        else:
            lo, g_lo = mid, g_mid
    raise MaxIterationsError("bisection did not narrow the bracket in 200 steps")


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
