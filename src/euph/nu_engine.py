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

Polynomial coefficients are stored ascending (numpy.polynomial convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def _trim(c) -> tuple:
    arr = npoly.polytrim(np.asarray(c, dtype=float), tol=0.0)
    return tuple(float(x) for x in arr)


def _degree(c) -> int:
    arr = npoly.polytrim(np.asarray(c, dtype=float), tol=0.0)
    if len(arr) == 1 and arr[0] == 0.0:
        return -1
    return len(arr) - 1


def _coef(c, i) -> float:
    return float(c[i]) if i < len(c) else 0.0


@dataclass(frozen=True)
class HypergeometricODE:
    """Coefficient triple (sigma, tau_tilde, sigma_tilde), ascending order."""

    sigma: tuple
    tau_tilde: tuple
    sigma_tilde: tuple

    def __post_init__(self):
        object.__setattr__(self, "sigma", _trim(self.sigma))
        object.__setattr__(self, "tau_tilde", _trim(self.tau_tilde))
        object.__setattr__(self, "sigma_tilde", _trim(self.sigma_tilde))
        if _degree(self.sigma) < 0:
            raise ValidationError("sigma must not be identically zero")
        if _degree(self.sigma) > 2 or _degree(self.sigma_tilde) > 2:
            raise ValidationError("sigma and sigma_tilde must have degree <= 2")
        if _degree(self.tau_tilde) > 1:
            raise ValidationError("tau_tilde must have degree <= 1")

    def half_difference(self) -> tuple:
        """(sigma' - tau_tilde)/2, a linear polynomial."""
        d = npoly.polysub(npoly.polyder(self.sigma), self.tau_tilde)
        return _trim(0.5 * np.asarray(npoly.polytrim(d), dtype=float))

    def under_root(self, k: float) -> tuple:
        """((sigma'-tau_tilde)/2)^2 - sigma_tilde + k*sigma."""
        h = self.half_difference()
        q = npoly.polyadd(
            npoly.polysub(npoly.polymul(h, h), self.sigma_tilde),
            k * np.asarray(self.sigma),
        )
        return _trim(q)


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
    weight: WeightDescriptor
    branch_id: str
    root_poly: tuple = field(default=())  # linear sqrt of the under-root quadratic

    @property
    def tau_slope(self) -> float:
        return _coef(self.tau, 1)


def k_candidates(ode: HypergeometricODE):
    """Both roots of the quadratic fixing k, sorted descending.

    The under-root expression q2(k) s^2 + q1(k) s + q0(k) is a perfect square
    iff its s-discriminant vanishes; that condition is quadratic in k.  Raises
    ComplexRootsError when the k-discriminant is negative (no real reduction).
    """
    h = ode.half_difference()
    base = npoly.polysub(npoly.polymul(h, h), ode.sigma_tilde)
    b0, b1, b2 = (_coef(base, i) for i in range(3))
    s0, s1, s2 = (_coef(ode.sigma, i) for i in range(3))

    a = s1 * s1 - 4.0 * s2 * s0
    b = 2.0 * b1 * s1 - 4.0 * (b2 * s0 + b0 * s2)
    c = b1 * b1 - 4.0 * b2 * b0
    scale = max(abs(a), abs(b), abs(c), 1.0)

    if abs(a) <= 1e-14 * scale:
        if abs(b) <= 1e-14 * scale:
            raise ComplexRootsError("degenerate k-equation: no isolated roots")
        k = -c / b
        return (k, k)

    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        if disc > -1e-12 * scale * scale:
            disc = 0.0
        else:
            raise ComplexRootsError(
                "k-quadratic has complex roots (non-quantizable parameters)",
                discriminant=disc,
            )
    root = math.sqrt(disc)
    # stable quadratic roots
    if b >= 0.0:
        q = -0.5 * (b + root)
    else:
        q = -0.5 * (b - root)
    k1 = q / a
    k2 = c / q if q != 0.0 else k1
    lo, hi = min(k1, k2), max(k1, k2)
    return (hi, lo)


def _poly_sqrt(q, tol=1e-10):
    """Exact linear square root of a quadratic with vanishing discriminant.

    Returns coefficients (p0, p1) with nonnegative leading coefficient such
    that (p0 + p1 s)^2 = q.  Raises NotAPerfectSquareError otherwise.
    """
    q0, q1, q2 = (_coef(q, i) for i in range(3))
    scale = max(q1 * q1, abs(4.0 * q2 * q0), q2 * q2, abs(q0), 1.0)
    if abs(q2) > 1e-13 * scale:
        if q2 < 0.0:
            raise NotAPerfectSquareError("under-root quadratic opens downward")
        resid = q1 * q1 - 4.0 * q2 * q0
        if abs(resid) > tol * scale:
            raise NotAPerfectSquareError(
                f"under-root discriminant residual {resid:.3e} exceeds tolerance"
            )
        p1 = math.sqrt(q2)
        return (q1 / (2.0 * p1), p1)
    # degenerate: quadratic part vanished
    if abs(q1) > tol * scale:
        raise NotAPerfectSquareError("linear under-root expression is not a square")
    if q0 < -tol * scale:
        raise NotAPerfectSquareError("constant under-root expression is negative")
    return (math.sqrt(max(q0, 0.0)),)


def pi_branches(ode: HypergeometricODE, k: float):
    """The two linear pi polynomials (plus branch, minus branch) for this k."""
    h = ode.half_difference()
    p = _poly_sqrt(ode.under_root(k))
    plus = _trim(npoly.polyadd(h, p))
    minus = _trim(npoly.polysub(h, p))
    return plus, minus


def _weight_from_tau(sigma, tau, s_anchor=(0.0, 0.5, 2.0, -0.5, 3.0)):
    """Solve (sigma*rho)' = tau*rho in closed form for quadratic sigma.

    rho'/rho = (tau - sigma')/sigma decomposes by partial fractions.  Real
    root pairs give power-law factors; an irreducible quadratic gives a
    |sigma|^c1 factor times exp(q * arctan(linear)).
    """
    num = _trim(npoly.polysub(tau, npoly.polyder(sigma)))
    if _degree(num) > 1:
        raise ValidationError("tau - sigma' must be linear for a Pearson weight")
    s0c, s1c, s2c = (_coef(sigma, i) for i in range(3))
    if abs(s2c) < 1e-14 * max(abs(s0c), abs(s1c), 1.0):
        raise ValidationError("weights for sigma of degree < 2 are not supported")

    disc = s1c * s1c - 4.0 * s2c * s0c
    scale = max(s1c * s1c, abs(4.0 * s2c * s0c), 1.0)
    factors = []
    arctan_coeff = 0.0
    arctan_arg = (0.0, 1.0)
    if disc > 1e-12 * scale:
        root = math.sqrt(disc)
        r1 = (-s1c - root) / (2.0 * s2c)
        r2 = (-s1c + root) / (2.0 * s2c)
        e1 = npoly.polyval(r1, num) / (s2c * (r1 - r2))
        e2 = npoly.polyval(r2, num) / (s2c * (r2 - r1))
        factors = [((-r1, 1.0), float(e1)), ((-r2, 1.0), float(e2))]
    elif disc < -1e-12 * scale:
        c1 = _coef(num, 1) / (2.0 * s2c)
        c0 = _coef(num, 0) - c1 * s1c
        droot = math.sqrt(-disc)
        factors = [(tuple(float(x) for x in (s0c, s1c, s2c)), float(c1))]
        arctan_coeff = float(2.0 * c0 / droot)
        arctan_arg = (float(s1c / droot), float(2.0 * s2c / droot))
    else:
        raise ValidationError("sigma with a double root has no supported weight form")

    desc = WeightDescriptor(
        factors=tuple(factors), arctan_coeff=arctan_coeff, arctan_arg=arctan_arg
    )
    for s_try in s_anchor:
        vals = [npoly.polyval(s_try, f[0]) for f in desc.factors]
        if all(abs(v) > 1e-9 for v in vals):
            shift = float(desc.log_value(np.asarray(s_try)))
            return WeightDescriptor(
                factors=desc.factors,
                arctan_coeff=desc.arctan_coeff,
                arctan_arg=desc.arctan_arg,
                log_scale=-shift,
            )
    return desc


def _branch_reduction(ode: HypergeometricODE, k: float, sign: int, k_index: int):
    h = ode.half_difference()
    p = _poly_sqrt(ode.under_root(k))
    pi = _trim(npoly.polyadd(h, p) if sign > 0 else npoly.polysub(h, p))
    tau = _trim(npoly.polyadd(ode.tau_tilde, 2.0 * np.asarray(pi)))
    lam = k + _coef(pi, 1)
    weight = _weight_from_tau(ode.sigma, tau)
    branch_id = f"k{k_index}{'+' if sign > 0 else '-'}"
    return NUReduction(
        k=float(k),
        pi=pi,
        tau=tau,
        level_lambda=float(lam),
        weight=weight,
        branch_id=branch_id,
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
    if abs(ks[1] - ks[0]) > 1e-12 * max(1.0, abs(ks[0])):
        k_list.append((1, ks[1]))
    for k_index, k in k_list:
        for sign in (1, -1):
            try:
                red = _branch_reduction(ode, k, sign, k_index)
            except NotAPerfectSquareError:
                continue
            if any(
                len(prev) == len(red.pi)
                and all(abs(a - b) <= 1e-12 * max(1.0, abs(a)) for a, b in zip(prev, red.pi))
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


def solve_level(family, n: int, bracket, branch=None, tol=1e-12, max_iter=200) -> float:
    """Bisect the quantization residual g(eps) = Lambda(eps) - Lambda_n(eps).

    ``family`` maps the spectral parameter eps to a HypergeometricODE.  The
    bracket must enclose exactly one sign change of g on a single reduction
    branch; callers derive brackets from their closed forms.
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
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        g_mid = residual(mid)
        if g_mid == 0.0:
            return mid
        if g_lo * g_mid < 0.0:
            hi = mid
        else:
            lo, g_lo = mid, g_mid
    raise MaxIterationsError(f"bisection did not reach tol={tol} in {max_iter} steps")


def rodrigues_polynomial(sigma, tau, n: int) -> np.ndarray:
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
    sigma = np.asarray(sigma, dtype=float)
    tau = np.asarray(tau, dtype=float)
    dsigma = npoly.polyder(sigma)
    tms = npoly.polysub(tau, dsigma)
    q = np.array([1.0])
    for m in range(n, 0, -1):
        q = npoly.polyadd(
            npoly.polymul(npoly.polyadd(m * dsigma, tms), q),
            npoly.polymul(sigma, npoly.polyder(q)),
        )
    return np.asarray(npoly.polytrim(q, tol=0.0), dtype=float)


def rodrigues_coefficients(reduction: NUReduction, ode: HypergeometricODE, n: int) -> np.ndarray:
    """Rodrigues coefficients for the reduction's own weight and sigma."""
    return rodrigues_polynomial(ode.sigma, reduction.tau, n)
