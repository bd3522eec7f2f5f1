"""Closed-form radial eigenfunctions and full wavefunction assembly.

The radial factor of psi = r^(-1/2) R(r) Y_lm factorizes as
envelope(s) * polynomial(s) in the scaled variable s = chi/(sqrt(lam) r):
a power-law pair |s-1|^A (s+1)^B with a Jacobi-type polynomial for dS, and
(1+s^2)^p exp(q arctan s) with a Romanovski-type polynomial for AdS.  The
envelope exponents grow like 1/sqrt(lam), so all evaluation runs in log
space with the normalization constant folded into the exponent.  Norms and
overlaps are fixed Gauss rules in u = 2/(s+1) (dS) and phi = atan(1/s) (AdS),
overlaps on other nodes than the norm, so a self-overlap checks it.  The module
computes in Hartree units on lam_au = lam a0^2 (x = r/a0); only ``radial_eval``
and ``RadialEigenstate.log_norm`` convert to the model's length unit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly

from . import integrate, spectra
from .errors import ConvergenceError, DomainError, NonNormalizableError, ValidationError
from .model import DeformationModel, QuantumNumbers
from .polynomials import poly_coefficients

__all__ = [
    "RadialEigenstate",
    "build_state",
    "radial_eval",
    "count_nodes",
    "psi_eval",
    "radial_overlap",
    "sph_harm",
]


@dataclass(frozen=True)
class RadialEigenstate:
    """An immutable quantized radial state.

    ``log_norm_au`` makes x^(-1/2) R = sign * y(s) * exp(log_envelope -
    log_norm_au), x = r/a0, a unit-norm function under the flat measure
    int |psi|^2 x^2 dx over ``domain``.  The branch root delta = n and the
    Coulomb strength eta follow from ``model`` and ``qn``, so they are not stored.
    """

    model: DeformationModel
    qn: QuantumNumbers
    poly_coeffs: tuple
    log_norm_au: float
    sign: float

    @property
    def energy(self) -> float:
        return spectra.energy(self.model, self.qn).energy

    @property
    def domain(self) -> tuple:
        """(0, inf) for dS, (0, wall radius) for AdS, in the model's length unit."""
        return (0.0, math.inf if self.model.tau == 1 else self.model.wall_radius())

    @property
    def log_norm(self) -> float:
        """The same constant for r in the model's length unit: log_norm_au + log a0."""
        return self.log_norm_au + math.log(self.model.units.bohr_radius)


def _log_radial_in_s(state: RadialEigenstate, s, log_t=None, log_prefactor=0.0):
    """(log|R| + log_prefactor, sign) of the unnormalized R factor at s.

    dS callers pass log_t = log((s-1)/(s+1)) formed without cancellation
    (_ds_log_t); AdS accepts any real s.
    Both envelopes are measured from the atom's end s -> inf, so no term of
    size eta*log(s) is formed: dS as (1/2 - n) log(s+1) + A log t with
    t = (s-1)/(s+1), AdS as p log(1+s^2) - q atan2(1, s).
    """
    s = np.asarray(s, dtype=float)
    n = state.qn.n
    rate = _envelope_rate(state.model, n)
    if state.model.tau == 1:
        env = (0.5 - n) * np.log(s + 1.0) + rate * log_t
    else:
        env = 0.5 * (0.5 - n) * np.log1p(s * s) - rate * np.arctan2(1.0, s)
    y = npoly.polyval(s, np.asarray(state.poly_coeffs))
    with np.errstate(divide="ignore"):
        logy = np.where(y == 0.0, -np.inf, np.log(np.abs(np.where(y == 0.0, 1.0, y))))
    return env + log_prefactor + logy, np.sign(y)


def _ds_log_t(s, log_t):
    """log((s-1)/(s+1)): the caller's log_t, exact near s = 1, used where s < 3; log1p beyond."""
    u = 2.0 / (s + 1.0)
    # the clip keeps log1p finite where the other branch is taken (u -> 1)
    return np.where(u < 0.5, np.log1p(-np.minimum(u, 0.5)), log_t)


def _envelope_rate(model: DeformationModel, n: int) -> float:
    """dS: A = (1 - 2n + eta/n)/4, the exponent of t; AdS: q = eta/(2n) (delta = n)."""
    eta = spectra.scaled_eta(model)
    if model.tau == 1:
        return 0.25 * (1.0 - 2.0 * n + eta / n)
    return eta / (2.0 * n)


def tail_exponent(model: DeformationModel, qn: QuantumNumbers) -> float:
    """Exponent p in |psi|^2 r^2 ~ r^(2p+2) at the dS tail; bound needs p < -3/2."""
    eta = spectra.scaled_eta(model)
    n = qn.n
    return n - 1.0 - eta / (2.0 * n)


def build_state(model: DeformationModel, qn: QuantumNumbers) -> RadialEigenstate:
    """Assemble and normalize the closed-form radial eigenstate.

    The branch root of a quantized level is delta = n; the reduction
    engine's root is cross-checked against it.  The polynomial factor is the
    Rodrigues polynomial of that reduction's sigma and tau: associated Jacobi
    for dS, Romanovski for AdS.  Normalization uses the flat measure
    int |psi|^2 r^2 dr over the radial domain (kept in this one routine so
    the measure convention can be swapped centrally).
    """
    reduction = spectra.reduce_level(model, qn)
    delta_engine = abs(reduction.root_poly[1])
    if abs(delta_engine - qn.n) > 1e-9 * qn.n:
        raise ValidationError(
            f"branch root mismatch: quantized delta = n = {qn.n}, "
            f"engine {delta_engine!r}"
        )

    if model.tau == 1 and tail_exponent(model, qn) >= -1.5:
        raise NonNormalizableError(
            f"dS level (n={qn.n}, l={qn.l}) at lam={model.lam} is not square "
            "integrable (tail exponent above the bound-state threshold)"
        )

    coeffs = poly_coefficients(reduction.sigma, reduction.tau, qn.n_r)
    log_norm_au, sign = _normalize(model, qn, coeffs)
    return RadialEigenstate(model, qn, coeffs, log_norm_au, sign)


def _normalize(model: DeformationModel, qn: QuantumNumbers, poly_coeffs):
    """Flat-measure normalization by an exact Gauss rule; returns (log_norm_au, sign).

    N = int R^2 x dx (lam = lam_au) is a known weight times a polynomial in
    the atom's own variable.  dS, u = 2/(s+1): N = 2^-(2+2n)/lam int
    u^(2l+2) (1-u)^(2A-2) (2-u) Q^2 du with Q = u^n_r y(2/u - 1), exact under
    n_r + 1 Gauss-Jacobi nodes.  AdS, phi = atan(1/s): N = 1/lam int
    e^(-2 q phi) cos(phi) sin(phi)^(2l+2) Z^2 dphi with Z = sin(phi)^n_r
    y(cot phi), by 64-point Gauss-Legendre up to where e^(-2 q phi) has decayed.
    """
    coeffs = np.asarray(poly_coeffs)
    rate = _envelope_rate(model, qn.n)
    with np.errstate(all="ignore"):  # a non-finite sum is reported below
        if model.tau == 1:
            alpha, beta = 2.0 * rate - 2.0, 2.0 * qn.l + 2.0
            u, w = integrate.gauss_jacobi_u(qn.n_r + 1, alpha, beta)
            q = u**qn.n_r * npoly.polyval(2.0 / u - 1.0, coeffs)
            total = float(np.dot(w, (2.0 - u) * q * q))
            # log of 2^-(2+2n) times the weight's mass B(beta+1, alpha+1)
            shift = -(2.0 + 2.0 * qn.n) * math.log(2.0) + math.lgamma(beta + 1.0)
            shift -= sum(math.log(alpha + j) for j in range(1, 2 * qn.l + 4))
            y_end = npoly.polyval(1.0, coeffs)
        else:
            hi = min(0.5 * math.pi, (60.0 + 4.0 * qn.n) / (2.0 * rate))
            x, w = integrate.LEGENDRE_64
            phi = 0.5 * hi * (x + 1.0)
            sin = np.sin(phi)
            z = sin**qn.n_r * npoly.polyval(np.cos(phi) / sin, coeffs)
            log_f = (2.0 * qn.l + 2.0) * np.log(sin) + np.log(np.cos(phi)) - 2.0 * rate * phi
            log_f += 2.0 * np.log(np.abs(z))
            shift = float(np.max(log_f))
            total = 0.5 * hi * float(np.dot(w, np.exp(log_f - shift)))
            y_end = coeffs[0]
    if not (total > 0.0 and math.isfinite(total) and math.isfinite(shift)):
        raise ConvergenceError("normalization sum is not positive and finite")
    log_norm = 0.5 * (shift + math.log(total) - math.log(model.lam_au))
    # phase: positive toward the decaying end (dS tail s -> 1, AdS wall s -> 0)
    return log_norm, -1.0 if y_end < 0.0 else 1.0


def radial_eval(state: RadialEigenstate, r):
    """Radial factor r^(-1/2) R(r) of psi, flat-normalized.

    r and the result are in the model's units (length and length^(-3/2)).
    Scalar in, scalar out; arrays are handled elementwise.  Raises
    DomainError outside the radial domain.
    """
    arr = np.asarray(r, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    model = state.model
    if np.any(arr <= 0.0):
        raise DomainError("radius must be positive")
    if model.tau == -1 and np.any(arr >= state.domain[1]):
        raise DomainError(f"radius must stay inside the wall r < {state.domain[1]}")
    a0, lam = model.units.bohr_radius, model.lam_au
    x = arr / a0
    chi = np.sqrt(1.0 + model.tau * lam * x * x)
    sl = math.sqrt(lam)
    s = chi / (sl * x)
    log_t = None
    if model.tau == 1:
        log_t = _ds_log_t(s, np.log(1.0 / (sl * x * (chi + sl * x)) / (s + 1.0)))
    lg, sg = _log_radial_in_s(state, s, log_t, -0.5 * np.log(x))
    vals = state.sign * sg * np.exp(lg - state.log_norm_au) / a0**1.5
    return float(vals[0]) if scalar else vals


def count_nodes(state: RadialEigenstate) -> int:
    """Nodes of the radial factor: real roots of y in the physical s-interval.

    The envelope has no zeros, so every node is a root of the polynomial
    factor with s > 1 (dS) or s > 0 (AdS).
    """
    roots = np.atleast_1d(npoly.polyroots(np.asarray(state.poly_coeffs)))
    lo = 1.0 if state.model.tau == 1 else 0.0
    return sum(1 for z in roots if abs(z.imag) <= 1e-9 * abs(z) and z.real > lo)


def _legendre_assoc(l: int, m: int, x):
    """Associated Legendre P_l^m (m >= 0) with Condon-Shortley phase."""
    x = np.asarray(x, dtype=float)
    somx2 = np.sqrt(np.maximum(1.0 - x * x, 0.0))
    pmm = np.ones_like(x)
    for k in range(1, m + 1):
        pmm = pmm * (-(2.0 * k - 1.0)) * somx2
    prev, cur = np.zeros_like(x), pmm
    for ll in range(m + 1, l + 1):
        prev, cur = cur, (x * (2.0 * ll - 1.0) * cur - (ll + m - 1.0) * prev) / (ll - m)
    return cur


def sph_harm(l: int, m: int, theta, phi):
    """Orthonormal spherical harmonic Y_l^m(theta, phi), complex."""
    if abs(m) > l:
        raise DomainError(f"|m| must not exceed l, got m={m}, l={l}")
    ma = abs(m)
    norm = math.sqrt(
        (2.0 * l + 1.0) / (4.0 * math.pi) * math.factorial(l - ma) / math.factorial(l + ma)
    )
    pl = _legendre_assoc(l, ma, np.cos(np.asarray(theta, dtype=float)))
    val = norm * pl * np.exp(1j * ma * np.asarray(phi, dtype=float))
    if m < 0:
        val = (-1.0) ** ma * np.conjugate(val)
    return complex(val) if val.ndim == 0 else val


def psi_eval(state: RadialEigenstate, r, theta, phi):
    """Full wavefunction value radial_eval(r) * Y_l^m(theta, phi)."""
    return radial_eval(state, r) * sph_harm(state.qn.l, state.qn.m_l, theta, phi)


def radial_overlap(state_a: RadialEigenstate, state_b: RadialEigenstate, measure="flat"):
    """Inner product of two radial states in a chosen measure.

    "flat" is int psi_a psi_b r^2 dr over the physical domain; "operator"
    int psi_a psi_b r^2/chi dr, in which the radial operator is symmetric;
    "extended" (AdS only) the operator measure over the whole real s line,
    through the wall, in which the closed forms are exactly orthogonal.
    A fixed Gauss rule (``_gauss_pair``; exact for dS) on nodes other than
    build_state's, so a self-overlap still checks log_norm.
    """
    if state_a.model != state_b.model:
        raise ValidationError("states must share one deformation model")
    if measure not in ("flat", "operator", "extended"):
        raise ValidationError(f"unknown measure {measure!r}")
    if measure == "extended" and state_a.model.tau != -1:
        raise ValidationError("the extended measure exists only for AdS")
    return _gauss_pair(state_a, state_b, measure)


_legendre_80 = functools.cache(functools.partial(np.polynomial.legendre.leggauss, 80))


def _gauss_pair(a: RadialEigenstate, b: RadialEigenstate, measure: str) -> float:
    """int R_a R_b x dx (over chi unless flat) from _log_radial_in_s at Gauss nodes.

    dS, u = 2/(s+1): u^beta (1-u)^alpha, beta = l_a + l_b + 2, alpha = A_a +
    A_b - 2 (+ 1/2 over chi), times a polynomial, under one Gauss-Jacobi node
    more than exactness needs (n_r + 2 for a self-pair; _normalize takes
    n_r + 1), the weight moved from the log values to its Beta mass.  AdS,
    s = cot phi: 80-point Gauss-Legendre (_normalize takes 64) up to pi/2 (pi
    for "extended") or where e^(-(q_a + q_b) phi) has decayed.
    """
    tau, lam = a.model.tau, a.model.lam_au
    rates = _envelope_rate(a.model, a.qn.n) + _envelope_rate(b.model, b.qn.n)
    if tau == 1:
        alpha, beta = rates - (2.0 if measure == "flat" else 1.5), a.qn.l + b.qn.l + 2
        u, w = integrate.gauss_jacobi_u((a.qn.n_r + b.qn.n_r + 3) // 2 + 1, alpha, beta)
        s, log_t = 2.0 / u - 1.0, np.log1p(-u)
        # x dx = (2-u) u du / (8 lam (1-u)^2); over chi, 2 sqrt(1-u)/(2-u) for 2-u
        log_jac = (1.0 - beta) * np.log(u) - (2.0 + alpha) * log_t - math.log(8.0 * lam)
        log_jac += np.log(2.0 - u) if measure == "flat" else math.log(2.0) + 0.5 * log_t
        # the Beta mass; the lgamma(alpha + .) form cancels at tiny lam
        log_jac += math.lgamma(beta + 1.0) - sum(math.log(alpha + j) for j in range(1, beta + 2))
    else:
        top = math.pi if measure == "extended" else 0.5 * math.pi
        hi = min(top, (60.0 + 2.0 * (a.qn.n + b.qn.n)) / rates)
        x, w = _legendre_80()
        phi, w = 0.5 * hi * (x + 1.0), 0.5 * hi * w
        s, log_t = np.cos(phi) / np.sin(phi), None
        # x dx = sin(phi) cos(phi) dphi / lam, and chi = cos(phi)
        log_jac = np.log(np.sin(phi) * (np.cos(phi) if measure == "flat" else 1.0)) - math.log(lam)
    la, sa = _log_radial_in_s(a, s, log_t)
    lb, sb = (la, sa) if b is a else _log_radial_in_s(b, s, log_t)
    terms = sa * sb * np.exp(la + lb + log_jac - a.log_norm_au - b.log_norm_au)
    return a.sign * b.sign * float(np.dot(w, terms))
