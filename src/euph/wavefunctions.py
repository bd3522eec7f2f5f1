"""Closed-form radial eigenfunctions and full wavefunction assembly.

The radial factor of psi = r^(-1/2) R(r) Y_lm factorizes as
envelope(s) * polynomial(s) in the scaled variable s = chi/(sqrt(lam) r):
a power-law pair |s-1|^A (s+1)^B with a Jacobi-type polynomial for dS, and
(1+s^2)^p exp(q arctan s) with a Romanovski-type polynomial for AdS.  The
envelope exponents grow like 1/sqrt(lam), so all evaluation runs in log
space with the normalization constant folded into the exponent.  The module
computes in Hartree units on lam_au = lam a0^2 (x = r/a0); only ``radial_eval``
and ``RadialEigenstate.log_norm`` convert to the model's length unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly

from . import integrate, spectra
from .errors import DomainError, NonNormalizableError, ValidationError
from .model import DeformationModel, QuantumNumbers
from .polynomials import Jacobi, Romanovski, poly_coefficients

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
    int |psi|^2 x^2 dx over ``domain`` (upper end inf for dS, the wall radius
    for AdS; in the model's length unit).
    """

    model: DeformationModel
    qn: QuantumNumbers
    level: spectra.EnergyLevel
    params: spectra.ScaledParameters
    family: object
    poly_coeffs: tuple
    domain: tuple
    log_norm_au: float
    sign: float

    @property
    def energy(self) -> float:
        return self.level.energy

    @property
    def log_norm(self) -> float:
        """The same constant for r in the model's length unit: log_norm_au + log a0."""
        return self.log_norm_au + math.log(self.model.units.bohr_radius)


def _log_radial_in_s(state: RadialEigenstate, s, log_t=None, log_prefactor=0.0):
    """(log|R| + log_prefactor, sign) of the unnormalized R factor at s.

    dS callers pass log_t = log((s-1)/(s+1)) formed without cancellation, used
    where s < 3; AdS accepts any real s.
    Both envelopes are measured from the atom's end s -> inf, so no term of
    size eta*log(s) is formed: dS as (1/2 - delta) log(s+1) + A log t with
    t = (s-1)/(s+1), AdS as p log(1+s^2) - q atan2(1, s).
    """
    s = np.asarray(s, dtype=float)
    p = state.params
    rate = _envelope_rate(state.model.tau, p)
    if state.model.tau == 1:
        u = 2.0 / (s + 1.0)
        # the clip keeps log1p finite where the other branch is taken (u -> 1)
        log_t = np.where(u < 0.5, np.log1p(-np.minimum(u, 0.5)), log_t)
        env = (0.5 - p.delta) * np.log(s + 1.0) + rate * log_t
    else:
        env = 0.5 * (0.5 - p.delta) * np.log1p(s * s) - rate * np.arctan2(1.0, s)
    y = npoly.polyval(s, np.asarray(state.poly_coeffs))
    with np.errstate(divide="ignore"):
        logy = np.where(y == 0.0, -np.inf, np.log(np.abs(np.where(y == 0.0, 1.0, y))))
    return env + log_prefactor + logy, np.sign(y)


def _envelope_rate(tau: int, p: spectra.ScaledParameters) -> float:
    """dS: A = (1 - 2 delta + eta/delta)/4, the exponent of t; AdS: q = eta/(2 delta)."""
    if tau == 1:
        return 0.25 * (1.0 - 2.0 * p.delta + p.eta / p.delta)
    return p.eta / (2.0 * p.delta)


def tail_exponent(model: DeformationModel, qn: QuantumNumbers) -> float:
    """Exponent p in |psi|^2 r^2 ~ r^(2p+2) at the dS tail; bound needs p < -3/2."""
    eta = spectra.scaled_eta(model)
    n = qn.n
    return n - 1.0 - eta / (2.0 * n)


def build_state(model: DeformationModel, qn: QuantumNumbers) -> RadialEigenstate:
    """Assemble and normalize the closed-form radial eigenstate.

    The branch root of a quantized level is delta = n; the reduction
    engine's root is cross-checked against it.  The polynomial factor comes
    from the Rodrigues generator of the state's weight.  Normalization uses
    the flat measure int |psi|^2 r^2 dr over the radial domain (kept in this
    one routine so the measure convention can be swapped centrally).
    """
    level = spectra.energy(model, qn)
    params = spectra.ScaledParameters.for_level(model, qn)

    delta_engine = abs(spectra.reduce_level(model, qn).root_poly[1])
    if abs(delta_engine - qn.n) > 1e-9 * qn.n:
        raise ValidationError(
            f"branch root mismatch: quantized delta = n = {qn.n}, "
            f"engine {delta_engine!r}"
        )

    d, eta = params.delta, params.eta
    if model.tau == 1:
        if tail_exponent(model, qn) >= -1.5:
            raise NonNormalizableError(
                f"dS level (n={qn.n}, l={qn.l}) at lam={model.lam} is not square "
                "integrable (tail exponent above the bound-state threshold)"
            )
        family = Jacobi(a=-d + eta / (2.0 * d), b=-d - eta / (2.0 * d))
        domain = (0.0, math.inf)
    else:
        family = Romanovski(alpha=-d, beta=eta / d)
        domain = (0.0, model.wall_radius())

    coeffs = tuple(float(c) for c in poly_coefficients(family, qn.n_r))

    log_norm_au, sign = _normalize(model, qn, params, coeffs)
    return RadialEigenstate(
        model=model, qn=qn, level=level, params=params, family=family,
        poly_coeffs=coeffs, domain=domain, log_norm_au=log_norm_au, sign=sign,
    )


def _normalize(
    model: DeformationModel, qn: QuantumNumbers, params: spectra.ScaledParameters, poly_coeffs
):
    """Flat-measure normalization by an exact Gauss rule; returns (log_norm_au, sign).

    N = int R^2 x dx (lam = lam_au) is a known weight times a polynomial in
    the atom's own variable.  dS, u = 2/(s+1): N = 2^-(2+2 delta)/lam int
    u^(2l+2) (1-u)^(2A-2) (2-u) Q^2 du with Q = u^n_r y(2/u - 1), exact under
    n_r + 1 Gauss-Jacobi nodes.  AdS, phi = atan(1/s): N = 1/lam int
    e^(-2 q phi) cos(phi) sin(phi)^(2l+2) Z^2 dphi with Z = sin(phi)^n_r
    y(cot phi), by 64-point Gauss-Legendre up to where e^(-2 q phi) has decayed.
    """
    coeffs = np.asarray(poly_coeffs)
    rate = _envelope_rate(model.tau, params)
    if model.tau == 1:
        alpha, beta = 2.0 * rate - 2.0, 2.0 * qn.l + 2.0
        u, w = integrate.gauss_jacobi_u(qn.n_r + 1, alpha, beta)
        q = u**qn.n_r * npoly.polyval(2.0 / u - 1.0, coeffs)
        total = float(np.dot(w, (2.0 - u) * q * q))
        # log of 2^-(2+2 delta) times the weight's mass B(beta+1, alpha+1)
        shift = -(2.0 + 2.0 * params.delta) * math.log(2.0) + math.lgamma(beta + 1.0)
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
        raise NonNormalizableError("normalization sum is not positive and finite")
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
    log_t = np.log(1.0 / (sl * x * (chi + sl * x)) / (s + 1.0)) if model.tau == 1 else None
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
    if l == m:
        return pmm
    pmmp1 = x * (2.0 * m + 1.0) * pmm
    if l == m + 1:
        return pmmp1
    for ll in range(m + 2, l + 1):
        pll = (x * (2.0 * ll - 1.0) * pmmp1 - (ll + m - 1.0) * pmm) / (ll - m)
        pmm, pmmp1 = pmmp1, pll
    return pmmp1


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
    if val.ndim == 0 or (np.isscalar(theta) and np.isscalar(phi)):
        return complex(np.asarray(val).reshape(-1)[0]) if np.asarray(val).size == 1 else val
    return val


def psi_eval(state: RadialEigenstate, r, theta, phi):
    """Full wavefunction value radial_eval(r) * Y_l^m(theta, phi)."""
    return radial_eval(state, r) * sph_harm(state.qn.l, state.qn.m_l, theta, phi)


def radial_overlap(state_a: RadialEigenstate, state_b: RadialEigenstate, measure="flat"):
    """Inner product of two radial states in a chosen measure.

    measure = "flat":     int psi_a psi_b r^2 dr over the physical domain;
              "operator": int psi_a psi_b r^2/chi dr (the weight in which the
                          radial operator is symmetric);
              "extended": AdS only, the operator measure continued through the
                          wall (integral over the whole real s line), in which
                          the closed forms are exactly orthogonal.

    Each piece is one ``integrate.quad`` in a variable other than
    build_state's u and phi: x = r/a0 on breakpoints (0.1, 1, 4, 16) n^2 up
    to edge = min(60 n^2, R/2), R the AdS wall; the dS tail as
    x = edge w^(-1/gamma), gamma = -(p_a + p_b + 3) with p the tail exponents
    (one less for the operator measure's 1/chi ~ 1/r), bounded as w -> 0; the
    AdS stretch as x = R (1 - v^2), smooth through the wall; for "extended",
    the continuation s < 0 as s = 1 - 1/w.  Pieces beyond the edge take their
    error goal from the core's size.  The dS tail breaks at w = 2^(-k gamma),
    the images of x = edge 2^k: near the bound-state threshold gamma -> 0 and
    the core-to-tail transition lies in w in [1 - O(gamma), 1].
    """
    if state_a.model != state_b.model:
        raise ValidationError("states must share one deformation model")
    model = state_a.model
    if measure not in ("flat", "operator", "extended"):
        raise ValidationError(f"unknown measure {measure!r}")
    if measure == "extended" and model.tau != -1:
        raise ValidationError("the extended measure exists only for AdS")
    log_norms, lam = state_a.log_norm_au + state_b.log_norm_au, model.lam_au

    def pair(s, log_t, log_weight):
        la, sa = _log_radial_in_s(state_a, s, log_t)
        lb, sb = (la, sa) if state_b is state_a else _log_radial_in_s(state_b, s, log_t)
        return state_a.sign * state_b.sign * sa * sb * np.exp(la + lb + log_weight - log_norms)

    def in_r(s, log_t, log_r, log_jac, log_chi):
        # psi_a psi_b r^2 dr = R_a R_b r dr, over chi outside the flat measure
        return pair(s, log_t, log_r + log_jac - (0.0 if measure == "flat" else log_chi))

    def at_radius(log_r, log_jac):
        # from log r alone, so the dS tail may pass the float range:
        # s^2 = tau + e with e = 1/(lam r^2), chi = s/sqrt(e)
        log_e = -math.log(lam) - 2.0 * log_r
        s = np.sqrt(model.tau + np.exp(log_e))
        log_t = log_e - 2.0 * np.log(s + 1.0) if model.tau == 1 else None
        return in_r(s, log_t, log_r, log_jac, np.log(s) - 0.5 * log_e)

    wall = math.inf if model.tau == 1 else 1.0 / math.sqrt(lam)
    n2 = max(state_a.qn.n, state_b.qn.n) ** 2
    edge = min(60.0 * n2, 0.5 * wall)
    points = [0.0] + [f * n2 for f in (0.1, 1.0, 4.0, 16.0) if f * n2 < edge] + [edge]
    val = integrate.quad(lambda x: at_radius(np.log(x), 0.0), points)[0]
    if model.tau == 1:
        p = tail_exponent(model, state_a.qn) + tail_exponent(model, state_b.qn)
        gamma = -(p + 3.0) if measure == "flat" else -(p + 2.0)

        def tail(w):
            log_r = math.log(edge) - np.log(w) / gamma
            return at_radius(log_r, log_r - np.log(gamma * w))

        # a subnormal cut would put quadrature nodes at w = 0
        cuts = {2.0 ** (-k * gamma) for k in (1, 2, 3, 4, 6, 10, 20, 40)}
        cuts = sorted({0.0, 1.0} | {w for w in cuts if w >= np.finfo(float).tiny})
        return val + integrate.quad(tail, cuts, scale=abs(val))[0]

    def stretch(v):
        u, chi = 1.0 - v * v, v * np.sqrt(2.0 - v * v)
        return in_r(chi / u, None, np.log(wall * u), np.log(2.0 * wall * v), np.log(chi))

    val += integrate.quad(stretch, [0.0, math.sqrt(1.0 - edge / wall)], scale=abs(val))[0]
    if measure == "extended":

        def beyond(w):  # R_a R_b r dr / chi = R_a R_b (1+s^2)^(-3/2) ds / lam
            s = 1.0 - 1.0 / w
            return pair(s, None, -1.5 * np.log1p(s * s) - 2.0 * np.log(w) - math.log(lam))

        val += integrate.quad(beyond, [0.0, 1.0], scale=abs(val))[0]
    return val
