"""Closed-form radial eigenfunctions and full wavefunction assembly.

The radial factor of psi = r^(-1/2) R(r) Y_lm factorizes as
envelope(s) * polynomial(s) in the scaled variable s = chi/(sqrt(lam) r):
a power-law pair |s-1|^A (s+1)^B with a Jacobi-type polynomial for dS, and
(1+s^2)^p exp(q arctan s) with a Romanovski-type polynomial for AdS.  The
envelope exponents grow like 1/sqrt(lam), so all evaluation runs in log
space with the normalization constant folded into the exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import numpy.polynomial.polynomial as npoly
from scipy import integrate

from . import spectra
from .errors import DomainError, NonNormalizableError, ValidationError
from .model import DeformationModel, QuantumNumbers, r_of_s
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

    ``log_norm`` makes radial_eval = sign * y(s) * exp(log_envelope - log_norm)
    a unit-norm function under the flat measure int |psi|^2 r^2 dr over
    ``domain`` (upper end inf for dS, the wall radius for AdS).
    """

    model: DeformationModel
    qn: QuantumNumbers
    level: spectra.EnergyLevel
    params: spectra.ScaledParameters
    family: object
    poly_coeffs: tuple
    domain: tuple
    log_norm: float
    sign: float

    @property
    def energy(self) -> float:
        return self.level.energy

    @property
    def norm_constant(self) -> float:
        """exp(-log_norm); may overflow or underflow to inf/0 for small lam."""
        try:
            return self.sign * math.exp(-self.log_norm)
        except OverflowError:
            return self.sign * math.inf


def _log_radial_in_s(state: RadialEigenstate, s, s_minus_1=None, log_prefactor=0.0):
    """(log|R| + log_prefactor, sign) of the unnormalized R factor at s.

    dS callers pass the cancellation-free s - 1; AdS accepts any real s.
    """
    s = np.asarray(s, dtype=float)
    p = state.params
    if state.model.tau == 1:
        a_exp = 0.25 * (1.0 - 2.0 * p.delta + p.eta / p.delta)
        b_exp = 0.25 * (1.0 - 2.0 * p.delta - p.eta / p.delta)
        env = a_exp * np.log(s_minus_1) + b_exp * np.log(s + 1.0)
    else:
        p_exp = 0.5 * (0.5 - p.delta)
        env = p_exp * np.log1p(s * s) + (p.eta / (2.0 * p.delta)) * np.arctan(s)
    y = npoly.polyval(s, np.asarray(state.poly_coeffs))
    with np.errstate(divide="ignore"):
        logy = np.where(y == 0.0, -np.inf, np.log(np.abs(np.where(y == 0.0, 1.0, y))))
    return env + log_prefactor + logy, np.sign(y)


def _raw_log_and_sign(state: RadialEigenstate, r):
    """(log|value|, sign) of the unnormalized radial factor r^(-1/2) R."""
    model = state.model
    r = np.asarray(r, dtype=float)
    chi = np.sqrt(model.chi2(r))
    sl = math.sqrt(model.lam)
    s = chi / (sl * r)
    s_minus_1 = 1.0 / (sl * r * (chi + sl * r)) if model.tau == 1 else None
    return _log_radial_in_s(state, s, s_minus_1, -0.5 * np.log(r))


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

    red = spectra.reduce_level(model, qn)
    delta_engine = abs(red.root_poly[1]) if len(red.root_poly) > 1 else 0.0
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

    probe = RadialEigenstate(
        model=model,
        qn=qn,
        level=level,
        params=params,
        family=family,
        poly_coeffs=coeffs,
        domain=domain,
        log_norm=0.0,
        sign=1.0,
    )
    log_norm, sign = _normalize(probe)
    return replace(probe, log_norm=log_norm, sign=sign)


def _radial_scale(state: RadialEigenstate) -> float:
    """Characteristic radius (Bohr-like size) used for probe grids."""
    a0 = state.model.units.bohr_radius
    return max(2.0 * state.qn.n**2 * a0, a0)


def _normalize(probe: RadialEigenstate):
    """Flat-measure normalization in log space; returns (log_norm, sign)."""
    model = probe.model
    scale = _radial_scale(probe)
    if model.tau == -1:
        hi = probe.domain[1]
        r_probe = np.linspace(hi * 1e-6, hi * (1.0 - 1e-9), 3001)
    else:
        hi = 50.0 * scale
        r_probe = np.geomspace(scale * 1e-6, hi, 3001)
    log_raw, _ = _raw_log_and_sign(probe, r_probe)
    shift = float(np.max(log_raw + np.log(np.maximum(r_probe, 1e-300))))

    def integrand(r):
        lg, sg = _raw_log_and_sign(probe, np.asarray([r]))
        val = sg[0] * math.exp(min(lg[0] - shift, 700.0))
        return val * val * r * r

    pts_inner = [probe.domain[1] * f for f in (1e-4, 1e-2, 0.1, 0.5, 0.9)] if (
        model.tau == -1
    ) else [scale * f for f in (1e-4, 1e-2, 0.1, 1.0, 5.0, 20.0)]
    upper = probe.domain[1] if model.tau == -1 else math.inf
    total = 0.0
    edges = [0.0] + sorted(p for p in pts_inner if p < (upper if math.isfinite(upper) else 1e9))
    if math.isfinite(upper):
        edges.append(upper)
    else:
        edges.append(60.0 * scale)
    for a, b in zip(edges[:-1], edges[1:]):
        part, _ = integrate.quad(integrand, a, b, epsabs=1e-13, epsrel=1e-12, limit=400)
        total += part
    if not math.isfinite(upper):
        tail, _ = integrate.quad(
            integrand, edges[-1], math.inf, epsabs=1e-13, epsrel=1e-12, limit=400
        )
        total += tail
    if not total > 0.0 or not math.isfinite(total):
        raise NonNormalizableError("normalization integral did not converge")
    log_norm = shift + 0.5 * math.log(total)

    # phase: positive toward the decaying end (dS tail / AdS wall side)
    if model.tau == 1:
        r_conv = 8.0 * scale
    else:
        r_conv = probe.domain[1] * (1.0 - 1e-6)
    _, sg = _raw_log_and_sign(probe, np.asarray([r_conv]))
    sign = float(sg[0]) if sg[0] != 0.0 else 1.0
    return log_norm, sign


def radial_eval(state: RadialEigenstate, r):
    """Radial factor r^(-1/2) R(r) of psi, flat-normalized.

    Scalar in, scalar out; arrays are handled elementwise.  Raises
    DomainError outside the radial domain.
    """
    arr = np.asarray(r, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr <= 0.0):
        raise DomainError("radius must be positive")
    if state.model.tau == -1 and np.any(arr >= state.domain[1]):
        raise DomainError(f"radius must stay inside the wall r < {state.domain[1]}")
    lg, sg = _raw_log_and_sign(state, arr)
    vals = state.sign * sg * np.exp(lg - state.log_norm)
    return float(vals[0]) if scalar else vals


def count_nodes(state: RadialEigenstate, samples: int = 4000) -> int:
    """Strict sign changes of radial_eval on a uniform interior grid.

    The window covers the inner 99.9 percent of the AdS domain; for dS the
    operationally equivalent window is twice the outermost polynomial root
    (all sign changes come from the polynomial factor).
    """
    if samples < 1000:
        raise ValidationError("node counting needs at least 1000 samples")
    if state.model.tau == -1:
        hi = state.domain[1]
        lo, hi = 5e-4 * hi, (1.0 - 5e-4) * hi
    else:
        roots = npoly.polyroots(np.asarray(state.poly_coeffs))
        real = [float(z.real) for z in np.atleast_1d(roots) if abs(z.imag) < 1e-9 and z.real > 1.0]
        r_nodes = [r_of_s(state.model, s) for s in real]
        hi = 2.0 * max(r_nodes, default=0.0) + 4.0 * _radial_scale(state)
        lo = 5e-4 * hi
    grid = np.linspace(lo, hi, samples)
    vals = radial_eval(state, grid)
    signs = np.sign(vals)
    keep = signs != 0.0
    signs = signs[keep]
    return int(np.sum(signs[1:] * signs[:-1] < 0.0))


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
    """
    if state_a.model != state_b.model:
        raise ValidationError("states must share one deformation model")
    model = state_a.model

    if measure == "extended":
        if model.tau != -1:
            raise ValidationError("the extended measure exists only for AdS")

        def integrand_s(s):
            la, sa = _log_radial_in_s(state_a, np.asarray([s]))
            lb, sb = _log_radial_in_s(state_b, np.asarray([s]))
            lg = la[0] + lb[0] - state_a.log_norm - state_b.log_norm
            pref = state_a.sign * state_b.sign * sa[0] * sb[0]
            return pref * math.exp(min(lg, 700.0)) * (1.0 + s * s) ** -1.5

        val, _ = integrate.quad(
            integrand_s, -np.inf, np.inf, epsabs=1e-12, epsrel=1e-11, limit=400
        )
        return val / model.lam

    if measure not in ("flat", "operator"):
        raise ValidationError(f"unknown measure {measure!r}")

    def integrand(r):
        v = radial_eval(state_a, r) * radial_eval(state_b, r) * r * r
        if measure == "operator":
            v = v / math.sqrt(model.chi2(r))
        return v

    hi = state_a.domain[1]
    if math.isfinite(hi):
        val, _ = integrate.quad(
            integrand, 0.0, hi, epsabs=1e-12, epsrel=1e-11, limit=400,
            points=[hi * f for f in (1e-3, 0.1, 0.5, 0.9, 0.99)],
        )
    else:
        scale = max(_radial_scale(state_a), _radial_scale(state_b))
        val, _ = integrate.quad(
            integrand, 0.0, 60.0 * scale, epsabs=1e-12, epsrel=1e-11, limit=400
        )
        tail, _ = integrate.quad(
            integrand, 60.0 * scale, math.inf, epsabs=1e-12, epsrel=1e-11, limit=400
        )
        val += tail
    return val
