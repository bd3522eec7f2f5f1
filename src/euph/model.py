"""Deformed-algebra model: unit system, deformation parameters, quantum numbers.

The deformed Heisenberg algebra [X_i, P_j] = i*hbar*(delta_ij - tau*lambda*X_i*X_j)
describes deSitter space for tau = +1 and anti-deSitter space for tau = -1.
Everything downstream (spectra, wavefunctions, oracle) consumes the immutable
value types defined here, computes in Hartree units on ``lam_au`` and converts
to the model's units only in its public functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError, UnsupportedModelError, ValidationError

__all__ = [
    "UnitSystem",
    "HARTREE",
    "SI",
    "DeformationModel",
    "QuantumNumbers",
    "s_of_r",
    "r_of_s",
    "uncertainty_floor",
    "min_momentum_uncertainty",
]


@dataclass(frozen=True)
class UnitSystem:
    """Physical constants entering the Coulomb problem.

    ``e2`` is the squared charge in the Gaussian/Hartree convention, i.e. the
    energy*length product k_coulomb * q^2, so the Coulomb energy is -e2/r.
    """

    m: float = 1.0
    hbar: float = 1.0
    e2: float = 1.0
    name: str = "hartree"

    def __post_init__(self):
        for attr in ("m", "hbar", "e2"):
            if not getattr(self, attr) > 0.0:
                raise ValidationError(f"unit constant {attr} must be positive")

    @property
    def bohr_radius(self) -> float:
        return self.hbar**2 / (self.m * self.e2)

    @property
    def hartree_energy(self) -> float:
        return self.m * self.e2**2 / self.hbar**2


HARTREE = UnitSystem()

# CODATA 2018 values.
_M_E = 9.1093837015e-31      # kg
_HBAR = 1.054571817e-34      # J s
_E_CHARGE = 1.602176634e-19  # C
_K_COULOMB = 8.9875517873681764e9  # N m^2 / C^2

SI = UnitSystem(
    m=_M_E,
    hbar=_HBAR,
    e2=_K_COULOMB * _E_CHARGE**2,
    name="si",
)


@dataclass(frozen=True)
class DeformationModel:
    """A concrete (anti-)deSitter deformation.

    tau = +1 selects deSitter, tau = -1 anti-deSitter.  ``lam`` is the
    deformation parameter, an inverse length squared; lam = 0 is rejected
    because the coordinate map s(r) divides by sqrt(lam).  The Bohr limit is
    reached through sequences lam -> 0, never through a stored model.
    """

    tau: int
    lam: float
    units: UnitSystem = field(default=HARTREE)

    def __post_init__(self):
        if self.tau not in (-1, 1):
            raise ValidationError(f"tau must be +1 (dS) or -1 (AdS), got {self.tau}")
        if not self.lam > 0.0:
            raise ValidationError(
                f"deformation parameter must be strictly positive, got {self.lam}"
            )
        if not math.isfinite(self.lam):
            raise ValidationError("deformation parameter must be finite")

    @property
    def lam_au(self) -> float:
        """lam * a0^2: the deformation in Hartree units, the only form the numerics use."""
        return self.lam * self.units.bohr_radius**2

    @property
    def ds_radius(self) -> float:
        """Curvature length a = 1/sqrt(lam)."""
        return 1.0 / math.sqrt(self.lam)

    @property
    def cosmological_constant(self) -> float:
        """Gamma = 3*tau*lam."""
        return 3.0 * self.tau * self.lam

    def chi2(self, r):
        """Metric factor chi^2 = 1 + tau*lam*r^2 (array-safe)."""
        return 1.0 + self.tau * self.lam * r * r

    def wall_radius(self) -> float:
        """AdS only: radius where chi vanishes and the domain ends."""
        if self.tau != -1:
            raise UnsupportedModelError("only the AdS domain has a finite wall")
        return self.ds_radius


@dataclass(frozen=True)
class QuantumNumbers:
    """Hydrogenic quantum numbers (n, l, m_l) with n_r = n - l - 1."""

    n: int
    l: int
    m_l: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"principal quantum number must be >= 1, got {self.n}")
        if not 0 <= self.l <= self.n - 1:
            raise ValidationError(f"l must satisfy 0 <= l <= n-1, got l={self.l}, n={self.n}")
        if abs(self.m_l) > self.l:
            raise ValidationError(f"|m_l| must not exceed l, got m_l={self.m_l}, l={self.l}")

    @property
    def n_r(self) -> int:
        return self.n - self.l - 1


def s_of_r(model: DeformationModel, r: float) -> float:
    """Map the radius to the hypergeometric variable s = chi/(sqrt(lam)*r).

    Strictly decreasing on the radial domain.  For dS the range is (1, inf);
    for AdS, defined on 0 < r < 1/sqrt(lam) with range (0, inf).
    """
    if not r > 0.0:
        raise DomainError(f"radius must be positive, got {r}")
    if model.tau == -1 and r >= model.ds_radius:
        raise DomainError(
            f"AdS radius must lie inside the wall r < {model.ds_radius!r}, got {r}"
        )
    chi2 = model.chi2(r)
    return math.sqrt(chi2) / (math.sqrt(model.lam) * r)


def r_of_s(model: DeformationModel, s: float) -> float:
    """Inverse of ``s_of_r``: r = 1/sqrt(lam*(s^2 - tau))."""
    if model.tau == 1 and s <= 1.0:
        raise DomainError(f"dS requires s > 1, got {s}")
    if model.tau == -1 and s <= 0.0:
        raise DomainError(f"AdS requires s > 0, got {s}")
    return 1.0 / math.sqrt(model.lam * (s * s - model.tau))


def uncertainty_floor(model: DeformationModel, dx: float) -> float:
    """Smallest momentum spread allowed at position spread dx.

    Returns (hbar/2) * (1/dx - tau*lam*dx).  For dS this crosses zero at
    dx = 1/sqrt(lam), beyond which the relation imposes no constraint; the
    raw (negative) value is returned so callers can plot the boundary curve.
    """
    if not dx > 0.0:
        raise DomainError(f"position spread must be positive, got {dx}")
    return 0.5 * model.units.hbar * (1.0 / dx - model.tau * model.lam * dx)


def min_momentum_uncertainty(model: DeformationModel) -> float:
    """Global minimum hbar*sqrt(lam) of the AdS momentum spread.

    The dS relation has no nonzero minimum, so tau = +1 is rejected.
    """
    if model.tau != -1:
        raise UnsupportedModelError(
            "a nonzero minimal momentum uncertainty exists only in the AdS model"
        )
    return model.units.hbar * math.sqrt(model.lam)
