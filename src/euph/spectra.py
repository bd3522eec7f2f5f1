"""Closed-form bound-state energies of deformed hydrogen and derived tables.

For deformation tau*lam the levels are

    E(n, l) = -m e2^2 / (2 hbar^2 n^2) - tau * (lam hbar^2 / 2m) * (n^2 - l(l+1) - 1)

so the n = 1 level is untouched, dS (tau = +1) binds levels deeper with
growing lam, and AdS (tau = -1) lifts them until ionization.  The module also
exposes the hypergeometric ODE family in the scaled variable s, through which
the same energies are recovered by the reduction engine (an independent route
used by the verification suite).

The scaled spectral parameter used throughout is the constant term of the
scaled ODE, eps = 2 m E / (lam hbar^2) - tau/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import (
    UndefinedCriticalError,
    UndefinedInversionError,
    UnsupportedModelError,
    ValidationError,
)
from .model import HARTREE, DeformationModel, QuantumNumbers, UnitSystem

if TYPE_CHECKING:
    from . import nu_engine as nu

__all__ = [
    "ScaledParameters",
    "EnergyLevel",
    "TransitionRatio",
    "SpectroscopicBound",
    "energy",
    "epsilon_of_energy",
    "energy_of_epsilon",
    "lambda_critical",
    "lambda_inversion",
    "make_tables",
    "transition_ratio",
    "spectroscopic_bound",
    "hydrogen_ode",
    "hydrogen_branch",
    "energy_via_nu",
    "reduce_level",
]


def scaled_eta(model: DeformationModel) -> float:
    """Dimensionless Coulomb strength eta = 2 m e2 / (hbar^2 sqrt(lam))."""
    u = model.units
    return 2.0 * u.m * u.e2 / (u.hbar**2 * math.sqrt(model.lam))


def epsilon_of_energy(model: DeformationModel, e: float) -> float:
    """Scaled spectral parameter eps = 2 m E / (lam hbar^2) - tau/2."""
    u = model.units
    return 2.0 * u.m * e / (model.lam * u.hbar**2) - 0.5 * model.tau


def energy_of_epsilon(model: DeformationModel, eps: float) -> float:
    u = model.units
    return (model.lam * u.hbar**2 / (2.0 * u.m)) * (eps + 0.5 * model.tau)


def _centrifugal(l: int) -> float:
    """A = 1/4 + (l + 1/2)^2."""
    return 0.25 + (l + 0.5) ** 2


@dataclass(frozen=True)
class ScaledParameters:
    """Scaled quantities of one quantized level.

    The quantization condition fixes the branch root at ``delta = n`` for both
    signs of the deformation, so ``epsilon`` is the closed form written
    through it.  The reduction constant k of the level is
    ``reduce_level(model, qn).k``.
    """

    eta: float
    epsilon: float
    delta: float

    @classmethod
    def for_level(cls, model: DeformationModel, qn: QuantumNumbers) -> "ScaledParameters":
        return cls(
            eta=scaled_eta(model),
            epsilon=_epsilon_closed(model, qn.l, qn.n),
            delta=float(qn.n),
        )


@dataclass(frozen=True)
class EnergyLevel:
    """A quantized level split into the Bohr term and the deformation shift."""

    qn: QuantumNumbers
    energy: float
    model: DeformationModel
    correction: float

    @property
    def bohr_term(self) -> float:
        return self.energy - self.correction


def _shift_factor(qn: QuantumNumbers) -> int:
    return qn.n**2 - qn.l * (qn.l + 1) - 1


def energy(model: DeformationModel, qn: QuantumNumbers) -> EnergyLevel:
    """Closed-form level energy; one signed formula covers dS and AdS."""
    u = model.units
    bohr = -u.m * u.e2**2 / (2.0 * u.hbar**2 * qn.n**2)
    correction = -model.tau * (model.lam * u.hbar**2 / (2.0 * u.m)) * _shift_factor(qn)
    return EnergyLevel(qn=qn, energy=bohr + correction, model=model, correction=correction)


def lambda_critical(qn: QuantumNumbers) -> float:
    """AdS deformation at which the level reaches E = 0 (Hartree units)."""
    d = _shift_factor(qn)
    if d <= 0:
        raise UndefinedCriticalError(
            f"level (n={qn.n}, l={qn.l}) has no ionization point (shift factor {d})"
        )
    return 1.0 / (qn.n**2 * d)


def lambda_inversion(qn: QuantumNumbers) -> float:
    """dS deformation at which the level crosses the ground level (Hartree)."""
    d = _shift_factor(qn)
    if qn.n < 2 or d <= 0:
        raise UndefinedInversionError(
            f"level (n={qn.n}, l={qn.l}) never crosses the ground level"
        )
    return (qn.n**2 - 1) / (qn.n**2 * d)


def make_tables(n_max: int):
    """Critical and inversion deformation grids over n in [2, n_max].

    Returns (critical, inversion): each a list of rows, one per n, holding
    entries for l = 0 .. n_max-1 with None where undefined or absent.
    Values are exact; display code rounds half-even to 4 decimals.
    """
    if not 2 <= n_max <= 20:
        raise ValidationError(f"n_max must lie in [2, 20], got {n_max}")
    crit, inv = [], []
    for n in range(2, n_max + 1):
        row_c, row_f = [], []
        for l in range(n_max):
            if l > n - 1:
                row_c.append(None)
                row_f.append(None)
                continue
            qn = QuantumNumbers(n=n, l=l)
            try:
                row_c.append(lambda_critical(qn))
            except UndefinedCriticalError:
                row_c.append(None)
            try:
                row_f.append(lambda_inversion(qn))
            except UndefinedInversionError:
                row_f.append(None)
        crit.append(row_c)
        inv.append(row_f)
    return crit, inv


@dataclass(frozen=True)
class TransitionRatio:
    """Relative 2s-1s shift (E_2s - E_1s)/E_1s and its closed forms.

    The exact expansion in the minimal momentum spread carries coefficient 3;
    the commonly quoted convention uses 3/2.  Both are reported, the exact one
    agreeing with ``ratio`` to machine precision.
    """

    ratio: float
    min_momentum: float
    value_derived: float  # -3/4 - 3   * (hbar/(m e2))^2 * dP^2
    value_convention: float  # -3/4 - 3/2 * (hbar/(m e2))^2 * dP^2
    coefficient_derived: float = 3.0
    coefficient_convention: float = 1.5


def transition_ratio(model: DeformationModel) -> TransitionRatio:
    """AdS 2s-1s transition ratio from raw energies plus closed forms."""
    if model.tau != -1:
        raise UnsupportedModelError("the transition-ratio bound applies to the AdS model")
    u = model.units
    e1 = energy(model, QuantumNumbers(1, 0)).energy
    e2 = energy(model, QuantumNumbers(2, 0)).energy
    ratio = (e2 - e1) / e1
    dp = u.hbar * math.sqrt(model.lam)
    unit_shift = (u.hbar / (u.m * u.e2)) ** 2 * dp**2
    return TransitionRatio(
        ratio=ratio,
        min_momentum=dp,
        value_derived=-0.75 - 3.0 * unit_shift,
        value_convention=-0.75 - 1.5 * unit_shift,
    )


@dataclass(frozen=True)
class SpectroscopicBound:
    """Minimal-momentum-spread bound implied by a relative line precision."""

    precision: float
    dp_min_convention: float  # coefficient 3/2
    dp_min_derived: float  # coefficient 3
    lambda_convention: float
    lambda_derived: float


def spectroscopic_bound(precision: float, units: UnitSystem = HARTREE) -> SpectroscopicBound:
    """Upper bounds on the minimal momentum spread and on the deformation.

    Attributes the whole relative error of the 2s-1s line to the deformation
    shift: precision = C * (hbar/(m e2))^2 * dP_min^2 with C = 3/2 in the
    quoted convention and C = 3 as derived from the level shift.
    """
    if precision < 0.0:
        raise ValidationError("precision must be nonnegative")
    p_atomic = units.m * units.e2 / units.hbar  # hbar / bohr_radius
    dp_conv = math.sqrt(2.0 * precision / 3.0) * p_atomic
    dp_der = math.sqrt(precision / 3.0) * p_atomic
    return SpectroscopicBound(
        precision=precision,
        dp_min_convention=dp_conv,
        dp_min_derived=dp_der,
        lambda_convention=(dp_conv / units.hbar) ** 2,
        lambda_derived=(dp_der / units.hbar) ** 2,
    )


# ---------------------------------------------------------------------------
# Route through the reduction engine (independent of the closed forms above).
# ``nu_engine`` needs numpy, so it is imported inside the functions below and
# the closed forms above load with the standard library alone.


def hydrogen_ode(model: DeformationModel, l: int, eps: float) -> nu.HypergeometricODE:
    """Scaled radial ODE coefficients at spectral parameter eps.

    sigma = 1 - tau s^2, tau_tilde = -tau s,
    sigma_tilde = -(l + 1/2)^2 s^2 + eta s + eps.
    """
    from . import nu_engine as nu

    t = float(model.tau)
    return nu.HypergeometricODE(
        sigma=(1.0, 0.0, -t),
        tau_tilde=(0.0, -t),
        sigma_tilde=(eps, scaled_eta(model), -((l + 0.5) ** 2)),
    )


def hydrogen_branch(model: DeformationModel, n: int):
    """Reduction branch carrying the physical bound states.

    dS uses the plus sign; the larger k root while n^2 <= eta/2, the smaller
    one beyond (the two roots exchange the physical delta there).  AdS always
    uses the larger k root with the minus sign (the smaller root has no real
    branch).
    """
    if model.tau == 1:
        k_index = 0 if n * n <= 0.5 * scaled_eta(model) else 1
        return (k_index, +1)
    return (0, -1)


def _epsilon_closed(model: DeformationModel, l: int, n: int) -> float:
    """Quantized eps written through delta = n: eps = -tau(n^2 - A) - eta^2/(4n^2)."""
    a = _centrifugal(l)
    eta = scaled_eta(model)
    return -model.tau * (n * n - a) - eta * eta / (4.0 * n * n)


def energy_via_nu(model: DeformationModel, qn: QuantumNumbers) -> float:
    """Level energy recovered by root-finding on the reduction residual.

    Brackets are centered on the closed-form value (plus/minus 50 percent),
    clipped away from the sibling residual root at delta = n_r - l and, for
    dS, from the edge where the k roots turn complex.
    """
    from . import nu_engine as nu

    eps_star = _epsilon_closed(model, qn.l, qn.n)
    width = 0.5 * abs(eps_star)
    lo, hi = eps_star - width, eps_star + width

    spurious = qn.n_r - qn.l
    if spurious >= 1:
        eps_sp = _epsilon_closed(model, qn.l, spurious)
        if lo < eps_sp < eps_star:
            lo = 0.5 * (eps_sp + eps_star)
        elif eps_star < eps_sp < hi:
            hi = 0.5 * (eps_sp + eps_star)

    if model.tau == 1:
        edge = _centrifugal(qn.l) - scaled_eta(model)
        hi = min(hi, edge - 1e-9 * max(1.0, abs(edge)))

    eps_root = nu.solve_level(
        lambda e: hydrogen_ode(model, qn.l, e),
        qn.n_r,
        (lo, hi),
        branch=hydrogen_branch(model, qn.n),
    )
    return energy_of_epsilon(model, eps_root)


def reduce_level(model: DeformationModel, qn: QuantumNumbers) -> nu.NUReduction:
    """Reduction of the scaled ODE at the quantized spectral parameter."""
    from . import nu_engine as nu

    eps = _epsilon_closed(model, qn.l, qn.n)
    return nu.reduce(
        hydrogen_ode(model, qn.l, eps), branch=hydrogen_branch(model, qn.n)
    )
