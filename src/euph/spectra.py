"""Closed-form bound-state energies of deformed hydrogen and derived tables.

For deformation tau*lam the levels are, in Hartree units on lam_au = lam a0^2,

    E(n, l) / E_h = -1 / (2 n^2) - tau * (lam_au / 2) * (n^2 - l(l+1) - 1)

so the n = 1 level is untouched, dS (tau = +1) binds levels deeper with
growing lam, and AdS (tau = -1) lifts them until ionization.  The module also
exposes the hypergeometric ODE family in the scaled variable s, through which
the same energies are recovered by the reduction engine (an independent route
used by the verification suite).

The scaled spectral parameter used throughout is the constant term of the
scaled ODE, eps = 2 E / (lam_au E_h) - tau/2.  Everything is computed in
Hartree units; a public function scales an energy by E_h only on its way out.
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
    "energy_via_nu",
    "reduce_level",
]


def scaled_eta(model: DeformationModel) -> float:
    """Dimensionless Coulomb strength eta = 2 / sqrt(lam_au)."""
    return 2.0 / math.sqrt(model.lam_au)


def epsilon_of_energy(model: DeformationModel, e: float) -> float:
    """Scaled spectral parameter eps = 2 E / (lam_au E_h) - tau/2."""
    return 2.0 * (e / model.units.hartree_energy) / model.lam_au - 0.5 * model.tau


def energy_of_epsilon(model: DeformationModel, eps: float) -> float:
    """E = E_h (lam_au / 2)(eps + tau/2), the inverse of epsilon_of_energy."""
    return (model.lam_au / 2.0) * (eps + 0.5 * model.tau) * model.units.hartree_energy


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
    bohr = -1.0 / (2.0 * qn.n**2)
    correction = -model.tau * (model.lam_au / 2.0) * _shift_factor(qn)
    e_h = model.units.hartree_energy
    return EnergyLevel(
        qn=qn, energy=(bohr + correction) * e_h, model=model, correction=correction * e_h
    )


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
    value_derived: float  # -3/4 - 3   * (a0 dP / hbar)^2
    value_convention: float  # -3/4 - 3/2 * (a0 dP / hbar)^2
    coefficient_derived: float = 3.0
    coefficient_convention: float = 1.5


def transition_ratio(model: DeformationModel) -> TransitionRatio:
    """AdS 2s-1s transition ratio from raw energies plus closed forms."""
    if model.tau != -1:
        raise UnsupportedModelError("the transition-ratio bound applies to the AdS model")
    e1 = energy(model, QuantumNumbers(1, 0)).energy
    e2 = energy(model, QuantumNumbers(2, 0)).energy
    ratio = (e2 - e1) / e1
    dp = math.sqrt(model.lam_au)  # hbar sqrt(lam) in units of hbar/a0
    return TransitionRatio(
        ratio=ratio,
        min_momentum=dp * model.units.hbar / model.units.bohr_radius,
        value_derived=-0.75 - 3.0 * dp**2,
        value_convention=-0.75 - 1.5 * dp**2,
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
    quoted convention and C = 3 as derived from the level shift.  A relative
    line precision lies in [0, 1); anything else raises ValidationError.
    """
    if not 0.0 <= precision < 1.0:
        raise ValidationError(f"precision must lie in [0, 1), got {precision}")
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
# ``nu_engine`` is imported inside the functions below: its import runs about
# 2 ms of dataclass set-up (``python -X importtime``), which every command
# that prints closed forms only would otherwise pay.


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


def _epsilon_closed(model: DeformationModel, l: int, n: int) -> float:
    """Quantized eps written through delta = n: eps = -tau(n^2 - A) - eta^2/(4n^2)."""
    a = _centrifugal(l)
    eta = scaled_eta(model)
    return -model.tau * (n * n - a) - eta * eta / (4.0 * n * n)


def energy_via_nu(model: DeformationModel, qn: QuantumNumbers) -> float:
    """Level energy from the reduction engine alone, with no closed-form input.

    Regularity at the origin (s -> inf) picks the branch, and the level is
    the constant term eps that makes the under-root quadratic a square, in
    one step from the ODE at eps = 0 (``nu_engine.solve_level``).
    """
    from . import nu_engine as nu

    return energy_of_epsilon(model, nu.solve_level(hydrogen_ode(model, qn.l, 0.0), qn.n_r))


def reduce_level(model: DeformationModel, qn: QuantumNumbers) -> nu.NUReduction:
    """Reduction of the scaled ODE at the closed-form spectral parameter.

    Raises NotAPerfectSquareError when the closed form is not a level of the
    regular branch.
    """
    from . import nu_engine as nu

    eps = _epsilon_closed(model, qn.l, qn.n)
    return nu.reduce(hydrogen_ode(model, qn.l, eps), qn.n_r)
