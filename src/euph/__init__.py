"""Hydrogen bound states under deSitter / anti-deSitter deformed commutators.

Library layout:

- ``model``: deformation algebra, unit systems, coordinate map, uncertainty floor
- ``nu_engine``: generic reduction of hypergeometric-type ODEs (Nikiforov-Uvarov)
- ``polynomials``: a state's Jacobi (dS) or Romanovski (AdS) polynomial from its
  reduction's sigma and tau
- ``integrate``: the one quadrature module (adaptive Gauss-Kronrod, Gauss rules)
- ``spectra``: closed-form energies, critical and inversion deformations, bounds
- ``wavefunctions``: radial eigenfunctions, nodes, normalization, spherical harmonics
- ``oracle``: independent Lagrange-mesh spectral eigensolver and crosscheck sweeps
- ``cli``: deterministic CSV/JSON exports of every table and figure dataset
"""

from .model import (
    HARTREE,
    SI,
    DeformationModel,
    QuantumNumbers,
    UnitSystem,
    min_momentum_uncertainty,
    r_of_s,
    s_of_r,
    uncertainty_floor,
)
from .spectra import (
    EnergyLevel,
    ScaledParameters,
    energy,
    lambda_critical,
    lambda_inversion,
    make_tables,
    spectroscopic_bound,
    transition_ratio,
)
__version__ = "0.1.0"

__all__ = [
    "HARTREE",
    "SI",
    "DeformationModel",
    "QuantumNumbers",
    "UnitSystem",
    "min_momentum_uncertainty",
    "r_of_s",
    "s_of_r",
    "uncertainty_floor",
    "EnergyLevel",
    "ScaledParameters",
    "energy",
    "lambda_critical",
    "lambda_inversion",
    "make_tables",
    "spectroscopic_bound",
    "transition_ratio",
    "RadialEigenstate",
    "build_state",
    "count_nodes",
    "psi_eval",
    "radial_eval",
    "__version__",
]

# Re-exported from ``wavefunctions`` on first access (PEP 562), so importing
# the package for the closed forms loads no numpy.
_WAVEFUNCTION_NAMES = frozenset(
    {"RadialEigenstate", "build_state", "count_nodes", "psi_eval", "radial_eval"}
)


def __getattr__(name):
    if name in _WAVEFUNCTION_NAMES:
        from . import wavefunctions

        value = getattr(wavefunctions, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _WAVEFUNCTION_NAMES)
