"""Independent finite-difference verification of spectra and algebra.

The radial problem is discretized as a symmetric generalized tridiagonal
eigenproblem and solved with LAPACK; closed-form energies are never used in
the discretization, so agreement is a genuine cross-check.

dS (and optionally AdS) runs on the radial grid: the substitution
u = sqrt(r*chi) R removes the first derivative and yields
A u = kappa B u with B = diag(1/chi^2) and kappa = 2mE/hbar^2 - tau*lam/2.

For AdS the default discretization works in the angle t = arctan s, the
coordinate in which the radial equation stays regular at the wall chi = 0
and continues through it; decay is imposed at both images of r -> 0.  This
is the unique boundary treatment whose spectrum reproduces the polynomial
closed forms even for wall-squeezed states (a hard Dirichlet box just inside
the wall, available as ads_bc="box", agrees only for deep states).

The commutator check applies the one-dimensional position representation
X = x/chi, P = -i hbar chi d/dx with high-order stencils to smooth test
functions; the identity [X, P] = i hbar (1 - tau lam X^2) is exact, so the
returned residual measures pure discretization error.

crosscheck_report sweeps both models over a list of deformations in one
serial loop, one finite-difference solve per (model, lambda, l) block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from . import spectra, wavefunctions
from .errors import ConvergenceError, EuphError, NonNormalizableError, ValidationError
from .model import DeformationModel, QuantumNumbers, UnitSystem, HARTREE

__all__ = [
    "GridSpec",
    "OracleSpectrum",
    "fd_spectrum",
    "commutator_residual",
    "crosscheck_report",
    "CrosscheckReport",
]


@dataclass(frozen=True)
class GridSpec:
    """Discretization request. r_min / r_max default to model-aware choices."""

    n_points: int = 4000
    r_min: float = None
    r_max: float = None

    def __post_init__(self):
        if self.n_points < 200:
            raise ValidationError("need at least 200 grid points")
        if self.r_min is not None and self.r_max is not None:
            if not 0.0 < self.r_min < self.r_max:
                raise ValidationError("grid needs 0 < r_min < r_max")


@dataclass(frozen=True)
class OracleSpectrum:
    """Lowest eigenpairs of one (model, l) radial problem."""

    model: DeformationModel
    l: int
    eigenvalues: tuple  # energies, ascending
    eigenvectors: np.ndarray  # row k: grid samples of state k
    grid: np.ndarray  # sample coordinates (radius, or angle for AdS natural)
    coordinate: str  # "r" or "t"
    convergence_estimate: tuple  # per-state Richardson ratios (nan if skipped)
    statuses: tuple  # per-state "converged" | "above-threshold"
    kappas: tuple = field(default=())

    def node_counts(self, tol=1e-8):
        out = []
        for row in self.eigenvectors:
            amp = np.max(np.abs(row))
            signs = np.sign(row[np.abs(row) > tol * amp])
            out.append(int(np.sum(signs[1:] * signs[:-1] < 0.0)))
        return out


def _generalized_tridiag_eigh(diag_a, off_a, diag_b, count):
    """Lowest eigenpairs of A u = kappa B u, A tridiagonal, B diagonal > 0."""
    scale = 1.0 / np.sqrt(diag_b)
    dd = diag_a * scale * scale
    ee = off_a * scale[:-1] * scale[1:]
    vals, vecs = eigh_tridiagonal(dd, ee, select="i", select_range=(0, count - 1))
    u = vecs * scale[:, None]
    u = u / np.max(np.abs(u), axis=0)
    return vals, u.T


def _ds_effective_potential(model, l, r):
    """Potential of the first-derivative-free radial form (u variable)."""
    u = model.units
    t, lam = model.tau, model.lam
    chi2 = model.chi2(r)
    chi = np.sqrt(chi2)
    coul = 2.0 * u.m * u.e2 / u.hbar**2
    return (
        -l * (l + 1.0) * chi2 / r**2
        + coul * chi / r
        - t * lam / 2.0
        + lam * (lam * r * r - 2.0 * t) / (4.0 * chi2)
    )


def _default_r_max(model, l, count):
    a0 = model.units.bohr_radius
    n_top = count + l
    if model.tau == -1:
        return model.wall_radius()
    return max((4.0 * n_top * n_top + 20.0) * a0, 40.0 * a0)


def _solve_radial_grid(model, l, count, n_points, r_min, r_max):
    """Uniform-r symmetric discretization with Dirichlet ends."""
    h = r_max / (n_points + 1)
    i0 = max(1, int(math.ceil(r_min / h))) if r_min and r_min > h else 1
    idx = np.arange(i0, n_points + 1)
    r = idx * h
    chi2 = model.chi2(r)
    veff = _ds_effective_potential(model, l, r)
    # A = -D2 - diag(Veff/chi^2), B = diag(1/chi^2)
    diag_a = 2.0 / h**2 - veff / chi2
    off_a = np.full(len(r) - 1, -1.0 / h**2)
    diag_b = 1.0 / chi2
    kappas, vecs = _generalized_tridiag_eigh(diag_a, off_a, diag_b, count)
    u = model.units
    energies = (u.hbar**2 / (2.0 * u.m)) * (kappas + model.tau * model.lam / 2.0)
    return energies, vecs, r, kappas


def _solve_ads_natural(model, l, count, n_points):
    """AdS full-domain solve in t = arctan s on (-pi/2, pi/2), cell-centered.

    Works on G = R / sqrt(cos t), which stays smooth at both ends:
    (cos^2 t G')' + [f0 cos^2 + 1/4 - 3/4 cos^2] G = -eps cos^2 t G,
    f0 = -(l+1/2)^2 tan^2 t + eta tan t.  Fluxes vanish identically at the
    boundary faces, which imposes decay at both images of the origin.
    """
    eta = spectra.scaled_eta(model)
    h = math.pi / n_points
    centers = -0.5 * math.pi + (np.arange(n_points) + 0.5) * h
    faces = -0.5 * math.pi + np.arange(n_points + 1) * h
    pf = np.cos(faces) ** 2
    c2 = np.cos(centers) ** 2
    tn = np.tan(centers)
    f0 = -((l + 0.5) ** 2) * tn * tn + eta * tn
    diag_a = (pf[:-1] + pf[1:]) / h**2 - (f0 * c2 + 0.25 - 0.75 * c2)
    off_a = -pf[1:-1] / h**2
    diag_b = c2
    eps, vecs = _generalized_tridiag_eigh(diag_a, off_a, diag_b, count)
    energies = np.array([spectra.energy_of_epsilon(model, e) for e in eps])
    return energies, vecs, centers, eps


def fd_spectrum(
    model: DeformationModel,
    l: int,
    count: int,
    grid: GridSpec = None,
    richardson: bool = True,
    ads_bc: str = "natural",
) -> OracleSpectrum:
    """Lowest ``count`` radial energies from the finite-difference solver.

    ``richardson=True`` re-solves on doubled and quadrupled grids and stores
    the per-state error-reduction ratio (about 4 for a second-order scheme);
    ratios outside [2, 6] on trusted states raise ConvergenceError.  dS states
    above the continuum threshold -e2*sqrt(lam) are flagged, not trusted.
    """
    if count < 1 or count > 10:
        raise ValidationError("count must lie in [1, 10]")
    if l < 0:
        raise ValidationError("l must be nonnegative")
    if ads_bc not in ("natural", "box"):
        raise ValidationError(f"unknown AdS boundary treatment {ads_bc!r}")
    grid = grid or GridSpec()

    # The arc-coordinate solve resolves the wall but spreads points over the
    # whole AdS domain; when the wall sits far outside the atom (tiny lam) the
    # states never feel it and the radial box is both valid and better
    # conditioned, so dispatch on the wall-to-atom distance.
    free_extent = (4.0 * (count + l) ** 2 + 20.0) * model.units.bohr_radius
    use_tspace = (
        model.tau == -1
        and ads_bc == "natural"
        and model.wall_radius() <= 2.0 * free_extent
    )
    if model.tau == -1 and not use_tspace and grid.r_max is not None:
        # B = diag(1/chi^2) is positive only strictly inside the wall
        if grid.r_max >= model.wall_radius():
            raise ValidationError(
                f"an AdS radial grid needs r_max < wall radius {model.wall_radius():.6g}"
            )
    if model.tau == -1 and not use_tspace and ads_bc == "natural":
        r_max = grid.r_max or min(free_extent, model.wall_radius())
    else:
        r_max = grid.r_max or _default_r_max(model, l, count)
    r_min = grid.r_min if grid.r_min is not None else 1e-6 * r_max

    def solve(n_points):
        if use_tspace:
            return _solve_ads_natural(model, l, count, n_points)
        return _solve_radial_grid(model, l, count, n_points, r_min, r_max)

    energies, vecs, coords, kappas = solve(grid.n_points)

    ratios = [math.nan] * count
    if richardson:
        e2x, _, _, _ = solve(2 * grid.n_points)
        e4x, _, _, _ = solve(4 * grid.n_points)
        for i in range(count):
            num = energies[i] - e2x[i]
            den = e2x[i] - e4x[i]
            floor = 1e-13 * max(1.0, abs(energies[i]))
            ratios[i] = 4.0 if abs(den) < floor else num / den

    statuses = []
    u = model.units
    if model.tau == 1:
        threshold = -u.e2 * math.sqrt(model.lam)
        # margin: a few box quanta, so states dissolving into the truncated
        # continuum are never reported as converged
        spacing = (u.hbar**2 / (2.0 * u.m)) * (math.pi / r_max) ** 2
        for e in energies:
            statuses.append(
                "converged" if e < threshold - 5.0 * spacing else "above-threshold"
            )
    else:
        statuses = ["converged"] * count

    if richardson:
        for i, (ratio, status) in enumerate(zip(ratios, statuses)):
            if status == "converged" and not (2.0 <= ratio <= 6.0):
                raise ConvergenceError(
                    f"state {i}: error-reduction ratio {ratio:.2f} is not second order"
                )

    return OracleSpectrum(
        model=model,
        l=l,
        eigenvalues=tuple(float(e) for e in energies),
        eigenvectors=vecs,
        grid=coords,
        coordinate="t" if use_tspace else "r",
        convergence_estimate=tuple(ratios),
        statuses=tuple(statuses),
        kappas=tuple(float(k) for k in kappas),
    )


# 8th-order central first-derivative stencil
_D1_W = np.array([4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0])

_TEST_FUNCTIONS = {
    "gaussian": lambda x: np.exp(-0.5 * x * x),
    "gaussian_x": lambda x: x * np.exp(-0.5 * x * x),
    "gaussian_x2": lambda x: x * x * np.exp(-0.5 * x * x),
}


def _d1(f, h):
    out = np.zeros_like(f)
    for k, w in enumerate(_D1_W, start=1):
        out[4:-4] += w * (np.roll(f, -k)[4:-4] - np.roll(f, k)[4:-4]) / h
    return out


def commutator_residual(model: DeformationModel, test_function_id: str, grid: GridSpec = None) -> float:
    """Grid residual of [X, P] f = i hbar (1 - tau lam X^2) f in 1-D.

    X = x/chi and P = -i hbar chi d/dx; derivatives use 8th-order central
    stencils on a symmetric interval (clipped inside the AdS box).  The
    identity holds exactly, so the result is the scheme's discretization
    error, normalized by max|f|.
    """
    if test_function_id not in _TEST_FUNCTIONS:
        raise ValidationError(
            f"unknown test function {test_function_id!r}; "
            f"choose from {sorted(_TEST_FUNCTIONS)}"
        )
    grid = grid or GridSpec()
    a0 = model.units.bohr_radius
    half = grid.r_max if grid.r_max else 5.0 * a0
    if model.tau == -1:
        half = min(half, 0.95 * model.wall_radius())
    n = grid.n_points
    x = np.linspace(-half, half, n)
    h = x[1] - x[0]
    f = _TEST_FUNCTIONS[test_function_id](x)
    chi = np.sqrt(model.chi2(x))

    df = _d1(f, h)
    dg = _d1(x * f / chi, h)
    resid = x * df - chi * dg + (1.0 - model.tau * model.lam * x * x / chi**2) * f
    core = slice(8, -8)
    return float(model.units.hbar * np.max(np.abs(resid[core])) / np.max(np.abs(f)))


@dataclass(frozen=True)
class CrosscheckReport:
    """Closed-form versus oracle comparison across a deformation sweep."""

    rows: tuple
    summary: dict


def _crosscheck_cell_block(model, l, n_max, n_points):
    rows = []
    count = n_max - l
    try:
        spec = fd_spectrum(model, l, count, GridSpec(n_points=n_points))
        nodes_fd = spec.node_counts()
    except EuphError as exc:
        for k in range(count):
            rows.append(_row(model, l, l + 1 + k, None, None, None, None, f"error: {exc}"))
        return rows

    u = model.units
    threshold = -u.e2 * math.sqrt(model.lam)
    for k in range(count):
        n = l + 1 + k
        qn = QuantumNumbers(n=n, l=l)
        e_closed = spectra.energy(model, qn).energy
        e_fd = spec.eigenvalues[k]
        status = "ok"
        if model.tau == 1 and e_closed >= threshold:
            status = "above-threshold"
        nodes_closed = None
        try:
            state = wavefunctions.build_state(model, qn)
            nodes_closed = wavefunctions.count_nodes(state)
        except NonNormalizableError:
            if status == "ok":
                status = "closed form not normalizable"
        except EuphError as exc:
            status = f"error: {exc}"
        rows.append(_row(model, l, n, e_closed, e_fd, nodes_closed, nodes_fd[k], status))
    return rows


def _row(model, l, n, e_closed, e_fd, nodes_closed, nodes_fd, status):
    rel = None
    if e_closed not in (None, 0.0) and e_fd is not None:
        rel = abs(e_fd - e_closed) / abs(e_closed)
    match = None
    if nodes_closed is not None and nodes_fd is not None:
        match = nodes_closed == nodes_fd
    return {
        "model": "ds" if model.tau == 1 else "ads",
        "lambda": model.lam,
        "n": n,
        "l": l,
        "e_closed": e_closed,
        "e_oracle": e_fd,
        "rel_dev": rel,
        "nodes_closed": nodes_closed,
        "nodes_oracle": nodes_fd,
        "node_match": match,
        "status": status,
    }


def crosscheck_report(
    lambdas,
    n_max: int,
    units: UnitSystem = HARTREE,
    n_points: int = 4000,
) -> CrosscheckReport:
    """Deviation table |E_closed - E_oracle|/|E_closed| for both models.

    Cells run serially in a fixed order: dS before AdS, lambdas as given,
    then l and n ascending.  Failures are recorded per cell and never abort
    the sweep; a closed form that is not square integrable is labelled as
    such, and any other package error becomes an "error: ..." status.
    """
    if n_max < 1 or n_max > 4:
        raise ValidationError("n_max must lie in [1, 4]")
    lambdas = list(lambdas)
    rows = []
    for tau in (1, -1):
        for lam in lambdas:
            model = DeformationModel(tau=tau, lam=lam, units=units)
            for l in range(n_max):
                rows += _crosscheck_cell_block(model, l, n_max, n_points)
    rows = tuple(rows)

    def max_dev(model_name):
        devs = [
            r["rel_dev"]
            for r in rows
            if r["model"] == model_name and r["status"] == "ok" and r["rel_dev"] is not None
        ]
        return max(devs) if devs else None

    matches = [r["node_match"] for r in rows if r["node_match"] is not None]
    summary = {
        "cells": len(rows),
        "max_rel_dev_ds": max_dev("ds"),
        "max_rel_dev_ads": max_dev("ads"),
        "all_nodes_match": all(matches) if matches else True,
        "errors": sum(1 for r in rows if r["status"].startswith("error")),
    }
    return CrosscheckReport(rows=rows, summary=summary)
