"""Independent finite-difference verification of spectra and algebra.

The radial problem is discretized as a symmetric generalized tridiagonal
eigenproblem on a fixed 4000-point grid and solved with LAPACK; closed-form
energies are never used in the discretization, so agreement is a genuine
cross-check.

Everything is solved in Hartree units (r in a0, lam_au = lam a0^2); only the
public functions convert: energies (x E_h) and the commutator residual
(x hbar) on the way out.

dS, and AdS whose wall lies far outside the atom, run on a uniform radial
grid with Dirichlet ends: the substitution u = sqrt(r*chi) R removes the
first derivative and yields A u = kappa B u with B = diag(1/chi^2) and
kappa = 2E - tau*lam/2.

AdS whose wall is near the atom works in the angle t = arctan s, the
coordinate in which the radial equation stays regular at the wall chi = 0
and continues through it; decay is imposed at both images of r -> 0.  This
is the boundary treatment whose spectrum reproduces the polynomial closed
forms even for wall-squeezed states.

Every spectrum is Richardson-checked: the eigenvalues (only) are re-solved
on the doubled and quadrupled grids, each seeded from the next coarser grid
(2N from N, 4N from 2N): one shifted inverse-iteration step at the seed,
then Rayleigh-quotient iteration, each step one O(N) tridiagonal LAPACK
solve.  An index guard checks that the k-th refined vector changes sign
exactly k times, and every state's error-reduction ratio must lie in
[2, 6].  Only the N-grid solve is a full bisection eigensolve; its Sturm
counts fix the index, and its eigenpairs are what callers see.

The commutator check applies the one-dimensional position representation
X = x/chi, P = -i hbar chi d/dx with high-order stencils to smooth test
functions; the identity [X, P] = i hbar (1 - tau lam X^2) is exact, so the
returned residual measures pure discretization error.

crosscheck_report sweeps both models over a list of deformations in one
serial loop, one finite-difference solve per (model, lambda, l) block.

Importing this module loads numpy only: scipy.linalg, whose import costs more
than the rest of the package, loads on the first finite-difference solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectra, wavefunctions
from .errors import ConvergenceError, EuphError, NonNormalizableError, ValidationError
from .model import DeformationModel, QuantumNumbers, UnitSystem, HARTREE

__all__ = [
    "OracleSpectrum",
    "fd_spectrum",
    "commutator_residual",
    "crosscheck_report",
    "CrosscheckReport",
]

# points of the base grid (radial, AdS angle and commutator alike); the
# Richardson refinements solve on twice and four times as many
_N_POINTS = 4000
# samples below this fraction of max|row| carry no sign
_NODE_TOL = 1e-8


@dataclass(frozen=True)
class OracleSpectrum:
    """Lowest eigenpairs of one (model, l) radial problem."""

    model: DeformationModel
    l: int
    eigenvalues: tuple  # energies, ascending
    eigenvectors: np.ndarray  # row k: grid samples of state k
    coordinate: str  # "r" (radius) or "t" (AdS angle t = arctan s)
    convergence_estimate: tuple  # per-state Richardson ratios

    def node_counts(self):
        return [_sign_changes(row) for row in self.eigenvectors]


def _sign_changes(row):
    """Sign changes among the samples of ``row`` above _NODE_TOL * max|row|."""
    signs = np.sign(row[np.abs(row) > _NODE_TOL * np.max(np.abs(row))])
    return int(np.sum(signs[1:] * signs[:-1] < 0.0))


def eigh_tridiagonal(d, e, **options):
    """scipy.linalg.eigh_tridiagonal, imported on the first call.

    A module attribute that ``_generalized_tridiag_eigh`` looks up per call,
    so a test or a profiler can substitute it without loading scipy.
    """
    from scipy.linalg import eigh_tridiagonal as solve

    return solve(d, e, **options)


# Rayleigh-quotient refinement: stop at ||T x - rho x|| <= _RQI_RESIDUAL ||T||
# (||T|| by its Gershgorin bound; the residual floor measured on the 8000 and
# 16000-point grids is below 3 eps ||T||), after at most _RQI_STEPS solves.
_RQI_RESIDUAL = 16.0 * np.finfo(float).eps
_RQI_STEPS = 8


def _refine_eigenvalues(dd, ee, seeds):
    """Eigenvalues of the symmetric tridiagonal T = (dd, ee) next to ``seeds``.

    ``seeds`` approximate the lowest eigenvalues in order.  Per state: one
    inverse-iteration step at the seed from a vector of ones, then
    Rayleigh-quotient iteration, each step one O(N) LAPACK solve.  The
    state-k vector must change sign exactly k times (the oscillation theorem
    for negative off-diagonals); a vector that does not, or no convergence
    within the step cap, raises ConvergenceError.
    """
    from scipy.linalg.lapack import dgtsv

    tol = _RQI_RESIDUAL * (np.max(np.abs(dd)) + 2.0 * np.max(np.abs(ee)))
    out = []
    for k, rho in enumerate(seeds):
        x = np.ones_like(dd)
        for _ in range(_RQI_STEPS):
            *_, y, info = dgtsv(ee, dd - rho, ee, x[:, None])
            if info != 0:
                raise ConvergenceError(f"state {k}: singular shifted solve at {rho:.17g}")
            x = y[:, 0] / np.linalg.norm(y)
            tx = dd * x
            tx[:-1] += ee * x[1:]
            tx[1:] += ee * x[:-1]
            rho = float(x @ tx)
            if np.linalg.norm(tx - rho * x) <= tol:
                break
        else:
            raise ConvergenceError(f"state {k}: refinement did not converge in {_RQI_STEPS} steps")
        changes = _sign_changes(x)
        if changes != k:
            raise ConvergenceError(f"state {k}: refined vector has {changes} sign changes, not {k}")
        out.append(rho)
    return np.array(out)


def _generalized_tridiag_eigh(diag_a, off_a, diag_b, count, seeds=None):
    """Lowest eigenpairs of A u = kappa B u, A tridiagonal, B diagonal > 0.

    Given ``seeds`` (approximations to the lowest eigenvalues, in order) only
    those eigenvalues are refined, and the vectors are None.
    """
    scale = 1.0 / np.sqrt(diag_b)
    dd = diag_a * scale * scale
    ee = off_a * scale[:-1] * scale[1:]
    if seeds is not None:
        return _refine_eigenvalues(dd, ee, seeds), None
    vals, vecs = eigh_tridiagonal(dd, ee, select="i", select_range=(0, count - 1))
    u = vecs * scale[:, None]
    u = u / np.max(np.abs(u), axis=0)
    return vals, u.T


def _solve_radial_grid(model, l, count, n_points, r_max, seeds=None):
    """Uniform-r symmetric discretization of (0, r_max) in a0, Dirichlet ends.

    Returns (energies, vectors); with ``seeds`` (energies) the eigenvalues
    are refined from them, vectors None.
    """
    t, lam = model.tau, model.lam_au
    h = r_max / (n_points + 1)
    r = np.arange(1, n_points + 1) * h
    chi2 = 1.0 + t * lam * r * r
    # potential of the first-derivative-free radial form (u variable)
    veff = (
        -l * (l + 1.0) * chi2 / r**2
        + 2.0 * np.sqrt(chi2) / r
        - t * lam / 2.0
        + lam * (lam * r * r - 2.0 * t) / (4.0 * chi2)
    )
    # A = -D2 - diag(Veff/chi^2), B = diag(1/chi^2)
    diag_a = 2.0 / h**2 - veff / chi2
    off_a = np.full(len(r) - 1, -1.0 / h**2)
    diag_b = 1.0 / chi2
    shift = t * lam / 2.0
    kappa_seeds = None if seeds is None else 2.0 * np.asarray(seeds) - shift
    kappas, vecs = _generalized_tridiag_eigh(diag_a, off_a, diag_b, count, kappa_seeds)
    return 0.5 * (kappas + shift), vecs


def _solve_ads_natural(model, l, count, n_points, seeds=None):
    """AdS full-domain solve in t = arctan s on (-pi/2, pi/2), cell-centered.

    Works on G = R / sqrt(cos t), which stays smooth at both ends:
    (cos^2 t G')' + [f0 cos^2 + 1/4 - 3/4 cos^2] G = -eps cos^2 t G,
    f0 = -(l+1/2)^2 tan^2 t + eta tan t.  Fluxes vanish identically at the
    boundary faces, which imposes decay at both images of the origin.
    ``seeds`` as for _solve_radial_grid.
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
    eps_seeds = None if seeds is None else 2.0 * np.asarray(seeds) / model.lam_au - 0.5 * model.tau
    eps, vecs = _generalized_tridiag_eigh(diag_a, off_a, diag_b, count, eps_seeds)
    return (model.lam_au / 2.0) * (eps + 0.5 * model.tau), vecs


def fd_spectrum(model: DeformationModel, l: int, count: int) -> OracleSpectrum:
    """Lowest ``count`` radial energies and grid eigenvectors, N = 4000 points.

    The grid is radial (dS, and AdS with the wall beyond twice the states'
    extent) or the AdS angle t = arctan s.  The eigenvalues are re-solved on
    the 2N and 4N grids, each seeded from the next coarser one, and the
    per-state error-reduction ratio (about 4 for a second-order scheme) is
    stored.  A ratio outside [2, 6] on any state raises ConvergenceError, as
    does a refinement that does not converge or whose k-th vector fails the
    index guard (exactly k sign changes).
    """
    if count < 1 or count > 10:
        raise ValidationError("count must lie in [1, 10]")
    if l < 0:
        raise ValidationError("l must be nonnegative")

    # The arc-coordinate solve resolves the wall but spreads points over the
    # whole AdS domain; when the wall sits far outside the atom (tiny lam) the
    # states never feel it and the radial box is both valid and better
    # conditioned, so dispatch on the wall-to-atom distance.  Lengths in a0.
    free_extent = 4.0 * (count + l) ** 2 + 20.0
    use_tspace = model.tau == -1 and 1.0 / math.sqrt(model.lam_au) <= 2.0 * free_extent
    r_max = max(free_extent, 40.0) if model.tau == 1 else free_extent

    def solve(n_points, seeds=None):
        if use_tspace:
            return _solve_ads_natural(model, l, count, n_points, seeds)
        return _solve_radial_grid(model, l, count, n_points, r_max, seeds)

    energies, vecs = solve(_N_POINTS)
    e2x = solve(2 * _N_POINTS, energies)[0]
    e4x = solve(4 * _N_POINTS, e2x)[0]
    ratios = []
    for i in range(count):
        num = energies[i] - e2x[i]
        den = e2x[i] - e4x[i]
        floor = 1e-13 * max(1.0, abs(energies[i]))
        ratios.append(4.0 if abs(den) < floor else num / den)
        if not 2.0 <= ratios[i] <= 6.0:
            raise ConvergenceError(
                f"state {i}: error-reduction ratio {ratios[i]:.2f} is not second order"
            )

    e_h = model.units.hartree_energy
    return OracleSpectrum(
        model=model,
        l=l,
        eigenvalues=tuple(float(e) * e_h for e in energies),
        eigenvectors=vecs,
        coordinate="t" if use_tspace else "r",
        convergence_estimate=tuple(ratios),
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


def commutator_residual(model: DeformationModel, test_function_id: str) -> float:
    """Grid residual of [X, P] f = i hbar (1 - tau lam X^2) f in 1-D.

    X = x/chi and P = -i hbar chi d/dx; derivatives use 8th-order central
    stencils on N = 4000 points of the interval +-5 a0 (clipped to 0.95 of
    the AdS wall), with the test functions Gaussians in x/a0.  The identity
    holds exactly, so the result is the scheme's discretization error,
    normalized by max|f|: an action, in units of hbar.
    """
    if test_function_id not in _TEST_FUNCTIONS:
        raise ValidationError(
            f"unknown test function {test_function_id!r}; "
            f"choose from {sorted(_TEST_FUNCTIONS)}"
        )
    lam = model.lam_au
    half = 5.0 if model.tau == 1 else min(5.0, 0.95 * (1.0 / math.sqrt(lam)))
    x = np.linspace(-half, half, _N_POINTS)
    h = x[1] - x[0]
    f = _TEST_FUNCTIONS[test_function_id](x)
    chi = np.sqrt(1.0 + model.tau * lam * x * x)

    df = _d1(f, h)
    dg = _d1(x * f / chi, h)
    resid = x * df - chi * dg + (1.0 - model.tau * lam * x * x / chi**2) * f
    core = slice(8, -8)
    return float(model.units.hbar * np.max(np.abs(resid[core])) / np.max(np.abs(f)))


@dataclass(frozen=True)
class CrosscheckReport:
    """Closed-form versus oracle comparison across a deformation sweep."""

    rows: tuple
    summary: dict


def _crosscheck_cell_block(model, l, n_max, threshold):
    rows = []
    count = n_max - l
    try:
        spec = fd_spectrum(model, l, count)
        nodes_fd = spec.node_counts()
    except EuphError as exc:
        for k in range(count):
            rows.append(_row(model, l, l + 1 + k, None, None, None, None, f"error: {exc}"))
        return rows

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


def crosscheck_report(lambdas, n_max: int, units: UnitSystem = HARTREE) -> CrosscheckReport:
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
            # the dS continuum threshold, in the closed-form energies' units
            threshold = -math.sqrt(model.lam_au) * units.hartree_energy
            for l in range(n_max):
                rows += _crosscheck_cell_block(model, l, n_max, threshold)
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
