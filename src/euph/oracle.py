"""Independent spectral verification of the closed-form spectra.

In an angle coordinate each model's radial equation becomes a
one-dimensional Schroedinger operator on a rescaled radial function v, with
eta = 2/sqrt(lam) (Cooper, Khare & Sukhatme, Phys. Rep. 251 (1995) 267,
Table 4.1):

- dS, theta = arcsinh(sqrt(lam) r) on (0, inf), the Eckart potential:
  -v'' + [l(l+1)/sinh^2 theta - eta coth theta] v = E_theta v,
  E = (lam/2)(E_theta + (l+1/2)^2 + 3/4);
- AdS, phi = arcsin(sqrt(lam) r), trigonometric Rosen-Morse:
  -v'' + [l(l+1)/sin^2 phi - eta cot phi] v = E_phi v,
  E = (lam/2)(E_phi - (l+1/2)^2 - 3/4).  The wall is phi = pi/2, and
  phi > pi/2 continues the radial line through it.

Each operator is solved on a Lagrange mesh (D. Baye, Phys. Rep. 565 (2015)
1) as one dense symmetric eigenproblem, of order N = 40 to 100 as the block
needs (``_mesh_order``).  The meshes use the coefficients of the radial
equation only, never a closed-form energy, so agreement is a genuine
cross-check.

- dS, and AdS whose wall lies beyond the mesh (h x_N < pi/2): a regularized
  Lagrange-Laguerre mesh theta (or phi) = h x_i, h = min(sqrt(lam), 0.1)
  (x 1.5 on the order-40 mesh), with the kinetic matrix in the Gauss
  approximation.
- AdS whose wall is near the atom: a Lagrange-Legendre mesh in the angle
  t = arctan s = pi/2 - phi on (-pi/2, pi/2), in weak form on
  G = R/sqrt(cos t), which is smooth at both images of the origin:
  stiffness int cos^2 t G' f', mass int cos^2 t G f and the entire potential
  -(l+1/2)^2 sin^2 t + eta sin t cos t + 1/4 - 3/4 cos^2 t, with
  E = (lam/2)(eps - 1/2).  The wall t = 0 is a regular interior point.

The eigenvalues are solved again on the mesh of order 3N/2, and each
state's |E_N - E_3N/2| in Hartree is its error estimate.  Mesh coefficients
have the sign of the wavefunction at the nodes, so their sign changes count
its nodes.

Everything is solved in Hartree units (lam_au = lam a0^2); energies are
converted (x E_h) on the way out.

crosscheck_report sweeps both models over a list of deformations in one
serial loop, one spectral solve per (model, lambda, l) block.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import spectra, wavefunctions
from .errors import EuphError, NonNormalizableError, ValidationError
from .model import DeformationModel, QuantumNumbers, UnitSystem, HARTREE

__all__ = [
    "OracleSpectrum",
    "fd_spectrum",
    "crosscheck_report",
    "CrosscheckReport",
]

# an ok crosscheck cell whose error estimate exceeds this times |E_Bohr(n)|
# = 1/(2 n^2) Ha becomes an error cell.  The estimate is absolute, so it
# stays finite where a level crosses E = 0 (the AdS critical deformations).
# dS levels in or next to the continuum, which a mesh turns into a
# pseudo-continuum, exceed it by orders of magnitude; hence a bound per
# state, not per block
ESTIMATE_BOUND = 1e-6
# coefficients below this fraction of max|row| carry no sign
_NODE_TOL = 1e-8


@dataclass(frozen=True)
class OracleSpectrum:
    """Lowest eigenpairs of one (model, l) radial problem."""

    model: DeformationModel
    l: int
    eigenvalues: tuple  # energies, ascending
    eigenvectors: np.ndarray  # row k: mesh coefficients of state k
    coordinate: str  # "theta" (dS), "phi" (AdS, far wall) or "t" (AdS, near wall)
    convergence_estimate: tuple  # per state |E_N - E_3N/2| in Hartree

    def node_counts(self):
        return [_sign_changes(row) for row in self.eigenvectors]


def _sign_changes(row):
    """Sign changes among the entries of ``row`` above _NODE_TOL * max|row|."""
    signs = np.sign(row[np.abs(row) > _NODE_TOL * np.max(np.abs(row))])
    return int(np.sum(signs[1:] * signs[:-1] < 0.0))


def eigh_tridiagonal(matrix, vectors=True):
    """Ascending eigenvalues, and with ``vectors`` the column eigenvectors,
    of a dense symmetric mesh matrix.

    Every mesh solve of ``fd_spectrum`` looks this function up by its module
    name, the matrix first, so a test or a profiler can substitute it.  The
    name is kept for the benchmark's ``oracle.eigh`` span until ROADMAP
    item 1 renames spans by role.
    """
    return np.linalg.eigh(matrix) if vectors else np.linalg.eigvalsh(matrix)


def _frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.cache
def _laguerre_mesh(n):
    """Zeros x_i of L_n and the Gauss-approximation matrix of -d^2/dx^2 on
    the regularized Laguerre basis (Baye 2015)."""
    x = np.polynomial.laguerre.laggauss(n)[0]
    i = np.arange(n)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    sign = 1.0 - 2.0 * ((i[:, None] + i[None, :]) % 2)
    root = np.sqrt(x)
    kinetic = sign * (x[:, None] + x[None, :]) / (root[:, None] * root[None, :] * diff**2)
    np.fill_diagonal(kinetic, (4.0 + (4 * n + 2) * x - x * x) / (12.0 * x * x))
    return _frozen(x, kinetic)


@functools.cache
def _legendre_mesh(n):
    """Gauss-Legendre nodes and weights, and the derivatives D_ij of the
    Lagrange interpolant j at node i.  The barycentric weights are scaled,
    (-1)^j sqrt((1 - x_j^2) w_j): the textbook 1/prod(x_j - x_k) overflows."""
    x, w = np.polynomial.legendre.leggauss(n)
    bary = (1.0 - 2.0 * (np.arange(n) % 2)) * np.sqrt((1.0 - x * x) * w)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    deriv = bary[None, :] / (bary[:, None] * diff)
    np.fill_diagonal(deriv, 0.0)
    np.fill_diagonal(deriv, -deriv.sum(axis=1))
    return _frozen(x, w, deriv)


def _mesh_order(model, l, count, coordinate):
    """Order N of the block's mesh and, on the Laguerre meshes, its step h.

    Blocks up to n = 4 take an order measured to resolve each bound level's
    shift E - E_Bohr as well as order 100 does: 40, or on the t-mesh 50 and
    70 as lam falls to 3e-4.  The order-40 Laguerre step is
    1.5 h, which puts the basis decay e^(-x/2) between those of levels 2
    and 4.  A dS level about to leave the spectrum (its Jacobi parameter
    1/(n sqrt(lam)) - n in (0, 1)) spreads beyond that mesh, so its block,
    like every other, keeps order 100 and h = min(sqrt(lam), 0.1).
    """
    lam = model.lam_au
    h = min(math.sqrt(lam), 0.1)
    if l + count <= 4:
        if coordinate == "t":
            for order, lam_min in ((40, 3e-3), (50, 1e-3), (70, 3e-4)):
                if lam >= lam_min:
                    return order, h
        elif model.tau == -1 or not any(
            0.0 < 1.0 / (n * math.sqrt(lam)) - n < 1.0 for n in range(l + 1, l + count + 1)
        ):
            return 40, 1.5 * h
    return 100, h


def _mesh_problem(model, l, coordinate, n, h):
    """Symmetric mesh matrix of order n (Laguerre step h), and (a, b) with
    E = a e + b in Hartree for each of its eigenvalues e."""
    lam = model.lam_au
    eta = spectra.scaled_eta(model)
    if coordinate == "t":
        x, w, deriv = _legendre_mesh(n)
        t = 0.5 * math.pi * x
        c, s = np.cos(t), np.sin(t)
        potential = -((l + 0.5) ** 2) * s * s + eta * s * c + 0.25 - 0.75 * c * c
        m = np.sqrt(w) * c
        stiffness = (2.0 / math.pi) * (m[:, None] * deriv / m[None, :])
        matrix = stiffness.T @ stiffness - np.diag(potential / (c * c))
        return matrix, 0.5 * lam, -0.25 * lam
    # the Laguerre forms times h^2, which keeps every entry O(1) at any lam
    x, kinetic = _laguerre_mesh(n)
    angle = h * x
    offset = (l + 0.5) ** 2 + 0.75
    if coordinate == "theta":
        potential = l * (l + 1.0) / np.sinh(angle) ** 2 - eta / np.tanh(angle)
    else:
        potential = l * (l + 1.0) / np.sin(angle) ** 2 - eta / np.tan(angle)
        offset = -offset
    matrix = kinetic + np.diag(h * h * potential)
    return matrix, 0.5 * lam / (h * h), 0.5 * lam * offset


def fd_spectrum(model: DeformationModel, l: int, count: int) -> OracleSpectrum:
    """Lowest ``count`` radial energies and mesh eigenvectors.

    The mesh is the theta-mesh for dS; for AdS, the phi-mesh while its last
    node lies inside the wall, the t-mesh otherwise.  Its order N comes from
    the block (``_mesh_order``).  The eigenvalues are solved again at order
    3N/2, and each state's change in Hartree is stored as its error
    estimate.
    """
    if count < 1 or count > 10:
        raise ValidationError("count must lie in [1, 10]")
    if l < 0:
        raise ValidationError("l must be nonnegative")

    if model.tau == 1:
        coordinate = "theta"
    else:
        # the Legendre t-mesh spreads its nodes over the whole continued
        # line, the Laguerre phi-mesh over the atom; the atom is resolved by
        # the latter while the wall lies beyond the last node of the
        # phi-mesh that the block would use
        order, h = _mesh_order(model, l, count, "phi")
        coordinate = "phi" if h * _laguerre_mesh(order)[0][-1] < 0.5 * math.pi else "t"
    order, h = _mesh_order(model, l, count, coordinate)

    matrix, a, b = _mesh_problem(model, l, coordinate, order, h)
    values, vectors = eigh_tridiagonal(matrix, True)
    energies = [a * e + b for e in values[:count]]
    matrix, a, b = _mesh_problem(model, l, coordinate, 3 * order // 2, h)
    checks = [a * e + b for e in eigh_tridiagonal(matrix, False)[:count]]
    estimates = tuple(float(abs(e - c)) for e, c in zip(energies, checks))

    e_h = model.units.hartree_energy
    return OracleSpectrum(
        model=model,
        l=l,
        eigenvalues=tuple(float(e) * e_h for e in energies),
        eigenvectors=vectors[:, :count].T,
        coordinate=coordinate,
        convergence_estimate=estimates,
    )


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
        nodes_mesh = spec.node_counts()
    except EuphError as exc:
        for k in range(count):
            rows.append(_row(model, l, l + 1 + k, None, None, None, None, f"error: {exc}"))
        return rows

    for k in range(count):
        n = l + 1 + k
        qn = QuantumNumbers(n=n, l=l)
        e_closed = spectra.energy(model, qn).energy
        e_mesh = spec.eigenvalues[k]
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
        estimate, bound = spec.convergence_estimate[k], ESTIMATE_BOUND / (2 * n * n)
        if status == "ok" and estimate > bound:
            status = f"error: mesh estimate {estimate:.2e} Ha exceeds {bound:.2e}"
        rows.append(_row(model, l, n, e_closed, e_mesh, nodes_closed, nodes_mesh[k], status))
    return rows


def _row(model, l, n, e_closed, e_mesh, nodes_closed, nodes_mesh, status):
    rel = None
    if e_closed not in (None, 0.0) and e_mesh is not None:
        rel = abs(e_mesh - e_closed) / abs(e_closed)
    match = None
    if nodes_closed is not None and nodes_mesh is not None:
        match = nodes_closed == nodes_mesh
    return {
        "model": "ds" if model.tau == 1 else "ads",
        "lambda": model.lam,
        "n": n,
        "l": l,
        "e_closed": e_closed,
        "e_oracle": e_mesh,
        "rel_dev": rel,
        "nodes_closed": nodes_closed,
        "nodes_oracle": nodes_mesh,
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
