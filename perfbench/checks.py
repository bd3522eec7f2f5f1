"""Reference values from the paper's closed forms, and the checks on outputs.

Nothing here imports ``euph``: every reference is computed from the formulas
below, so a check never compares the library with itself.  The module needs
only the standard library, because the ``cli-cold`` client process stays free
of numpy and scipy.

Every check returns ``None`` when the output is right and a short reason
string when it is not.
"""

from __future__ import annotations

import csv
import io
import json
import math

# CODATA 2018 values, the constants of the SI unit preset.
M_E = 9.1093837015e-31  # kg
HBAR = 1.054571817e-34  # J s
E_CHARGE = 1.602176634e-19  # C
K_COULOMB = 8.9875517873681764e9  # N m^2 / C^2

# (m, hbar, e2) per unit preset; e2 is the energy*length product k q^2.
UNITS = {
    "hartree": (1.0, 1.0, 1.0),
    "si": (M_E, HBAR, K_COULOMB * E_CHARGE**2),
}

# A CSV cell carries 6 significant digits: its rounding error is at most
# 5e-6 of its value.  The margin covers the last bits of float arithmetic.
CSV_REL = 5.01e-6
# README bound on closed form against oracle.
ORACLE_REL = 1e-3
NORM_TOL = 1e-8
ENERGY_REL = 1e-12
# The NU route bisects to an absolute 1e-12 on the scaled parameter.
VIA_NU_REL = 1e-10


def bohr_radius(units: str) -> float:
    m, hbar, e2 = UNITS[units]
    return hbar**2 / (m * e2)


def shift_factor(n: int, l: int) -> int:
    return n * n - l * (l + 1) - 1


def bohr_energy(n: int, units: str = "hartree") -> float:
    m, hbar, e2 = UNITS[units]
    return -m * e2**2 / (2.0 * hbar**2 * n * n)


def energy_correction(tau: int, lam: float, n: int, l: int, units: str = "hartree") -> float:
    m, hbar, _ = UNITS[units]
    return -tau * (lam * hbar**2 / (2.0 * m)) * shift_factor(n, l)


def level_energy(tau: int, lam: float, n: int, l: int, units: str = "hartree") -> float:
    """E(n, l) = -m e2^2/(2 hbar^2 n^2) - tau (lam hbar^2/2m)(n^2 - l(l+1) - 1)."""
    return bohr_energy(n, units) + energy_correction(tau, lam, n, l, units)


def lambda_critical(n: int, l: int):
    """AdS ionization deformation 1/(n^2 d), d = n^2 - l(l+1) - 1; None if undefined."""
    d = shift_factor(n, l)
    return None if d <= 0 else 1.0 / (n * n * d)


def lambda_inversion(n: int, l: int):
    """dS level-crossing deformation (n^2 - 1)/(n^2 d); None if undefined."""
    d = shift_factor(n, l)
    return None if n < 2 or d <= 0 else (n * n - 1.0) / (n * n * d)


def spectroscopic_bound(precision: float, units: str):
    """(dp_convention, dp_derived, lambda_convention, lambda_derived).

    precision = C (hbar/(m e2))^2 dP^2 with C = 3/2 (convention) or 3 (derived).
    """
    m, hbar, e2 = UNITS[units]
    p_atomic = m * e2 / hbar
    dp_conv = math.sqrt(2.0 * precision / 3.0) * p_atomic
    dp_der = math.sqrt(precision / 3.0) * p_atomic
    return dp_conv, dp_der, (dp_conv / hbar) ** 2, (dp_der / hbar) ** 2


def uncertainty_floor(tau: int, lam: float, dx: float, units: str) -> float:
    """Smallest momentum spread (hbar/2)(1/dx - tau lam dx)."""
    return 0.5 * UNITS[units][1] * (1.0 / dx - tau * lam * dx)


def continuum_edge(lam: float, units: str = "hartree") -> float:
    """dS continuum threshold -e2 sqrt(lam) (-sqrt(lam) in Hartree)."""
    return -UNITS[units][2] * math.sqrt(lam)


def hartree_lambda(lam: float, units: str) -> float:
    """The deformation in units of a0^-2."""
    return lam * bohr_radius(units) ** 2


def ds_tail_bound(lam_hartree: float, n: int) -> bool:
    """README tail criterion: eta/(2n) - n > 1/2 with eta = 2/sqrt(lam)."""
    eta = 2.0 / math.sqrt(lam_hartree)
    return eta / (2.0 * n) - n > 0.5


def ds_lambda_max(n: int) -> float:
    """Largest Hartree deformation at which the dS level n is still bound."""
    return 1.0 / (n * n * (n + 0.5) ** 2)


def linspace(start: float, stop: float, count: int):
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def sign_changes(values, rel_floor: float = 1e-10) -> int:
    """Strict sign changes, ignoring samples below rel_floor of the peak."""
    peak = max((abs(v) for v in values), default=0.0)
    signs = [v > 0.0 for v in values if abs(v) > rel_floor * peak]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _close(got: float, want: float, rel: float, abs_tol: float = 0.0) -> bool:
    return math.isfinite(got) and abs(got - want) <= rel * abs(want) + abs_tol


def _cell(text: str) -> float:
    return float(text) if text != "" else math.nan


def _read_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty CSV")
    return rows[0], [r for r in rows[1:] if r]


# ---------------------------------------------------------------------------
# CLI outputs.  ``op`` is the generated command spec (see workloads.cli_items).


def cli_output_files(op: dict, workdir: str):
    """Files the command writes, in the order its check reads them."""
    if op["cmd"] == "tables":
        return [f"{workdir}/table_critical.csv", f"{workdir}/table_inversion.csv"]
    return [f"{workdir}/out.{op['format']}"]


def check_cli(op: dict, returncode: int, stderr: str, outputs) -> str | None:
    """Exit code, stderr and every written file of one CLI command.

    ``outputs`` are the texts of ``cli_output_files`` (None where missing).
    """
    if "Traceback (most recent call last)" in stderr:
        return "traceback"
    if returncode != 0:
        return f"exit {returncode}: {stderr.strip().splitlines()[-1:]}"
    if any(text is None for text in outputs):
        return "output file missing"
    try:
        return _CLI_CHECKS[op["cmd"]](op, *outputs)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {exc}"


def _check_spectrum(op, text):
    header, rows = _read_csv(text)
    units, tau, lam = op["units"], op["tau"], op["lam"]
    want = [(n, l) for n in range(1, op["n_max"] + 1) for l in range(n)]
    if len(header) != 5 or [(int(r[0]), int(r[1])) for r in rows] != want:
        return "spectrum rows do not cover (n, l) up to n_max"
    for r in rows:
        n, l = int(r[0]), int(r[1])
        bohr = bohr_energy(n, units)
        corr = energy_correction(tau, lam, n, l, units)
        scale = abs(bohr) + abs(corr)
        for got, want_v in ((r[2], bohr + corr), (r[3], bohr), (r[4], corr)):
            if not _close(_cell(got), want_v, CSV_REL, 1e-15 * scale):
                return f"spectrum (n={n}, l={l}): {got} against {want_v:.6g}"
    return None


def _check_table(kind, text, n_max, ref):
    header, rows = _read_csv(text)
    if len(header) != n_max + 1 or [int(r[0]) for r in rows] != list(range(2, n_max + 1)):
        return f"{kind} table has the wrong shape"
    for r in rows:
        n = int(r[0])
        for l, cell in enumerate(r[1:]):
            want = ref(n, l) if l <= n - 1 else None
            if want is None:
                if cell != "":
                    return f"{kind} (n={n}, l={l}) should be empty, got {cell}"
            elif not _close(_cell(cell), want, 0.0, 0.5e-4 + 1e-12):
                return f"{kind} (n={n}, l={l}): {cell} against {want:.6g}"
    return None


def _check_tables(op, critical, inversion):
    return _check_table("critical", critical, op["n_max"], lambda_critical) or _check_table(
        "inversion", inversion, op["n_max"], lambda_inversion
    )


def _check_figure1(op, text):
    header, rows = _read_csv(text)
    units, lam = op["units"], op["lam"]
    grid = linspace(*op["range"])
    if len(header) != 4 or len(rows) != len(grid):
        return "figure1 has the wrong shape"
    hbar = UNITS[units][1]
    for r, dx in zip(rows, grid):
        scale = 0.5 * hbar * (1.0 / dx + lam * dx)
        want = (dx, 0.5 * hbar / dx, uncertainty_floor(1, lam, dx, units),
                uncertainty_floor(-1, lam, dx, units))
        for got, w, s in zip(r, want, (dx, scale, scale, scale)):
            if not _close(_cell(got), w, CSV_REL, 1e-13 * s):
                return f"figure1 dx={dx:.6g}: {got} against {w:.6g}"
    return None


def _check_figure2(op, text):
    header, rows = _read_csv(text)
    units, levels = op["units"], op["levels"]
    grid = linspace(*op["range"])
    if len(header) != 1 + 2 * len(levels) or len(rows) != len(grid):
        return "figure2 has the wrong shape"
    for r, lam in zip(rows, grid):
        want = [lam]
        for n in levels:
            want += [level_energy(1, lam, n, 0, units), level_energy(-1, lam, n, 0, units)]
        for got, w in zip(r, want):
            scale = abs(w) + abs(bohr_energy(1, units))
            if not _close(_cell(got), w, CSV_REL, 1e-15 * scale):
                return f"figure2 lambda={lam:.6g}: {got} against {w:.6g}"
    return None


def _check_bound(op, text):
    header, rows = _read_csv(text)
    if len(header) != 5 or len(rows) != 1:
        return "bound has the wrong shape"
    want = (op["precision"],) + spectroscopic_bound(op["precision"], op["units"])
    for got, w in zip(rows[0], want):
        if not _close(_cell(got), w, CSV_REL):
            return f"bound: {got} against {w:.6g}"
    return None


def _check_wavefunction(op, text):
    payload = json.loads(text)
    return check_state(
        op["tau"], op["lam"], op["n"], op["l"], op["units"],
        energy=payload["energy"],
        nodes=payload["nodes"],
        norm=payload["norm"],
        samples=[row[1] for row in payload["rows"]],
        # The CLI samples the whole AdS domain, which at small lambda is far
        # coarser than the atom; its node count is the "nodes" field.
        resolved=False,
    )


_CLI_CHECKS = {
    "spectrum": _check_spectrum,
    "tables": _check_tables,
    "figure1": _check_figure1,
    "figure2": _check_figure2,
    "bound": _check_bound,
    "wavefunction": _check_wavefunction,
}


# ---------------------------------------------------------------------------
# In-process results.


def check_state(tau, lam, n, l, units, *, energy, nodes, norm, samples, resolved=True) -> str | None:
    """A built radial state: its energy, node count, norm and sampled values.

    ``resolved`` says the samples lie on a grid fine enough to show every
    node; only then must their sign changes equal n - l - 1.
    """
    want = level_energy(tau, lam, n, l, units)
    if not _close(energy, want, ENERGY_REL):
        return f"state energy: {energy!r} against {want!r}"
    if nodes != n - l - 1:
        return f"count_nodes: {nodes} against {n - l - 1}"
    if not (math.isfinite(norm) and abs(norm - 1.0) <= NORM_TOL):
        return f"norm: {norm!r}"
    if not all(math.isfinite(v) for v in samples):
        return "radial samples: not finite"
    changes = sign_changes(samples) if resolved else n - l - 1
    if changes != n - l - 1:
        return f"radial samples: {changes} sign changes against {n - l - 1}"
    return None


def check_via_nu(tau, lam, n, l, units, value) -> str | None:
    want = level_energy(tau, lam, n, l, units)
    if not _close(value, want, VIA_NU_REL):
        return f"energy_via_nu: {value!r} against {want!r}"
    return None


def check_energy(tau, lam, n, l, units, value) -> str | None:
    want = level_energy(tau, lam, n, l, units)
    if not _close(value, want, ENERGY_REL):
        return f"energy: {value!r} against {want!r}"
    return None


def expected_cells(lambdas, n_max):
    """(model, lambda, n, l) of every cell a sweep must report."""
    return {
        (model, lam, n, l)
        for model in ("ds", "ads")
        for lam in lambdas
        for l in range(n_max)
        for n in range(l + 1, n_max + 1)
    }


def check_cell(row: dict, units: str = "hartree") -> str | None:
    """One crosscheck cell against the benchmark's own verdict.

    A bound level (every AdS level; dS below the continuum edge) must be
    ``ok`` within the README bound with matching nodes; a dS level above the
    edge must be labelled unbound.
    """
    tau = 1 if row["model"] == "ds" else -1
    lam, n, l = row["lambda"], row["n"], row["l"]
    want = level_energy(tau, lam, n, l, units)
    bound = tau == -1 or want < continuum_edge(lam, units)
    status = row["status"]
    if not bound:
        if status in ("above-threshold", "closed form not normalizable"):
            return None
        return f"unbound cell: reported {status!r}"
    if status != "ok":
        return f"status: {status!r}"
    if not _close(row["e_closed"], want, ENERGY_REL):
        return f"e_closed: {row['e_closed']!r} against {want!r}"
    if row["nodes_closed"] != n - l - 1:
        return f"nodes_closed: {row['nodes_closed']} against {n - l - 1}"
    if row["node_match"] is not True:
        return "node_match: oracle node count differs"
    e_oracle = row["e_oracle"]
    if e_oracle is None or not abs(e_oracle - want) < ORACLE_REL * abs(want):
        return f"oracle energy: {e_oracle!r} against {want!r}"
    return None
