"""Acceptance suite: every quantitative exit criterion, one test each.

Each test prints a single PASS/FAIL line (visible with pytest -s or -rA)
so the suite doubles as a verification report.
"""

import math
import time

import numpy as np
import pytest

from euph import oracle, spectra, wavefunctions as wf
from euph.cli import main as cli_main
from euph.errors import NonNormalizableError
from euph.model import SI, DeformationModel, QuantumNumbers
from euph import nu_engine as nu

import nu_reference as ref

PRINTED_CRITICAL = {
    (2, 0): 0.0833, (2, 1): 0.2500,
    (3, 0): 0.0139, (3, 1): 0.0185, (3, 2): 0.0556,
    (4, 0): 0.0042, (4, 1): 0.0048, (4, 2): 0.0069, (4, 3): 0.0208,
    (5, 0): 0.0017, (5, 1): 0.0018, (5, 2): 0.0022, (5, 3): 0.0033, (5, 4): 0.0100,
}
PRINTED_INVERSION = {
    (2, 0): 0.250, (2, 1): 0.750,
    (3, 0): 0.111, (3, 1): 0.148, (3, 2): 0.444,
    (4, 0): 0.063, (4, 1): 0.072, (4, 2): 0.104, (4, 3): 0.313,
    (5, 0): 0.040, (5, 1): 0.044, (5, 2): 0.053, (5, 3): 0.080, (5, 4): 0.240,
}


def report(number, name, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {state}{suffix}")


def read_table(path):
    lines = path.read_text().splitlines()
    cells = {}
    for row in lines[1:]:
        parts = row.split(",")
        n = int(parts[0])
        for l, cell in enumerate(parts[1:]):
            if cell:
                cells[(n, l)] = float(cell)
    return cells


def test_criterion_01_critical_table(tmp_path):
    t0 = time.perf_counter()
    assert cli_main(["tables", "--n-max", "5", "--output-dir", str(tmp_path)]) == 0
    elapsed = time.perf_counter() - t0
    cells = read_table(tmp_path / "table_critical.csv")
    bad = [
        key
        for key, printed in PRINTED_CRITICAL.items()
        if abs(cells[key] - printed) > 1e-12
    ]
    erratum_ok = abs(cells[(3, 0)] - 0.0139) < 1e-12 and abs(
        cells[(3, 0)] - 0.1389
    ) > 0.1
    ok = not bad and erratum_ok and elapsed < 1.0
    report(1, "critical-deformation-table", ok,
           f"runtime {elapsed:.3f}s; cell (3,0) emitted as 1/72 = 0.0139, "
           "the sometimes-quoted 0.1389 is a misprint")
    assert ok, (bad, elapsed)


def test_criterion_02_inversion_table(tmp_path):
    t0 = time.perf_counter()
    assert cli_main(["tables", "--n-max", "5", "--output-dir", str(tmp_path)]) == 0
    elapsed = time.perf_counter() - t0
    cells = read_table(tmp_path / "table_inversion.csv")
    bad = [
        key
        for key, printed in PRINTED_INVERSION.items()
        if abs(cells[key] - printed) > 0.5e-3 + 1e-12
    ]
    ok = not bad and elapsed < 1.0
    report(2, "inversion-deformation-table", ok, f"runtime {elapsed:.3f}s")
    assert ok, (bad, elapsed)


def test_criterion_03_oracle_agreement():
    t0 = time.perf_counter()
    worst = {"ds": 0.0, "ads": 0.0}
    checked = {"ds": 0, "ads": 0}
    for tau, name in ((1, "ds"), (-1, "ads")):
        for lam in (0.001, 0.01):
            model = DeformationModel(tau, lam)
            threshold = -math.sqrt(lam)
            for l in range(3):
                count = 3 - l
                spec = oracle.fd_spectrum(model, l, count)
                for k in range(count):
                    n = l + 1 + k
                    e_ref = spectra.energy(model, QuantumNumbers(n, l)).energy
                    if tau == 1 and e_ref >= threshold:
                        continue
                    rel = abs(spec.eigenvalues[k] - e_ref) / abs(e_ref)
                    worst[name] = max(worst[name], rel)
                    checked[name] += 1
    elapsed = time.perf_counter() - t0
    ok = worst["ds"] < 1e-3 and worst["ads"] < 1e-3 and elapsed < 60.0
    report(3, "closed-form-vs-oracle", ok,
           f"max rel dev ds {worst['ds']:.2e} ({checked['ds']} states), "
           f"ads {worst['ads']:.2e} ({checked['ads']} states), runtime {elapsed:.1f}s")
    assert ok, (worst, elapsed)


def test_criterion_04_critical_ionization():
    model = DeformationModel(-1, 1.0 / 12.0)
    spec = oracle.fd_spectrum(model, 0, 2)
    deviation = abs(spec.eigenvalues[1])
    ok = deviation < 5e-3
    report(4, "critical-ionization-point", ok, f"|E(2,0)| = {deviation:.2e}")
    assert ok, deviation


def test_criterion_05_ground_flatness_and_inversion():
    lams = np.linspace(0.0, 0.1, 200)[1:]  # lam = 0 is the closed Bohr limit
    flat = all(
        spectra.energy(DeformationModel(1, lam), QuantumNumbers(1, 0)).energy == -0.5
        for lam in lams
    )
    lam_f = spectra.lambda_inversion(QuantumNumbers(3, 0))
    e3 = spectra.energy(DeformationModel(1, lam_f), QuantumNumbers(3, 0)).energy
    e1 = spectra.energy(DeformationModel(1, lam_f), QuantumNumbers(1, 0)).energy
    equal_at_crossing = abs(e3 - e1) <= 1e-14
    e3p = spectra.energy(DeformationModel(1, 0.12), QuantumNumbers(3, 0)).energy
    inverted = abs(e3p) > abs(e1) and e3p < e1
    ok = flat and equal_at_crossing and inverted and abs(lam_f - 1.0 / 9.0) < 1e-15
    report(5, "ground-flatness-and-inversion", ok,
           f"lam_f(3,0) = {lam_f:.3f}, |E3-E1| at crossing = {abs(e3 - e1):.1e}")
    assert ok


def test_criterion_06_reduction_consistency():
    worst = 0.0
    for tau in (1, -1):
        for lam in (0.001, 0.01, 0.05):
            model = DeformationModel(tau, lam)
            for n in range(1, 5):
                for l in range(n):
                    qn = QuantumNumbers(n, l)
                    e_ref = spectra.energy(model, qn).energy
                    e_nu = spectra.energy_via_nu(model, qn)
                    worst = max(worst, abs(e_nu - e_ref) / abs(e_ref))
    ok = worst < 1e-9
    report(6, "reduction-engine-consistency", ok, f"max rel dev {worst:.2e}")
    assert ok, worst


def test_criterion_07_rodrigues_property_suite():
    worst_ode, worst_pearson, degree_ok = 0.0, 0.0, True
    cases = []
    for tau, lam, n, l in [(1, 0.01, 2, 0), (1, 0.001, 3, 1), (-1, 0.01, 2, 0), (-1, 0.01, 3, 1)]:
        model = DeformationModel(tau, lam)
        eps = spectra._epsilon_closed(model, l, n)
        ode = spectra.hydrogen_ode(model, l, eps)
        red = nu.reduce(ode, n - l - 1)
        cases.append((tau, ode, red))
    import numpy.polynomial.polynomial as npoly

    for tau, ode, red in cases:
        s = np.linspace(1.05, 5.0, 64) if tau == 1 else np.linspace(-4.0, 5.0, 64)
        worst_pearson = max(
            worst_pearson, ref.weight(red).pearson_residual(ode.sigma, red.tau, s)
        )
        for deg in range(9):
            y = ref.rodrigues_coefficients(red, ode, deg)
            lam_n = ref.level_constant(red, ode, deg)
            resid = (
                npoly.polyval(s, npoly.polymul(ode.sigma, npoly.polyder(y, 2)))
                + npoly.polyval(s, npoly.polymul(red.tau, npoly.polyder(y)))
                + lam_n * npoly.polyval(s, y)
            )
            yscale = max(np.max(np.abs(npoly.polyval(s, y))), 1.0)
            worst_ode = max(
                worst_ode, np.max(np.abs(resid)) / (yscale * max(1.0, np.max(s * s)))
            )
            distinct = all(
                abs(lam_n - ref.level_constant(red, ode, m)) > 1e-9 for m in range(deg)
            )
            if distinct and (len(y) != deg + 1 or y[-1] == 0.0):
                degree_ok = False
    ok = worst_ode <= 1e-8 and worst_pearson <= 1e-8 and degree_ok
    report(7, "rodrigues-ode-property-suite", ok,
           f"ode residual {worst_ode:.2e}, pearson {worst_pearson:.2e}")
    assert ok, (worst_ode, worst_pearson, degree_ok)


def test_criterion_08_commutator_identity():
    worst = 0.0
    for tau in (1, -1):
        for lam in (0.01, 0.1):
            model = DeformationModel(tau, lam)
            for fn in ("gaussian", "gaussian_x", "gaussian_x2"):
                worst = max(worst, oracle.commutator_residual(model, fn))
    ok = worst < 1e-6
    report(8, "commutator-identity", ok, f"max residual {worst:.2e}")
    assert ok, worst


def test_criterion_09_node_counts():
    mismatches = []
    compared = 0
    for tau in (1, -1):
        for lam in (0.001, 0.01):
            model = DeformationModel(tau, lam)
            for l in range(4):
                count = 4 - l
                spec = oracle.fd_spectrum(model, l, count)
                fd_nodes = spec.node_counts()
                for k in range(count):
                    n = l + 1 + k
                    try:
                        state = wf.build_state(model, QuantumNumbers(n, l))
                    except NonNormalizableError:
                        continue  # dS levels beyond the bound-state window
                    compared += 1
                    if wf.count_nodes(state) != n - l - 1 or fd_nodes[k] != n - l - 1:
                        mismatches.append((tau, lam, n, l))
    ok = not mismatches and compared >= 24
    report(9, "node-count-agreement", ok, f"{compared} states compared")
    assert ok, mismatches


def test_criterion_10_spectroscopic_bound():
    bound = spectra.spectroscopic_bound(1e-15, SI)
    values = (bound.dp_min_convention, bound.dp_min_derived)
    ok = all(1e-33 <= v <= 1e-31 for v in values)
    report(10, "spectroscopic-bound", ok,
           f"dP_min = {values[0]:.2e} (c=3/2), {values[1]:.2e} (c=3) kg m/s")
    assert ok, values
