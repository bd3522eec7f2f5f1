import math

import numpy as np
import pytest

from euph import oracle, spectra
from euph.errors import ValidationError
from euph.model import DeformationModel, QuantumNumbers

from commutator_reference import commutator_residual


def ds(lam):
    return DeformationModel(tau=1, lam=lam)


def ads(lam):
    return DeformationModel(tau=-1, lam=lam)


BOHR = [-0.5, -0.125, -1.0 / 18.0]


class TestSpectrumNearBohr:
    @pytest.mark.parametrize("tau", [1, -1], ids=["ds", "ads"])
    def test_first_three_levels(self, tau):
        model = DeformationModel(tau, 1e-6)
        spec = oracle.fd_spectrum(model, 0, 3)
        for e_fd, e_ref in zip(spec.eigenvalues, BOHR):
            assert abs(e_fd - e_ref) < 1e-4

    def test_ads_worked_level(self):
        spec = oracle.fd_spectrum(ads(0.001), 0, 2)
        assert abs(spec.eigenvalues[1] - (-0.1235)) < 5e-5

    def test_critical_ionization_point(self):
        spec = oracle.fd_spectrum(ads(1.0 / 12.0), 0, 2)
        assert abs(spec.eigenvalues[1]) < 5e-3


class TestOracleStructure:
    def test_sturm_node_counts(self):
        for model in (ds(0.001), ads(0.01)):
            spec = oracle.fd_spectrum(model, 0, 4)
            assert spec.node_counts() == [0, 1, 2, 3]

    def test_bound_state_estimates_within_the_gate(self):
        # every level here is bound (dS: lam < 1/n^4); the gate is
        # ESTIMATE_BOUND x |E_Bohr(n)| in Hartree
        for model in (ds(0.001), ads(0.01)):
            spec = oracle.fd_spectrum(model, 0, 3)
            assert len(spec.convergence_estimate) == 3
            for n, estimate in enumerate(spec.convergence_estimate, start=1):
                assert estimate <= oracle.ESTIMATE_BOUND / (2 * n * n)

    def test_eigenvalues_ascending(self):
        spec = oracle.fd_spectrum(ads(0.01), 1, 3)
        assert list(spec.eigenvalues) == sorted(spec.eigenvalues)

    def test_count_bounds(self):
        with pytest.raises(ValidationError):
            oracle.fd_spectrum(ds(0.01), 0, 11)


class TestWallTreatment:
    def test_squeezed_state_needs_the_natural_continuation(self):
        # (n=3, l=0) at lam=0.01 leans on the wall (a hard box just inside it
        # shifts the level by more than 1e-2); the smooth continuation in
        # t = arctan s reproduces the closed form
        model = ads(0.01)
        e_ref = spectra.energy(model, QuantumNumbers(3, 0)).energy
        nat = oracle.fd_spectrum(model, 0, 3)
        assert nat.coordinate == "t"
        assert abs(nat.eigenvalues[2] - e_ref) / abs(e_ref) < 1e-3


class TestCommutator:
    def test_undeformed_limit_is_pure_stencil_error(self):
        model = ads(1e-10)
        assert commutator_residual(model, "gaussian") < 1e-8

    @pytest.mark.parametrize("fn", ["gaussian", "gaussian_x", "gaussian_x2"])
    @pytest.mark.parametrize("lam", [0.01, 0.1])
    @pytest.mark.parametrize("tau", [1, -1], ids=["ds", "ads"])
    def test_catalog(self, tau, lam, fn):
        model = DeformationModel(tau, lam)
        assert commutator_residual(model, fn) < 1e-6

    def test_unknown_function(self):
        with pytest.raises(ValidationError):
            commutator_residual(ds(0.01), "lorentzian")


class TestCrosscheck:
    def test_empty_sweep(self):
        report = oracle.crosscheck_report([], 3)
        assert report.rows == ()
        assert report.summary["cells"] == 0
        assert report.summary["errors"] == 0

    def test_sweep_accuracy(self):
        report = oracle.crosscheck_report([0.001, 0.01], 3)
        assert report.summary["max_rel_dev_ads"] < 1e-3
        assert report.summary["max_rel_dev_ds"] < 1e-3
        assert report.summary["all_nodes_match"]
        assert report.summary["errors"] == 0

    def test_ds_labels(self):
        # lam = 0.01: the n = 3 and 4 levels lie above the continuum edge
        # -sqrt(lam), except (4,0), which lies below it with a tail that is
        # not square integrable
        report = oracle.crosscheck_report([0.01], 4)
        labels = {(r["n"], r["l"]): r["status"] for r in report.rows if r["model"] == "ds"}
        assert len(labels) == 10
        expected = {(1, 0): "ok", (2, 0): "ok", (2, 1): "ok"}
        expected[4, 0] = "closed form not normalizable"
        for nl, status in labels.items():
            assert status == expected.get(nl, "above-threshold"), nl

    def test_row_order_is_deterministic(self):
        # dS before AdS, lambdas in input order, then l and n ascending
        report = oracle.crosscheck_report([0.01, 0.001], 2)
        expected = [
            (model, lam, l, n)
            for model in ("ds", "ads")
            for lam in (0.01, 0.001)
            for l in range(2)
            for n in range(l + 1, 3)
        ]
        assert [(r["model"], r["lambda"], r["l"], r["n"]) for r in report.rows] == expected

    def test_engine_failure_is_an_error_cell(self, monkeypatch):
        from euph import wavefunctions
        from euph.errors import NotAPerfectSquareError

        def broken(*args, **kwargs):
            raise NotAPerfectSquareError("synthetic engine failure")

        monkeypatch.setattr(wavefunctions, "build_state", broken)
        report = oracle.crosscheck_report([0.001], 1)
        assert [row["status"] for row in report.rows] == ["error: synthetic engine failure"] * 2
        assert report.summary["errors"] == 2

    def test_cell_failures_do_not_abort(self, monkeypatch):
        from euph.errors import ConvergenceError

        def broken(*args, **kwargs):
            raise ConvergenceError("synthetic non-second-order behavior")

        monkeypatch.setattr(oracle, "fd_spectrum", broken)
        report = oracle.crosscheck_report([0.01], 2)
        assert report.summary["cells"] == 6
        assert report.summary["errors"] == 6
        assert all(row["status"].startswith("error") for row in report.rows)


class TestConvergenceGuard:
    def test_degraded_check_solve_is_an_error_cell(self, monkeypatch):
        solve = oracle.eigh_tridiagonal

        def degraded(matrix, vectors=True):
            # the eigenvalues-only solve at order 3N/2 drifts by 1e-3
            return solve(matrix, True) if vectors else solve(matrix, False) * (1.0 + 1e-3)

        monkeypatch.setattr(oracle, "eigh_tridiagonal", degraded)
        report = oracle.crosscheck_report([0.001], 2)
        assert len(report.rows) == 6
        for row in report.rows:
            assert row["status"].startswith("error: mesh estimate"), row
        assert report.summary["errors"] == 6

    def test_unbound_level_does_not_fail_its_block(self):
        # dS lam = 0.01: (4,0) lies in the continuum, where the mesh has a
        # pseudo-continuum and the estimate is large; the bound (1,0) and
        # (2,0) of the same block stay ok and the labels of (3,0) and (4,0)
        # stand
        model = ds(0.01)
        spec = oracle.fd_spectrum(model, 0, 4)
        assert spec.convergence_estimate[3] > oracle.ESTIMATE_BOUND
        assert max(spec.convergence_estimate[:2]) <= oracle.ESTIMATE_BOUND
        report = oracle.crosscheck_report([0.01], 4)
        labels = {r["n"]: r["status"] for r in report.rows if r["model"] == "ds" and r["l"] == 0}
        assert labels == {
            1: "ok",
            2: "ok",
            3: "above-threshold",
            4: "closed form not normalizable",
        }


class TestEighAttribute:
    """Every mesh solve goes through the module attribute
    ``oracle.eigh_tridiagonal``, the matrix first: perfbench times it by
    substituting that attribute and counts ``len(args[0])`` points."""

    @pytest.mark.parametrize(
        "model, l, count, coordinate, order",
        [
            (ds(1e-3), 0, 3, "theta", 40),
            (ads(0.01), 0, 2, "t", 40),
            (ads(1e-6), 0, 2, "t", 60),  # the map draws the nodes onto the atom
            # (3,0) at dS 0.01 is about to leave the spectrum (lam < 1/3^4)
            (ds(0.01), 0, 3, "theta", 100),
            (ads(1e-3), 2, 3, "t", 100),  # up to n = 5
        ],
        ids=["theta", "t", "t-mapped", "ds-window", "n5"],
    )
    def test_one_seam_call_per_mesh_solve(self, monkeypatch, model, l, count, coordinate, order):
        calls = []
        solve = oracle.eigh_tridiagonal

        def recording(*args, **kwargs):
            matrix = args[0]
            assert matrix.shape == (len(matrix), len(matrix))
            calls.append((len(matrix), args[1:] + tuple(kwargs.values())))
            return solve(*args, **kwargs)

        monkeypatch.setattr(oracle, "eigh_tridiagonal", recording)
        spec = oracle.fd_spectrum(model, l, count)
        assert spec.coordinate == coordinate
        assert calls == [(order, (True,)), (3 * order // 2, (False,))]


def shift(model, n, e):
    """E - E_Bohr in Hartree."""
    return e / model.units.hartree_energy + 0.5 / n**2


class TestShiftResolution:
    """The oracle resolves the deformation shift E - E_Bohr, not only E."""

    @pytest.mark.parametrize("lam", [1e-4, 1e-3, 1e-2])
    @pytest.mark.parametrize("tau", [1, -1], ids=["ds", "ads"])
    def test_every_bound_cell(self, tau, lam):
        model = DeformationModel(tau, lam)
        checked = 0
        for l in range(4):
            spec = oracle.fd_spectrum(model, l, 4 - l)
            for k in range(4 - l):
                n = l + 1 + k
                if tau == 1 and lam >= 1.0 / n**4:
                    continue  # in the dS continuum
                want = shift(model, n, spectra.energy(model, QuantumNumbers(n, l)).energy)
                got = shift(model, n, spec.eigenvalues[k])
                if want == 0.0:
                    assert abs(got) <= 1e-12, (n, l)
                else:
                    assert abs(got - want) <= 1e-6 * abs(want), (n, l, got, want)
                checked += 1
        assert checked >= 6

    def test_estimate_flags_every_unresolved_cell(self):
        # a bound cell whose shift the mesh misses must fail the estimate's
        # gate; the only such cells are dS levels about to leave the
        # spectrum (Jacobi parameter 1/(n sqrt(lam)) - n below 1), and the
        # lam = 0.96/n^4 lie among them
        lams = list(np.logspace(-4, math.log10(0.08), 57))
        lams += [0.96 / n**4 for n in (2, 3, 4)]
        checked, silent, unresolved = 0, [], []
        for tau in (1, -1):
            for lam in lams:
                model = DeformationModel(tau, float(lam))
                for l in range(4):
                    spec = oracle.fd_spectrum(model, l, 4 - l)
                    for k in range(4 - l):
                        n = l + 1 + k
                        if tau == 1 and lam >= 1.0 / n**4:
                            continue  # in the dS continuum
                        want = shift(model, n, spectra.energy(model, QuantumNumbers(n, l)).energy)
                        got = shift(model, n, spec.eigenvalues[k])
                        error = abs(got - want)
                        resolved = error <= 1e-6 * abs(want) if want else error <= 1e-12
                        flagged = spec.convergence_estimate[k] > oracle.ESTIMATE_BOUND / (2 * n * n)
                        checked += 1
                        if not resolved:
                            unresolved.append((tau, lam, n, l))
                            if not flagged:
                                silent.append((tau, lam, n, l, error))
        assert checked > 1000
        assert silent == []
        for tau, lam, n, l in unresolved:
            assert tau == 1 and 1.0 / (n * math.sqrt(lam)) - n < 1.0, (lam, n, l)

    @pytest.mark.parametrize("lam", [1e-4, 1.5e-4, 2.08e-4])
    def test_ads_l1_blocks_are_ok(self, lam):
        # these cells once failed a Richardson gate of the finite-difference
        # oracle as error cells
        report = oracle.crosscheck_report([lam], 4)
        labels = {r["n"]: r["status"] for r in report.rows if r["model"] == "ads" and r["l"] == 1}
        assert labels == {2: "ok", 3: "ok", 4: "ok"}


class TestWholeRange:
    """Down to the spectroscopic bound (~3e-16) and beyond, the oracle still
    gives every level."""

    @pytest.mark.parametrize("lam", [1e-12, 3.3e-16, 1e-30])
    @pytest.mark.parametrize("tau", [1, -1], ids=["ds", "ads"])
    def test_levels(self, tau, lam):
        model = DeformationModel(tau, lam)
        for l in range(3):
            spec = oracle.fd_spectrum(model, l, 3 - l)
            assert spec.coordinate == ("theta" if tau == 1 else "t")
            assert spec.node_counts() == list(range(3 - l))
            for k, e in enumerate(spec.eigenvalues):
                want = spectra.energy(model, QuantumNumbers(l + 1 + k, l)).energy
                assert abs(e - want) <= 1e-10 * abs(want), (l + 1 + k, l)


class TestReach:
    """The t-mesh's map draws its nodes onto the atom by the block's top
    level, so the AdS oracle reaches n = 20 from lam = 1e-12 to 1e-4."""

    @pytest.mark.parametrize("lam", [1e-12, 1e-8, 1e-6, 1e-5, 1e-4])
    @pytest.mark.parametrize("l", [0, 5, 10])
    def test_ten_levels(self, l, lam):
        model = ads(lam)
        spec = oracle.fd_spectrum(model, l, 10)
        assert spec.node_counts() == list(range(10))
        for k, e in enumerate(spec.eigenvalues):
            want = spectra.energy(model, QuantumNumbers(l + 1 + k, l)).energy
            assert abs(e - want) <= 1e-10 * abs(want), (l + 1 + k, l)

    def test_node_counts_over_the_whole_range(self):
        # every AdS level is a Romanovski state, bound or not, so each block's
        # mesh vectors carry 0, 1, ... nodes from lam = 1e-300 to 1
        wrong = []
        for lam in np.logspace(-300, 0, 121):
            for l, count in [(0, 4), (1, 3), (3, 1), (0, 6), (10, 3)]:
                spec = oracle.fd_spectrum(ads(float(lam)), l, count)
                if spec.node_counts() != list(range(count)):
                    wrong.append((float(lam), l, spec.node_counts()))
        assert wrong == []
