import math

import numpy as np
import pytest

from euph import oracle, spectra
from euph.errors import ValidationError
from euph.model import DeformationModel, QuantumNumbers


def ds(lam):
    return DeformationModel(tau=1, lam=lam)


def ads(lam):
    return DeformationModel(tau=-1, lam=lam)


BOHR = [-0.5, -0.125, -1.0 / 18.0]


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            oracle.GridSpec(n_points=100)
        with pytest.raises(ValidationError):
            oracle.GridSpec(r_min=2.0, r_max=1.0)


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
            spec = oracle.fd_spectrum(model, 0, 4, richardson=False)
            assert spec.node_counts() == [0, 1, 2, 3]

    def test_richardson_ratio_second_order(self):
        for model in (ds(0.001), ads(0.01)):
            spec = oracle.fd_spectrum(model, 0, 3)
            for ratio, status in zip(spec.convergence_estimate, spec.statuses):
                if status == "converged":
                    assert 2.5 <= ratio <= 6.0

    def test_eigenvalues_ascending(self):
        spec = oracle.fd_spectrum(ads(0.01), 1, 3, richardson=False)
        assert list(spec.eigenvalues) == sorted(spec.eigenvalues)

    def test_r_min_insensitivity(self):
        model = ds(0.01)
        vals = []
        for r_min_factor in (1e-4, 5e-5):
            grid = oracle.GridSpec(r_min=r_min_factor * 44.0, r_max=44.0)
            spec = oracle.fd_spectrum(model, 0, 2, grid, richardson=False)
            vals.append(spec.eigenvalues)
        assert abs(vals[0][0] - vals[1][0]) <= 1e-10
        assert abs(vals[0][1] - vals[1][1]) <= 1e-10

    def test_ds_threshold_flagging(self):
        # lam=0.01 puts the n=3 levels above the continuum threshold -sqrt(lam)
        spec = oracle.fd_spectrum(ds(0.01), 0, 3, richardson=False)
        assert spec.statuses[0] == "converged"
        assert spec.statuses[2] == "above-threshold"

    def test_count_bounds(self):
        with pytest.raises(ValidationError):
            oracle.fd_spectrum(ds(0.01), 0, 11)


class TestWallTreatment:
    def test_deep_states_agree_both_ways(self):
        model = ads(0.001)
        nat = oracle.fd_spectrum(model, 0, 1, richardson=False)
        box = oracle.fd_spectrum(model, 0, 1, richardson=False, ads_bc="box")
        assert abs(nat.eigenvalues[0] - box.eigenvalues[0]) < 1e-4

    def test_squeezed_state_needs_the_natural_continuation(self):
        # (n=3, l=0) at lam=0.01 leans on the wall: the hard box shifts it by
        # percents while the smooth continuation reproduces the closed form
        model = ads(0.01)
        e_ref = spectra.energy(model, QuantumNumbers(3, 0)).energy
        nat = oracle.fd_spectrum(model, 0, 3, richardson=False)
        box = oracle.fd_spectrum(model, 0, 3, richardson=False, ads_bc="box")
        assert abs(nat.eigenvalues[2] - e_ref) / abs(e_ref) < 1e-3
        assert abs(box.eigenvalues[2] - e_ref) / abs(e_ref) > 1e-2

    def test_radial_grid_past_the_wall_is_a_validation_error(self):
        with pytest.raises(ValidationError):
            oracle.fd_spectrum(ads(0.01), 0, 1, oracle.GridSpec(r_max=20.0),
                               richardson=False, ads_bc="box")


class TestCommutator:
    def test_undeformed_limit_is_pure_stencil_error(self):
        model = ads(1e-10)
        assert oracle.commutator_residual(model, "gaussian") < 1e-8

    @pytest.mark.parametrize("fn", ["gaussian", "gaussian_x", "gaussian_x2"])
    @pytest.mark.parametrize("lam", [0.01, 0.1])
    @pytest.mark.parametrize("tau", [1, -1], ids=["ds", "ads"])
    def test_catalog(self, tau, lam, fn):
        model = DeformationModel(tau, lam)
        assert oracle.commutator_residual(model, fn) < 1e-6

    def test_unknown_function(self):
        with pytest.raises(ValidationError):
            oracle.commutator_residual(ds(0.01), "lorentzian")


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
    def test_non_second_order_richardson_raises(self, monkeypatch):
        from euph.errors import ConvergenceError

        calls = {"i": 0}
        original = oracle._solve_radial_grid

        def degraded(model, l, count, n_points, r_min, r_max):
            # corrupt only the refined solves so the ratio leaves [2, 6]
            energies, vecs = original(model, l, count, n_points, r_min, r_max)
            calls["i"] += 1
            if calls["i"] > 1:
                energies = energies + 1e-3 * calls["i"]
            return energies, vecs

        monkeypatch.setattr(oracle, "_solve_radial_grid", degraded)
        with pytest.raises(ConvergenceError):
            oracle.fd_spectrum(ds(0.001), 0, 1)
