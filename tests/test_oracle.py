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

    def test_richardson_ratio_second_order(self):
        for model in (ds(0.001), ads(0.01)):
            spec = oracle.fd_spectrum(model, 0, 3)
            for ratio in spec.convergence_estimate:
                assert 2.5 <= ratio <= 6.0

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
    def test_non_second_order_richardson_raises(self, monkeypatch):
        from euph.errors import ConvergenceError

        original = oracle._solve_radial_grid

        def degrade(shift):
            # solve N, 2N, 4N are calls 1, 2, 3; shift(call) is added to the energies
            calls = []

            def degraded(*args, **kwargs):
                energies, vecs = original(*args, **kwargs)
                calls.append(None)
                return energies + shift(len(calls)), vecs

            monkeypatch.setattr(oracle, "_solve_radial_grid", degraded)

        # corrupt only the refined solves so the ratio leaves [2, 6]
        degrade(lambda call: 1e-3 * call if call > 1 else 0.0)
        with pytest.raises(ConvergenceError):
            oracle.fd_spectrum(ds(0.001), 0, 1)

        # the gate covers every state, also dS state 2 at lam = 0.01, which
        # lies above the continuum edge -sqrt(lam)
        degrade(lambda call: np.array([0.0, 0.0, 1e-3 if call == 3 else 0.0]))
        with pytest.raises(ConvergenceError, match="state 2: error-reduction ratio"):
            oracle.fd_spectrum(ds(0.01), 0, 3)


class TestEighAttribute:
    """The N-grid eigensolve goes through the module attribute
    ``oracle.eigh_tridiagonal``, the grid samples first: perfbench times it by
    substituting that attribute and counts ``len(args[0])`` points."""

    @pytest.mark.parametrize(
        "model, count, coordinate",
        [(ds(1e-3), 3, "r"), (ads(0.01), 2, "t")],
        ids=["radial", "ads-t"],
    )
    def test_one_call_per_spectrum_on_the_n_grid(self, monkeypatch, model, count, coordinate):
        solved, refined = [], []
        eigh, refine = oracle.eigh_tridiagonal, oracle._refine_eigenvalues

        def recording_eigh(*args, **kwargs):
            solved.append(len(args[0]))
            return eigh(*args, **kwargs)

        def recording_refine(dd, ee, seeds):
            refined.append(len(dd))
            return refine(dd, ee, seeds)

        monkeypatch.setattr(oracle, "eigh_tridiagonal", recording_eigh)
        monkeypatch.setattr(oracle, "_refine_eigenvalues", recording_refine)
        spec = oracle.fd_spectrum(model, 0, count)
        assert spec.coordinate == coordinate
        assert solved == [4000]
        assert refined == [8000, 16000]


class TestSeededRefinement:
    @pytest.mark.parametrize(
        "lam, l",
        [(0.03, 3), (0.028002852016093403, 2)],
        ids=["lam0.03-l3", "lam0.028-l2"],
    )
    def test_ratio_free_of_bisection_round_off(self, lam, l):
        # bisection to an absolute ulp*||T|| once pushed these ratios past 6
        spec = oracle.fd_spectrum(ads(lam), l, 1)
        assert abs(spec.convergence_estimate[0] - 4.0) < 0.1

    @staticmethod
    def sturm_counts(dd, ee, x):
        """Eigenvalues of (dd, ee) below each x: Sturm counts in long double."""
        d, e2 = dd.astype(np.longdouble), ee.astype(np.longdouble) ** 2
        q = d[0] - x
        below = (q < 0).astype(int)
        for i in range(1, len(d)):
            q = d[i] - x - e2[i - 1] / q
            below += q < 0
        return below

    @pytest.mark.parametrize(
        "model, l, count",
        [(ds(1e-3), 0, 4), (ads(1e-4), 1, 3), (ads(0.03), 3, 1)],
        ids=["ds-radial", "ads-t-small", "ads-t-wall"],
    )
    def test_refined_eigenvalues_are_accurate(self, monkeypatch, model, l, count):
        if model.tau == 1:
            def solve(n_points, seeds=None):
                return oracle._solve_radial_grid(model, l, count, n_points, 84.0, seeds)
        else:
            def solve(n_points, seeds=None):
                return oracle._solve_ads_natural(model, l, count, n_points, seeds)

        refined = []
        original = oracle._refine_eigenvalues

        def recording(dd, ee, seeds):
            vals = original(dd, ee, seeds)
            refined.append((dd, ee, vals))
            return vals

        monkeypatch.setattr(oracle, "_refine_eigenvalues", recording)
        solve(4000, solve(2000)[0])
        ((dd, ee, vals),) = refined
        assert len(dd) == 4000
        # eigenvalue k lies within 1e-12 (relative) of vals[k]
        vals = vals.astype(np.longdouble)
        k = np.arange(count)
        assert list(self.sturm_counts(dd, ee, vals - 1e-12 * abs(vals))) == list(k)
        assert list(self.sturm_counts(dd, ee, vals + 1e-12 * abs(vals))) == list(k + 1)

    def test_seed_at_the_next_eigenvalue_raises(self):
        from euph.errors import ConvergenceError

        model = ds(1e-3)
        energies, _ = oracle._solve_radial_grid(model, 0, 3, 2000, 40.0)
        good, _ = oracle._solve_radial_grid(model, 0, 2, 4000, 40.0, energies[:2])
        assert np.all(np.abs(good - energies[:2]) < 1e-3)
        with pytest.raises(ConvergenceError, match="sign changes"):
            oracle._solve_radial_grid(model, 0, 1, 4000, 40.0, energies[1:2])
        with pytest.raises(ConvergenceError, match="sign changes"):
            oracle._solve_radial_grid(model, 0, 2, 4000, 40.0, energies[[0, 2]])
