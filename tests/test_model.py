import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euph import oracle, spectra
from euph import wavefunctions as wf
from euph.errors import DomainError, EuphError, UnsupportedModelError, ValidationError
from euph.model import (
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

ADS = DeformationModel(tau=-1, lam=0.25)
DS = DeformationModel(tau=1, lam=1.0)


class TestConstruction:
    def test_tau_must_be_sign(self):
        with pytest.raises(ValidationError):
            DeformationModel(tau=0, lam=0.1)

    def test_lambda_zero_rejected(self):
        with pytest.raises(ValidationError):
            DeformationModel(tau=1, lam=0.0)

    def test_lambda_negative_rejected(self):
        with pytest.raises(ValidationError):
            DeformationModel(tau=-1, lam=-0.1)

    def test_derived_quantities(self):
        m = DeformationModel(tau=-1, lam=0.04)
        assert m.ds_radius == 5.0
        assert m.cosmological_constant == -0.12
        # lam recovered exactly from the cosmological constant
        assert m.cosmological_constant / (3 * m.tau) == m.lam

    def test_units_positive(self):
        with pytest.raises(ValidationError):
            UnitSystem(m=-1.0)

    def test_si_constants(self):
        assert SI.bohr_radius == pytest.approx(5.29177210903e-11, rel=1e-9)
        assert SI.hartree_energy == pytest.approx(4.3597447222071e-18, rel=1e-9)


class TestQuantumNumbers:
    def test_n_r(self):
        assert QuantumNumbers(3, 1).n_r == 1

    @pytest.mark.parametrize("n,l,m", [(0, 0, 0), (2, 2, 0), (2, 1, 2), (1, -1, 0)])
    def test_invalid(self, n, l, m):
        with pytest.raises(ValidationError):
            QuantumNumbers(n, l, m)


class TestCoordinateMap:
    def test_ads_wall_is_outside_domain(self):
        with pytest.raises(DomainError):
            s_of_r(ADS, 2.0)  # r = 1/sqrt(lam) exactly

    def test_ds_value(self):
        assert s_of_r(DS, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_ads_value(self):
        assert s_of_r(ADS, 1.0) == pytest.approx(math.sqrt(0.75) / 0.5, rel=1e-12)

    def test_nonpositive_radius(self):
        with pytest.raises(DomainError):
            s_of_r(DS, 0.0)

    def test_inverse_value(self):
        m = DeformationModel(tau=-1, lam=0.01)
        assert r_of_s(m, 1.0) == pytest.approx(1.0 / math.sqrt(0.02), rel=1e-12)

    def test_inverse_round_trip(self):
        assert r_of_s(DS, math.sqrt(2.0)) == pytest.approx(1.0, rel=1e-12)

    def test_ads_large_s_small_r(self):
        m = DeformationModel(tau=-1, lam=0.25)
        rs = [r_of_s(m, s) for s in (10.0, 100.0, 1000.0)]
        assert rs[0] > rs[1] > rs[2] > 0.0

    def test_domain_of_inverse(self):
        with pytest.raises(DomainError):
            r_of_s(DS, 1.0)
        with pytest.raises(DomainError):
            r_of_s(ADS, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        tau=st.sampled_from([-1, 1]),
        lam=st.floats(1e-6, 10.0),
        x=st.floats(-6.0, 0.99),  # log10 of r relative to the domain size
    )
    def test_round_trip_property(self, tau, lam, x):
        # for dS, radii far beyond the curvature radius push s to 1 where the
        # map itself loses precision, so the probe stays within 10/sqrt(lam)
        m = DeformationModel(tau=tau, lam=lam)
        r_cap = m.ds_radius if tau == -1 else 10.0 * m.ds_radius
        r = r_cap * 10.0**(x - 1.0)
        assert r_of_s(m, s_of_r(m, r)) == pytest.approx(r, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(tau=st.sampled_from([-1, 1]), lam=st.floats(1e-4, 4.0))
    def test_strictly_decreasing(self, tau, lam):
        m = DeformationModel(tau=tau, lam=lam)
        r_cap = m.ds_radius if tau == -1 else 50.0
        radii = [r_cap * f for f in (0.05, 0.2, 0.5, 0.9, 0.999)]
        values = [s_of_r(m, r) for r in radii]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestUncertaintyFloor:
    def test_ads_floor_value(self):
        m = DeformationModel(tau=-1, lam=0.01)
        assert uncertainty_floor(m, 10.0) == pytest.approx(0.1, rel=1e-12)

    def test_ads_floor_at_minimizer_is_global_minimum(self):
        m = DeformationModel(tau=-1, lam=0.01)
        floor_min = uncertainty_floor(m, 1.0 / math.sqrt(m.lam))
        assert floor_min == pytest.approx(min_momentum_uncertainty(m), rel=1e-10)
        for dx in (0.3, 1.0, 3.0, 30.0, 300.0):
            assert uncertainty_floor(m, dx) >= floor_min - 1e-15

    def test_ds_floor_vanishes_at_curvature_radius(self):
        m = DeformationModel(tau=1, lam=0.01)
        assert uncertainty_floor(m, 10.0) == pytest.approx(0.0, abs=1e-14)

    def test_heisenberg_limit(self):
        assert uncertainty_floor(DS, 1e-12) > 1e10

    def test_domain(self):
        with pytest.raises(DomainError):
            uncertainty_floor(DS, 0.0)


class TestMinMomentum:
    def test_values(self):
        assert min_momentum_uncertainty(DeformationModel(-1, 0.01)) == pytest.approx(0.1)
        assert min_momentum_uncertainty(DeformationModel(-1, 1.0)) == pytest.approx(1.0)

    def test_ds_unsupported(self):
        with pytest.raises(UnsupportedModelError):
            min_momentum_uncertainty(DeformationModel(1, 0.01))

    def test_si_units(self):
        m = DeformationModel(tau=-1, lam=1e20, units=SI)
        assert min_momentum_uncertainty(m) == pytest.approx(SI.hbar * 1e10, rel=1e-12)


def _outcome(fn):
    """fn(), or the type of the package error it raises."""
    try:
        return fn()
    except EuphError as exc:
        return type(exc)


class TestUnitBoundary:
    # The numerics see lam only as lam_au = lam a0^2, so an SI model and the
    # Hartree model at the lam_au it forms take the same floating-point steps,
    # and SI results differ from Hartree ones by the unit factor alone.
    @settings(max_examples=100, deadline=None)
    @given(
        log10_lam_au=st.floats(-18.0, 0.0),
        tau=st.sampled_from([1, -1]),
        n=st.integers(1, 5),
        l_frac=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_si_is_scaled_hartree(self, log10_lam_au, tau, n, l_frac):
        a0, e_h = SI.bohr_radius, SI.hartree_energy
        si = DeformationModel(tau, 10.0**log10_lam_au / a0**2, SI)
        hartree = DeformationModel(tau, si.lam * a0**2)
        qn = QuantumNumbers(n, int(l_frac * n))

        def run(model):
            energy = spectra.energy(model, qn).energy
            via_nu = _outcome(lambda: spectra.energy_via_nu(model, qn))
            state = _outcome(lambda: wf.build_state(model, qn))
            if isinstance(state, type):
                return energy, via_nu, state
            norm = _outcome(lambda: wf.radial_overlap(state, state))
            return energy, via_nu, norm, wf.count_nodes(state)

        got, want = run(si), run(hartree)
        for g, w in zip(got[:2], want[:2]):
            if isinstance(w, float):
                assert abs(g / e_h - w) <= 1e-15 * abs(w)
            else:
                assert g is w
        assert got[2:] == want[2:]

    def test_fd_spectrum_is_scaled_hartree(self):
        a0 = SI.bohr_radius
        si = DeformationModel(1, 1e-2 / a0**2, SI)
        hartree = DeformationModel(1, si.lam * a0**2)
        got = oracle.fd_spectrum(si, 0, 3, richardson=False)
        want = oracle.fd_spectrum(hartree, 0, 3, richardson=False)
        assert got.statuses == want.statuses
        assert len(got.eigenvalues) == 3
        for g, w in zip(got.eigenvalues, want.eigenvalues):
            assert abs(g / SI.hartree_energy - w) <= 1e-15 * abs(w)
