import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from euph import spectra
from euph import wavefunctions as wf
from euph.errors import (
    UndefinedCriticalError,
    UndefinedInversionError,
    UnsupportedModelError,
    ValidationError,
)
from euph.model import HARTREE, SI, DeformationModel, QuantumNumbers


def ds(lam):
    return DeformationModel(tau=1, lam=lam)


def ads(lam):
    return DeformationModel(tau=-1, lam=lam)


class TestEnergy:
    def test_ds_ground_untouched(self):
        lv = spectra.energy(ds(0.1), QuantumNumbers(1, 0))
        assert lv.energy == -0.5
        assert lv.correction == 0.0

    def test_ads_critical_level_is_zero(self):
        lv = spectra.energy(ads(1.0 / 12.0), QuantumNumbers(2, 0))
        assert lv.energy == pytest.approx(0.0, abs=1e-15)

    def test_ds_worked_value(self):
        lv = spectra.energy(ds(0.01), QuantumNumbers(3, 1))
        assert lv.energy == pytest.approx(-1.0 / 18.0 - 0.005 * 6.0, rel=1e-12)

    def test_split_is_consistent(self):
        lv = spectra.energy(ads(0.02), QuantumNumbers(4, 2))
        assert lv.bohr_term + lv.correction == pytest.approx(lv.energy, rel=1e-15)
        assert lv.bohr_term == pytest.approx(-1.0 / 32.0, rel=1e-14)

    def test_si_units_scale(self):
        lam_si = 1e18  # 1/m^2
        lv = spectra.energy(
            DeformationModel(tau=-1, lam=lam_si, units=SI), QuantumNumbers(1, 0)
        )
        assert lv.energy == pytest.approx(-0.5 * SI.hartree_energy, rel=1e-10)


class TestCriticalDeformation:
    @pytest.mark.parametrize(
        "n,l,value",
        [(2, 0, 1.0 / 12.0), (3, 1, 1.0 / 54.0), (3, 0, 1.0 / 72.0), (5, 4, 0.01)],
    )
    def test_values(self, n, l, value):
        assert spectra.lambda_critical(QuantumNumbers(n, l)) == pytest.approx(
            value, rel=1e-14
        )

    def test_ground_has_no_critical_point(self):
        with pytest.raises(UndefinedCriticalError):
            spectra.lambda_critical(QuantumNumbers(1, 0))

    def test_energy_vanishes_at_critical(self):
        for n in range(2, 7):
            for l in range(n):
                lam_c = spectra.lambda_critical(QuantumNumbers(n, l))
                e = spectra.energy(ads(lam_c), QuantumNumbers(n, l)).energy
                assert abs(e) <= 1e-14


class TestInversionDeformation:
    @pytest.mark.parametrize(
        "n,l,value",
        [(2, 0, 0.25), (3, 2, 8.0 / 18.0), (5, 3, 0.08), (2, 1, 0.75)],
    )
    def test_values(self, n, l, value):
        assert spectra.lambda_inversion(QuantumNumbers(n, l)) == pytest.approx(
            value, rel=1e-14
        )

    def test_undefined(self):
        with pytest.raises(UndefinedInversionError):
            spectra.lambda_inversion(QuantumNumbers(1, 0))

    def test_crossing_property(self):
        for n, l in [(2, 0), (3, 0), (3, 1), (4, 2)]:
            lam_f = spectra.lambda_inversion(QuantumNumbers(n, l))
            e_level = spectra.energy(ds(lam_f), QuantumNumbers(n, l)).energy
            e_ground = spectra.energy(ds(lam_f), QuantumNumbers(1, 0)).energy
            assert e_level == pytest.approx(e_ground, abs=1e-14)
            lam_plus = 1.01 * lam_f
            assert (
                spectra.energy(ds(lam_plus), QuantumNumbers(n, l)).energy
                < spectra.energy(ds(lam_plus), QuantumNumbers(1, 0)).energy
            )


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


class TestTables:
    def test_critical_grid_matches_4_decimals(self):
        crit, _ = spectra.make_tables(5)
        for (n, l), printed in PRINTED_CRITICAL.items():
            assert round(crit[n - 2][l], 4) == pytest.approx(printed, abs=1e-12)

    def test_inversion_grid_matches_3_decimals(self):
        _, inv = spectra.make_tables(5)
        for (n, l), printed in PRINTED_INVERSION.items():
            assert abs(inv[n - 2][l] - printed) <= 0.5e-3 + 1e-12

    def test_fragment(self):
        crit, inv = spectra.make_tables(2)
        assert crit[0][0] == pytest.approx(1.0 / 12.0)
        assert crit[0][1] == pytest.approx(0.25)
        assert inv[0][0] == pytest.approx(0.25)
        assert inv[0][1] == pytest.approx(0.75)

    def test_absent_cells(self):
        crit, inv = spectra.make_tables(3)
        assert crit[0][2] is None  # l = 2 absent for n = 2
        assert inv[0][2] is None

    def test_bounds(self):
        with pytest.raises(ValidationError):
            spectra.make_tables(1)
        with pytest.raises(ValidationError):
            spectra.make_tables(21)


class TestTransitionRatio:
    def test_bohr_limit(self):
        tr = spectra.transition_ratio(ads(1e-8))
        assert tr.ratio == pytest.approx(-0.75, abs=1e-6)

    def test_closed_form_identity(self):
        tr = spectra.transition_ratio(ads(0.001))
        assert tr.ratio == pytest.approx(tr.value_derived, rel=1e-12)
        assert tr.ratio == pytest.approx(-0.753, rel=1e-12)
        assert tr.value_convention == pytest.approx(-0.7515, rel=1e-12)

    def test_ds_unsupported(self):
        with pytest.raises(UnsupportedModelError):
            spectra.transition_ratio(ds(0.001))


class TestSpectroscopicBound:
    def test_si_order_of_magnitude(self):
        b = spectra.spectroscopic_bound(1e-15, SI)
        p_unit = SI.m * SI.e2 / SI.hbar
        assert b.dp_min_convention == pytest.approx(
            math.sqrt(2e-15 / 3.0) * p_unit, rel=1e-12
        )
        assert b.dp_min_derived == pytest.approx(math.sqrt(1e-15 / 3.0) * p_unit, rel=1e-12)
        for dp in (b.dp_min_convention, b.dp_min_derived):
            assert 1e-33 < dp < 1e-31
        assert b.lambda_convention == pytest.approx((b.dp_min_convention / SI.hbar) ** 2)

    def test_zero_precision(self):
        b = spectra.spectroscopic_bound(0.0, SI)
        assert b.dp_min_convention == 0.0
        assert b.dp_min_derived == 0.0

    @pytest.mark.parametrize("precision", [-1e-15, math.nan, math.inf, -math.inf, 1.0, 1e300])
    def test_negative_rejected(self, precision):
        with pytest.raises(ValidationError):
            spectra.spectroscopic_bound(precision, SI)


class TestInvariants:
    def test_bohr_limit_linear_slope(self):
        for n in range(1, 7):
            for l in range(n):
                qn = QuantumNumbers(n, l)
                shift = n * n - l * (l + 1) - 1
                for lam in (1e-2, 1e-3, 1e-4):
                    for tau, sign in ((1, -1.0), (-1, 1.0)):
                        lv = spectra.energy(DeformationModel(tau, lam), qn)
                        assert lv.correction / lam == pytest.approx(
                            sign * shift / 2.0, rel=1e-12, abs=1e-12
                        )
                        assert lv.bohr_term == pytest.approx(-0.5 / n**2, rel=1e-14)

    def test_ground_flat_in_lambda(self):
        for lam in [10.0**e for e in range(-6, 1)]:
            assert spectra.energy(ds(lam), QuantumNumbers(1, 0)).energy == -0.5

    def test_l_ordering(self):
        for n in range(2, 6):
            ds_e = [spectra.energy(ds(0.05), QuantumNumbers(n, l)).energy for l in range(n)]
            ads_e = [spectra.energy(ads(0.05), QuantumNumbers(n, l)).energy for l in range(n)]
            assert all(a < b for a, b in zip(ds_e, ds_e[1:]))
            assert all(a > b for a, b in zip(ads_e, ads_e[1:]))


class TestScaledParameters:
    # a level's scaled quantities follow from its model and quantum numbers:
    # eta = scaled_eta(model), eps = _epsilon_closed(model, l, n) and the
    # branch root delta = n, which the engine's root of the level reproduces
    @pytest.mark.parametrize("tau", [1, -1])
    @pytest.mark.parametrize("lam", [0.001, 0.01, 0.05])
    def test_delta_equals_principal_number(self, tau, lam):
        for n in range(1, 5):
            for l in range(n):
                red = spectra.reduce_level(DeformationModel(tau, lam), QuantumNumbers(n, l))
                assert red.root_poly[1] == n

    def test_fields(self):
        # a state stores none of them
        names = [f.name for f in dataclasses.fields(wf.RadialEigenstate)]
        assert names == ["model", "qn", "poly_coeffs", "log_norm_au", "sign"]

    # The dS k roots exchange the physical delta at lam = 1/n^4 (Hartree);
    # the examples sit a relative 1e-15 on either side of that point.  At
    # lam = 1/14 the AdS (2, 0) level has eps = 0.
    @settings(max_examples=300, deadline=None)
    @given(
        lam=st.floats(-18.0, 0.0).map(lambda e: 10.0**e),
        tau=st.sampled_from([1, -1]),
        units=st.sampled_from([HARTREE, SI]),
        n=st.integers(1, 6),
    )
    @example(lam=1.0 + 1e-15, tau=1, units=HARTREE, n=1)
    @example(lam=1.0 - 1e-15, tau=1, units=HARTREE, n=1)
    @example(lam=(1.0 + 1e-15) / 16.0, tau=1, units=HARTREE, n=2)
    @example(lam=(1.0 - 1e-15) / 16.0, tau=1, units=HARTREE, n=2)
    @example(lam=(1.0 + 1e-15) / 81.0, tau=1, units=HARTREE, n=3)
    @example(lam=(1.0 - 1e-15) / 81.0, tau=1, units=HARTREE, n=3)
    @example(lam=1.0 / 14.0, tau=-1, units=HARTREE, n=2)
    def test_quantized_level_has_delta_n(self, lam, tau, units, n):
        model = DeformationModel(tau, lam / units.bohr_radius**2, units=units)
        for l in range(n):
            qn = QuantumNumbers(n, l)
            assert spectra.reduce_level(model, qn).root_poly[1] == n
            eps, eta = spectra._epsilon_closed(model, l, n), spectra.scaled_eta(model)
            expected = spectra.epsilon_of_energy(model, spectra.energy(model, qn).energy)
            # eps is a difference of terms of size n^2 and eta^2/(4 n^2) and
            # crosses zero for AdS, so the bound is relative to the larger term.
            scale = max(abs(eps), n * n, eta**2 / (4.0 * n * n))
            assert abs(eps - expected) <= 1e-12 * scale

    def test_frozen_example_values(self):
        # AdS lam=0.01, level (2,0): eps = -21.5, k = 3.5, eta = 20
        assert spectra.scaled_eta(ads(0.01)) == pytest.approx(20.0, rel=1e-14)
        assert spectra._epsilon_closed(ads(0.01), 0, 2) == pytest.approx(-21.5, rel=1e-14)
        red = spectra.reduce_level(ads(0.01), QuantumNumbers(2, 0))
        assert red.k == pytest.approx(3.5, rel=1e-12)
        # dS lam=0.1, ground: eps = -10.5
        assert spectra._epsilon_closed(ds(0.1), 0, 1) == pytest.approx(-10.5, rel=1e-14)


class TestReductionConsistency:
    @pytest.mark.parametrize("tau", [1, -1], ids=["ds", "ads"])
    @pytest.mark.parametrize("lam", [0.001, 0.01, 0.05])
    def test_engine_reproduces_closed_energies(self, tau, lam):
        model = DeformationModel(tau, lam)
        for n in range(1, 5):
            for l in range(n):
                qn = QuantumNumbers(n, l)
                e_closed = spectra.energy(model, qn).energy
                e_engine = spectra.energy_via_nu(model, qn)
                assert abs(e_engine - e_closed) <= 1e-9 * abs(e_closed)

    def test_route_reads_no_closed_form(self, monkeypatch):
        def closed_form(*args):
            raise AssertionError("energy_via_nu read a closed form")

        monkeypatch.setattr(spectra, "_epsilon_closed", closed_form)
        monkeypatch.setattr(spectra, "energy", closed_form)
        # -1/(2n^2) - tau (lam/2)(n^2 - l(l+1) - 1) written out
        e_ds = spectra.energy_via_nu(ds(0.01), QuantumNumbers(3, 1))
        assert e_ds == pytest.approx(-1.0 / 18.0 - 0.03, rel=1e-13)
        e_ads = spectra.energy_via_nu(ads(0.01), QuantumNumbers(4, 0))
        assert e_ads == pytest.approx(-1.0 / 32.0 + 0.075, rel=1e-13)

    def test_regular_root_not_the_spurious_one(self):
        # Lambda - Lambda_n also vanishes at eps = -2.61, on the branch whose
        # solution is singular at the origin
        model = ads(0.01)
        e = spectra.energy_via_nu(model, QuantumNumbers(4, 0))
        assert spectra.epsilon_of_energy(model, e) == pytest.approx(9.25, abs=1e-12)

    @pytest.mark.parametrize("units", [HARTREE, SI], ids=["hartree", "si"])
    def test_relative_to_e_next_to_ads_ionization(self, units):
        # lambda_critical(2, 0) = 1/12: E is 0.0048 of its Bohr term here
        model = DeformationModel(-1, 0.0832 / units.bohr_radius**2, units)
        qn = QuantumNumbers(2, 0)
        e = spectra.energy(model, qn).energy
        assert abs(spectra.energy_via_nu(model, qn) - e) <= 1e-12 * abs(e)
