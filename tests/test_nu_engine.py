import math

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euph import nu_engine as nu
from euph import spectra
from euph import wavefunctions as wf
from euph.errors import (
    NoBoundBranchError,
    NotAPerfectSquareError,
    ValidationError,
)
from euph.model import HARTREE, SI, DeformationModel, QuantumNumbers

import nu_reference as ref
from nu_reference import ComplexRootsError


def ds_ode(l, eta, eps):
    return nu.HypergeometricODE(
        sigma=(1.0, 0.0, -1.0),
        tau_tilde=(0.0, -1.0),
        sigma_tilde=(eps, eta, -((l + 0.5) ** 2)),
    )


def ads_ode(l, eta, eps):
    return nu.HypergeometricODE(
        sigma=(1.0, 0.0, 1.0),
        tau_tilde=(0.0, 1.0),
        sigma_tilde=(eps, eta, -((l + 0.5) ** 2)),
    )


class TestODEValidation:
    def test_degree_bounds(self):
        with pytest.raises(ValidationError):
            nu.HypergeometricODE((1.0,), (0.0, 1.0, 2.0), (1.0,))
        with pytest.raises(ValidationError):
            nu.HypergeometricODE((0.0,), (0.0,), (1.0,))


class TestKCandidates:
    def test_perfect_square_split_at_eta_zero(self):
        # with no linear source term the k-quadratic factors as (k-1/2)(k-eps)
        for eps in (-3.0, 0.2, 4.0):
            ode = ds_ode(0, 0.0, eps)
            k1, k2 = ref.k_candidates(ode)
            assert k1 == pytest.approx(max(eps, 0.5), rel=1e-12)
            assert k2 == pytest.approx(min(eps, 0.5), rel=1e-12)

    def test_worked_quadratic(self):
        # l=0, eta=2, eps=-2.5: roots (-2 +- sqrt(5))/2
        k1, k2 = ref.k_candidates(ds_ode(0, 2.0, -2.5))
        assert k1 == pytest.approx(0.5 * (-2.0 + math.sqrt(5.0)), rel=1e-12)
        assert k2 == pytest.approx(0.5 * (-2.0 - math.sqrt(5.0)), rel=1e-12)

    def test_matches_closed_form_for_random_inputs(self):
        # oracle: k = (eps + A +- sqrt((eps-A)^2 - eta^2)) / 2, A = 1/4+(l+1/2)^2
        rng = np.random.default_rng(20240511)
        checked = 0
        while checked < 100:
            l = int(rng.integers(0, 6))
            eta = float(rng.uniform(0.1, 50.0))
            eps = float(rng.uniform(-200.0, 50.0))
            a = 0.25 + (l + 0.5) ** 2
            disc = (eps - a) ** 2 - eta * eta
            if disc <= 1e-6:
                continue
            k1, k2 = ref.k_candidates(ds_ode(l, eta, eps))
            root = math.sqrt(disc)
            assert k1 == pytest.approx(0.5 * (eps + a + root), rel=1e-10)
            assert k2 == pytest.approx(0.5 * (eps + a - root), rel=1e-10)
            checked += 1

    def test_complex_flag(self):
        # (eps - A)^2 < eta^2 makes the k roots complex
        with pytest.raises(ComplexRootsError):
            ref.k_candidates(ds_ode(0, 10.0, 0.5 + 0.25))


def _level_eps(tau, l, n, eta):
    """Quantized eps = -tau (n^2 - A) - eta^2 / (4 n^2)."""
    return -tau * (n * n - (0.25 + (l + 0.5) ** 2)) - eta * eta / (4.0 * n * n)


# eta = 2e9 is lam = 1e-18 a0^-2, where q2 = n^2 is ~1e-18 of q1^2 = eta^2
class TestPiBranches:
    @pytest.mark.parametrize(
        "eta, eps",
        [(2.0 / math.sqrt(0.1), -13.0), (2e9, _level_eps(1, 0, 3, 2e9))],
        ids=["eta6", "eta2e9"],
    )
    def test_ds_hydrogen_branch_shapes(self, eta, eps):
        l = 0
        a = 0.25 + (l + 0.5) ** 2
        ode = ds_ode(l, eta, eps)
        k1, _ = ref.k_candidates(ode)
        delta = math.sqrt(a - k1)
        plus, minus = ref.pi_branches(ode, k1)
        assert plus == pytest.approx((-eta / (2 * delta), -0.5 + delta), rel=1e-10)
        assert minus == pytest.approx((eta / (2 * delta), -0.5 - delta), rel=1e-10)

    @pytest.mark.parametrize(
        "eta, eps", [(20.0, -25.0), (2e9, _level_eps(-1, 1, 3, 2e9))], ids=["eta20", "eta2e9"]
    )
    def test_ads_hydrogen_branch_shapes(self, eta, eps):
        l = 1
        a = 0.25 + (l + 0.5) ** 2
        ode = ads_ode(l, eta, eps)
        k1, _ = ref.k_candidates(ode)
        delta = math.sqrt(a + k1)
        plus, minus = ref.pi_branches(ode, k1)
        assert plus == pytest.approx((-eta / (2 * delta), 0.5 + delta), rel=1e-10)
        assert minus == pytest.approx((eta / (2 * delta), 0.5 - delta), rel=1e-10)

    def test_degenerate_square(self):
        # sigma_tilde = 0 keeps only the (sigma'-tau_tilde)/2 square at k = 0
        ode = nu.HypergeometricODE((1.0, 0.0, -1.0), (1.0, -4.0), (0.0,))
        plus, minus = ref.pi_branches(ode, 0.0)
        h = ode.half_difference()
        two_h = npoly.polyadd(h, h)
        assert plus == pytest.approx(tuple(two_h), abs=1e-12)
        assert minus == pytest.approx((0.0,), abs=1e-12)

    def test_polynomial_identity(self):
        # (pi - h)^2 == h^2 - sigma_tilde + k*sigma, coefficient-wise
        for ode, k_index in [(ds_ode(0, 6.0, -13.0), 0), (ads_ode(2, 20.0, -25.0), 0)]:
            k = ref.k_candidates(ode)[k_index]
            for pi in ref.pi_branches(ode, k):
                lhs = npoly.polymul(*(npoly.polysub(pi, ode.half_difference()),) * 2)
                rhs = ref.under_root(ode, k)
                diff = npoly.polysub(lhs, rhs)
                scale = max(1.0, max(abs(c) for c in rhs))
                assert max(abs(c) for c in np.atleast_1d(diff)) <= 1e-10 * scale


class TestReduce:
    def test_ds_branch_gives_expected_tau(self):
        # explicit plus branch on the larger k root: tau = 2(delta-1) s - eta/delta
        model = DeformationModel(tau=1, lam=0.01)
        qn = QuantumNumbers(2, 0)
        red = spectra.reduce_level(model, qn)
        eta = spectra.scaled_eta(model)
        delta = 2.0
        assert red.tau == pytest.approx((-eta / delta, 2.0 * (delta - 1.0)), rel=1e-10)

    def test_ads_auto_selection(self):
        # regularity at s -> inf picks the minus branch of the n_r = 1 level
        model = DeformationModel(tau=-1, lam=0.01)
        eta = spectra.scaled_eta(model)
        ode = ads_ode(0, eta, -21.5)
        red = nu.reduce(ode, 1)
        delta = 2.0
        assert red.tau == pytest.approx((eta / delta, 2.0 * (1.0 - delta)), rel=1e-10)

    def test_no_bound_branch(self):
        # flipping the sign of the leading sigma_tilde coefficient makes the
        # indicial exponents at s -> inf complex: no branch is regular there
        ode = nu.HypergeometricODE(
            sigma=(1.0, 0.0, 1.0),
            tau_tilde=(0.0, 1.0),
            sigma_tilde=(-30.0, 2.0, +0.25),
        )
        with pytest.raises(NoBoundBranchError):
            nu.reduce(ode, 0)

    @pytest.mark.parametrize("sigma_tilde", [(1.0, 1.0), (0.0,), (-1.0, 0.0)])
    def test_underflowed_square_term_is_no_square(self, sigma_tilde):
        # _poly_sqrt's one guard: q2 = (pi_1 - h_1)^2 = sigma_2^2/4 underflows
        # to 0 while sigma_2^2 does not, so no linear root exists in floats
        s2 = 3e-162
        ode = nu.HypergeometricODE(sigma=(1.0, 0.0, s2), tau_tilde=(0.0, s2), sigma_tilde=sigma_tilde)
        with pytest.raises(NotAPerfectSquareError, match=r"no s\^2 term"):
            nu.reduce(ode, 0)

    def test_k_is_one_of_the_candidates(self):
        model = DeformationModel(tau=-1, lam=0.05)
        red = spectra.reduce_level(model, QuantumNumbers(3, 1))
        eta = spectra.scaled_eta(model)
        eps = red.k  # recover via candidates of the same ODE
        ode = spectra.hydrogen_ode(model, 1, spectra._epsilon_closed(model, 1, 3))
        ks = ref.k_candidates(ode)
        assert min(abs(red.k - ks[0]), abs(red.k - ks[1])) <= 1e-12 * max(1.0, abs(red.k))

    def test_pearson_residual_of_produced_weights(self):
        cases = [
            spectra.reduce_level(DeformationModel(1, 0.01), QuantumNumbers(2, 0)),
            spectra.reduce_level(DeformationModel(-1, 0.01), QuantumNumbers(3, 1)),
        ]
        odes = [
            spectra.hydrogen_ode(
                DeformationModel(1, 0.01), 0, spectra._epsilon_closed(DeformationModel(1, 0.01), 0, 2)
            ),
            spectra.hydrogen_ode(
                DeformationModel(-1, 0.01), 1, spectra._epsilon_closed(DeformationModel(-1, 0.01), 1, 3)
            ),
        ]
        samples = {1: np.linspace(1.05, 4.0, 32), -1: np.linspace(0.05, 5.0, 32)}
        for red, ode, tau in zip(cases, odes, (1, -1)):
            assert ref.weight(red).pearson_residual(ode.sigma, red.tau, samples[tau]) <= 1e-8


class TestLevelConstant:
    def test_zero(self):
        model = DeformationModel(tau=-1, lam=0.01)
        red = spectra.reduce_level(model, QuantumNumbers(1, 0))
        ode = spectra.hydrogen_ode(model, 0, spectra._epsilon_closed(model, 0, 1))
        assert ref.level_constant(red, ode, 0) == 0.0

    def test_ds_form(self):
        # Lambda_n = n (n + 1 - 2 delta) with sigma'' = -2
        model = DeformationModel(tau=1, lam=0.001)
        qn = QuantumNumbers(3, 0)
        red = spectra.reduce_level(model, qn)
        ode = spectra.hydrogen_ode(model, 0, spectra._epsilon_closed(model, 0, 3))
        delta = 3.0
        for n in range(0, 6):
            assert ref.level_constant(red, ode, n) == pytest.approx(
                n * (n + 1 - 2 * delta), rel=1e-10, abs=1e-10
            )

    def test_ads_form(self):
        # Lambda_n = -n (n + 1 - 2 delta) with sigma'' = +2
        model = DeformationModel(tau=-1, lam=0.001)
        qn = QuantumNumbers(2, 1)
        red = spectra.reduce_level(model, qn)
        ode = spectra.hydrogen_ode(model, 1, spectra._epsilon_closed(model, 1, 2))
        for n in range(0, 6):
            assert ref.level_constant(red, ode, n) == pytest.approx(
                -n * (n + 1 - 2 * 2.0), rel=1e-10, abs=1e-10
            )


class TestSolveLevel:
    def test_ads_level(self):
        # lam=0.01, l=0, n=2: quantized eps = n^2 - A - eta^2/(4n^2) = -21.5
        model = DeformationModel(tau=-1, lam=0.01)
        eps = nu.solve_level(ads_ode(0, spectra.scaled_eta(model), 0.0), 1)
        assert eps == pytest.approx(-21.5, abs=1e-9)

    def test_ds_ground(self):
        # lam=0.1, l=0, n=1: quantized eps = A - 1 - eta^2/4 = -10.5
        model = DeformationModel(tau=1, lam=0.1)
        eps = nu.solve_level(ds_ode(0, spectra.scaled_eta(model), 0.0), 0)
        assert eps == pytest.approx(-10.5, abs=1e-9)

    def test_level_does_not_depend_on_the_given_constant_term(self):
        eta = spectra.scaled_eta(DeformationModel(tau=-1, lam=0.01))
        assert nu.solve_level(ads_ode(0, eta, 0.0), 1) == pytest.approx(
            nu.solve_level(ads_ode(0, eta, -40.0), 1), abs=1e-12
        )

    def test_underflowed_square_term_fixes_no_level(self):
        # q2 = (pi_1 - h_1)^2 = sigma_2^2/4 underflows to 0 while sigma_2^2 does
        # not: the constant term then fixes no level
        s2 = 3e-162
        ode = nu.HypergeometricODE(sigma=(1.0, 0.0, s2), tau_tilde=(0.0, s2), sigma_tilde=(1.0, 1.0))
        with pytest.raises(NotAPerfectSquareError):
            nu.solve_level(ode, 0)

    def test_one_under_root_quadratic_and_one_reduction_per_level(self, monkeypatch):
        calls = {"_under_root": 0, "reduce": 0}

        def counted(name):
            inner = getattr(nu, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(nu, name, counted(name))
        for tau, lam, n, l in [(1, 1e-3, 3, 1), (-1, 1e-2, 4, 0)]:
            calls.update(dict.fromkeys(calls, 0))
            spectra.energy_via_nu(DeformationModel(tau, lam), QuantumNumbers(n, l))
            # one quadratic for the level, and one inside reduce's square check
            assert calls == {"_under_root": 2, "reduce": 1}

    @pytest.mark.parametrize("units", [HARTREE, SI], ids=["hartree", "si"])
    @pytest.mark.parametrize("tau", [1, -1], ids=["ds", "ads"])
    def test_matches_closed_form_down_to_the_cosmological_lambda(self, tau, units):
        for k in range(-73, 1):
            model = DeformationModel(tau, 10.0**k / units.bohr_radius**2, units=units)
            for n in range(1, 7):
                for l in range(n):
                    qn = QuantumNumbers(n, l)
                    level = spectra.energy(model, qn)
                    scale = abs(level.bohr_term) + abs(level.correction)
                    assert abs(spectra.energy_via_nu(model, qn) - level.energy) <= 1e-15 * scale, (k, qn)


class TestPhysicalRange:
    # lam runs from far below the spectroscopic bound (~3e-16 a0^-2) to 1 a0^-2
    @settings(max_examples=300, deadline=None)
    @given(
        log10_lam=st.floats(-18.0, 0.0),
        tau=st.sampled_from([1, -1]),
        units=st.sampled_from([HARTREE, SI]),
        n=st.integers(1, 5),
    )
    def test_engine_matches_closed_form_and_states_build(self, log10_lam, tau, units, n):
        lam = 10.0**log10_lam
        if tau == 1 and not 1.0 / (n * math.sqrt(lam)) - n > 0.5:
            return  # dS level above the bound-state threshold
        model = DeformationModel(tau, lam / units.bohr_radius**2, units=units)
        for l in range(n):
            qn = QuantumNumbers(n, l)
            level = spectra.energy(model, qn)
            # relative to the two terms of E: near the AdS ionization point E
            # itself crosses zero
            scale = abs(level.bohr_term) + abs(level.correction)
            assert abs(spectra.energy_via_nu(model, qn) - level.energy) <= 1e-12 * scale
            wf.build_state(model, qn)
            # the engine's root is the branch root delta = n, and the regular
            # branch's k is a root of the textbook k-quadratic
            red = spectra.reduce_level(model, qn)
            assert red.root_poly[1] == n
            eps = spectra._epsilon_closed(model, l, n)
            ks = ref.k_candidates(spectra.hydrogen_ode(model, l, eps))
            assert min(abs(red.k - kc) for kc in ks) <= 1e-12 * abs(red.k)


class TestRodrigues:
    def test_degree_zero(self):
        assert list(nu.rodrigues_polynomial((1.0, 0.0, -1.0), (0.0, -2.0), 0)) == [1.0]

    def test_romanovski_first_degree(self):
        # weight (1+s^2)^gamma exp(beta atan s): y_1 = beta + 2(gamma+1) s
        gamma, beta = -2.0, -2.0
        tau = (beta, 2.0 * (gamma + 1.0))
        coeffs = nu.rodrigues_polynomial((1.0, 0.0, 1.0), tau, 1)
        assert coeffs == pytest.approx([beta, 2.0 * (gamma + 1.0)])

    def test_jacobi_first_degree(self):
        a, b = 0.7, -1.3
        tau = (b - a, -(a + b + 2.0))
        coeffs = nu.rodrigues_polynomial((1.0, 0.0, -1.0), tau, 1)
        assert coeffs == pytest.approx([b - a, -(a + b + 2.0)])

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["ads", "ds"])
    def test_equals_numpy_polynomial_recurrence(self, sign):
        # the tuple arithmetic performs the same float operations as
        # numpy.polynomial, so the coefficients agree bit for bit
        sigma = np.array([1.0, 0.0, sign])
        rng = np.random.default_rng(7)
        for _ in range(50):
            tau = tuple(rng.uniform(-1e3, 1e3, 2))
            n = int(rng.integers(0, 12))
            dsigma = npoly.polyder(sigma)
            tms = npoly.polysub(tau, dsigma)
            q = np.array([1.0])
            for m in range(n, 0, -1):
                q = npoly.polyadd(
                    npoly.polymul(npoly.polyadd(m * dsigma, tms), q),
                    npoly.polymul(sigma, npoly.polyder(q)),
                )
            assert nu.rodrigues_polynomial(tuple(sigma), tau, n) == tuple(q)

    def test_overflow_guard(self):
        with pytest.raises(ValidationError):
            nu.rodrigues_polynomial((1.0, 0.0, -1.0), (0.0, -2.0), 65)


def _hydrogen_cases():
    cases = []
    for tau, lam, n, l in [
        (1, 0.01, 2, 0),
        (1, 0.001, 3, 1),
        (-1, 0.01, 2, 0),
        (-1, 0.001, 4, 2),
    ]:
        model = DeformationModel(tau=tau, lam=lam)
        eps = spectra._epsilon_closed(model, l, n)
        ode = spectra.hydrogen_ode(model, l, eps)
        red = nu.reduce(ode, n - l - 1)
        interval = (1.05, 6.0) if tau == 1 else (-4.0, 6.0)
        cases.append((model, ode, red, interval))
    return cases


class TestGeneratedPolynomials:
    @pytest.mark.parametrize("case", _hydrogen_cases(), ids=["ds20", "ds31", "ads20", "ads42"])
    def test_ode_residual_up_to_degree_8(self, case):
        _, ode, red, interval = case
        s = np.linspace(*interval, 64)
        for n in range(0, 9):
            y = ref.rodrigues_coefficients(red, ode, n)
            lam_n = ref.level_constant(red, ode, n)
            resid = (
                npoly.polyval(s, npoly.polymul(ode.sigma, npoly.polyder(y, 2)))
                + npoly.polyval(s, npoly.polymul(red.tau, npoly.polyder(y)))
                + lam_n * npoly.polyval(s, y)
            )
            scale = max(np.max(np.abs(npoly.polyval(s, y))), 1e-300)
            assert np.max(np.abs(resid)) <= 1e-8 * max(scale, 1.0) * max(
                1.0, np.max(np.abs(s)) ** 2
            )

    @pytest.mark.parametrize("case", _hydrogen_cases(), ids=["ds20", "ds31", "ads20", "ads42"])
    def test_degree_is_exact_when_levels_distinct(self, case):
        _, ode, red, _ = case
        sigma_pp = 2.0 * ode.sigma[2]
        for n in range(0, 9):
            lam_n = ref.level_constant(red, ode, n)
            distinct = all(
                abs(lam_n - ref.level_constant(red, ode, m)) > 1e-9 for m in range(n)
            )
            if not distinct:
                continue
            y = ref.rodrigues_coefficients(red, ode, n)
            assert len(y) == n + 1 and y[-1] != 0.0


class TestOrthogonalityOfClassicalReduction:
    def test_jacobi_like_weight(self):
        # already-reduced classical input: pi = 0 lives on the smaller k root
        a, b = 1.5, 1.0
        ode = nu.HypergeometricODE(
            sigma=(1.0, 0.0, -1.0),
            tau_tilde=(b - a, -(a + b + 2.0)),
            sigma_tilde=(0.0,),
        )
        # the branch regular at s -> inf is the other one, so it is built by hand
        red = nu._branch_reduction(ode, ref.k_candidates(ode)[1], -1)
        assert red.tau == pytest.approx((b - a, -(a + b + 2.0)), abs=1e-12)
        s, w = np.polynomial.legendre.leggauss(160)
        rho = ref.weight(red).value(s)
        polys = []
        for n in range(7):
            vals = npoly.polyval(s, ref.rodrigues_coefficients(red, ode, n))
            polys.append(vals / np.max(np.abs(vals)))
        for n in range(7):
            for m in range(n):
                val = float(np.sum(w * polys[n] * polys[m] * rho))
                assert abs(val) <= 1e-8
