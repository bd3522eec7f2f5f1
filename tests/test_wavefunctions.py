import dataclasses
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import sph_harm_y

import overlap_reference
from euph import integrate as euph_integrate, spectra, wavefunctions as wf
from euph.integrate import quad as euph_quad
from euph.errors import (
    ConvergenceError, DomainError, EuphError, NonNormalizableError, ValidationError,
)
from euph.model import SI, DeformationModel, QuantumNumbers

from nu_reference import Romanovski, family_coefficients, jacobi_recurrence


def ds(lam):
    return DeformationModel(tau=1, lam=lam)


def ads(lam):
    return DeformationModel(tau=-1, lam=lam)


class TestBuildState:
    def test_ads_ground_is_pure_envelope(self):
        state = wf.build_state(ads(0.01), QuantumNumbers(1, 0))
        assert state.poly_coeffs == (1.0,)
        # envelope shape: psi * sqrt(r) proportional to
        # (sqrt(lam) r)^(delta - 1/2) * exp(eta/(2 delta) * atan s(r))
        lam, eta, d = 0.01, 20.0, 1.0
        radii = np.linspace(0.5, 9.0, 7)
        values = wf.radial_eval(state, radii) * np.sqrt(radii)
        s = np.sqrt(1.0 - lam * radii**2) / (np.sqrt(lam) * radii)
        reference = (np.sqrt(lam) * radii) ** (d - 0.5) * np.exp(
            eta / (2 * d) * np.arctan(s)
        )
        ratio = values / reference
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) <= 1e-10

    def test_ds_top_of_shell_has_constant_polynomial(self):
        state = wf.build_state(ds(0.01), QuantumNumbers(2, 1))
        assert state.poly_coeffs == (1.0,)

    def test_ds_jacobi_parameters(self):
        # the polynomial is P_{n_r}^(a, b) with a = -n + eta/(2n), b = -n - eta/(2n),
        # checked against the classical three-term recurrence
        model = ds(0.001)
        eta = spectra.scaled_eta(model)
        x = np.array([1.05, 1.5, 3.0, 10.0])
        for n, l in [(2, 0), (3, 0), (3, 1), (4, 0), (4, 2), (5, 1)]:
            state = wf.build_state(model, QuantumNumbers(n, l))
            a, b = -n + eta / (2.0 * n), -n - eta / (2.0 * n)
            reference = np.array([jacobi_recurrence(n - l - 1, a, b, xi) for xi in x])
            values = np.polynomial.polynomial.polyval(x, state.poly_coeffs)
            assert np.max(np.abs(values - reference)) <= 1e-10 * np.max(np.abs(reference))

    @pytest.mark.parametrize("lam", [1e-3, 0.01, 0.05])
    def test_ads_romanovski_parameters(self, lam):
        # the polynomial is the Romanovski member with alpha = -n, beta = eta/n
        model = ads(lam)
        eta = spectra.scaled_eta(model)
        for n in range(1, 6):
            for l in range(n):
                state = wf.build_state(model, QuantumNumbers(n, l))
                reference = family_coefficients(Romanovski(-n, eta / n), n - l - 1)
                assert state.poly_coeffs == pytest.approx(reference, rel=1e-10)

    def test_ds_non_normalizable_is_rejected(self):
        with pytest.raises(NonNormalizableError):
            wf.build_state(ds(0.01), QuantumNumbers(4, 0))

    @pytest.mark.parametrize("l", [0, 1])
    def test_ds_k_root_exchange_is_non_normalizable(self, l):
        # lam ~ 1/n^4, where the two k roots of the textbook k-quadratic meet
        # and lose half their digits; the level lies above the threshold 1/25
        with pytest.raises(NonNormalizableError, match="not square integrable"):
            wf.build_state(ds(0.06249999999999994), QuantumNumbers(2, l))

    def test_domain_errors(self):
        state = wf.build_state(ads(0.01), QuantumNumbers(1, 0))
        with pytest.raises(DomainError):
            wf.radial_eval(state, -1.0)
        with pytest.raises(DomainError):
            wf.radial_eval(state, 10.0)  # at the wall

    @pytest.mark.parametrize("n,l", [(1, 0), (2, 0), (2, 1), (3, 1)])
    def test_norm_is_unity(self, n, l):
        state = wf.build_state(ads(0.01), QuantumNumbers(n, l))
        assert wf.radial_overlap(state, state, "flat") == pytest.approx(1.0, abs=1e-8)

    def test_norm_quadrature_converged(self):
        # composite Gauss-Legendre in the arc coordinate t (where the
        # integrand is smooth through the wall) changes by < 1e-9 on doubling
        lam = 0.01
        state = wf.build_state(ads(lam), QuantumNumbers(3, 0))

        def gauss_norm(panels):
            edges = np.linspace(0.0, 0.5 * math.pi, panels + 1)
            x, w = np.polynomial.legendre.leggauss(24)
            total = 0.0
            for a, b in zip(edges[:-1], edges[1:]):
                t = 0.5 * (b - a) * x + 0.5 * (a + b)
                rr = np.cos(t) / math.sqrt(lam)
                vals = wf.radial_eval(state, rr)
                jac = rr * rr * np.sin(t) / math.sqrt(lam)
                total += 0.5 * (b - a) * np.sum(w * vals * vals * jac)
            return total

        n1, n2 = gauss_norm(48), gauss_norm(96)
        assert abs(n2 - n1) < 1e-9
        assert n2 == pytest.approx(1.0, abs=1e-8)


_ATOM_BREAKPOINTS = (0.1, 0.5, 1, 2, 4, 6, 8, 12, 16, 30, 60)


def _mpmath_norm_offset(state):
    """log of int R^2 r dr / exp(2 log_norm), by 30-digit mpmath quadrature in r.

    R is rebuilt from the envelope definitions: |s-1|^A (s+1)^B y(s) for dS
    and (1+s^2)^p exp(-q atan(1/s)) y(s) for AdS.  The integrand is scaled by
    exp(-2 log_norm) because mpmath's stopping rule is absolute.  Beyond
    X = 60 n^2 the dS tail runs in w, r = X w^(-1/gamma), where the integrand
    R^2 r ~ r^(-gamma-1) becomes bounded, however slowly it decays in r.
    """
    mp.mp.dps = 30
    model, qn = state.model, state.qn
    lam = mp.mpf(model.lam)
    sl = mp.sqrt(lam)
    d, eta = mp.mpf(qn.n), mp.mpf(spectra.scaled_eta(model))
    coeffs = [mp.mpf(c) for c in reversed(state.poly_coeffs)]
    scale = mp.exp(-2 * mp.mpf(state.log_norm))
    if model.tau == 1:
        a_exp = (1 - 2 * d + eta / d) / 4
        b_exp = (1 - 2 * d - eta / d) / 4

        def integrand(r):
            chi = mp.sqrt(1 + lam * r * r)
            s = chi / (sl * r)
            s_minus_1 = 1 / (sl * r * (chi + sl * r))
            env = s_minus_1 ** (2 * a_exp) * (s + 1) ** (2 * b_exp)
            return scale * env * mp.polyval(coeffs, s) ** 2 * r

        edge = 60 * qn.n**2
        gamma = -(2 * (qn.n - 1 - eta / (2 * qn.n)) + 3)

        def tail(w):
            r = edge * w ** (-1 / gamma)
            return integrand(r) * r / (gamma * w)

        edges = [qn.n**2 * b for b in _ATOM_BREAKPOINTS]
        beyond = mp.quad(tail, [0, 1])
    else:
        q = eta / (2 * d)

        def integrand(r):
            # fabs: a node may round past the wall in the last digit
            s = mp.sqrt(mp.fabs(1 - lam * r * r)) / (sl * r)
            env = (1 + s * s) ** (mp.mpf(0.5) - d) * mp.exp(-2 * q * mp.atan2(1, s))
            return scale * env * mp.polyval(coeffs, s) ** 2 * r

        wall = 1 / sl
        edges = [qn.n**2 * b for b in _ATOM_BREAKPOINTS if qn.n**2 * b < wall] + [wall]
        beyond = 0
    return float(mp.log(mp.quad(integrand, [0] + edges) + beyond))


class TestNormalization:
    @pytest.mark.parametrize("lam", [1e-2, 2.9e-3, 1e-6, 1e-10])
    @pytest.mark.parametrize("tau", [1, -1], ids=["ds", "ads"])
    def test_log_norm_matches_mpmath(self, tau, lam):
        model = DeformationModel(tau, lam)
        for n in range(1, 5):
            for l in range(n):
                try:
                    state = wf.build_state(model, QuantumNumbers(n, l))
                except NonNormalizableError:
                    assert tau == 1 and lam == 1e-2
                    continue
                assert abs(0.5 * _mpmath_norm_offset(state)) <= 1e-12, (n, l)

    @settings(max_examples=100, deadline=None)
    @given(
        tau=st.sampled_from([1, -1]),
        log10_lam=st.floats(-24.0, 0.0),
        n=st.integers(1, 5),
        l_frac=st.floats(0.0, 1.0, exclude_max=True),
    )
    # dS (4,0) with tail exponent -1.64, a slow r^(-1.28) norm tail; AdS
    # levels squeezed by the wall
    @example(tau=1, log10_lam=math.log10(2.9e-3), n=4, l_frac=0.0)
    @example(tau=-1, log10_lam=math.log10(0.097), n=4, l_frac=0.3)
    @example(tau=-1, log10_lam=math.log10(0.05), n=3, l_frac=0.0)
    # dS s states a relative 3e-5 (n = 1) and 1e-5 (n = 5) below the
    # threshold lam = 1/(n^2 (n + 1/2)^2), where the norm's tail reaches far
    # out.  Both lam survive the SI round trip (lam / a0^2) a0^2 exactly (the
    # n = 1 value is math.log10((1 - 3e-5) / 2.25) moved up by one ulp): this
    # close to the threshold the exact log_norm moves by about 2e-12 per ulp
    # of lam, more than the log_norm bound below.
    @example(tau=1, log10_lam=-0.35219554714125595, n=1, l_frac=0.0)
    @example(tau=1, log10_lam=math.log10((1.0 - 1e-5) / 756.25), n=5, l_frac=0.0)
    def test_si_equals_hartree(self, tau, log10_lam, n, l_frac):
        lam = 10.0**log10_lam
        qn = QuantumNumbers(n, int(l_frac * n))
        a0 = SI.bohr_radius
        try:
            hartree = wf.build_state(DeformationModel(tau, lam), qn)
            si = wf.build_state(DeformationModel(tau, lam / a0**2, units=SI), qn)
        except EuphError:
            return
        assert abs(si.log_norm - hartree.log_norm - math.log(a0)) <= 1e-12
        for state in (hartree, si):
            assert abs(wf.radial_overlap(state, state) - 1.0) <= 1e-10

    @pytest.mark.parametrize("n", range(1, 6))
    def test_norm_next_to_the_ds_threshold(self, n):
        # a relative eps below lam = 1/(n^2 (n + 1/2)^2) the norm's density
        # falls off as r^(-1 - gamma), gamma = (n + 1/2) eps: half of the
        # tail's mass lies beyond r = edge 2^(1/gamma), past the float range,
        # and (2/gamma) log w reaches 1e12, so the tail must not form it
        # where it cancels
        for eps in (1e-3, 1e-6, 1e-9, 1e-12):
            model = DeformationModel(1, (1.0 - eps) / (n * n * (n + 0.5) ** 2))
            for l in range(n):
                state = wf.build_state(model, QuantumNumbers(n, l))
                assert abs(wf.radial_overlap(state, state) - 1.0) <= 1e-13, (eps, l)

    def test_overflowing_sum_of_a_bound_state_is_a_numerical_failure(self):
        # the Rodrigues coefficients of AdS (4,0) overflow the sum here; every
        # AdS state is bound, so this is no NonNormalizableError, and no numpy
        # warning escapes under the error filter
        with pytest.raises(ConvergenceError, match="not positive and finite"):
            wf.build_state(DeformationModel(-1, 1e-250), QuantumNumbers(4, 0))

class TestTinyLambdaDS:
    # below lam ~ 1e-33 a0^-2 the Jacobi parameters a, b = -n +- eta/(2n)
    # pass 2^53 n, so a state built from them loses a + b = -2n, and the
    # overlap's tail loses log t ~ -2/s against log e ~ 140 unless it takes log1p

    @pytest.mark.parametrize("decade", range(18, 74))
    def test_nodes_and_norm(self, decade):
        model = ds(10.0**-decade)
        for n in range(1, 6):
            for l in range(n):
                state = wf.build_state(model, QuantumNumbers(n, l))
                assert wf.count_nodes(state) == n - l - 1, (n, l)
                assert abs(wf.radial_overlap(state, state) - 1.0) <= 1e-12, (n, l)

    @pytest.mark.parametrize("lam", [1e-30, 1e-34, 1e-40, 1e-60, 1e-73])
    def test_s_states_are_bohr(self, lam):
        # the library's phase is positive toward the tail: -R_20 and +R_30
        r = np.linspace(0.05, 60.0, 240)
        bohr = {
            2: -(1.0 - r / 2.0) * np.exp(-r / 2.0) / math.sqrt(2.0),
            3: 2.0 / (3.0 * math.sqrt(3.0)) * (1.0 - 2.0 * r / 3.0 + 2.0 * r * r / 27.0)
            * np.exp(-r / 3.0),
        }
        for n, reference in bohr.items():
            values = wf.radial_eval(wf.build_state(ds(lam), QuantumNumbers(n, 0)), r)
            assert np.max(np.abs(values - reference)) <= 1e-12 * np.max(np.abs(reference)), n

    @pytest.mark.parametrize("lam", [1e-160, 1e-200])
    def test_overflowing_jacobi_rule_is_a_typed_error(self, lam):
        # the Jacobi alpha ~ 2/(n sqrt(lam)) passes 1e77, where the Gauss rule's
        # recurrence overflows; the collapsed one-node rule once normalized
        # dS (2,0) to <s|s> = 4 while its own norm check read 1
        with pytest.raises(ConvergenceError, match="overflows"):
            wf.build_state(ds(lam), QuantumNumbers(2, 0))


def _hellmann_feynman_slope(state):
    """dE/dlam of a state (Hartree units) from the oracle's radial form A u = kappa B u.

    A = -d^2/dr^2 - W with W = V_eff/chi^2, B = 1/chi^2, kappa = 2E - tau lam/2
    and u = r chi^(1/2) radial_eval.  Only W and B depend on lam, so
    dkappa/dlam = int u^2 (-dW/dlam + kappa tau r^2/chi^4) / int u^2/chi^2 and
    dE/dlam = (dkappa/dlam + tau/2)/2.  Every term is O(1), so the slope sees
    the deformation in doubles at any lam.  Quadrature on [0, 80 n^2].
    """
    model, n = state.model, state.qn.n
    tau, lam = model.tau, model.lam_au
    kappa = 2.0 * state.energy / model.units.hartree_energy - tau * lam / 2.0

    def weights(r):
        chi2 = 1.0 + tau * lam * r * r
        chi = np.sqrt(chi2)
        # W = -l(l+1)/r^2 + 2/(r chi) - tau lam/(2 chi^2) + lam (lam r^2 - 2 tau)/(4 chi^4)
        dw = (
            -tau * r / (chi * chi2)
            - tau / (2.0 * chi2)
            + lam * r * r / (2.0 * chi2**2)
            + (lam * r * r - tau) / (2.0 * chi2**2)
            - tau * r * r * (lam * lam * r * r - 2.0 * tau * lam) / (2.0 * chi2**3)
        )
        u2 = r * r * chi * (wf.radial_eval(state, r) * model.units.bohr_radius**1.5) ** 2
        return u2, dw, chi2

    def numerator(r):
        u2, dw, chi2 = weights(r)
        return u2 * (-dw + kappa * tau * r * r / chi2**2)

    def denominator(r):
        u2, _, chi2 = weights(r)
        return u2 / chi2

    points = [0.0] + [f * n * n for f in (0.1, 1.0, 4.0, 16.0, 80.0)]
    dkappa = euph_quad(numerator, points)[0] / euph_quad(denominator, points)[0]
    return 0.5 * (dkappa + 0.5 * tau)


class TestHellmannFeynmanSlope:
    # E is linear in lam with slope -tau (n^2 - l(l+1) - 1)/2; the slope from
    # the states checks their shape where every energy check below ~1e-17
    # sees only the Bohr term
    @settings(max_examples=60, deadline=None)
    @given(
        log10_lam=st.floats(-73.0, -6.0),
        tau=st.sampled_from([1, -1]),
        n=st.integers(1, 4),
    )
    @example(log10_lam=-40.0, tau=1, n=3)
    @example(log10_lam=-73.0, tau=1, n=2)
    @example(log10_lam=-34.0, tau=1, n=4)
    def test_slope_matches_closed_form(self, log10_lam, tau, n):
        model = DeformationModel(tau, 10.0**log10_lam)
        if tau == -1 and model.wall_radius() <= 2.0 * 80.0 * n * n:
            return  # the r-form diverges at a wall this close
        for l in range(n):
            state = wf.build_state(model, QuantumNumbers(n, l))
            slope = -tau * (n * n - l * (l + 1) - 1) / 2.0
            error = abs(_hellmann_feynman_slope(state) - slope)
            assert error <= 1e-12 * max(1.0, abs(slope)), (l, error)


class TestShapes:
    def test_ds_tail_decays_monotonically(self):
        state = wf.build_state(ds(0.001), QuantumNumbers(2, 0))
        radii = np.linspace(40.0, 200.0, 25)
        vals = np.abs(wf.radial_eval(state, radii))
        assert np.all(np.diff(vals) < 0.0)
        assert vals[-1] < 1e-4 * vals[0]

    def test_ds_far_tail_evaluates_without_warnings(self):
        # far out s rounds to 1, where the t = (s-1)/(s+1) branch switch must
        # not evaluate log1p(-1)
        state = wf.build_state(ds(0.01), QuantumNumbers(1, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = wf.radial_eval(state, np.array([1e3, 1e12]))
        assert np.all(np.isfinite(vals)) and vals[0] > vals[1] >= 0.0

    def test_ads_ground_decreases_inward_region(self):
        state = wf.build_state(ads(0.01), QuantumNumbers(1, 0))
        r1, r2 = 1.0, 3.0
        assert abs(wf.radial_eval(state, r1)) > abs(wf.radial_eval(state, r2))

    def test_origin_exponent_is_r_to_the_l(self):
        # the full radial factor behaves like r^l at the origin, so s states
        # stay finite there while l >= 1 states vanish linearly or faster
        s_state = wf.build_state(ads(0.01), QuantumNumbers(2, 0))
        vals = wf.radial_eval(s_state, np.array([1e-5, 1e-4]))
        assert vals[0] == pytest.approx(vals[1], rel=1e-3)
        p_state = wf.build_state(ads(0.01), QuantumNumbers(2, 1))
        vp = np.abs(wf.radial_eval(p_state, np.array([1e-4, 1e-3, 1e-2])))
        assert vp[0] < vp[1] < vp[2]
        assert vp[1] / vp[0] == pytest.approx(10.0, rel=1e-3)

    def test_bohr_limit_of_ads_ground(self):
        state = wf.build_state(ads(1e-5), QuantumNumbers(1, 0))
        value = wf.radial_eval(state, 1.0)
        assert value == pytest.approx(2.0 * math.exp(-1.0), rel=0.01)

    def test_bohr_limit_sequence(self):
        # fixed radius, shrinking deformation: converges to 2 e^-r
        target = 2.0 * math.exp(-1.5)
        errs = []
        for lam in (1e-3, 1e-4, 1e-5):
            state = wf.build_state(ads(lam), QuantumNumbers(1, 0))
            errs.append(abs(wf.radial_eval(state, 1.5) - target))
        assert errs[0] > errs[1] > errs[2]


class TestNodes:
    @pytest.mark.parametrize("lam", [0.001, 0.01])
    @pytest.mark.parametrize("tau", [1, -1], ids=["ds", "ads"])
    def test_node_theorem(self, tau, lam):
        model = DeformationModel(tau, lam)
        for n in range(1, 5):
            for l in range(n):
                try:
                    state = wf.build_state(model, QuantumNumbers(n, l))
                except NonNormalizableError:
                    assert tau == 1  # only dS levels dissolve
                    continue
                assert wf.count_nodes(state) == n - l - 1

    @pytest.mark.parametrize("n,l", [(3, 0), (4, 1)])
    def test_small_lambda_ads_nodes_are_counted(self, n, l):
        # the atom is a 1e-5 sliver of the 1e6 a0 wall radius here
        state = wf.build_state(ads(1e-12), QuantumNumbers(n, l))
        assert wf.count_nodes(state) == 2


def _radial_ode_residual(state, radii):
    """Apply the radial operator to sqrt(r) * radial_eval with 6th-order stencils.

    chi^2 R'' + (tau lam r + chi^2/r) R' - (l+1/2)^2 (chi^2/r^2) R
        + 2 (chi/r) R = -(2E - tau lam / 2) R    (atomic units)
    Returns max over radii of |lhs - rhs| / max(|term|).
    """
    model, qn = state.model, state.qn
    tau, lam = model.tau, model.lam
    kappa = 2.0 * state.energy - tau * lam / 2.0

    def big_r(r):
        return np.sqrt(r) * wf.radial_eval(state, r)

    worst = 0.0
    c1 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
    c2 = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
    for r in radii:
        h = 1e-3 * r
        stencil = big_r(r + h * np.arange(-3.0, 4.0))
        d1 = np.dot(c1, stencil) / h
        d2 = np.dot(c2, stencil) / h**2
        chi2 = model.chi2(r)
        terms = np.array(
            [
                chi2 * d2,
                (tau * lam * r + chi2 / r) * d1,
                -((qn.l + 0.5) ** 2) * chi2 / r**2 * stencil[3],
                2.0 * math.sqrt(chi2) / r * stencil[3],
                kappa * stencil[3],
            ]
        )
        scale = np.max(np.abs(terms))
        worst = max(worst, abs(np.sum(terms)) / scale)
    return worst


class TestRadialEquation:
    @pytest.mark.parametrize(
        "tau,lam,n,l",
        [(1, 0.01, 1, 0), (1, 0.01, 2, 0), (1, 0.001, 3, 1), (-1, 0.01, 1, 0),
         (-1, 0.01, 2, 0), (-1, 0.01, 3, 2), (-1, 0.001, 4, 1)],
    )
    def test_pointwise_residual(self, tau, lam, n, l):
        model = DeformationModel(tau, lam)
        state = wf.build_state(model, QuantumNumbers(n, l))
        if tau == -1:
            radii = np.linspace(0.08, 0.9, 50) * model.wall_radius()
        else:
            radii = np.linspace(0.5, 6.0, 50) * n * n
        assert _radial_ode_residual(state, radii) <= 1e-6


class TestOrthogonality:
    def test_extended_measure_same_l(self):
        model = ads(0.01)
        states = {n: wf.build_state(model, QuantumNumbers(n, 0)) for n in (1, 2, 3)}
        norms = {
            n: wf.radial_overlap(states[n], states[n], "extended") for n in states
        }
        for n in (1, 2):
            for m in range(n + 1, 4):
                cross = wf.radial_overlap(states[n], states[m], "extended")
                assert abs(cross) / math.sqrt(norms[n] * norms[m]) <= 1e-6

    def test_flat_measure_reported_not_asserted(self):
        # wall-squeezed states are measurably non-orthogonal in the flat measure
        model = ads(0.01)
        s2 = wf.build_state(model, QuantumNumbers(2, 0))
        s3 = wf.build_state(model, QuantumNumbers(3, 0))
        flat = wf.radial_overlap(s2, s3, "flat")
        print(f"flat-measure <2s|3s> at lam=0.01: {flat:.3e}")
        assert abs(flat) < 1.0  # sanity only

    def test_ds_operator_measure(self):
        model = ds(0.001)
        s1 = wf.build_state(model, QuantumNumbers(1, 0))
        s2 = wf.build_state(model, QuantumNumbers(2, 0))
        assert abs(wf.radial_overlap(s1, s2, "operator")) <= 1e-6


class TestExactOverlap:
    # radial_overlap is a fixed Gauss rule on the states' own evaluator; the
    # adaptive routine it replaced is the reference

    @settings(max_examples=300, deadline=None)
    @given(
        tau=st.sampled_from([1, -1]),
        unit=st.floats(0.0, 1.0),
        measure=st.sampled_from(["flat", "operator", "extended"]),
        n=st.tuples(st.integers(1, 5), st.integers(1, 5)),
        l_frac=st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                         st.floats(0.0, 1.0, exclude_max=True)),
        same=st.booleans(),
    )
    # an orthogonal cross pair whose core cancels to 0 over a dS tail near the
    # double range's floor (lam about 4e-22): the reference's goal floor
    @example(tau=1, unit=0.71195, measure="flat", n=(2, 4), l_frac=(0.5, 0.25), same=False)
    def test_matches_the_adaptive_reference(self, tau, unit, measure, n, l_frac, same):
        # dS lam log-uniform in [1e-73, 0.3], AdS in [1e-16, 0.3]
        lo = -73.0 if tau == 1 else -16.0
        model = DeformationModel(tau, 10.0 ** (lo + unit * (math.log10(0.3) - lo)))
        if measure == "extended" and tau == 1:
            measure = "operator"
        try:
            a, b = (wf.build_state(model, QuantumNumbers(k, int(f * k))) for k, f in zip(n, l_frac))
        except NonNormalizableError:
            return
        b = a if same else b
        want = overlap_reference.radial_overlap(a, b, measure)
        # relative to the states' unit norms: cross overlaps may be ~0
        assert abs(wf.radial_overlap(a, b, measure) - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("model", [ds(1e-3), ds(1e-40), ads(1e-3), ads(1e-12)],
                             ids=["ds-1e-3", "ds-1e-40", "ads-1e-3", "ads-1e-12"])
    def test_a_shifted_log_norm_moves_the_self_overlap(self, model):
        state = wf.build_state(model, QuantumNumbers(3, 1))
        shifted = dataclasses.replace(state, log_norm_au=state.log_norm_au + 1e-6)
        assert abs(wf.radial_overlap(state, state) - 1.0) <= 1e-13
        assert wf.radial_overlap(shifted, shifted) == pytest.approx(math.exp(-2e-6), abs=1e-13)

    @pytest.mark.parametrize("tau, lam, n, l", [(1, 1e-12, 40, 3), (1, 1e-16, 30, 0),
                                                (-1, 1e-12, 40, 3)])
    def test_states_lost_in_rounding_miss_one(self, tau, lam, n, l):
        # the monomial Rodrigues coefficients lose these states; on
        # _normalize's own nodes their self-overlap would read 1 to 1e-13
        state = wf.build_state(DeformationModel(tau, lam), QuantumNumbers(n, l))
        assert abs(wf.radial_overlap(state, state) - 1.0) > 1e-8

    def test_self_pair_never_uses_the_normalization_nodes(self, monkeypatch):
        real, sizes = euph_integrate.gauss_jacobi_u, []

        def spy(m, alpha, beta):
            sizes.append(m)
            return real(m, alpha, beta)

        model = ds(1e-4)
        states = [wf.build_state(model, QuantumNumbers(n, l)) for n in range(1, 8) for l in range(n)]
        monkeypatch.setattr(euph_integrate, "gauss_jacobi_u", spy)
        for state in states:
            sizes.clear()
            wf.radial_overlap(state, state, "flat")
            wf.radial_overlap(state, state, "operator")
            assert sizes == [state.qn.n_r + 2] * 2, state.qn
        # AdS: 80 Legendre points against the normalization's 64
        assert len(wf._legendre_80()[0]) != len(euph_integrate.LEGENDRE_64[0])


class TestSphericalHarmonics:
    def test_s_wave_constant(self):
        state = wf.build_state(ads(0.01), QuantumNumbers(1, 0))
        v1 = wf.psi_eval(state, 1.0, 0.3, 0.4)
        v2 = wf.psi_eval(state, 1.0, 2.0, 5.0)
        assert v1 == pytest.approx(v2, rel=1e-12)
        assert v1.real == pytest.approx(
            wf.radial_eval(state, 1.0) / math.sqrt(4.0 * math.pi), rel=1e-12
        )

    def test_azimuthal_modulus(self):
        state = wf.build_state(ads(0.01), QuantumNumbers(2, 1, 1))
        mags = [abs(wf.psi_eval(state, 1.0, 0.7, phi)) for phi in (0.0, 1.0, 4.0)]
        assert mags[0] == pytest.approx(mags[1], rel=1e-12)
        assert mags[0] == pytest.approx(mags[2], rel=1e-12)

    def test_y10_normalized_by_quadrature(self):
        def integrand(theta):
            return abs(wf.sph_harm(1, 0, theta, 0.0)) ** 2 * math.sin(theta) * 2 * math.pi

        val, _ = integrate.quad(integrand, 0.0, math.pi, epsabs=1e-13)
        assert val == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("l,m", [(0, 0), (1, 0), (1, 1), (2, -1), (3, 2), (4, -4)])
    def test_matches_scipy(self, l, m):
        for theta, phi in [(0.3, 0.5), (1.2, 2.0), (2.8, 4.4)]:
            mine = wf.sph_harm(l, m, theta, phi)
            ref = complex(sph_harm_y(l, m, theta, phi))
            assert mine == pytest.approx(ref, rel=1e-12, abs=1e-12)


class TestCrossChecks:
    def test_delta_cross_check_runs(self):
        # build_state verifies the branch root delta = n against the engine's
        wf.build_state(ds(0.005), QuantumNumbers(3, 1))
        red = spectra.reduce_level(ds(0.005), QuantumNumbers(3, 1))
        assert red.root_poly[1] == pytest.approx(3.0, rel=1e-11)

    def test_small_lambda_level_passes_the_cross_check(self):
        # at this lam, delta rebuilt from the energy through the cancelling
        # k-discriminant misses n by 4e-6, far past the 1e-9 cross-check
        state = wf.build_state(ds(5.216935833485621e-13), QuantumNumbers(2, 0))
        assert spectra.reduce_level(state.model, state.qn).root_poly[1] == 2.0
        assert wf.count_nodes(state) == 1
        assert wf.radial_overlap(state, state, "flat") == pytest.approx(1.0, abs=1e-8)

    def test_engine_root_other_than_n_is_rejected(self, monkeypatch):
        real = spectra.reduce_level

        def shifted(model, qn):
            red = real(model, qn)
            return dataclasses.replace(red, root_poly=(red.root_poly[0], 2.0 * qn.n))

        monkeypatch.setattr(spectra, "reduce_level", shifted)
        with pytest.raises(ValidationError, match="branch root mismatch"):
            wf.build_state(ads(0.01), QuantumNumbers(2, 0))
