"""Each input check of the library raises its typed error, one case per check."""

import math

import pytest

from euph import integrate, nu_engine as nu, oracle, wavefunctions as wf
from euph.errors import ConvergenceError, DomainError, UnsupportedModelError, ValidationError
from euph.model import DeformationModel, QuantumNumbers


def _ode(sigma):
    return nu.HypergeometricODE(sigma=sigma, tau_tilde=(0.0, 1.0), sigma_tilde=(1.0,))


def _overlap(tau_a, tau_b, measure):
    a = wf.build_state(DeformationModel(tau_a, 0.01), QuantumNumbers(1, 0))
    b = wf.build_state(DeformationModel(tau_b, 0.01), QuantumNumbers(1, 0))
    return wf.radial_overlap(a, b, measure)


CHECKS = {
    "ode-cubic-sigma": (
        lambda: _ode((1.0, 0.0, 0.0, 1.0)), ValidationError, "degree <= 2"),
    "reduce-negative-level": (
        lambda: nu.reduce(_ode((1.0, 0.0, 1.0)), -1), ValidationError, "nonnegative"),
    "reduce-linear-sigma": (
        lambda: nu.reduce(_ode((1.0, 1.0)), 0), ValidationError, "quadratic sigma"),
    # sigma_2 = 1e-200 is quadratic, but sigma_2^2 underflows to 0
    "reduce-underflowed-sigma": (
        lambda: nu.reduce(_ode((1.0, 0.0, 1e-200)), 0), ValidationError, "quadratic sigma"),
    "rodrigues-negative-degree": (
        lambda: nu.rodrigues_polynomial((1.0, 0.0, -1.0), (0.0, -2.0), -1),
        ValidationError, "nonnegative"),
    "fd-negative-l": (
        lambda: oracle.fd_spectrum(DeformationModel(1, 0.01), -1, 2), ValidationError,
        "l must be nonnegative"),
    "overlap-two-models": (
        lambda: _overlap(1, -1, "flat"), ValidationError, "share one deformation model"),
    "overlap-unknown-measure": (
        lambda: _overlap(1, 1, "volume"), ValidationError, "unknown measure"),
    "overlap-extended-ds": (
        lambda: _overlap(1, 1, "extended"), ValidationError, "only for AdS"),
    "sph-harm-m-above-l": (
        lambda: wf.sph_harm(1, 2, 0.3, 0.5), DomainError, "must not exceed l"),
    "wall-radius-ds": (
        lambda: DeformationModel(1, 0.01).wall_radius(), UnsupportedModelError, "finite wall"),
    "quad-non-finite": (
        lambda: integrate.quad(lambda x: x * math.inf, [0.0, 1.0]), ConvergenceError,
        "not finite"),
}


@pytest.mark.parametrize("name", CHECKS)
def test_input_check_raises_its_typed_error(name):
    call, error, match = CHECKS[name]
    with pytest.raises(error, match=match):
        call()
