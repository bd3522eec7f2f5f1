"""Grid check of the deformed commutator in one dimension.

The position representation X = x/chi, P = -i hbar chi d/dx with
chi = sqrt(1 + tau lam x^2) satisfies [X, P] = i hbar (1 - tau lam X^2)
exactly, so applying both sides to smooth test functions with high-order
stencils leaves pure discretization error.  Used by acceptance criterion 08
and ``test_oracle.TestCommutator``.
"""

import math

import numpy as np

from euph.errors import ValidationError

# grid points on the interval
_N_POINTS = 4000

# 8th-order central first-derivative stencil
_D1_W = np.array([4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0])

_TEST_FUNCTIONS = {
    "gaussian": lambda x: np.exp(-0.5 * x * x),
    "gaussian_x": lambda x: x * np.exp(-0.5 * x * x),
    "gaussian_x2": lambda x: x * x * np.exp(-0.5 * x * x),
}


def _d1(f, h):
    out = np.zeros_like(f)
    for k, w in enumerate(_D1_W, start=1):
        out[4:-4] += w * (np.roll(f, -k)[4:-4] - np.roll(f, k)[4:-4]) / h
    return out


def commutator_residual(model, test_function_id: str) -> float:
    """Grid residual of [X, P] f = i hbar (1 - tau lam X^2) f in 1-D.

    X = x/chi and P = -i hbar chi d/dx; derivatives use 8th-order central
    stencils on N = 4000 points of the interval +-5 a0 (clipped to 0.95 of
    the AdS wall), with the test functions Gaussians in x/a0.  The identity
    holds exactly, so the result is the scheme's discretization error,
    normalized by max|f|: an action, in units of hbar.
    """
    if test_function_id not in _TEST_FUNCTIONS:
        raise ValidationError(
            f"unknown test function {test_function_id!r}; "
            f"choose from {sorted(_TEST_FUNCTIONS)}"
        )
    lam = model.lam_au
    half = 5.0 if model.tau == 1 else min(5.0, 0.95 * (1.0 / math.sqrt(lam)))
    x = np.linspace(-half, half, _N_POINTS)
    h = x[1] - x[0]
    f = _TEST_FUNCTIONS[test_function_id](x)
    chi = np.sqrt(1.0 + model.tau * lam * x * x)

    df = _d1(f, h)
    dg = _d1(x * f / chi, h)
    resid = x * df - chi * dg + (1.0 - model.tau * lam * x * x / chi**2) * f
    core = slice(8, -8)
    return float(model.units.hbar * np.max(np.abs(resid[core])) / np.max(np.abs(f)))
