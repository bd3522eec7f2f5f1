import math

import numpy as np
import pytest

from euph.errors import ValidationError
from euph.polynomials import poly_coefficients

from nu_reference import (
    Jacobi,
    NonIntegrableWarning,
    Romanovski,
    family_coefficients,
    jacobi_recurrence,
    weighted_inner_product,
)


def poly_values(family, n, s):
    return np.polynomial.polynomial.polyval(s, family_coefficients(family, n))


class TestEval:
    @pytest.mark.parametrize(
        "family", [Jacobi(0.0, 0.0), Jacobi(-2.5, 0.5), Romanovski(-3.0, 1.0)]
    )
    def test_degree_zero_is_one(self, family):
        for s in (-2.0, 0.0, 0.7, 5.0):
            assert poly_values(family, 0, s) == 1.0

    def test_legendre_first_degree(self):
        assert poly_values(Jacobi(0.0, 0.0), 1, 0.5) == pytest.approx(0.5, rel=1e-14)

    def test_romanovski_first_degree(self):
        # one differentiation of the weight: y_1 = 2(alpha+1) s + beta
        assert poly_values(Romanovski(-2.0, -2.0), 1, 1.0) == pytest.approx(-4.0, rel=1e-14)

    def test_degenerate_jacobi_is_constant(self):
        family = Jacobi(-2.5, 0.5)  # a + b + 2 = 0 kills the slope
        for s in (-0.9, 0.0, 2.0):
            assert poly_values(family, 1, s) == pytest.approx(-1.5, rel=1e-13)

    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (1.0, 2.0), (0.3, 1.7), (-0.4, 0.9)])
    def test_matches_classical_recurrence(self, a, b):
        for n in range(7):
            for x in (-0.8, -0.1, 0.4, 0.95):
                assert poly_values(Jacobi(a, b), n, x) == pytest.approx(
                    jacobi_recurrence(n, a, b, x), rel=1e-10, abs=1e-12
                )

    def test_overflow_guard(self):
        with pytest.raises(ValidationError):
            poly_coefficients(*Jacobi(0.0, 0.0).sigma_tau(), 65)


class TestInnerProducts:
    def test_legendre_orthogonality(self):
        assert weighted_inner_product(Jacobi(0.0, 0.0), 1, 2) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_legendre_norm(self):
        assert weighted_inner_product(Jacobi(0.0, 0.0), 1, 1) == pytest.approx(
            2.0 / 3.0, rel=1e-10
        )

    def test_symmetry(self):
        for family in (Jacobi(0.4, 1.2), Romanovski(-6.0, 0.5)):
            a = weighted_inner_product(family, 1, 2)
            b = weighted_inner_product(family, 2, 1)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("a,b", [(0.3, 1.7), (1.0, 2.0), (0.0, 0.5)])
    def test_classical_norm_formula(self, a, b):
        # h_n = 2^(a+b+1)/(2n+a+b+1) * G(n+a+1)G(n+b+1)/(G(n+a+b+1) n!)
        for n in range(5):
            hn = (
                2.0 ** (a + b + 1.0)
                / (2.0 * n + a + b + 1.0)
                * math.gamma(n + a + 1.0)
                * math.gamma(n + b + 1.0)
                / (math.gamma(n + a + b + 1.0) * math.factorial(n))
            )
            assert weighted_inner_product(Jacobi(a, b), n, n) == pytest.approx(
                hn, rel=1e-8
            )

    def test_jacobi_parity(self):
        family = Jacobi(0.37, 0.37)
        s = np.linspace(-0.95, 0.95, 11)
        for n in range(7):
            plus = poly_values(family, n, s)
            minus = poly_values(family, n, -s)
            scale = np.max(np.abs(plus))
            assert np.max(np.abs(minus - (-1.0) ** n * plus)) <= 1e-12 * max(scale, 1.0)

    def test_romanovski_finite_orthogonality(self):
        assert weighted_inner_product(Romanovski(-6.0, 0.0), 1, 2) == pytest.approx(
            0.0, abs=1e-8
        )

    def test_romanovski_divergence_warns(self):
        # n + m >= -2 alpha - 1 diverges at infinity
        with pytest.warns(NonIntegrableWarning):
            out = weighted_inner_product(Romanovski(-2.0, 0.0), 2, 1)
        assert math.isnan(out)

    def test_jacobi_endpoint_divergence_warns(self):
        with pytest.warns(NonIntegrableWarning):
            out = weighted_inner_product(Jacobi(-1.5, 0.0), 0, 0)
        assert math.isnan(out)

    def test_weight_values(self):
        # the degree-0 products are the masses of the weights
        assert weighted_inner_product(Jacobi(2.0, 3.0), 0, 0) == pytest.approx(16.0 / 15.0)
        assert weighted_inner_product(Romanovski(-1.0, 2.0), 0, 0) == pytest.approx(
            math.sinh(math.pi)
        )
