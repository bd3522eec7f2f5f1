import warnings

import pytest

from euph import integrate
from euph.errors import ConvergenceError


def test_non_integrable_integrand_raises_without_warning():
    # 1/x on [0, 1]: the panel at 0 never converges, so quad must stop at
    # its panel cap with a typed error, neither looping nor warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="panels"):
            integrate.quad(lambda x: 1.0 / x, [0.0, 1.0])
