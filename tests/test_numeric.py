import warnings

import numpy as np
import pytest

from zenolab.numeric import linear_fit, loglog_fit


def plain_fit(x, y):
    """The line through (x, y) by ``np.polyfit`` of the unscaled x."""
    coeffs = np.polyfit(x, y, 1)
    return float(coeffs[0]), float(coeffs[1]), float(np.sqrt(np.mean((y - np.polyval(coeffs, x)) ** 2)))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("span", [1e-3, 1.0, 37.5, 1e5])
def test_linear_fit_is_the_plain_fit_bit_for_bit(seed, span):
    """The power-of-two scaling passes exactly through polyfit's column scaling."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, span, 30))
    y = -0.7 * x + 0.2 + rng.standard_normal(30)
    assert linear_fit(x, y) == plain_fit(x, y)


def test_linear_fit_of_underflowing_abscissae():
    # polyfit's column norm of x underflows here: unscaled, the fit raises LinAlgError after a RuntimeWarning
    x = np.array([2.2250738585072014e-308, 5e-255, 1e-254])
    y = np.array([1.0, -1.0, -3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slope, intercept, rms = linear_fit(x, y)
        huge, _, _ = linear_fit(x * 1e-60, y)
    assert slope == pytest.approx(-4e254, rel=1e-12) and intercept == pytest.approx(1.0, rel=1e-12)
    assert rms < 1e-12
    assert huge == -np.inf


def test_loglog_fit_level_past_the_doubles_is_inf():
    # y = 1e320 x**-60: every sample is a double, the level is not
    x = np.array([1e2, 1e3, 1e4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exponent, level, _ = loglog_fit(x, np.array([1e200, 1e140, 1e80]))
    assert exponent == pytest.approx(-60.0, rel=1e-12)
    assert level == np.inf
