"""Shared numeric policy and small fitting helpers.

All validation tolerances in the package are absolute-plus-relative,
``base * (1 + reference_scale)``.
"""

from __future__ import annotations

import numpy as np

# exp() overflows IEEE doubles just above this exponent
EXP_LIMIT = 700.0


def tol(base: float, ref: float = 0.0) -> float:
    """Absolute-plus-relative tolerance: base * (1 + ref)."""
    return base * (1.0 + ref)


def linear_fit(x, y) -> tuple[float, float, float]:
    """Least-squares line through (x, y); returns (slope, intercept, rms residual).

    x is fitted scaled by the power of two that puts max |x| in [1/2, 1), which
    passes exactly through polyfit's column norms but keeps them from under- or
    overflowing; a slope past the doubles is inf.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("linear_fit needs two same-length arrays with >= 2 points")
    _, k = np.frexp(np.max(np.abs(x)))
    scaled = np.ldexp(x, -k)
    coeffs = np.polyfit(scaled, y, 1)
    fitted = np.polyval(coeffs, scaled)
    rms = float(np.sqrt(np.mean((y - fitted) ** 2)))
    with np.errstate(over="ignore"):
        return float(np.ldexp(coeffs[0], -k)), float(coeffs[1]), rms


def loglog_fit(x, y) -> tuple[float, float, float]:
    """Power-law fit y = level * x**exponent; returns (exponent, level, rms of log residuals)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("loglog_fit needs strictly positive data")
    slope, intercept, rms = linear_fit(np.log(x), np.log(y))
    with np.errstate(over="ignore"):  # a level past the doubles is inf
        return slope, float(np.exp(intercept)), rms
