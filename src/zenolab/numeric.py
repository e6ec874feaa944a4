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
    """Least-squares line through (x, y); returns (slope, intercept, rms residual)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("linear_fit needs two same-length arrays with >= 2 points")
    coeffs = np.polyfit(x, y, 1)
    fitted = np.polyval(coeffs, x)
    rms = float(np.sqrt(np.mean((y - fitted) ** 2)))
    return float(coeffs[0]), float(coeffs[1]), rms


def loglog_fit(x, y) -> tuple[float, float, float]:
    """Power-law fit y = level * x**exponent; returns (exponent, level, rms of log residuals)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("loglog_fit needs strictly positive data")
    slope, intercept, rms = linear_fit(np.log(x), np.log(y))
    return slope, float(np.exp(intercept)), rms
