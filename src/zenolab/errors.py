"""Exception hierarchy for zenolab.

Every documented failure mode has its own class so callers (and the CLI)
can map errors to warnings or exit codes without string matching.
"""

from __future__ import annotations


class ZenoLabError(Exception):
    """Base class for all zenolab errors."""


# operator construction and linear algebra


class NonFinite(ZenoLabError):
    """Input contains NaN or Inf entries."""


class NotHermitian(ZenoLabError):
    """Matrix deviates from its adjoint beyond tolerance."""


class NotPSD(ZenoLabError):
    """Operator has an eigenvalue below the negative tolerance."""


class Overflow(ZenoLabError):
    """Requested exponential would overflow double precision."""


class ZeroSpan(ZenoLabError):
    """All spanning vectors are numerically zero."""


class DimensionMismatch(ZenoLabError):
    """Operands act on spaces of different dimension."""


class NotSectorial(ZenoLabError):
    """Numerical range escapes the requested sector."""


# state and probe validation


class NotNormalized(ZenoLabError):
    """State vector is not of unit norm within tolerance."""


class ZeroRank(ZenoLabError):
    """Projection of rank zero where a nontrivial subspace is required."""


# decay analysis


class NotSmooth(ZenoLabError):
    """Finite-difference probes of the evolution fail the Richardson consistency check."""


class NonpositiveProbability(ZenoLabError):
    """Survival probability at or below the floor; log transform undefined."""


class WindowTooSmall(ZenoLabError):
    """Fit window holds fewer samples than the fit requires."""


class NonExponential(ZenoLabError):
    """Log-linear fit rejected; the data shows no exponential regime."""


class NoCrossing(ZenoLabError):
    """Effective-rate curve never crosses the natural rate on the sampled range; the message gives its range."""


# spectral measures


class QuadratureFailure(ZenoLabError):
    """Adaptive quadrature did not reach the requested accuracy."""


# scenario runner


class ConfigError(ZenoLabError):
    """Scenario configuration is malformed; message names the offending field."""


class IOFailure(ZenoLabError):
    """Report or CSV emission failed."""
