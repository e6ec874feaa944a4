"""Survival probability analytics: short-time law, decay rates, and the
Zeno / anti-Zeno crossing of the effective rate."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    NoCrossing,
    NonExponential,
    NonpositiveProbability,
    NotNormalized,
    NotSmooth,
    WindowTooSmall,
)
from .numeric import linear_fit, tol
from .operators import HermitianOperator, _matmul

__all__ = [
    "DecayProfile",
    "DecayFit",
    "CrossingResult",
    "survival_amplitude",
    "survival_probability",
    "zeno_time",
    "iterated_survival",
    "geometric_speed",
    "decay_profile",
    "effective_rate_curve",
    "decay_fit",
    "find_crossing",
    "heisenberg_time",
]

_PROBABILITY_FLOOR = 1e-300


def _state_coefficients(h: HermitianOperator, psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > tol(1e-10):
        raise NotNormalized(f"state norm {norm:.12f} deviates from 1")
    return _matmul(h.eigenvectors.conj().T, psi)


def survival_amplitude(h: HermitianOperator, psi, t: float) -> complex:
    """<psi, exp(i t H) psi> for a unit state."""
    c = _state_coefficients(h, psi)
    weights = np.abs(c) ** 2
    return complex(np.sum(weights * np.exp(1j * t * h.eigenvalues)))


def survival_probability(h: HermitianOperator, psi, t: float) -> float:
    return abs(survival_amplitude(h, psi, t)) ** 2


def energy_moments(h: HermitianOperator, psi) -> tuple[float, float]:
    """First and second moments of H in the state."""
    c = _state_coefficients(h, psi)
    weights = np.abs(c) ** 2
    m1 = float(np.sum(weights * h.eigenvalues))
    m2 = float(np.sum(weights * h.eigenvalues**2))
    return m1, m2


def zeno_time(h: HermitianOperator, psi) -> float:
    """Inverse energy spread; infinite for (numerical) eigenvectors."""
    m1, m2 = energy_moments(h, psi)
    variance = m2 - m1 * m1
    if variance < 1e-14:
        return math.inf
    return variance**-0.5


def iterated_survival(h: HermitianOperator, psi, t: float, n: int) -> float:
    """Survival probability after n equally spaced projective measurements."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    p = survival_probability(h, psi, t / n)
    return float(min(p, 1.0 + 1e-12) ** n)


def geometric_speed(
    evolution: Callable[[float], np.ndarray],
    psi0,
    step: float = 1e-4,
) -> float:
    """Squared initial speed of the normalized state on the ray space.

    Probes the evolution by central differences at ``step`` and ``step/2``
    with Richardson extrapolation; raises NotSmooth when the two estimates
    disagree beyond 1e-6. For unitary evolutions this equals the energy
    variance of the initial state.
    """
    psi0 = np.asarray(psi0, dtype=complex)

    def chi(t: float) -> np.ndarray:
        v = np.asarray(evolution(t), dtype=complex)
        nrm = float(np.linalg.norm(v))
        if nrm <= 0:
            raise NotSmooth("evolution returned a zero vector")
        return v / nrm

    chi0 = chi(0.0)
    if float(np.linalg.norm(chi0 - psi0 / np.linalg.norm(psi0))) > tol(1e-8):
        raise ValueError("evolution(0) disagrees with the initial state")

    def derivative(h: float) -> np.ndarray:
        return (chi(h) - chi(-h)) / (2.0 * h)

    d1 = derivative(step)
    d2 = derivative(step / 2.0)
    extrapolated = (4.0 * d2 - d1) / 3.0
    consistency = float(np.linalg.norm(d2 - d1)) / 3.0
    if consistency > tol(1e-6):
        raise NotSmooth(f"Richardson consistency {consistency:.3e} exceeds 1e-6")
    overlap = complex(np.vdot(chi0, extrapolated))
    k = complex(np.vdot(extrapolated, extrapolated)) - (1j * overlap) ** 2
    value = float(k.real)
    if value < -tol(1e-10):
        raise ArithmeticError(f"speed squared came out negative: {value:.3e}")
    return max(value, 0.0)


@dataclass(frozen=True)
class DecayProfile:
    """Sampled survival probability of a state under its generator."""

    times: np.ndarray
    probabilities: np.ndarray
    state: np.ndarray
    generator_ref: HermitianOperator

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        p = np.asarray(self.probabilities, dtype=float)
        if t.ndim != 1 or t.shape != p.shape:
            raise ValueError("times and probabilities must be 1-d arrays of equal length")
        if np.any(t <= 0) or np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing and positive")
        if np.any(p < 0) or np.any(p > 1.0 + 1e-12):
            raise ValueError("probabilities must lie in [0, 1]")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "probabilities", p)


def decay_profile(h: HermitianOperator, psi, times) -> DecayProfile:
    """Sample P(t) = |<psi, exp(itH) psi>|^2 on a grid, vectorized over t."""
    c = _state_coefficients(h, psi)
    weights = np.abs(c) ** 2
    t = np.asarray(times, dtype=float)
    # cos, then sin, of one real phase table refilled in place: a single
    # len(t) x d buffer and no complex temporaries
    phase = np.outer(t, h.eigenvalues)
    real = np.cos(phase, out=phase) @ weights
    amp = real + 1j * (np.sin(np.outer(t, h.eigenvalues, out=phase), out=phase) @ weights)
    probs = np.minimum(np.abs(amp) ** 2, 1.0 + 1e-12)
    return DecayProfile(t, probs, np.asarray(psi, dtype=complex), h)


def effective_rate_curve(profile: DecayProfile) -> np.ndarray:
    """(tau, gamma_eff) pairs with gamma_eff = -ln P(tau) / tau."""
    p = profile.probabilities
    if np.any(p <= _PROBABILITY_FLOOR):
        raise NonpositiveProbability("survival probability at or below the floor")
    gamma = -np.log(p) / profile.times
    return np.column_stack([profile.times, gamma])


def heisenberg_time(h: HermitianOperator) -> float:
    """2*pi over the mean level spacing; recurrences appear on this scale."""
    w = h.eigenvalues
    if w.size < 2 or h.spread <= 0:
        return math.inf
    mean_spacing = h.spread / (w.size - 1)
    return 2.0 * math.pi / mean_spacing


@dataclass(frozen=True)
class DecayFit:
    """Log-linear fit P(t) ~ Z exp(-gamma0 t) on a window."""

    gamma0: float
    prefactor: float  # Z
    window: tuple[float, float]
    residual: float  # rms of log-P deviations on the window

    def __post_init__(self):
        if not self.window[0] < self.window[1]:
            raise ValueError("window must satisfy t_lo < t_hi")

    @property
    def Z(self) -> float:
        return self.prefactor


def default_fit_window(profile: DecayProfile) -> tuple[float, float]:
    """Heuristic window: start where gamma_eff flattens, stop at half the
    Heisenberg time of the generator."""
    curve = effective_rate_curve(profile)
    taus, gammas = curve[:, 0], curve[:, 1]
    t_hi = min(float(taus[-1]), 0.5 * heisenberg_time(profile.generator_ref))
    t_lo = float(taus[0])
    slopes = np.gradient(gammas, taus)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(slopes) / np.maximum(np.abs(gammas), 1e-300)
    flat = np.nonzero((rel < 0.05) & (taus < t_hi))[0]
    if flat.size:
        t_lo = float(taus[flat[0]])
    return (t_lo, t_hi)


def decay_fit(profile: DecayProfile, window: tuple[float, float] | None = None) -> DecayFit:
    """Least squares of ln P against t on the window.

    Samples past half the Heisenberg time are refused (finite models recur).
    Raises WindowTooSmall with fewer than 10 usable samples and
    NonExponential when the rms log residual exceeds 0.1 or the slope is not
    a decay.
    """
    if window is None:
        window = default_fit_window(profile)
    t_lo, t_hi = float(window[0]), float(window[1])
    if not t_lo < t_hi:
        raise WindowTooSmall(f"empty window ({t_lo}, {t_hi})")
    t_hi = min(t_hi, 0.5 * heisenberg_time(profile.generator_ref))
    mask = (profile.times >= t_lo) & (profile.times <= t_hi)
    if int(np.count_nonzero(mask)) < 10:
        raise WindowTooSmall(
            f"window ({t_lo:.4g}, {t_hi:.4g}) holds {int(np.count_nonzero(mask))} samples, need 10"
        )
    t = profile.times[mask]
    p = profile.probabilities[mask]
    if np.any(p <= _PROBABILITY_FLOOR):
        raise NonpositiveProbability("survival probability at or below the floor inside window")
    slope, intercept, rms = linear_fit(t, np.log(p))
    fit = DecayFit(gamma0=-slope, prefactor=float(np.exp(intercept)), window=(t_lo, t_hi), residual=rms)
    if rms > 0.1:
        raise NonExponential(f"log-linear residual {rms:.3g} exceeds 0.1", fit=fit)
    if fit.gamma0 <= 0:
        raise NonExponential(f"fitted rate {fit.gamma0:.3g} is not a decay", fit=fit)
    return fit


@dataclass(frozen=True)
class CrossingResult:
    """Measurement interval at which the effective rate meets the natural one."""

    tau_star: float
    bracket: tuple[float, float]
    gamma_eff_at_star: float


def find_crossing(gamma_eff_curve, gamma0: float) -> CrossingResult:
    """Bisect the sampled gamma_eff curve (linearly interpolated) against gamma0.

    Raises NoCrossing, reporting the curve's extremes, when no sign change
    appears on the sampled range.
    """
    curve = np.asarray(gamma_eff_curve, dtype=float)
    if curve.ndim != 2 or curve.shape[1] != 2 or curve.shape[0] < 2:
        raise ValueError("curve must be an (n, 2) array of (tau, gamma_eff) with n >= 2")
    if gamma0 <= 0:
        raise ValueError("gamma0 must be positive")
    taus, gammas = curve[:, 0], curve[:, 1]
    sign = np.sign(gammas - gamma0)
    change = np.nonzero(sign[:-1] * sign[1:] <= 0)[0]
    change = [i for i in change if sign[i] != 0 or sign[i + 1] != 0]
    if not len(change):
        raise NoCrossing(
            f"gamma_eff stays on one side of {gamma0:.6g} "
            f"(range [{gammas.min():.6g}, {gammas.max():.6g}])",
            curve_min=float(gammas.min()),
            curve_max=float(gammas.max()),
        )
    i = int(change[0])
    lo, hi = float(taus[i]), float(taus[i + 1])
    g = lambda x: float(np.interp(x, taus, gammas))
    f_lo = g(lo) - gamma0
    a, b = lo, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        f_mid = g(mid) - gamma0
        if f_lo * f_mid <= 0:
            b = mid
        else:
            a, f_lo = mid, f_mid
        if (b - a) <= 1e-12 * max(1.0, abs(b)):
            break
    tau_star = 0.5 * (a + b)
    return CrossingResult(tau_star=tau_star, bracket=(lo, hi), gamma_eff_at_star=g(tau_star))
