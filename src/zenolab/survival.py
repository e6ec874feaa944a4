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
    NonFinite,
    NonpositiveProbability,
    NotNormalized,
    NotSmooth,
    WindowTooSmall,
)
from .numeric import linear_fit, tol
from .operators import _EPS, HermitianOperator, _checked_time

__all__ = [
    "DecayProfile",
    "DecayFit",
    "survival_amplitude",
    "survival_probability",
    "iterated_survival",
    "geometric_speed",
    "decay_profile",
    "effective_rate_curve",
    "decay_fit",
    "find_crossing",
    "heisenberg_time",
]

_PROBABILITY_FLOOR = 1e-300


def _spectral_weights(h: HermitianOperator, psi) -> np.ndarray:
    """q = |V* psi|^2, a unit state's spectral weights on the eigenvalues (``h._coordinates``)."""
    psi = np.asarray(psi, dtype=complex)
    norm = float(np.linalg.norm(psi))
    if not abs(norm - 1.0) <= tol(1e-10):  # a nan entry makes the norm nan
        raise NotNormalized(f"state norm {norm:.12f} deviates from 1")
    return np.abs(h._coordinates(psi)) ** 2


def survival_amplitude(h: HermitianOperator, psi, t: float) -> complex:
    """<psi, exp(i t H) psi> for a unit state."""
    return complex(_characteristic(h.eigenvalues, _spectral_weights(h, psi), np.array([t], dtype=float))[0])


def survival_probability(h: HermitianOperator, psi, t: float) -> float:
    return abs(survival_amplitude(h, psi, t)) ** 2


def energy_moments(h: HermitianOperator, psi) -> tuple[float, float]:
    """First and second moments of H in the state."""
    q = _spectral_weights(h, psi)
    return float(np.sum(q * h.eigenvalues)), float(np.sum(q * h.eigenvalues**2))


def iterated_survival(h: HermitianOperator, psi, t: float, n: int) -> float:
    """Survival probability after n equally spaced projective measurements."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    p = survival_probability(h, psi, t / n)
    return float(min(p, 1.0 + 1e-12) ** n)


def geometric_speed(evolution: Callable[[float], np.ndarray], psi0) -> float:
    """Squared initial speed of the normalized state on the ray space.

    Probes the evolution by central differences at steps 1e-4 and 5e-5
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

    d1, d2 = derivative(1e-4), derivative(5e-5)
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


@dataclass(frozen=True, eq=False)  # an array field does not compare as one truth value
class DecayProfile:
    """Sampled survival probability of a state, with the Heisenberg time of its generator."""

    times: np.ndarray
    probabilities: np.ndarray
    heisenberg_time: float

    def __post_init__(self):
        t = _time_grid(self.times)
        p = np.asarray(self.probabilities, dtype=float)
        if t.shape != p.shape:
            raise ValueError("times and probabilities must be 1-d arrays of equal length")
        if not np.all((p >= 0) & (p <= 1.0 + 1e-12)):  # nan lies in no interval
            raise ValueError("probabilities must lie in [0, 1]")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "probabilities", p)


def _time_grid(times) -> np.ndarray:
    """``times`` as a float array, checked: 1-d (else ValueError), finite (else NonFinite), positive and strictly
    increasing (else ValueError)."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"times must be a 1-d array, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise NonFinite("times must be finite")
    if np.any(t <= 0) or np.any(np.diff(t) <= 0):
        raise ValueError("times must be strictly increasing and positive")
    return t


# The largest max|w| |t_j - (anchor + offset)| that a factored row may carry: this absolute bound, or this many
# times eps |t_j| max|w|, the phase rounding that the direct path's own w t_j carries, whichever is larger.
_PHASE_BOUND = 1e-13
_ROUNDING_MULTIPLE = 2.0
_SHORTEST_RUN = 16  # a shorter run saves fewer exponentials than its two tables cost to set up
_DIRECT_ENTRIES = 2**19  # phases per direct row block: 4 MiB


def _equal_runs(t: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) of each stretch of at least _SHORTEST_RUN times whose steps agree to 1e-8.

    Two neighbouring stretches share the time between them.
    """
    if t.size < _SHORTEST_RUN:
        return []
    steps = np.diff(t)
    breaks = np.flatnonzero(~(np.abs(np.diff(steps)) <= 1e-8 * np.abs(steps[1:]))) + 1
    edges = np.concatenate([[0], breaks, [steps.size]]).tolist()
    return [(a, b + 1) for a, b in zip(edges[:-1], edges[1:]) if b + 1 - a >= _SHORTEST_RUN]


def _phase_table(times: np.ndarray, w: np.ndarray) -> np.ndarray:
    """exp(i w_k t_j), row j and column k, as cos and sin of one real phase table."""
    phase = np.outer(times, w)
    table = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=table.real)
    np.sin(phase, out=table.imag)
    return table


def _factored(t: np.ndarray, w: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(amplitudes, certified) over the equally spaced runs of t; only certified rows hold a usable amplitude.

    On a run of n times with step D, time j = l m + r (m = ceil(sqrt n)) is
    anchor l plus r D, so the run's amplitudes are one product of the L x d
    anchor phases (times the weights) with the d x m offset phases:
    2 sqrt(n) d exponentials, not n d. A row is certified when
    max|w| |t_j - anchor - r D| is at most 1e-13 or twice eps |t_j| max|w|,
    which bounds its amplitude error as the weights sum to 1: that drift is
    a grid time's own rounding, within a small multiple of the rounding the
    direct path's phases w t_j carry.
    """
    amp = np.empty(t.size, dtype=complex)
    certified = np.zeros(t.size, dtype=bool)
    reach = float(np.max(np.abs(w)))
    for start, stop in _equal_runs(t):
        n = stop - start
        m = math.isqrt(n - 1) + 1
        run = t[start:stop]
        anchors = run[::m]
        offsets = np.arange(m) * ((run[-1] - run[0]) / (n - 1))
        left = _phase_table(anchors, w)
        left *= weights
        amp[start:stop] = (left @ _phase_table(offsets, w).T).ravel()[:n]
        j = np.arange(n)
        drift = np.abs((run - anchors[j // m]) - offsets[j % m]) * reach
        certified[start:stop] = drift <= np.maximum(_PHASE_BOUND, _ROUNDING_MULTIPLE * _EPS * run * reach)
    return amp, certified


def _characteristic(w: np.ndarray, q: np.ndarray, times: np.ndarray) -> np.ndarray:
    """sum_k q_k exp(i t_j w_k) at each of the times t_j, forming no len(t) x d table.

    The phases are checked once, at max|t| against max|w| by
    ``_checked_time``: a nan or inf time raises NonFinite, and phases that
    keep no correct digit raise Overflow. Rows of equally spaced runs of 16
    or more times come from anchor x offset phase tables (``_factored``);
    the rest take the direct cos and sin tables @ q in row blocks of at most
    4 MiB.
    """
    _checked_time(float(np.max(np.abs(times))), float(np.max(np.abs(w))))
    if times.size < _SHORTEST_RUN:
        amp, rows = np.empty(times.size, dtype=complex), np.arange(times.size)
    else:
        amp, certified = _factored(times, w, q)
        rows = np.flatnonzero(~certified)
    block = max(1, _DIRECT_ENTRIES // w.size)
    for lo in range(0, rows.size, block):
        sel = rows[lo : lo + block]
        ts = times[sel]
        # cos, then sin, of one real phase table refilled in place: no complex temporaries
        phase = np.outer(ts, w)
        real = np.cos(phase, out=phase) @ q
        amp[sel] = real + 1j * (np.sin(np.outer(ts, w, out=phase), out=phase) @ q)
    return amp


def decay_profile(h: HermitianOperator, psi, times) -> DecayProfile:
    """Sample P(t) = |<psi, exp(itH) psi>|^2 on a checked grid: |``_characteristic``|^2 of the state's weights."""
    t = _time_grid(times)
    amp = _characteristic(h.eigenvalues, _spectral_weights(h, psi), t)
    return DecayProfile(t, np.minimum(np.abs(amp) ** 2, 1.0 + 1e-12), heisenberg_time(h))


def effective_rate_curve(profile: DecayProfile) -> np.ndarray:
    """(tau, gamma_eff) pairs with gamma_eff = -ln P(tau) / tau; a rate past the doubles (at a subnormal tau) is inf."""
    p = profile.probabilities
    if np.any(p <= _PROBABILITY_FLOOR):
        raise NonpositiveProbability("survival probability at or below the floor")
    with np.errstate(over="ignore"):
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


def default_fit_window(profile: DecayProfile) -> tuple[float, float]:
    """Heuristic window: start where gamma_eff flattens, stop at half the
    Heisenberg time of the generator."""
    curve = effective_rate_curve(profile)
    taus, gammas = curve[:, 0], curve[:, 1]
    t_hi = min(float(taus[-1]), 0.5 * profile.heisenberg_time)
    t_lo = float(taus[0])
    # at tiny t, P rounds to 1 + ulps, so -ln P / t is huge and its slope may overflow: an infinite slope is not flat
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        slopes = np.gradient(gammas, taus)
        rel = np.abs(slopes) / np.maximum(np.abs(gammas), 1e-300)
    flat = np.nonzero((rel < 0.05) & (taus < t_hi))[0]
    if flat.size:
        t_lo = float(taus[flat[0]])
    return (t_lo, t_hi)


def decay_fit(profile: DecayProfile, window: tuple[float, float]) -> DecayFit:
    """Least squares of ln P against t on the window.

    Samples past half the Heisenberg time are refused (finite models recur).
    Raises WindowTooSmall with fewer than 10 usable samples and
    NonExponential when the rms log residual exceeds 0.1 or the slope is not
    a decay.
    """
    t_lo, t_hi = float(window[0]), float(window[1])
    if not t_lo < t_hi:
        raise WindowTooSmall(f"empty window ({t_lo}, {t_hi})")
    t_hi = min(t_hi, 0.5 * profile.heisenberg_time)
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


def find_crossing(gamma_eff_curve, gamma0: float) -> float:
    """tau*, the measurement interval at which the effective rate meets the natural one: the root of the line
    through the two samples of gamma_eff that first bracket gamma0.

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
    g_lo, g_hi = float(gammas[i]), float(gammas[i + 1])
    # a sample at gamma0 is its own root; an infinite rate at lo (a subnormal tau) puts it at hi, its limit
    return hi if g_hi == gamma0 or math.isinf(g_lo) else lo + (gamma0 - g_lo) * (hi - lo) / (g_hi - g_lo)
