"""Spectral measures, tail functionals, and measurement-frequency classification.

A state's energy distribution decides whether infinitely frequent
measurement freezes it (tail weight x * Pr(|X| > x) -> 0), destroys it
(-> infinity), or sits on the critical line. This module carries discrete
measures read off a Hamiltonian and state, a small family of analytic
distributions with cdf / sampler / characteristic function, the tail
functional and its classification, iterated-modulus tables, and seeded
Monte Carlo checks of the two law-of-large-numbers reformulations. scipy
is imported inside the functions that call it (the Gaussian cdf and the
``TwoSidedPareto`` quadrature), so discrete measures never load it.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import QuadratureFailure
from .numeric import tol
from .operators import HermitianOperator
from .survival import _characteristic, _spectral_weights

__all__ = [
    "Classification",
    "SpectralMeasure",
    "DiscreteMeasure",
    "Gaussian",
    "Cauchy",
    "TwoSidedPareto",
    "TailReport",
    "spectral_measure_of_state",
    "tail_delta_curve",
    "classify_regime",
    "zeno_modulus_table",
    "modulus_below_threshold_n",
    "lln_mc",
    "suggested_tail_grid",
]


class Classification(str, Enum):
    ZENO = "Zeno"
    ANTI_ZENO = "AntiZeno"
    BORDERLINE = "Borderline"
    INDETERMINATE = "Indeterminate"


# finite-grid stand-ins for the limits at infinity that ``classify_regime`` reads
_ZENO_CEILING = 0.01  # tail weight at the grid top must sit below this
_ANTI_ZENO_FLOOR = 1.0  # and above this, with positive slope, for anti-Zeno
_SLOPE_BAND = 0.1  # |log-log slope| inside this band reads as bounded
_RESIDUAL_CAP = 0.5  # fit residual beyond this marks a non-straight tail


class SpectralMeasure(ABC):
    """Probability distribution of energy-measurement outcomes."""

    @abstractmethod
    def cdf(self, x) -> np.ndarray:
        """Left-continuous distribution function Pr(X < x)."""

    @abstractmethod
    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n independent draws."""

    def survival(self, x) -> np.ndarray:
        """Pr(X > x). Override where 1 - cdf(x) cancels in the far tail."""
        x = np.asarray(x, dtype=float)
        return np.clip(1.0 - self.cdf(x), 0.0, 1.0)

    def prob_abs_greater(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.clip(self.cdf(-x) + self.survival(x), 0.0, 1.0)

    def phi(self, t: float) -> complex:
        """Characteristic function  integral of exp(-i t x) dF(x)."""
        raise QuadratureFailure(f"{type(self).__name__} offers no characteristic function route")

    def log_abs_phi(self, t: float) -> float:
        value = abs(self.phi(t))
        if value <= 0.0:
            return -math.inf
        return math.log(value)

    def median(self) -> float:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)  # an array field does not compare as one truth value
class DiscreteMeasure(SpectralMeasure):
    """Finitely many atoms; weights sum to one."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.atoms, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if a.ndim != 1 or a.shape != w.shape or a.size == 0:
            raise ValueError("atoms and weights must be nonempty 1-d arrays of equal length")
        if np.any(np.isnan(a)) or not np.all(np.diff(a) >= 0):  # inf atoms stay; their phi raises Overflow
            raise ValueError("atoms must be non-nan and ascend")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        total = float(np.sum(w))
        if not abs(total - 1.0) <= tol(1e-12):  # a nan weight makes the total nan
            raise ValueError(f"weights sum to {total!r}, expected 1")
        object.__setattr__(self, "atoms", a)
        object.__setattr__(self, "weights", w)

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        cum = np.concatenate([[0.0], np.cumsum(self.weights)])
        idx = np.searchsorted(self.atoms, x, side="left")
        return cum[idx]

    def survival(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.array(
            [float(np.sum(self.weights[self.atoms > xi])) for xi in np.atleast_1d(x)]
        ).reshape(x.shape)

    def prob_abs_greater(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        mags = np.abs(self.atoms)
        return np.array(
            [float(np.sum(self.weights[mags > xi])) for xi in np.atleast_1d(x)]
        ).reshape(x.shape)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.choice(self.atoms, size=n, p=self.weights)

    def phi(self, t: float) -> complex:
        # exp(-i t x) is exp(i (-t) x), as cos is even and sin is odd
        return complex(_characteristic(self.atoms, self.weights, np.array([-t], dtype=float))[0])

    def median(self) -> float:
        cum = np.cumsum(self.weights)
        return float(self.atoms[int(np.searchsorted(cum, 0.5))])

    @property
    def support_radius(self) -> float:
        return float(np.max(np.abs(self.atoms)))


@dataclass(frozen=True)
class Gaussian(SpectralMeasure):
    mu: float
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def cdf(self, x) -> np.ndarray:
        from scipy import special

        z = (np.asarray(x, dtype=float) - self.mu) / self.sigma
        return special.ndtr(z)

    def survival(self, x) -> np.ndarray:
        from scipy import special

        z = (np.asarray(x, dtype=float) - self.mu) / self.sigma
        return special.ndtr(-z)

    def sample(self, n, rng):
        return rng.normal(self.mu, self.sigma, size=n)

    def phi(self, t: float) -> complex:
        return complex(np.exp(-1j * t * self.mu - 0.5 * (self.sigma * t) ** 2))

    def log_abs_phi(self, t: float) -> float:
        return -0.5 * (self.sigma * t) ** 2

    def median(self) -> float:
        return self.mu


@dataclass(frozen=True)
class Cauchy(SpectralMeasure):
    x0: float
    gamma: float

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")

    def cdf(self, x) -> np.ndarray:
        z = (np.asarray(x, dtype=float) - self.x0) / self.gamma
        return 0.5 + np.arctan(z) / math.pi

    def survival(self, x) -> np.ndarray:
        z = (np.asarray(x, dtype=float) - self.x0) / self.gamma
        # arctan(1/z)/pi for z > 0 avoids the pi/2 cancellation in the far tail
        return np.where(z > 0, np.arctan(1.0 / np.where(z > 0, z, 1.0)) / math.pi,
                        0.5 - np.arctan(z) / math.pi)

    def sample(self, n, rng):
        return self.x0 + self.gamma * rng.standard_cauchy(size=n)

    def phi(self, t: float) -> complex:
        return complex(np.exp(-1j * t * self.x0 - self.gamma * abs(t)))

    def log_abs_phi(self, t: float) -> float:
        return -self.gamma * abs(t)

    def median(self) -> float:
        return self.x0


def _pareto_tail_integral_total(alpha: float) -> float:
    # integral over (0, inf) of (1 - cos u) u^(-alpha-1), classical closed form
    return math.pi / (2.0 * math.gamma(alpha + 1.0) * math.sin(math.pi * alpha / 2.0))


def _half_sinc_squared(u: float) -> float:
    # 2 sin^2(u/2) / u^2 = (1 - cos u) / u^2 without cancellation, 1/2 at u = 0
    half = u / 2.0
    ratio = math.sin(half) / half if half else 1.0
    return 0.5 * ratio * ratio


def _pareto_tail_integral_head(alpha: float, v: float) -> float:
    # integral over (0, v) of (1 - cos u) u^(-alpha-1) = [2 sin^2(u/2) / u^2] u^(1-alpha);
    # QAWS (weight="alg") takes the algebraic factor u^(1-alpha), singular at 0 for alpha > 1, exactly
    if v <= 0.0:
        return 0.0
    if v <= 1e-6:
        # leading series term; relative error O(v^2)
        return v ** (2.0 - alpha) / (2.0 * (2.0 - alpha))
    from scipy import integrate

    value, err = integrate.quad(_half_sinc_squared, 0.0, v, weight="alg", wvar=(1.0 - alpha, 0.0), limit=400)
    if err > 1e-11 * max(1.0, abs(value)):
        raise QuadratureFailure("characteristic-function quadrature did not converge")
    return value


@dataclass(frozen=True)
class TwoSidedPareto(SpectralMeasure):
    """Symmetric power-law tails: density proportional to |x|^(-alpha-1) for |x| >= scale."""

    alpha: float
    scale: float

    def __post_init__(self):
        # alpha below 1/4 makes the +-1e8 cdf probe meaningless
        if not (0.25 <= self.alpha < 2.0):
            raise ValueError("alpha must lie in [0.25, 2)")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, 0.5)
        left = x <= -self.scale
        right = x > self.scale
        out = np.where(left, 0.5 * (self.scale / np.abs(np.where(left, x, 1.0))) ** self.alpha, out)
        out = np.where(right, 1.0 - 0.5 * (self.scale / np.where(right, x, 1.0)) ** self.alpha, out)
        return out

    def survival(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, 0.5)
        left = x <= -self.scale
        right = x > self.scale
        out = np.where(left, 1.0 - 0.5 * (self.scale / np.abs(np.where(left, x, 1.0))) ** self.alpha, out)
        out = np.where(right, 0.5 * (self.scale / np.where(right, x, 1.0)) ** self.alpha, out)
        return out

    def sample(self, n, rng):
        u = rng.uniform(size=n)
        mags = self.scale * rng.uniform(size=n) ** (-1.0 / self.alpha)
        return np.where(u < 0.5, -mags, mags)

    def one_minus_phi(self, t: float) -> float:
        """1 - phi(t), computed without cancellation; phi is real by symmetry."""
        t = abs(float(t))
        if t == 0.0:
            return 0.0
        v = t * self.scale
        head = _pareto_tail_integral_head(self.alpha, v)
        total = _pareto_tail_integral_total(self.alpha)
        return self.alpha * self.scale**self.alpha * t**self.alpha * (total - head)

    def phi(self, t: float) -> complex:
        return complex(1.0 - self.one_minus_phi(t))

    def log_abs_phi(self, t: float) -> float:
        delta = self.one_minus_phi(t)
        if delta < 1.0:
            return math.log1p(-delta)
        value = abs(1.0 - delta)
        return math.log(value) if value > 0 else -math.inf

    def median(self) -> float:
        return 0.0


def spectral_measure_of_state(h: HermitianOperator, psi) -> DiscreteMeasure:
    """Atoms at the eigenvalues with weights |<e_k, psi>|^2.

    Eigenvalues closer than 1e-10 * ||H|| to their neighbour are merged
    (weight-averaged position, summed weight); a merged atom of weight at
    most 1e-14 is dropped.
    """
    lam, q = h.eigenvalues, _spectral_weights(h, psi)
    starts = np.flatnonzero(np.concatenate([[True], np.diff(lam) > 1e-10 * max(h.norm, 1e-300)]))
    mass = np.add.reduceat(q, starts)
    keep = mass > 1e-14
    atoms = np.add.reduceat(q * lam, starts)[keep] / mass[keep]
    return DiscreteMeasure(atoms, mass[keep] / np.sum(mass[keep]))


@dataclass(frozen=True, eq=False)  # an array field does not compare as one truth value
class TailReport:
    """Tail weight x * Pr(|X| > x) on a grid, with an optional classification."""

    x_grid: np.ndarray
    delta_values: np.ndarray
    trend: float | None = None
    classification: Classification | None = None


def tail_delta_curve(measure: SpectralMeasure, x_grid) -> TailReport:
    """Evaluate the tail weight exactly from the cdf (or atom sums)."""
    x = np.asarray(x_grid, dtype=float)
    if np.any(x <= 0) or np.any(np.diff(x) <= 0):
        raise ValueError("x_grid must be positive and increasing")
    delta = x * measure.prob_abs_greater(x)
    return TailReport(x_grid=x, delta_values=np.maximum(delta, 0.0))


def classify_regime(measure: SpectralMeasure, x_grid) -> TailReport:
    """Classify the tail-weight trend on the top decade of the grid.

    The limit at infinity is out of numerical reach; the module's four
    thresholds stand in for it. A non-monotone tail (residual above the
    cap) is declared Indeterminate rather than forced into a bin.
    """
    base = tail_delta_curve(measure, x_grid)
    x, delta = base.x_grid, base.delta_values
    if x[-1] / x[0] < 1e3:
        raise ValueError("x_grid must span at least three decades")
    top = x >= x[-1] / 10.0
    if int(np.count_nonzero(top)) < 3:
        top = np.zeros_like(top)
        top[-3:] = True

    if float(np.max(delta[top])) <= 1e-300 or delta[-1] <= 1e-300:
        # tail weight reaches exact zero: bounded support, frozen dynamics
        return TailReport(x, delta, trend=-math.inf, classification=Classification.ZENO)

    positive = top & (delta > 0)
    xs, ys = x[positive], delta[positive]
    from .numeric import loglog_fit

    slope, _, residual = loglog_fit(xs, ys)
    tip = float(ys[-1])
    steps = ys[1:] / ys[:-1]
    # tolerate mild counter-moves; a straight power tail has steps near x-ratio**slope
    never_rises = bool(np.all(steps <= 1.5)) if steps.size else True
    never_falls = bool(np.all(steps >= 1.0 / 1.5)) if steps.size else True

    # decisive monotone trends classify first: a faster-than-power decay fits a
    # power law badly but is unambiguously heading to zero
    if slope < -_SLOPE_BAND and tip < _ZENO_CEILING and never_rises:
        label = Classification.ZENO
    elif slope > _SLOPE_BAND and tip > _ANTI_ZENO_FLOOR and never_falls:
        label = Classification.ANTI_ZENO
    elif residual > _RESIDUAL_CAP:
        # non-straight: the trend oscillates too much to extrapolate
        label = Classification.INDETERMINATE
    elif abs(slope) <= _SLOPE_BAND and never_rises and never_falls:
        label = Classification.BORDERLINE
    else:
        # a clear trend whose magnitude the grid cannot yet confirm
        label = Classification.INDETERMINATE
    return TailReport(x, delta, trend=slope, classification=label)


def zeno_modulus_table(
    measure: SpectralMeasure, t: float, n_values: Sequence[int]
) -> list[tuple[int, float]]:
    """(n, |phi(t/n)|^(2n)) rows, evaluated in log space for large n."""
    out = []
    for n in n_values:
        n = int(n)
        if n < 1:
            raise ValueError("n values must be positive")
        log_mod = 2.0 * n * measure.log_abs_phi(t / n)
        out.append((n, float(np.exp(log_mod))))
    return out


def modulus_below_threshold_n(measure: SpectralMeasure, t: float, threshold: float = 1e-3) -> int:
    """Smallest power of two n <= 2**40 with |phi(t/n)|^(2n) below the threshold."""
    n, n_cap = 1, 2**40
    while n <= n_cap:
        if math.exp(2.0 * n * measure.log_abs_phi(t / n)) < threshold:
            return n
        n *= 2
    raise ValueError(f"modulus stayed above {threshold} up to n={n_cap}")


def _empirical_means(measure: SpectralMeasure, n: int, trials: int, rng) -> np.ndarray:
    means = np.empty(trials)
    block = max(1, (1 << 22) // max(n, 1))
    done = 0
    while done < trials:
        take = min(block, trials - done)
        draws = measure.sample(take * n, rng).reshape(take, n)
        means[done : done + take] = draws.mean(axis=1)
        done += take
    return means


def _best_containment(means: np.ndarray, c: float) -> float:
    """Max over centers of the fraction of means inside a half-width-c window."""
    s = np.sort(means)
    best = 0
    j = 0
    for i in range(s.size):
        if j < i:
            j = i
        while j + 1 < s.size and s[j + 1] - s[i] <= 2.0 * c:
            j += 1
        best = max(best, j - i + 1)
    return best / s.size


def lln_mc(
    measure: SpectralMeasure,
    n_values: Sequence[int],
    trials: int,
    seed: int,
    epsilon: float = 0.1,
    c: float = 1.0,
) -> list[tuple[int, float, float]]:
    """Seeded Monte Carlo estimates of mean concentration and spreading: one (n, exceedance, containment) row per n.

    For each n, the means of n draws across the trials give the exceedance
    probability of |mean - center| > epsilon with the center at the empirical
    median (concentration), and the best containment probability of any
    window of half-width c (spreading). Deterministic for a fixed seed: each
    n gets its own generator derived from (seed, index), so results do not
    depend on evaluation order.
    """
    trials = int(trials)
    if trials < 1000:
        raise ValueError("need at least 1000 trials")
    stats = []
    for idx, n in enumerate(n_values):
        n = int(n)
        rng = np.random.default_rng([int(seed), idx])
        means = _empirical_means(measure, n, trials, rng)
        center = float(np.median(means))
        exceed = float(np.mean(np.abs(means - center) > epsilon))
        contain = float(_best_containment(means, c))
        stats.append((n, exceed, contain))
    return stats


def suggested_tail_grid(measure: SpectralMeasure) -> np.ndarray:
    """A 3+ decade grid of 48 points, adapted to where the family's tail lives."""
    points = 48
    if isinstance(measure, DiscreteMeasure):
        top = max(measure.support_radius, 1e-6)
        return np.logspace(math.log10(top) - 2.5, math.log10(top) + 1.0, points)
    if isinstance(measure, Gaussian):
        hi = abs(measure.mu) + 12.0 * measure.sigma
        return np.logspace(math.log10(hi) - 3.2, math.log10(hi), points)
    if isinstance(measure, Cauchy):
        return np.logspace(0.0, 5.0, points) * measure.gamma
    if isinstance(measure, TwoSidedPareto):
        return np.logspace(0.0, 6.0, points) * measure.scale
    return np.logspace(-1.0, 4.0, points)
