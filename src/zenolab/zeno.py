"""Iterated-measurement products and their limit dynamics.

The central object is the n-fold product of short evolutions interleaved
with a projection. At finite dimension the products converge at first order
in 1/n to the compressed-generator dynamics exp(i t EHE) E; this module
computes the products, measures distances to that limit, fits the rate, and
checks the Lipschitz (asymptotic Zeno) condition that drives convergence.

Products, the limit and their distances are computed in range(E), through
an orthonormal basis Q (d x r) of it: the step is the r x r matrix Q*UQ,
only r x r matrices are raised to powers, and each distance is the norm of
a d x r or r x r matrix with the same value as the d x d one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ProbeOutsideRange
from .numeric import loglog_fit, tol
from .operators import (
    HermitianOperator,
    OrthogonalProjection,
    _matmul,
    check_dims,
    complement,
    eigendecompose,
    evolve,
    operator_norm,
    phase_factors,
    psd_sqrt,
)

ORDERINGS = ("EUE", "UE", "EU")

_DEFAULT_N_VALUES = tuple(2**k for k in range(1, 13))


@dataclass(frozen=True)
class ZenoSchedule:
    """Which product lengths to evaluate, at which time, in which ordering."""

    n_values: tuple[int, ...] = _DEFAULT_N_VALUES
    t: float | None = None
    ordering: str = "EUE"

    def __post_init__(self):
        ns = tuple(int(n) for n in self.n_values)
        if not ns:
            raise ValueError("schedule needs at least one n")
        if any(n <= 0 for n in ns) or any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("n_values must be strictly increasing positive integers")
        if self.ordering not in ORDERINGS:
            raise ValueError(f"ordering must be one of {ORDERINGS}, got {self.ordering!r}")
        object.__setattr__(self, "n_values", ns)


@dataclass(frozen=True)
class ZenoConvergenceReport:
    """Per-n distances of the products to the limit, with a fitted decay rate.

    ``limit_matrix`` is the product at the largest n evaluated (the best
    numerical stand-in for the limit), kept whole as the step product
    returned it; for the Zeno products that is the d x d matrix Q A^n Q*,
    (UQ) A^(n-1) Q* or Q A^(n-1) (Q*U) (see ``zeno_product``).
    ``target_matrix`` is the compressed dynamics it is compared against,
    ``target_residual`` their distance.
    ``exact`` flags commuting cases where every distance is already at
    rounding level and the rate fit is skipped.
    """

    per_n: tuple[tuple[int, float, float], ...]  # (n, distance_to_limit, cauchy_delta)
    limit_matrix: np.ndarray
    target_matrix: np.ndarray
    target_residual: float
    fitted_rate_exponent: float | None
    fitted_rate_constant: float | None
    exact: bool

    def distance(self, n: int) -> float:
        for row in self.per_n:
            if row[0] == n:
                return row[1]
        raise KeyError(f"n={n} not in report")

    def cauchy_delta(self, n: int) -> float:
        for row in self.per_n:
            if row[0] == n:
                return row[2]
        raise KeyError(f"n={n} not in report")


@dataclass(frozen=True)
class AzcFit:
    """Power-law fit of the off-subspace leakage norm against the time step.

    ``constant`` estimates the small-time Lipschitz level (the norm of the
    off-diagonal block of the generator); ``exactly_zeno`` marks commuting
    pairs where the leakage vanishes identically and no fit is meaningful.
    """

    constant: float
    exponent: float | None
    exactly_zeno: bool = False

    @property
    def cauchy_constant(self) -> float:
        """Constant C in the distance estimate ||F_n - F_m|| <= C t^2 / n."""
        return self.constant**2


@dataclass(frozen=True)
class ZenoGenerator:
    """Compression of the generator to range(E), in an orthonormal basis of it."""

    operator: HermitianOperator
    basis: np.ndarray  # dim x rank, columns orthonormal, spanning range(E)


def zeno_product(
    h: HermitianOperator,
    e: OrthogonalProjection,
    t: float,
    n: int,
    ordering: str = "EUE",
) -> np.ndarray:
    """n-fold product of U = exp(i (t/n) H) interleaved with E, in the given ordering.

    Computed in range(E): with Q = e.basis and W = V*Q over the eigenvectors
    V of H, the r x r step is A = Q*UQ = W* diag(exp(i (t/n) w)) W, and
    EUE = Q A^n Q*, UE = (UQ) A^(n-1) Q*, EU = Q A^(n-1) (Q*U). The d x d
    result is formed once at the end.
    """
    check_dims(h, e)
    n = int(n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    if ordering not in ORDERINGS:
        raise ValueError(f"ordering must be one of {ORDERINGS}")
    q, v = e.basis, h.eigenvectors
    phases = phase_factors(h, t / n)
    w = _matmul(v.conj().T, q)
    w_adj_u = w.conj().T * phases  # W* diag(phases), so Q*U = W* diag(phases) V*
    a = w_adj_u @ w
    if ordering == "EUE":
        return q @ np.linalg.matrix_power(a, n) @ q.conj().T
    power = np.linalg.matrix_power(a, n - 1)
    if ordering == "UE":
        return _matmul(v, phases[:, None] * w) @ power @ q.conj().T
    return q @ _matmul(power @ w_adj_u, v.conj().T)


def _compress(h: HermitianOperator, q: np.ndarray) -> np.ndarray:
    """Q* H Q, symmetrized: the generator compressed to the span of Q."""
    c = _matmul(q.conj().T, h.matrix) @ q
    return (c + c.conj().T) / 2.0


def reduced_dynamics(h: HermitianOperator, e: OrthogonalProjection, t: float) -> np.ndarray:
    """exp(i t EHE) E on the full space: the limit of the iterated products.

    Formed as Q exp(i t Q*HQ) Q* from the r x r compression, Q = e.basis.
    """
    check_dims(h, e)
    q = e.basis
    return q @ evolve(eigendecompose(_compress(h, q)), t) @ q.conj().T


def _normalize_schedule(schedule, t: float, ordering: str | None = None) -> ZenoSchedule:
    if schedule is None:
        return ZenoSchedule(t=t, ordering=ordering or "EUE")
    if isinstance(schedule, ZenoSchedule):
        if schedule.t is not None and schedule.t != t:
            raise ValueError(f"schedule time {schedule.t} conflicts with t={t}")
        return schedule
    return ZenoSchedule(n_values=tuple(int(n) for n in schedule), t=t, ordering=ordering or "EUE")


def product_convergence_report(
    step_product: Callable[[int], np.ndarray],
    target: np.ndarray,
    n_values: Sequence[int],
    side: Callable[[np.ndarray], np.ndarray] | None = None,
) -> ZenoConvergenceReport:
    """Distances of step products to a target, with Cauchy deltas and a rate fit.

    Shared by the unitary, sectorial-semigroup, and form-sum product routes.
    Each product is built once and dropped as soon as no later row needs it;
    the one at the largest n is kept whole as the limit. ``side`` maps a
    matrix to a smaller one with the same operator norm on the target and on
    every product (X -> XQ when all satisfy X = XE, for instance); distances
    are then measured between the mapped matrices.
    """
    ns = [int(n) for n in n_values]
    n_max = ns[-1]
    side = side or (lambda x: x)
    target_side = side(target)
    kept: dict[int, np.ndarray] = {}
    limit = None

    def prod(n: int) -> np.ndarray:
        nonlocal limit
        if n not in kept:
            full = step_product(n)
            if n == n_max:
                limit = full
            kept[n] = side(full)
        return kept[n]

    rows = []
    for i, n in enumerate(ns):
        rows.append((n, operator_norm(prod(n) - target_side), operator_norm(prod(n) - prod(2 * n))))
        needed = {m * k for m in ns[i + 1 :] for k in (1, 2)}
        for m in [m for m in kept if m not in needed]:
            del kept[m]
    residual = rows[-1][1]

    distances = np.array([r[1] for r in rows])
    exact = bool(np.max(distances) <= tol(1e-12))
    exponent = constant = None
    if not exact:
        half = rows[len(rows) // 2 :]
        xs = np.array([r[0] for r in half if r[1] > 0], dtype=float)
        ys = np.array([r[1] for r in half if r[1] > 0])
        if xs.size >= 2:
            exponent, constant, _ = loglog_fit(xs, ys)
    return ZenoConvergenceReport(
        per_n=tuple(rows),
        limit_matrix=limit,
        target_matrix=target,
        target_residual=residual,
        fitted_rate_exponent=exponent,
        fitted_rate_constant=constant,
        exact=exact,
    )


def zeno_convergence_report(
    h: HermitianOperator,
    e: OrthogonalProjection,
    t: float,
    schedule: ZenoSchedule | Iterable[int] | None = None,
) -> ZenoConvergenceReport:
    """Run the product over the schedule and compare against exp(i t EHE) E."""
    check_dims(h, e)
    sched = _normalize_schedule(schedule, t)
    target = reduced_dynamics(h, e, t)
    # products and target satisfy X = EXE, XE or EX, so ||X|| = ||Q*XQ||, ||XQ||, ||Q*X||
    q = e.basis
    side = {
        "EUE": lambda x: q.conj().T @ x @ q,
        "UE": lambda x: x @ q,
        "EU": lambda x: q.conj().T @ x,
    }[sched.ordering]
    return product_convergence_report(
        lambda n: zeno_product(h, e, t, n, sched.ordering), target, sched.n_values, side
    )


def zeno_generator(h: HermitianOperator, e: OrthogonalProjection) -> ZenoGenerator:
    """Generator of the limit dynamics restricted to range(E).

    Computed as the direct compression in an orthonormal basis of range(E);
    for PSD H the square-root form route (sqrt(H) E)* (sqrt(H) E) is computed
    independently and the two are asserted equal. Non-PSD H is handled by
    shifting with the minimum eigenvalue before taking the root.
    """
    check_dims(h, e)
    q = e.basis
    direct = _compress(h, q)

    shift = 0.0
    if h.eigenvalues.size:
        shift = max(0.0, -float(h.eigenvalues[0]))
    shifted = eigendecompose(h.matrix + shift * np.eye(h.dim)) if shift else h
    root = psd_sqrt(shifted)
    m = _matmul(root.matrix, q)
    form_route = m.conj().T @ m - shift * np.eye(q.shape[1])
    gap = operator_norm(direct - form_route)
    if gap > tol(1e-10, h.norm):
        raise ArithmeticError(f"compression routes disagree by {gap:.3e}")
    return ZenoGenerator(eigendecompose(direct), q)


def azc_fit(
    h: HermitianOperator,
    e: OrthogonalProjection,
    tau_grid: Sequence[float],
) -> AzcFit:
    """Fit || E_perp exp(i tau H) E || against tau on a decreasing grid in (0, 1].

    The exact small-tau behaviour is linear with level ||E_perp H E||; a
    commuting pair leaves nothing to fit and is reported as exactly Zeno.
    """
    check_dims(h, e)
    taus = np.asarray(tau_grid, dtype=float)
    if taus.size < 4:
        raise ValueError("need at least 4 grid points")
    if np.any(taus <= 0) or np.any(taus > 1):
        raise ValueError("tau grid must lie in (0, 1]")
    if np.any(np.diff(taus) >= 0):
        raise ValueError("tau grid must be strictly decreasing")
    ec = complement(e).matrix
    norms = np.array([operator_norm(ec @ evolve(h, t) @ e.matrix) for t in taus])
    if float(np.max(norms)) < 1e-14:
        return AzcFit(constant=0.0, exponent=None, exactly_zeno=True)
    exponent, level, _ = loglog_fit(taus, norms)
    return AzcFit(constant=level, exponent=exponent)


def continuous_measurement_compare(
    h: HermitianOperator,
    e: OrthogonalProjection,
    k_values: Sequence[float],
    t: float,
    probe_states: Sequence[np.ndarray],
) -> list[tuple[float, float]]:
    """Deviation of the strongly-detuned evolution from the limit dynamics.

    For each coupling K the generator is H + K E_perp; states inside range(E)
    approach exp(i t EHE) psi as K grows. Probes must lie in range(E).
    """
    check_dims(h, e)
    ks = np.asarray(k_values, dtype=float)
    if np.any(ks <= 0) or np.any(np.diff(ks) <= 0):
        raise ValueError("k_values must be increasing and positive")
    probes = [np.asarray(p, dtype=complex) for p in probe_states]
    ec = complement(e).matrix
    for i, p in enumerate(probes):
        leak = float(np.linalg.norm(ec @ p))
        if leak > tol(1e-10, float(np.linalg.norm(p))):
            raise ProbeOutsideRange(f"probe {i} leaks {leak:.3e} outside range(E)")
    target = reduced_dynamics(h, e, t)
    out = []
    for k in ks:
        hk = eigendecompose(h.matrix + k * ec)
        u = evolve(hk, t)
        dev = max(float(np.linalg.norm((u - target) @ p)) for p in probes)
        out.append((float(k), dev))
    # the detuning suppresses the deviation ~ 1/K; the tail must not rise
    # beyond 10% ripple (commuting cases sit at rounding level and are exempt)
    tail = out[len(out) // 2 :]
    for (_, prev), (_, cur) in zip(tail, tail[1:]):
        if cur > 1.1 * prev + 1e-13:
            raise ArithmeticError(
                f"deviation rose from {prev:.3e} to {cur:.3e} on the large-coupling tail"
            )
    return out
