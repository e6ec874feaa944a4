"""Iterated-measurement products and their limit dynamics.

The central object is the n-fold product of short evolutions interleaved
with a projection. At finite dimension the products converge at first order
in 1/n to the compressed-generator dynamics exp(i t EHE) E; this module
computes the products, measures distances to that limit, fits the rate, and
checks the Lipschitz (asymptotic Zeno) condition that drives convergence.

Products and the limit are held in range(E), through an orthonormal basis Q
(d x r) of it and the eigenvectors V of H: a ``ZenoProduct`` is a core
matrix in a frame (Q, Q), (V, Q) or (Q, V) fixed by its ordering, only the
r x r step Q*UQ is raised to powers, and each distance is the norm of a
difference of r x r, d x r or r x d cores, with the same value as the d x d
one. Nothing d x d is formed unless a caller reads ``.matrix``: W = V*Q is
``h._coordinates(Q)``, Q*HQ is ``zeno_generator``'s (Q*H)Q from
``h._row_product``, and UE and EU hold H as the V side of their frame.
``zeno_generator`` returns Q*HQ as an r x r ``HermitianOperator``; its
basis Q is ``e.basis``, which every caller already holds.

``ZenoProduct`` is the one product type: ``product_convergence_report``,
shared with the semigroup and form-sum formulas of ``semigroup``, takes
products and a target in that form only, the target built in the
products' frame by the formula that owns them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .numeric import loglog_fit, tol
from .operators import (
    HermitianOperator,
    OrthogonalProjection,
    _freeze,
    _matmul,
    check_dims,
    eigendecompose,
    evolve,
    operator_norm,
    phase_factors,
)

ORDERINGS = ("EUE", "UE", "EU")

_DEFAULT_N_VALUES = tuple(2**k for k in range(1, 13))


@dataclass(frozen=True)
class ZenoSchedule:
    """Which product lengths to evaluate, in which ordering."""

    n_values: tuple[int, ...] = _DEFAULT_N_VALUES
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


def _lift(left: np.ndarray | HermitianOperator, core: np.ndarray, right: np.ndarray | HermitianOperator) -> np.ndarray:
    """The d x d matrix L C R*; a side that is an operator stands for its eigenvectors."""
    left, right = (f.eigenvectors if isinstance(f, HermitianOperator) else f for f in (left, right))
    return _matmul(_matmul(left, core), right.conj().T)


@dataclass(frozen=True, eq=False)  # arrays do not compare as one truth value
class ZenoProduct:
    """A d x d product X = L C R* held as its core C in the frame (L, R).

    ``left`` L and ``right`` R have orthonormal columns, so ||X - Y|| =
    ||C_X - C_Y|| for two products in one frame; a side may be a
    ``HermitianOperator``, standing for its eigenvectors V. ``zeno_product``
    puts each ordering in its own frame: (Q, Q) for EUE, (H, Q) for UE and
    (Q, H) for EU, with Q the basis of range(E). ``matrix`` is L C R*,
    formed and cached the first time something reads it; only then is V read.
    """

    left: np.ndarray | HermitianOperator
    core: np.ndarray
    right: np.ndarray | HermitianOperator

    @cached_property
    def matrix(self) -> np.ndarray:
        return _freeze(_lift(self.left, self.core, self.right))


@dataclass(frozen=True, eq=False)  # its ZenoProducts compare by identity
class ZenoConvergenceReport:
    """Per-n distances of the products to the limit, with a fitted decay rate.

    ``limit`` is the product at the largest n evaluated (the best numerical
    stand-in for the limit) and ``target`` the compressed dynamics it is
    compared against, each a ``ZenoProduct`` in the products' frame (for the
    Zeno products the target Q G Q*, G = exp(i t Q*HQ), is held as G in
    (Q, Q), WG in (V, Q) or GW* in (Q, V), W = V*Q); their ``.matrix`` is
    the d x d form, formed only when read. ``target_residual`` is their
    distance. ``exact`` flags commuting cases where every distance is
    already at rounding level and the rate fit is skipped.
    """

    per_n: tuple[tuple[int, float, float], ...]  # (n, distance_to_limit, cauchy_delta)
    limit: ZenoProduct
    target: ZenoProduct
    target_residual: float
    fitted_rate_exponent: float | None
    fitted_rate_constant: float | None
    exact: bool

    def distance(self, n: int) -> float:
        for row in self.per_n:
            if row[0] == n:
                return row[1]
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


def zeno_product(
    h: HermitianOperator,
    e: OrthogonalProjection,
    t: float,
    n: int,
    ordering: str = "EUE",
    *,
    _w: np.ndarray | None = None,
) -> ZenoProduct:
    """n-fold product of U = exp(i (t/n) H) interleaved with E, in the given ordering.

    Computed in range(E): with Q = e.basis, W = V*Q over the eigenvectors V
    of H and Phi = diag(exp(i (t/n) w)), the r x r step is A = Q*UQ = W* Phi W
    and the product is returned in factored form (``ZenoProduct``):
    EUE = Q A^n Q* with the r x r core A^n, UE = V (Phi W A^(n-1)) Q* with a
    d x r core and EU = Q (A^(n-1) W* Phi) V* with an r x d core. Read
    ``.matrix`` for the d x d product. The private ``_w`` is W from
    ``_overlap(h, e)``, passed by a caller that reuses it over many n.
    """
    check_dims(h, e)
    n = int(n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    if ordering not in ORDERINGS:
        raise ValueError(f"ordering must be one of {ORDERINGS}")
    q = e.basis
    phases = phase_factors(h, t / n)
    w = _overlap(h, e) if _w is None else _w
    w_adj_u = w.conj().T * phases  # W* Phi, so Q*U = W* Phi V*
    a = w_adj_u @ w
    if ordering == "EUE":
        return ZenoProduct(q, np.linalg.matrix_power(a, n), q)
    power = np.linalg.matrix_power(a, n - 1)
    if ordering == "UE":
        return ZenoProduct(h, (phases[:, None] * w) @ power, q)
    return ZenoProduct(q, power @ w_adj_u, h)


def _overlap(h: HermitianOperator, e: OrthogonalProjection) -> np.ndarray:
    """W = V*Q, the basis of range(E) in H's eigenbasis (``h._coordinates``), fixed by (H, E)."""
    return h._coordinates(e.basis)


def reduced_dynamics(h: HermitianOperator, e: OrthogonalProjection, t: float) -> np.ndarray:
    """exp(i t EHE) E on the full space: the limit of the iterated products.

    Formed as Q exp(i t Q*HQ) Q* from the r x r compression, Q = e.basis.
    """
    return _lift(e.basis, evolve(zeno_generator(h, e), t), e.basis)


def _normalize_schedule(schedule) -> ZenoSchedule:
    if schedule is None:
        return ZenoSchedule()
    if isinstance(schedule, ZenoSchedule):
        return schedule
    return ZenoSchedule(tuple(schedule))


def product_convergence_report(
    step_product: Callable[[int], ZenoProduct],
    target: ZenoProduct,
    n_values: Sequence[int],
) -> ZenoConvergenceReport:
    """Distances of step products to a target, with Cauchy deltas and a rate fit.

    Shared by the unitary, sectorial-semigroup, and form-sum product routes.
    The products and the target share one frame, so every distance is the
    norm of a difference of cores. Each product is built once and dropped as
    soon as no later row needs it; the one at the largest n is kept as the
    limit.
    """
    ns = [int(n) for n in n_values]
    n_max = ns[-1]
    kept: dict[int, np.ndarray] = {}
    limit = None

    def prod(n: int) -> np.ndarray:
        nonlocal limit
        if n not in kept:
            x = step_product(n)
            if n == n_max:
                limit = x
            kept[n] = x.core
        return kept[n]

    rows = []
    for i, n in enumerate(ns):
        x = prod(n)
        rows.append((n, operator_norm(x - target.core), operator_norm(x - prod(2 * n))))
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
        limit=limit,
        target=target,
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
    """Run the product over the schedule and compare against exp(i t EHE) E.

    The target Q G Q*, G = exp(i t Q*HQ), is built in the products' frame:
    G in (Q, Q), WG in (V, Q) or GW* in (Q, V) (W = V*Q), so every distance
    is taken between r x r, d x r or r x d cores and no d x d matrix is
    formed; ``report.limit.matrix`` and ``report.target.matrix`` are lifted
    only when read. W is formed once, for the target and every n.
    """
    check_dims(h, e)
    sched = _normalize_schedule(schedule)
    q, w = e.basis, _overlap(h, e)
    g = evolve(zeno_generator(h, e), t)
    if sched.ordering == "UE":
        target = ZenoProduct(h, _matmul(w, g), q)
    elif sched.ordering == "EU":
        target = ZenoProduct(q, _matmul(g, w.conj().T), h)
    else:
        target = ZenoProduct(q, g, q)
    return product_convergence_report(
        lambda n: zeno_product(h, e, t, n, sched.ordering, _w=w), target, sched.n_values
    )


def zeno_generator(h: HermitianOperator, e: OrthogonalProjection) -> HermitianOperator:
    """Generator of the limit dynamics restricted to range(E): the r x r
    compression Q*HQ in the basis Q = ``e.basis`` of range(E), eigendecomposed.

    It is the paper's form route (sqrt(H) E)* (sqrt(H) E), shifted for a
    non-PSD H; the tests hold the two equal with that route as the oracle.
    """
    check_dims(h, e)
    c = h._row_product(e.basis.conj().T) @ e.basis
    return eigendecompose((c + c.conj().T) / 2.0)


def _leakage(h: HermitianOperator, e: OrthogonalProjection, times: Iterable[float]) -> np.ndarray:
    """||E_perp exp(i t H) E|| at each t, as ||UQ - Q(Q*UQ)|| at d x r with Q = e.basis."""
    q, v, w = e.basis, h.eigenvectors, _overlap(h, e)
    uqs = (_matmul(v, phase_factors(h, t)[:, None] * w) for t in times)  # UQ = V (Phi W), d x r
    return np.array([operator_norm(uq - q @ (q.conj().T @ uq)) for uq in uqs])


def azc_fit(
    h: HermitianOperator,
    e: OrthogonalProjection,
    tau_grid: Sequence[float],
) -> AzcFit:
    """Fit || E_perp exp(i tau H) E || against tau on a decreasing grid in (0, 1].

    The exact small-tau behaviour is linear with level ||E_perp H E||; a
    commuting pair leaves nothing to fit and is reported as exactly Zeno.
    Each norm is taken at d x r by ``_leakage``.
    """
    check_dims(h, e)
    taus = np.asarray(tau_grid, dtype=float)
    if taus.size < 4:
        raise ValueError("need at least 4 grid points")
    if np.any(taus <= 0) or np.any(taus > 1):
        raise ValueError("tau grid must lie in (0, 1]")
    if np.any(np.diff(taus) >= 0):
        raise ValueError("tau grid must be strictly decreasing")
    norms = _leakage(h, e, taus)
    if float(np.max(norms)) < 1e-14:
        return AzcFit(constant=0.0, exponent=None, exactly_zeno=True)
    exponent, level, _ = loglog_fit(taus, norms)
    return AzcFit(constant=level, exponent=exponent)

