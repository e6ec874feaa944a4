"""Iterated-measurement products and their limit dynamics.

The central object is the n-fold product of short evolutions interleaved
with a projection. At finite dimension the products converge at first order
in 1/n to the compressed-generator dynamics exp(i t EHE) E; this module
computes the products, measures distances to that limit, fits the rate, and
checks the Lipschitz (asymptotic Zeno) condition that drives convergence.

Products and the limit are held in range(E) as a ``ZenoProduct``: a core in
a frame fixed by the ordering, each side E or H standing for its columns, the
basis Q of range(E) or the eigenvectors V of H. Only the r x r step Q*UQ is
raised to powers, and each distance is the norm of a difference of r x r,
d x r or r x d cores, with the same value as the d x d one. Nothing d x d is
formed unless a caller reads ``.matrix``: W = V*Q is ``h._coordinates(Q)``,
and ``zeno_generator`` returns Q*HQ, formed as (Q*H)Q from ``h._row_product``,
as an r x r ``HermitianOperator``.

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

from .errors import DimensionMismatch
from .numeric import loglog_fit, tol
from .operators import (
    HermitianOperator,
    OrthogonalProjection,
    _frame_columns,
    _frame_width,
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


@dataclass(frozen=True, eq=False)  # arrays do not compare as one truth value
class ZenoProduct:
    """A d x d product X = L C R* held as its core C in the frame (L, R).

    A side is an ``OrthogonalProjection`` (its basis Q) or a ``HermitianOperator`` (its eigenvectors V), else a
    TypeError; both stand for orthonormal columns, so ||X - Y|| = ||C_X - C_Y|| for two products in one frame.
    ``zeno_product`` puts each ordering in its own frame: (E, E) for EUE, (H, E) for UE and (E, H) for EU.
    ``matrix`` is L C R*, formed and cached the first time something reads it; only then is V read.
    """

    left: OrthogonalProjection | HermitianOperator
    core: np.ndarray
    right: OrthogonalProjection | HermitianOperator

    def __post_init__(self):
        if self.core.shape != (_frame_width(self.left), _frame_width(self.right)):
            raise DimensionMismatch(f"a core of shape {self.core.shape} does not fit its frame")

    @cached_property
    def matrix(self) -> np.ndarray:
        left, right = _frame_columns(self.left), _frame_columns(self.right)
        return _freeze(_matmul(_matmul(left, self.core), right.conj().T))


@dataclass(frozen=True, eq=False)  # its ZenoProducts compare by identity
class ZenoConvergenceReport:
    """Per-n distances of the products to the limit, with a fitted decay rate.

    ``limit`` is the product at the largest n evaluated (the best numerical
    stand-in for the limit) and ``target`` the compressed dynamics it is
    compared against, each a ``ZenoProduct`` in the products' frame, lifted
    to d x d only when its ``.matrix`` is read. ``target_residual`` is their
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
    ``.matrix`` for the d x d product. The private ``_w`` is W, passed by a
    caller that reuses it over many n.
    """
    check_dims(h, e)
    n = int(n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    if ordering not in ORDERINGS:
        raise ValueError(f"ordering must be one of {ORDERINGS}")
    phases = phase_factors(h, t / n)
    w = h._coordinates(e.basis) if _w is None else _w
    w_adj_u = w.conj().T * phases  # W* Phi, so Q*U = W* Phi V*
    a = w_adj_u @ w
    if ordering == "EUE":
        return ZenoProduct(e, np.linalg.matrix_power(a, n), e)
    power = np.linalg.matrix_power(a, n - 1)
    if ordering == "UE":
        return ZenoProduct(h, (phases[:, None] * w) @ power, e)
    return ZenoProduct(e, power @ w_adj_u, h)


def reduced_dynamics(h: HermitianOperator, e: OrthogonalProjection, t: float) -> np.ndarray:
    """exp(i t EHE) E on the full space: the limit of the iterated products.

    Formed as Q exp(i t Q*HQ) Q* from the r x r compression, Q = e.basis.
    """
    return ZenoProduct(e, evolve(zeno_generator(h, e), t), e).matrix


def product_convergence_report(
    step_product: Callable[[int], ZenoProduct],
    target: ZenoProduct,
    n_values: Sequence[int],
) -> ZenoConvergenceReport:
    """Distances of step products to a target, with Cauchy deltas and a rate fit.

    Shared by the unitary, sectorial-semigroup, and form-sum product routes,
    and the one check of their n values: nonempty, positive and strictly
    increasing, else a ValueError. The products and the target share one
    frame, so every distance is the norm of a difference of cores. The rows
    are done chain by chain, n, 2n, 4n, ...: each row builds n and 2n at most
    once, drops n after its row and keeps 2n only as the next row of its chain,
    so at most the limit (the product at the last n) and one core are held
    while the next is built.
    """
    ns = [int(n) for n in n_values]
    if not ns or ns[0] < 1 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_values must be a nonempty, strictly increasing sequence of positive integers")
    wanted = set(ns)
    rows: dict[int, tuple[int, float, float]] = {}
    for n in ns:
        if n % 2 == 0 and n // 2 in wanted:
            continue  # a row of the chain that n // 2 heads
        m, x = n, step_product(n)
        while m in wanted:
            x2 = step_product(2 * m)
            rows[m] = (m, operator_norm(x.core - target.core), operator_norm(x.core - x2.core))
            if m == ns[-1]:
                limit = x
            m, x = 2 * m, x2
        del x, x2
    per_n = tuple(rows[n] for n in ns)

    distances = np.array([r[1] for r in per_n])
    exact = bool(np.max(distances) <= tol(1e-12))
    exponent = constant = None
    if not exact:
        half = per_n[len(per_n) // 2 :]
        xs = np.array([r[0] for r in half if r[1] > 0], dtype=float)
        ys = np.array([r[1] for r in half if r[1] > 0])
        if xs.size >= 2:
            exponent, constant, _ = loglog_fit(xs, ys)
    return ZenoConvergenceReport(
        per_n=per_n,
        limit=limit,
        target=target,
        target_residual=per_n[-1][1],
        fitted_rate_exponent=exponent,
        fitted_rate_constant=constant,
        exact=exact,
    )


def zeno_convergence_report(
    h: HermitianOperator,
    e: OrthogonalProjection,
    t: float,
    n_values: Sequence[int] = _DEFAULT_N_VALUES,
    ordering: str = "EUE",
) -> ZenoConvergenceReport:
    """Run the product over the n values in this ordering and compare against exp(i t EHE) E.

    The target Q G Q*, G = exp(i t Q*HQ), is built in the products' frame:
    G in (E, E), WG in (H, E) or GW* in (E, H) (W = V*Q), so every distance
    is taken between cores and no d x d matrix is formed. W is formed once,
    for the target and every n.
    """
    check_dims(h, e)
    w, g = h._coordinates(e.basis), evolve(zeno_generator(h, e), t)
    if ordering == "UE":
        target = ZenoProduct(h, _matmul(w, g), e)
    elif ordering == "EU":
        target = ZenoProduct(e, _matmul(g, w.conj().T), h)
    else:
        target = ZenoProduct(e, g, e)
    return product_convergence_report(lambda n: zeno_product(h, e, t, n, ordering, _w=w), target, n_values)


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
    q, v, w = e.basis, h.eigenvectors, h._coordinates(e.basis)
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

