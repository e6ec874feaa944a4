"""Gibbs states, complex-time Heisenberg dynamics, and thermal boundary checks.

Thermal equilibrium at inverse temperature beta is characterized by the
two-sided boundary identity omega(A tau_{t+i beta}(B)) = omega(tau_t(B) A);
at finite dimension the Gibbs density matrix is its unique solution. The
same check runs on the compressed algebra, where the frozen-dynamics
equilibria live, at r x r on the compressions Q*HQ, Q*AQ and Q*BQ (Q an
orthonormal basis of range(E)); that is exact for any state. Both checks
share one kernel, which runs wholly in H's eigenbasis: A and B enter it once
per pair, and each (pair, t) costs two ``heisenberg_evolve`` calls on V*BV,
with no matrix product, and two dots. A state is its frame U and weights p,
and nothing forms rho: a Gibbs state enters the kernel as its weights, any
other state as its frame in the generator's eigenbasis (V*U, or V'*(Q*U) at
r x r) and weights. The reduced check takes its own Gibbs state as the
weights of Q*HQ, forms nothing d x d and returns its worst residual as a float.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, NonFinite, Overflow, ZeroRank
from .numeric import tol
from .operators import (
    HermitianOperator,
    OrthogonalProjection,
    _checked_time,
    _matmul,
    as_complex_matrix,
    check_dims,
    operator_norm,
)
from .zeno import zeno_generator

__all__ = [
    "DensityState",
    "gibbs_state",
    "heisenberg_evolve",
    "kms_residual",
    "kms_scale",
    "zeno_gibbs_state",
    "reduced_kms_residual",
    "expectation",
]


@dataclass(frozen=True, eq=False)  # an array field does not compare as one truth value
class DensityState:
    """The state rho = U diag(p) U*, held as a frame U (d x k) with orthonormal columns and weights p.

    Construction checks the shapes and the weights: finite, p >= -1e-10 and
    |sum p - 1| <= 1e-10. rho is never formed: its readers take U and p.
    """

    frame: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        u, p = self.frame, self.weights
        if u.ndim != 2 or p.shape != u.shape[1:]:
            raise DimensionMismatch(f"frame {u.shape} and weights {p.shape} do not fit")
        if p.size and float(p.min()) < -tol(1e-10):
            raise ValueError(f"density matrix has negative eigenvalue {p.min():.3e}")
        trace = float(np.sum(p))
        if not abs(trace - 1.0) <= tol(1e-10):  # a nan or inf weight makes the trace non-finite
            raise ValueError(f"trace {trace!r} deviates from 1")


def expectation(state: DensityState, a) -> complex:
    """omega(A) = sum_j p_j u_j* A u_j over the columns u_j of the state's frame."""
    a = as_complex_matrix(a)
    check_dims(state.frame, a)
    return complex(np.sum(state.frame.conj() * _matmul(a, state.frame), axis=0) @ state.weights)


def _checked_beta(beta: float) -> float:
    """beta as an inverse temperature: finite (else NonFinite) and nonnegative (else ValueError)."""
    if not math.isfinite(beta):
        raise NonFinite(f"beta must be finite, got {beta!r}")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    return beta


def _checked_times(t) -> np.ndarray:
    """t, one time or a 1-D sequence of times, as a 1-D array of finite times (else ValueError or NonFinite)."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if ts.ndim > 1:
        raise ValueError("times must be one time or a 1-D sequence of times")
    if not np.all(np.isfinite(ts)):
        raise NonFinite("times must be finite")
    return ts


def gibbs_state(h: HermitianOperator, beta: float) -> DensityState:
    """exp(-beta H) / Tr exp(-beta H), shifted by the ground energy for safety.

    beta = 0 yields the tracial state; a level whose beta * gap overflows gets weight 0.
    beta is checked by ``_checked_beta``, and an H with no level raises ZeroRank.
    """
    beta, w = _checked_beta(beta), h.eigenvalues
    if not w.size:
        raise ZeroRank("a Gibbs state needs one level at least: a compression needs a projection of rank >= 1")
    with np.errstate(over="ignore"):
        shifted = np.exp(-beta * (w - w[0]))
    return DensityState(h.eigenvectors, shifted / np.sum(shifted))


def _to_eigenbasis(h: HermitianOperator, a: np.ndarray) -> np.ndarray:
    """V*AV, with V the eigenvectors of H: A in H's eigenbasis."""
    v = h.eigenvectors
    return _matmul(_matmul(v.conj().T, a), v)


def heisenberg_evolve(h: HermitianOperator, a, z: complex) -> np.ndarray:
    """V* tau_z(A) V from V*AV, with V the eigenvectors of H and tau_z(A) = exp(izH) A exp(-izH).

    ``a`` is V*AV, and the result is (V*AV) o outer(e^s, e^-s), s = iz(w - mid):
    exact at complex time, with no matrix product. z is checked by
    ``_checked_time`` at the scale of the spectral spread.
    """
    z = _checked_time(z, h.spread)
    mat = as_complex_matrix(a)
    check_dims(h, mat)
    w = h.eigenvalues
    # about the spectrum's midpoint neither factor exceeds exp(|Im z| spread / 2)
    s = 1j * z * (w - (w[0] + w[-1]) / 2.0) if w.size else w
    return mat * np.outer(np.exp(s), np.exp(-s))


def _kms_gaps(
    frame: np.ndarray | None, weights: np.ndarray, h: HermitianOperator, a: np.ndarray, b: np.ndarray, ts, beta: float
) -> list[float]:
    """|tr(rho A tau_{t+i beta}(B)) - tr(rho tau_t(B) A)| for each t in ``ts``.

    In H's eigenbasis V the state is rho~ = W diag(p) W*, given as its frame
    W = V*U (d x k) and weights p, or ``frame`` None when it is diag(p). There
    each trace tr(YX) is one dot of the raveled Y^T and X, with
    Y^T = (rho~ A~)^T or (A~ rho~)^T formed once for all t: A~^T scaled by p
    in columns or rows, or (A~^T conj(W) diag(p)) W^T and
    (conj(W) diag(p)) (W^T A~^T), each O(d^2 k). No matrix product depends on t.
    """
    a_v = _to_eigenbasis(h, a)
    if frame is None:
        rho_a, a_rho = np.multiply(a_v.T, weights, order="C"), np.multiply(weights[:, None], a_v.T, order="C")
    else:
        scaled = frame.conj() * weights
        rho_a, a_rho = _matmul(_matmul(a_v.T, scaled), frame.T), _matmul(scaled, _matmul(frame.T, a_v.T))
    del a_v  # peak memory: only the two Y^T and B~ stay live through the t loop
    b_v = _to_eigenbasis(h, b)

    def tau(z: complex) -> np.ndarray:
        return heisenberg_evolve(h, b_v, z).ravel()

    return [float(abs(rho_a.ravel() @ tau(t + 1j * beta) - a_rho.ravel() @ tau(t))) for t in ts]


def kms_residual(h: HermitianOperator, state: DensityState, a, b, t, beta: float):
    """|omega(A tau_{t+i beta}(B)) - omega(tau_t(B) A)|, with tau the flow of H.

    Vanishes (to rounding, scaled by the continuation growth) exactly when
    the state is Gibbs at this beta for H. ``t`` is one time, giving a
    float, or a 1-D sequence of times, giving an array with one residual per
    time. A state framed by H's own eigenvectors, as from ``gibbs_state``,
    enters as its weights p; any other as its frame V*U and weights p.
    """
    a, b = as_complex_matrix(a), as_complex_matrix(b)
    check_dims(h, state.frame, a, b)
    ts, beta = _checked_times(t), _checked_beta(beta)
    frame = None if state.frame is h.eigenvectors else h._coordinates(state.frame)
    gaps = _kms_gaps(frame, state.weights, h, a, b, ts, beta)
    return gaps[0] if np.ndim(t) == 0 else np.array(gaps)


def kms_scale(h: HermitianOperator, a, b, beta: float) -> float:
    """Conditioning scale of the boundary check: ||A|| ||B|| exp(beta * spread).

    ||A|| and ||B|| come from ``operator_norm``: max |eigenvalue| from
    ``eigvalsh`` for an exactly Hermitian draw, as every drawn observable
    is. Raises Overflow when the exponential is not a finite double.
    """
    check_dims(h, a, b)
    exponent = _checked_beta(beta) * h.spread
    if not exponent <= math.log(sys.float_info.max):  # a nan exponent too
        raise Overflow(f"kms scale exponent {exponent:.3e} overflows exp")
    return operator_norm(a) * operator_norm(b) * math.exp(exponent)


def zeno_gibbs_state(h: HermitianOperator, e: OrthogonalProjection, beta: float) -> DensityState:
    """Gibbs state of the compressed generator EHE = Q (Q*HQ) Q*, supported on range(E).

    The trace may be taken over the full space because the unnormalized
    density exp(-beta EHE) E already lives on range(E). The state is the
    frame QV', V' the eigenvectors of Q*HQ, and its weights, formed at r x r.
    """
    generator = zeno_generator(h, e)
    return DensityState(_matmul(e.basis, generator.eigenvectors), gibbs_state(generator, beta).weights)


def reduced_kms_residual(
    h: HermitianOperator,
    e: OrthogonalProjection,
    beta: float,
    pairs: Iterable[tuple[np.ndarray, np.ndarray]],
    t_grid: float | Sequence[float],
    state: DensityState | None = None,
) -> float:
    """The largest boundary residual, over every pair and time, of the compressed-algebra state under the
    reduced dynamics.

    Observables are compressed with E before testing; ``pairs`` may be a
    generator, is read one pair at a time and must hold one pair at least.
    ``t_grid`` is read as ``kms_residual``'s times and must not be empty.
    Passing a different ``state`` (built from another projection or
    temperature) turns this into a negative control; the dynamics still
    come from (h, e).

    It runs at r x r on Q*HQ, Q*AQ and Q*BQ, Q = e.basis: under the flow of
    EHE, tau_z(EBE) = Q tau_z(Q*BQ) Q*, so this is exact for any state. With
    no ``state`` the check's own Gibbs state enters as the weights of Q*HQ,
    diagonal in its eigenbasis V'; a given state enters once per run as its
    frame V'*(Q*U) and weights p. Nothing is d x d.
    """
    ts = _checked_times(t_grid)
    if not ts.size:
        raise ValueError("t_grid must hold at least one time")
    q, generator = e.basis, zeno_generator(h, e)
    frame, weights = None, gibbs_state(generator, beta).weights  # checks beta and the rank, for a given state too
    if state is not None:
        check_dims(h, state.frame)
        frame, weights = generator._coordinates(_matmul(q.conj().T, state.frame)), state.weights
    gaps = []
    for a, b in pairs:
        a, b = as_complex_matrix(a), as_complex_matrix(b)
        check_dims(h, a, b)
        gaps += _kms_gaps(frame, weights, generator, q.conj().T @ a @ q, q.conj().T @ b @ q, ts, beta)
    if not gaps:
        raise ValueError("pairs must hold at least one pair")
    return max(gaps)
