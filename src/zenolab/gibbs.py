"""Gibbs states, complex-time Heisenberg dynamics, and thermal boundary checks.

Thermal equilibrium at inverse temperature beta is characterized by the
two-sided boundary identity omega(A tau_{t+i beta}(B)) = omega(tau_t(B) A);
at finite dimension the Gibbs density matrix is its unique solution. The
same check runs on the compressed algebra, where the frozen-dynamics
equilibria live, at r x r on the compressions Q*HQ, Q*AQ, Q*BQ and Q*rhoQ
(Q an orthonormal basis of range(E)); that is exact for any state. Both
checks share one kernel, which runs wholly in H's eigenbasis: rho, A and B
enter it once per pair, and each (pair, t) costs two ``heisenberg_evolve``
calls on V*BV, each an elementwise phase multiply with no matrix product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import NonFinite, Overflow, ZeroRank
from .numeric import EXP_LIMIT, tol
from .operators import (
    HermitianOperator,
    OrthogonalProjection,
    _matmul,
    _violation,
    as_complex_matrix,
    as_matrix,
    check_dims,
    eigendecompose,
    operator_norm,
)
from .zeno import _compress

__all__ = [
    "DensityState",
    "KMSReport",
    "gibbs_state",
    "heisenberg_evolve",
    "kms_residual",
    "kms_scale",
    "zeno_gibbs_state",
    "reduced_kms_residual",
    "expectation",
]


@dataclass(frozen=True)
class DensityState:
    """Density matrix commuting with its reference Hamiltonian."""

    rho: np.ndarray
    beta: float
    hamiltonian_ref: HermitianOperator

    def __post_init__(self):
        r = self.rho
        check_dims(self.hamiltonian_ref, as_matrix(r))
        h = self.hamiltonian_ref.matrix
        w = np.linalg.eigvalsh((r + r.conj().T) / 2.0)
        if w.size and float(w[0]) < -tol(1e-10):
            raise ValueError(f"density matrix has negative eigenvalue {w[0]:.3e}")
        trace = float(np.trace(r).real)
        if abs(trace - 1.0) > tol(1e-10):
            raise ValueError(f"trace {trace!r} deviates from 1")
        comm = _violation(_matmul(r, h) - _matmul(h, r), 1e-10, self.hamiltonian_ref.norm)
        if comm is not None:
            raise ValueError(f"state does not commute with its Hamiltonian: {comm:.3e}")

    @property
    def dim(self) -> int:
        return self.rho.shape[0]


def expectation(state: DensityState, a) -> complex:
    return complex(np.trace(_matmul(state.rho, as_complex_matrix(a))))


def gibbs_state(h: HermitianOperator, beta: float) -> DensityState:
    """exp(-beta H) / Tr exp(-beta H), shifted by the ground energy for safety.

    beta = 0 yields the tracial state.
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    w = h.eigenvalues
    shifted = np.exp(-beta * (w - w[0]))
    weights = shifted / np.sum(shifted)
    v = h.eigenvectors
    rho = (v * weights) @ v.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return DensityState(rho, float(beta), h)


def _to_eigenbasis(h: HermitianOperator, a: np.ndarray) -> np.ndarray:
    """V*AV, with V the eigenvectors of H: A in H's eigenbasis."""
    v = h.eigenvectors
    return _matmul(_matmul(v.conj().T, a), v)


def heisenberg_evolve(h: HermitianOperator, a, z: complex, *, in_eigenbasis: bool = False) -> np.ndarray:
    """exp(izH) A exp(-izH) through the eigenbasis; exact at complex time.

    With ``in_eigenbasis=True``, ``a`` is V*AV already (V the eigenvectors
    of H) and the result is V* tau_z(A) V = (V*AV) o outer(e^s, e^-s),
    s = iz(w - mid), with no matrix product; the default path takes that
    array back by V. Raises NonFinite for a non-finite z, and Overflow when
    |Im z| times the spectral spread would overflow.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise NonFinite("time argument must be finite")
    mat = as_complex_matrix(a)
    check_dims(h, mat)
    if abs(z.imag) * h.spread > EXP_LIMIT:
        raise Overflow(f"continuation exponent {abs(z.imag) * h.spread:.3e} exceeds {EXP_LIMIT}")
    v = h.eigenvectors
    w = h.eigenvalues
    in_basis = mat if in_eigenbasis else _to_eigenbasis(h, mat)
    # about the spectrum's midpoint neither factor exceeds exp(|Im z| spread / 2)
    s = 1j * z * (w - (w[0] + w[-1]) / 2.0) if w.size else w
    evolved = in_basis * np.outer(np.exp(s), np.exp(-s))
    return evolved if in_eigenbasis else _matmul(_matmul(v, evolved), v.conj().T)


def _kms_gaps(
    rho: np.ndarray, h: HermitianOperator, a: np.ndarray, b: np.ndarray, ts: Sequence[float], beta: float
) -> list[float]:
    """|tr(rho A tau_{t+i beta}(B)) - tr(rho tau_t(B) A)| for each t in ``ts``.

    The traces are taken in H's eigenbasis, tr(YX) = tr(V*YV V*XV): rho, A
    and B enter it once for all t, and each trace is sum(Y^T o X) with
    Y = rho A or A rho formed there once, as the C-ordered product of
    transposes Y^T = A^T rho^T or rho^T A^T. So no matrix product depends on t.
    """
    rho_v, a_v = _to_eigenbasis(h, rho), _to_eigenbasis(h, a)
    rho_a, a_rho = _matmul(a_v.T, rho_v.T), _matmul(rho_v.T, a_v.T)
    del rho_v, a_v  # peak memory: only the two Y^T and B~ stay live through the t loop
    b_v = _to_eigenbasis(h, b)

    def tau(z: complex) -> np.ndarray:
        return heisenberg_evolve(h, b_v, z, in_eigenbasis=True)

    return [float(abs(np.sum(rho_a * tau(t + 1j * beta)) - np.sum(a_rho * tau(t)))) for t in ts]


def kms_residual(state: DensityState, a, b, t, beta: float):
    """|omega(A tau_{t+i beta}(B)) - omega(tau_t(B) A)|.

    Vanishes (to rounding, scaled by the continuation growth) exactly when
    the state is Gibbs at this beta for its Hamiltonian. ``t`` is one time,
    giving a float, or a 1-D sequence of times, giving an array with one
    residual per time.
    """
    h = state.hamiltonian_ref
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    check_dims(h, a, b)
    if np.ndim(t) > 1:
        raise ValueError("t must be a time or a 1-D sequence of times")
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if not (np.all(np.isfinite(ts)) and math.isfinite(beta)):
        raise NonFinite("times and beta must be finite")
    gaps = _kms_gaps(state.rho, h, a, b, ts, beta)
    return gaps[0] if np.ndim(t) == 0 else np.array(gaps)


def _observable_norm(m) -> float:
    """||M||_2: max |eigenvalue| when M is exactly Hermitian, else ``operator_norm``."""
    a = as_matrix(m, square=False)
    if a.size and np.array_equal(a, a.conj().T):
        return float(np.max(np.abs(np.linalg.eigvalsh(a))))
    return operator_norm(a)


def kms_scale(h: HermitianOperator, a, b, beta: float) -> float:
    """Conditioning scale of the boundary check: ||A|| ||B|| exp(beta * spread).

    ||A|| of an exactly Hermitian A (A == A* bit for bit, as every drawn
    observable is) is max |eigenvalue| from ``eigvalsh``, with no SVD; any
    other A takes ``operator_norm``. Raises Overflow when the exponential
    exceeds double precision.
    """
    try:
        growth = math.exp(beta * h.spread)
    except OverflowError:
        raise Overflow(f"kms scale exponent {beta * h.spread:.3e} overflows exp") from None
    return _observable_norm(a) * _observable_norm(b) * growth


def _compressed_gibbs(h: HermitianOperator, e: OrthogonalProjection, beta: float):
    """The r x r generator Q*HQ, eigendecomposed, and its Gibbs density lifted to the full space."""
    check_dims(h, e)
    if e.rank < 1:
        raise ZeroRank("the compressed Gibbs state needs a projection of rank >= 1")
    q = e.basis
    generator = eigendecompose(_compress(h, q))
    rho = q @ gibbs_state(generator, beta).rho @ q.conj().T
    return generator, (rho + rho.conj().T) / 2.0


def zeno_gibbs_state(h: HermitianOperator, e: OrthogonalProjection, beta: float) -> DensityState:
    """Gibbs state of the compressed generator EHE = Q (Q*HQ) Q*, supported on range(E).

    The trace may be taken over the full space because the unnormalized
    density exp(-beta EHE) E already lives on range(E).
    """
    generator, rho = _compressed_gibbs(h, e, beta)
    q = e.basis
    return DensityState(rho, float(beta), eigendecompose(q @ generator.matrix @ q.conj().T))


@dataclass(frozen=True)
class KMSReport:
    pairs_tested: int
    max_residual: float
    t_range: tuple[float, float]
    beta: float


def reduced_kms_residual(
    h: HermitianOperator,
    e: OrthogonalProjection,
    beta: float,
    pairs: Iterable[tuple[np.ndarray, np.ndarray]],
    t_grid: Sequence[float],
    state: DensityState | None = None,
) -> KMSReport:
    """Boundary residuals of the compressed-algebra state under the reduced dynamics.

    Observables are compressed with E before testing; ``pairs`` may be a
    generator, and is read one pair at a time. Passing a different
    ``state`` (built from another projection or temperature) turns this into
    a negative control; the dynamics still come from (h, e).

    It runs at r x r on Q*HQ, Q*AQ, Q*BQ and Q*rhoQ, Q = e.basis: under the
    flow of EHE, tau_z(EBE) = Q tau_z(Q*BQ) Q*, so this is exact for any state.
    """
    ts = [float(t) for t in t_grid]
    if not ts:
        raise ValueError("t_grid must hold at least one time")
    generator, rho = _compressed_gibbs(h, e, beta)
    q = e.basis
    rho = _matmul(q.conj().T, rho if state is None else state.rho) @ q
    worst, tested = 0.0, 0
    for tested, (a, b) in enumerate(pairs, 1):
        a_e, b_e = (q.conj().T @ as_complex_matrix(m) @ q for m in (a, b))
        worst = max(worst, *_kms_gaps(rho, generator, a_e, b_e, ts, beta))
    return KMSReport(
        pairs_tested=tested,
        max_residual=worst,
        t_range=(min(ts), max(ts)),
        beta=float(beta),
    )
