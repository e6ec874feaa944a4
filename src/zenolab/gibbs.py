"""Gibbs states, complex-time Heisenberg dynamics, and thermal boundary checks.

Thermal equilibrium at inverse temperature beta is characterized by the
two-sided boundary identity omega(A tau_{t+i beta}(B)) = omega(tau_t(B) A);
at finite dimension the Gibbs density matrix is its unique solution. The
same check runs on the compressed algebra with the compressed generator,
which is where the frozen-dynamics equilibria live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import Overflow, ZeroRank
from .numeric import EXP_LIMIT, tol
from .operators import (
    HermitianOperator,
    OrthogonalProjection,
    _violation,
    as_complex_matrix,
    check_dims,
    eigendecompose,
    operator_norm,
)
from .zeno import compressed_generator_matrix

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
        h = self.hamiltonian_ref.matrix
        w = np.linalg.eigvalsh((r + r.conj().T) / 2.0)
        if w.size and float(w[0]) < -tol(1e-10):
            raise ValueError(f"density matrix has negative eigenvalue {w[0]:.3e}")
        trace = float(np.trace(r).real)
        if abs(trace - 1.0) > tol(1e-10):
            raise ValueError(f"trace {trace!r} deviates from 1")
        comm = _violation(r @ h - h @ r, 1e-10, self.hamiltonian_ref.norm)
        if comm is not None:
            raise ValueError(f"state does not commute with its Hamiltonian: {comm:.3e}")

    @property
    def dim(self) -> int:
        return self.rho.shape[0]


def expectation(state: DensityState, a) -> complex:
    return complex(np.trace(state.rho @ as_complex_matrix(a)))


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


def heisenberg_evolve(h: HermitianOperator, a, z: complex) -> np.ndarray:
    """exp(izH) A exp(-izH) through the eigenbasis; exact at complex time.

    Raises Overflow when |Im z| times the spectral spread would overflow.
    """
    z = complex(z)
    mat = as_complex_matrix(a)
    check_dims(h, mat)
    if abs(z.imag) * h.spread > EXP_LIMIT:
        raise Overflow(f"continuation exponent {abs(z.imag) * h.spread:.3e} exceeds {EXP_LIMIT}")
    v = h.eigenvectors
    w = h.eigenvalues
    in_basis = v.conj().T @ mat @ v
    phases = np.exp(1j * z * (w[:, None] - w[None, :]))
    return v @ (in_basis * phases) @ v.conj().T


def kms_residual(state: DensityState, a, b, t: float, beta: float) -> float:
    """|omega(A tau_{t+i beta}(B)) - omega(tau_t(B) A)|.

    Vanishes (to rounding, scaled by the continuation growth) exactly when
    the state is Gibbs at this beta for its Hamiltonian.
    """
    h = state.hamiltonian_ref
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    check_dims(h, a, b)
    left = np.trace(state.rho @ a @ heisenberg_evolve(h, b, t + 1j * beta))
    right = np.trace(state.rho @ heisenberg_evolve(h, b, t) @ a)
    return float(abs(left - right))


def kms_scale(h: HermitianOperator, a, b, beta: float) -> float:
    """Conditioning scale of the boundary check: ||A|| ||B|| exp(beta * spread).

    Raises Overflow when the exponential exceeds double precision.
    """
    try:
        growth = math.exp(beta * h.spread)
    except OverflowError:
        raise Overflow(f"kms scale exponent {beta * h.spread:.3e} overflows exp") from None
    return operator_norm(a) * operator_norm(b) * growth


def zeno_gibbs_state(h: HermitianOperator, e: OrthogonalProjection, beta: float) -> DensityState:
    """Gibbs state of the compressed generator, supported on range(E).

    The trace may be taken over the full space because the unnormalized
    density exp(-beta EHE) E already lives on range(E).
    """
    check_dims(h, e)
    if e.rank < 1:
        raise ZeroRank("zeno_gibbs_state needs a projection of rank >= 1")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    q = e.basis
    g_small = q.conj().T @ h.matrix @ q
    g_small = (g_small + g_small.conj().T) / 2.0
    w, v = np.linalg.eigh(g_small)
    shifted = np.exp(-beta * (w - w[0]))
    weights = shifted / np.sum(shifted)
    rho_small = (v * weights) @ v.conj().T
    rho = q @ rho_small @ q.conj().T
    rho = (rho + rho.conj().T) / 2.0
    generator = eigendecompose(compressed_generator_matrix(h, e))
    return DensityState(rho, float(beta), generator)


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
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
    t_grid: Sequence[float],
    state: DensityState | None = None,
) -> KMSReport:
    """Boundary residuals of the compressed-algebra state under the reduced dynamics.

    Observables are compressed with E before testing. Passing a different
    ``state`` (built from another projection or temperature) turns this into
    a negative control; the dynamics still come from (h, e).
    """
    check_dims(h, e)
    if state is None:
        state = zeno_gibbs_state(h, e, beta)
        generator = state.hamiltonian_ref
    else:
        generator = eigendecompose(compressed_generator_matrix(h, e))
    p = e.matrix
    worst = 0.0
    ts = [float(t) for t in t_grid]
    for a, b in pairs:
        a_e = p @ as_complex_matrix(a) @ p
        b_e = p @ as_complex_matrix(b) @ p
        for t in ts:
            left = np.trace(state.rho @ a_e @ heisenberg_evolve(generator, b_e, t + 1j * beta))
            right = np.trace(state.rho @ heisenberg_evolve(generator, b_e, t) @ a_e)
            worst = max(worst, float(abs(left - right)))
    return KMSReport(
        pairs_tested=len(pairs),
        max_residual=worst,
        t_range=(min(ts), max(ts)),
        beta=float(beta),
    )
