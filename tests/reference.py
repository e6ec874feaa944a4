"""The dense d x d definitions that the library's fast paths are checked against.

The library works in range(E) through an orthonormal basis Q and in H's
eigenbasis V, and forms nothing d x d that it can avoid. Each function here
is the plain formula on the full space: E_perp as a projection, the step
PUP, UP or PU raised to the n-th power, the limit exp(itEHE)E from the
d x d EHE, the leakage ||E_perp U(t) E||, tau_z(B) = exp(izH) B exp(-izH)
as a product of d x d matrices and the KMS residual loop over it, a
state's density matrix U diag(p) U*, the dense ``eigh`` of the Friedrichs arrowhead, the PSD square root and the
Zeno generator by the paper's form route (sqrt(H) E)* (sqrt(H) E), the
three defect norms of an operator's dense checks, the Hermitian draw
(G + G*)/2 with its complex temporaries, the Friedrichs time grid merged
by ``np.unique``, P(t) from the full len(t) x d phase table with the
weights of the dense V, and a spectral measure's atoms merged by one
Python pass. The equivalence tests import them from here, so each dense
definition exists once.
"""

from fractions import Fraction
from functools import cache

import numpy as np

from zenolab.errors import NotHermitian, NotPSD
from zenolab.numeric import tol
from zenolab.operators import (
    HermitianOperator,
    OrthogonalProjection,
    _column_norm_bound,
    _freeze,
    _matmul,
    _violation,
    as_complex_matrix,
    eigendecompose,
    evolve,
    operator_norm,
)


def ginibre_hermitian(rng, dim):
    """(G + G*)/2 for G = X + iY, X and Y standard normal and drawn in that order."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def complement(p: OrthogonalProjection) -> OrthogonalProjection:
    """The projection onto range(P)'s orthogonal complement: the trailing left singular vectors of P's basis."""
    u, _, _ = np.linalg.svd(p.basis)
    return OrthogonalProjection(_freeze(u[:, p.rank :]))


def projection_from_matrix(p) -> OrthogonalProjection:
    """The projection onto range(P), for P self-adjoint, idempotent and of integer trace.

    Its basis is the leading rank left singular vectors of P, so its
    ``matrix`` is QQ*, which agrees with P within those checks.
    """
    a = as_complex_matrix(p)
    trace = float(np.trace(a).real)
    rank = int(round(trace))
    bound, norm = _column_norm_bound(a), cache(lambda: operator_norm(a))
    if _violation(a - a.conj().T, 1e-12, bound, norm) is not None:
        raise NotHermitian("projection is not self-adjoint within tolerance")
    if _violation(a @ a - a, 1e-10, bound, norm) is not None:
        raise ValueError("projection is not idempotent within tolerance")
    if abs(trace - rank) > tol(1e-8):
        raise ValueError(f"trace {trace:.12f} disagrees with rank {rank}")
    u, _, _ = np.linalg.svd(a)
    return OrthogonalProjection(_freeze(u[:, :rank]))


def compressed_generator_matrix(h, e):
    """E H E on the full space, symmetrized."""
    c = e.matrix @ h.matrix @ e.matrix
    return (c + c.conj().T) / 2.0


def dense_product(h, e, t, n, ordering):
    """The step PUP, UP or PU, U = exp(i (t/n) H), raised to the n-th power."""
    u = evolve(h, t / n)
    p = e.matrix
    step = {"EUE": p @ u @ p, "UE": u @ p, "EU": p @ u}[ordering]
    return np.linalg.matrix_power(step, n)


def dense_target(h, e, t):
    """exp(i t EHE) E from the d x d EHE."""
    return evolve(eigendecompose(compressed_generator_matrix(h, e)), t) @ e.matrix


def dense_leakage(h, e, t):
    """||E_perp exp(i t H) E||."""
    return operator_norm(complement(e).matrix @ evolve(h, t) @ e.matrix)


def dense_heisenberg(h, b, z):
    """tau_z(B) = exp(izH) B exp(-izH) as a product of d x d matrices.

    Each exponential is V diag(exp(iz(w - c))) V*, about the spectrum's
    midpoint c: the phases exp(izc) cancel, and neither factor overflows
    at complex time before the product does.
    """
    v, w = h.eigenvectors, h.eigenvalues
    s = 1j * complex(z) * (w - (w[0] + w[-1]) / 2.0)
    return (v * np.exp(s)) @ v.conj().T @ np.asarray(b) @ (v * np.exp(-s)) @ v.conj().T


def _from_spectrum(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """V diag(w) V*, symmetrized."""
    m = (v * w) @ v.conj().T
    return (m + m.conj().T) / 2.0


def density_matrix(state) -> np.ndarray:
    """rho = U diag(p) U* of a ``DensityState`` from its frame U and weights p, at d x d."""
    return _from_spectrum(state.frame, state.weights)


def dense_gaps(rho, h, a, b, ts, beta):
    """|tr(rho A tau_{t+i beta}(B)) - tr(rho tau_t(B) A)| per t, with tau_z(B) formed at d x d."""
    gaps = []
    for t in ts:
        left = np.trace(rho @ a @ dense_heisenberg(h, b, t + 1j * beta))
        right = np.trace(rho @ dense_heisenberg(h, b, t) @ a)
        gaps.append(float(abs(left - right)))
    return gaps


def dense_reduced_gaps(h, e, beta, pairs, ts, rho):
    """``dense_gaps`` of EAE and EBE under the flow of the d x d EHE, one row per pair."""
    p = e.matrix
    generator = eigendecompose(compressed_generator_matrix(h, e))
    return [dense_gaps(rho, generator, p @ a @ p, p @ b @ p, ts, beta) for a, b in pairs]


def dense_reduced_residual(h, e, beta, pairs, ts, rho):
    return max(max(row) for row in dense_reduced_gaps(h, e, beta, pairs, ts, rho))


def psd_sqrt(h: HermitianOperator) -> HermitianOperator:
    """Positive square root of a PSD operator.

    Eigenvalues in [-1e-10*(1+||H||), 0) are clamped to zero; anything lower
    raises NotPSD.
    """
    w = h.eigenvalues
    if w.size and float(w[0]) < -tol(1e-10, h.norm):
        raise NotPSD(f"minimum eigenvalue {w[0]:.3e} is negative beyond tolerance")
    roots = np.sqrt(np.clip(w, 0.0, None))
    return HermitianOperator(_freeze(_from_spectrum(h.eigenvectors, roots)), _freeze(roots), h.eigenvectors)


def form_generator(h, e) -> np.ndarray:
    """Q*HQ by the form route (sqrt(H + s) Q)* (sqrt(H + s) Q) - s, with the shift s = max(0, -min eig H)
    that makes H + s PSD; Q is ``e.basis``."""
    q = e.basis
    shift = max(0.0, -float(h.eigenvalues[0])) if h.eigenvalues.size else 0.0
    shifted = eigendecompose(h.matrix + shift * np.eye(h.dim)) if shift else h
    m = _matmul(psd_sqrt(shifted).matrix, q)
    return m.conj().T @ m - shift * np.eye(q.shape[1])


def check_defects(m, w, v) -> tuple[float, float, float]:
    """The three 2-norms of ``HermitianOperator``'s dense checks: ||M - M*||, ||M - V diag(w) V*|| and ||V*V - I||."""
    return (
        operator_norm(m - m.conj().T),
        operator_norm(m - (v * w) @ v.conj().T),
        operator_norm(v.conj().T @ v - np.eye(w.size)),
    )


def exact_defects(m, w, v) -> tuple[list, list]:
    """M - V diag(w) V* and V*V - I of real float arrays, in exact rational arithmetic (lists of Fraction rows)."""
    m, v = ([[Fraction(x) for x in row] for row in np.asarray(a).tolist()] for a in (m, v))
    w, n = [Fraction(x) for x in np.asarray(w).tolist()], len(w)
    scaled = [[v[i][k] * w[k] for k in range(n)] for i in range(n)]
    recon = [[m[i][j] - sum(scaled[i][k] * v[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
    ortho = [[sum(v[k][i] * v[k][j] for k in range(n)) - (i == j) for j in range(n)] for i in range(n)]
    return recon, ortho


def _positive_definite(a: list) -> bool:
    """Whether the symmetric rational matrix a is positive definite: every pivot of its LDL^T is > 0."""
    a = [row[:] for row in a]
    for k in range(len(a)):
        pivot = a[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, len(a)):
            factor = a[i][k] / pivot
            for j in range(k + 1, i + 1):
                a[i][j] -= factor * a[j][k]
    return True


def defect_within(d: list, bound) -> bool:
    """||D||_2 <= bound for a symmetric rational D, decided exactly.

    bound I - D and bound I + D both positive definite give ||D|| < bound;
    a zero bound holds only a zero D.
    """
    b = Fraction(bound)
    if b == 0:
        return all(x == 0 for row in d for x in row)
    n = len(d)
    shifted = ([[b * (i == j) - sign * d[i][j] for j in range(n)] for i in range(n)] for sign in (1, -1))
    return all(_positive_definite(a) for a in shifted)


def arrowhead_matrix(diagonal, couplings) -> np.ndarray:
    """The real arrowhead [[a, g*], [g, diag(w)]] of diagonal (a, w) and couplings g."""
    h = np.diag(np.asarray(diagonal, dtype=float))
    h[0, 1:] = couplings
    h[1:, 0] = couplings
    return h


def dense_arrowhead(diagonal, couplings):
    """(eigenvalues, eigenvectors) of the arrowhead by the dense O(d^3) ``np.linalg.eigh``."""
    return np.linalg.eigh(arrowhead_matrix(diagonal, couplings))


def friedrichs_t_grid(t_hi: float) -> np.ndarray:
    """The Friedrichs builder's time grid for its t_hi, its two ``linspace`` pieces merged by ``np.unique``."""
    t_mid = min(8.0, 0.5 * t_hi)
    return np.unique(np.concatenate([np.linspace(1e-3, t_mid, 400), np.linspace(t_mid, t_hi * 1.05, 900)]))


def dense_decay_probabilities(h, psi, times) -> np.ndarray:
    """P(t) = |<psi, exp(itH) psi>|^2 from the full len(t) x d phase table: its cos table, then its sin table, each
    @ the weights |V* psi|^2 of the dense V."""
    weights = np.abs(h.eigenvectors.conj().T @ np.asarray(psi, dtype=complex)) ** 2
    phase = np.outer(np.asarray(times, dtype=float), h.eigenvalues)
    amp = np.cos(phase) @ weights + 1j * (np.sin(phase) @ weights)
    return np.minimum(np.abs(amp) ** 2, 1.0 + 1e-12)


def merged_atoms(eigenvalues, weights, norm) -> tuple[np.ndarray, np.ndarray]:
    """(atoms, weights) of a spectral measure by one Python pass over the eigenvalues: each run of neighbours
    closer than 1e-10 * norm becomes its weight-averaged position (its last eigenvalue if it has no mass) with the
    summed weight, and a group of weight at most 1e-14 is dropped before the rest are renormalised."""
    gap_tol = 1e-10 * max(norm, 1e-300)
    atoms: list[float] = []
    merged: list[float] = []
    group_w = 0.0
    group_wx = 0.0
    last = None
    for lam, w in zip(eigenvalues, weights):
        if last is not None and lam - last > gap_tol:
            atoms.append(group_wx / group_w if group_w > 0 else last)
            merged.append(group_w)
            group_w = group_wx = 0.0
        group_w += float(w)
        group_wx += float(w) * float(lam)
        last = float(lam)
    atoms.append(group_wx / group_w if group_w > 0 else last)
    merged.append(group_w)
    a = np.array(atoms)
    w = np.array(merged)
    keep = w > 1e-14
    a, w = a[keep], w[keep]
    return a, w / np.sum(w)
