"""Dense operator algebra, real where the data are real.

Hermitian eigendecomposition with cached spectra (by the dense solver, or
for an arrowhead from its secular equation), matrix exponentials for real
and complex time, one spectral norm, and orthogonal projections built from
spanning sets. Everything is immutable after construction and safe for
concurrent read-only use. scipy.linalg is imported inside ``expm``, which
is ``scipy.linalg.expm``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatch,
    NonFinite,
    NotHermitian,
    Overflow,
    ZeroSpan,
)
from .numeric import EXP_LIMIT, tol

__all__ = [
    "HermitianOperator",
    "OrthogonalProjection",
    "arrowhead_eigendecompose",
    "eigendecompose",
    "evolve",
    "expm",
    "phase_factors",
    "operator_norm",
    "projection_from_span",
    "identity_projection",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def as_matrix(m, square: bool = True) -> np.ndarray:
    """Validate and return a finite dense matrix, square unless ``square`` is false.

    Real input comes back as float64, anything else as complex128.
    """
    a = np.asarray(m)
    a = a.astype(complex if np.iscomplexobj(a) else float, copy=False)
    if a.ndim != 2 or (square and a.shape[0] != a.shape[1]):
        raise DimensionMismatch(f"expected a {'square' if square else '2-D'} matrix, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a.view(float))):
        raise NonFinite("matrix contains non-finite entries")
    return a


def as_complex_matrix(m) -> np.ndarray:
    """Validate and return a finite complex dense square matrix."""
    return as_matrix(m).astype(complex, copy=False)


def _is_real(a: np.ndarray) -> bool:
    """True for a real array or a complex one with an exactly zero imaginary part."""
    return not (np.iscomplexobj(a) and np.any(a.imag))


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b without copying a real operand into a complex one.

    When exactly one side is complex it is split, a @ b.real + 1j * (a @ b.imag),
    so the real side enters two real products as it is.
    """
    if np.iscomplexobj(a) == np.iscomplexobj(b):
        return a @ b
    if np.iscomplexobj(b):
        return a @ b.real + 1j * (a @ b.imag)
    return a.real @ b + 1j * (a.imag @ b)


_SMALLEST_NORMAL = float(np.finfo(float).tiny)
_EPS = float(np.finfo(float).eps)
_SQRT_EPS = math.sqrt(_EPS)
_BLOCK = 96  # rows per block of the O(d^2) arrowhead passes, so each temporary is 96 x d


def operator_norm(m) -> float:
    """Largest singular value of a 2-D matrix; zero exactly for the zero (or empty) matrix.

    A square matrix equal to its adjoint bit for bit takes max |eigenvalue| from
    ``eigvalsh``, any other square one the SVD. A non-square one takes the
    square root of the largest eigenvalue of its smaller-side Gram matrix
    (``eigvalsh``), after dividing by its largest entry magnitude so that
    squaring can neither overflow nor underflow at the top of the spectrum.
    """
    a = as_matrix(m, square=False)
    if a.size == 0 or not np.any(a):
        return 0.0
    rows, cols = a.shape
    if rows == cols:
        if np.array_equal(a, a.conj().T):
            return float(np.max(np.abs(np.linalg.eigvalsh(a))))
        return float(np.linalg.norm(a, 2))
    scale = float(np.max(np.abs(a)))
    if scale < _SMALLEST_NORMAL:
        # a complex a / scale multiplies by 1 / scale, which overflows for a subnormal
        # scale; a power of two lifts the entries exactly, real or complex
        return operator_norm(a * 2.0**64) / 2.0**64
    a = a / scale
    gram = a @ a.conj().T if rows < cols else a.conj().T @ a
    # the top eigenvalue is at least the largest diagonal entry, >= 1 after the scaling
    return scale * float(np.sqrt(np.linalg.eigvalsh(gram)[-1]))


# Rounding in the two norms can differ by a few ulps times the dimension; a
# Frobenius screen this far inside the limit cannot flip a verdict.
_SCREEN_MARGIN = 1.0 - 1e-8


def _frobenius(x: np.ndarray, axis: int | None = None) -> float:
    """The largest of np.linalg.norm(x, axis=axis), taken of x / max|x| only when the plain norm overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.linalg.norm(x, axis=axis).max())
        if not math.isfinite(norm):
            scale = np.max(np.abs(x))
            norm = float(scale * np.linalg.norm(x / scale, axis=axis).max())
    return norm


def _violation(
    x: np.ndarray, base: float, ref: float = 0.0, exact_ref: Callable[[], float] | None = None
) -> float | None:
    """The exact ||X||_2 when it exceeds tol(base, ref), else None.

    ||X||_2 <= ||X||_F, so a Frobenius norm inside the tolerance accepts
    without an SVD (a zero matrix always does). When ``exact_ref`` is given,
    ``ref`` is only a lower bound on the reference scale and the exact scale
    is computed once the screen fails. The verdict is the one the exact
    2-norm against the exact scale gives.
    """
    if _frobenius(x) <= tol(base, ref) * _SCREEN_MARGIN:
        return None
    if exact_ref is not None:
        ref = exact_ref()
    norm = operator_norm(x)
    return norm if norm > tol(base, ref) else None


def _column_norm_bound(a: np.ndarray) -> float:
    """Largest column 2-norm: a lower bound on ||A||_2 (||A e_j|| <= ||A||)."""
    if not a.size:
        return 0.0
    return _frobenius(a, axis=0)


@dataclass(frozen=True, eq=False)  # an array field does not compare as one truth value
class HermitianOperator:
    """Self-adjoint matrix with its cached eigendecomposition.

    ``eigenvalues`` ascend and ``eigenvectors`` holds the corresponding
    orthonormal eigenvectors in its columns. Construction checks
    hermiticity, the reconstruction V diag(w) V* = M and orthonormality
    V*V = I. ``matrix`` and ``eigenvectors`` are float64 on the real solver
    path of ``eigendecompose`` and are checked as they are; complex ones
    that both have an exactly zero imaginary part are checked in real
    arithmetic on their real parts, at the same tolerances. The stored
    arrays are left as given.

    ``arrowhead_eigendecompose`` alone builds an operator without these
    checks, when its own certificate bounds the defects inside them
    (``_certified``); that operator forms ``matrix`` and ``eigenvectors``
    on first read. ``dim`` reads the eigenvalues.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        m, w, v = self.matrix, self.eigenvalues, self.eigenvectors
        if _is_real(m) and _is_real(v):
            # views of real data; only v enters products, and BLAS needs it with unit stride
            m, v = m.real, np.ascontiguousarray(v.real)
        norm = float(np.max(np.abs(w))) if w.size else 0.0
        defect = _violation(m - m.conj().T, 1e-12, norm)
        if defect is not None:
            raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds tolerance")
        if w.size:
            if np.any(w[1:] < w[:-1]):
                raise ValueError("eigenvalues must ascend")
            recon = _violation(m - (v * w) @ v.conj().T, 1e-10, norm)
            if recon is not None:
                raise ValueError(f"reconstruction residual {recon:.3e} exceeds tolerance")
            ortho = _violation(v.conj().T @ v - np.eye(self.dim), 1e-10)
            if ortho is not None:
                raise ValueError(f"eigenvector orthonormality defect {ortho:.3e}")

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def _coordinates(self, x: np.ndarray) -> np.ndarray:
        """V*x for a vector or a d x k ``x``, formed as (x*V)* so that no conjugate copy of V is made."""
        return _matmul(x.conj().T, self.eigenvectors).conj().T

    def _row_product(self, y: np.ndarray) -> np.ndarray:
        """yH for an r x d ``y``, the one product by H: Q*HQ is formed as (Q*H)Q."""
        return _matmul(y, self.matrix)

    @property
    def norm(self) -> float:
        """Spectral norm, read off the eigenvalues."""
        return float(np.max(np.abs(self.eigenvalues))) if self.eigenvalues.size else 0.0

    @property
    def spread(self) -> float:
        if not self.eigenvalues.size:
            return 0.0
        return float(self.eigenvalues[-1]) - float(self.eigenvalues[0])  # inf, with no warning, past the float range


@dataclass(frozen=True, eq=False)  # an array field does not compare as one truth value
class OrthogonalProjection:
    """Orthogonal projection P = QQ*, held as an orthonormal basis Q of its range.

    ``basis`` Q is dim x rank, checked for ||Q*Q - I|| at O(d r^2); ``dim``
    and ``rank`` are read off its shape. ``matrix`` is QQ*, formed and cached
    the first time something reads it.
    """

    basis: np.ndarray

    def __post_init__(self):
        q = self.basis
        if q.ndim != 2:
            raise DimensionMismatch(f"a projection's basis must be a 2-D array, got shape {q.shape}")
        gram = q.conj().T @ q
        # ||QQ*|| = ||Q*Q||, bounded below by its largest diagonal entry
        bound = float(np.max(gram.diagonal().real)) if self.rank else 0.0
        if _violation(gram - np.eye(self.rank), 1e-10, bound, lambda: operator_norm(gram)) is not None:
            raise ValueError("basis is not orthonormal within tolerance")

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def matrix(self) -> np.ndarray:
        q = self.basis
        p = q @ q.conj().T
        return _freeze((p + p.conj().T) / 2.0)


def eigendecompose(m) -> HermitianOperator:
    """Eigendecompose a Hermitian-within-tolerance matrix.

    Raises NotHermitian when the adjoint defect exceeds 1e-12 * (1 + ||M||),
    NonFinite on NaN/Inf entries. A real matrix, or a complex one whose
    symmetrised form has an exactly zero imaginary part, goes through the
    real symmetric solver and is never promoted to complex: the symmetrised
    matrix and the eigenvectors are stored as float64.
    """
    a = as_matrix(m)
    defect = _violation(a - a.conj().T, 1e-12, _column_norm_bound(a), lambda: operator_norm(a))
    if defect is not None:
        raise NotHermitian(f"matrix is not Hermitian: defect {defect:.3e}")
    sym = (a + a.conj().T) / 2.0
    if _is_real(sym):
        sym = np.ascontiguousarray(sym.real)
    if a.size:
        w, v = np.linalg.eigh(sym)
    else:
        w = np.zeros(0)
        v = np.zeros((0, 0), dtype=sym.dtype)
    return HermitianOperator(_freeze(sym), _freeze(w), _freeze(v))


_RATIONAL_STEPS = 60  # past this, a root still open takes bisection steps only


def arrowhead_eigendecompose(diagonal, couplings) -> HermitianOperator:
    """Eigendecompose the real arrowhead H = [[a, g*], [g, diag(w)]] in O(d^2).

    ``diagonal`` is (a, w_1, ..., w_n) and ``couplings`` is g. The
    eigenvalues are the roots of f(x) = x - a + sum_j g_j^2 / (w_j - x),
    one below the poles w, one in each gap and one above. Each root is
    held as its nearer pole plus an offset and found by ``_secular_roots``.
    The eigenvectors [1; h_j / (x_k - w_j)], normalised, use couplings h
    recomputed from the roots (Gu and Eisenstat), so they are orthonormal
    to working precision (``_secular_couplings``). The problem is first
    scaled by a power of two and deflated: a coupling within 8 eps ||H|| of
    zero gives the exact pair (w_j, e_j), and two poles closer than that
    tolerance allows are merged by a Givens rotation. The solver certifies
    its result in O(d) (``_arrowhead_certificate``), with nothing d x d
    formed: it keeps the eigenvalues, the first row of V and the data that
    V is built from, and forms ``matrix`` and ``eigenvectors`` on first
    read. Bounds on the reconstruction and orthonormality defects within
    0.99 of their tolerances skip the dense checks; anything else forms
    both and takes them.
    """
    diag = np.array(diagonal, dtype=float)
    g = np.array(couplings, dtype=float)
    if diag.ndim != 1 or not diag.size or g.shape != (diag.size - 1,):
        raise DimensionMismatch(f"an arrowhead needs n + 1 diagonal entries and n couplings, got {diag.shape}, {g.shape}")
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(g))):
        raise NonFinite("arrowhead entries must be finite")
    dim = diag.size
    # an exact power-of-two scaling to largest entry in [1/2, 1): no square overflows or underflows
    shift = -int(np.frexp(max(np.max(np.abs(diag)), np.max(np.abs(g), initial=0.0)))[1])
    head = float(np.ldexp(diag[0], shift))
    order = np.argsort(diag[1:], kind="stable")
    poles, z = np.ldexp(diag[1:][order], shift), np.ldexp(g[order], shift)
    tol = 8.0 * _EPS * max(abs(head), np.max(np.abs(poles), initial=0.0), np.max(np.abs(z), initial=0.0))

    with np.errstate(all="ignore"):
        live = np.abs(z) > tol
        rotations = _merge_close_poles(poles, z, live, tol)
        kept = np.flatnonzero(live)
        base, tau = _secular_roots(head, poles[kept], z[kept] ** 2)
        h, norms = _secular_couplings(poles[kept], z[kept], base, tau)
        backward, theta = _arrowhead_certificate(head, poles, z, live, base, tau, h, len(rotations), tol)
    values = base + tau  # ascending
    first_row = 1.0 / norms
    columns = None
    if kept.size < dim - 1:
        values = np.concatenate([values, poles[~live]])
        first_row = np.concatenate([first_row, np.zeros(dim - 1 - kept.size)])
        columns = np.argsort(values, kind="stable")
        values, first_row = values[columns], first_row[columns]
    with np.errstate(over="ignore"):
        # ||M - V diag(x) V*||: the backward error, (2 theta + theta^2) max|x| and the rounding of x = base + tau,
        # unscaled, and what unscaling x may lose to underflow; 2^-shift is inf in the top octave of the float
        # range, which takes the dense checks
        ortho = 2.0 * theta + theta * theta
        recon = (backward + (ortho + _EPS) * float(np.max(np.abs(values)))) * np.ldexp(1.0, -shift)
        values = np.ldexp(values, -shift)
    spectral = (poles[kept], base, tau, h, norms, kept, live, rotations, columns, order)
    arrowhead = _Arrowhead(diag, g, _freeze(values), _freeze(first_row), spectral)
    return _certified(arrowhead, float(recon) + _SMALLEST_NORMAL, ortho)


class _Arrowhead(HermitianOperator):
    """The operator ``arrowhead_eigendecompose`` builds: its eigenvalues and ``first_row`` = V[0] are held, and
    ``matrix`` and ``eigenvectors`` are formed, frozen, on first read (``_arrowhead_vectors``).

    V*x for an x along e_0 is read off the first row (``_coordinates``) and yH off the arrow (``_row_product``),
    so survival, classify and converge for E = e_0 e_0* form neither; only gibbs' transforms V*AV read V.
    """

    def __init__(self, diagonal, couplings, values, first_row, spectral):  # no dense checks: see ``_certified``
        vars(self).update(eigenvalues=values, first_row=first_row, _arrow=(diagonal, couplings), _spectral=spectral)

    def _coordinates(self, x: np.ndarray) -> np.ndarray:
        """V*x as first_row (x) x[0], with nothing d x d formed, for an x of length d that is zero past row 0."""
        if len(x) == self.dim and not np.any(x[1:]):
            return np.multiply.outer(self.first_row, x[0])
        return super()._coordinates(x)

    def _row_product(self, y: np.ndarray) -> np.ndarray:
        """yH = [y_0 a + y'g, y_0 g^T + y' diag(w)] from the arrow, in O(dr) with nothing d x d formed."""
        diagonal, couplings = self._arrow
        head, rest = y[:, :1], y[:, 1:]
        return np.hstack([head * diagonal[0] + rest @ couplings[:, None], head * couplings + rest * diagonal[1:]])

    @cached_property
    def matrix(self) -> np.ndarray:
        diagonal, couplings = self._arrow
        matrix = np.diag(diagonal)
        matrix[0, 1:] = couplings
        matrix[1:, 0] = couplings
        return _freeze(matrix)

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        return _freeze(_arrowhead_vectors(*self._spectral))


def _arrowhead_vectors(poles, base, tau, h, norms, kept, live, rotations, columns, order) -> np.ndarray:
    """V of the arrowhead from the solver's data: the secular block for the kept poles, columns [1; h_j / (x_k -
    w_j)] over the norms ``_secular_couplings`` summed, then the deflated pairs, the merges' rotations, the
    ascending column order and the poles' input order."""
    dim = live.size + 1
    vectors = np.empty((kept.size + 1, kept.size + 1))
    vectors[0] = 1.0
    with np.errstate(all="ignore"):  # as in the solver: a root on its pole fails the certificate, not with a warning
        for start in range(0, poles.size, _BLOCK):
            rows = slice(start, start + _BLOCK)
            np.divide(h[rows, None], (base - poles[rows, None]) + tau, out=vectors[1:][rows])
        vectors /= norms
    if columns is not None:
        block, vectors = vectors, np.zeros((dim, dim))
        vectors[np.ix_(np.concatenate([[0], 1 + kept]), np.arange(kept.size + 1))] = block
        vectors[1 + np.flatnonzero(~live), np.arange(kept.size + 1, dim)] = 1.0
        for p, j, c, s in reversed(rotations):  # u_p = c e_p - s e_j, u_j = s e_p + c e_j
            vp, vj = vectors[1 + p].copy(), vectors[1 + j].copy()
            vectors[1 + p] = c * vp + s * vj
            vectors[1 + j] = c * vj - s * vp
        vectors = vectors[:, columns]
    if np.any(order != np.arange(dim - 1)):
        vectors[1 + order] = vectors[1:].copy()
    return vectors


# The certificate accepts this far inside a tolerance: it bounds the exact defects, and the margin
# leaves room for the rounding of the dense products they stand in for, of order d eps.
_CERTIFIED_MARGIN = 0.99


def _certified(h: _Arrowhead, recon: float, ortho: float) -> HermitianOperator:
    """``h`` as it is, with no dense checks, when ``recon`` and ``ortho`` certify it; else its formed arrays, checked.

    ``recon`` >= ||M - V diag(w) V*|| and ``ortho`` >= ||V*V - I|| within
    0.99 of the dense checks' tolerances accept; anything else, nan and a
    non-finite spectrum included, takes the dense checks.
    """
    limits = (_CERTIFIED_MARGIN * tol(1e-10, h.norm), _CERTIFIED_MARGIN * tol(1e-10))
    if h.norm < math.inf and recon <= limits[0] and ortho <= limits[1]:
        return h
    return HermitianOperator(h.matrix, h.eigenvalues, h.eigenvectors)


def _merge_close_poles(poles: np.ndarray, z: np.ndarray, live: np.ndarray, tol: float) -> list:
    """Deflate each live pole that a Givens rotation can fold into the next one (dlaed2's rule).

    Consecutive live poles w_p < w_j with couplings z_p, z_j are replaced
    by u_p = c e_p - s e_j (c = z_j / r, s = z_p / r, r = |(z_p, z_j)|), which
    carries no coupling, and u_j = s e_p + c e_j, which carries r; the
    dropped entry is c s (w_j - w_p), merged when at most ``tol``. Updates
    ``poles``, ``z`` and ``live`` in place and returns the rotations in order.
    """
    idx = np.flatnonzero(live)
    t, zp, zj = np.diff(poles[idx]), z[idx[:-1]], z[idx[1:]]
    if not np.any(np.abs(t * zp * zj) <= tol * (zp * zp + zj * zj)):
        return []  # no first merge, so none at all
    rotations = []
    p = idx[0]
    for j in idx[1:]:
        r = math.hypot(z[p], z[j])
        c, s = z[j] / r, z[p] / r
        wp, wj = poles[p], poles[j]
        if abs((wj - wp) * c * s) <= tol:
            poles[p] = min(max(c * c * wp + s * s * wj, wp), wj)
            poles[j] = min(max(s * s * wp + c * c * wj, wp), wj)
            z[p], z[j], live[p] = 0.0, r, False
            rotations.append((p, j, c, s))
        p = j
    return rotations


def _secular_sums(
    poles: np.ndarray, z2: np.ndarray, roots: np.ndarray, origin: np.ndarray, tau: np.ndarray
) -> np.ndarray:
    """Rows sum z2 R, sum_left z2 R^2, sum_right z2 R^2 and sum z2 |R|, R_j = 1 / (w_j - x), x = w_origin + tau.

    w_j - x is formed as (w_j - w_origin) - tau, so it keeps its relative
    accuracy next to the origin pole. x lies between poles k - 1 and k for
    its root k (``roots``, ascending), so the poles j < k lie left of it (R
    < 0) and the rest right; the two sides are summed apart, so neither
    side's share is lost to the other's, and sum z2 |R| is their difference.
    In a block of rows, the columns left of every row's root and right of
    every row's root are plain products; only those between take a mask.
    """
    out = np.empty((4, tau.size))
    buffer = np.empty((min(tau.size, _BLOCK), poles.size))  # refilled in place, as in ``_secular_couplings``
    for start in range(0, tau.size, _BLOCK):
        rows = slice(start, start + _BLOCK)
        k = roots[rows]
        a, b = k[0], k[-1]
        r = np.subtract(poles, poles[origin[rows], None], out=buffer[: k.size])
        r -= tau[rows, None]
        np.reciprocal(r, out=r)
        left_of = np.arange(a, b) < k[:, None]
        left, right = _sides(r, z2, a, b, left_of)
        out[0, rows], out[3, rows] = left + right, right - left
        r *= r
        out[1, rows], out[2, rows] = _sides(r, z2, a, b, left_of)
    return out


def _sides(r: np.ndarray, z2: np.ndarray, a: int, b: int, left_of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, (sum of r_j z2_j over columns j < a and the masked ones of [a, b), sum over the rest)."""
    between = np.where(left_of, r[:, a:b], 0.0)
    left = r[:, :a] @ z2[:a] + between @ z2[a:b]
    between -= r[:, a:b]  # minus the right side's share, exactly
    return left, r[:, b:] @ z2[b:] - between @ z2[a:b]


def _secular_roots(head: float, poles: np.ndarray, z2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The m + 1 roots of f(x) = x - head + sum_j z2_j / (w_j - x) for ascending poles w.

    Root k lies between poles k - 1 and k; the outer two lie within |z| of
    min(head, w_0) and max(head, w_m-1) (Weyl), and their brackets reach
    twice that far, so no root sits on an unevaluated bracket end. Each root
    is returned as w_origin[k] + tau[k], with origin its nearer pole, picked
    by the sign of f at the gap's midpoint. All roots iterate in one
    vectorised loop. Each step fits the two-pole model of Li's middle way to
    f and f' and takes its root, as a correction to the iterate or, when it
    lies much nearer the origin pole, as an offset from that pole, where
    the small root carries no cancellation. From the midpoint, that offset
    comes from ``dlaed4``'s start instead (Li, LAPACK Working Note 89): the
    two neighbour poles' own terms, with the rest of f frozen at the
    midpoint. A step that leaves the root's bracket is a bisection, and
    after ``_RATIONAL_STEPS`` every step is. A root stops when |f| <= 8 eps
    (|w_origin - head| + |tau| + sum |z2_j / (w_j - x)|), when no double
    lies inside its bracket, so every root stops, or, past the midpoint,
    with a step that is no bisection and moves tau by at most sqrt(eps)
    |tau|: the iteration converges quadratically, so that step leaves an
    error of order eps |tau|, which the certificate bounds through the
    recomputed couplings.
    """
    m = poles.size
    if not m:
        return np.zeros(1), np.array([head])
    k = np.arange(m + 1)
    gap = np.diff(poles)
    reach = math.sqrt(float(np.sum(z2)))
    # start each root in the frame of its left pole (pole 0 for root 0), at its bracket's midpoint
    origin = np.clip(k - 1, 0, m - 1)
    lo = np.concatenate([[min(head - poles[0], 0.0) - 2.0 * reach], np.zeros(m)])
    hi = np.concatenate([[0.0], gap, [max(head - poles[-1], 0.0) + 2.0 * reach]])
    tau = 0.5 * (lo + hi)
    left, right = origin, np.minimum(k, m - 1)  # neighbour poles, masked at the ends
    active, step = k, 0
    while active.size:
        o, t = origin[active], tau[active]
        s1, s2_left, s2_right, s4 = _secular_sums(poles, z2, active, o, t)
        if not step:
            # a root right of its gap's midpoint moves to the frame of its right pole
            flip = ((poles[o] - head) + t + s1 < 0) & (k > 0) & (k < m)
            move = np.where(flip, hi, 0.0)  # the gap
            origin, tau, lo, hi = origin + flip, tau - move, lo - move, hi - move
            o, t = origin, tau
        f = (poles[o] - head) + t + s1
        lo_a = np.where(f < 0, t, lo[active])
        hi_a = np.where(f > 0, t, hi[active])
        mid = 0.5 * (lo_a + hi_a)
        done = (np.abs(f) <= 8.0 * _EPS * (np.abs(poles[o] - head) + np.abs(t) + s4)) | (mid <= lo_a) | (mid >= hi_a)
        # Li's middle way: the model c + s / (wl - y) + r / (wr - y) through f and f' at the
        # iterate, with the linear term riding on the far side (as a pole at -inf for root 0,
        # at +inf for root m); each side's coefficient matches that side's part of f'
        dl, dr = poles[left[active]] - poles[o], poles[right[active]] - poles[o]  # one is 0
        gl, gr = dl - t, dr - t  # the iterate's distances to the neighbour poles
        lin_left = o == active  # the origin is the right neighbour
        d_left, d_right = lin_left + s2_left, ~lin_left + s2_right
        # its root as a correction to t, accurate near convergence
        inv_l = np.where(active > 0, 1.0 / gl, 0.0)
        inv_r = np.where(active < m, 1.0 / gr, 0.0)
        qa = f * inv_l * inv_r - d_left * inv_r - d_right * inv_l
        step_to = t + _root_between(qa, f * (inv_l + inv_r) - d_left - d_right, f, lo_a - t, hi_a - t)
        # and as an offset from the origin pole, accurate when it lies much nearer to it than t
        outer = (active == 0) | (active == m)
        c = f - gl * d_left - gr * d_right
        sl, sr, w = gl * gl * d_left, gr * gr * d_right, t * t * (s2_left + s2_right)
        jump_to = _root_between(
            np.where(outer, 1.0, c),
            np.where(outer, t - f - w / t, c * (dl + dr) + sl + sr),
            np.where(outer, -w, sl * dr + sr * dl),
            lo_a,
            hi_a,
        )
        if not step:
            # dlaed4's start in place of the offset step: like it, taken when it lies within half the midpoint's
            # offset of the origin pole, where the middle way's share of the far poles' slope misleads most
            zl, zr = z2[left], z2[right]
            c = f - zl / gl - zr / gr
            start = _root_between(c, c * (dl + dr) + zl + zr, zl * dr + zr * dl, lo_a, hi_a)
            jump_to = np.where(outer, jump_to, start)
        new = np.where(np.abs(jump_to) < 0.5 * np.abs(t), jump_to, step_to)
        bisect = ~((new > lo_a) & (new < hi_a)) | (step >= _RATIONAL_STEPS)
        # past step 0 the iteration converges quadratically: a step this small leaves an error of order eps |tau|
        close = (np.abs(new - t) <= _SQRT_EPS * np.abs(t)) & ~bisect & (step > 0)
        tau[active] = np.where(done, t, np.where(bisect, mid, new))
        lo[active], hi[active] = lo_a, hi_a
        active, step = active[~(done | close)], step + 1
    return poles[origin], tau


def _root_between(a: np.ndarray, b: np.ndarray, c: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The root of a y^2 - b y + c = 0 inside (lo, hi), else nan; both roots are formed without cancellation."""
    q = 0.5 * (b + np.copysign(np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0)), b))
    y1, y2 = q / a, c / q
    return np.where((y1 > lo) & (y1 < hi), y1, np.where((y2 > lo) & (y2 < hi), y2, np.nan))


def _secular_couplings(
    poles: np.ndarray, z: np.ndarray, base: np.ndarray, tau: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The couplings h recomputed from the roots x_k = base_k + tau_k, and the norms of the columns
    [1; h_j / (x_k - w_j)].

    h_j^2 = -prod_k (x_k - w_j) / prod_{i != j} (w_i - w_j), as products of
    ratios in (0, 1): pole i < j over root i + 1, pole i > j over root i,
    and the outer roots' two factors apart. In a block of rows j, the poles
    left of every row and right of every row take plain quotients; only
    the block's own square takes a mask. h_j takes the sign of z_j. The
    norms are summed pairwise, so the first row's weights sum to 1 as
    closely as ``eigh``'s.
    """
    m = poles.size
    h = np.empty(m)
    starts = range(0, m, _BLOCK)
    squares = np.ones((len(starts) + 1, m + 1))  # row 0 is the first row squared
    # one set of block buffers, refilled in place: fresh ones would fault their pages in on every block
    dist_buffer, gaps_buffer, ratio_buffer = np.empty((_BLOCK, m + 1)), np.empty((_BLOCK, m)), np.empty((_BLOCK, m))
    for b, start in enumerate(starts, 1):
        stop = min(start + _BLOCK, m)
        rows = np.arange(start, stop)
        dist = np.subtract(base, poles[rows, None], out=dist_buffer[: rows.size])
        dist += tau  # x_k - w_j
        gaps = np.subtract(poles, poles[rows, None], out=gaps_buffer[: rows.size])
        ratio = ratio_buffer[: rows.size]
        np.divide(dist[:, 1 : start + 1], gaps[:, :start], out=ratio[:, :start])
        np.divide(dist[:, stop:m], gaps[:, stop:], out=ratio[:, stop:])
        own = np.where(rows[None, :] < rows[:, None], dist[:, start + 1 : stop + 1], dist[:, start:stop])
        np.divide(own, gaps[:, start:stop], out=ratio[:, start:stop])
        ratio[np.arange(rows.size), rows] = 1.0
        h[rows] = np.copysign(np.sqrt(-dist[:, 0] * dist[:, m] * np.prod(ratio, axis=1)), z[rows])
        np.divide(h[rows, None], dist, out=dist)
        dist *= dist
        squares[b] = _sum_rows(dist)
    return h, np.sqrt(_sum_rows(squares))


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """Column sums by pairwise halving over the rows (overwrites ``a``): O(log n) rounding, not O(n)."""
    n = a.shape[0]
    while n > 1:
        half = n // 2
        a[:half] += a[n - half : n]
        n -= half
    return a[0]


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), u = eps / 2: the relative rounding of n operations in any order."""
    return 0.5 * n * _EPS / (1.0 - 0.5 * n * _EPS)


def _arrowhead_certificate(head, poles, z, live, base, tau, h, merges: int, tol: float) -> tuple[float, float]:
    """(beta, theta) in O(d) with ||A - A'|| <= beta and ||V - U|| <= theta, for the scaled, sorted arrowhead A.

    Roots x_k = base_k + tau_k (exact sums) that strictly interlace the kept
    poles w are the eigenvalues of the arrowhead A' with head sum x - sum w,
    poles w and couplings h'_j^2 = -prod_k (x_k - w_j) / prod_{i != j} (w_i
    - w_j), rotated back by each merge's exact rotation (c, s) / |(c, s)|;
    U holds its orthonormal eigenvectors. Each rounding, u = eps / 2, counts:
    - ``dist`` (``_secular_couplings``) is off by u (1 + rho_k) + u^2 rho_k,
      rho_k = D / (D - |tau_k|) with D the gap on tau's side (1 at the ends).
    - ``h`` there takes m + 1 distances, m - 1 pole differences, m - 1
      divisions, m + 1 products and a root: h_j = h'_j (1 + eta_j), |eta_j|
      <= eta = sqrt(exp(sum log(1 + e_i))) (1 + u) - 1.
    - V (``_arrowhead_vectors``): V_jk = U_jk (1 + eta_j)(1 + phi_jk)(1 + nu_k), phi_k
      for the distance and two divisions, nu_k for the column norm (squares,
      ``_sum_rows`` levels, root): ||V - U|| <= eta (1 + t)(1 + nu) + t (1 +
      nu) + nu, t = ||U o Phi||_F <= sqrt(sum phi_k^2).
    - each merge (``_merge_close_poles``) drops c s (w_j - w_p) <= tol and
      rounds two poles (gamma_12, |w| < 1) and two couplings (gamma_14 ||z||);
      its row updates add 2 gamma_7 (1 + theta).
    - beta adds |a - a'| (one ``math.fsum``), ||z - h'|| <= ||z - h|| + eta /
      (1 - eta) ||h||, the deflated couplings and 2^-1075 per scaled entry.
    Failed interlacing gives (inf, inf), eta >= 1 nan; every sum is widened by its own rounding.
    """
    u, lu = 0.5 * _EPS, -math.log1p(-0.5 * _EPS)  # lu >= |log(1 + d)| for |d| <= u
    w, m = poles[live], base.size - 1
    beta, theta = abs(math.fsum(np.concatenate([[head], w, -base, -tau]).tolist())), 0.0
    if m:
        gap, offset = np.diff(w), tau[1:m]
        reach = gap * (1.0 - _EPS)  # at most the exact gap
        sides = ((base[1:m] == w[:-1]) & (offset > 0.0)) | ((base[1:m] == w[1:]) & (offset < 0.0))
        ends = base[0] == w[0] and base[m] == w[-1] and tau[0] < 0.0 < tau[m]
        if not (ends and np.all(gap > 0.0) and np.all(sides & (np.abs(offset) < reach))):
            return math.inf, math.inf
        rho = np.ones(m + 1)
        rho[1:m] = reach / (reach - np.abs(offset)) * (1.0 + 2.0 * _EPS)
        lam = -np.log1p(-u * (1.0 + rho) * (1.0 + _EPS))  # each distance's relative error, as a log bound
        eta = float(np.expm1(0.5 * (np.sum(lam) + (3 * m - 1) * lu) + lu))
        phi = np.expm1(2.0 * lu + lam)
        levels = math.ceil(math.log2(min(m, _BLOCK))) + math.ceil(math.log2(math.ceil(m / _BLOCK) + 1))
        nu = float(np.expm1(-np.log1p(-eta) + np.max(lam) + 2.5 * lu - 0.5 * math.log1p(-_gamma(levels))))
        t = math.sqrt(float(phi @ phi))
        theta = eta * (1.0 + t) * (1.0 + nu) + t * (1.0 + nu) + nu
        beta += float(np.linalg.norm(z[live] - h)) + eta / (1.0 - eta) * float(np.linalg.norm(h))
    beta += float(np.linalg.norm(z[~live])) + z.size * _SMALLEST_NORMAL
    if merges:
        r = float(np.linalg.norm(z)) * (1.0 + _gamma(14 * merges))  # at least every coupling a merge formed
        beta += merges * (tol * (1.0 + _gamma(8)) + _gamma(12) + _gamma(14) * r)
        theta = float(np.expm1(np.log1p(theta) + merges * math.log1p(2.0 * _gamma(7))))
    grow = 1.0 + _gamma(2 * z.size + 32)
    return grow * beta, grow * theta


def _checked_time(z: complex, scale: float) -> complex:
    """z as a complex time at which exp(i z w), |w| <= scale, can be formed:
    finite (else NonFinite), with |Im z| * scale <= EXP_LIMIT and |z| * scale
    * eps < 1 (not nan), past which the phases z w keep no correct digit (else Overflow)."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise NonFinite("time argument must be finite")
    if abs(z.imag) * scale > EXP_LIMIT:
        raise Overflow(f"continuation exponent {abs(z.imag) * scale:.3e} exceeds {EXP_LIMIT}")
    if not abs(z) * scale * _EPS < 1.0:
        raise Overflow(f"phase magnitude {abs(z) * scale:.3e} leaves no correct digit in exp(i z H)")
    return z


def phase_factors(h: HermitianOperator, z: complex) -> np.ndarray:
    """exp(i z w) over the eigenvalues w of H: exp(i z H) in its eigenbasis.

    z is checked by ``_checked_time`` at the scale max|eigenvalue|.
    """
    return np.exp(1j * _checked_time(z, h.norm) * h.eigenvalues)


def evolve(h: HermitianOperator, z: complex) -> np.ndarray:
    """exp(i z H) through the cached eigenbasis; unitary for real z."""
    v = h.eigenvectors
    return _matmul(v * phase_factors(h, z), v.conj().T)


def expm(m) -> np.ndarray:
    """General matrix exponential: ``scipy.linalg.expm`` (scaling and squaring
    with Pade error control) of the validated complex matrix."""
    import scipy.linalg

    return scipy.linalg.expm(as_complex_matrix(m))


def projection_from_span(vectors) -> OrthogonalProjection:
    """Orthogonal projection onto the span of the given vectors.

    Rank equals the numerical dimension of the span (singular values below
    1e-10 of the largest are treated as zero). Raises ZeroSpan when every
    input is numerically zero.
    """
    cols = np.column_stack([np.asarray(v, dtype=complex) for v in vectors])
    if not np.all(np.isfinite(cols.view(float))):
        raise NonFinite("spanning vectors contain non-finite entries")
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    if not s.size or s[0] <= tol(1e-300):
        raise ZeroSpan("all spanning vectors are numerically zero")
    keep = s > tol(1e-10) * s[0]
    return OrthogonalProjection(_freeze(u[:, keep]))


def identity_projection(dim: int) -> OrthogonalProjection:
    return OrthogonalProjection(_freeze(np.eye(dim, dtype=complex)))


def check_dims(*operands) -> int:
    """Assert all operands act on the same dimension; return it."""
    dims = [
        op.dim if isinstance(op, (HermitianOperator, OrthogonalProjection)) else np.asarray(op).shape[0]
        for op in operands
    ]
    if len(set(dims)) > 1:
        raise DimensionMismatch(f"operands have mismatched dimensions {dims}")
    return dims[0]
