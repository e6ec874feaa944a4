"""Dense operator algebra, real where the data are real.

Hermitian eigendecomposition with cached spectra, matrix exponentials for
real and complex time, operator norms, PSD square roots, and orthogonal
projections built from spanning sets. Everything is immutable after
construction and safe for concurrent read-only use. scipy.linalg is
imported inside ``expm``, by the non-Hermitian branches that call it.
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
    NotPSD,
    Overflow,
    ZeroSpan,
)
from .numeric import EXP_LIMIT, tol

__all__ = [
    "HermitianOperator",
    "OrthogonalProjection",
    "eigendecompose",
    "evolve",
    "expm",
    "phase_factors",
    "operator_norm",
    "psd_sqrt",
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


def as_complex_matrix(m, square: bool = True) -> np.ndarray:
    """Validate and return a finite complex dense matrix, square unless ``square`` is false."""
    return as_matrix(m, square).astype(complex, copy=False)


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


def operator_norm(m) -> float:
    """Largest singular value of a 2-D matrix; zero exactly for the zero (or empty) matrix.

    A square matrix takes the SVD. A non-square one takes the square root of
    the largest eigenvalue of its smaller-side Gram matrix (``eigvalsh``),
    after dividing by its largest entry magnitude so that squaring can
    neither overflow nor underflow at the top of the spectrum.
    """
    a = as_complex_matrix(m, square=False)
    if a.size == 0 or not np.any(a):
        return 0.0
    rows, cols = a.shape
    if rows == cols:
        return float(np.linalg.norm(a, 2))
    scale = float(np.max(np.abs(a)))
    if scale < _SMALLEST_NORMAL:
        # complex division multiplies by 1 / scale, which overflows for a subnormal
        # scale; a power of two lifts the entries exactly
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


@dataclass(frozen=True)
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
            if np.any(np.diff(w) < 0):
                raise ValueError("eigenvalues must ascend")
            recon = _violation(m - (v * w) @ v.conj().T, 1e-10, norm)
            if recon is not None:
                raise ValueError(f"reconstruction residual {recon:.3e} exceeds tolerance")
            ortho = _violation(v.conj().T @ v - np.eye(self.dim), 1e-10)
            if ortho is not None:
                raise ValueError(f"eigenvector orthonormality defect {ortho:.3e}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def norm(self) -> float:
        """Spectral norm, read off the eigenvalues."""
        return float(np.max(np.abs(self.eigenvalues))) if self.eigenvalues.size else 0.0

    @property
    def spread(self) -> float:
        if not self.eigenvalues.size:
            return 0.0
        return float(self.eigenvalues[-1] - self.eigenvalues[0])


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
    matrix and the eigenvectors are stored as float64. A read-only input that
    is exactly Hermitian is its own symmetrisation and is stored uncopied.
    """
    a = as_matrix(m)
    defect = _violation(a - a.conj().T, 1e-12, _column_norm_bound(a), lambda: operator_norm(a))
    if defect is not None:
        raise NotHermitian(f"matrix is not Hermitian: defect {defect:.3e}")
    if a.flags.writeable or not np.array_equal(a, a.conj().T):
        sym = (a + a.conj().T) / 2.0
    else:
        sym = a
    if _is_real(sym):
        sym = np.ascontiguousarray(sym.real)
    if a.size:
        w, v = np.linalg.eigh(sym)
    else:
        w = np.zeros(0)
        v = np.zeros((0, 0), dtype=sym.dtype)
    return HermitianOperator(_freeze(sym), _freeze(w), _freeze(v))


def _checked_time(z: complex, scale: float) -> complex:
    """z as a complex time at which exp(i z w), |w| <= scale, can be formed:
    finite (else NonFinite), with |Im z| * scale <= EXP_LIMIT and |z| * scale
    * eps < 1, past which the phases z w keep no correct digit (else Overflow)."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise NonFinite("time argument must be finite")
    if abs(z.imag) * scale > EXP_LIMIT:
        raise Overflow(f"continuation exponent {abs(z.imag) * scale:.3e} exceeds {EXP_LIMIT}")
    if abs(z) * scale * np.finfo(float).eps >= 1.0:
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


def _expm_general(m: np.ndarray) -> np.ndarray:
    # scaling-and-squaring with Pade error control
    import scipy.linalg

    return scipy.linalg.expm(m)


def expm(m) -> np.ndarray:
    """General matrix exponential.

    Hermitian and normal inputs go through exact diagonalization; everything
    else through scaling-and-squaring. Normality test:
    ||M M* - M* M|| <= 1e-12 ||M||^2.
    """
    a = as_complex_matrix(m)
    if a.size == 0:
        return np.zeros((0, 0), dtype=complex)
    norm = operator_norm(a)
    if norm == 0.0:
        return np.eye(a.shape[0], dtype=complex)
    adj = a.conj().T
    if operator_norm(a - adj) <= tol(1e-12, norm):
        w, v = np.linalg.eigh((a + adj) / 2.0)
        return (v * np.exp(w)) @ v.conj().T
    if operator_norm(a @ adj - adj @ a) <= tol(1e-12) * norm**2:
        # normal: complex Schur form is diagonal up to roundoff
        import scipy.linalg

        t, q = scipy.linalg.schur(a, output="complex")
        return (q * np.exp(np.diag(t))) @ q.conj().T
    return _expm_general(a)


def _from_spectrum(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """V diag(w) V*, symmetrized."""
    m = (v * w) @ v.conj().T
    return (m + m.conj().T) / 2.0


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
