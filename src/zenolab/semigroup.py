"""Degenerate product formulas for contractive semigroups and form sums.

The non-unitary side of the story: generators whose numerical range sits in
a complex sector, products of their semigroups with a projection, and sums
of subspace-supported quadratic forms with the associated product formula.

Both product formulas hand ``zeno.product_convergence_report`` the one
product type, ``ZenoProduct``, with the target built in the products'
frame: the degenerate products sit in the frame (I, Q) with d x r cores,
Q the basis of range(E), so each distance is a d x r norm; the form-sum
products and their target sit in the frame (I, I).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DimensionMismatch, NotPSD, NotSectorial
from .numeric import tol
from .operators import (
    HermitianOperator,
    OrthogonalProjection,
    _freeze,
    _matmul,
    as_complex_matrix,
    check_dims,
    eigendecompose,
    expm,
    identity_projection,
    operator_norm,
)
from .zeno import ZenoConvergenceReport, ZenoProduct, ZenoSchedule, _normalize_schedule, product_convergence_report

__all__ = [
    "SectorialOperator",
    "DegenerateForm",
    "sector_margin",
    "sectorial_operator",
    "degenerate_form",
    "full_support_form",
    "degenerate_product",
    "form_sum_operator",
    "kato_form_sum_product",
]


def sector_margin(a, angle: float) -> float:
    """Worst violation of the sector constraint on the numerical range.

    Returns max over unit vectors of |Im <v,Av>| - tan(pi/2 - angle) Re <v,Av>,
    evaluated exactly through the extreme eigenvalues of the Hermitian parts;
    a value <= 0 certifies sectoriality at this angle.
    """
    m = as_complex_matrix(a)
    if not (0.0 < angle <= math.pi / 2):
        raise ValueError("angle must lie in (0, pi/2]")
    beta = math.pi / 2 - angle
    re_part = (m + m.conj().T) / 2.0
    im_part = (m - m.conj().T) / 2.0j
    slope = math.tan(beta)
    worst = -math.inf
    for sign in (1.0, -1.0):
        form = sign * im_part - slope * re_part
        w = np.linalg.eigvalsh((form + form.conj().T) / 2.0)
        worst = max(worst, float(w[-1]) if w.size else 0.0)
    return worst


@dataclass(frozen=True, eq=False)  # an array field does not compare as one truth value
class SectorialOperator:
    """Generator whose semigroup exp(-zA) is contractive in a sector of this angle."""

    matrix: np.ndarray
    angle: float
    margin: float

    def __post_init__(self):
        if self.margin > tol(1e-10, operator_norm(self.matrix)):
            raise NotSectorial(
                f"numerical range violates the sector by {self.margin:.3e} at angle {self.angle:.4f}"
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def sectorial_operator(a, angle: float) -> SectorialOperator:
    """Validate the sector condition and package the generator."""
    m = _freeze(as_complex_matrix(a).copy())  # a private copy: the caller's array stays writeable
    return SectorialOperator(m, float(angle), sector_margin(m, angle))


@dataclass(frozen=True, eq=False)  # an array field does not compare as one truth value
class DegenerateForm:
    """Closed semibounded quadratic form: a PSD operator supported on a subspace.

    Every closed form on a finite-dimensional space is of this shape; the
    semiboundedness shift is normalized away so the operator part is PSD.
    """

    support: OrthogonalProjection
    psd_part: HermitianOperator

    def __post_init__(self):
        p = self.support.matrix
        a = self.psd_part.matrix
        norm = self.psd_part.norm
        if operator_norm(a - p @ a @ p) > tol(1e-10, norm):
            raise ValueError("form operator leaks outside its support")
        if self.psd_part.eigenvalues.size and float(self.psd_part.eigenvalues[0]) < -tol(1e-10, norm):
            raise NotPSD("form operator has a negative eigenvalue on its support")

    @property
    def dim(self) -> int:
        return self.support.dim


def degenerate_form(support: OrthogonalProjection, matrix) -> DegenerateForm:
    """Build a form from a support projection and a (to-be-compressed) PSD matrix."""
    a = as_complex_matrix(matrix)
    check_dims(support, a)
    c = support.matrix @ a @ support.matrix
    return DegenerateForm(support, eigendecompose((c + c.conj().T) / 2.0))


def full_support_form(matrix) -> DegenerateForm:
    a = as_complex_matrix(matrix)
    return degenerate_form(identity_projection(a.shape[0]), a)


def form_semigroup(form: DegenerateForm, t: float) -> np.ndarray:
    """exp(-t a) realized as exp(-t A) P(K): identity off the support is cut away.

    exp(-t A) = V diag(exp(-t w)) V* comes from the eigendecomposition the
    form already holds; A is PSD, so a large t only sends factors to zero.
    """
    w, v = form.psd_part.eigenvalues, form.psd_part.eigenvectors
    return _matmul(_matmul(v * np.exp(-t * w), v.conj().T), form.support.matrix)


def degenerate_product(
    a: SectorialOperator,
    e: OrthogonalProjection,
    t: float,
    n_schedule: ZenoSchedule | Iterable[int] | None = None,
) -> ZenoConvergenceReport:
    """Products [exp(-tA/n) E]^n compared against exp(-t EAE) E.

    With Q = e.basis and S = exp(-tA/n) they are SQ (Q*SQ)^(n-1) Q*, an r x r
    power, held as the d x r core SQ (Q*SQ)^(n-1) in the frame (I, Q),
    against Q exp(-t Q*AQ) Q*, held as the core Q exp(-t Q*AQ) in that frame.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    check_dims(a.matrix, e)
    sched = _normalize_schedule(n_schedule)
    q = e.basis
    qh = q.conj().T
    eye = np.eye(e.dim, dtype=complex)
    target = ZenoProduct(eye, q @ expm(-t * (qh @ a.matrix @ q)), q)

    def step_product(n: int) -> ZenoProduct:
        sq = expm(-(t / n) * a.matrix) @ q
        return ZenoProduct(eye, sq @ np.linalg.matrix_power(qh @ sq, n - 1), q)

    return product_convergence_report(step_product, target, sched.n_values)


def form_sum_operator(a: DegenerateForm, b: DegenerateForm) -> DegenerateForm:
    """Sum of two forms on the intersection of their supports.

    The intersection is read off the nullspace of (I - P_a) + (I - P_b);
    eigenvalues below 1e-10 count as zero. An empty intersection yields the
    zero form on the zero subspace.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"forms live on dimensions {a.dim} != {b.dim}")
    eye = np.eye(a.dim, dtype=complex)
    gap = (eye - a.support.matrix) + (eye - b.support.matrix)
    w, v = np.linalg.eigh((gap + gap.conj().T) / 2.0)
    support = OrthogonalProjection(_freeze(v[:, w <= tol(1e-10)]))
    total = a.psd_part.matrix + b.psd_part.matrix
    return degenerate_form(support, total)


def kato_form_sum_product(
    a: DegenerateForm,
    b: DegenerateForm,
    t: float,
    n_schedule: ZenoSchedule | Iterable[int] | None = None,
) -> ZenoConvergenceReport:
    """Alternating products [exp(-ta/n) exp(-tb/n)]^n against exp(-t(a+b))."""
    if t <= 0:
        raise ValueError("t must be positive")
    if a.dim != b.dim:
        raise DimensionMismatch(f"forms live on dimensions {a.dim} != {b.dim}")
    sched = _normalize_schedule(n_schedule)
    eye = np.eye(a.dim, dtype=complex)
    target = ZenoProduct(eye, form_semigroup(form_sum_operator(a, b), t), eye)

    def step_product(n: int) -> ZenoProduct:
        step = form_semigroup(a, t / n) @ form_semigroup(b, t / n)
        return ZenoProduct(eye, np.linalg.matrix_power(step, n), eye)

    return product_convergence_report(step_product, target, sched.n_values)
