import numpy as np
import pytest

import zenolab.operators
from reference import ginibre_hermitian
from zenolab.operators import HermitianOperator, arrowhead_eigendecompose, eigendecompose, operator_norm, projection_from_span

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def random_hermitian(rng, dim, norm=None):
    m = ginibre_hermitian(rng, dim)
    if norm is not None:
        m *= norm / operator_norm(m)
    return m


def random_hermitian_op(rng, dim, norm=None):
    return eigendecompose(random_hermitian(rng, dim, norm))


def random_projection(rng, dim, rank):
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    q, _ = np.linalg.qr(g)
    return projection_from_span([q[:, i] for i in range(rank)])


def random_state(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def rabi_pair():
    h = eigendecompose(SIGMA_X)
    e = projection_from_span([np.array([1.0, 0.0], dtype=complex)])
    return h, e


def certified_build(diagonal, couplings, patches=()) -> tuple:
    """Solve the arrowhead with ``patches``, (name, function) pairs, in ``zenolab.operators``.

    Returns the (matrix, values, vectors) of the operator that reached
    ``_certified`` (formed here if the certificate accepted it) and its
    (recon, ortho) bounds, whether the dense checks ran, and the operator or
    the ValueError they raised.
    """
    seen, dense = [], []
    certify, post_init = zenolab.operators._certified, HermitianOperator.__post_init__
    with pytest.MonkeyPatch.context() as patch:
        for name, function in patches:
            patch.setattr(zenolab.operators, name, function)
        patch.setattr(zenolab.operators, "_certified", lambda *a: seen.append(a) or certify(*a))
        patch.setattr(HermitianOperator, "__post_init__", lambda self: dense.append(1) or post_init(self))
        try:
            outcome = arrowhead_eigendecompose(diagonal, couplings)
        except ValueError as exc:
            outcome = exc
    ((solved, *bounds),) = seen
    return (solved.matrix, solved.eigenvalues, solved.eigenvectors), tuple(bounds), bool(dense), outcome
