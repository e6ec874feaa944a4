import numpy as np

from reference import ginibre_hermitian
from zenolab.operators import eigendecompose, operator_norm, projection_from_span

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
