import math
import warnings

import numpy as np
import pytest

from conftest import SIGMA_X, random_hermitian_op, random_projection
from reference import complement, psd_sqrt
from zenolab.errors import NonFinite, NotHermitian, NotPSD, Overflow, ZeroSpan
from zenolab.operators import (
    eigendecompose,
    evolve,
    expm,
    identity_projection,
    operator_norm,
    projection_from_span,
)


class TestEigendecompose:
    def test_zero_matrix(self):
        h = eigendecompose(np.zeros((3, 3), dtype=complex))
        assert np.allclose(h.eigenvalues, 0.0)
        assert np.allclose(h.eigenvectors, np.eye(3))

    def test_diagonal(self):
        h = eigendecompose(np.diag([1.0, 2.0]).astype(complex))
        assert np.allclose(h.eigenvalues, [1.0, 2.0])

    def test_pauli_x(self):
        h = eigendecompose(SIGMA_X)
        assert np.allclose(h.eigenvalues, [-1.0, 1.0])
        recon = (h.eigenvectors * h.eigenvalues) @ h.eigenvectors.conj().T
        assert operator_norm(recon - SIGMA_X) < 1e-12
        # hand algebra: eigenvectors are (1, -1)/sqrt(2) and (1, 1)/sqrt(2)
        minus = np.array([1.0, -1.0]) / math.sqrt(2)
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        assert abs(abs(np.vdot(h.eigenvectors[:, 0], minus)) - 1.0) < 1e-12
        assert abs(abs(np.vdot(h.eigenvectors[:, 1], plus)) - 1.0) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_rejects_non_finite(self):
        with pytest.raises(NonFinite):
            eigendecompose(np.array([[np.nan, 0.0], [0.0, 0.0]], dtype=complex))


class TestEvolve:
    def test_zero_time_is_identity(self):
        h = random_hermitian_op(np.random.default_rng(0), 4)
        assert operator_norm(evolve(h, 0.0) - np.eye(4)) < 1e-14

    def test_diagonal_generator(self):
        h = eigendecompose(np.diag([1.0, 2.0]).astype(complex))
        t = 0.7
        expected = np.diag([np.exp(1j * t), np.exp(2j * t)])
        assert operator_norm(evolve(h, t) - expected) < 1e-14

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0])
    def test_pauli_against_power_series(self, t):
        # oracle: 30-term truncated exponential series of i t sigma_x
        term = np.eye(2, dtype=complex)
        series = np.eye(2, dtype=complex)
        for k in range(1, 30):
            term = term @ (1j * t * SIGMA_X) / k
            series = series + term
        h = eigendecompose(SIGMA_X)
        assert operator_norm(evolve(h, t) - series) < 1e-13
        closed = math.cos(t) * np.eye(2) + 1j * math.sin(t) * SIGMA_X
        assert operator_norm(evolve(h, t) - closed) < 1e-13

    @pytest.mark.parametrize("seed", range(5))
    def test_group_law_and_unitarity(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian_op(rng, 5)
        t, s = rng.uniform(-10, 10, size=2)
        ut, us = evolve(h, t), evolve(h, s)
        assert operator_norm(ut @ us - evolve(h, t + s)) < 1e-10
        assert operator_norm(ut.conj().T - evolve(h, -t)) < 1e-10
        assert operator_norm(ut.conj().T @ ut - np.eye(5)) < 1e-10

    def test_overflow_reported(self):
        h = eigendecompose(np.diag([100.0]).astype(complex))
        with pytest.raises(Overflow):
            evolve(h, 10j)


class TestExpm:
    def test_zero(self):
        assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))

    def test_nilpotent_exact(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        assert np.array_equal(expm(m), np.eye(2) + m)

    @pytest.mark.parametrize("seed", range(5))
    def test_general_path_matches_diagonalization_on_normal(self, seed):
        # random normal matrix via unitary conjugation of a complex diagonal
        rng = np.random.default_rng(seed)
        d = 5
        q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        diag = rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d)
        m = q @ np.diag(diag) @ q.conj().T
        m *= 1.0 / max(operator_norm(m), 1.0)
        # oracle: eigendecomposition route, independent of scaling-and-squaring
        w, v = np.linalg.eig(m)
        oracle = v @ np.diag(np.exp(w)) @ np.linalg.inv(v)
        assert operator_norm(expm(m) - oracle) < 1e-9

    def test_empty(self):
        out = expm(np.zeros((0, 0)))
        assert out.shape == (0, 0) and out.dtype == complex

    @pytest.mark.parametrize("d", [5, 40])
    def test_matches_eigh_on_hermitian(self, d):
        # oracle: exp(H) = V diag(exp(w)) V* from the Hermitian eigendecomposition
        h = random_hermitian_op(np.random.default_rng(d), d).matrix
        w, v = np.linalg.eigh(h)
        oracle = (v * np.exp(w)) @ v.conj().T
        assert operator_norm(expm(h) - oracle) <= 1e-13 * operator_norm(oracle)

    @pytest.mark.parametrize("seed", range(3))
    def test_agrees_with_evolve_on_hermitian(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian_op(rng, 5)
        t = 0.9
        assert operator_norm(expm(1j * t * h.matrix) - evolve(h, t)) < 1e-9


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(4)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert operator_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)

    def test_zero_iff_zero(self):
        assert operator_norm(np.zeros((3, 3))) == 0.0

    def test_against_power_iteration(self):
        # oracle: power iteration on M*M for the top singular value
        rng = np.random.default_rng(11)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        gram = m.conj().T @ m
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        v /= np.linalg.norm(v)
        for _ in range(4000):
            v = gram @ v
            v /= np.linalg.norm(v)
        sigma = math.sqrt(float(np.vdot(v, gram @ v).real))
        assert abs(operator_norm(m) - sigma) < 1e-8

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
    def test_non_square_subnormal_entries(self, shape):
        # every entry below the smallest normal double: the scaling must not divide through 1 / scale
        m = np.full(shape, 3e-320 + 4e-320j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert operator_norm(m) == pytest.approx(5e-320 * math.sqrt(6.0), rel=1e-3)
            assert operator_norm(1e300 * m) == pytest.approx(5e-20 * math.sqrt(6.0), rel=1e-12)

    def test_submultiplicative(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) + 1e-10


class TestPsdSqrt:
    def test_diagonal(self):
        h = eigendecompose(np.diag([4.0, 9.0]).astype(complex))
        assert operator_norm(psd_sqrt(h).matrix - np.diag([2.0, 3.0])) < 1e-12

    def test_projection_is_its_own_root(self):
        p = random_projection(np.random.default_rng(3), 5, 2)
        h = eigendecompose(p.matrix)
        # sqrt amplifies eps-level spectral noise to sqrt(eps)
        root = psd_sqrt(h)
        assert operator_norm(root.matrix - p.matrix) < 1e-7
        assert operator_norm(root.matrix @ root.matrix - p.matrix) < 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_square_reproduces(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = eigendecompose(g.conj().T @ g)
        root = psd_sqrt(h)
        assert operator_norm(root.matrix @ root.matrix - h.matrix) < 1e-9

    def test_rejects_negative(self):
        h = eigendecompose(np.diag([-1.0, 1.0]).astype(complex))
        with pytest.raises(NotPSD):
            psd_sqrt(h)


class TestProjectionFromSpan:
    def test_single_unit_vector(self):
        e1 = np.zeros(4, dtype=complex)
        e1[0] = 1.0
        p = projection_from_span([e1])
        assert p.rank == 1
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        assert operator_norm(p.matrix - expected) < 1e-14

    def test_full_basis(self):
        p = projection_from_span([np.eye(3, dtype=complex)[:, i] for i in range(3)])
        assert p.rank == 3
        assert operator_norm(p.matrix - np.eye(3)) < 1e-14

    def test_dependent_vectors_collapse(self):
        v = np.array([1.0, 2.0, 3.0], dtype=complex)
        p = projection_from_span([v, 2.0 * v])
        assert p.rank == 1

    def test_zero_span(self):
        with pytest.raises(ZeroSpan):
            projection_from_span([np.zeros(3, dtype=complex)])

    @pytest.mark.parametrize("rank", [0, 1, 3])
    def test_norm_is_zero_or_one(self, rank):
        if rank == 0:
            from zenolab.operators import OrthogonalProjection

            p = OrthogonalProjection(np.zeros((4, 0), dtype=complex))
        else:
            p = random_projection(np.random.default_rng(rank), 4, rank)
        assert min(abs(operator_norm(p.matrix) - 1.0), operator_norm(p.matrix)) < 1e-10

    def test_complement(self):
        p = random_projection(np.random.default_rng(9), 5, 2)
        q = complement(p)
        assert q.rank == 3
        assert operator_norm(p.matrix + q.matrix - np.eye(5)) < 1e-12
        assert operator_norm(p.matrix @ q.matrix) < 1e-12

    def test_identity_projection(self):
        p = identity_projection(4)
        assert p.rank == 4 and operator_norm(p.matrix - np.eye(4)) == 0.0
