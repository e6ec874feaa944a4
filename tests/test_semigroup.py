import math

import numpy as np
import pytest

import zenolab.zeno
from conftest import SIGMA_X, random_projection
from zenolab.errors import NotSectorial
from zenolab.operators import expm, operator_norm, projection_from_span
from zenolab.semigroup import (
    degenerate_form,
    degenerate_product,
    form_semigroup,
    form_sum_operator,
    full_support_form,
    kato_form_sum_product,
    sector_margin,
    sectorial_operator,
)


def random_psd(rng, dim, norm=1.0):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g.conj().T @ g
    return m * (norm / operator_norm(m))


class TestSectorMargin:
    def test_psd_hermitian_sectorial_at_right_angle(self):
        assert sector_margin(np.diag([1.0, 2.0]).astype(complex), math.pi / 2) <= 0.0

    def test_skew_spectrum_never_sectorial(self):
        # numerical range of i sigma_x is the imaginary segment [-i, i]
        for angle in (0.1, math.pi / 4, math.pi / 2):
            assert sector_margin(1j * SIGMA_X, angle) > 0.5

    def test_diagonal_complex_boundary_angle(self):
        a = np.diag([1.0, 1.0 + 1.0j])
        assert sector_margin(a, math.pi / 4 - 1e-3) < 0.0
        assert sector_margin(a, math.pi / 4 + 1e-3) > 0.0

    def test_constructor_rejects_non_sectorial(self):
        with pytest.raises(NotSectorial):
            sectorial_operator(1j * SIGMA_X, math.pi / 4)

    def test_constructor_keeps_a_private_copy(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        s = sectorial_operator(a, math.pi / 2)
        assert a.flags.writeable and s.matrix is not a and not s.matrix.flags.writeable
        a[0, 0] = 5.0
        np.testing.assert_array_equal(s.matrix, np.diag([1.0, 2.0]))


class TestDegenerateProduct:
    def test_zero_generator_freezes_at_projection(self):
        rng = np.random.default_rng(0)
        e = random_projection(rng, 4, 2)
        a = sectorial_operator(np.zeros((4, 4), dtype=complex), math.pi / 2)
        report = degenerate_product(a, e, 1.0, (2, 8, 32))
        assert report.exact
        assert all(d < 1e-12 for _, d, _ in report.per_n)

    @pytest.mark.parametrize("rank", [1, 3, 6])
    def test_factored_distances_match_the_dense_products(self, monkeypatch, rank):
        # the products are held as d x r cores in the frame (I, Q); the distances are the d x d ones
        rng = np.random.default_rng(20 + rank)
        m = random_psd(rng, 6) + 0.5 * np.eye(6) + 0.3j * random_psd(rng, 6)  # |Im| <= Re: not normal
        a = sectorial_operator(m, math.pi / 4)
        e = random_projection(rng, 6, rank)
        ns, t = (1, 3, 8), 0.8
        shapes = []

        def spy_norm(x):
            shapes.append(x.shape)
            return operator_norm(x)

        monkeypatch.setattr(zenolab.zeno, "operator_norm", spy_norm)
        report = degenerate_product(a, e, t, ns)
        monkeypatch.undo()
        assert set(shapes) == {(6, rank)}
        p = e.matrix
        dense = {n: np.linalg.matrix_power(expm(-(t / n) * m) @ p, n) for n in ns + tuple(2 * n for n in ns)}
        target = e.basis @ expm(-t * (e.basis.conj().T @ m @ e.basis)) @ e.basis.conj().T
        for n, dist, cauchy in report.per_n:
            assert abs(dist - operator_norm(dense[n] - target)) <= 1e-12
            assert abs(cauchy - operator_norm(dense[n] - dense[2 * n])) <= 1e-12
        assert operator_norm(report.limit.matrix - dense[8]) <= 1e-12
        assert operator_norm(report.target.matrix - target) <= 1e-12

    def test_commuting_psd_exact_at_n_one(self):
        d = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        a = sectorial_operator(d, math.pi / 2)
        basis = np.eye(4, dtype=complex)
        e = projection_from_span([basis[:, 0], basis[:, 2]])
        report = degenerate_product(a, e, 0.7, (1, 2, 4))
        assert all(dist < 1e-12 for _, dist, _ in report.per_n)

    def test_random_psd_first_order_with_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        a = sectorial_operator(random_psd(rng, 5), math.pi / 2)
        e = random_projection(rng, 5, 2)
        report = degenerate_product(a, e, 1.0, tuple(2**k for k in range(1, 13)))
        ratio = report.distance(2048) / report.distance(4096)
        assert 1.7 <= ratio <= 2.3
        # oracle: product at n = 2^16
        step = expm(-(1.0 / 2**16) * a.matrix) @ e.matrix
        brute = np.linalg.matrix_power(step, 2**16)
        assert operator_norm(brute - report.target.matrix) < 1e-4


class TestFormSum:
    def test_zero_form_on_full_space_is_neutral(self):
        rng = np.random.default_rng(1)
        e = random_projection(rng, 4, 2)
        a = degenerate_form(e, random_psd(rng, 4))
        b = full_support_form(np.zeros((4, 4), dtype=complex))
        s = form_sum_operator(a, b)
        assert s.support.rank == a.support.rank
        assert operator_norm(s.support.matrix - a.support.matrix) < 1e-10
        assert operator_norm(s.psd_part.matrix - a.psd_part.matrix) < 1e-10

    def test_disjoint_supports_vanish(self):
        basis = np.eye(4, dtype=complex)
        pa = projection_from_span([basis[:, 0], basis[:, 1]])
        pb = projection_from_span([basis[:, 2], basis[:, 3]])
        rng = np.random.default_rng(2)
        s = form_sum_operator(degenerate_form(pa, random_psd(rng, 4)),
                              degenerate_form(pb, random_psd(rng, 4)))
        assert s.support.rank == 0
        assert operator_norm(s.psd_part.matrix) < 1e-12

    def test_overlapping_planes_in_c3(self):
        # span{e0, e1} and span{e1, e2} intersect in the line span{e1}
        basis = np.eye(3, dtype=complex)
        pa = projection_from_span([basis[:, 0], basis[:, 1]])
        pb = projection_from_span([basis[:, 1], basis[:, 2]])
        rng = np.random.default_rng(3)
        ma = pa.matrix @ random_psd(rng, 3) @ pa.matrix
        mb = pb.matrix @ random_psd(rng, 3) @ pb.matrix
        s = form_sum_operator(degenerate_form(pa, ma), degenerate_form(pb, mb))
        assert s.support.rank == 1
        line = np.zeros((3, 3), dtype=complex)
        line[1, 1] = 1.0
        assert operator_norm(s.support.matrix - line) < 1e-10
        expected = (ma + mb)[1, 1] * line
        assert operator_norm(s.psd_part.matrix - expected) < 1e-10


class TestKatoProduct:
    def test_vanishing_second_form_reduces_to_degenerate_product(self):
        rng = np.random.default_rng(4)
        mat = random_psd(rng, 4)
        e = random_projection(rng, 4, 2)
        a = full_support_form(mat)
        b = degenerate_form(e, np.zeros((4, 4), dtype=complex))
        kato = kato_form_sum_product(a, b, 1.0, (2, 16, 128, 1024))
        direct = degenerate_product(sectorial_operator(mat, math.pi / 2), e, 1.0, (2, 16, 128, 1024))
        for (n1, d1, c1), (n2, d2, c2) in zip(kato.per_n, direct.per_n):
            assert n1 == n2 and abs(d1 - d2) < 1e-10 and abs(c1 - c2) < 1e-10
        assert operator_norm(kato.limit.matrix - direct.limit.matrix) < 1e-10

    def test_full_support_pair_recovers_additive_exponential(self):
        # commutator smaller than 1e-3 keeps first-order error below 1e-6 at n = 4096
        rng = np.random.default_rng(6)
        ma = random_psd(rng, 5, norm=0.02)
        mb = random_psd(rng, 5, norm=0.02)
        a, b = full_support_form(ma), full_support_form(mb)
        report = kato_form_sum_product(a, b, 1.0, (4096,))
        oracle = expm(-(ma + mb))
        assert operator_norm(report.limit.matrix - oracle) < 1e-6
        assert operator_norm(report.target.matrix - oracle) < 1e-12

    def test_disjoint_supports_kill_the_product(self):
        basis = np.eye(4, dtype=complex)
        pa = projection_from_span([basis[:, 0], basis[:, 1]])
        pb = projection_from_span([(basis[:, 1] + basis[:, 2]) / math.sqrt(2), basis[:, 3]])
        rng = np.random.default_rng(7)
        a = degenerate_form(pa, pa.matrix @ random_psd(rng, 4) @ pa.matrix)
        b = degenerate_form(pb, pb.matrix @ random_psd(rng, 4) @ pb.matrix)
        report = kato_form_sum_product(a, b, 1.0, (256, 4096))
        assert operator_norm(report.target.matrix) < 1e-12
        assert operator_norm(report.limit.matrix) < 1e-6

    @pytest.mark.parametrize("seed", range(3))
    def test_subspace_pair_first_order_to_intersection_dynamics(self, seed):
        rng = np.random.default_rng(100 + seed)
        pa = random_projection(rng, 6, 4)
        pb = random_projection(rng, 6, 5)
        a = degenerate_form(pa, pa.matrix @ random_psd(rng, 6) @ pa.matrix)
        b = degenerate_form(pb, pb.matrix @ random_psd(rng, 6) @ pb.matrix)
        report = kato_form_sum_product(a, b, 1.0, tuple(2**k for k in range(1, 13)))
        assert report.target_residual < 5e-3
        ratio = report.distance(2048) / report.distance(4096)
        assert 1.7 <= ratio <= 2.3


class TestSemigroupProperties:
    def test_degenerate_semigroup_law_on_targets(self):
        rng = np.random.default_rng(8)
        a = sectorial_operator(random_psd(rng, 5), math.pi / 2)
        e = random_projection(rng, 5, 3)
        small = (2, 4)
        rep = {t: degenerate_product(a, e, t, small) for t in (0.4, 0.6, 1.0)}
        lhs = rep[0.4].target.matrix @ rep[0.6].target.matrix
        assert operator_norm(lhs - rep[1.0].target.matrix) < 1e-8

    def test_value_at_zero_plus_is_projection(self):
        rng = np.random.default_rng(9)
        a = sectorial_operator(random_psd(rng, 5), math.pi / 2)
        e = random_projection(rng, 5, 2)
        s0 = degenerate_product(a, e, 1e-9, (2,)).target.matrix
        assert operator_norm(s0 @ s0 - s0) < 1e-8

    def test_contractivity_of_products(self):
        rng = np.random.default_rng(10)
        a = sectorial_operator(random_psd(rng, 5), math.pi / 2)
        assert a.margin <= 1e-12
        e = random_projection(rng, 5, 2)
        for n in (1, 3, 17, 512):
            step = expm(-(1.3 / n) * a.matrix) @ e.matrix
            assert operator_norm(np.linalg.matrix_power(step, n)) <= 1.0 + 1e-10


class TestFormSemigroup:
    def forms(self):
        rng = np.random.default_rng(11)
        basis = np.eye(4, dtype=complex)
        plane = projection_from_span([basis[:, 1], basis[:, 2]])
        e = random_projection(rng, 5, 3)
        return [
            full_support_form(random_psd(rng, 5)),
            full_support_form(np.diag([0.0, 0.5, 2.0])),
            full_support_form(np.zeros((4, 4), dtype=complex)),
            degenerate_form(e, random_psd(rng, 5, norm=3.0)),
            degenerate_form(plane, plane.matrix @ random_psd(rng, 4) @ plane.matrix),
            form_sum_operator(degenerate_form(e, random_psd(rng, 5)), full_support_form(random_psd(rng, 5))),
        ]

    @pytest.mark.parametrize("t", [1e-9, 0.3, 1.0, 7.5])
    def test_agrees_with_expm(self, t):
        for form in self.forms():
            dense = expm(-t * form.psd_part.matrix) @ form.support.matrix
            assert operator_norm(form_semigroup(form, t) - dense) <= 1e-12

    def test_long_time_stays_finite(self):
        for form in self.forms():
            t = 1e4 / max(form.psd_part.norm, 1.0)
            s = form_semigroup(form, t)
            assert np.all(np.isfinite(s))
            dense = expm(-t * form.psd_part.matrix) @ form.support.matrix
            assert operator_norm(s - dense) <= 1e-12
