import math

import numpy as np
import pytest

import zenolab.zeno
from conftest import rabi_pair, random_hermitian_op, random_projection
from reference import complement, form_generator
from zenolab.numeric import tol
from zenolab.operators import HermitianOperator, eigendecompose, evolve, identity_projection, operator_norm
from zenolab.zeno import (
    azc_fit,
    reduced_dynamics,
    zeno_convergence_report,
    zeno_generator,
    zeno_product,
)


def commuting_pair(dim=4):
    # E is a spectral projection of H, so [E, H] = 0
    from zenolab.operators import projection_from_span

    h = eigendecompose(np.diag(np.arange(dim, dtype=float)).astype(complex))
    basis = np.eye(dim, dtype=complex)
    e = projection_from_span([basis[:, 0], basis[:, 2]])
    return h, e


class TestZenoProduct:
    def test_full_projection_recovers_evolution(self):
        rng = np.random.default_rng(1)
        h = random_hermitian_op(rng, 4)
        e = identity_projection(4)
        for n in (1, 7, 64):
            assert operator_norm(zeno_product(h, e, 1.3, n).matrix - evolve(h, 1.3)) < 1e-10

    def test_commuting_case_n_independent(self):
        h, e = commuting_pair()
        expected = e.matrix @ evolve(h, 0.8) @ e.matrix
        for n in (1, 5, 256):
            assert operator_norm(zeno_product(h, e, 0.8, n).matrix - expected) < 1e-12

    @pytest.mark.parametrize("n", [1, 3, 16, 255])
    def test_rabi_closed_form(self, n):
        # hand algebra: E exp(i(t/n) sigma_x) E = cos(t/n) E
        h, e = rabi_pair()
        t = 1.0
        expected = math.cos(t / n) ** n * e.matrix
        assert operator_norm(zeno_product(h, e, t, n).matrix - expected) < 1e-13

    def test_contraction(self):
        rng = np.random.default_rng(7)
        h = random_hermitian_op(rng, 5)
        e = random_projection(rng, 5, 2)
        for ordering in ("EUE", "UE", "EU"):
            assert operator_norm(zeno_product(h, e, 2.0, 9, ordering).matrix) <= 1.0 + 1e-10


class TestConvergenceReport:
    def test_commuting_case_flags_exact(self):
        h, e = commuting_pair()
        report = zeno_convergence_report(h, e, 1.0)
        assert report.exact
        assert all(d < 1e-12 for _, d, _ in report.per_n)
        assert report.fitted_rate_exponent is None

    def test_rabi_distances_match_closed_form(self):
        h, e = rabi_pair()
        report = zeno_convergence_report(h, e, 1.0)
        for n, d, _ in report.per_n:
            assert abs(d - abs(math.cos(1.0 / n) ** n - 1.0)) < 1e-12
        assert report.fitted_rate_exponent == pytest.approx(-1.0, abs=0.01)

    def test_random_case_against_brute_force_product(self):
        # oracle: the n = 2^16 product stands in for the limit
        rng = np.random.default_rng(12)
        h = random_hermitian_op(rng, 6, norm=1.0)
        e = random_projection(rng, 6, 3)
        report = zeno_convergence_report(h, e, 1.0)
        oracle = zeno_product(h, e, 1.0, 2**16).matrix
        assert operator_norm(oracle - report.target.matrix) < 1e-4
        assert report.target_residual < 1e-3
        ratio = report.distance(2048) / report.distance(4096)
        assert 1.7 <= ratio <= 2.3

    @pytest.mark.parametrize("ordering", ["EUE", "UE", "EU"])
    def test_overlap_formed_once_per_report(self, monkeypatch, ordering):
        """W = V*Q is formed once for all 13 products, which match the public call's bit for bit."""
        rng = np.random.default_rng(13)
        h = random_hermitian_op(rng, 8, norm=1.0)
        e = random_projection(rng, 8, 3)
        coordinates, formed, products = HermitianOperator._coordinates, [], []
        product = zenolab.zeno.zeno_product

        def spy_coordinates(*args):
            formed.append(1)
            return coordinates(*args)

        def spy_product(*args, **kwargs):
            products.append(product(*args, **kwargs))
            return products[-1]

        monkeypatch.setattr(HermitianOperator, "_coordinates", spy_coordinates)
        monkeypatch.setattr(zenolab.zeno, "zeno_product", spy_product)
        zeno_convergence_report(h, e, 1.0, ordering=ordering)
        assert len(formed) == 1 and len(products) == 13
        monkeypatch.undo()
        for n, got in zip([2**k for k in range(1, 14)], products):
            assert np.array_equal(got.core, zeno_product(h, e, 1.0, n, ordering).core)

    @pytest.mark.parametrize("ordering", ["EUE", "UE", "EU"])
    def test_target_built_in_the_products_frame_with_one_overlap(self, monkeypatch, ordering):
        """Every ordering takes V*Q once, one ``_coordinates`` call on the d x r basis, for its target and products."""
        rng = np.random.default_rng(40)
        h = random_hermitian_op(rng, 40, norm=1.0)
        e = random_projection(rng, 40, 10)
        coordinates, shapes = HermitianOperator._coordinates, []

        def spy_coordinates(self, x):
            shapes.append(x.shape)
            return coordinates(self, x)

        monkeypatch.setattr(HermitianOperator, "_coordinates", spy_coordinates)
        report = zeno_convergence_report(h, e, 1.0, (2, 4, 8), ordering)
        assert shapes == [(40, 10)]
        assert report.target.left is report.limit.left and report.target.right is report.limit.right


class TestZenoGenerator:
    def test_full_projection_gives_h_itself(self):
        rng = np.random.default_rng(3)
        h = random_hermitian_op(rng, 4)
        gen = zeno_generator(h, identity_projection(4))
        assert operator_norm(gen.matrix - h.matrix) < 1e-12

    def test_rabi_scalar_zero(self):
        h, e = rabi_pair()
        gen = zeno_generator(h, e)
        assert gen.matrix.shape == (1, 1)
        assert abs(gen.matrix[0, 0]) < 1e-14

    @pytest.mark.parametrize("seed", range(4))
    def test_routes_agree_for_psd(self, seed):
        # the form route (sqrt(H)Q)*(sqrt(H)Q) recomputed here, independently
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = eigendecompose(g.conj().T @ g)
        e = random_projection(rng, 5, 2)
        gen = zeno_generator(h, e)
        q = e.basis
        w = np.sqrt(np.clip(h.eigenvalues, 0, None))
        root = (h.eigenvectors * w) @ h.eigenvectors.conj().T
        m = root @ q
        assert operator_norm(m.conj().T @ m - gen.matrix) < 1e-10

    def test_non_psd_shift_route(self):
        rng = np.random.default_rng(9)
        h = random_hermitian_op(rng, 6)  # indefinite almost surely
        assert h.eigenvalues[0] < 0
        e = random_projection(rng, 6, 3)
        gen = zeno_generator(h, e)
        q = e.basis
        direct = q.conj().T @ h.matrix @ q
        assert operator_norm(gen.matrix - (direct + direct.conj().T) / 2) < 1e-12

    @pytest.mark.parametrize("psd", [True, False])
    @pytest.mark.parametrize("d", [4, 12, 40])
    @pytest.mark.parametrize("rank", [1, 3, "d"])
    def test_form_route_is_the_oracle(self, psd, d, rank):
        # the paper's form definition (sqrt(H) E)* (sqrt(H) E), shifted by -min eig H when H is not PSD
        rng = np.random.default_rng(d)
        h = random_hermitian_op(rng, d)
        if psd:
            h = eigendecompose(h.matrix @ h.matrix)
        assert (h.eigenvalues[0] >= 0) == psd
        e = random_projection(rng, d, d if rank == "d" else rank)
        gen = zeno_generator(h, e)
        assert operator_norm(gen.matrix - form_generator(h, e)) <= tol(1e-10, h.norm)


class TestAzcFit:
    def test_commuting_case_exactly_zeno(self):
        h, e = commuting_pair()
        fit = azc_fit(h, e, np.logspace(-3, -1, 6)[::-1])
        assert fit.exactly_zeno
        assert fit.constant == 0.0

    def test_rabi_sine_law(self):
        h, e = rabi_pair()
        ec = complement(e).matrix
        for tau in np.logspace(-4, 0, 12):
            norm = operator_norm(ec @ evolve(h, tau) @ e.matrix)
            assert abs(norm - abs(math.sin(tau))) < 1e-12
        taus = np.logspace(-4, -2, 10)[::-1]
        fit = azc_fit(h, e, taus)
        assert fit.exponent == pytest.approx(1.0, abs=1e-3)
        assert fit.constant == pytest.approx(1.0, rel=1e-3)

    def test_random_first_order(self):
        rng = np.random.default_rng(21)
        h = random_hermitian_op(rng, 8, norm=1.0)
        e = random_projection(rng, 8, 3)
        fit = azc_fit(h, e, np.logspace(-4, -3, 8)[::-1])
        assert 0.98 <= fit.exponent <= 1.02
        exact = operator_norm(complement(e).matrix @ h.matrix @ e.matrix)
        assert abs(fit.constant - exact) <= 0.02 * exact

    @pytest.mark.parametrize("real_v", [True, False], ids=["real-V", "complex-V"])
    @pytest.mark.parametrize("rank", [1, 3, 12])
    def test_leakage_matches_dense_formula(self, monkeypatch, real_v, rank):
        """The fitted norms ||UQ - Q(Q*UQ)|| (d x r) are the dense ||E_perp U E||."""
        rng = np.random.default_rng(30 + rank)
        if real_v:
            g = rng.standard_normal((12, 12))
            h = eigendecompose(g + g.T)
            assert h.eigenvectors.dtype == np.float64
        else:
            h = random_hermitian_op(rng, 12, norm=1.0)
        e = identity_projection(12) if rank == 12 else random_projection(rng, 12, rank)
        taus = np.logspace(-3, 0, 7)[::-1]
        ec = complement(e).matrix
        dense = [operator_norm(ec @ evolve(h, tau) @ e.matrix) for tau in taus]
        seen = []
        fit_original = zenolab.zeno.loglog_fit
        monkeypatch.setattr(zenolab.zeno, "loglog_fit", lambda x, y: seen.append(y) or fit_original(x, y))
        fit = azc_fit(h, e, taus)
        if rank == 12:
            assert fit.exactly_zeno and seen == [] and max(dense) == 0.0
        else:
            assert np.max(np.abs(seen[0] - dense)) <= 1e-12

    def test_grid_validation(self):
        h, e = rabi_pair()
        with pytest.raises(ValueError):
            azc_fit(h, e, [0.1, 0.2, 0.3, 0.4])  # increasing
        with pytest.raises(ValueError):
            azc_fit(h, e, [0.3, 0.2, 0.1])  # too few


class TestReducedDynamics:
    def test_zero_time_is_projection(self):
        rng = np.random.default_rng(4)
        h = random_hermitian_op(rng, 5)
        e = random_projection(rng, 5, 2)
        assert operator_norm(reduced_dynamics(h, e, 0.0) - e.matrix) < 1e-13

    def test_rabi_is_projection_for_all_t(self):
        h, e = rabi_pair()
        for t in (0.3, 1.0, 5.0):
            assert operator_norm(reduced_dynamics(h, e, t) - e.matrix) < 1e-13

    def test_matches_report_target_bitwise(self):
        rng = np.random.default_rng(8)
        h = random_hermitian_op(rng, 5)
        e = random_projection(rng, 5, 2)
        report = zeno_convergence_report(h, e, 0.9, (2, 4, 8))
        assert np.array_equal(report.target.matrix, reduced_dynamics(h, e, 0.9))


class TestLimitProperties:
    def test_group_law_of_target(self):
        rng = np.random.default_rng(14)
        h = random_hermitian_op(rng, 6)
        e = random_projection(rng, 6, 3)
        for t, s in [(0.3, 0.4, ), (1.0, -2.0), (0.7, 0.7)]:
            lhs = reduced_dynamics(h, e, t) @ reduced_dynamics(h, e, s)
            assert operator_norm(lhs - reduced_dynamics(h, e, t + s)) < 1e-10

    def test_target_unitary_on_subspace(self):
        rng = np.random.default_rng(15)
        h = random_hermitian_op(rng, 6)
        e = random_projection(rng, 6, 2)
        w = reduced_dynamics(h, e, 1.7)
        assert operator_norm(w.conj().T @ w - e.matrix) < 1e-10

    def test_ordering_equivalence_at_large_n(self):
        rng = np.random.default_rng(16)
        h = random_hermitian_op(rng, 5, norm=1.0)
        e = random_projection(rng, 5, 2)
        target = reduced_dynamics(h, e, 1.0)
        n = 4096
        prods = {o: zeno_product(h, e, 1.0, n, o).matrix for o in ("EUE", "UE", "EU")}
        ref = operator_norm(prods["EUE"] - target)
        for a in prods:
            for b in prods:
                assert operator_norm(prods[a] - prods[b]) <= 5.0 * ref

    def test_cauchy_bound_with_fitted_constant(self):
        rng = np.random.default_rng(17)
        h = random_hermitian_op(rng, 6, norm=1.0)
        e = random_projection(rng, 6, 3)
        report = zeno_convergence_report(h, e, 1.0)
        fit = azc_fit(h, e, np.logspace(-4, -3, 8)[::-1])
        worst = max(n * c for n, _, c in report.per_n)
        assert worst <= 2.0 * fit.cauchy_constant * 1.0**2

    def test_unconditional_convergence_over_many_projections(self):
        # bounded generator: every projection converges, no counterexample
        rng = np.random.default_rng(18)
        h = random_hermitian_op(rng, 5, norm=1.0)
        for trial in range(50):
            rank = 1 + trial % 4
            e = random_projection(rng, 5, rank)
            report = zeno_convergence_report(h, e, 1.0, (512, 1024))
            if report.exact:
                continue
            assert report.distance(1024) < 5e-3
            assert report.distance(512) > report.distance(1024)
