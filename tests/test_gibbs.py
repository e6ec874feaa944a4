import math
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from conftest import rabi_pair, random_hermitian, random_hermitian_op, random_projection
from reference import (
    compressed_generator_matrix,
    density_matrix,
    dense_gaps,
    dense_heisenberg,
    dense_reduced_gaps,
    dense_reduced_residual,
)
from zenolab.errors import ConfigError, DimensionMismatch, NonFinite, Overflow, ZeroRank
from zenolab.gibbs import (
    DensityState,
    expectation,
    gibbs_state,
    heisenberg_evolve,
    kms_residual,
    kms_scale,
    reduced_kms_residual,
    zeno_gibbs_state,
)
import zenolab.gibbs
import zenolab.scenarios
import zenolab.zeno
from zenolab.zeno import zeno_generator
from zenolab.operators import (
    OrthogonalProjection,
    eigendecompose,
    identity_projection,
    operator_norm,
    projection_from_span,
)
from zenolab.scenarios import build_scenario, parse_config, run_scenario


class TestGibbsState:
    def test_infinite_temperature_is_tracial(self):
        h = random_hermitian_op(np.random.default_rng(0), 4)
        state = gibbs_state(h, 0.0)
        assert operator_norm(density_matrix(state) - np.eye(4) / 4.0) < 1e-12

    def test_two_level_closed_form(self):
        h = eigendecompose(np.diag([0.0, 1.0]).astype(complex))
        state = gibbs_state(h, 1.0)
        z = 1.0 + math.exp(-1.0)
        expected = np.diag([1.0 / z, math.exp(-1.0) / z])
        assert operator_norm(density_matrix(state) - expected) < 1e-14

    def test_low_temperature_projects_on_ground_state(self):
        h = eigendecompose(np.diag([0.0, 0.3, 1.0]).astype(complex))
        gap = 0.3
        state = gibbs_state(h, 50.0 / gap)
        assert density_matrix(state)[0, 0].real > 1.0 - 1e-8

    @pytest.mark.parametrize("beta", [1e300, 1e308, sys.float_info.max])
    def test_huge_beta_is_the_ground_state_without_a_warning(self, beta):
        h = eigendecompose(np.diag([0.0, 0.3, 2.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = gibbs_state(h, beta)
        assert state.weights.tolist() == [1.0, 0.0, 0.0]

    def test_is_its_frame_and_weights(self, monkeypatch):
        """The state is framed by H itself, with the weights exp(-beta (w - w_0)) / Z; no rho is held."""
        h = random_hermitian_op(np.random.default_rng(21), 6)
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        state = gibbs_state(h, 0.8)
        assert state.frame is h and not hasattr(state, "rho")
        shifted = np.exp(-0.8 * (h.eigenvalues - h.eigenvalues[0]))
        assert np.array_equal(state.weights, shifted / np.sum(shifted))

    def test_build_forms_nothing_d_by_d(self):
        h, _ = model_and_compression({"random": {"dim": 200}})
        tracemalloc.start()
        try:
            state = gibbs_state(h, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.frame is h
        assert peak < 0.1 * 200**2 * 16

    def test_arrowhead_state_forms_no_v(self):
        """A Friedrichs H frames its own Gibbs state: its eigenvectors are not formed to name it."""
        h, _ = model_and_compression({"friedrichs": {"n_modes": 200}})
        state = gibbs_state(h, 1.0)
        assert state.frame is h and "eigenvectors" not in vars(h)


class TestKMSScale:
    def test_overflow_is_typed(self):
        h = eigendecompose(np.diag([0.0, 1.0]).astype(complex))
        with pytest.raises(Overflow, match="kms scale"):
            kms_scale(h, np.eye(2), np.eye(2), 1000.0)

    @pytest.mark.parametrize("beta", [1e308, sys.float_info.max])
    def test_infinite_exponent_is_typed(self, beta):
        """beta * spread overflows to inf, where math.exp raises nothing."""
        h = eigendecompose(np.diag([0.0, 2.0]).astype(complex))
        with pytest.raises(Overflow, match="kms scale exponent inf"):
            kms_scale(h, np.eye(2), np.eye(2), beta)

    def test_largest_finite_exponent_is_kept(self):
        h = eigendecompose(np.diag([0.0, 1.0]))
        edge = math.log(sys.float_info.max)
        assert kms_scale(h, np.eye(2), np.eye(2), edge) == math.exp(edge)
        with pytest.raises(Overflow):
            kms_scale(h, np.eye(2), np.eye(2), math.nextafter(edge, math.inf))

    def test_finite_scale_unchanged(self):
        h = eigendecompose(np.diag([0.0, 2.0]).astype(complex))
        a = np.diag([3.0, 1.0])
        assert kms_scale(h, a, np.eye(2), 1.5) == 3.0 * 1.0 * math.exp(3.0)

    @pytest.mark.parametrize("dim", [1, 7, 30, 80])
    def test_hermitian_draws_agree_with_the_svd_norms(self, dim):
        rng = np.random.default_rng(dim)
        h = random_hermitian_op(rng, dim)
        for _ in range(5):
            a, b = zenolab.scenarios._random_hermitian(rng, dim), random_hermitian(rng, dim).real
            assert np.array_equal(a, a.conj().T) and np.array_equal(b, b.T)
            svd = operator_norm(a) * operator_norm(b) * math.exp(0.7 * h.spread)
            assert abs(kms_scale(h, a, b, 0.7) - svd) <= 1e-12 * svd

    def test_nearly_hermitian_draw_keeps_the_svd_norm(self):
        rng = np.random.default_rng(4)
        h = random_hermitian_op(rng, 12)
        a, b = random_hermitian(rng, 12), random_hermitian(rng, 12)
        a[0, 1] += 1e-9
        b[5, 2] -= 1e-9j
        growth = math.exp(0.5 * h.spread)
        assert kms_scale(h, a, b, 0.5) == operator_norm(a) * operator_norm(b) * growth

    def test_gibbs_run_takes_no_svd_for_the_scale(self, tmp_path, monkeypatch):
        inside, svd_calls = [], []
        scale, svd, norm = zenolab.scenarios.kms_scale, np.linalg.svd, np.linalg.norm

        def spy_scale(*args):
            inside.append(True)
            try:
                return scale(*args)
            finally:
                inside.pop()

        def spy_svd(*args, **kwargs):
            if inside:
                svd_calls.append("svd")
            return svd(*args, **kwargs)

        def spy_norm(x, ord=None, *args, **kwargs):
            if inside and ord == 2:
                svd_calls.append("norm 2")
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(zenolab.scenarios, "kms_scale", spy_scale)
        monkeypatch.setattr(np.linalg, "svd", spy_svd)
        monkeypatch.setattr(np.linalg, "norm", spy_norm)
        config = parse_config({"schema_version": 1, "task": "gibbs", "model": {"random": {"dim": 30}}, "pairs": 3})
        report = run_scenario(config, out_dir=tmp_path)
        rows = (tmp_path / "kms.csv").read_text().splitlines()[1:]
        assert len({row.split(",")[3] for row in rows}) == 3 and report.headline["max_residual_over_scale"] > 0
        assert svd_calls == []


class TestHeisenbergEvolve:
    """The kernel maps V*AV to V*tau_z(A)V; a diagonal H has V = I, so there it maps A to tau_z(A)."""

    def test_identity_is_fixed(self):
        h = random_hermitian_op(np.random.default_rng(1), 4)
        for z in (0.5, 1.0 + 0.5j):
            assert operator_norm(heisenberg_evolve(h, np.eye(4), z) - np.eye(4)) < 1e-12

    def test_commuting_observable_fixed(self):
        h = eigendecompose(np.diag([0.0, 1.0, 2.0]).astype(complex))
        a = np.diag([3.0, 4.0, 5.0]).astype(complex)
        assert operator_norm(heisenberg_evolve(h, a, 1.3 + 0.7j) - a) < 1e-12

    def test_ladder_element_scalar_conjugation(self):
        h = eigendecompose(np.diag([0.0, 1.0]).astype(complex))
        a = np.zeros((2, 2), dtype=complex)
        a[0, 1] = 1.0
        z = 0.8 + 0.5j
        out = heisenberg_evolve(h, a, z)
        assert abs(out[0, 1] - np.exp(-1j * z)) < 1e-13
        assert abs(out[1, 0]) < 1e-14

    def test_real_time_preserves_norm_and_trace(self):
        rng = np.random.default_rng(2)
        h = random_hermitian_op(rng, 4)
        a = random_hermitian(rng, 4)
        out = heisenberg_evolve(h, a, 1.7)
        assert abs(np.trace(out) - np.trace(a)) < 1e-10
        assert abs(operator_norm(out) - operator_norm(a)) < 1e-10

    def test_overflow_guard(self):
        h = eigendecompose(np.diag([0.0, 200.0]).astype(complex))
        with pytest.raises(Overflow):
            heisenberg_evolve(h, np.eye(2), 4j)

    # far from 0, so exp(i z w) itself would overflow; dyadic, so w_i - w_k is exact
    OFFSET_SPECTRUM = np.array([1000.0, 1001.25, 1002.0, 1004.5])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_continuation_just_below_the_guard_is_finite(self, sign):
        w = self.OFFSET_SPECTRUM
        h = eigendecompose(np.diag(w).astype(complex))
        rng = np.random.default_rng(17)
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        z = 0.3 + sign * 699.0j / 4.5  # |Im z| * spread = 699
        out = heisenberg_evolve(h, b, z)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, b * np.exp(1j * z * (w[:, None] - w[None, :])), rtol=1e-12, atol=0)

    def test_continuation_just_above_the_guard_raises(self):
        h = eigendecompose(np.diag(self.OFFSET_SPECTRUM).astype(complex))
        with pytest.raises(Overflow):
            heisenberg_evolve(h, np.eye(4), 0.3 - 701.0j / 4.5)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_time_with_no_phase_digit_raises(self, sign):
        """|z| * spread * eps >= 1 raises, the rule of ``phase_factors``, with scale the spread, not the norm."""
        w = sign * np.array([1000.0, 1001.0, 1004.0])  # spread 4, norm 1004
        h = eigendecompose(np.diag(w))
        edge = 1.0 / (4.0 * np.finfo(float).eps)
        heisenberg_evolve(h, np.eye(3), 0.99 * edge)
        for z in (1.01 * edge, -1.01 * edge, complex(1.01 * edge, 0.5), 1e300):
            with pytest.raises(Overflow, match="no correct digit"):
                heisenberg_evolve(h, np.eye(3), z)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, complex(0.5, math.nan), complex(math.nan, 1.0)])
    def test_non_finite_time_is_typed(self, z):
        h = random_hermitian_op(np.random.default_rng(4), 3)
        with pytest.raises(NonFinite, match="time"):
            heisenberg_evolve(h, np.eye(3), z)


def model_and_compression(model):
    """(H, E) of a small model: Friedrichs has a float64 eigenbasis, random a complex one."""
    scen = build_scenario(parse_config({"schema_version": 1, "task": "gibbs", "model": model}))
    return scen.hamiltonian, scen.projection


class TestEigenbasisPath:
    MODELS = {
        "friedrichs": {"friedrichs": {"n_modes": 12}},
        "random": {"random": {"dim": 10, "rank_e": 4, "seed": 3}},
    }

    @pytest.mark.parametrize("model", list(MODELS), ids=list(MODELS))
    @pytest.mark.parametrize("size", ["full", "compressed"])
    @pytest.mark.parametrize("z", [0.7, -1.3, 0.7 + 1.0j, -1.3 + 2.5j])
    def test_equals_the_dense_definition(self, model, size, z):
        h, e = model_and_compression(self.MODELS[model])
        assert h.eigenvectors.dtype == (np.float64 if model == "friedrichs" else np.complex128)
        b = random_hermitian(np.random.default_rng(8), h.dim)
        if size == "compressed":
            q = e.basis
            h, b = zeno_generator(h, e), q.conj().T @ b @ q
        b_eig = zenolab.gibbs._to_eigenbasis(h, b)
        fast = heisenberg_evolve(h, b_eig, z)
        v, dense = h.eigenvectors, dense_heisenberg(h, b, z)
        assert operator_norm(fast - v.conj().T @ dense @ v) <= 1e-12 * operator_norm(dense)
        assert operator_norm(b_eig - v.conj().T @ b @ v) <= 1e-13 * (1.0 + operator_norm(b))

    def test_guards_run_on_the_eigenbasis_input(self):
        h = eigendecompose(np.diag([0.0, 200.0]).astype(complex))
        with pytest.raises(Overflow):
            heisenberg_evolve(h, np.eye(2), 4j)
        with pytest.raises(Overflow, match="no correct digit"):
            heisenberg_evolve(h, np.eye(2), 1e20)
        with pytest.raises(DimensionMismatch):
            heisenberg_evolve(h, np.eye(3), 0.5)
        with pytest.raises(NonFinite):
            heisenberg_evolve(h, np.full((2, 2), math.nan), 0.5)
        with pytest.raises(NonFinite):
            heisenberg_evolve(h, np.eye(2), math.nan)

    def test_observable_enters_the_eigenbasis_once_per_pair_in_each_check(self, tmp_path, monkeypatch):
        """Two pairs: A and B enter once per pair at d = 30 and at r = 5, and every evolution stays there.

        Each check takes its Gibbs state as weights, so no state enters the
        eigenbasis at d or at r.
        """
        formed, evolved = [], []
        to_eigenbasis, evolve_ = zenolab.gibbs._to_eigenbasis, zenolab.gibbs.heisenberg_evolve

        def spy_transform(h, a):
            formed.append(h.dim)
            return to_eigenbasis(h, a)

        def spy_evolve(h, a, z):
            evolved.append(h.dim)
            return evolve_(h, a, z)

        monkeypatch.setattr(zenolab.gibbs, "_to_eigenbasis", spy_transform)
        monkeypatch.setattr(zenolab.gibbs, "heisenberg_evolve", spy_evolve)
        config = parse_config(
            {"schema_version": 1, "task": "gibbs", "model": {"random": {"dim": 30, "rank_e": 5}}, "pairs": 2}
        )
        run_scenario(config, out_dir=tmp_path)
        assert sorted(formed) == [5] * 4 + [30] * 4
        assert len(evolved) == 72


class TestKMSResidual:
    def test_identity_pair_vanishes(self):
        h = random_hermitian_op(np.random.default_rng(3), 4)
        state = gibbs_state(h, 1.0)
        assert kms_residual(h, state, np.eye(4), np.eye(4), 0.7, 1.0) < 1e-14

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_gibbs_passes_at_matching_beta(self, beta):
        rng = np.random.default_rng(4)
        h = random_hermitian_op(rng, 4)
        state = gibbs_state(h, beta)
        for _ in range(10):
            a, b = random_hermitian(rng, 4), random_hermitian(rng, 4)
            for t in np.linspace(-2.0, 2.0, 5):
                scale = kms_scale(h, a, b, beta)
                assert kms_residual(h, state, a, b, float(t), beta) < 1e-10 * scale

    def test_tracial_state_fails_at_wrong_beta(self):
        rng = np.random.default_rng(5)
        h = random_hermitian_op(rng, 4)
        tracial = gibbs_state(h, 0.0)
        a, b = random_hermitian(rng, 4), random_hermitian(rng, 4)
        scale = kms_scale(h, a, b, 1.0)
        assert kms_residual(h, tracial, a, b, 0.7, 1.0) > 1e-8 * scale

    def test_uniqueness_among_candidate_states(self):
        rng = np.random.default_rng(6)
        h = random_hermitian_op(rng, 4)
        beta = 1.0
        a, b = random_hermitian(rng, 4), random_hermitian(rng, 4)
        scale = kms_scale(h, a, b, beta)
        right = gibbs_state(h, beta)
        wrong = gibbs_state(h, 2.0)
        tracial = gibbs_state(h, 0.0)
        t = 0.9
        assert kms_residual(h, right, a, b, t, beta) < 1e-10 * scale
        assert kms_residual(h, wrong, a, b, t, beta) > 1e-8 * scale
        assert kms_residual(h, tracial, a, b, t, beta) > 1e-8 * scale

    def test_matches_the_triple_product_traces(self):
        rng = np.random.default_rng(18)
        h = random_hermitian_op(rng, 6)
        a, b = random_hermitian(rng, 6), random_hermitian(rng, 6)
        for state in (gibbs_state(h, 1.0), gibbs_state(h, 0.0)):
            for t in (-1.2, 0.4):
                rho = density_matrix(state)
                left = np.trace(rho @ a @ dense_heisenberg(h, b, t + 1j))
                right = np.trace(rho @ dense_heisenberg(h, b, t) @ a)
                dense = float(abs(left - right))
                assert abs(kms_residual(h, state, a, b, t, 1.0) - dense) <= 1e-12 * kms_scale(h, a, b, 1.0)

    def test_sequence_of_times_matches_one_call_per_time(self):
        """A sequence of t gives the per-t residuals to the bit: the arithmetic is the same."""
        rng = np.random.default_rng(19)
        h = random_hermitian_op(rng, 6)
        a, b = random_hermitian(rng, 6), random_hermitian(rng, 6)
        state, ts = gibbs_state(h, 0.7), np.linspace(-2.0, 2.0, 9)
        one_each = [kms_residual(h, state, a, b, t, 0.7) for t in ts]
        assert all(type(r) is float for r in one_each)
        assert kms_residual(h, state, a, b, ts, 0.7).tolist() == one_each
        assert kms_residual(h, state, a, b, list(ts[:1]), 0.7).shape == (1,)
        with pytest.raises(ValueError, match="1-D"):
            kms_residual(h, state, a, b, ts.reshape(3, 3), 0.7)

    @staticmethod
    def thermal_call(check, t, beta):
        """Every thermal entry point that takes beta, on a 4 x 4 H, at time t where it takes one."""
        rng = np.random.default_rng(5)
        h = random_hermitian_op(rng, 4)
        a, b = random_hermitian(rng, 4), random_hermitian(rng, 4)
        e = random_projection(rng, 4, 2)
        calls = {
            "full": lambda: kms_residual(h, gibbs_state(h, 1.0), a, b, t, beta),
            "gibbs": lambda: gibbs_state(h, beta),
            "scale": lambda: kms_scale(h, a, b, beta),
            "zeno": lambda: zeno_gibbs_state(h, e, beta),
            "reduced": lambda: reduced_kms_residual(h, e, beta, [(a, b)], [t]),
            "reduced-state": lambda: reduced_kms_residual(h, e, beta, [(a, b)], [t], state=zeno_gibbs_state(h, e, 1.0)),
        }
        return calls[check]

    CHECKS = ("gibbs", "scale", "full", "zeno", "reduced", "reduced-state")

    @pytest.mark.parametrize(
        "check, t, beta",
        [("full", math.nan, 1.0), ("full", [0.5, math.nan], 1.0), ("full", math.inf, 1.0)]
        + [(check, 0.5, beta) for check in CHECKS for beta in (math.inf, math.nan)],
    )
    def test_non_finite_time_or_beta_is_typed(self, check, t, beta):
        """Raised before any arithmetic on beta: no RuntimeWarning comes first, and the scale raises no Overflow."""
        call = self.thermal_call(check, t, beta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite):
                call()

    @pytest.mark.parametrize("check", CHECKS)
    def test_negative_beta_is_a_value_error(self, check):
        """A negative beta is no temperature: the scale would be ||A|| ||B|| exp(-|beta| spread), below ||A|| ||B||,
        and the check would accept the Gibbs state at -beta."""
        call = self.thermal_call(check, 0.5, -1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="nonnegative"):
                call()

    def test_state_of_the_wrong_size_is_typed(self):
        h = random_hermitian_op(np.random.default_rng(6), 4)
        v, a = h.eigenvectors, np.eye(4)
        with pytest.raises(DimensionMismatch):
            kms_residual(h, DensityState(identity_projection(3), np.ones(3) / 3.0), a, a, 0.5, 1.0)
        with pytest.raises(DimensionMismatch):
            DensityState(OrthogonalProjection(v[:, :3]), np.ones(4) / 4.0)
        with pytest.raises(DimensionMismatch):
            OrthogonalProjection(v[:, 0])

    @pytest.mark.parametrize("case", ["expectation", "reduced-pair", "reduced-state", "scale"])
    def test_mismatched_sizes_are_typed(self, case):
        """An observable or a state of the wrong size raises DimensionMismatch, not numpy's ValueError or a number."""
        rng = np.random.default_rng(22)
        h, other = random_hermitian_op(rng, 4), random_hermitian_op(rng, 3)
        e, big, small = random_projection(rng, 4, 2), np.eye(4), np.eye(3)
        calls = {
            "expectation": lambda: expectation(gibbs_state(h, 1.0), small),
            "reduced-pair": lambda: reduced_kms_residual(h, e, 1.0, [(small, small)], [0.5]),
            "reduced-state": lambda: reduced_kms_residual(h, e, 1.0, [(big, big)], [0.5], state=gibbs_state(other, 1.0)),
            "scale": lambda: kms_scale(h, small, small, 1.0),
        }
        with pytest.raises(DimensionMismatch):
            calls[case]()

    def test_gibbs_stationarity(self):
        rng = np.random.default_rng(7)
        h = random_hermitian_op(rng, 4)
        state = gibbs_state(h, 1.3)
        a = random_hermitian(rng, 4)
        for t in (0.4, 2.0):
            moved = dense_heisenberg(h, a, t)
            assert abs(expectation(state, moved) - expectation(state, a)) < 1e-10


class TestGibbsStateAsWeights:
    """A state whose frame is H's own eigenvectors enters the full check as its weights."""

    def test_gibbs_run_checks_every_state_as_its_weights(self, tmp_path, monkeypatch):
        """Both checks of both pairs take the weights route: each state is diagonal in its generator's eigenbasis."""
        kernel, seen = zenolab.gibbs._kms_gaps, []

        def spy(frame, weights, h, *args):
            seen.append((frame is None, h.dim))
            return kernel(frame, weights, h, *args)

        monkeypatch.setattr(zenolab.gibbs, "_kms_gaps", spy)
        config = parse_config(
            {"schema_version": 1, "task": "gibbs", "model": {"random": {"dim": 30, "rank_e": 5}}, "pairs": 2}
        )
        run_scenario(config, out_dir=tmp_path)
        assert seen == [(True, 30)] * 2 + [(True, 5)] * 2

    @pytest.mark.parametrize("model", list(TestEigenbasisPath.MODELS), ids=list(TestEigenbasisPath.MODELS))
    def test_full_check_makes_four_products_per_pair(self, monkeypatch, model):
        """V*AV and V*BV, two products each; the state and the nine times add none."""
        h, _ = model_and_compression(TestEigenbasisPath.MODELS[model])
        rng, matmul, shapes = np.random.default_rng(31), zenolab.gibbs._matmul, []

        def spy(a, b):
            shapes.append(a.shape + b.shape)
            return matmul(a, b)

        monkeypatch.setattr(zenolab.gibbs, "_matmul", spy)
        state = gibbs_state(h, 1.0)
        for _ in range(3):
            kms_residual(h, state, random_hermitian(rng, h.dim), random_hermitian(rng, h.dim), np.linspace(-2, 2, 9), 1.0)
        assert shapes == [(h.dim,) * 4] * 12

    @pytest.mark.parametrize("model", list(TestEigenbasisPath.MODELS), ids=list(TestEigenbasisPath.MODELS))
    @pytest.mark.parametrize("state_beta", [1.0, 2.5], ids=["gibbs", "wrong-beta"])
    def test_a_copied_frame_takes_the_frame_path_and_agrees(self, monkeypatch, model, state_beta):
        h, _ = model_and_compression(TestEigenbasisPath.MODELS[model])
        rng, ts = np.random.default_rng(32), np.linspace(-2.0, 2.0, 5)
        weighted = gibbs_state(h, state_beta)
        copied = DensityState(OrthogonalProjection(h.eigenvectors.copy()), weighted.weights)
        kernel, seen = zenolab.gibbs._kms_gaps, []

        def spy(frame, *args):
            seen.append(frame is None)
            return kernel(frame, *args)

        monkeypatch.setattr(zenolab.gibbs, "_kms_gaps", spy)
        for _ in range(3):
            a, b = random_hermitian(rng, h.dim), random_hermitian(rng, h.dim)
            fast, dense = kms_residual(h, weighted, a, b, ts, 1.0), kms_residual(h, copied, a, b, ts, 1.0)
            assert np.all(np.abs(fast - dense) <= 1e-12 * kms_scale(h, a, b, 1.0))
        assert seen == [True, False] * 3

    def test_full_check_adds_under_five_d_by_d_arrays(self):
        """rho is not formed, and the t loop holds the two Y^T, B~ and one evolved B~ at a time."""
        h, _ = model_and_compression({"random": {"dim": 200}})
        rng = np.random.default_rng(33)
        a, b = random_hermitian(rng, 200), random_hermitian(rng, 200)
        state = gibbs_state(h, 1.0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kms_residual(h, state, a, b, np.linspace(-2.0, 2.0, 9), 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 5 * 200**2 * 16


class TestZenoGibbs:
    def test_full_projection_reduces_to_gibbs(self):
        rng = np.random.default_rng(8)
        h = random_hermitian_op(rng, 4)
        plain = gibbs_state(h, 1.0)
        compressed = zeno_gibbs_state(h, identity_projection(4), 1.0)
        assert operator_norm(density_matrix(plain) - density_matrix(compressed)) < 1e-12

    def test_rank_one_is_pure(self):
        rng = np.random.default_rng(9)
        h = random_hermitian_op(rng, 4)
        e = random_projection(rng, 4, 1)
        for beta in (0.1, 1.0, 10.0):
            state = zeno_gibbs_state(h, e, beta)
            assert operator_norm(density_matrix(state) - e.matrix) < 1e-12

    def test_rabi_pins_the_measured_state(self):
        h, e = rabi_pair()
        state = zeno_gibbs_state(h, e, 2.0)
        assert operator_norm(density_matrix(state) - e.matrix) < 1e-13

    def test_zero_rank_rejected(self):
        h = random_hermitian_op(np.random.default_rng(10), 3)
        empty = OrthogonalProjection(np.zeros((3, 0), dtype=complex))
        with pytest.raises(ZeroRank):
            zeno_gibbs_state(h, empty, 1.0)

    def test_build_forms_nothing_d_by_d(self, monkeypatch):
        """At Friedrichs d = 801 the state is its frame QV' and weights, built at r x r.

        The one eigendecompose is the r x r generator's, H and V are never
        formed, and the peak stays below one real d x d array.
        """
        h, e = model_and_compression({"friedrichs": {"n_modes": 800}})
        shapes, decompose = [], zenolab.zeno.eigendecompose

        def spy(m):
            shapes.append(np.shape(m))
            return decompose(m)

        monkeypatch.setattr(zenolab.zeno, "eigendecompose", spy)
        assert "matrix" not in vars(h) and "eigenvectors" not in vars(h)
        tracemalloc.start()
        try:
            state = zeno_gibbs_state(h, e, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert shapes == [(e.rank, e.rank)] and not hasattr(zenolab.gibbs, "eigendecompose")
        assert "matrix" not in vars(h) and "eigenvectors" not in vars(h)
        assert state.frame.basis.shape == (h.dim, e.rank)
        assert peak < h.dim**2 * 8

    @pytest.mark.parametrize("model", list(TestEigenbasisPath.MODELS), ids=list(TestEigenbasisPath.MODELS))
    def test_full_check_of_the_state_matches_the_dense_loop(self, model):
        """The state's frame QV' is not H's V, so the full check takes its frame V*QV': the frame path."""
        h, e = model_and_compression(TestEigenbasisPath.MODELS[model])
        rng, ts, beta = np.random.default_rng(34), np.linspace(-2.0, 2.0, 5), 1.0
        state = zeno_gibbs_state(h, e, beta)
        for _ in range(3):
            a, b = random_hermitian(rng, h.dim), random_hermitian(rng, h.dim)
            scale = kms_scale(h, a, b, beta)
            fast = kms_residual(h, state, a, b, ts, beta)
            dense = np.array(dense_gaps(density_matrix(state), h, a, b, ts, beta))
            assert np.all(np.abs(fast - dense) <= 1e-12 * scale)
            assert dense.max() > 1e-8 * scale  # not Gibbs for H, so the check has something to match

    def test_compression_identity(self):
        rng = np.random.default_rng(11)
        h = random_hermitian_op(rng, 6)
        e = random_projection(rng, 6, 3)
        state = zeno_gibbs_state(h, e, 1.0)
        p = e.matrix
        for _ in range(10):
            a, b, c = (random_hermitian(rng, 6) for _ in range(3))
            lhs = expectation(state, a @ (p @ b @ p) @ c)
            rhs = expectation(state, (p @ a @ p) @ (p @ b @ p) @ (p @ c @ p))
            assert abs(lhs - rhs) < 1e-10


def counted(pairs, read):
    """Yield the pairs one at a time, appending each to ``read`` as it is taken."""
    for pair in pairs:
        read.append(pair)
        yield pair


class TestReducedKMS:
    def test_full_projection_matches_plain_residual(self):
        rng = np.random.default_rng(12)
        h = random_hermitian_op(rng, 4)
        pairs = [(random_hermitian(rng, 4), random_hermitian(rng, 4))]
        worst = reduced_kms_residual(h, identity_projection(4), 1.0, pairs, [0.5])
        state = gibbs_state(h, 1.0)
        direct = kms_residual(h, state, pairs[0][0], pairs[0][1], 0.5, 1.0)
        assert abs(worst - direct) < 1e-12

    def test_spectral_projection_commuting_case(self):
        h = eigendecompose(np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex))
        basis = np.eye(4, dtype=complex)
        from zenolab.operators import projection_from_span

        e = projection_from_span([basis[:, 0], basis[:, 2]])
        rng = np.random.default_rng(13)
        pairs = [(random_hermitian(rng, 4), random_hermitian(rng, 4)) for _ in range(5)]
        worst = reduced_kms_residual(h, e, 1.0, pairs, np.linspace(-1, 1, 5))
        assert worst < 1e-10 * math.exp(3.0)

    def test_random_compression_passes(self):
        rng = np.random.default_rng(14)
        h = random_hermitian_op(rng, 6)
        e = random_projection(rng, 6, 3)
        pairs = [(random_hermitian(rng, 6), random_hermitian(rng, 6)) for _ in range(20)]
        read = []
        worst = reduced_kms_residual(h, e, 1.0, counted(pairs, read), np.linspace(-2, 2, 5))
        assert len(read) == 20
        gen = eigendecompose(compressed_generator_matrix(h, e))
        scale = math.exp(1.0 * gen.spread)
        assert worst < 1e-10 * scale

    def test_wrong_projection_state_fails(self):
        rng = np.random.default_rng(15)
        h = random_hermitian_op(rng, 6)
        e = random_projection(rng, 6, 3)
        other = random_projection(rng, 6, 3)
        pairs = [(random_hermitian(rng, 6), random_hermitian(rng, 6)) for _ in range(5)]
        mismatched = zeno_gibbs_state(h, other, 1.0)
        worst = reduced_kms_residual(h, e, 1.0, pairs, [0.7], state=mismatched)
        assert worst > 1e-6

    def test_gibbs_run_eigendecomposes_model_and_generator_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(m):
            calls.append(1)
            return eigendecompose(m)

        monkeypatch.setattr(zenolab.scenarios, "eigendecompose", counting)
        monkeypatch.setattr(zenolab.zeno, "eigendecompose", counting)  # the generator's, in zeno_generator
        config = parse_config(
            {"schema_version": 1, "task": "gibbs", "model": {"random": {"dim": 8, "rank_e": 3}}, "pairs": 2}
        )
        run_scenario(config, out_dir=tmp_path)
        assert len(calls) == 2

    def test_reduced_check_forms_nothing_d_by_d(self):
        h, e = model_and_compression({"random": {"dim": 200, "rank_e": 2}})
        pair = (random_hermitian(np.random.default_rng(24), 200), np.eye(200, dtype=complex))
        tracemalloc.start()
        try:
            reduced_kms_residual(h, e, 1.0, [pair], [0.5])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200**2 * 16

    def test_reduced_residual_reuses_the_state_generator(self):
        """Its own Gibbs state, taken as weights, agrees with the same state passed in as the frame QV'."""
        rng = np.random.default_rng(16)
        h = random_hermitian_op(rng, 6)
        e = random_projection(rng, 6, 3)
        pairs = [(random_hermitian(rng, 6), random_hermitian(rng, 6)) for _ in range(3)]
        ts = np.linspace(-1, 1, 3)
        implicit = reduced_kms_residual(h, e, 0.8, pairs, ts)
        explicit = reduced_kms_residual(h, e, 0.8, pairs, ts, state=zeno_gibbs_state(h, e, 0.8))
        assert abs(implicit - explicit) <= 1e-12 * max(kms_scale(h, a, b, 0.8) for a, b in pairs)


    def test_pairs_are_read_one_at_a_time(self):
        rng = np.random.default_rng(16)
        h = random_hermitian_op(rng, 6)
        e = random_projection(rng, 6, 2)
        pairs = [(random_hermitian(rng, 6), random_hermitian(rng, 6)) for _ in range(4)]
        read = []
        listed = reduced_kms_residual(h, e, 1.0, pairs, [0.3, 0.9])
        streamed = reduced_kms_residual(h, e, 1.0, counted(pairs, read), [0.3, 0.9])
        assert streamed == listed and len(read) == 4

    def test_gibbs_run_holds_few_draws_during_the_reduced_check(self, tmp_path, monkeypatch):
        draw, gaps = zenolab.scenarios._random_hermitian, zenolab.gibbs._kms_gaps
        drawn = []
        alive = []

        def spy_draw(rng, dim):
            m = draw(rng, dim)
            drawn.append(weakref.ref(m))
            return m

        def spy_gaps(frame, weights, h, *args):
            if h.dim == 3:  # the reduced check runs at r x r
                alive.append(sum(ref() is not None for ref in drawn))
            return gaps(frame, weights, h, *args)

        monkeypatch.setattr(zenolab.scenarios, "_random_hermitian", spy_draw)
        monkeypatch.setattr(zenolab.gibbs, "_kms_gaps", spy_gaps)
        config = parse_config(
            {"schema_version": 1, "task": "gibbs", "model": {"random": {"dim": 8, "rank_e": 3}}, "pairs": 5}
        )
        run_scenario(config, out_dir=tmp_path)
        # the full check's last pair and the pair under test, not all five pairs at once
        assert len(alive) == 5 and max(alive) <= 4


class TestReducedAgainstDense:
    """The r x r reduced check against the d x d loop it replaced."""

    @staticmethod
    def case(d, r, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian_op(rng, d)
        e = identity_projection(d) if r == d else random_projection(rng, d, r)
        pairs = [(random_hermitian(rng, d), random_hermitian(rng, d)) for _ in range(3)]
        return rng, h, e, pairs

    @pytest.mark.parametrize("d", [6, 12])
    @pytest.mark.parametrize("r", [1, 3, "d"])
    def test_passing_case_agrees(self, d, r):
        r = d if r == "d" else r
        _, h, e, pairs = self.case(d, r, 100 + d + r)
        ts = np.linspace(-2.0, 2.0, 5)
        worst = reduced_kms_residual(h, e, 1.0, pairs, ts)
        dense = dense_reduced_residual(h, e, 1.0, pairs, ts, density_matrix(zeno_gibbs_state(h, e, 1.0)))
        scale = max(kms_scale(h, a, b, 1.0) for a, b in pairs)
        assert abs(worst - dense) <= 1e-12 * scale

    @pytest.mark.parametrize("d", [6, 12])
    @pytest.mark.parametrize("r", [3, "d"])
    @pytest.mark.parametrize("control", ["projection", "beta"])
    def test_negative_control_agrees(self, d, r, control):
        r = d if r == "d" else r
        rng, h, e, pairs = self.case(d, r, 200 + d + r)
        if control == "projection":
            state = zeno_gibbs_state(h, random_projection(rng, d, min(r, d - 1)), 1.0)
        else:
            state = zeno_gibbs_state(h, e, 2.5)
        ts = np.linspace(-2.0, 2.0, 5)
        worst = reduced_kms_residual(h, e, 1.0, pairs, ts, state=state)
        dense = dense_reduced_residual(h, e, 1.0, pairs, ts, density_matrix(state))
        assert dense > 1e-6
        assert abs(worst - dense) <= 1e-12 * dense

    def test_empty_t_grid_is_a_value_error(self):
        rng = np.random.default_rng(20)
        h = random_hermitian_op(rng, 6)
        pairs = [(random_hermitian(rng, 6), random_hermitian(rng, 6))]
        with pytest.raises(ValueError, match="t_grid"):
            reduced_kms_residual(h, random_projection(rng, 6, 2), 1.0, pairs, [])

    def test_two_dimensional_t_grid_is_a_value_error(self):
        """The grid is read by kms_residual's rule: one time or a 1-D sequence, so a 2-D grid is no TypeError."""
        rng = np.random.default_rng(20)
        h = random_hermitian_op(rng, 6)
        pairs = [(random_hermitian(rng, 6), random_hermitian(rng, 6))]
        with pytest.raises(ValueError, match="1-D"):
            reduced_kms_residual(h, random_projection(rng, 6, 2), 1.0, pairs, np.linspace(-2.0, 2.0, 4).reshape(2, 2))

    def test_one_time_is_a_grid_of_that_time(self):
        rng = np.random.default_rng(20)
        h = random_hermitian_op(rng, 6)
        e = random_projection(rng, 6, 2)
        pairs = [(random_hermitian(rng, 6), random_hermitian(rng, 6))]
        worst = reduced_kms_residual(h, e, 1.0, pairs, 0.5)
        assert type(worst) is float and worst == reduced_kms_residual(h, e, 1.0, pairs, [0.5])

    def test_no_pairs_is_a_value_error(self):
        """An empty ``pairs`` checks nothing, so it raises rather than report a residual of 0."""
        rng = np.random.default_rng(20)
        h = random_hermitian_op(rng, 6)
        with pytest.raises(ValueError, match="pairs"):
            reduced_kms_residual(h, random_projection(rng, 6, 2), 1.0, [], np.linspace(-2.0, 2.0, 5))

    def test_zero_rank_raises(self):
        h = random_hermitian_op(np.random.default_rng(19), 6)
        empty = OrthogonalProjection(np.zeros((6, 0), dtype=complex))
        pairs = [(np.eye(6), np.eye(6))]
        with pytest.raises(ZeroRank):
            reduced_kms_residual(h, empty, 1.0, pairs, [0.5])

    def test_gibbs_run_evolves_at_the_full_and_the_compressed_size(self, tmp_path, monkeypatch):
        dims = []

        def spy(h, a, z):
            dims.append(h.dim)
            return heisenberg_evolve(h, a, z)

        monkeypatch.setattr(zenolab.gibbs, "heisenberg_evolve", spy)
        config = parse_config(
            {"schema_version": 1, "task": "gibbs", "model": {"random": {"dim": 30, "rank_e": 5}}, "pairs": 2}
        )
        run_scenario(config, out_dir=tmp_path)
        assert {n: dims.count(n) for n in set(dims)} == {30: 36, 5: 36}


class TestFrameRoute:
    """States that are not diagonal in H's eigenbasis: both checks take their frame, and agree with the dense loop.

    Each state is a rank-k Zeno Gibbs state (on the Friedrichs e_0 at k = 1,
    whose frame V*U the arrowhead reads off its first row) or random weights
    on a random rank-k frame from ``projection_from_span``. The reduced check
    runs on a random rank-3 compression, where neither state is its Gibbs state.
    """

    BETA = 1.0
    TS = np.linspace(-2.0, 2.0, 3)

    @staticmethod
    def case(kind, d, k, source):
        rng = np.random.default_rng(500 + 10 * d + k)
        if kind == "friedrichs":
            h, e = model_and_compression({"friedrichs": {"n_modes": d - 1}})
        else:
            h, e = random_hermitian_op(rng, d), None
        spanning = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
        if source == "zeno":
            state = zeno_gibbs_state(h, e if e is not None and k == 1 else projection_from_span(spanning), 0.7)
        else:
            p = rng.uniform(0.1, 1.0, k)
            state = DensityState(projection_from_span(spanning), p / np.sum(p))
        pairs = [(random_hermitian(rng, d), random_hermitian(rng, d)) for _ in range(2)]
        return rng, h, state, pairs

    CASES = pytest.mark.parametrize(
        "kind, d, k, source",
        [
            (kind, d, k, source)
            for kind in ("dense", "friedrichs")
            for d in (4, 12, 40)
            for k in (1, 3)
            for source in ("zeno", "frame")
        ],
    )

    @CASES
    def test_full_check(self, kind, d, k, source):
        _, h, state, pairs = self.case(kind, d, k, source)
        assert state.frame is not h
        for a, b in pairs:
            fast = kms_residual(h, state, a, b, self.TS, self.BETA)
            dense = np.array(dense_gaps(density_matrix(state), h, a, b, self.TS, self.BETA))
            assert np.all(np.abs(fast - dense) <= 1e-12 * kms_scale(h, a, b, self.BETA))

    @CASES
    def test_reduced_check(self, kind, d, k, source):
        rng, h, state, pairs = self.case(kind, d, k, source)
        e = projection_from_span(rng.standard_normal((3, d)) + 1j * rng.standard_normal((3, d)))
        worst = reduced_kms_residual(h, e, self.BETA, pairs, self.TS, state=state)
        dense = dense_reduced_residual(h, e, self.BETA, pairs, self.TS, density_matrix(state))
        assert abs(worst - dense) <= 1e-12 * max(kms_scale(h, a, b, self.BETA) for a, b in pairs)

    @CASES
    def test_expectation_is_the_dense_trace(self, kind, d, k, source):
        _, h, state, pairs = self.case(kind, d, k, source)
        for a, _ in pairs:
            assert abs(expectation(state, a) - np.trace(density_matrix(state) @ a)) <= 1e-13


def test_compressed_check_of_its_own_gibbs_state_reads_at_rounding(tmp_path):
    """On kms-thermal's model the reduced check takes its Gibbs state as exact weights: no rounding of a dense rho."""
    config = parse_config(
        {"schema_version": 1, "task": "gibbs", "model": {"random": {"dim": 200, "rank_e": 20}}, "pairs": 10}
    )
    assert run_scenario(config, out_dir=tmp_path).headline["reduced_max_residual"] < 4e-15


class TestKernelAgainstDenseLoop:
    """Both checks, entry by entry, against the dense loop over ``reference.dense_heisenberg``.

    Real V comes from a Friedrichs model compressed by a real basis Q, complex
    V from a random H and a complex Q. At r = 1 the compressed algebra is the
    scalars and every state passes, so the negative controls (a state at the
    wrong beta, a state from another projection) start at r = 3. Each
    control must fail by 100 times the check's 1e-10 tolerance.
    """

    TS = np.linspace(-2.0, 2.0, 3)
    BETA = 1.0

    @staticmethod
    def case(d, kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "real":
            h, _ = model_and_compression({"friedrichs": {"n_modes": d - 1}})
        else:
            h = random_hermitian_op(rng, d, norm=2.0)
        assert (h.eigenvectors.dtype == np.float64) == (kind == "real")
        draw = [random_hermitian(rng, d, norm=1.0) for _ in range(2 if d > 100 else 4)]
        return rng, h, list(zip(draw[::2], draw[1::2]))

    @staticmethod
    def projection(rng, d, r, kind):
        if r == d:
            return identity_projection(d)
        g = rng.standard_normal((d, r))
        if kind == "complex":
            g = g + 1j * rng.standard_normal((d, r))
        return OrthogonalProjection(np.linalg.qr(g)[0])

    @pytest.mark.parametrize("d", [6, 12, 200])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("state_beta", [1.0, 2.5], ids=["gibbs", "wrong-beta"])
    def test_full_check(self, d, kind, state_beta):
        _, h, pairs = self.case(d, kind, 300 + d)
        state = gibbs_state(h, state_beta)
        for a, b in pairs:
            scale = kms_scale(h, a, b, self.BETA)
            fast = kms_residual(h, state, a, b, self.TS, self.BETA)
            dense = np.array(dense_gaps(density_matrix(state), h, a, b, self.TS, self.BETA))
            assert np.all(np.abs(fast - dense) <= 1e-12 * scale)
            if state_beta != self.BETA:
                assert dense.max() > 1e-8 * scale

    @pytest.mark.parametrize("d", [6, 12, 200])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize(
        "r, control",
        [(1, None)] + [(r, c) for r in (3, "d") for c in (None, "beta", "projection")],
    )
    def test_reduced_check(self, monkeypatch, d, kind, r, control):
        r = d if r == "d" else r
        rng, h, pairs = self.case(d, kind, 400 + d + r)
        e = self.projection(rng, d, r, kind)
        if control == "beta":
            state = zeno_gibbs_state(h, e, 2.5)
        elif control == "projection":
            state = zeno_gibbs_state(h, self.projection(rng, d, min(r, d - 1), kind), self.BETA)
        else:
            state = None
        kernel, gaps = zenolab.gibbs._kms_gaps, []

        def spy(*args):
            gaps.append(kernel(*args))
            return gaps[-1]

        monkeypatch.setattr(zenolab.gibbs, "_kms_gaps", spy)
        worst = reduced_kms_residual(h, e, self.BETA, pairs, self.TS, state=state)
        rho = density_matrix(state or zeno_gibbs_state(h, e, self.BETA))
        dense = dense_reduced_gaps(h, e, self.BETA, pairs, self.TS, rho)
        scales = [kms_scale(h, a, b, self.BETA) for a, b in pairs]
        assert len(gaps) == len(pairs)
        for fast_row, dense_row, scale in zip(gaps, dense, scales):
            assert np.all(np.abs(np.array(fast_row) - dense_row) <= 1e-12 * scale)
        assert worst == max(map(max, gaps))
        if control:
            assert max(map(max, dense)) > 1e-8 * max(scales)

    def test_no_matrix_product_per_time(self, tmp_path, monkeypatch):
        """A gibbs run makes as many ``_matmul`` calls on a 50-point grid as on a 3-point one."""
        matmul, calls = zenolab.gibbs._matmul, []

        def spy(a, b):
            calls.append(1)
            return matmul(a, b)

        monkeypatch.setattr(zenolab.gibbs, "_matmul", spy)
        counts = []
        for num in (3, 50):
            calls.clear()
            config = parse_config(
                {"schema_version": 1, "task": "gibbs", "model": {"random": {"dim": 30}}, "t_grid": [-2, 2, num]}
            )
            run_scenario(config, out_dir=tmp_path / str(num))
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


class TestGibbsTimeGrid:
    MODELS = {
        "rabi": {"rabi": {}},
        "friedrichs": {"friedrichs": {"n_modes": 12}},
        "random": {"random": {"dim": 6}},
        "perturbed": {"perturbed": {"dim": 6}},
    }

    @pytest.mark.parametrize("model", list(MODELS), ids=list(MODELS))
    def test_explicit_default_grid_matches_the_default(self, model, tmp_path):
        base = {"schema_version": 1, "task": "gibbs", "model": self.MODELS[model], "pairs": 2}
        run_scenario(parse_config(base), out_dir=tmp_path / "default")
        run_scenario(parse_config({**base, "t_grid": [-2, 2, 9]}), out_dir=tmp_path / "explicit")
        default, explicit = ((tmp_path / d / "kms.csv").read_bytes() for d in ("default", "explicit"))
        assert explicit == default

    @pytest.mark.parametrize("task, grid", [("gibbs", [2, -2, 9]), ("gibbs", [1, 1, 9]), ("survival", [-2, 2, 9])])
    def test_misordered_grid_is_a_config_error(self, task, grid):
        data = {"schema_version": 1, "task": task, "model": {"friedrichs": {"n_modes": 12}}, "t_grid": grid}
        with pytest.raises(ConfigError, match="^t_grid: needs"):
            parse_config(data)

    @pytest.mark.parametrize("grid", [[-1e308, 1e308, 3], [-sys.float_info.max, 1e300, 2]])
    def test_grid_whose_span_overflows_is_a_config_error(self, grid):
        data = {"schema_version": 1, "task": "gibbs", "model": {"random": {"dim": 6}}, "t_grid": grid}
        with pytest.raises(ConfigError, match="^t_grid: needs start < stop and a finite span"):
            parse_config(data)
        parse_config({**data, "t_grid": [-8e307, 8e307, 3]})


class TestFrameType:
    """A state's frame is a checked projection or the operator itself, and nothing else."""

    def test_a_scaled_basis_is_refused_by_the_projection(self):
        """2 V[:, :2] at d = 4 once built a state whose expectation of the identity read 4."""
        v = random_hermitian_op(np.random.default_rng(61), 4).eigenvectors
        with pytest.raises(ValueError, match="orthonormal"):
            DensityState(OrthogonalProjection(2.0 * v[:, :2]), np.array([0.5, 0.5]))

    def test_a_bare_array_is_a_type_error(self):
        v = random_hermitian_op(np.random.default_rng(61), 4).eigenvectors
        with pytest.raises(TypeError, match="frame"):
            DensityState(v[:, :2], np.array([0.5, 0.5]))

    @pytest.mark.parametrize("model", list(TestEigenbasisPath.MODELS), ids=list(TestEigenbasisPath.MODELS))
    def test_expectation_of_either_frame_is_the_dense_trace(self, model):
        """A state framed by H (its Gibbs state) and one framed by a projection (weights on range(E))."""
        h, e = model_and_compression(TestEigenbasisPath.MODELS[model])
        rng = np.random.default_rng(62)
        p = rng.uniform(0.1, 1.0, e.rank)
        for state in (gibbs_state(h, 0.7), DensityState(e, p / np.sum(p))):
            for _ in range(3):
                a = random_hermitian(rng, h.dim)
                assert abs(expectation(state, a) - np.trace(density_matrix(state) @ a)) <= 1e-12
