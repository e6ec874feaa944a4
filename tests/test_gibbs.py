import math

import numpy as np
import pytest

from conftest import rabi_pair, random_hermitian, random_hermitian_op, random_projection
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
from zenolab.operators import OrthogonalProjection, eigendecompose, identity_projection, operator_norm
from zenolab.scenarios import build_scenario, parse_config, run_scenario


def compressed_generator_matrix(h, e):
    """The d x d reference: E H E on the full space, symmetrized."""
    c = e.matrix @ h.matrix @ e.matrix
    return (c + c.conj().T) / 2.0


def dense_reduced_residual(h, e, beta, pairs, ts, rho):
    """The d x d reference loop: EAE and EBE under the flow of the d x d EHE."""
    p = e.matrix
    generator = eigendecompose(compressed_generator_matrix(h, e))
    worst = 0.0
    for a, b in pairs:
        a_e, b_e = p @ a @ p, p @ b @ p
        for t in ts:
            left = np.trace(rho @ a_e @ heisenberg_evolve(generator, b_e, t + 1j * beta))
            right = np.trace(rho @ heisenberg_evolve(generator, b_e, t) @ a_e)
            worst = max(worst, float(abs(left - right)))
    return worst


class TestGibbsState:
    def test_infinite_temperature_is_tracial(self):
        h = random_hermitian_op(np.random.default_rng(0), 4)
        state = gibbs_state(h, 0.0)
        assert operator_norm(state.rho - np.eye(4) / 4.0) < 1e-12

    def test_two_level_closed_form(self):
        h = eigendecompose(np.diag([0.0, 1.0]).astype(complex))
        state = gibbs_state(h, 1.0)
        z = 1.0 + math.exp(-1.0)
        expected = np.diag([1.0 / z, math.exp(-1.0) / z])
        assert operator_norm(state.rho - expected) < 1e-14

    def test_low_temperature_projects_on_ground_state(self):
        h = eigendecompose(np.diag([0.0, 0.3, 1.0]).astype(complex))
        gap = 0.3
        state = gibbs_state(h, 50.0 / gap)
        assert state.rho[0, 0].real > 1.0 - 1e-8


class TestKMSScale:
    def test_overflow_is_typed(self):
        h = eigendecompose(np.diag([0.0, 1.0]).astype(complex))
        with pytest.raises(Overflow, match="kms scale"):
            kms_scale(h, np.eye(2), np.eye(2), 1000.0)

    def test_finite_scale_unchanged(self):
        h = eigendecompose(np.diag([0.0, 2.0]).astype(complex))
        a = np.diag([3.0, 1.0])
        assert kms_scale(h, a, np.eye(2), 1.5) == 3.0 * 1.0 * math.exp(3.0)


class TestHeisenbergEvolve:
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
    def test_equals_the_default_path_bit_for_bit(self, model, size, z):
        h, e = model_and_compression(self.MODELS[model])
        assert h.eigenvectors.dtype == (np.float64 if model == "friedrichs" else np.complex128)
        b = random_hermitian(np.random.default_rng(8), h.dim)
        if size == "compressed":
            q = e.basis
            h, b = zenolab.gibbs._compressed_gibbs(h, e, 1.0)[0], q.conj().T @ b @ q
        b_eig = zenolab.gibbs._to_eigenbasis(h, b)
        fast = heisenberg_evolve(h, b_eig, z, in_eigenbasis=True)
        assert np.array_equal(fast, heisenberg_evolve(h, b, z))
        v = h.eigenvectors
        assert operator_norm(b_eig - v.conj().T @ b @ v) <= 1e-13 * (1.0 + operator_norm(b))

    def test_guards_still_run_on_the_eigenbasis_path(self):
        h = eigendecompose(np.diag([0.0, 200.0]).astype(complex))
        with pytest.raises(Overflow):
            heisenberg_evolve(h, np.eye(2), 4j, in_eigenbasis=True)
        with pytest.raises(DimensionMismatch):
            heisenberg_evolve(h, np.eye(3), 0.5, in_eigenbasis=True)
        with pytest.raises(NonFinite):
            heisenberg_evolve(h, np.full((2, 2), math.nan), 0.5, in_eigenbasis=True)
        with pytest.raises(NonFinite):
            heisenberg_evolve(h, np.eye(2), math.nan, in_eigenbasis=True)

    def test_observable_enters_the_eigenbasis_once_per_pair_in_each_check(self, tmp_path, monkeypatch):
        """Two pairs: B-tilde is formed twice at d = 30 and twice at r = 5, and every evolution reuses it."""
        formed, paths = [], []
        to_eigenbasis, evolve_ = zenolab.gibbs._to_eigenbasis, zenolab.gibbs.heisenberg_evolve

        def spy_transform(h, a):
            formed.append(h.dim)
            return to_eigenbasis(h, a)

        def spy_evolve(h, a, z, **kwargs):
            paths.append(kwargs.get("in_eigenbasis", False))
            return evolve_(h, a, z, **kwargs)

        monkeypatch.setattr(zenolab.gibbs, "_to_eigenbasis", spy_transform)
        monkeypatch.setattr(zenolab.gibbs, "heisenberg_evolve", spy_evolve)
        config = parse_config(
            {"schema_version": 1, "task": "gibbs", "model": {"random": {"dim": 30, "rank_e": 5}}, "pairs": 2}
        )
        run_scenario(config, out_dir=tmp_path)
        assert sorted(formed) == [5, 5, 30, 30]
        assert len(paths) == 72 and all(paths)


class TestKMSResidual:
    def test_identity_pair_vanishes(self):
        h = random_hermitian_op(np.random.default_rng(3), 4)
        state = gibbs_state(h, 1.0)
        assert kms_residual(state, np.eye(4), np.eye(4), 0.7, 1.0) < 1e-14

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_gibbs_passes_at_matching_beta(self, beta):
        rng = np.random.default_rng(4)
        h = random_hermitian_op(rng, 4)
        state = gibbs_state(h, beta)
        for _ in range(10):
            a, b = random_hermitian(rng, 4), random_hermitian(rng, 4)
            for t in np.linspace(-2.0, 2.0, 5):
                scale = kms_scale(h, a, b, beta)
                assert kms_residual(state, a, b, float(t), beta) < 1e-10 * scale

    def test_tracial_state_fails_at_wrong_beta(self):
        rng = np.random.default_rng(5)
        h = random_hermitian_op(rng, 4)
        tracial = gibbs_state(h, 0.0)
        a, b = random_hermitian(rng, 4), random_hermitian(rng, 4)
        scale = kms_scale(h, a, b, 1.0)
        assert kms_residual(tracial, a, b, 0.7, 1.0) > 1e-8 * scale

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
        assert kms_residual(right, a, b, t, beta) < 1e-10 * scale
        assert kms_residual(wrong, a, b, t, beta) > 1e-8 * scale
        assert kms_residual(tracial, a, b, t, beta) > 1e-8 * scale

    def test_matches_the_triple_product_traces(self):
        rng = np.random.default_rng(18)
        h = random_hermitian_op(rng, 6)
        a, b = random_hermitian(rng, 6), random_hermitian(rng, 6)
        for state in (gibbs_state(h, 1.0), gibbs_state(h, 0.0)):
            for t in (-1.2, 0.4):
                left = np.trace(state.rho @ a @ heisenberg_evolve(h, b, t + 1j))
                right = np.trace(state.rho @ heisenberg_evolve(h, b, t) @ a)
                dense = float(abs(left - right))
                assert abs(kms_residual(state, a, b, t, 1.0) - dense) <= 1e-12 * kms_scale(h, a, b, 1.0)

    def test_sequence_of_times_matches_one_call_per_time(self):
        """A sequence of t gives the per-t residuals to the bit: the arithmetic is the same."""
        rng = np.random.default_rng(19)
        h = random_hermitian_op(rng, 6)
        a, b = random_hermitian(rng, 6), random_hermitian(rng, 6)
        state, ts = gibbs_state(h, 0.7), np.linspace(-2.0, 2.0, 9)
        one_each = [kms_residual(state, a, b, t, 0.7) for t in ts]
        assert all(type(r) is float for r in one_each)
        assert kms_residual(state, a, b, ts, 0.7).tolist() == one_each
        assert kms_residual(state, a, b, list(ts[:1]), 0.7).shape == (1,)
        with pytest.raises(ValueError, match="1-D"):
            kms_residual(state, a, b, ts.reshape(3, 3), 0.7)

    @pytest.mark.parametrize("t, beta", [(math.nan, 1.0), ([0.5, math.nan], 1.0), (0.5, math.nan), (math.inf, 1.0)])
    def test_non_finite_time_or_beta_is_typed(self, t, beta):
        rng = np.random.default_rng(5)
        h = random_hermitian_op(rng, 4)
        a, b = random_hermitian(rng, 4), random_hermitian(rng, 4)
        with pytest.raises(NonFinite):
            kms_residual(gibbs_state(h, 1.0), a, b, t, beta)

    def test_state_of_the_wrong_size_is_typed(self):
        h = random_hermitian_op(np.random.default_rng(6), 4)
        with pytest.raises(DimensionMismatch):
            DensityState(np.eye(3, dtype=complex) / 3.0, 1.0, h)
        with pytest.raises(DimensionMismatch):
            DensityState(np.ones((4, 3), dtype=complex) / 3.0, 1.0, h)

    def test_gibbs_stationarity(self):
        rng = np.random.default_rng(7)
        h = random_hermitian_op(rng, 4)
        state = gibbs_state(h, 1.3)
        a = random_hermitian(rng, 4)
        for t in (0.4, 2.0):
            moved = heisenberg_evolve(h, a, t)
            assert abs(expectation(state, moved) - expectation(state, a)) < 1e-10


class TestZenoGibbs:
    def test_full_projection_reduces_to_gibbs(self):
        rng = np.random.default_rng(8)
        h = random_hermitian_op(rng, 4)
        plain = gibbs_state(h, 1.0)
        compressed = zeno_gibbs_state(h, identity_projection(4), 1.0)
        assert operator_norm(plain.rho - compressed.rho) < 1e-12

    def test_rank_one_is_pure(self):
        rng = np.random.default_rng(9)
        h = random_hermitian_op(rng, 4)
        e = random_projection(rng, 4, 1)
        for beta in (0.1, 1.0, 10.0):
            state = zeno_gibbs_state(h, e, beta)
            assert operator_norm(state.rho - e.matrix) < 1e-12

    def test_rabi_pins_the_measured_state(self):
        h, e = rabi_pair()
        state = zeno_gibbs_state(h, e, 2.0)
        assert operator_norm(state.rho - e.matrix) < 1e-13

    def test_zero_rank_rejected(self):
        h = random_hermitian_op(np.random.default_rng(10), 3)
        empty = OrthogonalProjection(np.zeros((3, 3), dtype=complex), 0)
        with pytest.raises(ZeroRank):
            zeno_gibbs_state(h, empty, 1.0)

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


class TestReducedKMS:
    def test_full_projection_matches_plain_residual(self):
        rng = np.random.default_rng(12)
        h = random_hermitian_op(rng, 4)
        pairs = [(random_hermitian(rng, 4), random_hermitian(rng, 4))]
        report = reduced_kms_residual(h, identity_projection(4), 1.0, pairs, [0.5])
        state = gibbs_state(h, 1.0)
        direct = kms_residual(state, pairs[0][0], pairs[0][1], 0.5, 1.0)
        assert abs(report.max_residual - direct) < 1e-12

    def test_spectral_projection_commuting_case(self):
        h = eigendecompose(np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex))
        basis = np.eye(4, dtype=complex)
        from zenolab.operators import projection_from_span

        e = projection_from_span([basis[:, 0], basis[:, 2]])
        rng = np.random.default_rng(13)
        pairs = [(random_hermitian(rng, 4), random_hermitian(rng, 4)) for _ in range(5)]
        report = reduced_kms_residual(h, e, 1.0, pairs, np.linspace(-1, 1, 5))
        assert report.max_residual < 1e-10 * math.exp(3.0)

    def test_random_compression_passes(self):
        rng = np.random.default_rng(14)
        h = random_hermitian_op(rng, 6)
        e = random_projection(rng, 6, 3)
        pairs = [(random_hermitian(rng, 6), random_hermitian(rng, 6)) for _ in range(20)]
        report = reduced_kms_residual(h, e, 1.0, pairs, np.linspace(-2, 2, 5))
        gen = eigendecompose(compressed_generator_matrix(h, e))
        scale = math.exp(1.0 * gen.spread)
        assert report.max_residual < 1e-10 * scale
        assert report.pairs_tested == 20

    def test_wrong_projection_state_fails(self):
        rng = np.random.default_rng(15)
        h = random_hermitian_op(rng, 6)
        e = random_projection(rng, 6, 3)
        other = random_projection(rng, 6, 3)
        pairs = [(random_hermitian(rng, 6), random_hermitian(rng, 6)) for _ in range(5)]
        mismatched = zeno_gibbs_state(h, other, 1.0)
        report = reduced_kms_residual(h, e, 1.0, pairs, [0.7], state=mismatched)
        assert report.max_residual > 1e-6

    def test_gibbs_run_eigendecomposes_model_and_generator_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(m):
            calls.append(1)
            return eigendecompose(m)

        monkeypatch.setattr(zenolab.scenarios, "eigendecompose", counting)
        monkeypatch.setattr(zenolab.gibbs, "eigendecompose", counting)
        config = parse_config(
            {"schema_version": 1, "task": "gibbs", "model": {"random": {"dim": 8, "rank_e": 3}}, "pairs": 2}
        )
        run_scenario(config, out_dir=tmp_path)
        assert len(calls) == 2

    def test_reduced_residual_reuses_the_state_generator(self):
        rng = np.random.default_rng(16)
        h = random_hermitian_op(rng, 6)
        e = random_projection(rng, 6, 3)
        pairs = [(random_hermitian(rng, 6), random_hermitian(rng, 6)) for _ in range(3)]
        ts = np.linspace(-1, 1, 3)
        implicit = reduced_kms_residual(h, e, 0.8, pairs, ts)
        explicit = reduced_kms_residual(h, e, 0.8, pairs, ts, state=zeno_gibbs_state(h, e, 0.8))
        assert implicit.max_residual == explicit.max_residual


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
        report = reduced_kms_residual(h, e, 1.0, pairs, ts)
        dense = dense_reduced_residual(h, e, 1.0, pairs, ts, zeno_gibbs_state(h, e, 1.0).rho)
        scale = max(kms_scale(h, a, b, 1.0) for a, b in pairs)
        assert abs(report.max_residual - dense) <= 1e-12 * scale

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
        report = reduced_kms_residual(h, e, 1.0, pairs, ts, state=state)
        dense = dense_reduced_residual(h, e, 1.0, pairs, ts, state.rho)
        assert dense > 1e-6
        assert abs(report.max_residual - dense) <= 1e-12 * dense

    def test_empty_t_grid_is_a_value_error(self):
        rng = np.random.default_rng(20)
        h = random_hermitian_op(rng, 6)
        pairs = [(random_hermitian(rng, 6), random_hermitian(rng, 6))]
        with pytest.raises(ValueError, match="t_grid"):
            reduced_kms_residual(h, random_projection(rng, 6, 2), 1.0, pairs, [])

    def test_zero_rank_raises(self):
        h = random_hermitian_op(np.random.default_rng(19), 6)
        empty = OrthogonalProjection(np.zeros((6, 6), dtype=complex), 0)
        pairs = [(np.eye(6), np.eye(6))]
        with pytest.raises(ZeroRank):
            reduced_kms_residual(h, empty, 1.0, pairs, [0.5])

    def test_gibbs_run_evolves_at_the_full_and_the_compressed_size(self, tmp_path, monkeypatch):
        dims = []

        def spy(h, a, z, **kwargs):
            dims.append(h.dim)
            return heisenberg_evolve(h, a, z, **kwargs)

        monkeypatch.setattr(zenolab.gibbs, "heisenberg_evolve", spy)
        config = parse_config(
            {"schema_version": 1, "task": "gibbs", "model": {"random": {"dim": 30, "rank_e": 5}}, "pairs": 2}
        )
        run_scenario(config, out_dir=tmp_path)
        assert {n: dims.count(n) for n in set(dims)} == {30: 36, 5: 36}


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
