import math
import tracemalloc

import numpy as np
import pytest

from conftest import rabi_pair, random_hermitian_op, random_state
from zenolab.errors import (
    NoCrossing,
    NonExponential,
    NotNormalized,
    NotSmooth,
    WindowTooSmall,
)
from zenolab.operators import eigendecompose, evolve, expm
from zenolab.spectral import characteristic_fn, spectral_measure_of_state
from zenolab.survival import (
    DecayProfile,
    decay_fit,
    decay_profile,
    effective_rate_curve,
    energy_moments,
    find_crossing,
    geometric_speed,
    heisenberg_time,
    iterated_survival,
    survival_amplitude,
    survival_probability,
    zeno_time,
)


class TestSurvivalAmplitude:
    def test_eigenvector_pure_phase(self):
        h = eigendecompose(np.diag([0.5, 2.0]).astype(complex))
        psi = np.array([0.0, 1.0], dtype=complex)
        for t in (0.1, 1.0, 7.0):
            a = survival_amplitude(h, psi, t)
            assert abs(a - np.exp(2j * t)) < 1e-14

    def test_rabi_cosine(self):
        h, _ = rabi_pair()
        psi = np.array([1.0, 0.0], dtype=complex)
        for t in np.linspace(0.0, 3.0, 7):
            assert abs(survival_amplitude(h, psi, t) - math.cos(t)) < 1e-13

    @pytest.mark.parametrize("seed", range(5))
    def test_basic_identities(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian_op(rng, 6)
        psi = random_state(rng, 6)
        t = rng.uniform(0.1, 5.0)
        a = survival_amplitude(h, psi, t)
        assert abs(a) <= 1.0 + 1e-12
        assert survival_amplitude(h, psi, 0.0) == pytest.approx(1.0)
        assert survival_amplitude(h, psi, -t) == pytest.approx(np.conj(a))

    def test_matches_spectral_characteristic_function(self):
        rng = np.random.default_rng(10)
        h = random_hermitian_op(rng, 6)
        psi = random_state(rng, 6)
        measure = spectral_measure_of_state(h, psi)
        for t in (0.3, 1.0, 4.2):
            amp = survival_amplitude(h, psi, t)
            phi = characteristic_fn(measure, t)
            assert abs(amp - np.conj(phi)) < 1e-12

    def test_rejects_unnormalized(self):
        h, _ = rabi_pair()
        with pytest.raises(NotNormalized):
            survival_amplitude(h, np.array([2.0, 0.0]), 1.0)


class TestZenoTime:
    def test_eigenvector_infinite(self):
        h = eigendecompose(np.diag([0.0, 1.0]).astype(complex))
        assert math.isinf(zeno_time(h, np.array([1.0, 0.0])))

    def test_rabi_unit(self):
        h, _ = rabi_pair()
        assert zeno_time(h, np.array([1.0, 0.0])) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_quadratic_short_time_coefficient(self, seed):
        # oracle: quadratic fit of 1 - P on tau in [1e-3, 1e-2]
        rng = np.random.default_rng(seed)
        h = random_hermitian_op(rng, 5, norm=1.0)
        psi = random_state(rng, 5)
        taus = np.linspace(1e-3, 1e-2, 10)
        deficits = np.array([1.0 - survival_probability(h, psi, t) for t in taus])
        coeff = float(np.sum(deficits * taus**2) / np.sum(taus**4))
        assert coeff == pytest.approx(zeno_time(h, psi) ** -2, rel=0.01)


class TestIteratedSurvival:
    def test_single_measurement(self):
        rng = np.random.default_rng(1)
        h = random_hermitian_op(rng, 4)
        psi = random_state(rng, 4)
        assert iterated_survival(h, psi, 1.3, 1) == pytest.approx(
            survival_probability(h, psi, 1.3)
        )

    def test_eigenvector_survives(self):
        h = eigendecompose(np.diag([0.0, 1.0]).astype(complex))
        psi = np.array([1.0, 0.0], dtype=complex)
        for n in (1, 10, 1000):
            assert iterated_survival(h, psi, 1.0, n) == pytest.approx(1.0)

    def test_rabi_closed_form_and_scaling(self):
        h, _ = rabi_pair()
        psi = np.array([1.0, 0.0], dtype=complex)
        for n in (2, 16, 128):
            assert iterated_survival(h, psi, 1.0, n) == pytest.approx(
                math.cos(1.0 / n) ** (2 * n), rel=1e-12
            )
        n = 10**4
        assert n * (1.0 - iterated_survival(h, psi, 1.0, n)) == pytest.approx(1.0, rel=2e-2)

    def test_monotone_tail(self):
        rng = np.random.default_rng(2)
        h = random_hermitian_op(rng, 5, norm=1.0)
        psi = random_state(rng, 5)
        values = [iterated_survival(h, psi, 1.0, 64 * 2**k) for k in range(8)]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-9


class TestGeometricSpeed:
    def test_stationary_state(self):
        h = eigendecompose(np.diag([0.0, 1.0]).astype(complex))
        psi = np.array([1.0, 0.0], dtype=complex)
        k = geometric_speed(lambda t: evolve(h, t) @ psi, psi)
        assert abs(k) < 1e-10

    def test_rabi_matches_variance(self):
        h, _ = rabi_pair()
        psi = np.array([1.0, 0.0], dtype=complex)
        k = geometric_speed(lambda t: evolve(h, t) @ psi, psi)
        assert k == pytest.approx(1.0, rel=1e-3)

    @pytest.mark.parametrize("seed", range(10))
    def test_unitary_speed_equals_energy_variance(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian_op(rng, 5, norm=1.0)
        psi = random_state(rng, 5)
        m1, m2 = energy_moments(h, psi)
        k = geometric_speed(lambda t: evolve(h, t) @ psi, psi)
        assert k == pytest.approx(m2 - m1 * m1, rel=1e-3)

    def test_decaying_evolution_nonnegative(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = g.conj().T @ g
        a /= np.linalg.norm(a, 2)
        psi = random_state(rng, 4)
        k = geometric_speed(lambda t: expm(-t * a) @ psi, psi)
        assert k >= 0.0 and np.isfinite(k)

    def test_rough_evolution_raises_not_smooth(self):
        # oscillation below the probing step defeats the Richardson check
        psi = np.array([1.0, 0.0], dtype=complex)
        rough = lambda t: psi + 0.1 * math.sin(1e6 * t) * np.array([0.0, 1.0])
        with pytest.raises(NotSmooth):
            geometric_speed(rough, psi)

    def test_cubic_remainder_of_short_time_law(self):
        # 1 - P - k tau^2 should shrink like tau^4 (log-log slope >= 2.7)
        rng = np.random.default_rng(4)
        h = random_hermitian_op(rng, 5, norm=1.0)
        psi = random_state(rng, 5)
        m1, m2 = energy_moments(h, psi)
        k = m2 - m1 * m1
        taus = np.logspace(-3, -2, 12)
        residuals = np.array(
            [abs(1.0 - survival_probability(h, psi, t) - k * t * t) for t in taus]
        )
        slope = np.polyfit(np.log(taus), np.log(residuals), 1)[0]
        assert slope >= 2.7


class TestEffectiveRateCurve:
    def test_constant_probability_zero_rate(self):
        h, _ = rabi_pair()
        profile = DecayProfile(
            np.linspace(0.1, 1.0, 10),
            np.ones(10),
            np.array([1.0, 0.0], dtype=complex),
            h,
        )
        curve = effective_rate_curve(profile)
        assert np.allclose(curve[:, 1], 0.0)

    def test_pure_exponential_recovers_rate(self):
        h, _ = rabi_pair()
        times = np.linspace(0.1, 5.0, 40)
        profile = DecayProfile(times, np.exp(-0.3 * times), np.array([1.0, 0.0], dtype=complex), h)
        assert np.allclose(effective_rate_curve(profile)[:, 1], 0.3)

    def test_rabi_small_tau_expansion(self):
        h, _ = rabi_pair()
        psi = np.array([1.0, 0.0], dtype=complex)
        times = np.linspace(1e-3, 1e-2, 10)
        curve = effective_rate_curve(decay_profile(h, psi, times))
        # -ln(cos^2 tau)/tau = tau + tau^3/3 + ...
        assert np.allclose(curve[:, 1], curve[:, 0], rtol=1e-3)

    def test_profile_fills_one_phase_table(self):
        """The same bits as a fresh cos table and a fresh sin table, from one len(t) x d buffer."""
        rng = np.random.default_rng(21)
        h = random_hermitian_op(rng, 200)
        psi = random_state(rng, 200)
        times = np.linspace(0.01, 3.0, 1500)
        weights = np.abs(h.eigenvectors.conj().T @ psi) ** 2
        tracemalloc.start()
        try:
            got = decay_profile(h, psi, times).probabilities
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        phase = np.outer(times, h.eigenvalues)
        amp = np.cos(phase) @ weights + 1j * (np.sin(phase) @ weights)
        assert np.array_equal(got, np.minimum(np.abs(amp) ** 2, 1.0 + 1e-12))
        assert peak < 1.5 * phase.nbytes


class TestDecayFit:
    def synthetic(self, gamma, z, n=60):
        h, _ = rabi_pair()
        times = np.linspace(0.5, 6.0, n)
        probs = z * np.exp(-gamma * times)
        return DecayProfile(times, probs, np.array([1.0, 0.0], dtype=complex), h)

    def test_recovers_synthetic_parameters(self):
        fit = decay_fit(self.synthetic(0.7, 0.9), window=(0.5, 6.0))
        assert fit.gamma0 == pytest.approx(0.7, abs=1e-10)
        assert fit.prefactor == pytest.approx(0.9, abs=1e-10)
        assert fit.residual < 1e-12

    def test_rabi_is_not_exponential(self):
        h, _ = rabi_pair()
        psi = np.array([1.0, 0.0], dtype=complex)
        profile = decay_profile(h, psi, np.linspace(0.05, 1.45, 60))
        with pytest.raises(NonExponential):
            decay_fit(profile, window=(0.05, 1.45))

    def test_window_too_small(self):
        with pytest.raises(WindowTooSmall):
            decay_fit(self.synthetic(0.7, 0.9), window=(0.5, 0.55))

    def test_heisenberg_guard_clips_window(self):
        h = eigendecompose(np.diag([0.0, 1.0, 2.0]).astype(complex))
        assert heisenberg_time(h) == pytest.approx(2.0 * math.pi)
        times = np.linspace(0.1, 50.0, 600)
        profile = DecayProfile(times, np.exp(-0.2 * times), np.array([1.0, 0, 0], dtype=complex), h)
        fit = decay_fit(profile, window=(0.1, 50.0))
        assert fit.window[1] <= 0.5 * heisenberg_time(h) + 1e-12


class TestFindCrossing:
    def test_no_crossing_reports_extremes(self):
        curve = np.column_stack([np.linspace(0.1, 1.0, 10), np.full(10, 0.2)])
        with pytest.raises(NoCrossing) as err:
            find_crossing(curve, 0.5)
        assert err.value.curve_max == pytest.approx(0.2)

    def test_linear_curve_exact_root(self):
        taus = np.linspace(0.01, 1.0, 100)
        curve = np.column_stack([taus, taus])
        result = find_crossing(curve, 0.5)
        assert result.tau_star == pytest.approx(0.5, rel=1e-6)
        assert result.bracket[0] <= 0.5 <= result.bracket[1]
        assert result.bracket[0] < result.tau_star < result.bracket[1]
        assert abs(result.gamma_eff_at_star - 0.5) <= 1e-6 * 0.5
