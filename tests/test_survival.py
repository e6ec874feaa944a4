import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import rabi_pair, random_hermitian_op, random_state
from reference import dense_decay_probabilities
from zenolab import survival
from zenolab.errors import (
    NoCrossing,
    NonExponential,
    NonFinite,
    NotNormalized,
    NotSmooth,
    Overflow,
    WindowTooSmall,
)
from zenolab.operators import eigendecompose, evolve, expm
from zenolab.scenarios import build_scenario, parse_config
from zenolab.spectral import DiscreteMeasure, spectral_measure_of_state, zeno_modulus_table
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
            phi = measure.phi(t)
            assert abs(amp - np.conj(phi)) < 1e-12

    def test_rejects_unnormalized(self):
        h, _ = rabi_pair()
        with pytest.raises(NotNormalized):
            survival_amplitude(h, np.array([2.0, 0.0]), 1.0)


class TestZenoTime:
    """The Zeno time is the inverse energy spread, (m2 - m1^2)^(-1/2) from ``energy_moments``."""

    def test_eigenvector_infinite(self):
        h = eigendecompose(np.diag([0.0, 1.0]).astype(complex))
        m1, m2 = energy_moments(h, np.array([1.0, 0.0]))
        assert abs(m2 - m1 * m1) < 1e-14

    def test_rabi_unit(self):
        h, _ = rabi_pair()
        m1, m2 = energy_moments(h, np.array([1.0, 0.0]))
        assert m2 - m1 * m1 == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_quadratic_short_time_coefficient(self, seed):
        # oracle: quadratic fit of 1 - P on tau in [1e-3, 1e-2]
        rng = np.random.default_rng(seed)
        h = random_hermitian_op(rng, 5, norm=1.0)
        psi = random_state(rng, 5)
        taus = np.linspace(1e-3, 1e-2, 10)
        deficits = np.array([1.0 - survival_probability(h, psi, t) for t in taus])
        coeff = float(np.sum(deficits * taus**2) / np.sum(taus**4))
        m1, m2 = energy_moments(h, psi)
        assert coeff == pytest.approx(m2 - m1 * m1, rel=0.01)


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
            heisenberg_time(h),
        )
        curve = effective_rate_curve(profile)
        assert np.allclose(curve[:, 1], 0.0)

    def test_pure_exponential_recovers_rate(self):
        h, _ = rabi_pair()
        times = np.linspace(0.1, 5.0, 40)
        profile = DecayProfile(times, np.exp(-0.3 * times), heisenberg_time(h))
        assert np.allclose(effective_rate_curve(profile)[:, 1], 0.3)

    def test_rate_at_a_subnormal_time_is_infinite(self):
        h, _ = rabi_pair()
        profile = DecayProfile(np.array([5e-324, 1.0]), np.array([0.5, 0.5]), heisenberg_time(h))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = effective_rate_curve(profile)
        assert curve[0, 1] == np.inf and curve[1, 1] == pytest.approx(np.log(2.0))

    def test_rabi_small_tau_expansion(self):
        h, _ = rabi_pair()
        psi = np.array([1.0, 0.0], dtype=complex)
        times = np.linspace(1e-3, 1e-2, 10)
        curve = effective_rate_curve(decay_profile(h, psi, times))
        # -ln(cos^2 tau)/tau = tau + tau^3/3 + ...
        assert np.allclose(curve[:, 1], curve[:, 0], rtol=1e-3)

    def test_profile_matches_dense_table_without_forming_it(self):
        """P agrees with the full phase table to 1e-13, and the peak stays under a quarter of that table.

        The Friedrichs V is real, so the state's coefficients take no d x d conjugate copy.
        """
        h, psi, _ = friedrichs(n_modes=199)
        times = np.linspace(0.01, 3.0, 1500)
        tracemalloc.start()
        try:
            got = decay_profile(h, psi, times).probabilities
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.max(np.abs(got - dense_decay_probabilities(h, psi, times))) <= 1e-13
        assert peak < 0.25 * times.size * 200 * 8


@pytest.mark.parametrize("kernel", ["decay_profile", "spectral_measure_of_state"])
def test_state_coefficients_take_no_conjugate_copy_of_a_complex_basis(kernel):
    """A random model's V is complex; |V* psi|^2 as |psi* V|^2 peaks far below one d x d complex array."""
    scen = build_scenario(parse_config({"schema_version": 1, "task": "converge", "model": {"random": {"dim": 200}}}))
    h, psi = scen.hamiltonian, scen.state
    assert h.eigenvectors.dtype == np.complex128
    np.testing.assert_array_equal(survival._spectral_weights(h, psi), np.abs(h.eigenvectors.conj().T @ psi) ** 2)
    run = {
        "decay_profile": lambda: decay_profile(h, psi, np.linspace(0.01, 3.0, 10)),
        "spectral_measure_of_state": lambda: spectral_measure_of_state(h, psi),
    }[kernel]
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * h.dim**2 * 16


def friedrichs(**model):
    scen = build_scenario(parse_config({"schema_version": 1, "task": "survival", "model": {"friedrichs": model}}))
    return scen.hamiltonian, scen.state, scen.t_grid


def nudged_linspace():
    times = np.linspace(0.1, 10.0, 500)  # an anchor every 23 rows: row 250 is 20 past its anchor
    times[250] += 1000 * np.spacing(times[250])
    return times


def random_pair(dim, seed=0):
    rng = np.random.default_rng(seed)
    return random_hermitian_op(rng, dim, norm=2.0), random_state(rng, dim)


class TestFactoredProfile:
    """The phase bound's two sides: certified rows agree with the dense table to 1e-13, and rejected rows are
    the dense table's own arithmetic.

    gemv's value for a row depends on the rows it is computed with (OpenBLAS takes the last n mod 4 rows, and
    each thread's share, with another kernel), so a rejected row is compared with the dense table over the
    rejected times, which the direct path takes as one block.
    """

    CASES = {
        "linspace": lambda: (*random_pair(40), np.linspace(0.05, 20.0, 700)),
        "friedrichs": lambda: friedrichs(n_modes=200),
        "wide band": lambda: friedrichs(n_modes=2, band=[-1e6, 1e6]),
        "geometric": lambda: (*random_pair(40), np.geomspace(1e-3, 50.0, 300)),
        "short run": lambda: (*random_pair(40), np.linspace(0.1, 1.0, survival._SHORTEST_RUN - 1)),
        "shortest run": lambda: (*random_pair(40), np.linspace(0.1, 1.0, survival._SHORTEST_RUN)),
        "nudged": lambda: (*random_pair(40), nudged_linspace()),
        # t reaches 1484, where a grid time's own ulp, 2.3e-13, exceeds 1e-13 / max|w|: its drift is bounded
        # against the direct path's own phase rounding instead
        "weak coupling": lambda: friedrichs(n_modes=2000, coupling_strength=0.01),
    }
    # the rows the bound rejects, "all" on grids with no run of 16 equally spaced times; none where not listed
    REJECTED = {"geometric": "all", "short run": "all", "nudged": [250]}

    @pytest.mark.parametrize("case", list(CASES))
    def test_bound_splits_rows(self, case):
        h, psi, times = self.CASES[case]()
        got = decay_profile(h, psi, times).probabilities
        assert np.max(np.abs(got - dense_decay_probabilities(h, psi, times))) <= 1e-13
        weights = survival._spectral_weights(h, psi)
        rejected = np.flatnonzero(~survival._factored(times, h.eigenvalues, weights)[1])
        expected = self.REJECTED.get(case, [])
        assert rejected.tolist() == (list(range(times.size)) if expected == "all" else expected)
        assert rejected.size <= survival._DIRECT_ENTRIES // h.eigenvalues.size  # one direct block
        assert np.array_equal(got[rejected], dense_decay_probabilities(h, psi, times[rejected]))

    def test_overflowing_phases_raise(self):
        """A grid whose phases w t reach 1/eps, where they keep no correct digit, raises Overflow before any table
        is formed and with no warning, as ``classify``'s characteristic function does."""
        h, psi = random_pair(5, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Overflow, match="no correct digit"):
                decay_profile(h, psi, np.linspace(1.0, 1e308, 40))


class TestOnePhaseRule:
    """The survival amplitude, its profile and the characteristic function of a measure share one kernel and one
    phase rule: on Friedrichs 50 (max|w| about 1) a time of 1e17 leaves the phases no correct digit."""

    @pytest.fixture(scope="class")
    def model(self):
        h, psi, _ = friedrichs(n_modes=50)
        return h, psi, DiscreteMeasure(h.eigenvalues, survival._spectral_weights(h, psi))

    CALLS = {
        "survival_amplitude": lambda h, psi, m, t: survival_amplitude(h, psi, t),
        "survival_probability": lambda h, psi, m, t: survival_probability(h, psi, t),
        "iterated_survival": lambda h, psi, m, t: iterated_survival(h, psi, t, 1),
        "decay_profile": lambda h, psi, m, t: decay_profile(h, psi, [t]),
        "phi": lambda h, psi, m, t: m.phi(t),
        "zeno_modulus_table": lambda h, psi, m, t: zeno_modulus_table(m, t, [1, 2]),
    }

    @pytest.mark.parametrize("call", list(CALLS))
    @pytest.mark.parametrize("t, error", [(1e17, Overflow), (math.nan, NonFinite)], ids=["1e17", "nan"])
    def test_every_entry_raises(self, model, call, t, error):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                self.CALLS[call](*model, t)

    def test_amplitude_is_the_conjugate_of_phi_bit_for_bit(self, model):
        h, psi, measure = model
        for t in (0.3, 1.0, 4.2, 1e3, 1e14):
            assert survival_amplitude(h, psi, t) == np.conj(measure.phi(t))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("at", [0, 2, 4])
def test_decay_profile_checks_its_grid_before_any_table(monkeypatch, bad, at):
    """A nan or inf time anywhere in the grid raises NonFinite, with no table formed and no warning."""
    h, psi = random_pair(6)
    times = np.linspace(0.5, 2.5, 5)
    times[at] = bad
    monkeypatch.setattr(survival, "_factored", lambda *a: pytest.fail("a table was formed"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite):
            decay_profile(h, psi, times)


@pytest.mark.parametrize("times", [[[0.5, 1.0]], [1.0, 1.0], [0.0, 1.0]], ids=["2-d", "repeated", "zero"])
def test_decay_profile_rejects_a_grid_that_is_not_1d_positive_and_increasing(times):
    h, psi = random_pair(6)
    with pytest.raises(ValueError):
        decay_profile(h, psi, times)


class TestDecayFit:
    def synthetic(self, gamma, z, n=60):
        h, _ = rabi_pair()
        times = np.linspace(0.5, 6.0, n)
        probs = z * np.exp(-gamma * times)
        return DecayProfile(times, probs, heisenberg_time(h))

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
        profile = DecayProfile(times, np.exp(-0.2 * times), heisenberg_time(h))
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
        tau_star = find_crossing(np.column_stack([taus, taus]), 0.5)
        assert tau_star == pytest.approx(0.5, rel=1e-6)
        i = int(np.flatnonzero(taus <= 0.5)[-1])  # the samples at i and i + 1 bracket gamma0
        assert taus[i] <= 0.5 <= taus[i + 1]
        assert taus[i] <= tau_star <= taus[i + 1]
        assert abs(np.interp(tau_star, taus[i : i + 2], taus[i : i + 2]) - 0.5) <= 1e-6 * 0.5

    def test_root_of_the_bracketing_line(self):
        # the line through (1, 0) and (2, 3) meets gamma0 = 1 at 1 + (1 - 0)(2 - 1)/(3 - 0)
        tau_star = find_crossing(np.array([[1.0, 0.0], [2.0, 3.0]]), 1.0)
        assert tau_star == 1.0 + (1.0 - 0.0) * (2.0 - 1.0) / (3.0 - 0.0)
        assert 1.0 <= tau_star <= 2.0
        assert np.interp(tau_star, [1.0, 2.0], [0.0, 3.0]) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("gammas, root", [([0.3, 0.7, 0.9], 2.0), ([0.7, 0.3, 0.1], 1.0), ([0.9, 0.8, 0.7], 3.0)])
    def test_sample_at_gamma0_is_its_own_root(self, gammas, root):
        tau_star = find_crossing(np.column_stack([[1.0, 2.0, 3.0], gammas]), 0.7)
        assert tau_star == root
        assert np.interp(tau_star, [1.0, 2.0, 3.0], gammas) == 0.7

    @pytest.mark.parametrize("gammas, root", [([math.inf, 0.1], 1.0), ([0.1, math.inf], 5e-324)])
    def test_infinite_rate_end(self, gammas, root):
        # -ln P / tau overflows at a subnormal tau; the root is the limit as that rate grows, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tau_star = find_crossing(np.column_stack([[5e-324, 1.0], gammas]), 0.5)
        assert tau_star == root
