import math

import numpy as np
import pytest
from scipy import integrate

from conftest import rabi_pair, random_hermitian_op, random_state
from reference import merged_atoms
from zenolab.errors import NotNormalized
from zenolab.operators import HermitianOperator, eigendecompose
from zenolab.scenarios import build_scenario, parse_config
from zenolab.spectral import (
    Cauchy,
    Classification,
    DiscreteMeasure,
    Gaussian,
    SpectralMeasure,
    TwoSidedPareto,
    classify_regime,
    lln_mc,
    modulus_below_threshold_n,
    spectral_measure_of_state,
    suggested_tail_grid,
    tail_delta_curve,
    zeno_modulus_table,
    _pareto_tail_integral_total,
)
from zenolab.survival import _spectral_weights, iterated_survival


# the analytic and discrete families, covering the Zeno, Borderline and AntiZeno outcomes
FAMILIES = {
    "gaussian": Gaussian(0.0, 1.0),
    "gaussian_shifted": Gaussian(2.0, 0.5),
    "cauchy": Cauchy(0.0, 1.0),
    "pareto_heavy": TwoSidedPareto(0.5, 1.0),
    "pareto_integrable": TwoSidedPareto(1.5, 0.01),
    "two_level": DiscreteMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5])),
}


def point_mass(x):
    return DiscreteMeasure(np.array([x]), np.array([1.0]))


PARETO_GRID = [(alpha, t) for alpha in (0.25, 0.5, 0.9, 1.0, 1.2, 1.5, 1.9) for t in (1e-3, 0.3, 1.0, 5.0)]


@pytest.mark.parametrize("alpha, t", PARETO_GRID)
def test_two_sided_pareto_characteristic_function_on_ordinary_parameters(alpha, t):
    """The QAWS head integral converges on the whole grid and keeps what plain quad got right."""
    measure = TwoSidedPareto(alpha, 2.0)
    phi = measure.phi(t)
    assert phi.imag == 0.0 and -1.0 <= phi.real <= 1.0
    v = 2.0 * t
    plain, err = integrate.quad(lambda u: 2.0 * math.sin(u / 2.0) ** 2 * u ** (-alpha - 1.0), 0.0, v, limit=400)
    if err <= 1e-11 * max(1.0, abs(plain)):  # the plain quadrature's own acceptance rule
        total = _pareto_tail_integral_total(alpha)
        expected = alpha * 2.0**alpha * t**alpha * (total - plain)
        assert measure.one_minus_phi(t) == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestSpectralMeasureOfState:
    def test_eigenvector_single_atom(self):
        h = eigendecompose(np.diag([0.0, 1.5]).astype(complex))
        m = spectral_measure_of_state(h, np.array([0.0, 1.0]))
        assert m.atoms.shape == (1,)
        assert m.atoms[0] == pytest.approx(1.5)
        assert m.weights[0] == pytest.approx(1.0)

    def test_rabi_half_half(self):
        h, _ = rabi_pair()
        m = spectral_measure_of_state(h, np.array([1.0, 0.0]))
        assert np.allclose(m.atoms, [-1.0, 1.0])
        assert np.allclose(m.weights, [0.5, 0.5])

    @pytest.mark.parametrize("seed", range(4))
    def test_first_moment_matches_expectation(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian_op(rng, 6)
        psi = random_state(rng, 6)
        m = spectral_measure_of_state(h, psi)
        expected = float(np.vdot(psi, h.matrix @ psi).real)
        assert float(np.sum(m.weights * m.atoms)) == pytest.approx(expected, abs=1e-10)

    def test_degenerate_eigenvalues_merge(self):
        h = eigendecompose(np.diag([1.0, 1.0, 2.0]).astype(complex))
        psi = np.array([1.0, 1.0, 1.0]) / math.sqrt(3)
        m = spectral_measure_of_state(h, psi)
        assert m.atoms.shape == (2,)
        assert m.weights[0] == pytest.approx(2.0 / 3.0)

    def test_rejects_unnormalized(self):
        h, _ = rabi_pair()
        with pytest.raises(NotNormalized):
            spectral_measure_of_state(h, np.array([1.0, 1.0]))

    MODELS = [
        *(
            {"friedrichs": {"n_modes": n, "coupling_strength": c, "profile": profile}}
            for n in (50, 200)
            for c in (0.01, 0.05, 1.0, 1e3)
            for profile in ("flat", "gaussian")
        ),
        *({kind: {"seed": seed}} for kind in ("random", "perturbed") for seed in range(3)),
        {"rabi": {}},
    ]

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: "-".join(map(str, [*m, *next(iter(m.values())).values()])))
    def test_merge_is_the_loop_bit_for_bit(self, model):
        scen = build_scenario(parse_config({"schema_version": 1, "task": "classify", "model": model}))
        h, psi = scen.hamiltonian, scen.state
        m = spectral_measure_of_state(h, psi)
        atoms, weights = merged_atoms(h.eigenvalues, _spectral_weights(h, psi), h.norm)
        np.testing.assert_array_equal(m.atoms, atoms)
        np.testing.assert_array_equal(m.weights, weights)

    @pytest.mark.parametrize("seed", range(8))
    def test_merged_groups_agree_with_the_loop_within_4_ulps(self, seed):
        """Groups summed by ``np.add.reduceat`` agree with the loop's running sums to rounding.

        The group of 12 eigenvalues 3e-12 apart (within 1e-10 ||H||) is past the length at which reduceat
        sums pairwise, the pair at 0.5 has no mass and the atom at 0.7 falls below the 1e-14 cut.
        """
        lam = np.concatenate([[-1.0], 0.3 + 3e-12 * np.arange(12), [0.5, 0.5 + 2e-11, 0.7, 0.8, 0.8 + 5e-11, 0.9]])
        q = np.random.default_rng(seed).uniform(0.5, 1.0, lam.size)
        q[13:15] = 0.0
        q[15] = 1e-15
        h = HermitianOperator(np.diag(lam), lam, np.eye(lam.size))
        psi = np.sqrt(q / q.sum())
        m = spectral_measure_of_state(h, psi)
        atoms, weights = merged_atoms(lam, _spectral_weights(h, psi), h.norm)
        assert m.atoms.size == atoms.size == 4
        np.testing.assert_array_max_ulp(m.atoms, atoms, maxulp=4)
        np.testing.assert_array_max_ulp(m.weights, weights, maxulp=4)


def quad_cos_transform(density, t, lower):
    """Oracle: oscillatory quadrature of a symmetric density's cosine transform."""
    val, err = integrate.quad(density, lower, np.inf, weight="cos", wvar=t, limit=400)
    return 2.0 * val, err


class TestCharacteristicFunction:
    def test_point_mass_pure_phase(self):
        m = point_mass(0.8)
        for t in (0.2, 1.0, 9.0):
            phi = m.phi(t)
            assert abs(phi - np.exp(-1j * t * 0.8)) < 1e-14
            assert abs(abs(phi) - 1.0) < 1e-14

    @pytest.mark.parametrize("t", [0.3, 1.0, 2.5])
    def test_cauchy_against_quadrature(self, t):
        m = Cauchy(0.0, 1.0)
        oracle, err = quad_cos_transform(lambda x: 1.0 / (math.pi * (1.0 + x * x)), t, 0.0)
        phi = m.phi(t)
        assert abs(phi.real - oracle) < 1e-8 + 10 * err
        assert abs(phi - math.exp(-abs(t))) < 1e-14

    @pytest.mark.parametrize("t", [0.3, 1.0, 2.5])
    def test_gaussian_against_quadrature(self, t):
        m = Gaussian(0.0, 1.0)
        norm = 1.0 / math.sqrt(2.0 * math.pi)
        oracle, err = quad_cos_transform(lambda x: norm * math.exp(-x * x / 2.0), t, 0.0)
        phi = m.phi(t)
        assert abs(phi.real - oracle) < 1e-10 + 10 * err
        assert abs(phi - math.exp(-t * t / 2.0)) < 1e-14

    @pytest.mark.parametrize("t", [0.2, 1.0, 3.0])
    def test_pareto_against_quadrature(self, t):
        alpha, scale = 0.5, 1.0
        m = TwoSidedPareto(alpha, scale)
        density = lambda x: (alpha / 2.0) * scale**alpha * x ** (-alpha - 1.0)
        oracle, err = quad_cos_transform(density, t, scale)
        phi = m.phi(t)
        assert abs(phi.real - oracle) < 1e-8 + 10 * err

    def test_normalization_and_bound(self):
        for m in FAMILIES.values():
            assert m.phi(0.0) == pytest.approx(1.0)
            for t in (0.5, 2.0):
                assert abs(m.phi(t)) <= 1.0 + 1e-12


class TestTailDeltaCurve:
    def test_bounded_support_vanishes_beyond_radius(self):
        m = DiscreteMeasure(np.array([-1.0, 0.5]), np.array([0.4, 0.6]))
        report = tail_delta_curve(m, np.array([0.1, 0.9, 1.1, 10.0]))
        assert report.delta_values[2] == 0.0
        assert report.delta_values[3] == 0.0
        assert report.delta_values[0] > 0.0

    def test_cauchy_limit_two_over_pi(self):
        # oracle: x (1 - 2 arctan(x)/pi) -> 2/pi, checked against the cdf route
        m = Cauchy(0.0, 1.0)
        report = tail_delta_curve(m, np.logspace(0, 8, 30))
        assert report.delta_values[-1] == pytest.approx(2.0 / math.pi, rel=1e-8)
        x = 100.0
        exact = x * (1.0 - 2.0 * math.atan(x) / math.pi)
        assert report.delta_values[np.searchsorted(report.x_grid, x)] == pytest.approx(
            exact, rel=1e-10
        ) or True  # grid point may not hit exactly 100; check via direct call
        direct = tail_delta_curve(m, np.array([50.0, 100.0, 200.0]))
        assert direct.delta_values[1] == pytest.approx(exact, rel=1e-12)

    def test_heavy_pareto_grows_like_square_root(self):
        m = TwoSidedPareto(0.5, 1.0)
        xs = np.array([1.0, 4.0, 16.0, 64.0])
        report = tail_delta_curve(m, xs)
        # cdf algebra: delta = scale^alpha x^(1-alpha) = sqrt(x)
        assert np.allclose(report.delta_values, np.sqrt(xs), rtol=1e-12)


class _StaircaseSurvival(SpectralMeasure):
    """Symmetric measure whose |X|-survival has geometric plateaus with
    doubling decade-width gaps; deliberately not straight."""

    def _survival_abs(self, r):
        r = np.asarray(r, dtype=float)
        out = np.ones(r.shape)
        edges = [10.0 ** (2**k) for k in range(6)]
        for k, edge in enumerate(edges):
            out = np.where(r >= edge, 4.0 ** -(k + 1), out)
        return out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        s = self._survival_abs(np.abs(x))
        return np.where(x >= 0, 1.0 - s / 2.0, s / 2.0)

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        s = self._survival_abs(np.abs(x))
        return np.where(x >= 0, s / 2.0, 1.0 - s / 2.0)

    def sample(self, n, rng):
        raise NotImplementedError


class TestClassification:
    def test_registry_families(self):
        expected = {
            "gaussian": Classification.ZENO,
            "gaussian_shifted": Classification.ZENO,
            "cauchy": Classification.BORDERLINE,
            "pareto_heavy": Classification.ANTI_ZENO,
            "pareto_integrable": Classification.ZENO,
            "two_level": Classification.ZENO,
        }
        for name, measure in FAMILIES.items():
            report = classify_regime(measure, suggested_tail_grid(measure))
            assert report.classification is expected[name], name

    def test_non_straight_staircase_is_indeterminate(self):
        m = _StaircaseSurvival()
        report = classify_regime(m, np.logspace(0.5, 8.5, 80))
        assert report.classification is Classification.INDETERMINATE

    def test_narrow_grid_rejected(self):
        with pytest.raises(ValueError):
            classify_regime(Gaussian(0.0, 1.0), np.logspace(0.0, 2.0, 10))


class TestModulusTable:
    def test_point_mass_stays_at_one(self):
        table = zeno_modulus_table(point_mass(0.3), 1.0, [1, 10, 10**6])
        assert all(v == pytest.approx(1.0) for _, v in table)

    def test_cauchy_constant_at_exp_minus_two(self):
        table = zeno_modulus_table(Cauchy(0.0, 1.0), 1.0, [1, 100, 10**4, 10**6])
        for _, v in table:
            assert abs(v - math.exp(-2.0)) < 1e-12

    def test_gaussian_closed_form(self):
        table = zeno_modulus_table(Gaussian(0.0, 1.0), 1.0, [10, 1000])
        for n, v in table:
            assert v == pytest.approx(math.exp(-1.0 / n), rel=1e-12)

    def test_discrete_matches_iterated_survival(self):
        rng = np.random.default_rng(5)
        h = random_hermitian_op(rng, 5)
        psi = random_state(rng, 5)
        m = spectral_measure_of_state(h, psi)
        for n in (1, 8, 64, 512):
            table_value = zeno_modulus_table(m, 1.0, [n])[0][1]
            assert abs(table_value - iterated_survival(h, psi, 1.0, n)) < 1e-10


class TestTheoremConsistency:
    def test_zeno_families_modulus_tends_to_one(self):
        for name, m in FAMILIES.items():
            report = classify_regime(m, suggested_tail_grid(m))
            if report.classification is Classification.ZENO:
                value = zeno_modulus_table(m, 1.0, [10**6])[0][1]
                assert value > 1.0 - 1e-3, name

    def test_anti_zeno_modulus_collapses(self):
        n = modulus_below_threshold_n(TwoSidedPareto(0.5, 1.0), 1.0, threshold=1e-3)
        value = zeno_modulus_table(TwoSidedPareto(0.5, 1.0), 1.0, [n])[0][1]
        assert value < 1e-3

    def test_finite_first_moment_implies_zeno(self):
        # E|X| is finite exactly when the tail exponent exceeds 1: every family here but the Cauchy and alpha = 0.5
        for name in ("gaussian", "gaussian_shifted", "pareto_integrable", "two_level"):
            m = FAMILIES[name]
            report = classify_regime(m, suggested_tail_grid(m))
            assert report.classification is Classification.ZENO, name


class TestLLN:
    def test_point_mass_never_exceeds(self):
        rows = lln_mc(point_mass(0.4), [10, 100], trials=1000, seed=3, epsilon=0.1, c=1.0)
        for _, exceed, contain in rows:
            assert exceed == 0.0
            assert contain == 1.0

    def test_gaussian_concentrates(self):
        # oracle: normal tail bound 2 Phi(-eps sqrt(n)) is already tiny
        rows = lln_mc(Gaussian(0.0, 1.0), [2500], trials=2000, seed=3, epsilon=0.1, c=1.0)
        _, exceed, _ = rows[0]
        from scipy.special import ndtr

        assert 2.0 * ndtr(-0.1 * math.sqrt(2500)) < 0.01
        assert exceed < 0.01

    def test_pareto_spreads(self):
        rows = lln_mc(
            TwoSidedPareto(0.5, 1.0), [10, 100, 1000], trials=2000, seed=3, epsilon=0.1, c=10.0
        )
        contains = [c for _, _, c in rows]
        assert contains[0] > contains[1] > contains[2]

    def test_deterministic_for_fixed_seed(self):
        a = lln_mc(Gaussian(0.0, 1.0), [50], trials=1000, seed=11, epsilon=0.05, c=0.5)
        b = lln_mc(Gaussian(0.0, 1.0), [50], trials=1000, seed=11, epsilon=0.05, c=0.5)
        assert a == b

    def test_rejects_few_trials(self):
        with pytest.raises(ValueError):
            lln_mc(Gaussian(0.0, 1.0), [10], trials=10, seed=0)


class TestSymmetrizationInequalities:
    @pytest.mark.parametrize("family", ["gaussian", "pareto"])
    def test_bounds_within_three_standard_errors(self, family):
        measure = Gaussian(0.0, 1.0) if family == "gaussian" else TwoSidedPareto(0.5, 1.0)
        shift = measure.median()
        rng = np.random.default_rng(17)
        n = 200_000
        x1 = measure.sample(n, rng)
        x2 = measure.sample(n, rng)
        diff = np.abs(x1 - x2)
        absx = np.abs(x1)

        def est(p_hat):
            return p_hat, math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / n)

        for x in (1.0, 5.0, 10.0):
            p_far, se_far = est(float(np.mean(absx > x + shift)))
            p_diff, se_diff = est(float(np.mean(diff > x)))
            p_half, se_half = est(float(np.mean(absx > x / 2.0)))
            assert 0.5 * p_far <= p_diff + 3.0 * (0.5 * se_far + se_diff)
            assert p_diff <= 2.0 * p_half + 3.0 * (se_diff + 2.0 * se_half)
