"""Acceptance suite: one test per criterion, one printed verdict line each.

Everything here is property-based at desk scale; tolerances are pinned in
the assertions, not configurable.
"""

import math

import numpy as np

from conftest import rabi_pair, random_hermitian, random_hermitian_op, random_projection, random_state
from reference import complement, compressed_generator_matrix
from zenolab.errors import NoCrossing
from zenolab.gibbs import (
    expectation,
    gibbs_state,
    kms_residual,
    kms_scale,
    reduced_kms_residual,
    zeno_gibbs_state,
)
from zenolab.operators import eigendecompose, evolve, operator_norm
from zenolab.scenarios import build_scenario, parse_config, perturbed_invariance_check, run_scenario
from zenolab.semigroup import degenerate_form, degenerate_product, full_support_form, kato_form_sum_product, sectorial_operator
from zenolab.spectral import (
    Cauchy,
    Classification,
    Gaussian,
    TwoSidedPareto,
    classify_regime,
    lln_mc,
    modulus_below_threshold_n,
    spectral_measure_of_state,
    suggested_tail_grid,
    zeno_modulus_table,
)
from zenolab.survival import (
    decay_fit,
    decay_profile,
    effective_rate_curve,
    energy_moments,
    find_crossing,
    geometric_speed,
    iterated_survival,
    survival_probability,
)
from zenolab.zeno import azc_fit, zeno_convergence_report, zeno_generator, zeno_product


def verdict(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number:2d}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def ensemble(count=50):
    for i in range(count):
        dim = 2 + (i % 7)
        rank = 1 + (i % max(dim - 1, 1))
        config = parse_config(
            {
                "schema_version": 1,
                "task": "converge",
                "model": {"random": {"dim": dim, "rank_e": rank, "seed": 1000 + i}},
            }
        )
        yield build_scenario(config)


def test_criterion_01_bounded_generator_zeno_limit():
    worst_distance = 0.0
    ratios = []
    for scen in ensemble():
        report = zeno_convergence_report(scen.hamiltonian, scen.projection, 1.0)
        if report.exact:
            continue
        worst_distance = max(worst_distance, report.distance(4096))
        ratios.append(report.distance(2048) / report.distance(4096))
    ok = worst_distance < 1e-3 and all(1.7 <= r <= 2.3 for r in ratios)
    verdict(
        1,
        ok,
        f"50 random (H,E): max distance at n=4096 is {worst_distance:.2e} (< 1e-3), "
        f"halving ratios in [{min(ratios):.3f}, {max(ratios):.3f}] (within [1.7, 2.3])",
    )


def test_criterion_02_cauchy_estimate_and_azc_fit():
    tau_grid = np.logspace(-4, -3, 8)[::-1]
    worst_quotient = 0.0
    exps, consts = [], []
    for scen in ensemble():
        h, e = scen.hamiltonian, scen.projection
        fit = azc_fit(h, e, tau_grid)
        if fit.exactly_zeno:
            continue
        exps.append(fit.exponent)
        exact = operator_norm(complement(e).matrix @ h.matrix @ e.matrix)
        consts.append(abs(fit.constant - exact) / exact)
        report = zeno_convergence_report(h, e, 1.0)
        worst = max(n * c for n, _, c in report.per_n)
        worst_quotient = max(worst_quotient, worst / (2.0 * fit.cauchy_constant * 1.0**2))
    ok = (
        all(0.98 <= x <= 1.02 for x in exps)
        and max(consts) <= 0.02
        and worst_quotient <= 1.0
    )
    verdict(
        2,
        ok,
        f"max_n n*||F_n - F_2n|| <= 2 C_fit t^2 with margin quotient {worst_quotient:.3f} (<= 1); "
        f"azc exponents in [{min(exps):.4f}, {max(exps):.4f}], constants off by <= {max(consts):.2e}",
    )


def test_criterion_03_rabi_closed_forms():
    h, e = rabi_pair()
    worst_product = 0.0
    for t in (0.5, 1.0, 2.0):
        for n in (1, 2, 7, 64, 513):
            expected = math.cos(t / n) ** n * e.matrix
            worst_product = max(worst_product, operator_norm(zeno_product(h, e, t, n).matrix - expected))
    ec = complement(e).matrix
    worst_sine = max(
        abs(operator_norm(ec @ evolve(h, tau) @ e.matrix) - abs(math.sin(tau)))
        for tau in np.linspace(1e-4, 1.5, 25)
    )
    compressed_norm = float(abs(zeno_generator(h, e).matrix[0, 0]))
    ok = worst_product < 1e-12 and worst_sine < 1e-12 and compressed_norm < 1e-14
    verdict(
        3,
        ok,
        f"F_n = cos(t/n)^n E to {worst_product:.1e}; leakage = |sin tau| to {worst_sine:.1e}; "
        f"compressed generator = {compressed_norm:.1e}",
    )


def test_criterion_04_quadratic_short_time_law():
    rng = np.random.default_rng(2024)
    worst_fit = worst_speed = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        h = eigendecompose(random_hermitian(rng, dim, norm=1.0))
        psi = random_state(rng, dim)
        m1, m2 = energy_moments(h, psi)
        variance = m2 - m1 * m1
        taus = np.linspace(1e-3, 1e-2, 10)
        deficits = np.array([1.0 - survival_probability(h, psi, t) for t in taus])
        coeff = float(np.sum(deficits * taus**2) / np.sum(taus**4))
        worst_fit = max(worst_fit, abs(coeff - variance) / variance)
        k = geometric_speed(lambda t: evolve(h, t) @ psi, psi)
        worst_speed = max(worst_speed, abs(k - variance) / variance)
    ok = worst_fit <= 0.01 and worst_speed <= 0.001
    verdict(
        4,
        ok,
        f"quadratic-fit coefficient off (Delta H)^2 by <= {worst_fit:.2e} (<= 1e-2); "
        f"geometric speed off by <= {worst_speed:.2e} (<= 1e-3), 50 cases each",
    )


def test_criterion_05_iterated_survival_scaling():
    cases = [rabi_pair()[0]], [np.array([1.0, 0.0], dtype=complex)]
    hams, states = list(cases[0]), list(cases[1])
    rng = np.random.default_rng(77)
    for _ in range(10):
        dim = int(rng.integers(2, 7))
        hams.append(eigendecompose(random_hermitian(rng, dim, norm=1.0)))
        states.append(random_state(rng, dim))
    n = 10**4
    worst = 0.0
    for h, psi in zip(hams, states):
        m1, m2 = energy_moments(h, psi)
        variance = m2 - m1 * m1
        value = n * (1.0 - iterated_survival(h, psi, 1.0, n))
        worst = max(worst, abs(value - variance) / variance)
    ok = worst <= 0.02
    verdict(5, ok, f"N(1-P_N) off t^2 (Delta H)^2 by <= {worst:.2e} (<= 2e-2) at N=1e4, 11 cases")


def _friedrichs_scenario(profile, excited_energy):
    return build_scenario(
        parse_config(
            {
                "schema_version": 1,
                "task": "survival",
                "model": {
                    "friedrichs": {
                        "n_modes": 200,
                        "band": [-2.0, 2.0],
                        "excited_energy": excited_energy,
                        "coupling_strength": 0.05,
                        "profile": profile,
                    }
                },
            }
        )
    )


def test_criterion_06_zeno_anti_zeno_crossing():
    # A flat profile provably renormalizes upward (Z > 1, no crossing); the
    # crossing chain runs on the same builder with the gaussian profile and
    # the excited level on its flank, where Z < 1 holds honestly.
    flat = _friedrichs_scenario("flat", 0.0)
    flat_profile = decay_profile(flat.hamiltonian, flat.state, flat.t_grid)
    flat_fit = decay_fit(flat_profile, flat.fit_window)
    flat_gamma_ok = abs(flat_fit.gamma0 - flat.golden_rate) <= 0.2 * flat.golden_rate
    flat_above_one = flat_fit.prefactor > 1.0
    try:
        find_crossing(effective_rate_curve(flat_profile), flat_fit.gamma0)
        flat_no_crossing = False
    except NoCrossing:
        flat_no_crossing = True

    scen = _friedrichs_scenario("gaussian", -0.7)
    profile = decay_profile(scen.hamiltonian, scen.state, scen.t_grid)
    fit = decay_fit(profile, scen.fit_window)
    curve = effective_rate_curve(profile)
    tau_star = find_crossing(curve, fit.gamma0)
    interp = lambda x: float(np.interp(x, curve[:, 0], curve[:, 1]))
    before = interp(tau_star / 2.0)
    after = interp(min(2.0 * tau_star, fit.window[1]))
    gamma_ok = abs(fit.gamma0 - scen.golden_rate) <= 0.2 * scen.golden_rate
    ok = (
        flat_gamma_ok
        and flat_above_one
        and flat_no_crossing
        and fit.prefactor < 1.0
        and gamma_ok
        and before < fit.gamma0 < after
    )
    verdict(
        6,
        ok,
        f"flank scenario: Z={fit.prefactor:.4f} (<1), gamma0={fit.gamma0:.5f} within "
        f"{abs(fit.gamma0 - scen.golden_rate) / scen.golden_rate:.1%} of golden {scen.golden_rate:.5f}, "
        f"tau*={tau_star:.3f}, gamma_eff(tau*/2)={before:.5f} < gamma0 < gamma_eff(2 tau*)={after:.5f}; "
        f"flat profile confirmed obstructed (Z={flat_fit.prefactor:.4f} > 1, NoCrossing)",
    )


def test_criterion_07_tail_classification_and_lln():
    gauss, cauchy, pareto = Gaussian(0.0, 1.0), Cauchy(0.0, 1.0), TwoSidedPareto(0.5, 1.0)
    gauss_class = classify_regime(gauss, suggested_tail_grid(gauss)).classification
    gauss_mod = zeno_modulus_table(gauss, 1.0, [10**6])[0][1]

    cauchy_class = classify_regime(cauchy, suggested_tail_grid(cauchy)).classification
    cauchy_dev = max(
        abs(v - math.exp(-2.0)) for _, v in zeno_modulus_table(cauchy, 1.0, [1, 100, 10**4, 10**6])
    )

    pareto_class = classify_regime(pareto, suggested_tail_grid(pareto)).classification
    n_star = modulus_below_threshold_n(pareto, 1.0, threshold=1e-3)
    pareto_mod = zeno_modulus_table(pareto, 1.0, [n_star])[0][1]

    rng = np.random.default_rng(5)
    discrete_ok = True
    for seed in range(5):
        h = random_hermitian_op(np.random.default_rng(seed), 5)
        m = spectral_measure_of_state(h, random_state(np.random.default_rng(seed + 100), 5))
        discrete_ok &= classify_regime(m, suggested_tail_grid(m)).classification is Classification.ZENO

    gauss_lln = lln_mc(gauss, [10**4], trials=10**4, seed=42, epsilon=0.1, c=1.0)
    exceedance = gauss_lln[0][1]
    pareto_lln = lln_mc(pareto, [10, 100, 1000], trials=10**4, seed=42, epsilon=0.1, c=10.0)
    contains = [c for _, _, c in pareto_lln]

    ok = (
        gauss_class is Classification.ZENO
        and gauss_mod > 1.0 - 1e-3
        and cauchy_class is Classification.BORDERLINE
        and cauchy_dev < 1e-12
        and pareto_class is Classification.ANTI_ZENO
        and pareto_mod < 1e-3
        and discrete_ok
        and exceedance < 0.01
        and contains[0] > contains[1] > contains[2]
    )
    verdict(
        7,
        ok,
        f"Gaussian Zeno (modulus {gauss_mod:.6f} > 1-1e-3 at n=1e6); Cauchy Borderline "
        f"(|table - e^-2| <= {cauchy_dev:.1e}); Pareto(1/2) AntiZeno (modulus {pareto_mod:.1e} at n={n_star}); "
        f"discrete measures all Zeno; LLN exceedance {exceedance:.4f} < 0.01, "
        f"containment {contains[0]:.3f} > {contains[1]:.3f} > {contains[2]:.3f}",
    )


def test_criterion_08_symmetrization_inequalities():
    results = []
    for name, measure in (("gaussian", Gaussian(0.0, 1.0)), ("pareto", TwoSidedPareto(0.5, 1.0))):
        shift = measure.median()
        rng = np.random.default_rng(88)
        n = 200_000
        x1, x2 = measure.sample(n, rng), measure.sample(n, rng)
        diff, absx = np.abs(x1 - x2), np.abs(x1)
        for x in (1.0, 5.0, 10.0):
            p_far = float(np.mean(absx > x + shift))
            p_diff = float(np.mean(diff > x))
            p_half = float(np.mean(absx > x / 2.0))
            se = lambda p: math.sqrt(max(p * (1 - p), 1e-12) / n)
            lower_ok = 0.5 * p_far <= p_diff + 3.0 * (0.5 * se(p_far) + se(p_diff))
            upper_ok = p_diff <= 2.0 * p_half + 3.0 * (se(p_diff) + 2.0 * se(p_half))
            results.append((name, x, lower_ok and upper_ok))
    ok = all(r[2] for r in results)
    verdict(8, ok, f"both symmetrization bounds hold within 3 SE at x in {{1,5,10}} for gaussian and pareto")


def test_criterion_09_kms_suite():
    rng = np.random.default_rng(99)
    h4 = random_hermitian_op(rng, 4)
    t_grid = np.linspace(-2.0, 2.0, 9)
    worst_scaled = 0.0
    pair_count = 0
    for beta in (0.5, 1.0, 2.0):
        state = gibbs_state(h4, beta)
        for _ in range(100):
            a, b = random_hermitian(rng, 4), random_hermitian(rng, 4)
            pair_count += 1
            scale = kms_scale(h4, a, b, beta)
            for t in t_grid:
                worst_scaled = max(worst_scaled, kms_residual(h4, state, a, b, float(t), beta) / scale)
    gibbs_ok = worst_scaled < 1e-10

    h6 = random_hermitian_op(rng, 6)
    e = random_projection(rng, 6, 3)
    zg = zeno_gibbs_state(h6, e, 1.0)
    p = e.matrix
    compression_gap = 0.0
    for _ in range(20):
        a, b, c = (random_hermitian(rng, 6) for _ in range(3))
        lhs = expectation(zg, a @ (p @ b @ p) @ c)
        rhs = expectation(zg, (p @ a @ p) @ (p @ b @ p) @ (p @ c @ p))
        compression_gap = max(compression_gap, abs(lhs - rhs))

    pairs = [(random_hermitian(rng, 6), random_hermitian(rng, 6)) for _ in range(20)]
    reduced = reduced_kms_residual(h6, e, 1.0, pairs, t_grid)
    reduced_scale = math.exp(eigendecompose(compressed_generator_matrix(h6, e)).spread)
    reduced_ok = reduced < 1e-10 * reduced_scale

    a, b = random_hermitian(rng, 4), random_hermitian(rng, 4)
    neg_scale = kms_scale(h4, a, b, 1.0)
    wrong_beta = kms_residual(h4, gibbs_state(h4, 2.0), a, b, 0.7, 1.0)
    other = random_projection(rng, 6, 3)
    wrong_proj = reduced_kms_residual(h6, e, 1.0, pairs[:5], [0.7], state=zeno_gibbs_state(h6, other, 1.0))
    negatives_fail = wrong_beta > 1e-8 * neg_scale and wrong_proj > 1e-8 * reduced_scale

    ok = gibbs_ok and compression_gap < 1e-10 and reduced_ok and negatives_fail
    verdict(
        9,
        ok,
        f"Gibbs residual/scale <= {worst_scaled:.1e} over {pair_count} 4x4 pairs x 9 times; "
        f"compression identity gap {compression_gap:.1e}; reduced residual {reduced:.1e} "
        f"(tol {1e-10 * reduced_scale:.1e}); wrong-beta {wrong_beta:.2e} and wrong-projection "
        f"{wrong_proj:.2e} clearly fail",
    )


def test_criterion_10_form_sum_product_formulas():
    rng = np.random.default_rng(33)

    def random_psd(dim, norm):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = g.conj().T @ g
        return m * (norm / operator_norm(m))

    ratios = []
    residuals = []
    for _ in range(3):
        pa = random_projection(rng, 6, 4)
        pb = random_projection(rng, 6, 5)
        a = degenerate_form(pa, pa.matrix @ random_psd(6, 1.0) @ pa.matrix)
        b = degenerate_form(pb, pb.matrix @ random_psd(6, 1.0) @ pb.matrix)
        report = kato_form_sum_product(a, b, 1.0, tuple(2**k for k in range(1, 13)))
        ratios.append(report.distance(2048) / report.distance(4096))
        residuals.append(report.target_residual)
    first_order_ok = all(1.7 <= r <= 2.3 for r in ratios) and max(residuals) < 5e-3

    mat = random_psd(4, 1.0)
    e = random_projection(rng, 4, 2)
    kato = kato_form_sum_product(
        full_support_form(mat),
        degenerate_form(e, np.zeros((4, 4), dtype=complex)),
        1.0,
        (2, 32, 512),
    )
    direct = degenerate_product(sectorial_operator(mat, math.pi / 2), e, 1.0, (2, 32, 512))
    reduction_gap = max(
        max(abs(d1 - d2), abs(c1 - c2))
        for (_, d1, c1), (_, d2, c2) in zip(kato.per_n, direct.per_n)
    )
    reduction_gap = max(reduction_gap, operator_norm(kato.limit.matrix - direct.limit.matrix))

    basis = np.eye(4, dtype=complex)
    from zenolab.operators import projection_from_span

    pa = projection_from_span([basis[:, 0], basis[:, 1]])
    pb = projection_from_span([(basis[:, 1] + basis[:, 2]) / math.sqrt(2), basis[:, 3]])
    disjoint = kato_form_sum_product(
        degenerate_form(pa, pa.matrix @ random_psd(4, 1.0) @ pa.matrix),
        degenerate_form(pb, pb.matrix @ random_psd(4, 1.0) @ pb.matrix),
        1.0,
        (256, 4096),
    )
    zero_ok = operator_norm(disjoint.target.matrix) < 1e-12 and operator_norm(disjoint.limit.matrix) < 1e-6

    ok = first_order_ok and reduction_gap < 1e-10 and zero_ok
    verdict(
        10,
        ok,
        f"subspace pairs: ratios in [{min(ratios):.3f}, {max(ratios):.3f}], residuals <= {max(residuals):.1e}; "
        f"vanishing-form reduction gap {reduction_gap:.1e} (<= 1e-10); disjoint supports collapse to zero",
    )


def test_criterion_11_perturbation_leakage_bound():
    worst_excess = -math.inf
    for norm in (0.05, 0.1, 0.5):
        for seed in range(20):
            config = parse_config(
                {
                    "schema_version": 1,
                    "task": "converge",
                    "model": {"perturbed": {"dim": 8, "seed": seed, "perturbation_norm": norm}},
                }
            )
            worst_excess = max(worst_excess, perturbed_invariance_check(config))
    ok = worst_excess <= 1e-10
    verdict(
        11,
        ok,
        f"||E_perp U(t) E|| <= exp(||P|| t) - 1 on (0, 1] for 20 seeds x 3 norms "
        f"(max excess {worst_excess:.2e} <= 1e-10)",
    )


def test_criterion_12_deterministic_scenario_runs(tmp_path):
    configs = [
        {"schema_version": 1, "task": "converge", "model": {"rabi": {}}, "t": 1.0},
        {
            "schema_version": 1,
            "task": "survival",
            "model": {
                "friedrichs": {
                    "n_modes": 50,
                    "band": [-2.0, 2.0],
                    "excited_energy": -0.7,
                    "coupling_strength": 0.05,
                    "profile": "gaussian",
                }
            },
        },
        {
            "schema_version": 1,
            "task": "gibbs",
            "model": {"random": {"dim": 4, "rank_e": 2, "seed": 12}},
            "beta": 1.0,
            "pairs": 5,
        },
        {
            "schema_version": 1,
            "task": "classify",
            "model": {"random": {"dim": 5, "rank_e": 2, "seed": 9}},
        },
    ]
    identical = True
    checked = 0
    for i, data in enumerate(configs):
        config = parse_config(data)
        r1 = run_scenario(config, out_dir=tmp_path / f"a{i}")
        r2 = run_scenario(config, out_dir=tmp_path / f"b{i}")
        for p1, p2 in zip(r1.csv_paths, r2.csv_paths):
            with open(p1, "rb") as f1, open(p2, "rb") as f2:
                identical &= f1.read() == f2.read()
                checked += 1
    ok = identical and checked >= 5
    verdict(12, ok, f"{checked} CSVs byte-identical across repeated runs of 4 scenario kinds")
