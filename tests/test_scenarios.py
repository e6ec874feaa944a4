import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

import zenolab.scenarios
from conftest import SIGMA_X
from reference import complement, friedrichs_t_grid, ginibre_hermitian
from zenolab.errors import ConfigError
from zenolab.operators import evolve, operator_norm
from zenolab.scenarios import (
    Table,
    build_scenario,
    emit_csv,
    load_config,
    parse_config,
    perturbed_invariance_check,
    run_scenario,
)
from zenolab.zeno import _leakage, azc_fit, zeno_convergence_report


def cfg(task="converge", model=None, **extra):
    data = {"schema_version": 1, "task": task, "model": model or {"rabi": {}}}
    data.update(extra)
    return parse_config(data)


class TestConfigParsing:
    def test_minimal_valid(self):
        c = cfg()
        assert c.task == "converge" and c.model_kind == "rabi"

    def test_requires_schema_version(self):
        with pytest.raises(ConfigError):
            parse_config({"task": "converge", "model": {"rabi": {}}})

    def test_unknown_root_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config({"schema_version": 1, "task": "converge", "model": {"rabi": {}}, "bogus": 1})

    def test_unknown_model_key(self):
        with pytest.raises(ConfigError, match="fancy"):
            parse_config(
                {"schema_version": 1, "task": "converge", "model": {"random": {"dim": 4, "fancy": 2}}}
            )

    def test_unknown_model(self):
        with pytest.raises(ConfigError):
            parse_config({"schema_version": 1, "task": "converge", "model": {"ising": {}}})

    def test_task_specific_key_rejected_elsewhere(self):
        with pytest.raises(ConfigError, match="beta"):
            parse_config({"schema_version": 1, "task": "converge", "model": {"rabi": {}}, "beta": 1.0})

    def test_dim_bounds(self):
        with pytest.raises(ConfigError, match="dim"):
            parse_config(
                {"schema_version": 1, "task": "converge", "model": {"random": {"dim": 500}}}
            )

    def test_band_ordering(self):
        with pytest.raises(ConfigError, match="band"):
            parse_config(
                {
                    "schema_version": 1,
                    "task": "survival",
                    "model": {"friedrichs": {"band": [2.0, -2.0]}},
                }
            )

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "path, fields",
        [
            ("t", lambda v: {"task": "converge", "t": v}),
            ("beta", lambda v: {"task": "gibbs", "beta": v}),
            ("model.friedrichs.excited_energy", lambda v: {"task": "survival", "model": {"friedrichs": {"excited_energy": v}}}),
            ("t_grid[1]", lambda v: {"task": "survival", "t_grid": [0.1, v, 10]}),
        ],
        ids=["t", "beta", "excited_energy", "t_grid[1]"],
    )
    def test_non_finite_number_rejected(self, path, fields, value):
        data = {"schema_version": 1, "model": {"rabi": {}}, **fields(value)}
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}: must be finite"):
            parse_config(data)

    def test_non_finite_yaml_value_rejected(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("schema_version: 1\ntask: gibbs\nmodel:\n  rabi: {}\nbeta: .nan\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="beta"):
            load_config(path)

    def test_t_grid_shape(self):
        with pytest.raises(ConfigError, match="t_grid"):
            cfg(task="survival", t_grid=[1.0, 2.0])

    @pytest.mark.parametrize(
        "path, fields",
        [
            ("model.random.seed", {"model": {"random": {"seed": -1}}}),
            ("model.perturbed.seed", {"model": {"perturbed": {"seed": -1}}}),
            ("pairs_seed", {"task": "gibbs", "pairs_seed": -5}),
        ],
        ids=["random", "perturbed", "pairs_seed"],
    )
    def test_negative_seed_rejected(self, path, fields):
        data = {"schema_version": 1, "task": "converge", "model": {"rabi": {}}, **fields}
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}: must be >= 0"):
            parse_config(data)

    @pytest.mark.parametrize(
        "path, task, key, value, cap",
        [
            ("pairs", "gibbs", "pairs", lambda n: n, 1000),
            ("t_grid[2]", "survival", "t_grid", lambda n: (0.1, 1.0, n), 10**5),
            ("t_grid[2]", "gibbs", "t_grid", lambda n: (0.1, 1.0, n), 10**5),
            ("n_schedule[1]", "converge", "n_schedule", lambda n: [1, n], 2**30),
        ],
        ids=["pairs", "survival-t_grid", "gibbs-t_grid", "n_schedule"],
    )
    def test_size_cap_accepted_and_cap_plus_one_rejected(self, path, task, key, value, cap):
        assert cfg(task=task, **{key: value(cap)}).options[key] == value(cap)
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}: must be <= {cap}, got {cap + 1}$"):
            cfg(task=task, **{key: value(cap + 1)})

    def test_sweep_run_count_capped_before_any_run_is_parsed(self):
        run = {"task": "classify", "model": {"rabi": {}}}
        assert len(parse_config({"schema_version": 1, "task": "sweep", "runs": [run] * 10**4}).runs) == 10**4
        # every run is invalid, so only a check made before parsing them can name ``runs`` itself
        with pytest.raises(ConfigError, match=f"^runs: must hold at most {10**4} entries, got {10**4 + 1}$"):
            parse_config({"schema_version": 1, "task": "sweep", "runs": [{"task": "bogus"}] * (10**4 + 1)})

    def test_boolean_in_n_schedule_rejected(self):
        with pytest.raises(ConfigError, match=re.escape("n_schedule[0]")):
            cfg(n_schedule=[True, 2])

    def test_defaults_filled_in(self):
        c = cfg(task="gibbs", model={"random": {"dim": 6}})
        assert c.model == {"dim": 6, "rank_e": 3, "seed": 0}
        assert c.options == {"beta": 1.0, "pairs": 20, "pairs_seed": 0, "t_grid": (-2.0, 2.0, 9)}

    def test_nested_sweep_rejected(self):
        runs = [{"task": "converge", "model": {"rabi": {}}}, {"task": "sweep", "runs": [{"task": "survival"}]}]
        with pytest.raises(ConfigError, match=re.escape("runs[1].task")):
            parse_config({"schema_version": 1, "task": "sweep", "runs": runs})

    @pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure-python"])
    def test_exponent_floats_parse_as_floats_and_quoted_ones_stay_strings(self, tmp_path, monkeypatch, libyaml):
        """YAML 1.1 reads 1e-3 and 1.0e3 as strings; the loader reads them as YAML 1.2 does."""
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        path = tmp_path / "c.yaml"

        def load(body):
            path.write_text("schema_version: 1\n" + body, encoding="utf-8")
            return load_config(path)

        friedrichs = "task: survival\nmodel:\n  friedrichs: {coupling_strength: %s}\n"
        assert load(friedrichs % "1e-3").model["coupling_strength"] == 1e-3
        assert load(friedrichs % "1.0e3").model["coupling_strength"] == 1e3
        assert load("task: converge\nmodel:\n  rabi: {}\nt: -2E+5\n").options["t"] == -2e5
        with pytest.raises(ConfigError, match="coupling_strength: expected a number, got '1e3'"):
            load(friedrichs % "'1e3'")
        with pytest.raises(ConfigError, match="n_modes"):
            load("task: survival\nmodel:\n  friedrichs: {n_modes: 1e3}\n")
        with pytest.raises(ConfigError, match="t: must be finite"):
            load("task: converge\nmodel:\n  rabi: {}\nt: .inf\n")

    @pytest.mark.parametrize("workload", ["decay-large", "zeno-products", "kms-thermal", "sweep-small"])
    def test_benchmark_configs_load_equal_under_both_yaml_loaders(self, tmp_path, monkeypatch, workload):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from workloads import make_config

        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(make_config(workload, 1), sort_keys=False), encoding="utf-8")
        with_libyaml = load_config(path)
        monkeypatch.delattr(yaml, "CSafeLoader")
        assert load_config(path) == with_libyaml


class TestBuilders:
    @pytest.mark.parametrize("dim", [1, 2, 7, 200])
    @pytest.mark.parametrize("seed", [0, 1, 17, 2**31 - 1])
    def test_hermitian_draw_equals_the_dense_formula_byte_for_byte(self, dim, seed):
        fast_rng, dense_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):  # the second draw checks that both take the same numbers from the rng
            fast, dense = zenolab.scenarios._random_hermitian(fast_rng, dim), ginibre_hermitian(dense_rng, dim)
            assert fast.dtype == dense.dtype and fast.shape == dense.shape and fast.tobytes() == dense.tobytes()

    def test_rabi_triple(self):
        scen = build_scenario(cfg())
        assert operator_norm(scen.hamiltonian.matrix - SIGMA_X) < 1e-14
        expected = np.zeros((2, 2), dtype=complex)
        expected[0, 0] = 1.0
        assert operator_norm(scen.projection.matrix - expected) < 1e-14
        assert np.allclose(scen.state, [1.0, 0.0])

    def test_random_reproducible_and_valid(self):
        c = cfg(model={"random": {"dim": 6, "rank_e": 3, "seed": 7}})
        a, b = build_scenario(c), build_scenario(c)
        assert np.array_equal(a.hamiltonian.matrix, b.hamiltonian.matrix)
        assert np.array_equal(a.projection.matrix, b.projection.matrix)
        assert np.array_equal(a.state, b.state)
        assert a.projection.rank == 3
        assert operator_norm(a.hamiltonian.matrix) == pytest.approx(1.0)
        assert np.linalg.norm(a.projection.matrix @ a.state - a.state) < 1e-12

    def test_friedrichs_golden_rate_independent_of_mode_count(self):
        rates = []
        for n in (100, 200, 400):
            c = cfg(
                task="survival",
                model={
                    "friedrichs": {
                        "n_modes": n,
                        "band": [-2.0, 2.0],
                        "excited_energy": 0.0,
                        "coupling_strength": 0.05,
                        "profile": "flat",
                    }
                },
            )
            rates.append(build_scenario(c).golden_rate)
        assert rates[0] == pytest.approx(rates[1]) == pytest.approx(rates[2])
        assert rates[0] == pytest.approx(2.0 * math.pi * 0.05**2, rel=1e-12)

    def test_friedrichs_state_energy_variance(self):
        c = cfg(
            task="survival",
            model={
                "friedrichs": {
                    "n_modes": 200,
                    "band": [-2.0, 2.0],
                    "excited_energy": 0.0,
                    "coupling_strength": 0.05,
                    "profile": "flat",
                }
            },
        )
        scen = build_scenario(c)
        from zenolab.survival import energy_moments

        # flat profile: variance = sum g_k^2 = c^2 * width
        m1, m2 = energy_moments(scen.hamiltonian, scen.state)
        assert m2 - m1 * m1 == pytest.approx(0.05**2 * 4.0, rel=1e-10)

    @pytest.mark.parametrize("coupling", [10.0**k for k in range(-6, 4)])
    @pytest.mark.parametrize("n_modes", [2, 3, 40, 401, 2000])
    def test_friedrichs_grid_is_the_unique_merge_byte_for_byte(self, n_modes, coupling):
        c = cfg(task="survival", model={"friedrichs": {"n_modes": n_modes, "coupling_strength": coupling}})
        scen = build_scenario(c)
        expected = friedrichs_t_grid(scen.fit_window[1])
        assert scen.t_grid.dtype == expected.dtype and scen.t_grid.tobytes() == expected.tobytes()

    def test_friedrichs_grid_covers_both_ends_and_a_falling_first_piece(self):
        """min(8, t_hi / 2) takes both branches as n_modes grows; a wide band makes the first piece fall."""
        few, many = (build_scenario(cfg(task="survival", model={"friedrichs": {"n_modes": n}})) for n in (2, 2000))
        assert 0.5 * few.fit_window[1] < 8.0 < 0.5 * many.fit_window[1]
        wide = build_scenario(cfg(task="survival", model={"friedrichs": {"n_modes": 2, "band": [-1e6, 1e6]}}))
        assert 0.5 * wide.fit_window[1] < 1e-3  # linspace(1e-3, t_hi / 2, 400) runs downward
        expected = friedrichs_t_grid(wide.fit_window[1])
        assert wide.t_grid.tobytes() == expected.tobytes() and np.all(np.diff(wide.t_grid) > 0)

    @pytest.mark.parametrize("width, narrow", [(1e-170, True), (8.3e-154, True), (8.5e-154, False), (1e-12, False)])
    def test_gaussian_band_too_narrow_for_its_profile(self, width, narrow):
        """A gaussian band needs 2 sigma^2 = width^2 / 32 to be a normal double; a flat band of any width builds."""
        band = [-width / 2, width / 2]
        gaussian = cfg(task="survival", model={"friedrichs": {"n_modes": 2, "band": band, "profile": "gaussian"}})
        if narrow:
            with pytest.raises(ConfigError, match=r"^model\.friedrichs\.band: gaussian band width"):
                build_scenario(gaussian)
        else:
            assert np.all(np.isfinite(build_scenario(gaussian).hamiltonian.eigenvalues))
        build_scenario(cfg(task="survival", model={"friedrichs": {"n_modes": 2, "band": band, "profile": "flat"}}))


class TestPerturbedInvariance:
    TIMES = np.linspace(1.0 / 21, 1.0, 21)  # the check's grid
    TAUS = np.logspace(-4, -2, 9)[::-1]
    SCHEDULE = tuple(2**k for k in range(1, 11))

    def test_zero_perturbation_never_leaks(self):
        c = cfg(model={"perturbed": {"dim": 6, "seed": 1, "perturbation_norm": 0.0}})
        scen = build_scenario(c)
        assert np.all(_leakage(scen.hamiltonian, scen.projection, self.TIMES) < 1e-12)
        assert perturbed_invariance_check(c) < 1e-12  # the bound is 0 at ||P|| = 0: the excess is the leak
        assert azc_fit(scen.hamiltonian, scen.projection, self.TAUS).exactly_zeno

    def test_dyson_bound_value(self):
        # oracle: order-3 truncation of the perturbation series bound
        c = cfg(model={"perturbed": {"dim": 8, "seed": 2, "perturbation_norm": 0.1}})
        assert perturbed_invariance_check(c) <= 1e-10
        t = 0.5
        truncated = sum((0.1 * t) ** k / math.factorial(k) for k in (1, 2, 3))
        full = math.expm1(0.1 * t)
        assert full == pytest.approx(0.051271, abs=1e-6)
        assert abs(full - truncated) < 1e-6
        scen = build_scenario(c)
        ec = complement(scen.projection).matrix
        leak = operator_norm(ec @ evolve(scen.hamiltonian, t) @ scen.projection.matrix)
        assert leak <= full + 1e-10

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_generic_seed_azc_and_limit_invariance(self, seed):
        c = cfg(model={"perturbed": {"dim": 8, "seed": seed, "perturbation_norm": 0.1}})
        scen = build_scenario(c)
        h, e = scen.hamiltonian, scen.projection
        fit = azc_fit(h, e, self.TAUS)
        assert fit.exponent == pytest.approx(1.0, abs=0.02)
        assert fit.constant <= 0.1 * 1.05
        report = zeno_convergence_report(h, e, 1.0, self.SCHEDULE)
        qg = e.basis @ report.target.core  # the limit is QGQ*, and ||E_perp QGQ*|| = ||E_perp QG||
        assert operator_norm(qg - e.basis @ (e.basis.conj().T @ qg)) < 1e-10
        assert not report.exact
        assert report.target_residual < 1e-2


class TestEmitCsv:
    def test_empty_table_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(Table({"a": np.zeros(0, dtype=int), "b": np.zeros(0)}), path)
        assert path.read_text(encoding="utf-8") == "a,b\n"

    def test_float_round_trip(self, tmp_path):
        path = tmp_path / "x.csv"
        emit_csv(Table({"v": [0.1]}), path)
        text = path.read_text(encoding="utf-8").splitlines()[1]
        assert float(text) == 0.1

    def test_columns_match_the_per_cell_reference(self, tmp_path):
        """Each column is formatted once by dtype, exactly as cell by cell with .17g and int."""
        info = np.iinfo(np.int64)
        reals = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.0, -3.0, 2.0**53, 1e16, 1e17, math.inf, 1 / 3]
        ints = [info.min, info.max, 0, -1, 2**53 + 1, 10**17]
        for column, cell in ((np.array(reals), lambda x: f"{float(x):.17g}"), (np.array(ints), lambda i: str(int(i)))):
            path = tmp_path / "t.csv"
            emit_csv(Table({"v": column}), path)
            assert path.read_text(encoding="utf-8") == "".join(f"{line}\n" for line in ["v", *map(cell, column)])

    @pytest.mark.parametrize(
        "columns",
        [
            {},
            {"a": [1, 2], "b": [1.0]},
            {"a": np.zeros((2, 2))},
            {"a": [1.0 + 2.0j]},
            {"a": [True, False]},
            {"a": np.array([1.0, "x"], dtype=object)},
            {"a": ["x"]},
        ],
        ids=["none", "ragged", "2-D", "complex", "bool", "object", "str"],
    )
    def test_table_rejects_what_is_not_equal_length_integer_or_real_columns(self, columns):
        with pytest.raises(ValueError):
            Table(columns)


class TestRunScenario:
    def test_converge_schema_and_headline(self, tmp_path):
        report = run_scenario(cfg(t=1.0), out_dir=tmp_path)
        lines = (tmp_path / "converge.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "n,distance_to_limit,cauchy_delta"
        assert report.headline["fitted_rate_exponent"] == pytest.approx(-1.0, abs=0.01)
        assert not report.warnings

    def test_determinism_byte_identical(self, tmp_path):
        c = cfg(task="gibbs", model={"random": {"dim": 4, "rank_e": 2, "seed": 3}}, beta=1.0, pairs=5)
        run_scenario(c, out_dir=tmp_path / "a")
        run_scenario(c, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "kms.csv").read_bytes() == (tmp_path / "b" / "kms.csv").read_bytes()

    def test_survival_rabi_warns_non_exponential(self, tmp_path):
        report = run_scenario(cfg(task="survival"), out_dir=tmp_path)
        assert any(w.startswith("NonExponential") for w in report.warnings)
        header = (tmp_path / "survival.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == "t,probability,gamma_eff"

    def test_classify_discrete_is_zeno(self, tmp_path):
        report = run_scenario(
            cfg(task="classify", model={"random": {"dim": 5, "rank_e": 2, "seed": 4}}),
            out_dir=tmp_path,
        )
        assert report.headline["classification"] == "Zeno"
        assert len(report.csv_paths) == 2
        assert (tmp_path / "tails.csv").read_text(encoding="utf-8").splitlines()[0] == "x,delta"
        assert (tmp_path / "moduli.csv").read_text(encoding="utf-8").splitlines()[0] == "n,modulus"

    def test_friedrichs_survival_headline(self, tmp_path):
        report = run_scenario(
            cfg(
                task="survival",
                model={
                    "friedrichs": {
                        "n_modes": 100,
                        "band": [-2.0, 2.0],
                        "excited_energy": -0.7,
                        "coupling_strength": 0.05,
                        "profile": "gaussian",
                    }
                },
            ),
            out_dir=tmp_path,
        )
        assert {"gamma0", "Z", "tau_star", "golden_rate"} <= set(report.headline)
        assert report.headline["Z"] < 1.0
        assert report.headline["tau_star"] is not None

    def test_gibbs_headline_residual(self, tmp_path):
        report = run_scenario(
            cfg(task="gibbs", model={"random": {"dim": 4, "rank_e": 2, "seed": 5}}, beta=1.0, pairs=5),
            out_dir=tmp_path,
        )
        assert report.headline["max_residual_over_scale"] < 1e-10
        header = (tmp_path / "kms.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == "pair,t,residual,scale"

    def test_sweep_runs_subconfigs(self, tmp_path):
        data = {
            "schema_version": 1,
            "task": "sweep",
            "runs": [
                {"task": "converge", "model": {"rabi": {}}, "t": 1.0},
                {"task": "survival", "model": {"rabi": {}}},
            ],
        }
        report = run_scenario(parse_config(data), out_dir=tmp_path)
        assert (tmp_path / "run_000" / "converge.csv").exists()
        assert (tmp_path / "run_001" / "survival.csv").exists()
        assert any("run_001" in w for w in report.warnings)

    def test_sweep_builds_each_run_of_equal_models_once(self, tmp_path, monkeypatch):
        """A run whose model equals the previous run's reuses its scenario, and writes the CSVs it writes alone."""
        fried = {"friedrichs": {"n_modes": 30, "excited_energy": -0.7}}
        rand = {"random": {"dim": 6, "seed": 2}}
        runs = [
            {"task": "converge", "model": fried},
            {"task": "classify", "model": fried},
            {"task": "gibbs", "model": rand, "pairs": 2},
            {"task": "converge", "model": rand, "ordering": "UE"},
            {"task": "survival", "model": fried},
            {"task": "classify", "model": {"friedrichs": {"n_modes": 30, "excited_energy": -0.6}}},
        ]
        config = parse_config({"schema_version": 1, "task": "sweep", "runs": runs})
        built = []
        build = zenolab.scenarios.build_scenario
        monkeypatch.setattr(zenolab.scenarios, "build_scenario", lambda c: built.append(c.model) or build(c))
        report = run_scenario(config, out_dir=tmp_path / "sweep")
        assert len(built) == 4  # fried, rand, fried again after rand, and the fried at -0.6
        for i, run in enumerate(config.runs):
            alone = run_scenario(run, out_dir=tmp_path / f"alone_{i}")
            for path in alone.csv_paths:
                name = Path(path).name
                assert (tmp_path / "sweep" / f"run_{i:03d}" / name).read_bytes() == Path(path).read_bytes()
        assert len(report.csv_paths) == 8

    def test_sweep_runs_parsed_up_front(self):
        runs = [{"task": "converge", "model": {"rabi": {}}}, {"task": "gibbs", "model": {"random": {"dim": 4}}}]
        c = parse_config({"schema_version": 1, "task": "sweep", "runs": runs})
        assert c.options["runs"] == runs
        assert [(r.task, r.model_kind) for r in c.runs] == [("converge", "rabi"), ("gibbs", "random")]
        assert c.runs[1].model["rank_e"] == 2

    def test_sweep_seeds_distinct_for_every_seed_and_run(self):
        runs = [{"task": "converge", "model": {"random": {"dim": 4}}}] * 1001
        data = {"schema_version": 1, "task": "sweep", "runs": runs}
        seeds = [run.model["seed"] for s in (0, 1) for run in parse_config(data, seed=s).runs]
        assert len(set(seeds)) == len(seeds) == 2002

    def test_sweep_seed_overrides_pairs_seed(self):
        runs = [{"task": "gibbs", "model": {"rabi": {}}, "pairs_seed": 100}] * 2
        c = parse_config({"schema_version": 1, "task": "sweep", "runs": runs}, seed=3)
        assert [r.options["pairs_seed"] for r in c.runs] == [6, 7]

    def test_seed_override_changes_model(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("schema_version: 1\ntask: converge\nmodel:\n  random: {dim: 4, rank_e: 2, seed: 3}\nt: 1.0\n")
        r1 = run_scenario(load_config(path, seed=99), out_dir=tmp_path / "a")
        r2 = run_scenario(load_config(path, seed=99), out_dir=tmp_path / "b")
        r3 = run_scenario(load_config(path), out_dir=tmp_path / "c")
        assert (tmp_path / "a" / "converge.csv").read_bytes() == (tmp_path / "b" / "converge.csv").read_bytes()
        assert (tmp_path / "a" / "converge.csv").read_bytes() != (tmp_path / "c" / "converge.csv").read_bytes()
