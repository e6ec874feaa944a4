import builtins
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import zenolab
import zenolab.cli
import zenolab.scenarios
from zenolab.cli import main


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


RABI_CONVERGE = """schema_version: 1
task: converge
model:
  rabi: {}
t: 1.0
output_path: out
"""


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        config = write(tmp_path / "c.yaml", RABI_CONVERGE)
        assert main(["converge", "--config", config, "--out", str(tmp_path / "o"), "--quiet"]) == 0

    def test_warnings_exit_one(self, tmp_path):
        config = write(
            tmp_path / "s.yaml",
            "schema_version: 1\ntask: survival\nmodel:\n  rabi: {}\n",
        )
        assert main(["survival", "--config", config, "--out", str(tmp_path / "o"), "--quiet"]) == 1

    def test_config_error_exits_two(self, tmp_path, capsys):
        config = write(tmp_path / "bad.yaml", "schema_version: 2\ntask: converge\n")
        assert main(["converge", "--config", config, "--quiet"]) == 2
        assert "schema_version" in capsys.readouterr().err

    @pytest.mark.parametrize("loader", ["libyaml", "python"])
    def test_invalid_yaml_exits_two_under_either_loader(self, tmp_path, capsys, monkeypatch, loader):
        if loader == "python":
            monkeypatch.delattr(yaml, "CSafeLoader")
        config = write(tmp_path / "bad.yaml", "schema_version: 1\ntask: [converge\n")
        assert main(["converge", "--config", config, "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config is not valid YAML: ")
        config = write(tmp_path / "s.yaml", "schema_version: 1\ntask: sweep\nruns: &r [{task: sweep, runs: *r}]\n")
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("error: runs[0].task")

    def test_task_mismatch_exits_two(self, tmp_path):
        config = write(tmp_path / "c.yaml", RABI_CONVERGE)
        assert main(["survival", "--config", config, "--quiet"]) == 2

    def test_kms_scale_overflow_exits_two(self, tmp_path, capsys):
        config = write(
            tmp_path / "g.yaml",
            "schema_version: 1\ntask: gibbs\nmodel:\n  random: {dim: 6}\nbeta: 1000\n",
        )
        assert main(["gibbs", "--config", config, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("coupling", ["1.0e-200", "1.0e+200"], ids=["underflow", "overflow"])
    def test_golden_rule_out_of_range_names_the_key(self, tmp_path, capsys, coupling):
        config = write(
            tmp_path / "f.yaml",
            f"schema_version: 1\ntask: survival\nmodel:\n  friedrichs: {{n_modes: 22, coupling_strength: {coupling}}}\n",
        )
        assert main(["survival", "--config", config, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: model.friedrichs.coupling_strength: ")
        builtin_errors = [n for n, v in vars(builtins).items() if isinstance(v, type) and issubclass(v, BaseException)]
        assert not [n for n in builtin_errors if n in err]

    @pytest.mark.parametrize(
        "model, key",
        [
            ("friedrichs: {n_modes: 22, coupling_strength: 1.0e+10}", "model.friedrichs.coupling_strength"),
            ("friedrichs: {n_modes: 5}", "model.friedrichs.n_modes"),
            # half the Heisenberg time of this spectrum falls below the first grid time
            ("perturbed: {dim: 6, perturbation_norm: 1.0e+6}", "fit_window"),
        ],
        ids=["strong-coupling", "few-modes", "perturbed"],
    )
    def test_empty_default_fit_window_names_the_key(self, tmp_path, capsys, model, key):
        body = f"schema_version: 1\ntask: survival\nmodel:\n  {model}\n"
        config = write(tmp_path / "f.yaml", body)
        assert main(["survival", "--config", config, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {key}: the default fit window")
        assert not (tmp_path / "o").exists()  # a run that raises writes no CSV
        for task in ("classify", "converge"):
            config = write(tmp_path / f"{task}.yaml", body.replace("survival", task))
            assert main([task, "--config", config, "--out", str(tmp_path / task), "--quiet"]) == 0

    def test_failed_sweep_run_keeps_the_runs_before_it(self, tmp_path, capsys):
        config = write(
            tmp_path / "s.yaml",
            "schema_version: 1\ntask: sweep\nruns:\n  - {task: converge, model: {rabi: {}}}\n"
            "  - {task: survival, model: {friedrichs: {n_modes: 5}}}\n",
        )
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("error: model.friedrichs.n_modes: the default fit window")
        assert [p.name for p in (tmp_path / "o").rglob("*.csv")] == ["converge.csv"]

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["converge", "--config", str(tmp_path / "nope.yaml"), "--quiet"]) == 2

    def test_self_referencing_sweep_exits_two(self, tmp_path, capsys):
        config = write(tmp_path / "s.yaml", "schema_version: 1\ntask: sweep\nruns: &r [{task: sweep, runs: *r}]\n")
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: runs[0].task")

    @pytest.mark.parametrize(
        "bad_run", ["{task: converge, model: {rabi: {bogus: 1}}}", "just-a-string"], ids=["unknown-key", "string"]
    )
    def test_bad_sweep_run_rejected_before_any_run(self, tmp_path, capsys, bad_run):
        config = write(
            tmp_path / "s.yaml",
            f"schema_version: 1\ntask: sweep\nruns:\n  - {{task: converge, model: {{rabi: {{}}}}}}\n  - {bad_run}\n",
        )
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: runs[1]")
        assert not (tmp_path / "o").exists()

    def test_negative_seed_flag_names_the_key(self, tmp_path, capsys):
        config = write(tmp_path / "r.yaml", "schema_version: 1\ntask: converge\nmodel:\n  random: {dim: 4}\n")
        assert main(["converge", "--config", config, "--out", str(tmp_path / "o"), "--seed", "-3", "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("error: model.random.seed: must be >= 0")

    @pytest.mark.parametrize("model", ["rabi: {}", "random: {dim: 6}"])
    @pytest.mark.parametrize(
        "extreme, message",
        [
            ("beta: 1.0e+308", "kms scale exponent inf"),
            (f"beta: {sys.float_info.max!r}", "kms scale exponent inf"),
            ("t_grid: [-1.0e+20, 1.0e+20, 3]", "no correct digit"),
            ("t_grid: [-1.0e+300, 1.0e+300, 3]", "no correct digit"),
            ("t_grid: [-1.0e+308, 1.0e+308, 3]", "error: t_grid: needs"),
        ],
    )
    def test_extreme_gibbs_run_exits_two_without_a_warning(self, tmp_path, capsys, model, extreme, message):
        """A huge beta overflows the KMS scale, huge times leave the phases no digit,
        and a grid whose span overflows is a config error."""
        config = write(tmp_path / "g.yaml", f"schema_version: 1\ntask: gibbs\nmodel:\n  {model}\npairs: 1\n{extreme}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["gibbs", "--config", config, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]

    def test_phases_without_a_correct_digit_exit_two(self, tmp_path, capsys):
        # t / n ~ 5e299 against eigenvalues +-1: the phases t w / n carry no digit
        config = write(tmp_path / "c.yaml", RABI_CONVERGE.replace("t: 1.0", "t: 1.0e+300"))
        assert main(["converge", "--config", config, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: phase magnitude ") and "no correct digit" in err[0]
        assert not (tmp_path / "o").exists()

    def test_classify_moduli_without_a_correct_digit_exit_two(self, tmp_path, capsys):
        # |phi(t)| at t = 1e16 against atoms +-1: the phases t x carry no digit
        text = RABI_CONVERGE.replace("converge", "classify").replace("t: 1.0", "t: 1.0e+16")
        config = write(tmp_path / "c.yaml", text)
        assert main(["classify", "--config", config, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: phase magnitude ") and "no correct digit" in err[0]
        assert not (tmp_path / "o").exists()

    def test_survival_times_without_a_correct_digit_exit_two(self, tmp_path, capsys):
        # t up to 1e17 against Friedrichs eigenvalues of order 1: the phases t w carry no digit, so the run stops
        # there, before any row is sampled or the fit window counts its samples
        config = write(
            tmp_path / "s.yaml",
            "schema_version: 1\ntask: survival\nmodel:\n  friedrichs: {n_modes: 50}\n"
            "t_grid: [1.0, 1.0e+17, 20]\nfit_window: [1.0e+16, 1.0e+17]\n",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["survival", "--config", config, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: phase magnitude ") and "no correct digit" in err[0]
        assert not (tmp_path / "o").exists()

    def test_perturbation_norm_beyond_its_cap_names_the_key(self, tmp_path, capsys):
        config = write(
            tmp_path / "p.yaml",
            "schema_version: 1\ntask: converge\nmodel:\n  perturbed: {dim: 6, perturbation_norm: 1.0e+300}\n"
            "t: 1.0e+6\n",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["converge", "--config", config, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: model.perturbed.perturbation_norm: must be <= 1000000.0, got 1e+300"]

    def test_tiny_survival_times_warn_nothing(self, tmp_path, capsys):
        # P(t) rounds to 1 + ulps at t ~ 1e-258, so gamma_eff reaches 1e241 and its slope overflows
        config = write(
            tmp_path / "s.yaml",
            "schema_version: 1\ntask: survival\nmodel:\n  rabi: {}\nt_grid: [5.51560886328264e-258, 2.8258148354348556e-76, 2]\n",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["survival", "--config", config, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: window (5.516e-258, 2.826e-76) holds 2 samples, need 10"]

    @pytest.mark.parametrize("task", ["classify", "survival"])
    def test_huge_band_names_the_key(self, tmp_path, capsys, task):
        # a band this wide leaves no digit in the phases; the cap rejects it before any numpy call
        config = write(
            tmp_path / "f.yaml",
            f"schema_version: 1\ntask: {task}\nmodel:\n  friedrichs: {{band: [-1.0e+300, 1.0e+300]}}\n",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([task, "--config", config, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: model.friedrichs.band[0]: must be >= -1000000.0, got -1e+300"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "exc", [ArithmeticError("products diverged"), np.linalg.LinAlgError("SVD did not\nconverge")]
    )
    def test_crash_exits_two_without_traceback(self, tmp_path, capsys, monkeypatch, exc):
        def crash(*args, **kwargs):
            raise exc

        monkeypatch.setattr(zenolab.cli, "run_scenario", crash)
        config = write(tmp_path / "c.yaml", RABI_CONVERGE)
        assert main(["converge", "--config", config, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {type(exc).__name__}: {' '.join(str(exc).split())}"]


class TestProcessEdges:
    """A failed write to stdout and an interrupt keep the contract: exit 2, one ``error:`` line, no traceback."""

    @staticmethod
    def child(tmp_path, stdout):
        """A converge run in a fresh process, its stdout on ``stdout``; returns the finished process."""
        config = write(tmp_path / "c.yaml", RABI_CONVERGE)
        env = dict(os.environ, PYTHONPATH=str(Path(zenolab.__file__).resolve().parents[1]))
        argv = [sys.executable, "-m", "zenolab.cli", "converge", "--config", config, "--out", str(tmp_path / "o")]
        return subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, env=env, text=True, timeout=60)

    def test_closed_pipe_exits_two(self, tmp_path):
        """``zenolab ... | true``: the reader is gone before the report is printed."""
        reader, writer = os.pipe()
        os.close(reader)
        try:
            proc = self.child(tmp_path, writer)
        finally:
            os.close(writer)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["error: BrokenPipeError: [Errno 32] Broken pipe"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    def test_full_stdout_exits_two(self, tmp_path):
        with open("/dev/full", "w") as full:
            proc = self.child(tmp_path, full)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["error: OSError: [Errno 28] No space left on device"]

    def test_failed_stdout_is_pointed_at_devnull(self, tmp_path, capsys, monkeypatch):
        """After the report fails to print, stdout's descriptor is os.devnull: the flush at exit writes nowhere."""
        reader, writer = os.pipe()
        os.close(reader)
        stream = open(writer, "w")
        monkeypatch.setattr(sys, "stdout", stream)
        config = write(tmp_path / "c.yaml", RABI_CONVERGE)
        try:
            assert main(["converge", "--config", config, "--out", str(tmp_path / "o")]) == 2
            assert os.path.samestat(os.fstat(writer), os.stat(os.devnull))
        finally:
            stream.close()
        assert capsys.readouterr().err.splitlines() == ["error: BrokenPipeError: [Errno 32] Broken pipe"]

    def test_failed_stdout_without_a_descriptor_exits_two(self, tmp_path, capsys, monkeypatch):
        """A stdout with no file descriptor (a StringIO, as a caller may redirect it to) is left as it is."""

        class Full(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(sys, "stdout", Full())
        config = write(tmp_path / "c.yaml", RABI_CONVERGE)
        assert main(["converge", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: OSError: [Errno 28] No space left on device"]

    def test_interrupt_exits_two(self, tmp_path, capsys, monkeypatch):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(zenolab.cli, "run_scenario", interrupt)
        config = write(tmp_path / "c.yaml", RABI_CONVERGE)
        assert main(["converge", "--config", config, "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: interrupted"] and captured.out == ""


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, tmp_path):
        config = write(
            tmp_path / "g.yaml",
            "schema_version: 1\ntask: gibbs\nmodel:\n  random: {dim: 4, rank_e: 2, seed: 11}\n"
            "beta: 1.0\npairs: 4\n",
        )
        assert main(["gibbs", "--config", config, "--out", str(tmp_path / "a"), "--quiet"]) == 0
        assert main(["gibbs", "--config", config, "--out", str(tmp_path / "b"), "--quiet"]) == 0
        assert (tmp_path / "a" / "kms.csv").read_bytes() == (tmp_path / "b" / "kms.csv").read_bytes()

    def test_blas_thread_counts(self, tmp_path):
        """Fresh processes rerun byte-identically at one BLAS thread count; across counts they agree to 1e-11.

        The thread count is set through the OpenBLAS variables, so the cross-count half runs only on an
        OpenBLAS build. The 1e-11 bound is from one measurement (3.2e-12, x86-64 Xeon, OpenBLAS 0.3.31).
        The sweep's survival run adds the complex product of its anchor and offset phase tables, which BLAS
        may split by thread count.
        """
        config = write(
            tmp_path / "f.yaml",
            "schema_version: 1\ntask: sweep\nruns:\n"
            "  - {task: converge, model: {friedrichs: {n_modes: 400}}}\n"
            "  - {task: survival, model: {friedrichs: {n_modes: 400, excited_energy: -0.7, profile: gaussian}}}\n",
        )
        csvs = ("run_000/converge.csv", "run_001/survival.csv")
        src = str(Path(zenolab.__file__).resolve().parents[1])
        runs = {"1": [], "2": []}
        for i, threads in enumerate(("1", "1", "2", "2")):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            out = tmp_path / f"run{i}"
            argv = ["sweep", "--config", config, "--out", str(out), "--quiet"]
            subprocess.run([sys.executable, "-m", "zenolab.cli", *argv], env=env, check=True, timeout=120)
            runs[threads].append([(out / name).read_bytes() for name in csvs])
        assert runs["1"][0] == runs["1"][1] and runs["2"][0] == runs["2"][1]
        if "openblas" not in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"].lower():
            pytest.skip("the thread count is set only for OpenBLAS; both counts ran alike")
        for one, two in zip(runs["1"][0], runs["2"][0]):
            one, two = (np.loadtxt(io.BytesIO(csv), delimiter=",", skiprows=1) for csv in (one, two))
            assert np.array_equal(one[:, 0], two[:, 0])
            assert np.max(np.abs(one - two)) <= 1e-11

    def test_seed_flag_overrides_config(self, tmp_path):
        config = write(
            tmp_path / "r.yaml",
            "schema_version: 1\ntask: converge\nmodel:\n  random: {dim: 4, rank_e: 2, seed: 1}\nt: 1.0\n",
        )
        main(["converge", "--config", config, "--out", str(tmp_path / "a"), "--quiet"])
        main(["converge", "--config", config, "--out", str(tmp_path / "b"), "--seed", "2", "--quiet"])
        a = (tmp_path / "a" / "converge.csv").read_bytes()
        b = (tmp_path / "b" / "converge.csv").read_bytes()
        assert a != b

    def test_seed_flag_parses_the_config_once(self, tmp_path, monkeypatch):
        parse = zenolab.scenarios.parse_config
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1:] + tuple(kwargs.values()))
            return parse(*args, **kwargs)

        monkeypatch.setattr(zenolab.scenarios, "parse_config", counting)
        config = write(tmp_path / "r.yaml", "schema_version: 1\ntask: converge\nmodel:\n  random: {dim: 4}\n")
        assert main(["converge", "--config", config, "--out", str(tmp_path / "o"), "--seed", "2", "--quiet"]) == 0
        assert calls == [(2,)]

    def test_report_printout(self, tmp_path, capsys):
        config = write(tmp_path / "c.yaml", RABI_CONVERGE)
        main(["converge", "--config", config, "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert "fitted_rate_exponent" in out
        assert "wrote:" in out
