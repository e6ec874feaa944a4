"""What a fresh process imports.

No CLI task calls scipy, so importing ``zenolab.cli`` and running every task
must leave scipy's submodules unloaded. The library paths that do call
scipy import it themselves and give the same values as in a process where
scipy was loaded first. Both cases run in a subprocess, since this one has
scipy loaded already.

numpy loads ``numpy.ma`` and ``numpy.random`` on first use. A Friedrichs or
rabi run uses neither, so it loads neither; the first random draw loads
``numpy.random``, and nothing loads ``numpy.ma``.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zenolab

SRC = str(Path(zenolab.__file__).resolve().parents[1])
TESTS = str(Path(__file__).resolve().parent)
SCIPY_SUBMODULES = ("scipy.linalg", "scipy.integrate", "scipy.special", "scipy.optimize", "scipy.sparse")

CONFIGS = {
    "survival": "task: survival\nmodel:\n  friedrichs: {n_modes: 40}\n",
    "classify": "task: classify\nmodel:\n  random: {dim: 8}\nt: 1.0\n",
    "converge": "task: converge\nmodel:\n  perturbed: {dim: 8}\nt: 1.0\n",
    "gibbs": "task: gibbs\nmodel:\n  random: {dim: 6}\npairs: 2\n",
    "sweep": (
        "task: sweep\nruns:\n"
        "  - {task: converge, model: {rabi: {}}, t: 1.0}\n"
        "  - {task: classify, model: {friedrichs: {n_modes: 20}}, t: 1.0}\n"
    ),
}

CLI_SCRIPT = """
import json, sys
import zenolab.cli
SCIPY = json.loads(sys.argv[1])
loaded = lambda: [m for m in SCIPY if m in sys.modules]
after_import = loaded()
codes = [zenolab.cli.main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps({"after_import": after_import, "codes": codes, "after_runs": loaded()}))
"""

LIBRARY_SCRIPT = """
import json, sys
from test_imports import SCIPY_SUBMODULES, library_values
values = library_values()
print(json.dumps({"values": values, "loaded": [m for m in SCIPY_SUBMODULES if m in sys.modules]}))
"""


NUMPY_SUBMODULES = ("numpy.ma", "numpy.random")
NUMPY_CONFIGS = {
    "survival": "task: survival\nmodel:\n  friedrichs: {n_modes: 40}\n",
    "classify": "task: classify\nmodel:\n  friedrichs: {n_modes: 40}\nt: 1.0\n",
    "converge": "task: converge\nmodel:\n  friedrichs: {n_modes: 40}\nt: 1.0\n",
    "converge_rabi": "task: converge\nmodel:\n  rabi: {}\nt: 1.0\n",
    "gibbs": "task: gibbs\nmodel:\n  random: {dim: 6}\npairs: 2\n",
}

NUMPY_SCRIPT = """
import json, sys
import numpy
MODULES = json.loads(sys.argv[1])
loaded = lambda: [m for m in MODULES if m in sys.modules]
after_numpy = loaded()
import zenolab.cli
after_import = loaded()
runs = json.loads(sys.argv[2])
codes = [zenolab.cli.main(argv) for argv in runs[:-1]]
after_runs = loaded()
codes.append(zenolab.cli.main(runs[-1]))
print(json.dumps({"after_numpy": after_numpy, "after_import": after_import, "after_runs": after_runs,
                  "after_gibbs": loaded(), "codes": codes}))
"""


def run_fresh(script: str, *args: str) -> dict:
    prelude = f"import sys\nsys.path[:0] = [{SRC!r}, {TESTS!r}]\n"
    proc = subprocess.run(
        [sys.executable, "-c", prelude + script, *args], capture_output=True, text=True, timeout=120, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


def library_values() -> dict[str, str]:
    """One call of each library path that calls scipy, each result as the hex of its bytes."""
    from zenolab.operators import expm
    from zenolab.spectral import Gaussian, TwoSidedPareto

    rng = np.random.default_rng(5)
    herm = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    herm = (herm + herm.conj().T) / 2.0
    gauss = Gaussian(0.3, 1.7)
    grid = np.linspace(-6.0, 6.0, 25)
    values = {
        "expm_non_normal": expm(np.triu(rng.standard_normal((5, 5)))),
        "expm_normal": expm(1j * herm + 0.3 * np.eye(5)),
        "gaussian_cdf": gauss.cdf(grid),
        "gaussian_survival": gauss.survival(grid),
        "pareto_phi_heavy": TwoSidedPareto(0.5, 1.0).phi(0.7),
        "pareto_phi_light": TwoSidedPareto(1.2, 2.0).phi(0.3),
    }
    return {name: np.asarray(value).tobytes().hex() for name, value in values.items()}


def test_cli_tasks_load_no_scipy_submodule(tmp_path):
    runs = []
    for task, body in CONFIGS.items():
        config = tmp_path / f"{task}.yaml"
        config.write_text("schema_version: 1\n" + body, encoding="utf-8")
        runs.append([task, "--config", str(config), "--out", str(tmp_path / task), "--quiet"])
    result = run_fresh(CLI_SCRIPT, json.dumps(SCIPY_SUBMODULES), json.dumps(runs))
    assert result["after_import"] == []
    assert result["codes"] == [1, 0, 0, 0, 0]  # the short Friedrichs survival warns, nothing errs
    assert result["after_runs"] == []
    assert (tmp_path / "sweep" / "run_001").is_dir()


def test_scipy_paths_import_it_themselves_with_the_same_bits():
    fresh = run_fresh(LIBRARY_SCRIPT)
    assert {"scipy.linalg", "scipy.integrate", "scipy.special"} <= set(fresh["loaded"])
    assert fresh["values"] == library_values()


def test_friedrichs_and_rabi_runs_load_neither_numpy_ma_nor_numpy_random(tmp_path):
    runs = []
    for name, body in NUMPY_CONFIGS.items():  # the random gibbs run comes last
        config = tmp_path / f"{name}.yaml"
        config.write_text("schema_version: 1\n" + body, encoding="utf-8")
        runs.append([name.partition("_")[0], "--config", str(config), "--out", str(tmp_path / name), "--quiet"])
    result = run_fresh(NUMPY_SCRIPT, json.dumps(NUMPY_SUBMODULES), json.dumps(runs))
    if result["after_numpy"]:
        pytest.skip(f"a bare import of numpy {np.__version__} loads {result['after_numpy']}")
    assert result["codes"] == [1, 0, 0, 0, 0]  # the short Friedrichs survival warns, nothing errs
    assert result["after_import"] == []
    assert result["after_runs"] == []
    assert result["after_gibbs"] == ["numpy.random"]
