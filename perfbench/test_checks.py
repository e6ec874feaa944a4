"""Fast tests of the benchmark's output checks, workloads and trace.

Each check must pass on real zenolab output and reject the same output with
one value moved by 1e-6. The benchmark's timed runs are not started here.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import zenolab.cli  # noqa: E402
from zenolab.scenarios import parse_config  # noqa: E402

from checks import check_outputs  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

FRIEDRICHS = {
    "friedrichs": {
        "n_modes": 80,
        "band": [-2.0, 2.0],
        "excited_energy": -0.7,
        "coupling_strength": 0.05,
        "profile": "gaussian",
    }
}
RANDOM = {"random": {"dim": 12, "rank_e": 3, "seed": 5}}
PERTURBED = {"perturbed": {"dim": 10, "seed": 7, "perturbation_norm": 0.1}}


def run_cli(config: dict, out: Path) -> str:
    path = out.parent / f"{out.name}.yaml"
    path.write_text(yaml.safe_dump(config))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = zenolab.cli.main([config["task"], "--config", str(path), "--out", str(out)])
    assert rc == 0
    return buf.getvalue()


def nudge(path: Path, row: int, col: int, by: float = 1e-6) -> None:
    """Move one CSV cell by ``by``; ``row`` counts data rows from 0."""
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = repr(float(cells[col]) + by)
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


CASES = [
    # (config, csv file, [(row, column), ...] each of which must be caught)
    ({"task": "survival", "model": FRIEDRICHS}, "survival.csv", [(0, 1), (700, 1), (-1, 1), (5, 2)]),
    ({"task": "converge", "model": FRIEDRICHS, "ordering": "EUE"}, "converge.csv", [(0, 1), (-1, 1), (-1, 2)]),
    ({"task": "converge", "model": {"rabi": {}}, "t": 0.8, "ordering": "EUE"}, "converge.csv", [(-1, 1), (3, 2)]),
    ({"task": "converge", "model": RANDOM, "ordering": "UE"}, "converge.csv", [(0, 1), (0, 2)]),
    ({"task": "converge", "model": PERTURBED, "ordering": "EU"}, "converge.csv", [(0, 1), (0, 2)]),
    ({"task": "gibbs", "model": RANDOM, "pairs": 2, "pairs_seed": 3}, "kms.csv", [(0, 2), (10, 3)]),
    ({"task": "gibbs", "model": {"rabi": {}}, "pairs": 2}, "kms.csv", [(4, 2), (4, 3)]),
    ({"task": "classify", "model": {"rabi": {}}, "t": 0.7}, "moduli.csv", [(0, 1), (-1, 1)]),
    ({"task": "classify", "model": PERTURBED, "t": 1.1}, "moduli.csv", [(6, 1)]),
    ({"task": "classify", "model": FRIEDRICHS}, "tails.csv", [(0, 1), (20, 1)]),
]


@pytest.mark.parametrize("config,csv,cells", CASES, ids=[f"{c[0]['task']}-{c[1]}-{i}" for i, c in enumerate(CASES)])
def test_check_accepts_output_and_rejects_a_1e6_change(tmp_path, config, csv, cells):
    config = {"schema_version": 1, **config}
    out = tmp_path / "out"
    stdout = run_cli(config, out)
    assert check_outputs(config, out, stdout) == []
    pristine = (out / csv).read_text()
    rows = len(pristine.splitlines()) - 1
    for row, col in cells:
        (out / csv).write_text(pristine)
        nudge(out / csv, row % rows, col)
        assert check_outputs(config, out, stdout), f"a 1e-6 change at row {row}, column {col} passed"


def test_survival_headline_checked(tmp_path):
    config = {"schema_version": 1, "task": "survival", "model": FRIEDRICHS}
    out = tmp_path / "out"
    stdout = run_cli(config, out)
    assert check_outputs(config, out, stdout.replace("golden_rate: 0.", "golden_rate: 1."))


def test_sweep_checks_every_run(tmp_path):
    runs = [
        {"task": "survival", "model": FRIEDRICHS},
        {"task": "classify", "model": RANDOM},
        {"task": "converge", "model": PERTURBED, "ordering": "EU"},
    ]
    config = {"schema_version": 1, "task": "sweep", "runs": runs}
    out = tmp_path / "out"
    stdout = run_cli(config, out)
    assert check_outputs(config, out, stdout) == []
    nudge(out / "run_001" / "moduli.csv", 3, 1)
    problems = check_outputs(config, out, stdout)
    assert len(problems) == 1 and problems[0].startswith("run_001")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_configs_are_seeded_and_valid(workload):
    assert make_config(workload, 3) == make_config(workload, 3)
    assert make_config(workload, 3) != make_config(workload, 4)
    parsed = parse_config(make_config(workload, 3))
    for run in parsed.options.get("runs", []):
        parse_config({"schema_version": 1, **run})


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}


def test_traced_worker_reports_layers(tmp_path):
    config = {
        "schema_version": 1,
        "task": "sweep",
        "runs": [
            {"task": "converge", "model": {"rabi": {}}},
            {"task": "gibbs", "model": RANDOM, "pairs": 1},
        ],
    }
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump(config))
    spans = tmp_path / "spans.json"
    argv = [sys.executable, str(HERE / "worker.py"), str(ROOT / "src"), "1", str(spans),
            "sweep", "--config", str(path), "--out", str(tmp_path / "out")]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["rc"] == 0
    layers = report["layers"]
    assert set(layers) == set(LAYER_METRICS) - {"trace.overhead_s"}
    assert layers["scenarios.parse_config.calls"] == 3  # the sweep and its two runs
    assert layers["zeno.zeno_product.calls"] == 13  # n = 2..4096 and 8192 for the last delta
    assert layers["gibbs.heisenberg_evolve.calls"] == 2 * 9 * 2  # full and reduced check
    assert layers["scenarios.emit_csv.bytes"] == sum(p.stat().st_size for p in (tmp_path / "out").rglob("*.csv"))
    recorded = json.loads(spans.read_text())
    names = {s[0] for s in recorded}
    assert "scenarios.build_scenario" in names
    assert all(-1 <= s[1] < i for i, s in enumerate(recorded))  # parents come first
