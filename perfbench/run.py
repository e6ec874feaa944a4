"""zenolab benchmark: time the CLI on one workload, check its outputs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a zenolab checkout; the program is imported from its
``src`` directory. Every timed call is a fresh Python process (worker.py)
that runs ``zenolab.cli.main`` once, with the BLAS and OpenMP pools pinned
to one thread. One untimed warm-up call comes first, then whole calls
follow one after another until ``--seconds`` have passed. The first call's
outputs are checked apart from the program (checks.py); every later call
must reproduce them byte for byte, as zenolab promises for reruns. A call
that exits non-zero or fails a check counts as failed.

With ``--trace 0`` the last line reports the medians of wall_s, setup_s and
peak_rss_mb. With ``--trace 1`` untraced and traced calls alternate, and
the last line reports the per-layer medians of the traced calls
(tracer.py) and trace.overhead_s, the traced minus the untraced median
wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# set before numpy loads in this process too, so the checks between calls stay on one core
os.environ.update(PINNED)

import yaml  # noqa: E402

from checks import check_outputs  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
CALL_TIMEOUT_S = 120
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class HarnessError(Exception):
    """The benchmark cannot measure: no program, wrong environment, a worker crash."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ, **PINNED)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # let the warm-up cache bytecode
    return env


def call(config_path: Path, task: str, out: Path, trace: bool, spans: Path | None = None) -> dict:
    """One CLI call in a fresh worker process; returns the worker's report."""
    shutil.rmtree(out, ignore_errors=True)
    argv = [
        sys.executable, str(HERE / "worker.py"), str(SRC), "1" if trace else "0", str(spans or "-"),
        task, "--config", str(config_path), "--out", str(out),
    ]
    proc = subprocess.run(argv, env=_child_env(), capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
    if proc.returncode != 0:
        raise HarnessError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if report["threads"] != 1:
        raise HarnessError(f"timed process runs {report['threads']} threads, expected 1")
    return report


def _snapshot(out: Path, stdout: str) -> tuple:
    files = sorted((str(p.relative_to(out)), p.read_bytes()) for p in out.rglob("*") if p.is_file())
    return stdout, files


def warm_up() -> dict:
    """An untimed call that compiles bytecode and pulls the libraries into the page cache."""
    path = WORK / "warmup.yaml"
    path.write_text(yaml.safe_dump({"schema_version": 1, "task": "converge", "model": {"rabi": {}}}))
    report = call(path, "converge", WORK / "warmup", trace=False)
    if report["rc"] != 0:
        raise HarnessError(f"warm-up call failed: rc={report['rc']} {report['error']}")
    return report


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "zenolab" / "cli.py").is_file():
        raise HarnessError(f"no zenolab sources under {SRC}; run from the root of a checkout")
    WORK.mkdir(exist_ok=True)
    config = make_config(workload, seed)
    config_path = WORK / f"{workload}.yaml"
    config_path.write_text(yaml.safe_dump(config, sort_keys=False))
    env = warm_up()
    print(
        f"env: nproc={env['nproc']} blas={env['blas']} threads={env['threads']} "
        f"pinned={','.join(f'{k}={v}' for k, v in PINNED.items())} "
        f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']}"
    )

    calls: list[tuple[bool, dict]] = []
    reference = None  # outputs of the first call that passed the full checks
    failed = 0
    check_failures = 0
    deadline = time.perf_counter() + seconds
    # whole calls only; a traced run needs at least one untraced and one traced call
    while time.perf_counter() < deadline or len(calls) < (2 if trace else 1):
        traced = trace and len(calls) % 2 == 1
        out = WORK / "out"
        report = call(config_path, config["task"], out, traced, WORK / f"{workload}.spans.json")
        problems = []
        check_start = time.perf_counter()
        if report["rc"] != 0:
            problems.append(f"exit code {report['rc']} {report['error'] or ''}".strip())
        elif reference is None:
            problems = check_outputs(config, out, report["stdout"])
            check_failures += bool(problems)
            if not problems:
                reference = _snapshot(out, report["stdout"])
        elif _snapshot(out, report["stdout"]) != reference:
            # zenolab promises byte-identical reruns of a config
            problems.append("outputs differ from those of the first checked call")
            check_failures += 1
        check_s = time.perf_counter() - check_start
        failed += bool(problems)
        calls.append((traced, report))
        print(
            f"call {len(calls)}{' traced' if traced else ''}: wall_s={report['wall_s']:.4f} "
            f"setup_s={report['setup_s']:.4f} peak_rss_mb={report['peak_rss_mb']:.1f} check_s={check_s:.2f} "
            f"{'FAILED ' + '; '.join(problems) if problems else 'ok'}"
        )
    shutil.rmtree(WORK / "out", ignore_errors=True)

    plain = [r for t, r in calls if not t]
    if trace:
        traced_reports = [r for t, r in calls if t]
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in traced_reports), "unit": unit}
            for name, unit in LAYER_METRICS.items()
            if name != "trace.overhead_s"
        }
        overhead = statistics.median(r["wall_s"] for r in traced_reports) - statistics.median(
            r["wall_s"] for r in plain
        )
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            name: {"value": statistics.median(r[name] for r in plain), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    return {
        "correct": check_failures == 0 and failed < len(calls),
        "attempted": len(calls),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
