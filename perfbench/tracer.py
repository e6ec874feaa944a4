"""Layer trace taken from outside the program.

The tracer wraps zenolab's public functions, and the construction-time
validation of its two operator classes, in every zenolab module namespace
that holds them. Each call becomes a span with its parent; the tracer keeps
per-function call counts, self time (span time minus the time of the traced
spans it caused), total time, and the bytes that ``emit_csv`` wrote.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

# module -> public functions traced in it
FUNCTIONS = {
    "operators": ("operator_norm", "eigendecompose", "evolve"),
    "zeno": ("zeno_product", "reduced_dynamics", "zeno_convergence_report"),
    "gibbs": ("heisenberg_evolve", "kms_residual", "reduced_kms_residual", "zeno_gibbs_state"),
    "survival": ("decay_profile", "decay_fit"),
    "spectral": ("classify_regime", "zeno_modulus_table"),
    "scenarios": ("parse_config", "emit_csv", "build_scenario"),
}
# module -> classes whose __post_init__ (validation) is traced
CLASSES = {"operators": ("HermitianOperator", "OrthogonalProjection")}

# The per-layer metrics the benchmark reports, with their units.
LAYER_METRICS = {
    "operators.operator_norm.calls": "count",
    "operators.operator_norm.self_s": "s",
    "operators.eigendecompose.calls": "count",
    "operators.eigendecompose.self_s": "s",
    "operators.HermitianOperator.self_s": "s",
    "operators.OrthogonalProjection.self_s": "s",
    "operators.evolve.calls": "count",
    "operators.evolve.self_s": "s",
    "zeno.zeno_product.calls": "count",
    "zeno.zeno_product.self_s": "s",
    "zeno.reduced_dynamics.self_s": "s",
    "zeno.zeno_convergence_report.self_s": "s",
    "gibbs.heisenberg_evolve.calls": "count",
    "gibbs.heisenberg_evolve.self_s": "s",
    "gibbs.kms_residual.self_s": "s",
    "gibbs.reduced_kms_residual.self_s": "s",
    "gibbs.zeno_gibbs_state.self_s": "s",
    "survival.decay_profile.self_s": "s",
    "survival.decay_fit.self_s": "s",
    "spectral.classify_regime.self_s": "s",
    "spectral.zeno_modulus_table.self_s": "s",
    "scenarios.parse_config.calls": "count",
    "scenarios.parse_config.self_s": "s",
    "scenarios.emit_csv.self_s": "s",
    "scenarios.emit_csv.bytes": "bytes",
    "scenarios.build_scenario.total_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Span recorder; ``install`` patches the already imported zenolab modules."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.csv_bytes = 0
        self._stack: list[int] = []
        self._child_s: list[float] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [name, parent, time.perf_counter(), None]
            self.spans.append(span)
            self._stack.append(index)
            self._child_s.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                duration = span[3] - span[2]
                self._stack.pop()
                child = self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - child
                self.total_s[name] += duration
                if name == "scenarios.emit_csv":
                    path = args[1] if len(args) > 1 else kwargs["path"]
                    self.csv_bytes += Path(path).stat().st_size

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "zenolab" or key.startswith("zenolab.")]
        for short, names in FUNCTIONS.items():
            home = sys.modules[f"zenolab.{short}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
        for short, names in CLASSES.items():
            home = sys.modules[f"zenolab.{short}"]
            for cname in names:
                cls = getattr(home, cname)
                cls.__post_init__ = self._wrap(f"{short}.{cname}", cls.__post_init__)

    def metrics(self) -> dict[str, float]:
        """Every layer metric except trace.overhead_s, which needs untraced runs."""
        out: dict[str, float] = {}
        for name in LAYER_METRICS:
            base, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = self.calls[base]
            elif kind == "self_s":
                out[name] = self.self_s[base]
            elif kind == "total_s":
                out[name] = self.total_s[base]
        out["scenarios.emit_csv.bytes"] = self.csv_bytes
        return out
