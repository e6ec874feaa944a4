"""Model builders, the scenario runner, config parsing, and CSV emission.

Config files are YAML with a required ``schema_version: 1``. Unknown keys
are errors, not warnings: a silently ignored key would invalidate the
determinism contract. Schema (task-dependent keys marked):

    schema_version: 1
    task: converge | survival | classify | gibbs | sweep
    model:                       # exactly one of
      rabi: {}
      random: {dim, rank_e, seed}
      friedrichs: {n_modes, band: [lo, hi], excited_energy,
                   coupling_strength, profile: flat | gaussian}
      perturbed: {dim, seed, perturbation_norm}
    t: float                     # converge, classify (default 1.0)
    n_schedule: [ints]           # converge (default powers of two up to 4096)
    ordering: EUE | UE | EU      # converge (default EUE)
    t_grid: [start, stop, num]   # survival (default from the builder)
    fit_window: [lo, hi]         # survival (default heuristic)
    beta: float                  # gibbs (default 1.0)
    pairs: int                   # gibbs (default 20)
    pairs_seed: int              # gibbs (default 0)
    runs: [ {...}, ... ]         # sweep: list of sub-configs (no schema_version)
    output_path: str             # directory for CSV files

Every run is deterministic for a fixed config, seeds included: two runs
write byte-identical CSVs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from .errors import ConfigError, IOFailure, NoCrossing, NonExponential
from .gibbs import gibbs_state, kms_residual, kms_scale, reduced_kms_residual
from .operators import (
    HermitianOperator,
    OrthogonalProjection,
    complement,
    eigendecompose,
    evolve,
    operator_norm,
    projection_from_span,
)
from .spectral import (
    Classification,
    classify_regime,
    spectral_measure_of_state,
    suggested_tail_grid,
    zeno_modulus_table,
)
from .survival import decay_fit, decay_profile, effective_rate_curve, find_crossing
from .zeno import ZenoSchedule, azc_fit, zeno_convergence_report

__all__ = [
    "ScenarioConfig",
    "Scenario",
    "RunReport",
    "Table",
    "load_config",
    "parse_config",
    "build_scenario",
    "perturbed_invariance_check",
    "run_scenario",
    "emit_csv",
]

TASKS = ("converge", "survival", "classify", "gibbs", "sweep")
MODELS = ("rabi", "random", "friedrichs", "perturbed")

_MODEL_KEYS = {
    "rabi": set(),
    "random": {"dim", "rank_e", "seed"},
    "friedrichs": {"n_modes", "band", "excited_energy", "coupling_strength", "profile"},
    "perturbed": {"dim", "seed", "perturbation_norm"},
}

_TASK_KEYS = {
    "converge": {"t", "n_schedule", "ordering"},
    "survival": {"t_grid", "fit_window"},
    "classify": {"t"},
    "gibbs": {"beta", "pairs", "pairs_seed", "t_grid"},
    "sweep": {"runs"},
}

_COMMON_KEYS = {"schema_version", "task", "model", "output_path"}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description; ``raw`` echoes the parsed file."""

    task: str
    model_kind: str
    model: dict[str, Any]
    options: dict[str, Any]
    output_path: str
    raw: dict[str, Any]


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _require_int(value, path: str, lo: int | None = None, hi: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(path, f"expected an integer, got {value!r}")
    if lo is not None and value < lo:
        _fail(path, f"must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        _fail(path, f"must be <= {hi}, got {value}")
    return value


def _require_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        _fail(path, f"must be finite, got {value!r}")
    return number


def parse_config(data: dict[str, Any]) -> ScenarioConfig:
    """Validate a parsed mapping against the schema; unknown keys are errors."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    if data.get("schema_version") != 1:
        _fail("schema_version", f"must be 1, got {data.get('schema_version')!r}")
    task = data.get("task")
    if task not in TASKS:
        _fail("task", f"must be one of {TASKS}, got {task!r}")

    allowed = _COMMON_KEYS | _TASK_KEYS[task]
    for key in data:
        if key not in allowed:
            _fail(key, f"unknown key for task {task!r}")

    model_kind = "rabi"
    model: dict[str, Any] = {}
    if task == "sweep":
        if "model" in data:
            _fail("model", "a sweep config carries models inside its runs")
        runs = data.get("runs")
        if not isinstance(runs, list) or not runs:
            _fail("runs", "sweep needs a nonempty list of run configs")
        for i, run in enumerate(runs):
            if isinstance(run, dict) and run.get("task") == "sweep":
                _fail(f"runs[{i}].task", "a sweep cannot run another sweep")
        options = {"runs": runs}
    else:
        model_block = data.get("model")
        if not isinstance(model_block, dict) or len(model_block) != 1:
            _fail("model", "must be a mapping with exactly one model key")
        model_kind = next(iter(model_block))
        if model_kind not in MODELS:
            _fail("model", f"unknown model {model_kind!r}, expected one of {MODELS}")
        body = model_block[model_kind] or {}
        if not isinstance(body, dict):
            _fail(f"model.{model_kind}", "must be a mapping")
        for key in body:
            if key not in _MODEL_KEYS[model_kind]:
                _fail(f"model.{model_kind}.{key}", "unknown key")
        model = _validate_model(model_kind, body)
        options = {k: data[k] for k in _TASK_KEYS[task] if k in data}
        _validate_options(task, options)

    output_path = data.get("output_path", ".")
    if not isinstance(output_path, str):
        _fail("output_path", "must be a string")
    return ScenarioConfig(
        task=task,
        model_kind=model_kind,
        model=model,
        options=options,
        output_path=output_path,
        raw=data,
    )


def _validate_model(kind: str, body: dict[str, Any]) -> dict[str, Any]:
    out = dict(body)
    if kind == "random":
        out["dim"] = _require_int(body.get("dim", 6), "model.random.dim", lo=2, hi=200)
        out["rank_e"] = _require_int(body.get("rank_e", out["dim"] // 2), "model.random.rank_e", lo=1)
        if out["rank_e"] >= out["dim"]:
            _fail("model.random.rank_e", "must be smaller than dim")
        out["seed"] = _require_int(body.get("seed", 0), "model.random.seed")
    elif kind == "friedrichs":
        out["n_modes"] = _require_int(body.get("n_modes", 200), "model.friedrichs.n_modes", lo=2, hi=2000)
        band = body.get("band", [-2.0, 2.0])
        if not (isinstance(band, (list, tuple)) and len(band) == 2):
            _fail("model.friedrichs.band", "must be a [lo, hi] pair")
        lo, hi = (_require_number(band[0], "model.friedrichs.band[0]"),
                  _require_number(band[1], "model.friedrichs.band[1]"))
        if not lo < hi:
            _fail("model.friedrichs.band", "needs lo < hi")
        out["band"] = (lo, hi)
        out["excited_energy"] = _require_number(body.get("excited_energy", 0.0), "model.friedrichs.excited_energy")
        if not lo < out["excited_energy"] < hi:
            _fail("model.friedrichs.excited_energy", "must lie inside the band")
        out["coupling_strength"] = _require_number(
            body.get("coupling_strength", 0.05), "model.friedrichs.coupling_strength"
        )
        if out["coupling_strength"] <= 0:
            _fail("model.friedrichs.coupling_strength", "must be positive")
        out["profile"] = body.get("profile", "flat")
        if out["profile"] not in ("flat", "gaussian"):
            _fail("model.friedrichs.profile", f"must be flat or gaussian, got {out['profile']!r}")
    elif kind == "perturbed":
        out["dim"] = _require_int(body.get("dim", 8), "model.perturbed.dim", lo=2, hi=200)
        out["seed"] = _require_int(body.get("seed", 0), "model.perturbed.seed")
        out["perturbation_norm"] = _require_number(
            body.get("perturbation_norm", 0.1), "model.perturbed.perturbation_norm"
        )
        if out["perturbation_norm"] < 0:
            _fail("model.perturbed.perturbation_norm", "must be nonnegative")
    return out


def _validate_options(task: str, options: dict[str, Any]) -> None:
    if "t" in options:
        options["t"] = _require_number(options["t"], "t")
    if "beta" in options:
        options["beta"] = _require_number(options["beta"], "beta")
        if options["beta"] < 0:
            _fail("beta", "must be nonnegative")
    if "pairs" in options:
        options["pairs"] = _require_int(options["pairs"], "pairs", lo=1)
    if "pairs_seed" in options:
        options["pairs_seed"] = _require_int(options["pairs_seed"], "pairs_seed")
    if "ordering" in options and options["ordering"] not in ("EUE", "UE", "EU"):
        _fail("ordering", f"must be EUE, UE or EU, got {options['ordering']!r}")
    if "n_schedule" in options:
        ns = options["n_schedule"]
        if not (isinstance(ns, list) and ns and all(isinstance(n, int) and n > 0 for n in ns)):
            _fail("n_schedule", "must be a nonempty list of positive integers")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            _fail("n_schedule", "must be strictly increasing")
    if "t_grid" in options:
        grid = options["t_grid"]
        if not (isinstance(grid, list) and len(grid) == 3):
            _fail("t_grid", "must be [start, stop, num]")
        start = _require_number(grid[0], "t_grid[0]")
        stop = _require_number(grid[1], "t_grid[1]")
        num = _require_int(grid[2], "t_grid[2]", lo=2)
        if not 0 < start < stop:
            _fail("t_grid", "needs 0 < start < stop")
        options["t_grid"] = (start, stop, num)
    if "fit_window" in options:
        win = options["fit_window"]
        if not (isinstance(win, list) and len(win) == 2):
            _fail("fit_window", "must be [lo, hi]")
        lo = _require_number(win[0], "fit_window[0]")
        hi = _require_number(win[1], "fit_window[1]")
        if not lo < hi:
            _fail("fit_window", "needs lo < hi")
        options["fit_window"] = (lo, hi)


def load_config(path) -> ScenarioConfig:
    """Read and validate a YAML config file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IOFailure(f"cannot read config {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    return parse_config(data)


@dataclass(frozen=True)
class Scenario:
    """A built model: generator, measured projection, initial state, extras."""

    hamiltonian: HermitianOperator
    projection: OrthogonalProjection
    state: np.ndarray
    golden_rate: float | None = None
    fit_window: tuple[float, float] | None = None
    t_grid: np.ndarray | None = None
    unperturbed: HermitianOperator | None = None
    perturbation: np.ndarray | None = None


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def _random_projection(rng: np.random.Generator, dim: int, rank: int) -> OrthogonalProjection:
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    q, _ = np.linalg.qr(g)
    return projection_from_span([q[:, i] for i in range(rank)])


def build_scenario(config: ScenarioConfig) -> Scenario:
    """Construct (H, E, psi) for the configured model.

    The friedrichs builder attaches the golden-rule rate estimated from its
    coupling density and a suggested exponential-regime fit window.
    """
    kind = config.model_kind
    if kind == "rabi":
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        h = eigendecompose(sx)
        e = projection_from_span([np.array([1.0, 0.0], dtype=complex)])
        psi = np.array([1.0, 0.0], dtype=complex)
        return Scenario(h, e, psi, t_grid=np.linspace(0.01, 1.5, 150))

    if kind == "random":
        m = config.model
        rng = np.random.default_rng(m["seed"])
        raw = _random_hermitian(rng, m["dim"])
        raw /= max(operator_norm(raw), 1e-300)
        h = eigendecompose(raw)
        e = _random_projection(rng, m["dim"], m["rank_e"])
        psi = e.matrix @ (rng.standard_normal(m["dim"]) + 1j * rng.standard_normal(m["dim"]))
        nrm = float(np.linalg.norm(psi))
        if nrm < 1e-12:
            psi = e.matrix[:, 0]
            nrm = float(np.linalg.norm(psi))
        psi = psi / nrm
        return Scenario(h, e, psi)

    if kind == "friedrichs":
        return _build_friedrichs(config.model)

    if kind == "perturbed":
        return _build_perturbed(config.model)

    raise ConfigError(f"model: unknown model {kind!r}")


def _build_friedrichs(m: dict[str, Any]) -> Scenario:
    n = m["n_modes"]
    lo, hi = m["band"]
    eps = m["excited_energy"]
    g0 = m["coupling_strength"]
    width = hi - lo
    # midpoint grid keeps the excited level off any mode energy
    omegas = lo + (np.arange(n) + 0.5) * width / n
    center = 0.5 * (lo + hi)
    if m["profile"] == "flat":
        profile = np.ones(n)
        profile_at_eps = 1.0
    else:
        sigma = width / 8.0
        profile = np.exp(-((omegas - center) ** 2) / (2.0 * sigma**2))
        profile_at_eps = float(np.exp(-((eps - center) ** 2) / (2.0 * sigma**2)))
    couplings = g0 * math.sqrt(width / n) * profile

    dim = n + 1
    hmat = np.zeros((dim, dim), dtype=complex)
    hmat[0, 0] = eps
    hmat[1:, 1:] = np.diag(omegas)
    hmat[0, 1:] = couplings
    hmat[1:, 0] = couplings
    h = eigendecompose(hmat)

    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    e = projection_from_span([psi])

    density = n / width
    golden = 2.0 * math.pi * (g0 * math.sqrt(width / n) * profile_at_eps) ** 2 * density
    heis = 2.0 * math.pi * density  # mean mode spacing sets the recurrence scale
    t_hi = min(0.45 * heis, 3.0 / golden)
    t_lo = 20.0 / width
    grid = np.unique(
        np.concatenate(
            [np.linspace(1e-3, min(8.0, 0.5 * t_hi), 400), np.linspace(min(8.0, 0.5 * t_hi), t_hi * 1.05, 900)]
        )
    )
    return Scenario(h, e, psi, golden_rate=golden, fit_window=(t_lo, t_hi), t_grid=grid)


def _build_perturbed(m: dict[str, Any]) -> Scenario:
    dim = m["dim"]
    rank = max(1, dim // 2)
    rng = np.random.default_rng(m["seed"])
    block_top = _random_hermitian(rng, rank)
    block_bottom = _random_hermitian(rng, dim - rank)
    h0 = np.zeros((dim, dim), dtype=complex)
    h0[:rank, :rank] = block_top
    h0[rank:, rank:] = block_bottom
    h0 /= max(operator_norm(h0), 1e-300)

    p = _random_hermitian(rng, dim)
    p *= m["perturbation_norm"] / max(operator_norm(p), 1e-300)

    basis = np.eye(dim, dtype=complex)
    e = projection_from_span([basis[:, i] for i in range(rank)])
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    return Scenario(
        eigendecompose(h0 + p),
        e,
        psi,
        unperturbed=eigendecompose(h0),
        perturbation=p,
    )


@dataclass(frozen=True)
class PerturbedInvarianceReport:
    """Leakage of the perturbed flow out of the invariant subspace versus the
    perturbation-series bound exp(||P|| t) - 1."""

    t_grid: np.ndarray
    leakage: np.ndarray
    bound: np.ndarray
    max_excess: float  # max(leakage - bound); <= tolerance when the bound holds
    azc: Any
    convergence: Any
    target_leak: float  # norm of the limit dynamics outside range(E)


def perturbed_invariance_check(config: ScenarioConfig, t_points: int = 21) -> PerturbedInvarianceReport:
    """Verify the bounded-perturbation leakage bound and the limit's invariance."""
    if config.model_kind != "perturbed":
        raise ConfigError("model: perturbed_invariance_check needs a perturbed model")
    scen = build_scenario(config)
    h, e = scen.hamiltonian, scen.projection
    p_norm = operator_norm(scen.perturbation)
    ec = complement(e).matrix
    ts = np.linspace(1.0 / t_points, 1.0, t_points)
    leak = np.array([operator_norm(ec @ evolve(h, t) @ e.matrix) for t in ts])
    bound = np.expm1(p_norm * ts)
    excess = float(np.max(leak - bound))

    fit = azc_fit(h, e, np.logspace(-4, -2, 9)[::-1])
    report = zeno_convergence_report(h, e, 1.0, ZenoSchedule(tuple(2**k for k in range(1, 11))))
    target_leak = operator_norm(ec @ report.target_matrix)
    return PerturbedInvarianceReport(
        t_grid=ts,
        leakage=leak,
        bound=bound,
        max_excess=excess,
        azc=fit,
        convergence=report,
        target_leak=target_leak,
    )


@dataclass(frozen=True)
class Table:
    """Named rectangular data destined for one CSV file."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self):
        if not self.columns:
            raise ValueError("table needs at least one column")
        for i, row in enumerate(self.rows):
            if len(row) != len(self.columns):
                raise ValueError(f"row {i} has {len(row)} cells, expected {len(self.columns)}")


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if isinstance(value, (complex, np.complexfloating)):
        z = complex(value)
        return f"{z.real:.17g}{z.imag:+.17g}j"
    return str(value)


def emit_csv(table: Table, path) -> None:
    """Write UTF-8 CSV with a header row; floats carry 17 significant digits
    so values round-trip exactly."""
    lines = [",".join(table.columns)]
    for row in table.rows:
        lines.append(",".join(_format_cell(v) for v in row))
    text = "\n".join(lines) + "\n"
    try:
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_bytes(text.encode("utf-8"))
    except OSError as exc:
        raise IOFailure(f"cannot write {path}: {exc}") from exc


@dataclass(frozen=True)
class RunReport:
    """Outcome of one scenario run: headline numbers, warnings, files written."""

    config: dict[str, Any]
    task: str
    headline: dict[str, Any]
    warnings: tuple[str, ...]
    csv_paths: tuple[str, ...]


def run_scenario(config: ScenarioConfig, out_dir=None, seed_override: int | None = None) -> RunReport:
    """Execute the configured task, write its CSVs, and return the report."""
    if seed_override is not None:
        config = _override_seed(config, seed_override)
    out = Path(out_dir) if out_dir is not None else Path(config.output_path)
    runner = {
        "converge": _run_converge,
        "survival": _run_survival,
        "classify": _run_classify,
        "gibbs": _run_gibbs,
        "sweep": _run_sweep,
    }[config.task]
    return runner(config, out)


def _override_seed(config: ScenarioConfig, seed: int) -> ScenarioConfig:
    data = dict(config.raw)
    if config.task == "sweep":
        runs = []
        for i, run in enumerate(data.get("runs", [])):
            run = dict(run)
            model = dict(run.get("model", {}))
            for kind, body in list(model.items()):
                body = dict(body or {})
                if "seed" in _MODEL_KEYS.get(kind, set()):
                    body["seed"] = seed * 1000 + i
                model[kind] = body
            run["model"] = model
            runs.append(run)
        data["runs"] = runs
        return parse_config(data)
    model = dict(data.get("model", {}))
    for kind, body in list(model.items()):
        body = dict(body or {})
        if "seed" in _MODEL_KEYS.get(kind, set()):
            body["seed"] = seed
        model[kind] = body
    data["model"] = model
    if config.task == "gibbs":
        data["pairs_seed"] = seed
    return parse_config(data)


def _run_converge(config: ScenarioConfig, out: Path) -> RunReport:
    scen = build_scenario(config)
    t = config.options.get("t", 1.0)
    ns = tuple(config.options.get("n_schedule", tuple(2**k for k in range(1, 13))))
    ordering = config.options.get("ordering", "EUE")
    report = zeno_convergence_report(
        scen.hamiltonian, scen.projection, t, ZenoSchedule(ns, ordering=ordering)
    )
    table = Table(
        columns=("n", "distance_to_limit", "cauchy_delta"),
        rows=tuple((n, d, c) for n, d, c in report.per_n),
    )
    path = out / "converge.csv"
    emit_csv(table, path)
    headline = {
        "target_residual": report.target_residual,
        "fitted_rate_exponent": report.fitted_rate_exponent,
        "fitted_rate_constant": report.fitted_rate_constant,
        "exact": report.exact,
    }
    return RunReport(config.raw, "converge", headline, (), (str(path),))


def _run_survival(config: ScenarioConfig, out: Path) -> RunReport:
    scen = build_scenario(config)
    if "t_grid" in config.options:
        start, stop, num = config.options["t_grid"]
        grid = np.linspace(start, stop, num)
    elif scen.t_grid is not None:
        grid = scen.t_grid
    else:
        grid = np.linspace(0.01, 10.0, 500)
    profile = decay_profile(scen.hamiltonian, scen.state, grid)
    curve = effective_rate_curve(profile)
    table = Table(
        columns=("t", "probability", "gamma_eff"),
        rows=tuple(
            (float(t), float(p), float(g))
            for t, p, g in zip(profile.times, profile.probabilities, curve[:, 1])
        ),
    )
    path = out / "survival.csv"
    emit_csv(table, path)

    warnings: list[str] = []
    headline: dict[str, Any] = {}
    window = config.options.get("fit_window", scen.fit_window)
    try:
        fit = decay_fit(profile, window)
        headline["gamma0"] = fit.gamma0
        headline["Z"] = fit.prefactor
        headline["fit_residual"] = fit.residual
        try:
            crossing = find_crossing(curve, fit.gamma0)
            headline["tau_star"] = crossing.tau_star
        except NoCrossing as exc:
            warnings.append(f"NoCrossing: {exc}")
            headline["tau_star"] = None
    except NonExponential as exc:
        warnings.append(f"NonExponential: {exc}")
        headline["gamma0"] = None
        headline["Z"] = None
    if scen.golden_rate is not None:
        headline["golden_rate"] = scen.golden_rate
    return RunReport(config.raw, "survival", headline, tuple(warnings), (str(path),))


def _run_classify(config: ScenarioConfig, out: Path) -> RunReport:
    scen = build_scenario(config)
    t = config.options.get("t", 1.0)
    measure = spectral_measure_of_state(scen.hamiltonian, scen.state)
    grid = suggested_tail_grid(measure)
    report = classify_regime(measure, grid)
    tails = Table(
        columns=("x", "delta"),
        rows=tuple((float(x), float(d)) for x, d in zip(report.x_grid, report.delta_values)),
    )
    tails_path = out / "tails.csv"
    emit_csv(tails, tails_path)
    table = zeno_modulus_table(measure, t, [2**k for k in range(0, 13)])
    moduli = Table(columns=("n", "modulus"), rows=tuple(table))
    moduli_path = out / "moduli.csv"
    emit_csv(moduli, moduli_path)
    warnings = []
    if report.classification is Classification.INDETERMINATE:
        warnings.append("Indeterminate: tail trend is not straight on the sampled grid")
    headline = {
        "classification": report.classification.value,
        "trend": report.trend,
    }
    return RunReport(config.raw, "classify", headline, tuple(warnings), (str(tails_path), str(moduli_path)))


def _run_gibbs(config: ScenarioConfig, out: Path) -> RunReport:
    scen = build_scenario(config)
    beta = config.options.get("beta", 1.0)
    n_pairs = config.options.get("pairs", 20)
    pairs_seed = config.options.get("pairs_seed", 0)
    if "t_grid" in config.options:
        start, stop, num = config.options["t_grid"]
        ts = np.linspace(start, stop, num)
    else:
        ts = np.linspace(-2.0, 2.0, 9)
    h = scen.hamiltonian
    rng = np.random.default_rng(pairs_seed)
    state = gibbs_state(h, beta)
    rows = []
    worst = 0.0
    worst_scaled = 0.0
    for i in range(n_pairs):
        a = _random_hermitian(rng, h.dim)
        b = _random_hermitian(rng, h.dim)
        scale = kms_scale(h, a, b, beta)
        for t in ts:
            r = kms_residual(state, a, b, float(t), beta)
            rows.append((i, float(t), r, scale))
            worst = max(worst, r)
            worst_scaled = max(worst_scaled, r / scale)
    table = Table(columns=("pair", "t", "residual", "scale"), rows=tuple(rows))
    path = out / "kms.csv"
    emit_csv(table, path)

    pairs = [(_random_hermitian(rng, h.dim), _random_hermitian(rng, h.dim)) for _ in range(n_pairs)]
    reduced = reduced_kms_residual(h, scen.projection, beta, pairs, ts)
    headline = {
        "max_residual": worst,
        "max_residual_over_scale": worst_scaled,
        "reduced_max_residual": reduced.max_residual,
        "beta": beta,
    }
    return RunReport(config.raw, "gibbs", headline, (), (str(path),))


def _run_sweep(config: ScenarioConfig, out: Path) -> RunReport:
    runs = config.options["runs"]
    warnings: list[str] = []
    paths: list[str] = []
    headline: dict[str, Any] = {}
    for i, run in enumerate(runs):
        sub_data = dict(run)
        sub_data.setdefault("schema_version", 1)
        sub = parse_config(sub_data)
        sub_report = run_scenario(sub, out / f"run_{i:03d}")
        paths.extend(sub_report.csv_paths)
        warnings.extend(f"run_{i:03d}: {w}" for w in sub_report.warnings)
        headline[f"run_{i:03d}"] = sub_report.headline
    return RunReport(config.raw, "sweep", headline, tuple(warnings), tuple(paths))
