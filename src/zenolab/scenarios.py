"""Model builders, the scenario runner, config parsing, and CSV emission.

Config files are YAML with a required ``schema_version: 1``, a ``task``
(one of ``TASKS``) and, except in a sweep, a ``model`` mapping with exactly
one key (one of ``MODELS``). Unknown keys are errors, not warnings: a
silently ignored key would invalidate the determinism contract. Every other
key, with its type, bounds and default, is declared once in
``_MODEL_SCHEMA`` and ``_TASK_SCHEMA`` below; ``parse_config`` checks a
config against them and fills in the defaults. A sweep's ``runs`` is a list
of sub-configs (``schema_version`` optional), all parsed before any runs.

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
    _freeze,
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
from .zeno import _DEFAULT_N_VALUES, ORDERINGS, ZenoSchedule, azc_fit, zeno_convergence_report

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

@dataclass(frozen=True)
class _Key:
    """One config key: its type, default and bounds.

    ``type`` is int, float (finite), str, dict or a tuple of allowed values.
    ``lo``/``hi`` are inclusive bounds and ``above`` an exclusive lower one.
    With ``items`` the key is a fixed-length list whose i-th entry is checked
    by ``items[i]``; with ``many`` it is a nonempty list of ``type`` values,
    at most ``most`` of them when that is given.
    A key whose ``default`` is None stays absent when not given. ``seed``
    marks the keys that a seed override (``--seed``) replaces.
    """

    type: Any = float
    default: Any = None
    lo: float | None = None
    hi: float | None = None
    above: float | None = None
    items: tuple[_Key, ...] | None = None
    many: bool = False
    most: int | None = None
    seed: bool = False


_SEED = _Key(int, 0, lo=0, seed=True)
_T = _Key(float, 1.0)
_PAIR = (_Key(float), _Key(float))  # [lo, hi]
_T_GRID = (_Key(float), _Key(float), _Key(int, lo=2, hi=10**5))  # [start, stop, num]

# the schema: every key of a model body and of each task, apart from the
# cross-field rules in parse_config
_MODEL_SCHEMA = {
    "rabi": {},
    "random": {
        "dim": _Key(int, 6, lo=2, hi=200),
        "rank_e": _Key(int, lo=1),  # default dim // 2
        "seed": _SEED,
    },
    "friedrichs": {
        "n_modes": _Key(int, 200, lo=2, hi=2000),
        "band": _Key(default=(-2.0, 2.0), items=_PAIR),
        "excited_energy": _Key(float, 0.0),
        "coupling_strength": _Key(float, 0.05, above=0),
        "profile": _Key(("flat", "gaussian"), "flat"),
    },
    "perturbed": {
        "dim": _Key(int, 8, lo=2, hi=200),
        "seed": _SEED,
        "perturbation_norm": _Key(float, 0.1, lo=0),
    },
}

_TASK_SCHEMA = {
    "converge": {
        "t": _T,
        "n_schedule": _Key(int, _DEFAULT_N_VALUES, lo=1, hi=2**30, many=True),
        "ordering": _Key(ORDERINGS, "EUE"),
    },
    "survival": {
        "t_grid": _Key(items=_T_GRID),  # default from the builder
        "fit_window": _Key(items=_PAIR),  # default from the builder
    },
    "classify": {"t": _T},
    "gibbs": {
        "beta": _Key(float, 1.0, lo=0),
        "pairs": _Key(int, 20, lo=1, hi=1000),
        "pairs_seed": _SEED,
        "t_grid": _Key(default=(-2.0, 2.0, 9), items=_T_GRID),
    },
    "sweep": {"runs": _Key(dict, many=True, most=10**4)},
}

_ROOT_SCHEMA = {"output_path": _Key(str, ".")}

TASKS = tuple(_TASK_SCHEMA)
MODELS = tuple(_MODEL_SCHEMA)

_TYPE_NAMES = {int: "an integer", str: "a string", dict: "a mapping"}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description with every default filled in.

    ``raw`` echoes the parsed file; ``runs`` holds a sweep's parsed runs.
    """

    task: str
    model_kind: str
    model: dict[str, Any]
    options: dict[str, Any]
    output_path: str
    raw: dict[str, Any]
    runs: tuple[ScenarioConfig, ...] = ()


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _check(key: _Key, value, path: str):
    """One scalar value against its key's type and bounds."""
    if isinstance(key.type, tuple):
        if value not in key.type:
            _fail(path, f"must be one of {key.type}, got {value!r}")
        return value
    if key.type is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail(path, f"expected a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if not math.isfinite(number):
            _fail(path, f"must be finite, got {value!r}")
        value = number
    elif not isinstance(value, key.type) or isinstance(value, bool):
        _fail(path, f"expected {_TYPE_NAMES[key.type]}, got {value!r}")
    if key.lo is not None and value < key.lo:
        _fail(path, f"must be >= {key.lo}, got {value}")
    if key.hi is not None and value > key.hi:
        _fail(path, f"must be <= {key.hi}, got {value}")
    if key.above is not None and value <= key.above:
        _fail(path, f"must be > {key.above}, got {value}")
    return value


def _walk(schema: dict[str, _Key], given: dict, prefix: str, seed: int | None) -> dict[str, Any]:
    """Check ``given`` against ``schema`` and fill in the defaults.

    Unknown keys are errors. When ``seed`` is given it replaces the value of
    every seed key, and is checked like a value from the file.
    """
    for name in given:
        if name not in schema:
            _fail(f"{prefix}{name}", "unknown key")
    out: dict[str, Any] = {}
    for name, key in schema.items():
        path = prefix + name
        if key.seed and seed is not None:
            value = seed
        elif name in given:
            value = given[name]
        else:
            if key.default is not None:
                out[name] = key.default
            continue
        if key.items is not None:
            if not (isinstance(value, (list, tuple)) and len(value) == len(key.items)):
                _fail(path, f"must be a list of {len(key.items)} values, got {value!r}")
            out[name] = tuple(_check(k, v, f"{path}[{i}]") for i, (k, v) in enumerate(zip(key.items, value)))
        elif key.many:
            if not (isinstance(value, (list, tuple)) and value):
                _fail(path, f"must be a nonempty list, got {value!r}")
            if key.most is not None and len(value) > key.most:
                _fail(path, f"must hold at most {key.most} entries, got {len(value)}")
            out[name] = [_check(key, v, f"{path}[{i}]") for i, v in enumerate(value)]
        else:
            out[name] = _check(key, value, path)
    return out


def parse_config(data: dict[str, Any], seed: int | None = None) -> ScenarioConfig:
    """Validate a parsed mapping against the schema and fill in its defaults.

    Unknown keys are errors. ``seed``, when given, replaces every seed key:
    the model's ``seed`` and gibbs' ``pairs_seed``. A sweep parses all its
    runs here, before any of them runs, and gives run i of n the seed
    ``seed * n + i``, so no two (seed, run) pairs share one.
    """
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    if data.get("schema_version") != 1:
        _fail("schema_version", f"must be 1, got {data.get('schema_version')!r}")
    task = data.get("task")
    if task not in TASKS:
        _fail("task", f"must be one of {TASKS}, got {task!r}")

    given = {k: v for k, v in data.items() if k not in ("schema_version", "task", "model")}
    options = _walk({**_ROOT_SCHEMA, **_TASK_SCHEMA[task]}, given, "", seed)
    output_path = options.pop("output_path")

    if task == "sweep":
        if "model" in data:
            _fail("model", "a sweep config carries models inside its runs")
        if "runs" not in options:
            _fail("runs", "a sweep needs a nonempty list of run configs")
        runs = options["runs"]
        parsed = []
        for i, run in enumerate(runs):
            if run.get("task") == "sweep":
                _fail(f"runs[{i}].task", "a sweep cannot run another sweep")
            run_seed = None if seed is None else seed * len(runs) + i
            try:
                parsed.append(parse_config({"schema_version": 1, **run}, run_seed))
            except ConfigError as exc:
                raise ConfigError(f"runs[{i}].{exc}") from None
        return ScenarioConfig(task, "rabi", {}, options, output_path, data, tuple(parsed))

    block = data.get("model")
    if not isinstance(block, dict) or len(block) != 1:
        _fail("model", "must be a mapping with exactly one model key")
    kind = next(iter(block))
    if kind not in MODELS:
        _fail("model", f"unknown model {kind!r}, expected one of {MODELS}")
    body = block[kind] or {}
    if not isinstance(body, dict):
        _fail(f"model.{kind}", "must be a mapping")
    model = _walk(_MODEL_SCHEMA[kind], body, f"model.{kind}.", seed)

    if kind == "random":
        model.setdefault("rank_e", model["dim"] // 2)
        if model["rank_e"] >= model["dim"]:
            _fail("model.random.rank_e", "must be smaller than dim")
    if kind == "friedrichs":
        lo, hi = model["band"]
        if not lo < hi:
            _fail("model.friedrichs.band", "needs lo < hi")
        if not lo < model["excited_energy"] < hi:
            _fail("model.friedrichs.excited_energy", "must lie inside the band")
    # survival needs positive times; the KMS identity holds at any real t
    if "t_grid" in given:
        start, stop = options["t_grid"][:2]
        if task == "gibbs" and not start < stop:
            _fail("t_grid", "needs start < stop")
        if task != "gibbs" and not 0 < start < stop:
            _fail("t_grid", "needs 0 < start < stop")
    if "fit_window" in options and not options["fit_window"][0] < options["fit_window"][1]:
        _fail("fit_window", "needs lo < hi")
    ns = options.get("n_schedule", ())
    if any(b <= a for a, b in zip(ns, ns[1:])):
        _fail("n_schedule", "must be strictly increasing")
    return ScenarioConfig(task, kind, model, options, output_path, data)


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
        q = e.basis
        psi = q @ (q.conj().T @ (rng.standard_normal(m["dim"]) + 1j * rng.standard_normal(m["dim"])))
        nrm = float(np.linalg.norm(psi))
        if nrm < 1e-12:
            psi = q @ q[0].conj()  # the first column of QQ*
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
    density = n / width
    amplitude = g0 * math.sqrt(width / n) * profile_at_eps
    golden = 2.0 * math.pi * (amplitude * amplitude) * density
    if not 0.0 < golden < math.inf:
        _fail("model.friedrichs.coupling_strength", f"golden-rule rate {golden} is not positive and finite at {g0!r}")

    dim = n + 1
    hmat = np.zeros((dim, dim))
    hmat[0, 0] = eps
    hmat[1:, 1:] = np.diag(omegas)
    hmat[0, 1:] = couplings
    hmat[1:, 0] = couplings
    h = eigendecompose(_freeze(hmat))  # read-only, so stored uncopied

    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    e = projection_from_span([psi])

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
        config = parse_config(config.raw, seed_override)
    out = Path(out_dir) if out_dir is not None else Path(config.output_path)
    runner = {
        "converge": _run_converge,
        "survival": _run_survival,
        "classify": _run_classify,
        "gibbs": _run_gibbs,
        "sweep": _run_sweep,
    }[config.task]
    return runner(config, out)


def _run_converge(config: ScenarioConfig, out: Path) -> RunReport:
    scen = build_scenario(config)
    schedule = ZenoSchedule(config.options["n_schedule"], ordering=config.options["ordering"])
    report = zeno_convergence_report(scen.hamiltonian, scen.projection, config.options["t"], schedule)
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
    if window is not None and not window[0] < window[1]:
        key = "coupling_strength" if window[1] == 3.0 / scen.golden_rate else "n_modes"
        _fail(f"model.friedrichs.{key}", f"the default fit window ({window[0]:.4g}, {window[1]:.4g}) is empty")
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
    measure = spectral_measure_of_state(scen.hamiltonian, scen.state)
    grid = suggested_tail_grid(measure)
    report = classify_regime(measure, grid)
    tails = Table(
        columns=("x", "delta"),
        rows=tuple((float(x), float(d)) for x, d in zip(report.x_grid, report.delta_values)),
    )
    tails_path = out / "tails.csv"
    emit_csv(tails, tails_path)
    table = zeno_modulus_table(measure, config.options["t"], [2**k for k in range(0, 13)])
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
    beta = config.options["beta"]
    n_pairs = config.options["pairs"]
    ts = np.linspace(*config.options["t_grid"])
    h = scen.hamiltonian
    rng = np.random.default_rng(config.options["pairs_seed"])
    state = gibbs_state(h, beta)
    rows = []
    worst = 0.0
    worst_scaled = 0.0
    for i in range(n_pairs):
        a = _random_hermitian(rng, h.dim)
        b = _random_hermitian(rng, h.dim)
        scale = kms_scale(h, a, b, beta)
        for t, r in zip(ts, kms_residual(state, a, b, ts, beta).tolist()):
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
    warnings: list[str] = []
    paths: list[str] = []
    headline: dict[str, Any] = {}
    for i, sub in enumerate(config.runs):
        sub_report = run_scenario(sub, out / f"run_{i:03d}")
        paths.extend(sub_report.csv_paths)
        warnings.extend(f"run_{i:03d}: {w}" for w in sub_report.warnings)
        headline[f"run_{i:03d}"] = sub_report.headline
    return RunReport(config.raw, "sweep", headline, tuple(warnings), tuple(paths))
