"""Model builders, the scenario runner, config parsing, and CSV emission.

Config files are YAML with a required ``schema_version: 1``, a ``task``
(one of ``TASKS``) and, except in a sweep, a ``model`` mapping with exactly
one key (one of ``MODELS``). Unknown keys are errors, not warnings: a
silently ignored key would invalidate the determinism contract. Every other
key, with its type, bounds and default, is declared once in
``_MODEL_SCHEMA`` and ``_TASK_SCHEMA`` below; ``parse_config`` checks a
config against them and fills in the defaults. A sweep's ``runs`` is a list
of sub-configs (``schema_version`` optional), all parsed before any runs.

``run_scenario`` is the one runner: it builds the scenario, calls the
task, which returns its tables and touches no path, and writes them in the
order the task lists them. So a run that raises writes no CSV. A seed
override (``--seed``) is applied once, where the config is parsed. Its
``RunReport`` holds what the CLI prints: the task, headline, warnings and
CSV paths. ``perturbed_invariance_check`` returns one number, the largest
excess of a perturbed model's leakage out of range(E) over the
perturbation-series bound.

A ``Table`` is its named columns, the 1-D integer or real arrays that the
task already holds; ``emit_csv`` formats each column once, by its dtype.

Every run is deterministic for a fixed config, seeds included: two runs
on one machine, at the same BLAS thread count and with the same library
versions, write byte-identical CSVs. Across BLAS thread counts only the
last bits move (a Friedrichs converge run at 1 and 2 threads agrees to
1e-11 absolute); the thread count is not pinned.
"""

from __future__ import annotations

import math
import re
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
    arrowhead_eigendecompose,
    eigendecompose,
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
from .survival import decay_fit, decay_profile, default_fit_window, effective_rate_curve, find_crossing
from .zeno import _DEFAULT_N_VALUES, ORDERINGS, ZenoSchedule, _leakage, zeno_convergence_report

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
_BAND_END = _Key(float, lo=-1e6, hi=1e6)  # the perturbation_norm cap: a wider band leaves no digit in the phases
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
        "band": _Key(default=(-2.0, 2.0), items=(_BAND_END, _BAND_END)),
        "excited_energy": _Key(float, 0.0),
        "coupling_strength": _Key(float, 0.05, above=0),
        "profile": _Key(("flat", "gaussian"), "flat"),
    },
    "perturbed": {
        "dim": _Key(int, 8, lo=2, hi=200),
        "seed": _SEED,
        "perturbation_norm": _Key(float, 0.1, lo=0, hi=1e6),
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
    """Validated scenario description with every default filled in; ``runs`` holds a sweep's parsed runs."""

    task: str
    model_kind: str
    model: dict[str, Any]
    options: dict[str, Any]
    output_path: str
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
        return ScenarioConfig(task, "rabi", {}, options, output_path, tuple(parsed))

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
        if task == "gibbs" and not (start < stop and math.isfinite(stop - start)):
            _fail("t_grid", "needs start < stop and a finite span stop - start")
        if task != "gibbs" and not 0 < start < stop:
            _fail("t_grid", "needs 0 < start < stop")
    if "fit_window" in options and not options["fit_window"][0] < options["fit_window"][1]:
        _fail("fit_window", "needs lo < hi")
    ns = options.get("n_schedule", ())
    if any(b <= a for a, b in zip(ns, ns[1:])):
        _fail("n_schedule", "must be strictly increasing")
    return ScenarioConfig(task, kind, model, options, output_path)


# YAML 1.2's floats with an exponent; YAML 1.1 reads 1e-3 and 1.0e3 as strings
_EXPONENT_FLOAT = re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$")


def load_config(path, seed: int | None = None) -> ScenarioConfig:
    """Read and validate a YAML config file; ``seed`` is ``parse_config``'s."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IOFailure(f"cannot read config {path}: {exc}") from exc
    loader = type("Loader", (getattr(yaml, "CSafeLoader", yaml.SafeLoader),), {})  # libyaml's, when present
    loader.add_implicit_resolver("tag:yaml.org,2002:float", _EXPONENT_FLOAT, list("-+.0123456789"))
    try:
        data = yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    return parse_config(data, seed)


@dataclass(frozen=True, eq=False)  # an array field does not compare as one truth value
class Scenario:
    """A built model: generator, measured projection, initial state, extras."""

    hamiltonian: HermitianOperator
    projection: OrthogonalProjection
    state: np.ndarray
    golden_rate: float | None = None
    fit_window: tuple[float, float] | None = None
    t_grid: np.ndarray | None = None
    perturbation: np.ndarray | None = None


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    re, im = rng.standard_normal((dim, dim)), rng.standard_normal((dim, dim))
    h = np.empty((dim, dim), dtype=complex)
    np.add(re, re.T, out=h.real)
    np.subtract(im, im.T, out=h.imag)
    h *= 0.5  # (G + G*)/2 for G = re + i im, with no complex temporary
    return h


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
        e = OrthogonalProjection(_freeze(np.eye(2, 1, dtype=complex)))
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
        return Scenario(h, e, psi, t_grid=np.linspace(0.01, 10.0, 500))

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
        spread = 2.0 * (width / 8.0) ** 2
        if not spread >= 2.0**-1022:  # a subnormal or zero 2 sigma^2 keeps few or no bits of the profile
            _fail("model.friedrichs.band", f"gaussian band width {width!r} leaves 2 sigma^2 below the normal doubles")
        profile = np.exp(-((omegas - center) ** 2) / spread)
        profile_at_eps = float(np.exp(-((eps - center) ** 2) / spread))
    couplings = g0 * math.sqrt(width / n) * profile
    density = n / width
    amplitude = g0 * math.sqrt(width / n) * profile_at_eps
    golden = 2.0 * math.pi * (amplitude * amplitude) * density
    if not 0.0 < golden < math.inf:
        _fail("model.friedrichs.coupling_strength", f"golden-rule rate {golden} is not positive and finite at {g0!r}")

    h = arrowhead_eigendecompose(np.concatenate([[eps], omegas]), couplings)

    psi = np.zeros(n + 1, dtype=complex)
    psi[0] = 1.0
    e = OrthogonalProjection(_freeze(np.eye(n + 1, 1, dtype=complex)))  # range(E) is spanned by psi

    heis = 2.0 * math.pi * density  # mean mode spacing sets the recurrence scale
    t_hi = min(0.45 * heis, 3.0 / golden)
    t_lo = 20.0 / width
    t_mid = min(8.0, 0.5 * t_hi)  # below 1e-3 for a wide band, where the first piece runs downward: sort
    grid = np.sort(np.concatenate([np.linspace(1e-3, t_mid, 400), np.linspace(t_mid, t_hi * 1.05, 900)]))
    grid = grid[np.concatenate([[True], grid[1:] != grid[:-1]])]  # np.unique's own steps, without loading numpy.ma
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

    e = OrthogonalProjection(_freeze(np.eye(dim, rank, dtype=complex)))
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    return Scenario(
        eigendecompose(h0 + p),
        e,
        psi,
        t_grid=np.linspace(0.01, 10.0, 500),
        perturbation=p,
    )


def perturbed_invariance_check(config: ScenarioConfig) -> float:
    """The largest excess, over 21 times up to 1, of the perturbed flow's leakage ||E_perp U(t) E|| out of the
    invariant subspace over the perturbation-series bound exp(||P|| t) - 1: at most rounding when the bound holds."""
    if config.model_kind != "perturbed":
        raise ConfigError("model: perturbed_invariance_check needs a perturbed model")
    scen = build_scenario(config)
    ts = np.linspace(1.0 / 21, 1.0, 21)
    leak = _leakage(scen.hamiltonian, scen.projection, ts)
    return float(np.max(leak - np.expm1(operator_norm(scen.perturbation) * ts)))


@dataclass(frozen=True, eq=False)  # an array field does not compare as one truth value
class Table:
    """Named columns destined for one CSV file: each header maps to a 1-D
    integer or real array, and all columns have one length."""

    columns: dict[str, np.ndarray]

    def __post_init__(self):
        columns = {name: np.asarray(column) for name, column in self.columns.items()}
        if not columns:
            raise ValueError("table needs at least one column")
        for name, column in columns.items():
            if column.ndim != 1 or column.dtype.kind not in "iuf":
                raise ValueError(f"column {name!r} must be 1-D integer or real, got {column.dtype} {column.shape}")
        if len({column.size for column in columns.values()}) > 1:
            raise ValueError("columns differ in length")
        object.__setattr__(self, "columns", columns)


def _column_text(column: np.ndarray) -> list[str]:
    """One column's cells: integers exactly, reals with 17 significant digits."""
    if column.dtype.kind == "f":
        return [format(x, ".17g") for x in column.tolist()]
    return [str(x) for x in column.tolist()]


def emit_csv(table: Table, path) -> None:
    """Write UTF-8 CSV with a header row; floats carry 17 significant digits
    so values round-trip exactly."""
    cells = zip(*(_column_text(column) for column in table.columns.values()))
    text = "".join(",".join(row) + "\n" for row in (tuple(table.columns), *cells))
    try:
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_bytes(text.encode("utf-8"))
    except OSError as exc:
        raise IOFailure(f"cannot write {path}: {exc}") from exc


@dataclass(frozen=True)
class RunReport:
    """Outcome of one scenario run: headline numbers, warnings, files written."""

    task: str
    headline: dict[str, Any]
    warnings: tuple[str, ...]
    csv_paths: tuple[str, ...]


def run_scenario(config: ScenarioConfig, out_dir=None) -> RunReport:
    """Run the configured task: the one place that builds, writes and reports.

    The scenario is built once and handed to the task, which returns its
    tables; they are written only after it returns, so a run that raises
    writes no CSV. A sweep runs each of its runs in turn, and a run whose
    model equals the previous run's reuses that run's scenario, since a
    build reads only the model.
    """
    out = Path(out_dir) if out_dir is not None else Path(config.output_path)
    if config.task != "sweep":
        return _run_task(config, build_scenario(config), out)
    reports, model, scen = [], None, None
    for i, sub in enumerate(config.runs):
        if (sub.model_kind, sub.model) != model:
            model, scen = (sub.model_kind, sub.model), build_scenario(sub)
        reports.append(_run_task(sub, scen, out / f"run_{i:03d}"))
    headline = {f"run_{i:03d}": r.headline for i, r in enumerate(reports)}
    warnings = [f"run_{i:03d}: {w}" for i, r in enumerate(reports) for w in r.warnings]
    paths = [p for r in reports for p in r.csv_paths]
    return RunReport("sweep", headline, tuple(warnings), tuple(paths))


def _run_task(config: ScenarioConfig, scen: Scenario, out: Path) -> RunReport:
    """One task on a built scenario: its tables written under ``out`` and its report."""
    tables, headline, warnings = _TASKS[config.task](config, scen)
    paths = tuple(str(out / name) for name in tables)
    for table, path in zip(tables.values(), paths):
        emit_csv(table, path)
    return RunReport(config.task, headline, tuple(warnings), paths)


def _converge(config: ScenarioConfig, scen: Scenario):
    schedule = ZenoSchedule(config.options["n_schedule"], ordering=config.options["ordering"])
    report = zeno_convergence_report(scen.hamiltonian, scen.projection, config.options["t"], schedule)
    ns, distances, deltas = zip(*report.per_n)
    table = Table({"n": ns, "distance_to_limit": distances, "cauchy_delta": deltas})
    headline = {
        "target_residual": report.target_residual,
        "fitted_rate_exponent": report.fitted_rate_exponent,
        "fitted_rate_constant": report.fitted_rate_constant,
        "exact": report.exact,
    }
    return {"converge.csv": table}, headline, ()


def _survival(config: ScenarioConfig, scen: Scenario):
    grid = np.linspace(*config.options["t_grid"]) if "t_grid" in config.options else scen.t_grid
    profile = decay_profile(scen.hamiltonian, scen.state, grid)
    curve = effective_rate_curve(profile)
    table = Table({"t": profile.times, "probability": profile.probabilities, "gamma_eff": curve[:, 1]})
    # a given fit_window is nonempty (parse_config), so an empty window is a default one
    window = config.options.get("fit_window") or scen.fit_window or default_fit_window(profile)
    if not window[0] < window[1]:
        if scen.fit_window is None:
            key = "fit_window"
        else:
            key = "model.friedrichs." + ("coupling_strength" if window[1] == 3.0 / scen.golden_rate else "n_modes")
        _fail(key, f"the default fit window ({window[0]:.4g}, {window[1]:.4g}) is empty")

    warnings: list[str] = []
    headline: dict[str, Any] = {}
    try:
        fit = decay_fit(profile, window)
        headline["gamma0"] = fit.gamma0
        headline["Z"] = fit.prefactor
        headline["fit_residual"] = fit.residual
        try:
            headline["tau_star"] = find_crossing(curve, fit.gamma0)
        except NoCrossing as exc:
            warnings.append(f"NoCrossing: {exc}")
            headline["tau_star"] = None
    except NonExponential as exc:
        warnings.append(f"NonExponential: {exc}")
        headline["gamma0"] = None
        headline["Z"] = None
    if scen.golden_rate is not None:
        headline["golden_rate"] = scen.golden_rate
    return {"survival.csv": table}, headline, warnings


def _classify(config: ScenarioConfig, scen: Scenario):
    measure = spectral_measure_of_state(scen.hamiltonian, scen.state)
    report = classify_regime(measure, suggested_tail_grid(measure))
    tails = Table({"x": report.x_grid, "delta": report.delta_values})
    ns, moduli = zip(*zeno_modulus_table(measure, config.options["t"], [2**k for k in range(0, 13)]))
    warnings = []
    if report.classification is Classification.INDETERMINATE:
        warnings.append("Indeterminate: tail trend is not straight on the sampled grid")
    headline = {
        "classification": report.classification.value,
        "trend": report.trend,
    }
    return {"tails.csv": tails, "moduli.csv": Table({"n": ns, "modulus": moduli})}, headline, warnings


def _gibbs(config: ScenarioConfig, scen: Scenario):
    beta = config.options["beta"]
    n_pairs = config.options["pairs"]
    ts = np.linspace(*config.options["t_grid"])
    h = scen.hamiltonian
    rng = np.random.default_rng(config.options["pairs_seed"])
    state = gibbs_state(h, beta)

    def pairs():
        """n_pairs (A, B) draws from the one rng, one pair at a time."""
        for _ in range(n_pairs):
            yield _random_hermitian(rng, h.dim), _random_hermitian(rng, h.dim)

    scales, residuals = [], []
    for a, b in pairs():
        scales.append(kms_scale(h, a, b, beta))
        residuals.append(kms_residual(h, state, a, b, ts, beta))
    residual = np.concatenate(residuals)
    scale = np.repeat(scales, ts.size)
    # the reduced check draws its pairs after the full check's, in the same rng order
    reduced = reduced_kms_residual(h, scen.projection, beta, pairs(), ts)
    headline = {
        "max_residual": float(residual.max()),
        "max_residual_over_scale": float((residual / scale).max()),
        "reduced_max_residual": reduced,
        "beta": beta,
    }
    pair = np.repeat(np.arange(n_pairs), ts.size)
    table = Table({"pair": pair, "t": np.tile(ts, n_pairs), "residual": residual, "scale": scale})
    return {"kms.csv": table}, headline, ()


# each task maps (config, scenario) to (tables by CSV name, headline, warnings)
_TASKS = {"converge": _converge, "survival": _survival, "classify": _classify, "gibbs": _gibbs}
