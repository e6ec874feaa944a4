"""Property test of the CLI contract on configs drawn from the schema table.

Whatever the config, valid or not, ``zenolab`` exits 0, 1 or 2, exits 1 only
after printing a ``warning:`` line, and never prints a traceback, an
``error:`` line from the fallback for a builtin exception, or a numpy
``RuntimeWarning``, and writes nothing past Python's own streams: output is
captured at file descriptors 1 and 2 as well, where a line that LAPACK
writes straight to them (``** On entry to DLASCL ...``) lands. Valid values
are drawn inside each key's bounds, with caps that keep every model and
grid small, and reach the extremes the schema accepts: couplings from 1e-300 to 1e300, ``t`` up to 1e6, ``beta``
up to the largest double, gibbs ``t_grid`` ends up to +-1e308,
``perturbation_norm`` and the band ends at their 1e6 caps, bands 1e-12
wide, bands [-w, w] with w from 1e-300 to 1e-12, and an excited level one
ulp inside a band edge. Four configs that once broke the contract run as
explicit examples before the drawn ones. A broken config
carries one fault: a value of the wrong type, out of bounds or not finite,
or an unknown key.
"""

import builtins
import contextlib
import io
import math
import os
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zenolab.scenarios
from conftest import run_hypothesis
from zenolab.cli import main
from zenolab.scenarios import _MODEL_SCHEMA, _TASK_SCHEMA, _Key

# upper bounds that keep each example fast
CAPS = {"dim": 8, "rank_e": 8, "n_modes": 30, "pairs": 2, "t_grid": 50, "n_schedule": 64}
# keys whose default would build a large model or grid are always set
ALWAYS_SET = {"n_modes", "pairs", "t_grid", "n_schedule"}
N_VALUES = 4
FLOAT_SPAN = 5.0
SEED_CAP = 2**32
RUN_TASKS = [task for task in _TASK_SCHEMA if task != "sweep"]
WRONG_TYPES = st.sampled_from(["x", None, True, [1.0], {"a": 1}])
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def decades(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


# valid values at the extremes the schema accepts, far beyond FLOAT_SPAN
EXTREMES = {
    "coupling_strength": decades(-300.0, 300.0) | st.sampled_from([1e-300, 1e300]),
    "t": decades(-3.0, 6.0) | st.sampled_from([-1e6, 1e6]),
    "beta": decades(-3.0, 308.0) | st.sampled_from([1e6, 1e308, sys.float_info.max]),
    "perturbation_norm": decades(-3.0, 6.0) | st.just(1e6),
    "band": st.sampled_from([[-1e6, 1e6], [-1e6, 0.0], [0.0, 1e6]])
    | st.floats(-FLOAT_SPAN, FLOAT_SPAN).map(lambda lo: [lo, lo + 1e-12])
    | decades(-300.0, -12.0).map(lambda w: [-w, w]),
}
# gibbs grids [-a, b, num] with a and b up to 1e308, whose span may overflow
GIBBS_END = decades(-3.0, 308.0) | st.just(1e308)
GIBBS_T_GRID = st.tuples(GIBBS_END, GIBBS_END, st.integers(2, CAPS["t_grid"])).map(lambda v: [-v[0], v[1], v[2]])
BUILTIN_ERRORS = [name for name, value in vars(builtins).items() if isinstance(value, type) and issubclass(value, BaseException)]


def scalar(key: _Key, cap: int | None):
    """Values of one scalar key inside its bounds."""
    if isinstance(key.type, tuple):
        return st.sampled_from(key.type)
    if key.type is int:
        lo = key.lo if key.lo is not None else 0
        hi = min(x for x in (key.hi, cap, SEED_CAP) if x is not None)
        return st.integers(lo, hi)
    lo = max(x for x in (key.lo, key.above, -FLOAT_SPAN) if x is not None)
    return st.floats(lo, FLOAT_SPAN, exclude_min=key.above is not None)


def valid(name: str, key: _Key):
    cap = CAPS.get(name)
    if key.items is not None:
        # the first two entries are a [lo, hi] or [start, stop] pair
        return st.tuples(*(scalar(k, cap) for k in key.items)).map(lambda v: sorted(v[:2]) + list(v[2:]))
    if key.many:
        return st.lists(scalar(key, cap), min_size=1, max_size=N_VALUES, unique=True).map(sorted)
    return scalar(key, cap)


def out_of_bounds(key: _Key):
    """Values just outside a scalar key's bounds, or None when it has none."""
    if isinstance(key.type, tuple):
        return st.sampled_from(["EUE ", "flat-ish", 1])
    outside = []
    if key.lo is not None:
        outside.append(st.integers(1, 3).map(lambda k: key.lo - k))
    if key.above is not None:
        outside.append(st.just(key.above))
    if key.hi is not None:
        outside.append(st.integers(1, 3).map(lambda k: key.hi + k))
    return st.one_of(outside) if outside else None


def invalid(key: _Key):
    element = key.items[0] if key.items is not None else key
    bad = [WRONG_TYPES, out_of_bounds(element)]
    if element.type is float:
        bad.append(NON_FINITE)
    value = st.one_of([s for s in bad if s is not None])
    if key.items is not None:
        return value.map(lambda v: [v] + [1.0] * (len(key.items) - 1))
    if key.many:
        return value.map(lambda v: [v])
    return value


@st.composite
def fill(draw, schema: dict[str, _Key], fault: str | None, extreme: bool) -> dict:
    """A body for ``schema``; ``fault`` names the key drawn invalid, if any, and
    ``extreme`` sets every key of ``EXTREMES`` to one of its extremes."""
    body = {}
    for name, key in schema.items():
        if name == fault:
            body[name] = draw(invalid(key))
        elif extreme and name in EXTREMES:
            body[name] = draw(EXTREMES[name])
        elif name in ALWAYS_SET or draw(st.booleans()):
            body[name] = draw(valid(name, key))
    if fault == "unknown":
        body[draw(st.sampled_from(["bogus", "Dim", "seeds"]))] = 1
    return body


@st.composite
def run_config(draw) -> dict:
    task = draw(st.sampled_from(RUN_TASKS))
    kind = draw(st.sampled_from(list(_MODEL_SCHEMA)))
    task_keys, model_keys = list(_TASK_SCHEMA[task]), list(_MODEL_SCHEMA[kind])
    faults = ["unknown", "model.unknown"] + task_keys + [f"model.{k}" for k in model_keys]
    # half the runs are valid configs at the extremes, the other half carry at most one fault
    extreme = draw(st.booleans())
    fault = None if extreme else draw(st.none() | st.sampled_from(faults))
    model_fault = fault[len("model.") :] if fault and fault.startswith("model.") else None
    model = draw(fill(_MODEL_SCHEMA[kind], model_fault, extreme))
    if kind == "friedrichs" and extreme:
        lo, hi = model["band"]
        # one ulp inside either band edge, or the midpoint of the band
        model["excited_energy"] = draw(st.sampled_from([math.nextafter(lo, hi), math.nextafter(hi, lo), (lo + hi) / 2]))
    options = draw(fill(_TASK_SCHEMA[task], fault, extreme))
    if task == "gibbs" and extreme:
        options["t_grid"] = draw(GIBBS_T_GRID)
    return {"task": task, "model": {kind: model}, **options}


@st.composite
def config(draw) -> dict:
    if draw(st.integers(0, 4)) == 0:
        runs = draw(st.lists(run_config() | WRONG_TYPES, min_size=1, max_size=2))
        return {"schema_version": 1, "task": "sweep", "runs": runs}
    return {"schema_version": 1, **draw(run_config())}


def run(task: str, model: dict, **options) -> dict:
    return {"schema_version": 1, "task": task, "model": model, **options}


# a gaussian band whose 2 sigma^2 underflows
NARROW_BAND = {"n_modes": 2, "band": [-7.03606579449389e-198, 1.0146548681070015e-170], "profile": "gaussian"}
# a fitted rate constant past the doubles
STEEP_CONVERGE = {
    "n_modes": 2,
    "band": [0.5, 0.500000000001],
    "coupling_strength": 126951.32915597672,
    "excited_energy": 0.5000000000000001,
}


@contextlib.contextmanager
def descriptors_captured():
    """Point file descriptors 1 and 2 at one temporary file, restored on exit, and yield a bytearray that
    receives what reached them once they are restored."""
    captured = bytearray()
    saved = [os.dup(fd) for fd in (1, 2)]
    with tempfile.TemporaryFile() as sink:
        try:
            for fd in (1, 2):
                os.dup2(sink.fileno(), fd)
            yield captured
        finally:
            for fd, copy in zip((1, 2), saved):
                os.dup2(copy, fd)
                os.close(copy)
            sink.seek(0)
            captured += sink.read()


def assert_contract(data: dict, seed: int | None) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.yaml"
        path.write_text(yaml.safe_dump(data), encoding="utf-8")
        argv = [data["task"], "--config", str(path), "--out", str(Path(tmp) / "out")]
        if seed is not None:
            argv += ["--seed", str(seed)]
        out, err = io.StringIO(), io.StringIO()
        with descriptors_captured() as raw, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc = main(argv)
    assert not raw, f"written past Python's streams: {bytes(raw)!r}"
    assert rc in (0, 1, 2)
    assert rc != 1 or "  warning: " in out.getvalue()
    assert "Traceback" not in err.getvalue()
    lines = err.getvalue().splitlines()
    assert not [line for line in lines if any(line.startswith(f"error: {name}:") for name in BUILTIN_ERRORS)]
    assert not [line for line in lines if "RuntimeWarning" in line]
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@settings(database=None, deadline=None, derandomize=True, max_examples=150)
@given(config(), st.none() | st.integers(0, SEED_CAP) | st.integers(-3, -1))
@example(run("survival", {"friedrichs": NARROW_BAND}), None)
@example(run("converge", {"friedrichs": STEEP_CONVERGE}, t=126951.32915597672, n_schedule=[1, 26, 27]), None)
# polyfit's column norm of the times underflows
@example(run("survival", {"rabi": {}}, t_grid=[2.2250738585072014e-308, 5.446657992473016e-255, 10]), None)
# -ln P / t overflows at a subnormal time
@example(run("survival", {"perturbed": {"perturbation_norm": 1.0}}, t_grid=[5.0e-324, 1.0, 2]), None)
def check_exit_code_contract(data, seed):
    assert_contract(data, seed)


def test_exit_code_contract(tmp_path):
    run_hypothesis(check_exit_code_contract, tmp_path)


def test_a_line_written_to_a_descriptor_breaks_the_contract(monkeypatch):
    """A LAPACK-style line written straight to fd 2 bypasses ``sys.stderr`` and fails the check."""
    classify = zenolab.scenarios._TASKS["classify"]

    def planted(*args):
        os.write(2, b" ** On entry to DLASCL parameter number  4 had an illegal value\n")
        return classify(*args)

    monkeypatch.setitem(zenolab.scenarios._TASKS, "classify", planted)
    with pytest.raises(AssertionError, match="DLASCL"):
        assert_contract(run("classify", {"rabi": {}}), None)
