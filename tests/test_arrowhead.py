"""The Friedrichs arrowhead solved from its secular equation, against the dense ``eigh``.

``arrowhead_eigendecompose`` finds the roots of f(x) = x - a + sum g_j^2 /
(w_j - x) and builds the eigenvectors from couplings recomputed from those
roots. Each case compares its eigenvalues, its first row of weights
|V_0k|^2 (what survival and classify read) and its eigenvectors, up to
column sign, with ``reference.dense_arrowhead``, and checks three
properties of the result alone: orthonormality, the couplings g-hat of
V diag(x) V* against g, and the trace sum x = tr H. An eigenvector and its
weight are compared within the Davis-Kahan bound, eps ||H|| over the
eigenvalue's gap, so a cluster's vectors, which no solver fixes, are held
only to the three properties. Each case also holds the solver's O(d)
certificate to at least the defect norms of the dense checks it stands in
for (``reference.check_defects``). The grid crosses mode counts, profiles,
excited levels inside the band, outside it and one ulp inside an edge, and
couplings from 1e-150 to 1e3; a band 1e-12 wide makes the poles coincide
to within rounding.
"""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import zenolab.operators
from conftest import certified_build
from reference import arrowhead_matrix, check_defects, defect_within, dense_arrowhead, exact_defects
from zenolab.errors import DimensionMismatch, NonFinite
from zenolab.numeric import tol
from zenolab.operators import HermitianOperator, _matmul, arrowhead_eigendecompose
from zenolab.scenarios import build_scenario, parse_config
from zenolab.survival import _spectral_weights

EPS = np.finfo(float).eps
BAND = (-2.0, 2.0)
LEVELS = {"inside": -0.7, "outside": 3.5, "edge": math.nextafter(BAND[0], BAND[1])}
COUPLINGS = (1e-150, 1e-40, 1.0, 1e3)


def friedrichs(n, profile="flat", level=-0.7, strength=0.05, band=BAND):
    """(diagonal, couplings) of the Friedrichs model as the scenario builder lays it out."""
    lo, hi = band
    width = hi - lo
    omegas = lo + (np.arange(n) + 0.5) * width / n
    shape = np.ones(n) if profile == "flat" else np.exp(-((omegas - (lo + hi) / 2) ** 2) / (2 * (width / 8) ** 2))
    return np.concatenate([[level], omegas]), strength * math.sqrt(width / n) * shape


def certified(diagonal, couplings) -> HermitianOperator:
    """The solved arrowhead. Its certificate accepts, with bounds at least the dense checks' defect norms.

    An arrowhead's hermiticity defect is exactly 0.
    """
    _, (recon, ortho), dense, h = certified_build(diagonal, couplings)
    assert not dense
    assert recon <= 0.99 * tol(1e-10, h.norm) and ortho <= 0.99 * tol(1e-10)
    hermiticity, recon_defect, ortho_defect = check_defects(h.matrix, h.eigenvalues, h.eigenvectors)
    assert hermiticity == 0.0
    assert recon >= recon_defect
    assert ortho >= ortho_defect
    return h


def check_against_dense(diagonal, couplings) -> HermitianOperator:
    h = certified(diagonal, couplings)
    w, v = dense_arrowhead(diagonal, couplings)
    x, u = h.eigenvalues, h.eigenvectors
    # the solver's first row is the formed V's, bit for bit, and so are the weights of e_0 read off it
    e0 = np.eye(w.size, 1).ravel().astype(complex)
    np.testing.assert_array_equal(h.first_row, u[0])
    np.testing.assert_array_equal(_spectral_weights(h, e0), np.abs(_matmul(e0.conj(), u)) ** 2)
    # V*x, the one kernel: the first-row override for x along e_0 (a vector and a d x 1 basis), the dense
    # fallback for a general x, each the dense (x*V)* bit for bit
    rng = np.random.default_rng(w.size)
    general = rng.standard_normal((w.size, 2)) + 1j * rng.standard_normal((w.size, 2))
    for y in (e0, np.eye(w.size, 1, dtype=complex), general):
        np.testing.assert_array_equal(h._coordinates(y), _matmul(y.conj().T, u).conj().T)
    # yH, the one product by H: off the arrow, the dense row product bit for bit for a row along e_0 (complex
    # and real) and within d eps ||H|| max|y| for a general complex 2 x d y
    for y in (e0[None, :], np.eye(1, w.size)):
        np.testing.assert_array_equal(h._row_product(y), _matmul(y, h.matrix))
    error = np.max(np.abs(h._row_product(general.T) - _matmul(general.T, h.matrix)))
    assert error <= w.size * EPS * np.max(np.abs(w)) * np.max(np.abs(general))
    scale = max(np.max(np.abs(w)), np.finfo(float).tiny)
    assert h.matrix.dtype == u.dtype == np.float64
    np.testing.assert_array_equal(h.matrix, arrowhead_matrix(diagonal, couplings))
    assert np.max(np.abs(x - w)) <= 16 * EPS * scale
    # each eigenvector, and so its weight |V_0k|^2, within its Davis-Kahan bound, up to sign
    spacing = np.diff(w)
    gaps = np.minimum(np.append(np.inf, spacing), np.append(spacing, np.inf))
    with np.errstate(divide="ignore"):
        bound = 1e-12 + 64 * EPS * scale / gaps
    assert np.all(np.abs(u[0] ** 2 - v[0] ** 2) <= bound)
    sign = np.where(np.sum(u * v, axis=0) < 0, -1.0, 1.0)
    assert np.all(np.max(np.abs(u * sign - v), axis=0) <= bound)
    # the three properties of the result alone
    assert np.max(np.abs(u.T @ u - np.eye(w.size))) <= 1e-13
    recomputed = (u[0] * x) @ u[1:].T  # the first row of V diag(x) V*
    assert np.max(np.abs(recomputed - couplings), initial=0.0) <= 16 * EPS * math.sqrt(w.size) * scale
    assert abs(math.fsum(x) - math.fsum(diagonal)) <= 4 * EPS * w.size * scale
    return h


@pytest.mark.parametrize("strength", COUPLINGS)
@pytest.mark.parametrize("level", LEVELS.values(), ids=LEVELS)
@pytest.mark.parametrize("profile", ["flat", "gaussian"])
@pytest.mark.parametrize("n", [1, 2, 61])
def test_small_grid_matches_dense(n, profile, level, strength):
    check_against_dense(*friedrichs(n, profile, level, strength))


@pytest.mark.parametrize(
    "profile, level, strength",
    [(p, level, 1.0) for p in ("flat", "gaussian") for level in LEVELS.values()]
    + [("gaussian", LEVELS["inside"], s) for s in COUPLINGS if s != 1.0],
)
def test_801_modes_match_dense(profile, level, strength):
    check_against_dense(*friedrichs(801, profile, level, strength))


def test_negligible_couplings_deflate_to_the_exact_diagonal():
    diagonal, couplings = friedrichs(61, strength=1e-150)
    h = check_against_dense(diagonal, couplings)
    np.testing.assert_array_equal(h.eigenvalues, np.sort(diagonal))
    np.testing.assert_array_equal(np.abs(h.eigenvectors), np.eye(62)[:, np.argsort(diagonal, kind="stable")])


@pytest.mark.parametrize("n, lo", [(61, 1e3), (801, 3.0)])
def test_coinciding_poles_merge_by_rotation(monkeypatch, n, lo):
    """In a band 1e-12 wide the mode energies lie a few ulps apart, and Givens rotations fold them together."""
    rotations = []
    merge = zenolab.operators._merge_close_poles
    monkeypatch.setattr(zenolab.operators, "_merge_close_poles", lambda *a: rotations.extend(merge(*a)) or rotations)
    h = check_against_dense(*friedrichs(n, level=lo + 5e-13, strength=1.0, band=(lo, lo + 1e-12)))
    assert rotations
    assert np.count_nonzero(np.abs(h.eigenvectors[0]) == 0.0) >= len(rotations)  # merged pairs carry no weight


def test_exactly_repeated_poles_and_a_level_on_a_pole():
    diagonal = np.array([0.5, 0.5, 0.5, -1.0, 2.0, 2.0, 0.25])
    couplings = np.array([0.3, -0.2, 0.1, 1e-3, 0.4, 0.0])
    check_against_dense(diagonal, couplings)


def test_unsorted_poles_and_signed_couplings():
    rng = np.random.default_rng(4)
    diagonal, couplings = rng.standard_normal(40), rng.standard_normal(39)
    check_against_dense(diagonal, couplings)


@pytest.mark.parametrize("exponent", [-200, 0, 200])
def test_extreme_scales_match_dense(exponent):
    diagonal, couplings = friedrichs(61, "gaussian", strength=0.3)
    check_against_dense(diagonal * 10.0**exponent, couplings * 10.0**exponent)


def test_random_arrowheads_stop_quickly_and_raise_no_floating_point_error(monkeypatch):
    """Every root is bracketed; these draws (repeated poles, zero and tiny couplings) need at most 12 steps."""
    steps = []
    sums = zenolab.operators._secular_sums
    monkeypatch.setattr(zenolab.operators, "_secular_sums", lambda *a: steps.append(1) or sums(*a))
    rng = np.random.default_rng(7)
    for trial in range(60):
        n = int(rng.integers(0, 40))
        poles = np.round(rng.standard_normal(n) * 3) / 3 if trial % 2 else rng.standard_normal(n)
        couplings = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 3, size=n)
        couplings[rng.random(n) < 0.2] = 0.0
        level = poles[0] if trial % 3 == 0 and n else float(rng.standard_normal())
        steps.clear()
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            h = certified(np.concatenate([[level], poles]), couplings)
        assert len(steps) <= 12
        w = np.linalg.eigvalsh(h.matrix)
        assert np.max(np.abs(h.eigenvalues - w)) <= 16 * EPS * max(np.max(np.abs(w)), 1.0)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_model_takes_about_three_root_evaluations_per_root(monkeypatch, seed):
    """decay-large's d = 801 model: the start and the stopping rule need <= 3.2 evaluations per root, and every
    root agrees with the dense ``eigh`` to 16 eps ||H||."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import make_config

    evaluated = []
    sums = zenolab.operators._secular_sums
    monkeypatch.setattr(zenolab.operators, "_secular_sums", lambda *a: evaluated.append(a[-1].size) or sums(*a))
    config = parse_config(make_config("decay-large", seed))
    h = build_scenario(config).hamiltonian
    assert sum(evaluated) <= 3.2 * h.dim
    w, _ = dense_arrowhead(np.diag(h.matrix), h.matrix[0, 1:])
    assert np.max(np.abs(h.eigenvalues - w)) <= 16 * EPS * h.norm


def test_a_spectrum_wider_than_the_float_range_raises_no_warning():
    """Its power-of-two scale 2^1024 is no double, so the certificate leaves the verdict to the dense checks."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, (recon, _), dense, h = certified_build([1e308, -1e308], [1e308])
        assert h.spread == math.inf
    assert recon == math.inf
    assert dense


def test_rejects_malformed_input():
    with pytest.raises(DimensionMismatch):
        arrowhead_eigendecompose([1.0, 2.0], [0.1, 0.2])
    with pytest.raises(DimensionMismatch):
        arrowhead_eigendecompose([], [])
    with pytest.raises(NonFinite):
        arrowhead_eigendecompose([0.0, math.inf], [0.1])


def _audit_draws() -> dict:
    """About 60 seeded arrowheads at d <= 9, by name: (diagonal, couplings).

    Uniform draws; poles clustered within 1e-9; ulp-spaced poles, which
    take the merge path; couplings scaled by 1e-15 to 1e-14, around the
    deflation threshold; scales 2^+-900; Friedrichs grids with bands 1e-6
    to 10 wide and couplings 1e-6 to 1e3; one coupling a few ulps either
    side of the threshold 8 eps max|entry|; and two poles with equal
    couplings a gap 2 tol (1 + delta) apart, at the edge of the merge rule
    |(w_j - w_p) c s| <= tol.
    """
    rng = np.random.default_rng(13)
    draws = {}

    def add(kind, diagonal, couplings):
        name = f"{kind}-{sum(name.startswith(kind) for name in draws)}"
        draws[name] = (np.asarray(diagonal, float), np.asarray(couplings, float))

    for _ in range(8):
        n = int(rng.integers(1, 9))
        add("uniform", rng.uniform(-1, 1, n + 1), rng.uniform(-1, 1, n))
    for _ in range(8):
        n, c = int(rng.integers(2, 9)), rng.uniform(-1, 1)
        add("clustered", c + rng.uniform(-1e-9, 1e-9, n + 1), 0.1 * rng.standard_normal(n))
    for _ in range(8):
        n, c = int(rng.integers(2, 9)), rng.uniform(0.5, 1.0)
        poles = c + np.spacing(c) * rng.integers(0, 4, n)
        add("ulp-spaced", np.concatenate([[rng.uniform(-1, 1)], poles]), rng.uniform(0.1, 1, n))
    for _ in range(8):
        n = int(rng.integers(2, 9))
        couplings = rng.uniform(-1, 1, n)
        couplings[: n // 2 + 1] *= 10.0 ** rng.uniform(-15, -14, n // 2 + 1)
        add("threshold-scaled", rng.uniform(-1, 1, n + 1), couplings)
    for exponent in (900, -900, 900, -900, 900, -900):
        n = int(rng.integers(1, 9))
        scaled = np.ldexp(rng.uniform(-1, 1, 2 * n + 1), exponent)
        add(f"scale-2^{exponent}", scaled[: n + 1], scaled[n + 1 :])
    for _ in range(10):
        n, width = int(rng.integers(1, 9)), 10.0 ** rng.uniform(-6, 1)
        profile, level = ("flat", "gaussian")[int(rng.integers(2))], width * rng.uniform(-0.4, 0.4)
        add("friedrichs", *friedrichs(n, profile, level, 10.0 ** rng.uniform(-6, 3), band=(-width / 2, width / 2)))
    threshold = 8 * EPS  # the largest entry is 1
    for ulps in (-2, -1, 0, 1, 2):
        coupling = threshold
        for _ in range(abs(ulps)):
            coupling = math.nextafter(coupling, math.copysign(math.inf, ulps))
        add("threshold-ulps", [1.0, -0.5, 0.25, 0.5, 0.75], [0.2, coupling, -0.3, coupling])
    for delta in (-1e-3, -1e-6, 0.0, 1e-6, 1e-3):
        add("merge-edge", [1.0, -0.5, 1e-3, 1e-3 + 2 * threshold * (1 + delta), 0.5], [0.2, 0.3, 0.3, -0.4])
    return draws


AUDIT = _audit_draws()


@pytest.mark.parametrize("name", list(AUDIT))
def test_certificate_bounds_the_exact_defects(name):
    """The certified bounds hold against the exact defects ||M - V diag(x) V*|| and ||V*V - I|| of the float
    results, decided in rational arithmetic; and the dense float checks accept what the certificate accepts."""
    (m, w, v), (recon, ortho), dense, h = certified_build(*AUDIT[name])
    assert not dense
    exact_recon, exact_ortho = exact_defects(m, w, v)
    assert defect_within(exact_recon, recon)
    assert defect_within(exact_ortho, ortho)
    HermitianOperator(m, w, v)
