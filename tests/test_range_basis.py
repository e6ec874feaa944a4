"""Projections held as their range basis, against the dense d x d formulas they replace.

The library measures leakage as ||UQ - Q(Q*UQ)|| at d x r, builds every
projection from a basis Q, and raises only the r x r matrix Q*SQ to powers
in ``degenerate_product``. The dense formulas, with E_perp taken from
``complement(e).matrix``, are the reference, imported from ``reference``.
"""

import math
import warnings

import numpy as np
import pytest

import zenolab
import zenolab.gibbs
import zenolab.operators
import zenolab.scenarios
import zenolab.semigroup
import zenolab.zeno
from conftest import random_hermitian, random_hermitian_op, random_projection, random_state
from reference import complement, dense_leakage, projection_from_matrix
from zenolab.errors import Overflow
from zenolab.numeric import tol
from zenolab.operators import (
    OrthogonalProjection,
    _column_norm_bound,
    _frobenius,
    eigendecompose,
    evolve,
    expm,
    identity_projection,
    operator_norm,
    phase_factors,
    projection_from_span,
)
from zenolab.scenarios import build_scenario, parse_config, perturbed_invariance_check
from zenolab.semigroup import (
    degenerate_form,
    degenerate_product,
    form_sum_operator,
    sectorial_operator,
)
from zenolab.zeno import ZenoSchedule, _leakage, zeno_convergence_report


def projection(rng, dim, rank):
    if rank == 0:
        return OrthogonalProjection(np.zeros((dim, 0), dtype=complex))
    return identity_projection(dim) if rank == dim else random_projection(rng, dim, rank)


def hamiltonian(rng, dim, real_v):
    if real_v:
        g = rng.standard_normal((dim, dim))
        h = eigendecompose(g + g.T)
        assert h.eigenvectors.dtype == np.float64
        return h
    return random_hermitian_op(rng, dim, norm=1.0)


@pytest.mark.parametrize("real_v", [True, False], ids=["real-V", "complex-V"])
@pytest.mark.parametrize("rank", [1, 3, 12])
def test_leakage_kernel_matches_dense_formula(real_v, rank):
    rng = np.random.default_rng(50 + rank)
    h = hamiltonian(rng, 12, real_v)
    e = projection(rng, 12, rank)
    times = [1e-3, 0.05, 0.5, 1.0, 3.7]
    dense = [dense_leakage(h, e, t) for t in times]
    assert np.max(np.abs(_leakage(h, e, times) - dense)) <= 1e-12


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("dim", [6, 40])
def test_perturbed_invariance_check_matches_dense_formulas(seed, dim):
    config = parse_config(
        {"schema_version": 1, "task": "converge", "model": {"perturbed": {"dim": dim, "seed": seed}}}
    )
    excess = perturbed_invariance_check(config)
    scen = build_scenario(config)
    h, e = scen.hamiltonian, scen.projection
    ts = np.linspace(1.0 / 21, 1.0, 21)
    dense = np.array([dense_leakage(h, e, t) for t in ts])
    assert abs(excess - np.max(dense - np.expm1(operator_norm(scen.perturbation) * ts))) <= 1e-12
    target = zeno_convergence_report(h, e, 1.0, ZenoSchedule(tuple(2**k for k in range(1, 11)))).target
    qg = e.basis @ target.core  # the limit is QGQ*, and ||E_perp QGQ*|| = ||E_perp QG||
    dense_target_leak = operator_norm(complement(e).matrix @ target.matrix)
    assert abs(operator_norm(qg - e.basis @ (e.basis.conj().T @ qg)) - dense_target_leak) <= 1e-12


@pytest.mark.parametrize("rank", [0, 1, 7, 8])
def test_complement_at_every_rank(rank):
    p = projection(np.random.default_rng(rank), 8, rank)
    c = complement(p)
    assert c.rank == 8 - rank and c.dim == 8
    assert operator_norm(c.basis.conj().T @ c.basis - np.eye(8 - rank)) <= 1e-12
    assert operator_norm(p.matrix + c.matrix - np.eye(8)) <= 1e-12
    assert operator_norm(p.matrix @ c.matrix) <= 1e-12


@pytest.mark.parametrize("rank", [0, 1, 3, 8])
def test_projection_from_matrix_keeps_the_svd_basis(rank):
    p = projection(np.random.default_rng(70 + rank), 8, rank).matrix.copy()
    e = projection_from_matrix(p)
    assert e.rank == rank
    assert np.array_equal(e.basis, np.linalg.svd(p)[0][:, :rank])
    assert operator_norm(e.matrix - p) <= 1e-12


def old_support_matrix(a, b):
    """The intersection projection as it was formed before: p_cap from the gap's null space."""
    eye = np.eye(a.dim, dtype=complex)
    gap = (eye - a.support.matrix) + (eye - b.support.matrix)
    w, v = np.linalg.eigh((gap + gap.conj().T) / 2.0)
    q = v[:, w <= tol(1e-10)]
    p_cap = q @ q.conj().T
    return (p_cap + p_cap.conj().T) / 2.0


def random_psd(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g.conj().T @ g


@pytest.mark.parametrize("ranks, shared", [((2, 3), 0), ((2, 2), 1), ((3, 4), 2), ((6, 2), 2), ((6, 6), 6)])
def test_form_sum_support_is_bit_equal_to_old_p_cap(ranks, shared):
    rng = np.random.default_rng(sum(ranks))
    common = [random_state(rng, 6) for _ in range(shared)]
    supports = [
        projection_from_span(common + [random_state(rng, 6) for _ in range(rank - shared)]) for rank in ranks
    ]
    a, b = (degenerate_form(p, random_psd(rng, 6)) for p in supports)
    total = form_sum_operator(a, b)
    assert total.support.rank == shared
    assert np.array_equal(total.support.matrix, old_support_matrix(a, b))


def sectorial(rng, dim):
    """A + 0.5 I + 0.2 i K with A >= 0, ||K|| = 1: Re <v, Av> >= 0.5 >= |Im <v, Av>|."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    psd = g.conj().T @ g
    psd /= operator_norm(psd)
    m = psd + 0.5 * np.eye(dim) + 0.2j * random_hermitian(rng, dim, norm=1.0)
    return sectorial_operator(m, math.pi / 4)


@pytest.mark.parametrize("dim, rank", [(6, 0), (6, 1), (6, 3), (6, 6), (12, 3), (40, 1), (40, 7), (40, 40)])
def test_degenerate_product_matches_dense_power(dim, rank):
    rng = np.random.default_rng(dim + rank)
    a = sectorial(rng, dim)
    e = projection(rng, dim, rank)
    t, ns = 1.3, (1, 2, 8, 64)
    report = degenerate_product(a, e, t, ns)
    p = e.matrix
    target = expm(-t * (p @ a.matrix @ p)) @ p
    products = {n: np.linalg.matrix_power(expm(-(t / n) * a.matrix) @ p, n) for n in ns + tuple(2 * n for n in ns)}
    assert operator_norm(report.target.matrix - target) <= 1e-12
    assert operator_norm(report.limit.matrix - products[64]) <= 1e-12
    for n, distance, cauchy in report.per_n:
        assert abs(distance - operator_norm(products[n] - target)) <= 1e-12
        assert abs(cauchy - operator_norm(products[n] - products[2 * n])) <= 1e-12


def test_frobenius_is_numpy_norm_unless_it_overflows():
    x = random_hermitian(np.random.default_rng(80), 9)
    assert _frobenius(x) == np.linalg.norm(x)
    assert _column_norm_bound(x) == np.max(np.linalg.norm(x, axis=0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = 1e300 * x
        assert _frobenius(big) == pytest.approx(1e300 * np.linalg.norm(x), rel=1e-14)
        assert _column_norm_bound(big) == pytest.approx(1e300 * _column_norm_bound(x), rel=1e-14)
        assert _frobenius(1e300 * np.ones((2, 2))) == pytest.approx(2e300, rel=1e-15)
        assert _frobenius(1e308 * np.ones((4, 4))) == math.inf


def test_phase_factors_refuse_phases_without_a_correct_digit():
    h = eigendecompose(np.diag([0.5, -2.0]))
    limit = 1.0 / (2.0 * np.finfo(float).eps)  # |z| max|w| eps = 1
    assert np.all(np.abs(phase_factors(h, 0.99 * limit)) == 1.0)
    for z in (limit, -limit, 1e300):
        with pytest.raises(Overflow, match="no correct digit"):
            phase_factors(h, z)
    with pytest.raises(Overflow, match="no correct digit"):
        evolve(h, 3 * limit)


def test_library_paths_build_no_projection_from_a_matrix():
    """The d x d projection routes, ``complement`` and ``projection_from_matrix``, live only in ``reference``."""
    for module in (zenolab, zenolab.operators, zenolab.zeno, zenolab.scenarios, zenolab.semigroup, zenolab.gibbs):
        for name in ("complement", "projection_from_matrix"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
