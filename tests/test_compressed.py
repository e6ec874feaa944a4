"""The range(E) path of the Zeno products against the dense d x d reference.

``zeno_product`` raises the r x r step Q*UQ to powers and returns the
product as its core in a frame, and ``zeno_convergence_report`` measures
distances between r x r, d x r or r x d cores; the dense formulas they
replace are the reference, imported from ``reference``.
"""

import functools
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zenolab.scenarios
import zenolab.zeno
from conftest import random_hermitian_op, random_projection, run_hypothesis
from reference import dense_product, dense_target, projection_from_matrix
from zenolab.errors import DimensionMismatch, NonFinite
from zenolab.operators import OrthogonalProjection, identity_projection, operator_norm
from zenolab.scenarios import build_scenario, parse_config, run_scenario
from zenolab.semigroup import degenerate_product, full_support_form, kato_form_sum_product, sectorial_operator
from zenolab.zeno import (
    ORDERINGS,
    ZenoProduct,
    product_convergence_report,
    reduced_dynamics,
    zeno_convergence_report,
    zeno_product,
)

DIM = 8
T = 1.3


def projections():
    rng = np.random.default_rng(41)
    rank3 = random_projection(rng, DIM, 3)
    return {
        "rank0": OrthogonalProjection(np.zeros((DIM, 0), dtype=complex)),
        "rank1": random_projection(rng, DIM, 1),
        "rank3": rank3,
        "rank3-from-matrix": projection_from_matrix(rank3.matrix.copy()),
        "rankd": identity_projection(DIM),
    }


PROJECTIONS = projections()


@pytest.fixture(scope="module")
def hamiltonian():
    return random_hermitian_op(np.random.default_rng(42), DIM)


@pytest.mark.parametrize("name", PROJECTIONS)
@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_product_matches_dense_power(hamiltonian, name, ordering, n):
    e = PROJECTIONS[name]
    fast = zeno_product(hamiltonian, e, T, n, ordering).matrix
    assert fast.shape == (DIM, DIM)
    assert operator_norm(fast - dense_product(hamiltonian, e, T, n, ordering)) <= 1e-12


@pytest.mark.parametrize("name", PROJECTIONS)
def test_reduced_dynamics_matches_dense_generator(hamiltonian, name):
    e = PROJECTIONS[name]
    for t in (0.0, 0.4, T, 5.0):
        assert operator_norm(reduced_dynamics(hamiltonian, e, t) - dense_target(hamiltonian, e, t)) <= 1e-12


@pytest.mark.parametrize("name", PROJECTIONS)
@pytest.mark.parametrize("ordering", ORDERINGS)
def test_report_distances_match_dense_svd(hamiltonian, name, ordering):
    e = PROJECTIONS[name]
    ns = (1, 2, 7, 64, 512)
    report = zeno_convergence_report(hamiltonian, e, T, ns, ordering)
    target = dense_target(hamiltonian, e, T)
    for n, distance, delta in report.per_n:
        dense_n = dense_product(hamiltonian, e, T, n, ordering)
        assert abs(distance - operator_norm(dense_n - target)) <= 1e-11
        assert abs(delta - operator_norm(dense_n - dense_product(hamiltonian, e, T, 2 * n, ordering))) <= 1e-11
    assert report.limit.matrix.shape == report.target.matrix.shape == (DIM, DIM)
    assert operator_norm(report.limit.matrix - dense_product(hamiltonian, e, T, ns[-1], ordering)) <= 1e-12
    assert operator_norm(report.target.matrix - target) <= 1e-12
    assert report.target_residual == report.distance(ns[-1])


def friedrichs_hamiltonian(dim):
    """A Friedrichs H of dimension ``dim``: real eigenvectors on the real solver path."""
    model = {"friedrichs": {**FRIEDRICHS_100["friedrichs"], "n_modes": dim - 1}}
    h = build_scenario(parse_config({"schema_version": 1, "task": "converge", "model": model})).hamiltonian
    assert h.eigenvectors.dtype == np.float64
    return h


@pytest.mark.parametrize("real_v", [True, False], ids=["real-V", "complex-V"])
@pytest.mark.parametrize("dim", [6, 12, 200])
@pytest.mark.parametrize("rank", [1, 3, "d"])
@pytest.mark.parametrize("ordering", ORDERINGS)
def test_factored_products_and_report_match_dense(real_v, dim, rank, ordering):
    """``.matrix`` is the dense power, and the report's core distances are the dense ones."""
    rng = np.random.default_rng(dim + 7)
    h = friedrichs_hamiltonian(dim) if real_v else random_hermitian_op(rng, dim, norm=1.0)
    e = identity_projection(dim) if rank == "d" else random_projection(rng, dim, rank)
    ns = (1, 3, 16)
    dense = {n: dense_product(h, e, T, n, ordering) for n in ns + tuple(2 * n for n in ns)}
    for n in ns[:2]:
        product = zeno_product(h, e, T, n, ordering)
        assert isinstance(product, ZenoProduct) and "matrix" not in vars(product)
        assert operator_norm(product.matrix - dense[n]) <= 1e-12
        assert product.matrix is product.matrix and not product.matrix.flags.writeable
    report = zeno_convergence_report(h, e, T, ns, ordering)
    target = dense_target(h, e, T)
    for n, distance, delta in report.per_n:
        assert abs(distance - operator_norm(dense[n] - target)) <= 1e-12
        assert abs(delta - operator_norm(dense[n] - dense[2 * n])) <= 1e-12
    assert operator_norm(report.limit.matrix - dense[ns[-1]]) <= 1e-12
    # the target is built in the products' frame: G in (Q, Q), WG in (V, Q), GW* in (Q, V)
    assert report.target.left is report.limit.left and report.target.right is report.limit.right
    if ordering == "EUE":
        assert np.array_equal(report.target.matrix, reduced_dynamics(h, e, T))
    else:
        assert operator_norm(report.target.matrix - reduced_dynamics(h, e, T)) <= 1e-12


class TestOperatorNorm:
    @pytest.mark.parametrize("shape", [(7, 3), (3, 7), (7, 1), (7, 0), (0, 7)])
    def test_accepts_rectangular(self, shape):
        rng = np.random.default_rng(3)
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        expected = float(np.linalg.svd(m, compute_uv=False)[0]) if m.size else 0.0
        assert operator_norm(m) == pytest.approx(expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("shape", [(1, 200), (200, 1), (100, 200), (200, 20)])
    @pytest.mark.parametrize("magnitude", [1.0, 1e200, 1e-200])
    def test_rectangular_gram_route_matches_svd(self, shape, magnitude):
        rng = np.random.default_rng(shape[0] * shape[1])
        m = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * magnitude
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            got = operator_norm(m)
        assert got == pytest.approx(float(np.linalg.norm(m, 2)), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("shape", [(1, 200), (200, 1), (100, 200), (200, 20)])
    def test_rectangular_zero_is_zero(self, shape):
        assert operator_norm(np.zeros(shape, dtype=complex)) == 0.0

    def test_rejects_one_dimensional(self):
        with pytest.raises(DimensionMismatch):
            operator_norm(np.ones(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_rectangular(self, bad):
        m = np.zeros((5, 2), dtype=complex)
        m[3, 1] = bad
        with pytest.raises(NonFinite):
            operator_norm(m)


class TestBasis:
    @pytest.mark.parametrize("rank", [1, 3, DIM])
    def test_span_basis_is_orthonormal_and_spans_range(self, rank):
        e = random_projection(np.random.default_rng(rank), DIM, rank)
        q = e.basis
        assert q.shape == (DIM, rank)
        assert operator_norm(q @ q.conj().T - e.matrix) <= 1e-12
        assert operator_norm(q.conj().T @ q - np.eye(rank)) <= 1e-12

    def test_matrix_basis_is_computed_once(self):
        e = projection_from_matrix(PROJECTIONS["rank3"].matrix.copy())
        q = e.basis
        assert q is e.basis
        assert operator_norm(q @ q.conj().T - e.matrix) <= 1e-12
        assert operator_norm(q.conj().T @ q - np.eye(3)) <= 1e-12

    def test_basis_built_matrix_is_formed_once_on_first_read(self):
        e = random_projection(np.random.default_rng(5), DIM, 3)
        assert "matrix" not in vars(e)
        q, p = e.basis, e.matrix
        assert p is e.matrix and not p.flags.writeable
        qq = q @ q.conj().T
        assert np.array_equal(p, (qq + qq.conj().T) / 2.0)

    def test_identity_and_zero_bases(self):
        assert np.array_equal(identity_projection(4).basis, np.eye(4))
        assert PROJECTIONS["rank0"].basis.shape == (DIM, 0)


# 1 to 8 strictly increasing n in 1..64, each n drawn with or without 2n as a later row
SCHEDULES = st.lists(st.tuples(st.integers(1, 32), st.booleans()), min_size=1, max_size=4).map(
    lambda pairs: tuple(sorted({m for n, doubled in pairs for m in ((n, 2 * n) if doubled else (n,))}))
)


@settings(database=None, deadline=None, derandomize=True, max_examples=200)
@given(SCHEDULES | st.lists(st.integers(1, 64), min_size=1, max_size=8, unique=True).map(sorted).map(tuple))
@example((2, 4, 8, 16, 32, 64))
@example((3, 5, 7))
@example((2, 3, 4, 9))
@example((5, 6, 7, 10, 12, 14))  # in plain row order 10 and 12 would wait while 7 and 14 are built
def check_each_n_built_once(ns):
    """``product_convergence_report`` builds each n once, drops it when done and gives the rows in order."""
    built: list[int] = []
    alive: list[weakref.ref] = []
    most_held = 0

    def step_product(n):
        nonlocal most_held
        most_held = max(most_held, sum(ref() is not None for ref in alive))
        built.append(n)
        x = np.eye(3, dtype=complex) * (1.0 + 1.0 / n)
        alive.append(weakref.ref(x))
        return ZenoProduct(full, x, full)

    full = identity_projection(3)
    report = product_convergence_report(step_product, ZenoProduct(full, np.eye(3, dtype=complex), full), ns)
    assert sorted(built) == sorted(set(ns) | {2 * n for n in ns})
    # while the next product is built, at most the current row's and the limit are held
    assert most_held <= 2
    assert np.array_equal(report.limit.matrix, np.eye(3) * (1.0 + 1.0 / ns[-1]))
    assert [row[0] for row in report.per_n] == list(ns)


class TestProductCache:
    def test_each_n_built_once(self, tmp_path):
        run_hypothesis(check_each_n_built_once, tmp_path)


@pytest.mark.parametrize("ns", [(), (0, 2), (4, 2), (2, 2)])
@pytest.mark.parametrize("formula", ["unitary", "semigroup", "form-sum"])
def test_every_formula_refuses_bad_n_values(formula, ns):
    """Each formula's n values are nonempty, positive and strictly increasing, checked in the shared report."""
    rng = np.random.default_rng(44)
    h, e, form = random_hermitian_op(rng, 4), random_projection(rng, 4, 2), full_support_form(np.eye(4))
    run = {
        "unitary": lambda: zeno_convergence_report(h, e, T, ns),
        "semigroup": lambda: degenerate_product(sectorial_operator(np.eye(4), np.pi / 2), e, T, ns),
        "form-sum": lambda: kato_form_sum_product(form, form, T, ns),
    }[formula]
    with pytest.raises(ValueError, match="n_values"):
        run()


FRIEDRICHS_100 = {
    "friedrichs": {
        "n_modes": 100,
        "band": [-2.0, 2.0],
        "excited_energy": -0.7,
        "coupling_strength": 0.05,
        "profile": "gaussian",
    }
}


@pytest.mark.parametrize("ordering", ORDERINGS)
def test_no_dense_power_in_converge(monkeypatch, tmp_path, ordering):
    """A Friedrichs converge run (rank-1 E, d = 101) raises nothing larger than 1 x 1 to a power."""
    shapes = []
    original = np.linalg.matrix_power

    def spy(a, n):
        shapes.append(np.shape(a))
        return original(a, n)

    monkeypatch.setattr(zenolab.zeno.np.linalg, "matrix_power", spy)
    config = parse_config(
        {"schema_version": 1, "task": "converge", "model": FRIEDRICHS_100, "ordering": ordering}
    )
    run_scenario(config, out_dir=tmp_path)
    assert shapes and all(shape == (1, 1) for shape in shapes)


@pytest.mark.parametrize("task", ["survival", "classify", "converge", "gibbs"])
@pytest.mark.parametrize("model", [FRIEDRICHS_100, {"random": {"dim": 12, "rank_e": 3}}], ids=["friedrichs", "random"])
def test_runs_never_form_the_projection_matrix(monkeypatch, tmp_path, task, model):
    """The models hold E as its basis Q; no task run forms the d x d QQ*."""
    formed = []
    lazy = OrthogonalProjection.matrix

    def spy(self):
        formed.append(self.dim)
        return lazy.func(self)

    prop = functools.cached_property(spy)
    prop.__set_name__(OrthogonalProjection, "matrix")
    monkeypatch.setattr(OrthogonalProjection, "matrix", prop)
    options = {"pairs": 2} if task == "gibbs" else {}
    config = parse_config({"schema_version": 1, "task": task, "model": model, **options})
    run_scenario(config, out_dir=tmp_path)
    assert formed == []
    e = build_scenario(config).projection
    assert e.matrix is e.matrix and formed == [e.dim]  # the spy sees a read


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize(
    "model",
    [{**FRIEDRICHS_100, "friedrichs": {**FRIEDRICHS_100["friedrichs"], "n_modes": 200}},
     {"random": {"dim": 150, "rank_e": 3}}],
    ids=["friedrichs", "random"],
)
def test_converge_report_forms_nothing_d_by_d(monkeypatch, tmp_path, ordering, model):
    """Inside a CLI converge run's report no product is lifted and no d x d array is allocated."""
    lifts = []
    for cls in (ZenoProduct, OrthogonalProjection):
        lazy = cls.matrix

        def spy(self, lazy=lazy):
            lifts.append(type(self).__name__)
            return lazy.func(self)

        prop = functools.cached_property(spy)
        prop.__set_name__(cls, "matrix")
        monkeypatch.setattr(cls, "matrix", prop)
    peaks, inside = [], []
    report = zenolab.scenarios.zeno_convergence_report

    def traced(h, *args, **kwargs):
        tracemalloc.start()
        try:
            out = report(h, *args, **kwargs)
            peaks.append((tracemalloc.get_traced_memory()[1], h.dim))
        finally:
            tracemalloc.stop()
        inside.extend(lifts)
        return out

    monkeypatch.setattr(zenolab.scenarios, "zeno_convergence_report", traced)
    config = parse_config({"schema_version": 1, "task": "converge", "model": model, "ordering": ordering})
    run_scenario(config, out_dir=tmp_path)
    assert len(peaks) == 1 and inside == []
    peak, dim = peaks[0]
    assert peak < dim * dim * 8  # less than one real d x d array


@pytest.mark.parametrize("ordering", ["UE", "EU"])
def test_friedrichs_lift_forms_v_on_read(ordering):
    """UE and EU hold the operator as the V side of their frame: V is formed when ``.matrix`` is read, and the
    lift is the one from V itself, bit for bit."""
    scen = build_scenario(parse_config({"schema_version": 1, "task": "converge", "model": FRIEDRICHS_100}))
    h, e = scen.hamiltonian, scen.projection
    report = zeno_convergence_report(h, e, T, (1, 4), ordering)
    assert "eigenvectors" not in vars(h)
    lifted, core = report.limit.matrix, report.limit.core
    assert "eigenvectors" in vars(h)
    v = OrthogonalProjection(h.eigenvectors)
    expected = ZenoProduct(v, core, e) if ordering == "UE" else ZenoProduct(e, core, v)
    np.testing.assert_array_equal(lifted, expected.matrix)


def test_a_product_frame_is_a_checked_projection_or_an_operator():
    """A side is an OrthogonalProjection or a HermitianOperator: a scaled basis fails the projection's check, a
    bare array is a TypeError and a core that does not fit its sides is a DimensionMismatch."""
    h = random_hermitian_op(np.random.default_rng(43), 4)
    v, core = h.eigenvectors, np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match="orthonormal"):
        ZenoProduct(OrthogonalProjection(2.0 * v[:, :2]), core, OrthogonalProjection(v[:, :2]))
    for left, right in ((v[:, :2], OrthogonalProjection(v[:, :2])), (OrthogonalProjection(v[:, :2]), v[:, :2])):
        with pytest.raises(TypeError, match="frame"):
            ZenoProduct(left, core, right)
    with pytest.raises(DimensionMismatch):
        ZenoProduct(h, core, OrthogonalProjection(v[:, :2]))
    product = ZenoProduct(h, np.eye(4, 2), OrthogonalProjection(v[:, :2]))  # V (V*Q) Q* = QQ*
    assert operator_norm(product.matrix - v[:, :2] @ v[:, :2].conj().T) <= 1e-14
