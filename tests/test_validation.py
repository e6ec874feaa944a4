"""Screened validation norms and the real symmetric eigensolver path.

Every validation check accepts when the Frobenius norm of its defect is
inside the tolerance and otherwise compares the exact 2-norm. Each case
below places a defect just inside, just outside, or inside the tolerance
with a Frobenius norm over it, and asserts the verdict of the exact rule:
the 2-norm of the defect against the tolerance at the exact reference scale.
The HermitianOperator checks are covered twice: on complex data and on data
with an exactly zero imaginary part, which they check in real arithmetic. A
projection built from a matrix P is covered by the self-adjointness and
idempotence checks of ``reference.projection_from_matrix``; one built from
a basis Q by its one check, ||Q*Q - I||. A density state's only checks
are scalar, on its weights, and are placed at the same ratios.

``arrowhead_eigendecompose`` certifies its own result in O(d) and skips
the dense checks when both bounds lie within 0.99 of their tolerances. Its
cases move the solver's head, one root, one recomputed coupling, or hold a
root from its far pole, so that a bound lands just inside, just outside or
well inside the margin; each gets the dense rule's verdict. A directly
constructed arrowhead operator always takes the dense checks, and no
Friedrichs build up to the cap makes one.

The real solver path stores float64 arrays; every consumer of them is
compared with the same matrix taken through the complex solver.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

import zenolab.gibbs
import zenolab.operators
import zenolab.scenarios
from conftest import SIGMA_X, certified_build, random_hermitian
from reference import check_defects, projection_from_matrix
from zenolab.errors import DimensionMismatch, NotHermitian, NotNormalized, Overflow
from zenolab.gibbs import DensityState, gibbs_state, heisenberg_evolve, kms_residual, kms_scale
from zenolab.numeric import tol
from zenolab.operators import (
    HermitianOperator,
    OrthogonalProjection,
    arrowhead_eigendecompose,
    eigendecompose,
    evolve,
    operator_norm,
)
from zenolab.scenarios import build_scenario, parse_config, run_scenario
from zenolab.spectral import DiscreteMeasure, spectral_measure_of_state
from zenolab.survival import DecayProfile, decay_profile, energy_moments, heisenberg_time, survival_amplitude
from zenolab.zeno import ORDERINGS, reduced_dynamics, zeno_product

DIM = 24
K = 16  # the defects have K equal singular values: ||X||_F = 4 ||X||_2
RATIOS = (0.5, 0.99, 1.01)  # exact defect over tolerance


def _unitary(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((DIM, DIM)) + 1j * rng.standard_normal((DIM, DIM)))
    return q


def _orthogonal(seed: int) -> np.ndarray:
    """A real orthogonal matrix, held as complex with a zero imaginary part as eigendecompose stores it."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((DIM, DIM)))
    return q.astype(complex)


def _hermitian(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    m = (q * w) @ q.conj().T
    return (m + m.conj().T) / 2.0


def _flat(q: np.ndarray, lo: int = 0) -> np.ndarray:
    """Projection onto K columns of q: every nonzero singular value is 1."""
    j = q[:, lo : lo + K]
    return j @ j.conj().T


def _eigendecompose_hermiticity(ratio):
    q = _unitary(1)
    s = _hermitian(q, np.linspace(-1.0, 1.0, DIM))
    limit = tol(1e-12, operator_norm(s))
    a = s + 1j * (ratio * limit / 2.0) * _flat(q)
    return (lambda: eigendecompose(a)), a - a.conj().T, tol(1e-12, operator_norm(a)), NotHermitian


def _operator_hermiticity(ratio):
    q, w = _unitary(2), np.linspace(-1.0, 1.0, DIM)
    limit = tol(1e-12, 1.0)
    m = _hermitian(q, w) + 1j * (ratio * limit / 2.0) * _flat(q)
    return (lambda: HermitianOperator(m, w, q)), m - m.conj().T, limit, NotHermitian


def _real_operator_hermiticity(ratio):
    # a real antisymmetric part made of K rotation blocks: K singular values
    q, w = _orthogonal(12), np.linspace(-1.0, 1.0, DIM)
    limit = tol(1e-12, 1.0)
    blocks = np.zeros((DIM, DIM))
    for i in range(0, K, 2):
        blocks[i, i + 1], blocks[i + 1, i] = 1.0, -1.0
    m = _hermitian(q, w) + (ratio * limit / 2.0) * (q @ blocks @ q.T)
    return (lambda: HermitianOperator(m, w, q)), m - m.conj().T, limit, NotHermitian


def _operator_reconstruction(ratio, q=None):
    q, w = _unitary(3) if q is None else q, np.linspace(-1.0, 1.0, DIM)
    m = _hermitian(q, w)
    shifted = w.copy()
    shifted[:K] += ratio * tol(1e-10, 1.0)
    limit = tol(1e-10, float(np.max(np.abs(shifted))))
    return (lambda: HermitianOperator(m, shifted, q)), m - (q * shifted) @ q.conj().T, limit, ValueError


def _operator_orthonormality(ratio, q=None):
    # the stretched eigenvectors carry eigenvalue 0, so reconstruction is unaffected
    q = _unitary(4) if q is None else q
    w = np.concatenate([np.zeros(K), np.linspace(0.1, 1.0, DIM - K)])
    m = _hermitian(q, w)
    stretch = np.ones(DIM)
    stretch[:K] = np.sqrt(1.0 + ratio * tol(1e-10))
    v = q * stretch
    return (lambda: HermitianOperator(m, w, v)), v.conj().T @ v - np.eye(DIM), tol(1e-10), ValueError


def _projection_self_adjoint(ratio):
    q = _unitary(5)
    p = _hermitian(q, np.arange(DIM) < 5) + 1j * (ratio * tol(1e-12, 1.0) / 2.0) * _flat(q, 5)
    limit = tol(1e-12, operator_norm(p))
    return (lambda: projection_from_matrix(p)), p - p.conj().T, limit, NotHermitian


def _projection_idempotence(ratio):
    q = _unitary(6)
    p = _hermitian(q, np.arange(DIM) < 5) + ratio * tol(1e-10, 1.0) * _flat(q, 5)
    p = (p + p.conj().T) / 2.0
    limit = tol(1e-10, operator_norm(p))
    return (lambda: projection_from_matrix(p)), p @ p - p, limit, ValueError


def _basis_only_orthonormality(ratio):
    # K basis vectors stretched alike
    stretch = np.sqrt(1.0 + ratio * tol(1e-10, 1.0))
    q = _unitary(18)[:, :K] * stretch
    gram = q.conj().T @ q
    return (lambda: OrthogonalProjection(q)), gram - np.eye(K), tol(1e-10, operator_norm(gram)), ValueError


def _arrowhead() -> HermitianOperator:
    """A float64 arrowhead with well separated eigenvalues, solved from its secular equation."""
    return arrowhead_eigendecompose(np.concatenate([[0.1], np.linspace(-1.0, 1.0, DIM - 1)]), np.full(DIM - 1, 0.2))


def _arrowhead_reconstruction(ratio):
    # K roots shifted alike: K equal singular values
    h = _arrowhead()
    shifted = h.eigenvalues.copy()
    shifted[:K] += ratio * tol(1e-10, h.norm)
    v = h.eigenvectors
    limit = tol(1e-10, float(np.max(np.abs(shifted))))
    return (lambda: HermitianOperator(h.matrix, shifted, v)), h.matrix - (v * shifted) @ v.T, limit, ValueError


def _arrowhead_orthonormality(ratio):
    # the reconstruction defect, at most ratio * 1e-10 * ||H||, stays inside its tolerance 1e-10 (1 + ||H||)
    h = _arrowhead()
    stretch = np.ones(DIM)
    stretch[:K] = np.sqrt(1.0 + ratio * tol(1e-10))
    v = h.eigenvectors * stretch
    return (lambda: HermitianOperator(h.matrix, h.eigenvalues, v)), v.T @ v - np.eye(DIM), tol(1e-10), ValueError


CHECKS = {
    "eigendecompose.hermiticity": _eigendecompose_hermiticity,
    "HermitianOperator.hermiticity": _operator_hermiticity,
    "HermitianOperator.reconstruction": _operator_reconstruction,
    "HermitianOperator.orthonormality": _operator_orthonormality,
    "HermitianOperator.real.hermiticity": _real_operator_hermiticity,
    "HermitianOperator.real.reconstruction": lambda ratio: _operator_reconstruction(ratio, _orthogonal(13)),
    "HermitianOperator.real.orthonormality": lambda ratio: _operator_orthonormality(ratio, _orthogonal(14)),
    "HermitianOperator.arrowhead.reconstruction": _arrowhead_reconstruction,
    "HermitianOperator.arrowhead.orthonormality": _arrowhead_orthonormality,
    "OrthogonalProjection.self_adjoint": _projection_self_adjoint,
    "OrthogonalProjection.idempotence": _projection_idempotence,
    "OrthogonalProjection.basis_only_orthonormality": _basis_only_orthonormality,
}


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("check", CHECKS)
def test_screened_verdict_matches_exact_rule(check, ratio):
    construct, defect, limit, error = CHECKS[check](ratio)
    exact = operator_norm(defect)
    # the case sits where it was placed, with the Frobenius norm over the limit
    assert exact / limit == pytest.approx(ratio, rel=1e-3)
    assert np.linalg.norm(defect) > limit
    if exact > limit:
        with pytest.raises(error):
            construct()
    else:
        construct()


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("defect", ["negative-weight", "trace-above", "trace-below"])
def test_density_weight_checks_are_two_sided(defect, ratio):
    """A state's only checks are on its weights: p >= -1e-10 and |sum p - 1| <= 1e-10."""
    q = _unitary(7)
    c = ratio * tol(1e-10)
    p = {
        "negative-weight": np.array([-c, 0.5 + c, 0.5]),
        "trace-above": np.array([0.25, 0.75 + c, 0.0]),
        "trace-below": np.array([0.25, 0.75 - c, 0.0]),
    }[defect]
    frame = OrthogonalProjection(q[:, :3])
    if ratio > 1.0:
        with pytest.raises(ValueError, match="negative" if defect == "negative-weight" else "trace"):
            DensityState(frame, p)
    else:
        DensityState(frame, p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_density_weights_must_be_finite(bad):
    with pytest.raises(ValueError):
        DensityState(OrthogonalProjection(_unitary(7)[:, :2]), np.array([1.0, bad]))


NAN_STATE = np.array([np.nan, 0.0])
NAN_CHECKS = {
    "survival_amplitude": (NotNormalized, lambda h: survival_amplitude(h, NAN_STATE, 1.0)),
    "energy_moments": (NotNormalized, lambda h: energy_moments(h, NAN_STATE)),
    "decay_profile": (NotNormalized, lambda h: decay_profile(h, NAN_STATE, [1.0, 2.0])),
    "measure-atom": (ValueError, lambda h: DiscreteMeasure([np.nan, 1.0], [0.5, 0.5])),
    "measure-lone-atom": (ValueError, lambda h: DiscreteMeasure([np.nan], [1.0])),
    "measure-weights": (ValueError, lambda h: DiscreteMeasure([0.0, 1.0], [np.nan, np.nan])),
    "profile-probability": (ValueError, lambda h: DecayProfile([1.0, 2.0], [np.nan, 0.5], heisenberg_time(h))),
}


@pytest.mark.parametrize("check", NAN_CHECKS)
def test_nan_fails_the_validation_checks(check):
    """A nan compares False both ways, so each check is written as not (value within its bounds)."""
    error, call = NAN_CHECKS[check]
    with pytest.raises(error):
        call(eigendecompose(SIGMA_X))


def test_an_infinite_atom_passes_and_its_characteristic_function_overflows():
    """Only nan is refused: an inf atom is a measure, whose phases keep no correct digit."""
    m = DiscreteMeasure([1.0, np.inf], [0.5, 0.5])
    with pytest.raises(Overflow, match="no correct digit"):
        m.phi(1.0)


@pytest.mark.parametrize("method", ["phi", "log_abs_phi"])
def test_an_infinite_atom_overflows_at_time_zero(method):
    """At z = 0 the phase magnitude 0 * inf is nan, which leaves no correct digit either: no nan, no warning."""
    m = DiscreteMeasure([1.0, np.inf], [0.5, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Overflow, match="no correct digit"):
            getattr(m, method)(0.0)


@pytest.mark.parametrize("check", ["eigendecompose.hermiticity", "HermitianOperator.hermiticity"])
def test_rejection_reports_the_exact_defect(check):
    construct, defect, _, error = CHECKS[check](1.01)
    with pytest.raises(error, match=f"{operator_norm(defect):.3e}"):
        construct()


def _one_imaginary_entry(ratio):
    # real data but for one diagonal entry: the defect is rank 1, ||X||_F = ||X||_2
    q, w = _orthogonal(16), np.linspace(-1.0, 1.0, DIM)
    limit = tol(1e-12, 1.0)
    m = _hermitian(q, w)
    m[0, 0] += 1j * ratio * limit / 2.0
    return (lambda: HermitianOperator(m, w, q)), m - m.conj().T, limit, NotHermitian


@pytest.mark.parametrize("ratio", RATIOS[1:])
def test_one_imaginary_entry_keeps_complex_arithmetic(ratio):
    construct, defect, limit, error = _one_imaginary_entry(ratio)
    exact = operator_norm(defect)
    assert exact / limit == pytest.approx(ratio, rel=1e-3)
    if exact > limit:
        with pytest.raises(error):
            construct()
    else:
        construct()


def _spy_violation(monkeypatch) -> list:
    dtypes = []
    original = zenolab.operators._violation
    monkeypatch.setattr(
        zenolab.operators, "_violation", lambda x, *args, **kw: dtypes.append(x.dtype) or original(x, *args, **kw)
    )
    return dtypes


def _real_matrix_complex_eigenvectors():
    # a real symmetric matrix whose eigenvectors carry complex phases
    q, w = _orthogonal(17), np.linspace(-1.0, 1.0, DIM)
    v = q * np.exp(1j * np.linspace(0.1, 3.0, DIM))
    return lambda: HermitianOperator(_hermitian(q, w), w, v)


@pytest.mark.parametrize(
    "case, dtype",
    [
        (lambda: CHECKS["HermitianOperator.real.reconstruction"](RATIOS[0])[0], np.float64),
        (lambda: CHECKS["HermitianOperator.reconstruction"](RATIOS[0])[0], np.complex128),
        (lambda: _one_imaginary_entry(RATIOS[0])[0], np.complex128),
        (_real_matrix_complex_eigenvectors, np.complex128),
    ],
    ids=["real", "complex", "one-imaginary-entry", "complex-eigenvectors"],
)
def test_operator_checks_run_in_real_arithmetic_only_on_real_data(monkeypatch, case, dtype):
    construct = case()
    dtypes = _spy_violation(monkeypatch)
    h = construct()
    assert dtypes == [dtype] * 3
    assert h.matrix.dtype == h.eigenvectors.dtype == np.complex128


@pytest.mark.parametrize("ratio", RATIOS)
def test_one_shifted_arrowhead_root_gets_the_dense_verdict(ratio):
    """A rank-1 defect: its Frobenius norm is its 2-norm, so it sits outside ``CHECKS``."""
    h = _arrowhead()
    shifted = h.eigenvalues.copy()
    shifted[DIM // 2] += ratio * tol(1e-10, h.norm)
    limit = tol(1e-10, float(np.max(np.abs(shifted))))
    _, exact, _ = check_defects(h.matrix, shifted, h.eigenvectors)
    assert exact / limit == pytest.approx(ratio, rel=1e-3)
    if exact > limit:
        with pytest.raises(ValueError, match="reconstruction"):
            HermitianOperator(h.matrix, shifted, h.eigenvectors)
    else:
        HermitianOperator(h.matrix, shifted, h.eigenvectors)


def _lever(name: str, amount: float) -> tuple:
    """A patch that moves the solver's head, one root's offset or one recomputed coupling h_j by ``amount``."""
    roots, certificate = zenolab.operators._secular_roots, zenolab.operators._arrowhead_certificate

    def root(*args):
        base, tau = roots(*args)
        tau[DIM // 2] += amount
        return base, tau

    def coupling(head, poles, z, live, base, tau, h, *args):
        h = h.copy()  # the eigenvectors keep the h they are built from; the certificate sees the moved one
        h[DIM // 2] += amount
        return certificate(head, poles, z, live, base, tau, h, *args)

    return {
        "head": ("_secular_roots", lambda head, *args: roots(head + amount, *args)),
        "root": ("_secular_roots", root),
        "coupling": ("_arrowhead_certificate", coupling),
    }[name]


def _far_pole() -> tuple:
    """A patch that holds the interior root nearest a pole as an offset from the pole across its gap."""
    roots = zenolab.operators._secular_roots

    def far_pole(head, poles, z2):
        base, tau = roots(head, poles, z2)
        k = 1 + int(np.argmin(np.abs(tau[1:-1])))
        far = poles[k] if tau[k] > 0 else poles[k - 1]
        base[k], tau[k] = far, tau[k] + (base[k] - far)
        return base, tau

    return "_secular_roots", far_pole


def _land(ratio_at, ratio: float, probes: tuple[float, float]) -> float:
    """The argument at which ``ratio_at``, affine in it, reads ``ratio``, found from two probes."""
    (a0, a1), (r0, r1) = probes, (ratio_at(probes[0]), ratio_at(probes[1]))
    return a0 + (ratio - r0) * (a1 - a0) / (r1 - r0)


def _check_certified_verdict(build: tuple, which: int, ratio: float) -> None:
    """Bound ``which`` (0 reconstruction, 1 orthonormality) lands at ``ratio``; the verdict is the dense rule's.

    Both bounds inside 0.99 of their tolerances accept with no dense check;
    otherwise the dense checks run and reject exactly when a defect norm of
    ``check_defects`` exceeds its tolerance. Either way the bounds are at
    least those defect norms.
    """
    (m, w, v), bounds, dense, outcome = build
    limits = (tol(1e-10, float(np.max(np.abs(w)))), tol(1e-10))
    assert bounds[which] / limits[which] == pytest.approx(ratio, rel=1e-3)
    _, *defects = check_defects(m, w, v)
    assert all(bound >= defect for bound, defect in zip(bounds, defects))
    inside = all(bound <= 0.99 * limit for bound, limit in zip(bounds, limits))
    assert dense != inside
    rejected = any(defect > limit for defect, limit in zip(defects, limits))
    assert isinstance(outcome, ValueError) == rejected
    if rejected:
        assert "reconstruction" in str(outcome) or "orthonormality" in str(outcome)


ARROW = (np.concatenate([[0.1], np.linspace(-1.0, 1.0, DIM - 1)]), np.full(DIM - 1, 0.2))  # ``_arrowhead``'s input


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("lever", ["head", "root", "coupling"])
def test_arrowhead_certificate_accepts_inside_its_margin_and_leaves_the_rest_to_the_dense_checks(lever, ratio):
    """Moving the head, one root or one h_j lands the reconstruction bound at each ratio of its tolerance."""
    limit = tol(1e-10, _arrowhead().norm)

    def bound(amount):
        return certified_build(*ARROW, [_lever(lever, amount)])[1][0] / limit

    amount = _land(bound, ratio, (0.0, 1e-10))
    _check_certified_verdict(certified_build(*ARROW, [_lever(lever, amount)]), 0, ratio)


@pytest.mark.parametrize("ratio", RATIOS)
def test_arrowhead_root_held_from_its_far_pole_gets_the_dense_verdict_outside_the_margin(ratio):
    """A weak coupling puts a root near its pole; held from the pole across the gap, its distances cancel.

    The orthonormality bound grows as 1 / g_j^2, so it lands at each ratio
    of its tolerance.
    """
    diagonal, couplings = ARROW[0], ARROW[1].copy()

    def build(inverse_square):
        couplings[DIM // 2] = inverse_square**-0.5
        return certified_build(diagonal, couplings, [_far_pole()])

    inverse_square = _land(lambda x: build(x)[1][1] / tol(1e-10), ratio, (1e6, 4e6))
    _check_certified_verdict(build(inverse_square), 1, ratio)


@pytest.mark.parametrize(
    "at, error",
    [((0, 1), NotHermitian), ((1, 0), NotHermitian), ((2, 3), ValueError), ((3, 2), ValueError)],
    ids=["row-0", "column-0", "above-diagonal", "below-diagonal"],
)
def test_matrix_off_the_arrow_or_not_symmetric_is_not_screened(at, error):
    """One entry moved by 1e-8, with the arrowhead's own eigenpairs: only the dense checks see it."""
    h = _arrowhead()
    m = h.matrix.copy()
    m[at] += 1e-8
    if at[0] > 0 and at[1] > 0:
        m[at[::-1]] += 1e-8  # symmetric, but off the arrow
    with pytest.raises(error):
        HermitianOperator(m, h.eigenvalues, h.eigenvectors)


@pytest.mark.parametrize(
    "diagonal, couplings",
    [
        # three equal coupled poles: two eigenvalues sit exactly on the pole
        ([0.1, 0.5, 0.5, 0.5, -1.0, 2.0], [0.3, -0.2, 0.1, 0.4, 0.2]),
        # poles a few ulps apart in a band 1e-12 wide, merged by rotation
        (np.concatenate([[1e3 + 5e-13], 1e3 + (np.arange(61) + 0.5) * 1e-12 / 61]), np.full(61, 0.25)),
    ],
    ids=["repeated-poles", "merged-close-poles"],
)
def test_arrowhead_with_a_zero_gap_is_certified(diagonal, couplings):
    """Merged poles give exactly repeated eigenvalues; the certificate covers them, above the dense defects."""
    arrays, (recon, ortho), dense, h = certified_build(diagonal, couplings)
    assert np.any(np.diff(h.eigenvalues) == 0.0)
    assert not dense
    _, recon_defect, ortho_defect = check_defects(*arrays)
    assert recon_defect <= recon <= 0.99 * tol(1e-10, h.norm)
    assert ortho_defect <= ortho <= 0.99 * tol(1e-10)


def test_projection_rejects_a_basis_that_does_not_span_its_range():
    e = np.eye(3, dtype=complex)
    assert OrthogonalProjection(e[:, :1]).rank == 1
    with pytest.raises(ValueError, match="not orthonormal"):
        OrthogonalProjection(e[:, [0, 0]])  # two columns, one direction
    with pytest.raises(DimensionMismatch):
        OrthogonalProjection(e[:, 0])  # not 2-D


def test_clean_friedrichs_build_takes_no_svd(monkeypatch):
    calls = []
    original = zenolab.operators.operator_norm
    monkeypatch.setattr(zenolab.operators, "operator_norm", lambda m: calls.append(1) or original(m))
    config = parse_config({"schema_version": 1, "task": "survival", "model": {"friedrichs": {"n_modes": 200}}})
    build_scenario(config)
    assert calls == []


def _spy_dense_validation(monkeypatch) -> tuple[list, list, list]:
    """Record the shape of each ``_violation`` defect, each ``operator_norm`` call and each ``HermitianOperator`` check."""
    shapes, norms, validated = [], [], []
    violation, post_init = zenolab.operators._violation, HermitianOperator.__post_init__
    monkeypatch.setattr(zenolab.operators, "_violation", lambda x, *a, **k: shapes.append(x.shape) or violation(x, *a, **k))
    monkeypatch.setattr(zenolab.operators, "operator_norm", lambda m: norms.append(1) or operator_norm(m))
    monkeypatch.setattr(HermitianOperator, "__post_init__", lambda self: validated.append(self.dim) or post_init(self))
    return shapes, norms, validated


def test_friedrichs_build_skips_the_dense_checks(monkeypatch):
    """The solver certifies the operator, so its dense checks never run; only the projection's 1 x 1 Gram check remains."""
    shapes, norms, validated = _spy_dense_validation(monkeypatch)
    build_scenario(parse_config({"schema_version": 1, "task": "survival", "model": {"friedrichs": {"n_modes": 800}}}))
    assert validated == []
    assert shapes == [(1, 1)]
    assert norms == []


@pytest.mark.parametrize("profile", ["flat", "gaussian"])
@pytest.mark.parametrize("coupling", [0.05, 1.0, 3.0, 10.0, 100.0, 1e3])
@pytest.mark.parametrize("n_modes", [200, 2000])
def test_friedrichs_builds_are_certified_at_every_coupling_up_to_the_cap(monkeypatch, n_modes, coupling, profile):
    shapes, norms, validated = _spy_dense_validation(monkeypatch)
    model = {"friedrichs": {"n_modes": n_modes, "coupling_strength": coupling, "profile": profile}}
    build_scenario(parse_config({"schema_version": 1, "task": "classify", "model": model}))
    assert validated == []
    assert shapes == [(1, 1)]
    assert norms == []


@pytest.mark.parametrize("model", [{"random": {"dim": 40, "seed": 3}}, {"perturbed": {"dim": 40, "seed": 3}}])
def test_random_builds_scale_by_eigenvalues_not_svd(monkeypatch, model):
    """The random and perturbed draws are exactly Hermitian, so their norms come from ``eigvalsh``: the build
    takes no SVD of a square matrix (the projection's d x r spanning set is not one)."""
    svds = []
    svd, norm = np.linalg.svd, np.linalg.norm

    def spy_norm(a, ord=None, *args, **kwargs):
        if ord == 2:
            svds.append(np.shape(a))
        return norm(a, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: svds.append(np.shape(a)) or svd(a, *args, **kwargs))
    monkeypatch.setattr(np.linalg, "norm", spy_norm)
    scen = build_scenario(parse_config({"schema_version": 1, "task": "converge", "model": model}))
    assert [shape for shape in svds if shape[0] == shape[1]] == []
    if "random" in model:
        assert abs(scen.hamiltonian.norm - 1.0) <= 1e-14


def test_hermitian_norm_is_the_spectral_norm():
    """An exactly Hermitian matrix takes ``eigvalsh`` and any other square one the SVD: both are the 2-norm."""
    rng = np.random.default_rng(5)
    h = random_hermitian(rng, 30)
    assert abs(operator_norm(h) - np.linalg.norm(h, 2)) <= 1e-13 * np.linalg.norm(h, 2)
    g = rng.standard_normal((30, 30))  # not Hermitian: the SVD
    assert operator_norm(g) == np.linalg.norm(g, 2)


def _complex_path(h: HermitianOperator) -> HermitianOperator:
    """The reference: the same matrix through the complex solver, stored complex."""
    m = h.matrix.astype(complex)
    w, v = np.linalg.eigh(m)
    return HermitianOperator(m, w, v)


def _spy_eigh(monkeypatch) -> list:
    dtypes = []
    original = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: dtypes.append(a.dtype) or original(a))
    return dtypes


def test_friedrichs_survival_matches_complex_path(monkeypatch):
    """The Friedrichs build solves its secular equation and calls no dense eigensolver or SVD."""
    config = parse_config({"schema_version": 1, "task": "survival", "model": {"friedrichs": {"n_modes": 200}}})
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _name=name, _f=original, **k: calls.append(_name) or _f(*a, **k))
    scen = build_scenario(config)
    monkeypatch.undo()
    assert calls == []
    h = scen.hamiltonian
    assert h.eigenvectors.dtype == np.float64
    real = decay_profile(h, scen.state, scen.t_grid).probabilities
    ref = decay_profile(_complex_path(h), scen.state, scen.t_grid).probabilities
    assert np.max(np.abs(real - ref)) <= 1e-12


def test_rabi_evolve_matches_complex_path(monkeypatch):
    dtypes = _spy_eigh(monkeypatch)
    h = eigendecompose(SIGMA_X)
    assert dtypes == [np.float64]
    ref = _complex_path(h)
    for t in (0.1, 1.0, 7.3, -2.5):
        assert operator_norm(evolve(h, t) - evolve(ref, t)) <= 1e-12


def test_complex_matrix_keeps_complex_solver(monkeypatch):
    dtypes = _spy_eigh(monkeypatch)
    eigendecompose(np.array([[0.0, -1j], [1j, 0.0]]))
    assert dtypes == [np.complex128]


REAL_MODELS = {"friedrichs": {"friedrichs": {"n_modes": 200}}, "rabi": {"rabi": {}}}


@pytest.fixture(scope="module", params=REAL_MODELS)
def real_scenario(request):
    scen = build_scenario(parse_config({"schema_version": 1, "task": "converge", "model": REAL_MODELS[request.param]}))
    return scen, _complex_path(scen.hamiltonian)


def test_real_path_stores_float64(real_scenario):
    h = real_scenario[0].hamiltonian
    assert h.matrix.dtype == h.eigenvectors.dtype == np.float64
    assert real_scenario[1].eigenvectors.dtype == np.complex128


@pytest.mark.parametrize("z", [0.7, -2.5, 0.7 + 0.5j])
def test_real_path_evolutions_match_complex_path(real_scenario, z):
    scen, ref = real_scenario
    h = scen.hamiltonian
    a = random_hermitian(np.random.default_rng(3), h.dim, norm=1.0)
    growth = np.exp(abs(z.imag) * h.spread) if isinstance(z, complex) else 1.0
    assert operator_norm(evolve(h, z) - evolve(ref, z)) <= 1e-12 * growth

    def tau(op):  # tau_z(A) by the KMS check's path: into op's eigenbasis, the kernel, and back
        v = op.eigenvectors
        return v @ heisenberg_evolve(op, zenolab.gibbs._to_eigenbasis(op, a), z) @ v.conj().T

    assert operator_norm(tau(h) - tau(ref)) <= 1e-12 * growth


def test_real_path_kms_residuals_match_complex_path(real_scenario):
    scen, ref = real_scenario
    rng = np.random.default_rng(4)
    a, b = (random_hermitian(rng, ref.dim) for _ in range(2))
    ts = np.linspace(-2.0, 2.0, 5)
    got = kms_residual(scen.hamiltonian, gibbs_state(scen.hamiltonian, 1.0), a, b, ts, 1.0)
    want = kms_residual(ref, gibbs_state(ref, 1.0), a, b, ts, 1.0)
    assert np.max(np.abs(got - want)) <= 1e-12 * kms_scale(ref, a, b, 1.0)


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("n", [1, 5, 64])
def test_real_path_zeno_products_match_complex_path(real_scenario, ordering, n):
    scen, ref = real_scenario
    got, want = (zeno_product(h, scen.projection, 1.3, n, ordering).matrix for h in (scen.hamiltonian, ref))
    assert operator_norm(got - want) <= 1e-12


def test_real_path_reduced_dynamics_and_state_tables_match_complex_path(real_scenario):
    scen, ref = real_scenario
    h, e, psi = scen.hamiltonian, scen.projection, scen.state
    assert operator_norm(reduced_dynamics(h, e, 1.3) - reduced_dynamics(ref, e, 1.3)) <= 1e-12
    times = np.linspace(0.01, 5.0, 200)
    got, want = decay_profile(h, psi, times), decay_profile(ref, psi, times)
    assert np.max(np.abs(got.probabilities - want.probabilities)) <= 1e-12
    got, want = spectral_measure_of_state(h, psi), spectral_measure_of_state(ref, psi)
    assert np.max(np.abs(got.atoms - want.atoms)) <= 1e-12
    assert np.max(np.abs(got.weights - want.weights)) <= 1e-12


def test_friedrichs_survival_holds_no_complex_square_array(monkeypatch, tmp_path):
    """A Friedrichs 400 survival run (d = 401) stores H and V as float64 and never forms P.

    Its traced peak is bounded in units of one real d x d array; storing H, V
    and P as complex arrays, as before, peaks at about 12.5 units.
    """
    built = []
    original = zenolab.scenarios.build_scenario
    monkeypatch.setattr(zenolab.scenarios, "build_scenario", lambda c: built.append(original(c)) or built[-1])
    config = parse_config({"schema_version": 1, "task": "survival", "model": {"friedrichs": {"n_modes": 400}}})
    tracemalloc.start()
    try:
        run_scenario(config, out_dir=tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (scen,) = built
    h = scen.hamiltonian
    assert h.matrix.dtype == h.eigenvectors.dtype == np.float64
    assert "matrix" not in vars(scen.projection)
    assert peak < 10 * h.dim**2 * 8


@pytest.mark.parametrize(
    "task, ordering", [("survival", None), ("classify", None)] + [("converge", o) for o in ORDERINGS]
)
def test_friedrichs_runs_form_nothing_d_by_d(monkeypatch, tmp_path, task, ordering):
    """At n_modes 800 (d = 801) survival and classify read the state's weights off the solver's first row, and
    converge reads W = V*Q off that row and Q*HQ off the arrow, with UE's and EU's frame holding the operator
    for V: the whole run, build included, forms neither H nor V and peaks below one real d x d array."""
    built = []
    original = zenolab.scenarios.build_scenario
    monkeypatch.setattr(zenolab.scenarios, "build_scenario", lambda c: built.append(original(c)) or built[-1])
    options = {"ordering": ordering} if ordering else {}
    config = parse_config({"schema_version": 1, "task": task, "model": {"friedrichs": {"n_modes": 800}}, **options})
    tracemalloc.start()
    try:
        run_scenario(config, out_dir=tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (scen,) = built
    assert not {"matrix", "eigenvectors"} & set(vars(scen.hamiltonian))
    assert peak < scen.hamiltonian.dim**2 * 8
