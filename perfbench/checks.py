"""Output checks for the benchmark, made apart from zenolab.

Each check rebuilds the model from its config with its own code and
recomputes what the program wrote by another route (a real symmetric
eigensolver, ``scipy.sparse.linalg.expm_multiply``, ``scipy.linalg.expm``,
closed forms), or tests a property the method must have. Nothing here
imports zenolab.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

DEFAULT_N_SCHEDULE = tuple(2**k for k in range(1, 13))
MODULUS_N = tuple(2**k for k in range(0, 13))


class CheckFailure(Exception):
    """An output that disagrees with its independent recomputation."""


def _expect(ok, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


def _close(name: str, got, ref, rtol: float, atol: float) -> None:
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    _expect(got.shape == ref.shape, f"{name}: {got.shape[0]} values, expected {ref.shape[0]}")
    err = np.abs(got - ref) - (atol + rtol * np.abs(ref))
    worst = int(np.argmax(err))
    _expect(err[worst] <= 0, f"{name}[{worst}] = {float(got[worst])!r}, expected {float(ref[worst])!r}")


def read_csv(path: Path, columns: tuple[str, ...]) -> np.ndarray:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    _expect(lines and lines[0] == ",".join(columns), f"{Path(path).name}: header is not {columns}")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    _expect(rows and all(len(r) == len(columns) for r in rows), f"{Path(path).name}: ragged or empty")
    return np.array(rows)


def headline(text: str, key: str) -> str:
    """A headline value as the CLI printed it, plain or inside a sweep's dict."""
    match = re.search(rf"'?{key}'?: (?:np\.float64\()?'?([^,'}}\s)]+)", text)
    _expect(match is not None, f"headline {key!r} missing")
    return match.group(1)


# --------------------------------------------------------------- models


@dataclass(frozen=True)
class Model:
    h: np.ndarray  # Hermitian generator
    basis: np.ndarray  # orthonormal basis of range(E), dim x rank
    psi: np.ndarray  # initial state


def _hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def _norm(m: np.ndarray) -> float:
    """Spectral norm of a Hermitian matrix, from its eigenvalues."""
    return float(np.max(np.abs(np.linalg.eigvalsh(m))))


def friedrichs_parts(body: dict) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Mode energies, couplings, excited energy and golden-rule rate of the config."""
    n = body["n_modes"]
    lo, hi = body["band"]
    eps = body["excited_energy"]
    g0 = body["coupling_strength"]
    width = hi - lo
    omegas = lo + (np.arange(n) + 0.5) * width / n
    if body["profile"] == "flat":
        profile, at_eps = np.ones(n), 1.0
    else:
        sigma = width / 8.0
        center = 0.5 * (lo + hi)
        profile = np.exp(-((omegas - center) ** 2) / (2.0 * sigma**2))
        at_eps = math.exp(-((eps - center) ** 2) / (2.0 * sigma**2))
    couplings = g0 * math.sqrt(width / n) * profile
    golden = 2.0 * math.pi * g0**2 * at_eps**2
    return omegas, couplings, eps, golden


def arrowhead(body: dict) -> np.ndarray:
    """The real symmetric Friedrichs matrix: level 0 coupled to every mode."""
    omegas, couplings, eps, _ = friedrichs_parts(body)
    h = np.diag(np.concatenate([[eps], omegas]))
    h[0, 1:] = couplings
    h[1:, 0] = couplings
    return h


def build_model(model_cfg: dict) -> Model:
    ((kind, body),) = model_cfg.items()
    body = body or {}
    if kind == "rabi":
        e0 = np.array([1.0, 0.0], dtype=complex)
        return Model(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), e0[:, None], e0)
    if kind == "friedrichs":
        h = arrowhead(body).astype(complex)
        e0 = np.eye(h.shape[0], dtype=complex)[:, 0]
        return Model(h, e0[:, None], e0)
    dim, seed = body["dim"], body["seed"]
    rng = np.random.default_rng(seed)
    if kind == "random":
        raw = _hermitian(rng, dim)
        h = raw / _norm(raw)
        g = rng.standard_normal((dim, body["rank_e"])) + 1j * rng.standard_normal((dim, body["rank_e"]))
        q, _ = np.linalg.qr(g)
        psi = q @ (q.conj().T @ (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)))
        return Model(h, q, psi / np.linalg.norm(psi))
    if kind == "perturbed":
        rank = max(1, dim // 2)
        h0 = np.zeros((dim, dim), dtype=complex)
        h0[:rank, :rank] = _hermitian(rng, rank)
        h0[rank:, rank:] = _hermitian(rng, dim - rank)
        h0 /= _norm(h0)
        p = _hermitian(rng, dim)
        p *= body["perturbation_norm"] / _norm(p)
        eye = np.eye(dim, dtype=complex)
        return Model(h0 + p, eye[:, :rank], eye[:, 0])
    raise CheckFailure(f"unknown model {kind!r}")


def _spectral_weights(model: Model) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of H and the weights |<v_k, psi>|^2 of the state on them."""
    h = model.h
    if not np.any(h.imag):
        w, v = np.linalg.eigh(h.real)
    else:
        w, v = np.linalg.eigh(h)
    return w, np.abs(v.conj().T @ model.psi) ** 2


# --------------------------------------------------------------- tasks


def check_survival(run: dict, out: Path, text: str) -> None:
    _expect("friedrichs" in run["model"], "survival is checked on friedrichs models only")
    body = run["model"]["friedrichs"]
    _, couplings, _, golden = friedrichs_parts(body)
    t, p, gamma = read_csv(out / "survival.csv", ("t", "probability", "gamma_eff")).T
    _expect(np.all(np.diff(t) > 0) and t[0] > 0, "survival.csv: times not positive and increasing")

    h = arrowhead(body)
    w, v = np.linalg.eigh(h)
    amp = np.exp(1j * np.outer(t, w)) @ (v[0] ** 2)
    _close("probability", p, np.abs(amp) ** 2, 0.0, 1e-9)

    sparse = scipy.sparse.csr_matrix(h).astype(complex)
    e0 = np.zeros(h.shape[0], dtype=complex)
    e0[0] = 1.0
    sampled = np.unique(np.linspace(0, t.size - 1, 6).astype(int))
    krylov = [abs(scipy.sparse.linalg.expm_multiply(1j * t[i] * sparse, e0)[0]) ** 2 for i in sampled]
    _close("probability (expm_multiply)", p[sampled], krylov, 0.0, 1e-8)

    _close("gamma_eff", gamma, -np.log(p) / t, 1e-9, 1e-300)

    short = t <= 0.1
    _expect(np.count_nonzero(short) >= 3, "fewer than 3 samples with t <= 0.1")
    law = t[short] ** 2 * float(np.sum(couplings**2))
    _close("1 - P(t) against t^2 sum g_k^2", 1.0 - p[short], law, 1e-2, 0.0)

    _close("golden_rate", [float(headline(text, "golden_rate"))], [golden], 1e-9, 0.0)
    gamma0 = float(headline(text, "gamma0"))
    _expect(abs(gamma0 - golden) <= 0.2 * golden, f"gamma0 {gamma0:.6g} not within 20% of {golden:.6g}")


def check_converge(run: dict, out: Path, text: str) -> None:
    t = run.get("t", 1.0)
    ordering = run.get("ordering", "EUE")
    schedule = np.array(run.get("n_schedule", DEFAULT_N_SCHEDULE), dtype=float)
    ns, dist, cauchy = read_csv(out / "converge.csv", ("n", "distance_to_limit", "cauchy_delta")).T
    _close("n", ns, schedule, 0.0, 0.0)
    model = build_model(run["model"])

    if "rabi" in run["model"] and ordering == "EUE":
        # E U E = cos(t/n) E and EHE = 0, so the distance is |cos(t/n)^n - 1|
        a_n = np.cos(t / ns) ** ns
        # the products lose about n ulps to rounding, hence the absolute slack
        _close("distance_to_limit (rabi closed form)", dist, np.abs(a_n - 1.0), 1e-9, 1e-11)
        _close("cauchy_delta (rabi closed form)", cauchy, np.abs(a_n - np.cos(t / (2 * ns)) ** (2 * ns)), 1e-9, 1e-11)
    elif model.basis.shape[1] == 1 and ordering == "EUE":
        # rank-1 E = |psi><psi|: E U E = a(t/n) E with a the survival amplitude,
        # and the limit is exp(i t <psi,H psi>) E
        w, weights = _spectral_weights(model)
        amp = lambda tau: np.exp(1j * np.outer(tau, w)) @ weights  # noqa: E731
        a_n = amp(t / ns) ** ns
        target = np.exp(1j * t * float(np.real(model.psi.conj() @ model.h @ model.psi)))
        _close("distance_to_limit (rank-1 closed form)", dist, np.abs(a_n - target), 1e-7, 1e-10)
        _close("cauchy_delta (rank-1 closed form)", cauchy, np.abs(a_n - amp(t / (2 * ns)) ** (2 * ns)), 1e-7, 1e-10)
    else:
        q = model.basis
        proj = q @ q.conj().T
        target = scipy.linalg.expm(1j * t * (proj @ model.h @ proj)) @ proj

        def product(n: int) -> np.ndarray:
            u = scipy.linalg.expm(1j * (t / n) * model.h)
            step = {"EUE": proj @ u @ proj, "UE": u @ proj, "EU": proj @ u}[ordering]
            return np.linalg.matrix_power(step, n)

        n1 = int(ns[0])
        first, second = product(n1), product(2 * n1)
        _close("distance_to_limit[0] (expm)", dist[:1], [np.linalg.norm(first - target, 2)], 1e-9, 1e-12)
        _close("cauchy_delta[0] (expm)", cauchy[:1], [np.linalg.norm(first - second, 2)], 1e-9, 1e-12)

    half = slice(len(ns) // 2, None)
    _expect(np.all(dist[half] > 0), "distance_to_limit reaches zero; no rate to check")
    slope = float(np.polyfit(np.log(ns[half]), np.log(dist[half]), 1)[0])
    _expect(abs(slope + 1.0) <= 0.1, f"fitted rate exponent {slope:.4f} is not first order")


def check_classify(run: dict, out: Path, text: str) -> None:
    t = run.get("t", 1.0)
    label = headline(text, "classification")
    _expect(label == "Zeno", f"finite-dimensional model classified {label!r}, expected 'Zeno'")
    ns, moduli = read_csv(out / "moduli.csv", ("n", "modulus")).T
    _close("n", ns, MODULUS_N, 0.0, 0.0)
    model = build_model(run["model"])
    w, weights = _spectral_weights(model)
    if "rabi" in run["model"]:
        ref = np.abs(np.cos(t / ns)) ** (2 * ns)
    else:
        ref = np.abs(np.exp(1j * np.outer(t / ns, w)) @ weights) ** (2 * ns)
    _close("modulus", moduli, ref, 1e-8, 1e-13)

    x, delta = read_csv(out / "tails.csv", ("x", "delta")).T
    mags = np.abs(w)
    clear = np.array([np.min(np.abs(mags - xi)) > 1e-9 * xi for xi in x])
    ref = np.array([xi * np.sum(weights[mags > xi]) for xi in x])
    _close("tail delta", delta[clear], ref[clear], 1e-9, 1e-12)


def check_gibbs(run: dict, out: Path, text: str) -> None:
    pairs = run.get("pairs", 20)
    beta = run.get("beta", 1.0)
    if "t_grid" in run:
        ts = np.linspace(*run["t_grid"])
    else:
        ts = np.linspace(-2.0, 2.0, 9)
    pair, t, residual, scale = read_csv(out / "kms.csv", ("pair", "t", "residual", "scale")).T
    _expect(pair.size == pairs * ts.size, f"kms.csv has {pair.size} rows, expected {pairs * ts.size}")
    _close("pair", pair, np.repeat(np.arange(pairs), ts.size), 0.0, 0.0)
    _close("t", t, np.tile(ts, pairs), 0.0, 0.0)
    _expect(np.all(residual >= 0), "negative KMS residual")
    worst = float(np.max(residual / scale))
    _expect(worst < 1e-10, f"residual/scale reaches {worst:.3e}, above 1e-10")

    model = build_model(run["model"])
    w = np.linalg.eigvalsh(model.h)
    growth = math.exp(beta * float(w[-1] - w[0]))
    rng = np.random.default_rng(run.get("pairs_seed", 0))
    dim = model.h.shape[0]
    ref = []
    for _ in range(pairs):
        a = _hermitian(rng, dim)
        b = _hermitian(rng, dim)
        ref.append(_norm(a) * _norm(b) * growth)
    _close("scale", scale, np.repeat(ref, ts.size), 1e-11, 0.0)


CHECKS = {
    "survival": check_survival,
    "converge": check_converge,
    "classify": check_classify,
    "gibbs": check_gibbs,
}


def check_outputs(config: dict, out: Path, stdout: str) -> list[str]:
    """Problems in the outputs of one CLI call of ``config``; empty when all pass."""
    if config["task"] == "sweep":
        lines = stdout.splitlines()
        jobs = []
        for i, run in enumerate(config["runs"]):
            tag = f"run_{i:03d}"
            text = next((line for line in lines if line.strip().startswith(f"{tag}:")), "")
            jobs.append((tag, run, out / tag, text))
    else:
        jobs = [(config["task"], config, out, stdout)]
    problems = []
    for tag, run, run_dir, text in jobs:
        try:
            CHECKS[run["task"]](run, run_dir, text)
        except (CheckFailure, OSError, ValueError, KeyError) as exc:
            problems.append(f"{tag} ({run['task']}): {exc}")
    return problems
