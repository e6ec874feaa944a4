"""Benchmark inputs: one zenolab config per workload, drawn from the seed.

The same seed gives the same config. Seeds move model seeds, pair seeds and
Friedrichs parameters inside ranges where every run finishes without a
warning (a Zeno/anti-Zeno crossing exists for excited_energy in
[-0.85, -0.55]); sizes are fixed, so the work per run does not depend on the
seed.
"""

from __future__ import annotations

import random

WORKLOADS = ("decay-large", "zeno-products", "kms-thermal", "sweep-small")

DECAY_MODES = 800  # d = 801; see README for why not the schema cap of 2000
PRODUCT_MODES = 400
KMS_DIM = 200
KMS_RANK = 20
KMS_PAIRS = 10
SWEEP_PASSES = 6


def _friedrichs(rng: random.Random, n_modes: int) -> dict:
    return {
        "friedrichs": {
            "n_modes": n_modes,
            "band": [-2.0, 2.0],
            "excited_energy": rng.uniform(-0.85, -0.55),
            "coupling_strength": rng.uniform(0.04, 0.06),
            "profile": "gaussian",
        }
    }


def _random(rng: random.Random, dim: int, rank_e: int) -> dict:
    return {"random": {"dim": dim, "rank_e": rank_e, "seed": rng.randrange(2**31)}}


def _perturbed(rng: random.Random, dim: int) -> dict:
    return {"perturbed": {"dim": dim, "seed": rng.randrange(2**31), "perturbation_norm": 0.1}}


def _sweep_small(rng: random.Random) -> list[dict]:
    """Passes over all four models and all four kernels at small, fixed sizes."""
    runs: list[dict] = []
    for k in range(SWEEP_PASSES):
        t = rng.uniform(0.5, 1.5)
        rabi = {"rabi": {}}
        runs += [
            {"task": "converge", "model": rabi, "t": t, "ordering": "EUE"},
            {"task": "classify", "model": rabi, "t": t},
            {"task": "gibbs", "model": rabi, "pairs": 2, "pairs_seed": rng.randrange(2**31)},
        ]
        fried = _friedrichs(rng, 60 + 12 * k)
        runs += [
            {"task": "survival", "model": fried},
            {"task": "classify", "model": fried, "t": t},
            {"task": "converge", "model": fried, "t": t, "ordering": "EUE"},
            {"task": "gibbs", "model": fried, "pairs": 2, "pairs_seed": rng.randrange(2**31)},
        ]
        dim = 10 + 6 * k
        for model, ordering in ((_random(rng, dim, dim // 4 + 1), "UE"), (_perturbed(rng, dim + 2), "EU")):
            runs += [
                {"task": "converge", "model": model, "t": t, "ordering": ordering},
                {"task": "classify", "model": model, "t": t},
                {"task": "gibbs", "model": model, "pairs": 2, "pairs_seed": rng.randrange(2**31)},
            ]
    return runs


def make_config(workload: str, seed: int) -> dict:
    """The zenolab config (a YAML-ready mapping) of one workload at one seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "decay-large":
        return {"schema_version": 1, "task": "survival", "model": _friedrichs(rng, DECAY_MODES)}
    if workload == "zeno-products":
        runs = [
            {"task": "converge", "model": _friedrichs(rng, PRODUCT_MODES), "ordering": "EUE"},
            {"task": "converge", "model": _random(rng, 200, 20), "ordering": "UE"},
            {"task": "converge", "model": _perturbed(rng, 200), "ordering": "EU"},
        ]
        return {"schema_version": 1, "task": "sweep", "runs": runs}
    if workload == "kms-thermal":
        return {
            "schema_version": 1,
            "task": "gibbs",
            "model": _random(rng, KMS_DIM, KMS_RANK),
            "pairs": KMS_PAIRS,
            "pairs_seed": rng.randrange(2**31),
        }
    if workload == "sweep-small":
        return {"schema_version": 1, "task": "sweep", "runs": _sweep_small(rng)}
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
