"""The benchmark's workloads: CLI configs derived from the workload seed.

Every dataset, model, run and Monte-Carlo seed in a config is derived from
the workload seed; the program only sees the generated config file. The seed
selects one of ``N_VARIANTS`` input variants (``seed % N_VARIANTS``), so that
the desk_spectral outputs can be checked against a reference recorded for
every variant (see ``reference/desk_spectral.json``).

This module uses the standard library only: the orchestrator imports it
before anything of the package under test is loaded.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

N_VARIANTS = 64


def variant_of(seed: int) -> int:
    return seed % N_VARIANTS


def derive(variant: int, *keys: str) -> int:
    """Deterministic 32-bit seed for one consumer of one input variant."""
    text = "/".join([str(variant), *keys]).encode("utf-8")
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "little")


def desk_spectral(variant: int) -> dict:
    # the acceptance suite's desk-scale experiment, trained for few epochs:
    # the 7 checkpoints per cell each diagonalize the 40x40 Gram matrix twice
    # and a 30x30 Lanczos tridiagonal once
    return {
        "model": {"layer_sizes": [2, 32, 32, 2], "activation": "relu", "batch_norm": False,
                  "loss": "mse", "init_gain": 0.6, "seed": derive(variant, "desk", "model")},
        "dataset": {"kind": "gaussian_blobs", "n": 2000, "classes": 2, "radius": 1.0,
                    "sigma": 0.8, "val_fraction": 0.2, "seed": derive(variant, "desk", "data")},
        "eta": 0.05, "batch_size": 32, "momentum": 0.7, "epochs": 4, "eval_every": 25,
        "seed": derive(variant, "desk", "run"),
        "spectra": {"n_gradient_samples": 40, "gram_batch_size": 8, "top_k": 5,
                    "hvp_method": "auto", "lanczos_iters": 30},
        "axis": {"name": "eta", "values": [0.01, 0.05, 0.2]},
        "seeds": [derive(variant, "desk", "sweep") % 1000],
    }


def wide_bn(variant: int) -> dict:
    # D = 72,202 parameters. eval_every counts steps, so in one epoch over
    # 1,600 training examples the batch-8 cell logs 16 checkpoints and the
    # batch-128 cell (13 steps) exactly one
    return {
        "model": {"layer_sizes": [10, 256, 256, 10], "activation": "relu", "batch_norm": True,
                  "loss": "mse", "init_gain": 0.6, "seed": derive(variant, "wide", "model")},
        "dataset": {"kind": "gaussian_blobs", "n": 2000, "classes": 10, "d": 10, "radius": 1.0,
                    "sigma": 0.8, "val_fraction": 0.2, "seed": derive(variant, "wide", "data")},
        "eta": 0.02, "batch_size": 8, "momentum": 0.7, "epochs": 1, "eval_every": 12,
        "eval_subset_fraction": 0.01,
        "seed": derive(variant, "wide", "run"),
        "spectra": {"n_gradient_samples": 40, "gram_batch_size": 8, "top_k": 5,
                    "hvp_method": "fd", "lanczos_iters": 30},
        "axis": {"name": "batch_size", "values": [8, 128]},
        "seeds": [derive(variant, "wide", "sweep") % 1000],
    }


def quadratic_mc(variant: int) -> dict:
    # the README simulate config with a 10x7 phase grid, a slow growth
    # schedule and a Monte-Carlo validation whose ensembles dominate the cost.
    # Each case draws its size n from [30, 100] and an ensemble step costs
    # about n_traj * n, so many cases keep the work per call nearly the same
    # for every seed (about 4% spread with 64 cases). Calls of about 1.5 s
    # give a run enough calls for a steady median.
    return {
        "etas": [0.5, 0.1, 0.02],
        "batch_sizes": [1, 10, 100],
        "alpha": 0.5,
        "psi": 1.0,
        "curvatures": {"kind": "uniform", "low": 0.5, "high": 1.5, "count": 100,
                       "seed": derive(variant, "quad", "curvatures")},
        "phase_grid": {"etas": [0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 1.5, 2.0, 2.5],
                       "batch_sizes": [1, 2, 5, 10, 20, 50, 100]},
        "growth": {"direction": "increasing_from_stable", "lambda0": 0.05, "rho": 1.0001, "psi0": 1.0},
        "monte_carlo": {"cases": 64, "steps": 200, "n_traj": 100,
                        "seed": derive(variant, "quad", "monte_carlo")},
    }


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    build_config: Callable[[int], dict]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk_spectral", "sweep", desk_spectral),
        Workload("wide_bn", "sweep", wide_bn),
        Workload("quadratic_mc", "simulate", quadratic_mc),
    )
}


def write_config(workload: Workload, seed: int, directory: Path) -> Path:
    """Write the workload's config for ``seed``; returns its path."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{workload.name}.json"
    path.write_text(json.dumps(workload.build_config(variant_of(seed)), sort_keys=True, indent=1) + "\n")
    return path
