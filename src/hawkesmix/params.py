"""Process parameters, prior hyperparameters, and their JSON serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .kernels import BetaMixture, ExcitationModel


@dataclass(frozen=True)
class HawkesParams:
    """Background rates, interaction matrix, and excitation kernels.

    ``alpha[p, c]`` is the expected number of direct offspring on dimension
    ``c`` spawned by one event on parent dimension ``p`` (row = parent).
    Stationarity is not enforced; the spectral radius is a diagnostic.
    """

    mu: np.ndarray
    alpha: np.ndarray
    excitation: Any

    def __post_init__(self) -> None:
        mu = np.array(self.mu, dtype=float)
        alpha = np.array(self.alpha, dtype=float)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "alpha", alpha)
        K = mu.size
        if mu.ndim != 1 or K < 1:
            raise ValueError("mu must be a nonempty 1-d array")
        if alpha.shape != (K, K):
            raise ValueError("alpha must be K x K")
        if not np.all(np.isfinite(mu)) or np.any(mu < 0):
            raise ValueError("mu entries must be finite and nonnegative")
        if not np.all(np.isfinite(alpha)) or np.any(alpha < 0):
            raise ValueError("alpha entries must be finite and nonnegative")
        mu.setflags(write=False)
        alpha.setflags(write=False)

    @property
    def K(self) -> int:
        return int(self.mu.size)


@dataclass(frozen=True)
class Hyperparams:
    """Gamma/Dirichlet prior settings for all model blocks.

    ``e, f`` parameterize the background-rate priors, ``g, h`` the
    interaction-strength priors. Shape-parameter priors come in a shared set
    (``*_common``, tilted toward decreasing kernels) and a per-pair set
    (``*_idio``). ``gamma_dp`` is the concentration split across the
    truncated mixture weights.
    """

    e: float = 1.0
    f: float = 1.0
    g: float = 1.0
    h: float = 1.0
    ca_common: float = 0.5
    da_common: float = 1.0
    cb_common: float = 2.0
    db_common: float = 1.0
    ca_idio: float = 1.0
    da_idio: float = 1.0
    cb_idio: float = 1.0
    db_idio: float = 1.0
    gamma_dp: float = 1.0

    def __post_init__(self) -> None:
        for name in ("e", "f", "g", "h", "ca_common", "da_common", "cb_common",
                     "db_common", "ca_idio", "da_idio", "cb_idio", "db_idio", "gamma_dp"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0:
                raise ValueError(f"hyperparameter {name} must be finite and positive")


def _mixture_to_dict(m: BetaMixture) -> dict:
    return {"p": m.p.tolist(), "a": m.a.tolist(), "b": m.b.tolist()}


def _mixture_from_dict(d: dict) -> BetaMixture:
    return BetaMixture(np.asarray(d["p"]), np.asarray(d["a"]), np.asarray(d["b"]))


def params_to_dict(params: HawkesParams) -> dict:
    exc = params.excitation
    if not isinstance(exc, ExcitationModel):
        raise TypeError("only Beta-mixture excitation models are serializable")
    return {
        "mu": params.mu.tolist(),
        "alpha": params.alpha.tolist(),
        "excitation": {
            "eps": exc.eps,
            "T0": exc.T0,
            "common": _mixture_to_dict(exc.common),
            "idio": [[_mixture_to_dict(m) for m in row] for row in exc.idio],
        },
    }


def params_from_dict(d: dict) -> HawkesParams:
    exc = d["excitation"]
    idio = tuple(tuple(_mixture_from_dict(m) for m in row) for row in exc["idio"])
    model = ExcitationModel(eps=exc["eps"], common=_mixture_from_dict(exc["common"]),
                            idio=idio, T0=exc["T0"])
    return HawkesParams(np.asarray(d["mu"]), np.asarray(d["alpha"]), model)


def save_params(params: HawkesParams, path: str | Path) -> None:
    """Write parameters as JSON (alpha rows are parent dimensions)."""
    with open(Path(path), "w") as fh:
        json.dump(params_to_dict(params), fh, indent=2)
        fh.write("\n")


def load_params(path: str | Path) -> HawkesParams:
    with open(Path(path)) as fh:
        return params_from_dict(json.load(fh))
