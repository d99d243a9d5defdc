"""Experiment configuration: a single JSON file with fixed key groups.

Unknown keys anywhere in the file are errors, so typos in scientific runs
fail loudly instead of silently running defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .basis import DEFAULT_CAPACITY
from .errors import ConfigError
from .model import LatticeModel, Potential

_PHI_PRESETS = ("uniform", "delta", "geometric")


@dataclass
class ExperimentConfig:
    model: LatticeModel
    phi0: np.ndarray
    t_samples: list[float]
    hartree_dt: float = 1e-3
    fluctuation_dt: float = 0.01
    n_values: list[int] = field(default_factory=lambda: [2, 3, 4, 6, 8, 12])
    m_max: int | str = "auto"
    eps_trunc: float = 1e-10
    capacity: int = DEFAULT_CAPACITY
    truncation_loss_tol: float = 1e-6
    propagation_tol: float = 1e-10
    coeff_n_values: list[int] = field(default_factory=lambda: [1, 2, 4, 8, 16, 32, 40])
    remainder_n_values: list[int] = field(default_factory=lambda: [2, 4])
    threads: int = 1

    def __post_init__(self):
        self.phi0 = np.asarray(self.phi0, dtype=complex)
        if self.phi0.shape != (self.model.d,):
            raise ConfigError("initial_phi length must equal the site count d")
        nrm = float(np.linalg.norm(self.phi0))
        if not np.isfinite(nrm):
            raise ConfigError("initial_phi must be finite")
        if nrm == 0.0:
            raise ConfigError("initial_phi must be nonzero")
        self.phi0 = self.phi0 / nrm
        if not self.t_samples:
            raise ConfigError("time.samples must be nonempty")
        if any(t < 0 for t in self.t_samples):
            raise ConfigError("sample times must be nonnegative")
        if not (self.hartree_dt > 0 and self.fluctuation_dt > 0):  # NaN included
            raise ConfigError("time steps must be positive")
        if not self.n_values or any(n < 1 for n in self.n_values):
            raise ConfigError("scan.n_values must be positive integers")
        if isinstance(self.m_max, str):
            if self.m_max != "auto":
                raise ConfigError("fock.m_max must be an integer or 'auto'")
        elif any(n > self.m_max for n in self.n_values):
            raise ConfigError("every scanned N must be <= fock.m_max")
        for key, value in (
            ("fock.eps_trunc", self.eps_trunc),
            ("tolerances.truncation_loss", self.truncation_loss_tol),
            ("tolerances.propagation", self.propagation_tol),
        ):
            if not value > 0:
                raise ConfigError(f"{key} must be positive, got {value}")
        if self.threads < 1:
            raise ConfigError("parallelism.threads must be >= 1")


def _require_keys(obj: dict, allowed: set[str], where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _build_phi(spec, d: int) -> np.ndarray:
    if isinstance(spec, dict):
        _require_keys(spec, {"preset", "ratio"}, "initial_phi")
        preset = spec.get("preset")
        if preset not in _PHI_PRESETS:
            raise ConfigError(f"initial_phi preset must be one of {_PHI_PRESETS}")
        if preset == "uniform":
            return np.full(d, 1.0, dtype=complex)
        if preset == "delta":
            out = np.zeros(d, dtype=complex)
            out[0] = 1.0
            return out
        ratio = float(spec.get("ratio", 0.6))
        if not 0.0 < ratio < 1.0:
            raise ConfigError("geometric preset needs 0 < ratio < 1")
        return ratio ** np.arange(d) + 0j
    try:
        return np.array([complex(re, im) for re, im in spec])
    except (TypeError, ValueError) as exc:
        raise ConfigError("initial_phi must be a list of [re, im] pairs or a preset") from exc


# the shape keys each potential kind reads; any other kind given one is an error
_SHAPE_KEYS = {"gaussian-profile": "width", "soft-coulomb-1d": "a0"}


def _build_potential(spec: dict, d: int) -> Potential:
    _require_keys(spec, {"kind", "strength", "width", "a0"}, "model.potential")
    kind = spec.get("kind", "contact")
    ignored = sorted((spec.keys() & set(_SHAPE_KEYS.values())) - {_SHAPE_KEYS.get(kind)})
    if ignored:
        raise ConfigError(f"model.potential key(s) {ignored} not read by potential kind {kind!r}")
    strength = float(spec.get("strength", 1.0))
    if kind == "zero":
        return Potential.zero(d)
    if kind == "contact":
        return Potential.contact(d, strength)
    if kind == "gaussian-profile":
        return Potential.gaussian_profile(d, strength, width=spec.get("width"))
    if kind == "soft-coulomb-1d":
        return Potential.soft_coulomb_1d(d, strength, a0=float(spec.get("a0", 1.0)))
    raise ConfigError(f"unknown potential kind {kind!r}")


def _ints(values) -> list[int]:
    return [int(v) for v in values]


def _cutoff(value) -> int | str:
    return value if isinstance(value, str) else int(value)


# (group, key, ExperimentConfig field, conversion) of every key whose default
# lives on the dataclass: a file that leaves the key out keeps that default
_FIELDS = (
    ("time", "dt", "hartree_dt", float),
    ("time", "fluctuation_dt", "fluctuation_dt", float),
    ("scan", "n_values", "n_values", _ints),
    ("fock", "m_max", "m_max", _cutoff),
    ("fock", "eps_trunc", "eps_trunc", float),
    ("fock", "capacity", "capacity", int),
    ("tolerances", "truncation_loss", "truncation_loss_tol", float),
    ("tolerances", "propagation", "propagation_tol", float),
    ("coefficients", "n_values", "coeff_n_values", _ints),
    ("coefficients", "remainder_n_values", "remainder_n_values", _ints),
    ("parallelism", "threads", "threads", int),
)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """The config a parsed file describes; a value that does not convert, or
    that the model or the dataclass rejects, is a ConfigError."""
    try:
        return _config_from_dict(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid value: {exc}") from exc


def _config_from_dict(raw: dict) -> ExperimentConfig:
    _require_keys(
        raw,
        {
            "model",
            "initial_phi",
            "time",
            "scan",
            "fock",
            "tolerances",
            "coefficients",
            "parallelism",
        },
        "top level",
    )
    model_spec = raw.get("model", {})
    _require_keys(model_spec, {"d", "potential"}, "model")
    d = int(model_spec.get("d", 3))
    model = LatticeModel(d, _build_potential(model_spec.get("potential", {}), d))

    phi0 = _build_phi(raw.get("initial_phi", {"preset": "geometric"}), d)

    specs = {group: raw.get(group, {}) for group, _, _, _ in _FIELDS}
    time_spec = specs["time"]
    _require_keys(time_spec, {"t_max", "dt", "samples", "fluctuation_dt"}, "time")
    t_max = float(time_spec.get("t_max", 1.0))
    samples = [float(t) for t in time_spec.get("samples", [0.25, 0.5, 1.0])]
    if any(t > t_max + 1e-12 for t in samples):
        raise ConfigError("sample times must not exceed time.t_max")

    for group in ("scan", "fock", "tolerances", "coefficients", "parallelism"):
        _require_keys(specs[group], {key for g, key, _, _ in _FIELDS if g == group}, group)

    settings = {
        name: convert(specs[group][key]) for group, key, name, convert in _FIELDS if key in specs[group]
    }
    return ExperimentConfig(model=model, phi0=phi0, t_samples=samples, **settings)


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return config_from_dict(raw)
