"""Experiment configuration: validated knobs for the orchestrator."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional

from ..correction import _CB_INPUTS
from ..simulation import _REJECT_FALLBACKS, Strategy

__all__ = ["ConfigError", "ExperimentConfig", "KNOWN_METRICS"]

KNOWN_METRICS = ("kl", "l1")
_AGGREGATIONS = ("median", "mean")


class ConfigError(ValueError):
    """Configuration is malformed or references missing files."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a simulation experiment needs besides the data itself.

    ``sim_delta``, ``sim_upper_bound`` and ``mu`` default to the dataset's
    metadata when left ``None``.  ``corr_delta`` is deliberately separate
    from ``sim_delta``: the repair side usually has to work with a rough
    guess of the offset.  ``transitions`` names a confusion-matrix file;
    ``None`` estimates one from the dataset.
    """

    seed: int
    dataset: str
    strategy: str = "ACCEPT_GT"
    annotations: tuple = (5, 10, 20, 50)
    sim_delta: Optional[float] = None
    sim_upper_bound: Optional[float] = None
    mu: Optional[float] = None
    corr_delta: float = 0.1
    corr_upper_bound: float = 0.99
    use_bc: bool = True
    use_cb: bool = True
    cb_input: str = "corrected"
    reject_fallback: str = "first"
    transitions: Optional[str] = None
    metrics: tuple = ("kl",)
    speedups: tuple = (1.0, 2.5, 10.0)
    initial_supervision: float = 0.2
    pct_annotated: float = 1.0
    aggregation: str = "median"
    out_dir: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed))
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 unsigned bits")
        if self.dataset is None or not str(self.dataset):
            raise ConfigError("dataset path is required")
        if not Path(self.dataset).is_dir():
            raise ConfigError(f"dataset directory not found: {self.dataset}")
        object.__setattr__(self, "dataset", str(self.dataset))
        try:
            object.__setattr__(self, "strategy", Strategy.parse(self.strategy).name)
        except ValueError as e:
            raise ConfigError(str(e)) from e
        annotations = tuple(int(n) for n in self.annotations)
        if not annotations or any(n < 1 for n in annotations):
            raise ConfigError("annotations must be a non-empty list of ints >= 1")
        object.__setattr__(self, "annotations", annotations)
        for name in ("sim_delta", "sim_upper_bound", "mu"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, float(v))
        if self.mu is not None and not 0.0 <= self.mu <= 1.0:
            raise ConfigError("mu must lie in [0, 1]")
        if not 0.0 <= float(self.corr_delta) < float(self.corr_upper_bound) < 1.0:
            raise ConfigError("need 0 <= corr_delta < corr_upper_bound < 1")
        object.__setattr__(self, "corr_delta", float(self.corr_delta))
        object.__setattr__(self, "corr_upper_bound", float(self.corr_upper_bound))
        if self.cb_input not in _CB_INPUTS:
            raise ConfigError(f"cb_input must be one of {_CB_INPUTS}")
        if self.reject_fallback not in _REJECT_FALLBACKS:
            raise ConfigError(f"reject_fallback must be one of {_REJECT_FALLBACKS}")
        if self.transitions is not None:
            if not Path(self.transitions).is_file():
                raise ConfigError(f"transitions file not found: {self.transitions}")
            object.__setattr__(self, "transitions", str(self.transitions))
        metrics = tuple(str(m).strip().lower() for m in self.metrics)
        unknown = set(metrics) - set(KNOWN_METRICS)
        if unknown:
            raise ConfigError(
                f"unknown metrics {sorted(unknown)} (known: {KNOWN_METRICS})"
            )
        if len(set(metrics)) != len(metrics):
            raise ConfigError("duplicate metric names")
        object.__setattr__(self, "metrics", metrics)
        speedups = tuple(float(s) for s in self.speedups)
        if any(s < 1.0 for s in speedups):
            raise ConfigError("every speedup must be >= 1")
        object.__setattr__(self, "speedups", speedups)
        if not 0.0 <= float(self.initial_supervision) <= 1.0:
            raise ConfigError("initial_supervision must lie in [0, 1]")
        if not 0.0 <= float(self.pct_annotated) <= 1.0:
            raise ConfigError("pct_annotated must lie in [0, 1]")
        object.__setattr__(
            self, "initial_supervision", float(self.initial_supervision)
        )
        object.__setattr__(self, "pct_annotated", float(self.pct_annotated))
        if self.aggregation not in _AGGREGATIONS:
            raise ConfigError(f"aggregation must be one of {_AGGREGATIONS}")
        if self.out_dir is not None:
            object.__setattr__(self, "out_dir", str(self.out_dir))

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        p = Path(path)
        try:
            with open(p, encoding="utf-8") as f:
                data = json.load(f)
        except OSError as e:
            raise ConfigError(f"{p}: cannot read: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"{p}:{e.lineno}: invalid JSON: {e.msg}") from e
        if not isinstance(data, dict):
            raise ConfigError(f"{p}: top level must be a JSON object")
        return cls.from_mapping(data, source=str(p))

    @classmethod
    def from_mapping(cls, data: dict, source: str = "<config>") -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"{source}: unknown config keys {sorted(unknown)}")
        if "seed" not in data:
            raise ConfigError(f"{source}: missing required key 'seed'")
        if "dataset" not in data:
            raise ConfigError(f"{source}: missing required key 'dataset'")
        kwargs = dict(data)
        for key in ("annotations", "metrics", "speedups"):
            if key in kwargs and isinstance(kwargs[key], list):
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)

    def to_mapping(self) -> dict:
        out = asdict(self)
        for key in ("annotations", "metrics", "speedups"):
            out[key] = list(out[key])
        return out
