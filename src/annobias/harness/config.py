"""Experiment configuration: validated knobs for the orchestrator."""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional

from ..correction import _CB_INPUTS
from ..metrics import _METRIC_ROWS
from ..simulation import _REJECT_FALLBACKS, Strategy
from .formats import FormatError, _read_json

__all__ = ["ConfigError", "ExperimentConfig", "KNOWN_METRICS"]

KNOWN_METRICS = tuple(_METRIC_ROWS)


class ConfigError(ValueError):
    """Configuration is malformed or references missing files."""


def _path(value) -> str:
    return str(os.fspath(value))


def _number(value) -> float:
    """``float(value)``, refusing a boolean: JSON ``true`` is not 1."""
    if isinstance(value, bool):
        raise TypeError(value)
    return float(value)


def _integer(value) -> int:
    """``int(value)``, refusing a boolean and a number with a fractional part."""
    if not isinstance(value, (str, bytes)) and _number(value) % 1:
        raise ValueError(value)
    return int(value)


def _flag(value) -> bool:
    if value not in (True, False):
        raise TypeError(value)
    return bool(value)


# field -> (conversion, what a value must be); list fields convert each item
_CONVERSIONS = {
    "seed": (_integer, "an integer"),
    "dataset": (_path, "a path"),
    "annotations": (_integer, "integers"),
    "sim_delta": (_number, "a number"),
    "sim_upper_bound": (_number, "a number"),
    "mu": (_number, "a number"),
    "corr_delta": (_number, "a number"),
    "corr_upper_bound": (_number, "a number"),
    "use_bc": (_flag, "true or false"),
    "use_cb": (_flag, "true or false"),
    "transitions": (_path, "a path"),
    "metrics": (lambda m: str(m).strip().lower(), "metric names"),
    "speedups": (_number, "numbers"),
    "initial_supervision": (_number, "a number"),
    "pct_annotated": (_number, "a number"),
}
_LISTS = ("annotations", "metrics", "speedups")
_RETIRED = ("aggregation", "out_dir")  # keys of older configs; nothing read them
_CHOICES = {
    "cb_input": _CB_INPUTS,
    "reject_fallback": _REJECT_FALLBACKS,
}


def _converted(name: str, value):
    """``value`` converted for field ``name``; a wrong type raises ConfigError."""
    convert, what = _CONVERSIONS[name]
    try:
        if name not in _LISTS:
            return convert(value)
        if isinstance(value, (str, bytes)):
            raise TypeError(value)
        return tuple(convert(v) for v in value)
    except (TypeError, ValueError, OverflowError) as e:
        kind = f"a list of {what}" if name in _LISTS else what
        raise ConfigError(f"{name} must be {kind}, got {type(value).__name__}") from e


def _check_offset(side: str, delta, upper_bound) -> None:
    """ConfigError naming a key unless 0 <= delta < upper_bound < 1; None skips."""
    d, ub = f"{side}_delta", f"{side}_upper_bound"
    if delta is not None and not 0.0 <= delta < 1.0:
        raise ConfigError(f"{d} must lie in [0, 1)")
    if upper_bound is not None and not 0.0 < upper_bound < 1.0:
        raise ConfigError(f"{ub} must lie in (0, 1)")
    if delta is not None and upper_bound is not None and not delta < upper_bound:
        raise ConfigError(f"{d} must be < {ub}")


def _check_seed(seed) -> None:
    """ConfigError unless 0 <= seed < 2**64, every command's seed range; None skips."""
    if seed is not None and not 0 <= seed < 2**64:
        raise ConfigError("seed must fit in 64 unsigned bits")


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

    def __post_init__(self):
        if self.dataset is None or not str(self.dataset):
            raise ConfigError("dataset path is required")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _CONVERSIONS and not (value is None and f.default is None):
                object.__setattr__(self, f.name, _converted(f.name, value))
        _check_seed(self.seed)
        if not os.path.isdir(self.dataset):
            raise ConfigError(f"dataset directory not found: {self.dataset}")
        try:
            object.__setattr__(self, "strategy", Strategy.parse(self.strategy).name)
        except ValueError as e:
            raise ConfigError(str(e)) from e
        if not self.annotations or any(n < 1 for n in self.annotations):
            raise ConfigError("annotations must be a non-empty list of ints >= 1")
        for name in ("mu", "initial_supervision", "pct_annotated"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")
        _check_offset("sim", self.sim_delta, self.sim_upper_bound)
        _check_offset("corr", self.corr_delta, self.corr_upper_bound)
        for name, choices in _CHOICES.items():
            if getattr(self, name) not in choices:
                raise ConfigError(f"{name} must be one of {choices}")
        if self.transitions is not None and not os.path.isfile(self.transitions):
            raise ConfigError(f"transitions file not found: {self.transitions}")
        unknown = set(self.metrics) - set(KNOWN_METRICS)
        if unknown:
            raise ConfigError(
                f"unknown metrics {sorted(unknown)} (known: {KNOWN_METRICS})"
            )
        for name in _LISTS:
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigError(f"duplicate entries in {name}")
        if not all(1.0 <= s < float("inf") for s in self.speedups):
            raise ConfigError("every speedup must be a finite number >= 1")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        p = Path(path)
        try:
            data = _read_json(p)
        except FormatError as e:
            raise ConfigError(str(e)) from e
        return cls.from_mapping(data, source=str(p))

    @classmethod
    def from_mapping(cls, data: dict, source: str = "<config>") -> "ExperimentConfig":
        data = {k: v for k, v in data.items() if k not in _RETIRED}
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"{source}: unknown config keys {sorted(unknown)}")
        if "seed" not in data:
            raise ConfigError(f"{source}: missing required key 'seed'")
        if "dataset" not in data:
            raise ConfigError(f"{source}: missing required key 'dataset'")
        return cls(**data)

    def to_mapping(self) -> dict:
        out = asdict(self)
        for key in _LISTS:
            out[key] = list(out[key])
        return out
