"""Run configuration: JSON-backed dataclasses with unknown-key rejection.

A config fully determines a run. Only the epsilons (no noise), the budget cap
and the ledger's update-norm bound (no bound) take infinity, written as the JSON
string "inf"; every other number must be finite. Building a RunConfig checks
every field's type, finiteness and bounds and raises ConfigError on the first
violation.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
import types
import typing
from dataclasses import dataclass, field


class ConfigError(ValueError):
    pass


def _num(v):
    if v == "inf":
        return math.inf
    return v


def _field(default, inf=False, **bounds):
    """A config field with optional inclusive (ge, le) or exclusive (gt, lt)
    bounds; inf=True lets it take infinity."""
    return field(default=default, metadata={"inf": inf, "bounds": bounds})


@dataclass
class FleetConfig:
    n_nodes: int = _field(4, ge=2)
    samples_per_node: int = _field(100, ge=1)
    feature_dim: int = _field(8, ge=1)
    heterogeneity: float = _field(0.3, ge=0.0, le=1.0)


@dataclass
class TrainConfig:
    lr: float = _field(0.5, gt=0.0)
    epochs: int = _field(2, ge=1)
    batch: int = _field(32, ge=1)


@dataclass
class PrivacyConfig:
    eps_min: float = _field(0.5, inf=True, gt=0.0)
    eps_max: float = _field(8.0, inf=True, gt=0.0)  # "inf" disables local noise
    clip_norm: float = _field(1.0, gt=0.0)
    budget_cap: float = _field(20.0, inf=True, gt=0.0)
    eps_global: float = _field(math.inf, inf=True, gt=0.0)  # "inf" disables global noise


@dataclass
class LedgerConfig:
    stakes: dict[str, float] = field(default_factory=lambda: {"v0": 1.0, "v1": 1.0, "v2": 2.0})
    committee_size: int | None = _field(None, ge=1)  # default min(5, validators)
    byzantine_refuse: list[str] = field(default_factory=list)
    byzantine_false: list[str] = field(default_factory=list)
    # None -> auto from privacy bounds
    max_update_norm: float | None = _field(None, inf=True, gt=0.0)


@dataclass
class FeedbackConfig:
    enabled: bool = True
    max_validation_samples: int = _field(8, ge=1)
    explain_repeats: int = _field(5, ge=1)


@dataclass
class RunConfig:
    seed: int = _field(0, ge=0)
    rounds: int = _field(10, ge=0)
    fleet: FleetConfig = field(default_factory=FleetConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    privacy: PrivacyConfig = field(default_factory=PrivacyConfig)
    ledger: LedgerConfig = field(default_factory=LedgerConfig)
    feedback: FeedbackConfig = field(default_factory=FeedbackConfig)
    integration_site: str = "node"  # only "node": kept so configs that name it still load
    threat_schedule: list[float] | float = 0.1
    holdout_samples: int = _field(500, ge=1)
    output_dir: str | None = None

    def __post_init__(self):
        _check_fields(self, "")
        if self.integration_site != "node":
            raise ConfigError("integration_site must be 'node'")
        schedule = self.threat_schedule
        if not isinstance(schedule, list):
            schedule = [schedule]
        if not schedule or not all(0.0 <= t <= 1.0 for t in schedule):
            raise ConfigError("threat_schedule must be a level in [0, 1] or a non-empty list of them")
        if self.privacy.eps_min > self.privacy.eps_max:
            raise ConfigError("privacy.eps_min must not exceed privacy.eps_max")
        stakes = self.ledger.stakes.values()
        if any(s < 0 for s in stakes) or not sum(stakes) > 0:
            raise ConfigError("ledger.stakes must be non-negative with a positive total")
        faulty = {*self.ledger.byzantine_refuse, *self.ledger.byzantine_false}
        if not faulty <= self.ledger.stakes.keys():
            raise ConfigError(f"ledger byzantine ids {sorted(faulty - self.ledger.stakes.keys())} "
                              "are not validators in ledger.stakes")
        if (self.ledger.committee_size or 0) > len(stakes):
            raise ConfigError("ledger.committee_size must not exceed the number of validators")

    def threat_for_round(self, r: int) -> float:
        if isinstance(self.threat_schedule, (int, float)):
            return float(self.threat_schedule)
        return float(self.threat_schedule[r % len(self.threat_schedule)])


_BOUNDS = {
    "ge": (operator.ge, ">="),
    "gt": (operator.gt, ">"),
    "le": (operator.le, "<="),
    "lt": (operator.lt, "<"),
}


def _type_ok(value, hint) -> bool:
    args = typing.get_args(hint)
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_type_ok(value, a) for a in args)
    if origin is list:
        return isinstance(value, list) and all(_type_ok(v, args[0]) for v in value)
    if origin is dict:
        return isinstance(value, dict) and all(
            _type_ok(k, args[0]) and _type_ok(v, args[1]) for k, v in value.items()
        )
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _finite(value) -> bool:
    """False when value, or any number inside a list or dict value, is inf or nan."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def _check_fields(obj, path: str) -> None:
    """Check every field's type, finiteness and bounds, recursing into nested sections."""
    hints = typing.get_type_hints(type(obj))
    for f in dataclasses.fields(obj):
        value, where = getattr(obj, f.name), path + f.name
        if not _type_ok(value, hints[f.name]):
            raise ConfigError(f"{where} must be {f.type}, got {value!r}")
        if not (f.metadata.get("inf") or _finite(value)):
            raise ConfigError(f"{where} must be finite, got {value!r}")
        if dataclasses.is_dataclass(value):
            _check_fields(value, where + ".")
        for bound, limit in f.metadata.get("bounds", {}).items():
            test, word = _BOUNDS[bound]
            if value is not None and not test(value, limit):
                raise ConfigError(f"{where} must be {word} {limit}, got {value!r}")


def _build(cls, data: dict, path: str):
    """Build a config section, recursing into fields typed as a section."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must be a JSON object")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigError(f"unknown config keys at {path}: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    return cls(**{
        k: _build(hints[k], v, k) if dataclasses.is_dataclass(hints[k]) else _num(v)
        for k, v in data.items()
    })


def from_dict(data: dict) -> RunConfig:
    return _build(RunConfig, data, "config")


def load(path: str) -> RunConfig:
    with open(path) as f:
        return from_dict(json.load(f))
