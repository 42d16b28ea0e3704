"""Run configuration: defaults, YAML round-trip, overrides and hashing.

Every field has a documented default reproducing the headline experiment
(temperature 0.5, 10 Gaussians, target interval [-1.1, -1], 2000-path
estimates).  Unknown keys are rejected by name so a typo in a config file
fails loudly instead of silently running defaults.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, get_args, get_type_hints

import yaml

from .dynamics import SimConfig
from .model import (ModelBundle, SimulationDomain, StoppingSet,
                    constant_observable, default_start_point, make_potential)
from .optimizer import DescentConfig

# The experiment's "width 0.1" is read as the variance of the Gaussian bumps;
# stored here as the standard deviation sqrt(0.1).
DEFAULT_WIDTH = 0.31622776601683794


class ConfigError(ValueError):
    """Malformed run configuration."""


def _from_dict(cls, doc: dict, path: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'config'} must be a mapping, got {type(doc).__name__}")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ConfigError(f"unknown config keys at {path or 'top level'}: {', '.join(unknown)}")
    hints = get_type_hints(cls)
    kwargs = {}
    for name, value in doc.items():
        sub = _NESTED.get((cls, name))
        key = f"{path}.{name}" if path else name
        kwargs[name] = (_from_dict(sub, value, key) if sub
                        else _coerce(value, hints[name], key))
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path or 'config'}: {err}") from None


def _coerce(value, hint, key: str):
    """Parse a string in an int or float field; PyYAML reads `1e-3` as a string."""
    if not isinstance(value, str):
        return value
    for kind in (int, float):
        if hint is kind or kind in get_args(hint):
            try:
                return kind(value)
            except ValueError:
                raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}") from None
    return value


@dataclass(frozen=True)
class PotentialSpec:
    name: str = "skew_double_well"
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class IntervalSpec:
    lo: float = -1.1
    hi: float = -1.0


@dataclass(frozen=True)
class DomainSpec:
    lo: float = -1.5
    hi: float = 2.0
    boundary: str = "reflect"


@dataclass(frozen=True)
class AnsatzSpec:
    m: int = 10
    width: float = DEFAULT_WIDTH


@dataclass(frozen=True)
class LadderSpec:
    shells: int = 1
    thresholds: list | None = None


@dataclass(frozen=True)
class EstimateSpec:
    n_paths: int = 2000
    untilted: bool = False


@dataclass(frozen=True)
class RunConfig:
    potential: PotentialSpec = field(default_factory=PotentialSpec)
    sigma: float = 1.0
    stopping_set: IntervalSpec = field(default_factory=IntervalSpec)
    domain: DomainSpec = field(default_factory=DomainSpec)
    epsilon: float = 0.5
    h: float = 1e-3
    dx: float = 1e-3
    seed: int = 20240
    max_steps: int = 10_000_000
    x0: float | None = None
    ansatz: AnsatzSpec = field(default_factory=AnsatzSpec)
    descent: DescentConfig = field(default_factory=DescentConfig)
    ladder: LadderSpec = field(default_factory=LadderSpec)
    estimate: EstimateSpec = field(default_factory=EstimateSpec)
    out_dir: str = "runs"

    # -- construction ---------------------------------------------------------

    @staticmethod
    def from_dict(doc: dict) -> "RunConfig":
        return _from_dict(RunConfig, doc, "")

    @staticmethod
    def load(path) -> "RunConfig":
        with open(path) as fh:
            doc = yaml.safe_load(fh)
        return RunConfig.from_dict(doc or {})

    def to_dict(self) -> dict:
        return asdict(self)

    def save(self, path):
        with open(path, "w") as fh:
            yaml.safe_dump(self.to_dict(), fh, sort_keys=True)

    def with_overrides(self, overrides: dict[str, Any]) -> "RunConfig":
        """Apply dotted-path overrides like {"descent.grad_tol": 0.01}."""
        doc = self.to_dict()
        for dotted, value in overrides.items():
            node = doc
            *parents, leaf = dotted.split(".")
            for part in parents:
                if part not in node or not isinstance(node[part], dict):
                    raise ConfigError(f"unknown config key {dotted!r}")
                node = node[part]
            if leaf not in node:
                raise ConfigError(f"unknown config key {dotted!r}")
            node[leaf] = value
        return RunConfig.from_dict(doc)

    def config_hash(self) -> str:
        text = json.dumps(self.to_dict(), sort_keys=True, default=float)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    # -- derived objects --------------------------------------------------------

    def build_model(self) -> ModelBundle:
        return ModelBundle(
            potential=make_potential(self.potential.name, **self.potential.params),
            observable=constant_observable(self.sigma),
            stopping_set=StoppingSet(self.stopping_set.lo, self.stopping_set.hi),
            domain=SimulationDomain(self.domain.lo, self.domain.hi, self.domain.boundary),
        )

    def sim_config(self, h: float | None = None) -> SimConfig:
        return SimConfig(epsilon=self.epsilon, h=h or self.h,
                         max_steps=self.max_steps, seed=self.seed)

    def descent_sim_config(self) -> SimConfig:
        # a tighter step cap: legitimate controlled paths are far shorter, and
        # runaway line-search probes must fail fast instead of running to the
        # global cap
        return replace(self.sim_config(h=self.descent.h),
                       max_steps=min(self.max_steps, 200_000))

    def start_point(self, model: ModelBundle | None = None) -> float:
        if self.x0 is not None:
            return float(self.x0)
        model = model or self.build_model()
        return default_start_point(model.potential, model.domain, model.stopping_set)


_NESTED = {
    (RunConfig, "potential"): PotentialSpec,
    (RunConfig, "stopping_set"): IntervalSpec,
    (RunConfig, "domain"): DomainSpec,
    (RunConfig, "ansatz"): AnsatzSpec,
    (RunConfig, "descent"): DescentConfig,
    (RunConfig, "ladder"): LadderSpec,
    (RunConfig, "estimate"): EstimateSpec,
}
