"""Run configuration: defaults, YAML round-trip, overrides and hashing.

Every field has a documented default reproducing the headline experiment
(temperature 0.5, 10 Gaussians, target interval [-1.1, -1], 2000-path
estimates).  Unknown keys are rejected by name so a typo in a config file
fails loudly instead of silently running defaults.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from typing import Any, get_args, get_type_hints

from .ansatz import GaussianAnsatz, make_uniform_ansatz
from .dynamics import MAX_SEED, SimConfig
from .milestoning import MilestoneLadder, build_ladder as uniform_ladder, largest_seed
from .model import (POTENTIALS, ModelBundle, SimulationDomain, StoppingSet,
                    default_start_point, make_potential)
from .optimizer import DescentConfig
from .reference import build_grid

# The experiment's "width 0.1" is read as the variance of the Gaussian bumps;
# stored here as the standard deviation sqrt(0.1).
DEFAULT_WIDTH = 0.31622776601683794


class ConfigError(ValueError):
    """Malformed run configuration."""


def _from_dict(cls, doc: dict, path: str, default=None):
    """cls from a mapping; a nested mapping fills in the keys it sets on its
    field's default, so it may set only some of them."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'config'} must be a mapping, got {type(doc).__name__}")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ConfigError(f"unknown config keys at {path or 'top level'}: {', '.join(unknown)}")
    hints = get_type_hints(cls)
    kwargs = {}
    for name, value in doc.items():
        hint = hints[name]
        key = f"{path}.{name}" if path else name
        kwargs[name] = (_from_dict(hint, value, key, known[name].default_factory())
                        if is_dataclass(hint) else _coerce(value, hint, key))
    try:
        return cls(**kwargs) if default is None else replace(default, **kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path or 'config'}: {err}") from None


def _require(ok: bool, field_name: str, rule: str, value):
    """Range check for RunConfig.__post_init__; _from_dict reports it as a ConfigError."""
    if not ok:
        raise ValueError(f"{field_name} must be {rule}, got {value!r}")


def _coerce(value, hint, key: str):
    """Parse a string in an int or float field; PyYAML reads `1e-3` as a string.

    A list or mapping there is rejected by the field's dotted key, before a
    range check would fail on it with a comparison error that names no field.
    """
    for kind in (int, float):
        if hint is kind or kind in get_args(hint):
            wrong = ConfigError(f"{key} must be {kind.__name__}, got {value!r}")
            if isinstance(value, (list, dict)):
                raise wrong
            try:
                return kind(value) if isinstance(value, str) else value
            except ValueError:
                raise wrong from None
    return value


@dataclass(frozen=True)
class PotentialSpec:
    name: str = "skew_double_well"
    params: dict = field(default_factory=dict)


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
    stopping_set: StoppingSet = field(default_factory=lambda: StoppingSet(-1.1, -1.0))
    domain: SimulationDomain = field(default_factory=lambda: SimulationDomain(-1.5, 2.0))
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

    def __post_init__(self):
        pot = self.potential
        _require(pot.name in POTENTIALS, "potential.name", f"one of {sorted(POTENTIALS)}",
                 pot.name)
        _require(self.sigma >= 0, "sigma", "nonnegative", self.sigma)
        _require(self.epsilon > 0, "epsilon", "positive", self.epsilon)
        _require(self.h > 0, "h", "positive", self.h)
        _require(self.dx > 0, "dx", "positive", self.dx)
        _require(self.seed >= 0, "seed", "nonnegative", self.seed)
        _require(self.max_steps >= 1, "max_steps", "at least 1", self.max_steps)
        a, d, e = self.ansatz, self.descent, self.estimate
        _require(a.m >= 1, "ansatz.m", "at least 1", a.m)
        _require(a.width > 0, "ansatz.width", "positive", a.width)
        _require(self.ladder.shells >= 1, "ladder.shells", "at least 1", self.ladder.shells)
        # a Monte Carlo gradient or estimate needs two paths (DescentConfig
        # alone also drives deterministic objectives at batch_size 1)
        _require(d.batch_size >= 2, "descent.batch_size", "at least 2", d.batch_size)
        _require(d.h is None or d.h > 0, "descent.h", "positive", d.h)
        _require(e.n_paths >= 2, "estimate.n_paths", "at least 2", e.n_paths)
        model = self.build_model()
        stop, dom = self.stopping_set, self.domain
        _require(self.x0 is None or stop.hi < self.x0 <= dom.hi, "x0",
                 f"in ({stop.hi}, {dom.hi}], right of the stopping set", self.x0)
        try:
            build_grid(model.stopping_set, model.domain, self.dx)
        except ValueError as err:
            raise ValueError(f"dx: {err}") from None
        # every seed a run derives must fit in a Philox key word
        top = largest_seed(self.seed, self.build_ladder(model).n_shells, d)
        _require(top <= MAX_SEED, "seed", f"at most {MAX_SEED - (top - self.seed)}, "
                 f"so that the largest seed the run derives ({top}) fits in 64 bits",
                 self.seed)

    # -- construction ---------------------------------------------------------

    @staticmethod
    def from_dict(doc: dict) -> "RunConfig":
        return _from_dict(RunConfig, doc, "")

    @staticmethod
    def load(path) -> "RunConfig":
        import yaml   # here, not at module level: runs without a config file skip it
        with open(path) as fh:
            try:
                doc = yaml.safe_load(fh)
            except yaml.YAMLError as err:
                raise ConfigError(f"{path} is not valid YAML: {err}") from None
        return RunConfig.from_dict(doc or {})

    def to_dict(self) -> dict:
        return asdict(self)

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
        """The run's model; a ValueError names the field at fault."""
        try:
            potential = make_potential(self.potential.name, **self.potential.params)
        except (TypeError, ValueError) as err:
            raise ValueError(f"potential.params: {err}") from None
        try:
            return ModelBundle(potential=potential, sigma=float(self.sigma),
                               stopping_set=self.stopping_set, domain=self.domain)
        except ValueError as err:
            raise ValueError(f"stopping_set: {err}") from None

    def build_ansatz(self) -> GaussianAnsatz:
        """The run's basis layout: `ansatz.m` uniform Gaussians, all coefficients zero."""
        return make_uniform_ansatz(self.ansatz.m, self.domain, self.stopping_set,
                                   self.ansatz.width)

    def build_ladder(self, model: ModelBundle) -> MilestoneLadder:
        """The run's ladder: `ladder.thresholds`, or `ladder.shells` uniform shells.

        A ValueError names the field if a shell holds none of the `ansatz.m`
        uniform basis centers.
        """
        spec = self.ladder
        name = "ladder.shells" if spec.thresholds is None else "ladder.thresholds"
        try:
            ladder = (uniform_ladder(model.stopping_set, model.domain, spec.shells)
                      if spec.thresholds is None
                      else MilestoneLadder(spec.thresholds, model.stopping_set))
        except (TypeError, ValueError) as err:
            raise ValueError(f"{name}: {err}") from None
        layout = self.build_ansatz()
        for i in range(ladder.n_shells):
            if ladder.shell_indices(layout, i).size == 0:
                raise ValueError(f"{name}: shell {i} of {ladder.n_shells} holds none of "
                                 f"the {self.ansatz.m} basis centers; use fewer shells "
                                 "or more basis functions")
        return ladder

    def sim_config(self, h: float | None = None) -> SimConfig:
        return SimConfig(epsilon=self.epsilon, h=h or self.h, max_steps=self.max_steps)

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

