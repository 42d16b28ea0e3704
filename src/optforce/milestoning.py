"""Nested-set outer loop: solve the control problem shell by shell.

Shell i lives between thresholds r_i and r_{i+1}; its trajectories start at
the outer threshold, stop at first entry into the inner region, and carry
the already-learned value at the crossing point as a terminal cost.  Only
the shell's own basis coefficients are optimized; inner coefficients stay
frozen, and outer ones keep their starting values.  `optforce optimize`
starts from the `init_fill_wells` fit, so while an inner shell is solved the
outer shells' part of that fit still forces the paths that wander outward.
Working inward-out this composes the value function from short trajectories
only.

A plain descent is the one-shell ladder, so `optforce optimize` always runs
a ladder: one shell by default, started at x0.  `RunConfig.build_ladder`
owns a run's ladder and rejects one that ends left of x0 or right of the
domain, or with a shell that holds no basis center.
This module owns the seeds a ladder run derives: shell i descends from
shell_seed(seed, i), and largest_seed is the bound RunConfig checks at load.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ansatz import GaussianAnsatz
from .dynamics import PathFailure, SimConfig
from .model import ModelBundle, StoppingSet
from .objective import make_objective
from .optimizer import DescentConfig, DescentTrace, OptimizerError, descend


@dataclass(frozen=True)
class MilestoneLadder:
    """Increasing thresholds r_0 < ... < r_K; S_i is everything left of r_i.

    r_0 is the right edge of the target set and shell i (i = 0..K-1) is the
    slab (r_i, r_{i+1}].  The outermost shell starts its paths at x0, so a
    run's r_K lies anywhere in [x0, domain.hi] (RunConfig.build_ladder); a
    uniform ladder (build_ladder) ends at the right domain edge.
    """

    thresholds: np.ndarray
    stopping_set: StoppingSet

    def __post_init__(self):
        t = np.asarray(self.thresholds, dtype=np.float64)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("need at least two thresholds (one shell)")
        if np.any(np.diff(t) <= 0):
            raise ValueError("thresholds must be strictly increasing")
        if abs(t[0] - self.stopping_set.hi) > 1e-12:
            raise ValueError("first threshold must be the right edge of the target set")
        object.__setattr__(self, "thresholds", t)

    @property
    def n_shells(self) -> int:
        return self.thresholds.size - 1

    def shell_indices(self, ansatz: GaussianAnsatz, i: int) -> np.ndarray:
        """Indices of basis functions whose centers fall inside shell i."""
        lo, hi = self.thresholds[i], self.thresholds[i + 1]
        inside = (ansatz.centers > lo) & (ansatz.centers <= hi)
        if i == 0:
            inside |= ansatz.centers <= lo   # centers on/left of r_0 belong innermost
        return np.where(inside)[0]

    def start(self, i: int, x0: float | None = None) -> float:
        """Where shell i's paths start: x0 in the outermost shell when x0 lies
        in it, otherwise the shell's outer threshold r_{i+1}."""
        lo, hi = self.thresholds[i], self.thresholds[i + 1]
        if x0 is not None and i == self.n_shells - 1 and lo < x0 <= hi:
            return float(x0)
        return float(hi)


def shell_seed(seed: int, i: int) -> int:
    """The seed shell i of a ladder run from seed descends from."""
    return seed + i


def largest_seed(seed: int, n_shells: int, descent_cfg: DescentConfig) -> int:
    """The largest seed a ladder run of n_shells shells from seed derives:
    the last shell's at the descent's last iteration."""
    return descent_cfg.iteration_seed(shell_seed(seed, n_shells - 1),
                                      descent_cfg.max_iters - 1)


def build_ladder(s0: StoppingSet, domain, k: int) -> MilestoneLadder:
    """k shells with thresholds uniformly spaced from S's right edge to the domain edge."""
    thresholds = np.linspace(s0.hi, domain.hi, k + 1)
    return MilestoneLadder(thresholds=thresholds, stopping_set=s0)


@dataclass
class MilestoningResult:
    """Composed ansatz plus the level anchors that stitch shells together.

    The cost functional only sees the control (the value's gradient), so each
    shell's level is pinned by the cost of the shell inside it: anchors[0] = 0
    on the target boundary and anchors[i+1] is the cost of the iterate shell
    i's descent returned (its trace's `returned` record), the learned value
    on threshold r_{i+1}.
    """

    ansatz: GaussianAnsatz
    shell_traces: list[DescentTrace]
    anchors: np.ndarray                # level at each threshold r_0..r_K


def solve_shell(i: int, ladder: MilestoneLadder, ansatz: GaussianAnsatz,
                model: ModelBundle, sim_cfg: SimConfig, descent_cfg: DescentConfig,
                *, seed: int, start: float | None = None, anchor: float = 0.0):
    """Optimize shell i's coefficients; shells 0..i-1 must already be solved.

    Trajectories stop at first entry into S_i: the true target set for the
    innermost shell, the slab boundary r_i otherwise.  The terminal cost is
    the value learned inside: the level `anchor` on the inner threshold
    (zero for the innermost shell, whose boundary condition is value 0 on the
    target boundary) plus the inner shells' Gaussian shape at the crossing
    point.  Returns (updated full ansatz, trace, the cost of the returned
    iterate).  An iterate whose batch censors a path raises CensoredPathError
    at once.
    """
    indices = ladder.shell_indices(ansatz, i)
    if indices.size == 0:
        raise ValueError(f"shell {i} has an empty basis")
    if i == 0:
        stop = model.stopping_set
        terminal = None
    else:
        r_inner = float(ladder.thresholds[i])
        stop = StoppingSet(model.domain.lo, r_inner)
        inner = ansatz.with_coefficients(
            np.where(ansatz.centers <= r_inner, ansatz.coefficients, 0.0))
        inner_at_r = float(inner.value(r_inner))
        terminal = lambda x: anchor + inner.value(x) - inner_at_r

    shell_model = replace(model, stopping_set=stop)
    x_start = ladder.start(i) if start is None else float(start)

    objective = make_objective(ansatz, x_start, shell_model, sim_cfg,
                               indices=indices, terminal_value=terminal,
                               n_paths=descent_cfg.batch_size)
    a_shell, trace = descend(ansatz.coefficients[indices], descent_cfg, objective,
                             seed=seed)
    full = ansatz.coefficients.copy()
    full[indices] = a_shell
    return ansatz.with_coefficients(full), trace, float(trace.records[trace.returned].cost)


def run_milestoning(ladder: MilestoneLadder, ansatz: GaussianAnsatz,
                    model: ModelBundle, sim_cfg: SimConfig,
                    descent_cfg: DescentConfig, *, seed: int,
                    x0: float | None = None) -> MilestoningResult:
    """Solve all shells inward-out and return the composed ansatz plus traces.

    Shell i's paths start at ladder.start(i, x0): x0 for the outermost shell
    when it lies in that shell (so a one-shell ladder reproduces plain
    descent exactly), the outer threshold otherwise.  A shell
    whose paths or descent fail raises MilestoningError naming it.
    """
    traces: list[DescentTrace] = []
    anchors = [0.0]
    current = ansatz
    for i in range(ladder.n_shells):
        try:
            current, trace, cost = solve_shell(i, ladder, current, model, sim_cfg,
                                               descent_cfg, seed=shell_seed(seed, i),
                                               start=ladder.start(i, x0),
                                               anchor=anchors[-1])
        except (PathFailure, OptimizerError) as err:
            raise MilestoningError(f"shell {i} failed: {err}") from err
        traces.append(trace)
        anchors.append(cost)
    return MilestoningResult(ansatz=current, shell_traces=traces,
                             anchors=np.array(anchors))


class MilestoningError(RuntimeError):
    """A shell solve failed.

    The message names the shell and the cause, such as a batch whose paths
    did not all hit within max_steps.
    """
