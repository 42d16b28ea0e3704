import numpy as np
import pytest

import optforce.milestoning
import optforce.objective
from optforce.ansatz import make_uniform_ansatz
from optforce.config import ConfigError, RunConfig
from optforce.dynamics import SimConfig
from optforce.milestoning import (MilestoneLadder, MilestoningError, build_ladder,
                                  largest_seed, run_milestoning, solve_shell)
from optforce.model import (ModelBundle, SimulationDomain, StoppingSet,
                            make_scaled_double_well)
from optforce.objective import make_objective
from optforce.optimizer import RESEED_STRIDE, DescentConfig, descend

DOMAIN = SimulationDomain(-1.5, 2.0)
S = StoppingSet(-1.1, -1.0)


def easy_model():
    return ModelBundle(make_scaled_double_well(barrier_scale=0.5, skew=-0.25),
                       1.0, S, DOMAIN)


def quick_cfgs(batch=256, iters=8):
    sim = SimConfig(epsilon=0.5, h=2e-3, max_steps=200_000)
    dc = DescentConfig(max_iters=iters, grad_tol=0.05, batch_size=batch)
    return sim, dc


class TestBuildLadder:
    def test_three_shells_uniform_thresholds(self):
        ladder = build_ladder(S, DOMAIN, 3)
        np.testing.assert_allclose(ladder.thresholds, [-1.0, 0.0, 1.0, 2.0])
        assert ladder.n_shells == 3

    def test_single_shell_is_whole_complement(self):
        ladder = build_ladder(S, DOMAIN, 1)
        np.testing.assert_allclose(ladder.thresholds, [-1.0, 2.0])

    def test_needs_positive_count(self):
        with pytest.raises(ValueError):
            build_ladder(S, DOMAIN, 0)

    def test_strictly_increasing_validated(self):
        with pytest.raises(ValueError):
            MilestoneLadder(np.array([-1.0, 1.0, 0.5]), S)

    def test_one_basis_function_per_shell(self):
        ladder = build_ladder(S, DOMAIN, 10)
        ansatz = make_uniform_ansatz(10, DOMAIN, S, 0.3)
        groups = [ladder.shell_indices(ansatz, i) for i in range(ladder.n_shells)]
        assert [g.tolist() for g in groups] == [[i] for i in range(10)]

    def test_empty_shell_rejected(self):
        # three centers at -1, 0.5 and 2 leave shell 1 empty in both ladders;
        # the run is rejected at load, naming the field
        layout = make_uniform_ansatz(3, DOMAIN, S, 0.3)
        thresholds = [-1.0, 0.0, 0.2, 2.0]
        for field, ladder, value in [
                ("ladder.shells", build_ladder(S, DOMAIN, 10), 10),
                ("ladder.thresholds", MilestoneLadder(thresholds, S), thresholds)]:
            assert ladder.shell_indices(layout, 1).size == 0
            with pytest.raises(ConfigError, match=f"{field}: shell 1 of {ladder.n_shells} "
                                                  "holds none of the 3 basis centers"):
                RunConfig().with_overrides({field: value, "ansatz.m": 3})

    def test_every_basis_function_assigned_once(self):
        ladder = build_ladder(S, DOMAIN, 3)
        ansatz = make_uniform_ansatz(10, DOMAIN, S, 0.3)
        all_idx = np.concatenate([ladder.shell_indices(ansatz, i) for i in range(3)])
        np.testing.assert_array_equal(np.sort(all_idx), np.arange(10))

    @pytest.mark.parametrize("overrides,thresholds", [
        ({}, [-1.0, 2.0]),
        ({"ladder.shells": 3}, [-1.0, 0.0, 1.0, 2.0]),
        ({"ladder.thresholds": [-1, 0.5, 2]}, [-1.0, 0.5, 2.0]),
    ])
    def test_the_config_builds_the_run_ladder(self, overrides, thresholds):
        cfg = RunConfig().with_overrides(overrides)
        ladder = cfg.build_ladder(cfg.build_model())
        np.testing.assert_allclose(ladder.thresholds, thresholds)


class TestSolveShell:
    def test_zero_observable_keeps_coefficients_near_zero(self):
        # zero running cost, zero terminal: control only adds cost
        model = ModelBundle(easy_model().potential, 0.0,
                            S, DOMAIN)
        sim, dc = quick_cfgs(batch=256, iters=6)
        ladder = build_ladder(S, DOMAIN, 1)
        ansatz = make_uniform_ansatz(4, DOMAIN, S, 0.4)
        updated, trace, cost = solve_shell(0, ladder, ansatz, model, sim, dc,
                                           seed=3, start=1.0)
        assert cost == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(updated.coefficients, 0.0, atol=1e-12)

    def test_innermost_shell_equals_plain_descend(self):
        model = easy_model()
        sim, dc = quick_cfgs()
        ladder = build_ladder(S, DOMAIN, 1)
        ansatz = make_uniform_ansatz(4, DOMAIN, S, 0.4)
        updated, trace, _ = solve_shell(0, ladder, ansatz, model, sim, dc,
                                        seed=3, start=1.0)
        objective = make_objective(ansatz, 1.0, model, sim, indices=np.arange(ansatz.m),
                                   n_paths=dc.batch_size)
        a_plain, trace_plain = descend(ansatz.coefficients, dc, objective, seed=3)
        np.testing.assert_array_equal(updated.coefficients, a_plain)

    def test_boundary_consistency_exact(self):
        # the value reported on an inner threshold equals the terminal used
        # by the next shell, by construction
        model = easy_model()
        sim, dc = quick_cfgs(batch=128, iters=4)
        ladder = build_ladder(S, DOMAIN, 2)
        ansatz = make_uniform_ansatz(6, DOMAIN, S, 0.4)
        result = run_milestoning(ladder, ansatz, model, sim, dc, seed=3)
        np.testing.assert_array_equal(result.anchors,
                                      [0.0, *(t.costs.min() for t in result.shell_traces)])


class TestRunMilestoning:
    def test_k1_identical_to_descend_same_seed(self):
        model = easy_model()
        sim, dc = quick_cfgs()
        ansatz = make_uniform_ansatz(4, DOMAIN, S, 0.4)
        ladder = build_ladder(S, DOMAIN, 1)
        x0 = 1.0
        result = run_milestoning(ladder, ansatz, model, sim, dc, seed=3, x0=x0)
        objective = make_objective(ansatz, x0, model, sim, indices=np.arange(ansatz.m),
                                   n_paths=dc.batch_size)
        a_plain, _ = descend(ansatz.coefficients, dc, objective, seed=3)
        np.testing.assert_array_equal(result.ansatz.coefficients, a_plain)

    def test_failing_shell_raises_naming_it(self):
        model = easy_model()
        sim = SimConfig(epsilon=0.5, h=2e-3, max_steps=60)
        dc = DescentConfig(max_iters=2, grad_tol=0.05, batch_size=64)
        ansatz = make_uniform_ansatz(4, DOMAIN, S, 0.4)
        ladder = build_ladder(S, DOMAIN, 2)
        with pytest.raises(MilestoningError, match=r"shell \d failed"):
            run_milestoning(ladder, ansatz, model, sim, dc, seed=3)

    def test_a_programming_error_in_a_shell_propagates_as_itself(self, monkeypatch):
        # only path and descent failures become a MilestoningError naming the shell
        def broken(*args, **kwargs):
            raise TypeError("broken descent")

        monkeypatch.setattr(optforce.milestoning, "descend", broken)
        sim, dc = quick_cfgs()
        ansatz = make_uniform_ansatz(4, DOMAIN, S, 0.4)
        with pytest.raises(TypeError, match="^broken descent$"):
            run_milestoning(build_ladder(S, DOMAIN, 2), ansatz, easy_model(), sim, dc,
                            seed=3)

    def test_a_censoring_iterate_stops_the_shell_at_once(self, monkeypatch):
        # the first iterate's batch censors paths; no further batch is run
        calls = []
        run_batch = optforce.objective.run_batch

        def counting(*args, **kwargs):
            calls.append(kwargs.get("seed"))
            return run_batch(*args, **kwargs)

        monkeypatch.setattr(optforce.objective, "run_batch", counting)
        sim = SimConfig(epsilon=0.5, h=2e-3, max_steps=600)
        dc = DescentConfig(max_iters=2, grad_tol=0.05, batch_size=64)
        ansatz = make_uniform_ansatz(4, DOMAIN, S, 0.4)
        with pytest.raises(MilestoningError, match="did not hit"):
            run_milestoning(build_ladder(S, DOMAIN, 2), ansatz, easy_model(), sim, dc,
                            seed=3)
        assert len(calls) == 1


@pytest.mark.parametrize("policy,top", [("fresh", 7 + 4 * RESEED_STRIDE), ("fixed", 7)])
def test_the_largest_seed_is_the_last_shells_at_its_last_iteration(policy, top):
    # three shells from seed 5 descend from 5, 6 and 7
    assert largest_seed(5, 3, DescentConfig(max_iters=4, reseed_policy=policy)) == top
