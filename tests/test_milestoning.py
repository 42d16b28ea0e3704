import numpy as np
import pytest

from optforce.ansatz import make_uniform_ansatz
from optforce.dynamics import SimConfig
from optforce.milestoning import (MilestoneLadder, MilestoningError, build_ladder,
                                  run_milestoning, solve_shell)
from optforce.model import (ModelBundle, SimulationDomain, StoppingSet,
                            constant_observable, make_scaled_double_well)
from optforce.objective import make_objective
from optforce.optimizer import DescentConfig, descend

DOMAIN = SimulationDomain(-1.5, 2.0)
S = StoppingSet(-1.1, -1.0)


def easy_model():
    return ModelBundle(make_scaled_double_well(barrier_scale=0.5, skew=-0.25),
                       constant_observable(1.0), S, DOMAIN)


def quick_cfgs(batch=256, iters=8):
    sim = SimConfig(epsilon=0.5, h=2e-3, max_steps=200_000, seed=3)
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
        groups = ladder.assign(ansatz)
        assert all(g.size == 1 for g in groups)

    def test_empty_shell_rejected(self):
        ladder = build_ladder(S, DOMAIN, 10)
        ansatz = make_uniform_ansatz(3, DOMAIN, S, 0.3)
        with pytest.raises(ValueError, match="no basis functions"):
            ladder.assign(ansatz)

    def test_every_basis_function_assigned_once(self):
        ladder = build_ladder(S, DOMAIN, 3)
        ansatz = make_uniform_ansatz(10, DOMAIN, S, 0.3)
        groups = ladder.assign(ansatz)
        all_idx = np.concatenate(groups)
        np.testing.assert_array_equal(np.sort(all_idx), np.arange(10))


class TestSolveShell:
    def test_zero_observable_keeps_coefficients_near_zero(self):
        # zero running cost, zero terminal: control only adds cost
        model = ModelBundle(easy_model().potential, constant_observable(0.0),
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
        objective = make_objective(ansatz, 1.0, model, sim, n_paths=dc.batch_size)
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
        r1 = float(ladder.thresholds[1])
        assert result.value(r1) == pytest.approx(result.anchors[1], abs=1e-12)
        np.testing.assert_array_equal(result.boundary_values, result.anchors[1:])


class TestRunMilestoning:
    def test_k1_identical_to_descend_same_seed(self):
        model = easy_model()
        sim, dc = quick_cfgs()
        ansatz = make_uniform_ansatz(4, DOMAIN, S, 0.4)
        ladder = build_ladder(S, DOMAIN, 1)
        x0 = 1.0
        result = run_milestoning(ladder, ansatz, model, sim, dc, seed=3, x0=x0)
        objective = make_objective(ansatz, x0, model, sim, n_paths=dc.batch_size)
        a_plain, _ = descend(ansatz.coefficients, dc, objective, seed=3)
        np.testing.assert_array_equal(result.ansatz.coefficients, a_plain)

    def test_two_shell_value_agrees_with_single_shot(self):
        model = easy_model()
        sim, dc = quick_cfgs(batch=512, iters=12)
        ansatz = make_uniform_ansatz(6, DOMAIN, S, 0.4)
        x0 = 1.0
        r2 = run_milestoning(build_ladder(S, DOMAIN, 2), ansatz, model, sim, dc,
                             seed=3, x0=x0)
        r1 = run_milestoning(build_ladder(S, DOMAIN, 1), ansatz, model, sim, dc,
                             seed=3, x0=x0)
        threshold = max(dc.grad_tol,
                        2 * r1.shell_traces[0].records[-1].grad_stderr_norm)
        probes = np.linspace(-0.9, x0, 5)
        diff = np.abs(r2.value(probes) - r1.value(probes))
        assert np.max(diff) <= 2 * threshold

    def test_partial_results_preserved_on_failure(self):
        model = easy_model()
        sim = SimConfig(epsilon=0.5, h=2e-3, max_steps=60, seed=3)
        dc = DescentConfig(max_iters=2, grad_tol=0.05, batch_size=64)
        ansatz = make_uniform_ansatz(4, DOMAIN, S, 0.4)
        ladder = build_ladder(S, DOMAIN, 2)
        with pytest.raises(MilestoningError) as err:
            run_milestoning(ladder, ansatz, model, sim, dc, seed=3)
        assert err.value.partial is not None

    def test_anchored_value_function_is_piecewise_consistent(self):
        model = easy_model()
        sim, dc = quick_cfgs(batch=128, iters=4)
        ansatz = make_uniform_ansatz(6, DOMAIN, S, 0.4)
        result = run_milestoning(build_ladder(S, DOMAIN, 3), ansatz, model, sim, dc,
                                 seed=3)
        # zero at the target boundary, continuous ramps within shells
        assert result.value(-1.0) == pytest.approx(0.0, abs=1e-12)
        xs = np.linspace(-0.99, 1.99, 50)
        vals = result.value(xs)
        assert np.all(np.isfinite(vals))
