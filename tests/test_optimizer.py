import dataclasses

import numpy as np
import pytest

from optforce.ansatz import make_uniform_ansatz
from optforce.dynamics import CensoredPathError, OutOfDomainError, SimConfig, kernel_counts
from optforce.model import ModelBundle, SimulationDomain, StoppingSet, make_scaled_double_well
from optforce.objective import GradientEstimate, make_objective
from optforce.optimizer import (MAX_FIRST_STEP, DescentConfig, DescentTrace,
                                OptimizerError, descend, wolfe_line_search)
from conftest import assert_no_child_left


def quadratic_objective(center=None):
    """Deterministic q(a) = |a - center|^2 / 2 packaged like the MC objective."""

    def evaluate(a, seed):
        a = np.asarray(a, dtype=np.float64)
        c = np.zeros_like(a) if center is None else center
        d = a - c
        return GradientEstimate(value=float(0.5 * d @ d), gradient=d,
                                value_stderr=0.0,
                                gradient_stderr=np.zeros_like(a),
                                n_paths=1, mean_steps=1.0)

    return evaluate


class TestWolfeLineSearch:
    def test_quadratic_exact_minimizer_accepted(self):
        evaluate = quadratic_objective()
        a = np.array([2.0, -1.0])
        est0 = evaluate(a, 0)
        res = wolfe_line_search(a, -a, lambda b: evaluate(b, 0),
                                value0=est0.value, grad0=est0.gradient,
                                c1=1e-4, c2=0.9, alpha_init=1.0, alpha_max=10.0)
        assert res.alpha == pytest.approx(1.0)
        assert res.value == pytest.approx(0.0, abs=1e-14)
        assert not res.fallback

    def test_ascent_direction_rejected(self):
        evaluate = quadratic_objective()
        a = np.array([1.0])
        est0 = evaluate(a, 0)
        with pytest.raises(ValueError):
            wolfe_line_search(a, +a, lambda b: evaluate(b, 0),
                              value0=est0.value, grad0=est0.gradient,
                              c1=1e-4, c2=0.9, alpha_init=1.0, alpha_max=10.0)

    def test_wolfe_conditions_hold_at_accepted_step(self):
        # non-quadratic smooth objective
        def evaluate(a, seed=0):
            a = np.asarray(a, dtype=np.float64)
            val = float(np.sum(np.cosh(a)))
            return GradientEstimate(value=val, gradient=np.sinh(a),
                                    value_stderr=0.0,
                                    gradient_stderr=np.zeros_like(a),
                                    n_paths=1, mean_steps=1.0)

        a = np.array([1.5, -2.0, 0.5])
        est0 = evaluate(a)
        d = -est0.gradient
        c1, c2 = 1e-4, 0.9
        res = wolfe_line_search(a, d, evaluate, value0=est0.value, grad0=est0.gradient,
                                c1=c1, c2=c2, alpha_init=1.0, alpha_max=10.0)
        dphi0 = float(est0.gradient @ d)
        accepted = evaluate(a + res.alpha * d)
        assert accepted.value <= est0.value + c1 * res.alpha * dphi0
        assert abs(float(accepted.gradient @ d)) <= -c2 * dphi0


class TestDescend:
    def test_first_probe_moves_at_most_max_first_step(self):
        # a first gradient norm of about 112: alpha_init = 1 would move the
        # first probe that far, and descend caps it at MAX_FIRST_STEP
        points = []
        evaluate = quadratic_objective()

        def recorded(a, seed):
            points.append(np.array(a, dtype=np.float64))
            return evaluate(a, seed)

        a0 = np.array([100.0, -50.0])
        cfg = DescentConfig(max_iters=1, batch_size=1)
        descend(a0, cfg, recorded, seed=0)
        assert np.linalg.norm(a0) > 100.0 * MAX_FIRST_STEP
        # points[0] is the iterate's own batch, points[1] the first probe
        first_move = float(np.linalg.norm(points[1] - a0))
        assert first_move <= MAX_FIRST_STEP * (1.0 + 1e-12)
        assert first_move == pytest.approx(MAX_FIRST_STEP)

    def test_converges_on_quadratic(self):
        cfg = DescentConfig(max_iters=50, grad_tol=1e-8, batch_size=1)
        center = np.array([1.0, -2.0, 0.5])
        a, trace = descend(np.zeros(3), cfg, quadratic_objective(center), seed=0)
        np.testing.assert_allclose(a, center, atol=1e-6)
        assert trace.converged

    def test_already_optimal_returns_unchanged(self):
        cfg = DescentConfig(max_iters=50, grad_tol=1e-6, batch_size=1)
        center = np.array([0.3, 0.4])
        a, trace = descend(center.copy(), cfg, quadratic_objective(center), seed=0)
        np.testing.assert_array_equal(a, center)
        assert len(trace.records) == 1
        assert trace.records[0].alpha == 0.0
        assert trace.converged

    def test_fixed_reseed_deterministic(self):
        def noisy(a, seed):
            rng = np.random.default_rng(seed)
            a = np.asarray(a, dtype=np.float64)
            g = a + 0.01 * rng.standard_normal(a.size)
            return GradientEstimate(value=float(0.5 * a @ a), gradient=g,
                                    value_stderr=0.001,
                                    gradient_stderr=np.full(a.size, 0.01),
                                    n_paths=100, mean_steps=1.0)

        cfg = DescentConfig(max_iters=10, grad_tol=1e-3, batch_size=1,
                            reseed_policy="fixed")
        a1, t1 = descend(np.array([1.0, 1.0]), cfg, noisy, seed=5)
        a2, t2 = descend(np.array([1.0, 1.0]), cfg, noisy, seed=5)
        np.testing.assert_array_equal(a1, a2)
        assert [r.cost for r in t1.records] == [r.cost for r in t2.records]

    def test_termination_couples_to_gradient_noise(self):
        # true gradient far below its own stderr: stop immediately
        def pure_noise(a, seed):
            rng = np.random.default_rng(seed)
            a = np.asarray(a, dtype=np.float64)
            g = 1e-4 * rng.standard_normal(a.size)
            return GradientEstimate(value=1.0, gradient=g, value_stderr=0.1,
                                    gradient_stderr=np.full(a.size, 1.0),
                                    n_paths=10, mean_steps=1.0)

        cfg = DescentConfig(max_iters=50, grad_tol=1e-9, batch_size=1)
        _, trace = descend(np.array([1.0]), cfg, pure_noise, seed=1)
        assert len(trace.records) == 1
        assert trace.converged

    def test_always_terminates(self):
        def drifting(a, seed):
            a = np.asarray(a, dtype=np.float64)
            return GradientEstimate(value=float(np.sum(a)), gradient=np.ones(a.size),
                                    value_stderr=0.0,
                                    gradient_stderr=np.zeros(a.size),
                                    n_paths=1, mean_steps=1.0)

        cfg = DescentConfig(max_iters=7, grad_tol=1e-9, batch_size=1)
        _, trace = descend(np.zeros(2), cfg, drifting, seed=0)
        assert len(trace.records) == 7
        assert not trace.converged

    def test_a_probe_leaving_an_abort_domain_is_rejected(self):
        # the iterates' batches stay inside; every line-search probe leaves
        iterate = quadratic_objective(np.array([1.0]))
        seeds = set()
        probes = []

        def leaves_on_probes(a, seed):
            if seed in seeds:
                probes.append(seed)
                raise OutOfDomainError("1 path [0] left the domain", [0], 1)
            seeds.add(seed)
            return iterate(a, seed)

        cfg = DescentConfig(max_iters=3, grad_tol=1e-9, batch_size=1)
        _, trace = descend(np.zeros(1), cfg, leaves_on_probes, seed=0)
        assert len(trace.records) == 3
        assert all(r.line_search_fallback for r in trace.records)
        # each record keeps its line search's evaluations, rejected ones too
        assert [r.probes for r in trace.records] == [
            probes.count(cfg.iteration_seed(0, it)) for it in range(3)]
        assert all(r.probes > 0 for r in trace.records)

    def test_needs_an_iteration(self):
        with pytest.raises(ValueError, match="max_iters must be at least 1"):
            DescentConfig(max_iters=0)

    def test_nan_initial_rejected(self):
        cfg = DescentConfig(batch_size=1)
        with pytest.raises(OptimizerError):
            descend(np.array([np.nan]), cfg, quadratic_objective(), seed=0)

    def test_best_seen_cost_not_worse_than_start(self):
        cfg = DescentConfig(max_iters=15, grad_tol=1e-10, batch_size=1,
                            reseed_policy="fixed")
        center = np.array([2.0])
        obj = quadratic_objective(center)
        a0 = np.array([0.0])
        a_best, _ = descend(a0, cfg, obj, seed=0)
        assert obj(a_best, 0).value <= obj(a0, 0).value

    def test_scalar_problem_matches_golden_section(self):
        # 1-basis problem: deterministic surrogate of the CRN objective
        def scalar_obj(a, seed):
            a = np.asarray(a, dtype=np.float64)
            val = float((a[0] - 0.7) ** 2 * (1.0 + 0.1 * np.sin(a[0])) + 1.0)
            g = np.array([2 * (a[0] - 0.7) * (1.0 + 0.1 * np.sin(a[0]))
                          + (a[0] - 0.7) ** 2 * 0.1 * np.cos(a[0])])
            return GradientEstimate(value=val, gradient=g, value_stderr=0.0,
                                    gradient_stderr=np.zeros(1),
                                    n_paths=1, mean_steps=1.0)

        from scipy.optimize import minimize_scalar
        ref = minimize_scalar(lambda t: scalar_obj(np.array([t]), 0).value,
                              bounds=(-2, 3), method="bounded").x
        cfg = DescentConfig(max_iters=100, grad_tol=1e-7, batch_size=1)
        a, _ = descend(np.array([-1.0]), cfg, scalar_obj, seed=0)
        assert a[0] == pytest.approx(ref, abs=2e-5)


class TestDescentTrace:
    def make_trace(self, costs, stderr=0.01):
        trace = DescentTrace()
        from optforce.optimizer import DescentRecord
        for i, c in enumerate(costs):
            trace.append(DescentRecord(iteration=i, cost=c, cost_stderr=stderr,
                                       grad_norm=1.0, grad_stderr_norm=0.1, alpha=0.1,
                                       mean_steps=10.0))
        return trace

    def test_monotone_cost_not_flagged(self):
        trace = self.make_trace(list(np.linspace(10, 1, 12)))
        assert not trace.non_converging

    def test_increasing_cost_flagged(self):
        trace = self.make_trace([10, 9, 8, 7, 6, 5, 6, 7, 8, 9, 10, 11])
        assert trace.non_converging


class TestDescendAhead:
    """descend starts each probe's next iterate in a forked child.

    The objective is a real one (make_objective on a small double well), so
    the children run real batches; the CPU count the process may use is set
    through os.sched_getaffinity.
    """

    X0 = 1.0
    S = StoppingSet(-1.1, -1.0)
    DOMAIN = SimulationDomain(-1.5, 2.0)
    MODEL = ModelBundle(make_scaled_double_well(barrier_scale=0.5, skew=-0.25), 1.0, S,
                        DOMAIN)
    SIM = SimConfig(epsilon=0.5, h=2e-3, max_steps=200_000)
    ANSATZ = make_uniform_ansatz(4, DOMAIN, S, 0.4)

    def objective(self, batch_size=256):
        return make_objective(self.ANSATZ, self.X0, self.MODEL, self.SIM,
                              indices=np.arange(self.ANSATZ.m), n_paths=batch_size)

    def test_one_and_two_cpus_give_the_same_descent(self, cpus):
        cfg = DescentConfig(max_iters=4, grad_tol=1e-9, batch_size=256)
        runs = []
        for n in (1, 2):
            cpus(n)
            before = kernel_counts()
            a, trace = descend(self.ANSATZ.coefficients, cfg, self.objective(), seed=3)
            used = kernel_counts() - before
            runs.append((a, trace, [used.batches_ahead, used.batches_ahead_used]))
            assert_no_child_left()
        (a1, trace1, counts1), (a2, trace2, counts2) = runs
        np.testing.assert_array_equal(a2, a1)
        assert trace2.records == trace1.records
        assert counts1 == [0, 0]
        # every probe but the last iteration's runs ahead; an accepted one is joined
        assert counts2[0] == sum(r.probes for r in trace2.records[:-1])
        assert counts2[1] == sum(not r.line_search_fallback for r in trace2.records[:-1])
        assert counts2[1] > 0

    def iteration_1_iterate(self, objective, change):
        """objective, but the estimate at iteration 1's iterate goes through change."""
        seeds = set()
        target = DescentConfig().iteration_seed(3, 1)

        def evaluate(a, seed):
            first = seed not in seeds
            seeds.add(seed)
            if first and seed == target:
                return change(objective, a, seed)
            return objective(a, seed)

        evaluate.ahead = objective.ahead
        return evaluate

    @staticmethod
    def converges(objective, a, seed):
        est = objective(a, seed)
        return dataclasses.replace(est, gradient=np.zeros_like(est.gradient))

    @staticmethod
    def inf_gradient(objective, a, seed):
        est = objective(a, seed)
        return dataclasses.replace(est, gradient=np.full_like(est.gradient, np.inf))

    @staticmethod
    def raises(objective, a, seed):
        raise CensoredPathError("3/256 paths did not hit within max_steps=10")

    @staticmethod
    def probes_fail(objective):
        seeds = set()

        def evaluate(a, seed):
            if seed in seeds:
                raise CensoredPathError("1/256 paths did not hit within max_steps=10")
            seeds.add(seed)
            return objective(a, seed)

        evaluate.ahead = objective.ahead
        return evaluate

    @pytest.mark.parametrize("ending", ["convergence", "max_iters", "line-search fallback",
                                        "OptimizerError", "iterate batch raises"])
    def test_no_child_is_left_after_any_ending(self, cpus, ending):
        cpus(2)
        # two iterations: the first starts children at its probes, the second
        # ends the descent
        cfg = DescentConfig(max_iters=2, grad_tol=1e-9, batch_size=256)
        objective = self.objective()
        if ending == "convergence":
            objective = self.iteration_1_iterate(objective, self.converges)
        elif ending == "line-search fallback":
            objective = self.probes_fail(objective)
        elif ending == "OptimizerError":
            objective = self.iteration_1_iterate(objective, self.inf_gradient)
        elif ending == "iterate batch raises":
            objective = self.iteration_1_iterate(objective, self.raises)
        seeds = []

        def counted(a, seed):
            seeds.append(seed)
            return objective(a, seed)

        counted.ahead = objective.ahead
        started = kernel_counts().batches_ahead
        if ending == "OptimizerError":
            with pytest.raises(OptimizerError, match="non-finite at iteration 1"):
                descend(self.ANSATZ.coefficients, cfg, counted, seed=3)
            # iteration 1 evaluated its iterate and ran no probe
            assert seeds.count(cfg.iteration_seed(3, 1)) == 1
        elif ending == "iterate batch raises":
            with pytest.raises(CensoredPathError):
                descend(self.ANSATZ.coefficients, cfg, counted, seed=3)
        else:
            _, trace = descend(self.ANSATZ.coefficients, cfg, counted, seed=3)
            assert trace.converged == (ending == "convergence")
            assert len(trace.records) == 2
            assert trace.records[0].line_search_fallback == (ending == "line-search fallback")
        if ending == "line-search fallback":
            # the first probe starts the next iterate ahead and fails; no
            # later probe of the iteration starts one
            assert trace.records[0].probes > 1
            assert kernel_counts().batches_ahead == started + 1
        assert kernel_counts().batches_ahead > started
        assert_no_child_left()

    def test_fixed_seeds_reuse_the_accepted_probe(self):
        # an objective that ignores the seed evaluates the same points under
        # "fresh" and "fixed"; "fixed" reuses the accepted probe's estimate
        def cosh(a, seed):
            calls.append(seed)
            a = np.asarray(a, dtype=np.float64)
            return GradientEstimate(value=float(np.sum(np.cosh(a))), gradient=np.sinh(a),
                                    value_stderr=0.0, gradient_stderr=np.zeros_like(a),
                                    n_paths=1, mean_steps=1.0)

        runs = []
        for policy in ("fresh", "fixed"):
            calls = []
            cfg = DescentConfig(max_iters=12, grad_tol=1e-6, batch_size=1,
                                reseed_policy=policy)
            a, trace = descend(np.array([1.5, -2.0, 0.5]), cfg, cosh, seed=0)
            runs.append((a, trace, len(calls)))
        (a_fresh, fresh, n_fresh), (a_fixed, fixed, n_fixed) = runs
        np.testing.assert_array_equal(a_fixed, a_fresh)
        assert fixed.records == fresh.records
        reused = sum(not r.line_search_fallback for r in fixed.records[:-1])
        assert reused > 0
        assert n_fixed == n_fresh - reused
