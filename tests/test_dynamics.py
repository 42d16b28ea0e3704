import dataclasses
import errno
import hashlib
import os
import pickle
import re
import threading

import numpy as np
import pytest

import optforce.dynamics
from optforce.ansatz import make_uniform_ansatz
from optforce.dynamics import (FEW_ROWS, KERNEL_CHUNK, NOISE_BLOCK, CensoredPathError,
                               NumericalFailureError, OutOfDomainError, PathFailure,
                               SimConfig, MAX_SEED, drop_ahead, kernel_counts, path_stream,
                               run_batch, run_batch_ahead)
from optforce.model import (ModelBundle, Potential, SimulationDomain, StoppingSet,
                            make_flat, make_harmonic, make_potential)
from blas_rounding import skip_unless_recorded_gemv
from conftest import assert_no_child_left
from scalar_oracle import (FieldControl, Trajectory, discrete_action, em_step,
                           log_likelihood_ratio, simulate_until_hit)

EPS = 0.5
CFG = SimConfig(epsilon=EPS, h=0.01, max_steps=200_000)
DOMAIN = SimulationDomain(-4.0, 4.0)


def linear_potential(slope):
    return Potential(lambda x: slope * np.asarray(x, dtype=np.float64),
                     lambda x: np.full_like(np.asarray(x, dtype=np.float64), slope))


class TestEmStep:
    def test_zero_drift_zero_noise(self):
        assert em_step(0.0, 0.0, 0.0, CFG, make_flat()) == pytest.approx(0.0)

    def test_pure_noise_term(self):
        # sqrt(2 * 0.01 * 0.5) = 0.1
        assert em_step(0.0, 0.0, 1.0, CFG, make_flat()) == pytest.approx(0.1)

    def test_drift_term(self):
        p = make_potential("skew_double_well")
        expected = 1.0 - 0.01 * float(p.gradient(1.0))
        assert em_step(1.0, 0.0, 0.0, CFG, p) == pytest.approx(expected)
        assert expected == pytest.approx(1.005)   # gradient at 1 is -0.5

    def test_control_term(self):
        got = em_step(0.0, 2.0, 0.0, CFG, make_flat())
        assert got == pytest.approx(0.01 * np.sqrt(2.0) * 2.0)

    def test_reflection(self):
        dom = SimulationDomain(-1.0, 1.0)
        # push past the right edge; folded back inside
        got = em_step(0.95, 0.0, 1.0, CFG, make_flat(), dom)
        assert got == pytest.approx(2.0 - (0.95 + 0.1))
        assert dom.contains(got)

    def test_abort_boundary(self):
        dom = SimulationDomain(-1.0, 1.0, boundary="abort")
        with pytest.raises(Exception):
            em_step(0.99, 0.0, 3.0, CFG, make_flat(), dom)

    def test_nonfinite_raises(self):
        bad = Potential(lambda x: x, lambda x: np.full_like(np.asarray(x, float), np.nan))
        with pytest.raises(NumericalFailureError):
            em_step(0.0, 0.0, 0.0, CFG, bad)


class TestSimulateUntilHit:
    def test_x0_inside_rejected(self):
        s = StoppingSet(-0.1, 0.1)
        with pytest.raises(ValueError):
            simulate_until_hit(0.05, None, s, 1.0, CFG,
                               make_flat(), path_stream(7, 0), DOMAIN)

    def test_hits_and_bookkeeping(self):
        s = StoppingSet(-0.1, 0.1)
        tr = simulate_until_hit(0.5, None, s, 2.0, CFG, make_flat(),
                                path_stream(7, 0), DOMAIN)
        assert tr.hit
        assert tr.states.size == tr.n_tau + 1
        assert tr.noises.size == tr.n_tau
        # only the last state is inside the set
        assert bool(s.contains(tr.states[-1]))
        assert not np.any(s.contains(tr.states[:-1]))
        assert tr.work == pytest.approx(2.0 * CFG.h * tr.n_tau)
        assert tr.log_lr_p_over_q == 0.0
        assert tr.control_cost == 0.0

    def test_censoring(self):
        cfg = SimConfig(epsilon=EPS, h=0.01, max_steps=10)
        s = StoppingSet(-10.1, -10.0)
        dom = SimulationDomain(-11.0, 4.0)
        tr = simulate_until_hit(0.5, None, s, 1.0, cfg,
                                make_flat(), path_stream(7, 3), dom)
        assert not tr.hit
        assert tr.n_tau == 10

    def test_controlled_loglr_matches_action_difference(self):
        s = StoppingSet(-0.3, -0.2)
        control = lambda x: -0.8 * np.asarray(x) - 0.5
        p = make_harmonic()
        tr = simulate_until_hit(0.4, control, s, 1.0, CFG, p,
                                path_stream(11, 5), DOMAIN)
        assert tr.hit
        direct = log_likelihood_ratio(tr, control, CFG, p)
        assert tr.log_lr_p_over_q == pytest.approx(direct, rel=1e-9, abs=1e-10)


class TestDiscreteAction:
    def test_on_path_action_is_half_noise_square(self):
        s = StoppingSet(-0.3, -0.2)
        control = lambda x: -0.5 * np.asarray(x)
        p = make_harmonic()
        tr = simulate_until_hit(0.4, control, s, 1.0, CFG, p,
                                path_stream(3, 1), DOMAIN)
        action = discrete_action(tr, control, CFG, p)
        assert action == pytest.approx(0.5 * np.sum(tr.noises ** 2), rel=1e-9)

    def test_hand_computed_single_step(self):
        # h=0.01, eps=0.5, x1-x0 = 0.1, V'(x0) = 0.25, c = 0:
        # (0.01/2) * (10 + 0.25)^2 = 0.5253125
        tr = Trajectory(n_tau=1, work=0.0, control_cost=0.0, log_lr_p_over_q=0.0,
                        hit=True, states=np.array([0.0, 0.1]), noises=np.array([0.0]))
        val = discrete_action(tr, None, CFG, linear_potential(0.25))
        assert val == pytest.approx(0.5253125)

    def test_requires_states(self):
        tr = Trajectory(n_tau=3, work=0.0, control_cost=0.0, log_lr_p_over_q=0.0,
                        hit=True)
        with pytest.raises(ValueError):
            discrete_action(tr, None, CFG, make_flat())

    def test_length_mismatch(self):
        tr = Trajectory(n_tau=5, work=0.0, control_cost=0.0, log_lr_p_over_q=0.0,
                        hit=True, states=np.array([0.0, 0.1]), noises=np.array([0.0]))
        with pytest.raises(ValueError):
            discrete_action(tr, None, CFG, make_flat())


class TestLogLikelihoodRatio:
    def test_zero_control_zero(self):
        s = StoppingSet(-0.2, -0.1)
        tr = simulate_until_hit(0.3, None, s, 1.0, CFG,
                                make_flat(), path_stream(5, 0), DOMAIN)
        assert log_likelihood_ratio(tr, None, CFG, make_flat()) == 0.0

    def test_single_step_hand_value(self):
        # c(x0)=1, h=0.01, eps=0.5, eta=0.2:
        # increment = -sqrt(h/eps) c eta - h/(2 eps) c^2 = -0.0382842712...
        # verified against the action difference computed from the same data
        h, eps, c, eta = 0.01, 0.5, 1.0, 0.2
        x0 = 0.0
        x1 = x0 + h * np.sqrt(2) * c + np.sqrt(2 * h * eps) * eta
        tr = Trajectory(n_tau=1, work=0.0, control_cost=0.0,
                        log_lr_p_over_q=0.0, hit=True,
                        states=np.array([x0, x1]), noises=np.array([eta]))
        cfg = SimConfig(epsilon=eps, h=h)
        val = log_likelihood_ratio(tr, lambda x: np.ones_like(np.asarray(x, float)),
                                   cfg, make_flat())
        expected = -np.sqrt(h / eps) * c * eta - h / (2 * eps) * c ** 2
        assert val == pytest.approx(expected, rel=1e-12)
        assert val == pytest.approx(-0.0382842712474619, rel=1e-10)

    def test_martingale_normalization(self):
        # E_Q[exp(log dP/dQ)] = 1 over a batch
        s = StoppingSet(-0.4, -0.3)
        model = ModelBundle(make_flat(), 1.0, s, DOMAIN)
        control = lambda x: 0.7 * np.cos(np.asarray(x))
        batch = run_batch(0.3, FieldControl(control), model, CFG, n_paths=4000, seed=21)
        assert batch.hit.all()
        w = np.exp(batch.log_lr_p_over_q)
        se = w.std(ddof=1) / np.sqrt(w.size)
        assert abs(w.mean() - 1.0) < 3 * se


def assert_matches_oracle(batch, x0, control, model, seed, tag):
    """Every path of the batch is the oracle's path on its own stream."""
    for i in range(batch.n_paths):
        tr = simulate_until_hit(x0, control, model.stopping_set, model.sigma, CFG,
                                model.potential, path_stream(seed, i, tag=tag),
                                model.domain)
        assert tr.n_tau == batch.n_steps[i]
        assert tr.work == pytest.approx(batch.work[i], rel=1e-12)
        assert tr.control_cost == pytest.approx(batch.control_cost[i], rel=1e-12)
        assert tr.log_lr_p_over_q == pytest.approx(batch.log_lr_p_over_q[i],
                                                   rel=1e-12, abs=1e-14)
        assert tr.states[-1] == pytest.approx(batch.final_x[i], rel=1e-12)


class TestBatchConsistency:
    def test_batch_matches_single_path_streams(self):
        # the vectorized runner consumes exactly the per-path streams
        s = StoppingSet(-0.3, -0.2)
        p = make_harmonic()
        model = ModelBundle(p, 1.5, s, DOMAIN)
        control = lambda x: -0.4 * np.asarray(x)
        batch = run_batch(0.5, FieldControl(control), model, CFG, n_paths=5, seed=99,
                          tag=2)
        assert_matches_oracle(batch, 0.5, control, model, seed=99, tag=2)

    def test_deterministic_given_seed(self):
        s = StoppingSet(-0.3, -0.2)
        model = ModelBundle(make_flat(), 1.0, s, DOMAIN)
        b1 = run_batch(0.4, None, model, CFG, n_paths=64, seed=5)
        b2 = run_batch(0.4, None, model, CFG, n_paths=64, seed=5)
        np.testing.assert_array_equal(b1.n_steps, b2.n_steps)
        np.testing.assert_array_equal(b1.work, b2.work)

    def test_first_chunk_independent_of_later_paths(self):
        # a controlled batch larger than one chunk repeats the 1-chunk batch
        # bit for bit on its first KERNEL_CHUNK paths
        s = StoppingSet(-0.3, -0.2)
        model = ModelBundle(make_flat(), 1.0, s, DOMAIN)
        ansatz = make_uniform_ansatz(4, DOMAIN, s, 0.5).with_coefficients(
            [0.3, -0.2, 0.1, 0.4])
        one = run_batch(0.4, ansatz, model, CFG, n_paths=KERNEL_CHUNK, seed=5, scores=True)
        more = run_batch(0.4, ansatz, model, CFG, n_paths=1500, seed=5, scores=True)
        assert KERNEL_CHUNK == 1024 and more.n_paths == 1500
        for name in ("n_steps", "work", "control_cost", "final_x", "sum_cb", "sum_eta_b"):
            np.testing.assert_array_equal(getattr(more, name)[:KERNEL_CHUNK],
                                          getattr(one, name))
        assert one.log_lr_p_over_q is more.log_lr_p_over_q is None

    def test_scores_off_reproduces_scores_on(self):
        # the score accumulators only read the path; they never steer it.  With
        # c = sum_j a_j b_j they imply the log-likelihood ratio, which only the
        # batch without them accumulates
        s = StoppingSet(-0.3, -0.2)
        model = ModelBundle(make_harmonic(), 1.0, s, DOMAIN)
        ansatz = make_uniform_ansatz(4, DOMAIN, s, 0.5).with_coefficients(
            [0.3, -0.2, 0.1, 0.4])
        kwargs = dict(n_paths=200, seed=8, terminal_value=lambda x: 0.5 * x)
        on = run_batch(0.4, ansatz, model, CFG, scores=True, **kwargs)
        off = run_batch(0.4, ansatz, model, CFG, **kwargs)
        assert on.sum_cb.shape == on.sum_eta_b.shape == (200, 4)
        assert off.sum_cb is None and off.sum_eta_b is None and on.log_lr_p_over_q is None
        for name in ("n_steps", "work", "control_cost", "final_x", "terminal", "loop_iters"):
            np.testing.assert_array_equal(getattr(off, name), getattr(on, name))
        noise = -np.sqrt(CFG.h / EPS) * (on.sum_eta_b @ ansatz.coefficients)
        quadratic = -(CFG.h / (2 * EPS)) * (on.sum_cb @ ansatz.coefficients)
        assert np.all(np.abs(off.log_lr_p_over_q - (noise + quadratic))
                      <= 1e-10 * (np.abs(noise) + np.abs(quadratic)))

    def test_no_control_matches_all_zero_ansatz(self):
        s = StoppingSet(-0.3, -0.2)
        model = ModelBundle(make_potential("skew_double_well"), 1.0,
                            s, DOMAIN)
        zero = make_uniform_ansatz(4, DOMAIN, s, 0.5)
        plain = run_batch(0.4, None, model, CFG, n_paths=200, seed=9)
        # a zero ansatz runs the controlled loop, with scores and without:
        # c = bmat @ 0 is a signed zero, which moves no output bit
        forced = run_batch(0.4, zero, model, CFG, n_paths=200, seed=9, scores=True)
        shortcut = run_batch(0.4, zero, model, CFG, n_paths=200, seed=9)
        for name in ("n_steps", "hit", "work", "control_cost", "final_x"):
            np.testing.assert_array_equal(getattr(plain, name), getattr(forced, name))
        for name in ("n_steps", "hit", "work", "control_cost", "log_lr_p_over_q",
                     "final_x"):
            np.testing.assert_array_equal(getattr(plain, name), getattr(shortcut, name))
        assert not np.any(plain.control_cost) and not np.any(plain.log_lr_p_over_q)
        # the scores of a zero ansatz imply a zero log-likelihood ratio
        assert forced.log_lr_p_over_q is None and not np.any(forced.sum_cb)

    def test_noise_block_size_changes_no_bit(self, monkeypatch):
        s = StoppingSet(-0.3, -0.2)
        model = ModelBundle(make_harmonic(), 1.0, s, DOMAIN)
        ansatz = make_uniform_ansatz(4, DOMAIN, s, 0.5).with_coefficients(
            [0.3, -0.2, 0.1, 0.4])
        batches = []
        for block in (7, 128):
            monkeypatch.setattr(optforce.dynamics, "NOISE_BLOCK", block)
            batches.append(run_batch(0.4, ansatz, model, CFG, n_paths=1500, seed=6,
                                     scores=True))
        for name in BATCH_ARRAYS:
            np.testing.assert_array_equal(getattr(batches[0], name),
                                          getattr(batches[1], name))

    def test_loop_iters_counts_the_kernel_loop(self):
        s = StoppingSet(-0.3, -0.2)
        model = ModelBundle(make_harmonic(), 1.0, s, DOMAIN)
        fixed = run_batch(0.4, None, model, CFG, n_paths=2100, seed=2, fixed_steps=300)
        stopping = run_batch(0.4, None, model, CFG, n_paths=2100, seed=2)
        assert fixed.loop_iters == 300
        assert stopping.loop_iters == stopping.n_steps.max()
        assert stopping.hit.all() and stopping.n_steps.min() < stopping.loop_iters

    def test_the_stopping_test_runs_only_where_a_path_can_be_in_the_set(self, monkeypatch):
        # under reflect, a step whose every path lies right of S skips the test;
        # every step a path retires on must still run it
        calls = []
        contains = StoppingSet.contains
        monkeypatch.setattr(StoppingSet, "contains",
                            lambda self, x: calls.append(1) or contains(self, x))
        s = StoppingSet(-4.0, -0.2)
        model = ModelBundle(make_harmonic(), 1.0, s, DOMAIN)
        ansatz = make_uniform_ansatz(4, DOMAIN, s, 0.5).with_coefficients(
            [0.3, -0.2, 0.1, 0.4])
        batch = run_batch(0.4, ansatz, model, CFG, n_paths=512, seed=3)
        assert len(np.unique(batch.n_steps)) <= len(calls) < batch.loop_iters

    def test_fixed_horizon_mode(self):
        model = ModelBundle(make_harmonic(), 2.0,
                            StoppingSet(-3.9, -3.8), DOMAIN)
        batch = run_batch(0.0, None, model, CFG, n_paths=16, seed=1, fixed_steps=50)
        assert np.all(batch.n_steps == 50)
        assert batch.hit.all()
        np.testing.assert_allclose(batch.work, 2.0 * CFG.h * 50)


def named(paths):
    """How a run_batch error names its failing paths: the count, then at most five."""
    shown = ", ".join(map(str, paths[:5])) + (", ..." if len(paths) > 5 else "")
    return f"{len(paths)} path{'' if len(paths) == 1 else 's'} [{shown}]"


class TestRetirementBookkeeping:
    """Retired paths leave the per-row arrays; noise rows and streams stay put."""

    def test_paths_retiring_between_refills_read_their_own_noise(self, monkeypatch):
        # a 3-normal block: paths retire between refills, and every step after
        # a retirement reads the noise through the row map
        monkeypatch.setattr(optforce.dynamics, "NOISE_BLOCK", 3)
        model = ModelBundle(make_harmonic(), 1.5,
                            StoppingSet(-0.3, -0.2), DOMAIN)
        control = lambda x: -0.4 * np.asarray(x)
        batch = run_batch(0.5, FieldControl(control), model, CFG, n_paths=48, seed=21,
                          tag=3)
        assert np.any(batch.n_steps % 3) and np.unique(batch.n_steps).size > 24
        assert_matches_oracle(batch, 0.5, control, model, seed=21, tag=3)

    def test_reused_generators_restart_their_streams(self, monkeypatch):
        # A builds fresh generators; B reuses A's and builds more; the second A
        # reuses generators that B left partway through other streams
        monkeypatch.setattr(optforce.dynamics, "_idle_streams", [])
        s = StoppingSet(-0.3, -0.2)
        model = ModelBundle(make_harmonic(), 1.0, s, DOMAIN)
        ansatz = make_uniform_ansatz(4, DOMAIN, s, 0.5).with_coefficients(
            [0.3, -0.2, 0.1, 0.4])
        first = run_batch(0.4, ansatz, model, CFG, n_paths=300, seed=5, scores=True)
        run_batch(0.4, ansatz, model, CFG, n_paths=1200, seed=6, tag=1, scores=True)
        again = run_batch(0.4, ansatz, model, CFG, n_paths=300, seed=5, scores=True)
        for name in ("n_steps", "hit", "work", "control_cost", "log_lr_p_over_q",
                     "final_x", "sum_cb", "sum_eta_b", "loop_iters"):
            np.testing.assert_array_equal(getattr(again, name), getattr(first, name))

    def test_a_batch_run_inside_terminal_value_takes_its_own_generators(self, monkeypatch):
        monkeypatch.setattr(optforce.dynamics, "_idle_streams", [])
        s = StoppingSet(-0.3, -0.2)
        model = ModelBundle(make_harmonic(), 1.0, s, DOMAIN)
        inner = lambda: run_batch(0.0, None, model, CFG, n_paths=5, seed=9, tag=3,
                                  fixed_steps=4).final_x.sum()
        value = inner()
        plain = run_batch(0.4, None, model, CFG, n_paths=64, seed=4)
        # the pool now holds the 64 generators the outer batch takes
        nested = run_batch(0.4, None, model, CFG, n_paths=64, seed=4,
                           terminal_value=lambda x: np.full(x.size, inner()))
        np.testing.assert_array_equal(nested.terminal, np.full(64, value))
        for name in ("n_steps", "work", "log_lr_p_over_q", "final_x"):
            np.testing.assert_array_equal(getattr(nested, name), getattr(plain, name))

    @pytest.mark.parametrize("boundary", ["reflect", "abort"])
    def test_an_infinite_gradient_names_the_paths_and_step(self, boundary):
        # V' is infinite right of 1.2: a path's update from a state there is
        # -inf.  The oracle on the finite harmonic gives every path's first
        # state right of 1.2; paths that hit earlier have left the batch.
        s = StoppingSet(-0.3, -0.2)
        good = make_harmonic()
        wall = Potential(good.evaluate, lambda x: np.where(np.asarray(x) > 1.2, np.inf,
                                                         good.gradient(x)))
        first_out, n_tau = [], []
        for i in range(64):
            tr = simulate_until_hit(0.4, None, s, 1.0, CFG, good,
                                    path_stream(3, i), DOMAIN)
            out = np.flatnonzero(tr.states[:-1] > 1.2)
            first_out.append(out[0] if out.size else np.inf)
            n_tau.append(tr.n_tau)
        step = int(min(first_out))
        paths = [i for i, k in enumerate(first_out) if k == step]
        assert np.sum(np.array(n_tau) <= step) > 0
        model = ModelBundle(wall, 1.0, s,
                            SimulationDomain(DOMAIN.lo, DOMAIN.hi, boundary))
        message = re.escape(f"non-finite update for {named(paths)} at step {step}")
        with pytest.raises(NumericalFailureError, match=f"^{message}$") as failed:
            run_batch(0.4, None, model, CFG, n_paths=64, seed=3)
        assert failed.value.paths == paths and failed.value.step == step

    @pytest.mark.parametrize("boundary", ["reflect", "abort"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n_paths", [1, 3])
    def test_a_non_finite_update_on_few_rows_names_the_path_and_step(self, boundary, bad,
                                                                     n_paths):
        # V' is NaN or an inf right of 1.2, so the update from a state there is
        # NaN or an inf of the other sign.  So few rows are live that a
        # reflecting step tests them on a Python list.  With three paths the
        # failing one is not the first live row, where min and max pass over
        # a NaN
        s = StoppingSet(-0.3, -0.2)
        good = make_harmonic()
        bad_wall = Potential(good.evaluate, lambda x: np.where(np.asarray(x) > 1.2, bad,
                                                               good.gradient(x)))
        assert n_paths <= FEW_ROWS
        for seed in range(200):
            first_out, n_tau = [], []
            for i in range(n_paths):
                tr = simulate_until_hit(0.4, None, s, 1.0, CFG, good, path_stream(seed, i),
                                        DOMAIN)
                out = np.flatnonzero(tr.states[:-1] > 1.2)
                first_out.append(out[0] if out.size else np.inf)
                n_tau.append(tr.n_tau)
            step = min(first_out)
            paths = [i for i, k in enumerate(first_out) if k == step]
            live = [i for i in range(n_paths) if n_tau[i] > step]
            if step < np.inf and len(paths) == 1 and live.index(paths[0]) == n_paths - 1:
                break
        else:
            pytest.fail("no seed gives a single failing path")
        model = ModelBundle(bad_wall, 1.0, s, SimulationDomain(DOMAIN.lo, DOMAIN.hi, boundary))
        step = int(step)
        message = re.escape(f"non-finite update for {named(paths)} at step {step}")
        with pytest.raises(NumericalFailureError, match=f"^{message}$") as failed:
            run_batch(0.4, None, model, CFG, n_paths=n_paths, seed=seed)
        assert failed.value.paths == paths and failed.value.step == step

    def test_leaving_an_abort_domain_names_the_paths_and_step(self):
        # The oracle on the wide reflecting domain gives the step whose update
        # takes each path right of 1.4; paths that hit earlier have left the batch.
        s = StoppingSet(-0.3, -0.2)
        first_out, n_tau = [], []
        for i in range(64):
            tr = simulate_until_hit(0.4, None, s, 1.0, CFG, make_harmonic(),
                                    path_stream(3, i), DOMAIN)
            out = np.flatnonzero(tr.states[1:] > 1.4)
            first_out.append(out[0] if out.size else np.inf)
            n_tau.append(tr.n_tau)
        step = int(min(first_out))
        paths = [i for i, k in enumerate(first_out) if k == step]
        assert np.sum(np.array(n_tau) <= step) > 0
        model = ModelBundle(make_harmonic(), 1.0, s, SimulationDomain(DOMAIN.lo, 1.4, "abort"))
        message = re.escape(f"{named(paths)} left the domain [{DOMAIN.lo}, 1.4] at step "
                            f"{step} with abort boundary")
        with pytest.raises(OutOfDomainError, match=f"^{message}$") as failed:
            run_batch(0.4, None, model, CFG, n_paths=64, seed=3)
        assert failed.value.paths == paths and failed.value.step == step

    @pytest.mark.parametrize("failure", [
        PathFailure("2 paths [3, 5] failed at step 7", [3, 5], 7),
        NumericalFailureError("non-finite update for 2 paths [3, 5] at step 7", [3, 5], 7),
        OutOfDomainError("1 path [9] left the domain at step 0", [9], 0),
        CensoredPathError("3/64 paths did not hit within max_steps=50"),
    ], ids=lambda failure: type(failure).__name__)
    def test_a_failure_pickles_whole(self, failure):
        # a forked child hands back its failure as pickle bytes
        again = pickle.loads(pickle.dumps(failure, pickle.HIGHEST_PROTOCOL))
        assert type(again) is type(failure) and str(again) == str(failure)
        assert (again.paths, again.step) == (failure.paths, failure.step)


class TestCensoring:
    """run_batch is the one place that decides censoring."""

    def capped(self):
        # cap at the median hitting step of the uncapped batch, so some paths
        # hit within it and the rest do not
        s = StoppingSet(-0.3, -0.2)
        model = ModelBundle(make_harmonic(), 1.0, s, DOMAIN)
        full = run_batch(0.4, None, model, CFG, n_paths=64, seed=4)
        cap = int(np.median(full.n_steps))
        return model, dataclasses.replace(CFG, max_steps=cap), int(np.sum(full.n_steps > cap))

    def test_a_path_that_never_hits_raises_naming_count_and_cap(self):
        model, cfg, k = self.capped()
        assert 0 < k < 64
        message = rf"^{k}/64 paths did not hit within max_steps={cfg.max_steps}$"
        with pytest.raises(CensoredPathError, match=message):
            run_batch(0.4, None, model, cfg, n_paths=64, seed=4)

    def test_kernel_counts_add_only_returned_batches(self):
        model, cfg, _ = self.capped()
        before = kernel_counts()
        with pytest.raises(CensoredPathError):
            run_batch(0.4, None, model, cfg, n_paths=64, seed=4)
        assert kernel_counts() == before
        batch = run_batch(0.4, None, model, cfg, n_paths=64, seed=4, fixed_steps=7)
        assert dataclasses.asdict(kernel_counts() - before) == {
            "batches": 1, "path_steps": 64 * 7, "loop_iters": 7, "batches_ahead": 0,
            "batches_ahead_used": 0}
        assert batch.loop_iters == 7

    def test_a_fixed_horizon_never_censors(self):
        model, cfg, _ = self.capped()
        batch = run_batch(0.4, None, model, cfg, n_paths=64, seed=4,
                          fixed_steps=cfg.max_steps)
        assert np.all(batch.n_steps == cfg.max_steps) and batch.hit.all()


BATCH_ARRAYS = ("n_steps", "hit", "work", "control_cost", "log_lr_p_over_q",
                "final_x", "terminal", "sum_cb", "sum_eta_b")


def _sha256(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


class TestRecordedBits:
    """Batches whose every field was recorded before the kernel ran in one loop."""

    @pytest.fixture(autouse=True)
    def same_blas_rounding(self):
        skip_unless_recorded_gemv()

    def test_masked_scored_batch_with_terminal_value(self):
        # recorded with two basis functions masked off, whose score columns the
        # mask held at +0.0; zeroed coefficients drive the same paths
        s = StoppingSet(-4.0, -0.2)
        model = ModelBundle(make_harmonic(), 1.5, s, DOMAIN)
        # ten columns: below eight, gemv's tail rows round as its body rows
        full = make_uniform_ansatz(10, DOMAIN, s, 0.5).with_coefficients(
            [0.4, -0.3, 0.25, 0.1, -0.2, 0.15, 0.05, -0.1, 0.2, 0.3])
        active = np.array([True, True, False, True, True, False, True, True, True, True])
        ansatz = full.with_coefficients(np.where(active, full.coefficients, 0.0))
        inner = full.with_coefficients(np.where(full.centers <= 1.0, full.coefficients, 0.0))
        inner_at_r = float(inner.value(-0.2))
        cfg = SimConfig(epsilon=0.5, h=0.01, max_steps=200_000)
        batch = run_batch(0.4, ansatz, model, cfg, n_paths=2500, seed=11, tag=4,
                          scores=True,
                          terminal_value=lambda x: 0.3 + inner.value(x) - inner_at_r)
        # a scored batch keeps no log-likelihood ratio: its scores imply it
        assert batch.log_lr_p_over_q is None
        arrays = {name: getattr(batch, name) for name in BATCH_ARRAYS
                  if name != "log_lr_p_over_q"}
        for name in ("sum_cb", "sum_eta_b"):
            arrays[name] = np.where(active, arrays[name], 0.0)
        assert {name: _sha256(a) for name, a in arrays.items()} == {
            "n_steps": "18be06555bd249c21cb8049d54aa1b8f213b95c9a5900f6a50a9aa5a6e8e9d91",
            "hit": "65dd06770bcfb4ae754d025b05b52e356ee15daa54b9e02ae8af4c3d08daa617",
            "work": "f64fd8319e20cf9f90e583fc242240d1fbbd756e8cb93f049770c12960c94d14",
            "control_cost": "df4dd211e6d70a723827f0e7d7d143940f5d67e4947a01fa404a799dbd3d0cab",
            "final_x": "cf4e39c6bc033047514a7ddad542cf971da2b42b889e800737f3aad121e65452",
            "terminal": "cc078819225460a32805ae8302e87b870b60faa5c8d2e1145da72afec47173d5",
            "sum_cb": "8310a0afd29462241da527ecc9c0d6163953e986e18946ac7a87b5ccb24910ea",
            "sum_eta_b": "d19d61ab4e1def81a3bcf37aace22f53d8bb2f02c1ecd4fc36edd8f3e914058c",
        }

    def test_fixed_horizon_cost_batch(self):
        model = ModelBundle(make_potential("skew_double_well"), 1.0,
                            StoppingSet(-1.1, -1.0), DOMAIN)
        ansatz = make_uniform_ansatz(10, DOMAIN, model.stopping_set, 0.35)
        ansatz = ansatz.with_coefficients(0.5 * np.random.default_rng(5).standard_normal(10))
        cfg = SimConfig(epsilon=0.5, h=1e-3)
        batch = run_batch(1.03, ansatz, model, cfg, n_paths=4000, seed=13, tag=5,
                          fixed_steps=300)
        assert {name: _sha256(getattr(batch, name)) for name in BATCH_ARRAYS[:6]} == {
            "n_steps": "73d9021f7d2e92883a5bd95b9309d2c8da6e03b4a8cc4a9bc29c1f2104b1143f",
            "hit": "0d206c94e5ba5046f7e6952c38c6b2d2d7191b3de532bc8e2ec6e78d36cee936",
            "work": "e01a28f3dfd6e74b6952f7b547218757e10b68b5c721851810211268ce472943",
            "control_cost": "efe3884f3020e0b2a7cf0dc082984c1746f623e1877b4ef8dc15a2bd92fada08",
            "log_lr_p_over_q": "3f9e0abb7cdc036c14b88a31e1fee5c06a66a7c2544ac57ecfb177f0e8afd2f4",
            "final_x": "75e7b5b090c8bc584096d3b1d5fc62788da6de99023e0e3a899f5dbb993186f1",
        }
        assert batch.terminal is batch.sum_cb is batch.sum_eta_b is None

    def test_stopping_batch_under_abort(self):
        # an abort domain always runs the full stopping test
        domain = SimulationDomain(-4.0, 4.0, boundary="abort")
        s = StoppingSet(-4.0, -0.2)
        model = ModelBundle(make_harmonic(), 1.5, s, domain)
        ansatz = make_uniform_ansatz(10, domain, s, 0.5).with_coefficients(
            [0.4, -0.3, 0.25, 0.1, -0.2, 0.15, 0.05, -0.1, 0.2, 0.3])
        batch = run_batch(0.4, ansatz, model, CFG, n_paths=1500, seed=12, tag=3,
                          scores=True)
        assert batch.log_lr_p_over_q is None
        assert {name: _sha256(getattr(batch, name)) for name in BATCH_ARRAYS
                if name not in ("terminal", "log_lr_p_over_q")} == {
            "n_steps": "e68d847b4e69f5b1ddf54bfc681e9e889ed3e1ff0bf95dc84846c95fc2afd88f",
            "hit": "b6f524d4dcd4f01a9cadd967f443875150f2a303fa0284179dafdee9fd9ac8d2",
            "work": "a1a263f1e1b95779d62d701ea3e8439c9fa59e420878c87d00c7379c2943dd05",
            "control_cost": "b87208e5ad74368384fd28289afb83c32f05d880b2ace53ef5c6dc9652990849",
            "final_x": "19937bcf8bb8ef27356aa865f550912365b8b2283f422936371e1b5db9d2b935",
            "sum_cb": "b3e91387caf8881028b336190f142ac79e001ed4a395607955c7927e5418eae3",
            "sum_eta_b": "c0857e44943c874c8e6a0a3955903df641586da4abe3f2198ae0d3a54db9e153",
        }

    def test_reflecting_batch_folding_and_stepping_over_the_set(self):
        # a narrow set that paths step over into the left edge's folds, and a
        # right edge near the right well: the full stopping test runs on the
        # fold steps, about one step in five
        domain = SimulationDomain(-0.9, 1.6)
        s = StoppingSet(-0.55, -0.45)
        model = ModelBundle(make_potential("double_well"), 1.0, s, domain)
        ansatz = make_uniform_ansatz(8, domain, s, 0.3).with_coefficients(
            [0.3, -0.2, 0.25, 0.1, -0.15, 0.2, 0.05, -0.1])
        cfg = SimConfig(epsilon=0.5, h=0.02, max_steps=200_000)
        batch = run_batch(0.5, ansatz, model, cfg, n_paths=700, seed=17, tag=6,
                          terminal_value=lambda x: 0.5 * x)
        assert {name: _sha256(getattr(batch, name)) for name in BATCH_ARRAYS[:7]} == {
            "n_steps": "3e4ffc154f4b0366f24fa1f7460b200ab7ed33b998bee4fc1ae8bb19418d3809",
            "hit": "d264068b47bb9a418fda55cb1ee0bd41c81d73d2dd604480ac3c0d49c490ef0a",
            "work": "960bcb50be0d5e54f644e5009e90a1c2de029c034a98cd252260490dbab88809",
            "control_cost": "6257d8554e3e854ca83554621ad8f11bbfc49d4aeb40bca8dfc53adffc03cbda",
            "log_lr_p_over_q": "db5ff4f801c52c711a0636f286eeda91483e6355db91b0c275a2b3622def5b9e",
            "final_x": "fa93768e310fc0a3dc0ec53fa44a42ae7b21a76c61defbb4c6367552e725b571",
            "terminal": "ac0a7ab4aca64b6de0b52054f04ec1e2544e9ee47d80f49088af7ac1a35dfa88",
        }


def assert_same_batch(batch, expected):
    for name in (*BATCH_ARRAYS, "loop_iters"):
        np.testing.assert_array_equal(getattr(batch, name), getattr(expected, name))


class TestSplitBatches:
    """A batch of several segments runs as path groups, all but the first in
    forked children; a child's PathFailure is raised here, and a group whose
    child hands back nothing runs here.

    Each test sets the CPU count the process may use, runs the batch on 1 CPU
    (one group, here) and on 2 and 3 (two and three groups, all but the first
    in children), and checks that the batch returns the same bits, or raises
    the same error, and that no child outlives the call.
    """

    @pytest.mark.parametrize("n_paths, fixed_steps", [(2500, None), (4000, 300)])
    def test_every_field_is_the_same_on_one_two_and_three_cpus(self, cpus, n_paths,
                                                               fixed_steps):
        s = StoppingSet(-4.0, -0.2)
        model = ModelBundle(make_harmonic(), 1.5, s, DOMAIN)
        ansatz = make_uniform_ansatz(10, DOMAIN, s, 0.5).with_coefficients(
            [0.4, -0.3, 0.25, 0.1, -0.2, 0.15, 0.05, -0.1, 0.2, 0.3])
        batches = []
        for n in (1, 2, 3):
            cpus(n, n_paths)
            batches.append(run_batch(0.4, ansatz, model, CFG, n_paths=n_paths, seed=11,
                                     tag=4, fixed_steps=fixed_steps, scores=True,
                                     terminal_value=lambda x: 0.3 + ansatz.value(x)))
            assert_no_child_left()
        for batch in batches[1:]:
            assert_same_batch(batch, batches[0])

    @pytest.mark.parametrize("seed, step, paths", [
        (4, 11, [172, 382]),      # segments fail on steps 11, 10 and 9
        (8, 10, [649, 843]),      # all three fail on step 10
    ])
    def test_a_failure_raises_the_first_failing_segments_error(self, cpus, seed, step, paths):
        model = ModelBundle(make_harmonic(), 1.0, StoppingSet(-0.3, -0.2),
                            SimulationDomain(DOMAIN.lo, 1.4, "abort"))
        message = re.escape(f"{named(paths)} left the domain [{DOMAIN.lo}, 1.4] at step "
                            f"{step} with abort boundary")
        for n in (1, 2, 3):
            cpus(n, 3072)
            with pytest.raises(OutOfDomainError, match=f"^{message}$") as failed:
                run_batch(0.4, None, model, CFG, n_paths=3072, seed=seed)
            assert failed.value.paths == paths and failed.value.step == step
            assert_no_child_left()

    def test_the_censored_count_is_summed_over_the_groups(self, cpus):
        model = ModelBundle(make_harmonic(), 1.0, StoppingSet(-0.3, -0.2), DOMAIN)
        cpus(1, 3072)
        full = run_batch(0.4, None, model, CFG, n_paths=3072, seed=4)
        cap = int(np.median(full.n_steps))
        late = full.n_steps.reshape(3, KERNEL_CHUNK) > cap
        assert late.any(axis=1).all()
        message = rf"^{late.sum()}/3072 paths did not hit within max_steps={cap}$"
        for n in (1, 2, 3):
            cpus(n, 3072)
            with pytest.raises(CensoredPathError, match=message):
                run_batch(0.4, None, model, dataclasses.replace(CFG, max_steps=cap),
                          n_paths=3072, seed=4)
            assert_no_child_left()

    def test_a_child_only_error_runs_its_group_here(self, cpus):
        model = ModelBundle(make_harmonic(), 1.0, StoppingSet(-0.3, -0.2), DOMAIN)
        here = os.getpid()

        class ChildOnly(Exception):
            """An error pickle cannot carry: a local class, holding a lambda."""

            def __init__(self):
                super().__init__("terminal value failed in a child")
                self.hook = lambda: None

        def terminal_value(x):
            if os.getpid() != here:
                raise ChildOnly()
            return np.zeros(x.size)

        batches = []
        for n in (1, 2):
            cpus(n, 2100)
            batches.append(run_batch(0.4, None, model, CFG, n_paths=2100, seed=4,
                                     terminal_value=terminal_value))
            assert_no_child_left()
        assert_same_batch(batches[1], batches[0])

    def test_an_error_raised_here_too_comes_out_unchanged(self, cpus):
        model = ModelBundle(make_harmonic(), 1.0, StoppingSet(-0.3, -0.2), DOMAIN)

        def terminal_value(x):
            raise ValueError("terminal value failed")

        for n in (1, 2, 3):
            cpus(n, 3072)
            with pytest.raises(ValueError, match="^terminal value failed$"):
                run_batch(0.4, None, model, CFG, n_paths=3072, seed=4,
                          terminal_value=terminal_value)
            assert_no_child_left()

    def test_a_group_whose_fork_fails_runs_here(self, cpus, fork_fails):
        model = ModelBundle(make_harmonic(), 1.0, StoppingSet(-0.3, -0.2), DOMAIN)
        cpus(1, 3072)
        expected = run_batch(0.4, None, model, CFG, n_paths=3072, seed=4)
        cpus(2, 3072)
        batch = run_batch(0.4, None, model, CFG, n_paths=3072, seed=4)
        assert len(fork_fails) == 1
        assert_same_batch(batch, expected)
        assert_no_child_left()

    def test_a_group_whose_second_fork_fails_runs_here(self, cpus, monkeypatch):
        model = ModelBundle(make_harmonic(), 1.0, StoppingSet(-0.3, -0.2), DOMAIN)
        cpus(1, 3072)
        expected = run_batch(0.4, None, model, CFG, n_paths=3072, seed=4)
        forks = [os.fork]

        def fork():
            if forks:
                return forks.pop()()
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", fork)
        cpus(3, 3072)
        batch = run_batch(0.4, None, model, CFG, n_paths=3072, seed=4)
        assert not forks
        assert_same_batch(batch, expected)
        assert_no_child_left()

    @pytest.mark.parametrize("n_paths", [1, 700, KERNEL_CHUNK])
    def test_a_batch_of_one_segment_is_one_group_on_any_cpus(self, cpus, n_paths):
        for n in (1, 2, 3):
            cpus(n)
            assert optforce.dynamics._groups(n_paths) == [(0, n_paths)]

    def test_a_process_running_threads_runs_one_group(self, cpus):
        cpus(2, 4000)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert optforce.dynamics._groups(4000) == [(0, 4000)]
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()


class TestSeveralForcings:
    """A batch of k forcings is each forcing's own batch, bit for bit, in
    forcing-major order: every copy of path i runs on the stream (seed, tag,
    i), and the noise each path draws once serves every forcing."""

    S = StoppingSet(-4.0, 0.2)
    COEFFICIENTS = ([0.4, -0.3, 0.25, 0.1, -0.2, 0.15, 0.05, -0.1, 0.2, 0.3],
                    [-0.2, 0.35, 0.1, -0.25, 0.3, -0.05, 0.2, 0.15, -0.3, 0.1],
                    [0.1, 0.2, -0.4, 0.3, 0.05, -0.2, -0.1, 0.25, 0.1, -0.15])

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("fixed_steps", [None, 200])
    @pytest.mark.parametrize("scores", [False, True])
    @pytest.mark.parametrize("domain, run", [
        # a right edge the paths fold at, on one CPU; an abort domain where
        # the split batch's fork fails; and the split batch forked
        (SimulationDomain(-4.0, 1.0), "one CPU"),
        (SimulationDomain(-4.0, 4.0, "abort"), "fork fails"),
        (SimulationDomain(-4.0, 1.0), "two CPUs"),
    ])
    def test_each_forcing_is_its_own_batch(self, request, cpus, k, fixed_steps, scores,
                                           domain, run):
        # 1,100 paths: each forcing has a full segment and a 76-path one
        model = ModelBundle(make_harmonic(), 1.5, self.S, domain)
        layout = make_uniform_ansatz(10, domain, self.S, 0.5)
        forcings = [layout.with_coefficients(a) for a in self.COEFFICIENTS[:k]]
        inner = forcings[0]
        kwargs = dict(n_paths=1100, seed=11, tag=4, fixed_steps=fixed_steps, scores=scores,
                      terminal_value=lambda x: 0.3 + inner.value(x))
        cpus(1)
        alone = [run_batch(0.4, a, model, CFG, **kwargs) for a in forcings]
        cpus(1 if run == "one CPU" else 2, 1100)
        if run == "fork fails":
            attempts = request.getfixturevalue("fork_fails")
        together = run_batch(0.4, forcings, model, CFG, **kwargs)
        if run == "fork fails":
            assert len(attempts) == 1
        assert_no_child_left()
        assert together.n_paths == k * 1100
        assert together.loop_iters == max(batch.loop_iters for batch in alone)
        for f, batch in enumerate(alone):
            for name in BATCH_ARRAYS:
                expected = getattr(batch, name)
                got = getattr(together, name)
                if expected is None:
                    assert got is None, name
                else:
                    np.testing.assert_array_equal(got[f * 1100:(f + 1) * 1100], expected,
                                                  err_msg=name)

    @staticmethod
    def wall_model_and_forcings():
        """V' is infinite right of 1.2.  `push` drives paths towards it and
        alone fails; `hold` keeps them left of 1.0 with a steep rise of
        V + 2F and alone never fails."""
        s = StoppingSet(-0.3, -0.2)
        good = make_harmonic()
        wall = Potential(good.evaluate, lambda x: np.where(np.asarray(x) > 1.2, np.inf,
                                                         good.gradient(x)))
        model = ModelBundle(wall, 1.0, s, DOMAIN)
        layout = make_uniform_ansatz(10, DOMAIN, s, 0.5)
        push = layout.with_coefficients(
            np.where((layout.centers > 0.0) & (layout.centers < 1.3), -0.5, 0.0))
        hold = layout.with_coefficients(
            np.where((layout.centers > 1.0) & (layout.centers < 2.5), 3.0, 0.0))
        return model, push, hold

    @pytest.mark.parametrize("order", ["failing first", "failing second"])
    def test_a_failing_path_of_one_forcing_is_named_by_its_row(self, order):
        model, push, hold = self.wall_model_and_forcings()
        run_batch(0.4, hold, model, CFG, n_paths=64, seed=1)
        with pytest.raises(NumericalFailureError) as alone:
            run_batch(0.4, push, model, CFG, n_paths=64, seed=1)
        assert len(alone.value.paths) == 1
        step = alone.value.step
        forcings, offset = (([push, hold], 0) if order == "failing first"
                            else ([hold, push], 64))
        paths = [offset + i for i in alone.value.paths]
        message = re.escape(f"non-finite update for {named(paths)} at step {step}")
        with pytest.raises(NumericalFailureError, match=f"^{message}$") as together:
            run_batch(0.4, forcings, model, CFG, n_paths=64, seed=1)
        assert together.value.paths == paths and together.value.step == step

    def test_a_group_names_a_failing_path_by_its_row_in_the_batch(self):
        # the last segment's group of an 1,100-path batch, as a forked child
        # runs it: forcing 1's path first + i is row 1100 + first + i
        model, push, hold = self.wall_model_and_forcings()
        run_batch(0.4, hold, model, CFG, n_paths=1100, seed=1)

        def group(controls):
            args = optforce.dynamics._batch_args(0.4, controls, model, CFG, n_paths=1100,
                                                 seed=1)
            return optforce.dynamics._run_paths(args, KERNEL_CHUNK)

        with pytest.raises(NumericalFailureError) as alone:
            group((push,))
        assert all(KERNEL_CHUNK <= i < 1100 for i in alone.value.paths)
        with pytest.raises(NumericalFailureError) as together:
            group((hold, push))
        assert together.value.paths == [1100 + i for i in alone.value.paths]
        assert together.value.step == alone.value.step

    def test_a_batch_failing_only_in_its_second_segment_names_its_rows(self, cpus,
                                                                       monkeypatch):
        # over 8 steps on seed 31, push's path 1094 fails on step 7 and no
        # path of the first segment fails; on 2 CPUs the forked group hands
        # back its failure, and no loop over paths 1024-1099 runs here
        model, push, hold = self.wall_model_and_forcings()
        kwargs = dict(n_paths=1100, seed=31, fixed_steps=8)
        args = optforce.dynamics._batch_args(0.4, push, model, CFG, **kwargs)
        optforce.dynamics._run_paths(args, 0)
        with pytest.raises(NumericalFailureError) as alone:
            optforce.dynamics._run_paths(args, KERNEL_CHUNK)
        assert (alone.value.paths, alone.value.step) == ([1094], 7)
        paths = [1100 + i for i in alone.value.paths]
        message = re.escape(f"non-finite update for {named(paths)} at step 7")
        spans = TestSegmentRuns.record_spans(monkeypatch)
        for n in (1, 2):
            cpus(n, 1100)
            with pytest.raises(NumericalFailureError, match=f"^{message}$") as together:
                run_batch(0.4, [hold, push], model, CFG, **kwargs)
            assert (together.value.paths, together.value.step) == (paths, 7)
            assert spans == ([0, KERNEL_CHUNK] if n == 1 else [0])
            spans.clear()
            assert_no_child_left()

    @pytest.mark.parametrize("change", ["centers", "widths"])
    def test_forcings_of_other_layouts_are_refused_naming_control(self, change):
        model = ModelBundle(make_harmonic(), 1.5, self.S, DOMAIN)
        a = make_uniform_ansatz(4, DOMAIN, self.S, 0.5).with_coefficients([0.1, 0.2, 0.3, 0.4])
        other = {"centers": a.centers + 0.1, "widths": a.widths * 2}[change]
        b = dataclasses.replace(a, **{change: other})
        with pytest.raises(ValueError, match="^control: "):
            run_batch(0.4, [a, b], model, CFG, n_paths=8, seed=1)

    @pytest.mark.parametrize("layout", ["none, none", "ansatz, none", "none, ansatz"])
    def test_a_sequence_holding_none_is_refused_naming_control(self, layout):
        # None alone is the plain dynamics; inside a sequence it is no forcing
        model = ModelBundle(make_harmonic(), 1.5, self.S, DOMAIN)
        a = make_uniform_ansatz(4, DOMAIN, self.S, 0.5).with_coefficients([0.1, 0.2, 0.3, 0.4])
        forcings = [{"none": None, "ansatz": a}[name] for name in layout.split(", ")]
        with pytest.raises(ValueError, match=r"^control: .*control=None alone runs the "
                                             "plain dynamics$"):
            run_batch(0.4, forcings, model, CFG, n_paths=8, seed=1)


class TestSegmentRuns:
    """A batch of several segments runs each CPU's group one segment at a
    time, each loop over every forcing's copies of that segment's paths.  It
    gives the same bits whether its groups run here or in forked children,
    and a failing batch raises the error of its first failing segment, with
    no loop after it."""

    S = StoppingSet(-4.0, -0.2)
    MODEL = ModelBundle(make_harmonic(), 1.5, S, DOMAIN)
    LAYOUT = make_uniform_ansatz(10, DOMAIN, S, 0.5)

    @staticmethod
    def record_spans(monkeypatch):
        """The first path of every _run_paths call in this process from now on."""
        spans, run_paths = [], optforce.dynamics._run_paths

        def recorded(args, first):
            spans.append(first)
            return run_paths(args, first)

        monkeypatch.setattr(optforce.dynamics, "_run_paths", recorded)
        return spans

    def forcings(self, k):
        return [self.LAYOUT.with_coefficients(0.3 * np.random.default_rng(f).standard_normal(10))
                for f in range(k)]

    def test_every_loop_spans_at_most_one_segment(self, cpus, monkeypatch):
        cpus(1, 3100)
        spans = self.record_spans(monkeypatch)
        batch = run_batch(0.4, self.forcings(2), self.MODEL, CFG, n_paths=3100, seed=11,
                          fixed_steps=20)
        assert batch.n_paths == 2 * 3100 and batch.loop_iters == 20
        # one loop per segment of KERNEL_CHUNK paths (of each forcing)
        assert spans == [0, 1024, 2048, 3072]

    @pytest.mark.parametrize("run", ["forked", "fork fails"])
    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("fixed_steps", [None, 200])
    @pytest.mark.parametrize("scores", [False, True])
    def test_every_field_on_two_cpus_matches_one_cpu(self, request, cpus, run, k,
                                                      fixed_steps, scores):
        # 2,100 paths: two full segments and a 52-path one; on 2 CPUs the
        # forked group runs the last two, or runs them here where the fork
        # fails
        forcings = self.forcings(k)
        control = forcings[0] if k == 1 else forcings
        kwargs = dict(n_paths=2100, seed=11, tag=4, fixed_steps=fixed_steps, scores=scores,
                      terminal_value=lambda x: 0.3 + forcings[0].value(x))
        cpus(1, 2100)
        expected = run_batch(0.4, control, self.MODEL, CFG, **kwargs)
        cpus(2, 2100)
        if run == "fork fails":
            attempts = request.getfixturevalue("fork_fails")
        assert_same_batch(run_batch(0.4, control, self.MODEL, CFG, **kwargs), expected)
        if run == "fork fails":
            assert len(attempts) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_the_first_failing_segment_raises_though_a_later_one_fails_sooner(
            self, cpus, monkeypatch, n_cpus):
        # V' is infinite right of 1.2.  On seed 24 the first segment fails on
        # step 9, while path 1101, in the second segment, fails on step 4;
        # the batch raises the step-9 error
        model, _, _ = TestSeveralForcings.wall_model_and_forcings()
        args = optforce.dynamics._batch_args(0.4, None, model, CFG, n_paths=2048, seed=24)
        with pytest.raises(NumericalFailureError) as first:
            optforce.dynamics._run_paths(args, 0)
        with pytest.raises(NumericalFailureError) as later:
            optforce.dynamics._run_paths(args, KERNEL_CHUNK)
        assert (first.value.paths, first.value.step) == ([812, 867], 9)
        assert (later.value.paths, later.value.step) == ([1101], 4)
        cpus(n_cpus, 2048)
        spans = self.record_spans(monkeypatch)
        with pytest.raises(NumericalFailureError) as batch:
            run_batch(0.4, None, model, CFG, n_paths=2048, seed=24)
        assert str(batch.value) == str(first.value)
        assert (batch.value.paths, batch.value.step) == ([812, 867], 9)
        # the first segment's run here raised, and no loop ran after it
        assert spans == [0]
        assert_no_child_left()


class TestBatchAhead:
    """run_batch_ahead runs a one-segment batch in a forked child, which the
    run_batch call with the same arguments joins: it returns the child's
    batch or raises the child's PathFailure, and where the child hands back
    nothing, it runs the batch here.

    A joined call must not run the kernel loop here: the tests replace
    _run_paths after the fork, which the child does not see.
    """

    S = StoppingSet(-4.0, -0.2)
    MODEL = ModelBundle(make_harmonic(), 1.5, S, DOMAIN)
    ANSATZ = make_uniform_ansatz(10, DOMAIN, S, 0.5).with_coefficients(
        [0.4, -0.3, 0.25, 0.1, -0.2, 0.15, 0.05, -0.1, 0.2, 0.3])

    @staticmethod
    def terminal_value(x):
        return 0.3 + TestBatchAhead.ANSATZ.value(x)

    def batch(self, run=run_batch, *, control=ANSATZ, seed=11, model=MODEL, cfg=CFG,
              n_paths=700):
        return run(0.4, control, model, cfg, n_paths=n_paths, seed=seed, tag=4,
                   scores=True, terminal_value=self.terminal_value)

    @staticmethod
    def run_nothing_here(monkeypatch):
        def ran_here(*args):
            raise AssertionError("the batch ran in this process")
        monkeypatch.setattr(optforce.dynamics, "_run_paths", ran_here)

    def test_a_joined_batch_is_the_batch_run_here(self, cpus, monkeypatch):
        cpus(2)
        expected = self.batch()
        before = kernel_counts()
        assert self.batch(run_batch_ahead)
        self.run_nothing_here(monkeypatch)
        assert_same_batch(self.batch(), expected)
        # one batch started ahead and joined, which counts as one batch
        # returned, with the paths it ran
        assert dataclasses.asdict(kernel_counts() - before) == {
            "batches": 1, "path_steps": expected.n_steps.sum(),
            "loop_iters": expected.loop_iters, "batches_ahead": 1, "batches_ahead_used": 1}
        assert_no_child_left()

    def test_other_arguments_neither_join_nor_kill_the_child(self, cpus, monkeypatch):
        cpus(2)
        expected = self.batch()
        nudged = self.ANSATZ.with_coefficients(
            np.nextafter(self.ANSATZ.coefficients, np.inf))
        others = [self.batch(seed=12), self.batch(control=nudged)]
        assert self.batch(run_batch_ahead)
        joined = kernel_counts().batches_ahead_used
        for other, kwargs in zip(others, [{"seed": 12}, {"control": nudged}]):
            assert_same_batch(self.batch(**kwargs), other)
        assert kernel_counts().batches_ahead_used == joined
        self.run_nothing_here(monkeypatch)
        assert_same_batch(self.batch(), expected)
        assert kernel_counts().batches_ahead_used == joined + 1
        assert_no_child_left()

    def test_a_joined_child_that_fails_raises_its_error(self, cpus, monkeypatch):
        cpus(2)
        model = ModelBundle(make_harmonic(), 1.0, StoppingSet(-0.3, -0.2),
                            SimulationDomain(DOMAIN.lo, 1.4, "abort"))
        with pytest.raises(OutOfDomainError) as here:
            self.batch(model=model, n_paths=1000)
        joined = kernel_counts().batches_ahead_used
        assert self.batch(run_batch_ahead, model=model, n_paths=1000)
        # the child hands back its failure, so no kernel loop runs here
        self.run_nothing_here(monkeypatch)
        with pytest.raises(OutOfDomainError) as child:
            self.batch(model=model, n_paths=1000)
        assert kernel_counts().batches_ahead_used == joined
        assert str(child.value) == str(here.value)
        assert (child.value.paths, child.value.step) == (here.value.paths, here.value.step)
        assert_no_child_left()

    def test_a_censoring_child_raises_from_its_count(self, cpus, monkeypatch):
        cpus(2)
        model = ModelBundle(make_harmonic(), 1.0, StoppingSet(-0.3, -0.2), DOMAIN)
        cfg = dataclasses.replace(CFG, max_steps=50)
        with pytest.raises(CensoredPathError) as here:
            self.batch(model=model, cfg=cfg, n_paths=1000)
        joined = kernel_counts().batches_ahead_used
        assert self.batch(run_batch_ahead, model=model, cfg=cfg, n_paths=1000)
        self.run_nothing_here(monkeypatch)
        with pytest.raises(CensoredPathError) as child:
            self.batch(model=model, cfg=cfg, n_paths=1000)
        assert str(child.value) == str(here.value)
        assert kernel_counts().batches_ahead_used == joined + 1
        assert_no_child_left()

    def test_a_failed_fork_starts_nothing(self, cpus, fork_fails):
        cpus(2)
        expected = self.batch()
        counts = kernel_counts()
        assert not self.batch(run_batch_ahead)
        assert len(fork_fails) == 1 and kernel_counts() == counts
        assert_same_batch(self.batch(), expected)
        assert_no_child_left()

    @pytest.mark.parametrize("why", ["one CPU", "a running thread", "several segments"])
    def test_nothing_forks_without_an_idle_cpu(self, cpus, monkeypatch, why):
        cpus(1 if why == "one CPU" else 2)
        n_paths = 2 * KERNEL_CHUNK if why == "several segments" else 700

        def forbidden():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", forbidden)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        if why == "a running thread":
            thread.start()
        try:
            started = kernel_counts().batches_ahead
            assert not self.batch(run_batch_ahead, n_paths=n_paths)
            assert kernel_counts().batches_ahead == started
        finally:
            release.set()
            if thread.ident is not None:
                thread.join(timeout=10)
        assert not thread.is_alive()

    @pytest.mark.parametrize("kwargs,name", [
        ({"seed": -1}, "seed"), ({"tag": MAX_SEED + 1}, "tag"), ({"n_paths": 0}, "n_paths")])
    def test_a_bad_argument_raises_before_anything_forks(self, cpus, monkeypatch, kwargs,
                                                         name):
        cpus(2)

        def forbidden():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", forbidden)
        started = kernel_counts().batches_ahead
        with pytest.raises(ValueError, match=f"^{name} "):
            run_batch_ahead(0.4, self.ANSATZ, self.MODEL, CFG,
                            **{"n_paths": 700, "seed": 11, "tag": 4, **kwargs})
        assert kernel_counts().batches_ahead == started
        assert_no_child_left()

    def test_no_child_outlives_a_join_a_replacement_or_a_drop(self, cpus):
        cpus(2)
        assert self.batch(run_batch_ahead)
        self.batch()
        assert_no_child_left()
        # a long batch, killed when the next one replaces it
        assert self.batch(run_batch_ahead, cfg=dataclasses.replace(CFG, h=1e-4))
        assert self.batch(run_batch_ahead, seed=12)
        drop_ahead()
        assert_no_child_left()
        assert kernel_counts().batches_ahead > 0


class TestReweightingConsistency:
    def test_reweighted_expectation_matches_plain(self):
        # E_Q[Phi exp(log dP/dQ)] = E_P[Phi] for a bounded functional
        model = ModelBundle(make_harmonic(), 1.0,
                            StoppingSet(-3.9, -3.8), DOMAIN)
        n, steps = 4000, 60
        control = lambda x: 0.5 * np.sin(np.asarray(x)) + 0.3
        bq = run_batch(0.2, FieldControl(control), model, CFG, n_paths=n, seed=31,
                       fixed_steps=steps)
        bp = run_batch(0.2, None, model, CFG, n_paths=n, seed=32, fixed_steps=steps)
        phi_q = np.cos(bq.final_x) * np.exp(bq.log_lr_p_over_q)
        phi_p = np.cos(bp.final_x)
        se = np.hypot(phi_q.std(ddof=1), phi_p.std(ddof=1)) / np.sqrt(n)
        assert abs(phi_q.mean() - phi_p.mean()) < 3 * se


@pytest.fixture(scope="module")
def reference_control():
    from optforce.reference import build_grid, solve_fk
    p = make_potential("skew_double_well")
    s = StoppingSet(-1.1, -1.0)
    dom = SimulationDomain(-1.5, 2.0)
    grid = build_grid(s, dom, 1e-3)
    _, F = solve_fk(p, 1.0, EPS, grid)
    fp = np.gradient(F, grid.nodes)
    control = FieldControl(lambda x: -np.sqrt(2.0) * np.interp(x, grid.nodes, fp))
    f_x0 = float(np.interp(1.0298959850506604, grid.nodes, F))
    return p, s, dom, control, f_x0


class TestZeroVarianceStructure:
    def test_mean_matches_reference_and_variance_shrinks(self, reference_control):
        p, s, dom, control, f_x0 = reference_control
        model = ModelBundle(p, 1.0, s, dom)
        x0 = 1.0298959850506604
        stds = []
        for h, n, seed in ((2e-3, 200, 40), (1e-3, 200, 41), (5e-4, 200, 42)):
            cfg = SimConfig(epsilon=EPS, h=h, max_steps=10_000_000)
            batch = run_batch(x0, control, model, cfg, n_paths=n, seed=seed)
            assert batch.hit.all()
            y = np.exp(-batch.work / EPS + batch.log_lr_p_over_q)
            stds.append(y.std(ddof=1))
            if h == 5e-4:
                se = y.std(ddof=1) / np.sqrt(n)
                assert abs(y.mean() - np.exp(-f_x0 / EPS)) < 3 * se
        # sample standard deviation decreases along the h-halving sequence
        assert stds[0] > stds[1] > stds[2]


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(epsilon=0.0, h=0.01)
    with pytest.raises(ValueError):
        SimConfig(epsilon=0.5, h=-1.0)


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_run_batch_rejects_a_seed_outside_the_philox_key(seed):
    model = ModelBundle(make_flat(), 1.0, StoppingSet(-0.3, -0.2), DOMAIN)
    with pytest.raises(ValueError, match=f"^seed {seed} is not a nonnegative 64-bit"):
        run_batch(0.4, None, model, CFG, n_paths=4, seed=seed)


@pytest.mark.parametrize("kwargs,message", [
    ({"scores": True}, "^scores needs an ansatz control, got control=None$"),
    ({"tag": -1}, "^tag -1 is not a nonnegative 64-bit integer$"),
    ({"tag": MAX_SEED + 1}, f"^tag {MAX_SEED + 1} is not a nonnegative 64-bit integer$"),
    ({"n_paths": -3}, "^n_paths must be at least 1, got -3$"),
    ({"n_paths": 0}, "^n_paths must be at least 1, got 0$"),
    ({"fixed_steps": -2}, "^fixed_steps must be at least 1, got -2$"),
    ({"fixed_steps": 0}, "^fixed_steps must be at least 1, got 0$"),
    ({"x0": 5.0}, r"^x0=5.0 lies outside the domain \[-4.0, 4.0\]$"),
])
def test_run_batch_rejects_an_argument_naming_it(kwargs, message):
    model = ModelBundle(make_flat(), 1.0, StoppingSet(-0.3, -0.2), DOMAIN)
    with pytest.raises(ValueError, match=message):
        run_batch(control=None, model=model, cfg=CFG,
                  **{"x0": 0.4, "n_paths": 4, "seed": 1, **kwargs})


@pytest.mark.parametrize("index", [0, 1, 1023, 1024, 4095, 2 ** 40])
def test_path_stream_is_the_jumped_key_stream(index):
    jumped = np.random.Philox(key=np.array([3, 2], dtype=np.uint64)).jumped(index)
    np.testing.assert_array_equal(path_stream(3, index, tag=2).standard_normal(300),
                                  np.random.Generator(jumped).standard_normal(300))


def test_path_stream_independent_of_order():
    a = path_stream(3, 7).standard_normal(NOISE_BLOCK)
    b = path_stream(3, 8).standard_normal(NOISE_BLOCK)
    a2 = path_stream(3, 7).standard_normal(NOISE_BLOCK)
    np.testing.assert_array_equal(a, a2)
    assert not np.array_equal(a, b)
