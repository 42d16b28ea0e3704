import numpy as np
import pytest

from optforce.ansatz import make_uniform_ansatz
from optforce.dynamics import (KERNEL_CHUNK, NOISE_BLOCK, NumericalFailureError,
                               SimConfig, path_stream, run_batch)
from optforce.model import (ModelBundle, Potential, SimulationDomain, StoppingSet,
                            constant_observable, make_flat, make_harmonic,
                            make_potential)
from scalar_oracle import (Trajectory, discrete_action, em_step, log_likelihood_ratio,
                           simulate_until_hit)

EPS = 0.5
CFG = SimConfig(epsilon=EPS, h=0.01, max_steps=200_000, seed=7)
DOMAIN = SimulationDomain(-4.0, 4.0)


def linear_potential(slope):
    return Potential(1, lambda x: slope * np.asarray(x, dtype=np.float64),
                     lambda x: np.full_like(np.asarray(x, dtype=np.float64), slope),
                     f"linear({slope})")


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
        bad = Potential(1, lambda x: x, lambda x: np.full_like(np.asarray(x, float), np.nan), "bad")
        with pytest.raises(NumericalFailureError):
            em_step(0.0, 0.0, 0.0, CFG, bad)


class TestSimulateUntilHit:
    def test_x0_inside_rejected(self):
        s = StoppingSet(-0.1, 0.1)
        with pytest.raises(ValueError):
            simulate_until_hit(0.05, None, s, constant_observable(1.0), CFG,
                               make_flat(), path_stream(7, 0), DOMAIN)

    def test_hits_and_bookkeeping(self):
        s = StoppingSet(-0.1, 0.1)
        f = constant_observable(2.0)
        tr = simulate_until_hit(0.5, None, s, f, CFG, make_flat(),
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
        cfg = SimConfig(epsilon=EPS, h=0.01, max_steps=10, seed=7)
        s = StoppingSet(-10.1, -10.0)
        dom = SimulationDomain(-11.0, 4.0)
        tr = simulate_until_hit(0.5, None, s, constant_observable(1.0), cfg,
                                make_flat(), path_stream(7, 3), dom)
        assert not tr.hit
        assert tr.n_tau == 10

    def test_controlled_loglr_matches_action_difference(self):
        s = StoppingSet(-0.3, -0.2)
        control = lambda x: -0.8 * np.asarray(x) - 0.5
        p = make_harmonic()
        tr = simulate_until_hit(0.4, control, s, constant_observable(1.0), CFG, p,
                                path_stream(11, 5), DOMAIN)
        assert tr.hit
        direct = log_likelihood_ratio(tr, control, CFG, p)
        assert tr.log_lr_p_over_q == pytest.approx(direct, rel=1e-9, abs=1e-10)


class TestDiscreteAction:
    def test_on_path_action_is_half_noise_square(self):
        s = StoppingSet(-0.3, -0.2)
        control = lambda x: -0.5 * np.asarray(x)
        p = make_harmonic()
        tr = simulate_until_hit(0.4, control, s, constant_observable(1.0), CFG, p,
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
        tr = simulate_until_hit(0.3, None, s, constant_observable(1.0), CFG,
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
        cfg = SimConfig(epsilon=eps, h=h, seed=0)
        val = log_likelihood_ratio(tr, lambda x: np.ones_like(np.asarray(x, float)),
                                   cfg, make_flat())
        expected = -np.sqrt(h / eps) * c * eta - h / (2 * eps) * c ** 2
        assert val == pytest.approx(expected, rel=1e-12)
        assert val == pytest.approx(-0.0382842712474619, rel=1e-10)

    def test_martingale_normalization(self):
        # E_Q[exp(log dP/dQ)] = 1 over a batch
        s = StoppingSet(-0.4, -0.3)
        model = ModelBundle(make_flat(), constant_observable(1.0), s, DOMAIN)
        control = lambda x: 0.7 * np.cos(np.asarray(x))
        batch = run_batch(0.3, control, model, CFG, n_paths=4000, seed=21)
        assert batch.hit.all()
        w = np.exp(batch.log_lr_p_over_q)
        se = w.std(ddof=1) / np.sqrt(w.size)
        assert abs(w.mean() - 1.0) < 3 * se


class TestBatchConsistency:
    def test_batch_matches_single_path_streams(self):
        # the vectorized runner consumes exactly the per-path streams
        s = StoppingSet(-0.3, -0.2)
        p = make_harmonic()
        f = constant_observable(1.5)
        model = ModelBundle(p, f, s, DOMAIN)
        control = lambda x: -0.4 * np.asarray(x)
        batch = run_batch(0.5, control, model, CFG, n_paths=5, seed=99, tag=2)
        for i in range(5):
            tr = simulate_until_hit(0.5, control, s, f, CFG, p,
                                    path_stream(99, i, tag=2), DOMAIN)
            assert tr.n_tau == batch.n_steps[i]
            assert tr.work == pytest.approx(batch.work[i], rel=1e-12)
            assert tr.control_cost == pytest.approx(batch.control_cost[i], rel=1e-12)
            assert tr.log_lr_p_over_q == pytest.approx(batch.log_lr_p_over_q[i],
                                                       rel=1e-12, abs=1e-14)
            assert tr.states[-1] == pytest.approx(batch.final_x[i], rel=1e-12)

    def test_deterministic_given_seed(self):
        s = StoppingSet(-0.3, -0.2)
        model = ModelBundle(make_flat(), constant_observable(1.0), s, DOMAIN)
        b1 = run_batch(0.4, None, model, CFG, n_paths=64, seed=5)
        b2 = run_batch(0.4, None, model, CFG, n_paths=64, seed=5)
        np.testing.assert_array_equal(b1.n_steps, b2.n_steps)
        np.testing.assert_array_equal(b1.work, b2.work)

    def test_first_chunk_independent_of_later_paths(self):
        # a controlled batch larger than one chunk repeats the 1-chunk batch
        # bit for bit on its first KERNEL_CHUNK paths
        s = StoppingSet(-0.3, -0.2)
        model = ModelBundle(make_flat(), constant_observable(1.0), s, DOMAIN)
        ansatz = make_uniform_ansatz(4, DOMAIN, s, 0.5).with_coefficients(
            [0.3, -0.2, 0.1, 0.4])
        one = run_batch(0.4, None, model, CFG, n_paths=KERNEL_CHUNK, seed=5, basis=ansatz)
        more = run_batch(0.4, None, model, CFG, n_paths=1500, seed=5, basis=ansatz)
        assert KERNEL_CHUNK == 1024 and more.n_paths == 1500
        for name in ("n_steps", "work", "control_cost", "log_lr_p_over_q", "final_x",
                     "sum_cb", "sum_eta_b"):
            np.testing.assert_array_equal(getattr(more, name)[:KERNEL_CHUNK],
                                          getattr(one, name))

    def test_fixed_horizon_mode(self):
        model = ModelBundle(make_harmonic(), constant_observable(2.0),
                            StoppingSet(-3.9, -3.8), DOMAIN)
        batch = run_batch(0.0, None, model, CFG, n_paths=16, seed=1, fixed_steps=50)
        assert np.all(batch.n_steps == 50)
        assert batch.hit.all()
        np.testing.assert_allclose(batch.work, 2.0 * CFG.h * 50)


class TestReweightingConsistency:
    def test_reweighted_expectation_matches_plain(self):
        # E_Q[Phi exp(log dP/dQ)] = E_P[Phi] for a bounded functional
        model = ModelBundle(make_harmonic(), constant_observable(1.0),
                            StoppingSet(-3.9, -3.8), DOMAIN)
        n, steps = 4000, 60
        control = lambda x: 0.5 * np.sin(np.asarray(x)) + 0.3
        bq = run_batch(0.2, control, model, CFG, n_paths=n, seed=31, fixed_steps=steps)
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
    sol = solve_fk(p, 1.0, EPS, grid, s)
    fp = np.gradient(sol.free_energy, grid.nodes)
    control = lambda x: -np.sqrt(2.0) * np.interp(x, grid.nodes, fp)
    f_x0 = float(sol.interp("free_energy", 1.0298959850506604))
    return p, s, dom, control, f_x0


class TestZeroVarianceStructure:
    def test_mean_matches_reference_and_variance_shrinks(self, reference_control):
        p, s, dom, control, f_x0 = reference_control
        model = ModelBundle(p, constant_observable(1.0), s, dom)
        x0 = 1.0298959850506604
        stds = []
        for h, n, seed in ((2e-3, 200, 40), (1e-3, 200, 41), (5e-4, 200, 42)):
            cfg = SimConfig(epsilon=EPS, h=h, max_steps=10_000_000, seed=seed)
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
    with pytest.raises(ValueError):
        SimConfig(epsilon=0.5, h=0.01, seed=-1)


def test_path_stream_independent_of_order():
    a = path_stream(3, 7).standard_normal(NOISE_BLOCK)
    b = path_stream(3, 8).standard_normal(NOISE_BLOCK)
    a2 = path_stream(3, 7).standard_normal(NOISE_BLOCK)
    np.testing.assert_array_equal(a, a2)
    assert not np.array_equal(a, b)
