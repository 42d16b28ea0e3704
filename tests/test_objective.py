import warnings

import numpy as np
import pytest

from optforce.ansatz import GaussianAnsatz, make_uniform_ansatz
from optforce.dynamics import CensoredPathError, SimConfig
from optforce.model import (ModelBundle, SimulationDomain, StoppingSet, make_flat,
                            make_harmonic, make_scaled_double_well)
from optforce.objective import (estimate_cost, estimate_exact_gradient_fixed_horizon,
                                estimate_inexact_gradient, make_objective)
from optforce.reference import mfpt_quadrature_oracle

EPS = 0.5
DOMAIN = SimulationDomain(-1.5, 2.0)
S = StoppingSet(-1.1, -1.0)


def easy_model(sigma=1.0):
    # low barrier: uncontrolled hitting is fast enough for crude comparisons
    p = make_scaled_double_well(barrier_scale=0.5, skew=-0.25)
    return ModelBundle(p, sigma, S, DOMAIN)


def small_ansatz(m=4, coeffs=None, width=0.4):
    a = make_uniform_ansatz(m, DOMAIN, S, width)
    if coeffs is not None:
        a = a.with_coefficients(np.asarray(coeffs, dtype=np.float64))
    return a


class TestEstimateCost:
    def test_zero_observable_zero_control_is_exactly_zero(self):
        model = ModelBundle(make_flat(), 0.0, S, DOMAIN)
        cfg = SimConfig(epsilon=EPS, h=2e-3)
        value, stderr = estimate_cost(small_ansatz(), 0.3, model, cfg, seed=3, n_paths=64)
        assert value == 0.0
        assert stderr == 0.0

    def test_uncontrolled_cost_matches_sigma_times_mfpt(self):
        sigma = 2.0
        model = easy_model(sigma)
        cfg = SimConfig(epsilon=EPS, h=1e-3)
        x0 = 1.0
        value, stderr = estimate_cost(small_ansatz(), x0, model, cfg, seed=5, n_paths=1500)
        oracle = sigma * mfpt_quadrature_oracle(model.potential, EPS, x0, S.hi,
                                                DOMAIN.hi)
        # 3 stderr plus a small allowance for the O(sqrt(h)) hitting bias
        assert abs(value - oracle) < 3 * stderr + 0.05 * oracle

    def test_censored_batch_is_an_error(self):
        model = easy_model()
        cfg = SimConfig(epsilon=EPS, h=1e-3, max_steps=50)
        with pytest.raises(CensoredPathError):
            estimate_cost(small_ansatz(), 1.0, model, cfg, seed=5, n_paths=32)

    def test_cost_independent_of_ansatz_geometry_when_zero(self):
        model = easy_model()
        cfg = SimConfig(epsilon=EPS, h=2e-3)
        v1, _ = estimate_cost(small_ansatz(3, width=0.2), 1.0, model, cfg, seed=9,
                              n_paths=256)
        v2, _ = estimate_cost(small_ansatz(8, width=0.5), 1.0, model, cfg, seed=9,
                              n_paths=256)
        assert v1 == pytest.approx(v2, rel=1e-12)


    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("fixed_steps", [None, 150])
    def test_a_pair_of_forcings_gives_each_forcings_own_estimate(self, fixed_steps, k):
        # one batch on common random numbers, each (mean, stderr) exactly
        # the one its forcing's own batch gives; four forcings, as gradcheck
        # passes the +/- pairs of two components, give what two pair calls do
        model = easy_model()
        cfg = SimConfig(epsilon=EPS, h=2e-3)
        forcings = [small_ansatz(4, coeffs=a) for a in ([0.3, -0.2, 0.1, 0.2],
                                                        [0.1, 0.3, -0.2, 0.05],
                                                        [-0.2, 0.15, 0.25, -0.1],
                                                        [0.05, -0.3, 0.2, 0.3])[:k]]
        kwargs = dict(seed=9, fixed_steps=fixed_steps, n_paths=300)
        together = estimate_cost(forcings, 1.0, model, cfg, **kwargs)
        assert together == [estimate_cost(a, 1.0, model, cfg, **kwargs) for a in forcings]
        pairs = [forcings[i:i + 2] for i in range(0, k, 2)]
        assert together == [side for pair in pairs
                            for side in estimate_cost(pair, 1.0, model, cfg, **kwargs)]


class TestFixedHorizonGradient:
    @pytest.mark.parametrize("trial", [0, 1, 2])
    def test_matches_central_differences_with_crn(self, trial):
        model = ModelBundle(make_harmonic(), 1.0,
                            StoppingSet(-1.45, -1.4), DOMAIN)
        cfg = SimConfig(epsilon=EPS, h=2e-3)
        seed = 100 + trial
        fixed_steps = 150       # a horizon of 0.3
        rng = np.random.default_rng(trial)
        ansatz = small_ansatz(4, coeffs=0.6 * rng.standard_normal(4))
        est = estimate_exact_gradient_fixed_horizon(ansatz, 0.2, model, cfg, fixed_steps,
                                                    seed=seed, n_paths=3000)
        delta = 1e-3
        for j in range(ansatz.m):
            step = np.zeros(ansatz.m)
            step[j] = delta
            up, up_se = estimate_cost(ansatz.with_coefficients(ansatz.coefficients + step),
                                      0.2, model, cfg, seed=seed,
                                      fixed_steps=fixed_steps, n_paths=3000)
            dn, dn_se = estimate_cost(ansatz.with_coefficients(ansatz.coefficients - step),
                                      0.2, model, cfg, seed=seed,
                                      fixed_steps=fixed_steps, n_paths=3000)
            fd = (up - dn) / (2 * delta)
            combined = np.hypot(est.gradient_stderr[j], np.hypot(up_se, dn_se) / (2 * delta))
            tol = max(3 * combined, 1e-3 * abs(est.gradient[j]))
            assert abs(fd - est.gradient[j]) <= tol, (
                f"component {j}: fd={fd:.6f} grad={est.gradient[j]:.6f} tol={tol:.6f}")

    def test_zero_control_zero_observable_gradient_vanishes(self):
        model = ModelBundle(make_harmonic(), 0.0,
                            StoppingSet(-1.45, -1.4), DOMAIN)
        cfg = SimConfig(epsilon=EPS, h=2e-3)
        est = estimate_exact_gradient_fixed_horizon(small_ansatz(), 0.2, model, cfg,
                                                    100, seed=2, n_paths=500)
        np.testing.assert_allclose(est.gradient, 0.0, atol=1e-12)
        assert est.value == 0.0


class TestInexactGradient:
    def test_zero_coefficients_first_term_vanishes(self):
        model = easy_model()
        cfg = SimConfig(epsilon=EPS, h=2e-3)
        ansatz = small_ansatz(4)
        est = estimate_inexact_gradient(ansatz, 1.0, model, cfg, seed=4, n_paths=400)
        # with c = 0 the cost is sigma tau; the covariance term carries it all
        batch_cost_se = est.value_stderr
        assert est.value > 0
        assert batch_cost_se > 0

    def test_agrees_with_exact_when_horizon_fixed(self):
        # identical accumulators: with a deterministic horizon the inexact
        # estimator and the exact one are the same computation
        model = ModelBundle(make_harmonic(), 1.0,
                            StoppingSet(-1.45, -1.4), DOMAIN)
        cfg = SimConfig(epsilon=EPS, h=2e-3)
        ansatz = small_ansatz(4, coeffs=[0.3, -0.2, 0.1, 0.4])
        exact = estimate_exact_gradient_fixed_horizon(ansatz, 0.2, model, cfg, 150,
                                                      seed=6, n_paths=800)
        assert exact.n_paths == 800
        assert np.all(np.isfinite(exact.gradient))

    def test_descent_direction_reduces_cost(self):
        # one small step along -gradient lowers the CRN-fixed cost
        model = easy_model()
        cfg = SimConfig(epsilon=EPS, h=2e-3)
        ansatz = small_ansatz(4)
        x0 = 1.0
        est = estimate_inexact_gradient(ansatz, x0, model, cfg, seed=8, n_paths=1000)
        step = 0.02 / np.linalg.norm(est.gradient)
        moved = ansatz.with_coefficients(ansatz.coefficients - step * est.gradient)
        v0, _ = estimate_cost(ansatz, x0, model, cfg, seed=8, n_paths=1000)
        v1, _ = estimate_cost(moved, x0, model, cfg, seed=8, n_paths=1000)
        assert v1 < v0

    def test_censored_paths_raise_without_a_warning(self):
        model = easy_model()
        cfg = SimConfig(epsilon=EPS, h=1e-3, max_steps=3000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CensoredPathError,
                               match=r"\d+/64 paths did not hit within max_steps=3000"):
                estimate_inexact_gradient(small_ansatz(), 1.0, model, cfg, seed=11,
                                          n_paths=64)


class TestVariationalBound:
    def test_cost_at_reference_fit_bounded_below_by_free_energy(self):
        from optforce.reference import build_grid, solve_fk
        model = easy_model(1.0)
        grid = build_grid(S, DOMAIN, 1e-3)
        sol = solve_fk(model.potential, 1.0, EPS, grid, S)
        x0 = 1.0
        f_x0 = float(sol.interp("free_energy", x0))
        # fit the basis to the reference free energy, then estimate the cost
        ansatz = small_ansatz(8, width=0.35)
        A = ansatz.values_matrix(grid.nodes)
        coef, *_ = np.linalg.lstsq(A, sol.free_energy, rcond=None)
        fitted = ansatz.with_coefficients(coef)
        cfg = SimConfig(epsilon=EPS, h=1e-3)
        value, stderr = estimate_cost(fitted, x0, model, cfg, seed=13, n_paths=2000)
        assert value >= f_x0 - 3 * stderr - 0.05


def test_make_objective_subspace_restriction():
    model = easy_model()
    cfg = SimConfig(epsilon=EPS, h=2e-3)
    template = small_ansatz(4, coeffs=[0.5, 0.1, -0.2, 0.3])
    indices = np.array([1, 3])
    objective = make_objective(template, 1.0, model, cfg, indices=indices,
                               n_paths=300)
    est = objective(np.array([0.1, 0.3]), 14)
    assert est.gradient.shape == (2,)
    full = make_objective(template, 1.0, model, cfg, indices=np.arange(4),
                          n_paths=300)
    est_full = full(np.array([0.5, 0.1, -0.2, 0.3]), 14)
    np.testing.assert_allclose(est.gradient,
                               est_full.gradient[indices], rtol=1e-10)
    assert est.value == pytest.approx(est_full.value, rel=1e-12)
