import dataclasses
import warnings

import numpy as np
import pytest

from optforce.ansatz import make_uniform_ansatz
from optforce.dynamics import CensoredPathError, SimConfig
from optforce.estimators import (estimate_mfpt_reweighted, estimate_psi_reweighted,
                                 summarize)
from optforce.model import (ModelBundle, SimulationDomain, StoppingSet,
                            make_scaled_double_well)
from optforce.reference import build_grid, mfpt_quadrature_oracle, solve_fk
from scalar_oracle import FieldControl

EPS = 0.5
DOMAIN = SimulationDomain(-1.5, 2.0)
S = StoppingSet(-1.1, -1.0)
X0 = 1.0


def easy_model():
    return ModelBundle(make_scaled_double_well(barrier_scale=0.5, skew=-0.25),
                       1.0, S, DOMAIN)


def reference_control(model, sigma=1.0, scale=1.0):
    grid = build_grid(model.stopping_set, model.domain, 1e-3)
    sol = solve_fk(model.potential, sigma, EPS, grid, model.stopping_set)
    fp = np.gradient(sol.free_energy, grid.nodes)
    return FieldControl(lambda x: -np.sqrt(2.0) * scale * np.interp(x, grid.nodes, fp)), sol


class TestSummarize:
    def test_hand_arithmetic(self):
        res = summarize([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        assert res.estimate == pytest.approx(2.0)
        assert res.stderr == pytest.approx(0.5773502691896258)
        assert res.ci95[0] == pytest.approx(0.8683934723882734, abs=1e-9)
        assert res.ci95[1] == pytest.approx(3.1316065276117266, abs=1e-9)
        assert res.ess == pytest.approx(3.0)

    def test_repeated_value_degenerate_ci(self):
        res = summarize([2.5, 2.5, 2.5], [1.0, 1.0, 1.0])
        assert res.stderr == 0.0
        assert res.ci95 == (2.5, 2.5)

    def test_extreme_weights_collapse_ess(self):
        res = summarize([1.0, 1.0], [1.0, 1e6])
        assert res.ess == pytest.approx((1 + 1e6) ** 2 / (1 + 1e12))
        assert res.ess < 1.001

    def test_degeneracy_flag_relative_to_n(self):
        n = 1000
        res = summarize(np.ones(n), np.r_[np.ones(n - 1), 1e9])
        assert res.ess < 0.01 * n
        assert res.degenerate

    def test_ci_contains_estimate_and_ess_bounded(self):
        rng = np.random.default_rng(0)
        s, w = rng.exponential(1.0, 50), rng.uniform(0.5, 2.0, 50)
        res = summarize(s, w)
        assert res.ci95[0] <= res.estimate <= res.ci95[1]
        assert 0 < res.ess <= res.n_paths

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            summarize([1.0], [1.0])


class TestPsiReweighted:
    def test_untilted_matches_fd_reference(self):
        model = easy_model()
        cfg = SimConfig(epsilon=EPS, h=1e-3)
        ansatz = make_uniform_ansatz(4, DOMAIN, S, 0.4)   # zero coefficients
        est = estimate_psi_reweighted(ansatz, X0, model, cfg, seed=50, n_paths=2000)
        _, sol = reference_control(model)
        psi_ref = float(sol.interp("psi", X0))
        assert abs(est.psi.estimate - psi_ref) < 3 * est.psi.stderr + 0.02 * psi_ref
        # untilted: all weights are equal
        assert est.psi.ess == est.psi.n_paths

    def test_sigma_zero_reduces_to_martingale(self):
        # weights must average to one; a mild tilt keeps their tail light
        # enough for the sample mean to see it at this n
        model = easy_model()
        cfg = SimConfig(epsilon=EPS, h=2e-3)
        control, _ = reference_control(model, sigma=1.0, scale=0.2)
        est = estimate_psi_reweighted(control, X0, dataclasses.replace(model, sigma=0.0),
                                      cfg, seed=51, n_paths=1500)
        assert abs(est.psi.estimate - 1.0) < 3 * est.psi.stderr

    def test_zero_variance_control_beats_crude_by_100x(self):
        model = easy_model()
        cfg = SimConfig(epsilon=EPS, h=1e-3)
        control, sol = reference_control(model)
        tilted = estimate_psi_reweighted(control, X0, model, cfg, seed=52, n_paths=1500)
        crude = estimate_psi_reweighted(make_uniform_ansatz(4, DOMAIN, S, 0.4),
                                        X0, model, cfg, seed=53, n_paths=1500)
        assert tilted.psi.stderr ** 2 * 100.0 < crude.psi.stderr ** 2
        # free energy via the delta method agrees with the reference
        f_ref = float(sol.interp("free_energy", X0))
        assert abs(tilted.free_energy.estimate - f_ref) < \
            3 * tilted.free_energy.stderr + 0.05

    def test_tilt_invariance_of_estimand(self):
        model = easy_model()
        cfg = SimConfig(epsilon=EPS, h=1e-3)
        full, _ = reference_control(model, scale=1.0)
        half, _ = reference_control(model, scale=0.5)
        e_full = estimate_psi_reweighted(full, X0, model, cfg, seed=54, n_paths=1500)
        e_half = estimate_psi_reweighted(half, X0, model, cfg, seed=55, n_paths=1500)
        e_none = estimate_psi_reweighted(make_uniform_ansatz(3, DOMAIN, S, 0.4),
                                         X0, model, cfg, seed=56, n_paths=1500)
        pairs = [(e_full, e_half), (e_half, e_none), (e_full, e_none)]
        for a, b in pairs:
            combined = np.hypot(a.psi.stderr, b.psi.stderr)
            assert abs(a.psi.estimate - b.psi.estimate) < 3 * combined + 1e-4

    def test_variance_ordering(self):
        model = easy_model()
        cfg = SimConfig(epsilon=EPS, h=1e-3)
        full, _ = reference_control(model, scale=1.0)
        half, _ = reference_control(model, scale=0.5)
        e_full = estimate_psi_reweighted(full, X0, model, cfg, seed=57, n_paths=1500)
        e_half = estimate_psi_reweighted(half, X0, model, cfg, seed=58, n_paths=1500)
        e_none = estimate_psi_reweighted(make_uniform_ansatz(3, DOMAIN, S, 0.4),
                                         X0, model, cfg, seed=59, n_paths=1500)
        assert e_full.psi.stderr < e_half.psi.stderr < e_none.psi.stderr

    def test_censored_paths_hard_error(self):
        model = easy_model()
        cfg = SimConfig(epsilon=EPS, h=1e-3, max_steps=100)
        with pytest.raises(CensoredPathError):
            estimate_psi_reweighted(make_uniform_ansatz(3, DOMAIN, S, 0.4),
                                    X0, model, cfg, seed=60, n_paths=64)


class TestMfptReweighted:
    def test_untilted_matches_quadrature(self):
        model = easy_model()
        cfg = SimConfig(epsilon=EPS, h=1e-3)
        est = estimate_mfpt_reweighted(make_uniform_ansatz(3, DOMAIN, S, 0.4),
                                       X0, model, cfg, seed=61, n_paths=2000)
        oracle = mfpt_quadrature_oracle(model.potential, EPS, X0, S.hi, DOMAIN.hi)
        assert abs(est.estimate - oracle) < 3 * est.stderr + 0.05 * oracle

    def test_start_in_the_stopping_set_raises(self):
        model = easy_model()
        cfg = SimConfig(epsilon=EPS, h=1e-3)
        with pytest.raises(ValueError, match=r"^x0=-1.0 already inside the stopping set$"):
            estimate_mfpt_reweighted(None, -1.0, model, cfg, seed=62, n_paths=16)

    def test_unbiasedness_over_replications(self):
        # moderate tilt, easy potential: replication mean matches the oracle
        model = easy_model()
        control, _ = reference_control(model, scale=0.4)
        oracle = mfpt_quadrature_oracle(model.potential, EPS, X0, S.hi, DOMAIN.hi)
        reps, degenerate = [], 0
        # a replication whose weights degenerate warns; record those warnings
        # here rather than let them reach the test run's summary
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for r in range(50):
                cfg = SimConfig(epsilon=EPS, h=2e-3)
                est = estimate_mfpt_reweighted(control, X0, model, cfg, seed=700 + r,
                                               n_paths=400)
                reps.append(est.estimate)
                degenerate += est.degenerate
        assert degenerate <= 1
        assert len(caught) == degenerate
        assert all(str(w.message).startswith("effective sample size") for w in caught)
        reps = np.array(reps)
        rep_se = reps.std(ddof=1) / np.sqrt(reps.size)
        # 3 replication stderr plus the O(sqrt(h)) hitting-time bias allowance
        assert abs(reps.mean() - oracle) < 3 * rep_se + 0.04 * oracle


def test_degeneracy_warning_fires():
    model = easy_model()
    cfg = SimConfig(epsilon=EPS, h=2e-3)
    # absurdly strong tilt: weights degenerate
    control = FieldControl(lambda x: -8.0 * np.ones_like(np.asarray(x, dtype=np.float64)))
    with pytest.warns(RuntimeWarning, match="effective sample size"):
        estimate_mfpt_reweighted(control, X0, model, cfg, seed=63, n_paths=300)
