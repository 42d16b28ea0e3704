import numpy as np
import pytest

from optforce.ansatz import (GaussianAnsatz, init_fill_wells, make_uniform_ansatz,
                             tilted_potential_from)
from optforce.model import (SimulationDomain, StoppingSet, make_flat, make_harmonic,
                            make_potential)
from optforce.reference import build_grid

DOMAIN = SimulationDomain(-1.5, 2.0)
S = StoppingSet(-1.1, -1.0)


def single_gaussian(center=0.0, width=0.1, coeff=1.0):
    return GaussianAnsatz(np.array([center]), np.array([width]), np.array([coeff]))


class TestMakeUniformAnsatz:
    def test_headline_layout(self):
        a = make_uniform_ansatz(10, DOMAIN, S, 0.1)
        assert a.m == 10
        assert a.centers[0] == pytest.approx(-1.0)
        assert a.centers[-1] == pytest.approx(2.0)
        assert np.all(np.diff(a.centers) > 0)
        d = np.diff(a.centers)
        np.testing.assert_allclose(d, d[0])
        np.testing.assert_allclose(a.widths, 0.1)
        np.testing.assert_allclose(a.coefficients, 0.0)

    def test_single_center_at_midpoint(self):
        a = make_uniform_ansatz(1, DOMAIN, S, 0.2)
        assert a.centers[0] == pytest.approx(0.5)

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValueError):
            make_uniform_ansatz(5, DOMAIN, S, 0.0)

    def test_empty_complement_rejected(self):
        with pytest.raises(ValueError):
            make_uniform_ansatz(5, SimulationDomain(-1.5, -1.0), S, 0.1)


class TestEvaluation:
    def test_zero_coefficients(self):
        a = make_uniform_ansatz(10, DOMAIN, S, 0.1)
        for x in (-0.5, 0.0, 1.3):
            assert a.value(x) == 0.0 and a.control(x) == 0.0

    def test_center_symmetry(self):
        a = single_gaussian(center=0.4)
        v, c = a.value(0.4), a.control(0.4)
        assert v == pytest.approx(1.0)
        assert c == pytest.approx(0.0, abs=1e-14)

    def test_closed_form_one_width_off_center(self):
        a = single_gaussian(center=0.0, width=0.1)
        v, c = a.value(0.1), a.control(0.1)
        assert v == pytest.approx(np.exp(-0.5), rel=1e-12)
        assert c == pytest.approx(np.sqrt(2.0) * 10.0 * np.exp(-0.5), rel=1e-12)
        assert c == pytest.approx(8.577638849607068, rel=1e-10)

    def test_control_is_minus_sqrt2_grad_value(self):
        rng = np.random.default_rng(3)
        a = GaussianAnsatz(np.linspace(-1, 2, 7), np.full(7, 0.3),
                           rng.standard_normal(7))
        xs = rng.uniform(-1.4, 1.9, 50)
        step = 1e-6
        grad_fd = (a.value(xs + step) - a.value(xs - step)) / (2 * step)
        np.testing.assert_allclose(a.control(xs), -np.sqrt(2.0) * grad_fd,
                                   rtol=1e-6, atol=1e-8)

    def test_linearity_in_coefficients(self):
        rng = np.random.default_rng(4)
        base = make_uniform_ansatz(6, DOMAIN, S, 0.25)
        u, w = rng.standard_normal(6), rng.standard_normal(6)
        xs = rng.uniform(-1, 2, 20)
        both = base.with_coefficients(u + w)
        np.testing.assert_allclose(
            both.value(xs),
            base.with_coefficients(u).value(xs) + base.with_coefficients(w).value(xs),
            rtol=1e-12)

    def test_mask_zeroes_contributions(self):
        a = GaussianAnsatz(np.array([0.0, 1.0]), np.array([0.3, 0.3]),
                           np.array([1.0, 1.0]))
        masked = a.with_mask(np.array([True, False]))
        assert masked.value(1.0) == pytest.approx(
            float(np.exp(-1.0 / (2 * 0.09))), rel=1e-12)
        only_first = a.with_coefficients(np.array([1.0, 0.0]))
        assert masked.value(0.7) == pytest.approx(only_first.value(0.7), rel=1e-12)
        assert masked.control(0.7) == pytest.approx(only_first.control(0.7), rel=1e-12)


class TestTiltedPotential:
    def test_zero_coefficients_returns_v(self):
        a = make_uniform_ansatz(5, DOMAIN, S, 0.2)
        p = make_potential("skew_double_well")
        tilted = tilted_potential_from(a, p)
        assert tilted.evaluate(0.7) == pytest.approx(float(p.evaluate(0.7)))

    def test_flat_potential_unit_gaussian(self):
        a = single_gaussian(center=0.0, width=0.3)
        assert tilted_potential_from(a, make_flat()).evaluate(0.0) == pytest.approx(2.0)

    def test_gradient_consistency(self):
        rng = np.random.default_rng(5)
        a = GaussianAnsatz(np.linspace(-1, 2, 8), np.full(8, 0.3),
                           rng.standard_normal(8))
        p = make_potential("skew_double_well")
        tilted = tilted_potential_from(a, p)
        xs = rng.uniform(-1.4, 1.9, 30)
        step = 1e-6
        fd = (tilted.evaluate(xs + step) - tilted.evaluate(xs - step)) / (2 * step)
        np.testing.assert_allclose(tilted.gradient(xs), fd, rtol=1e-5, atol=1e-7)


class TestInitFillWells:
    def test_flat_potential_gives_zero(self):
        a = make_uniform_ansatz(8, DOMAIN, S, 0.3)
        grid = build_grid(S, DOMAIN, 1e-3)
        coef = init_fill_wells(a, make_flat(), grid)
        np.testing.assert_allclose(coef, 0.0)

    def test_single_well_no_interior_barrier(self):
        a = make_uniform_ansatz(8, DOMAIN, S, 0.3)
        grid = build_grid(S, DOMAIN, 1e-3)
        coef = init_fill_wells(a, make_harmonic(), grid)
        np.testing.assert_allclose(coef, 0.0)

    def test_skew_double_well_barrier_halved(self):
        p = make_potential("skew_double_well")
        a = make_uniform_ansatz(10, DOMAIN, S, np.sqrt(0.1))
        grid = build_grid(S, DOMAIN, 1e-3)
        coef = init_fill_wells(a, p, grid)
        filled = a.with_coefficients(coef)
        x = grid.nodes
        x0 = 1.0298959850506604
        i0 = np.searchsorted(x, x0)
        v = np.asarray(p.evaluate(x))
        g = v + 2.0 * filled.value(x)
        barrier_v = v[:i0].max() - float(p.evaluate(x0))
        barrier_g = g[:i0].max() - float(g[i0])
        assert barrier_g <= 0.5 * barrier_v


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        a = GaussianAnsatz(np.linspace(-1, 2, 10), np.full(10, 0.316),
                           rng.standard_normal(10))
        b = GaussianAnsatz.from_json(a.to_json())
        np.testing.assert_array_equal(a.centers, b.centers)
        np.testing.assert_array_equal(a.widths, b.widths)
        np.testing.assert_array_equal(a.coefficients, b.coefficients)


def test_validation():
    with pytest.raises(ValueError):
        GaussianAnsatz(np.array([0.0]), np.array([0.1, 0.2]), np.array([1.0]))
    with pytest.raises(ValueError):
        GaussianAnsatz(np.array([0.0]), np.array([-0.1]), np.array([1.0]))
