import numpy as np
import pytest

from optforce.dynamics import SimConfig, run_batch
from optforce.model import (ModelBundle, OutOfDomainError, SimulationDomain,
                            StoppingSet, constant_observable, default_start_point,
                            make_flat, make_harmonic, make_potential)

DOMAIN = SimulationDomain(-1.5, 2.0)
S = StoppingSet(-1.1, -1.0)


def central_diff(f, x, step=1e-5):
    return (f(x + step) - f(x - step)) / (2 * step)


class TestSkewDoubleWell:
    def test_alias_matches_closed_form_bit_for_bit(self):
        # registry alias of double_well(barrier_scale=2, skew=-0.5)
        p = make_potential("skew_double_well")
        x = np.linspace(-1.5, 2.0, 3501)
        np.testing.assert_array_equal(p.evaluate(x), 2.0 * (x ** 2 - 1.0) ** 2 - 0.5 * x)
        np.testing.assert_array_equal(p.gradient(x), 8.0 * x * (x ** 2 - 1.0) - 0.5)

    def test_value_and_gradient_at_zero(self):
        p = make_potential("skew_double_well")
        assert p.evaluate(0.0) == pytest.approx(2.0)
        assert p.gradient(0.0) == pytest.approx(-0.5)

    def test_well_ordering(self):
        # left well (contains the target interval) sits higher than the right
        p = make_potential("skew_double_well")
        assert p.evaluate(-1.0) == pytest.approx(0.5)
        assert p.evaluate(1.0) == pytest.approx(-0.5)

    def test_two_minima_one_interior_maximum(self):
        p = make_potential("skew_double_well")
        x = np.linspace(-1.5, 1.5, 20001)
        sign = np.sign(p.gradient(x))
        minima = np.sum((sign[:-1] < 0) & (sign[1:] > 0))
        maxima = np.sum((sign[:-1] > 0) & (sign[1:] < 0))
        assert minima == 2 and maxima == 1
        # minima near +-1, right one lower, barrier near 0
        roots = x[:-1][np.diff(sign) != 0]
        lows = sorted(r for r in roots if abs(p.gradient(r)) < 0.1 or True)
        assert min(abs(r + 1) for r in roots) < 0.1
        assert min(abs(r - 1) for r in roots) < 0.1

    def test_start_point_is_right_minimum(self):
        p = make_potential("skew_double_well")
        x0 = default_start_point(p, DOMAIN, S)
        assert x0 == pytest.approx(1.0298959850506604, abs=1e-6)
        assert abs(p.gradient(x0)) < 1e-4


@pytest.mark.parametrize("name,params", [
    ("skew_double_well", {}),
    ("flat", {}),
    ("harmonic", {"k": 2.0}),
    ("double_well", {"barrier_scale": 0.5, "skew": -0.2}),
])
def test_gradient_consistency_100_points(name, params):
    p = make_potential(name, **params)
    rng = np.random.default_rng(42)
    xs = rng.uniform(DOMAIN.lo, DOMAIN.hi, 100)
    for x in xs:
        g = float(p.gradient(x))
        fd = central_diff(p.evaluate, x)
        assert g == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_potential_finite_on_domain():
    for name in ("skew_double_well", "flat", "harmonic"):
        p = make_potential(name)
        x = np.linspace(DOMAIN.lo, DOMAIN.hi, 1000)
        assert np.all(np.isfinite(p.evaluate(x)))


def test_unknown_potential_rejected():
    with pytest.raises(ValueError, match="unknown potential"):
        make_potential("lennard_jones")


class TestEvalModel:
    """Potential, gradient and running cost at one point, as the kernel reads them."""

    def test_bundled_evaluation(self):
        p = make_potential("skew_double_well")
        f = constant_observable(1.0)
        energy, grad, cost = p.evaluate(0.0), p.gradient(0.0), f.evaluate(0.0)
        assert (energy, grad, cost) == pytest.approx((2.0, -0.5, 1.0))

    def test_zero_observable(self):
        assert constant_observable(0.0).evaluate(0.7) == 0.0

    def test_flat_potential(self):
        p, f = make_flat(), constant_observable(2.5)
        energy, grad, cost = p.evaluate(0.3), p.gradient(0.3), f.evaluate(0.3)
        assert (energy, grad, cost) == pytest.approx((0.0, 0.0, 2.5))

    def test_out_of_domain(self):
        assert not DOMAIN.contains(5.0)
        abort = SimulationDomain(DOMAIN.lo, DOMAIN.hi, boundary="abort")
        model = ModelBundle(make_flat(), constant_observable(1.0), S, abort)
        with pytest.raises(OutOfDomainError):
            run_batch(1.95, None, model, SimConfig(epsilon=0.5, h=0.01), n_paths=8)


class TestIsHit:
    """StoppingSet.contains is the hitting test of the kernel."""

    def test_inside(self):
        assert S.contains(-1.05)

    def test_outside(self):
        assert not S.contains(0.0)

    def test_closed_boundary(self):
        assert S.contains(-1.0)
        assert S.contains(-1.1)

    def test_vectorized(self):
        x = np.array([-1.05, 0.0, -1.0])
        np.testing.assert_array_equal(S.contains(x), [True, False, True])


class TestValidation:
    def test_stopping_set_needs_order(self):
        with pytest.raises(ValueError):
            StoppingSet(1.0, -1.0)

    def test_domain_boundary_tag(self):
        with pytest.raises(ValueError):
            SimulationDomain(0.0, 1.0, boundary="wrap")

    def test_stopping_set_strictly_inside_domain(self):
        with pytest.raises(ValueError):
            ModelBundle(make_flat(), constant_observable(1.0),
                        StoppingSet(-2.0, -1.0), DOMAIN)


def test_observable_constant_vectorized():
    f = constant_observable(3.0)
    assert f.sigma == 3.0
    np.testing.assert_allclose(f.evaluate(np.zeros(5)), 3.0)


def test_harmonic_label_and_values():
    p = make_harmonic(k=4.0)
    assert p.evaluate(1.0) == pytest.approx(2.0)
    assert p.gradient(1.0) == pytest.approx(4.0)
