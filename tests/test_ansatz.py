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


def old_basis(ansatz, x):
    """(v, b): the basis values and controls by np.subtract.outer and (m,) divisors."""
    w = ansatz.widths
    d = np.subtract.outer(np.atleast_1d(np.asarray(x, dtype=np.float64)), ansatz.centers)
    v = np.negative(d)
    v *= d
    v /= 2.0 * w ** 2
    v = np.exp(v, out=v)
    b = d * np.sqrt(2.0)
    b /= w ** 2
    b *= v
    return v, b


class TestOldFormula:
    """The basis evaluation repeats the formula it replaced, bit for bit."""

    @pytest.mark.parametrize("widths", ["equal", "unequal"])
    @pytest.mark.parametrize("x", [np.random.default_rng(1).uniform(-1.6, 2.1, 777), 0.3137,
                                   -1.05], ids=["array", "scalar", "scalar_in_s"])
    def test_basis_value_and_control(self, widths, x):
        rng = np.random.default_rng(2)
        ansatz = make_uniform_ansatz(10, DOMAIN, S, 0.35).with_coefficients(
            rng.standard_normal(10))
        if widths == "unequal":
            ansatz = GaussianAnsatz(ansatz.centers, rng.uniform(0.1, 0.6, 10),
                                    ansatz.coefficients)
            assert ansatz._w2.shape == (10,)
        else:
            assert ansatz._w2.shape == ()
        v, b = old_basis(ansatz, x)
        assert np.array_equal(ansatz.values_matrix(x), v)
        assert np.array_equal(ansatz.basis_controls(x), b)
        value, control = v @ ansatz.coefficients, b @ ansatz.coefficients
        if np.ndim(x) == 0:
            value, control = float(value[0]), float(control[0])
            assert type(ansatz.value(x)) is type(ansatz.control(x)) is float
        assert np.array_equal(ansatz.value(x), value)
        assert np.array_equal(ansatz.control(x), control)


class TestBufferedBasis:
    """basis_controls_into, as the kernel calls it, gives basis_controls' bits,
    and values_matrix, which shares its evaluation of the bumps, the old ones."""

    ROWS = [1, 3, 4, 5, 1023, 1024, 1025, 3001, 4000]

    @staticmethod
    def layout(widths, rng):
        ansatz = make_uniform_ansatz(10, DOMAIN, S, 0.35)
        if widths == "unequal":
            ansatz = GaussianAnsatz(ansatz.centers, rng.uniform(0.1, 0.6, 10),
                                    ansatz.coefficients)
        return ansatz

    @pytest.mark.parametrize("widths", ["equal", "unequal"])
    @pytest.mark.parametrize("rows", ROWS)
    def test_values_matrix_gives_the_old_bits(self, widths, rows):
        rng = np.random.default_rng(rows)
        ansatz = self.layout(widths, rng)
        x = rng.uniform(-1.6, 2.1, rows)
        assert np.array_equal(ansatz.values_matrix(x), old_basis(ansatz, x)[0])

    @pytest.mark.parametrize("widths", ["equal", "unequal"])
    @pytest.mark.parametrize("rows", ROWS)
    def test_tiled_buffers_give_the_allocated_bits(self, widths, rows):
        rng = np.random.default_rng(rows)
        ansatz = self.layout(widths, rng)
        # buffers of a batch with more rows, filled once at all of them and
        # then cut to the live rows, as compaction cuts them
        size = rows + 7
        out, scratch = np.empty((size, 10)), np.empty((size, 10))
        centers = np.tile(ansatz.centers, (size, 1))
        ansatz.basis_controls_into(rng.uniform(-1.6, 2.1, size), out, scratch, centers)
        x = rng.uniform(-1.6, 2.1, rows)
        b = ansatz.basis_controls_into(x, out[:rows], scratch[:rows], centers[:rows])
        assert np.shares_memory(b, out)
        assert np.array_equal(b, ansatz.basis_controls(x))
        assert np.array_equal(b, old_basis(ansatz, x)[1])


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
