import numpy as np
import pytest

from optforce.model import (SimulationDomain, StoppingSet, make_flat,
                            make_harmonic, make_potential)
from optforce.reference import (MAX_GRID_NODES, Grid1D, QuadratureError, ReferenceError,
                                build_grid, mfpt_quadrature_oracle, solve_fk,
                                solve_mfpt_pde, solve_reference)

EPS = 0.5
S = StoppingSet(-1.1, -1.0)
DOMAIN = SimulationDomain(-1.5, 2.0)

# absorbing-at-zero setup for the closed-form cases
S0 = StoppingSet(-0.1, 0.0)
DOM0 = SimulationDomain(-0.2, 2.0)


def closed_form_psi(x, L, sigma, eps):
    # solution of eps^2 psi'' = sigma psi, psi(0)=1, psi'(L)=0
    r = np.sqrt(sigma) / eps
    return np.cosh(r * (L - x)) / np.cosh(r * L)


class TestGrid:
    def test_build(self):
        g = build_grid(S, DOMAIN, 1e-3)
        assert g.lo == pytest.approx(-1.0)
        assert g.hi == pytest.approx(2.0)
        assert g.nodes.size == 3001

    @pytest.mark.parametrize("nodes", [MAX_GRID_NODES, MAX_GRID_NODES + 1])
    def test_the_node_bound(self, nodes):
        # the bound's own grid is built; one node more is refused
        dx = 3.0 / (nodes - 1)
        if nodes <= MAX_GRID_NODES:
            assert build_grid(S, DOMAIN, dx).nodes.size == nodes
        else:
            with pytest.raises(ValueError, match=f"more than {MAX_GRID_NODES} nodes"):
                build_grid(S, DOMAIN, dx)

    @pytest.mark.parametrize("dx", [1e-10, 5e-324])
    def test_rejects_a_grid_too_fine_before_counting_it(self, dx):
        # 5e-324 makes the node count infinite, which no int can hold
        with pytest.raises(ValueError, match="grid too fine"):
            build_grid(S, DOMAIN, dx)

    @pytest.mark.parametrize("dx", [7e-3, 0.013, 0.4])
    def test_rejects_a_spacing_that_does_not_divide_the_interval(self, dx):
        # the last node would miss the reflecting wall at domain.hi = 2.0
        with pytest.raises(ValueError, match=f"spacing {dx} does not divide"):
            build_grid(S, DOMAIN, dx)

    def test_rejects_nonuniform(self):
        with pytest.raises(ValueError):
            Grid1D(nodes=np.array([0.0, 0.1, 0.3]), spacing=0.1)


class TestSolveFK:
    def test_sigma_zero_gives_ones(self):
        g = build_grid(S, DOMAIN, 1e-3)
        psi, F = solve_fk(make_potential("skew_double_well"), 0.0, EPS, g)
        np.testing.assert_allclose(psi, 1.0, atol=1e-12)
        np.testing.assert_allclose(F, 0.0, atol=1e-12)

    @pytest.mark.parametrize("eps,sigma", [(0.5, 1.0), (1.0, 1.0), (0.5, 0.7), (2.0, 3.0)])
    def test_flat_closed_form(self, eps, sigma):
        L = 2.0
        g = build_grid(S0, DOM0, 1e-3)
        psi, _ = solve_fk(make_flat(), sigma, eps, g)
        expected = closed_form_psi(g.nodes, L, sigma, eps)
        np.testing.assert_allclose(psi, expected, rtol=1e-4)

    def test_skew_double_well_shape(self):
        # free energy is zero at the boundary and increases away from S
        g = build_grid(S, DOMAIN, 1e-3)
        psi, F = solve_fk(make_potential("skew_double_well"), 1.0, EPS, g)
        assert F[0] == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.diff(F) > -1e-9)
        assert 0.0 < psi.min() and psi.max() <= 1.0 + 1e-12

    def test_negative_sigma_rejected(self):
        g = build_grid(S, DOMAIN, 1e-2)
        with pytest.raises(ReferenceError):
            solve_fk(make_flat(), -1.0, EPS, g)

    def test_maximum_principle(self):
        g = build_grid(S, DOMAIN, 1e-3)
        psi, _ = solve_fk(make_potential("skew_double_well"), 2.0, EPS, g)
        assert np.all(psi > 0.0)
        assert np.all(psi <= 1.0 + 1e-12)

    def test_hjb_residual_second_order(self):
        # eps F'' - V' F' - |F'|^2 + sigma = O(dx^2) in the interior
        p = make_potential("skew_double_well")
        sigma = 1.0

        def residual(dx):
            g = build_grid(S, DOMAIN, dx)
            _, F = solve_fk(p, sigma, EPS, g)
            x = g.nodes
            fp = (F[2:] - F[:-2]) / (2 * dx)
            fpp = (F[2:] - 2 * F[1:-1] + F[:-2]) / dx ** 2
            vp = p.gradient(x[1:-1])
            res = EPS * fpp - vp * fp - fp ** 2 + sigma
            inner = slice(20, -20)
            return np.max(np.abs(res[inner]))

        r1, r2 = residual(4e-3), residual(2e-3)
        order = np.log2(r1 / r2)
        assert order >= 1.8


class TestSolveMFPT:
    def test_flat_closed_form(self):
        L = 2.0
        g = build_grid(S0, DOM0, 1e-3)
        m = solve_mfpt_pde(make_flat(), EPS, g)
        expected = (2 * L * g.nodes - g.nodes ** 2) / (2 * EPS)
        np.testing.assert_allclose(m[1:], expected[1:], rtol=1e-4)

    def test_boundary_values(self):
        g = build_grid(S, DOMAIN, 1e-3)
        m = solve_mfpt_pde(make_potential("skew_double_well"), EPS, g)
        assert m[0] == 0.0
        assert np.all(m[1:] > 0.0)

    @pytest.mark.parametrize("eps", [0.5, 0.3, 0.2])
    def test_sigma_derivative_cross_check(self, eps):
        # solve_reference passes its check as the MFPT grows 1800-fold; the
        # derivative route at its step agrees to first order in delta
        g = build_grid(S, DOMAIN, 1e-3)
        p = make_potential("skew_double_well")
        _, _, m = solve_reference(p, 1.0, eps, g)
        delta = 3.76e-3 * eps / m.max()
        m_alt = solve_fk(p, delta, eps, g)[1] / delta
        mask = m > 1.0
        assert np.max(np.abs(m_alt[mask] / m[mask] - 1.0)) < 1e-2

    def test_grid_refinement_order(self):
        p = make_potential("skew_double_well")
        x_probe = 1.0

        def value(dx):
            g = build_grid(S, DOMAIN, dx)
            m = solve_mfpt_pde(p, EPS, g)
            return np.interp(x_probe, g.nodes, m)

        v1, v2, v4 = value(4e-3), value(2e-3), value(1e-3)
        order = np.log2(abs(v1 - v2) / abs(v2 - v4))
        assert order >= 1.8


class TestQuadratureOracle:
    def test_flat_closed_form(self):
        L, eps = 2.0, 0.5
        for x in (0.3, 1.0, 2.0):
            val = mfpt_quadrature_oracle(make_flat(), eps, x, 0.0, L)
            assert val == pytest.approx((2 * L * x - x ** 2) / (2 * eps), abs=1e-8)

    def test_harmonic_frozen_regression(self):
        # computed once with this oracle and frozen
        val = mfpt_quadrature_oracle(make_harmonic(), 0.5, 1.0, 0.0, 1.0)
        assert val == pytest.approx(0.7394416300990793, rel=1e-9)

    def test_monotone_in_x(self):
        p = make_potential("skew_double_well")
        xs = [0.0, 0.5, 1.0, 1.5]
        vals = [mfpt_quadrature_oracle(p, EPS, x, -1.0, 2.0) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            mfpt_quadrature_oracle(make_flat(), EPS, -0.5, 0.0, 1.0)

    def test_pde_matches_oracle_at_start_point(self):
        p = make_potential("skew_double_well")
        g = build_grid(S, DOMAIN, 1e-3)
        m = solve_mfpt_pde(p, EPS, g)
        x0 = 1.0298959850506604
        oracle = mfpt_quadrature_oracle(p, EPS, x0, -1.0, 2.0)
        assert np.interp(x0, g.nodes, m) == pytest.approx(oracle, rel=1e-3)


def test_solve_reference_bundles_all_fields():
    # psi and F are solve_fk's at sigma and the MFPT solve_mfpt_pde's, bit for
    # bit, each one value per node with the absorbing edge at the first node
    p = make_potential("skew_double_well")
    g = build_grid(S, DOMAIN, 2e-3)
    psi, F, m = solve_reference(p, 1.0, EPS, g)
    fk_psi, fk_F = solve_fk(p, 1.0, EPS, g)
    assert all(a.shape == g.nodes.shape for a in (psi, F, m))
    assert psi.tobytes() == fk_psi.tobytes() and F.tobytes() == fk_F.tobytes()
    assert m.tobytes() == solve_mfpt_pde(p, EPS, g).tobytes()
    assert (psi[0], F[0], m[0]) == (1.0, 0.0, 0.0)
    assert np.all(psi[1:] < 1.0) and np.all(F[1:] > 0.0) and np.all(m[1:] > 0.0)


def test_tilted_mfpt_much_smaller():
    # replacing V by V + 2F speeds up hitting by well over 10x
    p = make_potential("skew_double_well")
    g = build_grid(S, DOMAIN, 1e-3)
    _, F = solve_fk(p, 1.0, EPS, g)
    nodes, dx = g.nodes, g.spacing
    fp = np.gradient(F, nodes)
    from optforce.model import Potential
    tilted = Potential(lambda x: p.evaluate(x) + 2 * np.interp(x, nodes, F),
                       lambda x: p.gradient(x) + 2 * np.interp(x, nodes, fp))
    m_tilted = solve_mfpt_pde(tilted, EPS, g)
    m_plain = solve_mfpt_pde(p, EPS, g)
    x0 = 1.0298959850506604
    ratio = np.interp(x0, nodes, m_plain) / np.interp(x0, nodes, m_tilted)
    assert ratio > 10.0
