"""The in-repo QUADPACK and LAPACK ports against the scipy routines they port.

`quadpack.qagse` must return `scipy.integrate.quad`'s result, error
estimate and evaluation count bit for bit, and `reference.dgtsv` must return
`scipy.linalg.solve_banded`'s solution of a (1, 1)-banded system bit for
bit.  scipy gets the scalar integrand `lambda t: float(f(np.array([t]))[0])`,
so both sides see the same integrand values and the test compares the
ports' arithmetic, not how numpy dispatches `exp` on a scalar or an array.
"""

import warnings

import numpy as np
import pytest

from optforce import quadpack, reference
from optforce.config import RunConfig
from optforce.quadpack import qagse
from optforce.reference import ReferenceError, build_grid, dgtsv, solve_reference

scipy_integrate = pytest.importorskip("scipy.integrate")
scipy_linalg = pytest.importorskip("scipy.linalg")

INTEGRANDS = {
    # end-point singularities: these run the epsilon algorithm (dqelg)
    "inv_sqrt": (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0),
    "log": (np.log, 0.0, 1.0),
    "power_-0.9": (lambda x: x ** -0.9, 0.0, 1.0),
    "x_log_x": (lambda x: x * np.log(x), 0.0, 1.0),
    # oscillatory
    "damped_cos": (lambda x: np.cos(50.0 * x) * np.exp(-x), 0.0, 3.0),
    "sin_100": (lambda x: np.sin(100.0 * x), 0.0, np.pi),
    # kinked and discontinuous
    "abs_kink": (lambda x: np.abs(x - 0.3), 0.0, 1.0),
    "sqrt_kink": (lambda x: np.sqrt(np.abs(x - 0.5)), 0.0, 1.0),
    "step": (lambda x: np.where(x < 0.4, 1.0, 2.0), 0.0, 1.0),
    # smooth, and a divergent one that runs out of subintervals
    "runge": (lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0),
    "inv": (lambda x: 1.0 / x, 0.0, 1.0),
}

TOLERANCES = {
    "scipy_default": (1.49e-8, 1.49e-8, 50),
    "oracle_outer": (1e-8, 1e-6, 300),
    "oracle_inner": (1e-11, 1e-8, 300),
    # tighter than double precision allows: QUADPACK detects roundoff
    "roundoff": (0.0, 1e-13, 100),
}


@pytest.mark.parametrize("tol", TOLERANCES)
@pytest.mark.parametrize("name", INTEGRANDS)
def test_qagse_matches_scipy_quad_bit_for_bit(name, tol):
    f, a, b = INTEGRANDS[name]
    epsabs, epsrel, limit = TOLERANCES[tol]
    value, abserr, ier, neval = qagse(f, a, b, epsabs, epsrel, limit)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # quad warns where ier is not 0
        want = scipy_integrate.quad(lambda t: float(f(np.array([t]))[0]), a, b,
                                    epsabs=epsabs, epsrel=epsrel, limit=limit,
                                    full_output=1)
    assert (value, abserr) == want[:2]
    assert neval == want[2]["neval"]
    # quad appends a message exactly when QUADPACK's ier is not 0
    assert (ier != 0) == (len(want) == 4)


def test_the_cases_reach_the_common_exits_and_extrapolate(monkeypatch):
    # ier 0 (converged), 1 (subinterval limit) and 2 (roundoff)
    iers = {qagse(f, a, b, *TOLERANCES[tol])[2]
            for f, a, b in INTEGRANDS.values() for tol in TOLERANCES}
    assert {0, 1, 2} <= iers
    extrapolations = []
    qelg = quadpack._qelg
    monkeypatch.setattr(quadpack, "_qelg",
                        lambda *args: extrapolations.append(1) or qelg(*args))
    for name in ("inv_sqrt", "log", "power_-0.9"):
        f, a, b = INTEGRANDS[name]
        before = len(extrapolations)
        qagse(f, a, b, *TOLERANCES["oracle_inner"])
        assert len(extrapolations) > before, name
    value, _, ier, _ = qagse(np.log, 0.0, 1.0)
    assert ier == 0 and value == pytest.approx(-1.0, abs=1e-12)


def solve_banded(dl, d, du, b):
    ab = np.zeros((3, d.size))
    ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
    return scipy_linalg.solve_banded((1, 1), ab, b)


def eliminate_without_pivoting(dl, d, du, b):
    """The Thomas algorithm, in dgtsv's order of operations where it does not pivot."""
    d, b = d.tolist(), b.tolist()
    for i in range(len(d) - 1):
        fact = dl[i] / d[i]
        d[i + 1] = d[i + 1] - fact * du[i]
        b[i + 1] = b[i + 1] - fact * b[i]
    b[-1] = b[-1] / d[-1]
    for i in range(len(d) - 2, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1]) / d[i]
    return np.array(b)


def system(rng, n, kind):
    """A random tridiagonal system (dl, d, du, b) of size n.

    "dominant" never interchanges rows, "sub_dominant" (|dl| >> |d|)
    interchanges nearly every row and "mixed" takes both branches.
    """
    dl, du, b = rng.uniform(-1, 1, n - 1), rng.uniform(-1, 1, n - 1), rng.standard_normal(n)
    if kind == "dominant":
        d = 3.0 + rng.random(n)
    else:
        d = (1.0 if kind == "mixed" else 1e-2) * rng.uniform(-1, 1, n)
    return dl, d, du, b


KINDS = ("dominant", "mixed", "sub_dominant")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 50, 501])
def test_dgtsv_matches_solve_banded_bit_for_bit(n, kind):
    rng = np.random.default_rng([n, KINDS.index(kind)])
    for _ in range(5):
        dl, d, du, b = system(rng, n, kind)
        assert np.array_equal(dgtsv(dl, d, du, b), solve_banded(dl, d, du, b))


def test_the_systems_take_both_pivot_branches():
    # without interchanges dgtsv is the Thomas algorithm bit for bit; the
    # systems that need them solve differently
    rng = np.random.default_rng(0)
    dl, d, du, b = system(rng, 50, "dominant")
    assert np.array_equal(dgtsv(dl, d, du, b), eliminate_without_pivoting(dl, d, du, b))
    for kind in ("mixed", "sub_dominant"):
        dl, d, du, b = system(rng, 50, kind)
        assert not np.array_equal(dgtsv(dl, d, du, b),
                                  eliminate_without_pivoting(dl, d, du, b))


def test_dgtsv_rejects_a_zero_pivot():
    with pytest.raises(ReferenceError, match="zero pivot in row 1"):
        dgtsv([0.0], [1.0, 0.0], [0.0], [1.0, 1.0])


def test_the_headline_reference_systems_match_solve_banded(monkeypatch):
    # the three systems solve_reference hands to dgtsv at the headline config:
    # psi at sigma, the MFPT, and psi at the cross-check's small sigma
    systems = []

    def recording(*args):
        systems.append(args)
        return dgtsv(*args)

    monkeypatch.setattr(reference, "dgtsv", recording)
    cfg = RunConfig()
    model = cfg.build_model()
    grid = build_grid(model.stopping_set, model.domain, cfg.dx)
    solve_reference(model.potential, cfg.sigma, cfg.epsilon, grid, model.stopping_set)
    assert len(systems) == 3
    for dl, d, du, b in systems:
        assert np.array_equal(dgtsv(dl, d, du, b), solve_banded(dl, d, du, b))
