"""Grid-based 1D reference solutions.

Finite-difference solves of the exponential-cost boundary value problem and
of the mean-first-passage-time equation, plus an independent quadrature
oracle.  The generator used everywhere is the drift-consistent
L = eps d^2/dx^2 - V' d/dx, so the exponential-cost function

    psi_sigma(x) = E^x[exp(-sigma * tau / eps)]

solves  eps^2 psi'' - eps V' psi' = sigma psi  with psi = 1 on the stopping
boundary and a reflecting (zero-derivative) outer boundary, and
F = -eps log psi is the value function of the associated control problem.
Every solve takes a `Grid1D` from `build_grid`, whose first node is the
absorbing edge (the stopping set's right edge) and whose last is the
reflecting wall, and returns plain arrays with one value per node.
`solve_reference`, the one caller that needs both solves, owns the
cross-check of the MFPT against the derivative of F in sigma.

Nothing here needs scipy.  The tridiagonal solve is `dgtsv`, a port of
LAPACK's routine of that name, which `scipy.linalg.solve_banded` runs for
(1, 1) bands; the oracle runs `quadpack.qagse`, a port of QUADPACK's
`dqagse`, the routine behind `scipy.integrate.quad`.  Both return scipy's
results bit for bit: neither compiled original fuses a multiply and an add
(no FMA instructions), so Python float arithmetic done in the same order
rounds the same way.  Importing `scipy.integrate` and `scipy.linalg` for
these two calls would cost the `reference` and `compare` stages about 0.7 s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Potential, StoppingSet, SimulationDomain


class ReferenceError(RuntimeError):
    """A grid solve produced an unusable solution (wrong sign, singular, ...)."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D grid whose first node sits exactly on the stopping boundary."""

    nodes: np.ndarray
    spacing: float

    def __post_init__(self):
        d = np.diff(self.nodes)
        if not np.allclose(d, self.spacing, rtol=1e-9, atol=1e-12):
            raise ValueError("grid nodes must be uniformly spaced")

    @property
    def lo(self) -> float:
        return float(self.nodes[0])

    @property
    def hi(self) -> float:
        return float(self.nodes[-1])


# most nodes a reference grid may have.  A solve runs dgtsv's Python loop at
# about 0.7 us per node (four solves of the default 3,001-node grid take
# 0.0088 s) and holds its diagonals as Python lists of about 130 bytes a
# node, so at this bound the reference stage's four solves take about 3 s
# and 130 MB.  A dx that asks for more is refused before anything is
# allocated: at dx = 1e-10 the default interval would need 3e10 nodes.
MAX_GRID_NODES = 1_000_000


def build_grid(s: StoppingSet, domain: SimulationDomain, dx: float) -> Grid1D:
    """Grid over [right edge of S, right domain edge] with spacing dx.

    A ValueError rejects fewer than 3 or more than MAX_GRID_NODES nodes, and
    a dx that does not divide the interval into whole spans: the last node
    would miss the reflecting wall at domain.hi.
    """
    lo, hi = s.hi, domain.hi
    spans = (hi - lo) / dx
    if not spans <= MAX_GRID_NODES - 1:
        raise ValueError(f"grid too fine for the interval: [{lo}, {hi}] at spacing {dx} "
                         f"needs more than {MAX_GRID_NODES} nodes")
    n = int(round(spans)) + 1
    if n < 3:
        raise ValueError("grid too coarse for the interval")
    if abs(spans - (n - 1)) > 1e-9 * spans:
        raise ValueError(f"spacing {dx} does not divide [{lo}, {hi}] into whole spans; "
                         f"the grid would end at {lo + dx * (n - 1):.12g}, not at {hi}")
    nodes = lo + dx * np.arange(n)
    return Grid1D(nodes=nodes, spacing=float(dx))


def dgtsv(dl, d, du, b) -> np.ndarray:
    """Solve the tridiagonal system with diagonals dl (n - 1), d (n) and du (n - 1).

    A port of LAPACK's `dgtsv` (Gaussian elimination with partial pivoting)
    for one right-hand side b, the routine `scipy.linalg.solve_banded` runs
    for (1, 1) bands.  It returns LAPACK's x bit for bit: the compiled
    routine fuses no multiply and add, so Python floats in the same order
    round the same way.  A zero pivot raises ReferenceError.
    """
    dl, d, du, b = (np.asarray(v, dtype=np.float64).tolist() for v in (dl, d, du, b))
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            # no row interchange
            if d[i] == 0.0:
                raise ReferenceError(f"singular tridiagonal system: zero pivot in row {i}")
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            # i = n - 2 is LAPACK's separate last step, which leaves dl and du alone
            if i < n - 2:
                dl[i] = 0.0
        else:
            # interchange rows i and i + 1
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            temp = b[i]
            b[i] = b[i + 1]
            b[i + 1] = temp - fact * b[i + 1]
    if d[n - 1] == 0.0:
        raise ReferenceError(f"singular tridiagonal system: zero pivot in row {n - 1}")
    # back substitution with the upper factor (diagonals d, du and dl)
    b[n - 1] = b[n - 1] / d[n - 1]
    if n > 1:
        b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return np.array(b)


def _solve_generator(p: Potential, grid: Grid1D, diffusion: float, drift: float,
                     shift: float, source: float, boundary_value: float) -> np.ndarray:
    """Solve diffusion u'' - drift V' u' - shift u = source on the grid.

    u(grid.lo) = boundary_value and u'(grid.hi) = 0.  Second-order centered
    differences; the outer boundary reflects through a symmetric ghost node.
    """
    dx = grid.spacing
    n = grid.nodes.size
    vp = np.asarray(p.gradient(grid.nodes), dtype=np.float64)
    e = diffusion / dx ** 2
    d = np.full(n, -2.0 * e - shift)
    du = e - drift * vp[:-1] / (2.0 * dx)    # coefficient of u_{i+1}, rows 0..n-2
    dl = e + drift * vp[1:] / (2.0 * dx)     # coefficient of u_{i-1}, rows 1..n-1
    # Dirichlet row at the stopping boundary
    d[0] = 1.0
    du[0] = 0.0
    # reflecting outer boundary: ghost u_n = u_{n-2}
    dl[-1] = 2.0 * e
    rhs = np.full(n, float(source))
    rhs[0] = boundary_value
    u = dgtsv(dl, d, du, rhs)
    u[0] = boundary_value   # Dirichlet row, exact
    return u


def solve_fk(p: Potential, sigma: float, epsilon: float,
             grid: Grid1D) -> tuple[np.ndarray, np.ndarray]:
    """Solve eps^2 psi'' - eps V' psi' = sigma psi, psi(grid.lo) = 1, psi'(hi) = 0.

    grid.lo is the absorbing edge (build_grid puts it on the stopping set's
    right edge).  Returns psi and F = -eps log psi, one value per node.
    """
    if sigma < 0:
        raise ReferenceError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0.0:
        # exp(0) functional: psi is identically one
        return np.ones(grid.nodes.size), np.zeros(grid.nodes.size)
    psi = _solve_generator(p, grid, epsilon ** 2, epsilon, sigma, 0.0, 1.0)
    if not np.all(np.isfinite(psi)):
        raise ReferenceError("singular or ill-conditioned boundary value problem")
    if np.any(psi <= 0.0):
        raise ReferenceError("psi <= 0 on the grid; discretization too coarse")
    return psi, -epsilon * np.log(psi)


def solve_mfpt_pde(p: Potential, epsilon: float, grid: Grid1D) -> np.ndarray:
    """Solve eps m'' - V' m' = -1, m(grid.lo) = 0, m'(hi) = 0; return m per node.

    grid.lo is the absorbing edge, as for solve_fk.
    """
    m = _solve_generator(p, grid, epsilon, 1.0, 0.0, -1.0, 0.0)
    if not np.all(np.isfinite(m)) or np.any(m[1:] <= 0.0):
        raise ReferenceError("MFPT solve failed (non-finite or negative values)")
    return m


def solve_reference(p: Potential, sigma: float, epsilon: float,
                    grid: Grid1D) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """psi, F and the MFPT on one grid, one value per node, the MFPT cross-checked.

    F_delta / delta, from the exponential-cost solve at a small sigma =
    delta, must match the MFPT to within 5e-2 of its largest value.  The
    route's first-order error is about delta m / (2 eps) relative, so delta
    = c eps / max(m) keeps it the same at every temperature; c = 3.76e-3
    gives delta = 2e-5 on the headline run (eps 0.5, MFPT about 94).
    """
    psi, free_energy = solve_fk(p, sigma, epsilon, grid)
    m = solve_mfpt_pde(p, epsilon, grid)
    scale = max(float(m.max()), 1.0)
    delta = 3.76e-3 * epsilon / scale
    # F_0 = 0, so the first-order derivative route is F_delta / delta
    m_alt = solve_fk(p, delta, epsilon, grid)[1] / delta
    rel = float(np.max(np.abs(m_alt - m))) / scale
    if rel > 5e-2:
        raise ReferenceError(f"sigma-derivative cross-check disagrees (rel {rel:.2e})")
    return psi, free_energy, m


def mfpt_quadrature_oracle(p: Potential, epsilon: float, x: float,
                           absorb_at: float, reflect_at: float) -> float:
    """Mean first passage time by the 1D closed form, adaptive quadrature.

        E[tau](x) = (1/eps) int_a^x e^{V(y)/eps} int_y^b e^{-V(z)/eps} dz dy

    with absorbing boundary a = absorb_at and reflecting boundary b =
    reflect_at.  Independent of the finite-difference solvers.

    Both integrals run `quadpack.qagse`, the in-repo port of QUADPACK's
    `dqagse` (imported here, so stages that never reach the oracle do not
    load it).  Its integrand takes a subinterval's 21 Kronrod nodes at once,
    so the inner integrand is one `np.exp` over an array.  Where numpy's
    `exp` gives an array element the bits it gives a scalar, as at every
    headline probe, the results equal `scipy.integrate.quad`'s on the scalar
    integrand bit for bit.
    """
    from .quadpack import qagse

    # the outer integral's tolerances; the inner one runs 1e3 and 1e2 times tighter
    epsabs, epsrel = 1e-8, 1e-6
    a, b = float(absorb_at), float(reflect_at)
    if not (a < x <= b):
        raise ValueError(f"need absorb_at < x <= reflect_at, got {a} < {x} <= {b}")

    def inner(y):
        val, _, _, _ = qagse(lambda z: np.exp(-p.evaluate(z) / epsilon), y, b,
                             epsabs * 1e-3, epsrel * 1e-2, limit=300)
        return val

    val, err, _, _ = qagse(
        lambda y: np.exp(p.evaluate(y) / epsilon) * [inner(v) for v in y.tolist()],
        a, x, epsabs, epsrel, limit=300)
    result = val / epsilon
    if not np.isfinite(result):
        raise QuadratureError(f"quadrature returned non-finite value at x={x}")
    if err > 50.0 * (epsabs + epsrel * abs(val)):
        raise QuadratureError(
            f"quadrature did not converge at x={x}: estimate {val}, error {err}")
    return float(result)
