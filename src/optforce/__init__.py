"""Rare-event statistics of overdamped diffusions via learned optimal forcing.

Learn a parametric forcing by gradient descent on a quadratic control cost,
simulate the tilted dynamics, and recover plain-dynamics statistics through
Girsanov reweighting, with grid-based reference solvers for validation.
"""

from .ansatz import (GaussianAnsatz, init_fill_wells, make_uniform_ansatz,
                     tilted_potential_from)
from .config import RunConfig
from .dynamics import BatchResult, SimConfig, path_stream, run_batch
from .estimators import (EstimatorResult, PsiEstimate, estimate_mfpt_reweighted,
                         estimate_psi_reweighted, summarize)
from .milestoning import (MilestoneLadder, MilestoningResult, build_ladder,
                          run_milestoning, solve_shell)
from .model import (ModelBundle, Observable, Potential, SimulationDomain,
                    StoppingSet, constant_observable, default_start_point,
                    make_flat, make_harmonic, make_potential)
from .objective import (GradientEstimate, estimate_cost,
                        estimate_exact_gradient_fixed_horizon,
                        estimate_inexact_gradient, make_objective)
from .optimizer import DescentConfig, DescentTrace, descend, wolfe_line_search
from .reference import (Grid1D, ReferenceSolution, build_grid,
                        mfpt_quadrature_oracle, solve_fk, solve_mfpt_pde,
                        solve_reference)

__version__ = "0.1.0"
