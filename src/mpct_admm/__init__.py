"""ADMM solver for tracking MPC with semi-banded structure decoupling.

The tracking formulation augments the usual horizon QP with an artificial
steady-state pair, which destroys the banded sparsity standard MPC solvers
exploit. This package recovers it: the equality-constrained QP solved at
every iteration splits into banded/block-diagonal cores plus low-rank
corrections, so each iteration costs a handful of structured solves plus
thin dense products. A dense oracle and a closed-loop benchmark harness are
included for verification and experiments.
"""

from .admm_solver import AdmmState, SolveReport, SolveStatus, admm_solve, cold_start
from .banded_linalg import (
    BandedCholeskyFactor,
    PredictionSparseMatrix,
    SymBandedMatrix,
    banded_cholesky_factor,
)
from .errors import (
    DimensionMismatch,
    EmptyTightenedBox,
    Infeasible,
    MpctError,
    NonFiniteInput,
    NotConverged,
    NotPositiveDefinite,
    RankDeficientG,
    SingularKkt,
    SingularSmallSystem,
    SolverFailed,
)
from .harness import (
    BenchStats,
    Reference,
    Scenario,
    Trajectory,
    emit_plot_data,
    load_scenario,
    run_benchmark,
    sample_initial_states,
    simulate_closed_loop,
)
from .mpct_problem import (
    LtiModel,
    MpctParams,
    PrecomputedData,
    QpVectors,
    assemble_online,
    build_problem,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    tightened_bounds,
)
from .oracle import (
    DenseQpInstance,
    DenseQpSolution,
    KktCertificate,
    certify_kkt,
    dense_instance,
    dense_kkt_solve,
    dense_qp_solve,
    optimal_steady_state,
)
from .semiband_solver import (
    KktWorkspace,
    SemiBandedSystem,
    StageCoupledSystem,
    solve_kkt_system,
    solve_semibanded,
)

__version__ = "0.1.0"
