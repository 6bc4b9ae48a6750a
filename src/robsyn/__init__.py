"""robsyn: certified 1-norm incremental robustness for implicit ReLU networks.

The toolkit analyzes a given implicit network, or synthesizes a nearby one,
so that the output difference over a bounded set of input pairs carries a
certified bound gamma + gamma_u1 ||u~||_1 + gamma_u2 ||u~||_2^2.  Both tasks
reduce to a single semidefinite program solved by the bundled interior-point
solver.  An MPC condensing bridge produces the implicit network that encodes
a linear MPC law exactly.
"""

from .errors import (
    DimensionMismatch,
    Infeasible,
    MaxIterations,
    NonConvergence,
    NonPositiveDefinite,
    NumericalFailure,
    RobsynError,
    SchemaError,
    SingularH,
)
from .network import (
    Activation,
    EvalResult,
    FixedPointConfig,
    ImplicitNetwork,
    evaluate,
    evaluate_batch,
    load_network,
    save_network,
)
from .multipliers import (
    Dims,
    InputPairSet,
    MultiplierSet,
    build_omega_g_check,
    build_omega_gamma,
    build_omega_u,
    build_omega_z_check,
    certificate_matrix,
)
from .conic import (
    ConicProgram,
    LinearRows,
    PsdBlockMap,
    SolverOptions,
    SolverResult,
    SolverStatus,
    solve_conic,
)
from .mpc import (
    CondensedQP,
    MpcProblem,
    QpSolution,
    condense_qp,
    qp_to_implicit_network,
    reference_mpc_problem,
    simulate_closed_loop,
    solve_qp_oracle,
)
from .synthesis import (
    RobustnessCertificate,
    SimilarityTolerances,
    SynthesisProblem,
    SynthesisSolution,
    VariableLayout,
    analyze_network,
    assemble_synthesis_sdp,
    layout_variables,
    synthesize,
)
from .verification import (
    EmpiricalCheck,
    SampleSpec,
    SweepRow,
    empirical_bound_check,
    max_weight_deviation,
    sample_input_pairs,
    sweep_tolerance,
)

__version__ = "0.1.0"
