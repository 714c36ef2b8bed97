"""Sparse margin-loss linear classification via proximal splitting.

The package trains l1 / group-l2 regularized linear classifiers with a
random block-coordinate Douglas-Rachford solver whose logistic proximity
operator takes a few monotone Newton sweeps on the log of the generalized
Lambert W gap, plus three stochastic baselines (forward-backward, dual
averaging, primal-dual) and a small benchmark harness around them.
"""

from types import ModuleType as _ModuleType

from .baselines import (
    BaselineConfig,
    bcpd_run,
    operator_norm_sq,
    rda_run,
    sfb_run,
)
from .bench import (
    SOLVERS,
    BenchmarkEntry,
    SummaryRow,
    compute_reference,
    format_summary,
    run_benchmark,
)
from .data import (
    RawDataset,
    binarize,
    load_libsvm,
    one_vs_all_tasks,
    parse_libsvm,
    predict_one_vs_all,
    serialize_libsvm,
    to_matrix,
)
from .dr import (
    DRConfig,
    DRState,
    Preconditioner,
    build_preconditioner,
    dr_iterate,
    dual_aggregate,
    extract_solution,
    init_state,
    resolve_config,
    run,
    run_simplified,
)
from .errors import (
    ConvergenceError,
    DegenerateDatasetError,
    DomainError,
    FactorizationError,
    NonConvergenceError,
    NumericalError,
    ParseError,
    ProxsplitError,
    UnknownClassError,
)
from .lambert import R_MONOTONE, WBranchResult, eval_w, forward_map
from .model import (
    BlockPartition,
    Problem,
    RegularizerSpec,
    TrainingSet,
    kkt_residual,
    margins,
    objective,
    predict,
    reg_prox,
    regularizer_value,
    smooth_gradient,
    sparsity_degree,
    test_error,
)
from .prox import (
    ScalarLoss,
    loss_beta,
    loss_grad,
    loss_prox,
    loss_value,
    prox_conjugate,
    prox_group_l2,
    prox_hinge,
    prox_huber,
    prox_l1,
    prox_logistic,
    prox_logistic_asymptotic,
)
from .sampling import make_rng, sample_without_replacement
from .trace import ZEROS_TOL, ConvergenceTrace, TraceRecord, plateau_hit

__version__ = "0.1.0"

# One list: the imports above are the only statement of the public API, and
# a name becomes public by being imported here.  __all__ is every public
# name they bind, in import order, then __version__; the submodules that
# importing binds (proxsplit.dr and the rest) stay out.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__.append("__version__")
