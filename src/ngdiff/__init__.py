"""Two-task machine unlearning toolkit.

Gradient extraction through a fused tanh-MLP log-prob kernel, the family
of dynamic scalarization combiners (including the normalized gradient
difference), probe-based automatic learning rates, deterministic benchmark
problems, the unlearning run loop, and a CLI around it all.
"""

from .autodiff import (
    DimensionError,
    FlatGradient,
    Graph,
    GraphStateError,
    NumericError,
    ParameterLayout,
    ParameterVector,
    Segment,
    axpy_update,
    forward,
)
from .bench import (
    ForgetRetainSplit,
    LabeledBatch,
    gen_gaussian_clusters,
    mlp_factory,
    split_forget_retain,
)
from .combiners import (
    CombinerOutput,
    CombinerSpec,
    combine,
)
from .engine import (
    ConfigError,
    EvalResult,
    GaussianProblem,
    LrConfig,
    NpoSpec,
    NumericAbort,
    ParetoPoint,
    QuadProblemConfig,
    RunConfig,
    RunRecord,
    Seeds,
    StepRow,
    config_from_dict,
    config_to_dict,
    dominated_by,
    evaluate,
    finetune,
    non_dominated_set,
    pass_overhead,
    record_from_json,
    record_to_json,
    run_unlearning,
    write_trace_csv,
)
from .objectives import (
    LossPair,
    NpoConfig,
    NpoLoss,
    QuadPairProblem,
    UnboundedProblemError,
    lsp_minimizer,
)
from .scheduler import (
    LrState,
    ProbeError,
    QuadraticFit,
    fit_quadratic,
    maybe_update,
    optimal_lr,
    probe_losses,
)

__version__ = "0.1.0"
