"""Jacobian-routed multi-objective optimization of prompt perturbations
on a standalone bilinear logit model."""

from .attribution import (
    AlignKind,
    AlignmentMode,
    AlignScale,
    GradientSet,
    J6_FROM_JPLUS,
    J6_LABELS,
    JPLUS_COMPONENTS,
    compute_gradient_set,
    resolve_alignment,
    score_j6,
    score_jplus,
)
from .probgen import Family, GeneratorSpec, conflict_certificate, generate, roleswap_certificate
from .model import (
    Forward,
    ObjectivePair,
    Perturbations,
    ProblemInstance,
    WMode,
    fd_gradient,
    forward,
    log_softmax,
    logit_gradients,
    losses,
    pullback,
    set_validation,
    zero_perturbations,
)
from .optimizer import (
    NonFiniteLossError,
    RunConfig,
    RunResult,
    StopReason,
    TraceRecord,
    init_perturbations,
    run,
    stop_check,
)
from .serialize import (
    InstanceFormatError,
    load_instance,
    read_trace,
    save_instance,
    selection_counts,
    write_summary,
    write_trace,
)
from .strategies import (
    PreNorm,
    StrategyConfig,
    StrategyKind,
    UpdateDecision,
    contrast_weights,
    decide,
    soft_weights,
)

__version__ = "0.1.0"
