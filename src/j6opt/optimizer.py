"""Per-instance optimization loop with stopping rules and trace capture.

One step: one forward pass, the gradient blocks and attribution scores
read from it, strategy decision, apply the deltas, record everything.
Plain gradient steps only (no momentum or adaptive scaling), so each
trace row is exactly attributable to its score vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .attribution import (
    AlignKind,
    AlignmentMode,
    compute_gradient_set,
    default_alignment,
    score_j6,
    score_jplus,
)
from .model import (
    ObjectivePair,
    Perturbations,
    ProblemInstance,
    WMode,
    forward,
    objectives,
    w_shape,
    zero_perturbations,
)
from .strategies import StrategyConfig, StrategyKind, decide

__all__ = [
    "StopReason",
    "RunConfig",
    "TraceRecord",
    "RunResult",
    "NonFiniteLossError",
    "init_perturbations",
    "resolve_alignment",
    "stop_check",
    "run",
]


class StopReason(str, Enum):
    MAX_STEPS = "max_steps"
    GRAD_TOL = "grad_tol"
    LOSS_TOL = "loss_tol"


class NonFiniteLossError(RuntimeError):
    """A loss left the finite range mid-run (step index is 0-based)."""

    def __init__(self, step: int, ob1: float, ob2: float):
        super().__init__(f"non-finite loss at step {step}: ob1={ob1!r} ob2={ob2!r}")
        self.step = step


@dataclass(frozen=True)
class RunConfig:
    max_steps: int = 200
    grad_tol: float = 1e-8    # stop when all four block norms fall below
    loss_tol: float = 0.0     # stop when |d ob1| + |d ob2| < tol; 0 disables
    seed: int = 0
    init_scale: float = 0.0   # 0 = zero init, else uniform in [-scale, scale]

    def __post_init__(self) -> None:
        if self.max_steps < 0:
            raise ValueError("max_steps must be non-negative")
        if self.grad_tol < 0 or self.loss_tol < 0:
            raise ValueError("tolerances must be non-negative")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.init_scale < 0:
            raise ValueError("init_scale must be non-negative")


@dataclass(eq=False)
class TraceRecord:
    """Everything observed and decided in one step, pre-update losses."""

    step: int
    ob1: float
    ob2: float
    entropy: float
    n11: float
    n12: float
    n21: float
    n22: float
    scores: np.ndarray
    chosen_index: int | None
    alpha: np.ndarray | None
    dh_norm: float
    dw_norm: float


@dataclass(eq=False)
class RunResult:
    perturbations: Perturbations
    objectives: ObjectivePair
    trace: list[TraceRecord]
    stop_reason: StopReason


def init_perturbations(
    instance: ProblemInstance, init_scale: float = 0.0, seed: int = 0
) -> Perturbations:
    """Zeros, or seeded i.i.d. uniform in [-init_scale, init_scale]."""
    if init_scale == 0.0:
        return zero_perturbations(instance)
    rng = np.random.default_rng(seed)
    shape_w = w_shape(instance.V, instance.d, instance.w_mode)
    h = rng.uniform(-init_scale, init_scale, size=instance.d)
    w = rng.uniform(-init_scale, init_scale, size=shape_w)
    return Perturbations(h, w)


def resolve_alignment(cfg: StrategyConfig, instance: ProblemInstance) -> AlignmentMode:
    """Pick the effective alignment; reject direct mode when h and w
    shapes cannot match (FULL_MATRIX instances)."""
    amode = cfg.alignment if cfg.alignment is not None else default_alignment(instance.w_mode)
    if amode.kind is AlignKind.DIRECT and instance.w_mode is WMode.FULL_MATRIX:
        raise ValueError(
            "direct alignment is incompatible with full_matrix instances "
            "(h and w shapes differ); use pushforward"
        )
    return amode


def stop_check(trace: list[TraceRecord], rcfg: RunConfig) -> StopReason | None:
    """Evaluated after each applied step; precedence GRAD_TOL > LOSS_TOL
    > MAX_STEPS."""
    last = trace[-1]
    if max(last.n11, last.n12, last.n21, last.n22) < rcfg.grad_tol:
        return StopReason.GRAD_TOL
    if rcfg.loss_tol > 0 and len(trace) >= 2:
        prev = trace[-2]
        if abs(last.ob1 - prev.ob1) + abs(last.ob2 - prev.ob2) < rcfg.loss_tol:
            return StopReason.LOSS_TOL
    if len(trace) >= rcfg.max_steps:
        return StopReason.MAX_STEPS
    return None


def run(instance: ProblemInstance, cfg: StrategyConfig, rcfg: RunConfig) -> RunResult:
    """Optimize one instance; bit-deterministic given (instance, cfg, rcfg).

    The trace records the state *before* each update, so row k explains
    the step that produced the state seen by row k+1.  The baselines
    carry the 6-score vector in their rows for diagnosis even though
    their decisions ignore it.
    """
    amode = resolve_alignment(cfg, instance)
    pert = init_perturbations(instance, rcfg.init_scale, rcfg.seed)
    trace: list[TraceRecord] = []
    stop = StopReason.MAX_STEPS
    for step in range(rcfg.max_steps):
        fwd = forward(instance, pert)
        obs = fwd.objectives
        if not (np.isfinite(obs.ob1) and np.isfinite(obs.ob2)):
            raise NonFiniteLossError(step, obs.ob1, obs.ob2)
        gs = compute_gradient_set(instance, fwd)
        if cfg.kind is StrategyKind.HARD_JPLUS:
            scores = score_jplus(gs, amode, instance, fwd)
        else:
            scores = score_j6(gs, amode, instance, fwd)
        decision = decide(scores, gs, cfg)
        pert = Perturbations(pert.h + decision.delta_h, pert.w + decision.delta_w)
        n11, n12, n21, n22 = gs.norms()
        trace.append(
            TraceRecord(
                step=step,
                ob1=obs.ob1,
                ob2=obs.ob2,
                entropy=-obs.ob2,
                n11=n11,
                n12=n12,
                n21=n21,
                n22=n22,
                scores=scores,
                chosen_index=decision.chosen_index,
                alpha=decision.alpha,
                dh_norm=float(np.linalg.norm(decision.delta_h)),
                dw_norm=float(np.linalg.norm(decision.delta_w)),
            )
        )
        reason = stop_check(trace, rcfg)
        if reason is not None:
            stop = reason
            break
    final = objectives(instance, pert)
    if not (np.isfinite(final.ob1) and np.isfinite(final.ob2)):
        raise NonFiniteLossError(len(trace), final.ob1, final.ob2)
    return RunResult(perturbations=pert, objectives=final, trace=trace, stop_reason=stop)
