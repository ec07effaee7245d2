"""Per-instance optimization loop with stopping rules and trace capture.

One step: one forward pass, the gradient set and attribution scores
read from it, the strategy's coefficient matrix c, then the update
delta_h = -eta_h (c00 J11 + c01 J21), delta_w = -eta_w (c10 J12 + c11 J22)
with w pulled back once, and everything recorded.
Plain gradient steps only (no momentum or adaptive scaling), so each
trace row is exactly attributable to its score vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .attribution import compute_gradient_set, resolve_alignment, score_j6, score_jplus
from .model import (
    ObjectivePair,
    Perturbations,
    ProblemInstance,
    WMode,
    forward,
    pullback,
    require_float,
    require_int,
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
    "stop_check",
    "run",
]


class StopReason(str, Enum):
    MAX_STEPS = "max_steps"
    GRAD_TOL = "grad_tol"
    LOSS_TOL = "loss_tol"


class NonFiniteLossError(RuntimeError):
    """The run left the finite range: a loss, the gradient blocks, or the
    perturbations an update produced (step index is 0-based)."""

    def __init__(self, step: int, message: str):
        super().__init__(message)
        self.step = step


def _finite(obs: ObjectivePair, step: int) -> ObjectivePair:
    if not (np.isfinite(obs.ob1) and np.isfinite(obs.ob2)):
        raise NonFiniteLossError(
            step, f"non-finite loss at step {step}: ob1={obs.ob1!r} ob2={obs.ob2!r}"
        )
    return obs


@dataclass(frozen=True)
class RunConfig:
    max_steps: int = 200
    grad_tol: float = 1e-8    # stop when all four block norms fall below
    loss_tol: float = 0.0     # stop when |d ob1| + |d ob2| < tol; 0 disables
    seed: int = 0
    init_scale: float = 0.0   # 0 = zero init, else uniform in [-scale, scale]

    def __post_init__(self) -> None:
        if require_int("max_steps", self.max_steps) < 0:
            raise ValueError("max_steps must be non-negative")
        if (require_float("grad_tol", self.grad_tol) < 0
                or require_float("loss_tol", self.loss_tol) < 0):
            raise ValueError("tolerances must be non-negative")
        if not 0 <= require_int("seed", self.seed) < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if require_float("init_scale", self.init_scale) < 0:
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
    amode = resolve_alignment(cfg.alignment, instance.w_mode)
    score = score_jplus if cfg.kind is StrategyKind.HARD_JPLUS else score_j6
    pert = init_perturbations(instance, rcfg.init_scale, rcfg.seed)
    trace: list[TraceRecord] = []
    stop = StopReason.MAX_STEPS
    for step in range(rcfg.max_steps):
        fwd = forward(instance, pert)
        obs = _finite(fwd.objectives, step)
        try:
            gs = compute_gradient_set(instance, fwd)
        except ValueError as e:  # finite losses, but the blocks overflowed
            raise NonFiniteLossError(step, f"at step {step}: {e}") from None
        scores = score(gs, amode)
        decision = decide(scores, gs.grams, cfg)
        (c00, c01), (c10, c11) = decision.c
        delta_h = -cfg.eta_h * (c00 * gs.h[0] + c01 * gs.h[1])
        if instance.w_mode is WMode.FULL_MATRIX:  # pull back the combination, no V x d block
            delta_w = -cfg.eta_w * pullback(instance, fwd, (c10 * gs.g[0] + c11 * gs.g[1])[None])[0]
        else:  # w is a d-vector: pulling back both blocks costs no more
            delta_w = -cfg.eta_w * (c10 * gs.w[0] + c11 * gs.w[1])
        try:
            pert = Perturbations(pert.h + delta_h, pert.w + delta_w)
        except ValueError as e:
            raise NonFiniteLossError(
                step, f"update at step {step} left the finite range: {e}"
            ) from None
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
                dh_norm=math.sqrt(np.vdot(delta_h, delta_h)),
                dw_norm=math.sqrt(np.vdot(delta_w, delta_w)),
            )
        )
        reason = stop_check(trace, rcfg)
        if reason is not None:
            stop = reason
            break
    final = _finite(forward(instance, pert).objectives, len(trace))
    return RunResult(perturbations=pert, objectives=final, trace=trace, stop_reason=stop)
