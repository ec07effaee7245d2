"""Per-instance optimization loop with stopping rules and trace capture.

One step: one forward pass, the gradient blocks and attribution scores
read from it, the strategy's coefficient matrix c, then the update
delta_h = -eta_h (c00 J11 + c01 J21), delta_w = -eta_w (c10 J12 + c11 J22)
with w pulled back once, and everything recorded.
Plain gradient steps only (no momentum or adaptive scaling), so each
trace row is exactly attributable to its score vector.

K configurations of one instance step in lockstep (``run_many``), and
``run`` is the K = 1 call: there is one step, over a leading K axis.
Its rule is that slices never mix: every operation is elementwise, a
row-wise reduction, a stacked matmul or a per-slice dot (``vecdot``),
so run k computes in a batch exactly what it computes alone, bit for
bit.  Nothing takes a ``vdot`` or an ``einsum`` across K, and anything
that branches on a configuration's knob does so per slice.  One trap:
``x ** gamma`` with a stacked (K, 1) gamma takes numpy's pow where a
scalar 2.0 takes x*x, so the contrast exponent is applied with each
configuration's gamma as a plain number (``strategies._contrast``).
Each run stops on its own.  The stacked points, updated in place, the
stacked B and, under FULL_MATRIX, the combined logit gradient and the
pulled-back delta w are formed in buffers that live for the whole
``run_many`` call (``_Buffers``); under SINGLE_ROW only row v_star of B
is rewritten each step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .attribution import (
    AlignKind,
    AlignmentMode,
    AlignScale,
    _Blocks,
    _gradients,
    _scores,
    resolve_alignment,
)
from .model import (
    ObjectivePair,
    Perturbations,
    ProblemInstance,
    WMode,
    _pullback,
    _stack_width,
    forward,
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
    "run",
    "run_many",
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
    their decisions ignore it.  This is the K = 1 call of ``run_many``.
    """
    return run_many(instance, [cfg], rcfg)[0]


def run_many(
    instance: ProblemInstance, cfgs: list[StrategyConfig], rcfg: RunConfig
) -> list[RunResult]:
    """Optimize one instance under each configuration from the same
    start; result k is bit for bit ``run(instance, cfgs[k], rcfg)``.

    The configurations step in lockstep batches, as many per batch as
    keep the stacked (K, V, d) arrays near 1 MiB (``model._stack_width``).
    Each run stops on its own; a run that aborts raises the
    NonFiniteLossError that running the configurations one after
    another would: that of the lowest-index configuration that fails.
    An alignment that cannot run on the instance raises before any step.
    """
    cfgs = list(cfgs)
    modes = [resolve_alignment(cfg.alignment, instance.w_mode) for cfg in cfgs]
    width = _stack_width(instance)
    start = init_perturbations(instance, rcfg.init_scale, rcfg.seed)
    bufs = _Buffers(instance, min(width, len(cfgs)), start)
    results: list[RunResult] = []
    for first in range(0, len(cfgs), width):
        results += _lockstep(instance, cfgs[first:first + width], modes[first:first + width],
                             rcfg, bufs)
    return results


class _Buffers:
    """Arrays a step is formed in, for up to K runs, shared by every batch
    of a ``run_many`` call and sliced to a batch's runs: the start point
    and the stacked points each batch copies it into, the stacked B
    (holding W in every row a SINGLE_ROW step leaves alone) and, under
    FULL_MATRIX, the two terms of the combined logit gradient, their
    sum, and its pullback, delta w."""

    def __init__(self, instance: ProblemInstance, K: int, start: Perturbations):
        V, d, T = instance.V, instance.d, instance.T
        self.start = start
        self.h = np.empty((K,) + start.h.shape)
        self.w = np.empty((K,) + start.w.shape)
        self.B = np.empty((K, V, d))
        if instance.w_mode is WMode.SINGLE_ROW:
            self.B[:] = instance.W
        elif instance.w_mode is WMode.FULL_MATRIX:
            self.terms = np.empty((K, 2, T, V))
            self.g = np.empty((K, 1, T, V))
            self.dw = np.empty((K, 1, V, d))


class _Batch:
    """The live runs of a lockstep batch, slice i of every array holding
    run ``index[i]``: its configuration, resolved alignment, point
    (stacked ``Perturbations``, updated in place), the buffer its B is
    formed in, and the stop reason decided after its last step."""

    def __init__(self, cfgs: list[StrategyConfig], modes: list[AlignmentMode], bufs: _Buffers):
        K = len(cfgs)
        self.index = list(range(K))
        self.cfgs = cfgs
        self.push = [m.kind is AlignKind.PUSHFORWARD for m in modes]
        self.cosine = [m.scale is AlignScale.COSINE for m in modes]
        # -eta per run, shaped to scale a stacked h step and w step
        self.eta_h = np.array([-cfg.eta_h for cfg in cfgs], dtype=np.float64)[:, None]
        self.eta_w = np.array([-cfg.eta_w for cfg in cfgs], dtype=np.float64).reshape(
            (K,) + (1,) * bufs.start.w.ndim)
        h, w = bufs.h[:K], bufs.w[:K]
        h[:], w[:] = bufs.start.h, bufs.start.w  # every run steps on its own copy
        self.pert = Perturbations(h, w)
        self.B = bufs.B[:K]
        self.stop: list[StopReason | None] = [None] * K

    def __len__(self) -> int:
        return len(self.index)

    def keep(self, rows: list[int]) -> None:
        """Keep the runs at ``rows`` only."""
        for name in ("index", "cfgs", "push", "cosine", "stop"):
            setattr(self, name, [getattr(self, name)[i] for i in rows])
        self.eta_h, self.eta_w, self.B = self.eta_h[rows], self.eta_w[rows], self.B[rows]
        self.pert = Perturbations(self.pert.h[rows], self.pert.w[rows])


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared norm of each slice of a stack, the dot np.vdot takes."""
    x = x.reshape(len(x), -1)
    return np.vecdot(x, x)


def _lockstep(instance: ProblemInstance, cfgs: list[StrategyConfig],
              modes: list[AlignmentMode], rcfg: RunConfig, bufs: _Buffers) -> list[RunResult]:
    """``run_many`` for one batch.  Each iteration takes one stacked
    forward pass: for a run that stopped after the previous step it
    gives the final objectives, for the others it starts the next step.
    A run that aborts drops every run after it, whose results can no
    longer matter, and the others go on, so the abort raised at the end
    is the lowest-index one."""
    batch = _Batch(cfgs, modes, bufs)
    traces: list[list[TraceRecord]] = [[] for _ in cfgs]
    results: list[RunResult | None] = [None] * len(cfgs)
    abort: NonFiniteLossError | None = None
    full = instance.w_mode is WMode.FULL_MATRIX
    for step in range(rcfg.max_steps + 1):
        fwd = forward(instance, batch.pert, out=batch.B)
        ob1, ob2 = fwd.objectives.ob1.tolist(), fwd.objectives.ob2.tolist()
        live = []
        for i, k in enumerate(batch.index):
            if not (math.isfinite(ob1[i]) and math.isfinite(ob2[i])):
                abort = NonFiniteLossError(
                    step, f"non-finite loss at step {step}: ob1={ob1[i]!r} ob2={ob2[i]!r}")
                break
            if batch.stop[i] is None and step < rcfg.max_steps:
                live.append(i)
            else:
                results[k] = RunResult(
                    Perturbations(batch.pert.h[i].copy(), batch.pert.w[i].copy()),
                    ObjectivePair(ob1[i], ob2[i]), traces[k], batch.stop[i] or StopReason.MAX_STEPS)
        if not live:
            break
        if len(live) < len(batch):
            batch.keep(live)
            fwd = fwd.take(live)
            ob1, ob2 = [ob1[i] for i in live], [ob2[i] for i in live]
        blocks = _Blocks(instance, fwd, *_gradients(instance, fwd))
        if not all(blocks.finite):  # finite losses, but the blocks overflowed
            cut = blocks.finite.index(False)
            abort = NonFiniteLossError(
                step, f"at step {step}: gradient blocks must be finite, with finite Grams")
            if cut == 0:
                break
            batch.keep(list(range(cut)))
            fwd = fwd.take(list(range(cut)))
            blocks = _Blocks(instance, fwd, *_gradients(instance, fwd))
        scores = _scores(blocks, batch.push, batch.cosine)
        jplus, j6 = scores[:, :15], scores[:, 15:]
        c, chosen, alpha = decide(jplus, j6, blocks.grams, batch.cfgs)
        # c0 J1 + c1 J2 per group: the sum of two products, one add
        delta_h = batch.eta_h * np.add.reduce(c[:, 0, :, None] * blocks.h, axis=1)
        if full:  # pull back the combination, no V x d block
            n = len(batch)
            terms = np.multiply(c[:, 1, :, None, None], blocks.g, out=bufs.terms[:n])
            combined = np.add.reduce(terms, axis=1, keepdims=True, out=bufs.g[:n])
            delta_w = _pullback(instance, fwd.A, combined, out=bufs.dw[:n])[:, 0]
            delta_w *= batch.eta_w
        else:  # w is a d-vector: pulling back both blocks costs no more
            delta_w = batch.eta_w * np.add.reduce(c[:, 1, :, None] * blocks.w, axis=1)
        h, w = batch.pert.h, batch.pert.w
        np.add(h, delta_h, out=h)
        np.add(w, delta_w, out=w)
        if not (np.isfinite(h).all() and np.isfinite(w).all()):
            finite = np.isfinite(h).all(axis=1) & np.isfinite(w).reshape(len(w), -1).all(axis=1)
            cut = int(np.argmin(finite))
            abort = NonFiniteLossError(
                step, f"update at step {step} left the finite range: perturbations must be finite")
            if cut == 0:
                break
            batch.keep(list(range(cut)))
        grams = blocks.grams.tolist()
        dh_sq, dw_sq = _sq_norms(delta_h).tolist(), _sq_norms(delta_w).tolist()
        for i, (k, cfg) in enumerate(zip(batch.index, batch.cfgs)):
            (h11, _), (_, h22) = grams[i][0]
            (w11, _), (_, w22) = grams[i][1]
            trace = traces[k]
            trace.append(TraceRecord(
                step=step, ob1=ob1[i], ob2=ob2[i], entropy=-ob2[i],
                n11=math.sqrt(h11), n12=math.sqrt(w11), n21=math.sqrt(h22), n22=math.sqrt(w22),
                scores=jplus[i] if cfg.kind is StrategyKind.HARD_JPLUS else j6[i],
                chosen_index=chosen[i], alpha=alpha[i],
                dh_norm=math.sqrt(dh_sq[i]), dw_norm=math.sqrt(dw_sq[i]),
            ))
            batch.stop[i] = stop_check(trace, rcfg)
        # free this step's arrays before the next forward pass allocates
        del fwd, blocks, delta_h, delta_w, scores, jplus, j6, c
    if abort is not None:
        raise abort
    return results
