"""Per-instance optimization loop with stopping rules and trace capture.

One step: one forward pass, the gradient blocks and attribution scores
read from it, the strategy's coefficient matrix c, then the update
delta_h = -eta_h (c00 J11 + c01 J21), delta_w = -eta_w (c10 J12 + c11 J22)
with w pulled back once, and everything recorded.  Under FULL_MATRIX
c's w row carries -eta_w / T before it touches a logit gradient, so no
pass over a V x d array scales delta w (``model._pullback``).
Plain gradient steps only (no momentum or adaptive scaling), so each
trace row is exactly attributable to its score vector.

K configurations of one instance step in lockstep (``run_many``), and
``run`` is the K = 1 call: there is one step, over a leading K axis.
The batching rule, which ``model``, ``attribution``, ``strategies`` and
``probgen`` follow too, is that slices never mix: every operation is
elementwise, a row-wise reduction, a stacked matmul or a per-slice dot
(``vecdot``), so run k computes in a batch exactly what it computes
alone, bit for bit.  Nothing takes a ``vdot`` or an ``einsum`` across
K, and anything that branches on a configuration's knob does so per
slice (a stacked exponent is the trap ``strategies._contrast`` avoids).
Everything that depends only on the configurations is compiled once
per batch into its plan (``strategies._Rules``), and again only for the
runs a batch keeps when others stop; a step hands the plan to the one
``strategies.decide`` call it makes.  The resolved alignment belongs to
the batch, not its rows: a batch holds runs of one alignment, so
``attribution._scores`` takes one mode.  Each run stops on its own.

B is state beside w, formed in place and handed to ``forward``: a batch
forms it from W and its start point, and each update moves it with w.
Under FULL_MATRIX the update adds delta w in place to both, so no step
reads W; w is accumulated exactly as the steps give it, and B is W + w
up to the rounding of its own updates (at most u |B| a step).  Under
the d-vector modes B is formed from W and the new w, as ``forward``
would (one row under SINGLE_ROW).  Each ``run_many`` call forms its
step arrays once, in ``_Buffers``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .attribution import AlignmentMode, _Blocks, _scores, _work, resolve_alignment
from .model import (
    ObjectivePair,
    Perturbations,
    ProblemInstance,
    WMode,
    _factor_B,
    _forward,
    _logit_gradients,
    _pullback,
    _stack_width,
    require_float,
    require_int,
    w_shape,
    zero_perturbations,
)
from .strategies import StrategyConfig, _Rules, decide

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
        # a draw from [-scale, scale] needs the range's width, 2 scale, to be finite
        if not 0 <= require_float("init_scale", self.init_scale) <= sys.float_info.max / 2:
            raise ValueError(f"init_scale must lie in [0, float max / 2], got {self.init_scale!r}")


@dataclass(eq=False)
class TraceRecord:
    """Everything observed and decided in one step, pre-update losses."""

    step: int
    ob1: float
    ob2: float  # the mean entropy is -ob2
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
    """Zeros, or seeded i.i.d. uniform in [-init_scale, init_scale];
    both arguments are checked as ``RunConfig`` checks its fields."""
    if RunConfig(seed=seed, init_scale=init_scale).init_scale == 0.0:
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

    The configurations step in lockstep batches of one resolved
    alignment each, in index order: a batch ends where the alignment
    changes, or where it holds as many runs as keep the stacked
    (K, V, d) arrays near 1 MiB (``model._stack_width``).
    Each run stops on its own; a run that aborts raises the
    NonFiniteLossError that running the configurations one after
    another would: that of the lowest-index configuration that fails.
    An alignment that cannot run on the instance raises before any step.
    """
    cfgs = list(cfgs)
    modes = [resolve_alignment(cfg.alignment, instance.w_mode) for cfg in cfgs]
    width = _stack_width(instance)
    # a zero start is written into the buffers as 0.0, with no array of its own
    start = init_perturbations(instance, rcfg.init_scale, rcfg.seed) if rcfg.init_scale else None
    bufs = _Buffers(instance, min(width, len(cfgs)))
    results: list[RunResult] = []
    # numpy's warnings are noise here: a non-finite loss, block or point
    # raises NonFiniteLossError, and an overflowing step norm is traced
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        first = 0
        for k in range(1, len(cfgs) + 1):  # batch cfgs[first:k] ends before run k
            if k == len(cfgs) or k - first == width or modes[k] != modes[first]:
                results += _lockstep(instance, cfgs[first:k], modes[first], rcfg, bufs, start)
                first = k
    return results


class _Buffers:
    """Arrays a step is formed in, for up to K runs, shared by every batch
    of a ``run_many`` call and sliced to a batch's runs: the stacked
    points, the stacked B (holding W in every row a SINGLE_ROW step
    leaves alone), the blocks' products (``attribution._work``), the
    traced norms and, under FULL_MATRIX, the combined logit gradient
    and its pullback, delta w (1.7 MB at 1000 x 64 x 16, K = 1)."""

    def __init__(self, instance: ProblemInstance, K: int):
        V, d, T = instance.V, instance.d, instance.T
        self.h = np.empty((K, d))
        self.w = np.empty((K,) + w_shape(V, d, instance.w_mode))
        self.B = np.empty((K, V, d))
        self.work = _work(instance, K)
        self.norms = np.empty((K, 3, 2))
        if instance.w_mode is WMode.SINGLE_ROW:
            self.B[:] = instance.W
        elif instance.w_mode is WMode.FULL_MATRIX:
            self.g = np.empty((K, 1, T, V))
            self.dw = np.empty((K, 1, V, d))


class _Batch:
    """The live runs of a lockstep batch, slice i of every array holding
    run ``index[i]``: its point h and w (updated in place), B (see
    ``_Buffers``), the stop reason decided after its last step, and the
    plan of the configurations (``rules``, which holds them).  It also
    holds the views of the buffers that a step writes, sliced to the live
    runs, and slices them again on ``keep`` (``_slice``)."""

    def __init__(self, cfgs: list[StrategyConfig], bufs: _Buffers, start: Perturbations | None,
                 T: int):
        K = len(cfgs)
        self.bufs, self.index, self.rules = bufs, list(range(K)), _Rules(cfgs)
        # -eta per run and group (K, 2, 1); c's w row takes -eta_w / T under FULL_MATRIX
        self.eta = np.array([[[-cfg.eta_h], [-cfg.eta_w]] for cfg in cfgs], dtype=np.float64)
        self.c_w = self.eta[:, 1:] / T
        self.h, self.w, self.B = bufs.h[:K], bufs.w[:K], bufs.B[:K]
        self.h[:], self.w[:] = (0.0, 0.0) if start is None else (start.h, start.w)  # own copies
        self.stop: list[StopReason | None] = [None] * K
        self._slice()

    def _slice(self) -> None:
        n, bufs = len(self.index), self.bufs
        self.eta_h, self.work, self.norms = self.eta[:, 0], bufs.work.take(n), bufs.norms[:n]
        self.traced, self.diagonals = self.norms.reshape(n, 6), self.work.grams.diagonal(0, 2, 3)
        if hasattr(bufs, "g"):  # FULL_MATRIX: the combined gradient as a matmul target, delta w
            self.g, self.dw = bufs.g[:n], bufs.dw[:n]
            self.g_rows, self.delta_w = self.g.reshape(n, 1, -1), self.dw[:, 0]
            self.dw_flat = self.delta_w.reshape(n, -1)

    def keep(self, rows: list[int]) -> None:
        """Keep the runs at ``rows`` only."""
        self.index, self.stop = [self.index[i] for i in rows], [self.stop[i] for i in rows]
        self.rules = _Rules([self.rules.cfgs[i] for i in rows])
        self.eta, self.c_w, self.B = self.eta[rows], self.c_w[rows], self.B[rows]
        self.h, self.w = self.h[rows], self.w[rows]
        self._slice()


def _lockstep(instance: ProblemInstance, cfgs: list[StrategyConfig], mode: AlignmentMode,
              rcfg: RunConfig, bufs: _Buffers, start: Perturbations | None) -> list[RunResult]:
    """``run_many`` for one batch, of resolved alignment ``mode``.  Each
    iteration takes one stacked forward pass: for a run that stopped
    after the previous step it gives the final objectives, for the
    others it starts the next step.  A run that aborts (at a non-finite
    loss, or after the update when its blocks overflowed or its point
    left the finite range, in that order) drops every run after it,
    whose results can no longer matter, and the others go on, so the
    abort raised at the end is the lowest-index one.  Shapes are fixed
    by the buffers, so a step calls the unchecked kernels."""
    batch = _Batch(cfgs, bufs, start, instance.T)
    traces: list[list[TraceRecord]] = [[] for _ in cfgs]
    results: list[RunResult | None] = [None] * len(cfgs)
    abort: NonFiniteLossError | None = None
    full = instance.w_mode is WMode.FULL_MATRIX
    _factor_B(instance, batch.w, out=batch.B)  # state beside w from here on
    for step in range(rcfg.max_steps + 1):
        fwd = _forward(instance, batch.h, batch.B)
        ob1, ob2 = fwd.ob1.tolist(), fwd.ob2.tolist()
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
                    Perturbations(batch.h[i].copy(), batch.w[i].copy()),
                    ObjectivePair(ob1[i], ob2[i]), traces[k], batch.stop[i] or StopReason.MAX_STEPS)
        if not live:
            break
        if len(live) < len(batch.index):
            batch.keep(live)
            fwd = fwd.take(live)
            ob1, ob2 = [ob1[i] for i in live], [ob2[i] for i in live]
        g = _logit_gradients(fwd.logp, instance._target[1], fwd.p, fwd.plogp)
        blocks = _Blocks(instance, fwd.A, fwd.B, g, work=batch.work)
        scores = _scores(blocks, mode)
        jplus, j6 = scores[:, :15], scores[:, 15:]
        c, chosen, alpha = decide(jplus, j6, blocks.grams, batch.rules)
        # the squared norms (J11, J21), (J12, J22) and (delta h, delta w),
        # each the dot np.vdot takes, then one sqrt
        n, norms = len(c), batch.norms
        norms[:, :2] = batch.diagonals
        # c0 J1 + c1 J2 per group: the sum of two products, one add
        if full:  # pull back c10 g_1 + c11 g_2, its c carrying -eta_w / T: no V x d block
            ch = c[:, 0, :, None] * blocks.h  # the one add a reduce would take, dispatched faster
            delta_h = batch.eta_h * (ch[:, 0] + ch[:, 1])
            np.matmul(c[:, 1:] * batch.c_w, g.reshape(n, 2, -1), out=batch.g_rows)
            _pullback(instance, fwd.A, batch.g, out=batch.dw)
            delta_w = batch.delta_w
            np.vecdot(delta_h, delta_h, out=norms[:, 2, 0])
            np.vecdot(batch.dw_flat, batch.dw_flat, out=norms[:, 2, 1])
            batch.B += delta_w
        else:  # w is a d-vector: both groups' steps and norms at once
            delta = batch.eta * np.add.reduce(c[..., None] * blocks.hw, axis=2)
            delta_h, delta_w = delta[:, 0], delta[:, 1]
            np.vecdot(delta, delta, out=norms[:, 2])
        h, w = batch.h, batch.w
        h += delta_h
        w += delta_w
        if not full:
            _factor_B(instance, w, out=batch.B)
        np.sqrt(norms, out=norms)
        traced = batch.traced.tolist()
        ok = blocks.finite  # at finite losses, the blocks may overflow
        # h and w were finite, and a step of finite norm (entries below 2^512) keeps them so
        if not all(math.isfinite(r[4] + r[5]) for r in traced):
            ok = (ok & np.isfinite(h).all(axis=1)
                  & np.isfinite(w).reshape(n, -1).all(axis=1)).tolist()
        if not all(ok):
            cut = ok.index(False)
            abort = NonFiniteLossError(step, (
                f"at step {step}: gradient blocks must be finite, with finite Grams"
                if not blocks.finite[cut] else
                f"update at step {step} left the finite range: perturbations must be finite"))
            if cut == 0:
                break
            batch.keep(list(range(cut)))
        rows = zip(batch.index, batch.rules.reads_jplus, traced)
        for i, (k, jp, (n11, n21, n12, n22, dh, dw)) in enumerate(rows):
            trace = traces[k]
            trace.append(TraceRecord(step, ob1[i], ob2[i], n11, n12, n21, n22,
                                     jplus[i] if jp else j6[i], chosen[i], alpha[i], dh, dw))
            batch.stop[i] = stop_check(trace, rcfg)
        # free this step's arrays before the next forward pass allocates
        del fwd, g, blocks, delta_h, delta_w, scores, jplus, j6, c
    if abort is not None:
        raise abort
    return results
