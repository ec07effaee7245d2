"""Bilinear logit model, its two objectives, and their analytic gradients.

The model scores V vocabulary tokens at T positions as

    logits = A B^T,   A = H + h,   B = W with w folded in per w_mode

where H (T x d hidden states) and W (V x d embeddings) are frozen and
(h, w) are small additive perturbations.  Two losses are defined on the
logits: ``heat`` (mean cross-entropy against the target tokens, to be
driven down for fidelity) and ``confidence`` (mean negative entropy of
the softmax, to be driven down for certainty).

One forward pass (``forward``) forms A, B, the logits and one row-wise
log-softmax, and reads both losses from it through ``losses``, the only
place they are computed.  ``logit_gradients`` turns that log-softmax
into both losses' logit-space gradients, stacked as (2, T, V).
``w_columns`` picks the logit columns w moves per w_mode, and
``_pullback`` maps stacked logit-space gradients to w through them in
one batched product.  A central-difference oracle (``fd_gradient``)
checks every analytic gradient through the forward pass alone, both
losses stacked like the analytic ones.

Each public function takes one point and checks it.  The unchecked
kernels (``_forward``, ``_log_softmax``, ``_losses``,
``_logit_gradients``) take K points of one instance stacked on a
leading axis, h (K, d) and w (K,) + w_shape, under the batching rule of
``optimizer``: slice k holds bit for bit what point k gives alone.

All numerics are float64.  Every public function is pure.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "WMode",
    "ProblemInstance",
    "Perturbations",
    "ObjectivePair",
    "set_validation",
    "w_shape",
    "zero_perturbations",
    "forward",
    "log_softmax",
    "losses",
    "logit_gradients",
    "fd_gradient",
]

# Tolerances for the self-check (test) mode.
ZERO_SUM_TOL = 1e-10
BOUNDS_TOL = 1e-12

_validation = False


def set_validation(enabled: bool) -> None:
    """Enable per-forward-pass invariant checks (zero-sum gradients,
    entropy and loss bounds).  Intended for test runs; off by default."""
    global _validation
    _validation = bool(enabled)


def require_int(name: str, value: object) -> int:
    """``value`` as an int; bools and non-integers raise ValueError (numpy integers pass)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name!r} must be an integer, got {value!r}")
    return int(value)


def require_float(name: str, value: object) -> float:
    """``value`` as a float; bools, non-real numbers, nan and +-inf raise
    ValueError naming the field (ints and numpy reals pass)."""
    if not isinstance(value, (bool, np.bool_)) and isinstance(value, numbers.Real):
        try:
            x = float(value)
        except OverflowError:  # an int beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise ValueError(f"{name!r} must be a finite real number, got {value!r}")


class WMode(str, Enum):
    """Shape semantics of the embedding perturbation w."""

    FULL_MATRIX = "full_matrix"  # w is V x d, added row-wise to W
    SINGLE_ROW = "single_row"    # w is length d, added to row v_star only
    BROADCAST = "broadcast"      # w is length d, added to every row (gradient-dead)


def w_shape(V: int, d: int, w_mode: WMode) -> tuple[int, ...]:
    """Shape of the w perturbation for a given mode."""
    return (V, d) if w_mode is WMode.FULL_MATRIX else (d,)


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Frozen base representations plus targets and w-mode.

    v_star selects the embedding row perturbed in SINGLE_ROW mode.  When
    left unspecified it defaults to the target token of the last
    position (and to 0 outside SINGLE_ROW mode, where it is unused).
    """

    V: int
    d: int
    T: int
    H: np.ndarray
    W: np.ndarray
    y: np.ndarray
    w_mode: WMode = WMode.FULL_MATRIX
    v_star: int | None = None

    def __post_init__(self) -> None:
        for name in ("V", "d", "T"):
            value = require_int(name, getattr(self, name))
            if value < 1:
                raise ValueError(f"{name} must be a positive integer")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_target", _targets(self.y, self.T, self.V))  # the one check of y
        object.__setattr__(self, "y", np.asarray(self.y).astype(np.int64, copy=False))
        H = np.asarray(self.H, dtype=np.float64)
        W = np.asarray(self.W, dtype=np.float64)
        if H.shape != (self.T, self.d):
            raise ValueError(f"H must have shape {(self.T, self.d)}, got {H.shape}")
        if W.shape != (self.V, self.d):
            raise ValueError(f"W must have shape {(self.V, self.d)}, got {W.shape}")
        if not (np.isfinite(H).all() and np.isfinite(W).all()):
            raise ValueError("H and W must be finite")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "w_mode", WMode(self.w_mode))
        v_star = self.v_star
        if v_star is None:
            v_star = int(self.y[-1]) if self.w_mode is WMode.SINGLE_ROW else 0
        v_star = require_int("v_star", v_star)
        if not 0 <= v_star < self.V:
            raise ValueError("v_star must lie in [0, V)")
        object.__setattr__(self, "v_star", v_star)


@dataclass(eq=False)
class Perturbations:
    """The tunable pair: h is added to every row of H, w to W per w_mode.
    K points stack on a leading axis: h (K, d) and w (K,) + w_shape."""

    h: np.ndarray
    w: np.ndarray

    def __post_init__(self) -> None:
        self.h = np.asarray(self.h, dtype=np.float64)
        self.w = np.asarray(self.w, dtype=np.float64)
        if not (np.isfinite(self.h).all() and np.isfinite(self.w).all()):
            raise ValueError("perturbations must be finite")


@dataclass(frozen=True)
class ObjectivePair:
    """Current values of the two losses, in nats."""

    ob1: float  # heat: mean cross-entropy, >= 0
    ob2: float  # confidence: mean negative entropy, in [-log V, 0]


class Forward:
    """One forward pass at a point (h, w), or, from ``_forward``, at K
    stacked points, each array then with a leading K axis: A = H + h
    (T, d), B with w folded in per w_mode (V, d), the row-wise
    log-softmax ``logp`` of A B^T and exp(logp) ``p`` (T, V), each row's
    sum of p log p ``plogp`` (T,), and the losses ``ob1`` and ``ob2``."""

    def __init__(self, A: np.ndarray, B: np.ndarray, logp: np.ndarray, p: np.ndarray,
                 plogp: np.ndarray, ob1: np.ndarray, ob2: np.ndarray):
        self.A, self.B, self.logp, self.p = A, B, logp, p
        self.plogp, self.ob1, self.ob2 = plogp, ob1, ob2

    @property
    def objectives(self) -> ObjectivePair:
        """Both losses of a one-point pass, as floats."""
        return ObjectivePair(float(self.ob1), float(self.ob2))

    def take(self, rows: list[int] | int) -> "Forward":
        """The stacked forward pass of the slices at ``rows``, or the
        one-point pass of slice ``rows`` when it is an int."""
        return Forward(self.A[rows], self.B[rows], self.logp[rows], self.p[rows],
                       self.plogp[rows], self.ob1[rows], self.ob2[rows])


def zero_perturbations(instance: ProblemInstance) -> Perturbations:
    return Perturbations(
        np.zeros(instance.d), np.zeros(w_shape(instance.V, instance.d, instance.w_mode))
    )


def _stack_width(instance: ProblemInstance, arrays: int = 1) -> int:
    """Points per stacked block: as many as keep the ``arrays`` (V, d)
    arrays each point holds, such as its B, within about 1 MiB (at
    least one)."""
    return max(1, (1 << 20) // (8 * arrays * instance.V * instance.d))


def _check_shapes(instance: ProblemInstance, pert: Perturbations) -> None:
    """Raise ValueError unless ``pert`` is one point of ``instance``."""
    if pert.h.shape != (instance.d,):
        raise ValueError(f"h must have shape {(instance.d,)}, got {pert.h.shape}")
    expected = w_shape(instance.V, instance.d, instance.w_mode)
    if pert.w.shape != expected:
        raise ValueError(
            f"w must have shape {expected} in {instance.w_mode.value} mode, got {pert.w.shape}"
        )


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable row-wise log-softmax of a (T, V) logit matrix,
    formed in a copy; any other rank raises ValueError.

    Non-finite rows pass through (as nan) so that a diverging run
    surfaces as a non-finite loss rather than as an error here.
    """
    z = np.array(logits, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError(f"logits must be a (T, V) matrix, got shape {z.shape}")
    return _log_softmax(z)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """``log_softmax`` of a float64 (T, V) matrix or (K, T, V) stack,
    unchecked, formed in ``z`` itself."""
    np.subtract(z, np.maximum.reduce(z, axis=-1, keepdims=True), out=z)
    total = np.add.reduce(np.exp(z), axis=-1, keepdims=True)
    logp = np.subtract(z, np.log(total, out=total), out=z)
    if _validation:
        p = np.exp(logp[np.isfinite(logp).all(axis=-1)])
        assert (np.abs(p.sum(axis=-1) - 1.0) < BOUNDS_TOL).all(), "softmax rows must sum to 1"
    return logp


def _softmax_terms(logp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p = exp(logp) and each row's sum of p log p (its negative entropy);
    p underflows to 0 only with logp finite, so p * logp is exactly 0
    there."""
    p = np.exp(logp)
    return p, np.add.reduce(np.multiply(p, logp), axis=-1)


def losses(logp: np.ndarray, y: np.ndarray) -> ObjectivePair:
    """Both losses from a row-wise log-softmax (T, V), in nats: heat, the
    mean over positions of -logp[t, y[t]], and confidence, the mean over
    positions of sum_v p_v log p_v (negative entropy).  Any other rank,
    and targets other than T integers in [0, V), raise ValueError."""
    logp = np.asarray(logp, dtype=np.float64)
    if logp.ndim != 2:
        raise ValueError(f"log-probabilities must be a (T, V) matrix, got shape {logp.shape}")
    heat, conf = _losses(logp[None], _targets(y, *logp.shape)[0], _softmax_terms(logp[None])[1])
    return ObjectivePair(float(heat[0]), float(conf[0]))


def _targets(y: np.ndarray, T: int, V: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat index t V + y_t of the target logit of each of T
    positions in a row-major (T, V) array, and the targets' (T, V)
    one-hot; y must hold T integers in [0, V), else ValueError."""
    y = np.asarray(y)
    if y.dtype.kind not in "iu":
        raise ValueError(f"'y' must have an integer dtype, got {y.dtype}")
    if y.shape != (T,):
        raise ValueError(f"y must have shape {(T,)}, got {y.shape}")
    if y.min(initial=0) < 0 or y.max(initial=0) >= V:
        raise ValueError(f"y entries must lie in [0, {V}), got {y.tolist()}")
    return _encode_targets(y, T, V)


def _encode_targets(y: np.ndarray, T: int, V: int) -> tuple[np.ndarray, np.ndarray]:
    """``_targets`` of T integers y already known to lie in [0, V),
    unchecked."""
    flat, onehot = np.arange(0, T * V, V) + y.astype(np.int64), np.zeros((T, V))
    np.put(onehot, flat, 1.0)
    return flat, onehot


def _losses(logp: np.ndarray, target: np.ndarray,
            plogp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``losses`` of a stack (K, T, V), given the flat target index
    (``_targets``) and its rows' sums of p log p."""
    K, T = logp.shape[:2]
    # means over positions as numpy's mean takes them, heat's terms read
    # row-major so that a slice sums them as K = 1 does; x / -T is -(x / T)
    heat = np.add.reduce(logp.reshape(K, -1).take(target, axis=1), axis=1) / -T
    conf = np.add.reduce(plogp, axis=1) / T
    if _validation:
        assert (heat[np.isfinite(heat)] >= 0.0).all(), "heat loss must be non-negative"
        finite = conf[np.isfinite(conf)]
        V = logp.shape[2]
        assert ((-math.log(V) - BOUNDS_TOL <= finite) & (finite <= 0.0)).all(), (
            "confidence out of [-log V, 0]")
    return heat, conf


def _factor_B(instance: ProblemInstance, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """B = W with w folded in per w_mode, for K stacked points, formed in
    ``out`` (K, V, d) when given; under SINGLE_ROW only its row v_star
    is written, so ``out`` must hold W in every other row."""
    if out is None:
        out = np.empty((len(w), instance.V, instance.d))
        if instance.w_mode is WMode.SINGLE_ROW:
            out[:] = instance.W
    if instance.w_mode is WMode.SINGLE_ROW:
        np.add(instance.W[instance.v_star], w, out=out[:, instance.v_star])
    elif instance.w_mode is WMode.FULL_MATRIX:  # adds row-wise
        np.add(instance.W, w, out=out)
    else:  # broadcast adds w to every row
        np.add(instance.W, w[:, None], out=out)
    return out


def forward(instance: ProblemInstance, pert: Perturbations) -> Forward:
    """The forward pass at one point (h, w): both losses from one log-softmax of A B^T."""
    _check_shapes(instance, pert)
    return _forward(instance, pert.h[None], _factor_B(instance, pert.w[None])).take(0)


def _forward(instance: ProblemInstance, h: np.ndarray, B: np.ndarray) -> Forward:
    """``forward`` at K stacked points, h (K, d), from their B (K, V, d),
    unchecked: the optimizer's step, whose buffers fix the shapes, gives
    the B it keeps as state beside w."""
    A = instance.H + h[:, None]
    logp = _log_softmax(A @ B.swapaxes(1, 2))
    p, plogp = _softmax_terms(logp)
    return Forward(A, B, logp, p, plogp, *_losses(logp, instance._target[0], plogp))


def logit_gradients(logp: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-position gradients of both losses w.r.t. the logits, stacked
    (2, T, V): [0] heat, p - onehot(y_t); [1] confidence,
    p_k (log p_k + E_t) with E_t the entropy of row t.  Each row sums
    to 0.  Rejects any other rank, non-finite input, and targets other
    than T integers in [0, V)."""
    logp = np.asarray(logp, dtype=np.float64)
    if logp.ndim != 2:
        raise ValueError(f"log-probabilities must be a (T, V) matrix, got shape {logp.shape}")
    if not np.isfinite(logp).all():
        raise ValueError("log-probabilities must be finite")
    return _logit_gradients(logp, _targets(y, *logp.shape)[1], *_softmax_terms(logp))


def _logit_gradients(logp: np.ndarray, onehot: np.ndarray, p: np.ndarray,
                     plogp: np.ndarray) -> np.ndarray:
    """``logit_gradients`` of a (T, V) matrix, or (K, 2, T, V) of a
    (K, T, V) stack, from the targets' (T, V) one-hot and the
    softmax terms of a finite log-softmax, such as a forward pass with
    finite losses carries (their mean over positions is nan or inf
    wherever logp is not finite)."""
    g = np.empty(p.shape[:-2] + (2,) + p.shape[-2:])
    np.subtract(p, onehot, out=g[..., 0, :, :])  # p - 0.0 is p bit for bit
    conf = g[..., 1, :, :]  # formed in place, no T x V temporary
    np.subtract(logp, plogp[..., None], out=conf)
    conf *= p
    if _validation:
        assert (np.abs(g.sum(axis=-1)) < ZERO_SUM_TOL).all(), "logit gradients must sum to 0"
    return g


def w_columns(instance: ProblemInstance, x: np.ndarray) -> np.ndarray:
    """The logit columns that w moves, along the last (V) axis of x: all
    of them for FULL_MATRIX, column v_star for SINGLE_ROW, and their sum
    for BROADCAST (which drops the axis in the last two modes)."""
    if instance.w_mode is WMode.FULL_MATRIX:
        return x
    if instance.w_mode is WMode.SINGLE_ROW:
        return x[..., instance.v_star]
    return x.sum(axis=-1)


def _pullback(instance: ProblemInstance, A: np.ndarray, g: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """Map n stacked logit-space gradients g (n, T, V) to T times their
    w-gradients, shaped (n,) + w_shape: r^T A with r = w_columns(g), i.e.
    g^T A for FULL_MATRIX, column v_star of g against A for SINGLE_ROW,
    and row sums of g against A for BROADCAST, which vanish for both
    objectives because their logit gradients are zero-sum per position.
    At K stacked points, A (K, T, d) and g (K, n, T, V), slice k is
    pulled back against A[k].  The result is formed in ``out`` when
    given.  The caller divides by T (``GradientSet.w``) or, as the
    optimizer does, folds 1/T into the coefficients the gradients were
    combined with."""
    r = w_columns(instance, g)
    if instance.w_mode is WMode.FULL_MATRIX:  # (..., V, T) against each slice's A
        return np.matmul(r.swapaxes(-2, -1), A[..., None, :, :], out=out)
    return np.matmul(r, A, out=out)  # the (..., n, T) columns


def fd_gradient(
    which: str,
    instance: ProblemInstance,
    pert: Perturbations,
    eps: float = 1e-5,
) -> np.ndarray:
    """Central finite differences of both losses w.r.t. h or w, stacked
    (2,) + shape(which): [0] heat, [1] confidence.

    Independent oracle for the analytic blocks: the evaluated points go
    through stacked forward passes (``_forward``) alone, each point once,
    in blocks of ``_stack_width`` points; never ``logit_gradients`` or
    ``_pullback``.

    Args:
        which: "h" or "w".
        eps: step size; error is O(eps^2) at smooth points.
    """
    if which not in ("h", "w"):
        raise ValueError("which must be 'h' or 'w'")
    if require_float("eps", eps) <= 0:
        raise ValueError("eps must be positive")
    _check_shapes(instance, pert)
    target = pert.h if which == "h" else pert.w
    flat = target.ravel()
    grad = np.empty((2, flat.size))
    # points 2i and 2i + 1 move entry i by +eps and by -eps
    step = max(1, _stack_width(instance) // 2)
    for first in range(0, flat.size, step):
        idx = np.arange(first, min(first + step, flat.size))
        points = np.repeat(flat[None], 2 * idx.size, axis=0)
        rows = 2 * np.arange(idx.size)
        points[rows, idx] = flat[idx] + eps
        points[rows + 1, idx] = flat[idx] - eps
        moved = points.reshape((-1,) + target.shape)
        h = moved if which == "h" else np.repeat(pert.h[None], len(points), axis=0)
        w = moved if which == "w" else np.repeat(pert.w[None], len(points), axis=0)
        moved = Perturbations(h, w)  # a point pushed out of the finite range raises
        fwd = _forward(instance, moved.h, _factor_B(instance, moved.w))
        grad[0, idx] = (fwd.ob1[0::2] - fwd.ob1[1::2]) / (2.0 * eps)
        grad[1, idx] = (fwd.ob2[0::2] - fwd.ob2[1::2]) / (2.0 * eps)
    return grad.reshape((2,) + target.shape)
