"""Bilinear logit model, its two objectives, and their analytic gradients.

The model scores V vocabulary tokens at T positions as

    logits = A B^T,   A = H + h,   B = W with w folded in per w_mode

where H (T x d hidden states) and W (V x d embeddings) are frozen and
(h, w) are small additive perturbations.  Two losses are defined on the
logits: ``heat`` (mean cross-entropy against the target tokens, to be
driven down for fidelity) and ``confidence`` (mean negative entropy of
the softmax, to be driven down for certainty).

One forward pass (``forward``) forms A, B, the logits and one row-wise
log-softmax, and reads both losses from it.  ``logit_gradients`` turns
that log-softmax into both losses' logit-space gradients, stacked as
(2, T, V); ``pullback`` maps stacked logit-space gradients to h and to
w in one batched product per group.  A central-difference oracle
(``fd_gradient``) checks every analytic gradient through the forward
pass alone.

All numerics are float64.  Every public function is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "WMode",
    "ObjectiveKind",
    "ProblemInstance",
    "Perturbations",
    "ObjectivePair",
    "Forward",
    "set_validation",
    "w_shape",
    "zero_perturbations",
    "compute_logits",
    "forward",
    "log_softmax",
    "heat_loss",
    "confidence_loss",
    "objectives",
    "logit_gradients",
    "pullback",
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


class WMode(str, Enum):
    """Shape semantics of the embedding perturbation w."""

    FULL_MATRIX = "full_matrix"  # w is V x d, added row-wise to W
    SINGLE_ROW = "single_row"    # w is length d, added to row v_star only
    BROADCAST = "broadcast"      # w is length d, added to every row (gradient-dead)


class ObjectiveKind(str, Enum):
    HEAT = "heat"
    CONF = "conf"


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
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be a positive integer")
        object.__setattr__(self, "V", int(self.V))
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "T", int(self.T))
        H = np.asarray(self.H, dtype=np.float64)
        W = np.asarray(self.W, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.int64)
        if H.shape != (self.T, self.d):
            raise ValueError(f"H must have shape {(self.T, self.d)}, got {H.shape}")
        if W.shape != (self.V, self.d):
            raise ValueError(f"W must have shape {(self.V, self.d)}, got {W.shape}")
        if y.shape != (self.T,):
            raise ValueError(f"y must have shape {(self.T,)}, got {y.shape}")
        if not (np.isfinite(H).all() and np.isfinite(W).all()):
            raise ValueError("H and W must be finite")
        if y.min(initial=0) < 0 or y.max(initial=0) >= self.V:
            raise ValueError("y entries must lie in [0, V)")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "w_mode", WMode(self.w_mode))
        v_star = self.v_star
        if v_star is None:
            v_star = int(y[-1]) if self.w_mode is WMode.SINGLE_ROW else 0
        v_star = int(v_star)
        if not 0 <= v_star < self.V:
            raise ValueError("v_star must lie in [0, V)")
        object.__setattr__(self, "v_star", v_star)


@dataclass(eq=False)
class Perturbations:
    """The tunable pair: h is added to every row of H, w to W per w_mode."""

    h: np.ndarray
    w: np.ndarray

    def __post_init__(self) -> None:
        self.h = np.asarray(self.h, dtype=np.float64)
        self.w = np.asarray(self.w, dtype=np.float64)
        if not (np.isfinite(self.h).all() and np.isfinite(self.w).all()):
            raise ValueError("perturbations must be finite")

    def copy(self) -> "Perturbations":
        return Perturbations(self.h.copy(), self.w.copy())


@dataclass(frozen=True)
class ObjectivePair:
    """Current values of the two losses, in nats."""

    ob1: float  # heat: mean cross-entropy, >= 0
    ob2: float  # confidence: mean negative entropy, in [-log V, 0]


@dataclass(frozen=True, eq=False)
class Forward:
    """One forward pass at a point (h, w)."""

    A: np.ndarray       # H + h, (T, d)
    B: np.ndarray       # W with w folded in per w_mode, (V, d)
    logits: np.ndarray  # A B^T, (T, V)
    logp: np.ndarray    # row-wise log-softmax of the logits, (T, V)
    objectives: ObjectivePair


def zero_perturbations(instance: ProblemInstance) -> Perturbations:
    return Perturbations(
        np.zeros(instance.d), np.zeros(w_shape(instance.V, instance.d, instance.w_mode))
    )


def _check_shapes(instance: ProblemInstance, pert: Perturbations) -> None:
    if pert.h.shape != (instance.d,):
        raise ValueError(f"h must have shape {(instance.d,)}, got {pert.h.shape}")
    expected = w_shape(instance.V, instance.d, instance.w_mode)
    if pert.w.shape != expected:
        raise ValueError(
            f"w must have shape {expected} in {instance.w_mode.value} mode, got {pert.w.shape}"
        )


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable row-wise log-softmax of a (T, V) logit matrix.

    Non-finite rows pass through (as nan) so that a diverging run
    surfaces as a non-finite loss rather than as an error here.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError("logits must be a (T, V) matrix")
    shifted = z - z.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    if _validation:
        p = np.exp(logp[np.isfinite(logp).all(axis=1)])
        assert (np.abs(p.sum(axis=1) - 1.0) < BOUNDS_TOL).all(), "softmax rows must sum to 1"
    return logp


def _heat(logp: np.ndarray, y: np.ndarray) -> float:
    loss = float(-logp[np.arange(logp.shape[0]), y].mean())
    if _validation and np.isfinite(loss):
        assert loss >= 0.0, "heat loss must be non-negative"
    return loss


def _confidence(logp: np.ndarray) -> float:
    p = np.exp(logp)
    # p underflows to 0 only with logp finite, so p * logp is exactly 0 there.
    loss = float((p * logp).sum(axis=1).mean())
    if _validation and np.isfinite(loss):
        V = logp.shape[1]
        assert -math.log(V) - BOUNDS_TOL <= loss <= 0.0, "confidence out of [-log V, 0]"
    return loss


def heat_loss(logits: np.ndarray, y: np.ndarray) -> float:
    """Mean over positions of -log softmax(logits[t])[y[t]], in nats."""
    return _heat(log_softmax(logits), np.asarray(y, dtype=np.int64))


def confidence_loss(logits: np.ndarray) -> float:
    """Mean over positions of sum_v p_v log p_v (negative entropy, nats)."""
    return _confidence(log_softmax(logits))


def _factors(instance: ProblemInstance, pert: Perturbations) -> tuple[np.ndarray, np.ndarray]:
    """A = H + h and B = W with w folded in per w_mode."""
    _check_shapes(instance, pert)
    if instance.w_mode is WMode.SINGLE_ROW:
        B = instance.W.copy()
        B[instance.v_star] += pert.w
    else:  # full_matrix adds row-wise, broadcast adds w to every row
        B = instance.W + pert.w
    return instance.H + pert.h, B


def compute_logits(instance: ProblemInstance, pert: Perturbations) -> np.ndarray:
    """logits[t, v] = (H[t] + h) . (W[v] + w_row(v)), shape (T, V)."""
    A, B = _factors(instance, pert)
    return A @ B.T


def forward(instance: ProblemInstance, pert: Perturbations) -> Forward:
    """The logits at (h, w) and both losses, from one log-softmax."""
    A, B = _factors(instance, pert)
    logits = A @ B.T
    logp = log_softmax(logits)
    return Forward(A, B, logits, logp, ObjectivePair(_heat(logp, instance.y), _confidence(logp)))


def objectives(instance: ProblemInstance, pert: Perturbations) -> ObjectivePair:
    """Both losses at (h, w)."""
    return forward(instance, pert).objectives


def logit_gradients(logp: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-position gradients of both losses w.r.t. the logits, stacked
    (2, T, V): [0] heat, p - onehot(y_t); [1] confidence,
    p_k (log p_k + E_t) with E_t the entropy of row t.  Each row sums
    to 0.  Rejects non-finite input."""
    logp = np.asarray(logp, dtype=np.float64)
    if logp.ndim != 2:
        raise ValueError("log-probabilities must be a (T, V) matrix")
    if not np.isfinite(logp).all():
        raise ValueError("log-probabilities must be finite")
    p = np.exp(logp)
    g = np.empty((2,) + p.shape)
    g[0] = p
    g[0, np.arange(p.shape[0]), np.asarray(y, dtype=np.int64)] -= 1.0
    entropy = -(p * logp).sum(axis=1, keepdims=True)
    g[1] = p * (logp + entropy)
    if _validation:
        assert (np.abs(g.sum(axis=2)) < ZERO_SUM_TOL).all(), "logit gradients must sum to 0"
    return g


def pullback(
    instance: ProblemInstance, fwd: Forward, g_logits: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Map K stacked logit-space gradients (K, T, V) to h and to w.

    Returns (K, d) h-gradients, (1/T) sum_tv g[t,v] B[v], and w-gradients
    shaped (K,) + w_shape: (1/T) g^T A for FULL_MATRIX, column v_star of
    g against A for SINGLE_ROW, and row sums of g against A for
    BROADCAST, which vanish for both objectives because their logit
    gradients are zero-sum per position.
    """
    g = np.asarray(g_logits, dtype=np.float64)
    if g.ndim != 3 or g.shape[1:] != (instance.T, instance.V):
        raise ValueError(
            f"g_logits must have shape (K, {instance.T}, {instance.V}), got {g.shape}"
        )
    T = instance.T
    grad_h = (g.sum(axis=1) @ fwd.B) / T
    if instance.w_mode is WMode.FULL_MATRIX:
        return grad_h, (g.transpose(0, 2, 1) @ fwd.A) / T
    if instance.w_mode is WMode.SINGLE_ROW:
        return grad_h, (g[:, :, instance.v_star] @ fwd.A) / T
    return grad_h, (g.sum(axis=2) @ fwd.A) / T


def fd_gradient(
    objective: ObjectiveKind,
    which: str,
    instance: ProblemInstance,
    pert: Perturbations,
    eps: float = 1e-5,
) -> np.ndarray:
    """Central finite differences of a loss w.r.t. h or w.

    Independent oracle for the analytic blocks: shares the forward pass
    and the losses, never ``logit_gradients`` or ``pullback``.

    Args:
        objective: which loss to differentiate.
        which: "h" or "w".
        eps: step size; error is O(eps^2) at smooth points.
    """
    if which not in ("h", "w"):
        raise ValueError("which must be 'h' or 'w'")
    if eps <= 0:
        raise ValueError("eps must be positive")
    heat = ObjectiveKind(objective) is ObjectiveKind.HEAT

    def loss(p: Perturbations) -> float:
        logits = compute_logits(instance, p)
        return heat_loss(logits, instance.y) if heat else confidence_loss(logits)

    base = pert.copy()
    target = base.h if which == "h" else base.w
    grad = np.zeros_like(target)
    for idx in np.ndindex(target.shape):
        orig = target[idx]
        target[idx] = orig + eps
        f_plus = loss(base)
        target[idx] = orig - eps
        f_minus = loss(base)
        target[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * eps)
    return grad
