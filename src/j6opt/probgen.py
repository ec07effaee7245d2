"""Seeded synthetic instance generation, including engineered conflict
families.

Conflict families are defined by measurable certificates, not closed-form
constructions: the generator rejection-samples plain Gaussian draws until
the certificate holds, so every emitted instance carries its property by
test rather than by trust.

Candidates are drawn in blocks from one stream, and ``_certificates``
evaluates a block at once under the batching rule of ``optimizer``.  So
a candidate's value is bit for bit the public certificate of the
instance built from it (the K = 1 call), and the first candidate in
draw order below its threshold, the one returned, is the one a
draw-by-draw loop would return.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import (ProblemInstance, WMode, _encode_targets, _logit_gradients, _softmax_terms,
                    log_softmax, require_int)

__all__ = [
    "Family",
    "GeneratorSpec",
    "generate",
    "conflict_certificate",
    "roleswap_certificate",
    "ROLESWAP_RATIO_MAX",
]

# Accept thresholds for the conflict families.
ROLESWAP_RATIO_MAX = 0.05
_MAX_DRAWS = 50_000
# A block of candidates holds at most about this many bytes of stacked arrays.
_BLOCK_BYTES = 4 << 20


class Family(str, Enum):
    GAUSSIAN = "gaussian"
    CONFLICTING = "conflicting"
    ROLE_SWAP = "role-swap"


@dataclass(frozen=True)
class GeneratorSpec:
    V: int
    d: int
    T: int = 1
    seed: int = 0
    family: Family = Family.GAUSSIAN
    w_mode: WMode = WMode.FULL_MATRIX
    v_star: int | None = None  # None -> target token of the last position

    def __post_init__(self) -> None:
        if require_int("V", self.V) < 2:
            raise ValueError("V must be at least 2")
        if require_int("d", self.d) < 1 or require_int("T", self.T) < 1:
            raise ValueError("d and T must be positive")
        if not 0 <= require_int("seed", self.seed) < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        object.__setattr__(self, "family", Family(self.family))
        object.__setattr__(self, "w_mode", WMode(self.w_mode))
        if self.v_star is not None and not 0 <= require_int("v_star", self.v_star) < self.V:
            raise ValueError("v_star must lie in [0, V)")
        if self.family is Family.ROLE_SWAP and self.w_mode is WMode.BROADCAST:
            raise ValueError("role-swap cannot hold on broadcast: J12 is analytically zero "
                             "there, so no draw passes the certificate")
        if self.family is Family.CONFLICTING and self.V == 2:
            raise ValueError("conflicting needs V >= 3: with V = 2 every target below the "
                             "argmax gives <g_heat, g_conf> > 0, so no draw passes the certificate")


def conflict_certificate(instance: ProblemInstance) -> float:
    """Inner product of the two logit-space objective gradients at zero
    perturbations; negative means the objectives pull logits apart."""
    return _one(Family.CONFLICTING, instance)


def roleswap_certificate(instance: ProblemInstance) -> float:
    """||grad_h heat||^2 / ||grad_w heat||^2 at zero perturbations; small
    means the h route to heat is suppressed while the w route is live."""
    return _one(Family.ROLE_SWAP, instance)


def _one(family: Family, instance: ProblemInstance) -> float:
    """``family``'s certificate of one instance: the K = 1 call."""
    values = _certificates(family, instance.w_mode, instance.v_star,
                           instance.H[None], instance.W[None], instance.y[None])[1]
    return float(values[0])


def _certificates(family: Family, w_mode: WMode, v_star: int | None, H: np.ndarray,
                  W: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked candidates (K, T, d), (K, V, d), (K, T) at zero
    perturbations of a conflict family: their (K, T, V) logits and each
    one's certificate, slice k from candidate k alone."""
    K, T = y.shape
    V = W.shape[1]
    logits = H @ W.swapaxes(1, 2)
    # one (K T, V) matrix: both functions work row by row; the draws are
    # finite, so logit_gradients' finiteness check is skipped, and their
    # targets lie in [0, V), so the targets' checks are too
    logp = log_softmax(logits.reshape(K * T, V))
    g = _logit_gradients(logp, _encode_targets(y.ravel(), K * T, V)[1], *_softmax_terms(logp))
    g_heat, g_conf = g.reshape(2, K, T, V)
    if family is Family.CONFLICTING:
        return logits, (g_heat * g_conf).reshape(K, -1).sum(axis=1)
    # T^2 ||J11||^2 = ||(sum_t g_t) W||^2 and T^2 ||J12||^2 = <r, H H^T r>,
    # r the logit columns w moves
    J11 = g_heat.sum(axis=1)[:, None] @ W
    if w_mode is WMode.FULL_MATRIX:
        r = g_heat
    elif w_mode is WMode.SINGLE_ROW:
        v = y[:, -1] if v_star is None else np.full(K, v_star)
        r = g_heat[np.arange(K), :, v][..., None]
    else:
        r = g_heat.sum(axis=2, keepdims=True)
    n11 = (J11 * J11).reshape(K, -1).sum(axis=1)
    n12 = (r * ((H @ H.swapaxes(1, 2)) @ r)).reshape(K, -1).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return logits, np.where(n12 > 0, n11 / n12, np.inf)


def generate(spec: GeneratorSpec) -> ProblemInstance:
    """Draw an instance of the requested family; deterministic per spec.

    Candidates come from one stream, H, W, then y for each, in blocks
    that double from 1 up to about ``_BLOCK_BYTES`` of stacked arrays;
    the first in draw order whose certificate is below its threshold is
    returned, after ``_MAX_DRAWS`` candidates at most."""
    T, V, d = spec.T, spec.V, spec.d
    threshold = ROLESWAP_RATIO_MAX if spec.family is Family.ROLE_SWAP else 0.0
    rng = np.random.default_rng(spec.seed)
    # about ten T x V arrays per candidate are live at once in _certificates
    cap = max(1, _BLOCK_BYTES // (8 * (T * d + V * d + 10 * T * V)))
    drawn, size, best = 0, 1, np.inf
    while drawn < _MAX_DRAWS:
        K = min(size, cap, _MAX_DRAWS - drawn)
        size *= 2
        H, W, y = np.empty((K, T, d)), np.empty((K, V, d)), np.empty((K, T), dtype=np.int64)
        for k in range(K):
            rng.standard_normal(out=H[k])
            rng.standard_normal(out=W[k])
            y[k] = rng.integers(0, V, size=T)
        drawn += K
        if spec.family is Family.GAUSSIAN:  # every candidate passes, with no logits formed
            values = np.full(K, -np.inf)
        else:
            logits, values = _certificates(spec.family, spec.w_mode, spec.v_star, H, W, y)
        if spec.family is Family.CONFLICTING:
            # sharpening must initially fight correctness: every target below the argmax
            values[(logits.argmax(axis=2) == y).any(axis=1)] = np.inf
        best = min(best, values.min())
        passing = np.flatnonzero(values < threshold)
        if passing.size:
            k = passing[0]
            return ProblemInstance(
                V=V, d=d, T=T, H=H[k].copy(), W=W[k].copy(), y=y[k].copy(),
                w_mode=spec.w_mode, v_star=spec.v_star,
            )
    # a config error: the spec may be infeasible at this size
    raise ValueError(
        f"no {spec.family.value} instance found in {_MAX_DRAWS} draws for {spec}; "
        f"best certificate {float(best)!r} (accepted below {threshold!r})"
    )
