"""Seeded synthetic instance generation, including engineered conflict
families.

Conflict families are defined by measurable certificates, not closed-form
constructions: the generator rejection-samples seeded proposals until
the certificate holds, so every emitted instance carries its property by
test rather than by trust.

A family version names the proposals.  Version 1 draws H, W and the
targets plainly: N(0, 1) entries and targets uniform over the V tokens.
Its acceptance collapses with size (about 0 at 50x8x4).  Version 2, the
default, draws what its certificates keep: role-swap takes H at sigma 2
and W at sigma 1/4, version 1's own normals scaled by powers of two, and
conflicting takes W at sigma 1/4 and each target uniform over the V - 1
tokens other than its row's argmax.  ``gaussian`` is the same in both.
A conflict-family instance carries the version it was drawn under, and
its file records it.

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
# The family versions, and the one a spec draws by default.
FAMILY_VERSIONS = (1, 2)
FAMILY_VERSION = 2


class Family(str, Enum):
    GAUSSIAN = "gaussian"
    CONFLICTING = "conflicting"
    ROLE_SWAP = "role-swap"


# Version 2's proposal scales (sigma_H, sigma_W) of the conflict families:
# powers of two, so that each scaled normal is exact.
_SCALES = {Family.ROLE_SWAP: (2.0, 0.25), Family.CONFLICTING: (1.0, 0.25)}


def _family_version(value: object) -> int:
    """``value`` as a known family version; anything else raises ValueError."""
    if require_int("family_version", value) not in FAMILY_VERSIONS:
        raise ValueError(f"family_version must be one of {list(FAMILY_VERSIONS)}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class GeneratorSpec:
    V: int
    d: int
    T: int = 1
    seed: int = 0
    family: Family = Family.GAUSSIAN
    w_mode: WMode = WMode.FULL_MATRIX
    v_star: int | None = None  # None -> target token of the last position
    family_version: int = FAMILY_VERSION

    def __post_init__(self) -> None:
        if require_int("V", self.V) < 2:
            raise ValueError("V must be at least 2")
        if require_int("d", self.d) < 1 or require_int("T", self.T) < 1:
            raise ValueError("d and T must be positive")
        if not 0 <= require_int("seed", self.seed) < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        _family_version(self.family_version)
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
    H, W = instance.H[None], instance.W[None]
    return float(_certificates(family, instance.w_mode, instance.v_star, H, W,
                               instance.y[None], H @ W.swapaxes(1, 2))[0])


def _certificates(family: Family, w_mode: WMode, v_star: int | None, H: np.ndarray,
                  W: np.ndarray, y: np.ndarray, logits: np.ndarray) -> np.ndarray:
    """The certificate of each of the stacked candidates (K, T, d),
    (K, V, d), (K, T) of a conflict family, from their (K, T, V) logits
    at zero perturbations, ``H @ W.swapaxes(1, 2)``; entry k from
    candidate k alone."""
    K, T = y.shape
    V = W.shape[1]
    # one (K T, V) matrix: both functions work row by row; the draws are
    # finite, so logit_gradients' finiteness check is skipped, and their
    # targets lie in [0, V), so the targets' checks are too
    logp = log_softmax(logits.reshape(K * T, V))
    g = _logit_gradients(logp, _encode_targets(y.ravel(), K * T, V)[1], *_softmax_terms(logp))
    g_heat, g_conf = g.reshape(2, K, T, V)
    if family is Family.CONFLICTING:
        return (g_heat * g_conf).reshape(K, -1).sum(axis=1)
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
        return np.where(n12 > 0, n11 / n12, np.inf)


def generate(spec: GeneratorSpec, *,
             with_certificate: bool = False) -> ProblemInstance | tuple[ProblemInstance, float]:
    """Draw an instance of the requested family; deterministic per spec.

    Candidates come from one stream, H, W, then y for each, in blocks
    that double from 1 up to about ``_BLOCK_BYTES`` of stacked arrays;
    the first in draw order whose certificate is below its threshold is
    returned, after ``_MAX_DRAWS`` candidates at most.  With
    ``with_certificate``, the result is the pair (instance, its
    certificate), the value the screen computed, bit for bit the public
    one (-inf for ``gaussian``, which passes every draw)."""
    T, V, d = spec.T, spec.V, spec.d
    threshold = ROLESWAP_RATIO_MAX if spec.family is Family.ROLE_SWAP else 0.0
    # version 2 draws each conflicting target from the V - 1 tokens off its
    # row's argmax: from [0, V - 1), then shifted past the argmax
    off_argmax = spec.family_version == 2 and spec.family is Family.CONFLICTING
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
            y[k] = rng.integers(0, V - 1 if off_argmax else V, size=T)
        drawn += K
        if spec.family is Family.GAUSSIAN:  # every candidate passes, with no logits formed
            values = np.full(K, -np.inf)
        else:
            if spec.family_version == 2:
                sigma_H, sigma_W = _SCALES[spec.family]
                H *= sigma_H
                W *= sigma_W
            logits = H @ W.swapaxes(1, 2)  # slice k from candidate k alone
            if off_argmax:
                y += y >= logits.argmax(axis=2)
            values = _certificates(spec.family, spec.w_mode, spec.v_star, H, W, y, logits)
        if spec.family is Family.CONFLICTING:
            # sharpening must initially fight correctness: every target below the argmax
            values[(logits.argmax(axis=2) == y).any(axis=1)] = np.inf
        best = min(best, values.min())
        passing = np.flatnonzero(values < threshold)
        if passing.size:
            k = passing[0]
            # a one-candidate block is handed over whole; the winner of a
            # larger one is copied out, so that the block can be freed
            H, W, y = (a[k] if K == 1 else a[k].copy() for a in (H, W, y))
            instance = ProblemInstance(
                V=V, d=d, T=T, H=H, W=W, y=y, w_mode=spec.w_mode, v_star=spec.v_star,
                # gaussian draws the same under every version
                family_version=None if spec.family is Family.GAUSSIAN else spec.family_version)
            return (instance, float(values[k])) if with_certificate else instance
    # a config error: the spec may be infeasible at this size
    raise ValueError(
        f"no {spec.family.value} instance found in {_MAX_DRAWS} draws for {spec}; "
        f"best certificate {float(best)!r} (accepted below {threshold!r})"
    )
