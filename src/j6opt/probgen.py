"""Seeded synthetic instance generation, including engineered conflict
families.

Conflict families are defined by measurable certificates, not closed-form
constructions: the generator rejection-samples plain Gaussian draws until
the certificate holds, so every emitted instance carries its property by
test rather than by trust.

Candidates are drawn in blocks and screened there on stacked arrays
(``_screen``); the screen rules a candidate out only where the exact
check (``_accept``) certainly rejects it too, and every other candidate
goes, in draw order, through ``_accept`` on a real ``ProblemInstance``.
So the first candidate accepted, and every byte of the output, is the
one a draw-by-draw loop would return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .attribution import compute_gradient_set
from .model import (
    Forward,
    ProblemInstance,
    WMode,
    forward,
    log_softmax,
    logit_gradients,
    require_int,
    zero_perturbations,
)

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
# A screened block holds at most about this many bytes of stacked arrays.
_SCREEN_BYTES = 4 << 20
_U = 2.0**-53  # unit roundoff of float64


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


def conflict_certificate(instance: ProblemInstance, fwd: Forward | None = None) -> float:
    """Inner product of the two logit-space objective gradients at zero
    perturbations; negative means the objectives pull logits apart.
    ``fwd`` is a forward pass already taken there, if any."""
    if fwd is None:
        fwd = forward(instance, zero_perturbations(instance))
    g_heat, g_conf = logit_gradients(fwd.logp, instance.y)
    return float(np.vdot(g_heat, g_conf))


def roleswap_certificate(instance: ProblemInstance) -> float:
    """||grad_h heat||^2 / ||grad_w heat||^2 at zero perturbations; small
    means the h route to heat is suppressed while the w route is live."""
    gram_h, gram_w = compute_gradient_set(instance, zero_perturbations(instance)).grams
    n11, n12 = gram_h[0][0], gram_w[0][0]
    return n11 / n12 if n12 > 0.0 else np.inf


def _accept(instance: ProblemInstance, family: Family) -> bool:
    if family is Family.GAUSSIAN:
        return True
    if family is Family.CONFLICTING:
        # Sharpening must initially fight correctness: every target sits
        # below the current argmax, and the logit gradients oppose.
        fwd = forward(instance, zero_perturbations(instance))
        if (fwd.logits.argmax(axis=1) == instance.y).any():
            return False
        return conflict_certificate(instance, fwd) < 0.0
    return roleswap_certificate(instance) < ROLESWAP_RATIO_MAX


def _screen(spec: GeneratorSpec, H: np.ndarray, W: np.ndarray,
            y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked candidates (K, T, d), (K, V, d), (K, T) against the
    family's certificate: a mask, False only where ``_accept`` certainly
    rejects, and each candidate's certificate value (inf for a
    ``conflicting`` candidate with a target at its argmax).

    The values differ from those ``_accept`` computes only by rounding:
    both paths take the model's ``log_softmax`` and ``logit_gradients``,
    and only the products and sums may round differently.  With a and b the largest row norms of H and W, let
    eps = 16 (d + T V + 4) u (1 + a b) per candidate.  To first order it
    bounds either path's error in every logit (d u a b), every
    log-probability (that plus (V + 4) u (2 a b + 1)), relative error in
    every probability, and the relative error of every sum of at most
    T V terms.  Carried through the
    certificates, the two paths differ by less than eps in a logit gap,
    64 eps T (1 + log V) in <g_heat, g_conf>, and 64 eps (a^2 + b^2) in
    n11 - ROLESWAP_RATIO_MAX n12; a candidate is ruled out only past its
    threshold by that much.  Where eps > 1e-6 first order is no bound,
    and nothing is ruled out.
    """
    K, T, V = len(H), spec.T, spec.V
    if spec.family is Family.GAUSSIAN:
        return np.ones(K, dtype=bool), np.full(K, -np.inf)
    a2 = np.einsum("ktd,ktd->kt", H, H).max(axis=1)
    b2 = np.einsum("kvd,kvd->kv", W, W).max(axis=1)
    eps = 16 * (spec.d + T * V + 4) * _U * (1 + np.sqrt(a2 * b2))
    eps[eps > 1e-6] = np.inf
    logits = H @ W.swapaxes(1, 2)
    # one (K T, V) matrix: both functions work row by row
    g = logit_gradients(log_softmax(logits.reshape(K * T, V)), y.ravel())
    g_heat, g_conf = g.reshape(2, K, T, V)
    if spec.family is Family.CONFLICTING:
        at_y = np.arange(K)[:, None], np.arange(T), y
        others = logits.copy()
        others[at_y] = -np.inf
        gap = logits[at_y] - others.max(axis=2)  # > 0: the target is the argmax
        cert = np.einsum("ktv,ktv->k", g_heat, g_conf)
        margin = 64 * eps * T * (1 + math.log(V))
        keep = ~((gap > eps[:, None]).any(axis=1) | (cert > margin))
        return keep, np.where((gap >= 0).any(axis=1), np.inf, cert)
    # role-swap: ||J11||^2 = ||(sum_t g_t) B||^2 / T^2 and ||J12||^2 = <r, A A^T r> / T^2
    J11 = g_heat.sum(axis=1)[:, None] @ W
    n11 = np.einsum("kid,kid->k", J11, J11) / (T * T)
    if spec.w_mode is WMode.FULL_MATRIX:
        r = g_heat
    else:  # single_row (the spec rules out broadcast)
        v_star = y[:, -1] if spec.v_star is None else np.full(K, spec.v_star)
        r = g_heat[np.arange(K), :, v_star][..., None]
    n12 = np.einsum("ktv,ktv->k", r, (H @ H.swapaxes(1, 2)) @ r) / (T * T)
    keep = ~(n11 - ROLESWAP_RATIO_MAX * n12 > 64 * eps * (a2 + b2))
    with np.errstate(divide="ignore"):
        return keep, np.where(n12 > 0, n11 / n12, np.inf)


def generate(spec: GeneratorSpec) -> ProblemInstance:
    """Draw an instance of the requested family; deterministic per spec.

    Candidates come from one stream, H, W, then y for each, in blocks
    that double from 1 up to about ``_SCREEN_BYTES`` of stacked arrays;
    ``_MAX_DRAWS`` candidates at most."""
    T, V, d = spec.T, spec.V, spec.d
    rng = np.random.default_rng(spec.seed)
    # about ten T x V arrays per candidate are live at once in _screen
    cap = max(1, _SCREEN_BYTES // (8 * (T * d + V * d + 10 * T * V)))
    drawn = passed = 0
    size, best = 1, np.inf
    while drawn < _MAX_DRAWS:
        K = min(size, cap, _MAX_DRAWS - drawn)
        size *= 2
        H, W, y = np.empty((K, T, d)), np.empty((K, V, d)), np.empty((K, T), dtype=np.int64)
        for k in range(K):
            rng.standard_normal(out=H[k])
            rng.standard_normal(out=W[k])
            y[k] = rng.integers(0, V, size=T)
        drawn += K
        keep, values = _screen(spec, H, W, y)
        best = min(best, values.min())
        for k in np.flatnonzero(keep):
            passed += 1
            instance = ProblemInstance(
                V=V, d=d, T=T, H=H[k].copy(), W=W[k].copy(), y=y[k].copy(),
                w_mode=spec.w_mode, v_star=spec.v_star,
            )
            if _accept(instance, spec.family):
                return instance
    threshold = 0.0 if spec.family is Family.CONFLICTING else ROLESWAP_RATIO_MAX
    # a config error: the spec may be infeasible at this size
    raise ValueError(
        f"no {spec.family.value} instance found in {_MAX_DRAWS} draws for {spec}; "
        f"{passed} passed the screen, best certificate {float(best)!r} "
        f"(accepted below {threshold!r})"
    )
