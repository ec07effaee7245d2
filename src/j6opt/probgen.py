"""Seeded synthetic instance generation, including engineered conflict
families.

Conflict families are defined by measurable certificates, not closed-form
constructions: the generator rejection-samples plain Gaussian draws until
the certificate holds, so every emitted instance carries its property by
test rather than by trust.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .attribution import compute_gradient_set
from .model import (
    Forward,
    ProblemInstance,
    WMode,
    forward,
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


class Family(str, Enum):
    GAUSSIAN = "gaussian"
    CONFLICTING = "conflicting"
    ROLE_SWAP = "role-swap"


@dataclass(frozen=True)
class GeneratorSpec:
    V: int
    d: int
    T: int
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


def _draw(rng: np.random.Generator, spec: GeneratorSpec) -> ProblemInstance:
    H = rng.standard_normal((spec.T, spec.d))
    W = rng.standard_normal((spec.V, spec.d))
    y = rng.integers(0, spec.V, size=spec.T)
    return ProblemInstance(
        V=spec.V, d=spec.d, T=spec.T, H=H, W=W, y=y, w_mode=spec.w_mode, v_star=spec.v_star
    )


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


def generate(spec: GeneratorSpec) -> ProblemInstance:
    """Draw an instance of the requested family; deterministic per spec."""
    rng = np.random.default_rng(spec.seed)
    for _ in range(_MAX_DRAWS):
        instance = _draw(rng, spec)
        if _accept(instance, spec.family):
            return instance
    raise RuntimeError(
        f"no {spec.family.value} instance found in {_MAX_DRAWS} draws for {spec}"
    )
