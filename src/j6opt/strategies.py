"""Update strategies: hard routing, soft weighting, and three baselines.

Every strategy only chooses a 2x2 coefficient matrix ``c`` (``decide``);
``optimizer.run`` takes the step

    delta_h = -eta_h (c[0][0] J11 + c[0][1] J21)
    delta_w = -eta_w (c[1][0] J12 + c[1][1] J22)

so strategies differ only in how ``c`` is picked and never touch a
block.  All coefficients are non-negative, so every update is
descent-shaped.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .attribution import BETA_AUX, J6_FROM_JPLUS, JPLUS_COMPONENTS, AlignmentMode
from .model import require_float

__all__ = [
    "StrategyKind",
    "PreNorm",
    "StrategyConfig",
    "UpdateDecision",
    "decide",
    "contrast_weights",
    "soft_weights",
]


class StrategyKind(str, Enum):
    HARD_J6 = "hard-j6"
    HARD_JPLUS = "hard-jplus"
    SOFT = "soft"
    STATIC = "static"
    SCALARIZED = "scalarized"
    GRAD_SURGERY = "grad-surgery"


class PreNorm(str, Enum):
    NONE = "none"
    MAXABS = "maxabs"


@dataclass(frozen=True)
class StrategyConfig:
    """Knobs for all strategies; each strategy reads the subset it uses.
    The default alignment kind, AUTO, is resolved per instance."""

    kind: StrategyKind
    tau: float = 1.0
    gamma: float = 2.0
    eta_h: float = 0.01
    eta_w: float = 0.01
    beta_aux: float = 0.5
    lam: tuple[float, float] = (0.5, 0.5)
    pre_norm: PreNorm = PreNorm.NONE
    alignment: AlignmentMode = AlignmentMode()

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", StrategyKind(self.kind))
        object.__setattr__(self, "pre_norm", PreNorm(self.pre_norm))
        if not isinstance(self.alignment, AlignmentMode):
            raise ValueError(f"'alignment' must be an AlignmentMode, got {self.alignment!r}")
        if require_float("tau", self.tau) <= 0:
            raise ValueError("tau must be positive")
        if require_float("gamma", self.gamma) <= 1:
            raise ValueError("gamma must exceed 1")
        if require_float("eta_h", self.eta_h) <= 0 or require_float("eta_w", self.eta_w) <= 0:
            raise ValueError("learning rates must be positive")
        if not 0.0 <= require_float("beta_aux", self.beta_aux) <= 1.0:
            raise ValueError("beta_aux must lie in [0, 1]")
        lam = (require_float("lam[0]", self.lam[0]), require_float("lam[1]", self.lam[1]))
        if min(lam) < 0 or abs(sum(lam) - 1.0) > 1e-9:
            raise ValueError("lam must be a non-negative pair summing to 1")
        object.__setattr__(self, "lam", lam)


@dataclass(eq=False)
class UpdateDecision:
    """A strategy's coefficient matrix c = ((c00, c01), (c10, c11)) plus
    the attribution that produced it."""

    c: list[list[float]]
    chosen_index: int | None = None
    alpha: np.ndarray | None = None


def contrast_weights(alpha_tilde: np.ndarray, gamma: float) -> np.ndarray:
    """Competitive contrast step: raise each weight to gamma, then
    renormalize (e.g. gamma=2 maps (0.5, 0.3, 0.1, 0.1) to the squares
    (0.25, 0.09, 0.01, 0.01) before the final division by their sum)."""
    powered = np.asarray(alpha_tilde, dtype=np.float64) ** gamma
    return powered / powered.sum()


def soft_weights(s: np.ndarray, cfg: StrategyConfig) -> np.ndarray:
    """Temperature softmax over the scores, then the contrast exponent.

    alpha~_i = softmax(s / tau)_i, alpha_i = alpha~_i^gamma normalized.
    MAXABS pre-normalization divides the scores by max|s| + 1e-12 first,
    making tau scale-free across instances.  The contrast step gets the
    unnormalized exp((s - max s) / tau), whose largest entry is exactly
    1, so no tau or gamma can underflow every weight to 0 (NaN).
    """
    s = np.asarray(s, dtype=np.float64)
    if cfg.pre_norm is PreNorm.MAXABS:
        s = s / (np.abs(s).max() + 1e-12)
    with np.errstate(over="ignore"):
        return contrast_weights(np.exp((s - s.max()) / cfg.tau), cfg.gamma)


def _projection(gram: list[list[float]]) -> tuple[tuple[float, float], tuple[float, float]]:
    """Mutual conflict projection of two same-shape gradients (g1, g2),
    from their 2x2 Gram: row i gives the projected g_i as a combination
    of (g1, g2).  Each is projected off the *original* other one, only
    when their inner product is negative and both norms are nonzero (in
    exact arithmetic the first implies the second, but a squared norm
    can underflow, or round to 0 in a logit-space Gram, while it does not)."""
    (n1, dot), (_, n2) = gram
    if dot >= 0.0 or n1 == 0.0 or n2 == 0.0:
        return (1.0, 0.0), (0.0, 1.0)
    return (1.0, -dot / n2), (-dot / n1, 1.0)


def decide(
    scores: np.ndarray, grams: tuple[list[list[float]], list[list[float]]], cfg: StrategyConfig
) -> UpdateDecision:
    """The coefficient matrix c of the strategy ``cfg.kind`` (see the
    module docstring), from the scores and the native 2x2 Grams of
    (J11, J21) and of (J12, J22) (``GradientSet.grams``).

    - hard-j6 / hard-jplus: the action of the argmax score's row of
      JPLUS_COMPONENTS, read through J6_FROM_JPLUS for j6 (ties break
      to the lowest index; all scores zero gives a zero step).
      ``chosen_index`` is 0-based for j6 and 1-based for j+, matching
      the slot and component numbering.
    - soft: c = ((alpha_0, alpha_3), (alpha_2, alpha_4)) with alpha the
      soft weights; the alignment weights alpha_1, alpha_5 drive no
      direction.
    - static: fixed roles, h chases heat and w confidence (identity).
    - scalarized: the fixed blend (lam_1, lam_2) on both groups.
    - grad-surgery: the sum of the two conflict-projected gradients per
      group, c = (1 - dot/|g1|^2, 1 - dot/|g2|^2) when dot < 0, else
      (1, 1), read from the Grams.

    The baselines ignore ``scores``; only grad-surgery reads ``grams``.
    """
    kind = cfg.kind
    chosen = alpha = None
    if kind is StrategyKind.HARD_J6 or kind is StrategyKind.HARD_JPLUS:
        s = np.asarray(scores, dtype=np.float64)
        chosen = int(s.argmax())
        if s[chosen] == 0.0 and not s.any():
            c = [[0.0, 0.0], [0.0, 0.0]]
        else:
            row = JPLUS_COMPONENTS[J6_FROM_JPLUS[chosen] if kind is StrategyKind.HARD_J6 else chosen]
            c = [[cfg.beta_aux if x is BETA_AUX else x for x in pair] for pair in row.action]
        if kind is StrategyKind.HARD_JPLUS:
            chosen += 1
    elif kind is StrategyKind.SOFT:
        alpha = soft_weights(scores, cfg)
        c = [[alpha[0], alpha[3]], [alpha[2], alpha[4]]]
    elif kind is StrategyKind.STATIC:
        c = [[1.0, 0.0], [0.0, 1.0]]
    elif kind is StrategyKind.SCALARIZED:
        c = [[*cfg.lam], [*cfg.lam]]
    else:  # per group, the sum of the two projected gradients: column sums
        c = [[r0 + r1 for r0, r1 in zip(*_projection(gram))] for gram in grams]
    return UpdateDecision(c, chosen_index=chosen, alpha=alpha)
