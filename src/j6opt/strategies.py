"""Update strategies: hard routing, soft weighting, and three baselines.

Every strategy chooses a 2x2 coefficient matrix ``c`` and takes the step

    delta_h = -eta_h (c[0][0] J11 + c[0][1] J21)
    delta_w = -eta_w (c[1][0] J12 + c[1][1] J22)

so they differ only in how ``c`` is picked (see ``decide``).  All
coefficients are non-negative, so every update is descent-shaped.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import numpy as np

from .attribution import J6_FROM_JPLUS, AlignmentMode, GradientSet

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

    alignment=None means: pick per instance (pushforward for FULL_MATRIX,
    direct otherwise).
    """

    kind: StrategyKind
    tau: float = 1.0
    gamma: float = 2.0
    eta_h: float = 0.01
    eta_w: float = 0.01
    beta_aux: float = 0.5
    lam: tuple[float, float] = (0.5, 0.5)
    pre_norm: PreNorm = PreNorm.NONE
    alignment: AlignmentMode | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", StrategyKind(self.kind))
        object.__setattr__(self, "pre_norm", PreNorm(self.pre_norm))
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.gamma <= 1:
            raise ValueError("gamma must exceed 1")
        if self.eta_h <= 0 or self.eta_w <= 0:
            raise ValueError("learning rates must be positive")
        if not 0.0 <= self.beta_aux <= 1.0:
            raise ValueError("beta_aux must lie in [0, 1]")
        lam = (float(self.lam[0]), float(self.lam[1]))
        if min(lam) < 0 or abs(sum(lam) - 1.0) > 1e-9:
            raise ValueError("lam must be a non-negative pair summing to 1")
        object.__setattr__(self, "lam", lam)


@dataclass(eq=False)
class UpdateDecision:
    """A proposed step plus the attribution that produced it."""

    delta_h: np.ndarray
    delta_w: np.ndarray
    chosen_index: int | None = None
    alpha: np.ndarray | None = None


_BETA = "beta_aux"  # stands for cfg.beta_aux in the action table

# The 15 j+ actions in component order, as coefficient matrices
# ((J11, J21), (J12, J22)).  Components 10-13 pair a primary direction
# with the other group's summed direction scaled down by beta_aux; 14/15
# duplicate 7/8.  The six j6 actions are the rows at J6_FROM_JPLUS:
# slot 0 h along -J11, 1 the coupled pair (-J11, -J22), 2 w along -J12,
# 3 h along -J21, 4 w along -J22, 5 the coupled pair (-J21, -J12).
_JPLUS_ACTIONS = (
    ((1.0, 0.0), (0.0, 0.0)),      # 1: h -> heat
    ((0.0, 0.0), (1.0, 0.0)),      # 2: w -> heat
    ((0.0, 1.0), (0.0, 0.0)),      # 3: h -> conf
    ((0.0, 0.0), (0.0, 1.0)),      # 4: w -> conf
    ((1.0, 0.0), (0.0, 1.0)),      # 5: h -> heat, w -> conf
    ((0.0, 1.0), (1.0, 0.0)),      # 6: h -> conf, w -> heat
    ((1.0, 1.0), (0.0, 0.0)),      # 7: h -> both
    ((0.0, 0.0), (1.0, 1.0)),      # 8: w -> both
    ((1.0, 1.0), (1.0, 1.0)),      # 9: both -> both
    ((1.0, 0.0), (_BETA, _BETA)),  # 10
    ((0.0, 1.0), (_BETA, _BETA)),  # 11
    ((_BETA, _BETA), (1.0, 0.0)),  # 12
    ((_BETA, _BETA), (0.0, 1.0)),  # 13
    ((1.0, 1.0), (0.0, 0.0)),      # 14 = 7
    ((0.0, 0.0), (1.0, 1.0)),      # 15 = 8
)

_ZERO = ((0.0, 0.0), (0.0, 0.0))


def contrast_weights(alpha_tilde: np.ndarray, gamma: float, normalize: bool = True) -> np.ndarray:
    """Competitive contrast step: raise each weight to gamma, then
    renormalize (e.g. gamma=2 maps (0.5, 0.3, 0.1, 0.1) to the squares
    (0.25, 0.09, 0.01, 0.01) before the final division by their sum)."""
    powered = np.asarray(alpha_tilde, dtype=np.float64) ** gamma
    if not normalize:
        return powered
    return powered / powered.sum()


def soft_weights(s: np.ndarray, cfg: StrategyConfig) -> np.ndarray:
    """Temperature softmax over the scores, then the contrast exponent.

    alpha~_i = softmax(s / tau)_i, alpha_i = alpha~_i^gamma normalized.
    MAXABS pre-normalization divides the scores by max|s| + 1e-12 first,
    making tau scale-free across instances.
    """
    s = np.asarray(s, dtype=np.float64)
    if cfg.pre_norm is PreNorm.MAXABS:
        s = s / (np.abs(s).max() + 1e-12)
    t = s / cfg.tau
    e = np.exp(t - t.max())
    return contrast_weights(e / e.sum(), cfg.gamma)


def _projection(gram: list[list[float]]) -> tuple[tuple[float, float], tuple[float, float]]:
    """Mutual conflict projection of two same-shape gradients (g1, g2),
    from their 2x2 Gram: row i gives the projected g_i as a combination
    of (g1, g2).  Each is projected off the *original* other one, only
    when their inner product is negative (which implies both norms are
    nonzero, so the divisions are safe)."""
    (n1, dot), (_, n2) = gram
    if dot >= 0.0:
        return (1.0, 0.0), (0.0, 1.0)
    return (1.0, -dot / n2), (-dot / n1, 1.0)


def decide(scores: np.ndarray, gs: GradientSet, cfg: StrategyConfig) -> UpdateDecision:
    """One step of the strategy ``cfg.kind``: its coefficient matrix c
    applied to the blocks (see the module docstring).

    - hard-j6 / hard-jplus: the action of the argmax score (ties break
      to the lowest index; all scores zero gives a zero step).
      ``chosen_index`` is 0-based for j6 and 1-based for j+, matching
      the slot and action-table numbering.
    - soft: c = ((alpha_0, alpha_3), (alpha_2, alpha_4)) with alpha the
      soft weights; the alignment weights alpha_1, alpha_5 drive no
      direction.
    - static: fixed roles, h chases heat and w confidence (identity).
    - scalarized: the fixed blend (lam_1, lam_2) on both groups.
    - grad-surgery: the sum of the two conflict-projected gradients per
      group, c = (1 - dot/|g1|^2, 1 - dot/|g2|^2) when dot < 0, else
      (1, 1), read from the cached Grams.

    The baselines ignore ``scores``.
    """
    kind = cfg.kind
    chosen = alpha = None
    if kind is StrategyKind.HARD_J6 or kind is StrategyKind.HARD_JPLUS:
        s = np.asarray(scores, dtype=np.float64)
        chosen = int(s.argmax())
        if s[chosen] == 0.0 and not s.any():
            c = _ZERO
        else:
            row = J6_FROM_JPLUS[chosen] if kind is StrategyKind.HARD_J6 else chosen
            c = [[cfg.beta_aux if x is _BETA else x for x in pair] for pair in _JPLUS_ACTIONS[row]]
        if kind is StrategyKind.HARD_JPLUS:
            chosen += 1
    elif kind is StrategyKind.SOFT:
        alpha = soft_weights(scores, cfg)
        c = ((alpha[0], alpha[3]), (alpha[2], alpha[4]))
    elif kind is StrategyKind.STATIC:
        c = ((1.0, 0.0), (0.0, 1.0))
    elif kind is StrategyKind.SCALARIZED:
        c = (cfg.lam, cfg.lam)
    else:  # per group, the sum of the two projected gradients: column sums
        c = [[r0 + r1 for r0, r1 in zip(*_projection(gram))] for gram in gs.grams]
    delta_h = -cfg.eta_h * (c[0][0] * gs.J11 + c[0][1] * gs.J21)
    delta_w = -cfg.eta_w * (c[1][0] * gs.J12 + c[1][1] * gs.J22)
    return UpdateDecision(delta_h, delta_w, chosen_index=chosen, alpha=alpha)
