"""Update strategies: hard routing, soft weighting, and three baselines.

Every strategy only chooses a 2x2 coefficient matrix ``c`` (``decide``,
for K configurations at once: a (K, 2, 2) stack); ``optimizer.run``
takes the step

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
    "decide",
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


def _contrast(weights: np.ndarray, gammas: list[float]) -> np.ndarray:
    """Competitive contrast step, row k with gammas[k]: raise each weight
    to gamma, then renormalize (e.g. gamma=2 maps (0.5, 0.3, 0.1, 0.1) to
    the squares (0.25, 0.09, 0.01, 0.01) before the final division by
    their sum).

    The rows that share a gamma are raised with that one number as the
    exponent, never with a stacked (K, 1) exponent: numpy takes x*x for
    a scalar 2.0 but pow for an array, which rounds differently, so a
    row would not be bit for bit the same in a batch as alone."""
    groups: dict[float, list[int]] = {}
    for k, gamma in enumerate(gammas):
        groups.setdefault(gamma, []).append(k)
    if len(groups) == 1:
        powered = weights ** gammas[0]
    else:
        powered = np.empty_like(weights)
        for gamma, rows in groups.items():
            powered[rows] = weights[rows] ** gamma
    return powered / powered.sum(axis=1, keepdims=True)


def _soft_weights(s: np.ndarray, cfgs: list[StrategyConfig]) -> np.ndarray:
    """Temperature softmax over each row of scores (K, n), then the
    contrast exponent, row k with cfgs[k]'s knobs.

    alpha~_i = softmax(s / tau)_i, alpha_i = alpha~_i^gamma normalized.
    MAXABS pre-normalization divides the scores by max|s| + 1e-12 first,
    making tau scale-free across instances.  The contrast step gets the
    unnormalized exp((s - max s) / tau), whose largest entry is exactly
    1, so no tau or gamma can underflow every weight to 0 (NaN).
    """
    s = np.asarray(s, dtype=np.float64)
    maxabs = [cfg.pre_norm is PreNorm.MAXABS for cfg in cfgs]
    if any(maxabs):
        s = np.where(np.array(maxabs)[:, None],
                     s / (np.abs(s).max(axis=1, keepdims=True) + 1e-12), s)
    tau = np.array([[cfg.tau] for cfg in cfgs], dtype=np.float64)
    with np.errstate(over="ignore"):
        return _contrast(np.exp((s - s.max(axis=1, keepdims=True)) / tau),
                         [cfg.gamma for cfg in cfgs])


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
    jplus: np.ndarray, j6: np.ndarray, grams: np.ndarray, cfgs: list[StrategyConfig]
) -> tuple[np.ndarray, list[int | None], list[np.ndarray | None]]:
    """The (K, 2, 2) coefficient tensor c of K strategies (see the module
    docstring), slice k from cfgs[k] and the k-th rows of the scores,
    ``jplus`` (K, 15) and ``j6`` (K, 6), and of ``grams`` (K, 2, 2, 2),
    the native Grams of (J11, J21) and of (J12, J22).  Also each
    strategy's chosen index and soft weights, None where it has none.
    Slices never mix; the soft weights of all soft strategies are taken
    together.

    - hard-j6 / hard-jplus: the action of the argmax score's row of
      JPLUS_COMPONENTS, read through J6_FROM_JPLUS for j6 (ties break
      to the lowest index; all scores zero gives a zero step).
      The chosen index is 0-based for j6 and 1-based for j+, matching
      the slot and component numbering.
    - soft: c = ((alpha_0, alpha_3), (alpha_2, alpha_4)) with alpha the
      soft weights of the j6 scores; the alignment weights alpha_1,
      alpha_5 drive no direction.
    - static: fixed roles, h chases heat and w confidence (identity).
    - scalarized: the fixed blend (lam_1, lam_2) on both groups.
    - grad-surgery: the sum of the two conflict-projected gradients per
      group, c = (1 - dot/|g1|^2, 1 - dot/|g2|^2) when dot < 0, else
      (1, 1), read from the Grams.

    The baselines ignore the scores; only grad-surgery reads ``grams``.
    """
    c: list = [None] * len(cfgs)
    chosen: list[int | None] = [None] * len(cfgs)
    alpha: list[np.ndarray | None] = [None] * len(cfgs)
    soft = [k for k, cfg in enumerate(cfgs) if cfg.kind is StrategyKind.SOFT]
    if soft:
        rows = np.asarray(j6, dtype=np.float64)
        weights = _soft_weights(rows if len(soft) == len(rows) else rows[soft],
                                [cfgs[k] for k in soft])
        for k, a, (a0, a3, a2, a4) in zip(soft, weights, weights[:, [0, 3, 2, 4]].tolist()):
            alpha[k] = a
            c[k] = [[a0, a3], [a2, a4]]
    for k, cfg in enumerate(cfgs):
        kind = cfg.kind
        if kind is StrategyKind.HARD_J6 or kind is StrategyKind.HARD_JPLUS:
            jp = kind is StrategyKind.HARD_JPLUS
            s = (jplus if jp else j6)[k]
            best = int(s.argmax())
            if s[best] == 0.0 and not s.any():
                c[k] = [[0.0, 0.0], [0.0, 0.0]]
            else:
                row = JPLUS_COMPONENTS[best if jp else J6_FROM_JPLUS[best]]
                c[k] = [[cfg.beta_aux if x is BETA_AUX else x for x in pair] for pair in row.action]
            chosen[k] = best + jp
        elif kind is StrategyKind.STATIC:
            c[k] = [[1.0, 0.0], [0.0, 1.0]]
        elif kind is StrategyKind.SCALARIZED:
            c[k] = [[*cfg.lam], [*cfg.lam]]
        elif kind is StrategyKind.GRAD_SURGERY:  # per group, the sum of the two projected gradients
            c[k] = [[r0 + r1 for r0, r1 in zip(*_projection(gram))] for gram in grams[k].tolist()]
    return np.array(c, dtype=np.float64), chosen, alpha
