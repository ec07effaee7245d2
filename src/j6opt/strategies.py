"""Update strategies: hard routing, soft weighting, and three baselines.

Every strategy turns the current gradient blocks (plus, for the routed
strategies, an attribution score vector) into a proposed (delta_h,
delta_w) pair.  All updates are descent-shaped: -eta times a
non-negative combination of the four blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import numpy as np

from .attribution import AlignmentMode, GradientSet

__all__ = [
    "StrategyKind",
    "PreNorm",
    "StrategyConfig",
    "UpdateDecision",
    "hard_route_j6",
    "hard_route_jplus",
    "contrast_weights",
    "soft_weights",
    "soft_update",
    "static_baseline",
    "scalarized_baseline",
    "project_conflicts",
    "gradsurgery_baseline",
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


def _deltas(
    gs: GradientSet,
    cfg: StrategyConfig,
    h_dir: np.ndarray | None,
    w_dir: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    dh = -cfg.eta_h * h_dir if h_dir is not None else np.zeros_like(gs.J11)
    dw = -cfg.eta_w * w_dir if w_dir is not None else np.zeros_like(gs.J12)
    return dh, dw


def hard_route_j6(s: np.ndarray, gs: GradientSet, cfg: StrategyConfig) -> UpdateDecision:
    """Argmax over the 6 slots (ties break to the lowest index).

    Slot actions: 0 -> step h along -J11; 1 -> the coupled pair (-J11,
    -J22); 2 -> w along -J12; 3 -> h along -J21; 4 -> w along -J22;
    5 -> the coupled pair (-J21, -J12).
    """
    s = np.asarray(s, dtype=np.float64)
    idx = int(np.argmax(s))
    if np.all(s == 0.0):
        dh, dw = _deltas(gs, cfg, None, None)
        return UpdateDecision(dh, dw, chosen_index=idx)
    actions: dict[int, tuple[np.ndarray | None, np.ndarray | None]] = {
        0: (gs.J11, None),
        1: (gs.J11, gs.J22),
        2: (None, gs.J12),
        3: (gs.J21, None),
        4: (None, gs.J22),
        5: (gs.J21, gs.J12),
    }
    dh, dw = _deltas(gs, cfg, *actions[idx])
    return UpdateDecision(dh, dw, chosen_index=idx)


def hard_route_jplus(s: np.ndarray, gs: GradientSet, cfg: StrategyConfig) -> UpdateDecision:
    """Argmax over the 15 components; chosen_index is 1-based to match
    the action-table numbering.

    Components 10-13 pair a primary direction with the other group's
    summed direction scaled down by beta_aux.  14/15 duplicate 7/8 by
    construction and share their actions.
    """
    s = np.asarray(s, dtype=np.float64)
    idx = int(np.argmax(s)) + 1
    if np.all(s == 0.0):
        dh, dw = _deltas(gs, cfg, None, None)
        return UpdateDecision(dh, dw, chosen_index=idx)
    sum_h = gs.J11 + gs.J21
    sum_w = gs.J12 + gs.J22
    beta = cfg.beta_aux
    actions: dict[int, tuple[np.ndarray | None, np.ndarray | None]] = {
        1: (gs.J11, None),
        2: (None, gs.J12),
        3: (gs.J21, None),
        4: (None, gs.J22),
        5: (gs.J11, gs.J22),
        6: (gs.J21, gs.J12),
        7: (sum_h, None),
        8: (None, sum_w),
        9: (sum_h, sum_w),
        10: (gs.J11, beta * sum_w),
        11: (gs.J21, beta * sum_w),
        12: (beta * sum_h, gs.J12),
        13: (beta * sum_h, gs.J22),
        14: (sum_h, None),
        15: (None, sum_w),
    }
    dh, dw = _deltas(gs, cfg, *actions[idx])
    return UpdateDecision(dh, dw, chosen_index=idx)


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


def soft_update(alpha: np.ndarray, gs: GradientSet, cfg: StrategyConfig) -> UpdateDecision:
    """Blend the four blocks with the slot weights.

    delta_h = -eta_h (alpha_0 J11 + alpha_3 J21); delta_w = -eta_w
    (alpha_2 J12 + alpha_4 J22).  The alignment weights alpha_1 and
    alpha_5 drive no direction.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    dh = -cfg.eta_h * (alpha[0] * gs.J11 + alpha[3] * gs.J21)
    dw = -cfg.eta_w * (alpha[2] * gs.J12 + alpha[4] * gs.J22)
    return UpdateDecision(dh, dw, alpha=alpha)


def static_baseline(gs: GradientSet, cfg: StrategyConfig) -> UpdateDecision:
    """Fixed roles: h always chases heat, w always chases confidence."""
    dh, dw = _deltas(gs, cfg, gs.J11, gs.J22)
    return UpdateDecision(dh, dw)


def scalarized_baseline(gs: GradientSet, cfg: StrategyConfig) -> UpdateDecision:
    """Fixed-weight blend of the two objectives on both groups."""
    l1, l2 = cfg.lam
    dh, dw = _deltas(gs, cfg, l1 * gs.J11 + l2 * gs.J21, l1 * gs.J12 + l2 * gs.J22)
    return UpdateDecision(dh, dw)


def project_conflicts(g1: np.ndarray, g2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mutual conflict projection of two same-shape gradients.

    Each gradient is projected off the *original* other one, only when
    their inner product is negative (which implies both norms are
    nonzero, so the divisions are safe)."""
    f1, f2 = g1.ravel(), g2.ravel()
    dot = float(f1 @ f2)
    if dot >= 0.0:
        return g1, g2
    g1p = g1 - (dot / float(f2 @ f2)) * g2
    g2p = g2 - (dot / float(f1 @ f1)) * g1
    return g1p, g2p


def gradsurgery_baseline(gs: GradientSet, cfg: StrategyConfig) -> UpdateDecision:
    """Conflict-projected descent, applied per parameter group."""
    h1, h2 = project_conflicts(gs.J11, gs.J21)
    w1, w2 = project_conflicts(gs.J12, gs.J22)
    return UpdateDecision(-cfg.eta_h * (h1 + h2), -cfg.eta_w * (w1 + w2))
