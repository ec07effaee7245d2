"""Update strategies: hard routing, soft weighting, and three baselines.

Every strategy only chooses a 2x2 coefficient matrix ``c`` (``decide``,
for K configurations at once: a (K, 2, 2) stack); ``optimizer.run``
takes the step

    delta_h = -eta_h (c[0][0] J11 + c[0][1] J21)
    delta_w = -eta_w (c[1][0] J12 + c[1][1] J22)

so strategies differ only in how ``c`` is picked and never touch a
block.  All coefficients are non-negative, so every update is
descent-shaped.

``decide`` reads K configurations through their plan (``_Rules``),
compiled once, so a step only reads its scores and Grams: c starts as a
copy of the fixed rows and the rows of each kind are filled by array
assignment.
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
        try:
            lam0, lam1 = self.lam
        except (TypeError, ValueError):
            raise ValueError(f"'lam' must be a pair of numbers, got {self.lam!r}") from None
        lam = (require_float("lam[0]", lam0), require_float("lam[1]", lam1))
        if min(lam) < 0 or abs(sum(lam) - 1.0) > 1e-9:
            raise ValueError("lam must be a non-negative pair summing to 1")
        object.__setattr__(self, "lam", lam)


# Each J+ component's action as numbers, nan where it holds BETA_AUX;
# row k of _J6_ACTIONS is j6 slot k's action.
_ACTIONS = np.array([[[np.nan if x is BETA_AUX else x for x in pair] for pair in c.action]
                     for c in JPLUS_COMPONENTS])
_J6_ACTIONS = _ACTIONS[list(J6_FROM_JPLUS)]
# The j6 slots of a soft c: ((alpha_0, alpha_3), (alpha_2, alpha_4))
_SOFT_C = np.array([[0, 3], [2, 4]])


class _Rules:
    """The plan of K configurations: everything ``decide`` needs of them,
    compiled once, so that a step only reads its scores and Grams.

    - ``c``: the fixed rows of c (static, scalarized; zero elsewhere),
      which every decision starts from a copy of;
    - ``soft_rows``: the soft rows, and ``soft`` the index that picks
      them from an array (a slice when they are contiguous: a view, not
      a gather), with their tau column, MAXABS mask (None when no row
      has one) and ``gammas``, the (gamma, rows) groups of equal
      contrast exponent (``_contrast``);
    - ``hard``: per hard row, (row, whether it reads the 15 J+ scores
      rather than the 6 j6 slots, its action table (15 or 6, 2, 2) with
      its beta_aux in place);
    - ``surgery``: the grad-surgery rows;
    - ``reads_jplus``: whether each row reads (and traces) the J+ scores.
    """

    def __init__(self, cfgs: list[StrategyConfig]):
        self.cfgs = cfgs
        kinds = [cfg.kind for cfg in cfgs]
        rows = {kind: [k for k, x in enumerate(kinds) if x is kind] for kind in StrategyKind}
        self.c = np.zeros((len(cfgs), 2, 2))
        self.c[rows[StrategyKind.STATIC]] = np.eye(2)
        for k in rows[StrategyKind.SCALARIZED]:
            self.c[k] = cfgs[k].lam
        soft = self.soft_rows = rows[StrategyKind.SOFT]
        contiguous = soft and soft[-1] - soft[0] == len(soft) - 1
        self.soft = slice(soft[0], soft[-1] + 1) if contiguous else soft
        self.tau = np.array([[cfgs[k].tau] for k in soft], dtype=np.float64)
        maxabs = np.array([[cfgs[k].pre_norm is PreNorm.MAXABS] for k in soft], dtype=bool)
        self.maxabs = maxabs if maxabs.any() else None
        groups: dict[float, list[int]] = {}
        for i, k in enumerate(soft):
            groups.setdefault(cfgs[k].gamma, []).append(i)
        self.gammas = list(groups.items())
        self.hard = [(k, kinds[k] is StrategyKind.HARD_JPLUS,
                      np.where(np.isnan(actions), cfgs[k].beta_aux, actions))
                     for kind, actions in ((StrategyKind.HARD_J6, _J6_ACTIONS),
                                           (StrategyKind.HARD_JPLUS, _ACTIONS))
                     for k in rows[kind]]
        self.surgery = rows[StrategyKind.GRAD_SURGERY]
        self.reads_jplus = [kind is StrategyKind.HARD_JPLUS for kind in kinds]

    def soft_weights(self, j6: np.ndarray) -> np.ndarray:
        """The soft weights of the soft rows' j6 scores, from the scores
        of all K rows: a temperature softmax over each row, then the
        contrast exponent, row by row with its configuration's knobs.

        alpha~_i = softmax(s / tau)_i, alpha_i = alpha~_i^gamma normalized.
        MAXABS pre-normalization divides the scores by max|s| + 1e-12
        first, making tau scale-free across instances.  The contrast step
        gets the unnormalized exp((s - max s) / tau), whose largest entry
        is exactly 1, so no tau or gamma can underflow every weight to 0
        (NaN).
        """
        s = j6[self.soft]
        if self.maxabs is not None:
            s = np.where(self.maxabs,
                         s / (np.maximum.reduce(np.abs(s), axis=1, keepdims=True) + 1e-12), s)
        with np.errstate(over="ignore"):
            return _contrast(np.exp((s - np.maximum.reduce(s, axis=1, keepdims=True)) / self.tau),
                             self.gammas)


def _contrast(weights: np.ndarray, gammas: list[tuple[float, list[int]]]) -> np.ndarray:
    """Competitive contrast step over the rows of ``weights``, each group
    (gamma, rows) of ``gammas`` with its gamma: raise each weight to
    gamma, then renormalize (e.g. gamma=2 maps (0.5, 0.3, 0.1, 0.1) to
    the squares (0.25, 0.09, 0.01, 0.01) before the final division by
    their sum).

    The rows that share a gamma are raised with that one number as the
    exponent, never with a stacked (K, 1) exponent: numpy takes x*x for
    a scalar 2.0 but pow for an array, which rounds differently, so a
    row would not be bit for bit the same in a batch as alone."""
    if len(gammas) == 1:
        powered = weights ** gammas[0][0]
    else:
        powered = np.empty_like(weights)
        for gamma, rows in gammas:
            powered[rows] = weights[rows] ** gamma
    return powered / np.add.reduce(powered, axis=1, keepdims=True)


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
    jplus: np.ndarray, j6: np.ndarray, grams: np.ndarray, cfgs: _Rules | list[StrategyConfig]
) -> tuple[np.ndarray, list[int | None], list[np.ndarray | None]]:
    """The (K, 2, 2) coefficient tensor c of K strategies (see the module
    docstring), slice k from configuration k and the k-th rows of the
    scores, ``jplus`` (K, 15) and ``j6`` (K, 6), and of ``grams``
    (K, 2, 2, 2), the native Grams of (J11, J21) and of (J12, J22).
    Also each strategy's chosen index and soft weights, None where it
    has none.  ``cfgs`` is a list of configurations or their plan
    (``_Rules``).  The soft weights of all soft strategies are taken
    together, under the batching rule of ``optimizer``.

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
    rules = cfgs if isinstance(cfgs, _Rules) else _Rules(list(cfgs))
    K = len(rules.cfgs)
    c = rules.c.copy()
    chosen: list[int | None] = [None] * K
    alpha: list[np.ndarray | None] = [None] * K
    if rules.soft_rows:
        weights = rules.soft_weights(np.asarray(j6, dtype=np.float64))
        c[rules.soft] = weights[:, _SOFT_C]
        for k, a in zip(rules.soft_rows, weights):
            alpha[k] = a
    for k, jp, actions in rules.hard:  # all scores zero leaves the zero row
        s = (jplus if jp else j6)[k]
        best = int(s.argmax())
        if s[best] != 0.0 or s.any():
            c[k] = actions[best]
        chosen[k] = best + jp
    for k in rules.surgery:  # per group, the sum of the two projected gradients
        c[k] = [[r0 + r1 for r0, r1 in zip(*_projection(gram))] for gram in grams[k].tolist()]
    return c, chosen, alpha
