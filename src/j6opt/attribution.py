"""Jacobian blocks and the 6- and 15-component attribution score vectors.

The four blocks are the gradients of the two objectives with respect to
the two parameter groups, computed together from one forward pass.
Every score is a squared norm or an inner product of blocks or block
sums, so all 15 are read from three 2x2 Gram matrices: the native Grams
within the h blocks (J11, J21) and within the w blocks (J12, J22), and
the cross matrix between the groups.

An inner product between an h-shaped and a w-shaped gradient is only
directly defined when the shapes match (SINGLE_ROW / BROADCAST), so a
``pushforward`` alignment compares the logit-space changes the two
gradients induce under the model's local linearization (exact here, the
model being bilinear).  Those products have closed forms in A = H + h
and B = W with w folded in: <field_h(g), field_w(G)> = (B g) . (G a)
with a = sum_t A_t for FULL_MATRIX, with column v_star of B g under
SINGLE_ROW and its sum over v under BROADCAST.  No T x V field is built.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .model import (
    Forward,
    Perturbations,
    ProblemInstance,
    WMode,
    forward,
    logit_gradients,
    pullback,
    w_shape,
)

__all__ = [
    "AlignKind",
    "AlignScale",
    "AlignmentMode",
    "GradientSet",
    "resolve_alignment",
    "compute_gradient_set",
    "score_j6",
    "score_jplus",
    "J6_LABELS",
    "JPLUS_COMPONENTS",
    "J6_FROM_JPLUS",
]

BETA_AUX = "beta_aux"  # stands for StrategyConfig.beta_aux in an action
_Component = namedtuple("_Component", "label a b action")

# The 15 J+ components; row k is component k+1.  Each holds its label,
# the two operands of its inner product <a, b> (a squared norm when
# a == b), and its action: the coefficients ((J11, J21), (J12, J22)) of
# the step a hard route takes when it wins.  Components 10-13 pair a
# primary direction with the other group's summed direction scaled down
# by beta_aux; 14/15 act as 7/8.
JPLUS_COMPONENTS = tuple(_Component(*row) for row in (
    ("h_heat_strength", "J11", "J11", ((1.0, 0.0), (0.0, 0.0))),
    ("w_heat_strength", "J12", "J12", ((0.0, 0.0), (1.0, 0.0))),
    ("h_conf_strength", "J21", "J21", ((0.0, 1.0), (0.0, 0.0))),
    ("w_conf_strength", "J22", "J22", ((0.0, 0.0), (0.0, 1.0))),
    ("align_hheat_wconf", "J11", "J22", ((1.0, 0.0), (0.0, 1.0))),
    ("align_hconf_wheat", "J21", "J12", ((0.0, 1.0), (1.0, 0.0))),
    ("h_consistency", "J11", "J21", ((1.0, 1.0), (0.0, 0.0))),
    ("w_consistency", "J12", "J22", ((0.0, 0.0), (1.0, 1.0))),
    ("joint_alignment", "J11+J21", "J12+J22", ((1.0, 1.0), (1.0, 1.0))),
    ("hheat_vs_total_w", "J11", "J12+J22", ((1.0, 0.0), (BETA_AUX, BETA_AUX))),
    ("hconf_vs_total_w", "J21", "J12+J22", ((0.0, 1.0), (BETA_AUX, BETA_AUX))),
    ("wheat_vs_total_h", "J11+J21", "J12", ((BETA_AUX, BETA_AUX), (1.0, 0.0))),
    ("wconf_vs_total_h", "J11+J21", "J22", ((BETA_AUX, BETA_AUX), (0.0, 1.0))),
    ("h_total_strength", "J11+J21", "J11+J21", ((1.0, 1.0), (0.0, 0.0))),
    ("w_total_strength", "J12+J22", "J12+J22", ((0.0, 0.0), (1.0, 1.0))),
))

# The operands by group (0 = h, 1 = w), each in the order of ``_combos``;
# _PRODUCTS holds each component's (group, index) of a, then of b.
_OPERANDS = ("J11", "J21", "J11+J21", "J12", "J22", "J12+J22")
_PRODUCTS = tuple(divmod(_OPERANDS.index(c.a), 3) + divmod(_OPERANDS.index(c.b), 3)
                  for c in JPLUS_COMPONENTS)

# Component index of each of the 6 canonical j6 slots.  Slots 0..5 line
# up with the soft-strategy weights: alpha_0 scales the h->heat
# direction, alpha_2 w->heat, alpha_3 h->conf, alpha_4 w->conf; 1 and 5
# are the two cross-objective alignment slots.
J6_FROM_JPLUS = (0, 4, 1, 2, 3, 5)
J6_LABELS = tuple(JPLUS_COMPONENTS[k].label for k in J6_FROM_JPLUS)


class AlignKind(str, Enum):
    AUTO = "auto"  # per w_mode, see resolve_alignment
    DIRECT = "direct"
    PUSHFORWARD = "pushforward"


class AlignScale(str, Enum):
    RAW = "raw"
    COSINE = "cosine"


@dataclass(frozen=True)
class AlignmentMode:
    """How cross-shape inner products are taken and scaled."""

    kind: AlignKind = AlignKind.AUTO
    scale: AlignScale = AlignScale.RAW


def resolve_alignment(mode: AlignmentMode, w_mode: WMode) -> AlignmentMode:
    """The alignment that runs on a w_mode.  AUTO becomes pushforward for
    FULL_MATRIX (h and w shapes differ there) and direct otherwise (w is
    h-shaped in SINGLE_ROW and BROADCAST modes); direct on FULL_MATRIX
    is rejected."""
    full = WMode(w_mode) is WMode.FULL_MATRIX
    if mode.kind is AlignKind.AUTO:
        return AlignmentMode(AlignKind.PUSHFORWARD if full else AlignKind.DIRECT, mode.scale)
    if mode.kind is AlignKind.DIRECT and full:
        raise ValueError(
            "direct alignment is incompatible with full_matrix instances "
            "(h and w shapes differ); use pushforward"
        )
    return mode


@dataclass(frozen=True, eq=False)
class GradientSet:
    """The four Jacobian blocks, stacked by objective as ``pullback``
    returns them: h = (J11, J21) is (2, d) and w = (J12, J22) is
    (2,) + w_shape.  J11 = grad_h heat, J12 = grad_w heat,
    J21 = grad_h conf, J22 = grad_w conf, each a read-only view."""

    h: np.ndarray
    w: np.ndarray

    def __post_init__(self) -> None:
        for name, blocks in (("h", self.h), ("w", self.w)):
            if blocks.ndim < 2 or len(blocks) != 2:
                raise ValueError(f"{name} blocks must be stacked (2, ...) by objective")
        if not (np.isfinite(self.h).all() and np.isfinite(self.w).all()):
            raise ValueError("gradient blocks must be finite")

    J11 = property(lambda self: self.h[0])
    J12 = property(lambda self: self.w[0])
    J21 = property(lambda self: self.h[1])
    J22 = property(lambda self: self.w[1])

    @cached_property
    def grams(self) -> tuple[list[list[float]], list[list[float]]]:
        """Native 2x2 Grams of the h blocks (J11, J21) and the w blocks (J12, J22)."""
        return _gram(self.h), _gram(self.w)

    def norms(self) -> tuple[float, float, float, float]:
        """Euclidean norms (n11, n12, n21, n22), from the Gram diagonals."""
        (h11, _), (_, h22) = self.grams[0]
        (w11, _), (_, w22) = self.grams[1]
        return math.sqrt(h11), math.sqrt(w11), math.sqrt(h22), math.sqrt(w22)


def compute_gradient_set(instance: ProblemInstance, at: Perturbations | Forward) -> GradientSet:
    """All four blocks at a point: both objectives' logit-space gradients
    from one log-softmax, pulled back to h and to w in one batched
    product each.  ``at`` is the point's perturbations, or a forward
    pass already taken there."""
    fwd = at if isinstance(at, Forward) else forward(instance, at)
    return GradientSet(*pullback(instance, fwd, logit_gradients(fwd.logp, instance.y)))


def _gram(x) -> list[list[float]]:
    """2x2 Gram of the two rows of x, each flattened."""
    a, b = x
    ab = float(np.vdot(a, b))
    return [[float(np.vdot(a, a)), ab], [ab, float(np.vdot(b, b))]]


def _dots(xs, ys) -> list[list[float]]:
    """2x2 inner products x_i . y_j of flattened arrays."""
    return [[float(np.vdot(x, y)) for y in ys] for x in xs]


def _combos(m: list[list[float]]) -> list[list[float]]:
    """Products among the (first, second, first + second) operands of
    each side, from the 2x2 products of the first two."""
    (a, b), (c, d) = m
    return [[a, b, a + b], [c, d, c + d], [a + c, b + d, a + b + c + d]]


def _cos(raw: float, sq_a: float, sq_b: float) -> float:
    """raw / (|a| |b|) from squared norms; 0 when a norm is 0 (or, for a
    sum of blocks, rounds below 0)."""
    if sq_a > 0.0 and sq_b > 0.0:
        return raw / (math.sqrt(sq_a) * math.sqrt(sq_b))
    return 0.0


def _pushforward(
    gs: GradientSet, instance: ProblemInstance, fwd: Forward, with_grams: bool
) -> tuple[list[list[float]], list[list[float]] | None, list[list[float]] | None]:
    """Products of the blocks' logit-space fields, by the closed forms in
    the module docstring: the 2x2 cross matrix and, when ``with_grams``,
    the field Grams of the h and of the w blocks, T (B g_i).(B g_j) and
    sum((G_i A^T A) * G_j) (times V under BROADCAST)."""
    Bh = [fwd.B @ g for g in gs.h]
    a = fwd.A.sum(axis=0)
    if instance.w_mode is WMode.FULL_MATRIX:
        cross = _dots(Bh, [G @ a for G in gs.w])
        if instance.T == 1:
            # Symmetric in exact arithmetic (g_i^T B B^T g_j |a|^2); form
            # it so, so that equal scores tie exactly.
            cross[0][1] = cross[1][0] = (cross[0][1] + cross[1][0]) / 2
    else:
        ga = [float(g @ a) for g in gs.w]
        single = instance.w_mode is WMode.SINGLE_ROW
        col = [float(u[instance.v_star] if single else u.sum()) for u in Bh]
        cross = [[c * x for x in ga] for c in col]
    if not with_grams:
        return cross, None, None
    field_h = [[instance.T * x for x in row] for row in _gram(Bh)]
    AtA = fwd.A.T @ fwd.A
    field_w = _dots([G @ AtA for G in gs.w], gs.w)
    if instance.w_mode is WMode.BROADCAST:
        field_w = [[instance.V * x for x in row] for row in field_w]
    return cross, field_h, field_w


def score_jplus(
    gs: GradientSet,
    mode: AlignmentMode,
    instance: ProblemInstance,
    at: Perturbations | Forward,
) -> np.ndarray:
    """The 15-score vector, component k+1 at position k: the inner
    products of JPLUS_COMPONENTS.

    Every score is an entry, or a fixed sum of entries, of three 2x2
    matrices: the native Grams of (J11, J21) and of (J12, J22), and
    their cross matrix in alignment space.  Under COSINE a product of
    two different operands is divided by their norms in the space it was
    taken in (native within a group, alignment space across groups); a
    zero norm gives 0.  Squared norms are never scaled.  AUTO is
    resolved per the instance (``resolve_alignment``).  ``at`` is the
    point's perturbations, or a forward pass already taken there; only
    PUSHFORWARD reads it.
    """
    if mode.kind is AlignKind.AUTO:
        mode = resolve_alignment(mode, instance.w_mode)
    cosine = mode.scale is AlignScale.COSINE
    gram_h, gram_w = gs.grams
    if mode.kind is AlignKind.DIRECT:
        if gs.h.shape != gs.w.shape:
            raise ValueError(
                "direct alignment requires matching shapes, "
                f"got {gs.h.shape[1:]} vs {gs.w.shape[1:]}"
            )
        cross, field_h, field_w = _dots(gs.h, gs.w), gram_h, gram_w
    else:
        shapes = ((2, instance.d), (2,) + w_shape(instance.V, instance.d, instance.w_mode))
        if (gs.h.shape, gs.w.shape) != shapes:
            raise ValueError(f"pushforward alignment requires h and w shapes {shapes}")
        fwd = at if isinstance(at, Forward) else forward(instance, at)
        cross, field_h, field_w = _pushforward(gs, instance, fwd, cosine)
    products = {(0, 0): _combos(gram_h), (1, 1): _combos(gram_w), (0, 1): _combos(cross)}
    scores = [products[ga, gb][i][j] for ga, i, gb, j in _PRODUCTS]
    if cosine:
        # The two Grams whose diagonals hold the operands' squared norms.
        spaces = {(0, 0): (products[0, 0],) * 2, (1, 1): (products[1, 1],) * 2,
                  (0, 1): (_combos(field_h), _combos(field_w))}
        scores = [
            s if (ga, i) == (gb, j) else _cos(s, spaces[ga, gb][0][i][i], spaces[ga, gb][1][j][j])
            for s, (ga, i, gb, j) in zip(scores, _PRODUCTS)
        ]
    return np.array(scores)


def score_j6(
    gs: GradientSet,
    mode: AlignmentMode,
    instance: ProblemInstance,
    at: Perturbations | Forward,
) -> np.ndarray:
    """The 6-score vector in canonical slot order (see J6_LABELS): four
    native squared norms and the two cross-objective alignment slots,
    i.e. the components of ``score_jplus`` at J6_FROM_JPLUS."""
    return score_jplus(gs, mode, instance, at)[list(J6_FROM_JPLUS)]
