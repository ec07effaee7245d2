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
    "JPLUS_LABELS",
    "J6_FROM_JPLUS",
]

# Canonical slot order of the 6-score vector.  Slots 0..5 line up with the
# soft-strategy weights: alpha_0 scales the h->heat direction, alpha_2 the
# w->heat direction, alpha_3 h->conf, alpha_4 w->conf; 1 and 5 are the two
# cross-objective alignment slots.
J6_LABELS = (
    "h_heat_strength",    # ||J11||^2
    "align_hheat_wconf",  # <J11, J22>
    "w_heat_strength",    # ||J12||^2
    "h_conf_strength",    # ||J21||^2
    "w_conf_strength",    # ||J22||^2
    "align_hconf_wheat",  # <J21, J12>
)

# 1-based action-table order of the 15-score vector (position i holds
# component i+1).
JPLUS_LABELS = (
    "h_heat_strength",     # 1:  ||J11||^2
    "w_heat_strength",     # 2:  ||J12||^2
    "h_conf_strength",     # 3:  ||J21||^2
    "w_conf_strength",     # 4:  ||J22||^2
    "align_hheat_wconf",   # 5:  <J11, J22>
    "align_hconf_wheat",   # 6:  <J21, J12>
    "h_consistency",       # 7:  <J11, J21>
    "w_consistency",       # 8:  <J12, J22>
    "joint_alignment",     # 9:  <J11+J21, J12+J22>
    "hheat_vs_total_w",    # 10: <J11, J12+J22>
    "hconf_vs_total_w",    # 11: <J21, J12+J22>
    "wheat_vs_total_h",    # 12: <J11+J21, J12>
    "wconf_vs_total_h",    # 13: <J11+J21, J22>
    "h_total_strength",    # 14: ||J11+J21||^2
    "w_total_strength",    # 15: ||J12+J22||^2
)

# Position in the 15-score vector (and in the action table) of each of
# the 6 canonical slots: slot k is component J6_FROM_JPLUS[k] + 1.
J6_FROM_JPLUS = (0, 4, 1, 2, 3, 5)


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
    """The four Jacobian blocks at the current point.

    J11 = grad_h heat, J12 = grad_w heat, J21 = grad_h conf,
    J22 = grad_w conf.  J11/J21 share the h shape, J12/J22 the w shape.
    """

    J11: np.ndarray
    J12: np.ndarray
    J21: np.ndarray
    J22: np.ndarray

    def __post_init__(self) -> None:
        if self.J11.shape != self.J21.shape:
            raise ValueError("J11 and J21 must share the h shape")
        if self.J12.shape != self.J22.shape:
            raise ValueError("J12 and J22 must share the w shape")
        for block in (self.J11, self.J12, self.J21, self.J22):
            if not np.isfinite(block).all():
                raise ValueError("gradient blocks must be finite")

    @cached_property
    def grams(self) -> tuple[list[list[float]], list[list[float]]]:
        """Native 2x2 Grams of the h blocks (J11, J21) and the w blocks (J12, J22)."""
        h, w = (self.J11, self.J21), (self.J12, self.J22)
        return _dots(h, h), _dots(w, w)

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
    grad_h, grad_w = pullback(instance, fwd, logit_gradients(fwd.logp, instance.y))
    return GradientSet(J11=grad_h[0], J12=grad_w[0], J21=grad_h[1], J22=grad_w[1])


def _dots(xs: tuple[np.ndarray, ...], ys: tuple[np.ndarray, ...]) -> list[list[float]]:
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
    h: tuple[np.ndarray, ...],
    w: tuple[np.ndarray, ...],
    instance: ProblemInstance,
    fwd: Forward,
    with_grams: bool,
) -> tuple[list[list[float]], list[list[float]] | None, list[list[float]] | None]:
    """Products of the blocks' logit-space fields, by the closed forms in
    the module docstring: the 2x2 cross matrix and, when ``with_grams``,
    the field Grams of the h and of the w blocks, T (B g_i).(B g_j) and
    sum((G_i A^T A) * G_j) (times V under BROADCAST)."""
    Bh = [fwd.B @ g for g in h]
    a = fwd.A.sum(axis=0)
    if instance.w_mode is WMode.FULL_MATRIX:
        cross = _dots(Bh, [G @ a for G in w])
        if instance.T == 1:
            # Symmetric in exact arithmetic (g_i^T B B^T g_j |a|^2); form
            # it so, so that equal scores tie exactly.
            cross[0][1] = cross[1][0] = (cross[0][1] + cross[1][0]) / 2
    else:
        ga = [float(g @ a) for g in w]
        single = instance.w_mode is WMode.SINGLE_ROW
        col = [float(u[instance.v_star] if single else u.sum()) for u in Bh]
        cross = [[c * x for x in ga] for c in col]
    if not with_grams:
        return cross, None, None
    field_h = [[instance.T * x for x in row] for row in _dots(Bh, Bh)]
    AtA = fwd.A.T @ fwd.A
    field_w = _dots([G @ AtA for G in w], w)
    if instance.w_mode is WMode.BROADCAST:
        field_w = [[instance.V * x for x in row] for row in field_w]
    return cross, field_h, field_w


def score_jplus(
    gs: GradientSet,
    mode: AlignmentMode,
    instance: ProblemInstance,
    at: Perturbations | Forward,
) -> np.ndarray:
    """The 15-score vector in action-table order (see JPLUS_LABELS).

    Every score is an entry, or a fixed sum of entries, of three 2x2
    matrices: the native Grams of (J11, J21) and of (J12, J22), and
    their cross matrix in alignment space.  Squared norms (1-4, 14, 15)
    are always native and never scaled.  Under COSINE the consistency
    products (7, 8) divide by native norms and the cross products
    (5, 6, 9-13) by the operand norms in alignment space; a zero norm
    gives 0.  AUTO is resolved per the instance (``resolve_alignment``).
    ``at`` is the point's perturbations, or a forward pass already taken
    there; only PUSHFORWARD reads it.
    """
    if mode.kind is AlignKind.AUTO:
        mode = resolve_alignment(mode, instance.w_mode)
    h, w = (gs.J11, gs.J21), (gs.J12, gs.J22)
    cosine = mode.scale is AlignScale.COSINE
    gram_h, gram_w = gs.grams
    if mode.kind is AlignKind.DIRECT:
        if gs.J11.shape != gs.J12.shape:
            raise ValueError(
                "direct alignment requires matching shapes, "
                f"got {gs.J11.shape} vs {gs.J12.shape}"
            )
        cross, field_h, field_w = _dots(h, w), gram_h, gram_w
    else:
        shapes = ((instance.d,), w_shape(instance.V, instance.d, instance.w_mode))
        if (gs.J11.shape, gs.J12.shape) != shapes:
            raise ValueError(f"pushforward alignment requires h and w shapes {shapes}")
        fwd = at if isinstance(at, Forward) else forward(instance, at)
        cross, field_h, field_w = _pushforward(h, w, instance, fwd, cosine)
    nh, nw, x = _combos(gram_h), _combos(gram_w), _combos(cross)
    consistency_h, consistency_w = gram_h[0][1], gram_w[0][1]
    if cosine:
        consistency_h = _cos(consistency_h, gram_h[0][0], gram_h[1][1])
        consistency_w = _cos(consistency_w, gram_w[0][0], gram_w[1][1])
        sq_h = [row[i] for i, row in enumerate(_combos(field_h))]
        sq_w = [row[i] for i, row in enumerate(_combos(field_w))]
        x = [[_cos(x[i][j], sq_h[i], sq_w[j]) for j in range(3)] for i in range(3)]
    return np.array([
        nh[0][0], nw[0][0], nh[1][1], nw[1][1],
        x[0][1], x[1][0], consistency_h, consistency_w,
        x[2][2], x[0][2], x[1][2], x[2][0], x[2][1],
        nh[2][2], nw[2][2],
    ])


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
