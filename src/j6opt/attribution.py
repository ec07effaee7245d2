"""Jacobian blocks and the 6- and 15-component attribution score vectors.

The four blocks are the gradients of the two objectives with respect to
the two parameter groups.  Every score is a squared norm or an inner
product of blocks or block sums, so all 15 are read from three 2x2
matrices: the native Grams of the h blocks (J11, J21) and of the w
blocks (J12, J22), and the cross matrix between the groups.

None of them needs the w blocks.  With g_i the (T, V) logit-space
gradient of objective i, A = H + h and B = W with w folded in, the w
block is J_i2 = r_i^T A / T with r_i = w_columns(g_i), so with the
T x T matrix K = A A^T and a = sum_t A_t

    <J_i2, J_j2> = <r_i, K r_j> / T^2  (the per-example gradient-norm identity)
    J_j2 a = sum_t (K r_j)_t / T

An inner product between an h-shaped and a w-shaped gradient is only
directly defined when the shapes match (SINGLE_ROW / BROADCAST), so a
``pushforward`` alignment compares the logit-space changes the two
gradients induce (exact here, the model being bilinear): J_i1 moves
every logit row by B J_i1 and J_j2 moves the columns w_columns picks by
K r_j / T.  So the cross product is w_columns(B J_i1) . (J_j2 a), and
the field Grams are T (B J_i1).(B J_j1) and <K r_i, K r_j> / T^2 (times
V under BROADCAST, where every column moves).  No T x V field is built,
and the w blocks only on request (``GradientSet.w``): under direct
alignment, where they are d-vectors.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
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
    w_columns,
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
            "direct alignment requires matching shapes, and h and w shapes "
            "differ on full_matrix instances; use pushforward"
        )
    return mode


@dataclass(eq=False)
class GradientSet:
    """The gradient blocks at one point, the w side kept in logit space.

    ``g`` holds both objectives' logit-space gradients (2, T, V), heat
    first, ``h`` the h blocks (J11, J21) as (2, d), and ``fwd`` the
    forward pass they come from.  r = w_columns(g) and Kr = K r carry the
    w side (module docstring); its blocks (J12, J22) = pullback(g) are
    formed only on request (``w``).  ``grams`` holds the native 2x2
    Grams of the h and of the w blocks; a non-finite entry raises
    ValueError.
    """

    instance: ProblemInstance
    fwd: Forward
    g: np.ndarray
    h: np.ndarray
    r: np.ndarray = field(init=False, repr=False)
    Kr: np.ndarray = field(init=False, repr=False)
    grams: tuple[list[list[float]], list[list[float]]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        T, V, d = self.instance.T, self.instance.V, self.instance.d
        if self.g.shape != (2, T, V) or self.h.shape != (2, d):
            raise ValueError(
                f"g and h must be stacked (2, {T}, {V}) and (2, {d}) by objective, "
                f"got {self.g.shape} and {self.h.shape}"
            )
        A = self.fwd.A
        K = A @ A.T
        self.r = w_columns(self.instance, self.g)
        self.Kr = K @ self.r if self.r.ndim == 3 else self.r @ K
        gram_h, gram_w = self.grams = _gram(self.h, self.h, 1.0), _gram(self.r, self.Kr, 1 / (T * T))
        # a nan or inf entry makes the sum non-finite
        if not math.isfinite(sum(gram_h[0] + gram_h[1] + gram_w[0] + gram_w[1])):
            raise ValueError("gradient blocks must be finite, with finite Grams")

    J11 = property(lambda self: self.h[0])
    J21 = property(lambda self: self.h[1])
    J12 = property(lambda self: self.w[0])
    J22 = property(lambda self: self.w[1])

    @cached_property
    def w(self) -> np.ndarray:
        """The explicit w blocks (J12, J22), (2,) + w_shape."""
        return pullback(self.instance, self.fwd, self.g)

    def norms(self) -> tuple[float, float, float, float]:
        """Euclidean norms (n11, n12, n21, n22), from the Gram diagonals."""
        (h11, _), (_, h22) = self.grams[0]
        (w11, _), (_, w22) = self.grams[1]
        return math.sqrt(h11), math.sqrt(w11), math.sqrt(h22), math.sqrt(w22)


def compute_gradient_set(instance: ProblemInstance, at: Perturbations | Forward) -> GradientSet:
    """The gradient set at a point: both objectives' logit-space
    gradients from one log-softmax, and the h blocks pulled back from
    them in one batched product.  ``at`` is the point's perturbations,
    or a forward pass already taken there."""
    fwd = at if isinstance(at, Forward) else forward(instance, at)
    g = logit_gradients(fwd.logp, instance.y)
    # Every logit of row t moves by B.h, so grad_h = (1/T) sum_tv g[t, v] B[v].
    return GradientSet(instance, fwd, g, (g.sum(axis=1) @ fwd.B) / instance.T)


def _gram(x, y, scale: float) -> list[list[float]]:
    """2x2 Gram scale <x_i, y_j> of two stacked operands with y = M x for
    a symmetric M (y = x for a plain Gram), from one off-diagonal
    product so that it is exactly symmetric.  A diagonal entry is a
    squared norm; one that rounds below 0 is 0."""
    (a, b), (ya, yb) = x, y
    aa, ab, bb = (float(np.vdot(a, ya)) * scale, float(np.vdot(a, yb)) * scale,
                  float(np.vdot(b, yb)) * scale)
    return [[0.0 if aa < 0.0 else aa, ab], [ab, 0.0 if bb < 0.0 else bb]]


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
    gs: GradientSet, with_grams: bool
) -> tuple[list[list[float]], list[list[float]] | None, list[list[float]] | None]:
    """Products of the blocks' logit-space fields, by the closed forms in
    the module docstring: the 2x2 cross matrix and, when ``with_grams``,
    the field Grams of the h blocks, T (B J_i1).(B J_j1), and of the w
    blocks, <K r_i, K r_j> / T^2 (times V under BROADCAST)."""
    instance, T = gs.instance, gs.instance.T
    Bh = gs.h @ gs.fwd.B.T          # B J_i1, stacked (2, V)
    Ja = gs.Kr.sum(axis=1) / T      # J_j2 a, stacked (2, V) under FULL_MATRIX, else (2,)
    cross = (w_columns(instance, Bh).reshape(2, -1) @ Ja.reshape(2, -1).T).tolist()
    if T == 1 and instance.w_mode is WMode.FULL_MATRIX:
        # Symmetric in exact arithmetic (g_i^T B B^T g_j |a|^2); form
        # it so, so that equal scores tie exactly.
        cross[0][1] = cross[1][0] = (cross[0][1] + cross[1][0]) / 2
    if not with_grams:
        return cross, None, None
    copies = instance.V if instance.w_mode is WMode.BROADCAST else 1
    return cross, _gram(Bh, Bh, T), _gram(gs.Kr, gs.Kr, copies / (T * T))


def score_jplus(gs: GradientSet, mode: AlignmentMode) -> np.ndarray:
    """The 15-score vector, component k+1 at position k: the inner
    products of JPLUS_COMPONENTS.

    Every score is an entry, or a fixed sum of entries, of three 2x2
    matrices: the native Grams of (J11, J21) and of (J12, J22), and
    their cross matrix in alignment space.  Under COSINE a product of
    two different operands is divided by their norms in the space it was
    taken in (native within a group, alignment space across groups); a
    zero norm gives 0.  Squared norms are never scaled.  The mode is
    resolved per the instance (``resolve_alignment``).
    """
    mode = resolve_alignment(mode, gs.instance.w_mode)
    cosine = mode.scale is AlignScale.COSINE
    gram_h, gram_w = gs.grams
    if mode.kind is AlignKind.DIRECT:
        cross = (gs.h @ gs.w.T).tolist()  # w is a d-vector here
        field_h, field_w = gram_h, gram_w
    else:
        cross, field_h, field_w = _pushforward(gs, cosine)
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


def score_j6(gs: GradientSet, mode: AlignmentMode) -> np.ndarray:
    """The 6-score vector in canonical slot order (see J6_LABELS): four
    native squared norms and the two cross-objective alignment slots,
    i.e. the components of ``score_jplus`` at J6_FROM_JPLUS."""
    return score_jplus(gs, mode)[list(J6_FROM_JPLUS)]
