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
    J_j2 a = sum_t (K r_j)_t / T = (K 1)^T r_j / T

An inner product between an h-shaped and a w-shaped gradient is only
directly defined when the shapes match (SINGLE_ROW / BROADCAST), so a
``pushforward`` alignment compares the logit-space changes the two
gradients induce (exact here, the model being bilinear): J_i1 moves
every logit row by B J_i1 and J_j2 moves the columns w_columns picks by
K r_j / T.  So the cross product is w_columns(B J_i1) . (J_j2 a), and
the field Grams are T (B J_i1).(B J_j1) and <K r_i, K r_j> / T^2 (times
V under BROADCAST, where every column moves).  Under FULL_MATRIX the
cross is J_i1 . B^T (J_j2 a), B^T (J_j2 a) stacked with the h blocks'
(sum_t g_i) B / T in one (4, V) @ (V, d) product; B J_i1 is formed only
for the cosine field Grams.  No T x V field is built.  Where w is a
d-vector (SINGLE_ROW, BROADCAST) the w blocks are formed every step,
beside the h blocks (``_Blocks.hw``), and direct alignment reads them;
under FULL_MATRIX they are formed only on request (``GradientSet.w``).

The optimizer computes all of this for K points at once, on a leading
K axis (``_Blocks``, ``_scores``), under the batching rule of
``optimizer``: the h blocks (K, 2, d), each slice's native Grams and
cross matrix (K, 2, 2), and the scores as one fixed gather-and-add over
each slice's 2x2 entries (``_TERMS``) plus the cosine division.
``GradientSet`` and the score functions are the K = 1 slice.
"""

from __future__ import annotations

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
    _logit_gradients,
    _pullback,
    forward,
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

# The operands by group (0 = h, 1 = w), each (first, second, first + second);
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

# The scores are a fixed linear map of Gram entries.  Per slice the
# entries sit in a (6, 2, 2) block: the native Grams of the h and of the
# w blocks, their cross matrix, the field Grams of the h and of the w
# blocks, and -0.0 (the exact additive identity, to pad sums).  A
# combo (m, i, j) of matrix m (i, j indexing first, second, first +
# second) sums up to four entries, left to right.  A score row holds
# the 15 J+ components, then the 6 j6 slots again, so that both vectors
# are slices of it; _TERMS holds each column's terms for its product
# (columns 0-20), then for the squared norms of its two operands in
# the space the product is taken in (21-41 and 42-62: native within a
# group, fields across).
_PAD = 20
_ROW = _PRODUCTS + tuple(_PRODUCTS[k] for k in J6_FROM_JPLUS)


def _terms(m: int, i: int, j: int) -> list[int]:
    sides = ([0], [1], [0, 1])
    terms = [4 * m + 2 * r + c for r in sides[i] for c in sides[j]]
    return terms + [_PAD] * (4 - len(terms))


_TERMS = np.array(
    [_terms({(0, 0): 0, (1, 1): 1, (0, 1): 2}[ga, gb], i, j) for ga, i, gb, j in _ROW]
    + [_terms(3 if ga != gb else ga, i, i) for ga, i, gb, j in _ROW]
    + [_terms(4 if ga != gb else gb, j, j) for ga, i, gb, j in _ROW]
).T
_RAW_TERMS = _TERMS[:, :21]
_INNER = np.array([(ga, i) != (gb, j) for ga, i, gb, j in _ROW])



class AlignKind(str, Enum):
    AUTO = "auto"  # per w_mode, see resolve_alignment
    DIRECT = "direct"
    PUSHFORWARD = "pushforward"


class AlignScale(str, Enum):
    RAW = "raw"
    COSINE = "cosine"


@dataclass(frozen=True)
class AlignmentMode:
    """How cross-shape inner products are taken and scaled; both fields
    accept their enum's string values."""

    kind: AlignKind = AlignKind.AUTO
    scale: AlignScale = AlignScale.RAW

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", AlignKind(self.kind))
        object.__setattr__(self, "scale", AlignScale(self.scale))


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


def _work(instance: ProblemInstance, K: int) -> tuple[np.ndarray, np.ndarray]:
    """The arrays ``_Blocks`` forms the blocks of up to K slices in, in
    their first n: the products (K, 6, 2, 2) with their -0.0 pad and the
    FULL_MATRIX weights (K, 2, T) with their 1/T row in place."""
    products, weights = np.empty((K, 6, 2, 2)), np.empty((K, 2, instance.T))
    products[:, 5], weights[:, 0] = -0.0, 1 / instance.T
    return products, weights


def _gradients(instance: ProblemInstance, fwd: Forward) -> np.ndarray:
    """Both objectives' logit-space gradients, from the one log-softmax
    of a forward pass with finite losses."""
    return _logit_gradients(fwd.logp, instance._target[1], fwd.p, fwd.plogp)


@dataclass(eq=False)
class _Blocks:
    """The gradient blocks at K stacked points of one instance, from
    their A and B (K, T, d), (K, V, d) and logit gradients ``g``
    (K, 2, T, V); ``h`` (K, 2, d) as in GradientSet, pulled back here
    when not given.  r, Kr and, under FULL_MATRIX, ``BJa`` (K, 2, d),
    B^T (J_j2 a), carry the w side (module docstring).  Where w is a
    d-vector, the h and the w blocks sit in one array, ``hw``
    (K, 2, 2, d), h then ``w`` (J12, J22).  ``products`` (K, 6, 2, 2)
    holds each slice's 2x2 products in the layout of _TERMS; its native
    Grams of the h and of the w blocks, ``grams`` (K, 2, 2, 2), are
    formed here, the rest by ``_scores``, all in ``work`` (``_work``),
    made here when not given.  ``finite`` lists whether each slice's
    Grams are finite."""

    instance: ProblemInstance
    A: np.ndarray
    B: np.ndarray
    g: np.ndarray
    h: np.ndarray | None = None
    work: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self) -> None:
        A, T, n = self.A, self.instance.T, len(self.A)
        products, weights = self.work or _work(self.instance, n)
        K = A @ A.swapaxes(1, 2)
        self.r = w_columns(self.instance, self.g)
        self.Kr = K[:, None] @ self.r if self.r.ndim == 4 else self.r @ K
        # Every logit of row t moves by B.h, so grad_h = (1/T) sum_tv g[t, v] B[v].
        if self.instance.w_mode is WMode.FULL_MATRIX:
            # per block the rows sum_t g_i / T and J_i2 a = (K 1)^T g_i / T,
            # then all four against B in one product
            weights = weights[:n]
            Ka = np.add.reduce(K, axis=1, out=weights[:, 1])
            Ka /= T
            gB = (weights[:, None] @ self.g).reshape(n, 4, -1) @ self.B
            self.BJa = gB[:, 1::2]
            if self.h is None:
                self.h = gB[:, 0::2]
        else:  # the h blocks, then the w blocks r^T A / T (model._pullback)
            hw = self.hw = np.empty((n, 2, 2, self.instance.d))
            np.matmul(np.add.reduce(self.g, axis=2), self.B, out=hw[:, 0])
            _pullback(self.instance, A, self.g, out=hw[:, 1])
            hw /= T
            if self.h is not None:
                hw[:, 0] = self.h
            self.h, self.w = hw[:, 0], hw[:, 1]
        P = self.products = products[:n]
        self.grams = P[:, :2]
        _dots(self.h, self.h, P[:, 0])
        _dots(self.r, self.Kr, P[:, 1])
        if T > 1:
            P[:, 1] *= 1 / (T * T)
        _gram(self.grams)
        # a nan or inf entry makes the sum non-finite
        self.finite = np.isfinite(np.add.reduce(self.grams.reshape(n, -1), axis=1)).tolist()


@dataclass(eq=False)
class GradientSet:
    """The gradient blocks at one point, the w side kept in logit space.

    ``g`` holds both objectives' logit-space gradients (2, T, V), heat
    first, ``h`` the h blocks (J11, J21) as (2, d), pulled back from g
    when not given, and ``fwd`` the forward pass they come from.  Its w
    blocks (J12, J22), r^T A / T (``model._pullback``), are formed from
    g when first read (``w``).
    ``grams`` holds the native 2x2 Grams of the h and of the w blocks; a
    non-finite entry raises ValueError.
    """

    instance: ProblemInstance
    fwd: Forward
    g: np.ndarray
    h: np.ndarray | None = None
    grams: tuple[list[list[float]], list[list[float]]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        T, V, d = self.instance.T, self.instance.V, self.instance.d
        if self.g.shape != (2, T, V) or (self.h is not None and self.h.shape != (2, d)):
            raise ValueError(
                f"g and h must be stacked (2, {T}, {V}) and (2, {d}) by objective, "
                f"got {self.g.shape} and {np.shape(self.h)}"
            )
        f, h = self.fwd, None if self.h is None else self.h[None]
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite Grams raise below
            self._blocks = _Blocks(self.instance, f.A[None], f.B[None], self.g[None], h)
        self.h = self._blocks.h[0]
        if not self._blocks.finite[0]:
            raise ValueError("gradient blocks must be finite, with finite Grams")
        self.grams = tuple(self._blocks.grams[0].tolist())

    J11 = property(lambda self: self.h[0])
    J21 = property(lambda self: self.h[1])
    J12 = property(lambda self: self.w[0])
    J22 = property(lambda self: self.w[1])

    @cached_property
    def w(self) -> np.ndarray:
        """The explicit w blocks (J12, J22), (2,) + w_shape."""
        return _pullback(self.instance, self.fwd.A, self.g) / self.instance.T


def compute_gradient_set(instance: ProblemInstance, pert: Perturbations) -> GradientSet:
    """The gradient set at the point ``pert``: its forward pass, both
    objectives' logit-space gradients from its one log-softmax, and the
    h blocks pulled back from them."""
    fwd = forward(instance, pert)
    return GradientSet(instance, fwd, _gradients(instance, fwd))


_DIAGONAL = np.eye(2, dtype=bool)


def _dots(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> None:
    """Write into ``out`` (K, 2, 2) the inner products <x_i, y_j> of K
    stacked operand pairs (K, 2, ...): one ``vecdot`` per entry and
    slice, the same dot np.vdot takes."""
    K = len(x)
    np.vecdot(x.reshape(K, 2, 1, -1), y.reshape(K, 1, 2, -1), out=out)


def _gram(dots: np.ndarray) -> None:
    """Turn stacked (scaled) inner products (..., 2, 2) of operands x,
    y = M x with M symmetric (y = x for a plain Gram) into their Grams in
    place: the off-diagonal taken from <x_0, y_1> alone so that each is
    exactly symmetric, and a diagonal entry (a squared norm) that rounds
    below 0 set to 0."""
    dots[..., 1, 0] = dots[..., 0, 1]
    np.maximum(dots, 0.0, out=dots, where=_DIAGONAL)


def _pushforward(b: _Blocks, out: np.ndarray) -> None:
    """Write into ``out`` (K, n, 2, 2) products of the blocks' logit-space
    fields, by the closed forms in the module docstring, per slice: the
    cross matrix and, when n = 3, the field Grams of the h blocks,
    T (B J_i1).(B J_j1), and of the w blocks, <K r_i, K r_j> / T^2
    (times V under BROADCAST)."""
    instance, T = b.instance, b.instance.T
    full, with_grams = instance.w_mode is WMode.FULL_MATRIX, out.shape[1] == 3
    cross = out[:, 0]
    Bh = b.h @ b.B.swapaxes(1, 2) if with_grams or not full else None  # B J_i1 (K, 2, V)
    if full:  # J_i1 . B^T (J_j2 a), a (2, d) @ (d, 2) product
        np.matmul(b.h, b.BJa.swapaxes(1, 2), out=cross)
        if T == 1:
            # Symmetric in exact arithmetic (g_i^T B B^T g_j |a|^2); form
            # it so, so that equal scores tie exactly.
            cross[:, 0, 1] = cross[:, 1, 0] = (cross[:, 0, 1] + cross[:, 1, 0]) / 2
    else:  # J_j2 a is a number per block
        Ja = np.add.reduce(b.Kr, axis=2) / T
        np.matmul(w_columns(instance, Bh)[..., None], Ja[:, None], out=cross)
    if with_grams:
        copies = instance.V if instance.w_mode is WMode.BROADCAST else 1
        _dots(Bh, Bh, out[:, 1])
        _dots(b.Kr, b.Kr, out[:, 2])
        out[:, 1] *= T
        out[:, 2] *= copies / (T * T)
        _gram(out[:, 1:])


def _scores(b: _Blocks, mode: AlignmentMode) -> np.ndarray:
    """The (K, 21) score rows of stacked blocks, the 15 J+ components and
    then the 6 j6 slots, under one resolved alignment ``mode``:
    pushforward or direct, and raw or cosine-scaled (see
    ``score_jplus``)."""
    P, K, scaled = b.products, len(b.products), mode.scale is AlignScale.COSINE
    if mode.kind is AlignKind.PUSHFORWARD:
        _pushforward(b, P[:, 2:5 if scaled else 3])
    else:
        if scaled:
            P[:, 3:5] = P[:, :2]  # direct alignment takes norms natively
        np.matmul(b.h, b.w.swapaxes(1, 2), out=P[:, 2])  # w is a d-vector here
    G = P.reshape(K, 24)[:, _TERMS if scaled else _RAW_TERMS]
    x = G[:, 0] + G[:, 1]
    x += G[:, 2]
    x += G[:, 3]
    if not scaled:
        return x
    s, sq_a, sq_b = x[:, :21], x[:, 21:42], x[:, 42:]
    # raw / (|a| |b|); 0 when a norm is 0 (or, for a sum of blocks, rounds below 0)
    with np.errstate(invalid="ignore"):
        norms = np.sqrt(sq_a) * np.sqrt(sq_b)
    return np.divide(s, norms, out=np.where(_INNER, 0.0, s),
                     where=_INNER & (sq_a > 0.0) & (sq_b > 0.0))


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
    return _score_row(gs, mode)[:15]


def score_j6(gs: GradientSet, mode: AlignmentMode) -> np.ndarray:
    """The 6-score vector in canonical slot order (see J6_LABELS): four
    native squared norms and the two cross-objective alignment slots,
    i.e. the components of ``score_jplus`` at J6_FROM_JPLUS."""
    return _score_row(gs, mode)[15:]


def _score_row(gs: GradientSet, mode: AlignmentMode) -> np.ndarray:
    return _scores(gs._blocks, resolve_alignment(mode, gs.instance.w_mode))[0]
