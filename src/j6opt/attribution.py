"""Jacobian blocks and the 6- and 15-component attribution score vectors.

The four blocks are the gradients of the two objectives with respect to
the two parameter groups.  Every score is a squared norm or an inner
product of blocks or block sums, so all 15 are read from three 2x2
matrices: the native Grams of the h blocks (J11, J21) and of the w
blocks (J12, J22), and the cross matrix between the groups.  All three
come from one Gram G = X X^T of four d-vectors X = (J11, y_1, J21, y_2),
which numpy forms exactly symmetric with a non-negative diagonal; where
w is a d-vector (SINGLE_ROW, BROADCAST), y holds the w blocks.

Under FULL_MATRIX none of the scores needs the w blocks.  With g_i the
(T, V) logit-space gradient of objective i, A = H + h and B = W with w
folded in, the w block is J_i2 = r_i^T A / T with r_i = w_columns(g_i),
so with the T x T matrix K = A A^T and a = sum_t A_t

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
cross is J_i1 . B^T (J_j2 a): y holds B^T (J_j2 a), formed with the h
blocks' (sum_t g_i) B / T in one (4, V) @ (V, d) product, and
<r_i, K r_j> / T^2 is written over G's w corner; at T = 1 the cross is
|A|^2 times the h Gram, and is formed so.  B J_i1 is formed only for the
cosine field Grams, K r only where it is read, no T x V field at all,
and the FULL_MATRIX w blocks only on request (``GradientSet.w``).

The optimizer computes all of this for K points at once, on a leading
K axis (``_Blocks``, ``_scores``), under the batching rule of
``optimizer``, the scores as one fixed gather-and-add over each slice's
products (``_TERMS``) plus the cosine division.  ``GradientSet`` and
the score functions are the K = 1 slice.
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

# The scores are a fixed linear map of products.  Per slice ``_Work``
# holds G, then the field Grams of the h and of the w blocks (2, 2, 2),
# then -0.0 at _PAD (the exact additive identity, to pad sums); its views
# of the 2x2 matrices give their entries' offsets.  A combo (matrix, i, j)
# (i, j indexing first, second, first + second) sums up to four entries,
# left to right.  A score row holds the 15 J+ components, then the 6 j6
# slots again, so that both vectors are slices of it;
# _TERMS[pushforward][scaled] holds each column's terms for its product
# (columns 0-20), then for the squared norms of its two operands in the
# space the product is taken in (21-41 and 42-62: native within a group,
# fields across).
_PAD = 24
_ROW = _PRODUCTS + tuple(_PRODUCTS[k] for k in J6_FROM_JPLUS)
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


class _Work:
    """The arrays ``_Blocks`` forms the blocks of n slices in, with the
    views of them that a step reads: X (n, 4, d), its h and y rows (by
    group in ``hw``); the products (n, 25) in the layout of _TERMS, with
    the Gram G, its native Grams ``grams`` (n, 2, 2, 2, read-only) and
    the slots written in place; and the FULL_MATRIX weights (n, 2, T)
    with their 1/T row.  ``take(m)`` is the work of the first m slices."""

    def __init__(self, products: np.ndarray, X: np.ndarray, weights: np.ndarray):
        n, self.products, self.X, self.weights = len(X), products, X, weights
        self.h, self.y, self.hw = X[:, ::2], X[:, 1::2], X.reshape(n, 2, 2, -1).swapaxes(1, 2)
        G = self.G = products[:, :16].reshape(n, 4, 4)
        # the native Gram G[g::2, g::2] of group g, as one view
        self.grams = G.reshape(n, 2, 2, 2, 2).diagonal(0, 2, 4).transpose(0, 3, 1, 2)
        self.ww, self.w_diagonal = G[:, 1::2, 1::2], products[:, 5:16:10]
        self.pushed = G[:, 1::2, ::2].swapaxes(1, 2)
        self.fields = products[:, 16:24].reshape(n, 2, 2, 2)
        self.field_diagonals = products[:, 16:24].reshape(n, 2, 4)[..., ::3]
        self.pairs, self.Ka = weights[:, None], weights[:, 1]

    def take(self, m: int) -> "_Work":
        return _Work(self.products[:m], self.X[:m], self.weights[:m])


def _work(instance: ProblemInstance, n: int) -> _Work:
    """A new ``_Work`` of n slices."""
    products, weights = np.empty((n, _PAD + 1)), np.empty((n, 2, instance.T))
    products[:, _PAD], weights[:, 0] = -0.0, 1 / instance.T
    return _Work(products, np.empty((n, 4, instance.d)), weights)


def _terms(matrix: np.ndarray, i: int, j: int) -> list[int]:
    sides = ([0], [1], [0, 1])
    terms = [int(matrix[r, c]) for r in sides[i] for c in sides[j]]
    return terms + [_PAD] * (4 - len(terms))


def _table(cross: np.ndarray, fields: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (4, 21) raw and (4, 63) cosine gather tables of one alignment,
    from the offsets its cross matrix and (h, w) fields hold in _PROBE."""
    grams = _PROBE.grams[0]
    terms = np.array(
        [_terms(cross if ga != gb else grams[ga], i, j) for ga, i, gb, j in _ROW]
        + [_terms(fields[0] if ga != gb else grams[ga], i, i) for ga, i, gb, j in _ROW]
        + [_terms(fields[1] if ga != gb else grams[gb], j, j) for ga, i, gb, j in _ROW]
    ).T
    return np.ascontiguousarray(terms[:, :21]), terms


# A work whose products hold their own offsets.
_PROBE = _Work(np.arange(_PAD + 1.0)[None], np.empty((1, 4, 1)), np.empty((1, 2, 1)))
_TERMS = (_table(_PROBE.G[0, ::2, 1::2], _PROBE.grams[0]),
          _table(_PROBE.pushed[0], _PROBE.fields[0]))


class _Blocks:
    """The gradient blocks at K stacked points of one instance, from
    their A and B (K, T, d), (K, V, d) and logit gradients ``g``
    (K, 2, T, V); ``h`` (K, 2, d) as in GradientSet, pulled back here
    when not given (a given h must be the blocks g gives).  Each
    slice's products are formed in ``work`` (a ``_Work`` of K slices,
    made here when not given), G here and the rest by ``_scores``: y is
    the w blocks ``w`` where w is a d-vector (``hw`` holds both groups)
    and B^T (J_j2 a) under FULL_MATRIX, which also forms ``Kr``, K r.
    ``grams`` (K, 2, 2, 2) are the native Grams, and ``finite`` lists
    whether each slice's are finite."""

    def __init__(self, instance: ProblemInstance, A: np.ndarray, B: np.ndarray, g: np.ndarray,
                 h: np.ndarray | None = None, work: _Work | None = None):
        T, n = instance.T, len(A)
        self.instance, self.A, self.B, self.g = instance, A, B, g
        self.work = work = work or _work(instance, n)
        full = instance.w_mode is WMode.FULL_MATRIX
        # Every logit of row t moves by B.h, so grad_h = (1/T) sum_tv g[t, v] B[v].
        if full:
            # per block the rows sum_t g_i / T and J_i2 a = (K 1)^T g_i / T, all against B
            K = A @ A.swapaxes(1, 2)
            np.divide(np.add.reduce(K, axis=1), T, out=work.Ka)  # faster than /= on the view
            np.matmul((work.pairs @ g).reshape(n, 4, -1), B, out=work.X)
        else:  # the h blocks, then the w blocks r^T A / T (model._pullback)
            np.matmul(np.add.reduce(g, axis=2), B, out=work.h)
            _pullback(instance, A, g, out=work.y)
            work.X /= T
            self.hw, self.w = work.hw, work.y
        if h is not None:
            work.h[:] = h
        self.h, self.grams = work.h, work.grams
        np.matmul(work.X, work.X.swapaxes(1, 2), out=work.G)
        if full:
            self.Kr = K[:, None] @ g
            _dots(g, self.Kr, work.ww)
            if T > 1:
                work.ww *= 1 / (T * T)
            else:  # g_i^T B B^T g_j |a|^2, exactly symmetric
                np.multiply(work.Ka[..., None], work.grams[:, 0], out=work.pushed)
            _gram(work.ww, work.w_diagonal)
        self.finite = np.isfinite(work.grams).all(axis=(1, 2, 3)).tolist()


@dataclass(eq=False)
class GradientSet:
    """The gradient blocks at one point, the w side kept in logit space.

    ``g`` holds both objectives' logit-space gradients (2, T, V), heat
    first, ``h`` the h blocks (J11, J21) as (2, d), pulled back from g
    when not given, and ``fwd`` the forward pass they come from.  Its w
    blocks (J12, J22), r^T A / T (``model._pullback``), are read from the
    stacked blocks where w is a d-vector, and formed from g when first
    read under FULL_MATRIX (``w``).
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
        if self.instance.w_mode is WMode.FULL_MATRIX:
            return _pullback(self.instance, self.fwd.A, self.g) / self.instance.T
        return self._blocks.w[0]


def compute_gradient_set(instance: ProblemInstance, pert: Perturbations) -> GradientSet:
    """The gradient set at the point ``pert``: its forward pass, both
    objectives' logit-space gradients from its one log-softmax, and the
    h blocks pulled back from them."""
    fwd = forward(instance, pert)
    return GradientSet(instance, fwd, _logit_gradients(fwd.logp, instance._target[1], fwd.p,
                                                       fwd.plogp))


def _dots(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> None:
    """Write into ``out`` (K, 2, 2) the inner products <x_i, y_j> of K
    stacked operand pairs (K, 2, ...): one ``vecdot`` per entry and
    slice, the same dot np.vdot takes."""
    K = len(x)
    np.vecdot(x.reshape(K, 2, 1, -1), y.reshape(K, 1, 2, -1), out=out)


def _gram(dots: np.ndarray, diagonal: np.ndarray) -> None:
    """Turn stacked (scaled) inner products (..., 2, 2) of operands x,
    y = M x with M symmetric into their Grams in place: the off-diagonal
    taken from <x_0, y_1> alone so that each is exactly symmetric, and a
    diagonal entry (``diagonal`` views them) that rounds below 0 set to
    0."""
    dots[..., 1, 0] = dots[..., 0, 1]
    np.maximum(diagonal, 0.0, out=diagonal)


def _pushforward(b: _Blocks, fields: bool) -> None:
    """Write into the blocks' work the products of their logit-space
    fields, by the closed forms in the module docstring, per slice: the
    cross matrix where w is a d-vector (FULL_MATRIX forms it with the
    blocks) and, when ``fields``, the field Grams of the h blocks,
    T (B J_i1).(B J_j1), and of the w blocks, <K r_i, K r_j> / T^2 (times
    V under BROADCAST)."""
    instance, T, work = b.instance, b.instance.T, b.work
    full = instance.w_mode is WMode.FULL_MATRIX
    Kr = b.Kr if full else w_columns(instance, b.g) @ (b.A @ b.A.swapaxes(1, 2))  # r^T K = K r
    Bh = b.h @ b.B.swapaxes(1, 2) if fields or not full else None  # B J_i1 (K, 2, V)
    if not full:  # J_j2 a is a number per block
        Ja = np.add.reduce(Kr, axis=2) / T
        np.multiply(w_columns(instance, Bh)[..., None], Ja[:, None], out=work.pushed)
    if fields:
        F, copies = work.fields, instance.V if instance.w_mode is WMode.BROADCAST else 1
        _dots(Bh, Bh, F[:, 0])
        _dots(Kr, Kr, F[:, 1])
        F[:, 0] *= T
        F[:, 1] *= copies / (T * T)
        _gram(F, work.field_diagonals)


def _scores(b: _Blocks, mode: AlignmentMode) -> np.ndarray:
    """The (K, 21) score rows of stacked blocks, the 15 J+ components and
    then the 6 j6 slots, under one resolved alignment ``mode``:
    pushforward or direct, and raw or cosine-scaled (see
    ``score_jplus``)."""
    scaled, pushforward = mode.scale is AlignScale.COSINE, mode.kind is AlignKind.PUSHFORWARD
    if pushforward:
        _pushforward(b, scaled)
    x = np.add.reduce(b.work.products[:, _TERMS[pushforward][scaled]], axis=1)
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
