"""Gradient blocks, cross-shape alignment, and the 6/15-score vectors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from j6opt import (
    AlignKind,
    AlignmentMode,
    AlignScale,
    GeneratorSpec,
    GradientSet,
    J6_FROM_JPLUS,
    J6_LABELS,
    JPLUS_COMPONENTS,
    ProblemInstance,
    WMode,
    compute_gradient_set,
    fd_gradient,
    forward,
    generate,
    init_perturbations,
    score_j6,
    score_jplus,
    zero_perturbations,
)
import j6opt.attribution as attribution_mod
import j6opt.model
from j6opt.attribution import BETA_AUX, resolve_alignment

DIRECT_RAW = AlignmentMode(AlignKind.DIRECT, AlignScale.RAW)
DIRECT_COSINE = AlignmentMode(AlignKind.DIRECT, AlignScale.COSINE)
PUSH_RAW = AlignmentMode(AlignKind.PUSHFORWARD, AlignScale.RAW)
PUSH_COSINE = AlignmentMode(AlignKind.PUSHFORWARD, AlignScale.COSINE)


def doubled(gs):
    """The gradient set with every block scaled by 2."""
    return GradientSet(gs.instance, gs.fwd, gs.g * 2.0, gs.h * 2.0)


def logit_field(g, group, instance, pert):
    """Reference: the T x V logit-space change induced by moving parameter
    group ``group`` ("h" or "w") along g, holding the other group fixed."""
    T, V = instance.T, instance.V
    if group == "h":
        B = instance.W.copy()
        if instance.w_mode is WMode.SINGLE_ROW:
            B[instance.v_star] += pert.w
        else:
            B += pert.w
        return np.broadcast_to(B @ g, (T, V)).copy()
    A = instance.H + pert.h
    if instance.w_mode is WMode.FULL_MATRIX:
        return A @ g.T
    col = A @ g
    if instance.w_mode is WMode.SINGLE_ROW:
        field = np.zeros((T, V))
        field[:, instance.v_star] = col
        return field
    return np.repeat(col[:, None], V, axis=1)


def reference_jplus(gs, mode, instance, pert):
    """Reference: the 15 scores as explicit products, cross-group ones of
    T x V logit fields under PUSHFORWARD, each scaled by its operands'
    norms in the space the product is taken under COSINE."""

    def dot(a, b, group_a=None, group_b=None):
        if group_a is not None and mode.kind is AlignKind.PUSHFORWARD:
            a = logit_field(a, group_a, instance, pert)
            b = logit_field(b, group_b, instance, pert)
        a, b = a.ravel(), b.ravel()
        raw = float(a @ b)
        if mode.scale is AlignScale.RAW:
            return raw
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        return 0.0 if na == 0.0 or nb == 0.0 else raw / (na * nb)

    def cross(a, b):
        return dot(a, b, "h", "w")

    def sq(a):
        return float(a.ravel() @ a.ravel())

    sum_h, sum_w = gs.J11 + gs.J21, gs.J12 + gs.J22
    return np.array([
        sq(gs.J11), sq(gs.J12), sq(gs.J21), sq(gs.J22),
        cross(gs.J11, gs.J22), cross(gs.J21, gs.J12), dot(gs.J11, gs.J21), dot(gs.J12, gs.J22),
        cross(sum_h, sum_w), cross(gs.J11, sum_w), cross(gs.J21, sum_w),
        cross(sum_h, gs.J12), cross(sum_h, gs.J22), sq(sum_h), sq(sum_w),
    ])


@pytest.fixture
def handpicked(from_blocks):
    return from_blocks(
        h=[[1.0, 0.0], [2.0, 0.0]],  # J11, J21
        w=[[1.0, 1.0], [0.0, 2.0]],  # J12, J22
    )


def random_same_shape_set(from_blocks, rng, d):
    J11, J12, J21, J22 = rng.normal(size=(4, d))
    return from_blocks(h=[J11, J21], w=[J12, J22])


class TestComputeGradientSet:
    def test_confidence_blocks_vanish_at_uniform(self):
        # zero hidden states give zero logits, hence a uniform softmax,
        # a stationary point of the entropy
        rng = np.random.default_rng(77)
        instance = ProblemInstance(
            V=4, d=3, T=2, H=np.zeros((2, 3)), W=rng.normal(size=(4, 3)), y=[1, 2]
        )
        gs = compute_gradient_set(instance, zero_perturbations(instance))
        np.testing.assert_allclose(gs.J21, 0.0, atol=1e-14)
        np.testing.assert_allclose(gs.J22, 0.0, atol=1e-14)
        assert np.linalg.norm(gs.J11) > 1e-3

    def test_blocks_match_fd_oracle(self, derived_instance):
        instance, pert = derived_instance
        gs = compute_gradient_set(instance, pert)
        fd_h, fd_w = fd_gradient("h", instance, pert), fd_gradient("w", instance, pert)
        for block, fd in ((gs.J11, fd_h[0]), (gs.J12, fd_w[0]), (gs.J21, fd_h[1]), (gs.J22, fd_w[1])):
            rel = np.linalg.norm(block - fd) / (np.linalg.norm(fd) + 1e-12)
            assert rel < 1e-5

    def test_saturated_correct_position_contributes_nothing(self):
        # logits so peaked the softmax is exactly one-hot in float64
        instance = ProblemInstance(
            V=3, d=1, T=1, H=[[800.0]], W=[[1.0], [0.0], [-1.0]], y=[0]
        )
        gs = compute_gradient_set(instance, zero_perturbations(instance))
        for block in (gs.J11, gs.J12, gs.J21, gs.J22):
            np.testing.assert_array_equal(block, np.zeros_like(block))


class TestLogitField:
    def test_matches_scalar_loops(self, make_point):
        for mode in WMode:
            instance, pert = make_point(seed=3, w_mode=mode)
            rng = np.random.default_rng(42)
            g_h = rng.normal(size=instance.d)
            field = logit_field(g_h, "h", instance, pert)
            for t in range(instance.T):
                for v in range(instance.V):
                    base = instance.W[v].copy()
                    if mode is WMode.FULL_MATRIX:
                        base = base + pert.w[v]
                    elif mode is WMode.SINGLE_ROW and v == instance.v_star:
                        base = base + pert.w
                    elif mode is WMode.BROADCAST:
                        base = base + pert.w
                    assert field[t, v] == pytest.approx(float(g_h @ base), rel=1e-13)

    def test_w_field_shapes(self, make_point):
        instance, pert = make_point(seed=4, w_mode=WMode.SINGLE_ROW)
        g = np.ones(instance.d)
        field = logit_field(g, "w", instance, pert)
        assert field.shape == (instance.T, instance.V)
        # only the v_star column moves when a single row is perturbed
        mask = np.ones(instance.V, dtype=bool)
        mask[instance.v_star] = False
        assert np.all(field[:, mask] == 0.0)


class TestAlign:
    """The cross-group slots: <J11, J22> is j6 slot 1, <J21, J12> slot 5."""

    def test_direct_self_alignment_is_squared_norm(self, from_blocks):
        g = np.array([3.0, -4.0])
        gs = from_blocks(h=[g, np.zeros(2)], w=[np.zeros(2), g])
        assert score_j6(gs, DIRECT_RAW)[1] == 25.0

    def test_direct_orthogonal(self, from_blocks):
        gs = from_blocks(h=[[1.0, 0.0], [0.0, 0.0]], w=[[0.0, 0.0], [0.0, 2.0]])
        assert score_j6(gs, DIRECT_RAW)[1] == 0.0

    def test_direct_shape_mismatch_raises(self, make_point):
        instance, pert = make_point(seed=0, w_mode=WMode.FULL_MATRIX)
        gs = compute_gradient_set(instance, pert)
        with pytest.raises(ValueError, match="matching shapes"):
            score_j6(gs, DIRECT_RAW)
        with pytest.raises(ValueError, match="matching shapes"):
            score_jplus(gs, DIRECT_RAW)

    def test_pushforward_shape_mismatch_raises(self, make_point, handpicked):
        # a gradient set carries its point, so blocks shaped for another
        # instance are rejected before any score is taken
        instance, pert = make_point(seed=0, w_mode=WMode.FULL_MATRIX)
        with pytest.raises(ValueError, match="stacked"):
            GradientSet(instance, forward(instance, pert), handpicked.g, handpicked.h)

    def test_pushforward_self_alignment_non_negative(self, make_point):
        # raw / cosine recovers the product of the operands' logit-space
        # norms, the square roots of their self-alignments
        for seed in range(20):
            instance, pert = make_point(seed=seed, w_mode=WMode.FULL_MATRIX)
            gs = compute_gradient_set(instance, pert)
            raw = score_j6(gs, PUSH_RAW)
            cos = score_j6(gs, PUSH_COSINE)
            for slot, g_h, g_w in ((1, gs.J11, gs.J22), (5, gs.J21, gs.J12)):
                norms = raw[slot] / cos[slot]
                want = np.linalg.norm(logit_field(g_h, "h", instance, pert)) * np.linalg.norm(
                    logit_field(g_w, "w", instance, pert)
                )
                assert norms > 0.0
                assert norms == pytest.approx(want, rel=1e-9)

    def test_pushforward_matches_field_product(self, make_point):
        instance, pert = make_point(seed=9, w_mode=WMode.FULL_MATRIX)
        gs = compute_gradient_set(instance, pert)
        got = score_j6(gs, PUSH_RAW)[1]
        fa = logit_field(gs.J11, "h", instance, pert).ravel()
        fb = logit_field(gs.J22, "w", instance, pert).ravel()
        assert got == pytest.approx(float(fa @ fb), rel=1e-13)

    def test_cosine_bounds_and_zero_norm(self, from_blocks):
        rng = np.random.default_rng(8)
        zero = np.zeros(2)
        for _ in range(100):
            a, b = rng.normal(size=2), rng.normal(size=2)
            gs = from_blocks(h=[a, zero], w=[zero, b])
            assert -1.0 - 1e-12 <= score_j6(gs, DIRECT_COSINE)[1] <= 1.0 + 1e-12
        gs = from_blocks(h=[zero, zero], w=[zero, np.ones(2)])
        assert score_j6(gs, DIRECT_COSINE)[1] == 0.0


class TestGramMatchesFieldProducts:
    """The closed-form Gram scores against explicit T x V field products.
    T ranges past d, where K = A A^T is singular."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        V=st.integers(2, 12),
        d=st.integers(1, 6),
        T=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
        w_mode=st.sampled_from(list(WMode)),
        kind=st.sampled_from([AlignKind.DIRECT, AlignKind.PUSHFORWARD]),
        scale=st.sampled_from(list(AlignScale)),
    )
    def test_scores_match_reference(self, V, d, T, seed, w_mode, kind, scale):
        if kind is AlignKind.DIRECT and w_mode is WMode.FULL_MATRIX:
            kind = AlignKind.PUSHFORWARD  # h and w shapes differ there
        mode = AlignmentMode(kind, scale)
        instance = generate(GeneratorSpec(V=V, d=d, T=T, seed=seed, w_mode=w_mode))
        pert = init_perturbations(instance, init_scale=0.3, seed=seed)
        gs = compute_gradient_set(instance, pert)
        want = reference_jplus(gs, mode, instance, pert)
        s15 = score_jplus(gs, mode)
        s6 = score_j6(gs, mode)
        # the two routes round differently, so entries agree to 1e-12 of
        # the largest score rather than bit for bit
        tol = 1e-12 * max(1.0, float(np.abs(want).max()))
        np.testing.assert_allclose(s15, want, rtol=1e-9, atol=tol)
        np.testing.assert_array_equal(s6, s15[[0, 4, 1, 2, 3, 5]])

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        V=st.integers(2, 12),
        d=st.integers(1, 6),
        T=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
        w_mode=st.sampled_from(list(WMode)),
    )
    def test_logit_space_forms_match_blocks(self, V, d, T, seed, w_mode):
        # the T x T forms against np.vdot of the explicit blocks (gs.w
        # for w) and of their explicit T x V fields
        instance = generate(GeneratorSpec(V=V, d=d, T=T, seed=seed, w_mode=w_mode))
        pert = init_perturbations(instance, init_scale=0.3, seed=seed)
        gs = compute_gradient_set(instance, pert)
        blocks = {"h": gs.h, "w": gs.w}
        fields = {k: [logit_field(b, k, instance, pert) for b in v] for k, v in blocks.items()}

        def vdots(xs, ys):
            return np.array([[np.vdot(x, y) for y in ys] for x in xs])

        attribution_mod._scores(gs._blocks, PUSH_COSINE)
        cross, field_h, field_w = _products(gs._blocks.work)[0, 3:]
        for got, want in (
            (gs.grams[0], vdots(blocks["h"], blocks["h"])),
            (gs.grams[1], vdots(blocks["w"], blocks["w"])),
            (cross, vdots(fields["h"], fields["w"])),
            (field_h, vdots(fields["h"], fields["h"])),
            (field_w, vdots(fields["w"], fields["w"])),
        ):
            scale = max(1.0, float(np.abs(want).max()))
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12 * scale)
        for gram in gs.grams + (field_h.tolist(), field_w.tolist()):
            assert gram[0][1] == gram[1][0]  # one off-diagonal product
            assert gram[0][0] >= 0.0 and gram[1][1] >= 0.0


class TestScoreJ6:
    def test_handpicked_vectors(self, handpicked):
        s = score_j6(handpicked, DIRECT_RAW)
        np.testing.assert_array_equal(s, [1.0, 0.0, 2.0, 4.0, 4.0, 2.0])

    def test_zero_set(self, from_blocks):
        zeros = from_blocks(np.zeros((2, 2)), np.zeros((2, 2)))
        np.testing.assert_array_equal(score_j6(zeros, DIRECT_RAW), np.zeros(6))

    def test_cauchy_schwarz_over_random_draws(self, from_blocks):
        rng = np.random.default_rng(1000)
        for _ in range(1000):
            gs = random_same_shape_set(from_blocks, rng, int(rng.integers(2, 7)))
            s = score_j6(gs, DIRECT_RAW)
            assert s[1] <= np.sqrt(s[0] * s[4]) + 1e-12
            assert s[5] <= np.sqrt(s[3] * s[2]) + 1e-12

    def test_scale_equivariance_is_exact_for_power_of_two(self, make_point):
        # scaling all blocks by 2 multiplies every raw entry by exactly 4
        for mode, amode in ((WMode.SINGLE_ROW, DIRECT_RAW), (WMode.FULL_MATRIX, PUSH_RAW)):
            instance, pert = make_point(seed=12, w_mode=mode)
            gs = compute_gradient_set(instance, pert)
            s = score_j6(gs, amode)
            s_scaled = score_j6(doubled(gs), amode)
            np.testing.assert_array_equal(s_scaled, 4.0 * s)
            assert np.argmax(s_scaled) == np.argmax(s)

    def test_pushforward_default_for_full_matrix(self):
        assert resolve_alignment(AlignmentMode(), WMode.FULL_MATRIX).kind is AlignKind.PUSHFORWARD
        assert resolve_alignment(AlignmentMode(), WMode.SINGLE_ROW).kind is AlignKind.DIRECT
        assert resolve_alignment(AlignmentMode(), WMode.BROADCAST).kind is AlignKind.DIRECT


class TestScoreJPlus:
    def test_handpicked_vectors(self, handpicked):
        s = score_jplus(handpicked, DIRECT_RAW)
        # components 1..15 worked out by hand from the four vectors
        expected = [1.0, 2.0, 4.0, 4.0, 0.0, 2.0, 2.0, 2.0, 3.0, 1.0, 2.0, 3.0, 0.0, 9.0, 10.0]
        np.testing.assert_array_equal(s, expected)

    def test_zero_set(self, from_blocks):
        zeros = from_blocks(np.zeros((2, 2)), np.zeros((2, 2)))
        np.testing.assert_array_equal(score_jplus(zeros, DIRECT_RAW), np.zeros(15))

    def test_contains_j6_bit_equal(self, make_point):
        # components {1,2,3,4,5,6} equal slots {0,2,3,4,1,5} of the 6-vector
        for mode, amode in ((WMode.SINGLE_ROW, DIRECT_RAW), (WMode.FULL_MATRIX, PUSH_RAW)):
            instance, pert = make_point(seed=21, w_mode=mode)
            gs = compute_gradient_set(instance, pert)
            s6 = score_j6(gs, amode)
            s15 = score_jplus(gs, amode)
            np.testing.assert_array_equal(s15[:6], s6[[0, 2, 3, 4, 1, 5]])

    def test_norm_entries_non_negative(self, make_point):
        for seed in range(10):
            instance, pert = make_point(seed=seed, w_mode=WMode.FULL_MATRIX)
            gs = compute_gradient_set(instance, pert)
            s = score_jplus(gs, PUSH_RAW)
            assert (s[[0, 1, 2, 3, 13, 14]] >= 0.0).all()

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        V=st.integers(2, 12),
        d=st.integers(1, 6),
        T=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        w_mode=st.sampled_from(list(WMode)),
        kind=st.sampled_from([AlignKind.DIRECT, AlignKind.PUSHFORWARD]),
    )
    def test_cosine_inner_products_bounded(self, V, d, T, seed, w_mode, kind):
        # Cauchy-Schwarz on every slot whose two operands differ
        if kind is AlignKind.DIRECT and w_mode is WMode.FULL_MATRIX:
            kind = AlignKind.PUSHFORWARD  # h and w shapes differ there
        inner = [k for k, c in enumerate(JPLUS_COMPONENTS) if c.a != c.b]
        assert inner == [4, 5, 6, 7, 8, 9, 10, 11, 12]
        instance = generate(GeneratorSpec(V=V, d=d, T=T, seed=seed, w_mode=w_mode))
        pert = init_perturbations(instance, init_scale=0.3, seed=seed)
        gs = compute_gradient_set(instance, pert)
        s = score_jplus(gs, AlignmentMode(kind, AlignScale.COSINE))
        assert (np.abs(s[inner]) <= 1.0 + 1e-12).all()

    def test_scale_equivariance(self, make_point):
        instance, pert = make_point(seed=30, w_mode=WMode.FULL_MATRIX)
        gs = compute_gradient_set(instance, pert)
        s = score_jplus(gs, PUSH_RAW)
        np.testing.assert_array_equal(
            score_jplus(doubled(gs), PUSH_RAW), 4.0 * s
        )


class TestAlignmentMode:
    def test_strings_are_coerced(self):
        # the enums compare equal to their strings, so check identity
        mode = AlignmentMode("direct", "cosine")
        assert mode.kind is AlignKind.DIRECT and mode.scale is AlignScale.COSINE
        mode = AlignmentMode(scale="cosine")
        assert mode.kind is AlignKind.AUTO and mode.scale is AlignScale.COSINE

    @pytest.mark.parametrize("kind, scale", [("bogus", "raw"), ("auto", "nonsense"), (None, "raw")])
    def test_unknown_values_rejected(self, kind, scale):
        with pytest.raises(ValueError):
            AlignmentMode(kind, scale)

    def test_string_form_runs_as_the_enum_form(self):
        # uncoerced, "direct" is neither DIRECT nor AUTO and ran as pushforward-raw
        instance = generate(GeneratorSpec(V=6, d=4, T=2, seed=1, w_mode=WMode.SINGLE_ROW))
        pert = init_perturbations(instance, init_scale=0.3, seed=1)
        gs = compute_gradient_set(instance, pert)
        np.testing.assert_array_equal(score_j6(gs, AlignmentMode("direct", "cosine")),
                                      score_j6(gs, DIRECT_COSINE))


class TestResolveAlignment:
    def test_auto_keeps_the_scale(self):
        for scale in AlignScale:
            assert resolve_alignment(AlignmentMode(AlignKind.AUTO, scale), WMode.FULL_MATRIX) == (
                AlignmentMode(AlignKind.PUSHFORWARD, scale)
            )
            assert resolve_alignment(AlignmentMode(AlignKind.AUTO, scale), WMode.SINGLE_ROW) == (
                AlignmentMode(AlignKind.DIRECT, scale)
            )

    def test_explicit_kinds_pass_through(self):
        for w_mode in WMode:
            assert resolve_alignment(PUSH_COSINE, w_mode) is PUSH_COSINE
        for w_mode in (WMode.SINGLE_ROW, WMode.BROADCAST):
            assert resolve_alignment(DIRECT_RAW, w_mode) is DIRECT_RAW

    def test_direct_rejected_on_full_matrix(self):
        with pytest.raises(ValueError, match="full_matrix"):
            resolve_alignment(DIRECT_COSINE, WMode.FULL_MATRIX)

    def test_scores_resolve_auto_per_instance(self, make_point):
        for w_mode in WMode:
            instance, pert = make_point(seed=31, w_mode=w_mode)
            gs = compute_gradient_set(instance, pert)
            for scale in AlignScale:
                auto = AlignmentMode(AlignKind.AUTO, scale)
                resolved = resolve_alignment(auto, w_mode)
                np.testing.assert_array_equal(
                    score_jplus(gs, auto),
                    score_jplus(gs, resolved),
                )


class TestSingleTokenTies:
    """With T=1 under pushforward on FULL_MATRIX the cross matrix is
    symmetric in exact arithmetic, so these score pairs must tie exactly
    and the lowest-index rule, not rounding, decides between them."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        V=st.integers(2, 12),
        d=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([0.0, 0.3, 1.0]),
    )
    def test_symmetric_pairs_bit_equal(self, V, d, seed, scale):
        instance = generate(GeneratorSpec(V=V, d=d, T=1, seed=seed))
        pert = init_perturbations(instance, init_scale=scale, seed=seed)
        gs = compute_gradient_set(instance, pert)
        s15 = score_jplus(gs, PUSH_RAW)
        for a, b in ((5, 6), (10, 12), (11, 13)):
            assert s15[a - 1] == s15[b - 1], (a, b)
        s6 = score_j6(gs, PUSH_RAW)
        assert s6[1] == s6[5]

    def test_slot_map_reads_j6_from_jplus(self, make_point):
        instance, pert = make_point(seed=4, w_mode=WMode.SINGLE_ROW)
        gs = compute_gradient_set(instance, pert)
        s15 = score_jplus(gs, DIRECT_RAW)
        s6 = score_j6(gs, DIRECT_RAW)
        np.testing.assert_array_equal(s6, s15[list(J6_FROM_JPLUS)])


def _products(work):
    """The products of a _Work as a (K, 6, 2, 2) stack: the native Grams
    of the h and of the w blocks, the direct cross, the pushforward
    cross, and the field Grams of the h and of the w blocks."""
    return np.stack([work.grams[:, 0], work.grams[:, 1], work.G[:, ::2, 1::2], work.pushed,
                     work.fields[:, 0], work.fields[:, 1]], axis=1)


def _stacked_products(instance, seeds, scaled, dots=None):
    """The products of the stacked points of ``instance`` drawn at
    ``seeds`` after _scores under pushforward (cosine when ``scaled``),
    formed in the first slices of a _work made for two more points;
    ``dots`` replaces _dots.  Only the slots the alignment forms, in the
    order (h Gram, w Gram, cross, h field Gram, w field Gram)."""
    perts = [init_perturbations(instance, init_scale=0.3, seed=seed) for seed in seeds]
    B = j6opt.model._factor_B(instance, np.stack([p.w for p in perts]))
    fwd = j6opt.model._forward(instance, np.stack([p.h for p in perts]), B)
    work = attribution_mod._work(instance, len(seeds) + 2).take(len(seeds))
    g = j6opt.model._logit_gradients(fwd.logp, instance._target[1], fwd.p, fwd.plogp)
    with pytest.MonkeyPatch.context() as mp:
        if dots is not None:
            mp.setattr(attribution_mod, "_dots", dots)
        b = attribution_mod._Blocks(instance, fwd.A, fwd.B, g, work=work)
        attribution_mod._scores(b, PUSH_COSINE if scaled else PUSH_RAW)
    return _products(b.work)[:, [0, 1, 3, 4, 5] if scaled else [0, 1, 3]].copy()


class TestGramForm:
    """_gram turns stacked 2x2 products into Grams in place: the entry
    <x_0, y_1> is kept as it is, copied to <x_1, y_0>, and a diagonal
    entry that rounds below 0 reads 0.  The stacked Gram comes out so by
    itself, and the pushforward cross at T = 1 is exactly symmetric too."""

    @pytest.mark.parametrize("K", [1, 3])
    def test_sliced_stacks_in_place(self, K):
        # the w and the field Grams of the first K slices of a work made
        # for K + 2, clamped through the work's diagonal views
        rng = np.random.default_rng(K)
        P = rng.normal(size=(K + 2, 25))

        def grams(products):
            work = attribution_mod._Work(products, np.empty((K + 2, 4, 1)),
                                        np.empty((K + 2, 2, 1))).take(K)
            return work, (work.ww, work.fields[:, 0], work.fields[:, 1])

        work, held = grams(P)
        for gram in held:
            gram[:, 0, 0] = -1e-17 * np.abs(gram[:, 0, 0])  # diagonals rounded below 0
        expected = P.copy()
        attribution_mod._gram(work.ww, work.w_diagonal)
        attribution_mod._gram(work.fields, work.field_diagonals)
        for gram in grams(expected)[1]:
            gram[:, 1, 0] = gram[:, 0, 1]
            gram[:, 0, 0] = 0.0
            gram[:, 1, 1] = np.maximum(gram[:, 1, 1], 0.0)
        assert P.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("w_mode", list(WMode))
    @pytest.mark.parametrize("T", [1, 3])
    @pytest.mark.parametrize("K", [1, 3])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_blocks_and_fields(self, w_mode, T, K, scaled):
        instance = generate(GeneratorSpec(V=5, d=3, T=T, seed=7, w_mode=w_mode))
        seeds = list(range(10, 10 + K))
        P = _stacked_products(instance, seeds, scaled)
        grams = [0, 1, 3, 4] if scaled else [0, 1]
        symmetric = grams + ([2] if T == 1 and w_mode is WMode.FULL_MATRIX else [])
        for m in symmetric:
            assert P[:, m, 0, 1].tobytes() == P[:, m, 1, 0].tobytes(), m
        assert (P[:, grams, 0, 0] >= 0.0).all() and (P[:, grams, 1, 1] >= 0.0).all()
        for k, seed in enumerate(seeds):  # each slice is its point alone
            assert P[k].tobytes() == _stacked_products(instance, [seed], scaled)[0].tobytes()
        # where a Gram is formed by _dots (the FULL_MATRIX w Gram, <r, K r>,
        # and the field Grams), a diagonal entry formed below 0 reads 0 and
        # nothing else moves
        original = attribution_mod._dots

        def below_zero(x, y, out):
            original(x, y, out)
            out[..., 0, 0] = -1e-300

        low = _stacked_products(instance, seeds, scaled, below_zero)
        clamped = [1] * (w_mode is WMode.FULL_MATRIX) + [3, 4] * scaled
        assert (low[:, clamped, 0, 0] == 0.0).all()
        low[:, clamped, 0, 0] = P[:, clamped, 0, 0]
        assert low.tobytes() == P.tobytes()


def _old_products(instance, A, B, g, absolute=False):
    """Reference: one point's products (6, 2, 2) as in _products, in the
    formulation the stacked Gram replaced: np.vdot pairs of blocks formed
    one by one, and <r, K r> / T^2 for the w Gram.  The direct cross is
    0 under FULL_MATRIX.  With ``absolute`` the same of |A|, |B| and |g|,
    which bounds each entry's rounding error: gamma_N times it for a
    chain of N roundings."""
    if absolute:
        A, B, g = np.abs(A), np.abs(B), np.abs(g)
    T, full = instance.T, instance.w_mode is WMode.FULL_MATRIX

    def vdots(xs, ys):
        return np.array([[np.vdot(x, y) for y in ys] for x in xs])

    K = A @ A.T
    r = j6opt.model.w_columns(instance, g)
    Kr = np.array([K @ ri for ri in r])
    h = np.array([gi.sum(axis=0) / T @ B for gi in g])
    Bh = np.array([B @ hi for hi in h])
    if full:  # J_i1 . B^T (J_j2 a), J_j2 a = (K 1)^T g_j / T
        BJa = np.array([B.T @ (gi.T @ (K.sum(axis=0) / T)) for gi in g])
        direct, pushed = np.zeros((2, 2)), vdots(h, BJa)
    else:
        direct = vdots(h, [ri @ A / T for ri in r])
        pushed = np.outer(j6opt.model.w_columns(instance, Bh), [x.sum() / T for x in Kr])
    copies = instance.V if instance.w_mode is WMode.BROADCAST else 1
    return np.array([vdots(h, h), vdots(r, Kr) / (T * T), direct, pushed,
                     T * vdots(Bh, Bh), vdots(Kr, Kr) * copies / (T * T)])


class TestStackedProducts:
    """The stacked Gram and the products formed beside it against the
    formulation they replaced (``_old_products``).  The two round
    differently; each is within gamma_N = N u / (1 - N u) (u = 2^-53) of
    the exact value, times the same formulation of the absolute values,
    for any chain of at most N roundings; N = T V + 2 (d + 2 T + 2 V) + 8
    bounds every chain here (a T V-long dot of fields formed from d-, T-
    and V-long sums, and a few scalings).  So they may differ by twice
    that, and by no more."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        V=st.integers(2, 12),
        d=st.integers(1, 6),
        T=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
        w_mode=st.sampled_from(list(WMode)),
        kind=st.sampled_from([AlignKind.DIRECT, AlignKind.PUSHFORWARD]),
        scale=st.sampled_from(list(AlignScale)),
        K=st.sampled_from([1, 3]),
    )
    def test_products_match_the_vdot_formulation(self, V, d, T, seed, w_mode, kind, scale, K):
        full = w_mode is WMode.FULL_MATRIX
        if kind is AlignKind.DIRECT and full:
            kind = AlignKind.PUSHFORWARD  # h and w shapes differ there
        instance = generate(GeneratorSpec(V=V, d=d, T=T, seed=seed, w_mode=w_mode))
        perts = [init_perturbations(instance, init_scale=0.3, seed=seed + k) for k in range(K)]
        B = j6opt.model._factor_B(instance, np.stack([p.w for p in perts]))
        fwd = j6opt.model._forward(instance, np.stack([p.h for p in perts]), B)
        g = j6opt.model._logit_gradients(fwd.logp, instance._target[1], fwd.p, fwd.plogp)
        b = attribution_mod._Blocks(instance, fwd.A, fwd.B, g)
        attribution_mod._scores(b, AlignmentMode(kind, scale))
        got = _products(b.work)
        pushforward, u = kind is AlignKind.PUSHFORWARD, 2.0**-53
        slots = ([0, 1] + [2] * (not full) + [3] * pushforward
                 + [4, 5] * (pushforward and scale is AlignScale.COSINE))
        N = T * V + 2 * (d + 2 * T + 2 * V) + 8
        gamma = N * u / (1 - N * u)
        for k in range(K):
            args = (instance, fwd.A[k], fwd.B[k], g[k])
            want, bound = _old_products(*args), 2 * gamma * _old_products(*args, absolute=True)
            gap = np.abs(got[k, slots] - want[slots])
            assert (gap <= bound[slots]).all(), (gap - bound[slots]).max()


class TestGradientSetValidation:
    def test_unstacked_blocks_rejected(self, make_point):
        instance, pert = make_point(seed=5, w_mode=WMode.FULL_MATRIX)  # V=6, d=4, T=2
        fwd = forward(instance, pert)
        for g, h in (
            (np.zeros((2, 2, 6)), np.zeros(4)),        # a single h block
            (np.zeros((3, 2, 6)), np.zeros((2, 4))),   # three logit gradients
            (np.zeros((2, 6)), np.zeros((2, 4))),      # one position, unstacked
            (np.zeros((2, 2, 6)), np.zeros((1, 4))),
        ):
            with pytest.raises(ValueError, match="stacked"):
                GradientSet(instance, fwd, g, h)

    @pytest.mark.filterwarnings("error")  # raises, with no numpy warning first
    def test_non_finite(self, make_point):
        instance, pert = make_point(seed=5, w_mode=WMode.FULL_MATRIX)
        fwd = forward(instance, pert)
        inf_h = np.zeros((2, 4))
        inf_h[0, 1] = np.inf
        nan_g = np.zeros((2, 2, 6))
        nan_g[1, 0, 3] = np.nan
        for g, h in ((np.zeros((2, 2, 6)), inf_h), (nan_g, np.zeros((2, 4)))):
            with pytest.raises(ValueError, match="finite"):
                GradientSet(instance, fwd, g, h)

    def test_named_blocks_are_views_of_the_stacks(self, make_point):
        instance, pert = make_point(seed=5, w_mode=WMode.FULL_MATRIX)
        gs = compute_gradient_set(instance, pert)
        assert "w" not in vars(gs)  # the w blocks are formed on request only
        np.testing.assert_array_equal(gs.w, gs.g.swapaxes(1, 2) @ gs.fwd.A / instance.T)
        assert gs.h.shape == (2, instance.d) and gs.w.shape == (2, instance.V, instance.d)
        named = ((gs.J11, gs.h, 0), (gs.J12, gs.w, 0), (gs.J21, gs.h, 1), (gs.J22, gs.w, 1))
        for block, stack, k in named:
            assert np.shares_memory(block, stack)
            np.testing.assert_array_equal(block, stack[k])
        with pytest.raises(AttributeError):
            gs.J11 = np.zeros(instance.d)

    @pytest.mark.parametrize("w_mode", [WMode.SINGLE_ROW, WMode.BROADCAST])
    def test_d_vector_w_blocks_are_the_stacked_ones(self, make_point, w_mode, monkeypatch):
        # where w is a d-vector, gs.w is the w rows of the stacked blocks the
        # Grams are formed from, bit for bit the pullback it would take,
        # and reading it takes no second pullback
        instance, pert = make_point(seed=5, w_mode=w_mode)
        gs = compute_gradient_set(instance, pert)
        want = j6opt.model._pullback(instance, gs.fwd.A, gs.g) / instance.T
        monkeypatch.setattr(attribution_mod, "_pullback", None)
        assert gs.w.tobytes() == want.tobytes() and gs.w.shape == (2, instance.d)
        assert np.shares_memory(gs.J12, gs._blocks.work.X)


# The component table as first written out by hand: labels in component
# order, the six j6 slot labels, and each component's action
# ((J11, J21), (J12, J22)) with "b" standing for beta_aux.
PINNED_JPLUS_LABELS = (
    "h_heat_strength", "w_heat_strength", "h_conf_strength", "w_conf_strength",
    "align_hheat_wconf", "align_hconf_wheat", "h_consistency", "w_consistency",
    "joint_alignment", "hheat_vs_total_w", "hconf_vs_total_w", "wheat_vs_total_h",
    "wconf_vs_total_h", "h_total_strength", "w_total_strength",
)
PINNED_J6_LABELS = (
    "h_heat_strength", "align_hheat_wconf", "w_heat_strength",
    "h_conf_strength", "w_conf_strength", "align_hconf_wheat",
)
PINNED_ACTIONS = (
    ((1.0, 0.0), (0.0, 0.0)),
    ((0.0, 0.0), (1.0, 0.0)),
    ((0.0, 1.0), (0.0, 0.0)),
    ((0.0, 0.0), (0.0, 1.0)),
    ((1.0, 0.0), (0.0, 1.0)),
    ((0.0, 1.0), (1.0, 0.0)),
    ((1.0, 1.0), (0.0, 0.0)),
    ((0.0, 0.0), (1.0, 1.0)),
    ((1.0, 1.0), (1.0, 1.0)),
    ((1.0, 0.0), ("b", "b")),
    ((0.0, 1.0), ("b", "b")),
    (("b", "b"), (1.0, 0.0)),
    (("b", "b"), (0.0, 1.0)),
    ((1.0, 1.0), (0.0, 0.0)),
    ((0.0, 0.0), (1.0, 1.0)),
)


class TestComponentTable:
    def test_labels_pinned(self):
        assert tuple(c.label for c in JPLUS_COMPONENTS) == PINNED_JPLUS_LABELS
        assert J6_LABELS == PINNED_J6_LABELS

    def test_actions_pinned(self):
        got = tuple(
            tuple(tuple("b" if x is BETA_AUX else x for x in pair) for pair in c.action)
            for c in JPLUS_COMPONENTS
        )
        assert got == PINNED_ACTIONS


# The (4, 63) cosine gather tables of _TERMS, direct then pushforward;
# the raw tables are their first 21 columns.
PINNED_TERMS = (
    (  # direct
        [0, 5, 10, 15, 3, 9, 2, 7, 1, 1, 9, 1, 3, 0, 5, 0, 3, 5, 10, 15, 9, 0, 5, 10, 15, 0, 10, 0,
         5, 0, 0, 10, 0, 0, 0, 5, 0, 0, 5, 10, 15, 10, 0, 5, 10, 15, 15, 5, 10, 15, 5, 5, 5, 5, 15,
         0, 5, 0, 15, 5, 10, 15, 5],
        [24, 24, 24, 24, 24, 24, 24, 24, 3, 3, 11, 9, 11, 2, 7, 24, 24, 24, 24, 24, 24, 24, 24, 24,
         24, 24, 24, 24, 24, 2, 24, 24, 2, 2, 2, 7, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24,
         24, 24, 7, 7, 7, 24, 24, 2, 7, 24, 24, 24, 24, 24, 24],
        [24, 24, 24, 24, 24, 24, 24, 24, 9, 24, 24, 24, 24, 8, 13, 24, 24, 24, 24, 24, 24, 24, 24,
         24, 24, 24, 24, 24, 24, 8, 24, 24, 8, 8, 8, 13, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24,
         24, 24, 24, 24, 13, 13, 13, 24, 24, 8, 13, 24, 24, 24, 24, 24, 24],
        [24, 24, 24, 24, 24, 24, 24, 24, 11, 24, 24, 24, 24, 10, 15, 24, 24, 24, 24, 24, 24, 24,
         24, 24, 24, 24, 24, 24, 24, 10, 24, 24, 10, 10, 10, 15, 24, 24, 24, 24, 24, 24, 24, 24,
         24, 24, 24, 24, 24, 24, 15, 15, 15, 24, 24, 10, 15, 24, 24, 24, 24, 24, 24],
    ),
    (  # pushforward
        [0, 5, 10, 15, 12, 6, 2, 7, 4, 4, 6, 4, 12, 0, 5, 0, 12, 5, 10, 15, 6, 0, 5, 10, 15, 16,
         19, 0, 5, 16, 16, 19, 16, 16, 0, 5, 0, 16, 5, 10, 15, 19, 0, 5, 10, 15, 23, 20, 10, 15,
         20, 20, 20, 20, 23, 0, 5, 0, 23, 5, 10, 15, 20],
        [24, 24, 24, 24, 24, 24, 24, 24, 12, 12, 14, 6, 14, 2, 7, 24, 24, 24, 24, 24, 24, 24, 24,
         24, 24, 24, 24, 24, 24, 17, 24, 24, 17, 17, 2, 7, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24,
         24, 24, 24, 24, 21, 21, 21, 24, 24, 2, 7, 24, 24, 24, 24, 24, 24],
        [24, 24, 24, 24, 24, 24, 24, 24, 6, 24, 24, 24, 24, 8, 13, 24, 24, 24, 24, 24, 24, 24, 24,
         24, 24, 24, 24, 24, 24, 18, 24, 24, 18, 18, 8, 13, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24,
         24, 24, 24, 24, 22, 22, 22, 24, 24, 8, 13, 24, 24, 24, 24, 24, 24],
        [24, 24, 24, 24, 24, 24, 24, 24, 14, 24, 24, 24, 24, 10, 15, 24, 24, 24, 24, 24, 24, 24,
         24, 24, 24, 24, 24, 24, 24, 19, 24, 24, 19, 19, 10, 15, 24, 24, 24, 24, 24, 24, 24, 24,
         24, 24, 24, 24, 24, 24, 23, 23, 23, 24, 24, 10, 15, 24, 24, 24, 24, 24, 24],
    ),
)


class TestGatherTables:
    """_TERMS, built from the offsets a _Work's own views read."""

    @pytest.mark.parametrize("pushforward", [False, True])
    def test_tables_pinned(self, pushforward):
        raw, cosine = attribution_mod._TERMS[pushforward]
        expected = np.array(PINNED_TERMS[pushforward])
        assert cosine.dtype == raw.dtype == np.int64
        np.testing.assert_array_equal(cosine, expected)
        np.testing.assert_array_equal(raw, expected[:, :21])
        assert raw.flags.c_contiguous
