"""Hard routing, soft weighting, the contrast step, and the baselines,
all through the one step function ``decide``, whose coefficient matrix
is applied here to explicit blocks as ``run`` applies it."""

import re
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import j6opt.strategies as strategies_mod
from j6opt import (
    J6_FROM_JPLUS,
    AlignKind,
    PreNorm,
    ProblemInstance,
    StrategyConfig,
    StrategyKind,
    decide,
    zero_perturbations,
)
from j6opt.optimizer import _Batch

ETA = 0.1


class Blocks(NamedTuple):
    """The four blocks, stacked by objective: h = (J11, J21), w = (J12, J22)."""

    h: np.ndarray
    w: np.ndarray

    J11 = property(lambda self: self.h[0])
    J12 = property(lambda self: self.w[0])
    J21 = property(lambda self: self.h[1])
    J22 = property(lambda self: self.w[1])


def grams(h, w):
    """The native 2x2 Grams of the h and the w blocks, by np.vdot."""
    return [[[float(np.vdot(a, b)) for b in x] for a in x] for x in (h, w)]


def decide_one(scores, grams, c):
    """``decide`` for one strategy, the K = 1 call, given the strategy's
    own score vector (the 15 J+ components for hard-jplus, else the 6
    j6 slots)."""
    s = np.asarray(scores, dtype=np.float64)
    jplus, j6 = (s, s[list(J6_FROM_JPLUS)]) if s.size == 15 else (np.zeros(15), s)
    coef, chosen, alpha = decide(jplus[None], j6[None], np.asarray(grams, dtype=np.float64)[None], [c])
    return SimpleNamespace(c=coef[0], chosen_index=chosen[0], alpha=alpha[0])


def soft_weights(s, c):
    """The soft weights of one score vector: the K = 1 call of the plan."""
    return strategies_mod._Rules([c]).soft_weights(np.asarray(s, dtype=np.float64)[None])[0]


def contrast_weights(weights, gamma):
    """The contrast step on one weight vector: the K = 1 call, with the
    gamma groups of a one-configuration plan."""
    plan = strategies_mod._Rules([StrategyConfig(kind=StrategyKind.SOFT, gamma=gamma)])
    return strategies_mod._contrast(np.asarray(weights, dtype=np.float64)[None], plan.gammas)[0]


def step(scores, gs, c):
    """``decide``'s coefficient matrix applied to the blocks of gs:
    delta_h = -eta_h (c00 J11 + c01 J21), delta_w = -eta_w (c10 J12 + c11 J22)."""
    decision = decide_one(scores, grams(gs.h, gs.w), c)
    (c00, c01), (c10, c11) = decision.c
    return SimpleNamespace(
        delta_h=-c.eta_h * (c00 * gs.h[0] + c01 * gs.h[1]),
        delta_w=-c.eta_w * (c10 * gs.w[0] + c11 * gs.w[1]),
        chosen_index=decision.chosen_index,
        alpha=decision.alpha,
    )


@pytest.fixture
def gs():
    return Blocks(
        h=np.array([[1.0, 0.0], [2.0, 0.0]]),  # J11, J21
        w=np.array([[1.0, 1.0], [0.0, 2.0]]),  # J12, J22
    )


def cfg(kind=StrategyKind.HARD_J6, **kw):
    kw.setdefault("eta_h", ETA)
    kw.setdefault("eta_w", ETA)
    return StrategyConfig(kind=kind, **kw)


def one_hot(n, index):
    s = np.zeros(n)
    s[index] = 1.0
    return s


def projected(g1, g2):
    """The two conflict-projected gradients, through the projection the
    grad-surgery strategy runs (rows over (g1, g2), from their Gram)."""
    (a, b), (c, d) = strategies_mod._projection(grams(np.array([g1, g2]), np.array([g1, g2]))[0])
    return a * g1 + b * g2, c * g1 + d * g2


class TestStrategyConfigValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            {"tau": 0.0},
            {"tau": -1.0},
            {"gamma": 1.0},
            {"eta_h": 0.0},
            {"eta_w": -0.5},
            {"beta_aux": 1.5},
            {"lam": (0.7, 0.7)},
            {"lam": (-0.1, 1.1)},
        ],
    )
    def test_rejected(self, bad):
        with pytest.raises(ValueError):
            StrategyConfig(kind=StrategyKind.SOFT, **bad)

    @pytest.mark.parametrize("field", ["tau", "gamma", "eta_h", "eta_w", "beta_aux"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, True, np.True_, "1.5", None, 1j])
    def test_float_fields_strict(self, field, value):
        with pytest.raises(ValueError, match=f"'{field}' must be a finite real number"):
            StrategyConfig(kind=StrategyKind.SOFT, **{field: value})

    @pytest.mark.parametrize(
        "lam, field",
        [((np.nan, np.nan), "lam[0]"), ((True, False), "lam[0]"), ((0.5, np.inf), "lam[1]"),
         ((1, "0"), "lam[1]")],
    )
    def test_lam_entries_strict(self, lam, field):
        with pytest.raises(ValueError, match=f"'{re.escape(field)}' must be a finite real number"):
            StrategyConfig(kind=StrategyKind.SCALARIZED, lam=lam)

    @pytest.mark.parametrize("lam", [(0.5,), 0.5, (0.5, 0.5, 7.0), (), None])
    def test_lam_must_be_a_pair(self, lam):
        with pytest.raises(ValueError, match="'lam' must be a pair of numbers"):
            StrategyConfig(kind=StrategyKind.SCALARIZED, lam=lam)

    def test_real_numbers_accepted(self):
        c = StrategyConfig(kind=StrategyKind.SOFT, tau=2, gamma=np.float32(3.0), lam=(1, 0))
        assert c.tau == 2 and c.lam == (1.0, 0.0)

    @pytest.mark.parametrize("alignment", ["direct", ("direct", "cosine"), None, AlignKind.DIRECT])
    def test_alignment_must_be_a_mode(self, alignment):
        # rejected here, not later inside run as an AttributeError
        with pytest.raises(ValueError, match="'alignment' must be an AlignmentMode"):
            StrategyConfig(kind=StrategyKind.SOFT, alignment=alignment)


class TestHardRouteJ6:
    def test_handpicked_scores(self, gs):
        decision = step(np.array([1.0, 0.0, 2.0, 4.0, 4.0, 2.0]), gs, cfg())
        assert decision.chosen_index == 3
        np.testing.assert_allclose(decision.delta_h, -ETA * np.array([2.0, 0.0]))
        np.testing.assert_array_equal(decision.delta_w, np.zeros(2))

    def test_tie_breaks_to_lowest_index(self, gs):
        decision = step(np.array([5.0, 0.0, 5.0, 1.0, 1.0, 0.0]), gs, cfg())
        assert decision.chosen_index == 0

    def test_zero_gradients_give_zero_deltas(self):
        zeros = Blocks(np.zeros((2, 2)), np.zeros((2, 2)))
        decision = step(np.zeros(6), zeros, cfg())
        np.testing.assert_array_equal(decision.delta_h, np.zeros(2))
        np.testing.assert_array_equal(decision.delta_w, np.zeros(2))

    @pytest.mark.parametrize(
        "index,h_block,w_block",
        [
            (0, "J11", None),
            (1, "J11", "J22"),
            (2, None, "J12"),
            (3, "J21", None),
            (4, None, "J22"),
            (5, "J21", "J12"),
        ],
    )
    def test_action_map(self, gs, index, h_block, w_block):
        decision = step(one_hot(6, index), gs, cfg())
        expected_h = -ETA * getattr(gs, h_block) if h_block else np.zeros(2)
        expected_w = -ETA * getattr(gs, w_block) if w_block else np.zeros(2)
        np.testing.assert_allclose(decision.delta_h, expected_h)
        np.testing.assert_allclose(decision.delta_w, expected_w)

    def test_deterministic(self, gs):
        scores = np.array([0.3, 0.3, 0.3, 0.1, 0.1, 0.3])
        picks = {step(scores, gs, cfg()).chosen_index for _ in range(5)}
        assert picks == {0}

    def test_actions_are_jplus_actions_at_the_slot_map(self, gs):
        """Slot k routes exactly like j+ component J6_FROM_JPLUS[k] + 1."""
        assert sorted(J6_FROM_JPLUS) == list(range(6))
        for slot, row in enumerate(J6_FROM_JPLUS):
            j6 = step(one_hot(6, slot), gs, cfg())
            jplus = step(one_hot(15, row), gs, cfg(StrategyKind.HARD_JPLUS))
            assert jplus.chosen_index == row + 1
            np.testing.assert_array_equal(j6.delta_h, jplus.delta_h)
            np.testing.assert_array_equal(j6.delta_w, jplus.delta_w)


class TestHardRouteJPlus:
    def test_zero_gradients(self):
        zeros = Blocks(np.zeros((2, 2)), np.zeros((2, 2)))
        decision = step(np.zeros(15), zeros, cfg(StrategyKind.HARD_JPLUS))
        assert decision.chosen_index == 1
        np.testing.assert_array_equal(decision.delta_h, np.zeros(2))
        np.testing.assert_array_equal(decision.delta_w, np.zeros(2))

    def test_cross_alignment_action_updates_both(self, gs):
        # component 5: the (h->heat, w->conf) coupling
        decision = step(one_hot(15, 4), gs, cfg(StrategyKind.HARD_JPLUS))
        assert decision.chosen_index == 5
        np.testing.assert_allclose(decision.delta_h, -ETA * gs.J11)
        np.testing.assert_allclose(decision.delta_w, -ETA * gs.J22)

    def test_prioritize_with_auxiliary_group(self, gs):
        # component 10: h leads on heat, w assists at beta
        decision = step(one_hot(15, 9), gs, cfg(StrategyKind.HARD_JPLUS, beta_aux=0.5))
        assert decision.chosen_index == 10
        np.testing.assert_allclose(decision.delta_h, -ETA * gs.J11)
        np.testing.assert_allclose(decision.delta_w, -ETA * 0.5 * (gs.J12 + gs.J22))

    def test_auxiliary_h_side(self, gs):
        # component 13: w leads on conf, h assists at beta
        decision = step(one_hot(15, 12), gs, cfg(StrategyKind.HARD_JPLUS, beta_aux=0.25))
        assert decision.chosen_index == 13
        np.testing.assert_allclose(decision.delta_h, -ETA * 0.25 * (gs.J11 + gs.J21))
        np.testing.assert_allclose(decision.delta_w, -ETA * gs.J22)

    def test_duplicate_components_share_actions(self, gs):
        # 14 duplicates 7 and 15 duplicates 8 by construction
        for a, b in ((7, 14), (8, 15)):
            da = step(one_hot(15, a - 1), gs, cfg(StrategyKind.HARD_JPLUS))
            db = step(one_hot(15, b - 1), gs, cfg(StrategyKind.HARD_JPLUS))
            np.testing.assert_array_equal(da.delta_h, db.delta_h)
            np.testing.assert_array_equal(da.delta_w, db.delta_w)


class TestContrastWeights:
    def test_normalized_worked_example(self):
        alpha = contrast_weights(np.array([0.5, 0.3, 0.1, 0.1]), 2.0)
        expected = np.array([0.25, 0.09, 0.01, 0.01]) / 0.36
        np.testing.assert_allclose(alpha, expected, rtol=0, atol=1e-12)


class TestSoftWeights:
    def test_constant_scores_give_uniform_weights(self):
        for tau, gamma in ((0.1, 2.0), (1.0, 3.0), (10.0, 1.5)):
            alpha = soft_weights(np.full(6, 4.2), cfg(StrategyKind.SOFT, tau=tau, gamma=gamma))
            np.testing.assert_allclose(alpha, np.full(6, 1.0 / 6.0), rtol=1e-14)

    def test_probability_vector_for_all_inputs(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            s = rng.normal(size=6) * float(rng.uniform(0.01, 100))
            alpha = soft_weights(s, cfg(StrategyKind.SOFT, tau=float(rng.uniform(0.01, 10))))
            assert (alpha >= 0.0).all()
            assert abs(alpha.sum() - 1.0) < 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        s=st.lists(st.floats(-50.0, 50.0), min_size=6, max_size=6),
        shift=st.floats(-100.0, 100.0),
        tau=st.floats(0.05, 10.0),
        gamma=st.floats(1.01, 5.0),
    )
    def test_shift_invariance_property(self, s, shift, tau, gamma):
        # softmax(s / tau) is invariant to adding a constant to s; only the
        # rounding of s + shift and of the exponentials differs
        c = cfg(StrategyKind.SOFT, tau=tau, gamma=gamma)
        s = np.array(s)
        np.testing.assert_allclose(soft_weights(s + shift, c), soft_weights(s, c),
                                   rtol=1e-9, atol=1e-12)

    def test_invariant_to_constant_shift(self):
        rng = np.random.default_rng(19)
        c = cfg(StrategyKind.SOFT, tau=0.7)
        for _ in range(50):
            s = rng.normal(size=6)
            np.testing.assert_allclose(
                soft_weights(s, c), soft_weights(s + 11.25, c), atol=1e-12
            )

    def test_gamma_sharpens_contrast(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            s = rng.normal(size=6)
            gammas = (1.5, 2.0, 3.0, 5.0)
            alphas = [soft_weights(s, cfg(StrategyKind.SOFT, gamma=g)) for g in gammas]
            for lo, hi in zip(alphas, alphas[1:]):
                assert hi.max() >= lo.max() - 1e-12
                assert hi.min() <= lo.min() + 1e-12

    def test_maxabs_pre_norm_makes_tau_scale_free(self):
        s = np.array([4.0, -1.0, 2.5, 0.5, 3.0, -2.0])
        c = cfg(StrategyKind.SOFT, tau=0.5, pre_norm=PreNorm.MAXABS)
        np.testing.assert_allclose(soft_weights(s, c), soft_weights(1e4 * s, c), atol=1e-9)

    def test_small_tau_approaches_argmax(self):
        s = np.array([0.1, 0.2, 0.9, 0.3, 0.4, 0.2])
        alpha = soft_weights(s, cfg(StrategyKind.SOFT, tau=1e-3))
        assert alpha[2] > 1.0 - 1e-9

    def test_huge_gamma_on_equal_scores_stays_uniform(self):
        # (1/6)**500 underflows in every entry, so the contrast step must
        # not be given the normalized softmax (0/0 = NaN)
        alpha = soft_weights(np.zeros(6), cfg(StrategyKind.SOFT, gamma=500.0))
        np.testing.assert_array_equal(alpha, np.full(6, 1.0 / 6.0))

    def test_tiny_tau_is_the_argmax(self):
        # s / 1e-310 overflows; the max must stay at exp(0), not exp(inf - inf)
        s = np.array([0.1, 0.2, 0.9, 0.3, 0.4, 0.2])
        alpha = soft_weights(s, cfg(StrategyKind.SOFT, tau=1e-310))
        np.testing.assert_array_equal(alpha, np.eye(6)[2])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        s=st.lists(st.floats(-1e300, 1e300), min_size=6, max_size=6),
        tau=st.one_of(st.floats(5e-324, 1e-300), st.floats(1e-300, 1e300)),
        gamma=st.one_of(st.floats(1.0, 1e308, exclude_min=True), st.just(1e308)),
        maxabs=st.booleans(),
    )
    def test_weights_finite_for_any_valid_knobs(self, s, tau, gamma, maxabs):
        c = cfg(StrategyKind.SOFT, tau=tau, gamma=gamma,
                pre_norm=PreNorm.MAXABS if maxabs else PreNorm.NONE)
        alpha = soft_weights(np.array(s), c)
        assert np.isfinite(alpha).all() and (alpha >= 0.0).all()
        assert abs(alpha.sum() - 1.0) <= 1e-12


class TestSoftUpdate:
    def test_degenerate_weights_recover_single_direction(self, gs):
        # at tau=1e-3 a unit score gap underflows the other weights to 0
        decision = step(one_hot(6, 0), gs, cfg(StrategyKind.SOFT, tau=1e-3))
        np.testing.assert_array_equal(decision.alpha, one_hot(6, 0))
        np.testing.assert_allclose(decision.delta_h, -ETA * gs.J11)
        np.testing.assert_array_equal(decision.delta_w, np.zeros(2))

    def test_uniform_weights_blend_linearly(self, gs):
        decision = step(np.full(6, 0.7), gs, cfg(StrategyKind.SOFT))
        np.testing.assert_allclose(decision.alpha, np.full(6, 1.0 / 6.0), rtol=1e-14)
        np.testing.assert_allclose(decision.delta_h, -ETA * (gs.J11 + gs.J21) / 6.0)
        np.testing.assert_allclose(decision.delta_w, -ETA * (gs.J12 + gs.J22) / 6.0)

    def test_cold_limit_matches_hard_action(self, gs):
        # strict max at slot 4 (w -> confidence)
        s = np.array([0.1, 0.0, 0.2, 0.15, 0.9, 0.05])
        soft = step(s, gs, cfg(StrategyKind.SOFT, tau=1e-3))
        hard = step(s, gs, cfg())
        num = np.linalg.norm(soft.delta_h - hard.delta_h) + np.linalg.norm(
            soft.delta_w - hard.delta_w
        )
        den = np.linalg.norm(hard.delta_h) + np.linalg.norm(hard.delta_w)
        assert num / den < 1e-3


class TestStaticBaseline:
    def test_fixed_roles(self, gs):
        decision = step(np.zeros(6), gs, cfg(StrategyKind.STATIC))
        assert decision.chosen_index is None and decision.alpha is None
        np.testing.assert_allclose(decision.delta_h, -ETA * gs.J11)
        np.testing.assert_allclose(decision.delta_w, -ETA * gs.J22)

    def test_stalls_when_its_route_is_dead(self):
        gs = Blocks(h=np.zeros((2, 2)), w=np.array([[5.0, 5.0], [0.0, 0.0]]))
        decision = step(np.ones(6), gs, cfg(StrategyKind.STATIC))
        np.testing.assert_array_equal(decision.delta_h, np.zeros(2))
        np.testing.assert_array_equal(decision.delta_w, np.zeros(2))

    def test_equals_hard_route_when_coupling_slot_wins(self, gs):
        s = np.array([0.0, 9.0, 0.0, 0.0, 0.0, 0.0])
        hard = step(s, gs, cfg())
        static = step(s, gs, cfg(StrategyKind.STATIC))
        np.testing.assert_array_equal(hard.delta_h, static.delta_h)
        np.testing.assert_array_equal(hard.delta_w, static.delta_w)


class TestScalarizedBaseline:
    def test_pure_heat(self, gs):
        decision = step(np.zeros(6), gs, cfg(StrategyKind.SCALARIZED, lam=(1.0, 0.0)))
        np.testing.assert_allclose(decision.delta_h, -ETA * gs.J11)
        np.testing.assert_allclose(decision.delta_w, -ETA * gs.J12)

    def test_even_blend_matches_uniform_soft_up_to_scale(self, gs):
        scal = step(np.zeros(6), gs, cfg(StrategyKind.SCALARIZED, lam=(0.5, 0.5)))
        soft = step(np.full(6, 0.7), gs, cfg(StrategyKind.SOFT))
        np.testing.assert_allclose(scal.delta_h, 3.0 * soft.delta_h)
        np.testing.assert_allclose(scal.delta_w, 3.0 * soft.delta_w)

    def test_zero_gradients(self):
        zeros = Blocks(np.zeros((2, 2)), np.zeros((2, 2)))
        decision = step(np.zeros(6), zeros, cfg(StrategyKind.SCALARIZED))
        np.testing.assert_array_equal(decision.delta_h, np.zeros(2))
        np.testing.assert_array_equal(decision.delta_w, np.zeros(2))


class TestGradSurgery:
    def test_antiparallel_gradients_cancel(self):
        g1p, g2p = projected(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
        np.testing.assert_array_equal(g1p, np.zeros(2))
        np.testing.assert_array_equal(g2p, np.zeros(2))
        anti = Blocks(
            h=np.array([[1.0, 0.0], [-1.0, 0.0]]),  # J11, J21
            w=np.array([[0.0, 3.0], [0.0, -3.0]]),  # J12, J22
        )
        decision = step(np.zeros(6), anti, cfg(StrategyKind.GRAD_SURGERY))
        np.testing.assert_array_equal(decision.delta_h, np.zeros(2))
        np.testing.assert_array_equal(decision.delta_w, np.zeros(2))

    def test_no_conflict_is_scalarized_at_double_scale(self, gs):
        # every group pair here has a non-negative inner product
        assert float(gs.J11 @ gs.J21) >= 0 and float(gs.J12 @ gs.J22) >= 0
        surgery = step(np.zeros(6), gs, cfg(StrategyKind.GRAD_SURGERY))
        scal = step(np.zeros(6), gs, cfg(StrategyKind.SCALARIZED, lam=(0.5, 0.5)))
        np.testing.assert_allclose(surgery.delta_h, 2.0 * scal.delta_h)
        np.testing.assert_allclose(surgery.delta_w, 2.0 * scal.delta_w)

    def test_projections_remove_conflict(self):
        rng = np.random.default_rng(37)
        for _ in range(1000):
            dim = int(rng.integers(2, 8))
            g1, g2 = rng.normal(size=dim), rng.normal(size=dim)
            g1p, g2p = projected(g1, g2)
            assert float(g1p @ g2) >= -1e-10
            assert float(g2p @ g1) >= -1e-10
            # the step is the sum of the two projected gradients
            decision = step(np.zeros(6), Blocks(np.array([g1, g2]), np.array([g1, g2])),
                              cfg(StrategyKind.GRAD_SURGERY))
            np.testing.assert_allclose(decision.delta_h, -ETA * (g1p + g2p),
                                       rtol=1e-12, atol=1e-15)

    def test_underflowing_norm_is_not_projected(self):
        # |J11|^2 rounds to 0 while <J11, J21> < 0: nothing to project
        # off, and no division by the zero norm
        gs = Blocks(h=np.array([[1e-170], [-1e10]]), w=np.zeros((2, 1)))
        decision = step(np.zeros(6), gs, cfg(StrategyKind.GRAD_SURGERY))
        np.testing.assert_array_equal(decision.delta_h, -ETA * (gs.J11 + gs.J21))

    def test_zero_co_gradient_passes_through(self):
        g1, g2 = np.array([3.0, 1.0]), np.zeros(2)
        g1p, g2p = projected(g1, g2)
        np.testing.assert_array_equal(g1p, g1)
        np.testing.assert_array_equal(g2p, g2)


# -- decide against the per-strategy formulas it replaced ---------------------


def _reference(scores, gs, c):
    """The per-strategy step functions ``decide`` replaced, written out:
    hand-written action dicts, block sums, and the explicit mutual
    projection.  Returns (delta_h, delta_w, chosen_index, alpha)."""

    def deltas(h_dir, w_dir):
        dh = -c.eta_h * h_dir if h_dir is not None else np.zeros_like(gs.J11)
        dw = -c.eta_w * w_dir if w_dir is not None else np.zeros_like(gs.J12)
        return dh, dw

    def project(g1, g2):
        f1, f2 = g1.ravel(), g2.ravel()
        dot = float(f1 @ f2)
        if dot >= 0.0:
            return g1, g2
        return g1 - (dot / float(f2 @ f2)) * g2, g2 - (dot / float(f1 @ f1)) * g1

    kind = c.kind
    if kind in (StrategyKind.HARD_J6, StrategyKind.HARD_JPLUS):
        s = np.asarray(scores, dtype=np.float64)
        jplus = kind is StrategyKind.HARD_JPLUS
        idx = int(np.argmax(s)) + jplus
        if np.all(s == 0.0):
            return (*deltas(None, None), idx, None)
        if not jplus:
            actions = {
                0: (gs.J11, None), 1: (gs.J11, gs.J22), 2: (None, gs.J12),
                3: (gs.J21, None), 4: (None, gs.J22), 5: (gs.J21, gs.J12),
            }
        else:
            sum_h, sum_w, beta = gs.J11 + gs.J21, gs.J12 + gs.J22, c.beta_aux
            actions = {
                1: (gs.J11, None), 2: (None, gs.J12), 3: (gs.J21, None), 4: (None, gs.J22),
                5: (gs.J11, gs.J22), 6: (gs.J21, gs.J12), 7: (sum_h, None),
                8: (None, sum_w), 9: (sum_h, sum_w), 10: (gs.J11, beta * sum_w),
                11: (gs.J21, beta * sum_w), 12: (beta * sum_h, gs.J12),
                13: (beta * sum_h, gs.J22), 14: (sum_h, None), 15: (None, sum_w),
            }
        return (*deltas(*actions[idx]), idx, None)
    if kind is StrategyKind.SOFT:
        a = soft_weights(scores, c)
        dh = -c.eta_h * (a[0] * gs.J11 + a[3] * gs.J21)
        dw = -c.eta_w * (a[2] * gs.J12 + a[4] * gs.J22)
        return dh, dw, None, a
    if kind is StrategyKind.STATIC:
        return (*deltas(gs.J11, gs.J22), None, None)
    if kind is StrategyKind.SCALARIZED:
        l1, l2 = c.lam
        return (*deltas(l1 * gs.J11 + l2 * gs.J21, l1 * gs.J12 + l2 * gs.J22), None, None)
    h1, h2 = project(gs.J11, gs.J21)
    w1, w2 = project(gs.J12, gs.J22)
    return -c.eta_h * (h1 + h2), -c.eta_w * (w1 + w2), None, None


_DYADIC_BETAS = (0.0, 0.125, 0.25, 0.5, 1.0)


@st.composite
def _decision_cases(draw):
    kind = draw(st.sampled_from(list(StrategyKind)))
    d = draw(st.integers(1, 6))
    V = draw(st.integers(2, 6))
    w_shape = draw(st.sampled_from([(d,), (V, d)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for shape in ((d,), w_shape, (d,), w_shape):
        zero = draw(st.booleans()) and draw(st.booleans())
        blocks.append(np.zeros(shape) if zero else rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3))
    # The second h and w blocks are sometimes a multiple of the first,
    # so exactly (anti)parallel pairs are covered too.
    if draw(st.booleans()):
        blocks[2] = draw(st.sampled_from([-2.0, -1.0, 0.5])) * blocks[0]
    n = 15 if kind is StrategyKind.HARD_JPLUS else 6
    # all zero (the hard routes' zero step), small integers (ties), or spread
    score_kind = draw(st.sampled_from(["zero", "ties", "spread"]))
    if score_kind == "zero":
        scores = np.zeros(n)
    elif score_kind == "ties":
        scores = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), float)
    else:
        scores = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
    dyadic = draw(st.booleans())
    beta = draw(st.sampled_from(_DYADIC_BETAS)) if dyadic else draw(st.floats(0.0, 1.0))
    l1 = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 0.3, 0.7]))
    c = StrategyConfig(
        kind=kind,
        tau=draw(st.floats(1e-3, 10.0)),
        gamma=draw(st.floats(1.5, 5.0)),
        eta_h=draw(st.floats(1e-3, 1.0)),
        eta_w=draw(st.floats(1e-3, 1.0)),
        beta_aux=beta,
        lam=(l1, 1.0 - l1),
        pre_norm=draw(st.sampled_from(list(PreNorm))),
    )
    gs = Blocks(np.array([blocks[0], blocks[2]]), np.array([blocks[1], blocks[3]]))
    return scores, gs, c


class TestDecideMatchesPerStrategyFormulas:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_decision_cases())
    def test_matches_reference(self, case):
        """Bit-equal wherever every coefficient is 0/1, a soft weight, a
        lam entry or a power-of-two beta; within rtol 1e-14 of the terms
        summed for grad-surgery and for any other beta."""
        scores, gs, c = case
        got = step(scores, gs, c)
        dh, dw, chosen, alpha = _reference(scores, gs, c)
        assert got.chosen_index == chosen
        if alpha is None:
            assert got.alpha is None
        else:
            np.testing.assert_array_equal(got.alpha, alpha)
        exact = c.kind is not StrategyKind.GRAD_SURGERY and (
            c.kind is not StrategyKind.HARD_JPLUS or c.beta_aux in _DYADIC_BETAS
        )
        for new, ref, eta, pair in (
            (got.delta_h, dh, c.eta_h, (gs.J11, gs.J21)),
            (got.delta_w, dw, c.eta_w, (gs.J12, gs.J22)),
        ):
            if exact:
                np.testing.assert_array_equal(new, ref)
            else:
                scale = eta * float(np.abs(pair[0]).max() + np.abs(pair[1]).max())
                np.testing.assert_allclose(new, ref, rtol=1e-14, atol=1e-14 * scale)


# -- the plan: a batch's configurations compiled once --------------------------


@st.composite
def _plans(draw):
    """1-12 configurations of all six kinds, whose taus and gammas are
    sometimes shared and sometimes distinct, with random pre_norm,
    beta_aux and lam, and a row of scores and Grams for each: some score
    rows all zero or tied, some Grams in conflict or with a zero norm."""
    K = draw(st.integers(1, 12))
    cfgs = []
    for _ in range(K):
        l1 = draw(st.floats(0.0, 1.0))
        cfgs.append(StrategyConfig(
            kind=draw(st.sampled_from(list(StrategyKind))),
            tau=draw(st.one_of(st.sampled_from([0.05, 1.0, 7.5]), st.floats(1e-3, 1e3))),
            gamma=draw(st.one_of(st.sampled_from([2.0, 3.0]), st.floats(1.01, 50.0))),
            beta_aux=draw(st.floats(0.0, 1.0)),
            lam=(l1, 1.0 - l1),
            pre_norm=draw(st.sampled_from(list(PreNorm))),
        ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    jplus = rng.normal(size=(K, 15)) * 10.0 ** rng.uniform(-3, 3, size=(K, 1))
    tied = rng.random(K) < 0.3
    jplus[tied] = rng.integers(-2, 3, size=(int(tied.sum()), 15))
    jplus[rng.random(K) < 0.2] = 0.0
    # per run and group, two operands whose Gram is taken; some second ones zero
    x = rng.normal(size=(K, 2, 2, 3))
    x[rng.random(K) < 0.2, :, 1] = 0.0
    return cfgs, jplus, jplus[:, list(J6_FROM_JPLUS)], x @ x.swapaxes(-1, -2)


def _assert_each_alone(cfgs, jplus, j6, grams, decision):
    """Row k of a batch decision is bit for bit configuration k's alone."""
    c, chosen, alpha = decision
    assert c.shape == (len(cfgs), 2, 2)
    for k, cfg in enumerate(cfgs):
        (c1,), (chosen1,), (alpha1,) = decide(jplus[k:k + 1], j6[k:k + 1], grams[k:k + 1], [cfg])
        assert c[k].tobytes() == c1.tobytes()
        assert chosen[k] == chosen1
        assert (alpha[k] is None) == (alpha1 is None)
        if alpha1 is not None:
            assert alpha[k].tobytes() == alpha1.tobytes()


class TestPlan:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=_plans(), data=st.data())
    def test_batch_decision_is_each_alone(self, case, data):
        cfgs, jplus, j6, grams = case
        _assert_each_alone(cfgs, jplus, j6, grams,
                           decide(jplus, j6, grams, strategies_mod._Rules(cfgs)))
        # the plan of the runs a batch keeps decides as they do alone
        instance = ProblemInstance(V=2, d=1, T=1, H=np.zeros((1, 1)), W=np.zeros((2, 1)), y=[0])
        batch = _Batch(instance, len(cfgs))
        batch.begin(cfgs, zero_perturbations(instance))
        rows = sorted(data.draw(st.sets(st.integers(0, len(cfgs) - 1), min_size=1)))
        batch.keep(rows)
        assert batch.rules.cfgs == [cfgs[k] for k in rows]
        _assert_each_alone(batch.rules.cfgs, jplus[rows], j6[rows], grams[rows],
                           decide(jplus[rows], j6[rows], grams[rows], batch.rules))

