"""Hard routing, soft weighting, the contrast step, and the baselines."""

import numpy as np
import pytest

from j6opt import (
    GradientSet,
    PreNorm,
    StrategyConfig,
    StrategyKind,
    contrast_weights,
    gradsurgery_baseline,
    hard_route_j6,
    hard_route_jplus,
    project_conflicts,
    scalarized_baseline,
    soft_update,
    soft_weights,
    static_baseline,
)

ETA = 0.1


@pytest.fixture
def gs():
    return GradientSet(
        J11=np.array([1.0, 0.0]),
        J12=np.array([1.0, 1.0]),
        J21=np.array([2.0, 0.0]),
        J22=np.array([0.0, 2.0]),
    )


def cfg(kind=StrategyKind.HARD_J6, **kw):
    kw.setdefault("eta_h", ETA)
    kw.setdefault("eta_w", ETA)
    return StrategyConfig(kind=kind, **kw)


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


class TestHardRouteJ6:
    def test_handpicked_scores(self, gs):
        decision = hard_route_j6(np.array([1.0, 0.0, 2.0, 4.0, 4.0, 2.0]), gs, cfg())
        assert decision.chosen_index == 3
        np.testing.assert_allclose(decision.delta_h, -ETA * np.array([2.0, 0.0]))
        np.testing.assert_array_equal(decision.delta_w, np.zeros(2))

    def test_tie_breaks_to_lowest_index(self, gs):
        decision = hard_route_j6(np.array([5.0, 0.0, 5.0, 1.0, 1.0, 0.0]), gs, cfg())
        assert decision.chosen_index == 0

    def test_zero_gradients_give_zero_deltas(self):
        zeros = GradientSet(np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2))
        decision = hard_route_j6(np.zeros(6), zeros, cfg())
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
        scores = np.zeros(6)
        scores[index] = 1.0
        decision = hard_route_j6(scores, gs, cfg())
        expected_h = -ETA * getattr(gs, h_block) if h_block else np.zeros(2)
        expected_w = -ETA * getattr(gs, w_block) if w_block else np.zeros(2)
        np.testing.assert_allclose(decision.delta_h, expected_h)
        np.testing.assert_allclose(decision.delta_w, expected_w)

    def test_deterministic(self, gs):
        scores = np.array([0.3, 0.3, 0.3, 0.1, 0.1, 0.3])
        picks = {hard_route_j6(scores, gs, cfg()).chosen_index for _ in range(5)}
        assert picks == {0}


class TestHardRouteJPlus:
    def test_zero_gradients(self):
        zeros = GradientSet(np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2))
        decision = hard_route_jplus(np.zeros(15), zeros, cfg(StrategyKind.HARD_JPLUS))
        assert decision.chosen_index == 1
        np.testing.assert_array_equal(decision.delta_h, np.zeros(2))
        np.testing.assert_array_equal(decision.delta_w, np.zeros(2))

    def test_cross_alignment_action_updates_both(self, gs):
        scores = np.zeros(15)
        scores[4] = 1.0  # component 5: the (h->heat, w->conf) coupling
        decision = hard_route_jplus(scores, gs, cfg(StrategyKind.HARD_JPLUS))
        assert decision.chosen_index == 5
        np.testing.assert_allclose(decision.delta_h, -ETA * gs.J11)
        np.testing.assert_allclose(decision.delta_w, -ETA * gs.J22)

    def test_prioritize_with_auxiliary_group(self, gs):
        scores = np.zeros(15)
        scores[9] = 1.0  # component 10: h leads on heat, w assists at beta
        decision = hard_route_jplus(scores, gs, cfg(StrategyKind.HARD_JPLUS, beta_aux=0.5))
        assert decision.chosen_index == 10
        np.testing.assert_allclose(decision.delta_h, -ETA * gs.J11)
        np.testing.assert_allclose(decision.delta_w, -ETA * 0.5 * (gs.J12 + gs.J22))

    def test_auxiliary_h_side(self, gs):
        scores = np.zeros(15)
        scores[12] = 1.0  # component 13: w leads on conf, h assists at beta
        decision = hard_route_jplus(scores, gs, cfg(StrategyKind.HARD_JPLUS, beta_aux=0.25))
        assert decision.chosen_index == 13
        np.testing.assert_allclose(decision.delta_h, -ETA * 0.25 * (gs.J11 + gs.J21))
        np.testing.assert_allclose(decision.delta_w, -ETA * gs.J22)

    def test_duplicate_components_share_actions(self, gs):
        # 14 duplicates 7 and 15 duplicates 8 by construction
        for a, b in ((7, 14), (8, 15)):
            sa, sb = np.zeros(15), np.zeros(15)
            sa[a - 1] = 1.0
            sb[b - 1] = 1.0
            da = hard_route_jplus(sa, gs, cfg(StrategyKind.HARD_JPLUS))
            db = hard_route_jplus(sb, gs, cfg(StrategyKind.HARD_JPLUS))
            np.testing.assert_array_equal(da.delta_h, db.delta_h)
            np.testing.assert_array_equal(da.delta_w, db.delta_w)


class TestContrastWeights:
    def test_squares_match_worked_example(self):
        # gamma=2 squares (0.5, 0.3, 0.1, 0.1); 0.25 and 0.09 are exact
        # in float64, the 0.01 entries land within one ulp of the decimal
        powered = contrast_weights(np.array([0.5, 0.3, 0.1, 0.1]), 2.0, normalize=False)
        assert powered[0] == 0.25
        assert powered[1] == 0.09
        np.testing.assert_allclose(powered, [0.25, 0.09, 0.01, 0.01], rtol=0, atol=5e-18)

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


class TestSoftUpdate:
    def test_degenerate_weights_recover_single_direction(self, gs):
        decision = soft_update(np.array([1.0, 0, 0, 0, 0, 0]), gs, cfg(StrategyKind.SOFT))
        np.testing.assert_allclose(decision.delta_h, -ETA * gs.J11)
        np.testing.assert_array_equal(decision.delta_w, np.zeros(2))

    def test_uniform_weights_blend_linearly(self, gs):
        decision = soft_update(np.full(6, 1.0 / 6.0), gs, cfg(StrategyKind.SOFT))
        np.testing.assert_allclose(decision.delta_h, -ETA * (gs.J11 + gs.J21) / 6.0)
        np.testing.assert_allclose(decision.delta_w, -ETA * (gs.J12 + gs.J22) / 6.0)

    def test_cold_limit_matches_hard_action(self, gs):
        # strict max at slot 4 (w -> confidence)
        s = np.array([0.1, 0.0, 0.2, 0.15, 0.9, 0.05])
        c = cfg(StrategyKind.SOFT, tau=1e-3)
        soft = soft_update(soft_weights(s, c), gs, c)
        hard = hard_route_j6(s, gs, cfg())
        num = np.linalg.norm(soft.delta_h - hard.delta_h) + np.linalg.norm(
            soft.delta_w - hard.delta_w
        )
        den = np.linalg.norm(hard.delta_h) + np.linalg.norm(hard.delta_w)
        assert num / den < 1e-3


class TestStaticBaseline:
    def test_fixed_roles(self, gs):
        decision = static_baseline(gs, cfg(StrategyKind.STATIC))
        np.testing.assert_allclose(decision.delta_h, -ETA * gs.J11)
        np.testing.assert_allclose(decision.delta_w, -ETA * gs.J22)

    def test_stalls_when_its_route_is_dead(self):
        gs = GradientSet(
            J11=np.zeros(2), J12=np.array([5.0, 5.0]), J21=np.zeros(2), J22=np.zeros(2)
        )
        decision = static_baseline(gs, cfg(StrategyKind.STATIC))
        np.testing.assert_array_equal(decision.delta_h, np.zeros(2))
        np.testing.assert_array_equal(decision.delta_w, np.zeros(2))

    def test_equals_hard_route_when_coupling_slot_wins(self, gs):
        hard = hard_route_j6(np.array([0.0, 9.0, 0.0, 0.0, 0.0, 0.0]), gs, cfg())
        static = static_baseline(gs, cfg(StrategyKind.STATIC))
        np.testing.assert_array_equal(hard.delta_h, static.delta_h)
        np.testing.assert_array_equal(hard.delta_w, static.delta_w)


class TestScalarizedBaseline:
    def test_pure_heat(self, gs):
        decision = scalarized_baseline(gs, cfg(StrategyKind.SCALARIZED, lam=(1.0, 0.0)))
        np.testing.assert_allclose(decision.delta_h, -ETA * gs.J11)
        np.testing.assert_allclose(decision.delta_w, -ETA * gs.J12)

    def test_even_blend_matches_uniform_soft_up_to_scale(self, gs):
        scal = scalarized_baseline(gs, cfg(StrategyKind.SCALARIZED, lam=(0.5, 0.5)))
        soft = soft_update(np.full(6, 1.0 / 6.0), gs, cfg(StrategyKind.SOFT))
        np.testing.assert_allclose(scal.delta_h, 3.0 * soft.delta_h)
        np.testing.assert_allclose(scal.delta_w, 3.0 * soft.delta_w)

    def test_zero_gradients(self):
        zeros = GradientSet(np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2))
        decision = scalarized_baseline(zeros, cfg(StrategyKind.SCALARIZED))
        np.testing.assert_array_equal(decision.delta_h, np.zeros(2))
        np.testing.assert_array_equal(decision.delta_w, np.zeros(2))


class TestGradSurgery:
    def test_antiparallel_gradients_cancel(self):
        g1p, g2p = project_conflicts(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
        np.testing.assert_array_equal(g1p, np.zeros(2))
        np.testing.assert_array_equal(g2p, np.zeros(2))

    def test_no_conflict_is_scalarized_at_double_scale(self, gs):
        # every group pair here has a non-negative inner product
        assert float(gs.J11 @ gs.J21) >= 0 and float(gs.J12 @ gs.J22) >= 0
        surgery = gradsurgery_baseline(gs, cfg(StrategyKind.GRAD_SURGERY))
        scal = scalarized_baseline(gs, cfg(StrategyKind.SCALARIZED, lam=(0.5, 0.5)))
        np.testing.assert_allclose(surgery.delta_h, 2.0 * scal.delta_h)
        np.testing.assert_allclose(surgery.delta_w, 2.0 * scal.delta_w)

    def test_projections_remove_conflict(self):
        rng = np.random.default_rng(37)
        for _ in range(1000):
            dim = int(rng.integers(2, 8))
            g1, g2 = rng.normal(size=dim), rng.normal(size=dim)
            g1p, g2p = project_conflicts(g1, g2)
            assert float(g1p @ g2) >= -1e-10
            assert float(g2p @ g1) >= -1e-10

    def test_zero_co_gradient_passes_through(self):
        g1, g2 = np.array([3.0, 1.0]), np.zeros(2)
        g1p, g2p = project_conflicts(g1, g2)
        np.testing.assert_array_equal(g1p, g1)
        np.testing.assert_array_equal(g2p, g2)
