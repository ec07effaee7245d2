"""Seeded instance generation and the conflict-family certificates."""

import numpy as np
import pytest

import j6opt.model
import j6opt.probgen as probgen
from j6opt import (
    Family,
    GeneratorSpec,
    WMode,
    compute_gradient_set,
    conflict_certificate,
    forward,
    generate,
    log_softmax,
    logit_gradients,
    roleswap_certificate,
    zero_perturbations,
)
from j6opt.probgen import ROLESWAP_RATIO_MAX


class TestDeterminism:
    def test_same_spec_same_instance(self):
        for family in Family:
            spec = GeneratorSpec(V=6, d=4, T=2, seed=5, family=family)
            a, b = generate(spec), generate(spec)
            np.testing.assert_array_equal(a.H, b.H)
            np.testing.assert_array_equal(a.W, b.W)
            np.testing.assert_array_equal(a.y, b.y)

    def test_different_seeds_differ(self):
        a = generate(GeneratorSpec(V=6, d=4, T=2, seed=0))
        b = generate(GeneratorSpec(V=6, d=4, T=2, seed=1))
        assert not np.array_equal(a.H, b.H)


class TestConflictingFamily:
    def test_certificate_holds(self):
        for seed in range(25):
            instance = generate(
                GeneratorSpec(V=6, d=4, T=1, seed=seed, family=Family.CONFLICTING)
            )
            assert conflict_certificate(instance) < 0.0

    def test_certificate_matches_manual_recomputation(self):
        instance = generate(GeneratorSpec(V=5, d=3, T=2, seed=3, family=Family.CONFLICTING))
        logits = forward(instance, zero_perturbations(instance)).logits
        total = 0.0
        for t in range(instance.T):
            g_heat, g_conf = logit_gradients(log_softmax(logits[t : t + 1]), instance.y[t : t + 1])
            total += float(g_heat[0] @ g_conf[0])
        assert conflict_certificate(instance) == pytest.approx(total, rel=1e-13)

    def test_targets_sit_below_the_argmax(self):
        for seed in range(10):
            instance = generate(
                GeneratorSpec(V=6, d=4, T=2, seed=seed, family=Family.CONFLICTING)
            )
            logits = forward(instance, zero_perturbations(instance)).logits
            for t in range(instance.T):
                assert int(instance.y[t]) != int(np.argmax(logits[t]))


    def test_one_forward_pass_per_draw(self, monkeypatch):
        # the argmax test and the certificate share one forward pass
        draws, passes = [], []

        def counting(fn, calls):
            def wrapped(*args, **kwargs):
                calls.append(1)
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(probgen, "_draw", counting(probgen._draw, draws))
        monkeypatch.setattr(probgen, "forward", counting(j6opt.model.forward, passes))
        for seed in range(5):
            draws.clear()
            passes.clear()
            generate(GeneratorSpec(V=6, d=4, T=2, seed=seed, family=Family.CONFLICTING))
            assert len(draws) > 1
            assert len(passes) == len(draws)


class TestRoleSwapFamily:
    def test_ratio_certificate_holds(self):
        for seed in range(25):
            instance = generate(
                GeneratorSpec(V=6, d=4, T=1, seed=seed, family=Family.ROLE_SWAP)
            )
            assert roleswap_certificate(instance) < ROLESWAP_RATIO_MAX

    def test_certificate_matches_gradient_set(self):
        instance = generate(GeneratorSpec(V=6, d=4, T=1, seed=9, family=Family.ROLE_SWAP))
        gs = compute_gradient_set(instance, zero_perturbations(instance))
        ratio = float(gs.J11 @ gs.J11) / float(gs.J12.ravel() @ gs.J12.ravel())
        assert roleswap_certificate(instance) == pytest.approx(ratio, rel=1e-13)


class TestInfeasibleSpec:
    def test_two_token_conflicting_spec_cannot_hold(self):
        # with V = 2 and target probability q < 1/2 (the target below the
        # argmax), <g_heat, g_conf> = 2 q (1 - q)^2 log((1 - q) / q) > 0
        rng = np.random.default_rng(3)
        for _ in range(50):
            H, W = rng.standard_normal((1, 1)), rng.standard_normal((2, 1))
            y = np.array([int(np.argmin(W @ H[0]))])
            instance = j6opt.model.ProblemInstance(V=2, d=1, T=1, H=H, W=W, y=y)
            q = float(np.exp(log_softmax(H @ W.T)[0, y[0]]))
            expected = 2 * q * (1 - q) ** 2 * np.log((1 - q) / q)
            assert conflict_certificate(instance) == pytest.approx(expected, rel=1e-12)
            assert expected > 0

    def test_exhausted_draws_are_a_config_error(self, monkeypatch):
        monkeypatch.setattr(probgen, "_MAX_DRAWS", 7)
        spec = GeneratorSpec(V=2, d=1, family=Family.CONFLICTING)
        with pytest.raises(ValueError, match=r"no conflicting instance found in 7 draws for "
                                             r"GeneratorSpec\(V=2, d=1, T=1"):
            generate(spec)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            {"V": 1, "d": 2, "T": 1},
            {"V": 4, "d": 0, "T": 1},
            {"V": 4, "d": 2, "T": 0},
            {"V": 4, "d": 2, "T": 1, "seed": -3},
            {"V": 4, "d": 2, "T": 1, "v_star": 4},
        ],
    )
    def test_rejected(self, bad):
        with pytest.raises(ValueError):
            GeneratorSpec(**bad)

    @pytest.mark.parametrize(
        "field, value", [("V", 4.5), ("V", 4.0), ("d", True), ("T", 1.5), ("seed", 0.5),
                         ("v_star", 1.0)],
    )
    def test_non_integer_rejected(self, field, value):
        spec = {"V": 4, "d": 2, "T": 1, field: value}
        with pytest.raises(ValueError, match=f"'{field}' must be an integer"):
            GeneratorSpec(**spec)

    def test_single_row_v_star_defaults_to_last_target(self):
        instance = generate(
            GeneratorSpec(V=6, d=3, T=3, seed=2, w_mode=WMode.SINGLE_ROW)
        )
        assert instance.v_star == int(instance.y[-1])

    def test_one_position_by_default(self):
        assert GeneratorSpec(V=4, d=2) == GeneratorSpec(V=4, d=2, T=1)

    def test_w_mode_is_carried(self):
        instance = generate(GeneratorSpec(V=4, d=2, T=1, seed=0, w_mode=WMode.BROADCAST))
        assert instance.w_mode is WMode.BROADCAST
