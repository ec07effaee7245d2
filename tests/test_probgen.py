"""Seeded instance generation and the conflict-family certificates."""

import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from j6opt.serialize import save_instance

# Specs and the SHA-256 of their ``save_instance`` bytes, recorded from
# the draw-by-draw generator that preceded the batched screen.
GOLDEN = json.loads((Path(__file__).parent / "golden_instances.json").read_text())


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
        # One exact forward pass (shared by the argmax test and the
        # certificate) per candidate the screen passes, in draw order, and
        # none for a candidate it rules out.
        screened, kept, built, passes = [], [], [], []
        real_screen, real_instance = probgen._screen, probgen.ProblemInstance

        def screen(spec, H, W, y):
            keep, values = real_screen(spec, H, W, y)
            screened.append(len(keep))
            kept.extend(H[k].copy() for k in np.flatnonzero(keep))
            return keep, values

        def building(**fields):
            built.append(real_instance(**fields))
            return built[-1]

        def counting(instance, pert):
            passes.append(instance)
            return j6opt.model.forward(instance, pert)

        monkeypatch.setattr(probgen, "_screen", screen)
        monkeypatch.setattr(probgen, "ProblemInstance", building)
        monkeypatch.setattr(probgen, "forward", counting)
        for seed in range(5):
            for calls in (screened, kept, built, passes):
                calls.clear()
            generate(GeneratorSpec(V=6, d=4, T=2, seed=seed, family=Family.CONFLICTING))
            assert sum(screened) > len(kept) >= len(built) >= 1
            assert passes == built
            for instance, H in zip(built, kept):
                np.testing.assert_array_equal(instance.H, H)


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

    def test_two_token_conflicting_spec_rejected_up_front(self):
        with pytest.raises(ValueError, match=r"conflicting needs V >= 3"):
            GeneratorSpec(V=2, d=3, family=Family.CONFLICTING)
        GeneratorSpec(V=2, d=3, family=Family.ROLE_SWAP)

    def test_role_swap_on_broadcast_rejected_up_front(self):
        # J12 pulls back row sums of zero-sum logit gradients: zero up to rounding
        instance = generate(GeneratorSpec(V=6, d=4, T=2, seed=1, w_mode=WMode.BROADCAST))
        gs = compute_gradient_set(instance, zero_perturbations(instance))
        assert np.abs(gs.J12).max() < 1e-15 * np.abs(gs.J11).max()
        with pytest.raises(ValueError, match=r"role-swap cannot hold on broadcast"):
            GeneratorSpec(V=6, d=4, family=Family.ROLE_SWAP, w_mode=WMode.BROADCAST)
        GeneratorSpec(V=6, d=4, family=Family.CONFLICTING, w_mode=WMode.BROADCAST)

    def test_exhausted_draws_are_a_config_error(self, monkeypatch):
        monkeypatch.setattr(probgen, "_MAX_DRAWS", 7)
        spec = GeneratorSpec(V=20, d=4, T=2, family=Family.CONFLICTING)
        with pytest.raises(ValueError, match=r"no conflicting instance found in 7 draws for "
                                             r"GeneratorSpec\(V=20, d=4, T=2.*\); 0 passed the "
                                             r"screen, best certificate 0\.\d+ \(accepted below "
                                             r"0\.0\)$"):
            generate(spec)


class TestScreen:
    """The batched screen in front of the exact check (``probgen._accept``)."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        V=st.integers(2, 12),
        d=st.integers(1, 5),
        T=st.integers(1, 4),
        family=st.sampled_from([Family.CONFLICTING, Family.ROLE_SWAP]),
        w_mode=st.sampled_from(list(WMode)),
        data=st.data(),
    )
    def test_screen_rules_out_only_what_accept_rejects(self, V, d, T, family, w_mode, data):
        if family is Family.CONFLICTING:
            V = max(V, 3)
        elif w_mode is WMode.BROADCAST:
            w_mode = WMode.SINGLE_ROW
        v_star = None
        if w_mode is WMode.SINGLE_ROW:
            v_star = data.draw(st.none() | st.integers(0, V - 1))
        spec = GeneratorSpec(V=V, d=d, T=T, family=family, w_mode=w_mode, v_star=v_star)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        K = 32
        H, W = rng.standard_normal((K, T, d)), rng.standard_normal((K, V, d))
        y = rng.integers(0, V, size=(K, T))
        keep, values = probgen._screen(spec, H, W, y)
        for k in range(K):
            instance = j6opt.model.ProblemInstance(V=V, d=d, T=T, H=H[k], W=W[k], y=y[k],
                                                   w_mode=w_mode, v_star=v_star)
            assert keep[k] or not probgen._accept(instance, family)
            if family is Family.ROLE_SWAP:
                assert values[k] == pytest.approx(roleswap_certificate(instance), rel=1e-9)
            elif np.isfinite(values[k]):
                assert values[k] == pytest.approx(conflict_certificate(instance), rel=1e-9,
                                                  abs=1e-12)

    def test_gaussian_passes_everything(self):
        spec = GeneratorSpec(V=5, d=3, T=2)
        H, W, y = np.ones((4, 2, 3)), np.ones((4, 5, 3)), np.zeros((4, 2), dtype=np.int64)
        assert probgen._screen(spec, H, W, y)[0].all()

    def test_block_bytes_stay_capped_at_the_largest_size(self, monkeypatch):
        # Without the cap the blocks of 60 draws would reach 32 candidates,
        # about 60 MB at this size.
        monkeypatch.setattr(probgen, "_MAX_DRAWS", 60)
        sizes = []
        real_screen = probgen._screen
        monkeypatch.setattr(probgen, "_screen",
                            lambda spec, H, W, y: sizes.append(len(H)) or real_screen(spec, H, W, y))
        spec = GeneratorSpec(V=1000, d=64, T=16, family=Family.ROLE_SWAP)
        tracemalloc.start()
        try:
            generate(spec)
        except ValueError:
            pass
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert sizes[:2] == [1, 2] and max(sizes) < 4
        assert peak < 2 * probgen._SCREEN_BYTES


class TestGoldenBytes:
    def test_instance_bytes_match_the_recorded_hashes(self, tmp_path):
        assert {row["family"] for row in GOLDEN} == {f.value for f in Family}
        assert len(GOLDEN) == 45 * len(Family)
        path = tmp_path / "g.json"
        for row in GOLDEN:
            spec = GeneratorSpec(**{k: v for k, v in row.items() if k != "sha256"})
            save_instance(generate(spec), path, seed=spec.seed, family=spec.family.value)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == row["sha256"], spec


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
