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
        logits = instance.H @ instance.W.T  # at zero perturbations
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
            logits = instance.H @ instance.W.T  # at zero perturbations
            for t in range(instance.T):
                assert int(instance.y[t]) != int(np.argmax(logits[t]))


    def test_one_instance_built_per_generate(self, monkeypatch):
        # Candidates are judged on stacked arrays: the winner is the only
        # ProblemInstance built, and no forward pass is taken.
        built = []
        real_instance = probgen.ProblemInstance
        monkeypatch.setattr(probgen, "ProblemInstance",
                            lambda **fields: built.append(real_instance(**fields)) or built[-1])
        monkeypatch.setattr(j6opt.model, "forward", lambda *args: pytest.fail("forward called"))
        assert not hasattr(probgen, "forward") and not hasattr(probgen, "compute_gradient_set")
        for family in (Family.CONFLICTING, Family.ROLE_SWAP):
            for seed in range(5):
                built.clear()
                instance = generate(GeneratorSpec(V=6, d=4, T=2, seed=seed, family=family))
                assert len(built) == 1 and built[0] is instance


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
        # so the certificate divides by rounding noise and never passes
        assert roleswap_certificate(instance) > 1e20
        with pytest.raises(ValueError, match=r"role-swap cannot hold on broadcast"):
            GeneratorSpec(V=6, d=4, family=Family.ROLE_SWAP, w_mode=WMode.BROADCAST)
        GeneratorSpec(V=6, d=4, family=Family.CONFLICTING, w_mode=WMode.BROADCAST)

    def test_exhausted_draws_are_a_config_error(self, monkeypatch):
        monkeypatch.setattr(probgen, "_MAX_DRAWS", 7)
        spec = GeneratorSpec(V=20, d=4, T=2, family=Family.CONFLICTING)
        with pytest.raises(ValueError, match=r"no conflicting instance found in 7 draws for "
                                             r"GeneratorSpec\(V=20, d=4, T=2.*\); best "
                                             r"certificate 0\.\d+ \(accepted below 0\.0\)$"):
            generate(spec)

    def test_exhaustion_without_a_target_below_the_argmax_reports_inf(self, monkeypatch):
        # seed 1 draws a first candidate whose target is its argmax
        monkeypatch.setattr(probgen, "_MAX_DRAWS", 1)
        with pytest.raises(ValueError, match=r"; best certificate inf \(accepted below 0\.0\)$"):
            generate(GeneratorSpec(V=3, d=2, seed=1, family=Family.CONFLICTING))


class TestScreen:
    """The stacked certificates each block of candidates is judged by
    (``probgen._certificates``)."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        V=st.integers(2, 12),
        d=st.integers(1, 5),
        T=st.integers(1, 4),
        K=st.integers(1, 64),
        family=st.sampled_from([Family.CONFLICTING, Family.ROLE_SWAP]),
        w_mode=st.sampled_from([WMode.FULL_MATRIX, WMode.SINGLE_ROW]),
        data=st.data(),
    )
    def test_stacked_value_is_the_public_certificate(self, V, d, T, K, family, w_mode, data):
        v_star = data.draw(st.none() | st.integers(0, V - 1))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        H, W = rng.standard_normal((K, T, d)), rng.standard_normal((K, V, d))
        y = rng.integers(0, V, size=(K, T))
        logits, values = probgen._certificates(family, w_mode, v_star, H, W, y)
        certificate = conflict_certificate if family is Family.CONFLICTING else roleswap_certificate
        for k in range(K):
            instance = j6opt.model.ProblemInstance(V=V, d=d, T=T, H=H[k], W=W[k], y=y[k],
                                                   w_mode=w_mode, v_star=v_star)
            assert values[k] == certificate(instance)  # bit for bit (inf == inf)
            assert log_softmax(logits[k]).tobytes() == forward(
                instance, zero_perturbations(instance)).logp.tobytes()

    def test_gaussian_passes_everything(self, monkeypatch):
        # the first draw is the instance, and no certificate (nor any
        # logits) is formed for it
        monkeypatch.setattr(probgen, "_certificates", None)
        spec = GeneratorSpec(V=5, d=3, T=2, seed=7)
        rng = np.random.default_rng(spec.seed)
        H, W = rng.standard_normal((2, 3)), rng.standard_normal((5, 3))
        y = rng.integers(0, 5, size=2)
        instance = generate(spec)
        assert (instance.H.tobytes(), instance.W.tobytes(), instance.y.tolist()) == (
            H.tobytes(), W.tobytes(), y.tolist())

    def test_block_bytes_stay_capped_at_the_largest_size(self, monkeypatch):
        # Without the cap the blocks of 60 draws would reach 32 candidates,
        # about 60 MB at this size.
        monkeypatch.setattr(probgen, "_MAX_DRAWS", 60)
        sizes = []
        real = probgen._certificates
        monkeypatch.setattr(probgen, "_certificates",
                            lambda family, w_mode, v_star, H, W, y:
                            sizes.append(len(H)) or real(family, w_mode, v_star, H, W, y))
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
        assert peak < 2 * probgen._BLOCK_BYTES


class TestGoldenBytes:
    def test_instance_bytes_match_the_recorded_hashes(self, tmp_path):
        assert {row["family"] for row in GOLDEN} == {f.value for f in Family}
        assert len(GOLDEN) == 45 * len(Family)
        path = tmp_path / "g.json"
        for row in GOLDEN:
            spec = GeneratorSpec(**{k: v for k, v in row.items() if k != "sha256"})
            instance = generate(spec)
            save_instance(instance, path, seed=spec.seed, family=spec.family.value)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == row["sha256"], spec
            if spec.family is Family.CONFLICTING:
                assert conflict_certificate(instance) < 0.0, spec
            elif spec.family is Family.ROLE_SWAP:
                assert roleswap_certificate(instance) < ROLESWAP_RATIO_MAX, spec


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
