"""The per-instance loop: initialization, stepping, stopping, tracing."""

import numpy as np
import pytest

import j6opt.attribution
import j6opt.model
import j6opt.optimizer
from j6opt import (
    AlignKind,
    AlignmentMode,
    GeneratorSpec,
    NonFiniteLossError,
    ProblemInstance,
    RunConfig,
    StopReason,
    StrategyConfig,
    StrategyKind,
    WMode,
    generate,
    init_perturbations,
    run,
    stop_check,
)
from j6opt.optimizer import TraceRecord


def _record(step=0, ob1=1.0, ob2=-1.0, norms=(1.0, 1.0, 1.0, 1.0)):
    return TraceRecord(
        step=step,
        ob1=ob1,
        ob2=ob2,
        entropy=-ob2,
        n11=norms[0],
        n12=norms[1],
        n21=norms[2],
        n22=norms[3],
        scores=np.zeros(6),
        chosen_index=0,
        alpha=None,
        dh_norm=0.0,
        dw_norm=0.0,
    )


class TestInitPerturbations:
    def test_zero_scale_gives_zeros(self, make_instance):
        instance = make_instance(seed=1)
        pert = init_perturbations(instance, 0.0, seed=99)
        assert not pert.h.any() and not pert.w.any()

    def test_seed_determinism(self, make_instance):
        instance = make_instance(seed=1)
        a = init_perturbations(instance, 0.5, seed=7)
        b = init_perturbations(instance, 0.5, seed=7)
        np.testing.assert_array_equal(a.h, b.h)
        np.testing.assert_array_equal(a.w, b.w)

    def test_entries_bounded_by_scale(self, make_instance):
        instance = make_instance(seed=2, w_mode=WMode.SINGLE_ROW)
        pert = init_perturbations(instance, 0.25, seed=3)
        assert np.abs(pert.h).max() <= 0.25
        assert np.abs(pert.w).max() <= 0.25
        assert pert.w.shape == (instance.d,)


class TestStopCheck:
    def test_grad_tol(self):
        trace = [_record(norms=(0.0, 0.0, 0.0, 0.0))]
        assert stop_check(trace, RunConfig(grad_tol=1e-8)) is StopReason.GRAD_TOL

    def test_loss_tol_needs_two_records(self):
        rcfg = RunConfig(loss_tol=1e-6)
        trace = [_record(step=0)]
        assert stop_check(trace, rcfg) is None
        trace.append(_record(step=1))
        assert stop_check(trace, rcfg) is StopReason.LOSS_TOL

    def test_max_steps(self):
        rcfg = RunConfig(max_steps=2)
        trace = [_record(step=0, ob1=2.0), _record(step=1, ob1=1.0)]
        assert stop_check(trace, rcfg) is StopReason.MAX_STEPS

    def test_precedence_grad_over_loss(self):
        rcfg = RunConfig(loss_tol=10.0)
        trace = [_record(step=0, norms=(0.0, 0.0, 0.0, 0.0))] * 2
        assert stop_check(trace, rcfg) is StopReason.GRAD_TOL


class TestRun:
    def test_pure_heat_descent(self, make_instance):
        for seed in range(5):
            instance = make_instance(seed=seed, w_mode=WMode.SINGLE_ROW)
            cfg = StrategyConfig(kind=StrategyKind.SCALARIZED, lam=(1.0, 0.0), eta_h=0.01, eta_w=0.01)
            result = run(instance, cfg, RunConfig(max_steps=50))
            ob1 = [r.ob1 for r in result.trace] + [result.objectives.ob1]
            assert all(b <= a for a, b in zip(ob1, ob1[1:]))

    def test_uniform_start_does_not_stop_early(self):
        # zero logits kill the confidence blocks but not the heat ones
        rng = np.random.default_rng(4)
        instance = ProblemInstance(
            V=5, d=3, T=1, H=np.zeros((1, 3)), W=rng.normal(size=(5, 3)), y=[2]
        )
        result = run(
            instance,
            StrategyConfig(kind=StrategyKind.HARD_J6),
            RunConfig(max_steps=10),
        )
        assert len(result.trace) == 10
        assert result.stop_reason is StopReason.MAX_STEPS

    def test_grad_tol_stop_at_stationary_point(self):
        # H = W = 0 makes every block vanish immediately
        instance = ProblemInstance(V=3, d=2, T=1, H=np.zeros((1, 2)), W=np.zeros((3, 2)), y=[0])
        result = run(
            instance, StrategyConfig(kind=StrategyKind.HARD_J6), RunConfig(max_steps=50)
        )
        assert result.stop_reason is StopReason.GRAD_TOL
        assert len(result.trace) == 1

    def test_loss_tol_stop(self, make_instance):
        instance = make_instance(seed=5)
        cfg = StrategyConfig(kind=StrategyKind.SCALARIZED, eta_h=1e-12, eta_w=1e-12)
        result = run(instance, cfg, RunConfig(max_steps=50, loss_tol=1e-6))
        assert result.stop_reason is StopReason.LOSS_TOL
        assert len(result.trace) == 2

    def test_zero_max_steps(self, make_instance):
        instance = make_instance(seed=6)
        result = run(instance, StrategyConfig(kind=StrategyKind.SOFT), RunConfig(max_steps=0))
        assert result.trace == []
        assert result.stop_reason is StopReason.MAX_STEPS

    def test_bit_deterministic(self, make_instance):
        instance = make_instance(seed=7)
        cfg = StrategyConfig(kind=StrategyKind.SOFT, tau=0.5)
        rcfg = RunConfig(max_steps=25, init_scale=0.1, seed=11)
        a = run(instance, cfg, rcfg)
        b = run(instance, cfg, rcfg)
        assert a.objectives == b.objectives
        np.testing.assert_array_equal(a.perturbations.h, b.perturbations.h)
        np.testing.assert_array_equal(a.perturbations.w, b.perturbations.w)
        for ra, rb in zip(a.trace, b.trace):
            np.testing.assert_array_equal(ra.scores, rb.scores)
            np.testing.assert_array_equal(ra.alpha, rb.alpha)
            assert (ra.ob1, ra.ob2, ra.dh_norm, ra.dw_norm) == (rb.ob1, rb.ob2, rb.dh_norm, rb.dw_norm)

    def test_trace_completeness(self, make_instance):
        instance = make_instance(seed=8)
        for kind, n_scores in (
            (StrategyKind.HARD_J6, 6),
            (StrategyKind.HARD_JPLUS, 15),
            (StrategyKind.SOFT, 6),
            (StrategyKind.STATIC, 6),
        ):
            result = run(instance, StrategyConfig(kind=kind), RunConfig(max_steps=7))
            assert len(result.trace) == 7
            for k, record in enumerate(result.trace):
                assert record.step == k
                assert record.scores.shape == (n_scores,)
                assert np.isfinite(record.scores).all()
                if kind is StrategyKind.SOFT:
                    assert record.alpha is not None and record.chosen_index is None
                elif kind is StrategyKind.STATIC:
                    assert record.alpha is None and record.chosen_index is None
                else:
                    assert record.chosen_index is not None

    def test_hard_jplus_indices_are_one_based(self, make_instance):
        instance = make_instance(seed=9)
        result = run(
            instance, StrategyConfig(kind=StrategyKind.HARD_JPLUS), RunConfig(max_steps=10)
        )
        assert all(1 <= r.chosen_index <= 15 for r in result.trace)

    def test_one_forward_pass_per_step(self, make_instance, monkeypatch):
        # one per step, plus one for the final objectives
        calls = []
        original = j6opt.model.forward

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (j6opt.model, j6opt.attribution, j6opt.optimizer):
            monkeypatch.setattr(module, "forward", counting)
        instance = make_instance(seed=13, w_mode=WMode.FULL_MATRIX)
        for kind in StrategyKind:
            calls.clear()
            result = run(instance, StrategyConfig(kind=kind), RunConfig(max_steps=3, grad_tol=0.0))
            assert len(result.trace) == 3
            assert len(calls) == 4, kind

    def test_single_token_tie_goes_to_lowest_component(self):
        # Components 10 and 12 tie exactly at step 1 of this run (T=1,
        # pushforward, full_matrix); the lowest index wins.
        instance = generate(GeneratorSpec(V=6, d=4, T=1, seed=3))
        cfg = StrategyConfig(kind=StrategyKind.HARD_JPLUS, eta_h=0.05, eta_w=0.05)
        result = run(instance, cfg, RunConfig(max_steps=100))
        s = result.trace[1].scores
        assert s[9] == s[11] == s.max()
        assert result.trace[1].chosen_index == 10

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_non_finite_loss_aborts_with_step(self, make_instance):
        instance = make_instance(seed=10)
        cfg = StrategyConfig(kind=StrategyKind.SCALARIZED, eta_h=1e12, eta_w=1e12)
        with pytest.raises(NonFiniteLossError, match=r"step \d+"):
            run(instance, cfg, RunConfig(max_steps=200))

    def test_direct_alignment_rejected_on_full_matrix(self, make_instance):
        instance = make_instance(seed=11, w_mode=WMode.FULL_MATRIX)
        cfg = StrategyConfig(
            kind=StrategyKind.HARD_J6, alignment=AlignmentMode(AlignKind.DIRECT)
        )
        with pytest.raises(ValueError, match="full_matrix"):
            run(instance, cfg, RunConfig(max_steps=1))

    def test_direct_alignment_allowed_on_broadcast(self, make_instance):
        instance = make_instance(seed=12, w_mode=WMode.BROADCAST)
        cfg = StrategyConfig(
            kind=StrategyKind.HARD_J6, alignment=AlignmentMode(AlignKind.DIRECT)
        )
        result = run(instance, cfg, RunConfig(max_steps=3))
        assert len(result.trace) == 3

    def test_hard_j6_first_order_descent_on_pure_slots(self, make_instance):
        # a 1e-3 step along the selected pure slot must reduce its target
        checked = 0
        for seed in range(12):
            instance = make_instance(seed=seed, w_mode=WMode.SINGLE_ROW)
            cfg = StrategyConfig(kind=StrategyKind.HARD_J6, eta_h=1e-3, eta_w=1e-3)
            result = run(instance, cfg, RunConfig(max_steps=20))
            series = [(r.ob1, r.ob2, r.chosen_index, max(r.n11, r.n12, r.n21, r.n22)) for r in result.trace]
            series.append((result.objectives.ob1, result.objectives.ob2, None, None))
            for (ob1, ob2, chosen, gnorm), (next1, next2, _, _) in zip(series, series[1:]):
                if gnorm is None or gnorm <= 1e-6:
                    continue
                if chosen in (0, 2):
                    assert next1 < ob1
                    checked += 1
                elif chosen in (3, 4):
                    assert next2 < ob2
                    checked += 1
        assert checked > 50


class TestRunConfigValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            {"max_steps": -1},
            {"grad_tol": -1e-9},
            {"loss_tol": -0.1},
            {"seed": -1},
            {"seed": 2**64},
            {"init_scale": -0.5},
        ],
    )
    def test_rejected(self, bad):
        with pytest.raises(ValueError):
            RunConfig(**bad)
