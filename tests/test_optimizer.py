"""The per-instance loop: initialization, stepping, stopping, tracing,
and many configurations in lockstep."""

import dataclasses
import itertools
import pathlib
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import j6opt.attribution
import j6opt.model
import j6opt.optimizer
import j6opt.strategies
from j6opt import (
    AlignKind,
    AlignmentMode,
    AlignScale,
    GeneratorSpec,
    NonFiniteLossError,
    PreNorm,
    ProblemInstance,
    RunConfig,
    RunResult,
    StopReason,
    StrategyConfig,
    StrategyKind,
    WMode,
    compute_gradient_set,
    decide,
    fd_gradient,
    forward,
    generate,
    init_perturbations,
    run,
    run_many,
    score_j6,
    score_jplus,
    write_trace,
)
from j6opt.attribution import resolve_alignment
from j6opt.optimizer import TraceRecord, stop_check


def _record(step=0, ob1=1.0, ob2=-1.0, norms=(1.0, 1.0, 1.0, 1.0)):
    return TraceRecord(
        step=step,
        ob1=ob1,
        ob2=ob2,
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

    def test_scales_up_to_half_the_float_range(self, make_instance):
        # a draw from [-scale, scale] needs the range's width, 2 scale, finite
        pert = init_perturbations(make_instance(seed=1), sys.float_info.max / 2, seed=3)
        assert np.isfinite(pert.h).all() and np.isfinite(pert.w).all()

    @pytest.mark.parametrize("scale", [0.0, 0.5])
    @pytest.mark.parametrize("field, value", [
        ("init_scale", True), ("init_scale", np.inf), ("init_scale", np.nan), ("init_scale", -0.5),
        ("init_scale", "0.5"), ("init_scale", 1e308),
        ("init_scale", np.nextafter(sys.float_info.max / 2, np.inf)),
        ("seed", True), ("seed", 2.5), ("seed", -1), ("seed", 2**64),
    ])
    def test_arguments_checked_as_run_config_checks_them(self, make_instance, scale, field,
                                                         value):
        # a ValueError naming the field, whatever the scale
        args = {"init_scale": scale, "seed": 3, field: value}
        with pytest.raises(ValueError, match=field):
            init_perturbations(make_instance(seed=1), **args)
        with pytest.raises(ValueError, match=field):
            RunConfig(**args)


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
        # one per step, plus one for the final objectives; the step calls
        # the stacked kernel _forward directly, and the public forward
        # goes through it too, so counting it counts every pass
        calls = []
        original = j6opt.model._forward

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (j6opt.model, j6opt.optimizer):
            monkeypatch.setattr(module, "_forward", counting)
        instance = make_instance(seed=13, w_mode=WMode.FULL_MATRIX)
        for kind in StrategyKind:
            calls.clear()
            result = run(instance, StrategyConfig(kind=kind), RunConfig(max_steps=3, grad_tol=0.0))
            assert len(result.trace) == 3
            assert len(calls) == 4, kind

    def test_one_w_pullback_per_step(self, make_instance, monkeypatch):
        # the w group is pulled back once per step: the combined logit
        # gradients under full_matrix, both d-vector blocks otherwise;
        # every pullback, the gradient set's w included, goes through _pullback
        calls = []
        original = j6opt.model._pullback

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (j6opt.model, j6opt.attribution, j6opt.optimizer):
            monkeypatch.setattr(module, "_pullback", counting)
        cosine = AlignmentMode(scale=AlignScale.COSINE)
        for w_mode in WMode:
            instance = make_instance(seed=14, w_mode=w_mode)
            for kind in StrategyKind:
                for alignment in (AlignmentMode(), cosine):
                    calls.clear()
                    cfg = StrategyConfig(kind=kind, alignment=alignment)
                    result = run(instance, cfg, RunConfig(max_steps=3, grad_tol=0.0))
                    assert len(result.trace) == 3
                    assert len(calls) == 3, (w_mode, kind, alignment)

    def test_update_is_c_applied_to_explicit_blocks(self, make_instance):
        # the step run takes equals decide's c applied to the gradient
        # set's explicit blocks: bit for bit where w is a d-vector, and to rounding
        # under full_matrix, where the combined gradient is pulled back
        for w_mode in WMode:
            instance = make_instance(seed=15, w_mode=w_mode)
            start = init_perturbations(instance, init_scale=0.3, seed=2)
            for kind in StrategyKind:
                cfg = StrategyConfig(kind=kind, eta_h=0.05, eta_w=0.03, beta_aux=0.3)
                amode = resolve_alignment(cfg.alignment, w_mode)
                gs = compute_gradient_set(instance, start)
                c, _, _ = decide(score_jplus(gs, amode)[None], score_j6(gs, amode)[None],
                                 np.array(gs.grams)[None], [cfg])
                (c00, c01), (c10, c11) = c[0]
                want_h = start.h - cfg.eta_h * (c00 * gs.J11 + c01 * gs.J21)
                want_w = start.w - cfg.eta_w * (c10 * gs.J12 + c11 * gs.J22)
                got = run(instance, cfg, RunConfig(max_steps=1, grad_tol=0.0, init_scale=0.3, seed=2))
                np.testing.assert_array_equal(got.perturbations.h, want_h)
                if w_mode is WMode.FULL_MATRIX:
                    np.testing.assert_allclose(got.perturbations.w, want_w, rtol=1e-14, atol=1e-16)
                else:
                    np.testing.assert_array_equal(got.perturbations.w, want_w)

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

    def test_diverging_update_aborts_with_step(self, diverging_run):
        # every loss is finite; after the update of step 7, A = H + h is
        # 2^512, so the Grams of step 8 (through K = A A^T) overflow
        instance, cfg = diverging_run
        result = run(instance, cfg, RunConfig(max_steps=8))
        assert len(result.trace) == 8
        assert abs(result.perturbations.h[0]) == 2.0**512
        with pytest.raises(NonFiniteLossError,
                           match="at step 8: gradient blocks must be finite") as info:
            run(instance, cfg, RunConfig(max_steps=30))
        assert info.value.step == 8

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_update_aborts_with_step(self):
        # finite losses and Grams (J11 = 8); eta_h J11 overflows
        instance = ProblemInstance(V=2, d=1, T=1, H=[[1.0]], W=[[4.0], [-4.0]], y=[1])
        cfg = StrategyConfig(kind=StrategyKind.STATIC, eta_h=1e308)
        with pytest.raises(NonFiniteLossError, match="update at step 0 left the finite range") as info:
            run(instance, cfg, RunConfig(max_steps=3))
        assert info.value.step == 0

    @pytest.mark.parametrize("w_mode", [WMode.FULL_MATRIX, WMode.SINGLE_ROW])
    def test_overflowing_w_update_aborts_with_step(self, w_mode):
        # finite losses and Grams (|J12| about 4); 1e308 J12 overflows w
        instance = ProblemInstance(V=2, d=1, T=1, H=[[4.0]], W=[[1.0], [-1.0]], y=[1],
                                   w_mode=w_mode, v_star=1)
        cfg = StrategyConfig(kind=StrategyKind.SCALARIZED, lam=(1.0, 0.0), eta_w=1e308)
        with pytest.raises(NonFiniteLossError, match="update at step 0 left the finite range") as info:
            run(instance, cfg, RunConfig(max_steps=3))
        assert info.value.step == 0

    @pytest.mark.parametrize("w_mode", list(WMode))
    def test_overflowing_h_update_aborts_with_step(self, w_mode):
        # finite losses and Grams (J11 about 8): 1e308 J11 overflows h, while
        # 1e160 J11 leaves h finite and only its squared norm overflows, so
        # that step is taken and traced with an infinite norm
        instance = ProblemInstance(V=2, d=1, T=1, H=[[1.0]], W=[[4.0], [-4.0]], y=[1],
                                   w_mode=w_mode, v_star=1)
        cfg = StrategyConfig(kind=StrategyKind.SCALARIZED, lam=(1.0, 0.0), eta_h=1e308)
        with pytest.raises(NonFiniteLossError, match="update at step 0 left the finite range") as info:
            run(instance, cfg, RunConfig(max_steps=3))
        assert info.value.step == 0
        result = run(instance, dataclasses.replace(cfg, eta_h=1e160), RunConfig(max_steps=1))
        assert result.trace[0].dh_norm == np.inf
        h = result.perturbations.h
        assert np.isfinite(h).all() and abs(h[0]) > 2.0**512

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_blocks_abort_with_step(self):
        # finite losses (logits +-1e8) while grad_h = 1e308 - (-1e308) overflows
        instance = ProblemInstance(
            V=2, d=1, T=1, H=[[1e-300]], W=[[1e308], [-1e308]], y=[1]
        )
        cfg = StrategyConfig(kind=StrategyKind.HARD_J6)
        with pytest.raises(NonFiniteLossError, match="gradient blocks must be finite") as info:
            run(instance, cfg, RunConfig(max_steps=3))
        assert info.value.step == 0

    def test_default_alignment_is_auto(self):
        assert StrategyConfig(kind=StrategyKind.SOFT).alignment == AlignmentMode(AlignKind.AUTO)

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


class TestDescent:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        V=st.integers(2, 8),
        d=st.integers(1, 5),
        T=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        w_mode=st.sampled_from(list(WMode)),
        lam=st.floats(0.0, 1.0),
    )
    def test_small_scalarized_step_descends_along_the_gradient(self, V, d, T, seed, w_mode, lam):
        # f = lam ob1 + (1 - lam) ob2 drops by eta |grad f|^2 (1 + O(eta)),
        # with grad f from central differences
        instance = generate(GeneratorSpec(V=V, d=d, T=T, seed=seed, w_mode=w_mode))
        start = init_perturbations(instance, init_scale=0.3, seed=seed)
        fd = [fd_gradient(which, instance, start) for which in "hw"]
        grad_sq = sum(float(np.vdot(lam * g[0] + (1 - lam) * g[1], lam * g[0] + (1 - lam) * g[1]))
                      for g in fd)
        assume(grad_sq > 1e-6)

        def f(obs):
            return lam * obs.ob1 + (1 - lam) * obs.ob2

        before = f(forward(instance, start).objectives)
        for eta in (1e-3, 1e-4):
            cfg = StrategyConfig(kind=StrategyKind.SCALARIZED, eta_h=eta, eta_w=eta, lam=(lam, 1 - lam))
            result = run(instance, cfg, RunConfig(max_steps=1, grad_tol=0.0, init_scale=0.3, seed=seed))
            drop = before - f(result.objectives)
            assert abs(drop / (eta * grad_sq) - 1.0) <= 10 * eta


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

    @pytest.mark.parametrize(
        "field, value", [("max_steps", 2.5), ("max_steps", 3.0), ("max_steps", True), ("seed", 1.5)]
    )
    def test_non_integer_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"'{field}' must be an integer"):
            RunConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        assert RunConfig(max_steps=np.int64(3), seed=np.uint64(5)).max_steps == 3

    @pytest.mark.parametrize("field", ["grad_tol", "loss_tol", "init_scale"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, True, False, "0.1", None, 1j, 10**400])
    def test_float_fields_strict(self, field, value):
        with pytest.raises(ValueError, match=f"'{field}' must be a finite real number"):
            RunConfig(**{field: value})

    def test_real_numbers_accepted(self):
        assert RunConfig(grad_tol=np.float32(1e-3), loss_tol=1, init_scale=np.int64(0)).loss_tol == 1


def _result_bytes(result: RunResult, kind: StrategyKind, path) -> tuple:
    """Everything a run returns, in a form that compares bit for bit:
    its trace file's bytes, the exact floats and arrays of each record,
    the final objectives and perturbations, and the stop reason."""
    write_trace(result, path, kind)
    return (path.read_bytes(), _rows(result.trace), result.objectives, result.stop_reason,
            result.perturbations.h.tobytes(), result.perturbations.w.tobytes())


def _rows(trace: list) -> list[tuple]:
    """A trace's records as tuples that compare bit for bit."""
    return [(r.step, r.ob1, r.ob2, r.n11, r.n12, r.n21, r.n22, r.scores.tobytes(), r.chosen_index,
             None if r.alpha is None else r.alpha.tobytes(), r.dh_norm, r.dw_norm) for r in trace]


def _serially(instance, cfgs, rcfg):
    """Each configuration run alone, in order, up to the first abort."""
    results = []
    for cfg in cfgs:
        try:
            results.append(run(instance, cfg, rcfg))
        except NonFiniteLossError as e:
            return results, e
    return results, None


@st.composite
def _batches(draw):
    """An instance, 1-16 mixed configurations and a run config.  The
    tolerances make runs stop at different steps, and eta 1e8 or 1e12
    makes some of them abort.  T reaches 16: from T = 8 on, numpy sums
    a row of 8 or more terms pairwise when they are contiguous, so a
    reduction laid out otherwise in a batch than alone shows."""
    w_mode = draw(st.sampled_from(list(WMode)))
    instance = generate(GeneratorSpec(V=draw(st.integers(2, 8)), d=draw(st.integers(1, 5)),
                                      T=draw(st.integers(1, 16)), seed=draw(st.integers(0, 2**32 - 1)),
                                      w_mode=w_mode))
    kinds = [AlignKind.AUTO, AlignKind.PUSHFORWARD] + (
        [] if w_mode is WMode.FULL_MATRIX else [AlignKind.DIRECT])
    cfgs = []
    for _ in range(draw(st.integers(1, 16))):
        eta = draw(st.sampled_from([0.01, 0.05, 0.5, 1e8, 1e12]))
        cfgs.append(StrategyConfig(
            kind=draw(st.sampled_from(list(StrategyKind))),
            tau=draw(st.sampled_from([0.05, 1.0, 10.0])),
            gamma=draw(st.sampled_from([1.5, 2.0, 3.0])),
            eta_h=eta,
            eta_w=draw(st.sampled_from([eta, 0.05])),
            beta_aux=draw(st.sampled_from([0.3, 0.5])),
            pre_norm=draw(st.sampled_from(list(PreNorm))),
            alignment=AlignmentMode(draw(st.sampled_from(kinds)),
                                    draw(st.sampled_from(list(AlignScale)))),
        ))
    rcfg = RunConfig(max_steps=draw(st.integers(0, 25)),
                     grad_tol=draw(st.sampled_from([0.0, 1e-3, 0.1])),
                     loss_tol=draw(st.sampled_from([0.0, 1e-5, 1e-2])),
                     init_scale=draw(st.sampled_from([0.0, 0.3])),
                     seed=draw(st.integers(0, 2**32 - 1)))
    return instance, cfgs, rcfg


class TestRunMany:
    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(batch=_batches(), width=st.sampled_from([None, 1, 3]))
    def test_each_run_in_a_batch_is_the_run_alone(self, batch, width):
        # every run writes the trace bytes and returns the result of run()
        # alone, whatever the batch width; an abort is the one serial
        # order raises first
        instance, cfgs, rcfg = batch
        alone, error = _serially(instance, cfgs, rcfg)
        with pytest.MonkeyPatch.context() as mp:
            if width is not None:
                mp.setattr(j6opt.optimizer, "_stack_width", lambda instance: width)
            if error is not None:
                with pytest.raises(NonFiniteLossError) as info:
                    run_many(instance, cfgs, rcfg)
                assert (str(info.value), info.value.step) == (str(error), error.step)
                return
            together = run_many(instance, cfgs, rcfg)
        assert len(together) == len(cfgs)
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "trace.csv"
            for cfg, a, b in zip(cfgs, alone, together):
                assert _result_bytes(a, cfg.kind, path) == _result_bytes(b, cfg.kind, path)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_lowest_index_abort_wins(self, diverging_run):
        # "late" aborts at step 8 (its Grams overflow), "early" at step 0
        # (its update, 1e308 J11 with J11 = 2^40, leaves the finite range);
        # the batch raises the abort of whichever comes first in the list,
        # as serial order does
        instance, late = diverging_run
        ok = StrategyConfig(kind=StrategyKind.STATIC)
        early = StrategyConfig(kind=StrategyKind.STATIC, eta_h=1e308)
        rcfg = RunConfig(max_steps=30)
        assert len(run(instance, ok, rcfg).trace) == 30
        for cfgs, first, step in (([ok, late, early], late, 8), ([ok, early, late], early, 0)):
            with pytest.raises(NonFiniteLossError) as alone:
                run(instance, first, rcfg)
            with pytest.raises(NonFiniteLossError) as info:
                run_many(instance, cfgs, rcfg)
            assert (info.value.step, str(info.value)) == (alone.value.step, str(alone.value))
            assert info.value.step == step

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("w_mode", [WMode.FULL_MATRIX, WMode.SINGLE_ROW])
    def test_two_abort_causes_at_one_step(self, w_mode):
        # From the uniform point A = 0, where the confidence gradient is 0
        # exactly, every update of step 0 is finite.  At step 1, "grams"
        # has A = -2^520 (K = A^2 overflows; logits -2^510 and the losses
        # stay finite), and "update" has A = -2^10 at logits +-1, where
        # 1e308 J22 overflows w.  The batch raises what serial order
        # raises first, and each run's trace up to its abort is its
        # trace alone.
        instance = ProblemInstance(V=2, d=1, T=1, H=[[0.0]], W=[[2.0**-10], [-2.0**-10]], y=[1],
                                   w_mode=w_mode, v_star=0)
        ok = StrategyConfig(kind=StrategyKind.STATIC)
        grams = StrategyConfig(kind=StrategyKind.STATIC, eta_h=2.0**530)
        update = StrategyConfig(kind=StrategyKind.STATIC, eta_h=2.0**20, eta_w=1e308)
        rcfg = RunConfig(max_steps=30)

        def traced(call, arg):
            # the abort ``call`` raises, and each trace list in the order
            # stop_check first sees it, as comparable rows
            traces = []

            def record(trace, rcfg):
                if not any(t is trace for t in traces):
                    traces.append(trace)
                return stop_check(trace, rcfg)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(j6opt.optimizer, "stop_check", record)
                with pytest.raises(NonFiniteLossError) as info:
                    call(instance, arg, rcfg)
            return (str(info.value), info.value.step), [_rows(t) for t in traces]

        messages = {"grams": "at step 1: gradient blocks must be finite, with finite Grams",
                    "update": "update at step 1 left the finite range: perturbations must be finite"}
        ok_alone = _rows(run(instance, ok, rcfg).trace)
        assert len(ok_alone) == 30
        # cosine scaling puts "update" in a batch of its own, so "grams",
        # in the next batch, never runs
        cosine = dataclasses.replace(update, alignment=AlignmentMode(scale=AlignScale.COSINE))
        for cfgs, first, ran in (([ok, grams, update], "grams", 3),
                                 ([ok, update, grams], "update", 3),
                                 ([ok, cosine, grams], "update", 2)):
            error, traces = traced(run_many, cfgs)
            alone = [traced(run, cfg) for cfg in cfgs[1:]]
            assert error == alone[0][0] == (messages[first], 1)
            assert traces == ([ok_alone] + [t for _, (t,) in alone])[:ran]
            assert [len(t) for t in traces] == [30, 1, 1][:ran]

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("w_mode", [WMode.FULL_MATRIX, WMode.SINGLE_ROW])
    def test_runs_kept_after_stops_and_an_abort_are_the_runs_alone(self, w_mode, tmp_path):
        # run 0 stops on the loss tolerance after step 1, run 4 aborts at
        # step 4 and run 2 stops on the loss tolerance later, so the batch
        # keeps rows (1, 2, 3, 4), then (0, 1, 2), then (0, 2), and each
        # keep re-slices the views the step writes through.  Every run
        # that finishes returns what it returns alone, bit for bit, and
        # the batch raises the abort run 4 raises alone.
        instance = generate(GeneratorSpec(V=6, d=4, T=3, seed=0, w_mode=w_mode))
        rcfg = RunConfig(max_steps=20, loss_tol=1e-2, init_scale=0.3)
        cfgs = [StrategyConfig(kind=kind, eta_h=eta, eta_w=eta) for kind, eta in (
            (StrategyKind.STATIC, 1e-9), (StrategyKind.SOFT, 0.05),
            (StrategyKind.GRAD_SURGERY, 1.0), (StrategyKind.HARD_JPLUS, 0.05),
            (StrategyKind.SCALARIZED, 1e50))]
        traces, results, kept = [], {}, []
        real_keep = j6opt.optimizer._Batch.keep

        def record(trace, rcfg):  # the traces in run order: all runs take step 0
            if not any(t is trace for t in traces):
                traces.append(trace)
            return stop_check(trace, rcfg)

        def result(*args):
            results[id(args[2])] = RunResult(*args)
            return results[id(args[2])]

        def keep(batch, rows):
            kept.append(list(rows))
            real_keep(batch, rows)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(j6opt.optimizer, "stop_check", record)
            mp.setattr(j6opt.optimizer, "RunResult", result)
            mp.setattr(j6opt.optimizer._Batch, "keep", keep)
            with pytest.raises(NonFiniteLossError) as info:
                run_many(instance, cfgs, rcfg)
        with pytest.raises(NonFiniteLossError) as alone:
            run(instance, cfgs[4], rcfg)
        assert (str(info.value), info.value.step) == (str(alone.value), 4)
        assert kept == [[1, 2, 3, 4], [0, 1, 2], [0, 2]]
        together = [results[id(trace)] for trace in traces[:4]]
        path = tmp_path / "trace.csv"
        for cfg, result in zip(cfgs, together):
            assert _result_bytes(result, cfg.kind, path) == _result_bytes(
                run(instance, cfg, rcfg), cfg.kind, path)
        assert [r.stop_reason for r in together] == [StopReason.LOSS_TOL, StopReason.MAX_STEPS,
                                                     StopReason.LOSS_TOL, StopReason.MAX_STEPS]
        assert len(together[0].trace) == 2 < 4 < len(together[2].trace) < 20

    def test_runs_stop_on_their_own(self):
        # the stationary start stops at once, the others run on
        instance = ProblemInstance(V=3, d=2, T=1, H=np.zeros((1, 2)), W=np.zeros((3, 2)), y=[0])
        moving = generate(GeneratorSpec(V=3, d=2, T=1, seed=1))
        rcfg = RunConfig(max_steps=6, loss_tol=1e-3)
        cfgs = [StrategyConfig(kind=StrategyKind.SCALARIZED, eta_h=eta, eta_w=eta)
                for eta in (1e-9, 0.05, 0.5)]
        steps = [len(r.trace) for r in run_many(moving, cfgs, rcfg)]
        assert steps[0] == 2 and steps[1:] == [len(run(moving, c, rcfg).trace) for c in cfgs[1:]]
        assert [r.stop_reason for r in run_many(instance, cfgs, rcfg)] == [StopReason.GRAD_TOL] * 3

    def test_batches_stay_within_the_byte_budget(self, monkeypatch):
        # 1000 x 64 B blocks are 512 kB, so two configurations per batch
        instance = generate(GeneratorSpec(V=1000, d=64, T=2, seed=1))
        widths = []
        real = j6opt.optimizer._lockstep

        def spy(instance, cfgs, *rest):
            widths.append(len(cfgs))
            return real(instance, cfgs, *rest)

        monkeypatch.setattr(j6opt.optimizer, "_lockstep", spy)
        run_many(instance, [StrategyConfig(kind=kind) for kind in StrategyKind], RunConfig(max_steps=1))
        assert widths == [2, 2, 2]

    def test_a_batch_ends_where_the_resolved_alignment_changes(self, monkeypatch, tmp_path):
        # auto and direct both resolve to direct-raw on single_row, so the
        # runs either side of the pushforward-cosine one share a batch
        instance = generate(GeneratorSpec(V=6, d=4, T=1, seed=3, w_mode=WMode.SINGLE_ROW))
        direct = AlignmentMode(AlignKind.DIRECT)
        cosine = AlignmentMode(AlignKind.PUSHFORWARD, AlignScale.COSINE)
        alignments = [AlignmentMode(), direct, cosine, direct, AlignmentMode()]
        cfgs = [StrategyConfig(kind=kind, alignment=alignment)
                for kind, alignment in zip(StrategyKind, alignments)]
        calls = []
        real = j6opt.optimizer._lockstep

        def spy(instance, cfgs, mode, *rest):
            calls.append((len(cfgs), mode))
            return real(instance, cfgs, mode, *rest)

        monkeypatch.setattr(j6opt.optimizer, "_lockstep", spy)
        rcfg = RunConfig(max_steps=5, init_scale=0.3)
        together = run_many(instance, cfgs, rcfg)
        assert calls == [(2, direct), (1, cosine), (2, direct)]
        path = tmp_path / "trace.csv"
        for cfg, result in zip(cfgs, together):
            assert _result_bytes(result, cfg.kind, path) == _result_bytes(
                run(instance, cfg, rcfg), cfg.kind, path)

    def test_plan_is_built_per_batch_and_per_keep(self, monkeypatch):
        # three batches of four; the runs at eta 1e-9 stop on the loss
        # tolerance after two steps, so their batches keep fewer runs
        instance = generate(GeneratorSpec(V=6, d=4, T=2, seed=0))
        cfgs = [StrategyConfig(kind=kind, eta_h=eta, eta_w=eta)
                for kind in StrategyKind for eta in (1e-9, 0.05)]
        rcfg = RunConfig(max_steps=8, loss_tol=1e-3, init_scale=0.3)
        built = {"_Rules": 0}
        calls = {"keep": 0, "decide": 0}

        def counting(name):
            real = getattr(j6opt.optimizer, name)

            def build(arg):
                built[name] += 1
                return real(arg)
            return build

        real_keep, real_decide = j6opt.optimizer._Batch.keep, j6opt.optimizer.decide

        def keep(batch, rows):
            calls["keep"] += 1
            real_keep(batch, rows)

        def decide_spy(jplus, j6, grams, plan):
            assert isinstance(plan, j6opt.strategies._Rules)  # never a list to compile
            calls["decide"] += 1
            return real_decide(jplus, j6, grams, plan)

        for name in built:
            monkeypatch.setattr(j6opt.optimizer, name, counting(name))
        monkeypatch.setattr(j6opt.optimizer._Batch, "keep", keep)
        monkeypatch.setattr(j6opt.optimizer, "decide", decide_spy)
        monkeypatch.setattr(j6opt.optimizer, "_stack_width", lambda instance: 4)
        results = run_many(instance, cfgs, rcfg)
        assert calls["keep"] > 0
        assert built == {"_Rules": 3 + calls["keep"]}
        # one decision per step of each batch: as many as its longest run's steps
        assert calls["decide"] == sum(max(len(r.trace) for r in results[b:b + 4])
                                      for b in (0, 4, 8))
        assert [len(r.trace) for r in results[::2]] == [2] * 6


@st.composite
def _one_step_batches(draw):
    """An instance of any w_mode and a batch of configurations mixing the
    strategies, the alignments and raw with cosine scaling."""
    w_mode = draw(st.sampled_from(list(WMode)))
    instance = generate(GeneratorSpec(V=draw(st.integers(2, 12)), d=draw(st.integers(1, 6)),
                                      T=draw(st.integers(1, 6)), seed=draw(st.integers(0, 2**32 - 1)),
                                      w_mode=w_mode))
    kinds = [AlignKind.AUTO, AlignKind.PUSHFORWARD] + (
        [] if w_mode is WMode.FULL_MATRIX else [AlignKind.DIRECT])
    cfgs = [StrategyConfig(kind=draw(st.sampled_from(list(StrategyKind))),
                           eta_h=draw(st.sampled_from([0.01, 0.05, 0.5])),
                           eta_w=draw(st.sampled_from([0.01, 0.05, 0.5])),
                           beta_aux=draw(st.sampled_from([0.3, 0.5])),
                           alignment=AlignmentMode(draw(st.sampled_from(kinds)),
                                                   draw(st.sampled_from(list(AlignScale)))))
            for _ in range(draw(st.integers(1, 8)))]
    return instance, cfgs


class TestStep:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(batch=_one_step_batches())
    def test_step_is_minus_eta_c_applied_to_the_public_blocks(self, batch):
        # delta h = -eta_h (c00 J11 + c01 J21) and delta w = -eta_w (c10 J12 + c11 J22),
        # c decided on the public gradient set's scores and Grams, J12 and J22 from
        # its w; one step from zero, whose end point is the step itself, taken
        # alone (K = 1) and in the batch
        instance, cfgs = batch
        rcfg = RunConfig(max_steps=1, grad_tol=0.0)
        gs = compute_gradient_set(instance, init_perturbations(instance))
        J12, J22 = gs.w
        for cfg, in_batch in zip(cfgs, run_many(instance, cfgs, rcfg)):
            mode = resolve_alignment(cfg.alignment, instance.w_mode)
            c, _, _ = decide(score_jplus(gs, mode)[None], score_j6(gs, mode)[None],
                             np.array(gs.grams)[None], [cfg])
            (c00, c01), (c10, c11) = c[0]
            want = (-cfg.eta_h * (c00 * gs.J11 + c01 * gs.J21),
                    -cfg.eta_w * (c10 * J12 + c11 * J22))
            for result in (run(instance, cfg, rcfg), in_batch):
                for got, step in zip((result.perturbations.h, result.perturbations.w), want):
                    assert np.linalg.norm(got - step) <= 1e-13 * np.linalg.norm(step)

    @pytest.mark.parametrize("w_mode", list(WMode))
    def test_final_objectives_hold_to_the_final_point_over_200_steps(self, w_mode):
        # Under full_matrix B = W + w is formed once, then stepped with w.
        # Each step rounds B and w once each (by at most u |B| and u |w|,
        # u = 2^-53), so after n steps B differs from W + w by at most
        # n u (|B| + |w|) entrywise: about 2.2e-14 relative at n = 200.
        # The logits and losses inherit that times a modest condition
        # number, so the stated bound is 1e-12 relative (5.6e-15 was the
        # largest seen over 6 seeds, six strategies and sizes up to
        # 200x32x16).  The other modes form B from w every step: exact.
        for seed, (V, d, T), kind in itertools.product(range(3), ((6, 4, 2), (64, 16, 8)),
                                                       StrategyKind):
            instance = generate(GeneratorSpec(V=V, d=d, T=T, seed=seed, w_mode=w_mode))
            cfg = StrategyConfig(kind=kind, eta_h=0.05, eta_w=0.05)
            rcfg = RunConfig(max_steps=200, grad_tol=0.0, init_scale=0.3, seed=seed)
            result = run(instance, cfg, rcfg)
            assert len(result.trace) == 200
            got, want = result.objectives, forward(instance, result.perturbations).objectives
            if w_mode is WMode.FULL_MATRIX:
                np.testing.assert_allclose([got.ob1, got.ob2], [want.ob1, want.ob2], rtol=1e-12)
            else:
                assert got == want


def _outcome(instance, cfgs, rcfg, path) -> tuple | list:
    """What a ``run_many`` call returns, in a form that compares bit for
    bit, or the message and step of the abort it raises."""
    try:
        results = run_many(instance, cfgs, rcfg)
    except NonFiniteLossError as e:
        return str(e), e.step
    return [_result_bytes(result, cfg.kind, path) for cfg, result in zip(cfgs, results)]


@st.composite
def _call_sequences(draw):
    """An instance of any w_mode and calls on it, in order: one run, a
    batch of three, the run again, a batch whose runs stop at different
    steps (so it keeps fewer), a batch that aborts, and a run right after
    the abort."""
    w_mode = draw(st.sampled_from(list(WMode)))
    instance = generate(GeneratorSpec(V=draw(st.integers(2, 12)), d=draw(st.integers(1, 6)),
                                      T=draw(st.integers(1, 9)), seed=draw(st.integers(0, 2**32 - 1)),
                                      w_mode=w_mode))
    kinds = [AlignKind.AUTO, AlignKind.PUSHFORWARD] + (
        [] if w_mode is WMode.FULL_MATRIX else [AlignKind.DIRECT])

    def config(eta):
        return StrategyConfig(kind=draw(st.sampled_from(list(StrategyKind))), eta_h=eta, eta_w=eta,
                              alignment=AlignmentMode(draw(st.sampled_from(kinds)),
                                                      draw(st.sampled_from(list(AlignScale)))))

    a, b, c = (config(draw(st.sampled_from([0.01, 0.05, 0.5]))) for _ in range(3))
    boom = StrategyConfig(kind=StrategyKind.STATIC, eta_h=1e308, eta_w=1e308)
    rcfg = RunConfig(max_steps=draw(st.integers(1, 12)), grad_tol=0.0,
                     init_scale=draw(st.sampled_from([0.0, 0.3])), seed=draw(st.integers(0, 2**32 - 1)))
    stops = dataclasses.replace(rcfg, loss_tol=1e-3)
    return instance, [([a], rcfg), ([a, b, c], rcfg), ([a], rcfg), ([config(1e-9), a, b], stops),
                      ([a, boom], rcfg), ([b], rcfg)]


class TestSuccessiveCalls:
    """Calls on one instance share nothing: each forms its own step
    arrays, so no call may see what an earlier one left behind."""

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=_call_sequences(), width=st.sampled_from([None, 1, 2]))
    def test_successive_calls_match_calls_on_fresh_copies(self, case, width):
        instance, calls = case
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            if width is not None:
                mp.setattr(j6opt.optimizer, "_stack_width", lambda instance: width)
            path = pathlib.Path(tmp) / "trace.csv"
            for i, (cfgs, rcfg) in enumerate(calls):
                fresh = _outcome(dataclasses.replace(instance), cfgs, rcfg, path)
                assert _outcome(instance, cfgs, rcfg, path) == fresh
                assert isinstance(fresh, tuple) == (i == 4)  # only the batch with boom aborts

    def test_two_threads_on_one_instance_match_sequential_runs(self, tmp_path):
        # two threads (no more) step the same instance at once, one
        # configuration after another in opposite orders, the interpreter
        # switching between them as often as it can
        instance = generate(GeneratorSpec(V=64, d=16, T=4, seed=6))
        cfgs = [StrategyConfig(kind=kind, eta_h=0.05, eta_w=0.05) for kind in StrategyKind]
        rcfg = RunConfig(max_steps=20, grad_tol=0.0, init_scale=0.3, seed=2)
        path = tmp_path / "trace.csv"
        want = [_result_bytes(run(dataclasses.replace(instance), cfg, rcfg), cfg.kind, path)
                for cfg in cfgs]
        barrier = threading.Barrier(2, timeout=10)
        got: list[list] = [[], []]

        def work(t):
            barrier.wait()
            for _ in range(3):
                for k in (range(len(cfgs)) if t == 0 else reversed(range(len(cfgs)))):
                    got[t].append((k, run(instance, cfgs[k], rcfg)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [len(results) for results in got] == [3 * len(cfgs)] * 2
        for k, result in got[0] + got[1]:
            assert _result_bytes(result, cfgs[k].kind, path) == want[k]
