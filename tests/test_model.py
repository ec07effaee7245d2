"""Forward pass, losses, analytic gradients, and the finite-difference
oracle.

Derived expectations are frozen from independent routes: scalar loops in
plain Python for the bilinear map, math.exp/math.log closed forms for
the softmax examples, and central differences for every gradient.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import j6opt.attribution
import j6opt.model
from j6opt import (
    GeneratorSpec,
    Perturbations,
    ProblemInstance,
    WMode,
    compute_gradient_set,
    fd_gradient,
    forward,
    generate,
    init_perturbations,
    log_softmax,
    logit_gradients,
    losses,
    w_shape,
    zero_perturbations,
)
from j6opt.model import w_columns


def _probs(z):
    """Probabilities of one logit vector, through the row-wise log-softmax."""
    return np.exp(log_softmax(np.asarray(z, dtype=np.float64)[None, :]))[0]


def _losses(z, y=None):
    """Both losses of a (T, V) logit matrix; y defaults to token 0 at
    every position (the confidence loss ignores it)."""
    z = np.asarray(z, dtype=np.float64)
    return losses(log_softmax(z), np.zeros(z.shape[0], dtype=np.int64) if y is None else y)


def _grad_logits(z, y_t):
    """Heat and confidence logit gradients of one logit vector."""
    g = logit_gradients(log_softmax(np.asarray(z, dtype=np.float64)[None, :]), [y_t])
    return g[0, 0], g[1, 0]


def _logits(instance, pert):
    """The logits A B^T of the forward pass at ``pert``, which its logp is
    the log-softmax of, bit for bit."""
    fwd = forward(instance, pert)
    logits = fwd.A @ fwd.B.swapaxes(-1, -2)
    assert fwd.logp.tobytes() == log_softmax(logits).tobytes()
    return logits


def scalar_loop_logits(instance, pert):
    """Independent oracle: the bilinear formula as plain Python loops."""
    out = [[0.0] * instance.V for _ in range(instance.T)]
    for t in range(instance.T):
        for v in range(instance.V):
            acc = 0.0
            for k in range(instance.d):
                w_vk = 0.0
                if instance.w_mode is WMode.FULL_MATRIX:
                    w_vk = float(pert.w[v][k])
                elif instance.w_mode is WMode.SINGLE_ROW:
                    w_vk = float(pert.w[k]) if v == instance.v_star else 0.0
                else:
                    w_vk = float(pert.w[k])
                acc += (float(instance.H[t][k]) + float(pert.h[k])) * (
                    float(instance.W[v][k]) + w_vk
                )
            out[t][v] = acc
    return np.array(out)


class TestComputeLogits:
    def test_zero_perturbation_reduces_to_base_product(self):
        H = np.array([[1.0, 0.0]])
        W = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        for mode in WMode:
            instance = ProblemInstance(V=3, d=2, T=1, H=H, W=W, y=[0], w_mode=mode)
            logits = _logits(instance, zero_perturbations(instance))
            np.testing.assert_array_equal(logits, [[1.0, 0.0, 1.0]])

    def test_zero_hidden_states_annihilate(self):
        instance = ProblemInstance(
            V=3, d=2, T=2, H=np.zeros((2, 2)), W=np.ones((3, 2)), y=[0, 1]
        )
        logits = _logits(instance, zero_perturbations(instance))
        np.testing.assert_array_equal(logits, np.zeros((2, 3)))

    def test_single_row_example(self, derived_instance):
        instance, pert = derived_instance
        logits = _logits(instance, pert)
        np.testing.assert_allclose(logits, [[1.43, 0.2, 1.3]], rtol=0, atol=1e-15)
        np.testing.assert_allclose(logits, scalar_loop_logits(instance, pert), rtol=1e-15)

    def test_matches_scalar_loop_on_random_points(self, make_point):
        for seed, mode in enumerate(WMode):
            instance, pert = make_point(seed=seed, w_mode=mode)
            np.testing.assert_allclose(
                _logits(instance, pert),
                scalar_loop_logits(instance, pert),
                rtol=1e-13,
            )

    def test_kernel_takes_the_given_B(self, make_point):
        # the B a caller keeps at the point (the optimizer's state beside
        # w) gives the kernel the pass forward forms
        for seed, mode in enumerate(WMode):
            instance, pert = make_point(seed=seed, w_mode=mode)
            own = forward(instance, pert)
            given = j6opt.model._forward(instance, pert.h[None], own.B.copy()[None])
            assert given.logp[0].tobytes() == own.logp.tobytes()
            assert given.take(0).objectives == own.objectives

    def test_wrong_w_shape_raises(self):
        instance = ProblemInstance(V=3, d=2, T=1, H=[[1.0, 0.0]], W=np.eye(3, 2), y=[0])
        with pytest.raises(ValueError, match="shape"):
            forward(instance, Perturbations([0.0, 0.0], [0.0, 0.0]))

    def test_wrong_h_shape_raises(self):
        instance = ProblemInstance(V=3, d=2, T=1, H=[[1.0, 0.0]], W=np.eye(3, 2), y=[0])
        for h in ([0.0, 0.0, 0.0], [[0.0, 0.0]], [[[0.0, 0.0]]]):
            with pytest.raises(ValueError, match=r"h must have shape \(2,\), got"):
                forward(instance, Perturbations(h, np.zeros((3, 2))))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_perturbations_rejected(self, bad):
        for h, w in (([bad, 0.0], np.zeros((3, 2))), ([0.0, 0.0], [[0.0, bad]] * 3)):
            with pytest.raises(ValueError, match="perturbations must be finite"):
                Perturbations(h, w)


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(_probs(np.zeros(4)), np.full(4, 0.25), rtol=0)

    def test_known_point(self):
        # independent closed form: p = [1, e^-1, 1] / (2 + e^-1)
        z = 2.0 + math.exp(-1.0)
        expected = np.array([1.0 / z, math.exp(-1.0) / z, 1.0 / z])
        np.testing.assert_allclose(_probs(np.array([1.0, 0.0, 1.0])), expected, rtol=1e-15)

    def test_shift_invariance_exact_for_representable_shift(self):
        z = np.array([1.0, 0.5, -2.0])
        np.testing.assert_array_equal(_probs(z), _probs(z + 8.0))

    def test_shift_invariance_general(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            z = rng.normal(size=6)
            k = rng.normal() * 100
            np.testing.assert_allclose(_probs(z), _probs(z + k), atol=1e-10)

    def test_sums_to_one_and_positive(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = _probs(rng.normal(size=8) * 5)
            assert abs(p.sum() - 1.0) < 1e-12
            assert (p >= 0).all()

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            _grad_logits(np.array([1.0, np.inf]), 0)

    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("K, T, V", [(1, 1, 2), (3, 5, 7), (4, 16, 1000), (2, 3, 129)])
    def test_stack_is_its_flattening(self, K, T, V):
        # the kernel's log-softmax along the last axis of a (K, T, V)
        # stack is bit for bit the 2-D one of the (K T, V) flattening
        z = np.random.default_rng(K * T * V).normal(size=(K, T, V)) * 30
        z[0, 0, 0] = np.inf  # a non-finite row passes through as nan
        flat = log_softmax(z.reshape(-1, V)).reshape(z.shape)
        assert j6opt.model._log_softmax(z.copy()).tobytes() == flat.tobytes()

    def test_leaves_its_input_unchanged(self):
        # the kernel forms the log-softmax in place; the public function
        # gives it a copy
        z = np.array([[0.5, -1.0, 2.0], [1.0, 0.0, -3.0]])
        before = z.copy()
        logp = log_softmax(z)
        assert not np.shares_memory(logp, z)
        assert z.tobytes() == before.tobytes()
        kernel = j6opt.model._log_softmax(z)
        assert kernel is z and kernel.tobytes() == logp.tobytes()

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 3, 4)])
    def test_rank_other_than_2_rejected(self, shape):
        for call in (log_softmax, lambda z: losses(z, np.zeros(3, dtype=np.int64)),
                     lambda z: logit_gradients(z, np.zeros(3, dtype=np.int64))):
            with pytest.raises(ValueError, match=r"must be a \(T, V\) matrix, got shape"):
                call(np.zeros(shape))

    def test_slices_give_the_kernel_stacked_objectives(self, make_point):
        # the losses of each slice of the kernel's (K, T, V) log-softmax
        # are its stacked losses, bit for bit
        K = 3
        for seed, mode in enumerate(WMode):
            instance, pert = make_point(seed=seed, w_mode=mode)
            h = pert.h + np.arange(K)[:, None] / 7
            w = np.repeat(pert.w[None], K, axis=0)
            fwd = j6opt.model._forward(instance, h, j6opt.model._factor_B(instance, w))
            assert fwd.ob1.shape == fwd.ob2.shape == (K,)
            for k in range(K):
                obs = losses(fwd.logp[k], instance.y)
                assert (obs.ob1, obs.ob2) == (fwd.ob1[k], fwd.ob2[k])
                assert obs == forward(instance, Perturbations(h[k], w[k])).objectives

    @pytest.mark.parametrize("call", [losses, logit_gradients])
    def test_non_integer_targets_rejected(self, call):
        with pytest.raises(ValueError, match="integer dtype"):
            call(np.array([[-0.5, -1.0]]), [0.5])


class TestStrictTargets:
    """losses and logit_gradients take T targets in [0, V) and raise
    ValueError naming y otherwise: a negative target would wrap to the
    last column, a short y would broadcast over the rows, and a target
    of V or more would read the next row of a flat index."""

    @pytest.mark.parametrize("call", [losses, logit_gradients])
    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("y, message", [
        ([-1, 0], r"y entries must lie in \[0, 3\), got \[-1, 0\]"),
        ([3, 0], r"y entries must lie in \[0, 3\), got \[3, 0\]"),
        ([0, 7], r"y entries must lie in \[0, 3\), got \[0, 7\]"),
        ([0], r"y must have shape \(2,\), got \(1,\)"),
        ([0, 1, 2], r"y must have shape \(2,\), got \(3,\)"),
        ([[0, 1]], r"y must have shape \(2,\), got \(1, 2\)"),
    ])
    def test_rejected(self, call, stacked, y, message):
        logp = log_softmax(np.array([[0.5, -1.0, 2.0], [1.0, 0.0, -3.0]]))
        if stacked:  # a stack is rejected before its targets are read
            message = r"must be a \(T, V\) matrix, got shape \(2, 2, 3\)"
        with pytest.raises(ValueError, match=message):
            call(np.stack([logp, logp]) if stacked else logp, np.array(y))

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int64, np.uint64])
    def test_any_integer_dtype_reads_the_same_targets(self, dtype):
        logp = log_softmax(np.array([[0.5, -1.0, 2.0], [1.0, 0.0, -3.0]]))
        y = np.array([2, 1], dtype=dtype)
        assert losses(logp, y).ob1 == -(logp[0, 2] + logp[1, 1]) / 2
        g = logit_gradients(logp, y)
        assert g[0].tobytes() == (np.exp(logp) - np.eye(3)[[2, 1]]).tobytes()


class TestHeatLoss:
    def test_uniform_logits(self):
        assert _losses(np.zeros((1, 4)), [2]).ob1 == pytest.approx(math.log(4.0), rel=1e-15)

    def test_known_point(self):
        expected = math.log(2.0 + math.exp(-1.0))  # -log p_0 at logits [1, 0, 1]
        assert _losses(np.array([[1.0, 0.0, 1.0]]), [0]).ob1 == pytest.approx(expected, rel=1e-15)

    def test_confident_correct_limit(self):
        values = [_losses(np.array([[m, 0.0, 0.0]]), [0]).ob1 for m in (5.0, 15.0, 40.0)]
        assert values[0] > values[1] > values[2] >= 0.0
        assert values[2] < 1e-15

    def test_mean_over_positions(self):
        single_a = _losses(np.array([[1.0, 0.0, 1.0]]), [0]).ob1
        single_b = _losses(np.array([[0.0, 0.0, 0.0]]), [2]).ob1
        both = _losses(np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]), [0, 2]).ob1
        assert both == pytest.approx((single_a + single_b) / 2.0, rel=1e-15)

    def test_target_out_of_range_raises(self):
        with pytest.raises(ValueError, match=r"y entries must lie in \[0, 3\)"):
            _losses(np.zeros((1, 3)), [5])


class TestConfidenceLoss:
    def test_uniform_is_max_entropy(self):
        assert _losses(np.zeros((1, 4))).ob2 == pytest.approx(-math.log(4.0), rel=1e-15)

    def test_one_hot_limit(self):
        value = _losses(np.array([[30.0, 0.0, 0.0]])).ob2
        assert -1e-10 < value <= 0.0

    def test_known_point(self):
        z = 2.0 + math.exp(-1.0)
        p = [1.0 / z, math.exp(-1.0) / z, 1.0 / z]
        expected = sum(pi * math.log(pi) for pi in p)
        assert _losses(np.array([[1.0, 0.0, 1.0]])).ob2 == pytest.approx(expected, rel=1e-14)

    def test_bounds_on_random_logits(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            V = int(rng.integers(2, 9))
            value = _losses(rng.normal(size=(2, V)) * 3).ob2
            assert -math.log(V) - 1e-12 <= value <= 0.0


class TestLossValidation:
    """Under validation mode the loss bounds are asserted, each only when
    the loss is finite."""

    def test_negative_heat_caught(self):
        # a corrupt log-probability above 0 gives a negative heat loss
        with pytest.raises(AssertionError, match="heat"):
            losses(np.array([[0.5, -3.0]]), [0])

    def test_confidence_out_of_bounds_caught(self):
        with pytest.raises(AssertionError, match="confidence"):
            losses(np.array([[-5.0, 0.5]]), [0])

    def test_non_finite_losses_pass_through(self):
        value = losses(np.array([[np.nan, 0.0]]), [0])
        assert np.isnan(value.ob1) and np.isnan(value.ob2)


class TestShiftInvariance:
    """Adding a constant to one position's logits changes nothing."""

    def test_losses_and_gradients(self):
        rng = np.random.default_rng(17)
        logits = rng.normal(size=(2, 5))
        shifted = logits.copy()
        shifted[0] += 37.5
        y = [3, 1]
        assert abs(_losses(logits, y).ob1 - _losses(shifted, y).ob1) < 1e-10
        assert abs(_losses(logits).ob2 - _losses(shifted).ob2) < 1e-10
        np.testing.assert_allclose(
            logit_gradients(log_softmax(logits), y),
            logit_gradients(log_softmax(shifted), y),
            atol=1e-10,
        )


class TestGradLogitsHeat:
    def test_uniform(self):
        g_heat, _ = _grad_logits(np.zeros(4), 1)
        np.testing.assert_allclose(g_heat, [0.25, -0.75, 0.25, 0.25], rtol=0)

    def test_perfect_prediction(self):
        # exp(-800) underflows, so the softmax is exactly one-hot
        g_heat, _ = _grad_logits(np.array([0.0, 800.0, 0.0]), 1)
        np.testing.assert_array_equal(g_heat, np.zeros(3))

    def test_matches_finite_differences(self):
        z = np.array([1.0, 0.0, 1.0])
        analytic, _ = _grad_logits(z, 0)
        eps = 1e-6
        for k in range(3):
            zp, zm = z.copy(), z.copy()
            zp[k] += eps
            zm[k] -= eps
            fd = (_losses(zp[None, :], [0]).ob1 - _losses(zm[None, :], [0]).ob1) / (2 * eps)
            assert analytic[k] == pytest.approx(fd, abs=1e-6)

    def test_zero_sum(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            g_heat, _ = _grad_logits(rng.normal(size=6) * 4, int(rng.integers(6)))
            assert abs(g_heat.sum()) < 1e-10


class TestGradLogitsConf:
    def test_uniform_is_stationary(self):
        _, g_conf = _grad_logits(np.zeros(4), 0)
        np.testing.assert_allclose(g_conf, np.zeros(4), atol=1e-15)

    def test_exact_onehot_is_stationary(self):
        _, g_conf = _grad_logits(np.array([800.0, 0.0, 0.0]), 0)
        np.testing.assert_array_equal(g_conf, np.zeros(3))

    def test_matches_finite_differences(self):
        z = np.array([1.0, 0.0, 1.0])
        _, analytic = _grad_logits(z, 0)
        eps = 1e-6
        for k in range(3):
            zp, zm = z.copy(), z.copy()
            zp[k] += eps
            zm[k] -= eps
            fd = (_losses(zp[None, :]).ob2 - _losses(zm[None, :]).ob2) / (2 * eps)
            assert analytic[k] == pytest.approx(fd, abs=1e-6)

    def test_zero_sum(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            _, g_conf = _grad_logits(rng.normal(size=5) * 4, 0)
            assert abs(g_conf.sum()) < 1e-10


def _fields(instance, pert):
    """The forward pass and both logit-space gradients, (2, T, V)."""
    fwd = forward(instance, pert)
    return fwd, logit_gradients(fwd.logp, instance.y)


def _grad_h_heat(instance, pert):
    """grad_h of heat: J11, which the gradient set pulls back from the
    logit-space gradients."""
    return compute_gradient_set(instance, pert).J11


def _pull_w(instance, pert, g):
    """Pull one (T, V) logit-space gradient back to w."""
    return j6opt.model._pullback(instance, forward(instance, pert).A, g[None])[0] / instance.T


def _heat_field(instance, pert):
    return _fields(instance, pert)[1][0]


class TestGradH:
    def test_zero_gradient_field(self):
        # a softmax exactly one-hot on the target zeroes the heat field
        instance = ProblemInstance(V=3, d=1, T=1, H=[[800.0]], W=[[1.0], [0.0], [-1.0]], y=[0])
        pert = zero_perturbations(instance)
        np.testing.assert_array_equal(_heat_field(instance, pert), np.zeros((1, 3)))
        np.testing.assert_array_equal(_grad_h_heat(instance, pert), np.zeros(instance.d))

    def test_matches_fd_on_derived_instance(self, derived_instance):
        instance, pert = derived_instance
        analytic = _grad_h_heat(instance, pert)
        fd = fd_gradient("h", instance, pert)[0]
        np.testing.assert_allclose(analytic, fd, rtol=1e-6)

    def test_components_vanish_under_orthogonality(self):
        # every embedding row lies on the first axis, so grad_h never
        # leaves it
        instance = ProblemInstance(
            V=3, d=2, T=1, H=[[0.5, -1.0]], W=[[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]], y=[0]
        )
        pert = zero_perturbations(instance)
        assert _grad_h_heat(instance, pert)[1] == 0.0


class TestGradW:
    def test_broadcast_mode_is_gradient_dead(self, make_point):
        for seed in range(20):
            instance, pert = make_point(seed=seed, w_mode=WMode.BROADCAST)
            _, g = _fields(instance, pert)
            for field in g:  # heat, confidence
                assert np.linalg.norm(_pull_w(instance, pert, field)) < 1e-12

    def test_full_matrix_matches_fd(self, make_point):
        instance, pert = make_point(seed=3, w_mode=WMode.FULL_MATRIX)
        analytic = _pull_w(instance, pert, _heat_field(instance, pert))
        fd = fd_gradient("w", instance, pert)[0]
        np.testing.assert_allclose(analytic, fd, rtol=1e-5)

    def test_single_row_matches_fd(self, make_point):
        instance, pert = make_point(seed=4, w_mode=WMode.SINGLE_ROW)
        analytic = _pull_w(instance, pert, _heat_field(instance, pert))
        fd = fd_gradient("w", instance, pert)[0]
        np.testing.assert_allclose(analytic, fd, rtol=1e-5)

    def test_zero_gradient_field(self, make_point):
        instance, pert = make_point(seed=5)
        g = np.zeros((instance.T, instance.V))
        np.testing.assert_array_equal(_pull_w(instance, pert, g), np.zeros((instance.V, instance.d)))


def reference_pullback(instance, fwd, g):
    """Reference: the three per-mode w formulas the one ``w_columns``
    route replaced."""
    T = instance.T
    if instance.w_mode is WMode.FULL_MATRIX:
        return (g.transpose(0, 2, 1) @ fwd.A) / T
    if instance.w_mode is WMode.SINGLE_ROW:
        return (g[:, :, instance.v_star] @ fwd.A) / T
    return (g.sum(axis=2) @ fwd.A) / T


class TestPullback:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        V=st.integers(2, 12),
        d=st.integers(1, 6),
        T=st.integers(1, 6),
        K=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        w_mode=st.sampled_from(list(WMode)),
    )
    def test_bit_equal_to_per_mode_formulas(self, V, d, T, K, seed, w_mode):
        instance = generate(GeneratorSpec(V=V, d=d, T=T, seed=seed, w_mode=w_mode))
        fwd = forward(instance, init_perturbations(instance, init_scale=0.3, seed=seed))
        g = np.random.default_rng(seed).normal(size=(K, T, V))
        got = j6opt.model._pullback(instance, fwd.A, g) / T
        assert got.shape == (K,) + w_shape(V, d, w_mode)
        np.testing.assert_array_equal(got, reference_pullback(instance, fwd, g))

    def test_w_columns_per_mode(self):
        x = np.arange(2 * 3 * 6, dtype=np.float64).reshape(2, 3, 6)
        for w_mode, want in (
            (WMode.FULL_MATRIX, x),
            (WMode.SINGLE_ROW, x[:, :, 4]),
            (WMode.BROADCAST, x.sum(axis=2)),
        ):
            instance = ProblemInstance(
                V=6, d=2, T=3, H=np.ones((3, 2)), W=np.ones((6, 2)), y=[0, 1, 2],
                w_mode=w_mode, v_star=4,
            )
            np.testing.assert_array_equal(w_columns(instance, x), want)
            np.testing.assert_array_equal(w_columns(instance, x[0, 0]), want[0, 0])


class TestFdGradient:
    def test_agrees_with_analytic_on_random_instances(self, make_point):
        for seed in range(10):
            mode = WMode.SINGLE_ROW if seed % 2 else WMode.FULL_MATRIX
            instance, pert = make_point(seed=seed, w_mode=mode)
            analytic = _grad_h_heat(instance, pert)
            fd = fd_gradient("h", instance, pert)[0]
            rel = np.linalg.norm(analytic - fd) / (np.linalg.norm(fd) + 1e-12)
            assert rel < 1e-5

    def test_second_order_accuracy(self, derived_instance):
        # halving eps should shrink the error roughly 4x
        instance, pert = derived_instance
        exact = _grad_h_heat(instance, pert)
        err = {
            eps: np.linalg.norm(fd_gradient("h", instance, pert, eps)[0] - exact)
            for eps in (2e-3, 1e-3)
        }
        ratio = err[2e-3] / err[1e-3]
        assert 2.0 < ratio < 8.0

    def test_invalid_arguments(self, derived_instance):
        instance, pert = derived_instance
        with pytest.raises(ValueError):
            fd_gradient("q", instance, pert)
        with pytest.raises(ValueError):
            fd_gradient("h", instance, pert, eps=0.0)
        with pytest.raises(ValueError, match=r"h must have shape \(2,\), got \(1, 2\)"):
            fd_gradient("h", instance, Perturbations(pert.h[None], pert.w[None]))

    def test_independent_of_the_gradient_code(self, make_point, monkeypatch):
        # the oracle must run with every analytic gradient path disabled
        instance, pert = make_point(seed=6, w_mode=WMode.FULL_MATRIX)
        gs = compute_gradient_set(instance, pert)
        blocks = (gs.J11, gs.J12, gs.J21, gs.J22)  # the w blocks are formed on request

        def refuse(*args, **kwargs):
            raise AssertionError("fd_gradient reached the analytic gradient code")

        for module, name in (
            (j6opt.model, "logit_gradients"),
            (j6opt.model, "_logit_gradients"),
            (j6opt.model, "_pullback"),
            (j6opt.attribution, "_logit_gradients"),
            (j6opt.attribution, "_pullback"),
            (j6opt.attribution, "compute_gradient_set"),
        ):
            monkeypatch.setattr(module, name, refuse)
        fd_h, fd_w = fd_gradient("h", instance, pert), fd_gradient("w", instance, pert)
        for block, fd in zip(blocks, (fd_h[0], fd_w[0], fd_h[1], fd_w[1])):
            assert np.linalg.norm(block - fd) / (np.linalg.norm(fd) + 1e-12) < 1e-5


def reference_fd(objective, which, instance, pert, eps=1e-5):
    """Reference: the per-objective central-difference oracle that the
    stacked one replaced.  A and B are formed per w_mode by hand, then
    A @ B.T, the log-softmax, and one of the two loss formulas
    (objective 0 heat, 1 confidence)."""

    def loss(h, w):
        A = instance.H + h
        if instance.w_mode is WMode.SINGLE_ROW:
            B = instance.W.copy()
            B[instance.v_star] += w
        else:
            B = instance.W + w
        logp = log_softmax(A @ B.T)
        if objective == 0:
            return float(-logp[np.arange(logp.shape[0]), instance.y].mean())
        p = np.exp(logp)
        return float((p * logp).sum(axis=1).mean())

    h, w = pert.h.copy(), pert.w.copy()
    target = h if which == "h" else w
    grad = np.zeros_like(target)
    for idx in np.ndindex(target.shape):
        orig = target[idx]
        target[idx] = orig + eps
        f_plus = loss(h, w)
        target[idx] = orig - eps
        f_minus = loss(h, w)
        target[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * eps)
    return grad


class TestStackedFdGradient:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        V=st.integers(2, 8),
        d=st.integers(1, 5),
        T=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        w_mode=st.sampled_from(list(WMode)),
        scale=st.sampled_from([0.0, 0.3, 2.0]),
        eps=st.sampled_from([1e-5, 1e-3]),
    )
    def test_bit_equal_to_per_objective_reference(self, V, d, T, seed, w_mode, scale, eps):
        instance = generate(GeneratorSpec(V=V, d=d, T=T, seed=seed, w_mode=w_mode))
        pert = init_perturbations(instance, init_scale=scale, seed=seed)
        for which, shape in (("h", pert.h.shape), ("w", pert.w.shape)):
            fd = fd_gradient(which, instance, pert, eps)
            assert fd.shape == (2,) + shape
            for objective in (0, 1):
                np.testing.assert_array_equal(
                    fd[objective], reference_fd(objective, which, instance, pert, eps)
                )

    def test_one_forward_pass_per_evaluated_point(self, make_point, monkeypatch):
        # each point passes through the forward kernel once, as a slice
        # of a stack
        points = []
        original = j6opt.model._forward

        def counting(instance, h, B):
            points.append(len(h))
            return original(instance, h, B)

        monkeypatch.setattr(j6opt.model, "_forward", counting)
        for w_mode in WMode:
            instance, pert = make_point(seed=8, w_mode=w_mode)
            for which, size in (("h", pert.h.size), ("w", pert.w.size)):
                points.clear()
                fd_gradient(which, instance, pert)
                assert points == [2 * size]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        V=st.integers(2, 8),
        d=st.integers(1, 5),
        T=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        w_mode=st.sampled_from(list(WMode)),
        eps=st.sampled_from([1e-5, 1e-3]),
        width=st.sampled_from([None, 1, 2, 3]),
    )
    def test_stacked_points_equal_one_point_passes(self, V, d, T, seed, w_mode, eps, width):
        # the stacked oracle == a loop of K = 1 forward passes, whatever
        # the block width
        instance = generate(GeneratorSpec(V=V, d=d, T=T, seed=seed, w_mode=w_mode))
        pert = init_perturbations(instance, init_scale=0.3, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            if width is not None:
                mp.setattr(j6opt.model, "_stack_width", lambda instance: width)
            stacked = {which: fd_gradient(which, instance, pert, eps) for which in "hw"}
        for which in "hw":
            base = Perturbations(pert.h.copy(), pert.w.copy())
            target = base.h if which == "h" else base.w
            want = np.empty((2,) + target.shape)
            for idx in np.ndindex(target.shape):
                orig = target[idx]
                target[idx] = orig + eps
                plus = forward(instance, base).objectives
                target[idx] = orig - eps
                minus = forward(instance, base).objectives
                target[idx] = orig
                want[(0,) + idx] = (plus.ob1 - minus.ob1) / (2.0 * eps)
                want[(1,) + idx] = (plus.ob2 - minus.ob2) / (2.0 * eps)
            assert np.array_equal(stacked[which], want)

    def test_leaves_the_point_unchanged(self, make_point):
        instance, pert = make_point(seed=9)
        h, w = pert.h.copy(), pert.w.copy()
        fd_gradient("h", instance, pert)
        fd_gradient("w", instance, pert)
        np.testing.assert_array_equal(pert.h, h)
        np.testing.assert_array_equal(pert.w, w)


class TestOnePointBoundary:
    """The public functions take one point, and the kernels the K stack:
    a stack given to a public function raises one ValueError naming the
    one-point shape, whatever K."""

    @pytest.mark.parametrize("name", ["forward", "fd_gradient", "log_softmax", "losses",
                                      "logit_gradients"])
    @pytest.mark.parametrize("K", [1, 3])
    @pytest.mark.parametrize("w_mode", list(WMode))
    def test_stack_rejected(self, make_point, name, K, w_mode):
        instance, pert = make_point(seed=2, w_mode=w_mode)
        V, d, T = instance.V, instance.d, instance.T
        stacked = Perturbations(np.repeat(pert.h[None], K, axis=0),
                                np.repeat(pert.w[None], K, axis=0))
        logp = np.repeat(forward(instance, pert).logp[None], K, axis=0)
        call = {
            "forward": lambda: forward(instance, stacked),
            "fd_gradient": lambda: fd_gradient("w", instance, stacked),
            "log_softmax": lambda: log_softmax(logp),
            "losses": lambda: losses(logp, instance.y),
            "logit_gradients": lambda: logit_gradients(logp, instance.y),
        }[name]
        if name in ("forward", "fd_gradient"):
            message = rf"^h must have shape \({d},\), got \({K}, {d}\)$"
        else:
            message = (r"^(logits|log-probabilities) must be a \(T, V\) matrix, "
                       rf"got shape \({K}, {T}, {V}\)$")
        with pytest.raises(ValueError, match=message):
            call()


class TestDescent:
    def test_small_heat_step_decreases_heat(self, make_point):
        eta = 1e-4
        for seed in range(10):
            instance, pert = make_point(seed=seed)
            before = forward(instance, pert).objectives.ob1
            g = _grad_h_heat(instance, pert)
            stepped = Perturbations(pert.h - eta * g, pert.w)
            assert forward(instance, stepped).objectives.ob1 < before


class TestProblemInstanceValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="W must have shape"):
            ProblemInstance(V=4, d=2, T=1, H=[[1.0, 0.0]], W=np.eye(3, 2), y=[0])

    def test_target_out_of_range(self):
        with pytest.raises(ValueError, match="y entries"):
            ProblemInstance(V=3, d=2, T=1, H=[[1.0, 0.0]], W=np.eye(3, 2), y=[3])

    @pytest.mark.parametrize("y, message", [
        ([3], r"y entries must lie in \[0, 3\), got \[3\]"),
        ([-1], r"y entries must lie in \[0, 3\), got \[-1\]"),
        ([0, 1], r"y must have shape \(1,\), got \(2,\)"),
        ([[0]], r"y must have shape \(1,\), got \(1, 1\)"),
        ([0.0], r"'y' must have an integer dtype, got float64"),
    ])
    def test_target_errors_name_y(self, y, message):
        with pytest.raises(ValueError, match=message):
            ProblemInstance(V=3, d=2, T=1, H=[[1.0, 0.0]], W=np.eye(3, 2), y=y)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ProblemInstance(V=3, d=2, T=1, H=[[np.nan, 0.0]], W=np.eye(3, 2), y=[0])

    @pytest.mark.parametrize("field", ["V", "d", "T"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_dimensions_below_one_rejected(self, field, value):
        fields = dict(V=3, d=2, T=1, H=[[1.0, 0.0]], W=np.eye(3, 2), y=[1])
        fields[field] = value
        with pytest.raises(ValueError, match=f"{field} must be a positive integer"):
            ProblemInstance(**fields)

    def test_v_star_defaults(self):
        base = dict(V=3, d=2, T=2, H=np.ones((2, 2)), W=np.eye(3, 2), y=[0, 2])
        assert ProblemInstance(w_mode=WMode.SINGLE_ROW, **base).v_star == 2
        assert ProblemInstance(w_mode=WMode.FULL_MATRIX, **base).v_star == 0
        with pytest.raises(ValueError, match="v_star"):
            ProblemInstance(w_mode=WMode.SINGLE_ROW, v_star=9, **base)

    @pytest.mark.parametrize(
        "field, value",
        [("V", 4.9), ("V", 3.0), ("V", True), ("d", np.float64(2.0)), ("T", "1"),
         ("y", [1.7]), ("y", [True]), ("y", ["1"]), ("v_star", 2.7), ("v_star", False)],
    )
    def test_non_integer_rejected(self, field, value):
        fields = dict(V=3, d=2, T=1, H=[[1.0, 0.0]], W=np.eye(3, 2), y=[1])
        fields[field] = value
        with pytest.raises(ValueError, match=f"'{field}' must"):
            ProblemInstance(**fields)

    def test_numpy_integers_accepted(self):
        instance = ProblemInstance(
            V=np.int32(3), d=np.int64(2), T=np.uint8(1), H=[[1.0, 0.0]], W=np.eye(3, 2),
            y=np.array([2], dtype=np.uint16), v_star=np.int64(1),
        )
        assert (instance.V, instance.d, instance.T, instance.v_star) == (3, 2, 1, 1)
        assert all(type(x) is int for x in (instance.V, instance.d, instance.T, instance.v_star))
        assert instance.y.dtype == np.int64 and instance.y.tolist() == [2]
