"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Tolerances are pinned here and nowhere else; helpers recompute expected
values through independent routes (finite differences, scalar math,
closed forms) rather than through the code paths under test.
"""

import math
import time

import numpy as np
import pytest

import j6opt.model as model_mod
import j6opt.strategies as strategies_mod
from j6opt import (
    AlignKind,
    AlignmentMode,
    AlignScale,
    Family,
    GeneratorSpec,
    GradientSet,
    RunConfig,
    StrategyConfig,
    StrategyKind,
    WMode,
    J6_FROM_JPLUS,
    compute_gradient_set,
    decide,
    fd_gradient,
    generate,
    init_perturbations,
    log_softmax,
    logit_gradients,
    losses,
    run,
    score_j6,
    zero_perturbations,
)
from j6opt.cli import main

DIRECT_RAW = AlignmentMode(AlignKind.DIRECT, AlignScale.RAW)


def _decide(s6, grams, cfg):
    """``decide`` for one j6 or baseline strategy (the K = 1 call): its
    coefficient matrix and chosen index."""
    jplus = np.zeros(15)
    jplus[list(J6_FROM_JPLUS)] = s6
    c, chosen, _ = decide(jplus[None], np.asarray(s6, dtype=np.float64)[None],
                          np.asarray(grams, dtype=np.float64)[None], [cfg])
    return c[0], chosen[0]


def _step(scores, h, w, cfg):
    """The update of ``decide``'s coefficient matrix c on explicit blocks
    h = (J11, J21), w = (J12, J22): (-eta_h (c00 J11 + c01 J21),
    -eta_w (c10 J12 + c11 J22)), the way ``run`` applies it."""
    grams = [[[float(np.vdot(a, b)) for b in x] for a in x] for x in (h, w)]
    (c00, c01), (c10, c11) = _decide(scores, grams, cfg)[0]
    return -cfg.eta_h * (c00 * h[0] + c01 * h[1]), -cfg.eta_w * (c10 * w[0] + c11 * w[1])


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {number:2d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_gradient_oracle_suite():
    """All four analytic blocks match central differences on 100 seeded
    instances (V<=8, d<=6, T<=3, single-row and full-matrix) within
    1e-5 relative, in under 10 s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for k in range(100):
        V, d, T = int(rng.integers(2, 9)), int(rng.integers(1, 7)), int(rng.integers(1, 4))
        mode = WMode.SINGLE_ROW if k % 2 == 0 else WMode.FULL_MATRIX
        instance = generate(GeneratorSpec(V=V, d=d, T=T, seed=1000 + k, w_mode=mode))
        pert = init_perturbations(instance, init_scale=0.3, seed=k)
        gs = compute_gradient_set(instance, pert)
        fd_h = fd_gradient("h", instance, pert, eps=1e-5)
        fd_w = fd_gradient("w", instance, pert, eps=1e-5)
        for block, fd in ((gs.J11, fd_h[0]), (gs.J12, fd_w[0]), (gs.J21, fd_h[1]), (gs.J22, fd_w[1])):
            rel = np.linalg.norm(block - fd) / (np.linalg.norm(fd) + 1e-12)
            worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    _report(
        1,
        worst < 1e-5 and elapsed < 10.0,
        f"max relative error {worst:.3e} over 100 instances in {elapsed:.2f}s",
    )


def test_criterion_02_broadcast_degeneracy():
    """Broadcast-mode w gradients vanish below 1e-12 for both objectives
    on 100 seeded instances, including at nonzero perturbations."""
    worst = 0.0
    for seed in range(100):
        instance = generate(
            GeneratorSpec(V=6, d=4, T=2, seed=seed, w_mode=WMode.BROADCAST)
        )
        pert = init_perturbations(instance, init_scale=0.4, seed=seed + 1)
        gs = compute_gradient_set(instance, pert)
        worst = max(worst, float(np.linalg.norm(gs.J12)), float(np.linalg.norm(gs.J22)))
    _report(2, worst < 1e-12, f"max ||grad_w|| {worst:.3e} across 100 broadcast seeds")


def test_criterion_03_zero_sum_and_bounds():
    """Logit-space gradients sum to 0 within 1e-10 per position; entropy
    stays in [0, log V] and the confidence loss in [-log V, 0].  The
    same checks run inside every forward pass (validation mode is on
    for the whole suite)."""
    assert model_mod._validation, "suite must run with forward-pass validation enabled"
    worst_sum, bounds_ok = 0.0, True
    rng = np.random.default_rng(99)
    for seed in range(100):
        V = int(rng.integers(2, 9))
        logits = rng.normal(size=(2, V)) * float(rng.uniform(0.5, 6.0))
        y = rng.integers(0, V, size=2)
        logp = log_softmax(logits)
        g = logit_gradients(logp, y)
        worst_sum = max(worst_sum, float(np.abs(g.sum(axis=2)).max()))
        obs = losses(logp, y)
        entropy = -obs.ob2
        bounds_ok &= 0.0 <= entropy <= math.log(V) + 1e-12
        bounds_ok &= -math.log(V) - 1e-12 <= obs.ob2 <= 0.0
        bounds_ok &= obs.ob1 >= 0.0
    _report(
        3,
        worst_sum < 1e-10 and bounds_ok,
        f"max |sum(grad)| {worst_sum:.3e}, bounds hold on 100 random forwards",
    )


def test_criterion_04_contrast_example():
    """The contrast step squares (0.5, 0.3, 0.1, 0.1) to (0.25, 0.09,
    0.01, 0.01) and normalizes to (0.69444.., 0.25, 0.02777..,
    0.02777..) within 1e-12.

    The step's output is bit-equal to those squares divided by their
    sum, formed here in two steps.  The squares are exact except the
    0.01 entries, which are off by one ulp (~1.7e-18) because 0.1**2 is
    not representable as the float64 nearest to decimal 0.01; the
    decimal identity itself is exact.
    """
    weights = np.array([0.5, 0.3, 0.1, 0.1])
    powered = weights**2.0
    plan = strategies_mod._Rules([StrategyConfig(kind=StrategyKind.SOFT, gamma=2.0)])
    alpha = strategies_mod._contrast(weights[None], plan.gammas)[0]
    two_step = bool(np.array_equal(alpha, powered / powered.sum()))
    squares_exact = bool(powered[0] == 0.25 and powered[1] == 0.09)
    squares_close = bool(np.max(np.abs(powered - [0.25, 0.09, 0.01, 0.01])) <= 5e-18)
    expected = np.array([0.25, 0.09, 0.01, 0.01]) / 0.36
    normalized_ok = bool(np.max(np.abs(alpha - expected)) < 1e-12)
    _report(
        4,
        two_step and squares_exact and squares_close and normalized_ok,
        f"output is the normalized squares: {two_step}, "
        f"squares within {np.max(np.abs(powered - [0.25, 0.09, 0.01, 0.01])):.1e}, "
        f"normalized within {np.max(np.abs(alpha - expected)):.1e}",
    )


def test_criterion_05_soft_hard_limit():
    """On 50 seeded single-row instances whose 6-score vector has a
    strict max at a pure slot (0, 2, 3, or 4), the soft decision at
    tau=1e-3, gamma=2 matches the hard one within 1e-3 relative."""
    found, seed, worst = 0, 0, 0.0
    soft_cfg = StrategyConfig(kind=StrategyKind.SOFT, tau=1e-3, gamma=2.0)
    hard_cfg = StrategyConfig(kind=StrategyKind.HARD_J6)
    while found < 50:
        assert seed < 500, "ran out of candidate seeds"
        instance = generate(
            GeneratorSpec(V=6, d=4, T=2, seed=seed, w_mode=WMode.SINGLE_ROW)
        )
        seed += 1
        pert = zero_perturbations(instance)
        gs = compute_gradient_set(instance, pert)
        s = score_j6(gs, DIRECT_RAW)
        top = int(np.argmax(s))
        if top not in (0, 2, 3, 4) or not all(s[top] > s[j] for j in range(6) if j != top):
            continue
        found += 1
        soft_h, soft_w = _step(s, gs.h, gs.w, soft_cfg)
        hard_h, hard_w = _step(s, gs.h, gs.w, hard_cfg)
        num = np.linalg.norm(soft_h - hard_h) + np.linalg.norm(soft_w - hard_w)
        den = np.linalg.norm(hard_h) + np.linalg.norm(hard_w)
        worst = max(worst, num / den)
    _report(5, worst < 1e-3, f"worst relative delta difference {worst:.3e} over 50 instances")


def test_criterion_06_cauchy_schwarz_routing(from_blocks):
    """Direct/raw hard routing never selects an alignment slot (1 or 5)
    across 1000 seeded gradient sets, and scaling all blocks by c > 0
    never changes the chosen index."""
    cfg = StrategyConfig(kind=StrategyKind.HARD_J6)
    rng = np.random.default_rng(606)
    ok = True
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        J11, J12, J21, J22 = rng.normal(size=(4, d))
        gs = from_blocks([J11, J21], [J12, J22])
        s = score_j6(gs, DIRECT_RAW)
        chosen = _decide(s, gs.grams, cfg)[1]
        ok &= chosen not in (1, 5)
        for c in (0.5, 2.0, 4.0):
            scaled = GradientSet(gs.instance, gs.fwd, gs.g * c, gs.h * c)
            s_scaled = score_j6(scaled, DIRECT_RAW)
            ok &= _decide(s_scaled, scaled.grams, cfg)[1] == chosen
    _report(6, ok, "no alignment slot selected and argmax scale-invariant on 1000 draws")


def _projected(g1, g2):
    """Both conflict-projected gradients, formed from the projection
    rows the grad-surgery strategy reads off the blocks' Gram."""
    gram = [[float(np.vdot(a, b)) for b in (g1, g2)] for a in (g1, g2)]
    (a, b), (c, d) = strategies_mod._projection(gram)
    return a * g1 + b * g2, c * g1 + d * g2


def test_criterion_07_gradient_surgery_invariant():
    """After mutual projection, each projected gradient has inner
    product >= -1e-10 with the other original; exactly antiparallel
    inputs produce a zero update."""
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 9))
        g1, g2 = rng.normal(size=dim), rng.normal(size=dim)
        g1p, g2p = _projected(g1, g2)
        worst = min(worst, float(g1p @ g2), float(g2p @ g1))
    g1, g2 = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
    g1p, g2p = _projected(g1, g2)
    delta_h, delta_w = _step(np.zeros(6), np.array([g1, g2]), np.array([g1, g2]),
                             StrategyConfig(kind=StrategyKind.GRAD_SURGERY))
    anti_zero = not (g1p.any() or g2p.any() or delta_h.any() or delta_w.any())
    _report(
        7,
        worst >= -1e-10 and anti_zero,
        f"min post-projection inner product {worst:.3e}; antiparallel case cancels",
    )


def test_criterion_08_role_swap_separation():
    """On 100 role-swap instances (V=6, d=4, T=1, certificate < 0.05),
    100 steps at eta=0.05 leave hard routing with strictly lower heat
    than the static assignment on at least 95 seeds, within 30 s."""
    t0 = time.monotonic()
    wins = 0
    rcfg = RunConfig(max_steps=100)
    hard_cfg = StrategyConfig(kind=StrategyKind.HARD_J6, eta_h=0.05, eta_w=0.05)
    static_cfg = StrategyConfig(kind=StrategyKind.STATIC, eta_h=0.05, eta_w=0.05)
    for seed in range(100):
        instance = generate(
            GeneratorSpec(V=6, d=4, T=1, seed=seed, family=Family.ROLE_SWAP)
        )
        hard = run(instance, hard_cfg, rcfg)
        static = run(instance, static_cfg, rcfg)
        if hard.objectives.ob1 < static.objectives.ob1:
            wins += 1
    elapsed = time.monotonic() - t0
    _report(8, wins >= 95 and elapsed < 30.0, f"hard beats static on {wins}/100 seeds in {elapsed:.2f}s")


def test_criterion_09_determinism(tmp_path):
    """run and compare emit byte-identical files across invocations, and
    a sweep gives identical bytes under serial and parallel execution."""
    inst = tmp_path / "inst.json"
    assert main(["gen", "--V", "6", "--d", "4", "--seed", "13", "-o", str(inst)]) == 0

    t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    run_args = ["run", "-i", str(inst), "--strategy", "hard-j6", "--steps", "40",
                "--seed", "3", "--init-scale", "0.1"]
    assert main(run_args + ["--trace", str(t1)]) == 0
    assert main(run_args + ["--trace", str(t2)]) == 0
    runs_equal = t1.read_bytes() == t2.read_bytes()

    s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
    cmp_args = ["compare", "-i", str(inst), "--steps", "25", "--seed", "5"]
    assert main(cmp_args + ["-o", str(s1)]) == 0
    assert main(cmp_args + ["-o", str(s2)]) == 0
    compares_equal = s1.read_bytes() == s2.read_bytes()

    w1, w2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    sweep_args = ["sweep", "-i", str(inst), "--param", "tau",
                  "--values", "0.01,0.1,1,10", "--steps", "25", "--seed", "5"]
    assert main(sweep_args + ["-o", str(w1), "--jobs", "1"]) == 0
    assert main(sweep_args + ["-o", str(w2), "--jobs", "4"]) == 0
    sweeps_equal = w1.read_bytes() == w2.read_bytes()

    _report(
        9,
        runs_equal and compares_equal and sweeps_equal,
        "trace, summary, and serial-vs-parallel sweep files are byte-identical",
    )


def test_criterion_10_descent_property():
    """Scalarized lam=(1,0) at eta=0.01 yields non-increasing heat over
    50 steps on at least 99 of 100 seeds; same for lam=(0,1) and the
    confidence loss."""
    rcfg = RunConfig(max_steps=50)
    heat_cfg = StrategyConfig(kind=StrategyKind.SCALARIZED, lam=(1.0, 0.0), eta_h=0.01, eta_w=0.01)
    conf_cfg = StrategyConfig(kind=StrategyKind.SCALARIZED, lam=(0.0, 1.0), eta_h=0.01, eta_w=0.01)
    ok_heat = ok_conf = 0
    for seed in range(100):
        instance = generate(GeneratorSpec(V=6, d=4, T=2, seed=seed))
        r = run(instance, heat_cfg, rcfg)
        ob1 = [rec.ob1 for rec in r.trace] + [r.objectives.ob1]
        ok_heat += all(b <= a for a, b in zip(ob1, ob1[1:]))
        r = run(instance, conf_cfg, rcfg)
        ob2 = [rec.ob2 for rec in r.trace] + [r.objectives.ob2]
        ok_conf += all(b <= a for a, b in zip(ob2, ob2[1:]))
    _report(
        10,
        ok_heat >= 99 and ok_conf >= 99,
        f"heat monotone on {ok_heat}/100, confidence monotone on {ok_conf}/100 seeds",
    )
