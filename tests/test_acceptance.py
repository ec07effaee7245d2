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
    ObjectiveKind,
    ProblemInstance,
    RunConfig,
    StrategyConfig,
    StrategyKind,
    WMode,
    compute_gradient_set,
    confidence_loss,
    contrast_weights,
    decide,
    fd_gradient,
    generate,
    heat_loss,
    init_perturbations,
    log_softmax,
    logit_gradients,
    run,
    score_j6,
    zero_perturbations,
)
from j6opt.cli import main

DIRECT_RAW = AlignmentMode(AlignKind.DIRECT, AlignScale.RAW)


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
        for block, objective, which in (
            (gs.J11, ObjectiveKind.HEAT, "h"),
            (gs.J12, ObjectiveKind.HEAT, "w"),
            (gs.J21, ObjectiveKind.CONF, "h"),
            (gs.J22, ObjectiveKind.CONF, "w"),
        ):
            fd = fd_gradient(objective, which, instance, pert, eps=1e-5)
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
        g = logit_gradients(log_softmax(logits), y)
        worst_sum = max(worst_sum, float(np.abs(g.sum(axis=2)).max()))
        ob2 = confidence_loss(logits)
        entropy = -ob2
        bounds_ok &= 0.0 <= entropy <= math.log(V) + 1e-12
        bounds_ok &= -math.log(V) - 1e-12 <= ob2 <= 0.0
        bounds_ok &= heat_loss(logits, y) >= 0.0
    _report(
        3,
        worst_sum < 1e-10 and bounds_ok,
        f"max |sum(grad)| {worst_sum:.3e}, bounds hold on 100 random forwards",
    )


def test_criterion_04_contrast_example():
    """The contrast step squares (0.5, 0.3, 0.1, 0.1) to (0.25, 0.09,
    0.01, 0.01) and normalizes to (0.69444.., 0.25, 0.02777..,
    0.02777..) within 1e-12.

    The squares are exact except the 0.01 entries, which are off by one
    ulp (~1.7e-18) because 0.1**2 is not representable as the float64
    nearest to decimal 0.01; the decimal identity itself is exact.
    """
    weights = np.array([0.5, 0.3, 0.1, 0.1])
    powered = contrast_weights(weights, 2.0, normalize=False)
    squares_exact = bool(powered[0] == 0.25 and powered[1] == 0.09)
    squares_close = bool(np.max(np.abs(powered - [0.25, 0.09, 0.01, 0.01])) <= 5e-18)
    alpha = contrast_weights(weights, 2.0)
    expected = np.array([0.25, 0.09, 0.01, 0.01]) / 0.36
    normalized_ok = bool(np.max(np.abs(alpha - expected)) < 1e-12)
    _report(
        4,
        squares_exact and squares_close and normalized_ok,
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
        s = score_j6(gs, DIRECT_RAW, instance, pert)
        top = int(np.argmax(s))
        if top not in (0, 2, 3, 4) or not all(s[top] > s[j] for j in range(6) if j != top):
            continue
        found += 1
        soft = decide(s, gs, soft_cfg)
        hard = decide(s, gs, hard_cfg)
        num = np.linalg.norm(soft.delta_h - hard.delta_h) + np.linalg.norm(
            soft.delta_w - hard.delta_w
        )
        den = np.linalg.norm(hard.delta_h) + np.linalg.norm(hard.delta_w)
        worst = max(worst, num / den)
    _report(5, worst < 1e-3, f"worst relative delta difference {worst:.3e} over 50 instances")


def test_criterion_06_cauchy_schwarz_routing():
    """Direct/raw hard routing never selects an alignment slot (1 or 5)
    across 1000 seeded gradient sets, and scaling all blocks by c > 0
    never changes the chosen index."""
    instance = ProblemInstance(
        V=3, d=4, T=1, H=[[1.0, 0, 0, 0]], W=np.eye(3, 4), y=[0], w_mode=WMode.SINGLE_ROW
    )
    pert = zero_perturbations(instance)
    cfg = StrategyConfig(kind=StrategyKind.HARD_J6)
    rng = np.random.default_rng(606)
    ok = True
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        gs = GradientSet(
            rng.normal(size=d), rng.normal(size=d), rng.normal(size=d), rng.normal(size=d)
        )
        s = score_j6(gs, DIRECT_RAW, instance, pert)
        chosen = decide(s, gs, cfg).chosen_index
        ok &= chosen not in (1, 5)
        for c in (0.5, 2.0, 4.0):
            s_scaled = score_j6(gs.scaled(c), DIRECT_RAW, instance, pert)
            ok &= decide(s_scaled, gs.scaled(c), cfg).chosen_index == chosen
    _report(6, ok, "no alignment slot selected and argmax scale-invariant on 1000 draws")


def _projected(g1, g2):
    """Both conflict-projected gradients, formed from the projection
    rows the grad-surgery strategy reads off the blocks' Gram."""
    (a, b), (c, d) = strategies_mod._projection(GradientSet(g1, g1, g2, g2).grams[0])
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
    step = decide(np.zeros(6), GradientSet(g1, g1, g2, g2),
                  StrategyConfig(kind=StrategyKind.GRAD_SURGERY))
    anti_zero = not (g1p.any() or g2p.any() or step.delta_h.any() or step.delta_w.any())
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
