"""Command-line interface: generate, run, gradcheck, compare, sweep.

Every command is deterministic given its flags; the seed falls back to
the J6_SEED environment variable, then to 0.  Exit codes: 0 success,
1 check failure, 2 usage or config error, 3 non-finite loss abort.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import os
import sys

import numpy as np

from .attribution import (
    AlignKind,
    AlignScale,
    AlignmentMode,
    compute_gradient_set,
    default_alignment,
)
from .probgen import Family, GeneratorSpec, conflict_certificate, generate, roleswap_certificate
from .model import ObjectiveKind, ProblemInstance, WMode, fd_gradient
from .optimizer import NonFiniteLossError, RunConfig, init_perturbations, run
from .serialize import (
    InstanceFormatError,
    _atomic_write,
    load_instance,
    save_instance,
    write_summary,
    write_trace,
)
from .strategies import PreNorm, StrategyConfig, StrategyKind

GRADCHECK_TOL = 1e-5
# Each checked block: its GradientSet attribute, and the loss and the
# parameter group that fd_gradient differentiates.
_GRADCHECK_BLOCKS = (
    ("J11", ObjectiveKind.HEAT, "h"),
    ("J12", ObjectiveKind.HEAT, "w"),
    ("J21", ObjectiveKind.CONF, "h"),
    ("J22", ObjectiveKind.CONF, "w"),
)

_STRATEGY_NAMES = [k.value for k in StrategyKind]
_SWEEP_PARAMS = {
    "tau": "tau",
    "gamma": "gamma",
    "eta-h": "eta_h",
    "eta-w": "eta_w",
    "beta-aux": "beta_aux",
}


def _default_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("J6_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"J6_SEED must be an integer, got {env!r}") from None
    return 0


def _add_strategy_flags(parser: argparse.ArgumentParser, with_kind: bool) -> None:
    group = parser.add_argument_group("strategy")
    if with_kind:
        group.add_argument("--strategy", choices=_STRATEGY_NAMES, required=True)
    group.add_argument("--tau", type=float, default=1.0, help="softmax temperature (soft)")
    group.add_argument("--gamma", type=float, default=2.0, help="contrast exponent (soft)")
    group.add_argument("--eta-h", type=float, default=0.01, help="learning rate for h")
    group.add_argument("--eta-w", type=float, default=0.01, help="learning rate for w")
    group.add_argument(
        "--beta-aux", type=float, default=0.5, help="auxiliary-group scale (hard-jplus)"
    )
    group.add_argument(
        "--lam",
        type=float,
        nargs=2,
        default=(0.5, 0.5),
        metavar=("L1", "L2"),
        help="scalarization weights, must sum to 1",
    )
    group.add_argument("--pre-norm", choices=[p.value for p in PreNorm], default="none")
    group.add_argument(
        "--align",
        choices=["auto", "direct", "pushforward"],
        default="auto",
        help="cross-shape inner product mode (auto: per instance w_mode)",
    )
    group.add_argument("--scale", choices=[s.value for s in AlignScale], default="raw")


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("run")
    group.add_argument("--steps", type=int, default=200, help="max optimization steps")
    group.add_argument("--grad-tol", type=float, default=1e-8)
    group.add_argument("--loss-tol", type=float, default=0.0)
    group.add_argument("--seed", type=int, default=None, help="default: $J6_SEED, then 0")
    group.add_argument("--init-scale", type=float, default=0.0)


def _alignment_from_args(args: argparse.Namespace, instance: ProblemInstance) -> AlignmentMode:
    scale = AlignScale(args.scale)
    if args.align == "auto":
        return AlignmentMode(default_alignment(instance.w_mode).kind, scale)
    return AlignmentMode(AlignKind(args.align), scale)


def _strategy_config(
    args: argparse.Namespace, instance: ProblemInstance, kind: str | StrategyKind
) -> StrategyConfig:
    return StrategyConfig(
        kind=StrategyKind(kind),
        tau=args.tau,
        gamma=args.gamma,
        eta_h=args.eta_h,
        eta_w=args.eta_w,
        beta_aux=args.beta_aux,
        lam=tuple(args.lam),
        pre_norm=PreNorm(args.pre_norm),
        alignment=_alignment_from_args(args, instance),
    )


def _run_config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        max_steps=args.steps,
        grad_tol=args.grad_tol,
        loss_tol=args.loss_tol,
        seed=_default_seed(args.seed),
        init_scale=args.init_scale,
    )


def cmd_gen(args: argparse.Namespace) -> int:
    spec = GeneratorSpec(
        V=args.V,
        d=args.d,
        T=args.T,
        seed=_default_seed(args.seed),
        family=Family(args.family),
        w_mode=args.w_mode,
        v_star=args.v_star,
    )
    instance = generate(spec)
    save_instance(instance, args.out, seed=spec.seed, family=spec.family.value)
    print(f"wrote {args.out} (V={spec.V} d={spec.d} T={spec.T} family={spec.family.value})")
    if spec.family is Family.CONFLICTING:
        print(f"conflict certificate <g_heat, g_conf> = {conflict_certificate(instance)!r}")
    elif spec.family is Family.ROLE_SWAP:
        print(f"role-swap certificate |J11|^2/|J12|^2 = {roleswap_certificate(instance)!r}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    cfg = _strategy_config(args, instance, args.strategy)
    result = run(instance, cfg, _run_config(args))
    if args.trace:
        write_trace(result, args.trace, cfg.kind)
    print(
        f"ob1={result.objectives.ob1!r} ob2={result.objectives.ob2!r} "
        f"stop_reason={result.stop_reason.value} steps={len(result.trace)}"
    )
    return 0


def _gradcheck_battery() -> list[ProblemInstance]:
    sizes = [(4, 3, 1), (6, 4, 2), (8, 6, 3), (5, 2, 2)]
    instances = []
    for i, (V, d, T) in enumerate(sizes):
        for mode in (WMode.SINGLE_ROW, WMode.FULL_MATRIX):
            spec = GeneratorSpec(V=V, d=d, T=T, seed=100 + i, family=Family.GAUSSIAN, w_mode=mode)
            instances.append(generate(spec))
    return instances


def cmd_gradcheck(args: argparse.Namespace) -> int:
    instances = [load_instance(args.instance)] if args.instance else _gradcheck_battery()
    blocks = {name: 0.0 for name, _, _ in _GRADCHECK_BLOCKS}
    worst = {name: "" for name in blocks}
    for k, instance in enumerate(instances):
        pert = init_perturbations(instance, init_scale=0.3, seed=7 * k + 1)
        gs = compute_gradient_set(instance, pert)
        for name, objective, which in _GRADCHECK_BLOCKS:
            analytic = getattr(gs, name)
            if args.corrupt and name == "J11":
                analytic = analytic.copy()
                analytic.flat[0] += args.corrupt
            fd = fd_gradient(objective, which, instance, pert, eps=args.eps)
            err = float(np.linalg.norm(analytic - fd))
            rel = err / (float(np.linalg.norm(fd)) + 1e-12)
            if rel > blocks[name]:
                blocks[name] = rel
                coord = np.unravel_index(np.argmax(np.abs(analytic - fd)), fd.shape)
                worst[name] = (
                    f"instance {k}, coord {tuple(int(c) for c in coord)}: "
                    f"analytic={analytic[coord]!r} fd={fd[coord]!r}"
                )
    ok = True
    for name in blocks:
        status = "ok" if blocks[name] < GRADCHECK_TOL else "FAIL"
        print(f"{name}: max relative error {blocks[name]:.3e} [{status}]")
        if blocks[name] >= GRADCHECK_TOL:
            print(f"  worst: {worst[name]}")
            ok = False
    return 0 if ok else 1


def cmd_compare(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    names = [name.strip() for name in args.strategies.split(",") if name.strip()]
    if not names:
        raise ValueError("--strategies must name at least one strategy")
    for name in names:
        if name not in _STRATEGY_NAMES:
            raise ValueError(f"unknown strategy {name!r} (choose from {_STRATEGY_NAMES})")
    rcfg = _run_config(args)
    cfgs = [_strategy_config(args, instance, name) for name in names]
    results = [run(instance, cfg, rcfg) for cfg in cfgs]
    write_summary(list(zip(names, results)), args.out)
    for name, result in zip(names, results):
        print(
            f"{name}: ob1={result.objectives.ob1!r} ob2={result.objectives.ob2!r} "
            f"stop_reason={result.stop_reason.value}"
        )
    print(f"wrote {args.out}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    raw_values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not raw_values:
        raise ValueError("--values must list at least one number")
    try:
        values = [float(v) for v in raw_values]
    except ValueError:
        raise ValueError(f"--values must be numeric, got {args.values!r}") from None
    attr = _SWEEP_PARAMS[args.param]
    rcfg = _run_config(args)
    base = _strategy_config(args, instance, args.strategy)
    cfgs = [dataclasses.replace(base, **{attr: value}) for value in values]
    results = [run(instance, cfg, rcfg) for cfg in cfgs]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["param", "value", "final_ob1", "final_ob2", "stop_reason", "steps", "alpha_max"])
    for value, cfg, result in zip(values, cfgs, results):
        alpha_max = ""
        if cfg.kind is StrategyKind.SOFT and result.trace:
            alpha_max = repr(float(result.trace[0].alpha.max()))
        writer.writerow(
            [
                args.param,
                repr(value),
                repr(result.objectives.ob1),
                repr(result.objectives.ob2),
                result.stop_reason.value,
                len(result.trace),
                alpha_max,
            ]
        )
    _atomic_write(args.out, buf.getvalue())
    print(f"wrote {args.out} ({len(values)} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="j6opt",
        description="Jacobian-routed multi-objective perturbation optimization "
        "on a bilinear logit model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic instance file")
    p_gen.add_argument("--V", type=int, required=True, help="vocabulary size (>= 2)")
    p_gen.add_argument("--d", type=int, required=True, help="hidden dimension")
    p_gen.add_argument("--T", type=int, default=1, help="number of positions")
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--family", choices=[f.value for f in Family], default="gaussian")
    p_gen.add_argument("--w-mode", choices=["full_matrix", "single_row", "broadcast"],
                       default="full_matrix")
    p_gen.add_argument("--v-star", type=int, default=None)
    p_gen.add_argument("-o", "--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_run = sub.add_parser("run", help="optimize one instance and trace every step")
    p_run.add_argument("-i", "--instance", required=True)
    p_run.add_argument("--trace", default=None, help="write per-step CSV here")
    _add_strategy_flags(p_run, with_kind=True)
    _add_run_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_gc = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p_gc.add_argument("-i", "--instance", default=None,
                      help="instance file (default: built-in seeded battery)")
    p_gc.add_argument("--eps", type=float, default=1e-5)
    p_gc.add_argument("--corrupt", type=float, default=0.0, help=argparse.SUPPRESS)
    p_gc.set_defaults(func=cmd_gradcheck)

    p_cmp = sub.add_parser("compare", help="run several strategies from the same start")
    p_cmp.add_argument("-i", "--instance", required=True)
    p_cmp.add_argument("--strategies", default=",".join(_STRATEGY_NAMES),
                       help="comma-separated strategy names")
    p_cmp.add_argument("-o", "--out", required=True, help="summary JSON path")
    p_cmp.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; configurations always run serially")
    _add_strategy_flags(p_cmp, with_kind=False)
    _add_run_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_sw = sub.add_parser("sweep", help="vary one strategy parameter over a value list")
    p_sw.add_argument("-i", "--instance", required=True)
    p_sw.add_argument("--param", choices=sorted(_SWEEP_PARAMS), required=True)
    p_sw.add_argument("--values", required=True, help="comma-separated numbers")
    p_sw.add_argument("--strategy", choices=_STRATEGY_NAMES, default="soft")
    p_sw.add_argument("-o", "--out", required=True, help="summary CSV path")
    p_sw.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; configurations always run serially")
    _add_strategy_flags(p_sw, with_kind=False)
    _add_run_flags(p_sw)
    p_sw.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.func(args)
    except NonFiniteLossError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (InstanceFormatError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
