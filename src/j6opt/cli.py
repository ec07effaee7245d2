"""Command-line interface: generate, run, gradcheck, compare, sweep.

Every command is deterministic given its flags.  A flag left out keeps
its config dataclass's default; the seed falls back to $J6_SEED first.
Exit codes: 0 success, 1 check failure, 2 usage or config error, 3
non-finite abort (a loss, or the perturbations a diverging update produced).
A failing command, a usage error included, writes one ``error:`` line to
stderr, and nothing else: numpy's floating-point warnings are off while a
command runs, since every non-finite value is checked and reported.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import re
import sys

import numpy as np

from .attribution import AlignKind, AlignScale, AlignmentMode, compute_gradient_set
from .probgen import Family, GeneratorSpec, generate
# gen prints the certificate the generator computed, so it calls neither of
# these; they stay importable here, where the benchmark's tracing hooks name them
from .probgen import conflict_certificate, roleswap_certificate  # noqa: F401
from .model import ProblemInstance, WMode, fd_gradient
from .optimizer import NonFiniteLossError, RunConfig, RunResult, init_perturbations, run, run_many
from .serialize import (
    InstanceFormatError,
    load_instance,
    save_instance,
    write_summary,
    write_sweep,
    write_trace,
)
from .strategies import PreNorm, StrategyConfig, StrategyKind

GRADCHECK_TOL = 1e-5
# Each checked block: its name, its parameter group (a GradientSet field
# and what fd_gradient differentiates), and its objective's index in both.
_GRADCHECK_BLOCKS = (("J11", "h", 0), ("J12", "w", 0), ("J21", "h", 1), ("J22", "w", 1))

_STRATEGY_NAMES = [k.value for k in StrategyKind]
# --param value: the StrategyConfig field it sets
_SWEEP_PARAMS = {p: p.replace("-", "_") for p in ("tau", "gamma", "eta-h", "eta-w", "beta-aux")}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValueError, for ``main``
    to report, and that reads a word such as ``-1e-05``, ``-.5``, ``-inf``
    (not ``-i nf``) or ``-inf,1`` (a ``--values`` list) as a value: no
    flag of this CLI starts with a digit or a dot, or spells a float."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-([\d.]|(inf|infinity|nan)(,|$))", re.I)

    def _get_option_tuples(self, option_string: str) -> list:
        if self._negative_number_matcher.match(option_string):
            return []
        return super()._get_option_tuples(option_string)

    def error(self, message: str):
        raise ValueError(message)


def _config(cls: type, args: argparse.Namespace, prefix: str = "", **fields: object):
    """A ``cls`` from ``fields`` plus each field whose flag (dest ``prefix``
    + its name) was given; the rest keep the dataclass defaults."""
    given = vars(args)
    for f in dataclasses.fields(cls):
        if prefix + f.name in given:
            fields.setdefault(f.name, given[prefix + f.name])
    return cls(**fields)


def _seed(args: argparse.Namespace) -> dict[str, int]:
    """Without ``--seed``, the seed field is $J6_SEED if set."""
    env = os.environ.get("J6_SEED")
    if "seed" in args or env is None:
        return {}
    try:
        return {"seed": int(env)}
    except ValueError:
        raise ValueError(f"J6_SEED must be an integer, got {env!r}") from None


def _strategy_config(args: argparse.Namespace, kind: str) -> StrategyConfig:
    alignment = _config(AlignmentMode, args, "align_")
    return _config(StrategyConfig, args, kind=kind, alignment=alignment)


def _run_config(args: argparse.Namespace) -> RunConfig:
    return _config(RunConfig, args, **_seed(args))


def cmd_gen(args: argparse.Namespace) -> int:
    spec = _config(GeneratorSpec, args, **_seed(args))
    # the screen's value of the winner is its public certificate bit for bit
    instance, certificate = generate(spec, with_certificate=True)
    save_instance(instance, args.out, seed=spec.seed, family=spec.family.value)
    print(f"wrote {args.out} (V={spec.V} d={spec.d} T={spec.T} family={spec.family.value})")
    if spec.family is Family.CONFLICTING:
        print(f"conflict certificate <g_heat, g_conf> = {certificate!r}")
    elif spec.family is Family.ROLE_SWAP:
        print(f"role-swap certificate |J11|^2/|J12|^2 = {certificate!r}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    cfg = _strategy_config(args, args.strategy)
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
    worst = {name: (0.0, "") for name, _, _ in _GRADCHECK_BLOCKS}
    for k, instance in enumerate(instances):
        pert = init_perturbations(instance, init_scale=0.3, seed=7 * k + 1)
        gs = compute_gradient_set(instance, pert)
        stacked = {which: fd_gradient(which, instance, pert, eps=args.eps) for which in "hw"}
        loss_scale = max(1.0, abs(gs.fwd.objectives.ob1), abs(gs.fwd.objectives.ob2))
        for name, which, objective in _GRADCHECK_BLOCKS:
            analytic, fd = getattr(gs, which)[objective], stacked[which][objective]
            # 4x the rounding error of central differences on n entries, so a block
            # that is analytically zero (broadcast J12, J22) is judged against that noise.
            floor = 4 * math.sqrt(fd.size) * 2.0**-52 * loss_scale / (args.eps * GRADCHECK_TOL)
            rel = float(np.linalg.norm(analytic - fd)) / (float(np.linalg.norm(fd)) + floor)
            # a non-finite error is the worst there is; the first one is kept
            if not rel <= worst[name][0] and not math.isnan(worst[name][0]):
                coord = np.unravel_index(np.argmax(np.abs(analytic - fd)), fd.shape)
                worst[name] = (rel, f"instance {k}, coord {tuple(int(c) for c in coord)}: "
                                    f"analytic={float(analytic[coord])!r} fd={float(fd[coord])!r}")
    ok = True
    for name, (rel, where) in worst.items():
        passed = rel < GRADCHECK_TOL
        print(f"{name}: max relative error {rel:.3e} [{'ok' if passed else 'FAIL'}]")
        if not passed:
            print(f"  worst: {where}")
            ok = False
    return 0 if ok else 1


def _run_each(args: argparse.Namespace, cfgs: list[StrategyConfig]) -> list[RunResult]:
    """``compare`` and ``sweep``: check ``--jobs`` (which changes nothing),
    load the instance, then ``run_many`` every configuration."""
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    return run_many(load_instance(args.instance), cfgs, _run_config(args))


def cmd_compare(args: argparse.Namespace) -> int:
    names = [name.strip() for name in args.strategies.split(",") if name.strip()]
    if not names:
        raise ValueError("--strategies must name at least one strategy")
    for name in names:
        if name not in _STRATEGY_NAMES:
            raise ValueError(f"unknown strategy {name!r} (choose from {_STRATEGY_NAMES})")
    results = _run_each(args, [_strategy_config(args, name) for name in names])
    write_summary(list(zip(names, results)), args.out)
    for name, result in zip(names, results):
        print(
            f"{name}: ob1={result.objectives.ob1!r} ob2={result.objectives.ob2!r} "
            f"stop_reason={result.stop_reason.value}"
        )
    print(f"wrote {args.out}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    raw_values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not raw_values:
        raise ValueError("--values must list at least one number")
    try:
        values = [float(v) for v in raw_values]
    except ValueError:
        raise ValueError(f"--values must be numeric, got {args.values!r}") from None
    base = _strategy_config(args, args.strategy)
    cfgs = [dataclasses.replace(base, **{_SWEEP_PARAMS[args.param]: value}) for value in values]
    write_sweep(args.param, list(zip(values, _run_each(args, cfgs))), args.out, base.kind)
    print(f"wrote {args.out} ({len(values)} rows)")
    return 0


def _config_flags() -> argparse.ArgumentParser:
    """``-i`` and the StrategyConfig/RunConfig flags of run, compare and
    sweep; a flag left out is absent from the namespace (``_config``)."""
    parser = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    parser.add_argument("-i", "--instance", required=True)
    group = parser.add_argument_group("strategy")
    group.add_argument("--tau", type=float, help="softmax temperature (soft)")
    group.add_argument("--gamma", type=float, help="contrast exponent (soft)")
    group.add_argument("--eta-h", type=float, help="learning rate for h")
    group.add_argument("--eta-w", type=float, help="learning rate for w")
    group.add_argument("--beta-aux", type=float, help="auxiliary-group scale (hard-jplus)")
    group.add_argument("--lam", type=float, nargs=2, metavar=("L1", "L2"),
                       help="scalarization weights, must sum to 1")
    group.add_argument("--pre-norm", choices=[p.value for p in PreNorm])
    group.add_argument("--align", dest="align_kind", choices=[k.value for k in AlignKind],
                       help="cross-shape inner product mode (auto: per instance w_mode)")
    group.add_argument("--scale", dest="align_scale", choices=[s.value for s in AlignScale])
    group = parser.add_argument_group("run")
    group.add_argument("--steps", dest="max_steps", type=int, metavar="STEPS",
                       help="max optimization steps")
    group.add_argument("--grad-tol", type=float)
    group.add_argument("--loss-tol", type=float)
    group.add_argument("--seed", type=int, help="default: $J6_SEED, then 0")
    group.add_argument("--init-scale", type=float)
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process.  It holds no per-call state: every
    parse fills a fresh namespace, and a config flag left out stays out
    of it."""
    parser = _Parser(
        prog="j6opt",
        description="Jacobian-routed multi-objective perturbation optimization "
        "on a bilinear logit model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = [_config_flags()]
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=int, default=1,
                      help="accepted for compatibility (>= 1); the configurations run as "
                           "lockstep batches sized by a byte budget, and --jobs changes "
                           "neither the output nor the batching")

    p_gen = sub.add_parser("gen", help="generate a synthetic instance file",
                           argument_default=argparse.SUPPRESS)
    p_gen.add_argument("--V", type=int, required=True, help="vocabulary size (>= 2)")
    p_gen.add_argument("--d", type=int, required=True, help="hidden dimension")
    p_gen.add_argument("--T", type=int, help="number of positions")
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--family", choices=[f.value for f in Family])
    p_gen.add_argument("--w-mode", choices=[m.value for m in WMode])
    p_gen.add_argument("--v-star", type=int)
    p_gen.add_argument("--family-version", type=int,
                       help="the family's proposals: 1 (plain normals, written as format 1) "
                            "or 2 (drawn to pass)")
    p_gen.add_argument("-o", "--out", required=True)

    p_run = sub.add_parser("run", parents=common, help="optimize one instance and trace every step")
    p_run.add_argument("--strategy", choices=_STRATEGY_NAMES, required=True)
    p_run.add_argument("--trace", default=None, help="write per-step CSV here")

    p_gc = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p_gc.add_argument("-i", "--instance", default=None,
                      help="instance file (default: built-in seeded battery)")
    p_gc.add_argument("--eps", type=float, default=1e-5)

    p_cmp = sub.add_parser("compare", parents=common + [jobs],
                           help="run several strategies from the same start")
    p_cmp.add_argument("--strategies", default=",".join(_STRATEGY_NAMES),
                       help="comma-separated strategy names")
    p_cmp.add_argument("-o", "--out", required=True, help="summary JSON path")

    p_sw = sub.add_parser("sweep", parents=common + [jobs],
                          help="vary one strategy parameter over a value list")
    p_sw.add_argument("--param", choices=sorted(_SWEEP_PARAMS), required=True)
    p_sw.add_argument("--values", required=True, help="comma-separated numbers")
    p_sw.add_argument("--strategy", choices=_STRATEGY_NAMES, default="soft")
    p_sw.add_argument("-o", "--out", required=True, help="summary CSV path")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # Every value that overflows is checked and reported by an exit
        # code or written to the trace, so numpy's warnings are noise.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # looked up per call, so that a replaced cmd_* takes effect
            return globals()[f"cmd_{args.command}"](args)
    except SystemExit as e:  # --help, after printing its text
        return e.code
    except NonFiniteLossError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (InstanceFormatError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
