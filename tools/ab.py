"""Interleaved in-process A/B timing of two source trees' ``optimizer.run``.

    taskset -c 1 python tools/ab.py PARENT_TREE CHANGED_TREE --workload steps-large --rounds 100
    taskset -c 1 python tools/ab.py PARENT_TREE CHANGED_TREE --workload steps-small --batch

Each tree is a checkout holding ``src/j6opt``; the two are imported under
their own package names (``j6opt_a`` and ``j6opt_b``), so one tree can
also be timed against itself.  Each builds, with its own classes, the
direct ``run`` units of a benchmark workload as
``benchmarks/j6bench/workloads.py`` of this checkout defines them at
workload seed 1: the instance shapes and seeds, the strategies and the
step count.  Under ``--batch`` a unit is one instance shape instead,
its six strategies run as one ``optimizer.run_many`` call, as
``compare`` runs them, and a step is one run's step.  After one
untimed warm-up round, each round runs every unit once in each tree,
back to back, the tree that goes first alternating from unit to unit.
A unit's time is the least over the rounds.

It prints, per unit, each tree's least time per step, their ratio and
the minor page faults per call (``getrusage``) over the timed rounds,
then the median of each column over the units.  BLAS is held to one
thread unless ``OPENBLAS_NUM_THREADS`` says otherwise; pin the core from
outside.  It exits 1 when the trees run a unit for different numbers of
steps.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1  # the workload seed the instances are drawn from


def load_tree(tree: Path, name: str):
    """The package ``src/j6opt`` of ``tree``, imported as ``name``."""
    init = Path(tree).resolve() / "src" / "j6opt" / "__init__.py"
    if not init.is_file():
        raise FileNotFoundError(f"no j6opt sources at {init.parent}")
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def units(j6, workload: str, batch: bool = False) -> list[tuple[str, tuple]]:
    """The workload's direct ``run`` units in package ``j6``, each as its
    name and the arguments of one call; under ``batch`` one ``run_many``
    unit per shape, with the six strategies."""
    for path in (str(ROOT / "src"), str(ROOT / "benchmarks")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from j6bench.workloads import ETA, STRATEGIES, WORKLOADS, derive_seed

    wl = WORKLOADS[workload]
    instances = [j6.generate(j6.GeneratorSpec(V=V, d=d, T=T, seed=derive_seed(SEED, 1, i),
                                              w_mode=mode))
                 for i, (V, d, T, mode) in enumerate(wl.shapes)]
    rcfg = j6.RunConfig(max_steps=wl.direct_steps, grad_tol=0.0, loss_tol=0.0)

    def cfg(strategy):
        return j6.StrategyConfig(kind=strategy, eta_h=float(ETA), eta_w=float(ETA))

    if batch:
        return [(f"{V}x{d}x{T}/{mode}/batch", (instances[i], [cfg(s) for s in STRATEGIES], rcfg))
                for i, (V, d, T, mode) in enumerate(wl.shapes)]
    out = []
    for i, strategy in wl.grid:
        V, d, T, mode = wl.shapes[i]
        out.append((f"{V}x{d}x{T}/{mode}/{strategy}", (instances[i], cfg(strategy), rcfg)))
    return out


def measure(trees, rounds: int, workload: str, batch: bool = False) -> list[dict]:
    """Per unit, each tree's least seconds per step, its minor faults per
    timed call and its step count (under ``batch``, its runs' counts)."""
    grids = [units(j6, workload, batch) for j6 in trees]
    rows = [{"unit": name, "s": [float("inf")] * 2, "faults": [0, 0], "steps": [0, 0]}
            for name, _ in grids[0]]
    order = 0
    for r in range(rounds + 1):  # round 0 warms up
        for u, row in enumerate(rows):
            order ^= 1
            for t in (order, 1 - order):
                j6, args = trees[t], grids[t][u][1]
                call = j6.optimizer.run_many if batch else j6.optimizer.run
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                t0 = time.perf_counter()
                result = call(*args)
                seconds = time.perf_counter() - t0
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
                steps = [len(x.trace) for x in (result if batch else [result])]
                row["steps"][t] = steps
                if r > 0:
                    row["s"][t] = min(row["s"][t], seconds / max(1, sum(steps)))
                    row["faults"][t] += faults
    for row in rows:
        row["faults"] = [f / rounds for f in row["faults"]]
    return rows


def report(rows: list[dict]) -> list[str]:
    """The table ``main`` prints."""
    lines = [f"{'unit':<36} {'A ms/step':>10} {'B ms/step':>10} {'B/A':>7} "
             f"{'A faults':>9} {'B faults':>9}"]

    def line(name, a, b, fa, fb):
        return f"{name:<36} {a * 1e3:>10.5f} {b * 1e3:>10.5f} {b / a:>7.3f} {fa:>9.1f} {fb:>9.1f}"

    for row in rows:
        lines.append(line(row["unit"], *row["s"], *row["faults"]))
    med = [statistics.median(row[key][t] for row in rows) for key in ("s", "faults") for t in (0, 1)]
    lines.append(line("median over units", med[0], med[1], med[2], med[3]))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path, help="checkout A (the parent, say)")
    parser.add_argument("tree_b", type=Path, help="checkout B (the change, say)")
    parser.add_argument("--workload", default="steps-large", choices=["steps-small", "steps-large"])
    parser.add_argument("--rounds", type=int, default=100, help="timed rounds (least is kept)")
    parser.add_argument("--batch", action="store_true",
                        help="time each shape's six strategies as one run_many call")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be positive")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # read when numpy first loads
    trees = [load_tree(args.tree_a, "j6opt_a"), load_tree(args.tree_b, "j6opt_b")]
    rows = measure(trees, args.rounds, args.workload, args.batch)
    print(f"A = {args.tree_a}, B = {args.tree_b}: {args.workload}{' --batch' * args.batch} "
          f"seed {SEED}, least of {args.rounds} rounds")
    print("\n".join(report(rows)))
    differ = [row["unit"] for row in rows if row["steps"][0] != row["steps"][1]]
    for name in differ:
        print(f"steps differ: {name}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
