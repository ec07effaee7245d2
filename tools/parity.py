"""Byte-parity digests of the optimizer over a fixed grid of runs.

    python tools/parity.py --out digests.json        # record the digests
    python tools/parity.py --against digests.json    # exit 1, naming each run that differs
    python tools/parity.py --decisions --out decisions.json
    python tools/parity.py --decisions --against decisions.json
    python tools/parity.py --decision-digests --out golden_decisions.json
    python tools/parity.py --alone --against digests.json   # each run alone

The grid is 432 runs: the sizes (V x d x T) 6x4x1, 6x4x2, 64x16x8 and
200x32x16, each w_mode, seeds 0-2 (the instance's and the start's),
the alignments auto-raw and pushforward-cosine, and the six strategies,
each run 100 steps from a uniform start of scale 0.3 at eta 0.05.  The
six strategies of one cell step in lockstep (``run_many``), as
``compare`` runs them; under ``--alone`` each runs as its own ``run``
(K = 1), so the digests of the two show whether a batched run equals
its run alone.  A run's digest is the sha256 of its trace CSV
bytes, the reprs of its final objectives and the bytes of its final
perturbations.  ``--first N`` keeps the first N runs of the grid.

``--decisions`` records each run's decisions and score rows instead: per
step the chosen index, or for soft the argmax of its weights (null for
the baselines), and the traced score vector.  With ``--against`` it
exits 1 naming each run whose decisions differ, and prints the largest
normwise score gap, ||S - S_ref|| / ||S_ref|| over the steps both runs
took.  ``--decision-digests`` records one sha256 per run over its
decisions alone (``decision_digest``), a compact form of the same gate.
Run it with ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from j6opt import (
    AlignmentMode,
    GeneratorSpec,
    RunConfig,
    StrategyConfig,
    StrategyKind,
    WMode,
    generate,
    run,
    run_many,
    write_trace,
)

SIZES = ((6, 4, 1), (6, 4, 2), (64, 16, 8), (200, 32, 16))
SEEDS = (0, 1, 2)
ALIGNMENTS = {"auto-raw": AlignmentMode("auto", "raw"),
              "pushforward-cosine": AlignmentMode("pushforward", "cosine")}
STEPS, INIT_SCALE, ETA = 100, 0.3, 0.05


def runs(first: int | None = None, alone: bool = False):
    """Each run of the grid as (name, strategy kind, result), the name
    size/w_mode/seed/alignment/strategy, in grid order; only the first
    ``first`` runs when given.  A cell's runs step in one batch, or each
    on its own when ``alone``."""
    count = 0
    for V, d, T in SIZES:
        for w_mode in WMode:
            for seed in SEEDS:
                instance = generate(GeneratorSpec(V=V, d=d, T=T, seed=seed, w_mode=w_mode))
                rcfg = RunConfig(max_steps=STEPS, seed=seed, init_scale=INIT_SCALE)
                for align, mode in ALIGNMENTS.items():
                    cell = f"{V}x{d}x{T}/{w_mode.value}/seed{seed}/{align}"
                    kinds = list(StrategyKind)
                    if first is not None:
                        kinds = kinds[:first - count]
                    if not kinds:
                        return
                    cfgs = [StrategyConfig(kind=kind, eta_h=ETA, eta_w=ETA, alignment=mode)
                            for kind in kinds]
                    results = ([run(instance, cfg, rcfg) for cfg in cfgs] if alone
                               else run_many(instance, cfgs, rcfg))
                    for kind, result in zip(kinds, results):
                        count += 1
                        yield f"{cell}/{kind.value}", kind, result


def digest(result, kind, trace_path: Path) -> str:
    """A run's digest, its trace CSV written to ``trace_path`` first."""
    write_trace(result, trace_path, kind)
    out = hashlib.sha256(trace_path.read_bytes())
    obs = result.objectives
    out.update(f"{obs.ob1!r} {obs.ob2!r}".encode())
    out.update(result.perturbations.h.tobytes())
    out.update(result.perturbations.w.tobytes())
    return out.hexdigest()


def digests(first: int | None = None, alone: bool = False) -> dict[str, str]:
    """Each run's digest by its name, in grid order."""
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "trace.csv"
        return {name: digest(result, kind, trace_path) for name, kind, result in runs(first, alone)}


def decision_list(result) -> list[int | None]:
    """Per step the chosen index, or for soft the argmax of its weights."""
    return [rec.chosen_index if rec.alpha is None else int(np.argmax(rec.alpha))
            for rec in result.trace]


def decision_digest(result) -> str:
    """The sha256 of a run's decisions, as the JSON list ``--decisions``
    records them."""
    return hashlib.sha256(json.dumps(decision_list(result)).encode()).hexdigest()


def decisions(first: int | None = None, alone: bool = False) -> dict[str, dict[str, list]]:
    """Each run's decisions and score rows by its name, in grid order."""
    return {name: {"decisions": decision_list(result),
                   "scores": [rec.scores.tolist() for rec in result.trace]}
            for name, _, result in runs(first, alone)}


def decision_digests(first: int | None = None, alone: bool = False) -> dict[str, str]:
    """Each run's decision digest by its name, in grid order."""
    return {name: decision_digest(result) for name, _, result in runs(first, alone)}


def differ(expected: dict, found: dict, key=lambda run: run) -> list[str]:
    """The names of the runs whose ``key`` differs between the two, or
    that only one of them holds."""
    return [name for name in {**expected, **found}
            if key(expected.get(name)) != key(found.get(name))]


def score_gap(expected: dict, found: dict) -> tuple[float, str | None]:
    """The largest normwise gap between the score rows of the runs both
    hold, over the steps both took, and the run it is found in."""
    gap, worst = 0.0, None
    for name in expected.keys() & found.keys():
        a, b = np.array(expected[name]["scores"]), np.array(found[name]["scores"])
        n = min(len(a), len(b))
        diff, ref = np.linalg.norm(b[:n] - a[:n]), np.linalg.norm(a[:n])
        x = diff / ref if ref > 0 else diff
        if x > gap:
            gap, worst = x, name
    return gap, worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the digests here (JSON)")
    parser.add_argument("--against", help="compare with the digests in this file")
    parser.add_argument("--first", type=int, default=None, help="run only the first N runs")
    what = parser.add_mutually_exclusive_group()
    what.add_argument("--decisions", action="store_true",
                      help="record and compare decisions and score rows, not digests")
    what.add_argument("--decision-digests", action="store_true",
                      help="record and compare one sha256 per run over its decisions")
    parser.add_argument("--alone", action="store_true",
                        help="run each configuration as its own run, not in its cell's batch")
    args = parser.parse_args(argv)
    if not (args.out or args.against):
        parser.error("give --out, --against or both")
    record = decisions if args.decisions else decision_digests if args.decision_digests else digests
    found = record(args.first, args.alone)
    if args.out:
        Path(args.out).write_text(json.dumps(found, indent=None if args.decisions else 1) + "\n")
        print(f"wrote {args.out} ({len(found)} runs)")
    if args.against:
        expected = json.loads(Path(args.against).read_text())
        key = (lambda run: run and run["decisions"]) if args.decisions else (lambda run: run)
        names = differ(expected, found, key)
        for name in names:
            print(f"differs: {name}")
        print(f"{len(found) - len(names)} of {len(found)} runs match {args.against}")
        if args.decisions:
            gap, worst = score_gap(expected, found)
            print(f"largest normwise score gap: {gap:.3g}" + (f" ({worst})" if worst else ""))
        return 1 if names else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
