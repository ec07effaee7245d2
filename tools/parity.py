"""Byte-parity digests of the optimizer over a fixed grid of runs.

    python tools/parity.py --out digests.json        # record the digests
    python tools/parity.py --against digests.json    # exit 1, naming each run that differs

The grid is 432 runs: the sizes (V x d x T) 6x4x1, 6x4x2, 64x16x8 and
200x32x16, each w_mode, seeds 0-2 (the instance's and the start's),
the alignments auto-raw and pushforward-cosine, and the six strategies,
each run 100 steps from a uniform start of scale 0.3 at eta 0.05.  The
six strategies of one cell step in lockstep (``run_many``), as
``compare`` runs them.  A run's digest is the sha256 of its trace CSV
bytes, the reprs of its final objectives and the bytes of its final
perturbations.  ``--first N`` keeps the first N runs of the grid.
Run it with ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from j6opt import (
    AlignmentMode,
    GeneratorSpec,
    RunConfig,
    StrategyConfig,
    StrategyKind,
    WMode,
    generate,
    run_many,
    write_trace,
)

SIZES = ((6, 4, 1), (6, 4, 2), (64, 16, 8), (200, 32, 16))
SEEDS = (0, 1, 2)
ALIGNMENTS = {"auto-raw": AlignmentMode("auto", "raw"),
              "pushforward-cosine": AlignmentMode("pushforward", "cosine")}
STEPS, INIT_SCALE, ETA = 100, 0.3, 0.05


def digests(first: int | None = None) -> dict[str, str]:
    """Each run's digest by its name, size/w_mode/seed/alignment/strategy,
    in grid order; only the first ``first`` runs when given."""
    out: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "trace.csv"
        for V, d, T in SIZES:
            for w_mode in WMode:
                for seed in SEEDS:
                    instance = generate(GeneratorSpec(V=V, d=d, T=T, seed=seed, w_mode=w_mode))
                    rcfg = RunConfig(max_steps=STEPS, seed=seed, init_scale=INIT_SCALE)
                    for align, mode in ALIGNMENTS.items():
                        cell = f"{V}x{d}x{T}/{w_mode.value}/seed{seed}/{align}"
                        kinds = list(StrategyKind)
                        if first is not None:
                            kinds = kinds[:first - len(out)]
                        if not kinds:
                            return out
                        cfgs = [StrategyConfig(kind=kind, eta_h=ETA, eta_w=ETA, alignment=mode)
                                for kind in kinds]
                        for kind, result in zip(kinds, run_many(instance, cfgs, rcfg)):
                            write_trace(result, trace_path, kind)
                            digest = hashlib.sha256(trace_path.read_bytes())
                            obs = result.objectives
                            digest.update(f"{obs.ob1!r} {obs.ob2!r}".encode())
                            digest.update(result.perturbations.h.tobytes())
                            digest.update(result.perturbations.w.tobytes())
                            out[f"{cell}/{kind.value}"] = digest.hexdigest()
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the digests here (JSON)")
    parser.add_argument("--against", help="compare with the digests in this file")
    parser.add_argument("--first", type=int, default=None, help="run only the first N runs")
    args = parser.parse_args(argv)
    if not (args.out or args.against):
        parser.error("give --out, --against or both")
    found = digests(args.first)
    if args.out:
        Path(args.out).write_text(json.dumps(found, indent=1) + "\n")
        print(f"wrote {args.out} ({len(found)} runs)")
    if args.against:
        expected = json.loads(Path(args.against).read_text())
        differ = [name for name in {**expected, **found}
                  if expected.get(name) != found.get(name)]
        for name in differ:
            print(f"differs: {name}")
        print(f"{len(found) - len(differ)} of {len(found)} runs match {args.against}")
        return 1 if differ else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
