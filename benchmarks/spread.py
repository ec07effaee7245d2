"""Run a workload once per seed and report each metric's run-to-run spread.

    python3 benchmarks/spread.py --workload steps-large --seeds 1-10

For every metric it prints the median, the quartiles and the spread
(inter-quartile range over median) of the per-run values, and for an
end-to-end metric the share of its bound that spread uses.  Runs are
sequential; ``--out`` writes the per-metric summary and values as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from j6bench.stats import spread  # noqa: E402


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", default=None, help="write the summary here as JSON")
    args = p.parse_args(argv)
    if len(args.seeds) < 2:
        p.error("--seeds must name at least two seeds")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    results = []
    for seed in args.seeds:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}", file=sys.stderr)
            return 1
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["report"] = json.loads(lines[-2])["report"]
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)
    summary = {}
    print(f"{'metric':<44} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'of bound':>8}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        share = spread(values) if median else float("nan")
        bound = bounds.get(name)
        of_bound = f"{share / bound:8.2f}" if bound else ""
        print(f"{name:<44} {median:14.6g} {q1:14.6g} {q3:14.6g} {share:8.3f} {of_bound}")
        summary[name] = {"unit": results[0]["metrics"][name]["unit"], "median": median,
                         "q1": q1, "q3": q3, "spread": share, "values": values}
    if args.out:
        doc = {"workload": args.workload, "seconds": seconds, "trace": args.trace,
               "seeds": args.seeds, "provenance": results[0]["report"]["provenance"],
               "metrics": summary}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
