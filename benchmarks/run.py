"""Run one j6opt benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload steps-small --seed 1 --seconds 50 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it holds the per-layer metrics of a traced run.  The
lines before it are a readable table and a report with the host and
provenance block, sample counts and any failed checks.  Exit code 2
means the benchmark could not run at all (for example, no sources).
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# Pin BLAS before numpy loads: 1 and 2 threads measured the same at
# 1000x64x16 on 2 cores, and `sweep --jobs 2` would oversubscribe them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Set-up is timed this many extra times, each in a fresh process.
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
# How long /proc/stat is sampled to find the idlest core.
IDLE_SAMPLE_S = 0.2


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["steps-small", "steps-large"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print the set-up time and exit (used by the benchmark itself)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _probe_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {out.returncode}): {out.stderr[-500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def _idlest(cores: list[int]) -> int:
    """The core of ``cores`` that was idle longest over a short sample of
    /proc/stat, or the first one where that cannot be read."""

    def idle_ticks() -> dict[int, int]:
        with open("/proc/stat", encoding="ascii") as f:
            rows = [line.split() for line in f if line[:3] == "cpu" and line[3].isdigit()]
        return {int(r[0][3:]): int(r[4]) + int(r[5]) for r in rows}  # idle + iowait

    if len(cores) == 1:
        return cores[0]
    try:
        before = idle_ticks()
        time.sleep(IDLE_SAMPLE_S)
        after = idle_ticks()
    except (OSError, ValueError, IndexError):
        return cores[0]
    return max(cores, key=lambda c: (after.get(c, 0) - before.get(c, 0), -c))


def main(argv=None) -> int:
    args = _parse(argv)
    # Pin the process, and so its pool threads and set-up probes, to one
    # core.  On a shared 2-vCPU host, `sweep --jobs 2` on two cores moved
    # by up to 38% between sets of runs with the load on the other core:
    # handing the GIL to a thread on another core waits for that core.
    # The pool gains nothing from a second core on this workload anyway.
    # The core is the idlest one, so that other processes of the machine
    # (and the interrupts they cause) can keep to the other.
    cores = sorted(os.sched_getaffinity(0))
    t_pin = time.perf_counter()
    core = _idlest(cores)
    os.sched_setaffinity(0, {core})
    pin_s = time.perf_counter() - t_pin
    if not (SRC / "j6opt" / "__init__.py").is_file():
        print(f"error: no j6opt sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]

    import j6opt

    if Path(j6opt.__file__).resolve().parent != (SRC / "j6opt").resolve():
        print(f"error: imported j6opt from {j6opt.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from j6bench.stats import provenance
    from j6bench.tracing import Tracer
    from j6bench.workloads import HOOKS, WORKLOADS, Bench, Phase, end_to_end, per_layer

    wl = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    report = {}
    try:
        bench = Bench(wl, args.seed, workdir)
        warm = Phase("warmup")
        bench.round(0, warm, cycles=1, check_jobs=True)
        setup_s = time.perf_counter() - T_START - pin_s
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace == 0:
            timed = bench.measure(Phase("timed"), args.seconds, wl.min_rounds(100))
            bench.compare_rounds(warm, timed)
            setup_samples = [setup_s] + [_probe_setup(args) for _ in range(SETUP_PROBES)]
            metrics = end_to_end(timed, setup_samples, bench)
            declared = spec["end_to_end"]
            report["setup_samples_s"] = setup_samples
            phases = [timed]
        else:
            half = args.seconds / 2
            untraced = bench.measure(Phase("untraced"), half, wl.min_rounds(20))
            tracer = Tracer()
            with tracer.patch(HOOKS):
                traced = bench.measure(Phase("traced"), half, wl.min_rounds(20))
            report["rounds_compared"] = bench.compare_rounds(untraced, traced)
            bench.compare_rounds(warm, untraced)
            metrics = per_layer(tracer, traced, untraced)
            declared = spec["per_layer"]
            report["absent"] = tracer.absent
            phases = [untraced, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    names = [m["name"] for m in declared]
    if set(names) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")
    report["provenance"] = provenance(ROOT, args.seed, wl.name)
    report["provenance"]["affinity_cores_before_pin"] = len(cores)
    report["provenance"]["pinned_core"] = core
    report["phases"] = {
        p.name: {
            "rounds": p.rounds,
            "step_samples": p.step_samples,
            "step_units": len(p.step_ms),
            "steps": p.steps,
            "command_samples": {f"{m}/class{c}/{i}": len(v) for (m, c, i), v in p.commands.items()},
            "median_round_s": statistics.median(p.round_seconds),
        }
        for p in phases
    }
    report["attempted"] = bench.attempted
    report["failures"] = bench.failures
    for m in declared:
        print(f"{m['name']:<42} {metrics[m['name']]:>16.6f} {m['unit']}")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
