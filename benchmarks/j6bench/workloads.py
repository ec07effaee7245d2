"""The two workloads, their output checks, and the metrics they yield.

Every workload is a closed loop with one in-process caller that sends
the next call only after the last one returned.  Work comes in rounds.
A round is one CLI pass, driven through ``j6opt.cli.main(argv)`` on
files in a work directory, followed by ``cycles`` passes over the
workload's direct ``optimizer.run`` configurations.  Round ``r`` draws
its generator seeds from (workload seed, r mod ``classes``), so rounds
of one input class, and two passes over the same round indices, produce
the same bytes; that is what the repeat and traced-vs-untraced checks
compare.

Every timed call belongs to a unit: work that the run repeats unchanged,
either one direct configuration, or one command.  The instances of one
input class differ from those of another in their values only, so every
command does the same work on each class except ``gen``, whose rejection
samplers draw a different number of candidates; each ``gen`` command of
each class is therefore a unit of its own.  A unit's time is the least
of its repeats (``stats.least_by_unit``), and the metrics combine the
units' times.  Step metrics come from the direct ``run()`` calls, as wall
time divided by the steps the call executed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import resource
import statistics
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import j6opt.cli
import j6opt.optimizer
from j6opt.model import ProblemInstance
from j6opt.optimizer import RunConfig
from j6opt.probgen import (
    ROLESWAP_RATIO_MAX,
    Family,
    GeneratorSpec,
    conflict_certificate,
    generate,
    roleswap_certificate,
)
from j6opt.serialize import load_instance, save_instance, write_trace
from j6opt.strategies import StrategyConfig

from .stats import least_by_unit, percentile
from .tracing import Hook, Tracer

__all__ = ["WORKLOADS", "Workload", "Bench", "Phase", "HOOKS", "end_to_end", "per_layer"]

STRATEGIES = ("hard-j6", "hard-jplus", "soft", "static", "scalarized", "grad-surgery")
ETA = "0.05"
SWEEP_TAUS = "0.01,0.03,0.1,0.3,1,3,10,30"
# ob2 = mean sum_v p log p lies in [-log V, 0]; the slack covers rounding.
BOUNDS_TOL = 1e-12
RUN_LABEL = "optimizer.run"


@dataclass(frozen=True)
class Gen:
    """One ``j6opt gen`` command of a round."""

    family: str
    V: int
    d: int
    T: int
    w_mode: str = "full_matrix"


@dataclass(frozen=True)
class Workload:
    name: str
    gens: tuple[Gen, ...]      # gens[0] is the instance run/compare/sweep read
    gradcheck_input: int | None  # index into gens, or None for the built-in battery
    cli_steps: int             # --steps of run/compare/sweep
    shapes: tuple[tuple[int, int, int, str], ...] = ()  # direct run() instances
    grid: tuple[tuple[int, str], ...] = ()              # (shape index, strategy)
    direct_steps: int = 0
    cycles: int = 0            # direct-run cycles per round
    classes: int = 1           # input classes; round r generates class r mod classes

    def min_rounds(self, samples: int) -> int:
        """Rounds needed for ``samples`` step samples, five command
        samples and three repeats of every input class."""
        return max(5, 3 * self.classes, math.ceil(samples / (self.cycles * len(self.grid))))


def _grid(shape_indices, strategies=STRATEGIES):
    return tuple((i, s) for i in shape_indices for s in strategies)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="steps-small",
            # The CLI pass is the README quick start: rejection-sampled
            # role-swap and conflicting instances, then gradcheck, run,
            # compare and both sweeps on the first role-swap instance.
            # Four classes of 49 instances each, so that gen_s averages
            # over the draws of 196 instances per run while every class
            # still repeats ten times or more.
            gens=(Gen("role-swap", 6, 2, 2),) * 24
            + (Gen("conflicting", 8, 2, 1),) * 24
            + (Gen("gaussian", 6, 4, 1),),
            gradcheck_input=0,
            cli_steps=50,
            classes=4,
            shapes=(
                (6, 4, 1, "full_matrix"),
                (6, 4, 1, "single_row"),
                (64, 16, 8, "full_matrix"),
                (64, 16, 8, "single_row"),
            ),
            # 6x4x1 runs twice per cycle, so that the median falls inside
            # the dispatch-bound size rather than on the boundary between
            # the two sizes, where it jumps from run to run.
            grid=_grid([0, 1]) * 2 + _grid([2, 3]),
            # 50 steps a call: the per-call set-up stays a small share of
            # each sample, and every configuration repeats some 40 times
            # a run.
            direct_steps=50,
            cycles=1,
        ),
        Workload(
            name="steps-large",
            gens=(Gen("gaussian", 1000, 64, 16),),
            gradcheck_input=None,
            # Short commands, so that each repeats some forty times a run:
            # at 10 steps a sweep took a quarter of a second and its least
            # time still carried the host's slow share.
            cli_steps=1,
            shapes=((1000, 64, 16, "full_matrix"), (1000, 64, 16, "single_row")),
            grid=_grid([0]) + ((1, "hard-jplus"),),
            direct_steps=10,
            cycles=1,
        ),
    )
}


def derive_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed derived from the workload seed and integer keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def _digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _loss_problem(ob1: float, ob2: float, V: int) -> str | None:
    if not (math.isfinite(ob1) and math.isfinite(ob2)):
        return f"non-finite loss ob1={ob1!r} ob2={ob2!r}"
    if ob1 < 0.0:
        return f"ob1={ob1!r} is negative"
    if not -math.log(V) - BOUNDS_TOL <= ob2 <= 0.0:
        return f"ob2={ob2!r} outside [-log {V}, 0]"
    return None


@dataclass
class Phase:
    """Samples of one measured pass over rounds 0, 1, 2, ..."""

    name: str
    rounds: int = 0
    # Per-step wall time (ms) of each optimisation call by unit, and the
    # steps that unit's calls ran in all.
    step_ms: dict[tuple, list[float]] = field(default_factory=dict)
    unit_steps: dict[tuple, int] = field(default_factory=dict)
    # Wall time (s) of each command by unit: (metric, input class, index
    # of the gen command) for gen, (metric, 0, 0) for the others.
    commands: dict[tuple[str, int, int], list[float]] = field(default_factory=dict)
    round_seconds: list[float] = field(default_factory=list)
    digests: list[dict[str, str]] = field(default_factory=list)

    def add_steps(self, unit: tuple, seconds: float, steps: int) -> None:
        self.step_ms.setdefault(unit, []).append(seconds * 1e3 / steps)
        self.unit_steps[unit] = self.unit_steps.get(unit, 0) + steps

    def add_command(self, metric: str, seconds: float, cls: int = 0, part: int = 0) -> None:
        self.commands.setdefault((metric, cls, part), []).append(seconds)

    @property
    def steps(self) -> int:
        return sum(self.unit_steps.values())

    @property
    def step_samples(self) -> int:
        return sum(len(xs) for xs in self.step_ms.values())


class Bench:
    """One workload at one seed, with its work directory and op ledger."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.wl = workload
        self.seed = seed
        self.dir = workdir
        self.attempted = 0
        self.failed_ops: set[str] = set()
        self.failures: list[str] = []
        self.direct = []
        instances = [
            generate(GeneratorSpec(V=V, d=d, T=T, seed=derive_seed(seed, 1, i), w_mode=mode))
            for i, (V, d, T, mode) in enumerate(workload.shapes)
        ]
        rcfg = RunConfig(max_steps=workload.direct_steps, grad_tol=0.0, loss_tol=0.0)
        for i, strategy in workload.grid:
            cfg = StrategyConfig(kind=strategy, eta_h=float(ETA), eta_w=float(ETA))
            self.direct.append((("direct", i, strategy), instances[i], cfg, rcfg))

    # -- op ledger -------------------------------------------------------

    def fail(self, op: str, message: str) -> None:
        self.failed_ops.add(op)
        if len(self.failures) < 20:
            self.failures.append(f"{op}: {message}")

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def _cli(self, op: str, argv: list[str]) -> tuple[float, str] | None:
        """Run one command; its wall time and captured output, or None
        when it raised or exited non-zero (recorded as a failed op)."""
        self.attempted += 1
        out = io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(out):
                t0 = time.perf_counter()
                code = j6opt.cli.main(argv)
                seconds = time.perf_counter() - t0
        except Exception as e:  # a crash is a failed op, not a crashed benchmark
            self.fail(op, f"raised {e!r}")
            return None
        if code != 0:
            self.fail(op, f"exit {code}: {out.getvalue()[-300:]!r}")
            return None
        return seconds, out.getvalue()

    # -- one round -------------------------------------------------------

    def round(self, r: int, phase: Phase, cycles: int, check_jobs: bool = False) -> None:
        t0 = time.perf_counter()
        digest: dict[str, str] = {}
        self._cli_pass(r, phase, digest, check_jobs)
        for c in range(cycles):
            self._direct_cycle(f"{phase.name}/r{r}", phase, digest if c == 0 else None)
        phase.round_seconds.append(time.perf_counter() - t0)
        phase.digests.append(digest)
        phase.rounds += 1

    def _run_flags(self) -> list[str]:
        return ["--steps", str(self.wl.cli_steps), "--grad-tol", "0", "--loss-tol", "0",
                "--eta-h", ETA, "--eta-w", ETA]

    @contextmanager
    def _checking(self, op: str):
        try:
            yield
        except Exception as e:  # unreadable output fails the op, not the benchmark
            self.fail(op, f"output check raised {e!r}")

    def _cli_pass(self, r: int, phase: Phase, digest: dict, check_jobs: bool) -> None:
        op = f"{phase.name}/r{r}"
        cls = r % self.wl.classes
        d = self.dir
        for i, g in enumerate(self.wl.gens):
            path = d / f"g{i}.json"
            seed = derive_seed(self.seed, 2, cls, i)
            res = self._cli(f"{op}/gen{i}", [
                "gen", "--family", g.family, "--V", str(g.V), "--d", str(g.d), "--T", str(g.T),
                "--w-mode", g.w_mode, "--seed", str(seed), "-o", str(path),
            ])
            if res is None:
                continue
            phase.add_command("gen_s", res[0], cls, i)
            with self._checking(f"{op}/gen{i}"):
                if r < self.wl.classes:
                    digest[f"gen{i}"] = self._check_instance(f"{op}/gen{i}", path, g, seed)
                else:  # same bytes as the class's first round, checked in measure()
                    digest[f"gen{i}"] = _digest(path.read_bytes())
        main = d / "g0.json"
        V = self.wl.gens[0].V

        gc = self.wl.gradcheck_input
        res = self._cli(f"{op}/gradcheck",
                        ["gradcheck"] + ([] if gc is None else ["-i", str(d / f"g{gc}.json")]))
        if res is not None:
            phase.add_command("gradcheck_s", res[0])
            digest["gradcheck"] = _digest(res[1])

        trace_path = d / "run.csv"
        res = self._cli(f"{op}/run", [
            "run", "-i", str(main), "--strategy", "hard-j6", "--trace", str(trace_path),
            *self._run_flags()])
        if res is not None:
            phase.add_command("run_cmd_s", res[0])
            with self._checking(f"{op}/run"):
                text = trace_path.read_text(encoding="utf-8")
                digest["run"] = _digest(res[1] + text)
                rows = list(csv.DictReader(io.StringIO(text)))
                self._check_losses(f"{op}/run",
                                   [(float(x["ob1"]), float(x["ob2"])) for x in rows], V)

        res = self._cli(f"{op}/compare", [
            "compare", "-i", str(main), "-o", str(d / "compare.json"), *self._run_flags()])
        if res is not None:
            phase.add_command("compare_s", res[0])
            with self._checking(f"{op}/compare"):
                summary = (d / "compare.json").read_bytes()
                digest["compare"] = _digest(summary)
                runs = json.loads(summary)["runs"]
                self._check_losses(f"{op}/compare",
                                   [(x["final_ob1"], x["final_ob2"]) for x in runs], V)
            if check_jobs:
                self._check_same_bytes(f"{op}/compare_j2", d / "compare.json", [
                    "compare", "-i", str(main), "-o", str(d / "compare_j2.json"), "--jobs", "2",
                    *self._run_flags()], d / "compare_j2.json")

        for jobs in (1, 2):
            path = d / f"sweep_j{jobs}.csv"
            res = self._cli(f"{op}/sweep_j{jobs}", [
                "sweep", "-i", str(main), "--param", "tau", "--values", SWEEP_TAUS,
                "--jobs", str(jobs), "-o", str(path), *self._run_flags()])
            if res is None:
                continue
            phase.add_command(f"sweep_j{jobs}_s", res[0])
            with self._checking(f"{op}/sweep_j{jobs}"):
                text = path.read_text(encoding="utf-8")
                rows = list(csv.DictReader(io.StringIO(text)))
                self._check_losses(f"{op}/sweep_j{jobs}",
                                   [(float(x["final_ob1"]), float(x["final_ob2"])) for x in rows], V)
                if jobs == 1:
                    digest["sweep_j1"] = _digest(text)
        self._check_same_bytes(f"{op}/sweep_j2", d / "sweep_j1.csv", None, d / "sweep_j2.csv")

    def _check_same_bytes(self, op: str, reference: Path, argv: list[str] | None,
                          path: Path) -> None:
        """Fail ``op`` unless ``path`` (written by ``argv`` if given) holds
        the bytes of the ``--jobs 1`` output at ``reference``."""
        if argv is not None and self._cli(op, argv) is None:
            return
        with self._checking(op):
            if path.read_bytes() != reference.read_bytes():
                self.fail(op, "output differs from --jobs 1")

    def _check_instance(self, op: str, path: Path, g: Gen, seed: int) -> str:
        """Certificate and save/load round trip of a generated instance:
        the file loads to the instance the generator draws for the same
        spec, and saving what was loaded gives the same bytes."""
        raw = path.read_bytes()
        inst = load_instance(path)
        spec = GeneratorSpec(V=g.V, d=g.d, T=g.T, seed=seed, family=g.family, w_mode=g.w_mode)
        if not _same_instance(inst, generate(spec)):
            self.fail(op, "loaded instance differs from the generated one")
        family = Family(g.family)
        if family is Family.ROLE_SWAP and not roleswap_certificate(inst) < ROLESWAP_RATIO_MAX:
            self.fail(op, f"role-swap certificate {roleswap_certificate(inst)!r} not below "
                          f"{ROLESWAP_RATIO_MAX}")
        if family is Family.CONFLICTING and not conflict_certificate(inst) < 0.0:
            self.fail(op, f"conflict certificate {conflict_certificate(inst)!r} not negative")
        meta = json.loads(raw)["metadata"]
        copy = path.with_name(path.name + ".copy")
        save_instance(inst, copy, seed=meta["seed"], family=meta["family"])
        if copy.read_bytes() != raw or not _same_instance(load_instance(copy), inst):
            self.fail(op, "save/load round trip changed the instance")
        return _digest(raw)

    def _check_losses(self, op: str, pairs, V: int) -> None:
        for ob1, ob2 in pairs:
            problem = _loss_problem(ob1, ob2, V)
            if problem is not None:
                self.fail(op, problem)
                return

    def _direct_cycle(self, op: str, phase: Phase, digest: dict | None) -> None:
        for k, (unit, inst, cfg, rcfg) in enumerate(self.direct):
            self.attempted += 1
            try:
                t0 = time.perf_counter()
                result = j6opt.optimizer.run(inst, cfg, rcfg)
                seconds = time.perf_counter() - t0
            except Exception as e:  # a crash is a failed op, not a crashed benchmark
                self.fail(f"{op}/direct{k}", f"raised {e!r}")
                continue
            pairs = [(t.ob1, t.ob2) for t in result.trace]
            pairs.append((result.objectives.ob1, result.objectives.ob2))
            self._check_losses(f"{op}/direct{k}", pairs, inst.V)
            if len(result.trace) != rcfg.max_steps:
                self.fail(f"{op}/direct{k}", f"ran {len(result.trace)} of {rcfg.max_steps} steps")
                continue
            phase.add_steps(unit, seconds, len(result.trace))
            if digest is not None:
                with self._checking(f"{op}/direct{k}"):
                    path = self.dir / "direct.csv"
                    write_trace(result, path, cfg.kind)
                    digest[f"direct{k}"] = _digest(path.read_bytes())

    # -- phases ----------------------------------------------------------

    def measure(self, phase: Phase, seconds: float, min_rounds: int) -> Phase:
        """Rounds 0, 1, ... until ``seconds`` have passed and at least
        ``min_rounds`` rounds are done.  Every round must repeat the
        bytes of the first round of its input class."""
        t0 = time.perf_counter()
        while phase.rounds < min_rounds or time.perf_counter() - t0 < seconds:
            self.round(phase.rounds, phase, self.wl.cycles)
        k = self.wl.classes
        for r in range(k, phase.rounds):
            self._compare_digests(f"{phase.name}/r{r}", phase.digests[r % k], phase.digests[r],
                                  f"round {r % k}")
        return phase

    def compare_rounds(self, reference: Phase, other: Phase) -> int:
        """Fail every op whose output in ``other`` differs from the same
        round of ``reference``; returns the number of rounds compared."""
        n = min(reference.rounds, other.rounds)
        for r in range(n):
            self._compare_digests(f"{other.name}/r{r}", reference.digests[r], other.digests[r],
                                  f"{reference.name} round {r}")
        return n

    def _compare_digests(self, op: str, ref: dict, got: dict, what: str) -> None:
        for key in sorted(set(ref) | set(got)):
            if ref.get(key) != got.get(key):
                self.fail(f"{op}/{key}", f"output differs from {what}")


def _same_instance(a: ProblemInstance, b: ProblemInstance) -> bool:
    return (
        (a.V, a.d, a.T, a.w_mode, a.v_star) == (b.V, b.d, b.T, b.w_mode, b.v_star)
        and np.array_equal(a.H, b.H)
        and np.array_equal(a.W, b.W)
        and np.array_equal(a.y, b.y)
    )


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else math.nan


def _percentile(xs: list[float], q: float) -> float:
    """NaN when failed calls left too few samples (the result then reads
    ``correct: false`` anyway)."""
    try:
        return percentile(xs, q)
    except ValueError:
        return math.nan


def step_metrics(phase: Phase) -> dict[str, float]:
    """Step throughput and percentiles, with every call at its unit's time.

    ``steps_per_s`` is all steps of the phase over the time they take at
    their units' times; the percentiles are nearest-rank over the calls.
    """
    best = least_by_unit(phase.step_ms)
    calls = sorted(ms for unit, ms in best.items() for _ in phase.step_ms[unit])
    steps = sum(phase.unit_steps[unit] for unit in best)
    seconds = sum(ms * phase.unit_steps[unit] / 1e3 for unit, ms in best.items())
    return {
        "steps_per_s": steps / seconds if seconds else math.nan,
        "step_ms_p50": _percentile(calls, 0.5),
        "step_ms_p90": _percentile(calls, 0.9),
    }


def command_seconds(phase: Phase, metric: str) -> float:
    """The time of the metric's commands in one round: the sum of their
    units' times, as a mean over input classes (``gen`` runs several
    commands per round and has several classes; the others have one)."""
    per_class: dict[int, float] = {}
    for (name, cls, _), t in least_by_unit(phase.commands).items():
        if name == metric:
            per_class[cls] = per_class.get(cls, 0.0) + t
    return statistics.fmean(per_class.values()) if per_class else math.nan


def end_to_end(phase: Phase, setup_seconds: list[float], bench: Bench) -> dict[str, float]:
    metrics = {"setup_s": _median(setup_seconds), **step_metrics(phase)}
    for name in ("gen_s", "gradcheck_s", "run_cmd_s", "compare_s", "sweep_j1_s", "sweep_j2_s"):
        metrics[name] = command_seconds(phase, name)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["ops_ok_ratio"] = 1.0 - bench.failed / bench.attempted
    return metrics



# -- traced run ----------------------------------------------------------


def _path_arg(args, kwargs, index: int, name: str) -> str:
    return kwargs[name] if name in kwargs else args[index]


def _bytes_written(span, tracer, args, kwargs, result) -> None:
    tracer.count("serialize.bytes_written", os.path.getsize(_path_arg(args, kwargs, 1, "path")))


def _bytes_read(span, tracer, args, kwargs, result) -> None:
    tracer.count("serialize.bytes_read", os.path.getsize(_path_arg(args, kwargs, 0, "path")))


def _steps(span, tracer, args, kwargs, result) -> None:
    tracer.count("optimizer.steps", len(result.trace))


def _jobs(span, tracer, args, kwargs, result) -> None:
    span.attrs["jobs"] = getattr(args[0], "jobs", 1)


_DECIDE = ("hard_route_j6", "hard_route_jplus", "soft_update", "soft_weights",
           "static_baseline", "scalarized_baseline", "gradsurgery_baseline")

HOOKS = (
    [
        Hook("j6opt.optimizer", "run", RUN_LABEL, on_call=_steps),
        Hook("j6opt.cli", "run", RUN_LABEL, on_call=_steps),
        Hook("j6opt.optimizer", "stop_check", "optimizer.stop_check"),
        Hook("j6opt.optimizer", "objectives", "model.objectives"),
        Hook("j6opt.optimizer", "compute_gradient_set", "attribution.compute_gradient_set"),
        Hook("j6opt.optimizer", "score_j6", "attribution.score_j6"),
        Hook("j6opt.optimizer", "score_jplus", "attribution.score_jplus"),
    ]
    + [Hook("j6opt.optimizer", name, "strategies.decide") for name in _DECIDE]
    + [
        Hook("j6opt.cli", "generate", "probgen.generate"),
        Hook("j6opt.cli", "fd_gradient", "model.fd_gradient"),
        Hook("j6opt.cli", "save_instance", "serialize.save_instance", on_call=_bytes_written),
        Hook("j6opt.cli", "load_instance", "serialize.load_instance", on_call=_bytes_read),
        Hook("j6opt.cli", "write_trace", "serialize.write_trace", on_call=_bytes_written),
        Hook("j6opt.cli", "write_summary", "serialize.write_summary", on_call=_bytes_written),
    ]
    + [Hook("j6opt.cli", f"cmd_{c}", f"cli.{c}", on_call=_jobs)
       for c in ("gen", "gradcheck", "run", "compare", "sweep")]
    # Per-step counts: only calls made inside optimizer.run.
    + [
        Hook(m, "compute_logits", "model.compute_logits", "count", within=RUN_LABEL)
        for m in ("j6opt.model", "j6opt.attribution")
    ]
    + [Hook(m, "embed_matrix", "model.embed_matrix", "count", within=RUN_LABEL)
       for m in ("j6opt.model", "j6opt.attribution")]
    + [
        Hook("j6opt.attribution", "align", "attribution.align", "count", within=RUN_LABEL),
        Hook("j6opt.attribution", "logit_field", "attribution.logit_field", "count",
             within=RUN_LABEL),
        # Generator counts leave out the benchmark's own regeneration check.
        Hook("j6opt.probgen", "ProblemInstance", "probgen.draws", "count",
             within="probgen.generate"),
    ]
    + [
        Hook(m, name, "probgen.certificate", "count", within="cli.gen")
        for m in ("j6opt.probgen", "j6opt.cli")
        for name in ("conflict_certificate", "roleswap_certificate")
    ]
)


def per_layer(tracer: Tracer, traced: Phase, untraced: Phase) -> dict[str, float]:
    """Per-layer metrics of the traced phase.  Per-step figures divide by
    the optimiser steps run inside it, per-round figures by its rounds,
    ``cli.*.self_ms`` by the command's calls."""
    totals = tracer.totals()
    steps = tracer.counts.get("optimizer.steps", 0.0)
    rounds = traced.rounds

    def row(label):
        return totals.get(label, {"calls": 0, "total": 0.0, "self": 0.0})

    def self_ms_per_step(label):
        return row(label)["self"] * 1e3 / steps if steps else 0.0

    def calls_per_step(label):
        return tracer.counts.get(label, 0.0) / steps if steps else 0.0

    out = {}
    for label in ("optimizer.run", "optimizer.stop_check", "model.objectives",
                  "attribution.compute_gradient_set", "attribution.score_j6",
                  "attribution.score_jplus", "strategies.decide"):
        out[f"{label}.self_ms_per_step"] = self_ms_per_step(label)
    for label in ("model.compute_logits", "model.embed_matrix", "attribution.align",
                  "attribution.logit_field"):
        out[f"{label}.calls_per_step"] = calls_per_step(label)

    draws = tracer.counts.get("probgen.draws", 0.0)
    out["probgen.generate.total_ms"] = row("probgen.generate")["total"] * 1e3 / rounds
    out["probgen.draws"] = draws / rounds
    out["probgen.accept_ratio"] = row("probgen.generate")["calls"] / draws if draws else 0.0
    out["probgen.certificate.calls"] = tracer.counts.get("probgen.certificate", 0.0) / rounds
    out["model.fd_gradient.total_ms"] = row("model.fd_gradient")["total"] * 1e3 / rounds
    out["model.fd_gradient.calls"] = row("model.fd_gradient")["calls"] / rounds
    for name in ("save_instance", "load_instance", "write_trace", "write_summary"):
        out[f"serialize.{name}.total_ms"] = row(f"serialize.{name}")["total"] * 1e3 / rounds
    out["serialize.bytes_written"] = tracer.counts.get("serialize.bytes_written", 0.0) / rounds
    out["serialize.bytes_read"] = tracer.counts.get("serialize.bytes_read", 0.0) / rounds
    for c in ("gen", "gradcheck", "run", "compare", "sweep"):
        r = row(f"cli.{c}")
        out[f"cli.{c}.self_ms"] = r["self"] * 1e3 / r["calls"] if r["calls"] else 0.0

    run_in_pool = 0.0
    pool_capacity = 0.0
    for s in tracer.spans:
        if s.label == "cli.sweep" and s.attrs.get("jobs", 1) > 1:
            pool_capacity += s.attrs["jobs"] * s.duration
        elif (s.label == RUN_LABEL and s.parent is not None
              and s.parent.label == "cli.sweep" and s.parent.attrs.get("jobs", 1) > 1):
            run_in_pool += s.duration
    out["cli.pool.efficiency"] = run_in_pool / pool_capacity if pool_capacity else 0.0

    out["trace.overhead.step_ms_p50"] = (
        step_metrics(traced)["step_ms_p50"] - step_metrics(untraced)["step_ms_p50"])
    out["trace.overhead.round_s"] = (
        _median(traced.round_seconds) - _median(untraced.round_seconds))
    return out
