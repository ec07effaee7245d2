"""Tests of the benchmark's own helpers.

    python -m pytest benchmarks/tests -q
"""

import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from j6bench.stats import least_by_unit, percentile, spread  # noqa: E402
from j6bench.tracing import Hook, Span, Tracer, self_times, union_length  # noqa: E402

RUN_LABEL = "optimizer.run"


@pytest.fixture
def fake_module():
    mod = types.ModuleType("j6bench_fake_target")

    def work(x):
        return x + 1

    def hot(x):
        return x * 2

    mod.work = work
    mod.hot = hot
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def _span(label, start, end, parent=None):
    s = Span(label, start, parent)
    s.end = end
    return s


class TestSelfTime:
    def test_union_of_disjoint_nested_and_overlapping_intervals(self):
        assert union_length([]) == 0.0
        assert union_length([(0, 1), (2, 4)]) == 3.0
        assert union_length([(0, 5), (1, 2)]) == 5.0
        assert union_length([(3, 6), (0, 4), (7, 8)]) == 7.0

    def test_nested_spans(self):
        root = _span("cli.compare", 0.0, 10.0)
        a = _span("serialize.load_instance", 1.0, 2.0, root)
        b = _span(RUN_LABEL, 3.0, 9.0, root)
        b1 = _span("model.objectives", 4.0, 5.0, b)
        b2 = _span("attribution.compute_gradient_set", 5.0, 7.5, b)
        selfs = self_times([root, a, b, b1, b2])
        assert selfs[id(root)] == pytest.approx(10.0 - 1.0 - 6.0)
        assert selfs[id(a)] == pytest.approx(1.0)
        assert selfs[id(b)] == pytest.approx(6.0 - 1.0 - 2.5)
        assert selfs[id(b1)] == pytest.approx(1.0)
        assert selfs[id(b2)] == pytest.approx(2.5)

    def test_overlapping_children_count_once(self):
        # Two pool threads ran overlapping runs under one sweep.
        root = _span("cli.sweep", 0.0, 10.0)
        runs = [_span(RUN_LABEL, 1.0, 6.0, root), _span(RUN_LABEL, 4.0, 8.0, root)]
        assert self_times([root, *runs])[id(root)] == pytest.approx(3.0)

    def test_child_outliving_parent_is_clipped(self):
        root = _span("cli.sweep", 0.0, 5.0)
        late = _span(RUN_LABEL, 4.0, 7.0, root)
        assert self_times([root, late])[id(root)] == pytest.approx(4.0)

    def test_totals_sum_per_label(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("b"):
                pass
        totals = tracer.totals()
        assert totals["b"]["calls"] == 2
        assert totals["a"]["calls"] == 1
        assert totals["a"]["self"] == pytest.approx(totals["a"]["total"] - totals["b"]["total"])


class TestThreads:
    def test_stacks_are_per_thread_and_workers_attach_to_owner(self, fake_module):
        tracer = Tracer()
        barrier = threading.Barrier(2, timeout=10)

        def work(i):
            with tracer.span(RUN_LABEL) as run:
                barrier.wait()  # both runs are open at once
                with tracer.span(f"child{i}") as child:
                    fake_module.hot(i)
                    barrier.wait()
                return run, child

        hooks = [Hook(fake_module.__name__, "hot", "fake.hot", "count", within=RUN_LABEL)]
        with tracer.patch(hooks), tracer.span("cli.sweep") as sweep:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(work, i) for i in range(2)]
                pairs = [f.result(timeout=10) for f in futures]
            fake_module.hot(0)  # outside any run: not counted
        for run, child in pairs:
            assert run.parent is sweep
            assert child.parent is run
        assert pairs[0][0] is not pairs[1][0]
        assert tracer.counts["fake.hot"] == 2
        # The two runs overlapped, so the sweep's self time is not
        # its duration minus both run durations.
        selfs = self_times(tracer.spans)
        runs = [run for run, _ in pairs]
        overlap = min(r.end for r in runs) - max(r.start for r in runs)
        assert overlap > 0
        expected = sweep.duration - union_length([(r.start, r.end) for r in runs])
        assert selfs[id(sweep)] == pytest.approx(expected)


class TestPercentile:
    def test_p90_needs_ten_samples_beyond(self):
        xs = list(range(1, 101))
        assert percentile(xs, 0.9) == 90
        with pytest.raises(ValueError, match="9 beyond"):
            percentile(xs[:99], 0.9)

    def test_p50_needs_twenty_samples(self):
        assert percentile(list(range(20, 0, -1)), 0.5) == 10
        with pytest.raises(ValueError):
            percentile(list(range(19)), 0.5)

    def test_rejects_q_outside_open_interval(self):
        with pytest.raises(ValueError):
            percentile(list(range(100)), 1.0)

    def test_spread_is_iqr_over_median(self):
        assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


class TestUnitTimes:
    def test_least_by_unit_skips_units_without_timings(self):
        assert least_by_unit({"a": [3.0, 1.0, 2.0], "b": [], ("c", 1): [5.0]}) == {
            "a": 1.0, ("c", 1): 5.0}

    def test_step_metrics_value_every_call_at_its_units_time(self):
        from j6bench.workloads import Phase, step_metrics

        phase = Phase("t")
        for i in range(90):  # 1, 2 or 3 ms per step: the unit's time is 1
            phase.add_steps(("fast",), (1 + i % 3) * 10 / 1e3, 10)
        for i in range(20):  # 5 or 6 ms per step: the unit's time is 5
            phase.add_steps(("slow",), (5 + i % 2) * 10 / 1e3, 10)
        m = step_metrics(phase)
        assert m["step_ms_p50"] == pytest.approx(1.0)
        # 110 calls: p90 is rank 99, inside the 20 slow calls, 11 beyond it.
        assert m["step_ms_p90"] == pytest.approx(5.0)
        assert m["steps_per_s"] == pytest.approx(1100 / (900 * 1e-3 + 200 * 5e-3))

    def test_command_seconds_sum_the_parts_and_average_the_classes(self):
        from j6bench.workloads import Phase, command_seconds

        phase = Phase("t")
        for cls, part, times in ((0, 0, [0.3, 0.1, 0.2]), (0, 1, [0.2, 0.3]), (1, 0, [0.5, 0.4])):
            for t in times:
                phase.add_command("gen_s", t, cls, part)
        phase.add_command("run_cmd_s", 9.0)
        assert command_seconds(phase, "gen_s") == pytest.approx(((0.1 + 0.2) + 0.4) / 2)
        assert command_seconds(phase, "run_cmd_s") == pytest.approx(9.0)


class TestPatch:
    def test_wraps_then_restores_even_on_error(self, fake_module):
        originals = (fake_module.work, fake_module.hot)
        seen = []
        hooks = [
            Hook(fake_module.__name__, "work", "fake.work",
                 on_call=lambda s, t, a, k, r: seen.append((a, r))),
            Hook(fake_module.__name__, "hot", "fake.hot", "count"),
            Hook(fake_module.__name__, "gone", "fake.gone"),
        ]
        tracer = Tracer()
        with pytest.raises(RuntimeError, match="boom"):
            with tracer.patch(hooks):
                assert fake_module.work is not originals[0]
                assert fake_module.work(1) == 2
                assert fake_module.hot(3) == 6
                raise RuntimeError("boom")
        assert (fake_module.work, fake_module.hot) == originals
        assert not hasattr(fake_module, "gone")
        assert tracer.absent == [f"{fake_module.__name__}.gone"]
        assert [s.label for s in tracer.spans] == ["fake.work"]
        assert tracer.counts["fake.hot"] == 1
        assert seen == [((1,), 2)]

    def test_program_hooks_restore_every_attribute(self):
        import importlib

        from j6bench.workloads import HOOKS

        before = {(h.module, h.attr): getattr(importlib.import_module(h.module), h.attr)
                  for h in HOOKS}
        tracer = Tracer()
        with pytest.raises(KeyboardInterrupt):
            with tracer.patch(HOOKS):
                changed = [key for key, fn in before.items()
                           if getattr(importlib.import_module(key[0]), key[1]) is not fn]
                assert len(changed) == len(HOOKS)
                raise KeyboardInterrupt
        for (module, attr), fn in before.items():
            assert getattr(importlib.import_module(module), attr) is fn
        assert tracer.absent == []
