"""Instance JSON round-trips, trace and sweep CSV text, and summary accounting."""

import csv
import dataclasses
import io
import json
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from j6opt import (
    Family,
    GeneratorSpec,
    InstanceFormatError,
    ObjectivePair,
    ProblemInstance,
    RunConfig,
    RunResult,
    StopReason,
    StrategyConfig,
    StrategyKind,
    WMode,
    generate,
    load_instance,
    run,
    save_instance,
    write_summary,
    write_trace,
)

import j6opt.serialize
from j6opt.cli import main
from j6opt.optimizer import TraceRecord
from j6opt.serialize import _json, selection_counts, trace_header, write_sweep
from trace_csv import read_trace


@pytest.fixture
def instance():
    return generate(GeneratorSpec(V=5, d=3, T=2, seed=42, w_mode=WMode.SINGLE_ROW))


@pytest.fixture
def result(instance):
    return run(instance, StrategyConfig(kind=StrategyKind.HARD_J6), RunConfig(max_steps=12))


class TestInstanceRoundTrip:
    def test_exact_round_trip(self, instance, tmp_path):
        path = tmp_path / "inst.json"
        save_instance(instance, path, seed=42, family="gaussian")
        loaded = load_instance(path)
        np.testing.assert_array_equal(loaded.H, instance.H)
        np.testing.assert_array_equal(loaded.W, instance.W)
        np.testing.assert_array_equal(loaded.y, instance.y)
        assert (loaded.V, loaded.d, loaded.T) == (instance.V, instance.d, instance.T)
        assert loaded.w_mode is instance.w_mode
        assert loaded.v_star == instance.v_star

    def test_rewrite_is_byte_identical(self, instance, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_instance(instance, a, seed=42, family="gaussian")
        save_instance(instance, b, seed=42, family="gaussian")
        assert a.read_bytes() == b.read_bytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        V=st.integers(1, 9),
        d=st.integers(1, 5),
        T=st.integers(1, 4),
        w_mode=st.sampled_from(list(WMode)),
        data=st.data(),
    )
    def test_save_load_save_is_byte_exact(self, V, d, T, w_mode, data):
        # any finite float64 survives, -0.0 and subnormals included
        values = st.floats(allow_nan=False, allow_infinity=False)
        H = np.array(data.draw(st.lists(values, min_size=T * d, max_size=T * d))).reshape(T, d)
        W = np.array(data.draw(st.lists(values, min_size=V * d, max_size=V * d))).reshape(V, d)
        y = data.draw(st.lists(st.integers(0, V - 1), min_size=T, max_size=T))
        v_star = data.draw(st.none() | st.integers(0, V - 1))
        instance = ProblemInstance(V=V, d=d, T=T, H=H, W=W, y=y, w_mode=w_mode, v_star=v_star)
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp) / "a.json", Path(tmp) / "b.json"
            save_instance(instance, a, seed=data.draw(st.none() | st.integers(0, 2**64 - 1)))
            loaded = load_instance(a)
            save_instance(loaded, b, seed=json.loads(a.read_text())["metadata"]["seed"])
            assert a.read_bytes() == b.read_bytes()
        np.testing.assert_array_equal(np.signbit(loaded.H), np.signbit(H))
        assert (loaded.v_star, loaded.w_mode) == (instance.v_star, instance.w_mode)

    def test_loaded_instance_runs_identically(self, instance, tmp_path):
        path = tmp_path / "inst.json"
        save_instance(instance, path)
        loaded = load_instance(path)
        cfg = StrategyConfig(kind=StrategyKind.SOFT, tau=0.3)
        rcfg = RunConfig(max_steps=15, init_scale=0.2, seed=3)
        t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        write_trace(run(instance, cfg, rcfg), t1, cfg.kind)
        write_trace(run(loaded, cfg, rcfg), t2, cfg.kind)
        assert t1.read_bytes() == t2.read_bytes()


class TestStreamedWrites:
    """Files go out in chunks, a matrix a block of rows at a time,
    through a temp file that a failed write removes."""

    def test_save_instance_peaks_below_half_the_file(self, tmp_path):
        # neither the document's text nor a nested list of a whole matrix
        # is ever formed (building them peaked at 3.25 times the file)
        instance = generate(GeneratorSpec(V=2000, d=64, T=16, seed=1))
        path = tmp_path / "inst.json"
        save_instance(instance, path, seed=1, family="gaussian")  # warm: imports, caches
        tracemalloc.start()
        try:
            save_instance(instance, path, seed=1, family="gaussian")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 2

    @pytest.mark.parametrize("writer", ["save_instance", "write_trace"])
    def test_a_write_failing_midway_leaves_the_target_as_it_was(self, writer, result,
                                                                tmp_path, monkeypatch):
        path, tmp = tmp_path / "out", tmp_path / "out.tmp"
        path.write_bytes(b"before")
        written = []
        if writer == "save_instance":
            # a row that fails after earlier rows reached the temp file
            real, calls = j6opt.serialize._json, []

            def failing(value, indent=""):
                calls.append(value)
                if len(calls) == 400:
                    written.append(tmp.stat().st_size)
                    raise OSError("disk full")
                return real(value, indent)

            monkeypatch.setattr(j6opt.serialize, "_json", failing)
            instance = generate(GeneratorSpec(V=1000, d=64, T=2, seed=1))
            with pytest.raises(OSError, match="disk full"):
                save_instance(instance, path)
            assert written[0] > 0
        else:
            # a record that cannot be written, after the ones before it
            result.trace[5].scores = None
            with pytest.raises(AttributeError):
                write_trace(result, path, StrategyKind.HARD_J6)
        assert path.read_bytes() == b"before" and not tmp.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


class TestInstanceValidation:
    def _doc(self, instance):
        return {
            "V": instance.V,
            "d": instance.d,
            "T": instance.T,
            "H": instance.H.tolist(),
            "W": instance.W.tolist(),
            "y": instance.y.tolist(),
            "w_mode": instance.w_mode.value,
            "v_star": instance.v_star,
            "metadata": {"seed": None, "family": None, "format_version": "1"},
        }

    def test_truncated_file_names_byte_offset(self, instance, tmp_path):
        path = tmp_path / "inst.json"
        save_instance(instance, path)
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        with pytest.raises(InstanceFormatError, match="byte offset"):
            load_instance(path)

    def test_unknown_top_level_key(self, instance, tmp_path):
        doc = self._doc(instance)
        doc["extra"] = 1
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match="unknown keys.*extra"):
            load_instance(path)

    def test_unknown_metadata_key(self, instance, tmp_path):
        doc = self._doc(instance)
        doc["metadata"]["note"] = "hi"
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match="metadata keys"):
            load_instance(path)

    def test_missing_key(self, instance, tmp_path):
        doc = self._doc(instance)
        del doc["y"]
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match="missing keys"):
            load_instance(path)

    @pytest.mark.parametrize("where", ["top level", "metadata"])
    def test_non_object_rejected(self, instance, tmp_path, where):
        doc = self._doc(instance)
        if where == "metadata":
            doc["metadata"] = list(doc["metadata"].items())
        else:
            doc = list(doc.items())
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match=f"inst.json: {where} must be a"):
            load_instance(path)

    @pytest.mark.parametrize("version", ["3", "0", 1, 2, None, ["1"]])
    def test_wrong_format_version(self, instance, tmp_path, version):
        doc = self._doc(instance)
        doc["metadata"]["format_version"] = version
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError,
                           match=rf"inst.json: unsupported format_version "
                                 rf"{re.escape(repr(version))} \(expected one of \['1', '2'\]\)$"):
            load_instance(path)

    def _doc2(self, instance, family_version=2, family="role-swap"):
        doc = self._doc(instance)
        doc["metadata"] = {"seed": None, "family": family, "family_version": family_version,
                           "format_version": "2"}
        return doc

    def test_format_2_loads(self, instance, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(self._doc2(instance)))
        loaded = load_instance(path)
        np.testing.assert_array_equal(loaded.W, instance.W)
        assert loaded.family_version == 2

    @pytest.mark.parametrize("family", [None, "gaussian"])
    def test_format_2_of_an_unversioned_family_rejected(self, instance, tmp_path, family):
        # gaussian draws the same under every version, and a file with no
        # family records no version: both are format "1"
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(self._doc2(instance, family=family)))
        with pytest.raises(InstanceFormatError,
                           match=rf"inst.json: format_version '2' needs a conflict family, "
                                 rf"got {family!r}$"):
            load_instance(path)

    # a bool, a float or a string; an unknown version; and version 1,
    # which is written as format "1"
    @pytest.mark.parametrize("family_version", [True, 2.0, "2", [2], None, 3, 0, -2, 1])
    def test_bad_metadata_family_version_rejected(self, instance, tmp_path, family_version):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(self._doc2(instance, family_version)))
        with pytest.raises(InstanceFormatError,
                           match=r"inst.json: metadata family_version must be 2 in "
                                 rf"format_version '2', got {re.escape(repr(family_version))}$"):
            load_instance(path)

    def test_format_2_without_family_version_rejected(self, instance, tmp_path):
        doc = self._doc2(instance)
        del doc["metadata"]["family_version"]
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError,
                           match=r"inst.json: format_version '2' needs metadata family_version$"):
            load_instance(path)

    def test_format_1_with_family_version_rejected(self, instance, tmp_path):
        doc = self._doc(instance)
        doc["metadata"]["family_version"] = 1
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError,
                           match=r"inst.json: unknown metadata keys \['family_version'\] in "
                                 r"format_version '1'$"):
            load_instance(path)

    def test_dimension_mismatch(self, instance, tmp_path):
        doc = self._doc(instance)
        doc["V"] = instance.V + 1
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="W must have shape"):
            load_instance(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("y", [1.7, 0]),
            ("y", [True, 0]),
            ("y", 1),
            ("V", 4.9),
            ("V", True),
            ("V", 5.0),
            ("d", "3"),
            ("T", False),
            ("v_star", 0.5),
        ],
    )
    def test_non_integer_rejected(self, instance, tmp_path, key, value):
        doc = self._doc(instance)
        doc[key] = value
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match=f"'{key}'"):
            load_instance(path)

    @pytest.mark.parametrize(
        "key, value", [("H", {"a": 1}), ("W", [["a", "b"]]), ("H", None), ("y", [2**70])]
    )
    def test_unreadable_values_rejected(self, instance, tmp_path, key, value):
        doc = self._doc(instance)
        doc[key] = value
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match="inst.json"):
            load_instance(path)

    @pytest.mark.parametrize("key, at, value", [("H", (0, 1), True), ("W", (3, 2), False), ("W", (0, 0), True)])
    def test_json_booleans_in_matrices_rejected(self, instance, tmp_path, key, at, value):
        # numpy would read true/false as 1.0/0.0
        doc = self._doc(instance)
        doc[key][at[0]][at[1]] = value
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match=f"inst.json: '{key}' entries must be numbers"):
            load_instance(path)

    @pytest.mark.parametrize("key, at, value", [("H", (0, 1), "  7.5 "), ("W", (3, 2), "1"),
                                                ("W", (1, 0), None), ("H", (1, 2), {"x": 1.0})])
    def test_non_numbers_in_matrices_rejected(self, instance, tmp_path, key, at, value):
        # numpy would parse the strings as floats
        doc = self._doc(instance)
        doc[key][at[0]][at[1]] = value
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError,
                           match=rf"inst.json: '{key}' entries must be numbers, got "
                                 rf".* at \[{at[0]}, {at[1]}\]$"):
            load_instance(path)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, 3.0, True, "3", [3]])
    def test_bad_metadata_seed_rejected(self, instance, tmp_path, seed):
        doc = self._doc(instance)
        doc["metadata"]["seed"] = seed
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match="metadata seed must be null or an integer"):
            load_instance(path)

    @pytest.mark.parametrize("family", ["bogus", "GAUSSIAN", 3, ["gaussian"], True])
    def test_bad_metadata_family_rejected(self, instance, tmp_path, family):
        doc = self._doc(instance)
        doc["metadata"]["family"] = family
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match="metadata family must be null or one of"):
            load_instance(path)

    def test_metadata_edges_load(self, instance, tmp_path):
        # a conflict family's file keeps the instance's version (1 when
        # unknown); the others record none
        path = tmp_path / "inst.json"
        for seed, family in [(0, None), (2**64 - 1, "role-swap"), (None, "gaussian"),
                             (7, "conflicting")]:
            for family_version in (None, 1, 2):
                save_instance(dataclasses.replace(instance, family_version=family_version),
                              path, seed=seed, family=family)
                loaded = load_instance(path)
                np.testing.assert_array_equal(loaded.H, instance.H)
                assert loaded.family_version == (
                    (family_version or 1) if family in ("role-swap", "conflicting") else None)

    @pytest.mark.parametrize("family_version", [0, 3])
    def test_unknown_family_version_not_saved(self, instance, tmp_path, family_version):
        path = tmp_path / "inst.json"
        unknown = dataclasses.replace(instance, family_version=family_version)
        with pytest.raises(ValueError, match=r"family_version must be one of \[1, 2\], "
                                             rf"got {family_version}$"):
            save_instance(unknown, path, family="role-swap")
        assert not path.exists()

    @pytest.mark.parametrize("family_version", [True, 2.0, "2"])
    def test_non_integer_family_version_rejected(self, instance, family_version):
        with pytest.raises(ValueError, match="'family_version' must be an integer"):
            dataclasses.replace(instance, family_version=family_version)

    @pytest.mark.parametrize("version", [None, 1, 2])
    @pytest.mark.parametrize("family", [f.value for f in Family])
    def test_gen_file_resaves_to_its_bytes(self, tmp_path, family, version):
        # a loaded gen file saved again with only seed and family, as a
        # round-trip check does, gives the same bytes: the loaded instance
        # carries the family version its file records
        path, copy = tmp_path / "g.json", tmp_path / "copy.json"
        assert main(["gen", "--V", "6", "--d", "3", "--T", "2", "--seed", "11",
                     "--family", family, "-o", str(path)]
                    + ([] if version is None else ["--family-version", str(version)])) == 0
        meta = json.loads(path.read_text())["metadata"]
        assert meta.get("family_version") == (
            None if family == "gaussian" or version == 1 else 2)
        save_instance(load_instance(path), copy, seed=meta["seed"], family=meta["family"])
        assert copy.read_bytes() == path.read_bytes()

    def test_exact_zeros_and_ones_in_matrices_load(self, instance, tmp_path):
        doc = self._doc(instance)
        doc["H"][0][:2], doc["W"][1][:2] = [0, 1.0], [1, -0.0]
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        loaded = load_instance(path)
        assert loaded.H[0][:2].tolist() == [0.0, 1.0] and loaded.W[1][:2].tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("edit, key", [
        (lambda doc: doc.replace('"V": ', '"V": 9, "V": ', 1), "V"),
        (lambda doc: doc.replace('"y": ', '"y": [0, 0], "y": ', 1), "y"),
        (lambda doc: doc.replace('"seed": ', '"seed": 1, "seed": ', 1), "seed"),
        (lambda doc: doc.replace('"family": ', '"family": null, "family": ', 1), "family"),
    ])
    def test_duplicate_keys_rejected(self, instance, tmp_path, edit, key):
        # json.loads would keep the last value, silently
        path = tmp_path / "inst.json"
        save_instance(instance, path, seed=4, family="gaussian")
        path.write_text(edit(path.read_text()))
        with pytest.raises(InstanceFormatError, match=f"inst.json: duplicate key '{key}'$"):
            load_instance(path)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("key", ["H", "W"])
    def test_non_standard_constants_rejected(self, instance, tmp_path, token, key):
        # rejected when parsed, not later as a non-finite matrix
        doc = self._doc(instance)
        doc[key][0][0] = float(token.replace("Infinity", "inf"))
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        assert token in path.read_text()
        with pytest.raises(InstanceFormatError,
                           match=f"inst.json: non-standard JSON constant '{token}'$"):
            load_instance(path)

    def test_unknown_w_mode(self, instance, tmp_path):
        doc = self._doc(instance)
        doc["w_mode"] = "diag"
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match="w_mode"):
            load_instance(path)


class TestTraceFile:
    def test_round_trip_matches_records(self, instance, result, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(result, path, StrategyKind.HARD_J6)
        fields, rows = read_trace(path)
        assert fields[:8] == ["step", "ob1", "ob2", "entropy", "n11", "n12", "n21", "n22"]
        assert fields[8:14] == [f"s{i}" for i in range(6)]
        assert fields[14:] == ["decision", "dh_norm", "dw_norm"]
        assert len(rows) == len(result.trace)
        for row, record in zip(rows, result.trace):
            assert row["step"] == record.step
            assert row["ob1"] == record.ob1  # repr round-trip is exact
            assert row["decision"] == record.chosen_index
            for i in range(6):
                assert row[f"s{i}"] == record.scores[i]

    def test_soft_layout_has_weight_columns(self, instance, tmp_path):
        cfg = StrategyConfig(kind=StrategyKind.SOFT)
        res = run(instance, cfg, RunConfig(max_steps=4))
        path = tmp_path / "trace.csv"
        write_trace(res, path, cfg.kind)
        fields, rows = read_trace(path)
        assert [f"a{i}" for i in range(6)] == fields[14:20]
        assert "decision" not in fields
        for row, record in zip(rows, res.trace):
            np.testing.assert_array_equal(
                [row[f"a{i}"] for i in range(6)], record.alpha
            )

    def test_jplus_layout_has_fifteen_scores(self, instance, tmp_path):
        cfg = StrategyConfig(kind=StrategyKind.HARD_JPLUS)
        res = run(instance, cfg, RunConfig(max_steps=4))
        path = tmp_path / "trace.csv"
        write_trace(res, path, cfg.kind)
        fields, rows = read_trace(path)
        assert [f"s{i}" for i in range(15)] == fields[8:23]
        assert all(1 <= row["decision"] <= 15 for row in rows)

    def test_baseline_uses_sentinel_decision(self, instance, tmp_path):
        cfg = StrategyConfig(kind=StrategyKind.STATIC)
        res = run(instance, cfg, RunConfig(max_steps=3))
        path = tmp_path / "trace.csv"
        write_trace(res, path, cfg.kind)
        _, rows = read_trace(path)
        assert all(row["decision"] == -1 for row in rows)

    def test_empty_trace_is_header_only(self, instance, tmp_path):
        res = run(instance, StrategyConfig(kind=StrategyKind.HARD_J6), RunConfig(max_steps=0))
        path = tmp_path / "trace.csv"
        write_trace(res, path, StrategyKind.HARD_J6)
        text = path.read_text()
        assert text.count("\n") == 1
        assert text.startswith("step,ob1,ob2,")

    def test_lf_line_endings(self, result, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(result, path, StrategyKind.HARD_J6)
        assert b"\r" not in path.read_bytes()

    def test_rewrite_is_byte_identical(self, result, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace(result, a, StrategyKind.HARD_J6)
        write_trace(result, b, StrategyKind.HARD_J6)
        assert a.read_bytes() == b.read_bytes()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(list(StrategyKind)), data=st.data())
    def test_text_is_csv_writers(self, kind, data):
        # each value's repr, joined, is what csv.writer writes for it,
        # for any float (nan, +-inf, -0.0 and the smallest subnormal too)
        values = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324]),
                           st.floats(allow_nan=True))
        n = 15 if kind is StrategyKind.HARD_JPLUS else 6
        records = []
        for step in range(data.draw(st.integers(0, 4))):
            scalars = data.draw(st.lists(values, min_size=8, max_size=8))
            records.append(TraceRecord(
                step, *scalars[:6], np.array(data.draw(st.lists(values, min_size=n, max_size=n))),
                data.draw(st.one_of(st.none(), st.integers(0, n))),
                np.array(data.draw(st.lists(values, min_size=6, max_size=6)))
                if kind is StrategyKind.SOFT else None,
                *scalars[6:]))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(trace_header(kind, n))
        for r in records:
            routed = ([repr(float(a)) for a in r.alpha] if kind is StrategyKind.SOFT
                      else [str(-1 if r.chosen_index is None else r.chosen_index)])
            writer.writerow([str(r.step)] + [repr(float(x)) for x in (
                r.ob1, r.ob2, -r.ob2, r.n11, r.n12, r.n21, r.n22, *r.scores)]
                + routed + [repr(float(r.dh_norm)), repr(float(r.dw_norm))])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.csv"
            write_trace(RunResult(None, None, records, StopReason.MAX_STEPS), path, kind)
            assert path.read_bytes() == buf.getvalue().encode()


class TestSummary:
    def test_selection_counts_sum_to_trace_length(self, instance):
        for kind in (StrategyKind.HARD_J6, StrategyKind.HARD_JPLUS, StrategyKind.SOFT):
            res = run(instance, StrategyConfig(kind=kind), RunConfig(max_steps=9))
            counts = selection_counts(res)
            assert sum(counts.values()) == len(res.trace)

    def test_baselines_have_empty_histogram(self, instance):
        res = run(instance, StrategyConfig(kind=StrategyKind.STATIC), RunConfig(max_steps=5))
        assert selection_counts(res) == {}

    def test_summary_document(self, instance, result, tmp_path):
        path = tmp_path / "summary.json"
        write_summary([("hard-j6", result)], path)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == "1"
        (entry,) = doc["runs"]
        assert entry["name"] == "hard-j6"
        assert entry["final_ob1"] == result.objectives.ob1
        assert entry["final_ob2"] == result.objectives.ob2
        assert entry["steps"] == len(result.trace)
        assert entry["stop_reason"] == "max_steps"
        assert sum(entry["selection_counts"].values()) == len(result.trace)


# Floats whose repr takes each of its forms: signed zero, the least
# subnormal, exponent forms on both sides, and integral values.
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-05, 0.0001, 1e16, 1e22, -1e22, 1.0, -3.0,
                  123456789.0, 1.7976931348623157e308, 0.1, 2.5]
# RunConfig knobs that stop a run for each reason (checked below)
STOP_KNOBS = {StopReason.MAX_STEPS: {}, StopReason.GRAD_TOL: {"grad_tol": 1e9},
              StopReason.LOSS_TOL: {"loss_tol": 1e9}}
JSON_SCALARS = (st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats()
                | st.sampled_from(SPECIAL_FLOATS) | st.text(max_size=5))


class TestSweepFile:
    @pytest.mark.parametrize("kind", [StrategyKind.SOFT, StrategyKind.HARD_J6])
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_text_is_csv_writers(self, kind, data):
        # one join per row is what csv.writer writes for the sweep's rows:
        # any float value and final, runs of 0 steps or more
        values = st.one_of(st.sampled_from([1e-05, -0.0, 0.0, math.nan, math.inf, 5e-324]),
                           st.floats(allow_nan=True))
        param = data.draw(st.sampled_from(["tau", "gamma", "eta-h", "eta-w", "beta-aux"]))
        swept = []
        for _ in range(data.draw(st.integers(0, 4))):
            trace = [TraceRecord(step, 1.0, -1.0, 1.0, 1.0, 1.0, 1.0, np.zeros(6), None,
                                 np.array(data.draw(st.lists(values, min_size=6, max_size=6))),
                                 0.0, 0.0)
                     for step in range(data.draw(st.integers(0, 3)))]
            swept.append((data.draw(values), RunResult(
                None, ObjectivePair(data.draw(values), data.draw(values)), trace,
                data.draw(st.sampled_from(list(StopReason))))))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["param", "value", "final_ob1", "final_ob2", "stop_reason", "steps",
                         "alpha_max"])
        for value, result in swept:
            alpha_max = ""
            if kind is StrategyKind.SOFT and result.trace:
                alpha_max = repr(float(result.trace[0].alpha.max()))
            writer.writerow([param, repr(value), repr(result.objectives.ob1),
                             repr(result.objectives.ob2), result.stop_reason.value,
                             len(result.trace), alpha_max])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sweep.csv"
            write_sweep(param, swept, path, kind)
            assert path.read_bytes() == buf.getvalue().encode()


class TestJsonText:
    """Instance and summary files are exactly json.dumps(doc, indent=2)."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=4)
                        | st.dictionaries(st.text(max_size=4), inner, max_size=4)
                        | st.lists(st.integers() | st.floats(), min_size=1, max_size=6)))
    def test_any_document(self, doc):
        # nan and +-inf included: json spells them NaN and Infinity
        assert _json(doc) == json.dumps(doc, indent=2)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        V=st.integers(1, 6),
        d=st.integers(1, 4),
        T=st.integers(1, 3),
        w_mode=st.sampled_from(list(WMode)),
        seed=st.sampled_from([None, 0, 2**64 - 1]) | st.integers(0, 2**64 - 1),
        family=st.sampled_from([None] + [f.value for f in Family]),
        family_version=st.sampled_from([None, 1, 2]),
        data=st.data(),
    )
    def test_instance_file(self, V, d, T, w_mode, seed, family, family_version, data):
        values = st.sampled_from(SPECIAL_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
        H = data.draw(st.lists(values, min_size=T * d, max_size=T * d))
        W = data.draw(st.lists(values, min_size=V * d, max_size=V * d))
        y = data.draw(st.lists(st.integers(0, V - 1), min_size=T, max_size=T))
        v_star = data.draw(st.none() | st.integers(0, V - 1))
        instance = ProblemInstance(V=V, d=d, T=T, H=np.reshape(H, (T, d)),
                                   W=np.reshape(W, (V, d)), y=y, w_mode=w_mode, v_star=v_star,
                                   family_version=family_version)
        doc = {
            "V": V, "d": d, "T": T,
            "H": instance.H.tolist(), "W": instance.W.tolist(), "y": instance.y.tolist(),
            "w_mode": w_mode.value, "v_star": instance.v_star,
            # format "2" records a conflict family's version 2; format "1" no version
            "metadata": {"seed": seed, "family": family, "family_version": 2,
                         "format_version": "2"}
            if family in ("role-swap", "conflicting") and family_version == 2 else
            {"seed": seed, "family": family, "format_version": "1"},
        }
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "inst.json"
            save_instance(instance, path, seed=seed, family=family)
            assert path.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(runs=st.lists(st.tuples(
        st.text(max_size=6),
        st.sampled_from([StrategyKind.STATIC, StrategyKind.HARD_J6, StrategyKind.HARD_JPLUS,
                         StrategyKind.SOFT]),
        st.sampled_from(list(StopReason)),
        st.integers(0, 4),
    ), max_size=3))
    def test_summary_file(self, runs):
        instance = generate(GeneratorSpec(V=5, d=3, T=2, seed=42, w_mode=WMode.SINGLE_ROW))
        named = [(name, run(instance, StrategyConfig(kind=kind),
                            RunConfig(max_steps=steps, **STOP_KNOBS[stop])))
                 for name, kind, stop, steps in runs]
        doc = {"format_version": "1", "runs": [
            {"name": name, "final_ob1": r.objectives.ob1, "final_ob2": r.objectives.ob2,
             "stop_reason": r.stop_reason.value, "steps": len(r.trace),
             "selection_counts": selection_counts(r)}
            for name, r in named]}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "summary.json"
            write_summary(named, path)
            assert path.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode()

    def test_summary_covers_every_stop_reason_and_histogram(self, instance):
        cfg = StrategyConfig(kind=StrategyKind.HARD_J6)
        for stop, knobs in STOP_KNOBS.items():
            assert run(instance, cfg, RunConfig(max_steps=4, **knobs)).stop_reason is stop
        assert selection_counts(run(instance, StrategyConfig(kind=StrategyKind.STATIC),
                                    RunConfig(max_steps=2))) == {}

    def test_files_never_reach_the_pure_python_encoder(self, instance, result, tmp_path,
                                                       monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("json's pure-Python encoder was called")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        with pytest.raises(AssertionError, match="pure-Python"):
            json.dumps({"x": [1.0]}, indent=2)  # the guard is live
        save_instance(instance, tmp_path / "inst.json", seed=2**64 - 1, family="gaussian")
        write_summary([("hard-j6", result), ("static", run(
            instance, StrategyConfig(kind=StrategyKind.STATIC), RunConfig(max_steps=2)))],
            tmp_path / "summary.json")
        monkeypatch.undo()
        assert load_instance(tmp_path / "inst.json").H.tolist() == instance.H.tolist()
        assert len(json.loads((tmp_path / "summary.json").read_text())["runs"]) == 2
