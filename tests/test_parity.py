"""Smoke tests of tools/parity.py, the byte-parity digests of the run grid,
of tools/ab.py, the in-process A/B timing of two source trees, and of
tools/loc.py, the package's size counts; and the gate that the grid's
runs still give the digests recorded in golden_runs.json."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import j6opt
from j6opt import run

_PATH = Path(__file__).resolve().parents[1] / "tools" / "parity.py"
_spec = importlib.util.spec_from_file_location("parity", _PATH)
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


GOLDEN_RUNS = Path(__file__).resolve().parent / "golden_runs.json"


@pytest.mark.parametrize("alone", [False, True], ids=["batched", "alone"])
def test_the_grid_gives_the_golden_digests(alone, capsys):
    # every output of the 432 grid runs, batched as compare runs them and
    # each run alone, is byte for byte what golden_runs.json records
    # (recorded with BLAS at one thread).  A change that alters outputs on
    # purpose re-records the file with parity.py --out and names the runs
    # that changed, and why.
    argv = ["--against", str(GOLDEN_RUNS)] + ["--alone"] * alone
    assert parity.main(argv) == 0, capsys.readouterr().out
    assert capsys.readouterr().out.splitlines()[-1] == f"432 of 432 runs match {GOLDEN_RUNS}"


def test_equal_runs_match_and_a_changed_digest_fails(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert parity.main(["--first", "2", "--out", str(a)]) == 0
    assert parity.main(["--first", "2", "--out", str(b), "--against", str(a)]) == 0
    digests = json.loads(a.read_text())
    assert len(digests) == 2 and a.read_bytes() == b.read_bytes()
    assert list(digests) == ["6x4x1/full_matrix/seed0/auto-raw/hard-j6",
                             "6x4x1/full_matrix/seed0/auto-raw/hard-jplus"]
    name = next(iter(digests))
    digests[name] = "0" * 64
    a.write_text(json.dumps(digests))
    capsys.readouterr()
    assert parity.main(["--first", "2", "--against", str(a)]) == 1
    assert f"differs: {name}" in capsys.readouterr().out.splitlines()



def test_alone_runs_each_configuration_on_its_own(tmp_path, capsys, monkeypatch):
    # --alone calls run once per configuration and never run_many; its
    # digests match the batched ones
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert parity.main(["--first", "3", "--out", str(a)]) == 0
    calls = []
    monkeypatch.setattr(parity, "run_many", None)
    monkeypatch.setattr(parity, "run", lambda *args: calls.append(args[1].kind) or run(*args))
    capsys.readouterr()
    assert parity.main(["--first", "3", "--alone", "--out", str(b), "--against", str(a)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"3 of 3 runs match {a}"
    assert [kind.value for kind in calls] == ["hard-j6", "hard-jplus", "soft"]
    assert a.read_bytes() == b.read_bytes()


def test_decisions_mode_names_changed_decisions_and_the_score_gap(tmp_path, capsys):
    a = tmp_path / "a.json"
    assert parity.main(["--first", "4", "--decisions", "--out", str(a)]) == 0
    runs = json.loads(a.read_text())
    assert [name.rsplit("/", 1)[1] for name in runs] == ["hard-j6", "hard-jplus", "soft", "static"]
    hard_j6, hard_jplus, soft, static = runs.values()
    for run in runs.values():
        assert len(run["decisions"]) == len(run["scores"]) == parity.STEPS
    assert {len(row) for row in hard_jplus["scores"]} == {15}
    assert all(0 <= k < 6 for k in hard_j6["decisions"] + soft["decisions"])
    assert all(1 <= k <= 15 for k in hard_jplus["decisions"])
    assert static["decisions"] == [None] * parity.STEPS
    capsys.readouterr()
    assert parity.main(["--first", "4", "--decisions", "--against", str(a)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "largest normwise score gap: 0"
    # a nudged score shows as a gap, a changed decision as a differing run
    name = next(iter(runs))
    row = runs[name]["scores"][0]
    row[0] += 1e-3 * float(np.linalg.norm(runs[name]["scores"]))
    runs[name]["decisions"][-1] += 1
    a.write_text(json.dumps(runs))
    assert parity.main(["--first", "4", "--decisions", "--against", str(a)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert f"differs: {name}" in out and "3 of 4 runs match" in out[-2]
    gap = float(out[-1].split()[4])
    assert out[-1].endswith(f"({name})") and 0.9e-3 < gap < 1.1e-3


_AB = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
_ab_spec = importlib.util.spec_from_file_location("ab", _AB)
ab = importlib.util.module_from_spec(_ab_spec)
_ab_spec.loader.exec_module(ab)


def test_ab_times_one_tree_against_itself(capsys):
    # the repository's tree as both A and B, 2 rounds of the steps-large units
    root = _AB.parents[1]
    assert ab.main([str(root), str(root), "--rounds", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith("steps-large seed 1, least of 2 rounds")
    assert out[1].split() == ["unit", "A", "ms/step", "B", "ms/step", "B/A", "A", "faults",
                              "B", "faults"]
    rows = [line.split() for line in out[2:]]
    assert [row[0] for row in rows[:-1]] == [
        f"1000x64x16/full_matrix/{s}"
        for s in ("hard-j6", "hard-jplus", "soft", "static", "scalarized", "grad-surgery")
    ] + ["1000x64x16/single_row/hard-jplus"]
    assert rows[-1][:3] == ["median", "over", "units"]
    for row in rows:
        a, b, ratio, fa, fb = map(float, row[-5:])
        assert a > 0 and b > 0 and ratio == pytest.approx(b / a, abs=2e-3) and fa >= 0 and fb >= 0


def test_ab_batch_times_each_shape_as_one_run_many_call(capsys):
    # one unit per steps-small shape, its six strategies in one run_many call
    root = _AB.parents[1]
    assert ab.main([str(root), str(root), "--workload", "steps-small", "--batch",
                    "--rounds", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith("steps-small --batch seed 1, least of 1 rounds")
    rows = [line.split() for line in out[2:]]
    assert [row[0] for row in rows[:-1]] == [
        "6x4x1/full_matrix/batch", "6x4x1/single_row/batch", "64x16x8/full_matrix/batch",
        "64x16x8/single_row/batch"]
    for row in rows:
        a, b, ratio = map(float, row[-5:-2])
        assert a > 0 and b > 0 and ratio == pytest.approx(b / a, abs=2e-3)


_LOC = Path(__file__).resolve().parents[1] / "tools" / "loc.py"
_loc_spec = importlib.util.spec_from_file_location("loc", _LOC)
loc = importlib.util.module_from_spec(_loc_spec)
_loc_spec.loader.exec_module(loc)


def test_loc_counts_lines_code_docstrings_and_names(tmp_path, capsys):
    (tmp_path / "__init__.py").write_text(
        '"""A package\nof two names."""\n\n# a comment\n__all__ = ["a",\n           "b"]\n'
        "a = b = 1\n\n\ndef f():\n    '''One line.'''\n    return (1 +  # sum\n            2)\n")
    (tmp_path / "other.py").write_text("x = '''not a\ndocstring'''\n")
    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "src lines: 15", "code lines: 8", "docstring lines: 3", "public names: 2"]
    assert loc.main([]) == 0
    counts = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert int(counts["code lines"]) + int(counts["docstring lines"]) < int(counts["src lines"])
    assert counts["public names"] == str(len(j6opt.__all__))
