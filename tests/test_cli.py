"""End-to-end CLI behavior: flags, outputs, exit codes, determinism."""

import json
import re

import pytest

from j6opt import read_trace
from j6opt.cli import main


@pytest.fixture
def inst(tmp_path):
    path = tmp_path / "inst.json"
    assert main(["gen", "--V", "6", "--d", "4", "--T", "1", "--seed", "7", "-o", str(path)]) == 0
    return path


@pytest.fixture
def inst_single(tmp_path):
    path = tmp_path / "single.json"
    code = main(
        ["gen", "--V", "6", "--d", "4", "--T", "2", "--seed", "9",
         "--w-mode", "single_row", "-o", str(path)]
    )
    assert code == 0
    return path


class TestGen:
    def test_writes_file_and_is_repeatable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen", "--V", "6", "--d", "4", "--seed", "3", "--family", "role-swap"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_prints_conflict_certificates(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        main(["gen", "--V", "6", "--d", "4", "--seed", "1", "--family", "conflicting",
              "-o", str(out)])
        text = capsys.readouterr().out
        match = re.search(r"conflict certificate.*= (-?[\d.e-]+)", text)
        assert match and float(match.group(1)) < 0

        out2 = tmp_path / "r.json"
        main(["gen", "--V", "6", "--d", "4", "--seed", "1", "--family", "role-swap",
              "-o", str(out2)])
        text = capsys.readouterr().out
        match = re.search(r"role-swap certificate.*= ([\d.e-]+)", text)
        assert match and float(match.group(1)) < 0.05

    def test_invalid_vocab_size_exits_2(self, tmp_path, capsys):
        assert main(["gen", "--V", "1", "--d", "2", "-o", str(tmp_path / "x.json")]) == 2
        assert "V must be at least 2" in capsys.readouterr().err

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        explicit, fallback = tmp_path / "e.json", tmp_path / "f.json"
        main(["gen", "--V", "5", "--d", "3", "--seed", "21", "-o", str(explicit)])
        monkeypatch.setenv("J6_SEED", "21")
        main(["gen", "--V", "5", "--d", "3", "-o", str(fallback)])
        assert explicit.read_bytes() == fallback.read_bytes()


class TestRun:
    def test_trace_has_requested_rows(self, inst, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        code = main(["run", "-i", str(inst), "--strategy", "soft", "--tau", "1.0",
                     "--gamma", "2", "--steps", "17", "--trace", str(trace)])
        assert code == 0
        _, rows = read_trace(trace)
        assert len(rows) == 17
        assert "stop_reason=max_steps" in capsys.readouterr().out

    def test_hard_j6_decision_column_in_range(self, inst_single, tmp_path):
        trace = tmp_path / "t.csv"
        main(["run", "-i", str(inst_single), "--strategy", "hard-j6", "--steps", "10",
              "--trace", str(trace)])
        _, rows = read_trace(trace)
        assert all(0 <= row["decision"] <= 5 for row in rows)

    def test_direct_alignment_on_full_matrix_exits_2(self, inst, capsys):
        code = main(["run", "-i", str(inst), "--strategy", "hard-j6", "--align", "direct",
                     "--steps", "5"])
        assert code == 2
        err = capsys.readouterr().err
        assert "direct" in err and "full_matrix" in err

    def test_missing_instance_exits_2(self, tmp_path):
        assert main(["run", "-i", str(tmp_path / "nope.json"), "--strategy", "soft"]) == 2

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_numeric_blowup_exits_3(self, inst, capsys):
        code = main(["run", "-i", str(inst), "--strategy", "scalarized",
                     "--eta-h", "1e12", "--eta-w", "1e12", "--steps", "200"])
        assert code == 3
        assert "step" in capsys.readouterr().err

    def test_unknown_strategy_exits_2(self, inst):
        assert main(["run", "-i", str(inst), "--strategy", "magic"]) == 2


class TestGradcheck:
    def test_default_battery_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["J11", "J12", "J21", "J22"]
        for line in lines:
            assert "max relative error" in line and line.endswith("[ok]")

    def test_corrupted_gradient_fails(self, capsys):
        assert main(["gradcheck", "--corrupt", "0.5"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "worst" in out
        # only J11 is corrupted, so only J11 fails
        assert out.startswith("J11: ") and out.count("[FAIL]") == 1

    def test_single_instance_mode(self, inst):
        assert main(["gradcheck", "-i", str(inst)]) == 0

    def test_reported_error_shrinks_with_eps(self, inst, capsys):
        def worst(eps):
            assert main(["gradcheck", "-i", str(inst), "--eps", eps]) == 0
            values = re.findall(r"max relative error ([\d.e+-]+)", capsys.readouterr().out)
            return max(float(v) for v in values)

        assert worst("1e-5") < worst("1e-3")


class TestCompare:
    def test_all_strategies_summary(self, inst, tmp_path):
        out = tmp_path / "summary.json"
        code = main(["compare", "-i", str(inst), "-o", str(out), "--steps", "8",
                     "--seed", "1"])
        assert code == 0
        doc = json.loads(out.read_text())
        names = [entry["name"] for entry in doc["runs"]]
        assert names == ["hard-j6", "hard-jplus", "soft", "static", "scalarized",
                         "grad-surgery"]

    def test_single_strategy_degenerates_to_run(self, inst, tmp_path):
        out = tmp_path / "summary.json"
        assert main(["compare", "-i", str(inst), "--strategies", "soft", "-o", str(out),
                     "--steps", "5"]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["runs"]) == 1

    def test_unknown_strategy_exits_2(self, inst, tmp_path, capsys):
        code = main(["compare", "-i", str(inst), "--strategies", "soft,nope",
                     "-o", str(tmp_path / "s.json")])
        assert code == 2
        assert "nope" in capsys.readouterr().err

    def test_identical_seeds_identical_bytes(self, inst, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["compare", "-i", str(inst), "--steps", "10", "--seed", "4",
                "--init-scale", "0.1"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_parallel_matches_serial(self, inst, tmp_path):
        serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
        args = ["compare", "-i", str(inst), "--steps", "15", "--seed", "6"]
        assert main(args + ["-o", str(serial), "--jobs", "1"]) == 0
        assert main(args + ["-o", str(parallel), "--jobs", "3"]) == 0
        assert serial.read_bytes() == parallel.read_bytes()


class TestSweep:
    def test_row_per_value(self, inst, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "-i", str(inst), "--param", "tau",
                     "--values", "0.01,0.1,1,10", "--steps", "5", "-o", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5  # header + 4 rows
        assert lines[0].startswith("param,value,final_ob1")

    def test_small_tau_sharpens_first_step_weights(self, inst, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", "-i", str(inst), "--param", "tau", "--values", "0.01,10",
              "--steps", "5", "-o", str(out)])
        rows = out.read_text().splitlines()[1:]
        alpha_sharp = float(rows[0].split(",")[-1])
        alpha_flat = float(rows[1].split(",")[-1])
        assert alpha_sharp >= alpha_flat

    def test_empty_values_exit_2(self, inst, tmp_path):
        assert main(["sweep", "-i", str(inst), "--param", "tau", "--values", ",",
                     "-o", str(tmp_path / "s.csv")]) == 2

    def test_non_numeric_values_exit_2(self, inst, tmp_path, capsys):
        assert main(["sweep", "-i", str(inst), "--param", "tau", "--values", "a,b",
                     "-o", str(tmp_path / "s.csv")]) == 2
        assert "numeric" in capsys.readouterr().err

    def test_parallel_matches_serial(self, inst, tmp_path):
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        base = ["sweep", "-i", str(inst), "--param", "eta-h",
                "--values", "0.001,0.01,0.05,0.1", "--steps", "20", "--seed", "2"]
        assert main(base + ["-o", str(serial), "--jobs", "1"]) == 0
        assert main(base + ["-o", str(parallel), "--jobs", "4"]) == 0
        assert serial.read_bytes() == parallel.read_bytes()


class TestUsage:
    def test_help_available_everywhere(self):
        assert main(["--help"]) == 0
        for command in ("gen", "run", "gradcheck", "compare", "sweep"):
            assert main([command, "--help"]) == 0

    def test_no_command_exits_2(self):
        assert main([]) == 2
