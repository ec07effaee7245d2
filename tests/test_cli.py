"""End-to-end CLI behavior: flags, outputs, exit codes, determinism."""

import argparse
import contextlib
import dataclasses
import io
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import j6opt.cli as cli
import j6opt.optimizer
import j6opt.probgen as probgen
from j6opt import (
    AlignKind,
    AlignmentMode,
    AlignScale,
    Family,
    GeneratorSpec,
    PreNorm,
    RunConfig,
    StrategyConfig,
    StrategyKind,
    WMode,
    conflict_certificate,
    load_instance,
    roleswap_certificate,
    save_instance,
)
from j6opt.cli import main
from trace_csv import read_trace


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


def _overflowing_instance(path):
    """A valid instance with finite losses whose h gradient overflows."""
    path.write_text(json.dumps({
        "V": 2, "d": 1, "T": 1, "H": [[1e-300]], "W": [[1e308], [-1e308]], "y": [1],
        "w_mode": "full_matrix", "v_star": None,
        "metadata": {"seed": None, "family": None, "format_version": "1"},
    }))
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

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("family, certificate", [
        ("conflicting", conflict_certificate), ("role-swap", roleswap_certificate)])
    def test_printed_certificate_is_the_public_one(self, tmp_path, capsys, family, certificate,
                                                   version):
        # gen prints the screen's value of the winner, not a second computation
        path = tmp_path / "g.json"
        for seed in range(8):
            assert main(["gen", "--V", "7", "--d", "3", "--T", "2", "--seed", str(seed),
                         "--family", family, "--family-version", str(version),
                         "-o", str(path)]) == 0
            printed = capsys.readouterr().out.splitlines()[1].rpartition(" = ")[2]
            assert printed == repr(certificate(load_instance(path)))

    def test_certificates_run_only_for_the_drawn_blocks(self, tmp_path, monkeypatch):
        sizes, real = [], probgen._certificates
        monkeypatch.setattr(probgen, "_certificates",
                            lambda *args: sizes.append(len(args[3])) or real(*args))
        # seed 2 draws four blocks of version 1's role-swap, and nothing more
        assert main(["gen", "--V", "6", "--d", "2", "--T", "2", "--seed", "2",
                     "--family", "role-swap", "--family-version", "1",
                     "-o", str(tmp_path / "g.json")]) == 0
        assert sizes == [1, 2, 4, 8]

    # gaussian draws the same under every version, so its file records none
    @pytest.mark.parametrize("family, version, fmt", [
        ("role-swap", 1, "1"), ("role-swap", 2, "2"), ("conflicting", 2, "2"),
        ("gaussian", 1, "1"), ("gaussian", 2, "1")])
    def test_family_version_is_recorded(self, tmp_path, family, version, fmt):
        path = tmp_path / "g.json"
        assert main(["gen", "--V", "5", "--d", "3", "--family", family,
                     "--family-version", str(version), "-o", str(path)]) == 0
        meta = json.loads(path.read_text())["metadata"]
        assert meta["format_version"] == fmt
        assert meta.get("family_version") == (None if fmt == "1" else version)

    def test_unknown_family_version_exits_2(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert main(["gen", "--V", "5", "--d", "3", "--family-version", "3", "-o", str(out)]) == 2
        assert capsys.readouterr().err == "error: family_version must be one of [1, 2], got 3\n"
        assert not out.exists()

    def test_invalid_vocab_size_exits_2(self, tmp_path, capsys):
        assert main(["gen", "--V", "1", "--d", "2", "-o", str(tmp_path / "x.json")]) == 2
        assert "V must be at least 2" in capsys.readouterr().err

    def test_exhausted_draws_exit_2(self, tmp_path, capsys, monkeypatch):
        # a config error, not a traceback (exit 1)
        monkeypatch.setattr(probgen, "_MAX_DRAWS", 5)
        out = tmp_path / "g.json"
        assert main(["gen", "--V", "20", "--d", "4", "--T", "2", "--family", "conflicting",
                     "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no conflicting instance found in 5 draws for "
                              "GeneratorSpec(V=20, d=4, T=2, seed=0")
        assert re.search(r"\); best certificate 0\.\d+ \(accepted below 0\.0\)\n$", err)
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("flags, reason", [
        (["--V", "2", "--d", "1", "--family", "conflicting"], "conflicting needs V >= 3"),
        (["--V", "6", "--d", "4", "--family", "role-swap", "--w-mode", "broadcast"],
         "role-swap cannot hold on broadcast"),
    ])
    def test_infeasible_spec_exits_2_before_drawing(self, tmp_path, capsys, monkeypatch, flags,
                                                    reason):
        monkeypatch.setattr(cli, "generate", lambda spec, **kw: pytest.fail(f"drew for {spec}"))
        assert main(["gen", *flags, "-o", str(tmp_path / "g.json")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {reason}")

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

    def test_string_matrix_entry_exits_2(self, inst, capsys):
        doc = json.loads(inst.read_text())
        doc["W"][2][1] = "0.5"
        inst.write_text(json.dumps(doc))
        assert main(["run", "-i", str(inst), "--strategy", "soft", "--steps", "3"]) == 2
        assert capsys.readouterr().err.endswith(
            "'W' entries must be numbers, got '0.5' at [2, 1]\n")

    @pytest.mark.parametrize("edit, named", [
        (lambda text: text.replace('"V": ', '"V": 9, "V": ', 1), "duplicate key 'V'"),
        (lambda text: text.replace('"seed": ', '"seed": 1, "seed": ', 1), "duplicate key 'seed'"),
        (lambda text: text.replace("[", "[NaN, ", 1), "'NaN'"),
    ])
    def test_duplicate_key_or_nan_token_exits_2(self, inst, capsys, edit, named):
        inst.write_text(edit(inst.read_text()))
        assert main(["run", "-i", str(inst), "--strategy", "soft", "--steps", "3"]) == 2
        err = capsys.readouterr().err
        assert str(inst) in err and named in err

    def test_missing_instance_exits_2(self, tmp_path):
        assert main(["run", "-i", str(tmp_path / "nope.json"), "--strategy", "soft"]) == 2

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_numeric_blowup_exits_3(self, inst, capsys):
        code = main(["run", "-i", str(inst), "--strategy", "scalarized",
                     "--eta-h", "1e12", "--eta-w", "1e12", "--steps", "200"])
        assert code == 3
        assert "step" in capsys.readouterr().err

    def test_diverging_update_exits_3(self, tmp_path, capsys, diverging_run):
        # the losses stay finite while the updates grow the perturbations
        instance, cfg = diverging_run
        path = tmp_path / "x.json"
        save_instance(instance, path)
        code = main(["run", "-i", str(path), "--strategy", "scalarized", "--lam", "1", "0",
                     "--eta-h", repr(cfg.eta_h), "--eta-w", repr(cfg.eta_w), "--steps", "30"])
        assert code == 3
        # the Grams of step 8 overflow before its update is formed
        assert "at step 8: gradient blocks must be finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_update_exits_3(self, tmp_path, capsys):
        # finite losses and Grams (J11 = 8); the update -1e308 J11 overflows
        path = tmp_path / "steep.json"
        path.write_text(json.dumps({
            "V": 2, "d": 1, "T": 1, "H": [[1.0]], "W": [[4.0], [-4.0]], "y": [1],
            "w_mode": "full_matrix", "v_star": None,
            "metadata": {"seed": None, "family": None, "format_version": "1"},
        }))
        assert main(["run", "-i", str(path), "--strategy", "static", "--eta-h", "1e308"]) == 3
        assert "update at step 0 left the finite range" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_blocks_exit_3(self, tmp_path, capsys):
        path = _overflowing_instance(tmp_path / "overflow.json")
        assert main(["run", "-i", str(path), "--strategy", "hard-j6", "--steps", "3"]) == 3
        assert "at step 0: gradient blocks must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("gamma", ["2", "500"])
    def test_saturated_soft_weights_stay_finite(self, tmp_path, capsys, gamma):
        # saturated: the losses are 0 to rounding, so the run stops after one step;
        # at gamma 500 every normalized softmax weight underflows to 0 under the
        # contrast step, and NaN weights would abort the first update (exit 3)
        path = tmp_path / "sat.json"
        path.write_text(json.dumps({
            "V": 2, "d": 1, "T": 1, "H": [[1.0]], "W": [[1000.0], [-1000.0]], "y": [0],
            "w_mode": "full_matrix", "v_star": None,
            "metadata": {"seed": None, "family": None, "format_version": "1"},
        }))
        assert main(["run", "-i", str(path), "--strategy", "soft", "--gamma", gamma]) == 0
        assert "stop_reason=grad_tol steps=1" in capsys.readouterr().out

    def test_auto_alignment_resolves_per_instance(self, inst, inst_single, tmp_path):
        for path, kind in ((inst, "pushforward"), (inst_single, "direct")):
            traces = []
            for align in ("auto", kind):
                trace = tmp_path / f"{align}.csv"
                assert main(["run", "-i", str(path), "--strategy", "hard-jplus", "--steps", "5",
                             "--align", align, "--scale", "cosine", "--trace", str(trace)]) == 0
                traces.append(trace.read_bytes())
            assert traces[0] == traces[1]

    def test_unknown_strategy_exits_2(self, inst):
        assert main(["run", "-i", str(inst), "--strategy", "magic"]) == 2

    @pytest.mark.parametrize(
        "flags, field",
        [(["--tau", "nan"], "tau"), (["--gamma", "inf"], "gamma"), (["--eta-w=-inf"], "eta_w"),
         (["--grad-tol", "nan"], "grad_tol"), (["--loss-tol", "nan"], "loss_tol"),
         (["--init-scale", "inf"], "init_scale"), (["--lam", "nan", "nan"], "lam[0]")],
    )
    def test_non_finite_config_floats_exit_2(self, inst, capsys, flags, field):
        # a config error, reported before any step is taken
        assert main(["run", "-i", str(inst), "--strategy", "soft"] + flags) == 2
        assert f"'{field}' must be a finite real number" in capsys.readouterr().err

    def test_non_finite_sweep_value_exits_2(self, inst, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "-i", str(inst), "--param", "tau", "--values", "1,nan", "-o", str(out)]) == 2
        assert "'tau' must be a finite real number" in capsys.readouterr().err


def _corrupt_j11(monkeypatch, delta):
    """Make gradcheck's analytic J11 wrong by ``delta`` in its first entry."""
    real = cli.compute_gradient_set

    def corrupted(instance, pert):
        gs = real(instance, pert)
        gs.h[0, 0] += delta
        return gs

    monkeypatch.setattr(cli, "compute_gradient_set", corrupted)


class TestGradcheck:
    def test_non_finite_eps_exits_2(self, capsys):
        assert main(["gradcheck", "--eps", "nan"]) == 2
        assert "'eps' must be a finite real number" in capsys.readouterr().err

    def test_default_battery_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["J11", "J12", "J21", "J22"]
        for line in lines:
            assert "max relative error" in line and line.endswith("[ok]")

    def test_corrupted_gradient_fails(self, capsys, monkeypatch):
        _corrupt_j11(monkeypatch, 0.5)
        assert main(["gradcheck"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "worst" in out
        # only J11 is corrupted, so only J11 fails
        assert out.startswith("J11: ") and out.count("[FAIL]") == 1

    def test_single_instance_mode(self, inst):
        assert main(["gradcheck", "-i", str(inst)]) == 0

    def test_broadcast_instances_pass(self, tmp_path, capsys):
        # J12 and J22 are analytically zero under broadcast; the rounding
        # noise of the central differences must not read as an error
        for seed in range(1, 6):
            path = tmp_path / f"b{seed}.json"
            assert main(["gen", "--V", "6", "--d", "4", "--T", "2", "--w-mode", "broadcast",
                         "--seed", str(seed), "-o", str(path)]) == 0
            assert main(["gradcheck", "-i", str(path)]) == 0, capsys.readouterr().out

    @pytest.mark.parametrize("family, shape", [("role-swap", ("6", "2", "2")),
                                               ("conflicting", ("8", "2", "1"))])
    def test_version_2_conflict_instances_pass(self, tmp_path, capsys, family, shape):
        # version 2 draws H at sigma 2 for role-swap and W at sigma 1/4: the
        # gradients still check at the benchmark's quick-start shapes
        path = tmp_path / "g.json"
        for seed in range(20):
            assert main(["gen", "--V", shape[0], "--d", shape[1], "--T", shape[2],
                         "--family", family, "--family-version", "2", "--seed", str(seed),
                         "-o", str(path)]) == 0
            assert main(["gradcheck", "-i", str(path)]) == 0, capsys.readouterr().out

    def test_small_corruption_fails_only_j11(self, capsys, monkeypatch):
        _corrupt_j11(monkeypatch, 1e-3)
        assert main(["gradcheck"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("J11: ") and out.count("[FAIL]") == 1

    @pytest.mark.parametrize("eps", ["1e-300", "1e-14"])
    def test_eps_where_the_floor_reaches_the_loss_scale_exits_2(self, tmp_path, capsys,
                                                               monkeypatch, eps):
        # all four analytic blocks sign-flipped: below 4 sqrt(n) 2^-52 /
        # GRADCHECK_TOL (n = 24, the w block) the floor passed J21 at 1e-14
        # and all four blocks at 1e-300
        path = tmp_path / "rs.json"
        assert main(["gen", "--V", "6", "--d", "4", "--T", "2", "--family", "role-swap",
                     "--seed", "0", "-o", str(path)]) == 0
        real = cli.compute_gradient_set

        def flipped(instance, pert):
            gs = real(instance, pert)
            return argparse.Namespace(fwd=gs.fwd, h=-gs.h, w=-gs.w)

        monkeypatch.setattr(cli, "compute_gradient_set", flipped)
        capsys.readouterr()
        assert main(["gradcheck", "-i", str(path)]) == 1
        assert capsys.readouterr().out.count("[FAIL]") == 4
        assert main(["gradcheck", "-i", str(path), "--eps", eps]) == 2
        assert capsys.readouterr() == ("", (
            f"error: --eps must exceed 4.35e-10, where the rounding floor reaches "
            f"the loss scale, got {eps}\n"))

    def test_coarse_eps_fails(self, capsys):
        assert main(["gradcheck", "--eps", "1e-2"]) == 1

    def test_reported_error_shrinks_with_eps(self, inst, capsys):
        def worst(eps):
            assert main(["gradcheck", "-i", str(inst), "--eps", eps]) == 0
            values = re.findall(r"max relative error ([\d.e+-]+)", capsys.readouterr().out)
            return max(float(v) for v in values)

        assert worst("1e-5") < worst("1e-3")

    def test_nan_error_fails_naming_its_coordinate(self, inst, capsys, monkeypatch):
        # a NaN relative error compares False with everything; it must
        # still fail every block, not read as 0
        real = cli.fd_gradient
        monkeypatch.setattr(cli, "fd_gradient",
                            lambda *a, **kw: np.full_like(real(*a, **kw), np.nan))
        assert main(["gradcheck", "-i", str(inst)]) == 1
        out = capsys.readouterr().out
        assert out.count("max relative error nan [FAIL]") == 4
        worst = re.findall(r"worst: instance 0, coord \([\d, ]+\): analytic=(\S+) fd=nan$",
                           out, re.MULTILINE)
        assert len(worst) == 4
        for value in worst:  # a plain float repr, not np.float64(...)
            float(value)

    def test_worst_values_are_plain_float_reprs(self, capsys, monkeypatch):
        _corrupt_j11(monkeypatch, 0.5)
        assert main(["gradcheck"]) == 1
        worst = re.search(r"worst: .*: analytic=(\S+) fd=(\S+)$", capsys.readouterr().out,
                          re.MULTILINE)
        assert all(repr(float(v)) == v for v in worst.groups())


class TestStderr:
    """A failing command's stderr is its one ``error:`` line: numpy's
    floating-point warnings stay off while a command runs."""

    @pytest.mark.parametrize("argv, code", [
        (["run", "--strategy", "soft", "--eta-h", "1e300", "--eta-w", "1e300"], 3),
        (["compare", "--eta-h", "1e300", "--eta-w", "1e300"], 3),
        (["sweep", "--param", "tau", "--values", "1,2", "--eta-h", "1e300", "--eta-w", "1e300"],
         3),
        (["gradcheck"], 2),
        (["run", "--strategy", "soft", "--init-scale", "1e308"], 2),
        (["run", "--strategy", "soft", "--tau", "-1e-05"], 2),
        (["run", "--strategy", "soft", "--lam", "-1e-05", "1.00001"], 2),
        (["run", "--strategy", "soft", "--tau", "-inf"], 2),
        (["run", "--strategy", "soft", "--lam", "-inf", "1"], 2),
        (["run"], 2),
    ])
    def test_only_the_error_line(self, inst, tmp_path, capsys, argv, code):
        if argv[0] == "gradcheck":
            inst = _overflowing_instance(tmp_path / "overflow.json")
        if argv[0] in ("compare", "sweep"):
            argv = argv + ["-o", str(tmp_path / "out")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv + ["-i", str(inst)]) == code
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")

    def test_warnings_are_back_after_the_command(self, inst, capsys):
        assert main(["run", "-i", str(inst), "--strategy", "soft", "--eta-h", "1e300",
                     "--eta-w", "1e300"]) == 3
        assert np.geterr()["over"] == "warn"


@pytest.fixture(scope="module")
def instances(tmp_path_factory):
    """A 6 x 4 x 2 instance file of each w_mode, by w_mode."""
    paths = {}
    for w_mode in WMode:
        paths[w_mode] = tmp_path_factory.mktemp("inst") / f"{w_mode.value}.json"
        save_instance(probgen.generate(GeneratorSpec(V=6, d=4, T=2, seed=5, w_mode=w_mode)),
                      paths[w_mode])
    return paths


# Values for the numeric flags of run: the least subnormal, float max / 2
# and above it, 0 and -1, ordinary values, then any float.
_VALUES = (st.sampled_from([5e-324, 1e308, 9e307, 0.0, -1.0]) | st.floats(1e-3, 10.0)
           | st.floats())
_FLAGS = ("--tau", "--gamma", "--eta-h", "--eta-w", "--beta-aux", "--init-scale", "--grad-tol",
          "--loss-tol")


class TestExitCodes:
    """Every failure of ``run`` maps to a documented exit code, with
    nothing on stderr but its one ``error:`` line."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), w_mode=st.sampled_from(list(WMode)),
           strategy=st.sampled_from(cli._STRATEGY_NAMES), scale=st.sampled_from(list(AlignScale)),
           steps=st.integers(0, 3))
    def test_any_numeric_flags_exit_0_2_or_3(self, instances, data, w_mode, strategy, scale,
                                             steps):
        argv = ["run", "-i", str(instances[w_mode]), "--strategy", strategy,
                "--scale", scale.value, "--steps", str(steps)]
        for flag in data.draw(st.lists(st.sampled_from(_FLAGS), unique=True, max_size=4)):
            argv.append(f"{flag}={data.draw(_VALUES)!r}")
        if data.draw(st.booleans()):
            finite = _VALUES.filter(np.isfinite)
            lam = data.draw(st.tuples(finite, finite) | finite.map(lambda x: (x, 1.0 - x)))
            argv += ["--lam", *map(repr, lam)]
        err = io.StringIO()
        with (warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err),
              contextlib.redirect_stdout(io.StringIO())):
            warnings.simplefilter("always")
            code = main(argv)
        assert code in (0, 2, 3) and caught == []
        err = err.getvalue()
        assert err == "" if code == 0 else (
            err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"))


class TestBatching:
    """compare and sweep build every configuration from the same flags,
    so their runs share one alignment and only the byte budget
    (``optimizer._stack_width``) splits them into lockstep batches."""

    @pytest.mark.parametrize("V, d, T, w_mode, compared, swept", [
        (6, 4, 1, WMode.FULL_MATRIX, [6], [3]),
        # a 1000 x 64 array is 512 kB: a full_matrix run holds three (B, w
        # and delta w), a single_row run one (B)
        (1000, 64, 16, WMode.FULL_MATRIX, [1] * 6, [1] * 3),
        (1000, 64, 16, WMode.SINGLE_ROW, [2, 2, 2], [2, 1]),
    ])
    def test_compare_and_sweep_batches(self, tmp_path, monkeypatch, V, d, T, w_mode, compared,
                                       swept):
        path = tmp_path / "inst.json"
        save_instance(probgen.generate(GeneratorSpec(V=V, d=d, T=T, seed=1, w_mode=w_mode)), path)
        calls, real = [], j6opt.optimizer._lockstep

        def spy(instance, cfgs, mode, *rest):
            calls.append((len(cfgs), mode))
            return real(instance, cfgs, mode, *rest)

        monkeypatch.setattr(j6opt.optimizer, "_lockstep", spy)
        common = ["-i", str(path), "--steps", "1", "--scale", "cosine", "-o", str(tmp_path / "o")]
        kind = AlignKind.PUSHFORWARD if w_mode is WMode.FULL_MATRIX else AlignKind.DIRECT
        mode = AlignmentMode(kind, AlignScale.COSINE)
        assert main(["compare"] + common) == 0
        assert calls == [(n, mode) for n in compared]
        calls.clear()
        assert main(["sweep", "--param", "tau", "--values", "1,2,3"] + common) == 0
        assert calls == [(n, mode) for n in swept]


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

    def test_empty_strategy_list_exits_2(self, inst, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert main(["compare", "-i", str(inst), "--strategies", ",", "-o", str(out)]) == 2
        assert capsys.readouterr().err == "error: --strategies must name at least one strategy\n"
        assert not out.exists()

    @pytest.mark.parametrize("strategies", ["soft,,static", "soft,static,", ",soft"])
    def test_empty_strategy_item_exits_2(self, inst, tmp_path, capsys, strategies):
        out = tmp_path / "s.json"
        assert main(["compare", "-i", str(inst), "--strategies", strategies,
                     "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: --strategies has an empty item: {strategies!r}\n")
        assert not out.exists()

    def test_spaces_around_strategies_are_allowed(self, inst, tmp_path, capsys):
        assert main(["compare", "-i", str(inst), "--strategies", " soft , static",
                     "--steps", "2", "-o", str(tmp_path / "s.json")]) == 0
        assert capsys.readouterr().out.startswith("soft: ")

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


    def test_each_entry_is_its_run_command(self, inst_single, tmp_path, capsys):
        # the lockstep batch reports, for every strategy, what a run
        # command of that strategy prints; the tolerances stop runs at
        # different steps
        flags = ["--steps", "40", "--grad-tol", "0.3", "--loss-tol", "1e-2",
                 "--init-scale", "0.3", "--seed", "3", "--eta-h", "0.2", "--eta-w", "0.2"]
        out = tmp_path / "summary.json"
        assert main(["compare", "-i", str(inst_single), "-o", str(out), *flags]) == 0
        runs = json.loads(out.read_text())["runs"]
        capsys.readouterr()
        assert len({entry["steps"] for entry in runs}) > 1
        for entry in runs:
            assert main(["run", "-i", str(inst_single), "--strategy", entry["name"], *flags]) == 0
            assert capsys.readouterr().out == (
                f"ob1={entry['final_ob1']!r} ob2={entry['final_ob2']!r} "
                f"stop_reason={entry['stop_reason']} steps={entry['steps']}\n")


class TestSweep:
    def test_each_row_is_its_run_command(self, inst, tmp_path, capsys):
        flags = ["--steps", "30", "--loss-tol", "1e-2", "--init-scale", "0.2", "--seed", "5"]
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "-i", str(inst), "--param", "eta-h", "--values",
                     "0.001,0.01,0.1,1", "--strategy", "hard-j6", "-o", str(out), *flags]) == 0
        rows = out.read_text().splitlines()[1:]
        capsys.readouterr()
        assert len({row.split(",")[5] for row in rows}) > 1
        for row in rows:
            _, value, ob1, ob2, stop, steps, _ = row.split(",")
            assert main(["run", "-i", str(inst), "--strategy", "hard-j6", "--eta-h", value,
                         *flags]) == 0
            assert capsys.readouterr().out == (
                f"ob1={ob1} ob2={ob2} stop_reason={stop} steps={steps}\n")

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

    @pytest.mark.parametrize("values", ["1,,2", "1,2,", " , 1"])
    def test_empty_value_item_exits_2(self, inst, tmp_path, capsys, values):
        out = tmp_path / "s.csv"
        assert main(["sweep", "-i", str(inst), "--param", "tau", "--values", values,
                     "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --values has an empty item: {values!r}\n"
        assert not out.exists()

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


@pytest.fixture
def configs(monkeypatch):
    """The (StrategyConfig, RunConfig) pair of each run the CLI starts,
    through ``run`` or ``run_many``; the runs themselves take one step.
    J6_SEED is unset."""
    seen, real_run, real_run_many = [], cli.run, cli.run_many

    def spy(instance, cfg, rcfg):
        seen.append((cfg, rcfg))
        return real_run(instance, cfg, dataclasses.replace(rcfg, max_steps=1))

    def spy_many(instance, cfgs, rcfg):
        seen.extend((cfg, rcfg) for cfg in cfgs)
        return real_run_many(instance, cfgs, dataclasses.replace(rcfg, max_steps=1))

    monkeypatch.setattr(cli, "run", spy)
    monkeypatch.setattr(cli, "run_many", spy_many)
    monkeypatch.delenv("J6_SEED", raising=False)
    return seen


@pytest.fixture
def specs(monkeypatch):
    """The GeneratorSpec of each instance ``gen`` draws; J6_SEED is unset."""
    seen, real_generate = [], cli.generate
    monkeypatch.setattr(cli, "generate",
                        lambda spec, **kw: seen.append(spec) or real_generate(spec, **kw))
    monkeypatch.delenv("J6_SEED", raising=False)
    return seen


def _command_flags(command, tmp_path, tau=1.0):
    """The required flags of a command besides -i, running the soft strategy once."""
    out = str(tmp_path / "out")
    return {
        "run": ["--strategy", "soft"],
        "compare": ["--strategies", "soft", "-o", out],
        "sweep": ["--param", "tau", "--values", repr(tau), "-o", out],
    }[command]


def _subcommands():
    """Each subcommand's parser, by name."""
    (action,) = [a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


# Each flag that sets a config field: its argv, the field, the value it sets.
CONFIG_FLAGS = [
    (["--tau", "0.25"], "tau", 0.25),
    (["--gamma", "3"], "gamma", 3.0),
    (["--eta-h", "0.2"], "eta_h", 0.2),
    (["--eta-w", "0.3"], "eta_w", 0.3),
    (["--beta-aux", "0.75"], "beta_aux", 0.75),
    (["--lam", "0.25", "0.75"], "lam", (0.25, 0.75)),
    (["--pre-norm", "maxabs"], "pre_norm", PreNorm.MAXABS),
    (["--align", "pushforward"], "alignment", AlignmentMode(AlignKind.PUSHFORWARD)),
    (["--scale", "cosine"], "alignment", AlignmentMode(scale=AlignScale.COSINE)),
    (["--align", "pushforward", "--scale", "cosine"], "alignment",
     AlignmentMode(AlignKind.PUSHFORWARD, AlignScale.COSINE)),
    (["--steps", "7"], "max_steps", 7),
    (["--grad-tol", "1e-3"], "grad_tol", 1e-3),
    (["--loss-tol", "1e-4"], "loss_tol", 1e-4),
    (["--seed", "11"], "seed", 11),
    (["--init-scale", "0.2"], "init_scale", 0.2),
]
GEN_FLAGS = [
    (["--T", "3"], "T", 3),
    (["--seed", "4"], "seed", 4),
    (["--family", "role-swap"], "family", Family.ROLE_SWAP),
    (["--w-mode", "single_row"], "w_mode", WMode.SINGLE_ROW),
    (["--v-star", "2"], "v_star", 2),
    (["--family-version", "1"], "family_version", 1),
]
RUN_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


class TestConfigFlags:
    """Every flag default is its config dataclass's own default."""

    def test_run_defaults(self, inst, configs):
        assert main(["run", "-i", str(inst), "--strategy", "hard-jplus"]) == 0
        assert configs == [(StrategyConfig(kind=StrategyKind.HARD_JPLUS), RunConfig())]

    def test_compare_defaults(self, inst, tmp_path, configs):
        assert main(["compare", "-i", str(inst), "-o", str(tmp_path / "c.json")]) == 0
        assert configs == [(StrategyConfig(kind=kind), RunConfig()) for kind in StrategyKind]

    def test_sweep_defaults(self, inst, tmp_path, configs):
        assert main(["sweep", "-i", str(inst), "--param", "gamma", "--values", "2",
                     "-o", str(tmp_path / "s.csv")]) == 0
        assert configs == [(StrategyConfig(kind=StrategyKind.SOFT), RunConfig())]

    def test_gen_defaults(self, tmp_path, specs):
        assert main(["gen", "--V", "5", "--d", "3", "-o", str(tmp_path / "g.json")]) == 0
        assert specs == [GeneratorSpec(V=5, d=3)]

    @pytest.mark.parametrize("command", ["run", "compare", "sweep"])
    @pytest.mark.parametrize("flags, field, value", CONFIG_FLAGS)
    def test_flag_sets_exactly_its_field(self, inst, tmp_path, configs, command, flags, field,
                                         value):
        cfg, rcfg = StrategyConfig(kind=StrategyKind.SOFT), RunConfig()
        if field in RUN_FIELDS:
            rcfg = dataclasses.replace(rcfg, **{field: value})
        else:
            cfg = dataclasses.replace(cfg, **{field: value})
        argv = [command, "-i", str(inst), *_command_flags(command, tmp_path, cfg.tau), *flags]
        assert main(argv) == 0
        assert configs == [(cfg, rcfg)]

    @pytest.mark.parametrize("flags, field, value", GEN_FLAGS)
    def test_gen_flag_sets_exactly_its_field(self, tmp_path, specs, flags, field, value):
        assert main(["gen", "--V", "5", "--d", "3", *flags, "-o", str(tmp_path / "g.json")]) == 0
        assert specs == [GeneratorSpec(V=5, d=3, **{field: value})]

    def test_seed_falls_back_to_env(self, inst, tmp_path, configs, specs, monkeypatch, capsys):
        monkeypatch.setenv("J6_SEED", "9")
        assert main(["run", "-i", str(inst), "--strategy", "soft"]) == 0
        assert main(["run", "-i", str(inst), "--strategy", "soft", "--seed", "2"]) == 0
        assert [rcfg.seed for _, rcfg in configs] == [9, 2]
        assert main(["gen", "--V", "5", "--d", "3", "-o", str(tmp_path / "g.json")]) == 0
        assert specs == [GeneratorSpec(V=5, d=3, seed=9)]
        monkeypatch.setenv("J6_SEED", "x")
        assert main(["run", "-i", str(inst), "--strategy", "soft"]) == 2
        assert "J6_SEED must be an integer, got 'x'" in capsys.readouterr().err

    def test_commands_share_the_config_flags(self):
        """run, compare and sweep accept exactly the shared flags, each
        with the same type, choices, nargs and destination, besides
        their own command-level flags."""
        def shape(action):
            return (action.dest, action.type, action.choices, action.nargs, action.default,
                    action.required, action.metavar)

        shared = {tuple(a.option_strings): shape(a) for a in cli._config_flags()._actions}
        own = {
            "run": {("-h", "--help"), ("--strategy",), ("--trace",)},
            "compare": {("-h", "--help"), ("--strategies",), ("-o", "--out"), ("--jobs",)},
            "sweep": {("-h", "--help"), ("--param",), ("--values",), ("--strategy",),
                      ("-o", "--out"), ("--jobs",)},
        }
        subcommands = _subcommands()
        for command, own_flags in own.items():
            flags = {tuple(a.option_strings): shape(a) for a in subcommands[command]._actions}
            assert {k: v for k, v in flags.items() if k in shared} == shared
            assert set(flags) - set(shared) == own_flags

    def test_no_config_field_has_an_argparse_default(self):
        fields = {f.name for cls in (StrategyConfig, RunConfig, GeneratorSpec)
                  for f in dataclasses.fields(cls)} | {"align_kind", "align_scale"}
        counts = {}
        for command, parser in _subcommands().items():
            for action in parser._actions:
                if action.dest in fields:
                    assert action.default is argparse.SUPPRESS, (command, action.dest)
                    counts[command] = counts.get(command, 0) + 1
        assert counts == {"gen": 8, "run": 14, "compare": 14, "sweep": 14}


class TestUsage:
    def test_help_available_everywhere(self):
        assert main(["--help"]) == 0
        for command in ("gen", "run", "gradcheck", "compare", "sweep"):
            assert main([command, "--help"]) == 0

    def test_no_command_exits_2(self):
        assert main([]) == 2

    @pytest.mark.parametrize("flags, message", [
        (["--strategy", "soft", "--tau", "-1e-05"], "tau must be positive"),
        (["--strategy", "soft", "--tau", "-.5"], "tau must be positive"),
        (["--strategy", "soft", "--lam", "-1e-05", "1.00001"],
         "lam must be a non-negative pair summing to 1"),
        (["--strategy", "soft", "--tau", "-inf"], "'tau' must be a finite real number, got -inf"),
        (["--strategy", "soft", "--tau", "-Infinity"], "'tau' must be a finite real number"),
        (["--strategy", "soft", "--gamma", "-NaN"], "'gamma' must be a finite real number"),
        (["--strategy", "soft", "--lam", "-inf", "1"], "'lam[0]' must be a finite real number"),
        ([], "the following arguments are required: --strategy"),
        (["--strategy", "nope"], "argument --strategy: invalid choice: 'nope'"),
        (["--param", "tau", "--values", "-inf,1"], "'tau' must be a finite real number, got -inf"),
        (["--param", "gamma", "--values", "-NaN,2"], "'gamma' must be a finite real number"),
    ])
    def test_usage_errors_are_one_line(self, inst, tmp_path, capsys, flags, message):
        # a negative number such as -1e-05 or -inf is a value, checked as
        # any other; -inf is not read as the flag -i with the value nf, nor
        # is sweep's --values list -inf,1
        out = tmp_path / "sweep.csv"
        command = ["sweep", "-o", str(out)] if "--values" in flags else ["run"]
        assert main([*command, "-i", str(inst), *flags]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("command, flags", [
        ("compare", []), ("sweep", ["--param", "tau", "--values", "1"])])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_2(self, inst, tmp_path, capsys, command, flags, jobs):
        out = tmp_path / "out"
        assert main([command, "-i", str(inst), *flags, "--jobs", jobs, "-o", str(out)]) == 2
        assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()


class TestParserCache:
    """``main`` parses with one parser per process."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_a_flag_does_not_outlive_its_call(self, inst, configs):
        assert main(["run", "-i", str(inst), "--strategy", "soft", "--tau", "3"]) == 0
        assert main(["run", "-i", str(inst), "--strategy", "soft"]) == 0
        assert [cfg.tau for cfg, _ in configs] == [3.0, 1.0]

    def test_each_command_parses_cleanly_after_another(self, monkeypatch):
        seen = []
        for name in ("gen", "sweep"):
            monkeypatch.setattr(cli, f"cmd_{name}", lambda args: seen.append(vars(args)) or 0)
        assert main(["gen", "--V", "5", "--d", "3", "--seed", "4", "-o", "g.json"]) == 0
        assert main(["sweep", "-i", "g.json", "--param", "tau", "--values", "1",
                     "-o", "s.csv"]) == 0
        assert seen == [
            {"command": "gen", "V": 5, "d": 3, "seed": 4, "out": "g.json"},
            {"command": "sweep", "instance": "g.json", "param": "tau", "values": "1",
             "strategy": "soft", "out": "s.csv", "jobs": 1},
        ]

    def test_replaced_command_takes_effect(self, inst, monkeypatch):
        assert main(["run", "-i", str(inst), "--strategy", "soft", "--steps", "1"]) == 0
        monkeypatch.setattr(cli, "cmd_run", lambda args: 7)
        assert main(["run", "-i", str(inst), "--strategy", "soft"]) == 7
