"""Command line interface: verbs, exit codes, output layout, reproducibility."""
import hashlib
import json
import os
import warnings
from pathlib import Path

import pytest

from cartpend.cli import main
from cartpend.metrics import REPORT_CSV_HEADER
from cartpend.sim import CSV_HEADER

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
# report.txt of ``run`` on the 18 built-ins in catalog order
BUILTIN_REPORT_TXT_SHA256 = "3495762851d4378ad13d898c7d54641ef8dc8307695c3a4a42bb63e3caf9d52b"

SHORT_LQR = (
    "[scenario]\nname = quick-lqr\n\n"
    "[controller]\nkind = lqr\n\n"
    "[sim]\nduration_s = 5\n"
)

# positive position feedback with huge gain; the state overflows within a few steps
BLOWUP = (
    "[scenario]\nname = blowup\n\n"
    "[controller]\nkind = pid-position\nposition_kp = -1e200\n\n"
    "[sim]\nduration_s = 1\n"
)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_run_writes_csv_and_reports(tmp_path, capsys):
    cfg = _write(tmp_path, "a.ini", SHORT_LQR)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    assert (out / "quick-lqr.csv").exists()
    assert (out / "report.txt").exists()
    assert (out / "report.csv").exists()
    header = (out / "quick-lqr.csv").read_text().splitlines()[0]
    assert header == "t,theta,theta_dot,x,x_dot,u,ref"
    assert "quick-lqr" in (out / "report.txt").read_text()


def test_run_multiple_configs(tmp_path):
    cfg1 = _write(tmp_path, "a.ini", SHORT_LQR)
    cfg2 = _write(tmp_path, "b.ini", SHORT_LQR.replace("quick-lqr", "second"))
    out = tmp_path / "out"
    assert main(["run", cfg1, cfg2, "--out", str(out)]) == 0
    assert (out / "quick-lqr.csv").exists() and (out / "second.csv").exists()
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "controller,scenario,settling_s,overshoot_pct,sse"
    assert len(report) == 3


def test_rerun_is_byte_identical(tmp_path):
    cfg = _write(tmp_path, "a.ini", SHORT_LQR + "\n[disturbance]\nkind = uniform_noise\n")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", cfg, "--out", str(out1)]) == 0
    assert main(["run", cfg, "--out", str(out2)]) == 0
    b1 = (out1 / "quick-lqr.csv").read_bytes()
    b2 = (out2 / "quick-lqr.csv").read_bytes()
    assert b1 == b2


def test_seed_override_changes_disturbed_run(tmp_path):
    cfg = _write(tmp_path, "a.ini", SHORT_LQR + "\n[disturbance]\nkind = uniform_noise\n")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", cfg, "--out", str(out1)]) == 0
    assert main(["run", cfg, "--out", str(out2), "--seed", "999"]) == 0
    assert (out1 / "quick-lqr.csv").read_bytes() != (out2 / "quick-lqr.csv").read_bytes()


# SplitMix64 keeps 64 bits of a seed: -1 and 2**65 - 1 would alias 2**64 - 1
@pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**65 - 1)])
def test_config_seed_outside_64_bits_exits_2(tmp_path, capsys, seed):
    cfg = _write(tmp_path, "a.ini", SHORT_LQR + f"seed = {seed}\n")
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {cfg}: [sim] seed ")
    assert not (out / "quick-lqr.csv").exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**65 - 1)])
def test_seed_flag_outside_64_bits_exits_2(tmp_path, capsys, seed):
    cfg = _write(tmp_path, "a.ini", SHORT_LQR)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--seed", seed]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --seed ")
    assert not (out / "quick-lqr.csv").exists()


def test_largest_64_bit_seed_runs(tmp_path):
    cfg = _write(tmp_path, "a.ini", SHORT_LQR + f"seed = {2**64 - 1}\n")
    assert main(["run", cfg, "--out", str(tmp_path / "out"), "--seed", "0"]) == 0
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_out_at_a_file_exits_2_before_running(tmp_path, capsys, out):
    cfg = _write(tmp_path, "a.ini", SHORT_LQR)
    _write(tmp_path, "afile", "kept\n")
    assert main(["run", cfg, "--out", str(tmp_path / out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a.ini", "afile"]
    assert (tmp_path / "afile").read_text() == "kept\n"


# a finished run and a diverged run's partial trajectory
@pytest.mark.parametrize("text, csv", [(SHORT_LQR, "quick-lqr.csv"), (BLOWUP, "blowup.csv")],
                         ids=["finished", "diverged"])
def test_unwritable_trajectory_exits_2(tmp_path, capsys, text, csv):
    cfg = _write(tmp_path, "a.ini", text)
    out = tmp_path / "out"
    (out / csv).mkdir(parents=True)
    assert main(["run", cfg, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert [p.name for p in out.rglob("*")] == [csv]


@pytest.mark.parametrize("text, csv", [(SHORT_LQR, "quick-lqr.csv"), (BLOWUP, "blowup.csv")],
                         ids=["finished", "diverged"])
def test_failed_write_leaves_no_partial_trajectory(tmp_path, capsys, monkeypatch, text, csv):
    from cartpend.sim import Trajectory

    chunks = Trajectory._csv_chunks

    def fail_after_first(traj):
        yield next(chunks(traj))
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Trajectory, "_csv_chunks", fail_after_first)
    cfg = _write(tmp_path, "a.ini", text)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("report", ["report.txt", "report.csv"])
def test_failed_report_write_leaves_no_partial_report(tmp_path, capsys, monkeypatch, report):
    import builtins

    import cartpend.sim

    class DiskFull:
        """A file that takes half of what it is given, then fails as a full disk does."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def writelines(self, chunks):
            text = "".join(chunks)
            self.fh.write(text[:len(text) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    def open_failing_report(path, *args, **kwargs):
        fh = builtins.open(path, *args, **kwargs)
        return DiskFull(fh) if os.path.basename(path).startswith(report) else fh

    monkeypatch.setattr(cartpend.sim, "open", open_failing_report, raising=False)
    cfg = _write(tmp_path, "a.ini", SHORT_LQR)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    # report.txt is written before report.csv; no temporary file is left
    kept = {"report.txt": ["quick-lqr.csv"], "report.csv": ["quick-lqr.csv", "report.txt"]}
    assert sorted(p.name for p in out.iterdir()) == kept[report]


def test_env_var_out_dir(tmp_path, monkeypatch):
    cfg = _write(tmp_path, "a.ini", SHORT_LQR)
    envdir = tmp_path / "envout"
    monkeypatch.setenv("CARTPEND_OUT_DIR", str(envdir))
    assert main(["run", cfg]) == 0
    assert (envdir / "quick-lqr.csv").exists()
    # explicit flag wins over the environment
    flagdir = tmp_path / "flagout"
    assert main(["run", cfg, "--out", str(flagdir)]) == 0
    assert (flagdir / "quick-lqr.csv").exists()


def test_config_error_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.ini", "[controller]\nkind = maglev\n")
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "maglev" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["../escaped", "report", ""])
def test_unsafe_or_colliding_name_exits_2(tmp_path, capsys, name):
    cfg = _write(tmp_path, "a.ini", SHORT_LQR.replace("quick-lqr", name))
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert "[scenario] name" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "escaped.csv").exists()


def test_duplicate_names_exit_2_before_running(tmp_path, capsys):
    cfg1 = _write(tmp_path, "a.ini", SHORT_LQR.replace("quick-lqr", "same"))
    cfg2 = _write(tmp_path, "b.ini", SHORT_LQR.replace("quick-lqr", "same"))
    out = tmp_path / "out"
    assert main(["run", cfg1, cfg2, "--out", str(out)]) == 2
    assert "'same'" in capsys.readouterr().err
    assert not out.exists()


def test_unbounded_step_count_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "a.ini", SHORT_LQR.replace("duration_s = 5", "dt_s = 1e-300"))
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "[sim]" in capsys.readouterr().err


def test_non_finite_gain_exits_2_and_other_runs_finish(tmp_path, capsys):
    bad = _write(tmp_path, "bad.ini", BLOWUP.replace("-1e200", "inf"))
    good = _write(tmp_path, "good.ini", SHORT_LQR)
    out = tmp_path / "out"
    assert main(["run", bad, good, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "[controller] position_kp must be finite" in err and "diverged" not in err
    assert (out / "quick-lqr.csv").exists() and not (out / "blowup.csv").exists()


@pytest.mark.parametrize("kind, section, key, value", [
    ("lqr", "sim", "reference_amplitude", "nan"),
    ("pid-position", "controller", "position_kp", "inf"),
    ("hybrid", "controller", "gamma", "-1"),
    ("hybrid", "controller", "gamma", "nan"),
    ("lqr", "controller", "q_x", "-5"),
    ("hybrid-simultaneous", "controller", "position_output_scale", "-1"),
    ("hybrid", "controller", "rule_row2", "0 1 2 3 4 5 9"),
])
def test_bad_value_message_names_the_config_key(tmp_path, capsys, kind, section, key, value):
    settings = {"controller": f"kind = {kind}\n", "sim": "duration_s = 1\n"}
    settings[section] += f"{key} = {value}\n"
    text = "[scenario]\nname = bad\n\n" + "".join(
        f"[{name}]\n{body}\n" for name, body in settings.items())
    cfg = _write(tmp_path, "a.ini", text)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and f": [{section}] {key} must be " in lines[0], lines
    assert not (out / "bad.csv").exists()
    if section == "controller":  # the run got as far as writing the empty reports
        assert (out / "report.txt").read_text() == ""
        assert (out / "report.csv").read_text() == REPORT_CSV_HEADER + "\n"


@pytest.mark.parametrize("angle", ["inf", "nan"])
def test_non_finite_initial_angle_exits_2(tmp_path, capsys, angle):
    text = SHORT_LQR.replace("[controller]", f"initial_theta_rad = {angle}\n\n[controller]")
    cfg = _write(tmp_path, "a.ini", text.replace("duration_s = 5", "duration_s = 1"))
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "[scenario] initial_theta_rad" in err and "diverged" not in err
    assert not (out / "quick-lqr.csv").exists()


@pytest.mark.parametrize("key, values", [
    ("output_centers", "-1 -0.6 -0.3 nan 0.3 0.6 1"),
    ("input2_peaks", "-inf -0.6 -0.3 0 0.3 0.6 inf"),
    ("input1_peaks", "-1 -0.6 -0.3 nan 0.3 0.6 1"),
], ids=["nan-center", "inf-peak", "nan-peak"])
def test_non_finite_fuzzy_shape_exits_2(tmp_path, capsys, key, values):
    text = (f"[scenario]\nname = shape\n\n[controller]\nkind = hybrid\n{key} = {values}\n\n"
            "[sim]\nduration_s = 1\n")
    cfg = _write(tmp_path, "a.ini", text)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: scenario shape: [controller] {key} ")
    assert "diverged" not in err and not (out / "shape.csv").exists()


@pytest.mark.parametrize("key,value", [("amplitude_N", "-1"), ("start_s", "nan"),
                                       ("end_s", "nan")])
def test_bad_disturbance_bound_exits_2_naming_its_section(tmp_path, capsys, key, value):
    cfg = _write(tmp_path, "a.ini", SHORT_LQR + f"\n[disturbance]\n{key} = {value}\n")
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {cfg}: [disturbance] {key} ")
    assert not (out / "quick-lqr.csv").exists()


def test_missing_file_exits_2(tmp_path):
    assert main(["run", str(tmp_path / "nope.ini"), "--out", str(tmp_path)]) == 2


def test_fault_exits_1_but_finishes_other_runs(tmp_path, capsys):
    bad = _write(tmp_path, "bad.ini", BLOWUP)
    good = _write(tmp_path, "good.ini", SHORT_LQR)
    out = tmp_path / "out"
    assert main(["run", bad, good, "--out", str(out)]) == 1
    # the healthy scenario still ran to completion
    assert (out / "quick-lqr.csv").exists()
    # the message names the step and the quantity that went non-finite
    assert capsys.readouterr().err.splitlines() == [
        "error: scenario blowup diverged at step 0: theta non-finite; partial trajectory kept"]


def test_analyze_prints_metrics(tmp_path, capsys):
    cfg = _write(tmp_path, "a.ini", SHORT_LQR)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(out / "quick-lqr.csv")]) == 0
    text = capsys.readouterr().out
    assert "settling" in text and "overshoot" in text and "steady-state" in text


def test_analyze_reference_override(tmp_path, capsys):
    cfg = _write(tmp_path, "a.ini", SHORT_LQR)
    out = tmp_path / "out"
    main(["run", cfg, "--out", str(out)])
    capsys.readouterr()
    assert main(["analyze", str(out / "quick-lqr.csv"), "--reference", "0.3", "--band", "0.05"]) == 0


def test_analyze_missing_csv_exits_2(tmp_path):
    assert main(["analyze", str(tmp_path / "nope.csv")]) == 2


def _one_row_csv(tmp_path):
    return _write(tmp_path, "one.csv", CSV_HEADER + "\n0,0,0,0.3,0,0,0.3\n")


@pytest.mark.parametrize("band", ["0", "1", "-0.5", "1.5", "nan", "inf"])
def test_analyze_band_outside_unit_interval_exits_2(tmp_path, capsys, band):
    assert main(["analyze", _one_row_csv(tmp_path), f"--band={band}"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --band") and captured.out == ""


@pytest.mark.parametrize("reference", ["nan", "inf", "-inf"])
def test_analyze_non_finite_reference_exits_2(tmp_path, capsys, reference):
    assert main(["analyze", _one_row_csv(tmp_path), f"--reference={reference}"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --reference") and captured.out == ""


def test_analyze_malformed_csv_exits_2_with_one_error_line(tmp_path, capsys,
                                                           malformed_csv):
    path = _write(tmp_path, "bad.csv", malformed_csv)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", path]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ")
    assert captured.out == ""


@pytest.mark.parametrize("verb", ["run", "lqr-gain", "analyze"])
def test_non_utf8_input_exits_2(tmp_path, capsys, verb):
    path = tmp_path / "latin1.ini"
    path.write_bytes(SHORT_LQR.replace("quick-lqr", "caf\xe9").encode("latin-1"))
    argv = [verb, str(path)] + (["--out", str(tmp_path / "out")] if verb == "run" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "utf-8" in err


def test_analyze_non_utf8_byte_deep_in_a_csv_exits_2(tmp_path, capsys):
    # far past the first read of the stream, so it surfaces inside the parse
    path = tmp_path / "late.csv"
    path.write_bytes((CSV_HEADER + "\n" + "0,0,0,0,0,0,0\n" * 20_000).encode()
                     + b"0,0,0,0,0,0,\xe9\n")
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ") and "utf-8" in lines[0]
    assert captured.out == ""


def test_lqr_gain_prints_gain_and_feedforward(tmp_path, capsys):
    cfg = _write(tmp_path, "a.ini", SHORT_LQR)
    assert main(["lqr-gain", cfg]) == 0
    text = capsys.readouterr().out
    assert "K" in text and "N" in text
    assert "12.38" in text  # position entry of the gain at the default weights


def test_lqr_gain_position_weight_range(tmp_path, capsys):
    # q_x = 3e5 needs the polish's best iterate; q_x = 0 leaves the cart's
    # integrator mode unweighted, which is caught before the Riccati sweep
    big = _write(tmp_path, "big.ini", SHORT_LQR.replace("kind = lqr", "kind = lqr\nq_x = 3e5"))
    assert main(["lqr-gain", big]) == 0
    assert "-447.213595" in capsys.readouterr().out  # -sqrt(q_x / r)
    zero = _write(tmp_path, "zero.ini", SHORT_LQR.replace("kind = lqr", "kind = lqr\nq_x = 0"))
    assert main(["lqr-gain", zero]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {zero}: [controller] q_x "), lines


def test_lqr_gain_solves_the_riccati_equation_once(tmp_path, capsys, monkeypatch):
    import cartpend.classic
    import cartpend.cli

    calls = []
    solve = cartpend.classic.solve_care

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    # the CLI module too, in case it ever imports the solver by name
    for module in (cartpend.classic, cartpend.cli):
        monkeypatch.setattr(module, "solve_care", counted, raising=False)
    cfg = _write(tmp_path, "a.ini", SHORT_LQR)
    assert main(["lqr-gain", cfg]) == 0
    assert len(calls) == 1
    assert "P =" in capsys.readouterr().out


def test_lqr_gain_bad_weights_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "a.ini", SHORT_LQR.replace("kind = lqr", "kind = lqr\nr = -1"))
    assert main(["lqr-gain", cfg]) == 2
    assert "[controller] r must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("weight", ["q_x = 1e308", "r = 1e-300"], ids=["huge-q", "tiny-r"])
def test_riccati_failure_is_a_controller_error(tmp_path, capsys, weight):
    text = SHORT_LQR.replace("quick-lqr", "bad").replace("kind = lqr", f"kind = lqr\n{weight}")
    bad = _write(tmp_path, "bad.ini", text)
    good = _write(tmp_path, "good.ini", SHORT_LQR.replace("quick-lqr", "good"))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", bad, good, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: scenario bad: [controller] " in err and "Traceback" not in err
        assert all((out / f).exists() for f in ("good.csv", "report.txt", "report.csv"))
        assert main(["lqr-gain", bad]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {bad}: [controller] ")


@pytest.mark.parametrize("weight, key, reason", [
    ("q_x = 1e6", "q_x = 1e+06", "Newton polish did not reach tolerance (best residual 1."),
    ("r = 1e-300", "r = 1e-300", "Riccati flow diverged"),
], ids=["polish-stalls", "flow-diverges"])
def test_riccati_refusal_names_every_weight_key(tmp_path, capsys, weight, key, reason):
    text = SHORT_LQR.replace("quick-lqr", "bad").replace("kind = lqr", f"kind = lqr\n{weight}")
    bad = _write(tmp_path, "bad.ini", text)
    for argv, where in ((["run", bad, "--out", str(tmp_path / "out")], "scenario bad"),
                        (["lqr-gain", bad], bad)):
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {where}: [controller] "), lines
        assert key in lines[0] and reason in lines[0], lines
        assert all(f"{name} = " in lines[0]
                   for name in ("q_theta", "q_theta_dot", "q_x", "q_x_dot", "r")), lines


def test_lqr_gain_rejects_other_controllers(tmp_path, capsys):
    cfg = _write(tmp_path, "a.ini", SHORT_LQR.replace("kind = lqr", "kind = pid-position"))
    assert main(["lqr-gain", cfg]) == 2


def test_no_verb_exits_2(capsys):
    assert main([]) == 2


def test_unknown_verb_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_builtin_reports_keep_their_bytes(tmp_path, capsys, monkeypatch, runs):
    """``run`` on the built-ins writes the golden report.csv and the pinned report.txt."""
    import cartpend.cli
    from cartpend.scenario import builtin_scenarios, serialize_scenario
    from cartpend.sim import Trajectory

    configs = [_write(tmp_path, f"{name}.ini", serialize_scenario(s))
               for name, s in builtin_scenarios().items()]
    # the session's runs stand in for the simulations; their CSVs are pinned elsewhere
    monkeypatch.setattr(cartpend.cli, "run_scenario", lambda s: runs(s.name)[0])
    monkeypatch.setattr(Trajectory, "write_csv", lambda self, path: None)
    out = tmp_path / "out"
    assert main(["run", *configs, "--out", str(out)]) == 0
    golden = json.loads(GOLDEN.read_text())["full"]["study-matrix"]["report_sha256"]
    assert hashlib.sha256((out / "report.csv").read_bytes()).hexdigest() == golden
    text = (out / "report.txt").read_bytes()
    assert hashlib.sha256(text).hexdigest() == BUILTIN_REPORT_TXT_SHA256
    assert capsys.readouterr().out.encode() == text
