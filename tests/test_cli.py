"""CLI subcommands: outputs, determinism, and error handling."""

import json
import os
import re
import resource
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

import pvclean
from pvclean import cli, weather
from pvclean.cli import main
from pvclean.environment import PRESETS, preset, save_config
from pvclean.nn import DenseNet, save_net
from pvclean.weather import default_model, save_model

ARGS = ["--horizon", "1", "--seed", "0"]


def read(path):
    return path.read_bytes()


def run(argv):
    return main([str(a) for a in argv])


def test_simopt_outputs_and_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = run(["simopt", "--case", "S1exp", *ARGS,
                  "--reps", "3", "--zmax", "40", "--out", out])
        assert rc == 0
    for name in ("S1exp_simopt_curve.csv", "S1exp_simopt_summary.csv"):
        assert read(a / name) == read(b / name)
    lines = (a / "S1exp_simopt_curve.csv").read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert any("seed=0" in ln for ln in comments)
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "z,mean_total_cost,stderr,mean_cleanings"
    assert len(data) == 41


def test_eval_interval_policy(tmp_path):
    rc = run(["eval", "interval:20", "--case", "S1exp", *ARGS,
              "--episodes", "3", "--out", tmp_path])
    assert rc == 0
    text = (tmp_path / "S1exp_eval_summary.csv").read_text()
    assert "mean_total_cost" in text


def test_train_then_eval_policy_file(tmp_path):
    rc = run(["train", "ppo", "--case", "S1exp", *ARGS,
              "--episodes", "2", "--out", tmp_path])
    assert rc == 0
    policy = tmp_path / "S1exp_ppo_policy.txt"
    assert policy.exists()
    rewards = (tmp_path / "S1exp_ppo_rewards.csv").read_text()
    assert "episode,total_reward" in rewards
    assert "episodes=2" in rewards
    rc = run(["eval", policy, "--case", "S1exp", *ARGS,
              "--episodes", "2", "--out", tmp_path])
    assert rc == 0


TRACE_OBS = ["obs_deposition", "obs_days_since_clean", "obs_temperature", "obs_wind_speed",
             "obs_particulate_matter", "obs_irradiance"]
TRACE_INFO = ["temperature", "wind_speed", "particulate_matter", "irradiance",
              "relative_humidity", "soiling", "efficiency", "energy_loss_cost",
              "cleaning_cost_incurred"]


def test_trace_rows_cover_horizon(tmp_path):
    rc = run(["trace", "interval:15", "--case", "S1exp", *ARGS,
              "--out", tmp_path])
    assert rc == 0
    lines = (tmp_path / "S1exp_trace.csv").read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0].split(",") == ["day", "action", *TRACE_OBS, *TRACE_INFO]
    assert len(data) == 1 + 365
    # Cleanings land exactly on the fixed-interval mornings.
    actions = [int(ln.split(",")[1]) for ln in data[1:]]
    assert [d for d, a in enumerate(actions) if a] == list(range(15, 365, 15))


def test_trace_shows_humidity_observation_when_configured(tmp_path):
    path = tmp_path / "humid.json"
    save_config(preset("S1exp", include_humidity=True, name="humid"), path)
    assert run(["trace", "interval:15", "--case", path, *ARGS, "--out", tmp_path]) == 0
    lines = (tmp_path / "humid_trace.csv").read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0].split(",") == ["day", "action", *TRACE_OBS, "obs_relative_humidity",
                                  *TRACE_INFO]
    assert {len(ln.split(",")) for ln in data} == {2 + 7 + len(TRACE_INFO)}


def test_trace_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["trace", "interval:30", "--case", "S2uae", *ARGS,
                    "--out", out]) == 0
    assert read(a / "S2uae_trace.csv") == read(b / "S2uae_trace.csv")


def test_report_incomplete_and_complete(tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    rc = run(["report", "--dir", work, "--out", work])
    assert rc == 2
    text = (work / "report.csv").read_text()
    assert "incomplete" in text

    # Fill in every case at a tiny budget, then the report completes.
    for name in ("S1exp", "S2exp", "S3exp", "S4exp", "S5exp",
                 "S1uae", "S2uae", "S3uae", "S4uae", "S5uae"):
        assert run(["simopt", "--case", name, *ARGS, "--reps", "2",
                    "--zmax", "30", "--out", work]) == 0
        assert run(["eval", "interval:25", "--case", name, *ARGS,
                    "--episodes", "2", "--out", work]) == 0
    rc = run(["report", "--dir", work, "--out", work])
    assert rc == 0
    lines = (work / "report.csv").read_text().splitlines()
    rows = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(rows) == 10
    assert all(ln.endswith("ok") for ln in rows)


def test_report_covers_every_case_it_finds(tmp_path):
    """The presets in their order, then every other label with a summary,
    sorted: an unnamed config's is ``custom``."""
    runs = tmp_path / "runs"
    for name, commands in [("site_b", ("simopt", "eval")), ("", ("simopt", "eval")),
                           ("only_simopt", ("simopt",))]:
        path = tmp_path / f"{name or 'unnamed'}.json"
        save_config(preset("S2uae", horizon_years=1, name=name), path)
        if "simopt" in commands:
            assert run(["simopt", "--case", path, "--reps", "2", "--zmax", "10",
                        "--out", runs]) == 0
        if "eval" in commands:
            assert run(["eval", "interval:7", "--case", path, "--episodes", "2",
                        "--out", runs]) == 0
    assert run(["report", "--dir", runs, "--out", runs]) == 2
    rows = [ln.split(",") for ln in (runs / "report.csv").read_text().splitlines()[2:]]
    assert [row[0] for row in rows] == [*PRESETS, "custom", "only_simopt", "site_b"]
    assert [row[-1] for row in rows] == ["incomplete"] * 10 + ["ok", "incomplete", "ok"]
    assert rows[10][1:-1] == rows[12][1:-1]


def test_config_file_scenario(tmp_path):
    cfg = preset("S3exp", horizon_years=1, name="custom3")
    path = tmp_path / "scenario.json"
    save_config(cfg, path)
    rc = run(["simopt", "--case", path, "--reps", "2", "--zmax", "10",
              "--out", tmp_path])
    assert rc == 0
    assert (tmp_path / "custom3_simopt_curve.csv").exists()


def test_unknown_case_is_an_error(tmp_path):
    rc = run(["simopt", "--case", "S9exp", "--out", tmp_path])
    assert rc == 1


def test_bad_policy_file_is_an_error(tmp_path):
    bogus = tmp_path / "bogus.txt"
    bogus.write_text("nonsense\n")
    rc = run(["eval", bogus, "--case", "S1exp", *ARGS, "--out", tmp_path])
    assert rc == 1


def test_truncated_policy_file_is_an_error(tmp_path, capsys):
    policy = tmp_path / "policy.txt"
    save_net(DenseNet([6, 8, 2], ["relu", "softmax"], seed=0), policy)
    policy.write_text("".join(policy.read_text().splitlines(keepends=True)[:-2]))
    rc = run(["eval", policy, "--case", "S1exp", *ARGS, "--out", tmp_path])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "policy.txt" in err[0]


@pytest.mark.parametrize("argv", [
    ["eval", "interval:20", "--episodes", "0"],
    ["simopt", "--reps", "0"],
])
def test_zero_replications_is_an_error(tmp_path, capsys, argv):
    rc = run([*argv, "--case", "S1exp", *ARGS, "--out", tmp_path])
    captured = capsys.readouterr()
    assert rc == 1
    assert "nan" not in captured.out
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("command", [["simopt", "--reps", "2", "--zmax", "3"],
                                     ["eval", "interval:20", "--episodes", "1"]])
def test_negative_seed_is_an_error(tmp_path, capsys, command):
    rc = run([*command, "--case", "S1exp", "--horizon", "1", "--seed", "-1",
              "--out", tmp_path])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: seed must be >= 0: -1"]


def test_nan_tariff_config_is_an_error(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    save_config(preset("S1exp", horizon_years=1), path)
    path.write_text(path.read_text().replace('"tariff": 0.073', '"tariff": NaN'))
    rc = run(["eval", "interval:20", "--case", path, "--episodes", "1", "--out", tmp_path])
    captured = capsys.readouterr()
    assert rc == 1
    assert "nan" not in captured.out
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "tariff" in err[0]


def test_header_only_summary_is_an_error(tmp_path, capsys):
    (tmp_path / "S1exp_simopt_summary.csv").write_text(
        "# case=S1exp\ncase,z_star,mean_cleanings,mean_total_cost\n")
    rc = run(["report", "--dir", tmp_path, "--out", tmp_path])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "S1exp_simopt_summary.csv" in err[0]


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("PVCLEAN_OUT_DIR", str(tmp_path))
    rc = run(["eval", "interval:30", "--case", "S1exp", *ARGS,
              "--episodes", "1"])
    assert rc == 0
    assert (tmp_path / "S1exp_eval_summary.csv").exists()


def config_error(tmp_path, capsys, edit):
    """Run ``eval`` on a config file changed by ``edit``; return stderr lines."""
    path = tmp_path / "scenario.json"
    save_config(preset("S1exp", horizon_years=1), path)
    path.write_text(edit(path.read_text()))
    rc = run(["eval", "interval:20", "--case", path, "--episodes", "1", "--out", tmp_path])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: ")
    return err[0]


def test_string_include_humidity_config_is_an_error(tmp_path, capsys):
    err = config_error(tmp_path, capsys, lambda text: text.replace(
        '"include_humidity": false', '"include_humidity": "no"'))
    assert "include_humidity" in err


def test_list_config_is_an_error(tmp_path, capsys):
    err = config_error(tmp_path, capsys, lambda text: f"[{text}]")
    assert err.endswith("config must be a JSON object")


def test_short_cubic_config_is_an_error(tmp_path, capsys):
    err = config_error(tmp_path, capsys, lambda text: re.sub(
        r'"cubic": \[[^\]]*\]', '"cubic": [-0.0026]', text))
    assert "cubic" in err


@pytest.mark.parametrize("field, value", [
    ("horizon_years", True), ("start_month", True), ("seed", False),
    ("annual_degradation", "0.05"), ("eff_max", "0.192"),
    ("name", 5), ("weather_model_path", ["model.csv"]),
])
def test_wrong_typed_config_value_is_an_error(tmp_path, capsys, field, value):
    def edit(text):
        data = json.loads(text)
        (data["soiling"] if field in data["soiling"] else data)[field] = value
        return json.dumps(data)
    assert field in config_error(tmp_path, capsys, edit)


def test_non_integer_interval_policy_is_an_error(tmp_path, capsys):
    rc = run(["eval", "interval:abc", "--case", "S1exp", *ARGS, "--out", tmp_path])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.splitlines() == [
        "error: 'interval:abc': interval:Z needs an integer Z"]


@pytest.mark.parametrize("z", ["\n1", " 7", "1_0", "\u0661", "7\u2028"])
def test_interval_other_than_ascii_digits_is_an_error(tmp_path, capsys, z):
    rc = run(["eval", "interval:" + z, "--case", "S1exp", *ARGS, "--out", tmp_path])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {'interval:' + z!r}: interval:Z needs an integer Z"]


def test_policy_path_with_a_line_break_stays_one_header_line(tmp_path):
    policy = tmp_path / "a\nb.txt"
    save_net(DenseNet([preset("S1exp").obs_dim, 4, 2], ["relu", "softmax"], seed=0), policy)
    assert run(["eval", policy, "--case", "S1exp", *ARGS, "--episodes", "1",
                "--out", tmp_path]) == 0
    lines = (tmp_path / "S1exp_eval_summary.csv").read_text().splitlines()
    assert f"# policy={tmp_path}/a\\nb.txt" in lines
    assert [ln for ln in lines if not ln.startswith("#")][0] == (
        "case,mean_cleanings,mean_total_cost")


def test_nan_training_reward_is_an_error(tmp_path, capsys, nan_rewards):
    rc = run(["train", "sac", "--case", "S1exp", *ARGS, "--episodes", "1", "--out", tmp_path])
    captured = capsys.readouterr()
    assert rc == 1
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "non-finite reward" in err[0]
    assert not list(tmp_path.iterdir())


def test_cli_runs_without_scipy(tmp_path):
    # scipy is a test-only dependency: a fresh interpreter running simopt
    # and PPO training never imports it.
    code = textwrap.dedent(f"""
        import json, sys
        from pvclean.cli import main
        codes = [main(["simopt", "--case", "S1exp", "--horizon", "1", "--out", {str(tmp_path)!r}]),
                 main(["train", "ppo", "--case", "S1exp", "--horizon", "1", "--episodes", "1",
                       "--out", {str(tmp_path)!r}])]
        print(json.dumps({{"codes": codes, "scipy": sorted(
            m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}}))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(pvclean.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0], "scipy": []}


def one_error_line(capsys):
    """The single ``error:`` line a failed command printed, with no traceback."""
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), captured.err
    return err[0]


def test_case_naming_a_directory_is_an_error(tmp_path, capsys):
    rc = run(["simopt", "--case", tmp_path, *ARGS, "--reps", "2", "--zmax", "3",
              "--out", tmp_path / "out"])
    assert rc == 1
    assert str(tmp_path) in one_error_line(capsys)


def test_policy_naming_a_directory_is_an_error(tmp_path, capsys):
    rc = run(["eval", tmp_path, "--case", "S1exp", *ARGS, "--out", tmp_path / "out"])
    assert rc == 1
    assert str(tmp_path) in one_error_line(capsys)


def test_weather_model_path_naming_a_directory_is_an_error(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    save_config(preset("S1exp", horizon_years=1, weather_model_path=str(tmp_path)), path)
    rc = run(["eval", "interval:20", "--case", path, "--episodes", "1", "--out", tmp_path])
    assert rc == 1
    assert str(tmp_path) in one_error_line(capsys)


@pytest.mark.parametrize("dims, acts", [
    ([6, 8, 1], ["relu", "linear"]),        # a critic
    ([7, 8, 2], ["relu", "softmax"]),       # input wider than S1exp's 6 observations
    ([6, 8, 3], ["relu", "softmax"]),       # a 3-way head
], ids=["one-output", "input-width", "three-way-head"])
def test_policy_of_the_wrong_shape_is_an_error(tmp_path, capsys, dims, acts):
    policy = tmp_path / "policy.txt"
    save_net(DenseNet(dims, acts, seed=0), policy)
    rc = run(["eval", policy, "--case", "S1exp", *ARGS, "--episodes", "1", "--out", tmp_path])
    assert rc == 1
    assert one_error_line(capsys).startswith(f"error: {policy}: dims {dims}")


def test_weather_model_error_names_the_config_and_the_model(tmp_path, capsys):
    model = tmp_path / "model.csv"
    model.write_text("month,variable,family,params,clamp_lo,clamp_hi\n")
    path = tmp_path / "scenario.json"
    save_config(preset("S1exp", horizon_years=1, weather_model_path=str(model)), path)
    rc = run(["eval", "interval:20", "--case", path, "--episodes", "1", "--out", tmp_path])
    assert rc == 1
    assert one_error_line(capsys) == (f"error: {model}: missing cell month=1 "
                                      f"variable=temperature (the weather_model_path of {path})")


def test_out_naming_a_file_is_an_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    rc = run(["eval", "interval:20", "--case", "S1exp", *ARGS, "--episodes", "1",
              "--out", out])
    assert rc == 1
    assert str(out) in one_error_line(capsys)


def test_non_utf8_config_is_an_error(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    save_config(preset("S1exp", horizon_years=1), path)
    path.write_bytes(path.read_bytes().replace(b'"S1exp"', b'"S1\xffexp"'))
    rc = run(["eval", "interval:20", "--case", path, "--episodes", "1", "--out", tmp_path])
    assert rc == 1
    assert one_error_line(capsys).startswith(f"error: {path}: ")


def test_non_utf8_weather_model_is_an_error(tmp_path, capsys):
    model = tmp_path / "model.csv"
    save_model(default_model(), model)
    model.write_bytes(model.read_bytes().replace(b"temperature", b"temp\xffrature", 1))
    path = tmp_path / "scenario.json"
    save_config(preset("S1exp", horizon_years=1, weather_model_path=str(model)), path)
    rc = run(["eval", "interval:20", "--case", path, "--episodes", "1", "--out", tmp_path])
    assert rc == 1
    assert one_error_line(capsys).startswith(f"error: {model}: ")


@pytest.mark.parametrize("command", [
    ["simopt", "--reps", "2", "--zmax", "5"],
    ["eval", "interval:5", "--episodes", "2"],
    ["trace", "interval:5"],
], ids=["simopt", "eval", "trace"])
def test_overflowing_config_is_an_error(tmp_path, capsys, command):
    # tariff * panel_area overflows, so costs are inf or nan: exit 1 and no CSV.
    path = tmp_path / "scenario.json"
    save_config(preset("S1exp", horizon_years=1, tariff=1e308, panel_area=1e308), path)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run([*command, "--case", path, "--out", out])
    assert rc == 1
    assert "non-finite" in one_error_line(capsys)
    assert not list(out.glob("*.csv"))


SIMOPT_SUMMARY = "case,z_star,mean_cleanings,mean_total_cost\nS1exp,36,10.0,{cost}\n"
EVAL_SUMMARY = "case,mean_cleanings,mean_total_cost\nS1exp,12.0,20.0\n"


@pytest.mark.parametrize("simopt_summary, names", [
    ("case,z_star,mean_cleanings\nS1exp,36,10.0\n", "S1exp_simopt_summary.csv"),
    (SIMOPT_SUMMARY.format(cost="0.0"), "S1exp_simopt_summary.csv"),
    (SIMOPT_SUMMARY.format(cost="nan"), "S1exp_simopt_summary.csv"),
    ("z_star,mean_cleanings,mean_total_cost\n36,10.0,24.8\n", "S1exp_simopt_summary.csv"),
    (SIMOPT_SUMMARY.format(cost="24.8") + "S2exp,1,1.0,1.0\n", "S1exp_simopt_summary.csv"),
    (SIMOPT_SUMMARY.format(cost="24.8,999"), "S1exp_simopt_summary.csv"),
    (SIMOPT_SUMMARY.format(cost="24.8").replace("S1exp", "S9exp"), "S1exp_simopt_summary.csv"),
], ids=["no-cost-column", "zero-cost", "nan-cost", "no-case-column", "second-row",
        "wider-row", "other-case"])
def test_bad_summary_is_a_report_error(tmp_path, capsys, simopt_summary, names):
    (tmp_path / "S1exp_simopt_summary.csv").write_text(simopt_summary)
    (tmp_path / "S1exp_eval_summary.csv").write_text(EVAL_SUMMARY)
    rc = run(["report", "--dir", tmp_path, "--out", tmp_path])
    assert rc == 1
    assert str(tmp_path / names) in one_error_line(capsys)
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("simopt_summary, column", [
    (SIMOPT_SUMMARY.format(cost="abc"), "mean_total_cost"),
    ("case,z_star,mean_cleanings,mean_total_cost\nS1exp,x,10.0,24.8\n", "z_star"),
], ids=["text-cost", "text-z-star"])
def test_unparsable_summary_value_is_a_report_error(tmp_path, capsys, simopt_summary, column):
    path = tmp_path / "S1exp_simopt_summary.csv"
    path.write_text(simopt_summary)
    (tmp_path / "S1exp_eval_summary.csv").write_text(EVAL_SUMMARY)
    rc = run(["report", "--dir", tmp_path, "--out", tmp_path])
    assert rc == 1
    line = one_error_line(capsys)
    assert str(path) in line and column in line
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("kind, column, value", [
    ("simopt", "z_star", "0"),
    ("simopt", "z_star", "-3"),
    ("simopt", "mean_cleanings", "-5.0"),
    ("simopt", "mean_total_cost", "-24.8"),
    ("eval", "mean_cleanings", "-0.5"),
    ("eval", "mean_total_cost", "-1.0"),
])
def test_summary_value_no_run_writes_is_a_report_error(tmp_path, capsys, kind, column, value):
    """z_star is at least 1, and counts and costs are at least 0."""
    rows = {"simopt": {"case": "S1exp", "z_star": "36", "mean_cleanings": "10.0",
                       "mean_total_cost": "24.8"},
            "eval": {"case": "S1exp", "mean_cleanings": "12.0", "mean_total_cost": "20.0"}}
    rows[kind][column] = value
    for k, row in rows.items():
        (tmp_path / f"S1exp_{k}_summary.csv").write_text(
            ",".join(row) + "\n" + ",".join(row.values()) + "\n")
    rc = run(["report", "--dir", tmp_path, "--out", tmp_path])
    assert rc == 1
    line = one_error_line(capsys)
    assert str(tmp_path / f"S1exp_{kind}_summary.csv") in line and column in line, line
    assert not (tmp_path / "report.csv").exists()


def test_non_finite_saving_names_both_summaries(tmp_path, capsys):
    """Finite costs whose saving overflows are blamed on the two summaries."""
    sim, ev = tmp_path / "S1exp_simopt_summary.csv", tmp_path / "S1exp_eval_summary.csv"
    sim.write_text(SIMOPT_SUMMARY.format(cost="1e-308"))
    ev.write_text("case,mean_cleanings,mean_total_cost\nS1exp,12.0,1e308\n")
    rc = run(["report", "--dir", tmp_path, "--out", tmp_path])
    assert rc == 1
    line = one_error_line(capsys)
    assert str(sim) in line and str(ev) in line and "report.csv" not in line, line
    assert not (tmp_path / "report.csv").exists()


def test_report_dir_that_is_not_a_directory_is_an_error(tmp_path, capsys):
    rc = run(["report", "--dir", tmp_path / "missing", "--out", tmp_path])
    assert rc == 1
    assert str(tmp_path / "missing") in one_error_line(capsys)
    assert not (tmp_path / "report.csv").exists()


def test_horizon_beyond_bound_is_an_error(tmp_path, capsys, monkeypatch):
    def no_weather(*args, **kwargs):
        raise AssertionError("weather drawn")

    monkeypatch.setattr(weather, "generate_weather", no_weather)
    rc = run(["simopt", "--case", "S1exp", "--horizon", "1000000", "--out", tmp_path])
    assert rc == 1
    assert "horizon_years must be in 1..100" in one_error_line(capsys)


def run_capped(argv, cwd):
    """``pvclean argv`` in a fresh interpreter capped at 1.5 GB of address
    space and 60 s, so a command that allocates without bound fails there."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    env = dict(os.environ, PYTHONPATH=str(Path(pvclean.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "pvclean.cli", *map(str, argv)], cwd=cwd,
                          env=env, preexec_fn=cap, capture_output=True, text=True, timeout=60)


def capped_error_line(proc):
    """The single ``error:`` line of a capped run that exited 1 with no output."""
    err = proc.stderr.splitlines()
    assert proc.returncode == 1 and len(err) == 1 and err[0].startswith("error:"), proc.stderr
    assert proc.stdout == ""
    return err[0]


@pytest.mark.parametrize("argv, message", [
    (["simopt", "--reps", "100000000"],
     "--reps x horizon days is 730,000,000,000, more than 2,000,000"),
    (["eval", "interval:7", "--episodes", "100000000"],
     "--episodes x horizon days is 730,000,000,000, more than 2,000,000"),
    (["simopt", "--zmax", "1000000000"], "--zmax x --reps is 30,000,000,000, more than 100,000"),
    (["train", "ppo", "--episodes", "100000000"], "--episodes is 100,000,000, more than 100,000"),
], ids=["reps", "eval-episodes", "zmax", "train-episodes"])
def test_count_beyond_its_bound_is_an_error(tmp_path, argv, message):
    proc = run_capped([*argv, "--case", "S1exp", "--out", tmp_path / "out"], tmp_path)
    assert capped_error_line(proc) == f"error: {message}"
    assert list(tmp_path.iterdir()) == []


def test_count_bounds_admit_thirty_replications_of_the_longest_horizon(tmp_path, capsys,
                                                                       monkeypatch):
    # An admitted command gets as far as its computation; one count past a
    # bound does not.
    def reached(*args, **kwargs):
        raise ValueError("reached")

    for module, name in [(cli.simopt, "optimize"), (cli.agents, "evaluate"),
                         (cli.agents, "train")]:
        monkeypatch.setattr(module, name, reached)
    for argv, admitted in [
        (["simopt", "--horizon", "100", "--reps", "30"], True),
        (["simopt", "--horizon", "100", "--reps", "54"], True),
        (["simopt", "--horizon", "100", "--reps", "55"], False),
        (["simopt", "--horizon", "1", "--reps", "1", "--zmax", "100000"], True),
        (["simopt", "--horizon", "1", "--reps", "2", "--zmax", "50001"], False),
        (["eval", "interval:7", "--horizon", "100", "--episodes", "54"], True),
        (["eval", "interval:7", "--horizon", "100", "--episodes", "55"], False),
        (["train", "sac", "--horizon", "1", "--episodes", "100000"], True),
        (["train", "sac", "--horizon", "1", "--episodes", "100001"], False),
    ]:
        assert run([*argv, "--case", "S1exp", "--out", tmp_path]) == 1
        assert (one_error_line(capsys) == "error: reached") == admitted, argv


def simopt_with_humidity_beta(tmp_path, shapes):
    """The capped ``simopt`` run of a config whose model has February's
    relative humidity as beta(0, 100, ``shapes``); returns the model's path
    and the config's."""
    model = tmp_path / "model.csv"
    save_model(default_model(), model)
    model.write_text("".join(
        f"2,relative_humidity,beta,0;100;{shapes},1.0,100.0\n"
        if line.startswith("2,relative_humidity,") else line
        for line in model.read_text().splitlines(keepends=True)))
    path = tmp_path / "scenario.json"
    save_config(preset("S1exp", horizon_years=1, weather_model_path=str(model)), path)
    proc = run_capped(["simopt", "--case", path, "--reps", "2", "--zmax", "10",
                       "--out", tmp_path / "out"], tmp_path)
    return capped_error_line(proc), model, path


@pytest.mark.parametrize("shapes", ["1e155;1e155", "1e308;1e308"])
def test_cheng_beta_whose_2ab_overflows_is_an_error(tmp_path, shapes):
    # 2ab = inf: Cheng BB's constants were 1/0 (a ZeroDivisionError) at
    # 1e155 and NaN at 1e308, where the draw never accepted an attempt.
    line, model, path = simopt_with_humidity_beta(tmp_path, shapes)
    assert str(model) in line and "2ab finite" in line and str(path) in line


def test_johnk_beta_that_accepts_too_rarely_is_an_error(tmp_path):
    # b = 1e300: v^(1/b) rounds to 1, so no attempt is accepted.  The draw
    # gives up at its block bound, after the scenario has loaded, and the
    # weather layer names the model's file.
    line, model, _ = simopt_with_humidity_beta(tmp_path, "0.5;1e300")
    assert line == (f"error: {model}: beta(0.0, 100.0, 0.5, 1e+300): fewer than 28 draws "
                    f"in a block of 14,848 uniforms: it accepts too few attempts to draw")
    assert list((tmp_path / "out").iterdir()) == []
