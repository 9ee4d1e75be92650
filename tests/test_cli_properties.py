"""Property harness for the CLI's input handling.

A valid input file gets one mutation, and ``pvclean eval`` on it must
either exit 0 with a finite summary CSV or exit 1 with exactly one
``error:`` line that names the mutated file; no exception may escape
``cli.main``.  Three inputs are mutated:

* a 1-year scenario config: a field swapped for another JSON type or for a
  number it must reject or survive;
* the weather-model CSV a config points to: a row cut short, deleted or
  duplicated, a parameter made text, NaN, inf, 1e400, 1e308, 1e-308 or
  empty, an unknown family, the wrong arity, or clamps out of order;
* a policy file: a weight made nan, inf or text, a line dropped or
  duplicated, the dims or activations line altered, or the file replaced
  by a well-formed net of the wrong input or output width.

``pvclean report`` reads a simopt or eval summary CSV with one mutation (a
column dropped or renamed; a value made text, nan, inf, 1e400, 1e308,
1e-308, 0, negative, empty or another case; the data row removed, a second
one added, or a value added to it), and must exit 2 with a well-formed
report or exit 1 with one ``error:`` line naming the summary.

Each file may also be truncated at a random byte, get one 0xff byte, or
be replaced by a directory.

Each subcommand's valid argv gets one mutation: a flag's value made text,
0, negative, a float, empty or past its bound; a flag dropped, repeated
or unknown; or a junk ``interval:`` policy.  It must exit 0 with
well-formed outputs, exit 1 with one ``error:`` line, or exit 2 after
argparse's usage and ``error:`` lines (argparse's own contract, kept).
Every CSV it writes has the name and the columns of one kind of
``cli._OUTPUTS``.
"""

import contextlib
import io
import json
import math
import re
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_cli import run_capped

from pvclean import cli
from pvclean.environment import FEATURE_SCALES, CleaningEnv, preset, save_config
from pvclean.nn import DenseNet, load_net, save_net
from pvclean.soiling import SoilingParams
from pvclean.weather import default_model, save_model

VALID = preset("S1exp", horizon_years=1)
FIELDS = [(k,) for k in asdict(VALID)] + [("soiling", k) for k in asdict(VALID.soiling)]

# Strings lean on characters that a file name or a CSV field cannot carry.
TEXT = st.text(st.sampled_from(",\n#/.\x00\ud800") | st.characters(), max_size=6)

VALUES = st.one_of(
    TEXT,
    st.lists(st.one_of(st.integers(-2, 2), TEXT), max_size=4),
    st.dictionaries(TEXT, st.integers(-2, 2), max_size=2),
    st.booleans(),
    st.none(),
    # Non-finite, huge (as floats and as JSON integers past the float
    # range), zero and negative numbers.
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 10**400, -10**400,
                     0, 0.0]),
    st.integers(max_value=-1),
    st.floats(max_value=-1e-300, allow_infinity=False),
)

# Mutations that apply to any file.
ANY_FILE = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.just("byte"), st.integers(0, 10**6)),
    st.tuples(st.just("directory")),
)

CONFIG_MUTATIONS = st.tuples(st.just("field"), st.sampled_from(FIELDS), VALUES) | ANY_FILE

# A model file has a header line and 60 rows; the params field is the fourth.
ROW = st.integers(0, 60)
MODEL_MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), ROW, st.integers(0, 5), st.integers(1, 6)),
    st.tuples(st.just("delete"), ROW),
    st.tuples(st.just("duplicate"), ROW),
    st.tuples(st.just("param"), ROW, st.integers(0, 3),
              st.sampled_from(["abc", "nan", "NaN", "inf", "-inf", "1e400", "", "1e308",
                               "1e-308"])),
    st.tuples(st.just("family"), ROW, st.sampled_from(["cauchy", "", "normal", "beta"])),
    st.tuples(st.just("arity"), ROW, st.sampled_from([-1, 1])),
    st.tuples(st.just("clamps"), ROW, st.booleans()),
    ANY_FILE,
)

# The policy file: a header of three lines, then weight and bias rows.
POLICY = DenseNet([VALID.obs_dim, 8, 2], ["relu", "softmax"], seed=0)
POLICY_LINES = 3 + 8 + 1 + 2 + 1
LINE = st.integers(0, POLICY_LINES - 1)
POLICY_MUTATIONS = st.one_of(
    st.tuples(st.just("weight"), st.integers(3, POLICY_LINES - 1), st.integers(0, 10),
              st.sampled_from(["nan", "inf", "-inf", "abc"])),
    st.tuples(st.just("delete"), LINE),
    st.tuples(st.just("duplicate"), LINE),
    st.tuples(st.just("dims"), st.lists(st.integers(-1, 9).map(str) | st.just("x"), max_size=4)),
    st.tuples(st.just("activations"),
              st.lists(st.sampled_from(["relu", "linear", "softmax", "tanh"]), max_size=3)),
    st.tuples(st.just("net"), st.sampled_from([1, 3, 5, 7, 8]), st.sampled_from([1, 2, 3])),
    ANY_FILE,
)


def mutate_any(path: Path, mutation) -> bool:
    """Apply a mutation of ``ANY_FILE``; False if ``mutation`` is not one."""
    kind, *args = mutation
    raw = path.read_bytes()
    if kind == "truncate":
        path.write_bytes(raw[:args[0] % len(raw)])
    elif kind == "byte":
        at = args[0] % len(raw)
        path.write_bytes(raw[:at] + b"\xff" + raw[at + 1:])
    elif kind == "directory":
        path.unlink()
        path.mkdir()
    else:
        return False
    return True


def mutate(path: Path, mutation) -> None:
    """Apply one of ``CONFIG_MUTATIONS`` to a config file."""
    if not mutate_any(path, mutation):
        _, keys, value = mutation
        data = json.loads(path.read_bytes())
        (data["soiling"] if len(keys) == 2 else data)[keys[-1]] = value
        path.write_text(json.dumps(data))


def mutate_model(path: Path, mutation) -> None:
    """Apply one of ``MODEL_MUTATIONS`` to a weather-model CSV."""
    if mutate_any(path, mutation):
        return
    kind, row, *args = mutation
    lines = path.read_text().splitlines()
    fields = lines[row].split(",")
    params = fields[3].split(";")
    if kind == "drop":
        start, count = args
        del fields[start:start + count]
    elif kind == "delete":
        del lines[row]
    elif kind == "duplicate":
        lines.insert(row, lines[row])
    elif kind == "param":
        at, value = args
        params[at % len(params)] = value
    elif kind == "family":
        fields[2] = args[0]
    elif kind == "arity":
        params = params[:-1] if args[0] < 0 else params + ["1.0"]
    else:  # clamps: swapped, or equal
        fields[4:6] = fields[5:3:-1] if args[0] else fields[4:5] * 2
    if kind not in ("delete", "duplicate"):
        if kind in ("param", "arity"):
            fields[3] = ";".join(params)
        lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def mutate_policy(path: Path, mutation) -> None:
    """Apply one of ``POLICY_MUTATIONS`` to a policy file."""
    if mutate_any(path, mutation):
        return
    kind, *args = mutation
    lines = path.read_text().splitlines()
    if kind == "weight":
        line, at, value = args
        row = lines[line].split()
        row[at % len(row)] = value
        lines[line] = " ".join(row)
    elif kind == "delete":
        del lines[args[0]]
    elif kind == "duplicate":
        lines.insert(args[0], lines[args[0]])
    elif kind == "dims":
        lines[1] = " ".join(["dims", *args[0]])
    elif kind == "activations":
        lines[2] = " ".join(["activations", *args[0]])
    else:  # net: a well-formed net of another input or output width
        n_in, n_out = args
        save_net(DenseNet([n_in, 4, n_out], ["relu", "softmax"], seed=1), path)
        return
    path.write_text("\n".join(lines) + "\n")


def run_eval(case, out: Path, policy="interval:7", *flags):
    """``pvclean eval`` in-process: its exit code and stderr lines."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        rc = cli.main(["eval", str(policy), "--case", str(case), *flags, "--episodes", "2",
                       "--out", str(out)])
    return rc, stderr.getvalue().splitlines()


def assert_finite_summary_or_one_error(rc, err, out: Path, mutated: Path):
    """Exit 0 with a well-formed, finite summary CSV, or exit 1 with one
    ``error:`` line that names ``mutated``."""
    if rc == 0:
        (summary,) = out.glob("*_eval_summary.csv")
        rows = [ln.split(",") for ln in summary.read_text().splitlines()
                if not ln.startswith("#")]
        assert rows[0] == ["case", "mean_cleanings", "mean_total_cost"] and len(rows) == 2
        assert len(rows[1]) == 3 and all(math.isfinite(float(v)) for v in rows[1][1:])
    else:
        assert rc == 1 and len(err) == 1 and err[0].startswith("error:"), err
        assert str(mutated) in err[0], err


@settings(max_examples=200, deadline=None)
@given(mutation=CONFIG_MUTATIONS)
# Faults this harness found: an integer past the float range escaped as
# OverflowError, an unknown key holding a newline made a two-line error,
# a name with a ',' or a newline wrote a malformed CSV, and one with '../'
# wrote outside --out; an inadmissible cubic gave a negative cost.
@example(mutation=("field", ("tariff",), 10**400))
@example(mutation=("field", ("soiling", "humidity_k"), -10**400))
@example(mutation=("field", ("soiling",), {"\n": 0}))
@example(mutation=("field", ("name",), "a,b"))
@example(mutation=("field", ("name",), "a\nb"))
@example(mutation=("field", ("name",), "../x"))
@example(mutation=("field", ("soiling", "cubic"), [1, 2, 3]))
@example(mutation=("field", ("tariff",), 1e308))
@example(mutation=("field", ("weather_model_path",), "\x00"))
def test_mutated_config_gives_a_finite_result_or_one_error_line(mutation):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "case.json", Path(tmp) / "out"
        save_config(VALID, path)
        mutate(path, mutation)
        rc, err = run_eval(path, out)
        assert_finite_summary_or_one_error(rc, err, out, path)


# The model file's header line, with its CRLF: truncating there leaves no rows.
HEADER_BYTES = 48


@settings(max_examples=200, deadline=None)
@given(mutation=MODEL_MUTATIONS)
# Faults this harness pins: a row without params ended in an AttributeError,
# one without clamp_hi in a TypeError, and a header-only file's error did
# not name the file.
@example(mutation=("drop", 3, 3, 3))
@example(mutation=("drop", 3, 5, 1))
@example(mutation=("truncate", HEADER_BYTES))
def test_mutated_weather_model_gives_a_finite_result_or_one_error_line(mutation):
    with tempfile.TemporaryDirectory() as tmp:
        model, path, out = Path(tmp) / "model.csv", Path(tmp) / "case.json", Path(tmp) / "out"
        save_model(default_model(), model)
        assert len(model.read_bytes().splitlines(keepends=True)[0]) == HEADER_BYTES
        mutate_model(model, mutation)
        save_config(preset("S1exp", horizon_years=1, weather_model_path=str(model)), path)
        rc, err = run_eval(path, out)
        assert_finite_summary_or_one_error(rc, err, out, model)


@settings(max_examples=200, deadline=None)
@given(mutation=POLICY_MUTATIONS)
# Faults this harness pins: NaN and inf weights loaded and ran, a critic's
# one output never cleaned, and errors for a wrong input width, a 3-way
# head and a non-UTF-8 file did not name the file.
@example(mutation=("weight", 3, 0, "nan"))
@example(mutation=("weight", 11, 0, "inf"))
@example(mutation=("net", VALID.obs_dim, 1))
@example(mutation=("net", VALID.obs_dim + 1, 2))
@example(mutation=("net", VALID.obs_dim, 3))
@example(mutation=("byte", 30))
def test_mutated_policy_gives_a_finite_result_or_one_error_line(mutation):
    with tempfile.TemporaryDirectory() as tmp:
        policy, out = Path(tmp) / "policy.txt", Path(tmp) / "out"
        save_net(POLICY, policy)
        assert len(policy.read_text().splitlines()) == POLICY_LINES
        mutate_policy(policy, mutation)
        rc, err = run_eval("S1exp", out, policy, "--horizon", "1")
        assert_finite_summary_or_one_error(rc, err, out, policy)


@st.composite
def inadmissible_cubics(draw):
    """A cubic whose efficiency exceeds eff_max at a drawn soiling level
    s > 0, where c3 s^2 + c2 s + c1 = delta > 0."""
    s = draw(st.floats(1e-3, 1e3))
    c3, c2 = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
    delta = draw(st.floats(1e-6, 1.0))
    return c3, c2, delta - c3 * s * s - c2 * s


@settings(max_examples=50, deadline=None)
@given(cubic=inadmissible_cubics())
@example(cubic=(1, 2, 3))
def test_inadmissible_cubic_is_one_error_line(cubic):
    with pytest.raises(ValueError, match="cubic"):
        SoilingParams(cubic=cubic)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.json"
        save_config(VALID, path)
        mutate(path, ("field", ("soiling", "cubic"), list(cubic)))
        rc, err = run_eval(path, Path(tmp) / "out")
    assert rc == 1 and len(err) == 1 and err[0].startswith(f"error: {path}: ") and "cubic" in err[0]


# Each summary's file name, columns and types come from the table that cli
# writes and reads them by; a valid row holds one value of each type.
SUMMARIES = {kind: columns for kind, (_, columns) in cli._OUTPUTS.items()
             if kind.endswith("_summary")}
SUMMARY_VALUES = {str: "S1exp", int: 36, float: 24.8}
COLUMN = st.integers(0, 10)
SUMMARY_MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), COLUMN),
    st.tuples(st.just("rename"), COLUMN,
              st.sampled_from(["", "x", *SUMMARIES["simopt_summary"]])),
    st.tuples(st.just("value"), COLUMN, st.sampled_from(
        ["abc", "nan", "inf", "-inf", "1e400", "", "1e308", "1e-308", "0", "-0.0", "-1", "-5.0",
         "S9exp", "S2exp"])),
    st.tuples(st.just("header-only")),
    st.tuples(st.just("append"), st.sampled_from(["S2exp,1,1.0,1.0", "S1exp,12.0,20.0", ""])),
    st.tuples(st.just("widen"), st.sampled_from(["999", ""])),
    ANY_FILE,
)


def write_summaries(directory: Path) -> None:
    """A valid S1exp summary of each kind in ``directory``."""
    for kind, columns in SUMMARIES.items():
        cli._write_csv(directory, kind, ["# case=S1exp"],
                       [[SUMMARY_VALUES[t] for t, _ in columns.values()]], label="S1exp")


def mutate_summary(path: Path, mutation) -> None:
    """Apply one of ``SUMMARY_MUTATIONS`` to a summary CSV."""
    if mutate_any(path, mutation):
        return
    kind, *args = mutation
    comment, header, row = [line.split(",") for line in path.read_text().splitlines()]
    if kind == "header-only":
        row = None
    elif kind == "append":
        path.write_text(path.read_text() + args[0] + "\n")
        return
    elif kind == "widen":
        row.append(args[0])
    else:
        at = args[0] % len(header)
        if kind == "drop":
            del header[at], row[at]
        elif kind == "rename":
            header[at] = args[1]
        else:
            row[at] = args[1]
    path.write_text("".join(",".join(line) + "\n" for line in (comment, header, row) if line))


def run_main(argv) -> tuple:
    """``cli.main(argv)`` in-process: its exit code, argparse's included, and
    its stderr lines."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            rc = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            rc = exc.code
    return rc, stderr.getvalue().splitlines()


def output_kinds(name: str) -> list:
    """The kinds of ``cli._OUTPUTS`` whose file name pattern ``name`` matches."""
    return [kind for kind, (pattern, _) in cli._OUTPUTS.items()
            if re.fullmatch(re.sub(r"\\\{\w+\\\}", ".+", re.escape(pattern)), name)]


def trace_columns(config) -> list:
    """The columns a trace of ``config`` adds to its kind's: the observations,
    then the keys of ``CleaningEnv.step``'s info after ``day``."""
    env = CleaningEnv(config)
    env.reset()
    day, *info = env.step(np.zeros(1, dtype=int)).info
    return [f"obs_{name}" for name in list(FEATURE_SCALES)[:config.obs_dim]] + info


def assert_well_formed(out: Path) -> None:
    """Every CSV in ``out`` has the name and the columns of one kind of
    ``cli._OUTPUTS``, rows as wide as its header and finite numbers, and
    every policy file loads."""
    for path in out.glob("*.csv"):
        rows = [ln.split(",") for ln in path.read_text().splitlines() if not ln.startswith("#")]
        (kind,) = output_kinds(path.name)
        extra = trace_columns(VALID) if kind == "trace" else []
        assert rows[0] == [*cli._OUTPUTS[kind][1], *extra], path
        assert len(rows) >= 2 and {len(r) for r in rows} == {len(rows[0])}, path
        for value in (v for r in rows[1:] for v in r):
            with contextlib.suppress(ValueError):
                assert math.isfinite(float(value)), path
    for path in out.glob("*_policy.txt"):
        load_net(path)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(list(SUMMARIES)), mutation=SUMMARY_MUTATIONS)
# Faults this harness pins: a non-finite cost, or a finite one that makes
# the saving non-finite, was blamed on report.csv; a non-UTF-8 summary's
# error did not name the file; a z_star of 0 and a negative count or cost
# made a report; a second data row, a row wider than the header and
# another case's row made an ok row.
@example(kind="simopt_summary", mutation=("value", 3, "nan"))
@example(kind="eval_summary", mutation=("value", 2, "1e400"))
@example(kind="simopt_summary", mutation=("value", 3, "1e-308"))
@example(kind="eval_summary", mutation=("byte", 3))
@example(kind="simopt_summary", mutation=("value", 1, "0"))
@example(kind="simopt_summary", mutation=("value", 2, "-5.0"))
@example(kind="eval_summary", mutation=("value", 2, "-1"))
@example(kind="simopt_summary", mutation=("append", "S2exp,1,1.0,1.0"))
@example(kind="eval_summary", mutation=("widen", "999"))
@example(kind="eval_summary", mutation=("value", 0, "S9exp"))
def test_mutated_summary_gives_a_report_or_one_error_line(kind, mutation):
    with tempfile.TemporaryDirectory() as tmp:
        runs, out = Path(tmp) / "runs", Path(tmp) / "out"
        runs.mkdir()
        write_summaries(runs)
        mutated = runs / cli._OUTPUTS[kind][0].format(label="S1exp")
        mutate_summary(mutated, mutation)
        rc, err = run_main(["report", "--dir", runs, "--out", out])
        if rc == 2:
            assert_well_formed(out)
            # Only values a run can write reach the report: z_star at least
            # 1, counts and costs at least 0, from a summary of one data row
            # as wide as its header whose case is the row's.
            rows = (out / "report.csv").read_text().splitlines()[2:]
            for row in (r.split(",") for r in rows if r.endswith(",ok")):
                assert int(row[1]) >= 1 and min(map(float, row[2:6])) >= 0.0, row
                header, *data = [ln.split(",") for ln in mutated.read_text().splitlines()
                                 if not ln.startswith("#")]
                assert len(data) == 1 and len(data[0]) == len(header), data
                assert dict(zip(header, data[0]))["case"] == row[0], (header, data)
        else:
            assert rc == 1 and len(err) == 1 and err[0].startswith("error:"), err
            assert str(mutated) in err[0], err
            assert not (out / "report.csv").exists()


# Each subcommand's valid argv: its positionals and its flags with values,
# all of them quick on the 1-year case written as CASE.  --out is never
# mutated, so nothing is written outside the test's directory.
CASE, RUNS = "case.json", "runs"
ARGVS = {
    "simopt": ([], {"--case": CASE, "--horizon": "1", "--seed": "0", "--reps": "2",
                    "--zmax": "10"}),
    "train": (["ppo"], {"--case": CASE, "--horizon": "1", "--seed": "0", "--episodes": "1"}),
    "eval": (["interval:7"], {"--case": CASE, "--horizon": "1", "--seed": "0",
                              "--episodes": "2"}),
    "trace": (["interval:7"], {"--case": CASE, "--horizon": "1", "--seed": "0"}),
    "report": ([], {"--dir": RUNS}),
}
# Past each count's bound; the bound checks run before anything is
# allocated, but these cases run capped in case one does not.
PAST_BOUND = {"--horizon": "1000000", "--seed": str(10**30), "--reps": "100000000",
              "--zmax": "1000000000", "--episodes": "100000000"}
# train's --episodes defaults to 150 episodes, too long for this harness.
NOT_DROPPED = {("train", "--episodes")}
JUNK_INTERVALS = st.sampled_from(
    ["interval:", "interval:abc", "interval:0", "interval:-3", "interval:1.5", "interval:7:8",
     "interval:1e3", "interval: 7", "interval:99999999999999999999"]
) | TEXT.map(lambda t: "interval:" + t)


@st.composite
def mutated_argvs(draw):
    """A subcommand's valid argv with one mutation, and whether it runs capped."""
    command = draw(st.sampled_from(list(ARGVS)))
    positionals, flags = ARGVS[command]
    flags = list(flags.items())
    kinds = ["value", "drop", "repeat", "unknown"] + (
        ["interval"] if positionals[:1] == ["interval:7"] else [])
    kind = draw(st.sampled_from(kinds))
    capped = False
    if kind == "interval":
        positionals = [draw(JUNK_INTERVALS)]
    elif kind == "unknown":
        flags.insert(draw(st.integers(0, len(flags))),
                     (draw(st.sampled_from(["--bogus", "-x", "--bogus=1"])), None))
    else:
        at = draw(st.integers(0, len(flags) - 1))
        flag, value = flags[at]
        if kind == "value":
            value = draw(st.sampled_from(["abc", "0", "-1", "1.5", "", "past"]))
            capped = value == "past"
            flags[at] = (flag, PAST_BOUND.get(flag, "abc") if capped else value)
        elif kind == "drop" and (command, flag) not in NOT_DROPPED:
            del flags[at]
        elif kind == "repeat":
            flags.insert(at, (flag, value))
    argv = [command, *positionals]
    for flag, value in flags:
        argv += [flag] if value is None else [flag, value]
    return argv, capped


@settings(max_examples=150, deadline=None)
@given(case=mutated_argvs())
@example(case=(["simopt", "--case", CASE, "--reps", "abc"], False))
@example(case=(["eval", "interval:", "--case", CASE, "--horizon", "1"], False))
@example(case=(["simopt", "--case", CASE, "--horizon", "1", "--reps", "100000000"], True))
# A fault this harness found: int() took 'interval:\n1' as 1, and the line
# break split the summary's header.
@example(case=(["eval", "interval:\n1", "--case", CASE, "--horizon", "1"], False))
def test_mutated_argv_exits_0_1_or_2(case):
    argv, capped = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_config(VALID, tmp / CASE)
        (tmp / RUNS).mkdir()
        write_summaries(tmp / RUNS)
        out = tmp / "out"
        # Relative paths (CASE, RUNS) resolve against tmp in both routes.
        argv = [tmp / a if a in (CASE, RUNS) else a for a in argv] + ["--out", out]
        if capped:
            proc = run_capped(argv, tmp)
            rc, err = proc.returncode, proc.stderr.splitlines()
        else:
            rc, err = run_main(argv)
        if rc == 0 or (rc == 2 and argv[0] == "report" and not err):
            assert err == [] and out.is_dir()
            assert_well_formed(out)
        elif rc == 1:
            assert len(err) == 1 and err[0].startswith("error:"), err
        else:
            assert rc == 2 and err[0].startswith("usage: pvclean"), (rc, err)
            assert err[-1].startswith("pvclean") and ": error: " in err[-1], err
            assert not out.exists()
