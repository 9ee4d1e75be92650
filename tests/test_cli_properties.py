"""Property harness for the CLI's input handling.

A valid 1-year scenario config gets one mutation: a field swapped for
another JSON type or for a number it must reject or survive, the file
truncated, one byte made invalid UTF-8, or the file replaced by a
directory.  ``pvclean eval`` on it must either exit 0 with a finite
summary CSV or exit 1 with exactly one ``error:`` line; no exception may
escape ``cli.main``.
"""

import contextlib
import io
import json
import math
import tempfile
from dataclasses import asdict
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pvclean import cli
from pvclean.environment import preset, save_config

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

MUTATIONS = st.one_of(
    st.tuples(st.just("field"), st.sampled_from(FIELDS), VALUES),
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.just("byte"), st.integers(0, 10**6)),
    st.tuples(st.just("directory")),
)


def mutate(path: Path, mutation) -> None:
    kind, *args = mutation
    raw = path.read_bytes()
    if kind == "field":
        keys, value = args
        data = json.loads(raw)
        (data["soiling"] if len(keys) == 2 else data)[keys[-1]] = value
        path.write_text(json.dumps(data))
    elif kind == "truncate":
        path.write_bytes(raw[:args[0] % len(raw)])
    elif kind == "byte":
        at = args[0] % len(raw)
        path.write_bytes(raw[:at] + b"\xff" + raw[at + 1:])
    else:
        path.unlink()
        path.mkdir()


@settings(max_examples=200, deadline=None)
@given(mutation=MUTATIONS)
# Faults this harness found: an integer past the float range escaped as
# OverflowError, an unknown key holding a newline made a two-line error,
# a name with a ',' or a newline wrote a malformed CSV, and one with '../'
# wrote outside --out.
@example(mutation=("field", ("tariff",), 10**400))
@example(mutation=("field", ("soiling", "humidity_k"), -10**400))
@example(mutation=("field", ("soiling",), {"\n": 0}))
@example(mutation=("field", ("name",), "a,b"))
@example(mutation=("field", ("name",), "a\nb"))
@example(mutation=("field", ("name",), "../x"))
def test_mutated_config_gives_a_finite_result_or_one_error_line(mutation):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "case.json", Path(tmp) / "out"
        save_config(VALID, path)
        mutate(path, mutation)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            rc = cli.main(["eval", "interval:7", "--case", str(path), "--episodes", "2",
                           "--out", str(out)])
        if rc == 0:
            (summary,) = out.glob("*_eval_summary.csv")
            rows = [ln.split(",") for ln in summary.read_text().splitlines()
                    if not ln.startswith("#")]
            assert rows[0] == ["case", "mean_cleanings", "mean_total_cost"] and len(rows) == 2
            assert len(rows[1]) == 3 and all(math.isfinite(float(v)) for v in rows[1][1:])
        else:
            err = stderr.getvalue().splitlines()
            assert rc == 1 and len(err) == 1 and err[0].startswith("error:"), stderr.getvalue()
