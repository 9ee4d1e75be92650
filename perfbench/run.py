"""pvclean benchmark: one workload per call, each sample checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload simopt-20y --seed 0 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for what one sample is and how it is
checked): ``simopt-20y``, ``ppo-train``, ``greedy-eval``, ``sac-train``.

``--trace 0`` prints the end-to-end metrics.  Set-up (imports, config and
policy loading, warm-up) is timed in five fresh processes and reported as
their median; the last of them then runs samples in a closed loop for
``--seconds`` seconds.

``--trace 1`` prints the per-layer metrics.  It runs a fixed number of
samples (about half of ``--seconds`` worth, so counts repeat exactly for a
given seed) three times in fresh processes: untraced, traced, and traced again on
the first two samples to show that the counts repeat.  Per-layer values are
per-sample means; ``trace.overhead_*`` is the traced median sample time
minus the untraced one.  Spans are written to ``.perfbench_out/``.

The last line of standard output is the JSON result; the lines before it
are a human-readable report and a JSON line with machine information,
sample counts and percentiles.  The program is imported from ``src/`` of
the checkout the script lives in; without it the script exits with an
error and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DEADLINE_S = 170.0
SETUP_RUNS = 5
REPEAT_SAMPLES = 2       # samples the second traced run repeats
EXACT_COUNTERS = ("rng.uniforms", "weather.days", "nn.forward.rows", "nn.flops")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    threads = str(_blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _spawn(args: list, deadline: float) -> dict:
    """Run worker.py; return its JSON result with ``ready_s`` since spawn."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time")
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker {args} printed no result:\n{proc.stderr[-4000:]}") from exc
    result["ready_s"] = result["ready"] - t0
    return result


def machine_info() -> dict:
    import numpy as np
    import scipy
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads()}


def _tail(times: list) -> dict:
    """Median, and the highest of p90/p99/p999 with >= 10 samples beyond it."""
    out = {"n": len(times), "p50": statistics.median(times)}
    for q, label in ((0.999, "p99.9"), (0.99, "p99"), (0.9, "p90")):
        if len(times) * (1 - q) >= 10:
            out[label] = statistics.quantiles(times, n=1000)[round(q * 1000) - 1]
            break
    return out


def _problems(result: dict) -> list:
    problems = [f"sample {f['sample']}: {p}" for f in result["failures"] for p in f["problems"]]
    problems += [f"self-test: {p}" for p in result["self_test"]]
    return problems


def timed_run(name: str, seed: int, seconds: float, deadline: float):
    base = ["--workload", name, "--seed", str(seed)]
    setups = [_spawn([*base, "--setup-only"], deadline)["ready_s"]
              for _ in range(SETUP_RUNS - 1)]
    main = _spawn([*base, "--seconds", str(seconds)], deadline)
    setups.append(main["ready_s"])
    times = main["times"]
    attempted, failed = len(times), len(main["failures"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "sample_s_p50": (statistics.median(times), "s"),
        "days_per_s": (main["days_per_sample"] * attempted / sum(times), "1/s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
    }
    details = {"samples": _tail(times), "setup_runs": setups,
               "error_rate": failed / attempted}
    return metrics, attempted, failed, _problems(main), details


def traced_run(name: str, seed: int, seconds: float, deadline: float):
    wl = WORKLOADS[name]
    n = max(1, round(seconds / 2 / wl.nominal_sample_s))
    base = ["--workload", name, "--seed", str(seed)]
    OUT.mkdir(exist_ok=True)
    ref = _spawn([*base, "--samples", str(n)], deadline)
    runs = [_spawn([*base, "--samples", str(k), "--trace",
                    str(OUT / f"spans-{name}-seed{seed}-{j}.npz")], deadline)
            for j, k in enumerate((n, min(n, REPEAT_SAMPLES)))]
    traced = runs[0]
    problems = _problems(ref) + _problems(traced)
    problems += [f"span {s} has no calls" for s in traced["missing_spans"]]
    for i, again in runs[1]["sample_counters"].items():
        first = traced["sample_counters"][i]
        for key in EXACT_COUNTERS:
            if first.get(key, 0) != again.get(key, 0):
                problems.append(f"sample {i}: {key} {first.get(key)} then {again.get(key)}")

    spans, counters = traced["spans"], traced["counters"]

    def calls(span):
        return spans.get(span, {}).get("calls", 0) / n

    def self_s(span):
        return spans.get(span, {}).get("self_s", 0.0) / n

    def counter(key):
        return counters.get(key, 0) / n

    soiling = [s for s in spans if s.startswith("soiling.")]
    nn_s = self_s("nn.forward") + self_s("nn.backward")
    ref_p50, traced_p50 = statistics.median(ref["times"]), statistics.median(traced["times"])
    metrics = {
        "rng.uniforms": (counter("rng.uniforms"), "count/sample"),
        "rng.uniforms_per_value": (counter("rng.uniforms") / counter("weather.values")
                                   if counters.get("weather.values") else 0.0, "ratio"),
        "weather.days": (counter("weather.days"), "count/sample"),
        "soiling.calls": (sum(calls(s) for s in soiling), "count/sample"),
        "soiling.self_s": (sum(self_s(s) for s in soiling), "s/sample"),
        "nn.forward.rows": (counter("nn.forward.rows"), "count/sample"),
        "nn.flops": (counter("nn.flops"), "flop/sample"),
        "nn.gflops_per_s": (counter("nn.flops") / nn_s / 1e9 if nn_s else 0.0, "GFLOP/s"),
        "trace.overhead_s": (traced_p50 - ref_p50, "s/sample"),
        "trace.overhead_pct": (100.0 * (traced_p50 - ref_p50) / ref_p50, "%"),
    }
    for span in ("distributions.sample_many", "weather.generate_weather",
                 "environment.reset", "environment.step", "simopt.evaluate_interval",
                 "nn.forward", "nn.backward", "nn.adam", "agents.sac_update"):
        metrics[f"{span}.calls"] = (calls(span), "count/sample")
    for span in ("distributions.sample_many", "weather.generate_weather",
                 "environment.reset", "environment.step", "simopt.precompute_weather",
                 "simopt.evaluate_interval", "nn.forward", "nn.backward", "nn.adam",
                 "agents.collect_episode", "agents.compute_gae", "agents.ppo_update",
                 "agents.sac_update", "agents.evaluate", "cli.main"):
        metrics[f"{span}.self_s"] = (self_s(span), "s/sample")
    details = {"samples": n, "untraced": _tail(ref["times"]),
               "traced": _tail(traced["times"]), "spans": spans, "counters": counters}
    return metrics, n, len(traced["failures"]), problems, details


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    deadline = time.monotonic() + DEADLINE_S
    try:
        if not (ROOT / "src" / "pvclean" / "__init__.py").is_file():
            raise BenchError(f"no program to measure: {ROOT / 'src' / 'pvclean'} is missing")
        run = traced_run if args.trace else timed_run
        metrics, attempted, failed, problems, details = run(
            args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine_info(), **details}
    for key, (value, unit) in metrics.items():
        print(f"{args.workload:12s} {key:36s} {value:16.6g} {unit}")
    for problem in problems:
        print(f"FAIL {problem}")
    print(json.dumps({"problems": problems, **info}))
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"problems": problems, "metrics": metrics, **info}, indent=1))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
