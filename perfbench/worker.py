"""One workload in one fresh process; prints a JSON result as its last line.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Modes:

* ``--setup-only``: import, load, warm up, report the ready time, exit.
* ``--seconds S``: run samples in a closed loop until S seconds have passed.
* ``--samples N``: run exactly samples 0..N-1 (the traced run and its
  untraced reference), optionally ``--trace PATH`` to record spans.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _self_test(wl, output) -> list:
    """Show that the check catches a one-ulp change and a non-finite value."""
    problems = []
    digest = wl.digest(output)
    if wl.check(output, digest):
        problems.append("check rejects the unchanged output")
    ulp = wl.perturb(output, lambda v: math.nextafter(v, math.inf))
    if not wl.check(ulp, digest):
        problems.append("check accepts a one-ulp change")
    if wl.invariants(ulp):
        problems.append("invariants reject a one-ulp change")
    if not wl.check(wl.perturb(output, lambda v: math.nan), None):
        problems.append("invariants accept a NaN")
    return problems


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--seconds", type=float)
    p.add_argument("--samples", type=int)
    p.add_argument("--trace")
    args = p.parse_args()

    import pvclean
    if not Path(pvclean.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"pvclean imported from {pvclean.__file__}, not {ROOT / 'src'}")
    from workloads import DEFAULT_SEED, WORKLOADS

    wl = WORKLOADS[args.workload](ROOT, ROOT / ".perfbench_out")
    pins = json.loads((ROOT / "perfbench" / "pins.json").read_text()).get(wl.name, [])
    wl.warm_up()
    ready = time.monotonic()
    tracer = None
    if args.trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    times, failures, last_ok = [], [], None
    start = time.perf_counter()
    i = 0
    while (i < args.samples if args.samples is not None
           else i == 0 or time.perf_counter() - start < args.seconds):
        if tracer is not None:
            tracer.begin_sample(i)
        t0 = time.perf_counter()
        try:
            output = wl.run(i, args.seed)
        except Exception:
            output = None
            problems = ["raised:\n" + traceback.format_exc()]
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_sample()
        if output is not None:
            pin = pins[i] if args.seed == DEFAULT_SEED and i < len(pins) else None
            try:
                problems = wl.check(output, pin)
            except Exception:
                problems = ["check raised:\n" + traceback.format_exc()]
            if not problems:
                last_ok = output
        if problems:
            failures.append({"sample": i, "problems": problems})
        times.append(dt)
        i += 1

    result = {
        "ready": ready,
        "times": times,
        "failures": failures,
        "self_test": ["no correct output to test"] if last_ok is None
                     else _self_test(wl, last_ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "days_per_sample": wl.days_per_sample,
    }
    if tracer is not None:
        tracer.save(args.trace)
        result.update(spans=tracer.totals(), counters=tracer.counters,
                      sample_counters=tracer.sample_counters,
                      missing_spans=[s for s in wl.spans
                                     if tracer.calls[tracer.name_id(s)] == 0])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
