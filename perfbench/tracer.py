"""Run-time spans and counts around pvclean's public functions.

The tracer wraps functions and methods where callers look them up: a name
imported with ``from .weather import generate_weather`` is a separate
binding in the importing module, so :func:`install` replaces every binding
of a traced function in every loaded ``pvclean`` module, not only the
defining one.

Spans (name, start, end, parent span, sample id) are kept in compact
in-memory arrays and written out once with :meth:`Tracer.save`.  Self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np


class Tracer:
    """Span recorder with per-name totals and per-sample counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("q")
        self._sample = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[list] = []     # [span index, time covered by children]
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.sample = -1
        self.counters: dict[str, int] = {}
        self.sample_counters: dict[int, dict[str, int]] = {}
        self._streams: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def enter(self, nid: int) -> None:
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1][0] if self._stack else -1)
        self._sample.append(self.sample)
        self._end.append(0.0)
        self._stack.append([idx, 0.0])
        self._start.append(time.perf_counter())

    def exit(self) -> None:
        end = time.perf_counter()
        idx, covered = self._stack.pop()
        self._end[idx] = end
        duration = end - self._start[idx]
        nid = self._name[idx]
        self.calls[nid] += 1
        self.self_s[nid] += duration - covered
        if self._stack:
            self._stack[-1][1] += duration

    def count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def keep_streams(self, streams) -> None:
        """Remember streams so their consumption is summed at sample end."""
        self._streams.extend(streams)

    def begin_sample(self, i: int) -> None:
        self.sample = i
        self._before = dict(self.counters)
        self.enter(self.name_id("sample"))

    def end_sample(self) -> None:
        self.exit()
        self.count("rng.uniforms", sum(s.counter for s in self._streams))
        self._streams.clear()
        self.sample_counters[self.sample] = {
            k: v - self._before.get(k, 0) for k, v in self.counters.items()}
        self.sample = -1

    def totals(self) -> dict:
        return {name: {"calls": self.calls[i], "self_s": self.self_s[i]}
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self._name, np.int32),
                 parent=np.frombuffer(self._parent, np.int64),
                 sample=np.frombuffer(self._sample, np.int64),
                 start=np.frombuffer(self._start), end=np.frombuffer(self._end))


def _layer_dims_flops(net) -> int:
    dims = net.layer_dims
    return sum(a * b for a, b in zip(dims[:-1], dims[1:]))


def _rows(x) -> int:
    shape = np.shape(x)
    return 1 if len(shape) == 1 else shape[0]


def _sites():
    """(span name, owner, attribute, counter) for every traced function."""
    from pvclean import (agents, cli, distributions, environment, nn, simopt,
                         soiling, weather)

    def streams(tracer, args, result):
        tracer.keep_streams(result.values())

    def days(tracer, args, result):
        tracer.count("weather.days", args[1])
        tracer.count("weather.values", args[1] * len(result))

    def forward(tracer, args, result):
        rows = _rows(args[1])
        tracer.count("nn.forward.rows", rows)
        tracer.count("nn.flops", 2 * rows * _layer_dims_flops(args[0]))

    def backward(tracer, args, result):
        # dW = dz.T @ a_in and dx = dz @ W per layer: two matmuls of the
        # forward's size.
        tracer.count("nn.flops", 4 * _rows(args[1]) * _layer_dims_flops(args[0]))

    sites = [
        ("rng.make_streams", weather, "make_streams", streams),
        ("distributions.sample_many", distributions, "sample_many", None),
        ("weather.generate_weather", weather, "generate_weather", days),
        ("environment.reset", environment.CleaningEnv, "reset", None),
        ("environment.step", environment.CleaningEnv, "step", None),
        ("simopt.optimize", simopt, "optimize", None),
        ("simopt.precompute_weather", simopt, "precompute_weather", None),
        ("simopt.evaluate_interval", simopt, "evaluate_interval", None),
        ("nn.forward", nn.DenseNet, "forward", forward),
        ("nn.backward", nn.DenseNet, "backward", backward),
        ("nn.adam", nn.Adam, "step", None),
        ("agents.train", agents, "train", None),
        ("agents.collect_episode", agents.PPOAgent, "collect_episode", None),
        ("agents.compute_gae", agents, "compute_gae", None),
        ("agents.ppo_update", agents.PPOAgent, "update", None),
        ("agents.sac_update", agents.SACAgent, "update", None),
        ("agents.evaluate", agents, "evaluate", None),
        ("cli.main", cli, "main", None),
    ]
    for fn in ("daily_soiling", "calibrate", "accumulate", "degradation_factor",
               "efficiency"):
        sites.append((f"soiling.{fn}", soiling, fn, None))
    return sites


def _wrap(tracer: Tracer, fn, nid: int, counter):
    def traced(*args, **kwargs):
        tracer.enter(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if counter is not None:
            counter(tracer, args, result)
        return result

    return functools.update_wrapper(traced, fn)


def install(tracer: Tracer) -> None:
    """Wrap every traced function at each binding callers look it up through.

    Methods are replaced on their class.  A module-level function is
    replaced in every loaded ``pvclean`` module that binds it, under
    whatever name, so ``from .weather import generate_weather`` in
    ``simopt`` is traced as well as ``weather.generate_weather``.
    """
    modules = [m for name, m in list(sys.modules.items())
               if name == "pvclean" or name.startswith("pvclean.")]
    for name, owner, attr, counter in _sites():
        fn = owner.__dict__[attr]
        traced = _wrap(tracer, fn, tracer.name_id(name), counter)
        if isinstance(owner, type):
            setattr(owner, attr, traced)
            continue
        for module in modules:
            for alias, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, alias, traced)
