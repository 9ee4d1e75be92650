"""Experiment runner CLI.

Subcommands: ``simopt``, ``train``, ``eval``, ``report``, ``trace``.  Every
command is deterministic given its flags.  ``_OUTPUTS`` gives each CSV's
file name and columns, and ``_config_header`` the ``#`` comment lines that
open it.  Scenario may be a named preset (S1exp..S5uae) or a JSON config
file path; an unnamed config is labelled ``custom``.
The default output directory comes from ``--out`` or the
``PVCLEAN_OUT_DIR`` environment variable.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import agents, simopt
from .environment import (FEATURE_SCALES, PRESETS, CleaningEnv, ConfigError,
                          ScenarioConfig, load_config, preset)
from .nn import load_net, save_net
from .rng import replication_entropy

__all__ = ["main"]


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("PVCLEAN_OUT_DIR", ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _scenario(args) -> ScenarioConfig:
    name = args.case
    if name in PRESETS:
        cfg = preset(name)
    elif Path(name).exists():
        cfg = load_config(name)
        # Load the weather model now, so that its errors name this file too.
        if cfg.weather_model_path:
            try:
                cfg.weather_model()
            except (OSError, ValueError) as exc:
                raise ConfigError(f"{exc} (the weather_model_path of {name})") from None
    else:
        raise ConfigError(f"{name!r} is neither a preset nor a config file")
    # The name labels output files and is a field of their CSV rows.
    if not re.fullmatch(r"[\w.-]*", cfg.name):
        raise ConfigError(f"{name}: name must be letters, digits, '_', '.' or '-': {cfg.name!r}")
    # Each override flag's dest is the ScenarioConfig field it sets.
    return replace(cfg, name=cfg.name or "custom",
                   **{f.name: getattr(args, f.name) for f in fields(ScenarioConfig)
                      if getattr(args, f.name, None) is not None})


def _config_header(cfg: ScenarioConfig, extra: dict | None = None) -> list:
    """The ``#`` lines that open a CSV: the case name, ``tariff``,
    ``cleaning_cost``, ``panel_area``, ``horizon_years``, ``start_month``,
    ``seed``, ``reward_mode`` and ``normalization_mode``, then ``extra``, the
    command's own settings.  They do not record ``include_humidity``,
    ``weather_model_path`` or the ``soiling`` physics."""
    lines = [
        f"# case={cfg.name}",
        f"# tariff={cfg.tariff!r} cleaning_cost={cfg.cleaning_cost!r} "
        f"panel_area={cfg.panel_area!r}",
        f"# horizon_years={cfg.horizon_years} start_month={cfg.start_month} "
        f"seed={cfg.seed}",
        f"# reward_mode={cfg.reward_mode} normalization_mode={cfg.normalization_mode}",
    ]
    for k, v in (extra or {}).items():
        # A policy path may hold a line break; escaped, it stays one line.
        lines.append(f"# {k}=" + "\\n".join(str(v).splitlines()))
    return lines


# Each kind of CSV the CLI writes: its file name, where {label} is the case
# name and {agent} the agent, and its columns in file order.  A summary's
# columns map to the type ``report`` parses each one as and the least value
# a run can write (None for text); ``simopt`` and ``eval`` write one row of
# them.  A trace's columns go on with the scenario's observations and then
# the keys of ``CleaningEnv.step``'s info after ``day``.
_OUTPUTS = {
    "simopt_curve": ("{label}_simopt_curve.csv",
                     ("z", "mean_total_cost", "stderr", "mean_cleanings")),
    "simopt_summary": ("{label}_simopt_summary.csv",
                       {"case": (str, None), "z_star": (int, 1),
                        "mean_cleanings": (float, 0.0), "mean_total_cost": (float, 0.0)}),
    "eval_summary": ("{label}_eval_summary.csv",
                     {"case": (str, None), "mean_cleanings": (float, 0.0),
                      "mean_total_cost": (float, 0.0)}),
    "rewards": ("{label}_{agent}_rewards.csv", ("episode", "total_reward")),
    "trace": ("{label}_trace.csv", ("day", "action")),
    "report": ("report.csv", ("case", "z_star", "simopt_mean_cleanings", "simopt_mean_cost",
                              "rl_mean_cleanings", "rl_mean_cost", "cost_saving", "status")),
}


def _write_csv(directory: Path, kind: str, header_lines, rows, columns=(), **names) -> Path:
    """Write ``rows`` to the ``kind`` file of ``_OUTPUTS`` in ``directory``,
    its name filled in from ``names``, under the ``#`` header lines and a
    row of the kind's columns followed by ``columns``; return its path.

    Raises ``NumericalError``, and writes nothing, unless every float in
    ``rows`` is finite: inputs whose magnitudes overflow (a tariff and a
    panel area near the largest float, say) give an infinite or NaN cost.
    """
    pattern, kind_columns = _OUTPUTS[kind]
    path = directory / pattern.format(**names)
    lines = [*header_lines, ",".join([*kind_columns, *columns])]
    for row in rows:
        if any(isinstance(v, float) and not math.isfinite(v) for v in row):
            raise agents.NumericalError(f"{path}: non-finite result in {tuple(row)!r}")
        lines.append(",".join(map(str, row)))
    path.write_text("\n".join(lines) + "\n", newline="")
    return path


# Upper bounds on the count flags, checked before any weather is drawn, so a
# mistyped count fails at once instead of exhausting memory.  At the bounds
# the peak RSS was 235 MB for eval (54 replications of 100 years, while
# reset holds the drawn weather beside the episode's copy of it), 151 MB
# for simopt (273 replications of 20 years) and 115 MB for a
# 100,000-interval sweep (x86-64 Linux, numpy 2.4).  30 replications of the
# longest horizon (100 years) stay admitted.
_MAX_REPLICATION_DAYS = 2_000_000
_MAX_SWEEP = 100_000                # intervals x replications
_MAX_TRAIN_EPISODES = 100_000


def _at_most(value: int, bound: int, what: str) -> None:
    if value > bound:
        raise ValueError(f"{what} is {value:,}, more than {bound:,}")


# -- subcommands -----------------------------------------------------------


def cmd_simopt(args) -> int:
    cfg = _scenario(args)
    _at_most(args.reps * cfg.n_days, _MAX_REPLICATION_DAYS, "--reps x horizon days")
    _at_most(args.zmax * args.reps, _MAX_SWEEP, "--zmax x --reps")
    out = _out_dir(args)
    z_star, curve = simopt.optimize(cfg, z_min=1, z_max=args.zmax,
                                    replications=args.reps)
    header = _config_header(cfg, {"replications": args.reps, "z_max": args.zmax})
    # The unpaired standard error of each interval's mean over replications.
    rows = [(z, e.mean_total_cost, float(np.std(e.costs) / np.sqrt(len(e.costs))),
             e.mean_cleanings) for z, e in enumerate(curve, start=1)]
    _write_csv(out, "simopt_curve", header, rows, label=cfg.name)
    best = curve[z_star - 1]
    _write_csv(out, "simopt_summary", header,
               [(cfg.name, z_star, best.mean_cleanings, best.mean_total_cost)], label=cfg.name)
    print(f"{cfg.name}: z_star={z_star} mean_total_cost={best.mean_total_cost:.6g}")
    return 0


def cmd_train(args) -> int:
    cfg = _scenario(args)
    _at_most(args.episodes, _MAX_TRAIN_EPISODES, "--episodes")
    out = _out_dir(args)
    result = agents.train(args.agent, cfg, episodes=args.episodes, seed=cfg.seed)
    policy_path = out / f"{cfg.name}_{args.agent}_policy.txt"
    save_net(result.best_net, policy_path)
    header = _config_header(cfg, {"agent": args.agent, "episodes": args.episodes})
    _write_csv(out, "rewards", header, list(enumerate(result.reward_curve)),
               label=cfg.name, agent=args.agent)
    print(f"{cfg.name}: trained {args.agent} for {args.episodes} episodes, "
          f"best smoothed reward {result.best_smoothed_reward:.6g}; "
          f"policy -> {policy_path}")
    return 0


def _load_policy(spec: str, cfg: ScenarioConfig):
    if spec.startswith("interval:"):
        # ASCII digits only: int() would also take whitespace, '_' and other
        # scripts' digits, and a line break would then reach the CSV header.
        text = spec.split(":", 1)[1]
        if not re.fullmatch(r"-?[0-9]+", text):
            raise ValueError(f"{spec!r}: interval:Z needs an integer Z")
        return agents.FixedIntervalPolicy(int(text), cfg)
    net = load_net(spec)
    if (net.layer_dims[0], net.layer_dims[-1]) != (cfg.obs_dim, 2):
        raise ValueError(f"{spec}: dims {list(net.layer_dims)}, but this scenario needs "
                         f"{cfg.obs_dim} inputs and 2 outputs")
    return agents.GreedyPolicy(net)


def cmd_eval(args) -> int:
    cfg = _scenario(args)
    _at_most(args.episodes * cfg.n_days, _MAX_REPLICATION_DAYS, "--episodes x horizon days")
    out = _out_dir(args)
    policy = _load_policy(args.policy, cfg)
    result = agents.evaluate(policy, cfg, episodes=args.episodes)
    header = _config_header(cfg, {"policy": args.policy, "episodes": args.episodes})
    _write_csv(out, "eval_summary", header,
               [(cfg.name, result.mean_cleanings, result.mean_total_cost)], label=cfg.name)
    print(f"{cfg.name}: eval mean_total_cost={result.mean_total_cost:.6g} "
          f"mean_cleanings={result.mean_cleanings:.6g}")
    return 0


def cmd_trace(args) -> int:
    cfg = _scenario(args)
    out = _out_dir(args)
    policy = _load_policy(args.policy, cfg)
    rows, info_names = [], []

    def record(obs, actions, res):
        # A batch of one replication: row 0 of every array.  info opens with
        # the day, and its other keys name the trace's last columns.
        day, *values = res.info.values()
        info_names[:] = list(res.info)[1:]
        rows.append((day, int(actions[0]), *[float(v) for v in obs[0]],
                     *[float(v[0]) for v in values]))

    agents.rollout(policy, CleaningEnv(cfg), [replication_entropy(cfg.seed, 0)], record)
    obs_names = [f"obs_{name}" for name in list(FEATURE_SCALES)[:cfg.obs_dim]]
    header = _config_header(cfg, {"policy": args.policy})
    path = _write_csv(out, "trace", header, rows, [*obs_names, *info_names], label=cfg.name)
    print(f"{cfg.name}: trace with {len(rows)} days -> {path.name}")
    return 0


def _read_summary(directory: Path, kind: str, label: str) -> tuple:
    """The path of ``label``'s ``kind`` summary CSV in ``directory``, and its
    one data row by column: as wide as the header, each column of
    ``_OUTPUTS[kind]`` parsed with its type, every float finite, no number
    below its column's least value and ``case`` equal to ``label``.  The row
    is None if there is no file."""
    path = directory / _OUTPUTS[kind][0].format(label=label)
    if not path.exists():
        return path, None
    with open(path) as fh:
        try:
            lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if len(lines) < 2:
        raise ValueError(f"{path}: no data row under the header")
    if len(lines) > 2:
        raise ValueError(f"{path}: {len(lines) - 1} data rows; a summary has one")
    names, values = lines[0].split(","), lines[1].split(",")
    if len(values) != len(names):
        raise ValueError(f"{path}: {len(values)} values under {len(names)} columns")
    row = dict(zip(names, values))
    for column, (parse, least) in _OUTPUTS[kind][1].items():
        if column not in row:
            raise ValueError(f"{path}: no {column} column")
        text = row[column]
        try:
            row[column] = parse(text)
        except ValueError:
            raise ValueError(f"{path}: {column} {text!r} does not parse "
                             f"as {parse.__name__}") from None
        if parse is float and not math.isfinite(row[column]):
            raise ValueError(f"{path}: {column} {text!r} is not finite")
        if least is not None and row[column] < least:
            raise ValueError(f"{path}: {column} {text!r} is less than {least}")
    if row["case"] != label:
        raise ValueError(f"{path}: case {row['case']!r} is not the file's label {label!r}")
    return path, row


_SUMMARY_KINDS = ("simopt_summary", "eval_summary")


def cmd_report(args) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        raise NotADirectoryError(f"--dir {directory}: not a directory")
    # The presets in their order, then every other label with a summary; a
    # summary's file name is its label followed by a fixed suffix.
    found = {p.name.removesuffix(_OUTPUTS[kind][0].format(label="")) for kind in _SUMMARY_KINDS
             for p in directory.glob(_OUTPUTS[kind][0].format(label="*"))}
    rows = []
    for name in [*PRESETS, *sorted(found - PRESETS.keys())]:
        (sim_path, sim), (ev_path, ev) = (_read_summary(directory, kind, name)
                                          for kind in _SUMMARY_KINDS)
        if sim is None or ev is None:
            rows.append((name, "", "", "", "", "", "", "incomplete"))
            continue
        a, b = sim["mean_total_cost"], ev["mean_total_cost"]
        if a == 0.0:
            raise ValueError(f"{sim_path}: mean_total_cost is 0, so no saving is defined")
        saving = (a - b) / a
        if not math.isfinite(saving):
            raise ValueError(f"{sim_path} and {ev_path}: the cost saving ({a!r} - {b!r}) "
                             f"/ {a!r} is not finite")
        rows.append((name, sim["z_star"], sim["mean_cleanings"], a,
                     ev["mean_cleanings"], b, saving, "ok"))
    _write_csv(_out_dir(args), "report", [f"# source_dir={directory}"], rows)
    for row in rows:
        print(",".join(map(str, row)))
    return 2 if any(row[-1] == "incomplete" for row in rows) else 0


# -- argument parsing ------------------------------------------------------


def _add_common(p):
    p.add_argument("--case", required=True,
                   help="preset name (S1exp..S5uae) or scenario config JSON path")
    p.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p.add_argument("--horizon", dest="horizon_years", type=int, default=None,
                   help="override horizon in years (1..100)")
    p.add_argument("--out", default=None,
                   help="output directory (default: $PVCLEAN_OUT_DIR or '.')")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvclean",
        description="PV panel cleaning-schedule experiments: Sim-Opt and RL.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simopt", help="fixed-interval simulation optimization")
    _add_common(p)
    p.add_argument("--reps", type=int, default=30, help="replications per interval; "
                   f"reps x horizon days may be at most {_MAX_REPLICATION_DAYS:,}")
    p.add_argument("--zmax", type=int, default=120,
                   help=f"largest interval to try; zmax x reps may be at most {_MAX_SWEEP:,}")
    p.set_defaults(func=cmd_simopt)

    p = sub.add_parser("train", help="train an RL cleaning policy")
    p.add_argument("agent", choices=["ppo", "sac"])
    _add_common(p)
    p.add_argument("--episodes", type=int, default=150,
                   help=f"training episodes, at most {_MAX_TRAIN_EPISODES:,}")
    p.add_argument("--reward-mode", dest="reward_mode",
                   choices=["per_step", "terminal"], default=None)
    p.add_argument("--norm-mode", dest="normalization_mode",
                   choices=["feature_scaled", "div10"], default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a policy file or fixed interval")
    p.add_argument("policy", help="policy file path, or 'interval:Z'")
    _add_common(p)
    p.add_argument("--episodes", type=int, default=30, help="evaluation episodes; "
                   f"episodes x horizon days may be at most {_MAX_REPLICATION_DAYS:,}")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="combine per-case summaries into one table")
    p.add_argument("--dir", required=True, help="directory with case summary CSVs")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("trace", help="per-day decision trace for a policy")
    p.add_argument("policy", help="policy file path, or 'interval:Z'")
    _add_common(p)
    p.set_defaults(func=cmd_trace)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # A result made non-finite by overflow is reported as one error line
        # (_write_csv), not also as numpy warnings.
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ConfigError, OSError, ValueError, agents.NumericalError) as exc:
        # A non-finite result comes from the scenario's numbers, so it names the scenario.
        case = f"{args.case}: " if isinstance(exc, agents.NumericalError) and "case" in args else ""
        # One line, even when the message quotes input that holds a line break.
        print("error:", case + " ".join(str(exc).splitlines()), file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
