"""Experiment runner CLI.

Subcommands: ``simopt``, ``train``, ``eval``, ``report``, ``trace``.  Every
command is deterministic given its flags; each output CSV starts with
``#``-prefixed comment lines recording the full configuration and seed.
Scenario may be a named preset (S1exp..S5uae) or a JSON config file path.
The default output directory comes from ``--out`` or the
``PVCLEAN_OUT_DIR`` environment variable.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import agents, simopt
from .environment import (FEATURE_SCALES, PRESETS, CleaningEnv, ConfigError,
                          ScenarioConfig, load_config, preset)
from .nn import load_net, save_net
from .rng import replication_entropy
from .weather import VARIABLES

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
    else:
        raise ConfigError(f"{name!r} is neither a preset nor a config file")
    # Each override flag's dest is the ScenarioConfig field it sets.
    return replace(cfg, **{f.name: getattr(args, f.name) for f in fields(ScenarioConfig)
                           if getattr(args, f.name, None) is not None})


def _case_label(cfg: ScenarioConfig) -> str:
    return cfg.name or "custom"


def _config_header(cfg: ScenarioConfig, extra: dict | None = None) -> list:
    lines = [
        f"# case={_case_label(cfg)}",
        f"# tariff={cfg.tariff!r} cleaning_cost={cfg.cleaning_cost!r} "
        f"panel_area={cfg.panel_area!r}",
        f"# horizon_years={cfg.horizon_years} start_month={cfg.start_month} "
        f"seed={cfg.seed}",
        f"# reward_mode={cfg.reward_mode} normalization_mode={cfg.normalization_mode}",
    ]
    for k, v in (extra or {}).items():
        lines.append(f"# {k}={v}")
    return lines


def _write_csv(path: Path, header_lines, columns, rows) -> None:
    """Write ``rows`` under the ``#`` header lines and the column names.

    Raises ``NumericalError``, and writes nothing, unless every float in
    ``rows`` is finite: inputs whose magnitudes overflow (a tariff and a
    panel area near the largest float, say) give an infinite or NaN cost.
    """
    lines = [*header_lines, ",".join(columns)]
    for row in rows:
        if any(isinstance(v, float) and not math.isfinite(v) for v in row):
            raise agents.NumericalError(f"{path}: non-finite result in {tuple(row)!r}")
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", newline="")


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


# -- subcommands -----------------------------------------------------------


def cmd_simopt(args) -> int:
    cfg = _scenario(args)
    out = _out_dir(args)
    z_star, curve = simopt.optimize(cfg, z_min=1, z_max=args.zmax,
                                    replications=args.reps)
    label = _case_label(cfg)
    header = _config_header(cfg, {"replications": args.reps, "z_max": args.zmax})
    stderr = {e.z: float(np.std(e.costs) / np.sqrt(len(e.costs))) for e in curve}
    rows = [(e.z, e.mean_total_cost, stderr[e.z], e.mean_cleanings) for e in curve]
    _write_csv(out / f"{label}_simopt_curve.csv", header,
               ["z", "mean_total_cost", "stderr", "mean_cleanings"], rows)
    best = next(e for e in curve if e.z == z_star)
    _write_csv(out / f"{label}_simopt_summary.csv", header,
               ["case", "z_star", "mean_cleanings", "mean_total_cost"],
               [(label, z_star, best.mean_cleanings, best.mean_total_cost)])
    print(f"{label}: z_star={z_star} mean_total_cost={best.mean_total_cost:.6g}")
    return 0


def cmd_train(args) -> int:
    cfg = _scenario(args)
    out = _out_dir(args)
    result = agents.train(args.agent, cfg, episodes=args.episodes, seed=cfg.seed)
    label = _case_label(cfg)
    policy_path = out / f"{label}_{args.agent}_policy.txt"
    save_net(result.best_net, policy_path)
    header = _config_header(cfg, {"agent": args.agent, "episodes": args.episodes})
    _write_csv(out / f"{label}_{args.agent}_rewards.csv", header,
               ["episode", "total_reward"],
               list(enumerate(result.reward_curve)))
    print(f"{label}: trained {args.agent} for {args.episodes} episodes, "
          f"best smoothed reward {result.best_smoothed_reward:.6g}; "
          f"policy -> {policy_path}")
    return 0


def _load_policy(spec: str, cfg: ScenarioConfig):
    if spec.startswith("interval:"):
        try:
            z = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"{spec!r}: interval:Z needs an integer Z") from None
        return agents.FixedIntervalPolicy(z, cfg)
    return agents.GreedyPolicy(load_net(spec))


def cmd_eval(args) -> int:
    cfg = _scenario(args)
    out = _out_dir(args)
    policy = _load_policy(args.policy, cfg)
    result = agents.evaluate(policy, cfg, episodes=args.episodes)
    label = _case_label(cfg)
    header = _config_header(cfg, {"policy": args.policy, "episodes": args.episodes})
    rows = [(label, result.mean_cleanings, result.mean_total_cost)]
    _write_csv(out / f"{label}_eval_summary.csv", header,
               ["case", "mean_cleanings", "mean_total_cost"], rows)
    print(f"{label}: eval mean_total_cost={result.mean_total_cost:.6g} "
          f"mean_cleanings={result.mean_cleanings:.6g}")
    return 0


_TRACE_INFO = (*VARIABLES, "soiling", "efficiency", "energy_loss_cost",
               "cleaning_cost_incurred")


def cmd_trace(args) -> int:
    cfg = _scenario(args)
    out = _out_dir(args)
    policy = _load_policy(args.policy, cfg)
    rows = []

    def record(obs, actions, res):
        # A batch of one replication: row 0 of every array.
        rows.append((res.info["day"], int(actions[0]), *[float(v) for v in obs[0]],
                     *[float(res.info[k][0]) for k in _TRACE_INFO]))

    agents.rollout(policy, CleaningEnv(cfg), [replication_entropy(cfg.seed, 0)], record)
    obs_names = [f"obs_{name}" for name in list(FEATURE_SCALES)[:cfg.obs_dim]]
    label = _case_label(cfg)
    header = _config_header(cfg, {"policy": args.policy})
    _write_csv(out / f"{label}_trace.csv", header,
               ["day", "action", *obs_names, *_TRACE_INFO], rows)
    print(f"{label}: trace with {len(rows)} days -> {label}_trace.csv")
    return 0


def _read_summary(path: Path, columns: tuple) -> dict | None:
    """The data row of a summary CSV, which must hold ``columns``; None if there is no file."""
    if not path.exists():
        return None
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    if len(lines) < 2:
        raise ValueError(f"{path}: no data row under the header")
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    missing = [c for c in columns if c not in row]
    if missing:
        raise ValueError(f"{path}: no {', '.join(missing)} column")
    return row


def cmd_report(args) -> int:
    directory = Path(args.dir)
    rows = []
    incomplete = False
    for name in PRESETS:
        sim_path = directory / f"{name}_simopt_summary.csv"
        sim = _read_summary(sim_path, ("z_star", "mean_cleanings", "mean_total_cost"))
        ev = _read_summary(directory / f"{name}_eval_summary.csv",
                           ("mean_cleanings", "mean_total_cost"))
        if sim is None or ev is None:
            rows.append((name, "", "", "", "", "", "", "incomplete"))
            incomplete = True
            continue
        a = float(sim["mean_total_cost"])
        b = float(ev["mean_total_cost"])
        if a == 0.0:
            raise ValueError(f"{sim_path}: mean_total_cost is 0, so no saving is defined")
        saving = (a - b) / a
        rows.append((name, int(sim["z_star"]), float(sim["mean_cleanings"]), a,
                     float(ev["mean_cleanings"]), b, saving, "ok"))
    out = _out_dir(args)
    _write_csv(out / "report.csv",
               [f"# source_dir={directory}"],
               ["case", "z_star", "simopt_mean_cleanings", "simopt_mean_cost",
                "rl_mean_cleanings", "rl_mean_cost", "cost_saving", "status"],
               rows)
    for row in rows:
        print(",".join(_fmt(v) for v in row))
    return 2 if incomplete else 0


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
    p.add_argument("--reps", type=int, default=30, help="replications per interval")
    p.add_argument("--zmax", type=int, default=120, help="largest interval to try")
    p.set_defaults(func=cmd_simopt)

    p = sub.add_parser("train", help="train an RL cleaning policy")
    p.add_argument("agent", choices=["ppo", "sac"])
    _add_common(p)
    p.add_argument("--episodes", type=int, default=150)
    p.add_argument("--reward-mode", dest="reward_mode",
                   choices=["per_step", "terminal"], default=None)
    p.add_argument("--norm-mode", dest="normalization_mode",
                   choices=["feature_scaled", "div10"], default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a policy file or fixed interval")
    p.add_argument("policy", help="policy file path, or 'interval:Z'")
    _add_common(p)
    p.add_argument("--episodes", type=int, default=30)
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
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
