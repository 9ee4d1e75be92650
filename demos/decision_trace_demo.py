"""Day-by-day decision trace of a cleaning policy over one sampled year.

Plays a fixed-interval rule through ``agents.rollout`` and prints the days
around each cleaning: soiling builds up, efficiency sags, the clean resets
both, and the daily energy-loss cost tracks irradiance.
"""

from pvclean.agents import FixedIntervalPolicy, rollout
from pvclean.environment import CleaningEnv, preset
from pvclean.rng import replication_entropy

cfg = preset("S1exp", horizon_years=1)
rows = []


def record(obs, actions, res):
    # One replication: entry 0 of every array.
    info = res.info
    rows.append((info["day"], int(actions[0]), info["soiling"][0], info["efficiency"][0],
                 info["energy_loss_cost"][0], info["cleaning_cost_incurred"][0]))


rollout(FixedIntervalPolicy(20, cfg), CleaningEnv(cfg),
        [replication_entropy(cfg.seed, 0)], record)

print(f"{'day':>4} {'act':>4} {'soiling':>9} {'eff':>7} "
      f"{'energy loss':>12} {'cleaning':>9}")
shown = 0
for day, action, soiling, eff, loss, cc in rows:
    near_clean = any(abs(day - c) <= 2 for c in range(20, 365, 20))
    if day < 5 or (near_clean and shown < 40):
        mark = "  <-- clean" if action else ""
        print(f"{day:>4} {action:>4} {soiling:>9.4f} {eff:>7.4f} "
              f"{loss:>12.6f} {cc:>9.4f}{mark}")
        shown += near_clean

total = sum(loss + cc for *_, loss, cc in rows)
cleanings = sum(a for _, a, *_ in rows)
print(f"\nyear total: {total:.3f} USD with {cleanings} cleanings "
      f"(energy loss {total - cleanings * cfg.cleaning_cost:.3f}, "
      f"cleaning {cleanings * cfg.cleaning_cost:.3f})")
