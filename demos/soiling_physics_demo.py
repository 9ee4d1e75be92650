"""Walk through the soiling physics on a few hand-picked weather days.

Shows the deposition law, the humidity calibration of wind removal, the
residue floor, age degradation, and the soiling-to-efficiency cubic.
"""

import numpy as np

from pvclean.soiling import (SoilingParams, accumulate, calibrate,
                             daily_soiling, degradation_factor, efficiency)

params = SoilingParams()

print("Daily deposition d(ws, pm)  [g/m2/day]")
for ws, pm in [(0.0, 0.0), (0.0, 0.1), (2.0, 0.2), (6.0, 0.1), (10.0, 0.1)]:
    d = daily_soiling(ws, pm)
    tag = "deposit" if d >= 0 else "removal"
    print(f"  ws={ws:>4.1f} m/s  pm={pm:.2f}  ->  {d:+.6f}  ({tag})")

print("\nHumidity nearly nullifies wind removal (factor k/RH, k=0.06):")
d = daily_soiling(10.0, 0.1)
for rh in (20.0, 40.0, 60.0, 80.0):
    print(f"  RH={rh:>3.0f}%  calibrated removal {calibrate(d, rh):+.6f}")

print("\nA week of accumulation with a mid-week clean (residue floor "
      f"{params.beta_residue} g/m2):")
depositions = [0.05, 0.03, -0.20, 0.04, 0.02, 0.06, -0.01]
cleaned = [False, False, False, True, False, False, False]
s = 0.0
for day, (d, c) in enumerate(zip(depositions, cleaned)):
    # As in CleaningEnv.step: a clean empties the panel in the morning, and
    # that day's dust then lands on it.
    s = accumulate(0.0 if c else s, calibrate(d, 55.0), False, params.beta_residue)
    note = "cleaned" if c else ""
    print(f"  day {day}: soiling {s:.4f} g/m2 {note}")

print("\nEfficiency vs soiling (clean-panel efficiency "
      f"{params.eff_max:.1%}):")
for s in np.arange(0.0, 3.5, 0.5):
    print(f"  s={s:>3.1f} g/m2  ->  {efficiency(s):6.4f}")

print("\nAge degradation tau(years) at 5%/year:")
print("  " + "  ".join(f"y{y}={degradation_factor(y):.3f}" for y in range(0, 21, 5)))
