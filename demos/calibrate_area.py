"""Reproduce the frozen panel-area calibration behind the presets.

Absolute USD totals scale linearly with panel area for a fixed seed, so a
single reference point pins the scale: the area at which the S3exp
scenario's optimal 20-year Sim-Opt cost equals 24.8 USD is solved in closed
form from one unit-area sweep, and that area (CALIBRATED_PANEL_AREA) is
then frozen for all ten presets.

Runs the full 20-year search seven times; takes a few seconds.
"""

from pvclean.environment import CALIBRATED_PANEL_AREA, preset
from pvclean.simopt import calibrate_panel_area, optimize

TARGET_COST = 24.8  # USD over 20 years for the S3exp reference scenario

cfg = preset("S3exp")
area = calibrate_panel_area(cfg, TARGET_COST)
print(f"calibrated panel area: {area:.6f} m2")
print(f"frozen package value:  {CALIBRATED_PANEL_AREA:.6f} m2")
assert abs(area - CALIBRATED_PANEL_AREA) < 5e-6

print("\n20-year optima at the calibrated area:")
print(f"{'case':>6} {'z*':>4} {'cleanings':>10} {'mean cost USD':>14}")
for name in ("S1exp", "S3exp", "S5exp", "S1uae", "S3uae", "S5uae"):
    z_star, curve = optimize(preset(name))
    best = curve[z_star - 1]
    print(f"{name:>6} {z_star:>4} {best.mean_cleanings:>10.0f} "
          f"{best.mean_total_cost:>14.2f}")
