"""Sample a year of site weather and summarize it month by month.

The bundled model is a 12-month x 5-variable grid of fitted distributions.
Every day draws one value per variable from its month's distribution, using
one dedicated random stream per variable, so runs are fully reproducible.
"""

import numpy as np

from pvclean.weather import (KMH_PER_MS, MONTH_LENGTHS, VARIABLES,
                             default_model, generate_weather, make_streams)

model = default_model()
# One replication: row 0 of each variable.
days = {var: x[0] for var, x in generate_weather(model, 365, [make_streams(seed=0)]).items()}

print("Monthly means of one sampled year (seed 0)")
print(f"{'month':>5} {'temp C':>8} {'wind m/s':>9} {'PM g/m2':>9} "
      f"{'GHI Wh/m2':>10} {'RH %':>7}")
start = 0
for month, length in enumerate(MONTH_LENGTHS, start=1):
    sl = slice(start, start + length)
    print(f"{month:>5} "
          f"{days['temperature'][sl].mean():>8.1f} "
          f"{days['wind_speed'][sl].mean() / KMH_PER_MS:>9.2f} "
          f"{days['particulate_matter'][sl].mean():>9.3f} "
          f"{days['irradiance'][sl].mean():>10.0f} "
          f"{days['relative_humidity'][sl].mean():>7.1f}")
    start += length

print()
print("Annual ranges")
for var in VARIABLES:
    x = days[var]
    print(f"  {var:<20} min {x.min():>9.2f}   max {x.max():>9.2f}")

# The same seed always reproduces the same year.
again = generate_weather(model, 365, [make_streams(seed=0)])
assert all(np.array_equal(days[v], again[v][0]) for v in VARIABLES)
print("\nRe-sampling with the same seed reproduced the year exactly.")
