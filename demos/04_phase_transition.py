"""Trace the exact-recovery phase transition of the top-k decoder.

Success probability against the measurement count m is sharp: nothing,
then everything, over less than a factor of two in m.  Adding channel
noise slides the transition right in proportion to (k + sigma2), which
is the scaling the theory predicts.  Desk-scale settings keep this demo
around a minute; push n, the trial count, or the grid for smoother
curves.

The chart is written as phase_transition.svg into the directory given as
the first argument, else into a new temporary one:

    python demos/04_phase_transition.py [OUT_DIR]
"""

import sys
import tempfile
from pathlib import Path

from binsense import OneBit, TrialConfig, estimate_m95, sweep
from binsense.svgplot import line_chart

n, k, trials = 256, 4, 200
grid = [20, 40, 70, 110, 170, 260, 400, 600]

series = []
for sigma2 in (0.0, 4.0):
    config = TrialConfig(OneBit(sigma2), n, k, grid[0], decoder="topk", master_seed=99)
    result = sweep(config, grid, trials, workers=2)
    rates = [row.success_rate for row in result.rows]
    series.append((f"sigma2={sigma2:g}", grid, rates))
    print(f"sigma2={sigma2:g}:")
    for row in result.rows:
        bar = "#" * round(40 * row.success_rate)
        print(f"  m={row.m:4d}  {row.success_rate:5.3f}  [{row.ci_low:.3f}, {row.ci_high:.3f}]  {bar}")

out_dir = Path(sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="binsense-"))
out_dir.mkdir(parents=True, exist_ok=True)
with open(out_dir / "phase_transition.svg", "w", newline="") as fh:
    fh.write(
        line_chart(
            series,
            title=f"one-bit top-k recovery, n={n}, k={k}, {trials} trials",
            x_label="measurements m",
            y_label="exact-recovery rate",
        )
    )
print(f"wrote phase_transition.svg to {out_dir}")

# the empirical 95% threshold, found by bisection over the same trials
for sigma2, hi in ((0.0, 400), (4.0, 700)):
    config = TrialConfig(OneBit(sigma2), n, k, 20, decoder="topk", master_seed=99)
    result = estimate_m95(config, trials, 20, hi, workers=2)
    print(f"m95(sigma2={sigma2:g}) = {result.m95}  "
          f"(rate {result.success_rate:.3f}, {len(result.probes)} probes)")
