"""Print the sample-complexity catalog for a few regimes and rebuild the
maximum-likelihood bound curve (the m1/m2 table) with its chart.

m1 is the exact maximum over integer shell sizes l of

    n * N(l) / ((1/2) * log2(1 + l / (2 sigma2))),

m2 evaluates the same objective at the closed-form point l = k(1 - k/n).
The two stay within half a percent of each other across the whole grid,
which is what justifies using the closed-form point as a mental model.

The curve is written as bound_curve.csv and bound_curve.svg into the
directory given as the first argument, else into a new temporary one:

    python demos/03_bound_catalog.py [OUT_DIR]
"""

import sys
import tempfile
from pathlib import Path

from binsense import BoundQuery, Linear, Logistic, OneBit, bound_report
from binsense.bounds import curve_to_csv, mle_bound_curve
from binsense.svgplot import line_chart

for query in (
    BoundQuery(50_000, 1000, Linear(1.0)),
    BoundQuery(1024, 16, OneBit(0.0)),
    BoundQuery(1024, 16, OneBit(4.0)),
    BoundQuery(1024, 16, Logistic(0.5), mutual_info_cap=1.0),
):
    report = bound_report(query)
    print(report.to_json())

rows = mle_bound_curve(50_000, 1.0, range(1000, 25_001, 1000))
print("k, m1, m2 (first five rows):")
for row in rows[:5]:
    print(f"  {row.k:6d}  {row.m1:10.2f}  {row.m2:10.2f}   (scan peaked at l = {row.argmax_l})")
worst_gap = max((row.m1 - row.m2) / row.m1 for row in rows)
print(f"largest relative gap between the curves: {worst_gap:.4%}")

out_dir = Path(sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="binsense-"))
out_dir.mkdir(parents=True, exist_ok=True)
with open(out_dir / "bound_curve.csv", "w", newline="") as fh:
    fh.write(curve_to_csv(rows))
ks = [row.k for row in rows]
with open(out_dir / "bound_curve.svg", "w", newline="") as fh:
    fh.write(
        line_chart(
            [("m1", ks, [row.m1 for row in rows]), ("m2", ks, [row.m2 for row in rows])],
            title="MLE sample bound, n=50000, sigma2=1",
            x_label="k",
            y_label="measurements",
        )
    )
print(f"wrote bound_curve.csv and bound_curve.svg to {out_dir}")
