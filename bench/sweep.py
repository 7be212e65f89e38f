"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/sweep.py

It runs every workload of BENCHMARK.json untraced with seeds 1 to 10 and
prints, for each end-to-end metric, the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``), the spread
(Q3 - Q1) / median and the bound from BENCHMARK.json, and the share of
failed operations in each run.  This is how the reference figures in
README.md are made.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name in [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True,
            )
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{name} seed {seed}: correct is false")
            shares.add((res["failed"], res["attempted"], round(res["failed"] / res["attempted"], 12)))
            for key, m in res["metrics"].items():
                values.setdefault(key, []).append(m["value"])
        print(f"{name}: failed/attempted per run {sorted(shares)}")
        for key, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(key)
            note = "" if bound is None else f"bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"  {key:48s} median {med:12.6g}  Q1 {q1:12.6g}  Q3 {q3:12.6g}  spread {spread:7.4f}  {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
