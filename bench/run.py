"""eiscoeff benchmark: one workload per fresh interpreter, checked against oracles.

    python3 bench/run.py --workload symbolic --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

Each workload runs in its own interpreter (``worker.py``), one at a time,
single-threaded.  With ``--trace 0`` the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics; ``setup_s`` is the median over ``SETUP_RUNS`` fresh
interpreters.  With ``--trace 1`` it holds the per-layer metrics instead.
The full result, with the environment, goes to ``bench/out/``.

The command exits with code 2, printing no result, when the checkout has
no ``src/eiscoeff`` to measure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("symbolic", "weyl", "numeric", "cli")
SETUP_RUNS = 5  # set-up is timed in this many fresh interpreters; the median is reported


def _child(workload, seed, seconds, trace, phase) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--phase", phase]
    proc = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True,
                          timeout=3 * seconds + 120)
    if proc.returncode != 0:
        raise SystemExit(proc.returncode or 1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace) -> dict:
    result = _child(workload, seed, seconds, trace, "run")
    if not trace:
        setups = [result["setup_s"]] + [
            _child(workload, seed, seconds, 0, "setup")["setup_s"] for _ in range(SETUP_RUNS - 1)
        ]
        result["setup_runs_s"] = setups
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(result, indent=1))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (HERE.parent / "src" / "eiscoeff" / "__init__.py").is_file():
        sys.stderr.write("no src/eiscoeff in this checkout: nothing to measure\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace)
        print(f"# {name}: {json.dumps(res['environment'])}, passes {res['passes']}")
        for key, m in res["metrics"].items():
            print(f"# {name} {key} = {m['value']:.6g} {m['unit']}")
        summary = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
        print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
