"""One workload in one fresh interpreter: set-up, timed passes, checks.

    python3 bench/worker.py --workload weyl --seed 1 --seconds 10 --trace 0 --phase run

``--phase setup`` stops after set-up and prints only ``{"setup_s": ...}``;
``run.py`` starts several such interpreters and reports the median.
``--phase run`` prints one JSON line with the run's counts, metrics, the
environment and the absent traced functions.

Nothing before the import of eiscoeff loads mpmath or numpy, so set-up
time includes the program's whole import.  The mpmath oracles are
imported only after the last timed operation.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

from checkout import SRC, import_engine
from workloads import DIGIT_PASSES, MAX_DIGITS

UNTRACED_SHARE = 0.3  # share of --seconds the traced run spends untraced


class Raised:
    """An operation that raised; kept in place of its output."""

    def __init__(self, exc: BaseException):
        self.name = type(exc).__name__
        self.message = str(exc)
        self.trace = traceback.format_exc()

    def __repr__(self) -> str:
        return f"{self.name}({self.message})"


def environment(engine_file: str) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "import_path": engine_file,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
    }


def run_pass(wl, E, state, ops, records, untraced=contextlib.nullcontext):
    """Run one pass; time each operation alone and digest its output after the clock
    stops, inside ``untraced()`` so the harness's own calls stay out of the trace."""
    total = 0.0
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = wl.run(E, state, op)
        except Exception as exc:  # a failing operation is a result to check, not a crash
            out = Raised(exc)
        dt = time.perf_counter() - t0
        total += dt
        if not isinstance(out, Raised):
            with untraced():
                out = wl.digest(state, op, out)
        records.append((op, out, dt))
    return total


def run_passes(wl, E, state, seed, first, budget):
    """Whole passes until ``budget`` seconds of operation time; returns the records,
    the operation time and the operations of each pass."""
    records, timed, plan = [], 0.0, []
    while not plan or timed < budget:
        ops = first if not plan else wl.make_pass(state, seed, len(plan))
        plan.append(ops)
        timed += run_pass(wl, E, state, ops, records)
    return records, timed, plan


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def check_records(wl, state, records):
    """Apply the oracles; returns (failed, unexpected, digits)."""
    failed, unexpected, digits = 0, [], []
    for op, out, _ in records:
        if isinstance(out, Raised):
            ok, d, note = False, None, f"raised {out!r}\n{out.trace}"
        else:
            ok, d, note = wl.check(state, op, out)
        if not ok:
            failed += 1
            if not op.named:
                unexpected.append(f"{op.kind} {op.args!r}: {note}".rstrip())
        elif d is not None and not op.named:
            digits.append(d)
    return failed, unexpected, digits


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--phase", choices=("setup", "run"), default="run")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    wl = importlib.import_module(f"workloads.{args.workload}")
    E = import_engine() if wl.IN_PROCESS else None
    state = wl.setup(E, args.seed)
    first = wl.make_pass(state, args.seed, 0)
    for op in wl.warmup(state, args.seed):
        wl.run(E, state, op)
    setup_s = time.perf_counter() - t0
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = {"environment": environment(E.__file__ if E else str(SRC / "eiscoeff"))}
    if not args.trace:
        records, timed, plan = run_passes(wl, E, state, args.seed, first, args.seconds)
        rss = peak_rss_mb(children=not wl.IN_PROCESS)
        passes = len(plan)
        # min_correct_digits reads passes 0..DIGIT_PASSES-1 only, however many passes
        # the time allowed; the ones the timed part did not reach run here, untimed
        checked = list(records)
        for k in range(passes, DIGIT_PASSES):
            plan.append(wl.make_pass(state, args.seed, k))
            run_pass(wl, E, state, plan[k], checked)
        n_digit = sum(len(ops) for ops in plan[:DIGIT_PASSES])
        phases = [checked[:n_digit], checked[n_digit:]]
    else:
        import tracer

        records, untraced, plan = run_passes(
            wl, E, state, args.seed, first, args.seconds * UNTRACED_SHARE
        )
        passes = len(plan)
        # as many passes again, on fresh inputs, so no input repeats into the traced part
        traced_plan = [wl.make_pass(state, args.seed, passes + k) for k in range(passes)]
        tr = tracer.Tracer(E) if E else None
        traced_records: list = []
        untraced_ctx = tr.paused if tr else contextlib.nullcontext
        traced = sum(run_pass(wl, E, state, ops, traced_records, untraced_ctx) for ops in traced_plan)
        if tr:
            tr.uninstall()
        phases = [records, traced_records]

    t_check = time.perf_counter()
    failed, unexpected = 0, []
    extra_problems = wl.run_checks(E, state)
    for i, recs in enumerate(phases):
        f, u, d = check_records(wl, state, recs)
        failed += f
        unexpected += u
        if i == 0:
            digits = d
    problems = unexpected + extra_problems
    for p in problems:
        sys.stderr.write(f"check failed: {p}\n")
    attempted = sum(len(r) for r in phases)
    result.update(
        correct=not problems, attempted=attempted, failed=failed, passes=passes, setup_s=setup_s,
        check_s=time.perf_counter() - t_check,
    )
    if not args.trace:
        times = [dt for _, _, dt in records]
        result["metrics"] = {
            "ops_per_s": {"value": len(times) / timed, "unit": "ops/s"},
            "op_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "min_correct_digits": {"value": min(digits, default=MAX_DIGITS), "unit": "digits"},
        }
    else:
        n_ops = len(traced_records)
        metrics = tracer.layer_metrics(tr, n_ops)
        for name, ms in tracer.import_times().items():
            metrics[f"import.{name}.ms"] = {"value": ms, "unit": "ms"}
        cli_records = [] if wl.IN_PROCESS else records + traced_records
        for sub in tracer.CLI_SUBCOMMANDS:
            ms = [dt * 1e3 for op, _, dt in cli_records if op.kind == sub]
            metrics[f"cli.{sub}.ms"] = {"value": statistics.median(ms) if ms else 0.0, "unit": "ms"}
        # every pass has the same mix, so the cost per operation compares across the two parts
        n_untraced = len(records)
        overhead = (traced / n_ops - untraced / n_untraced) * n_ops
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        result["metrics"] = metrics
        result["absent"] = tr.absent if tr else []
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
