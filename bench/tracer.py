"""Per-layer counts and self times, taken by wrapping eiscoeff's public functions.

Many modules bind these functions with ``from .x import f``, so every
binding of the same function object in every loaded ``eiscoeff`` module is
replaced by one wrapper; methods are replaced on their class.  A function
that a later version no longer has is listed in ``absent`` and reads 0.

Self time is a call's duration minus the time of the wrapped calls made
inside it.  The program has no queues or locks, so busy time and counts
are all there is to record.
"""

from __future__ import annotations

import contextlib
import statistics
import subprocess
import sys
import time

from checkout import ROOT, engine_env

TIMED = [
    ("roots", "build_root_system"),
    ("roots", "enumerate_weyl"),
    ("roots", "pair"),
    ("roots", "reflect"),
    ("parabolic", "build_parabolic"),
    ("parabolic", "wl_orbits"),
    ("template", "standard_assignment"),
    ("template", "first_coefficient"),
    ("template", "SatakeAssignment.mu_pairing"),
    ("template", "SatakeAssignment.mu_weight_coords"),
    ("template", "constant_term"),
    ("template", "to_alpha_coordinates"),
    ("template", "to_classical"),
    ("glcoords", "eisenstein_parameters"),
    ("symalg", "canonicalize"),
    ("symalg", "render"),
    ("symalg", "LinearForm.substitute"),
    ("specfun", "gamma"),
    ("specfun", "zeta"),
    ("specfun", "zeta_star"),
    ("specfun", "c_factor"),
    ("specfun", "bessel_k"),
    ("whittaker", "whittaker_padic"),
    ("whittaker", "leading_asymptotics"),
    ("whittaker", "whittaker_sl2_arch"),
    ("whittaker", "jacquet_sl2_quadrature"),
    ("whittaker", "normalization_factor"),
    ("hecke", "borel_eigenvalue"),
]
COUNTED = [("symalg", "LinearForm.__add__"), ("symalg", "LinearForm.__radd__")]
CLI_SUBCOMMANDS = [
    "first-coeff", "constant-term", "params", "hecke",
    "whittaker-p", "whittaker-sl2", "zeta", "verify",
]
IMPORTS = ["eiscoeff", "numpy", "mpmath"]


def _oscillatory(args) -> bool:
    """bessel_k on its extended-precision path: |Im nu| > 4 and x < |Im nu|."""
    tau = abs(complex(args[0]).imag)
    return tau > 4.0 and float(args[1]) < tau


class Tracer:
    def __init__(self, E):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.active: dict[str, int] = {}
        self.elements = 0
        self.enum_in_padic = 0
        self.mwc_in_first = 0
        self.oscillatory_s = 0.0
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._on = [True]
        self._undo: list[tuple[object, str, object]] = []
        modules = [m for n, m in list(sys.modules.items()) if n == "eiscoeff" or n.startswith("eiscoeff.")]
        for mod, qual in TIMED + COUNTED:
            self._install(E, modules, mod, qual, timed=(mod, qual) in TIMED)

    def _install(self, E, modules, mod, qual, timed):
        name = f"{mod}.{qual}"
        owner = sys.modules.get(f"{E.__name__}.{mod}")
        *cls_path, attr = qual.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if orig is None or not callable(orig):
            self.absent.append(name)
            return
        wrapper = self._wrap(name, orig) if timed else self._count(name, orig)
        if cls_path:
            self._undo.append((owner, attr, orig))
            setattr(owner, attr, wrapper)
            return
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    self._undo.append((m, key, orig))
                    setattr(m, key, wrapper)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced (the harness's own use of the program)."""
        self._on[0] = False
        try:
            yield
        finally:
            self._on[0] = True

    def _count(self, name, fn):
        calls, on = self.calls, self._on
        calls[name] = 0

        def counted(*args, **kwargs):
            if on[0]:
                calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _wrap(self, name, fn):
        calls, self_s, active, stack, on = self.calls, self.self_s, self.active, self._stack, self._on
        calls[name] = 0
        self_s[name] = 0.0
        active[name] = 0
        clock = time.perf_counter
        is_enum = name == "roots.enumerate_weyl"
        is_mwc = name == "template.SatakeAssignment.mu_weight_coords"
        is_bessel = name == "specfun.bessel_k"

        def timed(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            calls[name] += 1
            active[name] += 1
            if is_enum and active.get("whittaker.whittaker_padic"):
                self.enum_in_padic += 1
            elif is_mwc and active.get("template.first_coefficient"):
                self.mwc_in_first += 1
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                own = dt - stack.pop()
                self_s[name] += own
                if stack:
                    stack[-1] += dt
                active[name] -= 1
                if is_bessel and _oscillatory(args):
                    self.oscillatory_s += own
            if is_enum:
                self.elements += len(out)
            return out

        timed.__wrapped__ = fn
        return timed

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()


def import_times(runs: int = 3) -> dict:
    """Median cumulative import time (ms) of each of IMPORTS, from ``python -X importtime``."""
    samples: dict[str, list[float]] = {name: [] for name in IMPORTS}
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import eiscoeff"],
            env=engine_env(), cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                seen[parts[2].strip()] = int(parts[1].strip()) / 1000.0
        for name in IMPORTS:
            samples[name].append(seen.get(name, 0.0))
    return {name: statistics.median(v) for name, v in samples.items()}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric the traced run reports."""
    out = []
    for mod, qual in TIMED:
        out += [(f"{mod}.{qual}.calls", "calls/op"), (f"{mod}.{qual}.self_ms", "ms/op")]
    out += [(f"{mod}.{qual}.calls", "calls/op") for mod, qual in COUNTED]
    out += [
        ("roots.enumerate_weyl.elements", "elements/op"),
        ("roots.enumerate_weyl.per_padic_call", "ratio"),
        ("template.mu_weight_coords.per_first_coefficient", "ratio"),
        ("specfun.bessel_k.oscillatory.self_ms", "ms/op"),
    ]
    out += [(f"import.{m}.ms", "ms") for m in IMPORTS]
    out += [(f"cli.{c}.ms", "ms") for c in CLI_SUBCOMMANDS]
    out += [("trace.overhead_s", "s")]
    return out


def layer_metrics(tr: Tracer | None, n_ops: int) -> dict:
    """Per-operation counts and self times of the traced phase; zeros when nothing was traced."""
    vals: dict[str, float] = {}
    if tr is not None:
        for name, c in tr.calls.items():
            vals[f"{name}.calls"] = c / n_ops
        for name, s in tr.self_s.items():
            vals[f"{name}.self_ms"] = s * 1e3 / n_ops
        vals["roots.enumerate_weyl.elements"] = tr.elements / n_ops
        vals["roots.enumerate_weyl.per_padic_call"] = _ratio(
            tr.enum_in_padic, tr.calls.get("whittaker.whittaker_padic", 0)
        )
        vals["template.mu_weight_coords.per_first_coefficient"] = _ratio(
            tr.mwc_in_first, tr.calls.get("template.first_coefficient", 0)
        )
        vals["specfun.bessel_k.oscillatory.self_ms"] = tr.oscillatory_s * 1e3 / n_ops
    return {
        name: {"value": vals.get(name, 0.0), "unit": unit}
        for name, unit in metric_names()
        if not name.startswith(("import.", "cli.", "trace."))
    }
