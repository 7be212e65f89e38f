"""Benchmark workloads.

Each module defines the same small interface, used by ``worker.py``:

* ``IN_PROCESS``: whether eiscoeff is imported into the measuring process;
* ``setup(E, seed)``: state held for the whole run (root systems, tables);
* ``make_pass(state, seed, k)``: the operations of pass k, made from the
  seed alone; every pass has the same mix of operation kinds;
* ``warmup(state, seed)``: untimed operations on inputs no pass uses;
* ``run(E, state, op)``: one timed operation;
* ``digest(state, op, out)``: taken right after the clock stops, the
  small part of the output the checks need, or the verdict itself where
  the check needs no numerical oracle; so memory does not grow with the
  number of passes;
* ``check(state, op, digest)``: ``(ok, digits or None, note)`` against
  the oracles; an operation that raised is a failure without a check;
* ``run_checks(E, state)``: properties checked once per run, untimed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

MAX_DIGITS = 17.0
DIGIT_PASSES = 4  # min_correct_digits is taken over passes 0..DIGIT_PASSES-1


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple
    named: bool = False  # a named known failure: counted in ``failed`` in every run


def rng_for(seed: int, k: int, salt: str = "") -> random.Random:
    """The generator of pass k; string seeds hash the same way in every interpreter."""
    return random.Random(f"{seed}:{k}:{salt}")


def digits(err: float, scale: float) -> float:
    """Correct significant digits of a value whose error is ``err`` against ``scale``."""
    if err == 0.0 or scale == 0.0:
        return MAX_DIGITS if err == 0.0 else 0.0
    return max(0.0, min(MAX_DIGITS, -math.log10(err / scale)))


def no_check(*_args):
    return []
