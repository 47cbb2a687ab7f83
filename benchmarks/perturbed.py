"""Run a script, or a module with ``-m``, under perturbed process state.

A result that depends on state its seed does not set shows up as a
difference between two runs that differ only in that state. Before it
runs its target, this wrapper

* seeds the stdlib and numpy global generators with ``--seed``
  (``random.seed`` and ``np.random.seed``), and
* makes ``time.time``, ``time.monotonic`` and ``time.perf_counter`` (and
  their ``_ns`` forms) read ``--clock-offset`` seconds later.

The hash seed is the caller's ``PYTHONHASHSEED``: an interpreter cannot
change its own. The wrapper does all this before anything imports
``repro``, so a module that binds ``from time import perf_counter`` at
import binds the moved clock. The target then runs as ``python SCRIPT``
or ``python -m MODULE`` would run it: as ``__main__``, with its own
``sys.argv`` and its directory (the working directory for ``-m``) first
on ``sys.path``. For example::

    PYTHONHASHSEED=4242 OPENBLAS_NUM_THREADS=1 PYTHONPATH=src \\
        python benchmarks/perturbed.py --seed 99 --clock-offset 1e9 \\
        benchmarks/training_digest.py

What it cannot move: ``datetime.now`` and ``datetime.today`` (C methods
it cannot replace), ``time.process_time`` and memory addresses, so
neither a ``datetime`` read nor the order of a set of objects hashed by
identity differs reliably between two runs. A set of ints keeps one
order under every hash seed, and a difference of two clock readings is
the same under every offset.
"""

from __future__ import annotations

import argparse
import os
import random
import runpy
import sys
import time

import numpy as np

#: The clocks the wrapper moves; each ``_ns`` form moves with its float one.
CLOCKS = ("time", "monotonic", "perf_counter")


def offset_clocks(seconds: float) -> None:
    """Make every clock in :data:`CLOCKS` read ``seconds`` later."""
    nanoseconds = round(seconds * 1e9)
    for name in CLOCKS:
        clock, clock_ns = getattr(time, name), getattr(time, f"{name}_ns")
        setattr(time, name, lambda clock=clock: clock() + seconds)
        setattr(time, f"{name}_ns", lambda clock_ns=clock_ns: clock_ns() + nanoseconds)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        usage="%(prog)s [--seed N] [--clock-offset S] (SCRIPT | -m MODULE) [ARGS ...]",
        description="Run a script or module under perturbed process state.",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed of both global generators"
    )
    parser.add_argument(
        "--clock-offset",
        type=float,
        default=0.0,
        metavar="S",
        help="seconds added to every clock reading",
    )
    # As with ``python -m``, everything after the module name is the
    # module's own: ``-m MODULE --seed 3`` passes ``--seed 3`` on.
    parser.add_argument(
        "-m",
        dest="module",
        nargs=argparse.REMAINDER,
        help="run this module as __main__",
    )
    parser.add_argument("target", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (args.module or args.target):
        parser.error("name a SCRIPT or a -m MODULE")
    return args


def main() -> None:
    args = parse_args()
    random.seed(args.seed)
    np.random.seed(args.seed)
    offset_clocks(args.clock_offset)
    if args.module:
        sys.argv = list(args.module)
        sys.path[0] = os.getcwd()
        runpy.run_module(args.module[0], run_name="__main__", alter_sys=True)
    else:
        sys.argv = args.target
        sys.path[0] = os.path.dirname(os.path.abspath(args.target[0]))
        runpy.run_path(args.target[0], run_name="__main__")


if __name__ == "__main__":
    main()
