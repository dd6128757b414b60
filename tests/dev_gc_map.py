"""Dev aid: where the cyclic garbage collector runs in a perfbench session.

Run from the root of a checkout:

    PYTHONPATH=src python tests/dev_gc_map.py WORKLOAD SEED [SEED ...]

For each seed, the workload is written as perfbench writes it
(``run.prepare``), and one fresh interpreter runs ``perfbench/session.py
SPEC`` as ``__main__``, as perfbench does, with a ``gc.callbacks`` hook
installed from the start.  Each collection counts for the step that was running when it
started: a ``speed.Meter.run`` call (setup, model, lookups, extension),
or the untimed stretch before the first one or after one ("after
model" holds the binding of the query batches).  Per seed it prints the
session's ``lookup_qps``, ``extension_s`` and ``model_s`` as perfbench
computes them (reference seconds), then per step the collections of
each generation and their milliseconds.  It imports from ``perfbench/``
and changes nothing there: the step names come from wrapping
``Meter.run`` in the child process only.
"""

import gc
import json
import os
import runpy
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
TIMED = ("setup", "model", "lookups", "extension")
STEPS = ("before", *(f"{when}{name}" for name in TIMED
                     for when in ("", "after ")))


def one_session(spec_path):
    """Run ``perfbench/session.py SPEC`` as ``__main__`` in this fresh
    interpreter and print, after the session's own result line, the
    collections of the session by step and generation."""
    sys.path.insert(0, BENCH)
    import speed

    counts = {step: [[0, 0.0] for _ in range(3)] for step in STEPS}
    state = {"step": "before", "began": None}

    def on_gc(phase, info):
        if phase == "start":
            state["began"] = (state["step"], time.perf_counter())
        else:
            step, t0 = state["began"]
            cell = counts[step][info["generation"]]
            cell[0] += 1
            cell[1] += 1e3 * (time.perf_counter() - t0)

    step_run = speed.Meter.run

    def named_run(meter, name, fn, *args):
        state["step"] = name
        try:
            return step_run(meter, name, fn, *args)
        finally:
            state["step"] = f"after {name}"

    speed.Meter.run = named_run
    sys.argv = [os.path.join(BENCH, "session.py"), spec_path]
    gc.callbacks.append(on_gc)
    try:
        runpy.run_path(sys.argv[0], run_name="__main__")
    except SystemExit:
        pass
    finally:
        gc.callbacks.remove(on_gc)
    print(json.dumps(counts))


def report(workload, seed, got):
    print(f"{workload} seed {seed}: lookup_qps {got['lookup_qps']:.0f}  "
          f"extension_s {got['extension_s']:.5f}  "
          f"model_s {got['model_s']:.4f}")
    print(f"  {'step':<16}" + "".join(f"{f'gen{g} n':>9}{'ms':>8}"
                                     for g in range(3)))
    for step in STEPS:
        cells = got["gc"][step]
        print(f"  {step:<16}" + "".join(f"{n:>9}{ms:>8.1f}"
                                         for n, ms in cells))


def main(argv):
    if argv[:1] == ["--one"]:
        one_session(argv[1])
        return 0
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, BENCH)
    import run
    workload, seeds = argv[0], [int(s) for s in argv[1:]]
    for seed in seeds:
        with tempfile.TemporaryDirectory() as out:
            _, paths, _ = run.prepare(workload, seed, out=out)
            child = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--one",
                 paths["spec"]], capture_output=True, text=True, cwd=ROOT,
                check=True)
        result, counts = map(json.loads, child.stdout.splitlines()[-2:])
        report(workload, seed, dict(
            gc=counts, lookup_qps=result["lookups"] / result["lookup_s"],
            extension_s=result["extension_s"], model_s=result["model_s"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
