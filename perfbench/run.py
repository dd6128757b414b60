"""Benchmark for polardl: whole query-answering sessions.

Usage (from the root of a polardl checkout):

    python3 perfbench/run.py --workload {ladder,wide,omqa} --seed N \\
        --seconds S --trace {0,1}

The workload is generated from the seed and written under
``perfbench/out/``.  The run then repeats rounds for ``--seconds``: it
starts another round only while that round, taking as long as the
longest so far, would end in time (there is always one round).  A round
is

* one fresh interpreter running ``session.py``: set-up, the model
  export, the lookup batch and the extension batch, every answer checked;
* one ``polardl.cli ask KB --batch FILE --format json`` subprocess over
  the lookups (``cli_child.py``, which runs the CLI as ``-m`` does under
  the speed sampler), its output checked line by line and its peak
  memory read from that child alone with ``os.wait4``.

Processes run one at a time; nothing here starts a thread.  Every figure
is the median over the run's rounds.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run also writes its spans to
``perfbench/out/trace-<workload>-<seed>.json``.

End-to-end metrics (``--trace 0``), times in reference seconds (see
``speed.py``: wall time scaled by the machine's speed, sampled every
10 ms while each timed step runs):

    setup_s      KB text to a decided completion, in a fresh process
    lookup_qps   lookup batch size over its time
    extension_s  time of the extension batch
    model_s      first build_model + model_to_dict + JSON encoding
    cli_batch_s  time of the CLI batch subprocess, spawn to exit
    peak_rss_mb  peak resident memory of that subprocess

The wall times of each round go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import speed
import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SESSION = os.path.join(HERE, "session.py")
CLI_CHILD = os.path.join(HERE, "cli_child.py")
# The longest one round may take: a run that has not ended this long
# after its --seconds is a failed run, not a slow one.
ROUND_LIMIT_S = 100.0

END_TO_END = {"setup_s": "s", "lookup_qps": "queries/s", "extension_s": "s",
              "model_s": "s", "cli_batch_s": "s", "peak_rss_mb": "MB"}
# first matching suffix wins
PER_LAYER_UNITS = {"facts_per_s": "facts/s", "_s": "s", "_us": "us",
                   "_bytes": "bytes"}


class ChildTimeout(Exception):
    pass


def run_child(argv, stdout_path, env, deadline):
    """Run one child to completion with stdout in a file and stderr in
    the same file name plus ``.err``.

    Returns (exit code, wall seconds, peak RSS in MB of this child
    alone, stderr text).  The child is killed if it outlives
    ``deadline``.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildTimeout(f"no time left to start {argv[1:3]}")
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, env=env, cwd=ROOT)

    stopped = []

    def kill(signum, frame):
        """Time is up, or the run is being stopped: end the child first."""
        proc.kill()
        stopped.append(signum)
    watched = (signal.SIGALRM, signal.SIGTERM, signal.SIGINT)
    previous = {sig: signal.signal(sig, kill) for sig in watched}
    signal.setitimer(signal.ITIMER_REAL, remaining)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if any(sig != signal.SIGALRM for sig in stopped):
        raise SystemExit(128 + stopped[-1])
    with open(stdout_path + ".err", encoding="utf-8", errors="replace") as fh:
        err = fh.read()
    if code == -signal.SIGKILL and time.monotonic() >= deadline:
        raise ChildTimeout(f"{argv[1:3]} ran past the time limit")
    return code, elapsed, usage.ru_maxrss / 1024.0, err


def check_cli(path, queries, code):
    """Failed CLI lines: a wrong answer, a missing line or a bad exit."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    failed, notes = 0, []
    if code != 0:
        notes.append(f"CLI exited {code}")
    if len(lines) != len(queries):
        notes.append(f"CLI printed {len(lines)} lines for {len(queries)} queries")
    for k, q in enumerate(queries):
        try:
            value = json.loads(lines[k])["answer"]
        except (IndexError, ValueError, KeyError, TypeError):
            failed += 1
            continue
        if not W.answer_ok(q["expect"], value):
            failed += 1
            if len(notes) < 10:
                notes.append(f"CLI {q['kind']} {q['args']}: got {value!r}, "
                             f"expected {q['expect']!r}")
    return failed, notes


def pin_to_one_cpu():
    """Keep this process and its children on one CPU.

    How fast a CPU runs depends on what shares its core, and that
    differs between CPUs, so a process the scheduler moves changes speed
    between two speed samples.  The parent only waits while a child
    runs, so the two do not compete.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def child_env():
    """Environment for the children: this checkout's sources first."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), HERE]))


def prepare(workload, seed, out=OUT, **sizes):
    """Generate the workload and write its KB, batch file and spec."""
    work = W.build(workload, seed, **sizes)
    wdir = os.path.join(out, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(wdir, exist_ok=True)
    paths = {k: os.path.join(wdir, n) for k, n in (
        ("kb", "kb.txt"), ("batch", "queries.txt"), ("spec", "spec.json"),
        ("session", "session.out"), ("cli", "cli.out"),
        ("startup", "startup.out"), ("samples", "cli-samples.json"))}
    with open(paths["kb"], "w", encoding="utf-8") as fh:
        fh.write(work["kb"])
    # the CLI batch holds the lookups: extension_s already times the
    # extension queries, which would double a round's length here
    queries = work["lookups"]
    with open(paths["batch"], "w", encoding="utf-8") as fh:
        fh.write("".join(W.cli_line(q) + "\n" for q in queries))
    spec = {"kb_path": paths["kb"], "lookups": work["lookups"],
            "extension": work["extension"], "model_check": work["model_check"]}
    with open(paths["spec"], "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    return wdir, paths, queries


def one_round(paths, queries, env, deadline, trace):
    """One session child and one CLI child; returns the round's figures."""
    argv = [sys.executable, SESSION, paths["spec"]] + (["--trace"] if trace else [])
    code, _, _, err = run_child(argv, paths["session"], env, deadline)
    if code != 0:
        raise RuntimeError(f"session exited {code}:\n{err[-2000:]}")
    with open(paths["session"], encoding="utf-8") as fh:
        session = json.loads(fh.read().splitlines()[-1])
    if "lookup_s" not in session:
        raise RuntimeError("session stopped early: "
                           + "; ".join(session["failures"]))
    r = {"setup_s": session["setup_s"],
         "lookup_qps": session["lookups"] / session["lookup_s"],
         "extension_s": session["extension_s"],
         "model_s": session["model_s"]}
    if trace:
        code, startup_s, _, _ = run_child(
            [sys.executable, "-c", "import polardl.cli"], paths["startup"],
            env, deadline)
        if code != 0:
            raise RuntimeError("importing polardl.cli failed")
    args = ["ask", paths["kb"], "--batch", paths["batch"], "--format", "json"]
    if trace:
        argv = [sys.executable, "-m", "polardl.cli"] + args
    else:       # the same CLI, under a speed sampler
        argv = [sys.executable, CLI_CHILD, paths["samples"]] + args
    code, cli_s, rss_mb, _ = run_child(argv, paths["cli"], env, deadline)
    cli_failed, cli_notes = check_cli(paths["cli"], queries, code)
    if not trace:
        with open(paths["samples"], encoding="utf-8") as fh:
            samples = json.load(fh)
        print("wall: " + json.dumps(dict(session["wall"], cli=cli_s)),
              file=sys.stderr)
        cli_s = ((cli_s - samples["spent"]) * speed.REFERENCE_PROBE_S
                 * samples["rate"])
    r.update(cli_batch_s=cli_s, peak_rss_mb=rss_mb)
    failures = session["failures"] + cli_notes
    round_ = {"e2e": r, "attempted": session["attempted"] + len(queries),
              "failed": session["failed"] + cli_failed,
              "ok": not session["invariants"] and code == 0,
              "notes": session["invariants"] + failures}
    if trace:
        layers = dict(session["layers"])
        layers["cli.startup_s"] = startup_s
        layers["cli.output_bytes"] = os.path.getsize(paths["cli"])
        round_["layers"] = layers
        round_["spans"] = {
            "session": session["spans"],
            "cli": [{"name": "cli.startup", "seconds": startup_s},
                    {"name": "cli.batch", "seconds": cli_s,
                     "output_bytes": layers["cli.output_bytes"],
                     "peak_rss_mb": rss_mb}]}
    return round_


def per_layer_unit(name):
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "polardl", "__init__.py")):
        print(f"error: no polardl sources under {src}; run from the root "
              f"of a polardl checkout", file=sys.stderr)
        return 2
    env = child_env()
    pin_to_one_cpu()
    start = time.monotonic()
    deadline = start + args.seconds + ROUND_LIMIT_S
    wdir, paths, queries = prepare(args.workload, args.seed)
    rounds = []
    longest = 0.0
    try:
        # start another round only if it should end within --seconds
        while not rounds or time.monotonic() - start + longest <= args.seconds:
            t0 = time.monotonic()
            rounds.append(one_round(paths, queries, env, deadline,
                                    bool(args.trace)))
            longest = max(longest, time.monotonic() - t0)
    except (ChildTimeout, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(wdir, ignore_errors=True)

    for r in rounds:
        for note in r["notes"][:10]:
            print(f"check: {note}", file=sys.stderr)
    if args.trace:
        keys = rounds[0]["layers"]
        metrics = {k: {"value": statistics.median(r["layers"][k] for r in rounds),
                       "unit": per_layer_unit(k)} for k in keys}
        trace_path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump([{"round": i, "e2e": r["e2e"], "layers": r["layers"],
                        "spans": r["spans"]} for i, r in enumerate(rounds)], fh)
    else:
        metrics = {k: {"value": statistics.median(r["e2e"][k] for r in rounds),
                       "unit": unit} for k, unit in END_TO_END.items()}
    for i, r in enumerate(rounds):
        print(f"round {i}: " + " ".join(f"{k}={v:.6g}" for k, v in r["e2e"].items()),
              file=sys.stderr)
    print(f"rounds: {len(rounds)}", file=sys.stderr)
    print(json.dumps({"correct": all(r["ok"] for r in rounds),
                      "attempted": sum(r["attempted"] for r in rounds),
                      "failed": sum(r["failed"] for r in rounds),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
