"""``python3 -m polardl.cli ARGS`` under a speed sampler.

Usage: python3 perfbench/cli_child.py SAMPLES_JSON ARGS...

Runs ``polardl.cli`` as ``__main__``, as ``-m`` does, while a
``speed.Sampler`` times its probe every ``speed.INTERVAL_S``, and then
writes the seconds spent sampling and the mean probe rate to
SAMPLES_JSON.  The exit code is the CLI's.
"""

import json
import runpy
import statistics
import sys

import speed


def main():
    out = sys.argv[1]
    sys.argv = ["polardl"] + sys.argv[2:]
    sampler = speed.Sampler()
    sampler.start()
    try:
        runpy.run_module("polardl.cli", run_name="__main__", alter_sys=True)
    finally:
        sampler.stop()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"spent": sampler.spent,
                       "rate": statistics.fmean(sampler.rates)}, fh)


if __name__ == "__main__":
    main()
