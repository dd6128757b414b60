"""Dev aid: digest the CLI's output over a fixed list of invocations.

Run directly: PYTHONPATH=src python tests/dev_cli_bytes.py > bytes.txt

Each line reads

    <stdout digest> <stderr digest> <exit code> <argv>

for one `polardl` invocation, made in this process through `cli.main`
with stdout and stderr captured; the exit of -h counts with its code.
The fixtures and the batch files are copied into a temporary directory,
which is the working directory during the run, so no path of the
checkout shows in the output: the lines of two checkouts compare with
`diff`.  The list covers `check`, `trace` and `model` in every format on
both fixtures; every `ask` query kind in text and json, with and without
--trace, with the --neg forms and the error cases; --batch files of good
and bad lines; and usage errors in both formats.  stderr reports the
number of lines.
"""

import contextlib
import hashlib
import io
import os
import pathlib
import shlex
import shutil
import sys
import tempfile

from polardl import cli

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# (kb, query flags) of the `ask` invocations
ASKS = [
    ("movies.kb", q) for q in [
        "--rel m3 I f4", "--rel m1 I f4", "--rel m3 Rbox1 f3",
        "--rel f3 Rdia1 m3", "--neg --rel m3 Rbox1 f4",
        "--neg --rel m1 Rbox1 f6", "--rel m1 Rfoo f3", "--rel f3 I m1",
        "--rel m9 I f3", "--neg --rel m3 I f3",
        "--list-related m3 I", "--list-related f3 I --side left",
        "--list-related m3 I --include-synthetic",
        "--list-related m3 Rbox1", "--list-related f3 Rdia1",
        "--list-related m3 Rdia1 --side left", "--list-related m3 I --side up",
        "--list-related m9 I", "--list-related f3 I", "--list-related m3 Rdia1",
        "--list-related m3 Rbox1 --side left",
        "--list-related f3 Rdia2 --side left",
        "--member m4 'box1 DM and box2 DM'", "--member m3 RDM",
        "--member x0 'GM and IM'", "--member m1 Zed",
        "--neg --member m1 'box2 dia1 RM'", "--neg --member m2 GM",
        "--member m1 'GM and'",
        "--list-members EUM", "--list-members GM --side intent",
        "--list-members EUM --include-synthetic",
        "--list-members GM --side left",
        "--subsume 'box2 (RM and DM)' 'box2 DM'", "--subsume IM EUM",
        "--subsume GM IM", "--neg --subsume IM RM",
        "--neg --subsume 'GM and FM' GM",
        "--disj 'm2 : GM' --disj 'm3 : RDM'", "--disj 'm2 : GM'",
        "--disj 'not m2 : GM'", "--disj 'm1 I f3' --disj 'f1 :: GM'",
        "--sep I m4 m2", "--sep I m2 m4", "--sep Rbox1 m3 m1",
        "--sep I m4 f3", "--sep I f1 f2",
        "--sep-rel Rbox1 I m4", "--sep-rel Rbox1 Rdia1 m3",
        "--sep-rel Rdia1 I f3", "--sep-rel Rbox1 Rbox2 m3",
        "--sep-rel I Rbox1 m3", "--sep-rel Rdia1 Rdia2 f3",
        "--sep-rel Rbox1 I f3",
        "--dif m2 m4", "--dif m1 m3 --role Rbox1", "--dif m1 m1",
        "--dif m2 f3", "--dif m2 m4 --role Rfoo",
        "--identity m1 m3", "--identity m2 m4", "--identity f1 f2",
        "--equiv movies.kb", "--equiv clash.kb", "--equiv missing.kb",
        "", "--neg --dif m2 m4", "--neg --list-related m3 I",
        "--rel m3 I f4 --member m1 IM", "--member m1 IM --role Rbox1",
        "--member m1 IM --side left", "--dif m2 m4 --max-steps 1",
    ]] + [
    ("clash.kb", q) for q in [
        "--rel b I b", "--member b D", "--list-related b I",
        "--neg --member b D", "--sep I b b", "--identity b b",
    ]]

GOOD_LINES = [q for kb, q in ASKS if kb == "movies.kb" and q]
BAD_LINES = [
    "--member m4 'box1 DM", "--bogus m1", "--rel zz I f3", "--dif m2 m4 -h",
    "--list-related m3 I --side bogus", "--neg --dif m2 m4",
    "--mem m1 GM", "--rel=m1 I f3", "--member m1 -1", "--member -- m1",
    "a'b c'", '--member m1 "GM and \\"FM\\""', "--member m1 GM\\ and\\ FM",
    "--member\tm1 GM", "--member m1 GM\x0bFM", "--member m1 G\x0cM",
    "--member m1 GM ", "--member m1 GM#x", "--list-related m3 I --trace",
    "--rel m3 I f4 --rel m1 I f3", "-h", "--dif m2 m4 --format text",
    "--list-members 'box1 (DM'", "--identity m1",
]


def invocations():
    for kb in ("movies.kb", "clash.kb"):
        for fmt in ("text", "json"):
            for extra in ([], ["--trace"]):
                yield ["check", kb, "--format", fmt, *extra]
            yield ["model", kb, "--format", fmt]
            yield ["trace", kb, "--format", fmt]
        yield ["model", kb, "--csv"]
        yield ["check", kb, "--max-steps", "5"]
    for kb, query in ASKS:
        for fmt in ("text", "json"):
            for extra in ([], ["--trace"]):
                yield ["ask", kb, *shlex.split(query), "--format", fmt,
                       *extra]
    for batch in ("good.txt", "bad.txt", "missing.txt"):
        for fmt in ("text", "json"):
            for extra in ([], ["--trace"]):
                yield ["ask", "movies.kb", "--batch", batch, "--format", fmt,
                       *extra]
    yield ["ask", "clash.kb", "--batch", "good.txt"]
    yield ["ask", "movies.kb", "--batch", "good.txt", "--neg"]
    yield ["ask", "movies.kb", "--batch", "good.txt", "--dif", "m2", "m4"]
    # an empty --equiv path names a file that cannot be read
    for fmt in ("text", "json"):
        yield ["ask", "movies.kb", "--equiv", "", "--format", fmt]
    yield ["ask", "movies.kb", "--batch", "equiv.txt"]
    for argv in (["-h"], ["ask", "-h"], ["check", "-h"], [], ["ask"],
                 ["bogus", "movies.kb"], ["check", "missing.kb"],
                 ["check", "movies.kb", "--format", "xml"],
                 ["ask", "movies.kb", "--rel", "m3", "I"]):
        yield argv
    # usage errors: stderr as argparse prints it, a JSON record under json
    for fmt in ("text", "json"):
        yield ["ask", "movies.kb", "--bogus", "--format", fmt]
        yield ["bogus", "movies.kb", "--format", fmt]
        yield ["ask", "--format", fmt]
    yield ["ask", "movies.kb", "--bogus", "--format=json"]
    yield ["ask", "movies.kb", "--bogus", "--form", "json"]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:       # -h
            code = exc.code
    return f"{_digest(out.getvalue())} {_digest(err.getvalue())} {code}"


def main():
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("movies.kb", "clash.kb"):
            shutil.copy(FIXTURES / name, tmp)
        pathlib.Path(tmp, "good.txt").write_text(
            "# every query kind\n\n" + "\n".join(GOOD_LINES) + "\n",
            encoding="utf-8")
        pathlib.Path(tmp, "bad.txt").write_text(
            "\n".join(line for pair in zip(GOOD_LINES, BAD_LINES)
                      for line in pair)
            + "\n", encoding="utf-8")
        pathlib.Path(tmp, "equiv.txt").write_text("--equiv ''\n",
                                                  encoding="utf-8")
        os.chdir(tmp)
        try:
            count = 0
            for argv in invocations():
                print(run(argv), shlex.join(argv))
                count += 1
        finally:
            os.chdir(here)
    print(f"{count} invocations", file=sys.stderr)


if __name__ == "__main__":
    main()
