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
and bad lines, and one whose lines repeat names, concepts, terms and a
bad line, with one line that only argparse reads; usage errors in both
formats; `check` on a chain of 990 definitions under a step budget; and
`check` on two definition DAGs whose trees exceed the node budgets.
stderr reports the number of lines.  `tests/test_cli.py` pins the
sha256 of this output; a change that means to change the CLI's bytes
updates that constant.
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
        # role arguments outside the roles declaration, and a bad index
        "--rel m3 Rbox9 f4", "--list-related m3 Rbox9", "--sep Rdia7 f3 f4",
        "--sep-rel Rbox3 I m4", "--dif m2 m4 --role Rbox9",
        "--rel m3 Rbox0 f4",
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
# what a batch reads once, read again: names, concepts, terms, a bad
# concept on two lines, and a double-quoted line that argparse reads
REPEATS = [
    "--member m1 GM", "--list-related m3 I", "--member m1 'GM and FM'",
    "--disj 'm2 : GM' --disj 'm3 : RDM'", "--member m1 'GM and'",
    "--rel m1 I f3", "--member m3 GM", "--neg --member m1 GM",
    "--disj 'm3 : RDM'", "--member m1 'GM and'", '--member m1 "GM and FM"',
    "--subsume GM 'GM and FM'", "--list-related m3 I --side right",
    "--dif m1 m3 --role Rbox1", "--sep I m3 m1", "--dif m1 m3",
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
    for fmt in ("text", "json"):
        yield ["ask", "movies.kb", "--batch", "repeats.txt", "--format", fmt]
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
    # a 990-definition chain runs into its step budget
    for fmt in ("text", "json"):
        yield ["check", "chain.kb", "--max-steps", "200", "--format", fmt]
    # trees past the default node budgets: the definitions, then the ABox
    for kb in ("dag18.kb", "dag16x6.kb"):
        for fmt in ("text", "json"):
            yield ["check", kb, "--format", fmt]


def dag(levels: int, objects: int) -> str:
    """C{i} equiv C{i+1} and box1 C{i+1} down to C{levels} equiv GM, and
    C0 asserted of each object: C0's tree doubles with each level, its
    distinct subterms grow by two."""
    names = [f"b{k}" for k in range(objects)]
    return "\n".join([
        f"obj {' '.join(names)}.", "roles box 1 dia 0.",
        *(f"C{i} equiv C{i + 1} and box1 C{i + 1}." for i in range(levels)),
        f"C{levels} equiv GM.", *(f"{b} : C0." for b in names)]) + "\n"


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


def lines():
    """The digest line of each invocation, in order."""
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
        pathlib.Path(tmp, "repeats.txt").write_text(
            "\n".join(REPEATS) + "\n", encoding="utf-8")
        pathlib.Path(tmp, "equiv.txt").write_text("--equiv ''\n",
                                                  encoding="utf-8")
        pathlib.Path(tmp, "chain.kb").write_text(
            "obj b.\n" + "".join(f"C{k} equiv GM and C{k + 1}.\n"
                                 for k in range(989))
            + "C989 equiv GM.\nb : C0.\n", encoding="utf-8")
        for name, levels, objects in (("dag18.kb", 18, 1),
                                      ("dag16x6.kb", 16, 6)):
            pathlib.Path(tmp, name).write_text(dag(levels, objects),
                                               encoding="utf-8")
        os.chdir(tmp)
        try:
            for argv in invocations():
                yield f"{run(argv)} {shlex.join(argv)}"
        finally:
            os.chdir(here)


def main():
    count = 0
    for line in lines():
        print(line)
        count += 1
    print(f"{count} invocations", file=sys.stderr)


if __name__ == "__main__":
    main()
