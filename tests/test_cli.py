import argparse
import contextlib
import io
import json
import pathlib
import shlex
import tempfile

import pytest
from hypothesis import assume, given, settings, strategies as st

from polardl import cli
from polardl.cli import main
from polardl.queries import QueryEngine

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
MOVIES = str(FIXTURES / "movies.kb")
CLASH = str(FIXTURES / "clash.kb")
HEADER = "roles box 1 dia 1.\nobj b.\n"
DEEP_PARENS = "(" * 500 + "DM" + ")" * 500


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:       # -h
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestCheck:
    def test_consistent_kb(self):
        code, out, _ = run_cli("check", MOVIES)
        assert code == 0
        assert out.splitlines()[0] == "consistent"

    def test_inconsistent_kb_exit_one_with_trace(self):
        code, out, _ = run_cli("check", CLASH)
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "inconsistent"
        steps = [line for line in lines if line.startswith("  ")]
        assert len(steps) == 3
        assert "[create]" in steps[0] and "[I]" in steps[1] \
            and "[neg_b]" in steps[2]

    def test_json_shape(self):
        code, out, _ = run_cli("check", MOVIES, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "consistent"
        assert doc["clash"] is None
        # 20 parsed assertions plus the classifier seed pair for the one
        # definition body that occurs nowhere in the ABox
        assert doc["input_assertions"] == 22
        assert doc["rule_applications"]["create"] > 0

    def test_json_clash_steps(self):
        code, out, _ = run_cli("check", CLASH, "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert [s["rule"] for s in doc["clash"]["steps"]] == \
            ["create", "I", "neg_b"]

    def test_json_trace(self):
        code, out, _ = run_cli("check", MOVIES, "--trace", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["trace"]) == doc["completion_size"] - \
            doc["input_assertions"]
        assert doc["trace"][0] == {
            "added": "a[(GM or FM) and G1] : (GM or FM) and G1",
            "premises": [], "rule": "create"}
        assert sum(doc["rule_applications"].values()) == \
            doc["completion_size"]

    def test_parse_error_exit_two(self, tmp_path):
        bad = tmp_path / "bad.kb"
        bad.write_text("obj m. m : IM and")
        code, out, err = run_cli("check", str(bad))
        assert code == 2
        assert "error:" in err
        code, out, _ = run_cli("check", str(bad), "--format", "json")
        assert code == 2
        assert "error" in json.loads(out)

    def test_missing_file(self):
        code, _, err = run_cli("check", "no-such-file.kb")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("concept", [
        DEEP_PARENS,
        " and ".join(f"A{k}" for k in range(1200)),
    ], ids=["parentheses", "conjuncts"])
    @pytest.mark.parametrize("command", ["check", "model"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_deep_input_is_an_error_not_a_verdict(self, tmp_path, concept,
                                                  command, fmt):
        kb = tmp_path / "deep.kb"
        kb.write_text(f"{HEADER}b : {concept}.\n")
        code, out, err = run_cli(command, str(kb), "--format", fmt)
        assert code == 2
        assert err.startswith("error: ")
        if fmt == "json":
            assert json.loads(out)["error"]["type"] == "RecursionError"
        else:
            assert out == ""


class TestAsk:
    def test_list_related(self):
        code, out, _ = run_cli("ask", MOVIES, "--list-related", "m3", "I")
        assert code == 0
        assert json.loads(out.splitlines()[0]) == ["f4", "f6"]

    def test_list_related_of_a_feature_on_the_left(self):
        code, out, _ = run_cli("ask", MOVIES, "--list-related", "f3", "I",
                               "--side", "left")
        assert code == 0
        assert json.loads(out) == ["m1"]

    def test_membership_json(self):
        code, out, _ = run_cli("ask", MOVIES, "--member", "m4",
                               "box1 DM and box2 DM", "--format", "json")
        doc = json.loads(out)
        assert code == 0 and doc["answer"] is False

    def test_subsumption(self):
        code, out, _ = run_cli("ask", MOVIES, "--subsume",
                               "box2 (RM and DM)", "box2 DM")
        assert json.loads(out.splitlines()[0]) is True

    def test_negative_membership(self):
        code, out, _ = run_cli("ask", MOVIES, "--neg", "--member", "m1",
                               "box2 dia1 RM")
        assert json.loads(out.splitlines()[0]) is True

    @pytest.mark.parametrize("c1", ["A and B", "B and A"])
    def test_negative_subsumption_either_operand_order(self, tmp_path, c1):
        kb = tmp_path / "kb.kb"
        kb.write_text(f"{HEADER}b : A and B.\nnot b : C.\n")
        code, out, _ = run_cli("ask", str(kb), "--neg", "--subsume", c1, "C")
        assert code == 0
        assert json.loads(out.splitlines()[0]) is True

    def test_negative_relational(self):
        _, out, _ = run_cli("ask", MOVIES, "--neg", "--rel", "m3", "Rbox1", "f4")
        assert json.loads(out.splitlines()[0]) is False

    def test_differentiation_with_trace(self):
        code, out, _ = run_cli("ask", MOVIES, "--dif", "m2", "m4",
                               "--format", "json", "--trace")
        doc = json.loads(out)
        assert doc["answer"] is True
        assert [s["rule"] for s in doc["certificate"]["steps"]] == \
            ["create", "and_A", "I", "SA(m4,m2)", "neg_b"]

    def test_differentiation_with_trace_in_text(self):
        code, out, _ = run_cli("ask", MOVIES, "--dif", "m2", "m4", "--trace")
        assert code == 0
        assert out.splitlines() == [
            "true",
            "clash derivation:",
            "  1. [create]  => x[GM or FM] :: GM or FM",
            "  2. [and_A] m4 : (GM or FM) and G1 => m4 : GM or FM",
            "  3. [I] m4 : GM or FM, x[GM or FM] :: GM or FM "
            "=> m4 I x[GM or FM]",
            "  4. [SA(m4,m2)] m4 I x[GM or FM] => m2 I x[GM or FM]",
            "  5. [neg_b] not (m2 : GM or FM) => not (m2 I x[GM or FM])"]

    def test_lookup_with_trace_in_text(self):
        code, out, _ = run_cli("ask", MOVIES, "--list-related", "m3", "I",
                               "--trace")
        assert code == 0
        assert out.splitlines() == [
            '["f4", "f6"]',
            '{"facts": ["m3 I f4", "m3 I f6"], "kind": "facts"}']

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_no_query_flag_is_an_error(self, fmt):
        code, out, err = run_cli("ask", MOVIES, "--format", fmt)
        assert code == 2
        assert err == "error: no query flag given\n"
        if fmt == "json":
            assert json.loads(out) == {"error": {
                "message": "no query flag given", "type": "PolardlError"}}

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_empty_equiv_path_is_a_file_that_cannot_be_read(self, fmt):
        code, out, err = run_cli("ask", MOVIES, "--equiv", "", "--format",
                                 fmt)
        assert code == 2
        assert err == "error: [Errno 2] No such file or directory: ''\n"
        if fmt == "json":
            assert json.loads(out) == {"error": {
                "message": "[Errno 2] No such file or directory: ''",
                "type": "FileNotFoundError"}}

    def test_empty_equiv_path_on_a_batch_line(self, tmp_path):
        code, out, err = _batch(tmp_path, ["--equiv ''", "--dif m2 m4"])
        assert code == 2
        docs = [json.loads(line) for line in out.splitlines()]
        assert docs[0]["error"]["type"] == "FileNotFoundError"
        assert docs[1]["answer"] is True
        assert err.startswith("error: --equiv '': [Errno 2]")

    def test_separation_flags(self):
        _, out, _ = run_cli("ask", MOVIES, "--sep", "I", "m4", "m2")
        assert json.loads(out.splitlines()[0]) is True
        _, out, _ = run_cli("ask", MOVIES, "--sep-rel", "Rbox1", "I", "m4")
        assert json.loads(out.splitlines()[0]) is False

    def test_disjunctive(self):
        _, out, _ = run_cli("ask", MOVIES, "--disj", "m2 : GM",
                            "--disj", "m3 : RDM")
        assert json.loads(out.splitlines()[0]) is True

    def test_equivalence_with_itself(self):
        _, out, _ = run_cli("ask", MOVIES, "--equiv", MOVIES)
        assert json.loads(out.splitlines()[0]) is True

    def test_unknown_name_is_error(self):
        code, _, err = run_cli("ask", MOVIES, "--list-related", "m9", "I")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("query, message", [
        (("f3", "I"), "I relates an object to a feature: f3 cannot stand "
                      "on its left"),
        (("m3", "Rdia1"), "Rdia1 relates a feature to an object: m3 cannot "
                          "stand on its left"),
    ])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_list_related_rejects_an_anchor_of_the_wrong_sort(
            self, query, message, fmt):
        code, out, err = run_cli("ask", MOVIES, "--list-related", *query,
                                 "--format", fmt)
        assert code == 2
        assert err == f"error: {message}\n"
        if fmt == "json":
            assert json.loads(out) == {"error": {
                "message": message, "type": "UnsupportedQueryError"}}
        else:
            assert out == ""

    @pytest.mark.parametrize("query, message", [
        (("m1", "Rfoo", "f3"), "not a role name"),
        (("f3", "I", "m1"), "incidence terms relate an object to a feature"),
    ])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_rejected_term_is_an_error_not_a_verdict(self, query, message,
                                                     fmt):
        code, out, err = run_cli("ask", MOVIES, "--rel", *query,
                                 "--format", fmt)
        assert code == 2
        assert err.startswith("error: ") and message in err
        if fmt == "json":
            error = json.loads(out)["error"]
            assert error["type"] == "ValueError"
            assert message in error["message"]
        else:
            assert out == ""

    @pytest.mark.parametrize("query, message", [
        (("--neg", "--dif", "m2", "m4"), "--neg applies only to"),
        (("--neg", "--list-related", "m3", "I"), "--neg applies only to"),
        (("--rel", "m3", "I", "f4", "--member", "m1", "IM"),
         "not allowed with argument --rel"),
        (("--sep", "I", "m4", "m2", "--dif", "m2", "m4"),
         "not allowed with argument --sep"),
        (("--member", "m1", "IM", "--role", "Rbox1"), "--role applies only"),
        (("--sep", "I", "m4", "m2", "--role", "Rbox1"), "--role applies only"),
        (("--member", "m1", "IM", "--side", "left"), "--side applies only"),
    ])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_ignored_flag_is_a_usage_error(self, query, message, fmt):
        code, out, err = run_cli("ask", MOVIES, *query, "--format", fmt)
        assert code == 2
        assert message in err
        if fmt == "json":
            error = json.loads(out)["error"]
            assert error["type"] == "ArgumentError"
            assert err.endswith(f"polardl ask: error: {error['message']}\n")
        else:
            assert out == ""

    @pytest.mark.parametrize("argv, prog, message", [
        (("ask", MOVIES, "--bogus"), "polardl",
         "unrecognized arguments: --bogus"),
        (("ask", MOVIES, "--rel", "m3", "I", "f4", "--member", "m1", "IM"),
         "polardl ask", "argument --member: not allowed with argument --rel"),
        (("bogus", MOVIES), "polardl", "argument command: invalid choice: "
         "'bogus' (choose from 'check', 'ask', 'model', 'trace')"),
        (("ask",), "polardl ask",
         "the following arguments are required: kb"),
    ])
    @pytest.mark.parametrize("fmt", [("--format", "text"),
                                     ("--format", "json"),
                                     ("--format=json",), ("--form", "json")])
    def test_usage_error_on_argv(self, argv, prog, message, fmt):
        code, out, err = run_cli(*argv, *fmt)
        assert code == 2
        # what argparse prints, once: the usage, then the message
        assert err.startswith("usage: polardl") and err.count("usage:") == 1
        assert err.endswith(f"\n{prog}: error: {message}\n")
        if "text" in fmt:
            assert out == ""
        else:
            assert out == json.dumps({"error": {
                "message": message, "type": "ArgumentError"}}) + "\n"

    def test_help_is_not_a_usage_error(self):
        code, out, err = run_cli("ask", "-h", "--format", "json")
        assert code == 0 and err == ""
        assert out.startswith("usage: polardl ask")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_unknown_side_is_an_error(self, fmt):
        code, out, err = run_cli("ask", MOVIES, "--list-related", "m3", "I",
                                 "--side", "bogus", "--format", fmt)
        assert code == 2
        assert err.startswith("error: ") and "side" in err
        if fmt == "json":
            assert json.loads(out)["error"]["type"] == "UnsupportedQueryError"
        else:
            assert out == ""

    def test_batch(self, tmp_path):
        batch = tmp_path / "queries.txt"
        batch.write_text("--list-related m3 I\n"
                         "# a comment\n"
                         "--member m4 'box1 DM and box2 DM'\n"
                         "--dif m2 m4\n")
        code, out, _ = run_cli("ask", MOVIES, "--batch", str(batch))
        assert code == 0
        docs = [json.loads(line) for line in out.splitlines()]
        assert [d["answer"] for d in docs] == [["f4", "f6"], False, True]

    @pytest.mark.parametrize("bad, error", [
        ("--member m4 'box1 DM", "ValueError"),         # unbalanced quote
        ("--bogus m1", "ArgumentError"),                # unknown flag
        ("--rel zz I f3", "ParseError"),                # undeclared name
        ("--dif m2 m4 -h", "ArgumentError"),            # help request
        pytest.param(f"--member m4 '{DEEP_PARENS}'", "RecursionError",
                     id="--member m4 deep-RecursionError"),
    ])
    def test_batch_goes_on_after_a_bad_line(self, tmp_path, bad, error):
        batch = tmp_path / "queries.txt"
        batch.write_text(f"--list-related m3 I\n{bad}\n--dif m2 m4\n")
        code, out, err = run_cli("ask", MOVIES, "--batch", str(batch))
        assert code == 2
        docs = [json.loads(line) for line in out.splitlines()]
        assert len(docs) == 3
        assert docs[0]["answer"] == ["f4", "f6"]
        assert docs[1]["error"]["type"] == error
        assert docs[1]["error"]["message"]
        assert docs[2]["answer"] is True
        assert bad in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_batch_goes_on_after_an_unreadable_equiv_file(self, tmp_path,
                                                          fmt):
        missing = tmp_path / "missing.kb"
        batch = tmp_path / "queries.txt"
        batch.write_text(f"--rel m3 I f4\n--equiv {missing}\n"
                         "--member m1 GM\n")
        code, out, err = run_cli("ask", MOVIES, "--batch", str(batch),
                                 "--format", fmt)
        assert code == 2
        docs = [json.loads(line) for line in out.splitlines()]
        assert [d.get("answer") for d in docs] == [True, None, False]
        assert docs[1]["error"]["type"] == "FileNotFoundError"
        assert str(missing) in docs[1]["error"]["message"]
        assert f"--equiv {missing}" in err

    @pytest.mark.parametrize("bad, message", [
        ("--neg --dif m2 m4", "--neg applies only to"),
        ("--rel m3 I f4 --member m1 IM", "not allowed with argument --rel"),
        ("--member m1 IM --role Rbox1", "--role applies only"),
        ("--dif m2 m4 --max-steps 1", "unrecognized arguments"),
        ("--dif m2 m4 --format text", "unrecognized arguments"),
        ("--dif m2 m4 --batch other.txt", "unrecognized arguments"),
    ])
    def test_batch_line_takes_query_flags_only(self, tmp_path, bad, message):
        batch = tmp_path / "queries.txt"
        batch.write_text(f"--list-related m3 I\n{bad}\n--dif m2 m4\n")
        code, out, _ = run_cli("ask", MOVIES, "--batch", str(batch))
        assert code == 2
        docs = [json.loads(line) for line in out.splitlines()]
        assert [d.get("answer") for d in docs] == [["f4", "f6"], None, True]
        assert docs[1]["error"]["type"] == "ArgumentError"
        assert message in docs[1]["error"]["message"]

    def test_batch_rejects_an_anchor_of_the_wrong_sort(self, tmp_path):
        batch = tmp_path / "queries.txt"
        batch.write_text("--list-related f3 I\n"
                         "--list-related f3 I --side left\n")
        code, out, err = run_cli("ask", MOVIES, "--batch", str(batch))
        assert code == 2
        assert [json.loads(line) for line in out.splitlines()] == [
            {"error": {"message": "I relates an object to a feature: f3 "
                                  "cannot stand on its left",
                       "type": "UnsupportedQueryError"}},
            {"answer": ["m1"], "command": "ask",
             "query": {"anchor": "f3", "role": "I", "side": "left",
                       "type": "list-related"}}]
        assert err == ("error: --list-related f3 I: I relates an object to "
                       "a feature: f3 cannot stand on its left\n")

    def test_batch_unknown_side_is_an_error_record(self, tmp_path):
        batch = tmp_path / "queries.txt"
        batch.write_text("--list-related m3 I --side bogus\n")
        code, out, _ = run_cli("ask", MOVIES, "--batch", str(batch))
        assert code == 2
        assert json.loads(out)["error"]["type"] == "UnsupportedQueryError"

    def test_outer_trace_applies_to_every_line(self, tmp_path):
        batch = tmp_path / "queries.txt"
        batch.write_text("--dif m2 m4\n--list-related m3 I\n")
        code, out, _ = run_cli("ask", MOVIES, "--batch", str(batch),
                               "--trace")
        assert code == 0
        docs = [json.loads(line) for line in out.splitlines()]
        assert [s["rule"] for s in docs[0]["certificate"]["steps"]] == \
            ["create", "and_A", "I", "SA(m4,m2)", "neg_b"]
        assert docs[1]["certificate"]["kind"] == "facts"

    @pytest.mark.parametrize("beside", [
        ("--rel", "m3", "I", "f4"), ("--dif", "m2", "m4"), ("--neg",),
        ("--role", "Rbox1"),
    ])
    def test_query_flag_beside_batch_is_a_usage_error(self, tmp_path,
                                                      beside):
        batch = tmp_path / "queries.txt"
        batch.write_text("--list-related m3 I\n")
        code, out, err = run_cli("ask", MOVIES, "--batch", str(batch),
                                 *beside)
        assert code == 2
        assert out == ""
        assert "not allowed with --batch" in err


class TestModelAndTrace:
    def test_model_json(self):
        code, out, _ = run_cli("model", MOVIES, "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert "m3" in doc["objects"]
        assert doc["dia_roles"]["2"] == [["f3", "m3"]]

    def test_model_csv(self):
        code, out, _ = run_cli("model", MOVIES, "--csv")
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == ""
        m3_row = next(line for line in lines if line.startswith('"m3"'))
        cells = m3_row.split(",")
        f4_col = header.index('"f4"')
        assert cells[f4_col] == "1"

    def test_trace_records(self):
        code, out, _ = run_cli("trace", CLASH)
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert all(set(r) == {"rule", "premises", "added"} for r in records)
        assert any(r["rule"] == "neg_b" for r in records)


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("check", MOVIES, "--format", "json"),
        ("ask", MOVIES, "--list-related", "m3", "I", "--format", "json"),
        ("ask", MOVIES, "--dif", "m2", "m4", "--format", "json", "--trace"),
        ("model", MOVIES, "--format", "json"),
        ("model", MOVIES, "--csv"),
        ("trace", MOVIES),
    ])
    def test_byte_identical_reruns(self, argv):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second


# -- random KB text: the CLI never lets an exception escape -------------------

_OBJ, _FEAT = st.sampled_from(["b", "d"]), st.sampled_from(["y", "z"])
_ANY = st.sampled_from(["b", "y", "q", "I"])
_CONCEPTS = st.recursive(
    st.sampled_from(["A", "B", "C", "A", "B", "b", "box1", "("]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["and", "or"]), inner).map(" ".join),
        st.tuples(st.sampled_from(["box1", "dia1", "box1", "dia1", "box2",
                                   "not"]), inner).map(" ".join),
        inner.map("( {} )".format)),
    max_leaves=6)
_TOKENS = st.lists(st.sampled_from(
    ["roles", "box", "dia", "1", "0", "obj", "feat", "b", "y", "A", ":",
     "::", "I", "Rbox1", "Rdia1", "not", "and", "or", "equiv", "sub", "(",
     ")", ".", "#", "\n", "-", "\u00e9"]), max_size=12).map(" ".join)
_FACTS = st.one_of(
    st.builds("{} : {}".format, _OBJ, _CONCEPTS),
    st.builds("{} :: {}".format, _FEAT, _CONCEPTS),
    st.builds("{} {} {}".format, _OBJ, st.sampled_from(["I", "Rbox1"]),
              _FEAT),
    st.builds("{} Rdia1 {}".format, _FEAT, _OBJ),
    st.builds("{} {} {}".format, _ANY,
              st.sampled_from([":", "::", "I", "Rbox2", "Rdia0"]), _ANY))
_STATEMENTS = st.one_of(
    _FACTS.map("{} .".format),
    _FACTS.map("not {} .".format),
    st.builds("{} {} {} .".format, _CONCEPTS,
              st.sampled_from(["equiv", "sub"]), _CONCEPTS),
    st.sampled_from(["obj q.", "feat q.", "roles box 2 dia 0."]),
    _TOKENS)
_KB_TEXT = st.tuples(
    st.sampled_from(["", "roles box 1 dia 1.\nobj b d.\nfeat y z.\n"]),
    st.lists(_STATEMENTS, max_size=6)).map(
        lambda parts: parts[0] + "\n".join(parts[1]))


# -- random --batch lines over movies.kb --------------------------------------

_M_NAMES = st.sampled_from(["m1", "m2", "m3", "m4", "f1", "f3", "f5", "x0",
                            "m9", "GM", "I"])
_M_ROLES = st.sampled_from(["I", "Rbox1", "Rbox2", "Rdia1", "Rdia2", "Rbox3",
                            "Rfoo", "m1"])
_M_CONCEPTS = st.recursive(
    st.sampled_from(["GM", "FM", "IM", "EUM", "RDM", "DM", "RM", "FDM",
                     "Zed", "m1", "("]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["and", "or"]), inner).map(" ".join),
        st.tuples(st.sampled_from(["box1", "dia1", "box2", "dia2", "box3",
                                   "not"]), inner).map(" ".join),
        inner.map("( {} )".format)),
    max_leaves=5).map(shlex.quote)
_M_TERMS = st.one_of(
    st.builds("{} : {}".format, _M_NAMES, _M_CONCEPTS),
    st.builds("{} :: {}".format, _M_NAMES, _M_CONCEPTS),
    st.builds("{} {} {}".format, _M_NAMES, _M_ROLES, _M_NAMES)).map(
        shlex.quote)
_QUERY_LINES = st.one_of(
    st.builds("--rel {} {} {}".format, _M_NAMES, _M_ROLES, _M_NAMES),
    st.builds("--list-related {} {}{}".format, _M_NAMES, _M_ROLES,
              st.sampled_from(["", " --side left", " --side up",
                               " --include-synthetic"])),
    st.builds("{}--member {} {}".format, st.sampled_from(["", "--neg "]),
              _M_NAMES, _M_CONCEPTS),
    st.builds("--list-members {}{}".format, _M_CONCEPTS,
              st.sampled_from(["", " --side intent", " --side left"])),
    st.builds("{}--subsume {} {}".format, st.sampled_from(["", "--neg "]),
              _M_CONCEPTS, _M_CONCEPTS),
    st.lists(_M_TERMS, min_size=1, max_size=3).map(
        lambda terms: " ".join(f"--disj {t}" for t in terms)),
    st.builds("--sep {} {} {}".format, _M_ROLES, _M_NAMES, _M_NAMES),
    st.builds("--sep-rel {} {} {}".format, _M_ROLES, _M_ROLES, _M_NAMES),
    st.builds("--dif {} {}{}".format, _M_NAMES, _M_NAMES,
              st.sampled_from(["", " --role Rbox1", " --role Rfoo"])),
    st.builds("--identity {} {}".format, _M_NAMES, _M_NAMES),
    st.sampled_from(["--equiv {movies}", "--equiv {clash}",
                     "--equiv {missing}", "--equiv {tmp}"]),
    st.lists(st.sampled_from(
        ["--rel", "--member", "--neg", "--dif", "--equiv", "--side", "-h",
         "--bogus", "m1", "f3", "GM", "I", "'", '"', "#", "(", "and",
         "\u00e9", "--trace", "--max-steps"]), min_size=1, max_size=6).map(
            " ".join))


class TestRandomInput:
    @settings(max_examples=150, deadline=None)
    @given(_KB_TEXT)
    def test_random_kb_text_gives_an_exit_code(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            kb = pathlib.Path(tmp) / "random.kb"
            kb.write_text(text, encoding="utf-8")
            for argv in (["check"], ["check", "--format", "json"],
                         ["model"]):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main([*argv, str(kb)])
                assert code in (0, 1, 2), (argv, text)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_QUERY_LINES, min_size=1, max_size=4))
    def test_random_batch_lines_give_one_record_each(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            paths = {"movies": MOVIES, "clash": CLASH, "tmp": tmp,
                     "missing": str(pathlib.Path(tmp) / "missing.kb")}
            lines = [line.format(**paths) if line.startswith("--equiv")
                     else line for line in lines]
            batch = pathlib.Path(tmp) / "queries.txt"
            batch.write_text("\n".join(lines), encoding="utf-8")
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(["ask", MOVIES, "--batch", str(batch),
                             "--max-steps", "20000"])
        queries = [line for line in lines
                   if line.strip() and not line.strip().startswith("#")]
        assert code in (0, 2), lines
        records = out.getvalue().splitlines()
        assert len(records) == len(queries), lines
        for record in records:
            assert isinstance(json.loads(record), dict), lines


# -- batch lines against the argparse reference ------------------------------

class _ReferenceLineParser(argparse.ArgumentParser):
    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _reference_batch(lines, kb_path, max_steps):
    """The records and stderr of `ask --batch` over the lines, each line
    read by shlex.split and argparse, checked by `_check_query` and
    answered by `_run_ask_query`."""
    kb = cli._load(kb_path)
    engine = QueryEngine(kb, max_steps=max_steps)
    ap = _ReferenceLineParser(add_help=False, parents=[cli._query_flags()])
    records, err = [], ""
    for line in map(str.strip, lines):
        if not line or line.startswith("#"):
            continue
        try:
            args = ap.parse_args(shlex.split(line))
            cli._check_query(args, ap.error)
            payload = cli._run_ask_query(args, kb, engine)
        except (*cli._INPUT_ERRORS, argparse.ArgumentError) as exc:
            payload = cli._error_payload(exc)
            err += f"error: {line}: {exc}\n"
        records.append(json.dumps(payload, sort_keys=True))
    return records, err


def _assert_plain_lines_read_as_argparse(lines):
    ap = _ReferenceLineParser(add_help=False, parents=[cli._query_flags()])
    for line in map(str.strip, lines):
        fast = cli._plain_line(line)
        if fast is not None:
            assert fast == ap.parse_args(shlex.split(line)), line


def _batch(tmp, lines, *flags):
    batch = pathlib.Path(tmp) / "queries.txt"
    batch.write_text("\n".join(lines), encoding="utf-8")
    return run_cli("ask", MOVIES, "--batch", str(batch), *flags)


def _equiv_paths(tmp):
    return {"movies": MOVIES, "clash": CLASH, "tmp": tmp,
            "missing": str(pathlib.Path(tmp) / "missing.kb")}


def _assert_batch_matches_reference(tmp, lines):
    code, out, err = _batch(tmp, lines, "--max-steps", "20000")
    records, expected_err = _reference_batch(lines, MOVIES, 20000)
    assert out.splitlines() == records, lines
    assert err == expected_err, lines
    assert code == (2 if expected_err else 0), lines


_EDGE_LINES = [
    "--mem m1 GM", "--se I m4 m2", "--li m3 I", "--rel=m1 I f3",
    "--member m1 -1", "--member -- m1",
    "a'b c'", "--member m1 'GM''FM'", "--member m1 'GM'x", "--member 'm1' GM",
    '--member m1 "GM and FM"', '--member m1 "G\\"M"', "--member m1 G\\M",
    "--member\tm1 GM", "--member m1\tGM", "--member m1 GM\t--trace",
    "--member m1 'GM'--trace", "--member m1 GM\x0bFM",
    "--member m1\x0bGM", "--member m1 G\x0cM", "--member m1\u00a0GM",
    "--member m1 'GM\u00a0'", "--member m1 GM#x", "--member m1#x GM",
    "--member m1 GM --trace", "--list-related m3 I --trace --trace",
    "--rel m3 I f4 --rel m1 I f3", "--neg --neg --member m1 GM",
    "--side left --side right --list-related f3 I",
    "--disj 'm2 : GM' --disj 'm3 : RDM'", "--disj 'm2 : GM' --rel m3 I f4",
    "-h", "--dif m2 m4 -h", "--help", "--member m1", "--member m1 GM FM",
    "--member m1 ''", "''", "--list-related m3 I --side", "--equiv",
    "--member m4 'box1 DM", "--list-related f3 I", "--list-related m3 Rdia1",
    "--neg --dif m2 m4", "--dif m2 m4 --role Rbox1", "--trace",
    "--list-members 'box1 DM and box2 DM' --side intent",
    "--subsume 'box2 (RM and DM)' 'box2 DM'",
    "--subsume 'box2 (RM and DM)' 'box2 (RM and DM)'",
]


class TestBatchAgainstArgparse:
    @pytest.mark.parametrize("line", _EDGE_LINES)
    def test_edge_line_matches_argparse(self, tmp_path, line):
        _assert_batch_matches_reference(tmp_path, ["--dif m2 m4", line])

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_QUERY_LINES, min_size=1, max_size=4))
    def test_random_lines_match_argparse(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            lines = [line.format(**_equiv_paths(tmp))
                     if line.startswith("--equiv") else line
                     for line in lines]
            _assert_batch_matches_reference(tmp, lines)

    def test_plain_edge_lines_read_as_argparse_reads_them(self):
        _assert_plain_lines_read_as_argparse(_EDGE_LINES)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_QUERY_LINES, min_size=1, max_size=4))
    def test_plain_random_lines_read_as_argparse_reads_them(self, lines):
        _assert_plain_lines_read_as_argparse(lines)

    @settings(max_examples=100, deadline=None)
    @given(_QUERY_LINES)
    def test_random_query_flags_on_argv(self, line):
        with tempfile.TemporaryDirectory() as tmp:
            if line.startswith("--equiv"):
                line = line.format(**_equiv_paths(tmp))
            try:
                words = shlex.split(line)
            except ValueError:
                words = None
            assume(words is not None and "-h" not in words)
            code, out, _ = run_cli("ask", MOVIES, *words, "--format", "json",
                                   "--max-steps", "20000")
            assert code in (0, 2), line
            if "--max-steps" in words or line.startswith("#"):
                # a flag of the command line, not of a query, or a line a
                # batch file skips as a comment: on argv, a usage error
                assert json.loads(out)["error"]["type"] == "ArgumentError"
            elif out:
                _, record, _ = _batch(tmp, [line], "--max-steps", "20000")
                assert json.loads(out) == json.loads(record), line
            else:
                assert code == 2, line
