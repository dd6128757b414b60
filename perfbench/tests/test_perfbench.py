"""Tests of the benchmark itself: generators, correctness checks, rounds.

Run from the root of the checkout:

    python3 -m pytest perfbench/tests -q
"""

import collections
import json
import os
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import polardl as P          # noqa: E402
import run                   # noqa: E402
import session               # noqa: E402
import speed                 # noqa: E402
import workloads as W        # noqa: E402

SMALL = {"ladder": {"n": 300}, "wide": {"n": 12},
         "omqa": {"n_obj": 40, "n_feat": 40}}


def _shape(work):
    """Query counts per (batch, kind): what must not depend on the seed."""
    return (collections.Counter(q["kind"] for q in work["lookups"]),
            collections.Counter(q["kind"] for q in work["extension"]))


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    first = W.build(name, 7)
    assert W.build(name, 7) == first
    other = W.build(name, 8)
    assert other["kb"] != first["kb"] or other["lookups"] != first["lookups"]
    assert _shape(other) == _shape(first) == _shape(W.build(name, 9))


def test_generators_do_not_depend_on_the_hash_seed():
    """Every run generates its workload in a fresh interpreter."""
    code = ("import hashlib, json, sys; sys.path.insert(0, %r); "
            "import workloads as W; print(hashlib.sha256(json.dumps("
            "[W.build(n, 3) for n in W.WORKLOADS]).encode()).hexdigest())"
            % BENCH)
    digests = {subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONHASHSEED=h)).stdout
               for h in ("1", "2")}
    assert len(digests) == 1


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_no_query_is_asked_twice(name):
    """A session asks every query once, so an answer memo gains nothing
    that a user's session would not."""
    work = W.build(name, 11)
    keys = [(q["kind"], tuple(q["args"]))
            for q in work["lookups"] + work["extension"]]
    assert len(set(keys)) == len(keys)


def test_oracle_refuses_pairs_that_normality_could_relate():
    a, b = W.atom("A"), W.atom("B")
    box = lambda i, c: ("box", i, c)        # noqa: E731
    dia = lambda i, c: ("dia", i, c)        # noqa: E731
    oracle = W.Oracle()
    with pytest.raises(ValueError):
        oracle.leq(W.meet(box(1, a), box(1, b)), box(1, W.meet(a, b)))
    with pytest.raises(ValueError):
        oracle.leq(dia(2, W.join(a, b)), W.join(dia(2, a), dia(2, b)))
    with pytest.raises(ValueError):     # inside a modal argument too
        oracle.leq(dia(1, W.meet(box(1, a), box(1, b))), dia(1, a))
    assert oracle.leq(W.meet(box(1, a), box(2, b)), box(1, a))
    assert not oracle.leq(box(1, a), box(1, W.meet(a, b)))
    assert oracle.leq(box(1, W.meet(a, b)), box(1, a))


def _flip(expect):
    """A deliberately wrong answer for an expectation."""
    if isinstance(expect, bool):
        return not expect
    if "exact" in expect:
        return expect["exact"][1:] if expect["exact"] else ["nobody"]
    return expect["includes"][1:]


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_every_query_check_rejects_a_wrong_answer(name):
    work = W.build(name, 3, **SMALL[name])
    for q in work["lookups"] + work["extension"]:
        expect = q["expect"]
        if isinstance(expect, bool) or "exact" in expect:
            value = expect if isinstance(expect, bool) else expect["exact"]
            assert W.answer_ok(expect, value)
            assert not W.answer_ok(expect, _flip(expect)), q
        elif expect["includes"]:
            assert W.answer_ok(expect, expect["includes"] + ["extra"])
            assert not W.answer_ok(expect, _flip(expect)), q
        assert not W.answer_ok(expect, None)


def test_cli_check_counts_wrong_missing_and_bad_exit(tmp_path):
    queries = [W.query("rel", ["b", "I", "y"], True),
               W.query("list_related", ["b", "I", "right"], {"exact": ["y"]}),
               W.query("member", ["b", "C"], False)]
    out = tmp_path / "cli.out"
    good = [{"answer": True}, {"answer": ["y"]}, {"answer": False}]
    out.write_text("".join(json.dumps(x) + "\n" for x in good))
    assert run.check_cli(str(out), queries, 0) == (0, [])
    wrong = [{"answer": True}, {"answer": ["y", "z"]}, {"answer": False}]
    out.write_text("".join(json.dumps(x) + "\n" for x in wrong))
    assert run.check_cli(str(out), queries, 0)[0] == 1
    out.write_text(json.dumps(good[0]) + "\n")
    failed, notes = run.check_cli(str(out), queries, 2)
    assert failed == 2 and any("exited 2" in n for n in notes)


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_model_check_rejects_a_missing_fact(name):
    work = W.build(name, 5, **SMALL[name])
    engine = P.QueryEngine(P.parse_kb(work["kb"]))
    exported = P.model_to_dict(P.build_model(engine.completion))
    want = work["model_check"]
    assert session.check_model(exported, want) == []
    if want["incidence"]:
        b, y = want["incidence"][0]
        exported["incidence"][b].remove(y)
    else:           # wide has no relational facts: empty an atom's extent
        exported["atoms"][next(iter(want["atoms"]))]["extent"] = []
    assert session.check_model(exported, want)


def _spec(tmp_path, work):
    kb = tmp_path / "kb.txt"
    kb.write_text(work["kb"])
    return {"kb_path": str(kb), "lookups": work["lookups"],
            "extension": work["extension"], "model_check": work["model_check"]}


def test_session_counts_wrong_answers_and_fresh_saturations(tmp_path):
    work = W.build("wide", 4, **SMALL["wide"])
    spec = _spec(tmp_path, work)
    assert session.run_session(spec)["failed"] == 0
    spec["lookups"] = [dict(q, expect=_flip(q["expect"]))
                       for q in work["lookups"][:5]]
    spec["extension"] = [dict(q, expect=_flip(q["expect"]))
                         for q in work["extension"]]
    result = session.run_session(spec)
    assert result["failed"] == 5 + len(work["extension"])
    assert result["invariants"] == []
    # a concept that occurs nowhere needs its own saturation: a lookup
    # batch holding one breaks the batch's invariant
    spec["lookups"] = [W.query("member", ["b", "D0 or D1"], True)]
    assert session.run_session(spec)["invariants"]


def test_sampler_scales_busy_time_by_the_probe_rate():
    sampler = speed.Sampler()
    full = 1 / speed.REFERENCE_PROBE_S
    sampler.rates = [full] * 5 + [full / 2] * 10
    # the probe ran at half its reference rate: 2.5 s of wall time, less
    # 0.5 s spent sampling, is one reference second
    assert sampler.reference(2.5, (5, 0.0), (15, 0.5)) == pytest.approx(1.0)
    # a step with too few samples of its own takes the latest ones
    assert sampler.reference(1.0, (15, 0.5), (15, 0.5)) == pytest.approx(0.5)


def test_meter_times_each_step_and_stops_its_timer():
    meter = speed.Meter()
    try:
        out = meter.run("spin", lambda n: sum(range(n)), 2_000_000)
    finally:
        meter.stop()
    assert out == sum(range(2_000_000))
    assert len(meter.sampler.rates) > speed.MIN_SAMPLES
    assert 0 < meter.reference["spin"] and 0 < meter.wall["spin"]
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    untimed = speed.Meter(calibrate=False)
    assert untimed.run("abs", abs, -1) == 1
    assert untimed.reference == untimed.wall


def test_session_reports_an_inconsistent_kb(tmp_path):
    work = W.build("wide", 4, **SMALL["wide"])
    work["kb"] += "not b : D0.\n"
    spec = _spec(tmp_path, work)
    spec["lookups"] = spec["extension"] = []
    result = session.run_session(spec)
    assert result["failed"] >= 1
    assert any("inconsistent" in f for f in result["failures"])


def test_wide_subsumption_is_atom_set_inclusion():
    """All 2,401 ordered pairs at n = 25 against the library."""
    work = W.wide(2, n=25)
    kb = P.parse_kb(work["kb"])
    engine = P.QueryEngine(kb)
    concepts = sorted({q["args"][1] for q in work["lookups"]
                       if q["kind"] == "member"})
    assert len(concepts) == 49
    atoms = {c: set(c.split(" and ")) for c in concepts}
    assert engine.is_consistent
    runs = engine.saturation_runs
    for c1 in concepts:
        for c2 in concepts:
            got = engine.ask_subsumption(P.parse_concept(c1, kb),
                                         P.parse_concept(c2, kb)).value
            assert got == (atoms[c2] <= atoms[c1]), (c1, c2)
    assert engine.saturation_runs == runs


@pytest.mark.parametrize("name", W.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_small_round_is_correct_and_quick(tmp_path, name, trace):
    t0 = time.monotonic()
    _, paths, queries = run.prepare(name, 6, out=str(tmp_path), **SMALL[name])
    r = run.one_round(paths, queries, run.child_env(), t0 + 60, trace)
    assert r["notes"] == [] and r["ok"] and r["failed"] == 0
    work = W.build(name, 6, **SMALL[name])
    session_ops = 2 + len(work["lookups"]) + len(work["extension"])
    assert r["attempted"] == session_ops + len(queries)
    assert all(v > 0 for v in r["e2e"].values())
    if trace:
        assert set(r["layers"]) >= {"parser.parse_s", "tableaux.runs",
                                    "queries.extension_self_s",
                                    "cli.startup_s", "cli.output_bytes"}
    assert time.monotonic() - t0 < 30
