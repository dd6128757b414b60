"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

Criterion 4c checks the box/dia shape invariant in the scope where the
extended calculus keeps it: runs without a crossing (box<->dia)
relation inclusion derive no forbidden shape, and on runs with one every
forbidden shape descends from a conclusion of that inclusion.  The
older, unconditional claim is false; the report line still counts the
runs that refute it.  `notes/decisions.md` carries the analysis.
"""

import contextlib
import io
import json
import math
import pathlib
import random
import subprocess
import sys
import time

import pytest

import polardl as P
from polardl.cli import main as cli_main

import fuzz
import movie_data as MD

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
MOVIES = str(FIXTURES / "movies.kb")
CLASH = str(FIXTURES / "clash.kb")

CORPUS_SEED = 20240811
CORPUS_SIZE = 1000


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def corpus():
    return fuzz.consistent_corpus(CORPUS_SEED, CORPUS_SIZE)


@pytest.fixture(scope="module")
def movies_completion(movies_kb):
    return P.saturate(P.unravel(movies_kb))


# -- 1. fixture consistency ---------------------------------------------------

def test_c1_fixture_consistency(movies_kb):
    t0 = time.perf_counter()
    comp = P.saturate(P.unravel(movies_kb))
    elapsed = time.perf_counter() - t0
    clash = P.saturate(P.parse_kb(
        pathlib.Path(CLASH).read_text()).abox)
    cert = clash.clash_certificate()
    ok = (comp.is_consistent and elapsed < 5.0
          and not clash.is_consistent
          and [s[0] for s in cert] == ["create", "I", "neg_b"])
    assert report(1, ok,
                  f"movie KB consistent in {elapsed:.2f}s; "
                  f"clash fixture inconsistent with a "
                  f"{len(cert)}-step certificate")


# -- 2. universal-model reproduction -----------------------------------------

def test_c2_universal_model(movie_table_completion, movie_model):
    table = MD.expected_table()
    p = movie_model.polarity
    mismatches = []
    for row in MD.ROW_ORDER:
        r_ind = MD.ROW_LABELS[row]
        for ci, col in enumerate(MD.COL_ORDER):
            c_ind = MD.COL_LABELS[col]
            got = int(r_ind in p.obj_index and c_ind in p.feat_index
                      and p.has(r_ind, c_ind))
            if got != table[row][ci]:
                mismatches.append((row, col, table[row][ci], got))

    rel_ok = True
    want = MD.expected_relations()
    for (kind, idx), pairs in want.items():
        got = set()
        rows = (movie_model.box_rows if kind == "box"
                else movie_model.dia_rows).get(idx, [])
        left_carrier = p.objects if kind == "box" else p.features
        right_carrier = p.features if kind == "box" else p.objects
        for li, mask in enumerate(rows):
            for ri in range(len(right_carrier)):
                if mask >> ri & 1:
                    got.add((MD.label_of(left_carrier[li]),
                             MD.label_of(right_carrier[ri])))
        if got != pairs:
            rel_ok = False

    cells = len(MD.ROW_ORDER) * len(MD.COL_ORDER)
    ok = not mismatches and rel_ok
    assert report(2, ok,
                  f"incidence table matches on {cells} cells "
                  f"({len(MD.TABLE_CORRECTIONS)} reference cells corrected "
                  f"per movie_data.TABLE_CORRECTIONS; {len(mismatches)} "
                  f"mismatches) and all four "
                  f"role relations match exactly"), mismatches[:5]


# -- 3. worked-example query battery ------------------------------------------

def test_c3_query_battery(movies_kb):
    eng = P.QueryEngine(movies_kb)
    m1, m2, m3, m4 = (P.named_obj(n) for n in ("m1", "m2", "m3", "m4"))
    f4, f6 = P.named_feat("f4"), P.named_feat("f6")
    I = P.Role("I")
    checks = []

    checks.append(("listRelated(m3, I)",
                   eng.list_related(m3, I).value == ["f4", "f6"]))
    checks.append(("membership m4 in FDM's body",
                   eng.ask_membership(m4, MD.FDM_X).value is False))
    checks.append(("box2(RM and DM) below box2 DM",
                   eng.ask_subsumption(P.box(2, MD.RDM_X),
                                       P.box(2, P.atom("DM"))).value is True))
    checks.append(("membership m3 in box2 dia1 RM",
                   eng.ask_membership(
                       m3, P.box(2, P.dia(1, P.atom("RM")))).value is False))
    checks.append(("negative membership m1 in box2 dia1 RM",
                   eng.ask_negative_membership(
                       m1, P.box(2, P.dia(1, P.atom("RM")))).value is True))
    checks.append(("negative relational m3 Rbox1 f4",
                   eng.ask_negative_relational(
                       P.rel_box(1, m3, f4)).value is False))
    checks.append(("negative relational m1 Rbox1 f6",
                   eng.ask_negative_relational(
                       P.rel_box(1, m1, f6)).value is True))
    dif = eng.ask_differentiation(m2, m4)
    checks.append(("differentiation m2/m4", dif.value is True))
    checks.append(("differentiation trace rules",
                   [s["rule"] for s in dif.certificate["steps"]] ==
                   ["create", "and_A", "I", "SA(m4,m2)", "neg_b"]))
    checks.append(("relation separation Rbox1 into I at m4",
                   eng.ask_relation_separation(P.Role("box", 1), I,
                                               m4).value is False))
    failed = [name for name, ok in checks if not ok]
    assert report(3, not failed,
                  f"{len(checks) - len(failed)}/{len(checks)} exact answers"
                  + (f"; failed: {failed}" if failed else "")), failed


# -- 4. depth-bound and shape invariants over the fuzz corpus ------------------

def test_c4a_strict_depth_bounds(corpus):
    bad = 0
    first = None
    for abox, comp in corpus:
        v = fuzz.depth_claim_violations(comp)
        if v:
            bad += 1
            first = first or (sorted(map(str, abox)), v[:3])
    assert report("4a", bad == 0,
                  f"strict depth claims hold on {len(corpus) - bad}/"
                  f"{len(corpus)} consistent completions"), first


def _extended_run(abox, extras):
    return P.saturate(abox, tuple(extras), max_steps=1_000_000)


def test_c4b_relaxed_depth_bounds_with_extras(corpus):
    rng = random.Random(CORPUS_SEED + 1)
    bad = ran = 0
    first = None
    for abox, comp in corpus:
        extras = fuzz.sample_extras(rng, abox)
        if not extras:
            continue
        run = _extended_run(abox, extras)
        ran += 1
        bs, ds = fuzz.slacks_for(extras)
        v = fuzz.depth_claim_violations(run, box_slack=bs, dia_slack=ds)
        if v:
            bad += 1
            first = first or (sorted(map(str, abox)),
                              [r.label for r in extras], v[:3])
    assert report("4b", bad == 0,
                  f"widened depth bounds hold on {ran - bad}/{ran} "
                  f"separation-extended completions"), first


def _ancestors(comp, root):
    """The assertion and every assertion its derivation rests on."""
    seen = set()
    queue = [root]
    while queue:
        a = queue.pop()
        if a not in seen:
            seen.add(a)
            queue.extend(comp.provenance[a][1])
    return seen


def test_c4c_shape_invariants_with_extras(corpus):
    # (a) no forbidden shape without a crossing inclusion; (b) with one,
    # every forbidden shape descends from a forbidden-shaped conclusion of
    # a crossing inclusion; (c) the engine's own report agrees.
    rng = random.Random(CORPUS_SEED + 1)
    hits = []            # extended runs deriving shapes (refute the old claim)
    unscoped = []        # (a) shapes on a run without a crossing inclusion
    orphans = []         # (b) shapes with no crossing-inclusion origin
    unreported = []      # (c) engine report and scan disagree
    ran = plain = 0

    def check(abox, extras, run):
        shapes = fuzz.shape_violations(run)
        if bool(run.invariant_violations) != bool(shapes):
            unreported.append((sorted(map(str, abox)),
                               [r.label for r in extras]))
        crossing = {r.label for r in extras if fuzz.is_crossing(r)}
        if not crossing:
            if shapes:
                unscoped.append((sorted(map(str, abox)),
                                 [r.label for r in extras], shapes[:3]))
            return shapes
        origins = {a for a in shapes if run.provenance[a][0] in crossing}
        for a in shapes:
            if not _ancestors(run, a) & origins:
                orphans.append((sorted(map(str, abox)),
                                [r.label for r in extras], a))
        return shapes

    for abox, comp in corpus:
        check(abox, [], comp)
        extras = fuzz.sample_extras(rng, abox)
        copies = [r for r in extras
                  if not isinstance(r, P.RelationInclusionRule)]
        check(abox, copies, _extended_run(abox, copies))
        if not extras:
            continue
        run = _extended_run(abox, extras)
        ran += 1
        plain += not any(fuzz.is_crossing(r) for r in extras)
        shapes = check(abox, extras, run)
        if shapes:
            hits.append((sorted(map(str, abox)), [r.label for r in extras],
                         shapes[0], run.provenance[shapes[0]][0]))

    ok = not unscoped and not orphans and not unreported
    detail = (f"box/dia shapes absent on {plain} extended runs without a "
              f"crossing inclusion and on {len(corpus)} copy-only runs "
              f"({len(unscoped)} violations); {len(hits)}/{ran} runs derived "
              f"shapes, with {len(orphans)} shapes not traced to a crossing "
              f"inclusion; engine report disagrees on {len(unreported)} runs")
    if hits:
        abox, labels, shape, rule = hits[0]
        detail += (f"; e.g. {str(shape)!r} by {rule} from {abox} with "
                   f"{labels} (the unconditional claim is false, see "
                   f"notes/decisions.md)")
    assert report("4c", ok, detail), (unscoped[:2], orphans[:2],
                                      unreported[:2])


# -- 5. oracle equivalence ------------------------------------------------------

def test_c5_oracle_equivalence(corpus):
    bad_sat = bad_compat = 0
    for _, comp in corpus:
        model = P.build_model(comp)
        if any(not P.check_satisfies(model, a) for a in comp.positives()):
            bad_sat += 1
        if not P.check_i_compatibility(model):
            bad_compat += 1
    small = fuzz.inconsistent_small(CORPUS_SEED + 2, 30)
    false_pos = 0
    for abox, _ in small:
        if P.bounded_model_search(abox, 3, 3, budget=6_000_000) is not None:
            false_pos += 1
    ok = bad_sat == 0 and bad_compat == 0 and false_pos == 0
    assert report(5, ok,
                  f"model checking validates every positive assertion on "
                  f"{len(corpus)} completions ({bad_sat} failures), "
                  f"I-compatibility holds ({bad_compat} failures), and "
                  f"exhaustive 3x3 search finds no model for "
                  f"{len(small)} tableaux-inconsistent inputs "
                  f"({false_pos} found)")


# -- 6. polynomial scaling -------------------------------------------------------

def ladder_abox(n):
    """Deterministic consistent ABox family of n assertions at modal
    depth two."""
    rng = random.Random(n * 7919)
    n_names = max(2, n // 5)
    objs = [P.named_obj(f"o{k}") for k in range(n_names)]
    feats = [P.named_feat(f"u{k}") for k in range(n_names)]
    atoms = [P.atom(f"A{k}") for k in range(4)]
    pool = [atoms[0], atoms[1],
            P.meet(atoms[2], atoms[3]), P.join(atoms[0], atoms[1]),
            P.box(1, atoms[0]), P.dia(1, atoms[1]),
            P.box(1, P.meet(atoms[2], atoms[3])),
            P.dia(2, P.join(atoms[0], atoms[1])),
            P.box(2, P.dia(1, atoms[0]))]
    out = set()
    while len(out) < n:
        k = rng.randrange(5)
        if k == 0:
            out.add(P.member(rng.choice(objs), rng.choice(pool)))
        elif k == 1:
            out.add(P.member(rng.choice(feats), rng.choice(pool)))
        elif k == 2:
            out.add(P.rel_i(rng.choice(objs), rng.choice(feats)))
        elif k == 3:
            out.add(P.rel_box(rng.randint(1, 2), rng.choice(objs),
                              rng.choice(feats)))
        else:
            out.add(P.rel_dia(rng.randint(1, 2), rng.choice(feats),
                              rng.choice(objs)))
    return out


def _slope(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / \
        sum((x - mx) ** 2 for x in xs)


def test_c6_polynomial_scaling():
    sizes = [10, 20, 40, 80, 160, 300]
    log_n, log_size, log_time = [], [], []
    worst = 0.0
    for n in sizes:
        abox = ladder_abox(n)
        t0 = time.perf_counter()
        comp = P.saturate(abox)
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        assert comp.is_consistent
        log_n.append(math.log(n))
        log_size.append(math.log(len(comp.assertions)))
        log_time.append(math.log(max(elapsed, 1e-4)))
    size_slope = _slope(log_n, log_size)
    time_slope = _slope(log_n, log_time)
    ok = size_slope <= 4 and time_slope <= 4 and worst < 60
    assert report(6, ok,
                  f"log-log slopes: completion size {size_slope:.2f}, "
                  f"wall time {time_slope:.2f} (limit 4); "
                  f"slowest run {worst:.2f}s (limit 60s)")


# -- 7. determinism / confluence --------------------------------------------------

def test_c7_confluence(corpus):
    bad = 0
    for abox, comp in corpus:
        for seed in (1, 2):
            other = P.saturate(abox, shuffle_seed=seed)
            if set(other.assertions) != set(comp.assertions) or \
                    other.is_consistent != comp.is_consistent:
                bad += 1
    assert report(7, bad == 0,
                  f"randomized fair schedules reproduce the fixpoint on "
                  f"{len(corpus)} completions x 2 seeds ({bad} mismatches)")


# -- 8. round-trip and CLI contracts ------------------------------------------------

def _cli_inproc(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(list(argv))
    return code, out.getvalue()


def test_c8_round_trip_and_cli(corpus):
    rt_bad = 0
    for abox, _ in corpus[:300]:
        kb = P.KnowledgeBase(
            obj_names=tuple(sorted({str(i) for a in abox
                                    for i in a.individuals()
                                    if i.sort == "obj"})),
            feat_names=tuple(sorted({str(i) for a in abox
                                     for i in a.individuals()
                                     if i.sort == "feat"})),
            box_roles=2, dia_roles=2, abox=abox)
        if P.parse_kb(P.serialize_kb(kb)).abox != kb.abox:
            rt_bad += 1

    code_ok, out_ok = _cli_inproc("check", MOVIES, "--format", "json")
    code_bad, out_bad = _cli_inproc("check", CLASH, "--format", "json")
    shapes_ok = (code_ok == 0 and code_bad == 1
                 and json.loads(out_ok)["status"] == "consistent"
                 and json.loads(out_bad)["clash"] is not None)

    byte_identical = True
    for argv in (["check", MOVIES, "--format", "json"],
                 ["ask", MOVIES, "--list-related", "m3", "I",
                  "--format", "json"],
                 ["model", MOVIES, "--format", "json"]):
        runs = {subprocess.run([sys.executable, "-m", "polardl.cli"] + argv,
                               capture_output=True).stdout for _ in range(2)}
        if len(runs) != 1:
            byte_identical = False

    ok = rt_bad == 0 and shapes_ok and byte_identical
    assert report(8, ok,
                  f"serialize/parse identity on 300 corpus KBs "
                  f"({rt_bad} failures); check exit codes and JSON shapes "
                  f"as documented; repeated invocations byte-identical: "
                  f"{byte_identical}")
